"""The four seeded workloads: how each builds its inputs, runs one operation
through dp4's public API, and checks that operation's output.

Inputs are built in rounds.  Every round of a workload has the same strata
(the same primes, heights and pencil kinds); within a stratum the rounds step
through its parameter choices from a seeded start, and the seed also picks
the order of each round and the ``seed=`` passed to dp4.  A run measures
whole rounds only, so seeds change the inputs but not the mix, and the
medians of different seeds stay comparable.  A stratum with fewer choices
than a run has rounds repeats its inputs; the run prints the share of
operations that repeat an earlier input.  The warm-up round takes its inputs
from outside every stratum, so it never runs an input that is timed later.

The operation calls dp4 through module attributes (``dp4.bm_verdict``) so
that a traced run sees it; the checks use references taken at import time,
which a traced run leaves alone.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from math import gcd, isqrt
from time import perf_counter, process_time

import dp4
from dp4 import quadform

_mat_det = quadform.mat_det
_binary_form_eval = quadform.binary_form_eval
_point_search = dp4.point_search

# Exceptions that mean "budget exhausted, no verdict": honest, not a failure.
INCONCLUSIVE_ERRORS = {"SamplingBudgetError", "FactorBudgetExceeded", "EnumerationBudgetError"}


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _residue_symbol(a: int, p: int) -> int:
    """Euler's criterion, computed here so the check does not trust dp4."""
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple
    seed: int = 0
    expect: object = None


@dataclass
class Outcome:
    status: str  # "ok" | "inconclusive" | "failed"
    output: object = None  # JSON-able output, digested for reviewers
    detail: str = ""
    sampled_images: int = 0
    images: int = 0


class Workload:
    name = ""
    round_floor_s = 1.0  # a lower bound on one round's time, to size the input pool
    trace_rounds = 1  # rounds of a traced run, fixed so that its counts repeat

    def build(self, seed: int, rounds: int) -> tuple[list[Op], list[list[Op]]]:
        """The warm-up round and the timed rounds."""
        rng = random.Random(f"{self.name}:{seed}")
        self._offsets: dict = {}  # stratum -> (seeded start, picks so far)
        warm = self.warm_round(rng)
        out = []
        for _ in range(rounds):
            ops = self.round(rng)
            rng.shuffle(ops)
            out.append(ops)
        return warm, out

    def round(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def warm_round(self, rng: random.Random) -> list[Op]:
        """Operations like a round's, on inputs that no round uses."""
        raise NotImplementedError

    @staticmethod
    def identity(op: Op) -> str:
        """What makes two operations the same input (dp4's seed= aside)."""
        return repr((op.kind, op.params))

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> Outcome:
        raise NotImplementedError

    def attempt(self, op: Op) -> tuple[Outcome, float, float]:
        """Run and check one operation: (outcome, wall seconds, cpu seconds).

        Every failure is counted in the outcome; none is raised.
        """
        t0, c0 = perf_counter(), process_time()
        try:
            result = self.run(op)
        except Exception as exc:
            wall, cpu = perf_counter() - t0, process_time() - c0
            names = {cls.__name__ for cls in type(exc).__mro__}
            status = "inconclusive" if names & INCONCLUSIVE_ERRORS else "failed"
            return Outcome(status, None, f"{type(exc).__name__}: {exc}"), wall, cpu
        wall, cpu = perf_counter() - t0, process_time() - c0
        try:
            return self.check(op, result), wall, cpu
        except Exception as exc:
            return Outcome("failed", None, f"check raised {type(exc).__name__}: {exc}"), wall, cpu

    def after_run(self, rounds: list[list[Op]]) -> str | None:
        """An untimed check once per run; returns a failure message or None."""
        return None


# ---------------------------------------------------------------------------
# census and large_p: family verdicts


def _y_surface(p: int, a: int, b: int):
    return quadform.SubfamilySurface(p, a, -p, 1, -b, 1)


def _s_surface(p: int, a: int, b: int):
    return quadform.SubfamilySurface(p, 1, 1, a, b, 1)


def _validated(s):
    report = dp4.check_subfamily(s)
    if not report.valid:
        raise ValueError(f"generated surface {s} is invalid: {report}")
    return s


def _cycled(rng: random.Random, offsets: dict, key, options):
    """The next pick from options for stratum key: a seeded start, then one
    step per pick, so that a run covers the options evenly whatever the seed
    and repeats one only after it has picked them all."""
    start, picks = offsets.get(key) or (rng.randrange(len(options)), 0)
    offsets[key] = (start, picks + 1)
    return options[(start + picks) % len(options)]


S_CHOICES = 4  # a round's second-family row at p takes one of the first four admissible t


def _y_op(rng: random.Random, p: int, a: int) -> Op:
    b = (p - 1) // a
    _validated(_y_surface(p, a, b))
    expect = ("A",) if _residue_symbol(a, p) == -1 else ()
    return Op("Y", (p, a, b), rng.randrange(2 ** 31), expect)


def _s_op(rng: random.Random, p: int, k: int) -> Op:
    """The second-family row of the k-th admissible t at p (k counts from 0)."""
    t0 = 3 * (p - 1) // 4 % 8 or 8
    _, a, b = dp4.s_from_t(p, t0 + 8 * k)
    _validated(_s_surface(p, a, b))
    return Op("S", (p, a, b), rng.randrange(2 ** 31), ("B",))


def _y_cycled(rng: random.Random, p: int, offsets: dict) -> Op:
    return _y_op(rng, p, _cycled(rng, offsets, ("Y", p), _divisors(p - 1)))


def _s_cycled(rng: random.Random, p: int, offsets: dict) -> Op:
    return _s_op(rng, p, _cycled(rng, offsets, ("S", p), range(S_CHOICES)))


class _Verdicts(Workload):
    sample_budget = 64  # bm_verdict's default

    def run(self, op):
        p, a, b = op.params
        if op.kind == "Y":
            s, predicted = dp4.make_Y(p, a, b), dp4.predict_Y(p, a, b)
        else:
            s, predicted = dp4.make_S(p, a, b), dp4.predict_S(p, a, b)
        return predicted, dp4.bm_verdict(s, sample_budget=self.sample_budget, seed=op.seed)

    def check(self, op, result):
        predicted, report = result
        kinds = [img.kind for per_place in report.images.values() for img in per_place.values()]
        outcome = Outcome("ok", report.to_json(), sampled_images=kinds.count("sampled"),
                          images=len(kinds))
        # the census agreement rule, against a prediction computed here as well
        problems = []
        if report.hp_obstructed_by != op.expect or predicted.obstructed_by != op.expect:
            problems.append(f"verdict {report.hp_obstructed_by}, predicted "
                            f"{predicted.obstructed_by}, expected {op.expect}")
        if len(report.hp_obstructed_by) > 1:
            problems.append("more than one class obstructs")
        if not report.wa_failure:
            problems.append("no failure of weak approximation")
        if report.unknown_classes:
            problems.append(f"unknown classes {report.unknown_classes}")
        if problems:
            outcome.status, outcome.detail = "failed", "; ".join(problems)
        return outcome


class Census(_Verdicts):
    name = "census"
    sample_budget = 32
    round_floor_s = 0.6
    trace_rounds = 2
    Y_PRIMES = [p for p in range(5, 100) if p % 4 == 1 and _is_prime(p)]
    S_PRIMES = [p for p in range(5, 100) if p % 8 == 5 and _is_prime(p)]
    WARM_PRIME = 101  # = 5 mod 8, above both strata

    def round(self, rng):
        return ([_y_cycled(rng, p, self._offsets) for p in self.Y_PRIMES]
                + [_s_cycled(rng, p, self._offsets) for p in self.S_PRIMES])

    def warm_round(self, rng):
        return [_y_op(rng, self.WARM_PRIME, 1), _s_op(rng, self.WARM_PRIME, 0)]


class LargeP(_Verdicts):
    name = "large_p"
    round_floor_s = 1.0
    trace_rounds = 2
    # One verdict per round, alternating between two primes that cost about
    # the same: a band of primes would make each run's few verdicts a
    # different mix of costs.  At p = 313 a run held only 6-8 verdicts, and
    # its median moved by up to 29 % between runs of the same code.  With 12
    # and 8 surfaces at these primes, no input repeats within 16 rounds.
    PRIMES = (229, 233)
    WARM_PRIME = 101  # below the band: a verdict of the same kind, at a third of the cost

    def round(self, rng):
        return [_y_cycled(rng, _cycled(rng, self._offsets, "p", self.PRIMES), self._offsets)]

    def warm_round(self, rng):
        return [_y_op(rng, self.WARM_PRIME, 2)]


# ---------------------------------------------------------------------------
# search: rational points and reciprocity


class Search(Workload):
    name = "search"
    round_floor_s = 0.8
    trace_rounds = 2
    HEIGHT = 250
    CROSS_CHECK_HEIGHT = 16
    # p = 5 mod 8, so that both soluble and obstructed first-family surfaces exist
    PRIMES = [13, 29, 37, 53, 61]
    WARM_PRIME = 5

    def _ops(self, p: int, pick) -> list[Op]:
        """A soluble and an obstructed surface at p; pick chooses a from each group."""
        ops = []
        for has_points in (True, False):
            group = [a for a in _divisors(p - 1) if (_residue_symbol(a, p) == 1) == has_points]
            a = pick(has_points, group)
            s = _validated(dp4.make_Y(p, a, (p - 1) // a))
            ops.append(Op("search", (s, self.HEIGHT), 0, has_points))
        return ops

    def round(self, rng):
        return [op for p in self.PRIMES for op in self._ops(
            p, lambda has_points, group: _cycled(rng, self._offsets, (p, has_points), group))]

    def warm_round(self, rng):
        return self._ops(self.WARM_PRIME, lambda has_points, group: group[0])

    def run(self, op):
        s, height = op.params
        points = dp4.point_search(s, height)
        return points, [dp4.reciprocity_check(s, pt) for pt in points]

    def check(self, op, result):
        s = op.params[0]
        points, reciprocity = result
        outcome = Outcome("ok", {"surface": s.label(), "points": [list(pt) for pt in points]})
        problems = []
        if not op.expect and points:
            problems.append(f"obstructed surface returned {len(points)} points")
        for pt, ok in zip(points, reciprocity):
            if gcd(*pt) != 1 or not s.contains(pt) or not ok:
                problems.append(f"bad point {pt}: reciprocity {ok}")
                break
        if problems:
            outcome.status, outcome.detail = "failed", "; ".join(problems)
        return outcome

    def after_run(self, rounds):
        s = next(op.params[0] for ops in rounds for op in ops if op.expect)
        h = self.CROSS_CHECK_HEIGHT
        found = set(_point_search(s, h))
        return None if found == _brute_force_points(s, h) else (
            f"point_search({s.label()}, {h}) disagrees with a brute-force scan")


def _brute_force_points(s, h: int) -> set:
    """Every primitive point with max |coordinate| <= h, first nonzero of (u, v) positive."""
    out = set()
    rng = range(-h, h + 1)
    for u in range(0, h + 1):
        for v in rng:
            if u == 0 and v <= 0:
                continue
            for x in rng:
                for y in rng:
                    if s.eq1((u, v, x, y, 0)) != 0:
                        continue
                    for z in range(0, h + 1):
                        if s.eq2((u, v, x, y, z)) == 0:
                            for zz in {z, -z}:
                                if gcd(u, v, x, y, zz) == 1:
                                    out.add((u, v, x, y, zz))
    return out


# ---------------------------------------------------------------------------
# pencil: the order-4 criterion and local solubility of arbitrary pencils

BSD_PENCIL = (
    ((0, -1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, -10, 0), (0, 0, 0, 0, 0)),
    ((-2, -3, 0, 0, 0), (-3, -4, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, -10)),
)


class Pencil(Workload):
    name = "pencil"
    round_floor_s = 0.5
    trace_rounds = 6
    # Family pencils are used as to_matrices gives them.  A seeded change of
    # variables, even a signed permutation, turns some of them into 17-37 s
    # decisions at q = 2 (X_29_1_1_706433_708115_1 takes 1.7 s or 37 s under
    # two signed permutations), which no run of this length can absorb.  For
    # the same reason: not p = 17 (X_17_16_-17_1_-1_1 takes about 17 s at
    # q = 2), and not p >= 41 (some pencils walk all 41^4 residue tuples).
    Y_PRIMES = [5, 13, 29, 37]
    S_PRIMES = [5, 13, 29, 37]
    # The first second-family rows past those a round uses: cheap, never timed.
    WARM_PRIMES = [5, 13]
    # No random pencils.  Of 2000 with entries in [-1, 1], 5 took over 1.5 s
    # to decide at q = 2; with entries in [-2, 2], 2 of about 500 did (one of
    # them 12 s).  With entries up to 3 about one in thirty leaves factor a
    # cofactor of 25 or more digits, and rho spends 13-20 s before giving up.

    def __init__(self):
        self._reference: dict = {}  # surface -> everywhere_locally_soluble verdict

    def _family(self, op: Op) -> Op:
        p, a, b = op.params
        s = _y_surface(p, a, b) if op.kind == "Y" else _s_surface(p, a, b)
        if s not in self._reference:
            self._reference[s] = dp4.everywhere_locally_soluble(s).everywhere_soluble
        return Op(f"{op.kind}-pencil", (dp4.to_matrices(s), s.label()), 0, self._reference[s])

    def round(self, rng):
        family = ([_y_cycled(rng, p, self._offsets) for p in self.Y_PRIMES]
                  + [_s_cycled(rng, p, self._offsets) for p in self.S_PRIMES])
        ops = [self._family(op) for op in family]
        ops.append(Op("bsd-pencil", (dp4.GeneralSurface(*BSD_PENCIL), "bsd"), 0, True))
        return self._seeded(rng, ops)

    def warm_round(self, rng):
        return self._seeded(rng, [self._family(_s_op(rng, p, S_CHOICES)) for p in self.WARM_PRIMES])

    @staticmethod
    def _seeded(rng, ops):
        """Seeded evaluation points for the determinant identity."""
        return [dataclasses.replace(op, seed=rng.randrange(2 ** 31)) for op in ops]

    def run(self, op):
        g = op.params[0]
        return dp4.order4_test(g), dp4.everywhere_locally_soluble_general(g)

    def check(self, op, result):
        g, label = op.params
        order4, local = result
        output = {"pencil": label, "order4": dataclasses.asdict(order4), "local": local.to_json()}
        outcome = Outcome("ok", output)
        problems = []
        rng = random.Random(op.seed)
        for _ in range(3):
            r, t = rng.randint(-7, 7), rng.randint(1, 7)
            if _binary_form_eval(list(order4.quintic), r, t) != _mat_det(g.member(r, t)):
                problems.append(f"quintic is not det(r M1 + t M2) at ({r}:{t})")
                break
        if op.kind in ("Y-pencil", "S-pencil") and not order4.certified:
            problems.append("family pencil not certified of order 4")
        if op.kind == "bsd-pencil" and order4.certified:
            problems.append("BSD pencil certified of order 4")
        verdict = local.everywhere_soluble
        if verdict is not None and op.expect is not None and verdict != op.expect:
            problems.append(f"local solubility {verdict}, subfamily says {op.expect}")
        if problems:
            outcome.status, outcome.detail = "failed", "; ".join(problems)
        elif verdict is None:
            outcome.status = "inconclusive"
        return outcome


WORKLOADS = {w.name: w for w in (Census, LargeP, Search, Pencil)}
