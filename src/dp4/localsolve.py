"""Local solubility of the surfaces over R and over every Q_q, with certificates.

Candidate solutions modulo q^k are explored level by level: residues that
satisfy both equations mod q^k are expanded one q-adic digit at a time (the
digit condition is an exact 2x4 linear system over F_q).  A candidate whose
2x5 Jacobian has a 2x2 minor of valuation e with 2e+1 <= k lifts to a genuine
Q_q point by Newton iteration on the two selected coordinates; an empty level
certifies insolubility, since a Q_q point would reduce to every level.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace

from .arith import is_prime, valuation
from .quadform import GeneralSurface, SubfamilySurface

DEFAULT_MAX_LEVEL = 9
DEFAULT_EXPANSION_BUDGET = 10 ** 7
RESIDUE_ENUM_BUDGET = 10 ** 4
GENERAL_ENUM_BUDGET = 60
REAL_SEARCH_STARTS = 64  # random starts of the numeric real-point search


class EnumerationBudgetError(Exception):
    """The requested exhaustive residue enumeration is beyond the budget."""


class SamplingBudgetError(Exception):
    """Could not produce the requested number of certified local points."""


@dataclass(frozen=True)
class LiftCertificate:
    """A 2x2 Jacobian minor (columns ``cols``) of valuation ``e`` at the point."""

    cols: tuple[int, int]
    e: int

    def to_json(self):
        return {"minor": list(self.cols), "e": self.e}


@dataclass(frozen=True)
class PadicApproxPoint:
    """Primitive projective 5-tuple of residues mod q^k.

    Normalized: the first coordinate that is a q-adic unit (index ``pinned``)
    equals 1, so representatives are unique per projective class.
    """

    q: int
    k: int
    coords: tuple[int, int, int, int, int]
    pinned: int
    cert: LiftCertificate | None = None

    def reduce(self, k: int) -> "PadicApproxPoint":
        if k > self.k:
            raise AssertionError(f"cannot reduce precision {self.k} to {k}")
        mod = self.q ** k
        return PadicApproxPoint(self.q, k, tuple(c % mod for c in self.coords), self.pinned, self.cert)

    def to_json(self):
        return {"q": self.q, "precision": self.k, "coords": list(self.coords)}


def normalize_residue_tuple(q: int, k: int, coords) -> PadicApproxPoint | None:
    """Scale a residue tuple to its normalized representative; None if imprimitive."""
    mod = q ** k
    coords = [c % mod for c in coords]
    for i, c in enumerate(coords):
        if c % q:
            inv = pow(c, -1, mod)
            return PadicApproxPoint(q, k, tuple(x * inv % mod for x in coords), i)
    return None


# ---------------------------------------------------------------------------
# level-1 enumeration


def _sqrt_table(q: int) -> list[list[int]]:
    table: list[list[int]] = [[] for _ in range(q)]
    for r in range(q):
        table[r * r % q].append(r)
    return table


def _level1_subfamily(s: SubfamilySurface, q: int):
    """(n, slot): the projective F_q points on both quadrics, as n slots.

    Any solution has (u, v, x) != (0, 0, 0) mod q, so three pinned patterns
    cover everything: (1:v:x), then (0:1:x), then (0:0:1), the last
    coordinate varying fastest.  Slot i holds pattern i // 4 with the
    (i // 2) % 2-th square root y and the i % 2-th square root z from the
    root table; slot(i) is that point, already normalized, or None when the
    root does not exist.
    """
    roots = _sqrt_table(q)
    p, A, B, C, D, M = s.p % q, s.A % q, s.B % q, s.C % q, s.D % q, s.M % q
    qq = q * q

    def slot(i: int) -> PadicApproxPoint | None:
        pattern, choice = divmod(i, 4)
        if pattern < qq:
            u, pinned = 1, 0
            v, x = divmod(pattern, q)
        elif pattern < qq + q:
            u, v, x, pinned = 0, 1, pattern - qq, 1
        else:
            u, v, x, pinned = 0, 0, 1, 2
        px2 = p * x * x
        ys = roots[(M * u * v + px2) % q]
        zs = roots[((A * u + B * v) * (C * u + D * v) + px2) % q]
        yi, zi = divmod(choice, 2)
        if yi >= len(ys) or zi >= len(zs):
            return None
        return PadicApproxPoint(q, 1, (u, v, x, ys[yi], zs[zi]), pinned)

    return 4 * (qq + q + 1), slot


def _level1_general(g: GeneralSurface, q: int):
    if q > GENERAL_ENUM_BUDGET:
        raise EnumerationBudgetError(
            f"residue enumeration for a general pencil is limited to q <= {GENERAL_ENUM_BUDGET}, got {q}")
    for pinned in range(5):
        head = (0,) * pinned + (1,)
        for tail in itertools.product(range(q), repeat=4 - pinned):
            pt = head + tail
            if g.quad_value(0, pt) % q == 0 and g.quad_value(1, pt) % q == 0:
                yield PadicApproxPoint(q, 1, pt, pinned)


def iter_residue_points(surface, q: int, rng: random.Random | None = None):
    """The projective F_q points on both quadrics, normalized, lazily.

    Without ``rng`` they come in a fixed exhaustive order, within the
    enumeration budget.  With ``rng`` they come in seeded random order:
    drawn lazily on a subfamily surface, so taking the first few costs about
    as much at any q as at a small one; listed and shuffled on a general
    pencil, whose q is at most GENERAL_ENUM_BUDGET.
    """
    if not isinstance(surface, SubfamilySurface):
        pts = _level1_general(surface, q)
        if rng is None:
            return pts
        pts = list(pts)
        rng.shuffle(pts)
        return iter(pts)
    if rng is None and q > RESIDUE_ENUM_BUDGET:
        raise EnumerationBudgetError(f"residue enumeration budget is q <= {RESIDUE_ENUM_BUDGET}, got {q}")
    n, slot = _level1_subfamily(surface, q)
    order = range(n) if rng is None else _shuffled_indices(n, rng)
    return (pt for pt in map(slot, order) if pt is not None)


def residue_points(surface, q: int) -> list[PadicApproxPoint]:
    """Exhaustive normalized list of projective F_q points on both quadrics."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    return list(iter_residue_points(surface, q))


# ---------------------------------------------------------------------------
# Hensel certificates and Newton refinement


def _check_point_invariants(surface, pt: PadicApproxPoint) -> None:
    mod = pt.q ** pt.k
    if pt.coords[pt.pinned] % pt.q == 0:
        raise ValueError("pinned coordinate is not a unit")
    f1, f2 = surface.equations(pt.coords)
    if f1 % mod or f2 % mod:
        raise ValueError(f"point does not satisfy the equations mod {pt.q}^{pt.k}")


def lift_certificate(surface, pt: PadicApproxPoint) -> LiftCertificate | None:
    """Certificate that pt lifts to a Q_q point, or None if precision is too low.

    Exists when some 2x2 Jacobian minor has valuation e with 2e+1 <= k; the
    residuals already vanish mod q^k >= q^(2e+1).
    """
    _check_point_invariants(surface, pt)
    q, k = pt.q, pt.k
    j1, j2 = surface.jacobian(pt.coords)
    best: LiftCertificate | None = None
    for a, b in itertools.combinations(range(5), 2):
        minor = j1[a] * j2[b] - j1[b] * j2[a]
        if minor % q ** k == 0:
            continue  # valuation at least k at this precision
        e = valuation(minor % q ** k, q)
        if best is None or e < best.e:
            best = LiftCertificate((a, b), e)
            if e == 0:
                break
    if best is not None and 2 * best.e + 1 <= k:
        return best
    return None


def newton_refine(surface, pt: PadicApproxPoint, target_k: int) -> PadicApproxPoint:
    """Refine a certified point to precision target_k (Newton on two coordinates)."""
    if pt.cert is None:
        cert = lift_certificate(surface, pt)
        if cert is None:
            raise ValueError("point carries no lift certificate")
        pt = replace(pt, cert=cert)
    if target_k <= pt.k:
        return pt.reduce(target_k) if target_k < pt.k else pt
    q, e = pt.q, pt.cert.e
    i, j = pt.cert.cols
    big = q ** (target_k + e + 1)
    coords = [c % big for c in pt.coords]
    for _ in range(64):
        f1, f2 = surface.equations(coords)
        f1 %= big
        f2 %= big
        cur = min(valuation(f1, q) if f1 else target_k + e + 1,
                  valuation(f2, q) if f2 else target_k + e + 1)
        if cur >= target_k:
            break
        j1, j2 = surface.jacobian(coords)
        m11, m12 = j1[i], j1[j]
        m21, m22 = j2[i], j2[j]
        det = m11 * m22 - m12 * m21
        dv = valuation(det % big if det % big else det, q)
        if dv != e:
            raise ArithmeticError("certificate minor valuation drifted during refinement")
        unit = det // q ** e
        unit_inv = pow(unit % big, -1, big)
        # delta = -J2^{-1} F = -adj(J2) F / det, exact division by q^e
        n1 = -(m22 * f1 - m12 * f2)
        n2 = -(-m21 * f1 + m11 * f2)
        if n1 % q ** e or n2 % q ** e:
            raise AssertionError("Newton numerators are not divisible by the minor's q-power")
        coords[i] = (coords[i] + (n1 // q ** e) * unit_inv) % big
        coords[j] = (coords[j] + (n2 // q ** e) * unit_inv) % big
    else:
        raise ArithmeticError("Newton refinement did not converge")
    out = normalize_residue_tuple(q, target_k, coords)
    if out is None or out.pinned != pt.pinned:
        raise AssertionError("Newton refinement lost primitivity or moved the pinned coordinate")
    out = replace(out, cert=pt.cert)
    _check_point_invariants(surface, out)
    return out


# ---------------------------------------------------------------------------
# digit-by-digit expansion


def _reduce_digit_system(rows, rhs, q: int):
    """Row-reduce the 2x4 digit system; (mat, pivots) or None if inconsistent."""
    mat = [list(rows[0]) + [rhs[0]], list(rows[1]) + [rhs[1]]]
    pivots = []
    r = 0
    for c in range(4):
        piv = next((rr for rr in range(r, 2) if mat[rr][c] % q), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, q)
        mat[r] = [x * inv % q for x in mat[r]]
        for rr in range(2):
            if rr != r and mat[rr][c] % q:
                f = mat[rr][c]
                mat[rr] = [(x - f * y) % q for x, y in zip(mat[rr], mat[r])]
        pivots.append(c)
        r += 1
        if r == 2:
            break
    for rr in range(r, 2):
        if mat[rr][4] % q:
            return None
    return mat, pivots


def _child_decoder(surface, pt: PadicApproxPoint):
    """(n, child): pt has n lifts mod q^(k+1), and child(i) is the i-th of them.

    The index is read in base q as the free digits of the digit system, the
    last free digit varying fastest; n is 0 when pt is dead.
    """
    q, k = pt.q, pt.k
    qk = q ** k
    f1, f2 = surface.equations(pt.coords)
    j1, j2 = surface.jacobian(pt.coords)
    free_idx = [idx for idx in range(5) if idx != pt.pinned]
    rows = ([j1[idx] % q for idx in free_idx], [j2[idx] % q for idx in free_idx])
    reduced = _reduce_digit_system(rows, ((-(f1 // qk)) % q, (-(f2 // qk)) % q), q)
    if reduced is None:
        return 0, None
    mat, pivots = reduced
    free = [c for c in range(4) if c not in pivots]

    def child(i: int) -> PadicApproxPoint:
        t = [0, 0, 0, 0]
        for c in reversed(free):
            i, t[c] = divmod(i, q)
        for row, pc in zip(mat, pivots):
            t[pc] = (row[4] - sum(row[c] * t[c] for c in free)) % q
        coords = list(pt.coords)
        for pos, idx in enumerate(free_idx):
            coords[idx] += qk * t[pos]
        return PadicApproxPoint(q, k + 1, tuple(coords), pt.pinned)

    return q ** len(free), child


def expand_children(surface, pt: PadicApproxPoint):
    """All normalized solutions mod q^(k+1) lying over pt, lazily."""
    n, child = _child_decoder(surface, pt)
    for i in range(n):
        yield child(i)


def _shuffled_indices(n: int, rng: random.Random):
    """range(n) in seeded random order, drawn lazily.

    A sparse Fisher-Yates shuffle: only the displaced values of positions not
    yet drawn are stored, so memory grows with the indices drawn, not with n,
    and shrinks again as the last positions are drawn.
    """
    swapped: dict[int, int] = {}
    for i in range(n):
        j = rng.randrange(i, n)
        yield swapped.get(j, j)
        swapped[j] = swapped.pop(i, i)


def _shuffled_children(surface, pt: PadicApproxPoint, rng: random.Random):
    """The lifts of pt in seeded random order, drawn lazily."""
    n, child = _child_decoder(surface, pt)
    return map(child, _shuffled_indices(n, rng))


def solutions_at_level(surface, q: int, k: int, budget: int = DEFAULT_EXPANSION_BUDGET):
    """Complete list of normalized solutions mod q^k (BFS through all levels)."""
    level = list(iter_residue_points(surface, q))
    for _ in range(k - 1):
        nxt = []
        for pt in level:
            for child in expand_children(surface, pt):
                nxt.append(child)
                budget -= 1
                if budget < 0:
                    raise EnumerationBudgetError("expansion budget exhausted")
        level = nxt
    return level


# ---------------------------------------------------------------------------
# solubility decisions


@dataclass(frozen=True)
class SolubilityVerdict:
    place_q: int  # prime q, or 0 for the real place
    status: str  # "soluble" | "insoluble" | "inconclusive"
    witness: PadicApproxPoint | None = None
    real_witness: str | None = None
    level: int | None = None
    method: str = ""

    @property
    def soluble(self) -> bool:
        return self.status == "soluble"

    def to_json(self):
        out = {"place": "oo" if self.place_q == 0 else str(self.place_q), "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
            if self.witness.cert is not None:
                out["certificate"] = self.witness.cert.to_json()
        if self.real_witness is not None:
            out["witness"] = self.real_witness
        if self.level is not None:
            out["level"] = self.level
        if self.method:
            out["method"] = self.method
        return out


def decide_Qq(surface, q: int, max_level: int = DEFAULT_MAX_LEVEL,
              budget: int = DEFAULT_EXPANSION_BUDGET) -> SolubilityVerdict:
    """Iterative deepening over primitive solutions mod q^k.

    Any certified candidate proves solubility; if every branch dies before
    some level, that level is empty and the surface is insoluble at q (a Q_q
    point would reduce to every level); exhaustion is inconclusive.  The
    exploration is depth-first with a streamed frontier, so memory stays
    bounded even when a singular residue point has a full digit space of
    lifts.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")

    class State:
        expansions = 0
        deepest = 0
        truncated = False  # some branch hit max_level without a certificate

    state = State()

    def dfs(pt: PadicApproxPoint):
        cert = lift_certificate(surface, pt)
        if cert is not None:
            return replace(pt, cert=cert)
        state.deepest = max(state.deepest, pt.k)
        if pt.k >= max_level:
            state.truncated = True
            return None
        for child in expand_children(surface, pt):
            state.expansions += 1
            if state.expansions > budget:
                raise _BudgetExhausted
            found = dfs(child)
            if found is not None:
                return found
        return None

    seen_any = False
    try:
        for pt in iter_residue_points(surface, q):
            seen_any = True
            found = dfs(pt)
            if found is not None:
                return SolubilityVerdict(q, "soluble", found, level=found.k, method="hensel")
    except _BudgetExhausted:
        return SolubilityVerdict(q, "inconclusive", level=state.deepest,
                                 method="expansion budget exhausted")
    if not seen_any:
        return SolubilityVerdict(q, "insoluble", level=1, method="empty residue level")
    if state.truncated:
        return SolubilityVerdict(q, "inconclusive", level=max_level, method="level budget exhausted")
    return SolubilityVerdict(q, "insoluble", level=state.deepest + 1, method="empty residue level")


class _BudgetExhausted(Exception):
    pass


def _cholesky_definite(m, sign: int) -> bool:
    a = [[sign * float(m[i][j]) for j in range(5)] for i in range(5)]
    for i in range(5):
        for j in range(i):
            a[i][i] -= a[i][j] ** 2
        if a[i][i] <= 1e-12:
            return False
        a[i][i] = math.sqrt(a[i][i])
        for k2 in range(i + 1, 5):
            for j in range(i):
                a[k2][i] -= a[k2][j] * a[i][j]
            a[k2][i] /= a[i][i]
    return True


def decide_R(surface) -> SolubilityVerdict:
    """Real solubility: exact witness for the subfamily, numeric search otherwise."""
    if isinstance(surface, SubfamilySurface):
        # p > 0, so (0 : 0 : 1 : sqrt(p) : sqrt(p)) always lies on the surface.
        return SolubilityVerdict(0, "soluble", real_witness="(0:0:1:sqrt(p):sqrt(p))",
                                 method="theorem: real witness")
    g: GeneralSurface = surface
    rng = random.Random(0)
    for _ in range(REAL_SEARCH_STARTS):
        x = [rng.gauss(0, 1) for _ in range(5)]
        for _ in range(200):
            norm = math.sqrt(sum(c * c for c in x))
            x = [c / norm for c in x]
            f1 = sum(g.mat1[i][j] * x[i] * x[j] for i in range(5) for j in range(5))
            f2 = sum(g.mat2[i][j] * x[i] * x[j] for i in range(5) for j in range(5))
            if abs(f1) + abs(f2) < 1e-13:
                wit = "(" + ":".join(f"{c:.6f}" for c in x) + ")"
                return SolubilityVerdict(0, "soluble", real_witness=wit, method="numeric search")
            j1 = [2 * sum(g.mat1[i][j] * x[j] for j in range(5)) for i in range(5)]
            j2 = [2 * sum(g.mat2[i][j] * x[j] for j in range(5)) for i in range(5)]
            # Gauss-Newton step: solve (J J^T) s = F, delta = J^T s
            a11 = sum(c * c for c in j1)
            a12 = sum(a * b for a, b in zip(j1, j2))
            a22 = sum(c * c for c in j2)
            det = a11 * a22 - a12 * a12
            if abs(det) < 1e-30:
                break
            s1 = (a22 * f1 - a12 * f2) / det
            s2 = (-a12 * f1 + a11 * f2) / det
            x = [c - s1 * d1 - s2 * d2 for c, d1, d2 in zip(x, j1, j2)]
    # sign analysis: a definite member of the real pencil rules out real points
    for step in range(720):
        th = math.pi * step / 720
        member = tuple(tuple(math.cos(th) * g.mat1[i][j] + math.sin(th) * g.mat2[i][j]
                             for j in range(5)) for i in range(5))
        if _cholesky_definite(member, 1) or _cholesky_definite(member, -1):
            return SolubilityVerdict(0, "insoluble", method=f"definite pencil member at angle index {step}")
    return SolubilityVerdict(0, "inconclusive", method="numeric search and sign analysis both inconclusive")


# ---------------------------------------------------------------------------
# per-place aggregation for the subfamily


@dataclass(frozen=True)
class LocalSolubilityReport:
    rows: tuple[tuple[str, SolubilityVerdict | None, str], ...]  # (place label, verdict, note)
    decided_places: tuple[int, ...]
    surface: SubfamilySurface | None = None

    @property
    def everywhere_soluble(self) -> bool | None:
        """Over every decided place, the real one included; None if one is inconclusive."""
        verdicts = [v for _, v, _ in self.rows if v is not None]
        if any(v.status == "inconclusive" for v in verdicts):
            return None
        return all(v.soluble for v in verdicts)

    def to_json(self):
        out = {} if self.surface is None else {"surface": self.surface.label()}
        out.update({
            "everywhere_locally_soluble": self.everywhere_soluble,
            "decided_places": list(self.decided_places),
            "rows": [
                {"place": label, "note": note, **({} if v is None else v.to_json())}
                for label, v, note in self.rows
            ],
        })
        return out


def everywhere_locally_soluble(s: SubfamilySurface) -> LocalSolubilityReport:
    """Local solubility at every place of Q, with explicit work only where needed.

    Places v not in {2, p} with p a non-square at v and v not dividing N are
    soluble by the four-case residue argument; places where p is a square have
    the witness (0:0:1:sqrt(p):sqrt(p)).  That leaves {2, p} and the odd prime
    divisors of N at which p is a non-residue.
    """
    from .arith import legendre  # local import to keep module top light

    p = s.p
    n_val = s.N
    rows: list[tuple[str, SolubilityVerdict | None, str]] = []
    rows.append(("oo", decide_R(s), ""))
    rows.append(("v with p square in Q_v", None, "theorem: witness (0:0:1:sqrt(p):sqrt(p))"))
    rows.append((f"v not in {{2,{p}}}, p nonsquare at v, v ndiv {n_val}", None,
                 "theorem: four-case residue argument"))
    explicit = [2]
    if p % 8 == 1:
        rows.append(("2", None, "theorem: p = 1 mod 8, sqrt(p) in Q_2"))
        explicit.remove(2)
    explicit.append(p)
    for q in sorted({f for f in _odd_prime_divisors(n_val) if f != p}):
        if legendre(p, q) == -1:
            explicit.append(q)
        else:
            rows.append((str(q), None, "theorem: p is a square mod q, sqrt(p) witness"))
    for q in explicit:
        rows.append((str(q), decide_Qq(s, q), ""))
    return LocalSolubilityReport(tuple(rows), tuple(explicit), s)


def _odd_prime_divisors(n: int) -> list[int]:
    from .arith import factor

    return sorted({f for f in factor(abs(n)) if f % 2})


def everywhere_locally_soluble_general(g: GeneralSurface) -> LocalSolubilityReport:
    """Local solubility of a general pencil at every place.

    At an odd prime of good reduction (the pencil quintic stays squarefree of
    degree 5 mod q) the surface has a smooth residue point, so it is soluble;
    only 2, the small primes, and the primes of bad reduction need deciding.
    """
    from .arith import factor
    from .quadform import binary_form_content, binary_form_is_squarefree, binary_resultant, discriminant_quintic

    quintic = discriminant_quintic(g)
    if all(c == 0 for c in quintic):
        raise ValueError("pencil discriminant vanishes identically; not a del Pezzo pencil")
    if not binary_form_is_squarefree(quintic):
        raise ValueError("pencil quintic is not squarefree; the surface is singular")
    dk = [(5 - i) * c for i, c in enumerate(quintic[:5])]
    dl = [(i + 1) * c for i, c in enumerate(quintic[1:])]
    res = binary_resultant(dk, dl)
    if res == 0:
        raise AssertionError("squarefree quintic has a zero discriminant")
    candidates = {2, 3, 5}
    candidates.update(factor(abs(res)))
    candidates.update(factor(abs(binary_form_content(quintic))))
    rows: list[tuple[str, SolubilityVerdict | None, str]] = []
    rows.append(("oo", decide_R(g), ""))
    rows.append(("other odd primes", None,
                 "theorem: good reduction, a residue point exists and is smooth"))
    decided = []
    for q in sorted(candidates):
        if q > GENERAL_ENUM_BUDGET:
            # q divides res = +-5^3 Disc(quintic) or the content, so the
            # quintic is 0 or has a repeated root mod q: bad reduction
            v = SolubilityVerdict(q, "inconclusive", method="bad reduction beyond enumeration budget")
        else:
            v = decide_Qq(g, q)
            decided.append(q)
        rows.append((str(q), v, ""))
    return LocalSolubilityReport(tuple(rows), tuple(decided))


# ---------------------------------------------------------------------------
# sampling certified local points


def sample_local_points(surface, q: int, count: int, precision: int,
                        seed: int = 0, budget: int = 200_000) -> list[PadicApproxPoint]:
    """At least ``count`` distinct certified points at the given precision.

    Stratified: one point per level-1 residue class that is certified at once,
    the classes drawn lazily in seeded random order until ``count`` points are
    in hand, so a small request costs about the same at any q.  Only once every
    level-1 class has been drawn: one depth-first search below the uncertified
    classes, each node's lifts drawn lazily in seeded random order, then
    further lifts of the certified classes.  ``budget`` caps the lifts
    inspected in passes 2 and 3.  Beyond the exhaustive enumeration budget
    (q > RESIDUE_ENUM_BUDGET) the level-1 set is never exhausted, so pass 1
    draws at most ``budget`` classes there and then raises
    EnumerationBudgetError.  Takes subfamily surfaces and general pencils.
    Deterministic for a fixed seed.
    """
    if count == 0:
        return []
    rng = random.Random(f"{seed}:{q}:{precision}:{surface!r}")
    level1: list[PadicApproxPoint] = []
    out: list[PadicApproxPoint] = []
    seen: set[tuple] = set()
    spent = 0

    def try_collect(pt: PadicApproxPoint) -> bool:
        cert = lift_certificate(surface, pt)
        if cert is None:
            return False
        refined = newton_refine(surface, replace(pt, cert=cert), precision)
        key = refined.coords
        if key in seen:
            return False
        seen.add(key)
        out.append(refined)
        return True

    # pass 1: one certified point per level-1 class where immediately possible
    pending = []
    for pt in iter_residue_points(surface, q, rng):
        if q > RESIDUE_ENUM_BUDGET and len(level1) >= budget:
            raise EnumerationBudgetError(
                f"{budget} level-1 classes drawn at q={q} gave only {len(out)} of {count} certified points")
        level1.append(pt)
        if not try_collect(pt):
            pending.append(pt)
        elif len(out) >= count:
            return out
    # pass 2: depth-first search below the uncertified classes.  Lifts are
    # drawn lazily, so a node with a full digit space of q^4 lifts costs only
    # the lifts inspected.  Round-robin with a per-class share first, so that
    # no single branch swallows the request (stratification); then fill
    # greedily from whatever is productive.
    max_depth = max(precision, DEFAULT_MAX_LEVEL)

    def dfs_collect(pt: PadicApproxPoint, cap: int) -> None:
        nonlocal spent
        if len(out) >= cap or pt.k >= max_depth:
            return
        for child in _shuffled_children(surface, pt, rng):
            spent += 1
            if spent > budget:
                raise SamplingBudgetError(
                    f"sampling budget exhausted with {len(out)}/{count} points")
            if len(out) >= cap:
                return
            if lift_certificate(surface, child) is not None:
                try_collect(child)
            else:
                dfs_collect(child, cap)

    for _ in range(3):
        if len(out) >= count or not pending:
            break
        before = len(out)
        share = max(1, (count - len(out) + len(pending) - 1) // len(pending))
        for start in pending:
            if len(out) >= count:
                break
            dfs_collect(start, min(count, len(out) + share))
        if len(out) == before:
            break
    for start in pending:  # uncapped fill: one sweep explores each subtree fully
        if len(out) >= count:
            break
        dfs_collect(start, count)
    # pass 3: widen with further lifts of already-certified classes
    for pt in level1:
        if len(out) >= count:
            break
        if lift_certificate(surface, pt) is None:
            continue
        for child in expand_children(surface, pt):
            spent += 1
            if spent > budget:
                raise SamplingBudgetError(f"sampling budget exhausted with {len(out)}/{count} points")
            if len(out) >= count:
                break
            try_collect(child)
    if len(out) < count:
        raise SamplingBudgetError(f"only found {len(out)} of {count} requested points at q={q}")
    return out[:count]
