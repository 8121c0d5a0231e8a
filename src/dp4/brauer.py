"""The three 2-torsion classes on a subfamily surface and their invariant maps.

On X: y^2 - p x^2 = M u v ; z^2 - p x^2 = (Au+Bv)(Cu+Dv) the group of classes
modulo constants is {1, A, B, C} with quaternion representatives

    A = (p, u/(Au+Bv)),   B = (p, (z-y)/u),   C = (p, (Au+Bv)/(z-y)),

and C = A + B.  Each class carries several function representatives (obtained
by multiplying by norms from Q(sqrt p) and by squares); all agree wherever two
are simultaneously defined and nonzero, which is what makes the local
invariant computable at almost every point.  Every representative is a
product of seven fixed factors, u, Mv, Au+Bv, Cu+Dv, z-y, z+y and AC, so the
representatives form one table shared by all surfaces; what a surface derives
(its places, and per place its readings' constants and values by pattern) is
kept on its instance (``quadform._kept``).
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .arith import (
    Place,
    PLACE_INF,
    _legendre_unchecked,
    _prime_is_square_at,
    _sqrt_mod_unchecked,
    factor,
    find_nonresidue,
    hilbert_valunit,
    is_prime,
    legendre,
    valuation,
)
from .localsolve import (
    PadicApproxPoint,
    SamplingBudgetError,
    _sample_points,
    decide_Qq,
    lift_certificate,
    newton_refine,
    normalize_residue_tuple,
)
from .families import closed_form, family_of, point_search
from .quadform import SubfamilySurface, _kept, normalize_point, validate_subfamily

CLASS_TAGS = ("A", "B", "C")

ZERO = Fraction(0)
HALF = Fraction(1, 2)


class IndeterminateEvaluationError(Exception):
    """Every representation of the class is 0 or infinite at the point."""


class WitnessSearchError(AssertionError):
    """No invariant-separating pair was found; contradicts the surjectivity result."""


class SampledContradictionError(SamplingBudgetError):
    """Two classes obstruct on a surface off the families: some sampled
    singleton image is wrong, so the verdict is inconclusive."""


# ---------------------------------------------------------------------------
# function representatives


@dataclass(frozen=True)
class SymbolRep:
    """n/d with n and d products of named factors, at positions ``num_at`` and ``den_at`` of FACTORS."""

    label: str
    num: tuple[str, ...]
    den: tuple[str, ...]
    num_at: tuple[int, ...] = field(init=False, repr=False, compare=False)
    den_at: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "num_at", tuple(map(FACTORS.index, self.num)))
        object.__setattr__(self, "den_at", tuple(map(FACTORS.index, self.den)))


FACTORS = ("u", "Mv", "Au+Bv", "Cu+Dv", "z-y", "z+y", "AC")


def _factor_values(s: SubfamilySurface, coords) -> dict[str, int]:
    """The seven integers every class representative is a product of, by name in FACTORS order."""
    u, v, _, y, z = coords
    A, C = s.A, s.C
    return {"u": u, "Mv": s.M * v, "Au+Bv": A * u + s.B * v, "Cu+Dv": C * u + s.D * v,
            "z-y": z - y, "z+y": z + y, "AC": A * C}


# the defining fractions, and variants multiplied by the norm forms
# Muv = y^2 - p x^2 and (Au+Bv)(Cu+Dv) = z^2 - p x^2 for the loci u = 0, Au+Bv = 0
REPRESENTATIONS = {
    "A": (SymbolRep("u/(Au+Bv)", ("u",), ("Au+Bv",)),
          SymbolRep("Mv/(Au+Bv)", ("Mv",), ("Au+Bv",)),
          SymbolRep("u(Cu+Dv)", ("u", "Cu+Dv"), ()),
          SymbolRep("Mv(Cu+Dv)", ("Mv", "Cu+Dv"), ())),
    "B": (SymbolRep("(z-y)/u", ("z-y",), ("u",)),
          SymbolRep("AC(z+y)/u", ("AC", "z+y"), ("u",)),
          SymbolRep("Mv(z-y)", ("Mv", "z-y"), ()),
          SymbolRep("ACMv(z+y)", ("AC", "Mv", "z+y"), ())),
    "C": (SymbolRep("(Au+Bv)/(z-y)", ("Au+Bv",), ("z-y",)),
          SymbolRep("AC(z+y)/(Au+Bv)", ("AC", "z+y"), ("Au+Bv",))),
}


def class_representations(s: SubfamilySurface, tag: str) -> tuple[SymbolRep, ...]:
    """Function representatives of the class, most convenient first: the public
    view of REPRESENTATIONS, one table for every surface (see ``_factor_values``)."""
    if tag not in REPRESENTATIONS:
        raise ValueError(f"unknown class tag {tag!r}")
    return REPRESENTATIONS[tag]


# ---------------------------------------------------------------------------
# invariant evaluation


def _at_place(s: SubfamilySurface, q: int) -> tuple:
    """What the readings of s at q share, kept on s under q (``_kept``): the modulus and slack, v_q(p), p's
    unit, (p, q)_q at odd q != p, v_q(AC) and (p, AC)_q (AC != 0 on a valid s), ``_pattern_values``' table."""
    mod, slack = (8, 3) if q == 2 else (q, 1)
    val_p = q == s.p  # v_q(p), p being a validated prime
    unit_p = 1 if val_p else s.p % mod
    odd_sign = None if val_p or q == 2 else hilbert_valunit(q, 0, unit_p, 1, 1)
    v = valuation(s.A * s.C, q)
    sign = hilbert_valunit(q, val_p, unit_p, v, s.A * s.C // q ** v % mod) if odd_sign is None else odd_sign ** v
    return mod, slack, val_p, unit_p, odd_sign, v, sign, {}


class _Reading:
    """One reading of the seven factors at a point, at the prime q of its place.

    ``point`` is an exact integer 5-tuple, at a q the caller proved prime, or
    a PadicApproxPoint, at its own q.  A p-adic point mod q^k whose
    certificate has minor valuation e proves m = k - e digits (m = k with no
    certificate), and only those are read.  One pass over ``_factor_values``
    reads each factor f once, mod q^m first at a p-adic point: vals[i] is
    v_q(f) for f the i-th of FACTORS, or room + 1 where f is zero (0 mod q^m,
    or exactly 0).  A representative n/d counts when max(v_q(n), v_q(d)) <=
    room, v_q(n) being the sum over n's factors: at a p-adic point room = m -
    3 at q = 2, else m - 1, so n keeps the unit digits that fix its square
    class (its unit mod q^(m - v_q(n)) is the product of its factors' units);
    an exact point has no bound.  Only factors with v_q(f) <= room, which
    include those of every counting representative, get signs[i] = (p, f)_q,
    the others 0: from f's unit at q = p and at 2 (mod 8), while at an odd q
    != p it is 1 for even v_q(f) and (p, q)_q, read once, for odd.  By
    bimultiplicativity (p, n/d)_q is the product of its factors' signs.  AC is read
    exactly, once per place (``_at_place``): v_q(AC) < m fixes its unit mod q^(m - v_q(AC)).

    A certified pt below the target ``precision`` is read so too, with the
    target's room, precision - e - slack, if every v_q(f) <= room; else it is
    refined to k' = min(precision, 2k) digits and read again, until every
    factor fits or k' = precision.  Either way the reading is that of P =
    newton_refine(pt, precision).  Each refinement keeps pt's certificate and
    e; it and P approximate the same projective Q_q point, both normalised at
    the pinned coordinate, so they agree mod q^(k' - e), as does each factor,
    a linear form in the coordinates or a constant.  At k' = precision the
    readings are one; below it each factor has v_q(f) <= k' - e - slack, so
    the same valuation and unit mod q (mod 8 at 2) at P: vals, signs, room =
    precision - e - slack and the pattern are P's.  ``point`` is the last refinement read.
    """

    def __init__(self, s: SubfamilySurface, point, q: int, precision: int = 0):
        mod, slack, val_p, unit_p, odd_sign, ac_val, ac_sign, self.table = _kept(s, q, _at_place, s, q)
        local = isinstance(point, PadicApproxPoint)
        e = point.cert.e if local and point.cert else 0
        while True:
            qk = q ** (point.k - e) if local else 1
            self.point, self.q = point, q
            self.room = room = point.k - e - slack if local else sys.maxsize
            self.vals, self.signs = vals, signs = [room + 1] * 7, [0] * 7
            for i, f in zip(range(6), _factor_values(s, point.coords if local else point).values()):
                if local:
                    f %= qk
                if f % q:
                    val, unit = 0, f
                elif f:
                    val = valuation(f, q)
                    unit = f // q ** val
                else:
                    continue
                vals[i] = val
                if val <= room:
                    signs[i] = (hilbert_valunit(q, val_p, unit_p, val, unit % mod) if odd_sign is None
                                else odd_sign if val % 2 else 1)
            if ac_val < room + slack:  # AC is not 0 mod q^(k - e)
                vals[6] = ac_val
                if ac_val <= room:
                    signs[6] = ac_sign
            if not local or point.k >= precision or max(vals) <= room:
                break
            point = newton_refine(s, point, min(precision, 2 * point.k))  # a factor needs more digits than pt carries
        if local and point.k < precision:
            self.room = precision - e - slack


def _eval_reps(reading: _Reading, tag: str) -> Fraction | None:
    """Common value of the class's representatives that count at the reading, or None."""
    vals, signs, room = reading.vals, reading.signs, reading.room
    found = 0  # the common sign (p, n/d)_q, 0 while no representative counts
    for rep in REPRESENTATIONS[tag]:
        n = d = 0
        for i in rep.num_at:
            n += vals[i]
        for i in rep.den_at:
            d += vals[i]
        if n > room or d > room:
            continue
        sign = 1
        for i in rep.num_at + rep.den_at:
            sign *= signs[i]
        if found and sign != found:
            raise AssertionError(f"representations disagree for {tag} at {reading.point}, place {reading.q}")
        found = sign
    return None if not found else ZERO if found == 1 else HALF


def evaluate_invariant(s: SubfamilySurface, tag: str, point, v=None) -> Fraction:
    """Local invariant of the class at a point, in {0, 1/2}.

    ``point`` is either an exact integer 5-tuple (then ``v`` names the place)
    or a PadicApproxPoint (then the place is its prime); an exact point off
    the surface, or zero, is a ValueError at every place.  The value is the
    class's entry in the reading's (A, B, C) by pattern (``_pattern_values``),
    at an exact point ``_exact_values``.  The caller validates s: this runs once per point.
    """
    class_representations(s, tag)  # an unknown tag is a ValueError
    if isinstance(point, PadicApproxPoint):
        if (value := _pattern_values(s, _Reading(s, point, point.q))[CLASS_TAGS.index(tag)]) is None:
            raise IndeterminateEvaluationError(f"class {tag} indeterminate at {point}, place {point.q}")
        return value
    point = normalize_point(point)
    if not s.contains(point):
        raise ValueError(f"{point} is not on {s.label()}")
    if v is None:
        raise ValueError("exact points need an explicit place")
    if not isinstance(v, Place):
        v = PLACE_INF if v in (0, "oo") else Place(int(v))
    if v.is_infinite:
        return ZERO  # all class symbols are (p, *) with p > 0
    return _exact_values(s, point, v.q)[CLASS_TAGS.index(tag)]


def _pattern_values(s: SubfamilySurface, reading: _Reading) -> tuple:
    """``_point_values`` kept by reading pattern per instance and place (``invariant_image``'s lemma)."""
    table, key = reading.table, (tuple(reading.vals), tuple(reading.signs), reading.room)
    if key not in table:
        table[key] = _point_values(s, reading)
    return table[key]


def _point_values(s: SubfamilySurface, reading: _Reading) -> tuple:
    """Values of A, B and C at the reading's point, None where a class is indeterminate.

    A class that the reading leaves undecided where p is a square in Q_q
    (``_prime_is_square_at``) is 0, every symbol (p, f)_q being 1 there.
    C = A + B wherever A and B are determinate, checked against C's own
    determinate representatives (the Klein-four identity); elsewhere C is
    read from its own representatives.  Only the reading's vals, signs, room
    and q enter the values, the point only the messages of the two checks (the lemma of ``invariant_image``).
    """
    a = _eval_reps(reading, "A")
    b = _eval_reps(reading, "B")
    own = _eval_reps(reading, "C")
    if a is None or b is None:
        if not _prime_is_square_at(s.p, reading.q):  # q is proved prime by the walk or by the caller
            return a, b, own
        a, b = a or ZERO, b or ZERO
    c = ZERO if a is b else HALF  # every value is the singleton ZERO or HALF: compared by identity
    if own is not None and own is not c:
        raise AssertionError(f"Klein-four identity fails at {reading.point}, place {reading.q}")
    return a, b, c


# ---------------------------------------------------------------------------
# invariant images with evidence


@dataclass(frozen=True)
class PlaceImage:
    values: frozenset
    kind: str  # "theorem" | "sampled" | "witness-pair"
    detail: str = ""
    n: int = 0

    def to_json(self):
        image = sorted("0" if val == 0 else "1/2" for val in self.values)
        ev = {"kind": self.kind}
        if self.kind == "sampled":
            ev["n"] = self.n
        if self.detail:
            ev["detail"] = self.detail
        return {"image": image, "evidence": ev}


REAL_PLACE_IMAGE = PlaceImage(frozenset({ZERO}), "theorem", "p > 0: trivial at the real place")


def _theorem_image(family, tag: str, q: int) -> PlaceImage | None:
    """Family results, from the surface's ``family_of``, that pin an invariant image without sampling."""
    if family is None:
        return None
    name, (p, a, _) = family
    if name == "Y" and tag == "A":
        if q != p:
            return PlaceImage(frozenset({ZERO}), "theorem", "first family: class A vanishes away from p")
        val = ZERO if _legendre_unchecked(a, p) == 1 else HALF  # p proved prime with the surface
        return PlaceImage(frozenset({val}), "theorem", "first family: class A at p is (a/p)")
    if name == "S" and tag == "B":
        if q != p:
            return PlaceImage(frozenset({ZERO}), "theorem", "second family: class B vanishes away from p")
        return PlaceImage(frozenset({HALF}), "theorem", "second family: class B at p is 1/2")
    return None


def _widened(img: PlaceImage, added, where: str, kind: str, detail: str, n: int) -> PlaceImage:
    """img widened by the values an observation adds, under that observation's evidence: the one
    way an image changes after sampling.  A family theorem's image is proved, so it gains no
    value: one outside it is an AssertionError (theorem or evaluator wrong), one inside keeps it."""
    if img.kind != "theorem":
        return PlaceImage(img.values | frozenset(added), kind, detail, n)
    if gained := frozenset(added) - img.values:
        raise AssertionError(f"family theorem and {kind} image disagree: "
                             f"family theorem image of {where} lacks {sorted(gained)}")
    return img


def invariant_image(s: SubfamilySurface, q: int, sample_budget: int = 64,
                    seed: int = 0) -> dict[str, PlaceImage]:
    """Images of A, B and C at q from one sample of local points, with evidence.

    The sampler runs once; a short sample stands if it holds min(4,
    sample_budget) points, and a place with none runs ``decide_Qq`` once (an
    empty X(Q_q) is a ValueError naming q).  Each point is read once
    (``_Reading``); A and B come from the reading and C = A + B, checked
    against C's own representatives (the Klein-four identity).  Each class
    counts its determinate points until it has seen both values.  A family
    theorem's image (``family_of`` read once) replaces the sampled one once
    the sample is checked nonempty and inside it (``_widened``, else an
    AssertionError); every other image is sampled evidence, not a proof.

    Lemma: at a fixed surface and place, ``_point_values`` of a reading
    depends only on its pattern (vals, signs, room): the representatives'
    valuations and signs are sums and products over vals and signs, cut off
    at room, and the square-class test reads only p and q; the point enters
    only an error's message.  So the values are looked up by pattern in a
    table kept per surface instance and place (``_pattern_values``), and the
    representatives-agree and Klein-four checks run once per distinct
    pattern, raising, if at all, at the first point that has it, as they
    would at every point.
    """
    validate_subfamily(s)
    precision = 14 if q == 2 else 8
    try:
        points = _sample_points(s, q, sample_budget, precision, seed=seed)
    except SamplingBudgetError as exc:
        if not exc.points and (verdict := decide_Qq(s, q)).status == "insoluble":
            raise ValueError(f"{s.label()} is insoluble at {q}: no primitive solutions mod {q}^{verdict.level}") from exc
        if len(exc.points) < min(4, sample_budget):
            raise
        points = exc.points
    halves = (set(), set(), set())  # per class, the values seen so far as "is 1/2", at most two
    evaluated = [0, 0, 0]
    for pt in points:
        for i, value in enumerate(_pattern_values(s, _Reading(s, pt, q, precision))):
            if value is not None and len(halves[i]) < 2:
                halves[i].add(value is HALF)
                evaluated[i] += 1
    family = family_of(s)
    images = {}
    for tag, seen, n in zip(CLASS_TAGS, halves, evaluated):
        if n == 0:
            raise SamplingBudgetError(f"no sampled point allowed evaluating class {tag} at {q}", points)
        images[tag] = PlaceImage(frozenset(HALF if flag else ZERO for flag in seen), "sampled", n=n)
        if (thm := _theorem_image(family, tag, q)) is not None:
            images[tag] = _widened(thm, images[tag].values, f"{tag} at {q}", "sampled", "", n)
    return images


# ---------------------------------------------------------------------------
# the quadratic-residue counting lemmas


def quadres_counts(p: int, a: int, b: int) -> tuple[int, int, int]:
    """Counts (|S_0|, |S_1|, |S_-1|) for S = {a + b y : y a nonzero square mod p}.

    Exact enumeration over the (p-1)/2 squares; p = 1 mod 4 and a, b units.
    """
    if p % 4 != 1 or not is_prime(p):
        raise ValueError("counting lemma needs a prime p = 1 mod 4")
    if a % p == 0 or b % p == 0:
        raise ValueError("a and b must be units mod p")
    counts = {0: 0, 1: 0, -1: 0}
    for val in {a + b * (y * y % p) for y in range(1, p)}:
        counts[_legendre_unchecked(val, p)] += 1
    return (counts[0], counts[1], counts[-1])


def quadres_witness(p: int, a: int, b: int, c: int, d: int) -> int:
    """Smallest y0 > 0 with a + b y0^2 a non-square and c + d y0^2 non-square or zero.

    Exists whenever p = 1 mod 4 and a, b, c, d are unit squares mod p; an
    exhausted search means a broken precondition and aborts.
    """
    if p % 4 != 1:
        raise ValueError("need p = 1 mod 4")
    legendre(a, p)  # validates p
    return _quadres_witness(p, a, b, c, d)


def _quadres_witness(p: int, a: int, b: int, c: int, d: int) -> int:
    """``quadres_witness`` at a prime p = 1 mod 4 that the caller proved."""
    for val in (a, b, c, d):
        if _legendre_unchecked(val, p) != 1:
            raise ValueError(f"{val} is not a unit square mod {p}")
    for y0 in range(1, p):
        s1 = _legendre_unchecked(a + b * y0 * y0, p)
        s2 = _legendre_unchecked(c + d * y0 * y0, p)
        if s1 == -1 and s2 in (-1, 0):
            return y0
    raise AssertionError("counting lemma guarantees a witness; preconditions must have failed")


# ---------------------------------------------------------------------------
# the surjectivity witness machine


# constructed points carry 26 p-adic digits, as do the sampled points of a sign flip
_WITNESS_PRECISION = 26


@dataclass
class _WitnessContext:
    trace: list = field(default_factory=list)
    rng: random.Random = field(default_factory=random.Random)


@dataclass(frozen=True)
class WitnessResult:
    tag: str | None
    point1: PadicApproxPoint | None
    point2: PadicApproxPoint | None
    insoluble_at_p: bool
    case_trace: tuple[str, ...]
    readings: tuple | None = None  # the (A, B, C) values read at point1 and at point2

    @property
    def values(self) -> tuple | None:
        """The separating class's values at point1 and point2."""
        return self.readings and tuple(reading[CLASS_TAGS.index(self.tag)] for reading in self.readings)

    def to_json(self):
        if self.insoluble_at_p:
            return {"status": "insoluble-at-p", "trace": list(self.case_trace)}
        return {
            "status": "witness",
            "class": self.tag,
            "point1": self.point1.to_json(),
            "point2": self.point2.to_json(),
            "values": ["0" if v == 0 else "1/2" for v in self.values],
            "trace": list(self.case_trace),
        }


def _project_tuple(q: int, prec: int, coords) -> PadicApproxPoint:
    """Divide out the common q-power and normalize, tracking lost precision."""
    coords = [c % q ** prec for c in coords]
    vals = [valuation(c, q) if c else prec for c in coords]
    g = min(min(vals), prec - 1)
    reduced = [c // q ** g for c in coords]
    pt = normalize_residue_tuple(q, prec - g, reduced)
    if pt is None:
        raise AssertionError("projected tuple lost primitivity")
    return pt


def _unit_sqrt(p: int, a: int, root: int | None) -> int:
    """Square root mod p^_WITNESS_PRECISION of the unit square a, the one that is
    ``root`` mod p, or the lift of the smaller Tonelli-Shanks root if root is
    None; anything else blocks the recipe.  Newton's r <- (r + a/r)/2 doubles
    the known digits; p is the validated surface prime."""
    r = _sqrt_mod_unchecked(a, p)
    if not r:  # 0 for a non-unit, None for a non-residue
        raise _ConstructionDegenerate(f"{a} is not a unit square mod {p}")
    mod, known = p ** _WITNESS_PRECISION, 1
    while known < _WITNESS_PRECISION:
        r = (r + a * pow(r, -1, mod)) * (mod + 1) // 2 % mod  # (mod + 1) / 2 inverts 2
        known *= 2
    return -r % mod if root is not None and (r - root) % p else r


def surjectivity_witness(s: SubfamilySurface, seed: int = 0) -> WitnessResult:
    """Two local points at p on which some class takes different invariants.

    Follows the constructive recipe: gcd normalizations, the coefficient
    changes that lower the valuations of (M, A..D), then on the reduced
    surface either a sign-flipped sampled pair (p = 3 mod 4, or both Hilbert
    symbols (p,AC)_p = (p,BD)_p = -1) or the explicit two-point construction
    of the four base cases.  Reaching the insoluble residue pattern reports
    X(Q_p) empty instead of a witness.  The output pair is validated by
    evaluation, never trusted from the construction.  The surjectivity
    statement says the recipe succeeds on every valid surface, so a
    degenerate parameter or a pair that fails validation raises
    WitnessSearchError.
    """
    validate_subfamily(s)
    ctx = _WitnessContext(rng=random.Random(f"witness:{seed}:{s!r}"))
    try:
        hint, c1, c2 = _witness_recursive(s, ctx, depth=0)
        pt1, pt2 = (_attach_certificate(s, _project_tuple(s.p, _WITNESS_PRECISION, c)) for c in (c1, c2))
    except _InsolubleAtP as exc:
        ctx.trace.append(str(exc))
        return WitnessResult(None, None, None, True, tuple(ctx.trace))
    except _ConstructionDegenerate as exc:
        raise WitnessSearchError(f"construction degenerate on {s.label()}: {exc}") from exc
    result = _validated_result(s, hint, pt1, pt2, ctx)
    if result is None:
        raise WitnessSearchError(f"constructed pair on {s.label()} failed validation")
    return result


class _ConstructionDegenerate(Exception):
    pass


class _InsolubleAtP(Exception):
    pass


def _attach_certificate(s: SubfamilySurface, pt: PadicApproxPoint) -> PadicApproxPoint:
    """Constructed points must lie on the surface and carry a lift certificate."""
    cert = lift_certificate(s, pt)  # also re-checks the equations mod p^k
    if cert is None:
        raise _ConstructionDegenerate(f"constructed point {pt.coords} has no certificate")
    return replace(pt, cert=cert)


def _validated_result(s, hint, pt1, pt2, ctx) -> WitnessResult | None:
    """The first class, the hinted one first, that takes two determinate
    values on the pair; each point is read once for all three classes."""
    readings = tuple(_pattern_values(s, _Reading(s, pt, s.p)) for pt in (pt1, pt2))
    values = dict(zip(CLASS_TAGS, zip(*readings)))
    for tag in [hint] + [t for t in CLASS_TAGS if t != hint]:
        v1, v2 = values[tag]
        if None not in (v1, v2) and v1 != v2:
            ctx.trace.append(f"validated: class {tag} separates the pair")
            return WitnessResult(tag, pt1, pt2, False, tuple(ctx.trace), readings)
    return None


def _flip_point(pt: PadicApproxPoint, flip_y: bool, flip_z: bool) -> PadicApproxPoint:
    u, v, x, y, z = pt.coords
    mod = pt.q ** pt.k
    return replace(pt, coords=(u, v, x, (-y) % mod if flip_y else y, (-z) % mod if flip_z else z))


# gcd normalizations: the coefficients divided with M, the power p^e, and
# the coordinates of (u, v, x, y, z) that the map back multiplies by p
_GCD_REDUCTIONS = (("AC", 1, (1, 2, 3, 4)), ("BD", 1, (0, 2, 3, 4)), ("AB", 2, (2, 3, 4)), ("CD", 2, (2, 3, 4)))

# factor swaps that arrange the maximal valuation among A..D onto A, keyed by
# where it lies: the new order of (A, B, C, D), whether u and v swap, the label
_FACTOR_SWAPS = {"B": ("BADC", True, "swap u and v"), "C": ("CDAB", False, "swap the linear factors"),
                 "D": ("DCBA", True, "swap u and v and the linear factors")}


def _witness_recursive(s: SubfamilySurface, ctx: _WitnessContext, depth: int):
    """Returns (class hint, tuple1, tuple2); tuples are residues mod p^_WITNESS_PRECISION."""
    if depth > 8:
        raise _ConstructionDegenerate("recursion depth exceeded")
    p = s.p
    A, B, C, D, M = s.A, s.B, s.C, s.D, s.M
    coeffs = {"A": A, "B": B, "C": C, "D": D}

    def rec(s_next: SubfamilySurface, map_back, label: str):
        _kept(s_next, ("prime", p), lambda: True)  # the same p, proved prime with s
        try:
            validate_subfamily(s_next)
        except ValueError as exc:
            raise _ConstructionDegenerate(f"transformed surface invalid: {exc}") from exc
        ctx.trace.append(label)
        hint, c1, c2 = _witness_recursive(s_next, ctx, depth + 1)
        return hint, map_back(c1), map_back(c2)

    def scaled(coords):
        return lambda c: tuple(p * ci if i in coords else ci for i, ci in enumerate(c))

    for names, e, coords in _GCD_REDUCTIONS:
        if all(c % p ** e == 0 for c in (coeffs[names[0]], coeffs[names[1]], M)):
            s2 = SubfamilySurface(p, *(c // p ** e if n in names else c for n, c in coeffs.items()), M // p ** e)
            power = f"{p}^2" if e == 2 else f"{p}"
            return rec(s2, scaled(coords), f"reduce: divide ({names[0]}, {names[1]}, M) by {power}")

    mvals = {name: valuation(val, p) for name, val in coeffs.items()}
    m = max(mvals.values())
    argmax = next(name for name in "ABCD" if mvals[name] == m)
    if argmax in _FACTOR_SWAPS:
        order, swap_uv, label = _FACTOR_SWAPS[argmax]
        s2 = SubfamilySurface(p, *(coeffs[n] for n in order), M)
        return rec(s2, (lambda c: (c[1], c[0], *c[2:])) if swap_uv else (lambda c: c), label)

    vM = valuation(M, p)
    W = A * D - B * C
    # coefficient changes lowering the valuations (no points needed)
    if vM == 1 and m >= 2:
        # p | B, p nmid C, D forced; shift one power of p from A to D
        _require(B % p == 0 and C % p and D % p, "case 5 valuation pattern")
        s2 = SubfamilySurface(p, A // p ** 2, B // p, C, p * D, M // p)
        return rec(s2, scaled((1, 2, 3, 4)), f"case 5 -> case 1 with coefficients {s2.label()}")
    if vM >= 2 and (vM % 2 == 0 or m >= 1):
        # case 6 (v_p(M) odd), 7 (even, m = 0) or 8 (even, m >= 1)
        k, j = vM // 2, min(m, 1)
        case = 6 if vM % 2 else 7 + j
        if j:  # v_p(A) = 1 = m makes p | B the same claim as v_p(B) = 1
            _require(valuation(A, p) == 1 and B % p == 0 and C % p and D % p, f"case {case} valuation pattern")
        vW = valuation(W, p)
        _require(vW > k if j else vW == k, f"case {case} needs v_p(AD-BC) {'>' if j else '='} k")
        s2 = SubfamilySurface(p, M * D // p ** (2 * k), -M * B // p ** (2 * k + j), -C, A // p ** j,
                              W * W // p ** (2 * k + j))
        # inverse of (u:v:...) -> ((Au+Bv)/(AD-BC) : p^j(Cu+Dv)/(AD-BC) : x/p^k : z/p^k : y/p^k)
        pj, scale = p ** j, p ** (k + j)
        return rec(s2, lambda c: (pj * D * c[0] - B * c[1], A * c[1] - pj * C * c[0],
                                  scale * c[2], scale * c[4], scale * c[3]),
                   f"case {case} -> case {case - 4} with coefficients {s2.label()}")

    # base patterns: v_p(M) = 1 = m (works for every odd p, and detects the
    # insoluble residue pattern); else a sign flip handles p = 3 mod 4 and
    # both Hilbert symbols -1, and otherwise AC and BD are squares at p so
    # the explicit two-point constructions apply
    if vM == 1 and m == 1:
        return _case2(s, ctx)
    if p % 4 == 3:
        ctx.trace.append("p = 3 mod 4: flip the signs of y and z")
        return _flip_pair(s, ctx, flip_y=True, flip_z=True)
    if all(hilbert_valunit(p, 1, 1, mvals[a] + mvals[b], coeffs[a] * coeffs[b] // p ** (mvals[a] + mvals[b])) == -1
           for a, b in ("AC", "BD")):  # (p, AC)_p and (p, BD)_p, at the validated prime p
        ctx.trace.append("(p,AC)_p = (p,BD)_p = -1: flip the sign of y")
        return _flip_pair(s, ctx, flip_y=True, flip_z=False)
    if vM == 0 and m >= 1:
        return _case1(s, ctx)
    if vM == 0 and m == 0:
        return _case3(s, ctx)
    if vM % 2 == 1 and m == 0:
        return _case4(s, ctx)
    raise _ConstructionDegenerate(f"unhandled pattern v_p(M)={vM}, m={m}")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise _ConstructionDegenerate(f"derived valuation claim failed: {what}")


def _flip_pair(s, ctx, flip_y: bool, flip_z: bool):
    """A sampled point and its sign flip; the flip changes inv_p of class B and
    permutes the factors' valuations, so both are read at the point's level
    (``_Reading``), or at its refinement if it needs more digits, and only the
    point returned is refined.  A short sample re-raises: a certified point proves
    X(Q_p) nonempty, and with none one ``decide_Qq`` at p either proves it empty or leaves the budget."""
    try:
        pts = _sample_points(s, s.p, 24, _WITNESS_PRECISION, seed=ctx.rng.randint(0, 10 ** 6))
    except SamplingBudgetError as exc:
        if not exc.points and (verdict := decide_Qq(s, s.p, budget=400_000)).status == "insoluble":
            raise _InsolubleAtP(f"X(Q_{s.p}) empty: no primitive solutions mod {s.p}^{verdict.level}") from exc
        raise
    for pt in pts:
        reading = _Reading(s, pt, s.p, _WITNESS_PRECISION)
        v1 = _pattern_values(s, reading)[1]
        if v1 is None:
            continue
        if reading.point is not pt:  # a factor needed more digits than pt carries
            pt = newton_refine(s, pt, _WITNESS_PRECISION)
        v2 = _pattern_values(s, _Reading(s, _flip_point(pt, flip_y, flip_z), s.p, _WITNESS_PRECISION))[1]
        if v2 is not None and v1 != v2:
            pt = newton_refine(s, pt, _WITNESS_PRECISION) if pt.k < _WITNESS_PRECISION else pt
            return "B", pt.coords, _flip_point(pt, flip_y, flip_z).coords
    raise _ConstructionDegenerate("sign flip did not separate on any sampled point")


# --- cases 1-4: explicit point constructions ---


def _complete(s: SubfamilySurface, u: int, v: int, x: int, y: int, root: int | None) -> tuple:
    """(u, v, x, y, z) mod p^_WITNESS_PRECISION, z the unit square root of
    (Au+Bv)(Cu+Dv) + p x^2 (``_unit_sqrt``, ``root`` picking it mod p)."""
    mod = s.p ** _WITNESS_PRECISION
    z = _unit_sqrt(s.p, (s.A * u + s.B * v) * (s.C * u + s.D * v) + s.p * x * x, root)
    return u % mod, v % mod, x % mod, y % mod, z


def _case1(s: SubfamilySurface, ctx: _WitnessContext):
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    mod = p ** _WITNESS_PRECISION
    _require(B % p != 0 and C % p != 0, "case 1 needs B, C units")
    minv = pow(M, -1, mod)
    if D % p != 0:
        # -BD is a unit square; points built from a unit r with r*sqrt(-BD) non-square
        mbd = (-B * D) % mod
        _require(_legendre_unchecked(mbd, p) == 1, "case 1a needs -BD a square")
        sq = _unit_sqrt(p, mbd, None)
        want = -_legendre_unchecked(sq, p)  # required Legendre class of r
        r = next((r0 for r0 in range(1, p)
                  if _legendre_unchecked(r0, p) == want and (r0 * r0 + B * D) % p != 0), None)
        if r is None:
            raise _ConstructionDegenerate("case 1a: no admissible unit r")
        ctx.trace.append("case 1a")
        rinv = pow(r, -1, mod)
        inv2 = pow(2, -1, mod)
        y2 = (B * D * rinv - r) * inv2 % mod
        cinv = pow(C, -1, mod)
        u1 = (-D * cinv) % mod
        y1sq = (-D * M * cinv) % mod
        y1 = _unit_sqrt(p, y1sq, None)
        pt1 = (u1, 1, 0, y1, 0)
        u2 = y2 * y2 * minv % mod
        return "B", pt1, _complete(s, u2, 1, 0, y2, None)
    # case 1b: v_p(D) >= 1; y = 1, a square, and y = g, a non-square, with v = y^2/M and z = -y mod p
    ctx.trace.append("case 1b")
    g = find_nonresidue(p)
    return "B", _complete(s, 1, minv, 0, 1, -1), _complete(s, 1, g * g * minv, 0, g, -g)


def _case2(s: SubfamilySurface, ctx: _WitnessContext):
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    mod = p ** _WITNESS_PRECISION
    _require(A % p == 0 and B % p == 0 and C % p and D % p, "case 2 valuation pattern")
    A1, B1, M1 = A // p, B // p, M // p
    N1, rem = divmod(s.N, p)
    _require(rem == 0, "case 2 needs p | N")
    W = B1 * C + A1 * D - M1
    _require(W % p != 0, "case 2 needs a unit W")
    kappa = M1 * W % p * pow(2 * A1 * C % p, -1, p) % p
    if _legendre_unchecked(kappa, p) == -1:
        # insoluble residue pattern: u = -W/(2A'C) v and x^2 = kappa v^2 mod p
        # force a common factor p, so no primitive solution exists
        raise _InsolubleAtP(
            f"X(Q_{p}) empty: the reduced surface hits the non-square residue pattern")
    ctx.trace.append("case 2a")
    g = find_nonresidue(p)
    inv2 = pow(2, -1, mod)
    pts = []
    for r in (1, g):
        rinv = pow(r, -1, mod)
        yi = (A1 * C * rinv + r) * inv2 % mod * N1 % mod
        zi = (A1 * C * rinv - r) * inv2 % mod * N1 % mod
        arg = (2 * A1 * C * M1 * W + p * yi * yi) % mod
        xi = _unit_sqrt(p, arg, None)
        pts.append(((-W) % mod, 2 * A1 * C % mod, xi, p * yi % mod, p * zi % mod))
    return "B", pts[0], pts[1]


def _case3(s: SubfamilySurface, ctx: _WitnessContext):
    """A..D and M units at p, AC = s^2 and BD = t^2 mod p.  Then ABM is a
    nonzero square mod p: (C1) gives (AD + BC - M)^2 = 4 ABCD = (2st)^2,
    so M = AD + BC -+ 2st and ABM = A^2 t^2 + B^2 s^2 -+ 2ABst = (At -+ Bs)^2,
    and construction 3b always applies."""
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    mod = p ** _WITNESS_PRECISION
    _require(_legendre_unchecked(A * C, p) == _legendre_unchecked(B * D, p) == 1, "case 3 needs AC, BD squares")
    _require(_legendre_unchecked(A * B * M, p) == 1, "case 3 has ABM a square")
    pt1 = _complete(s, 1, 0, 0, 0, None)
    ctx.trace.append("case 3b")
    inv_ma = pow(M * A % p, -1, p)
    bb = B * inv_ma % p
    cc = C * pow(A, -1, p) % p
    dd = D * inv_ma % p
    y0 = _quadres_witness(p, 1, bb, cc, dd)
    minv = pow(M, -1, mod)
    if (cc + dd * y0 * y0) % p != 0:
        return "A", pt1, _complete(s, 1, y0 * y0 * minv, 0, y0, None)
    # alternative (ii): adjust y0 so the second factor vanishes exactly
    y1sq = (-C * M * pow(D, -1, mod)) % mod
    y1 = _unit_sqrt(p, y1sq, y0)  # the root that is y0 mod p
    v2 = y1 * y1 * minv % mod
    return "A", pt1, (1, v2, 0, y1, 0)


def _case4(s: SubfamilySurface, ctx: _WitnessContext):
    p, A, B, C, M = s.p, s.A, s.B, s.C, s.M
    vM = valuation(M, p)
    k = (vM - 1) // 2
    M1 = M // p ** vM
    _require(_legendre_unchecked(A * C, p) == 1, "case 4 needs AC a square")
    inv_ma = pow(M1 * A % p, -1, p)
    x0 = next((x for x in range(1, p)
               if _legendre_unchecked(1 - B * inv_ma * x * x, p) == -1), None)
    if x0 is None:
        raise _ConstructionDegenerate("case 4: no x0 with 1 - (B/M'A) x0^2 a non-square")
    ctx.trace.append(f"case 4 (v_p(M) = {vM})")
    v2 = -x0 * x0 * pow(M1, -1, p ** _WITNESS_PRECISION)
    return "A", _complete(s, 1, 0, 0, 0, None), _complete(s, 1, v2, p ** k * x0, 0, None)


# ---------------------------------------------------------------------------
# obstruction verdicts


@dataclass(frozen=True)
class ObstructionReport:
    surface: SubfamilySurface
    images: dict  # tag -> {place label -> PlaceImage}
    hp_obstructed_by: tuple[str, ...]
    wa_failure: bool
    unknown_classes: tuple[str, ...]  # always (): every relevant place is sampled
    witness: WitnessResult | None
    rational_point: tuple | None  # refutes any Hasse-principle obstruction

    def to_json(self):
        entries = [{"class": tag, "place": place_label, **img.to_json()}
                   for tag in CLASS_TAGS for place_label, img in sorted(self.images[tag].items())]
        return {
            "surface": self.surface.label(),
            "entries": entries,
            "hp_obstructed_by": list(self.hp_obstructed_by),
            "wa_failure": self.wa_failure,
            "unknown_classes": list(self.unknown_classes),
            "witness": None if self.witness is None else self.witness.to_json(),
            "rational_point": None if self.rational_point is None else list(self.rational_point),
        }


def relevant_places(s: SubfamilySurface) -> list[int]:
    """Finite places where some invariant can be nonzero: 2 unless p = 1 mod 8,
    p, then the odd primes q != p dividing N (AD - BC) with (p/q) = -1, in
    increasing order.

    Every class is 0 at every local point of every other place, the real
    one included.  Every class symbol is (p, f)_q with f a product of u, Mv,
    Au+Bv, Cu+Dv, z-y, z+y and AC; at the real place (p > 0) and wherever p
    is a square in Q_q (``_prime_is_square_at``: at 2 when p = 1 mod 8, at
    an odd q != p when (p/q) = 1) it is trivial, and at an odd q of good
    reduction every local invariant is 0.  The bad primes are those of A, B,
    C, D, M, N and AD - BC, and an inert one divides N (AD - BC).  Lemma:
    let q be an odd prime, q != p, q not dividing N.  If q | A, (C1) reduces
    mod q to (BC - M)^2 = p N^2, so p is a nonzero square mod q; B, C and D
    are alike.  If q | M, (C1) reduces to (AD - BC)^2 = p N^2, with the
    same conclusion.  Kept on s once s is valid, as is each factorization; each call returns a copy.
    """
    def places():
        validate_subfamily(s)
        bad = {q for n in (abs(s.N), abs(s.A * s.D - s.B * s.C)) for q in _kept(s, ("factor", n), factor, n)}
        return [q for q in [2, s.p] + sorted(bad - {2, s.p}) if not _prime_is_square_at(s.p, q)]
    return list(_kept(s, "places", places))


def bm_verdict(s: SubfamilySurface, sample_budget: int = 64, seed: int = 0) -> ObstructionReport:
    """Which classes obstruct the Hasse principle, with per-place evidence.

    A class obstructs exactly when every place's image is a singleton and the
    values sum to 1/2.  Each relevant place is sampled once for all three
    classes; family theorems and the Klein-four identity are checked on that
    sample, and the verdict on a family member against its closed-form
    prediction; a mismatch is a hard error.  Off the families, two obstructing
    classes mean a sampled singleton is wrong: SampledContradictionError, a
    budget error, reports that as inconclusive.  The samples also prove local
    solubility: X(R) holds (0:0:1:sqrt(p):sqrt(p)), every place that
    ``everywhere_locally_soluble`` decides is relevant (both leave out those
    where p is a square in Q_q), and each has a certified point or raises.

    Off the families a rational point found by the search adds its exact
    values at every relevant place to the images.  A class that still
    obstructs would then have exact values summing to 1/2 over all places
    (0 off them, ``relevant_places``), which global reciprocity forbids: only
    a faulty evaluator gets there, so it is an AssertionError, not exit 3.
    """
    images: dict[str, dict[str, PlaceImage]] = {tag: {"oo": REAL_PLACE_IMAGE} for tag in CLASS_TAGS}
    places = relevant_places(s)  # validates s
    for q in places:
        for tag, img in invariant_image(s, q, sample_budget=sample_budget, seed=seed).items():
            images[tag][str(q)] = img
    witness = surjectivity_witness(s, seed=seed)
    if witness.insoluble_at_p:
        raise AssertionError(f"witness machinery finds {s.label()} insoluble at p")
    # fold in the surjectivity witness at p: the separating class takes both
    # values, and each other class gains the determinate values read at the pair
    for tag, read in zip(CLASS_TAGS, zip(*witness.readings)):
        prev, where = images[tag][str(s.p)], f"{tag} at {s.p}"
        if tag == witness.tag:
            images[tag][str(s.p)] = _widened(prev, {ZERO, HALF}, where, "witness-pair",
                                             "separating pair from the case construction", prev.n)
        elif gained := set(read) - {None} - prev.values:
            images[tag][str(s.p)] = _widened(prev, gained, where, "sampled", "value at the witness pair", prev.n + 1)
    obstructing = _obstructing(images)
    rational_point = None
    family = family_of(s)
    if obstructing and family is None:
        # a sampled singleton image is evidence, not proof; an actual rational
        # point refutes any Hasse-principle obstruction outright, and its
        # exact invariants, read once per finite place (every class is 0 at
        # the real place), repair whichever image the sampler undersampled
        if found := point_search(s, 64):
            rational_point = found[0]
            for q in places:
                for tag, value in zip(CLASS_TAGS, _exact_values(s, rational_point, q)):
                    img = images[tag][str(q)]
                    if value not in img.values:
                        detail = f"{img.detail}; exact value at {rational_point}".strip("; ")
                        images[tag][str(q)] = _widened(img, {value}, f"{tag} at {q}", "sampled", detail, img.n + 1)
            obstructing = _obstructing(images)
            if obstructing:
                raise AssertionError(
                    f"{s.label()} has the rational point {rational_point} but the invariant "
                    f"images still sum to 1/2 for {obstructing}; evaluation is inconsistent")
    if len(obstructing) > 1:
        message = f"two classes obstruct on {s.label()}: {obstructing}"
        if family is None:  # every image of an obstructing class is a singleton
            pairs = [f"{tag} at {q}" for tag in obstructing for q, img in images[tag].items() if img.kind == "sampled"]
            raise SampledContradictionError(f"{message}; sampled singletons {', '.join(pairs)}", [])
        raise AssertionError(message)
    if family is not None:
        if obstructing != (expected := closed_form(family).obstructed_by):
            raise AssertionError(f"family prediction {expected} disagrees with computed {obstructing}")
    wa_failure = any(len(img.values) == 2 for tag in CLASS_TAGS for img in images[tag].values())
    return ObstructionReport(s, images, obstructing, wa_failure, (), witness, rational_point)


def _obstructing(images) -> tuple[str, ...]:
    """Classes whose image is a singleton at every place, with values summing to 1/2."""
    return tuple(tag for tag in CLASS_TAGS
                 if all(len(img.values) == 1 for img in images[tag].values())
                 and sum((next(iter(img.values)) for img in images[tag].values()), ZERO) % 1 == HALF)


# ---------------------------------------------------------------------------
# global reciprocity at rational points


def reciprocity_check(s: SubfamilySurface, point) -> bool:
    """Sum of local invariants vanishes for each class at a rational point.

    Every class is 0 at the real place and at every finite place outside
    ``relevant_places`` (its lemma), so the sum runs over those places: one
    evaluation per place gives A, B and C and runs the Klein-four check
    there.  A place left out of the list where some class reads 1/2 makes
    the check fail, so it also tests the place set that ``bm_verdict`` rests on.
    """
    point = normalize_point(point)
    if not s.contains(point):
        raise ValueError(f"{point} is not on {s.label()}")
    parities = [False, False, False]
    for q in relevant_places(s):  # validates s
        parities = [par ^ (value.denominator == 2) for par, value in zip(parities, _exact_values(s, point, q))]
    return not any(parities)


def _exact_values(s: SubfamilySurface, point, q: int) -> tuple:
    """A, B and C at a rational point on s and the finite place q, from one
    reading.  A and B are determinate there, hence so is C = A + B, and an
    indeterminate class is an error, never skipped.  (C2) gives M (AD - BC)
    != 0, and a zero among A..D would make the (C1) value a square and so
    N = 0; hence ABCD != 0.  A's four representatives then vanish together
    only where u = v = 0, which forces x = y = z = 0 as p is not a square.
    B's vanish together only where y = z = 0; there Muv = (Au+Bv)(Cu+Dv)
    with uv != 0, so v/u is a rational root of BD t^2 + (AD+BC-M) t + AC,
    whose discriminant p N^2 is not a square.  q is a proved prime (``relevant_places``, a ``Place``)."""
    values = _pattern_values(s, _Reading(s, point, q))
    for tag, value in zip(CLASS_TAGS, values):
        if value is None:
            raise IndeterminateEvaluationError(f"class {tag} indeterminate at {point}, place {q}")
    return values
