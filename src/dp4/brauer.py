"""The three 2-torsion classes on a subfamily surface and their invariant maps.

On X: y^2 - p x^2 = M u v ; z^2 - p x^2 = (Au+Bv)(Cu+Dv) the group of classes
modulo constants is {1, A, B, C} with quaternion representatives

    A = (p, u/(Au+Bv)),   B = (p, (z-y)/u),   C = (p, (Au+Bv)/(z-y)),

and C = A + B.  Each class carries several function representatives (obtained
by multiplying by norms from Q(sqrt p) and by squares); all agree wherever two
are simultaneously defined and nonzero, which is what makes the local
invariant computable at almost every point.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .arith import (
    InsufficientPrecisionError,
    NotASquareError,
    PadicScalar,
    Place,
    PLACE_INF,
    _legendre_unchecked,
    factor,
    find_nonresidue,
    hensel_sqrt,
    hilbert_symbol,
    hilbert_valunit,
    is_prime,
    legendre,
    valuation,
)
from .localsolve import (
    PadicApproxPoint,
    SamplingBudgetError,
    decide_Qq,
    expand_children,
    lift_certificate,
    newton_refine,
    normalize_residue_tuple,
    sample_local_points,
)
from .quadform import SubfamilySurface, normalize_point, validate_subfamily

CLASS_TAGS = ("A", "B", "C")

ZERO = Fraction(0)
HALF = Fraction(1, 2)


class IndeterminateEvaluationError(Exception):
    """Every representation of the class is 0 or infinite at the point."""


class WitnessSearchError(Exception):
    """No invariant-separating pair was found; contradicts the surjectivity result."""


# ---------------------------------------------------------------------------
# function representatives


@dataclass(frozen=True)
class SymbolRep:
    label: str
    num: tuple  # polynomial as a callable closure is unpicklable; store coefficients
    den: tuple

    def eval_num(self, c):
        return _eval_poly(self.num, c)

    def eval_den(self, c):
        return _eval_poly(self.den, c)


def _eval_poly(poly, c):
    # poly: tuple of (coeff, exponent 5-tuple) monomials
    total = 0
    for coeff, exps in poly:
        term = coeff
        for base, e in zip(c, exps):
            for _ in range(e):
                term *= base
        total += term
    return total


def _mono(coeff, u=0, v=0, x=0, y=0, z=0):
    return (coeff, (u, v, x, y, z))


def class_representations(s: SubfamilySurface, tag: str) -> tuple[SymbolRep, ...]:
    """Function representatives of the class, most convenient first.

    Beyond the defining fractions, each tuple carries polynomial variants
    obtained by multiplying with the norm forms M*u*v = y^2 - p x^2 and
    (Au+Bv)(Cu+Dv) = z^2 - p x^2, which stay usable on the loci u = 0 or
    Au + Bv = 0.  Built once per (surface, tag) and kept in a bounded memo.
    """
    return _representations(s, tag)


@functools.lru_cache(maxsize=64)
def _representations(s: SubfamilySurface, tag: str) -> tuple[SymbolRep, ...]:
    A, B, C, D, M = s.A, s.B, s.C, s.D, s.M
    lin_u = (_mono(1, u=1),)
    lin_ab = (_mono(A, u=1), _mono(B, v=1))
    lin_cd = (_mono(C, u=1), _mono(D, v=1))
    lin_mv = (_mono(M, v=1),)
    zmy = (_mono(1, z=1), _mono(-1, y=1))
    zpy = (_mono(1, z=1), _mono(1, y=1))
    one = (_mono(1),)
    if tag == "A":
        return (
            SymbolRep("u/(Au+Bv)", lin_u, lin_ab),
            SymbolRep("Mv/(Au+Bv)", lin_mv, lin_ab),
            SymbolRep("u(Cu+Dv)", _poly_mul(lin_u, lin_cd), one),
            SymbolRep("Mv(Cu+Dv)", _poly_mul(lin_mv, lin_cd), one),
        )
    if tag == "B":
        return (
            SymbolRep("(z-y)/u", zmy, lin_u),
            SymbolRep("AC(z+y)/u", _scale(zpy, A * C), lin_u),
            SymbolRep("Mv(z-y)", _poly_mul(lin_mv, zmy), one),
            SymbolRep("ACMv(z+y)", _scale(_poly_mul(lin_mv, zpy), A * C), one),
        )
    if tag == "C":
        return (
            SymbolRep("(Au+Bv)/(z-y)", lin_ab, zmy),
            SymbolRep("(z-y)(Au+Bv)", _poly_mul(zmy, lin_ab), one),
            SymbolRep("AC(z+y)/(Au+Bv)", _scale(zpy, A * C), lin_ab),
            SymbolRep("(z-y)/(Au+Bv)", zmy, lin_ab),
        )
    raise ValueError(f"unknown class tag {tag!r}")


def _poly_mul(p1, p2):
    out = {}
    for c1, e1 in p1:
        for c2, e2 in p2:
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return tuple((c, e) for e, c in out.items() if c)


def _scale(p, c):
    return tuple((c * coeff, e) for coeff, e in p)


# ---------------------------------------------------------------------------
# invariant evaluation


def _eval_reps(s: SubfamilySurface, tag: str, point, v: Place | None) -> Fraction | None:
    """Common value of the representatives determinate at the point, or None.

    At an exact integer point (finite place ``v``) a representative n/d counts
    when n and d are nonzero; at a PadicApproxPoint n and d are read mod q^k
    and each must carry enough unit digits to fix its square class (3 at
    q = 2, else 1).  Hilbert symbols are bimultiplicative, so
    (p, n/d)_q = (p, n)_q (p, d)_q = (p, n*d)_q, and (p, n*d)_q depends only on
    the parity of v_q(n) + v_q(d) and on the unit of n*d mod q (mod 8 at 2):
    one symbol per representative, from integer valuations alone.
    """
    local = isinstance(point, PadicApproxPoint)
    coords, q = (point.coords, point.q) if local else (point, v.q)
    mod = 8 if q == 2 else q
    need = 3 if q == 2 else 1  # unit digits a p-adic value must carry
    modulus = q ** point.k if local else None
    val_p = valuation(s.p, q)
    unit_p = s.p // q ** val_p % mod
    values = set()
    for rep in class_representations(s, tag):
        n, d = rep.eval_num(coords), rep.eval_den(coords)
        if local:
            n, d = n % modulus, d % modulus
        if n == 0 or d == 0:
            continue
        val_n, val_d = valuation(n, q), valuation(d, q)
        if local and point.k - max(val_n, val_d) < need:
            continue
        unit = n // q ** val_n * (d // q ** val_d) % mod
        sym = hilbert_valunit(q, val_p, unit_p, val_n + val_d, unit)
        values.add(ZERO if sym == 1 else HALF)
    if len(values) > 1:
        raise AssertionError(f"representations disagree for {tag} at {point}, place {q}")
    return values.pop() if values else None


def evaluate_invariant(s: SubfamilySurface, tag: str, point, v=None) -> Fraction:
    """Local invariant of the class at a point, in {0, 1/2}.

    ``point`` is either an exact integer 5-tuple (then ``v`` names the place)
    or a PadicApproxPoint (then the place is its prime).  Representations that
    vanish are skipped; an imprecise local point is re-lifted, doubling the
    precision up to four times, and where every representation stays
    indeterminate nearby points carry the value.  Class C is A + B wherever
    both are determinate (see ``_point_values``).
    """
    if not isinstance(point, PadicApproxPoint):
        point = tuple(int(c) for c in point)
        if v is None:
            raise ValueError("exact points need an explicit place")
        if not isinstance(v, Place):
            v = PLACE_INF if v in (0, "oo") else Place(int(v))
        if v.is_infinite:
            return ZERO  # all class symbols are (p, *) with p > 0
    value = _point_values(s, point, v)[2] if tag == "C" else _direct_value(s, tag, point, v)
    if value is None:
        raise IndeterminateEvaluationError(
            f"class {tag} indeterminate at {point}, place {v or point.q}")
    return value


def _point_values(s, point, v) -> tuple:
    """Values of A, B and C at the point, None where a class is indeterminate.

    C = A + B wherever A and B are determinate, and C's own representatives
    that are determinate there must agree: the Klein-four identity, checked
    at every point that comes through here.  Elsewhere C takes its own path.
    """
    a = _direct_value(s, "A", point, v)
    b = _direct_value(s, "B", point, v)
    if a is None or b is None:
        return a, b, _direct_value(s, "C", point, v)
    c = (a + b) % 1
    if _eval_reps(s, "C", point, v) not in (None, c):
        raise AssertionError(f"Klein-four identity fails at {point}, place {v or point.q}")
    return a, b, c


# digits to which an exact point is read before falling back on local constancy
_EXACT_POINT_PRECISION = 16


def _direct_value(s, tag, point, v) -> Fraction | None:
    value = _eval_reps(s, tag, point, v)
    if value is not None:
        return value
    if isinstance(point, PadicApproxPoint):
        pt = point
        for _ in range(4):
            try:
                pt = newton_refine(s, pt, 2 * pt.k)
            except (ValueError, ArithmeticError):
                break
            value = _eval_reps(s, tag, pt, None)
            if value is not None:
                return value
    else:
        point = normalize_residue_tuple(v.q, _EXACT_POINT_PRECISION, point)
        if point is None:
            return None
    # refinement stalls when the point sits exactly on the vanishing locus
    # of every representation; nearby points carry the value then
    return _eval_by_local_constancy(s, tag, point)


def _eval_by_local_constancy(s, tag, pt: PadicApproxPoint) -> Fraction | None:
    """Value at a point on the common vanishing locus of the representations.

    The invariant map is locally constant on X(Q_q), so certified neighbours
    at two consecutive depths must agree; any disagreement or failure to find
    neighbours returns None.
    """
    lo = max(2, pt.k // 2)
    values = set()
    for depth in (lo, lo + 1):
        if depth >= pt.k:
            return None
        base = pt.reduce(depth)
        own = pt.reduce(depth + 1).coords
        got = 0
        for child in expand_children(s, base):
            if child.coords == own:
                continue
            cert = lift_certificate(s, child)
            if cert is None:
                continue
            refined = newton_refine(s, replace(child, cert=cert), depth + 8)
            value = _eval_reps(s, tag, refined, None)
            if value is not None:
                values.add(value)
                got += 1
            if got >= 2 or len(values) > 1:
                break
        if got == 0 or len(values) > 1:
            return None
    return values.pop()


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


def y_family_params(s: SubfamilySurface) -> tuple[int, int, int] | None:
    """(p, a, b) when the surface is the first explicit family, else None."""
    if (s.B == -s.p and s.C == 1 and s.M == 1 and s.p % 4 == 1
            and s.A > 0 and s.D < 0 and s.A * (-s.D) == s.p - 1):
        return (s.p, s.A, -s.D)
    return None


def s_family_params(s: SubfamilySurface) -> tuple[int, int, int] | None:
    """(p, a, b) when the surface is the second explicit family, else None."""
    a, b = s.C, s.D
    if (s.A == 1 and s.B == 1 and s.M == 1 and s.p % 2 == 1
            and (a + b - 1) ** 2 - 4 * a * b == s.p
            and (4 * a - 1) % s.p == 0 and (4 * b - 1) % s.p == 0
            and a % 2 == 1 and b % 2 == 1 and a % 8 == 1):
        return (s.p, a, b)
    return None


def _theorem_image(s: SubfamilySurface, tag: str, q: int) -> PlaceImage | None:
    """Family results that pin an invariant image without sampling."""
    yp = y_family_params(s)
    if yp is not None and tag == "A":
        p, a, _ = yp
        if q != p:
            return PlaceImage(frozenset({ZERO}), "theorem", "first family: class A vanishes away from p")
        val = ZERO if legendre(a, p) == 1 else HALF
        return PlaceImage(frozenset({val}), "theorem", "first family: class A at p is (a/p)")
    sp = s_family_params(s)
    if sp is not None and tag == "B":
        if q != s.p:
            return PlaceImage(frozenset({ZERO}), "theorem", "second family: class B vanishes away from p")
        return PlaceImage(frozenset({HALF}), "theorem", "second family: class B at p is 1/2")
    return None


def invariant_image(s: SubfamilySurface, q: int, sample_budget: int = 64, seed: int = 0,
                    use_theorems: bool = True) -> dict[str, PlaceImage]:
    """Images of A, B and C at q from one sample of local points, with evidence.

    At each sampled point A and B are evaluated once and C = A + B, with the
    Klein-four identity checked against C's own representatives.  Each class
    counts its determinate points until it has seen both values.  A class
    with a family theorem gets the theorem's image, after its sampled values
    are checked against it; every other image is sampled evidence, not a
    proof.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    precision = 14 if q == 2 else 8
    want = sample_budget
    while True:
        # on surfaces with very thin solution branches the full budget may be
        # unreachable; a smaller sample is still honest evidence (n is recorded)
        try:
            points = sample_local_points(s, q, want, precision, seed=seed)
            break
        except SamplingBudgetError:
            if want <= 4:
                raise
            want //= 2
    values = {tag: set() for tag in CLASS_TAGS}
    evaluated = dict.fromkeys(CLASS_TAGS, 0)
    for pt in points:
        for tag, value in zip(CLASS_TAGS, _point_values(s, pt, None)):
            if value is not None and len(values[tag]) < 2:
                values[tag].add(value)
                evaluated[tag] += 1
    images = {}
    for tag in CLASS_TAGS:
        if evaluated[tag] == 0:
            raise SamplingBudgetError(f"no sampled point allowed evaluating class {tag} at {q}")
        images[tag] = PlaceImage(frozenset(values[tag]), "sampled", n=evaluated[tag])
        thm = _theorem_image(s, tag, q) if use_theorems else None
        if thm is not None:
            if not images[tag].values <= thm.values:
                raise AssertionError(
                    f"family theorem and sampled image disagree: {tag} at {q}: "
                    f"{sorted(thm.values)} vs {sorted(images[tag].values)}")
            images[tag] = thm
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
    for val in (a, b, c, d):  # the first call validates p
        if legendre(val, p) != 1:
            raise ValueError(f"{val} is not a unit square mod {p}")
    for y0 in range(1, p):
        s1 = _legendre_unchecked(a + b * y0 * y0, p)
        s2 = _legendre_unchecked(c + d * y0 * y0, p)
        if s1 == -1 and s2 in (-1, 0):
            return y0
    raise AssertionError("counting lemma guarantees a witness; preconditions must have failed")


# ---------------------------------------------------------------------------
# the surjectivity witness machine


@dataclass
class _WitnessContext:
    precision: int
    trace: list = field(default_factory=list)
    rng: random.Random = field(default_factory=random.Random)


@dataclass(frozen=True)
class WitnessResult:
    tag: str | None
    point1: PadicApproxPoint | None
    point2: PadicApproxPoint | None
    insoluble_at_p: bool
    case_trace: tuple[str, ...]
    values: tuple | None = None

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


def _unit_sqrt(p: int, a: int, prec: int) -> int:
    """Square root mod p^prec of the unit square a; anything else blocks the recipe."""
    try:
        return hensel_sqrt(PadicScalar.from_residue(p, a, prec), prec).u
    except (NotASquareError, InsufficientPrecisionError) as exc:
        raise _ConstructionDegenerate(f"{a} mod {p}^{prec}: {exc}") from exc


def surjectivity_witness(s: SubfamilySurface, seed: int = 0) -> WitnessResult:
    """Two local points at p on which some class takes different invariants.

    Follows the constructive recipe: gcd normalizations, the coefficient
    changes that lower the valuations of (M, A..D), then on the reduced
    surface either a sign-flipped sampled pair (p = 3 mod 4, or both Hilbert
    symbols (p,AC)_p = (p,BD)_p = -1) or the explicit two-point construction
    of the four base cases.  Reaching the insoluble residue pattern reports
    X(Q_p) empty instead of a witness.  The output pair is validated by
    evaluation, never trusted from the construction; if a degenerate
    parameter blocks a recipe, a stratified sampling search stands in (the
    surjectivity statement guarantees success).
    """
    validate_subfamily(s)
    p = s.p
    # constructed points carry 26 p-adic digits, as do the sampled fallback's
    ctx = _WitnessContext(precision=26, rng=random.Random(f"witness:{seed}:{s!r}"))
    try:
        hint, c1, c2, prec = _witness_recursive(s, ctx, depth=0)
        pt1 = _attach_certificate(s, _project_tuple(p, prec, c1))
        pt2 = _attach_certificate(s, _project_tuple(p, prec, c2))
        result = _validated_result(s, hint, pt1, pt2, ctx)
        if result is not None:
            return result
        ctx.trace.append("constructed pair failed validation; falling back to sampling")
    except _InsolubleAtP as exc:
        ctx.trace.append(str(exc))
        return WitnessResult(None, None, None, True, tuple(ctx.trace))
    except _ConstructionDegenerate as exc:
        ctx.trace.append(f"construction degenerate ({exc}); falling back to sampling")
    return _witness_by_sampling(s, ctx, seed)


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
    tags = [hint] + [t for t in CLASS_TAGS if t != hint]
    for tag in tags:
        try:
            v1 = evaluate_invariant(s, tag, pt1)
            v2 = evaluate_invariant(s, tag, pt2)
        except IndeterminateEvaluationError:
            continue
        if v1 != v2:
            ctx.trace.append(f"validated: class {tag} separates the pair")
            return WitnessResult(tag, pt1, pt2, False, tuple(ctx.trace), (v1, v2))
    return None


def _witness_by_sampling(s, ctx, seed) -> WitnessResult:
    p = s.p
    points = sample_local_points(s, p, 48, ctx.precision, seed=seed)
    evaluated: dict[str, list] = {t: [] for t in CLASS_TAGS}
    for pt in points:
        for tag in CLASS_TAGS:
            try:
                evaluated[tag].append((evaluate_invariant(s, tag, pt), pt))
            except IndeterminateEvaluationError:
                continue
            vals = {v for v, _ in evaluated[tag]}
            if len(vals) == 2:
                (v1, p1) = evaluated[tag][-1]
                (v2, p2) = next((v, q2) for v, q2 in evaluated[tag] if v != v1)
                ctx.trace.append(f"sampling search: class {tag} separates")
                return WitnessResult(tag, p1, p2, False, tuple(ctx.trace), (v1, v2))
    raise WitnessSearchError(f"no separating pair found on {s.label()}; this contradicts surjectivity")


def _flip_point(pt: PadicApproxPoint, flip_y: bool, flip_z: bool) -> tuple:
    u, v, x, y, z = pt.coords
    mod = pt.q ** pt.k
    return (u, v, x, (-y) % mod if flip_y else y, (-z) % mod if flip_z else z)


def _witness_recursive(s: SubfamilySurface, ctx: _WitnessContext, depth: int):
    """Returns (class hint, tuple1, tuple2, precision); tuples are residues mod p^prec."""
    if depth > 8:
        raise _ConstructionDegenerate("recursion depth exceeded")
    p = s.p
    A, B, C, D, M = s.A, s.B, s.C, s.D, s.M

    def rec(s_next: SubfamilySurface, map_back, label: str):
        try:
            validate_subfamily(s_next)
        except ValueError as exc:
            raise _ConstructionDegenerate(f"transformed surface invalid: {exc}") from exc
        ctx.trace.append(label)
        hint, c1, c2, prec = _witness_recursive(s_next, ctx, depth + 1)
        return hint, map_back(c1), map_back(c2), prec

    # gcd normalizations
    if all(c % p == 0 for c in (A, C, M)):
        s2 = SubfamilySurface(p, A // p, B, C // p, D, M // p)
        return rec(s2, lambda c: (c[0], p * c[1], p * c[2], p * c[3], p * c[4]),
                   f"reduce: divide (A, C, M) by {p}")
    if all(c % p == 0 for c in (B, D, M)):
        s2 = SubfamilySurface(p, A, B // p, C, D // p, M // p)
        return rec(s2, lambda c: (p * c[0], c[1], p * c[2], p * c[3], p * c[4]),
                   f"reduce: divide (B, D, M) by {p}")
    if all(c % p ** 2 == 0 for c in (A, B, M)):
        s2 = SubfamilySurface(p, A // p ** 2, B // p ** 2, C, D, M // p ** 2)
        return rec(s2, lambda c: (c[0], c[1], p * c[2], p * c[3], p * c[4]),
                   f"reduce: divide (A, B, M) by {p}^2")
    if all(c % p ** 2 == 0 for c in (C, D, M)):
        s2 = SubfamilySurface(p, A, B, C // p ** 2, D // p ** 2, M // p ** 2)
        return rec(s2, lambda c: (c[0], c[1], p * c[2], p * c[3], p * c[4]),
                   f"reduce: divide (C, D, M) by {p}^2")

    # arrange the maximal valuation among A, B, C, D onto A
    mvals = {name: valuation(val, p) for name, val in (("A", A), ("B", B), ("C", C), ("D", D))}
    m = max(mvals.values())
    argmax = next(name for name in ("A", "B", "C", "D") if mvals[name] == m)
    if argmax == "C":  # swap the two linear factors
        s2 = SubfamilySurface(p, C, D, A, B, M)
        return rec(s2, lambda c: c, "swap the linear factors")
    if argmax == "B":  # swap u and v
        s2 = SubfamilySurface(p, B, A, D, C, M)
        return rec(s2, lambda c: (c[1], c[0], c[2], c[3], c[4]), "swap u and v")
    if argmax == "D":
        s2 = SubfamilySurface(p, D, C, B, A, M)
        return rec(s2, lambda c: (c[1], c[0], c[2], c[3], c[4]),
                   "swap u and v and the linear factors")

    vM = valuation(M, p)
    W = A * D - B * C
    # coefficient changes lowering the valuations (no points needed)
    if vM == 1 and m >= 2:
        # p | B, p nmid C, D forced; shift one power of p from A to D
        _require(B % p == 0 and C % p and D % p, "case 5 valuation pattern")
        s2 = SubfamilySurface(p, A // p ** 2, B // p, C, p * D, M // p)
        return rec(s2, lambda c: (c[0], p * c[1], p * c[2], p * c[3], p * c[4]),
                   f"case 5 -> case 1 with coefficients {s2.label()}")
    if vM % 2 == 1 and vM >= 3 and m >= 1:  # case 6
        k = (vM - 1) // 2
        _require(valuation(A, p) == 1 and B % p == 0 and C % p and D % p, "case 6 valuation pattern")
        _require(valuation(W, p) >= k + 1, "case 6 needs v_p(AD-BC) > k")
        s2 = SubfamilySurface(p, M * D // p ** (2 * k), -M * B // p ** (2 * k + 1), -C,
                              A // p, W * W // p ** (2 * k + 1))
        return rec(s2, _linear_map_back(p, A, B, C, D, k, scaled_v=True),
                   f"case 6 -> case 2 with coefficients {s2.label()}")
    if vM % 2 == 0 and vM >= 2 and m == 0:  # case 7
        k = vM // 2
        _require(valuation(W, p) == k, "case 7 needs v_p(AD-BC) = k")
        s2 = SubfamilySurface(p, M * D // p ** (2 * k), -M * B // p ** (2 * k), -C,
                              A, W * W // p ** (2 * k))
        return rec(s2, _linear_map_back(p, A, B, C, D, k, scaled_v=False),
                   f"case 7 -> case 3 with coefficients {s2.label()}")
    if vM % 2 == 0 and vM >= 2 and m >= 1:  # case 8
        k = vM // 2
        _require(valuation(A, p) == 1 and valuation(B, p) == 1 and C % p and D % p,
                 "case 8 valuation pattern")
        _require(valuation(W, p) >= k + 1, "case 8 needs v_p(AD-BC) > k")
        s2 = SubfamilySurface(p, M * D // p ** (2 * k), -M * B // p ** (2 * k + 1), -C,
                              A // p, W * W // p ** (2 * k + 1))
        return rec(s2, _linear_map_back(p, A, B, C, D, k, scaled_v=True),
                   f"case 8 -> case 4 with coefficients {s2.label()}")

    # base patterns: v_p(M) = 1 = m (works for every odd p, and detects the
    # insoluble residue pattern); else a sign flip handles p = 3 mod 4 and
    # both Hilbert symbols -1, and otherwise AC and BD are squares at p so
    # the explicit two-point constructions apply
    if vM == 1 and m == 1:
        return _case2(s, ctx)
    if p % 4 == 3:
        ctx.trace.append("p = 3 mod 4: flip the signs of y and z")
        _ensure_soluble_at_p(s, ctx)
        return _flip_pair(s, ctx, flip_y=True, flip_z=True)
    if hilbert_symbol(p, A * C, Place(p)) == -1 and hilbert_symbol(p, B * D, Place(p)) == -1:
        ctx.trace.append("(p,AC)_p = (p,BD)_p = -1: flip the sign of y")
        _ensure_soluble_at_p(s, ctx)
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


def _ensure_soluble_at_p(s: SubfamilySurface, ctx: _WitnessContext) -> None:
    """The sign-flip shortcuts presuppose a Q_p point; decide on the reduced surface."""
    verdict = decide_Qq(s, s.p, budget=400_000)
    if verdict.status == "insoluble":
        raise _InsolubleAtP(f"X(Q_{s.p}) empty: no primitive solutions mod {s.p}^{verdict.level}")
    if verdict.status == "inconclusive":
        raise _ConstructionDegenerate("could not establish solubility at p for the sign flip")


def _linear_map_back(p, A, B, C, D, k, scaled_v: bool):
    # inverse of (u:v:...) -> ((Au+Bv)/(AD-BC) : [p](Cu+Dv)/(AD-BC) : x/p^k : z/p^k : y/p^k)
    def back(c):
        ut, vt, xt, yt, zt = c
        if scaled_v:
            u = p * D * ut - B * vt
            v = -p * C * ut + A * vt
        else:
            u = D * ut - B * vt
            v = -C * ut + A * vt
        scale = p ** (k + 1) if scaled_v else p ** k
        return (u, v, scale * xt, scale * zt, scale * yt)

    return back


def _flip_pair(s, ctx, flip_y: bool, flip_z: bool):
    """A sampled point and its sign flip; the flip changes inv_p of class B."""
    pts = sample_local_points(s, s.p, 24, ctx.precision, seed=ctx.rng.randint(0, 10 ** 6))
    for pt in pts:
        flipped = _flip_point(pt, flip_y, flip_z)
        try:
            v1 = evaluate_invariant(s, "B", pt)
            pt2 = normalize_residue_tuple(s.p, pt.k, flipped)
            v2 = evaluate_invariant(s, "B", pt2)
        except IndeterminateEvaluationError:
            continue
        if v1 != v2:
            return "B", pt.coords, pt2.coords, pt.k
    raise _ConstructionDegenerate("sign flip did not separate on any sampled point")


# --- cases 1-4: explicit point constructions ---


def _case1(s: SubfamilySurface, ctx: _WitnessContext):
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    K = ctx.precision
    mod = p ** K
    _require(B % p != 0 and C % p != 0, "case 1 needs B, C units")
    if D % p != 0:
        # -BD is a unit square; points built from a unit r with r*sqrt(-BD) non-square
        mbd = (-B * D) % mod
        _require(legendre(mbd, p) == 1, "case 1a needs -BD a square")
        sq = _unit_sqrt(p, mbd, 1)
        want = -legendre(sq, p)  # required Legendre class of r
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
        y1 = _unit_sqrt(p, y1sq, K)
        pt1 = (u1, 1, 0, y1, 0)
        minv = pow(M, -1, mod)
        u2 = y2 * y2 * minv % mod
        val = (A * u2 + B) * (C * u2 + D) % mod
        z2 = _unit_sqrt(p, val, K)
        pt2 = (u2, 1, 0, y2, z2)
        return "B", pt1, pt2, K
    # case 1b: v_p(D) >= 1; unit y1 square, y2 non-square
    ctx.trace.append("case 1b")
    g = find_nonresidue(p)
    mod = p ** K
    minv = pow(M, -1, mod)
    pts = []
    for yi in (1, g):
        vi = yi * yi * minv % mod
        val = (A + B * vi) * (C + D * vi) % mod
        zi = _unit_sqrt(p, val, K)
        if (zi + yi) % p:  # take the root that is -yi mod p
            zi = -zi % mod
        pts.append((1, vi, 0, yi % mod, zi))
    return "B", pts[0], pts[1], K


def _case2(s: SubfamilySurface, ctx: _WitnessContext):
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    K = ctx.precision
    mod = p ** K
    _require(A % p == 0 and B % p == 0 and C % p and D % p, "case 2 valuation pattern")
    A1, B1, M1 = A // p, B // p, M // p
    N1, rem = divmod(s.N, p)
    _require(rem == 0, "case 2 needs p | N")
    W = B1 * C + A1 * D - M1
    _require(W % p != 0, "case 2 needs a unit W")
    kappa = M1 * W % p * pow(2 * A1 * C % p, -1, p) % p
    if legendre(kappa, p) == -1:
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
        xi = _unit_sqrt(p, arg, K)
        pts.append(((-W) % mod, 2 * A1 * C % mod, xi, p * yi % mod, p * zi % mod))
    return "B", pts[0], pts[1], K


def _case3(s: SubfamilySurface, ctx: _WitnessContext):
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    K = ctx.precision
    mod = p ** K
    _require(legendre(A * C, p) == 1 and legendre(B * D, p) == 1, "case 3 needs AC, BD squares")
    s1 = _unit_sqrt(p, A * C % mod, K)
    pt1 = (1, 0, 0, 0, s1)
    if legendre(A * B * M, p) == -1:
        ctx.trace.append("case 3a")
        s2 = _unit_sqrt(p, B * D % mod, K)
        return "A", pt1, (0, 1, 0, 0, s2), K
    ctx.trace.append("case 3b")
    inv_ma = pow(M * A % p, -1, p)
    bb = B * inv_ma % p
    cc = C * pow(A, -1, p) % p
    dd = D * inv_ma % p
    y0 = quadres_witness(p, 1, bb, cc, dd)
    minv = pow(M, -1, mod)
    if (cc + dd * y0 * y0) % p != 0:
        v2 = y0 * y0 * minv % mod
        val = (A + B * v2) * (C + D * v2) % mod
        z2 = _unit_sqrt(p, val, K)
        return "A", pt1, (1, v2, 0, y0, z2), K
    # alternative (ii): adjust y0 so the second factor vanishes exactly
    y1sq = (-C * M * pow(D, -1, mod)) % mod
    y1 = _unit_sqrt(p, y1sq, K)
    if (y1 - y0) % p:  # take the root that is y0 mod p
        y1 = -y1 % mod
    v2 = y1 * y1 * minv % mod
    return "A", pt1, (1, v2, 0, y1, 0), K


def _case4(s: SubfamilySurface, ctx: _WitnessContext):
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    K = ctx.precision
    mod = p ** K
    vM = valuation(M, p)
    k = (vM - 1) // 2
    M1 = M // p ** vM
    _require(legendre(A * C, p) == 1, "case 4 needs AC a square")
    inv_ma = pow(M1 * A % p, -1, p)
    x0 = next((x for x in range(1, p)
               if _legendre_unchecked(1 - B * inv_ma * x * x, p) == -1), None)
    if x0 is None:
        raise _ConstructionDegenerate("case 4: no x0 with 1 - (B/M'A) x0^2 a non-square")
    ctx.trace.append(f"case 4 (v_p(M) = {vM})")
    s1 = _unit_sqrt(p, A * C % mod, K)
    pt1 = (1, 0, 0, 0, s1)
    m1inv = pow(M1, -1, mod)
    v2 = (-x0 * x0 * m1inv) % mod
    val = (A * C % mod) * (1 - B * x0 * x0 * m1inv * pow(A, -1, mod)) % mod \
        * (1 - D * x0 * x0 * m1inv * pow(C, -1, mod)) % mod
    val = (val + p ** (2 * k + 1) * x0 * x0) % mod
    z2 = _unit_sqrt(p, val, K)
    pt2 = (1, v2, p ** k * x0 % mod, 0, z2)
    return "A", pt1, pt2, K


# ---------------------------------------------------------------------------
# obstruction verdicts


@dataclass(frozen=True)
class ObstructionReport:
    surface: SubfamilySurface
    images: dict  # tag -> {place label -> PlaceImage}
    hp_obstructed_by: tuple[str, ...]
    wa_failure: bool
    unknown_classes: tuple[str, ...]
    witness: WitnessResult | None
    rational_point: tuple | None = None  # refutes any Hasse-principle obstruction

    def to_json(self):
        entries = []
        for tag in CLASS_TAGS:
            for place_label, img in sorted(self.images[tag].items()):
                entries.append({"class": tag, "place": place_label, **img.to_json()})
        return {
            "surface": self.surface.label(),
            "entries": entries,
            "hp_obstructed_by": list(self.hp_obstructed_by),
            "wa_failure": self.wa_failure,
            "unknown_classes": list(self.unknown_classes),
            "witness": None if self.witness is None else self.witness.to_json(),
            "rational_point": None if self.rational_point is None else list(self.rational_point),
        }


# places above this are not sampled; a family theorem covers them or they stay unknown
PLACE_BOUND = 1500


def relevant_places(s: SubfamilySurface) -> tuple[list, list]:
    """Finite places where some invariant can be nonzero: {2, p} and the odd
    bad primes q with p a non-residue.  Returns (feasible, skipped), split at
    PLACE_BOUND."""
    ps = {2, s.p}
    bad = set()
    for coeff in (s.A, s.B, s.C, s.D, s.M, s.N, s.A * s.D - s.B * s.C):
        bad.update(f for f in factor(abs(coeff)) if f % 2 and f != s.p)
    feasible, skipped = [], []
    for q in sorted(bad):
        if legendre(s.p, q) == 1:
            continue  # (p, *)_q is identically trivial
        (feasible if q <= PLACE_BOUND else skipped).append(q)
    return sorted(ps) + feasible, skipped


def bm_verdict(s: SubfamilySurface, sample_budget: int = 64, seed: int = 0) -> ObstructionReport:
    """Which classes obstruct the Hasse principle, with per-place evidence.

    A class obstructs exactly when every place's image is a singleton and the
    values sum to 1/2.  Each relevant place is sampled once for all three
    classes; family theorems and the Klein-four identity are checked on that
    sample, and a mismatch is a hard error.
    """
    from .localsolve import everywhere_locally_soluble

    validate_subfamily(s)
    els = everywhere_locally_soluble(s)
    if els.everywhere_soluble is not True:
        raise ValueError(f"bm_verdict needs an everywhere locally soluble surface; got {els.everywhere_soluble}")
    places, skipped = relevant_places(s)
    images: dict[str, dict[str, PlaceImage]] = {
        tag: {"oo": PlaceImage(frozenset({ZERO}), "theorem", "p > 0: trivial at the real place")}
        for tag in CLASS_TAGS}
    witness = surjectivity_witness(s, seed=seed)
    if witness.insoluble_at_p:
        raise AssertionError(f"witness machinery finds {s.label()} insoluble at p")
    for q in places:
        for tag, img in invariant_image(s, q, sample_budget=sample_budget, seed=seed).items():
            images[tag][str(q)] = img
    for q in skipped:
        for tag in CLASS_TAGS:
            thm = _theorem_image(s, tag, q)
            if thm is not None:
                images[tag][str(q)] = thm
    # fold in the surjectivity witness at p
    prev = images[witness.tag][str(s.p)]
    images[witness.tag][str(s.p)] = PlaceImage(prev.values | {ZERO, HALF}, "witness-pair",
                                               "separating pair from the case construction", prev.n)
    obstructing, unknown = _obstruction_flags(images, skipped)
    rational_point = None
    family_backed = y_family_params(s) is not None or s_family_params(s) is not None
    if obstructing and not family_backed:
        # a sampled singleton image is evidence, not proof; an actual rational
        # point refutes any Hasse-principle obstruction outright, and its
        # exact invariants repair whichever image the sampler undersampled
        from .families import point_search

        found = point_search(s, 64)
        if found:
            rational_point = found[0]
            for tag in CLASS_TAGS:
                for place_label, img in list(images[tag].items()):
                    v = PLACE_INF if place_label == "oo" else Place(int(place_label))
                    try:
                        value = evaluate_invariant(s, tag, rational_point, v)
                    except IndeterminateEvaluationError:
                        continue
                    if value not in img.values:
                        images[tag][place_label] = PlaceImage(
                            img.values | {value}, "sampled",
                            f"{img.detail}; exact value at {rational_point}".strip("; "),
                            img.n + 1)
            obstructing, unknown = _obstruction_flags(images, skipped)
            if obstructing:
                raise AssertionError(
                    f"{s.label()} has the rational point {rational_point} but the invariant "
                    f"images still sum to 1/2 for {obstructing}; evaluation is inconsistent")
    if len(obstructing) > 1:
        raise AssertionError(f"two classes obstruct on {s.label()}: {obstructing}")
    wa_failure = any(len(img.values) == 2 for tag in CLASS_TAGS for img in images[tag].values())
    report = ObstructionReport(s, images, tuple(obstructing), wa_failure, tuple(unknown), witness,
                               rational_point)
    _family_cross_check(s, report)
    return report


def _obstruction_flags(images, skipped):
    obstructing, unknown = [], []
    for tag in CLASS_TAGS:
        skipped_unknown = [q for q in skipped if str(q) not in images[tag]]
        if any(len(img.values) == 2 for img in images[tag].values()):
            continue  # a surjective place: this class never obstructs
        if skipped_unknown:
            unknown.append(tag)
            continue
        total = sum((next(iter(img.values)) for img in images[tag].values()), ZERO) % 1
        if total == HALF:
            obstructing.append(tag)
    return obstructing, unknown


def _family_cross_check(s: SubfamilySurface, report: ObstructionReport) -> None:
    yp = y_family_params(s)
    if yp is not None:
        p, a, _ = yp
        expected = ("A",) if legendre(a, p) == -1 else ()
        if report.hp_obstructed_by != expected:
            raise AssertionError(
                f"family prediction {expected} disagrees with computed {report.hp_obstructed_by}")
    sp = s_family_params(s)
    if sp is not None and report.hp_obstructed_by != ("B",):
        raise AssertionError(
            f"family prediction ('B',) disagrees with computed {report.hp_obstructed_by}")


# ---------------------------------------------------------------------------
# global reciprocity at rational points


def reciprocity_check(s: SubfamilySurface, point) -> bool:
    """Sum of local invariants vanishes for each class at a rational point.

    The finite places used are {2, p} plus the primes dividing the values of
    the representations at the point; the symbols are trivial elsewhere.
    Where every representation of C is 0 or infinite, C = A + B is
    nontrivial only at places of A or B.
    """
    point = normalize_point(point)
    if not s.contains(point):
        raise ValueError(f"{point} is not on {s.label()}")
    places = {}
    for tag in CLASS_TAGS:
        qs = {2, s.p}
        determinate = False
        for rep in class_representations(s, tag):
            n, d = rep.eval_num(point), rep.eval_den(point)
            determinate = determinate or (n != 0 and d != 0)
            if n:
                qs.update(f for f in factor(abs(n)))
            if d:
                qs.update(f for f in factor(abs(d)))
        if tag == "C" and not determinate:
            qs = places["A"] | places["B"]
        places[tag] = qs
        total = evaluate_invariant(s, tag, point, PLACE_INF)
        for q in sorted(qs):
            total += evaluate_invariant(s, tag, point, Place(q))
        if total % 1 != 0:
            return False
    return True
