"""The two explicit families, closed-form predictions and point search.

First family (parameters p = 1 mod 4 prime, a*b = p - 1):

    y^2 - p x^2 = u v ;  z^2 - p x^2 = (a u - p v)(u - b v)

Second family (p odd prime, (a+b-1)^2 - 4ab = p, 4a = 4b = 1 mod p,
a, b odd, a = 1 mod 8):

    y^2 - p x^2 = u v ;  z^2 - p x^2 = (u + v)(a u + b v)
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import gcd, isqrt

from .arith import _sieve_primes, is_prime, legendre, valuation
from .quadform import Point, SubfamilySurface, validate_subfamily


# ---------------------------------------------------------------------------
# first family


def make_Y(p: int, a: int, b: int) -> SubfamilySurface:
    """The surface y^2 - px^2 = uv, z^2 - px^2 = (au - pv)(u - bv)."""
    if p % 4 != 1 or not is_prime(p):
        raise ValueError(f"need a prime p = 1 mod 4, got {p}")
    if a * b != p - 1:
        raise ValueError(f"need a*b = p - 1, got {a}*{b} != {p - 1}")
    s = SubfamilySurface(p, a, -p, 1, -b, 1)
    validate_subfamily(s)
    if s.N != 2:  # (AD+BC-M)^2 - 4ABCD = 4p for this family
        raise AssertionError(f"N = {s.N} for {s.label()}, expected 2")
    return s


@dataclass(frozen=True)
class PredictedVerdict:
    obstructed_by: tuple[str, ...]
    reason: str


def predict_Y(p: int, a: int, b: int) -> PredictedVerdict:
    """Closed-form verdict: class A obstructs exactly when (a/p) = -1.

    The equivalent congruence criterion (p = 5 mod 8 with a and b even) is
    recomputed and must agree.
    """
    make_Y(p, a, b)  # validate parameters
    la, lb = legendre(a, p), legendre(b, p)
    if la != lb:
        raise AssertionError("the two Legendre symbols must coincide when ab = p - 1")
    by_parity = p % 8 == 5 and a % 2 == 0 and b % 2 == 0
    if (la == -1) != by_parity:
        raise AssertionError("congruence criterion disagrees with the Legendre symbol")
    if la == -1:
        return PredictedVerdict(("A",), f"({a}/{p}) = -1")
    return PredictedVerdict((), f"({a}/{p}) = +1")


# ---------------------------------------------------------------------------
# second family


def check_S_params(p: int, a: int, b: int) -> list[str]:
    """Condition-by-condition check; empty list means the parameters qualify."""
    failures = []
    if p % 2 == 0 or not is_prime(p):
        failures.append(f"p = {p} is not an odd prime")
        return failures
    if (a + b - 1) ** 2 - 4 * a * b != p:
        failures.append(f"(a+b-1)^2 - 4ab = {(a + b - 1) ** 2 - 4 * a * b} != {p}")
    if (4 * a - 1) % p or (4 * b - 1) % p:
        failures.append("4a and 4b must be 1 mod p")
    if a % 2 == 0 or b % 2 == 0:
        failures.append("a and b must be odd")
    if a % 8 != 1:
        failures.append("a must be 1 mod 8")
    return failures


def make_S(p: int, a: int, b: int) -> SubfamilySurface:
    """The surface y^2 - px^2 = uv, z^2 - px^2 = (u + v)(au + bv)."""
    failures = check_S_params(p, a, b)
    if failures:
        raise ValueError("; ".join(failures))
    s = SubfamilySurface(p, 1, 1, a, b, 1)
    validate_subfamily(s)
    if s.N != 1:
        raise AssertionError(f"N = {s.N} for {s.label()}, expected 1")
    return s


def s_from_t(p: int, t: int) -> tuple[int, int, int]:
    """Parameters (p, a_t, b_t) of the second family from the stock construction.

    Needs p = 5 mod 8 and t = 3(p-1)/4 mod 8; the output is validated against
    all four defining conditions, never assumed.
    """
    if p % 8 != 5 or not is_prime(p):
        raise ValueError(f"need a prime p = 5 mod 8, got {p}")
    if (t - 3 * (p - 1) // 4) % 8:
        raise ValueError(f"need t = 3(p-1)/4 mod 8, got t = {t}")
    a = t * t * p * p - t * p - (p - 1) // 4
    b = t * t * p * p + t * p - (p - 1) // 4
    failures = check_S_params(p, a, b)
    if failures:
        raise AssertionError(f"construction produced invalid parameters: {failures}")
    return (p, a, b)


def predict_S(p: int, a: int, b: int) -> PredictedVerdict:
    """Closed-form verdict: class B always obstructs on the second family."""
    failures = check_S_params(p, a, b)
    if failures:
        raise ValueError("; ".join(failures))
    return PredictedVerdict(("B",), "class B has constant invariant 1/2 at p")


def family_of(s: SubfamilySurface) -> tuple[str, tuple[int, int, int]] | None:
    """("Y", (p, a, b)) when s is make_Y(p, a, b) with a, b > 0, ("S", (p, a, b))
    when s is make_S(p, a, b), else None."""
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    if (B, C, M) == (-p, 1, 1) and p % 4 == 1 and A > 0 > D and A * -D == p - 1:
        return "Y", (p, A, -D)
    if (A, B, M) == (1, 1, 1) and not check_S_params(p, C, D):
        return "S", (p, C, D)
    return None


# ---------------------------------------------------------------------------
# rational point search


def point_search(s: SubfamilySurface, height_bound: int, jobs: int = 1) -> list[Point]:
    """All primitive points with max |coordinate| <= height_bound, u > 0 or u = 0 < v.

    Walks the hyperbola y^2 - p x^2 = M u v.  For each u >= 1 and x >= 0 the
    y are the square roots of p x^2 mod m = |M| u lifted through a window, so
    v is exact and only z takes an integer square root.  On u = 0 a non-square
    p forces x = y = 0 and primitivity v = 1.

    Orientation: exchanging u and v maps s to (p, B, A, D, C, M).  When
    BD > AC the walk runs on that mirror, whose u is the v of s, and maps each
    point back by (u, v) -> (v, u), negated when u < 0; the mirror's u = 0
    line is (1, 0, 0, 0, +-sqrt(AC)) on s.  On the first family BD = pb > AC
    = a: both linear forms vanish near u = bv, so the window of v meets
    [-h, h] at every u, while that of u leaves it once v passes about h / b.

    x and y step by g(m), the product of l^ceil(k/2) over the odd primes
    l <= h with (p/l) = -1 and l^k || m: if y^2 = p x^2 mod l^k and l did not
    divide x, p would be the square (y/x)^2 mod l; so l | x, l | y and
    (y/l)^2 = p (x/l)^2 mod l^(k-2), and induction on k gives l^ceil(k/2).

    v lies in a window: z^2 = BD v^2 + (AD+BC) u v + AC u^2 + p x^2 must lie
    in [0, h^2], and BD != 0 on a valid surface ((C1) with BD = 0 forces
    N = 0).  With t = sign(M) v, sigma = sign(BD) and T = h^2 if BD > 0 else
    0, sigma (z^2 - T) = |BD| t^2 + b t + ... is <= 0 exactly when
    |2 |BD| t + b| <= r(x) = isqrt(K - 4 BD p x^2), K its discriminant at
    x = 0; those t, clamped to |t| <= h, give the window of y through
    y^2 = p x^2 + m t.  The window cut, for BD > 0: every |t| <= h has
    |2 |BD| t + b| >= gap = max(|b| - 2 |BD| h, 0), so a t in the window
    needs r(x) >= gap, that is K - 4 BD p x^2 >= gap^2.  Hence a u with
    K < gap^2 is skipped before its roots are listed, and otherwise
    x <= isqrt((K - gap^2) / (4 BD p)).  These cuts drop only candidates
    that the z checks or |v| <= h reject.  The multiples y0 of g in
    [0, min(m, h + 1)) are listed by y0^2 mod m, increasing.  A window
    [ylo, yhi] of fewer than m integers has distinct residues mod m, filling
    the cyclic interval [ylo, yhi] mod m, so y0 + mZ meets it exactly when y0
    lies in that interval: one slice of the sorted roots, or two when it
    wraps (never when m > h + 1, as then yhi <= h < m).  A wider window meets
    every y0 + mZ.  Work: h log log h to tabulate g, O(1) per skipped u, then
    per kept u about min(|M| u, h) / g roots and at most h / g values of x,
    each one root lookup and then only the roots that meet the window, with
    about one candidate each.  On the first family the cut keeps v up to
    about 2 (a + sqrt(a)) h / (2p - 1).  A scan over (u, v, x) costs
    h^3 / sqrt(p).
    """
    if height_bound < 0 or jobs < 1:
        raise ValueError(f"need height_bound >= 0 and jobs >= 1, got {height_bound}, {jobs}")
    validate_subfamily(s)
    h = height_bound
    swap = s.B * s.D > s.A * s.C
    w = SubfamilySurface(s.p, s.B, s.A, s.D, s.C, s.M) if swap else s  # the walked frame
    z = isqrt(max(w.B * w.D, 0))
    on_u0 = h >= 1 and z <= h and z * z == w.B * w.D
    found = {(0, 1, 0, 0, zz) for zz in {z, -z}} if on_u0 else set()
    workers = min(jobs, h)  # no worker without a walked value (u, or v if swapped)
    if workers > 1:
        import multiprocessing  # only here: ``import dp4`` does not pay for it
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            parts = pool.starmap(_search_hyperbola, [(w, h, range(1 + i, h + 1, workers))
                                                     for i in range(workers)])
    else:
        parts = [_search_hyperbola(w, h, range(1, h + 1))]
    found = found.union(*parts)
    if swap:  # back to (u, v) = (v', u'), the sign fixed by u > 0 or u = 0 < v
        found = {(v, u, x, y, z) if v >= 0 else (-v, -u, -x, -y, -z)
                 for u, v, x, y, z in found}
    return sorted(found)


def _forced_divisors(p: int, M: int, n: int) -> list[int]:
    """g(|M| u) of ``point_search`` for 1 <= u <= n, over the primes l <= n: the odd
    ones of arith's sieve, then odd q beyond it proved prime one by one."""
    g, primes = [1] * (n + 1), _sieve_primes()
    for q in primes[1:bisect_right(primes, n)] + list(range(primes[-1] + 2, n + 1, 2)):
        if pow(p, q // 2, q) == q - 1 and (q <= primes[-1] or is_prime(q)):  # (p/q) = -1
            # q^ceil(k/2) gains a factor q at k = 1, 3, 5, ..., and
            # v_q(|M| u) >= j exactly when q^(j - v_q(M)) divides u
            e = valuation(M, q)
            for j in range(1, e + n.bit_length() + 2, 2):
                step = q ** max(j - e, 0)
                for u in range(step, n + 1, step):
                    g[u] *= q
    return g


def _search_hyperbola(s: SubfamilySurface, h: int, us) -> set[Point]:
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    BD, h2 = B * D, h * h
    T, a2, c = h2 if BD > 0 else 0, 2 * abs(BD), 4 * BD * p
    # t = sign(M) v, so y^2 = p x^2 + m t and sign(BD) (z^2 - T) = |BD| t^2 + e u t + ...
    e = (A * D + B * C) * (1 if BD > 0 else -1) * (1 if M > 0 else -1)
    g = _forced_divisors(p, M, h)
    found: set[Point] = set()
    for u in us:
        m, Mu, Au, Cu = abs(M) * u, M * u, A * u, C * u
        b, step = e * u, g[u]
        K = b * b - 4 * BD * (A * C * u * u - T)  # the discriminant at x = 0
        xmax = min(h, isqrt((h2 + m * h) // p))
        if BD > 0:
            gap = max(abs(b) - a2 * h, 0)  # |2 |BD| t + b| >= gap for every |t| <= h
            if K < gap * gap:
                continue
            xmax = min(xmax, isqrt((K - gap * gap) // c))
        roots: dict[int, list[int]] = {}
        for y0 in range(0, min(m, h + 1), step):
            roots.setdefault(y0 * y0 % m, []).append(y0)
        for x in range(0, xmax + 1, step):
            px2 = p * x * x
            rs = roots.get(px2 % m)
            if rs is None:
                continue
            r = isqrt(K - c * x * x)  # the quadratic is <= 0 iff |2 |BD| t + b| <= r
            tlo, thi = -((b + r) // a2), (r - b) // a2
            lo = px2 + m * (tlo if tlo > -h else -h)
            hi = px2 + m * (thi if thi < h else h)
            ylo = isqrt(lo - 1) + 1 if lo > 0 else 0
            yhi = isqrt(hi) if hi >= 0 else -1
            if yhi > h:
                yhi = h
            if yhi < ylo:
                continue
            if yhi - ylo + 1 < m:  # only the roots in the cyclic interval [ylo, yhi] mod m
                ya, yb = ylo % m, yhi % m
                i, j = bisect_left(rs, ya), bisect_right(rs, yb)
                rs = rs[i:j] if ya <= yb else rs[i:] + rs[:j]
            for y0 in rs:
                for y in range(y0 - (y0 - ylo) // m * m, yhi + 1, m):
                    v = (y * y - px2) // Mu
                    z2 = (Au + B * v) * (Cu + D * v) + px2
                    if 0 <= z2 <= h2:
                        z = isqrt(z2)
                        if z * z == z2 and gcd(u, v, x, y, z) == 1:
                            found.update((u, v, xx, yy, zz) for xx in {x, -x}
                                         for yy in {y, -y} for zz in {z, -z})
    return found
