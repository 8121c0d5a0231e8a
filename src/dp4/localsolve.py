"""Local solubility of the surfaces over R and over every Q_q, with certificates.

Candidate solutions modulo q^k are explored depth first, down to LEVEL_CAP:
residues that satisfy both equations mod q^k are expanded one q-adic digit at
a time (the digit condition is an exact 2x4 linear system over F_q).  A
candidate whose 2x5 Jacobian has a 2x2 minor of valuation e with 2e+1 <= k
lifts to a genuine Q_q point by Newton iteration on the two selected
coordinates; an empty level certifies insolubility, since a Q_q point would
reduce to every level.

Level 1 is solved slot by slot on a subfamily surface and plane by plane on a
general pencil, where two conics meet in the roots of a resultant of degree
at most 4.  Beyond the exhaustive enumeration budgets only certificates are
sought, by seeded level-1 draws: they prove solubility, never insolubility.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, replace

from .arith import (BudgetExceeded, _legendre_unchecked, _prime_is_square_at, _sqrt_mod_unchecked, factor,
                    find_nonresidue, is_prime, valuation)
from .quadform import (
    GeneralSurface,
    SubfamilySurface,
    _kept,
    binary_form_eval,
    definite_sign,
    validate_pencil,
    validate_subfamily,
)

LEVEL_CAP = 24
SAMPLING_BUDGET = 200_000
DEFAULT_EXPANSION_BUDGET = 10 ** 7
RESIDUE_ENUM_BUDGET = 10 ** 4
GENERAL_ENUM_BUDGET = 60
CERTIFICATE_DRAWS = 1000  # seeded level-1 draws of decide_Qq beyond the exhaustive budgets
ROOT_SCAN_BOUND = 64  # up to this q, polynomial roots are found by evaluating at every residue
_MINOR_PAIRS = tuple(itertools.combinations(range(5), 2))  # the 2x2 minors of a 2x5 Jacobian, in reading order


class EnumerationBudgetError(BudgetExceeded):
    """The requested exhaustive residue enumeration is beyond the budget."""


class SamplingBudgetError(BudgetExceeded):
    """Could not produce the requested number of certified local points;
    ``points`` holds the distinct certified points found, maybe none."""

    def __init__(self, message: str, points: list):
        super().__init__(message)
        self.points = points


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
        """The point mod q^k, with its certificate only while that still applies (2e < k)."""
        if k > self.k:
            raise AssertionError(f"cannot reduce precision {self.k} to {k}")
        mod = self.q ** k
        cert = self.cert if self.cert and 2 * self.cert.e < k else None
        return PadicApproxPoint(self.q, k, tuple(c % mod for c in self.coords), self.pinned, cert)

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


class _SqrtRoots:
    """Indexed like ``_sqrt_table(q)``, by Tonelli-Shanks: no memory that grows with q.
    The non-residue of the prime q is found once, not once per root."""

    def __init__(self, q: int):
        self.q, self.nonresidue = q, find_nonresidue(q)

    def __getitem__(self, a: int) -> list[int]:
        r = _sqrt_mod_unchecked(a, self.q, self.nonresidue)
        return [] if r is None else [r, self.q - r] if r else [0]


def _level1_subfamily(s: SubfamilySurface, q: int):
    """(n, slot): the projective F_q points on both quadrics, as n slots.

    Any solution has (u, v, x) != (0, 0, 0) mod q, so three pinned patterns
    cover everything: (1:v:x), then (0:1:x), then (0:0:1), the last
    coordinate varying fastest.  Slot i holds pattern i // 4 with the
    (i // 2) % 2-th square root y and the i % 2-th square root z, in
    increasing order: from a root table within RESIDUE_ENUM_BUDGET, beyond it
    from ``_SqrtRoots``, so that memory does not grow with q.  slot(i) is
    that point, already normalized, or None when the root does not exist.
    """
    roots = _sqrt_table(q) if q <= RESIDUE_ENUM_BUDGET else _SqrtRoots(q)
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


def _poly_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _poly_divmod(f: list[int], g: list[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by g != 0 over F_q, coefficients lowest first."""
    f, quo = [c % q for c in f], [0] * max(len(f) - len(g) + 1, 0)
    inv = pow(g[-1], -1, q)
    for shift in range(len(f) - len(g), -1, -1):
        c = quo[shift] = f[shift + len(g) - 1] * inv % q
        for i, gi in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gi) % q
    return quo, _poly_trim(f[:len(g) - 1])


def _poly_gcd(f: list[int], g: list[int], q: int) -> list[int]:
    """The monic gcd over F_q; [] when f and g are both 0."""
    while g:
        f, g = g, _poly_divmod(f, g, q)[1]
    return [c * pow(f[-1], -1, q) % q for c in f] if f else []


def _poly_powmod(f: list[int], e: int, m: list[int], q: int) -> list[int]:
    """f^e mod m over F_q, by squaring and multiplying; m of degree at least 1."""
    out = [1]
    for bit in bin(e)[2:]:
        for g in [out, f][:1 + (bit == "1")]:
            prod = [0] * (len(out) + len(g))
            for i, a in enumerate(out):
                for j, b in enumerate(g):
                    prod[i + j] += a * b
            out = _poly_divmod(prod, m, q)[1]
    return out


def _poly_roots(f: list[int], q: int, rng: random.Random) -> list[int]:
    """The distinct roots in F_q of f != 0 of degree at most 4 (coefficients lowest first), sorted.

    Up to ROOT_SCAN_BOUND, f is evaluated at every residue.  Beyond it,
    gcd(f, x^q - x) keeps one linear factor per root, and equal-degree
    splitting (D. G. Cantor and H. Zassenhaus, Math. Comp. 36 (1981))
    separates them: O(log q) products of polynomials of degree below 4.
    """
    f = _poly_trim([c % q for c in f])
    if q <= ROOT_SCAN_BOUND:
        c0, c1, c2, c3, c4 = f + [0] * (5 - len(f))
        return [x for x in range(q) if (c0 + x * (c1 + x * (c2 + x * (c3 + x * c4)))) % q == 0]
    if len(f) > 2:
        xq = _poly_powmod([0, 1], q, f, q) + [0, 0]
        f = _poly_gcd(f, _poly_trim([(c - (i == 1)) % q for i, c in enumerate(xq)]), q)
    return sorted(_split_roots(f, q, rng))


def _split_roots(g: list[int], q: int, rng: random.Random) -> list[int]:
    """The roots of g, a nonzero product of distinct linear factors over F_q, q odd.

    gcd(g, (x + a)^((q-1)/2) - 1) keeps the roots r with r + a a nonzero
    square, for seeded shifts a, until g splits.
    """
    while len(g) > 2:
        w = _poly_powmod([rng.randrange(q), 1], (q - 1) // 2, g, q) + [0]
        h = _poly_gcd(g, _poly_trim([(c - (i == 0)) % q for i, c in enumerate(w)]), q)
        if 1 < len(h) < len(g):
            return _split_roots(h, q, rng) + _split_roots(_poly_divmod(g, h, q)[0], q, rng)
    return [-g[0] * pow(g[1], -1, q) % q] if len(g) == 2 else []


def _level1_general(g: GeneralSurface, q: int, rng: random.Random | None):
    """(n, plane): the projective F_q points on both quadrics, plane by plane.

    Plane i < n - 1 fixes (x0 : x1 : x2) = (1 : a : b), (0 : 1 : b) or
    (0 : 0 : 1); quadric j, read as the node reader reads it, by its
    content-free form x.G x / 2 (G = ``g.hessians[j]``), is then a conic
    aj y^2 + Bj(x) y + Cj(x) in (x, y) = (x3, x4): with r = G (x0, x1, x2, 0, 0),
    aj = G_44 / 2, Bj = G_34 x + r_4, Cj = G_33 x^2 / 2 + r_3 x + (x0 r_0 +
    x1 r_1 + x2 r_2) / 2.  Common zeros have x among the roots of
    R = Res_y = U^2 - V W, of degree at most 4, with U = a1 C2 - a2 C1,
    V = a1 B2 - a2 B1, W = B1 C2 - B2 C1 (R = W if a1 = a2 = 0), and y from
    a2 P1 - a1 P2 = -(V y + U), a root finder only where U = V = 0.  If R
    vanishes the conics share a component: every x is solved, a column each.
    Plane n - 1 is the line x0 = x1 = x2 = 0: x3 = 1, then (0 : 0 : 0 : 0 : 1).
    plane(i) yields its points sorted, and None for a plane or a column
    without one; in order of i that is the exhaustive order.  ``rng``, if
    given, seeds the root splittings and the order of the columns.
    """
    qq, split = q * q, rng or random.Random(q)
    rows = [(tuple(zip(*h[:3])), h[4][4] // 2, h[3][4], h[3][3] // 2) for h in g.hessians]

    def conics(z):
        """(a, b0, b1, c0, c1, c2) of each quadric on the plane through z and the line."""
        z0, z1, z2 = z
        out = []
        for cols, a, b1, c2 in rows:
            r = [u * z0 + v * z1 + w * z2 for u, v, w in cols]
            out.append((a % q, r[4] % q, b1 % q, (r[0] * z0 + r[1] * z1 + r[2] * z2) // 2 % q, r[3] % q, c2 % q))
        return out

    def columns():
        return range(q) if rng is None else _shuffled_indices(q, rng)

    def ys(c1, c2, x):
        """The common roots y of P1(x, y) and P2(x, y)."""
        (a1, B1, C1), (a2, B2, C2) = ((a, (b0 + b1 * x) % q, (c0 + (cc1 + cc2 * x) * x) % q)
                                      for a, b0, b1, c0, cc1, cc2 in (c1, c2))
        U, V = (a1 * C2 - a2 * C1) % q, (a1 * B2 - a2 * B1) % q
        if not (a1 or a2):  # two linear equations
            if not (B1 or B2):
                return columns() if not (C1 or C2) else []
            U, V = (C2, B2) if B2 else (C1, B1)
        if V:
            y = -U * pow(V, -1, q) % q
            return [y] if (a1 * y * y + B1 * y + C1) % q == (a2 * y * y + B2 * y + C2) % q == 0 else []
        return [] if U else _poly_roots([C1, B1, a1] if a1 else [C2, B2, a2], q, split)

    def plane(i: int):
        if i <= qq + q:
            z, pinned = ((1, *divmod(i, q)), 0) if i < qq else ((0, 1, i - qq), 1) if i < qq + q else ((0, 0, 1), 2)
        else:  # the line x0 = x1 = x2 = 0
            z, pinned = (0, 0, 0), 3
        c1, c2 = conics(z)
        (a1, b10, b11, c10, c11, c12), (a2, b20, b21, c20, c21, c22) = c1, c2
        w0 = b10 * c20 - b20 * c10
        w1 = b10 * c21 + b11 * c20 - b20 * c11 - b21 * c10
        w2 = b10 * c22 + b11 * c21 - b20 * c12 - b21 * c11
        w3 = b11 * c22 - b21 * c12
        R = [w0, w1, w2, w3]
        if a1 or a2:
            u0, u1, u2 = a1 * c20 - a2 * c10, a1 * c21 - a2 * c11, a1 * c22 - a2 * c12
            v0, v1 = a1 * b20 - a2 * b10, a1 * b21 - a2 * b11
            R = [u0 * u0 - v0 * w0, 2 * u0 * u1 - v0 * w1 - v1 * w0, u1 * u1 + 2 * u0 * u2 - v0 * w2 - v1 * w1,
                 2 * u1 * u2 - v0 * w3 - v1 * w2, u2 * u2 - v1 * w3]
        R = any(c % q for c in R) and R
        by_columns = pinned < 3 and not R
        empty = True
        for x in [1] if pinned == 3 else columns() if by_columns else _poly_roots(R, q, split):
            column_empty = True
            for y in ys(c1, c2, x):
                empty = column_empty = False
                yield PadicApproxPoint(q, 1, z + (x, y), pinned)
            if column_empty and by_columns:
                yield None  # an empty column is a draw of its own
        if pinned == 3 and a1 == a2 == 0:
            empty = False
            yield PadicApproxPoint(q, 1, (0, 0, 0, 0, 1), 4)
        if empty and not by_columns:
            yield None

    return qq + q + 2, plane


def _enumeration_budget(surface) -> int:
    return RESIDUE_ENUM_BUDGET if isinstance(surface, SubfamilySurface) else GENERAL_ENUM_BUDGET


def _level1_draws(surface, q: int, rng: random.Random | None):
    """The level-1 points, lazily, and None for each draw (a slot, a plane or a column) without one;
    the proof that q is prime, kept on the surface, which every walk below relies on."""
    if not _kept(surface, ("prime", q), is_prime, q):
        raise ValueError(f"{q} is not prime")
    general = not isinstance(surface, SubfamilySurface)
    n, cell = _level1_general(surface, q, rng) if general else _level1_subfamily(surface, q)
    cells = map(cell, range(n) if rng is None else _shuffled_indices(n, rng))
    return itertools.chain.from_iterable(cells) if general else cells


def iter_residue_points(surface, q: int, rng: random.Random | None = None):
    """The projective F_q points on both quadrics, normalized, lazily.

    Without ``rng`` they come in a fixed exhaustive order, within the
    exhaustive enumeration budget (RESIDUE_ENUM_BUDGET for a subfamily
    surface, GENERAL_ENUM_BUDGET for a general pencil).  With ``rng`` they
    come in seeded random order at any q, one subfamily slot or one general
    plane per draw, each in O(log q) work: taking the first few costs about
    as much at any q as at a small one.
    """
    draws = _level1_draws(surface, q, rng)
    if rng is None and q > _enumeration_budget(surface):
        raise EnumerationBudgetError(
            f"exhaustive residue enumeration is limited to q <= {_enumeration_budget(surface)}, got {q}")
    return (pt for pt in draws if pt is not None)


# ---------------------------------------------------------------------------
# Newton refinement


def newton_refine(surface, pt: PadicApproxPoint, target_k: int) -> PadicApproxPoint:
    """Refine a certified point to precision target_k (Newton on two coordinates);
    ValueError unless pt is certified and solves both equations mod q^k, as lifts refined unread must."""
    if pt.cert is None:
        raise ValueError("point carries no lift certificate")
    q, e = pt.q, pt.cert.e
    f1, f2 = surface.equations(pt.coords)
    if f1 % q ** pt.k or f2 % q ** pt.k:
        raise ValueError(f"point does not satisfy the equations mod {q}^{pt.k}")
    if target_k <= pt.k:
        return pt.reduce(target_k) if target_k < pt.k else pt
    i, j = pt.cert.cols
    qe, qt = q ** e, q ** target_k
    big = qt * qe * q
    coords = [c % big for c in pt.coords]
    for _ in range(64):
        f1 %= big
        f2 %= big
        if f1 % qt == 0 and f2 % qt == 0:  # both residuals vanish mod q^target_k
            break
        j1, j2 = surface.jacobian(coords)  # read apart: the last pass needs only the residuals
        m11, m12 = j1[i], j1[j]
        m21, m22 = j2[i], j2[j]
        det = m11 * m22 - m12 * m21
        if det % qe or det % (qe * q) == 0:  # v_q(det) != e
            raise ArithmeticError("certificate minor valuation drifted during refinement")
        unit_inv = pow(det // qe % big, -1, big)
        # delta = -J2^{-1} F = -adj(J2) F / det, exact division by q^e
        n1 = -(m22 * f1 - m12 * f2)
        n2 = -(-m21 * f1 + m11 * f2)
        if n1 % qe or n2 % qe:
            raise AssertionError("Newton numerators are not divisible by the minor's q-power")
        coords[i] = (coords[i] + (n1 // qe) * unit_inv) % big
        coords[j] = (coords[j] + (n2 // qe) * unit_inv) % big
        f1, f2 = surface.equations(coords)
    else:
        raise ArithmeticError("Newton refinement did not converge")
    out = normalize_residue_tuple(q, target_k, coords)
    if out is None or out.pinned != pt.pinned:
        raise AssertionError("Newton refinement lost primitivity or moved the pinned coordinate")
    f1, f2 = surface.equations(out.coords)
    if f1 % qt or f2 % qt:
        raise ValueError(f"point does not satisfy the equations mod {q}^{target_k}")
    return PadicApproxPoint(q, target_k, out.coords, out.pinned, pt.cert)


# ---------------------------------------------------------------------------
# node readings: Hensel certificates and digit-by-digit lifts


def _rref_mod(rows, q: int, ncols: int):
    """Gauss-Jordan elimination mod q, pivoting only in the first ncols columns:
    (mat, pivots), mat the rows mod q, one per pivot first (1 at its pivot, 0 at
    the other pivots), then the rows past the pivots, 0 in the first ncols columns."""
    mat = [[a % q for a in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = piv = len(pivots)
        while piv < len(mat) and not mat[piv][c]:
            piv += 1
        if piv == len(mat):
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, q)
        mat[r] = prow = [a * inv % q for a in mat[r]]
        for rr, row in enumerate(mat):
            if rr != r and (f := row[c]):
                mat[rr] = [(a - f * b) % q for a, b in zip(row, prow)]
        pivots.append(c)
    return mat, pivots


def _node(surface, pt: PadicApproxPoint):
    """One reading of a residue node: (cert, lifts).

    Checks that the pinned coordinate is a unit and that both residuals vanish
    mod q^k, from one reading of the equations and the 2x5 Jacobian.  cert is
    the first 2x2 Jacobian minor, in the order of _MINOR_PAIRS, of least
    valuation e below k, when 2e+1 <= k (the residuals already vanish mod
    q^k >= q^(2e+1)), else None.  lifts() builds the digit system
    J t = -F/q^k mod q from the same values and returns (n, child, dead): pt
    has n lifts mod q^(k+1), child(i) is the i-th of them, the index read in
    base q as the free digits, the last free digit varying fastest, carrying
    pt's minor and e as its certificate when 2e <= k (below), and dead(i)
    says, without building or reading that lift, whether it is dead and
    uncertified; n is 0 when pt itself is dead (its digit system mod q is
    inconsistent).

    Dead lifts.  Let x = pt and c = x + q^k t a lift (t_pinned = 0).  Both
    forms are quadratic and J is their gradient, so
    F(c) = F(x) + q^k J(x) t + q^(2k) F(t), that is
    F(c)/q^(k+1) = (F(x)/q^k + J(x) t)/q + q^(k-1) F(t), and J(c) = J(x) + q^k J(t)
    is J(x) mod q.  So c's digit system has x's matrix mod q, and c is dead
    exactly when lam . F(c)/q^(k+1) is nonzero mod q for some lam in the left
    kernel of that matrix mod q (a system is consistent iff every left-kernel
    vector kills its right-hand side).  For a lift of lam with lam J(x) = 0
    mod q on the free columns, lam (F(x)/q^k + J(x) t) is 0 mod q, so modulo
    q that test is one dot product, a/q + (w/q) . t + [k = 1] lam . F(t), with
    a = lam F(x)/q^k and w = lam J(x) taken mod q^2; the pivot digits of t,
    affine in its free digits, are folded into a and w.  The kernel comes
    from the elimination that solves the system; a full-rank matrix has none,
    and then no lift is dead.

    Certified lifts.  Every 2x2 minor of J(c) is the same minor of J(x) plus a
    multiple of q^k.  So a minor of valuation e < k at x keeps it at every
    lift, and one that is 0 mod q^k at x stays so.  Hence, if x's least
    valuation below k is e, with 2e <= k, every lift of x is certified at
    level k + 1 >= 2e + 1, whether or not it is dead: a dead certified lift
    still carries a Q_q point nearby (Hensel moves the coordinates), so it
    is a valid point, and dead(i) is then False for every i.  That happens
    when x is certified itself, or when k is even and e = k/2.  Otherwise no
    lift is certified (e >= (k + 1)/2, or every minor is 0 mod q^k), and a
    dead lift, read, would give no certificate and no lifts.  The certificate
    itself is inherited too: with 2e <= k and k >= 1, e < k, so at a lift c,
    read at level k + 1, the minors of valuation below k are x's, with the
    same valuations, and every other one is still 0 mod q^k, of valuation at
    least k > e.  So c's least valuation is e, reached by the same minors,
    and c's reading takes the same first one: c's certificate is x's, minor
    and e, and child(i) carries it, so that a walk need not read c.  And a
    read lift is never certified: a minor of valuation e' with 2e' <= k at c
    has the same valuation e' < k at x, so x has 2e <= k.
    """
    q, k = pt.q, pt.k
    qk = q ** k
    if pt.coords[pt.pinned] % q == 0:
        raise ValueError("pinned coordinate is not a unit")
    (f1, f2), (j1, j2) = surface.equations_and_jacobian(pt.coords)
    if f1 % qk or f2 % qk:
        raise ValueError(f"point does not satisfy the equations mod {q}^{k}")
    e, cols = k, None  # the least valuation below k, and the first minor that has it
    for a, b in _MINOR_PAIRS:
        minor = (j1[a] * j2[b] - j1[b] * j2[a]) % qk
        if minor and (v := valuation(minor, q)) < e:  # a zero minor has valuation at least k
            e, cols = v, (a, b)
            if v == 0:
                break
    inherited = LiftCertificate(cols, e) if 2 * e <= k else None  # every lift's certificate
    cert = inherited if 2 * e < k else None

    def lifts():
        free_idx = [idx for idx in range(5) if idx != pt.pinned]
        # the 2x4 digit system; columns 5 and 6 carry each row's combination of
        # the two equations, so the rows past the pivots give the left kernel
        mat, pivots = _rref_mod([[j1[idx] for idx in free_idx] + [-(f1 // qk), 1, 0],
                                 [j2[idx] for idx in free_idx] + [-(f2 // qk), 0, 1]], q, 4)
        if any(row[4] for row in mat[len(pivots):]):  # inconsistent: pt is dead
            return 0, None, None
        kernel = [row[5:] for row in mat[len(pivots):]]
        free = [c for c in range(4) if c not in pivots]

        def digits(i: int) -> list[int]:
            t = [0, 0, 0, 0]
            for c in reversed(free):
                i, t[c] = divmod(i, q)
            for row, pc in zip(mat, pivots):
                t[pc] = (row[4] - sum(row[c] * t[c] for c in free)) % q
            return t

        def child(i: int) -> PadicApproxPoint:
            coords = list(pt.coords)
            for idx, d in zip(free_idx, digits(i)):
                coords[idx] += qk * d
            return PadicApproxPoint(q, k + 1, tuple(coords), pt.pinned, inherited)

        if not kernel or inherited is not None:
            return q ** len(free), child, _never
        q2 = q * q
        tests = []  # per kernel vector lam: lam, and a/q + (w/q) . t folded onto the free digits
        for l1, l2 in kernel:
            a = (l1 * (f1 // qk) + l2 * (f2 // qk)) % q2 // q
            w = [(l1 * j1[idx] + l2 * j2[idx]) % q2 // q for idx in free_idx]
            for row, pc in zip(mat, pivots):  # t[pc] = row[4] - sum of row[c] t[c] over free c
                a += w[pc] * row[4]
                w = [wc - w[pc] * rc for wc, rc in zip(w, row)]
            tests.append((l1, l2, a, [w[c] for c in reversed(free)]))

        def dead(i: int) -> bool:
            g1 = g2 = 0
            if k == 1:  # the F(t) term
                full = [0] * 5
                for idx, d in zip(free_idx, digits(i)):
                    full[idx] = d
                g1, g2 = surface.equations(full)
            for l1, l2, a, coefs in tests:
                j = i
                for c in coefs:
                    j, d = divmod(j, q)
                    a += c * d
                if (a + l1 * g1 + l2 * g2) % q:
                    return True
            return False

        return q ** len(free), child, dead

    return cert, lifts


def _never(i: int) -> bool:
    return False


def lift_certificate(surface, pt: PadicApproxPoint) -> LiftCertificate | None:
    """Certificate that pt lifts to a Q_q point, or None if precision is too low.

    The certificate half of one node reading (``_node``): a 2x2 Jacobian minor
    of valuation e with 2e+1 <= k.  ValueError if pt is not a solution mod q^k.
    """
    return _node(surface, pt)[0]


def expand_children(surface, pt: PadicApproxPoint):
    """All normalized solutions mod q^(k+1) over pt, lazily, in order: the lifts half of ``_node``."""
    n, child, _ = _node(surface, pt)[1]()
    yield from map(child, range(n))


def _shuffled_indices(n: int, rng: random.Random):
    """range(n) in seeded random order, drawn lazily.

    A sparse Fisher-Yates shuffle: only the displaced values of positions not
    yet drawn are stored, so memory grows with the indices drawn, not with n,
    and shrinks again as the last positions are drawn.  Position i swaps with
    j = i + r, r drawn below n - i as CPython's ``rng.randrange(i, n)`` draws
    it: ``getrandbits`` of the width's bit length until one falls below the
    width.  So the rng stream, and every index, is ``randrange``'s, without
    its per-call argument checks.
    """
    getrandbits = rng.getrandbits
    swapped: dict[int, int] = {}
    for i in range(n):
        width = n - i
        bits = width.bit_length()
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        j = i + r
        yield swapped.get(j, j)
        swapped[j] = swapped.pop(i, i)


def _read_lifts(surface, pt: PadicApproxPoint):
    """A lift's (n, child, dead) from its reading; a read lift is never certified (``_node``), so one that is raises."""
    cert, build = _node(surface, pt)
    if cert is not None:
        raise AssertionError(f"a read lift is certified: {pt.coords} mod {pt.q}^{pt.k}")
    return build()


def _walk(read, k: int, lifts, order, cap: int, spend):
    """Yield the certified lifts below a level-k node, depth first.

    lifts is the node's (n, child, dead) (``_node``), drawn one index at a
    time in the order order(n), so memory stays bounded where a singular node
    has q^4 lifts.  spend(k + 1) runs first for each index drawn: it counts
    the lift, and may raise to end the walk or return True to end this
    node's, its parent then drawing its next index.  By ``_node``'s lemmas, a
    lift its parent shows dead and uncertified is skipped unbuilt and unread
    (it has no certificate and no lifts), and one that carries its parent's
    certificate is yielded unread and not walked below.  An uncertified lift
    below level cap is walked, its lifts given by read(lift) (``_read_lifts``,
    or the sampler's per-call cache of it); one at the cap ends its branch unread.
    """
    n, child, dead = lifts
    for i in order(n):
        if spend(k + 1):
            return
        if dead(i):
            continue
        pt = child(i)
        if pt.cert is not None:
            yield pt
        elif pt.k < cap:
            yield from _walk(read, pt.k, read(pt), order, cap, spend)


# ---------------------------------------------------------------------------
# solubility decisions


@dataclass(frozen=True)
class SolubilityVerdict:
    place_q: int  # prime q, or 0 for the real place
    status: str  # "soluble" | "insoluble" | "inconclusive"
    witness: PadicApproxPoint | str | None = None  # a real-place witness is its string
    level: int | None = None
    method: str = ""

    @property
    def soluble(self) -> bool:
        return self.status == "soluble"

    def to_json(self):
        out = {"place": "oo" if self.place_q == 0 else str(self.place_q), "status": self.status}
        if isinstance(self.witness, str):
            out["witness"] = self.witness
        elif self.witness is not None:
            out["witness"] = self.witness.to_json()
            if self.witness.cert is not None:
                out["certificate"] = self.witness.cert.to_json()
        if self.level is not None:
            out["level"] = self.level
        if self.method:
            out["method"] = self.method
        return out


def decide_Qq(surface, q: int, budget: int = DEFAULT_EXPANSION_BUDGET) -> SolubilityVerdict:
    """Solubility at q: an exhaustive walk within the budget, certificates beyond it.

    Within the exhaustive enumeration budget (``iter_residue_points``): each
    level-1 point in the fixed exhaustive order is read once (``_node``); a
    certified one proves solubility, and below an uncertified one ``_walk``
    takes the lifts in the fixed order, down to LEVEL_CAP.  The first
    certified lift it yields proves solubility.  If every branch dies before
    some level, that level is empty and the surface is insoluble at q (a Q_q
    point would reduce to every level).  A branch cut at LEVEL_CAP, or a
    walk past ``budget`` lifts, is inconclusive, never insoluble; a later
    branch can still prove solubility.

    Beyond it: up to CERTIFICATE_DRAWS level-1 draws, seeded from (q, surface)
    as the sampler is; a smooth F_q point (e = 0) proves solubility.  No draw
    is descended below (a singular point can have q^4 lifts), and spent draws
    give "inconclusive", never "insoluble".
    """
    if q > _enumeration_budget(surface):
        draws = _level1_draws(surface, q, random.Random(f"{q}:{surface!r}"))
        for pt in itertools.islice(draws, CERTIFICATE_DRAWS):
            cert = None if pt is None else _node(surface, pt)[0]
            if cert is not None:
                return SolubilityVerdict(q, "soluble", replace(pt, cert=cert), level=1, method="hensel")
        return SolubilityVerdict(q, "inconclusive", level=1, method="certificate draws exhausted")
    expansions = deepest = 0  # deepest: the level of the deepest uncertified node, read or dead

    def spend(level: int) -> None:
        nonlocal expansions, deepest
        expansions += 1
        if expansions > budget:
            raise _BudgetExhausted
        deepest = max(deepest, level)  # a certified lift ends the walk: deepest is then unused

    read = functools.partial(_read_lifts, surface)  # a plain reader: the fixed order walks each node once
    try:
        for pt in iter_residue_points(surface, q):
            cert, lifts = _node(surface, pt)
            if cert is not None:
                return SolubilityVerdict(q, "soluble", replace(pt, cert=cert), level=1, method="hensel")
            deepest = max(deepest, 1)
            for found in _walk(read, 1, lifts(), range, LEVEL_CAP, spend) if LEVEL_CAP > 1 else ():
                return SolubilityVerdict(q, "soluble", found, level=found.k, method="hensel")
    except _BudgetExhausted:
        return SolubilityVerdict(q, "inconclusive", level=deepest,
                                 method="expansion budget exhausted")
    if deepest >= LEVEL_CAP:  # some branch met the cap uncertified
        return SolubilityVerdict(q, "inconclusive", level=LEVEL_CAP, method="level budget exhausted")
    return SolubilityVerdict(q, "insoluble", level=deepest + 1, method="empty residue level")


class _BudgetExhausted(Exception):
    pass


def decide_R(surface) -> SolubilityVerdict:
    """Real solubility, decided exactly.

    A subfamily surface has the real point (0 : 0 : 1 : sqrt(p) : sqrt(p)), as p > 0.
    For a general pencil: two real quadratic forms in n >= 3 variables have
    a common nontrivial real zero iff no real member of their pencil is
    definite (Finsler; E. Calabi, "Linear systems of real quadratic forms",
    Proc. AMS 15 (1964)).  A member's signature is constant on every arc of
    P^1(R) between the real roots of the pencil quintic, so Sylvester's
    criterion on one member per arc decides.

    The diagonal decides first.  Lemma: if the pairs w_i = (M1_ii, M2_ii) do
    not all lie in one open half-plane through 0, no member is definite.
    Proof: a definite member r M1 + t M2 takes the value r M1_ii + t M2_ii =
    <(r, t), w_i> at e_i, nonzero and of one sign for every i; (r : t) and
    (-r : -t) are the same member, so some (r, t) has <(r, t), w_i> > 0 for
    every i, and the w_i lie in the open half-plane it bounds.  (A pair
    w_i = (0, 0) makes e_i a common real zero.)  They do so iff some w_j sees
    every w_i at an angle in [0, pi) counterclockwise from it: the cross
    product w_j x w_i is positive, or zero with a positive dot product.
    """
    if isinstance(surface, SubfamilySurface):
        return SolubilityVerdict(0, "soluble", witness="(0:0:1:sqrt(p):sqrt(p))",
                                 method="theorem: real witness")
    ws = [(surface.mat1[i][i], surface.mat2[i][i]) for i in range(5)]
    if any(all(a * d > b * c or (a * d == b * c and a * c + b * d > 0) for c, d in ws) for a, b in ws):
        for r, t in _points_on_every_arc(surface.quintic):
            if definite_sign(surface.member(r, t)):
                return SolubilityVerdict(0, "insoluble", witness=f"({r}:{t})",
                                         method="definite pencil member")
    return SolubilityVerdict(0, "soluble", method="theorem: no definite pencil member (Finsler-Calabi)")


def _points_on_every_arc(quintic: list[int]) -> list[tuple[int, int]]:
    """Points (r : t), t > 0, at least one on every arc of P^1(R) between roots.

    The affine roots are those of f(x) = quintic(x, 1); leading zeros stand
    for the root (1 : 0).  The Sturm chain of f counts its distinct roots in
    an interval; bisecting the Cauchy interval (-B, B) until each piece holds
    at most one, -B, the cut points and B meet every arc; of each run of
    them with the same sign count (the same arc) only the first is kept, so
    the list holds one point per arc of the real line.  The chain has
    integer coefficients: each reduction step is scaled by |lc(b)| and each
    negated remainder is divided by its content, positive factors that keep
    every sign.  A zero quintic makes every member singular, so none is listed.
    A point n / 2^k is held as (n, k): binary_form_eval(g, n, 2^k) has the
    sign of g there, and only the points returned are reduced.
    """
    f = list(itertools.dropwhile(lambda c: c == 0, quintic))
    if not f:
        return []
    chain = [f, [(len(f) - 1 - i) * c for i, c in enumerate(f[:-1])]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        while len(a) >= len(b):  # a mod b, times a power of |lc(b)|
            a = [abs(b[0]) * x - (a[0] if b[0] > 0 else -a[0]) * y
                 for x, y in zip(a[1:], b[1:] + [0] * len(a))]
        rem = [-c for c in itertools.dropwhile(lambda c: c == 0, a)]
        if not rem:
            break
        content = math.gcd(*rem)
        chain.append([c // content for c in rem])

    def counted(n: int, k: int) -> tuple[int, int, int]:
        """n / 2^k with the sign changes of the chain there, computed once per point."""
        signs = [v > 0 for v in (binary_form_eval(g, n, 1 << k) for g in chain) if v]
        return n, k, sum(a != b for a, b in zip(signs, signs[1:]))

    bound = 1 << (max(abs(c) for c in f) // abs(f[0]) + 1).bit_length()
    points = [counted(-bound, 0), counted(bound, 0)]
    pieces = [tuple(points)]
    while pieces:
        (a, ka, va), (b, kb, vb) = pieces.pop()
        if va - vb > 1:
            k = max(ka, kb) + 1
            m = (a << (k - 1 - ka)) + (b << (k - 1 - kb))  # (a + b) / 2
            while binary_form_eval(f, m, 1 << k) == 0:
                m, k = (a << (k - ka)) + m, k + 1  # (a + m) / 2; a is no root, so this ends
            points.append(counted(m, k))
            pieces += [((a, ka, va), points[-1]), (points[-1], (b, kb, vb))]
    # no root lies between sorted neighbours with equal counts: one point per run
    top = max(k for _, k, _ in points)
    points.sort(key=lambda point: point[0] << (top - point[1]))
    out = []
    for i, (n, k, v) in enumerate(points):
        if i == 0 or v != points[i - 1][2]:
            z = min(k, (n & -n).bit_length() - 1) if n else k
            out.append((n >> z, 1 << (k - z)))
    return out


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
    divisors of N at which p is a non-residue.  Those arguments assume
    (C1)/(C2): any other surface is a ValueError.
    """
    validate_subfamily(s)
    p = s.p
    rows: list[tuple[str, SolubilityVerdict | None, str]] = []
    rows.append(("oo", decide_R(s), ""))
    rows.append(("v with p square in Q_v", None, "theorem: witness (0:0:1:sqrt(p):sqrt(p))"))
    rows.append((f"v not in {{2,{p}}}, p nonsquare at v, v ndiv {s.N}", None,
                 "theorem: four-case residue argument"))
    explicit = []
    for q in [2, p] + sorted({f for f in _kept(s, ("factor", abs(s.N)), factor, abs(s.N)) if f % 2} - {p}):
        if not _prime_is_square_at(p, q):
            explicit.append(q)
        else:
            rows.append((str(q), None, "theorem: p = 1 mod 8, sqrt(p) in Q_2" if q == 2
                         else "theorem: p is a square mod q, sqrt(p) witness"))
    for q in explicit:
        rows.append((str(q), decide_Qq(s, q), ""))
    return LocalSolubilityReport(tuple(rows), tuple(explicit), s)


def _kernel_mod(rows, q: int) -> list[list[int]]:
    """A basis of the x over F_q with r . x = 0 mod q for every row r, one
    vector per free column of ``_rref_mod``: 1 there, 0 at the other free columns."""
    n = len(rows[0])
    mat, pivots = _rref_mod(rows, q, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        x = [0] * n
        x[free] = 1
        for row, pc in zip(mat, pivots):
            x[pc] = -row[free] % q
        basis.append(x)
    return basis


def _double_roots(form, q: int) -> tuple[list[int], bool] | None:
    """(d, at_inf) for a binary form mod an odd prime q: d the monic product of k - r
    over its affine double roots r, at_inf whether (1 : 0) is a double root; None if
    the form is 0 mod q or has a root of multiplicity >= 3 over the algebraic closure.

    f(k) = form(k, 1), lowest coefficient first, is ``reversed(form)``; the root
    (1 : 0) has multiplicity deg form - deg f.  In every odd characteristic a
    root r of multiplicity m, f = (k - r)^m h with h(r) != 0, is a root of f'
    iff m >= 2 and of f'' iff m >= 3 (f''(r) = 2 h(r) when m = 2), so a root
    of multiplicity >= 3 is one of gcd(f, f', f''), and without one
    gcd(f, f') is the product of k - r over the double roots
    (f' = (k - r)(2 h + (k - r) h') there).
    """
    f = _poly_trim([c % q for c in reversed(form)])
    at_inf = len(form) - len(f)
    if not f or at_inf > 2:
        return None
    df = _poly_trim([i * c % q for i, c in enumerate(f)][1:])
    d = _poly_gcd(f, df, q)
    if len(d) > 1 and len(_poly_gcd(d, _poly_trim([i * c % q for i, c in enumerate(df)][1:]), q)) > 1:
        return None
    return d, at_inf == 2


def _nodal_reduction(quintic, q: int) -> str | None:
    """The reduction type at a prime q >= 11 where the quintic mod q is nonzero
    with no triple root (the theorem of ``everywhere_locally_soluble_general``), else None."""
    doubles = _double_roots(quintic, q) if q >= 11 else None
    if doubles is None:
        return None
    n = len(doubles[0]) - 1 + doubles[1]
    return f"theorem: nodal reduction, the quintic mod q has {n} double root{'s' if n > 1 else ''} and no triple root"


def _cone_reduction(hessians, f_cf, q: int) -> str | None:
    """The reduction type at an odd prime q where f_cf = 0 mod q and the
    reduction is a cone over a curve with a smooth F_q point (the theorem of
    ``everywhere_locally_soluble_general``), else None."""
    kernel = _kernel_mod([row for h in hessians for row in h], q)
    if len(kernel) != 1:
        return None
    w = [(i, x) for i, x in enumerate(kernel[0]) if x]
    wgw = [sum(x * y * h[i][j] for i, x in w for j, y in w) for h in hessians]
    if any(v % q for v in wgw):
        raise AssertionError(f"{kernel[0]} is no common kernel vector mod {q}")
    lin = _poly_trim([wgw[1] // q % q, wgw[0] // q % q])  # L(k, 1), L = w.(k G1 + l G2) w / q mod q
    if not lin:
        return None
    quo, rest = _poly_divmod([c // q for c in reversed(f_cf)], lin, q)
    if rest or any(quo[5:]):
        raise AssertionError(f"f_cf / q is not L times a binary quartic mod {q}")
    doubles = _double_roots(quo[4::-1], q)  # g up to a unit, k^4 first
    if doubles is None or len(doubles[0]) - 1 + doubles[1] > 1:  # a triple root, or two double roots
        return None
    d, at_inf = doubles
    if len(d) == 1 and not at_inf:
        return "theorem: cone over a smooth genus-one curve (Hasse-Weil)"
    r, t = (1, 0) if at_inf else (-d[0], 1)
    member = [[(r * a + t * b) % q for a, b in zip(ra, rb)] for ra, rb in zip(*hessians)]
    corank = len(_kernel_mod(member, q)) - 1  # on {x_i = 0}: w is in the member's kernel
    if corank == 1:
        return "theorem: cone over a one-node quartic curve, Segre type [211]"
    minor = next((m for a, b in itertools.combinations(range(5), 2)
                  if (m := member[a][a] * member[b][b] - member[a][b] ** 2) % q), 0)
    if corank == 2 and _legendre_unchecked(-minor, q) == 1:
        return "theorem: cone over two F_q-conics, Segre type [(11)11]"
    return None


def everywhere_locally_soluble_general(g: GeneralSurface) -> LocalSolubilityReport:
    """Local solubility of a general pencil at every place.

    The walks read the content-free forms F_j = x.G_j x / 2, G_j =
    ``g.hessians[j]`` = 2 M_j / c_j, whose quintic is
    f_cf(k, l) = det(k G1 + l G2) = f(2k/c1, 2l/c2); so
    Disc(f_cf) = (4/(c1 c2))^20 Disc(f), Disc(f) = +-res/5^3, with no new
    determinant.  The candidates are 2, 3, 5 and the primes of Disc(f_cf),
    and every test below reads G_j and f_cf: no row depends on a quadric's
    content.  At an odd candidate q whose reduction type is one below, X, the
    reduction of the F_j mod q, has a smooth F_q point; Hensel lifts it (a
    2x2 Jacobian minor is a unit, e = 0), and the row is "soluble" by
    theorem, naming the type.  Every other candidate, and q = 2 always, goes
    to ``decide_Qq``.

    Singular points.  At a singular point y of the base locus of a pencil of
    quadrics (q odd), l1 G1 y + l2 G2 y = 0 for a root (l1 : l2) of its
    determinant, and the root is repeated: with M = l1 G1 + l2 G2 and N
    another member, d/dt det(M + t N) at t = 0 is tr(adj(M) N), that is
    c y.N y = 2 c N(y) = 0 if M has corank 1 (adj(M) = c y y^T), and 0 if
    more (adj(M) = 0).

    Good reduction: Disc(f_cf) != 0 mod q, at every odd prime that is no
    candidate and maybe at 3 and 5.  f_cf mod q is squarefree of degree 5, so
    X is smooth, and two forms of degree 2 in 5 > 2 + 2 variables have a
    common nonzero zero over F_q (Chevalley-Warning; J.-P. Serre, A Course in
    Arithmetic, I.2).

    Nodal reduction, q >= 11 (``_nodal_reduction``): f_cf mod q nonzero with
    no root of multiplicity >= 3 over the algebraic closure.
    - X is geometrically integral.  A quintic nonzero mod q makes X a surface
      of degree 4; if it is reducible or non-reduced (q odd), a component of
      degree <= 2 is a plane, or an irreducible quadric surface S spanning a
      hyperplane H.  A plane lies on every member, and a quadric in P^4 that
      contains a plane is singular: the quintic is 0 mod q.  Every member
      contains H or meets it in S, so some member vanishes on H: it has rank
      <= 2, and a member of rank r is a root of multiplicity >= 5 - r >= 3.
      (J.-L. Colliot-Thelene, J.-J. Sansuc and P. Swinnerton-Dyer,
      "Intersections of two quadrics and Chatelet surfaces I", J. reine
      angew. Math. 373 (1987).)
    - For odd q the Segre symbol of the pencil classifies X over the
      algebraic closure.  The symbols whose roots all have multiplicity <= 2
      are [11111], [2111], [(11)111], [221], [(11)21] and [(11)(11)1]: X has
      at most 4 singular points, each an A1 node.
    - The minimal resolution Y of X is a weak del Pezzo surface of degree 4,
      rational with Pic of rank 6 over the algebraic closure, so
      #Y(F_q) = q^2 + t q + 1 with |t| <= 6 (Yu. I. Manin, Cubic Forms, §27):
      #Y(F_q) >= q^2 - 6q + 1.
    - Y maps isomorphically onto the smooth locus of X away from the
      exceptional curves, one conic over each node; only a node defined over
      F_q has a curve with F_q points, at most q + 1 of them.  So X has at
      least q^2 - 6q + 1 - 4(q + 1) = q^2 - 10q - 3 smooth F_q points, and
      q^2 - 10q - 3 > 0 once q >= 11.

    Cone (``_cone_reduction``): f_cf = 0 mod q, and ker G1 and ker G2 meet in
    one line <w> mod q.  Then F_j(x + s w) = F_j(x), so with w_i != 0, X is
    the cone with vertex w over the curve C in P^3 = {x_i = 0} of the forms
    with Hessians H_j, the blocks of G_j off row and column i.  At x in X off
    the vertex, y = x - (x_i / w_i) w has G_j x = G_j y, and w.G_j y = 0 makes
    entry i of G_j y a combination of the others: X's 2x5 Jacobian at x has
    the rank of C's 2x4 Jacobian at y, so a smooth F_q point of C gives one
    of X.  The quartic g = det(k H1 + l H2) comes from f_cf: with w an
    integer lift, G = k G1 + l G2 and P = I + (w - e_i) e_i^T, of determinant
    w_i, P^T G P has the block k H1 + l H2 off row and column i, those two
    divisible by q, and w.G w at (i, i); expanding the determinant,
    w_i^2 f_cf = (w.G w) g mod q^2.  So f_cf / q = L g / w_i^2 mod q, with
    L = w.G w / q mod q a linear form that no lift of w changes.  A member's
    rank on {x_i = 0} is its rank, w being in its kernel, and by the lemma
    above a singular point of C lies in the kernel of the member at a
    repeated root of g.  C has a smooth F_q point in three cases
    (``_double_roots``; Segre types as in W. V. D. Hodge and D. Pedoe,
    Methods of Algebraic Geometry II, ch. XIII, char != 2):
    1. g squarefree of degree 4: C is a smooth complete intersection, a
       connected smooth curve of genus 1 with at least
       q + 1 - 2 sqrt(q) > 0 F_q points (Hasse-Weil).
    2. one double root, its member of rank 3, the other roots simple: Segre
       type [211], C a quartic curve with one node, over F_q as the double
       root is.  Its normalization, a smooth curve of genus 0, has an F_q
       point (Chevalley-Warning), so q + 1, at most 2 of them over the node.
    3. one double root, its member M of rank 2 and split over F_q (minus a
       nonzero principal 2x2 minor of M is a square mod q), the other roots
       simple: Segre type [(11)11], C two smooth conics, one in each plane of
       M, meeting in two points.  The planes, so the conics, are over F_q,
       and each conic has q + 1 F_q points, at most 2 of them on the other.
    Every other cone is walked: a common kernel of dimension >= 2, L = 0, a
    root of g of multiplicity >= 3, two double roots, or a rank-2 member that
    does not split (insoluble cones of such types exist).
    """
    quintic, res = validate_pencil(g)
    c1, c2 = g.contents
    f_cf, rests = zip(*(divmod(32 * a, c1 ** (5 - i) * c2 ** i) for i, a in enumerate(quintic)))
    disc, rest = divmod(4 ** 20 * res, 125 * (c1 * c2) ** 20)
    if rest or any(rests):
        raise AssertionError(f"the content-free quintic of {g!r} is not integral")
    candidates = sorted({2, 3, 5, *factor(abs(disc))})
    rows: list[tuple[str, SolubilityVerdict | None, str]] = []
    rows.append(("oo", decide_R(g), ""))
    rows.append(("other odd primes", None,
                 "theorem: good reduction, a residue point exists and is smooth"))
    for q in candidates:
        method = (None if q == 2 else "theorem: good reduction, a smooth F_q point (Chevalley-Warning)" if disc % q
                  else _nodal_reduction(f_cf, q) if any(c % q for c in f_cf) else _cone_reduction(g.hessians, f_cf, q))
        verdict = decide_Qq(g, q) if method is None else SolubilityVerdict(q, "soluble", method=method)
        rows.append((str(q), verdict, ""))
    return LocalSolubilityReport(tuple(rows), tuple(candidates))


# ---------------------------------------------------------------------------
# sampling certified local points


def sample_local_points(surface, q: int, count: int, precision: int,
                        seed: int = 0) -> list[PadicApproxPoint]:
    """``count`` certified points at the given precision, distinct as residue
    tuples mod q^precision: two lifts of one node can refine to two of them
    that approximate the same Q_q point.  ``_sample_points``' list, refined."""
    return [newton_refine(surface, pt, precision) if pt.k < precision else pt
            for pt in _sample_points(surface, q, count, precision, seed)]


def _sample_points(surface, q: int, count: int, precision: int, seed: int) -> list[PadicApproxPoint]:
    """The sample of ``sample_local_points`` before its last refinement: a
    call that ends in pass 1 returns its certified level-1 points unrefined,
    so that a reader can take each at the level its certificate places it.

    Stratified: one point per level-1 residue class that is certified at once,
    the classes drawn lazily in seeded random order until ``count`` points are
    in hand, so a small request costs about the same at any q.  Only once every
    level-1 class has been drawn does pass 2 walk below them (``_walk``, the
    lifts in seeded random order, down to max(precision, LEVEL_CAP)), keeping
    each certified lift, refined, that is a new point.  Up to three
    round-robin rounds over the uncertified classes give each a share of the
    points still wanted, a walk ending once its share is in hand; one
    uncapped sweep then walks the uncertified classes and the certified ones,
    whose lifts are all certified.  Each round and the sweep walk each class
    again from its top in a fresh seeded order, which spreads the sample
    over sub-branches, while a cache kept for the call, keyed by (k, coords),
    reads each node and builds its lifts, answers each lift's dead test and
    refines each certified lift once per call (pass 1 keeps each drawn
    class's reading for it).  SAMPLING_BUDGET caps the lifts drawn in pass
    2, a repeated one included.  Beyond the exhaustive enumeration budget (see
    ``iter_residue_points``) the level-1 set is never exhausted, so pass 1
    draws at most SAMPLING_BUDGET classes there and then raises
    EnumerationBudgetError; falling short otherwise raises
    SamplingBudgetError with the points found, refined, as ``.points``.  Takes
    subfamily surfaces and general pencils.  Deterministic for a fixed seed.
    """
    if count == 0:
        return []
    budget = SAMPLING_BUDGET
    rng = random.Random(f"{seed}:{q}:{precision}:{surface!r}")
    certified, pending = [], []  # the lifts of each drawn class, from its one reading
    out: list[PadicApproxPoint] = []
    seen: set[tuple] = set()
    spent = 0

    # pass 1: one certified point per level-1 class where immediately possible, kept
    # unrefined: refinement keeps it mod q^(k - e) = q, so no two refine to one tuple
    for pt in iter_residue_points(surface, q, rng):
        if q > _enumeration_budget(surface) and len(certified) + len(pending) >= budget:
            raise EnumerationBudgetError(
                f"{budget} level-1 classes drawn at q={q} gave only {len(out)} of {count} certified points")
        cert, lifts = _node(surface, pt)
        if cert is None:
            pending.append(lifts)
        else:
            out.append(PadicApproxPoint(pt.q, pt.k, pt.coords, pt.pinned, cert))
            certified.append(lifts)
            if len(out) >= count:
                return out
    out[:] = [newton_refine(surface, pt, precision) for pt in out]
    seen.update(pt.coords for pt in out)
    # pass 2: walk below the level-1 classes, first round-robin with a share
    # each, so that no single branch swallows the request (stratification),
    # then greedily from whatever is productive
    max_depth = max(precision, LEVEL_CAP)
    cache: dict[tuple, object] = {}  # (k, coords): a read lift's lifts, or a certified lift's refinement

    def tested_once(lifts):  # (n, child, dead), each index's dead test answered once per call
        n, child, dead, answers = *lifts, {}
        return n, child, lambda i: answers[i] if i in answers else answers.setdefault(i, dead(i))

    def read(pt: PadicApproxPoint):  # each lift read by ``_node``, and its lifts built, once per call
        key = (pt.k, pt.coords)
        return cache[key] if key in cache else cache.setdefault(key, tested_once(_read_lifts(surface, pt)))

    pending = [tested_once(lifts()) for lifts in pending]  # built once for every walk

    def walk(lifts, cap: int) -> None:  # the new points below a class, until cap are in hand
        def spend(level: int) -> bool:
            nonlocal spent
            spent += 1
            if spent > budget:
                raise SamplingBudgetError(
                    f"sampling budget exhausted with {len(out)}/{count} points at q={q}", out)
            return len(out) >= cap

        for pt in _walk(read, 1, lifts, lambda n: _shuffled_indices(n, rng), max_depth, spend):
            if (key := (pt.k, pt.coords)) not in cache:  # one met again was refined, and kept or dropped, before
                cache[key] = refined = newton_refine(surface, pt, precision)
                if refined.coords not in seen:
                    seen.add(refined.coords)
                    out.append(refined)

    for _ in range(3):
        if len(out) >= count or not pending:
            break
        before = len(out)
        share = max(1, (count - len(out) + len(pending) - 1) // len(pending))
        for lifts in pending:
            if len(out) >= count:
                break
            walk(lifts, min(count, len(out) + share))
        if len(out) == before:
            break
    # uncapped fill: one sweep explores each subtree fully, the certified classes' built as reached
    for lifts in itertools.chain(pending, (build() for build in certified)):
        if len(out) >= count:
            break
        walk(lifts, count)
    if len(out) < count:
        raise SamplingBudgetError(f"only found {len(out)} of {count} requested points at q={q}", out)
    return out[:count]
