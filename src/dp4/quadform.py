"""Surface representations and structural checks.

Three shapes of input are supported:

* ``SubfamilySurface``: y^2 - p x^2 = M u v ; z^2 - p x^2 = (Au+Bv)(Cu+Dv),
  for an odd prime p, with the integrality conditions (C1)/(C2) below.
* ``NormalFormSurface``: d0 y^2 - eps x^2 = a0 u^2 + 2 b0 uv + c0 v^2 and
  d1 z^2 - eps x^2 = a1 u^2 + 2 b1 uv + c1 v^2.
* ``GeneralSurface``: an arbitrary pencil given by two symmetric 5x5 integer
  matrices on coordinates (u, v, x, y, z).

All linear algebra is fraction-free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, gcd

from .arith import SquareClass, divisors, is_perfect_square, is_prime, isqrt, square_class

Point = tuple[int, int, int, int, int]
Matrix = tuple[tuple[int, ...], ...]


def _kept(owner, key, make, *args):
    """owner.memo[key], from make(*args) on its first use: the one store of what a surface instance
    derives, outside its fields (``repr``, ``==``, ``hash``).  An exception from make is not kept."""
    memo = owner.memo
    if key not in memo:
        memo[key] = make(*args)
    return memo[key]


# ---------------------------------------------------------------------------
# projective integer points


def normalize_point(t) -> Point:
    """Primitive representative with the first nonzero coordinate positive."""
    t = tuple(int(c) for c in t)
    if not any(t):
        raise ValueError("zero tuple is not projective")
    g = gcd(*t)
    t = tuple(c // g for c in t)
    for c in t:
        if c:
            return t if c > 0 else tuple(-x for x in t)
    raise AssertionError


def sign_normalize_point(t) -> Point:
    """Canonical representative under (u:v:x:y:z) ~ (u:v:+-x:+-y:+-z).

    Scales to a primitive tuple with the leading nonzero of (u, v) positive,
    then drops the signs of x, y, z.
    """
    t = normalize_point(t)
    u, v, x, y, z = t
    if u < 0 or (u == 0 and v < 0):
        u, v, x, y, z = -u, -v, -x, -y, -z
    return (u, v, abs(x), abs(y), abs(z))


def points_sign_equivalent(a, b) -> bool:
    return sign_normalize_point(a) == sign_normalize_point(b)


# ---------------------------------------------------------------------------
# exact linear algebra on small integer matrices


def _bareiss(m: Matrix) -> tuple[int, int]:
    """Fraction-free elimination (E. H. Bareiss, Math. Comp. 22 (1968)): the rank and the
    signed last pivot, which is the determinant of a square matrix of full rank.

    After r pivots each entry below them is the (r+1)-minor on the pivot rows
    and columns and its own, so the division by the previous pivot is exact;
    a column with no pivot left is skipped.
    """
    a = [list(row) for row in m]
    n = len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for col in range(n):
        if rank == len(a):
            break
        swap = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if swap is None:
            continue
        if swap != rank:
            a[rank], a[swap] = a[swap], a[rank]
            sign = -sign
        pr = a[rank]
        for row in a[rank + 1:]:
            for j in range(col + 1, n):
                row[j] = (row[j] * pr[col] - row[col] * pr[j]) // prev
            row[col] = 0
        prev = pr[col]
        rank += 1
    return rank, sign * prev


def definite_sign(m: Matrix) -> int:
    """1 if the symmetric integer matrix m is positive definite, -1 if negative definite, else 0.

    Sylvester's criterion: with d_k the k-th leading principal minor and s the
    sign of d_1, m is definite iff d_k s^k > 0 for every k.
    """
    s = (m[0][0] > 0) - (m[0][0] < 0)
    ok = all(mat_det(tuple(row[:k] for row in m[:k])) * s ** k > 0 for k in range(1, len(m) + 1))
    return s if ok else 0


def mat_rank(m: Matrix) -> int:
    return _bareiss(m)[0]


def mat_det(m: Matrix) -> int:
    """The determinant of a square integer matrix, by ``_bareiss``."""
    rank, last = _bareiss(m)
    return last if rank == len(m) else 0


# ---------------------------------------------------------------------------
# the subfamily shape


@dataclass(frozen=True)
class SubfamilySurface:
    """y^2 - p x^2 = M u v ; z^2 - p x^2 = (Au+Bv)(Cu+Dv) with p an odd prime.

    (C1): (AD+BC-M)^2 - 4ABCD = p N^2 for an integer N, and
    (C2): N M (AD-BC) != 0.

    N is derived from the coefficients, never trusted from input.  What every layer
    derives from s alone is kept in its ``memo`` (``_kept``).
    """

    p: int
    A: int
    B: int
    C: int
    D: int
    M: int

    def c1_value(self) -> int:
        return (self.A * self.D + self.B * self.C - self.M) ** 2 - 4 * self.A * self.B * self.C * self.D

    def derived_N(self) -> int | None:
        val = self.c1_value()
        if val <= 0 or val % self.p:
            return None
        quot = val // self.p
        return isqrt(quot) if is_perfect_square(quot) else None

    def __post_init__(self):
        object.__setattr__(self, "memo", {})

    @property
    def N(self) -> int:
        n = _kept(self, "N", self.derived_N)
        if n is None:
            raise ValueError("surface violates (C1); N undefined")
        return n

    def eq1(self, pt) -> int:
        return self.equations(pt)[0]

    def eq2(self, pt) -> int:
        return self.equations(pt)[1]

    def equations(self, pt) -> tuple[int, int]:
        """(eq1, eq2) at pt, with p x^2 computed once."""
        u, v, x, y, z = pt
        px2 = self.p * x * x
        return y * y - px2 - self.M * u * v, z * z - px2 - (self.A * u + self.B * v) * (self.C * u + self.D * v)

    def jacobian(self, pt) -> tuple[tuple[int, ...], tuple[int, ...]]:
        u, v, x, y, z = pt
        A, B, C, D, M, p = self.A, self.B, self.C, self.D, self.M, self.p
        row1 = (-M * v, -M * u, -2 * p * x, 2 * y, 0)
        row2 = (-(2 * A * C * u + (A * D + B * C) * v),
                -((A * D + B * C) * u + 2 * B * D * v),
                -2 * p * x, 0, 2 * z)
        return (row1, row2)

    def equations_and_jacobian(self, pt):
        return self.equations(pt), self.jacobian(pt)

    def contains(self, pt) -> bool:
        return self.equations(pt) == (0, 0)

    def label(self) -> str:
        return f"X_{self.p}_{self.A}_{self.B}_{self.C}_{self.D}_{self.M}"


@dataclass(frozen=True)
class SubfamilyReport:
    c1_holds: bool
    c2_holds: bool
    c1_value: int
    derived_N: int | None
    p_prime: bool | None  # None: not tested, as (C1) or (C2) fails

    @property
    def valid(self) -> bool:
        return self.c1_holds and self.c2_holds and self.p_prime


def check_subfamily(s: SubfamilySurface) -> SubfamilyReport:
    """Evaluate (C1) and (C2), reporting the witness value and derived N, once per instance,
    and p prime only where both hold; an exception, such as is_prime's beyond its bound, is not kept."""
    def report():
        n = _kept(s, "N", s.derived_N)
        c2 = n is not None and n != 0 and s.M != 0 and (s.A * s.D - s.B * s.C) != 0
        return SubfamilyReport(c1_holds=n is not None, c2_holds=c2, c1_value=s.c1_value(), derived_N=n,
                               p_prime=s.p % 2 == 1 and _kept(s, ("prime", s.p), is_prime, s.p) if c2 else None)
    return _kept(s, "report", report)


def validate_subfamily(s: SubfamilySurface) -> SubfamilySurface:
    """s, or a ValueError naming the first condition that fails."""
    rep = check_subfamily(s)
    if not rep.valid:
        failed = "p is not an odd prime" if rep.c2_holds else "(C2) fails" if rep.c1_holds else "(C1) fails"
        raise ValueError(f"invalid subfamily surface {s.label()}: {failed}")
    return s


def _nonzero_quintic(g: GeneralSurface) -> tuple[int, ...]:
    """The pencil quintic; ValueError if it vanishes identically (every member singular)."""
    if not any(g.quintic):
        raise ValueError("pencil discriminant vanishes identically; not a del Pezzo pencil")
    return g.quintic


def validate_pencil(g: GeneralSurface) -> tuple[tuple[int, ...], int]:
    """The pencil quintic and the resultant of its partials (+-5^3 Disc); ValueError
    unless the quintic is squarefree (nonzero, no repeated root): else the surface is singular."""
    quintic = _nonzero_quintic(g)
    if g.partials_resultant == 0:
        raise ValueError("pencil quintic is not squarefree; the surface is singular")
    return quintic, g.partials_resultant


# ---------------------------------------------------------------------------
# the normal form


@dataclass(frozen=True)
class NormalFormSurface:
    """d0 y^2 - eps x^2 = q0(u,v) and d1 z^2 - eps x^2 = q1(u,v).

    Here qi = ai u^2 + 2 bi uv + ci v^2 and the structural conditions are:
    (1) eps is not a rational square; (2) di = bi^2 - ai*ci; (3) eps*d0*d1*d2
    is a nonzero square for d2 = (b1-b0)^2 - (a1-a0)(c1-c0); (4) q0 and q1
    share no projective root.
    """

    eps: int
    a0: int
    b0: int
    c0: int
    a1: int
    b1: int
    c1: int
    d0: int
    d1: int

    def d2(self) -> int:
        return (self.b1 - self.b0) ** 2 - (self.a1 - self.a0) * (self.c1 - self.c0)

    def eq1(self, pt) -> int:
        u, v, x, y, z = pt
        return self.d0 * y * y - self.eps * x * x - (self.a0 * u * u + 2 * self.b0 * u * v + self.c0 * v * v)

    def eq2(self, pt) -> int:
        u, v, x, y, z = pt
        return self.d1 * z * z - self.eps * x * x - (self.a1 * u * u + 2 * self.b1 * u * v + self.c1 * v * v)

    # The three distinguished pencil members, as quadratic forms.
    def member_value(self, i: int, pt) -> int:
        if i == 0:
            return -self.eq1(pt)
        if i == 1:
            return -self.eq2(pt)
        return -self.eq2(pt) + self.eq1(pt)

    def member_gradient(self, i: int, pt) -> tuple[int, ...]:
        u, v, x, y, z = pt
        if i == 0:
            return (2 * self.a0 * u + 2 * self.b0 * v, 2 * self.b0 * u + 2 * self.c0 * v,
                    2 * self.eps * x, -2 * self.d0 * y, 0)
        if i == 1:
            return (2 * self.a1 * u + 2 * self.b1 * v, 2 * self.b1 * u + 2 * self.c1 * v,
                    2 * self.eps * x, 0, -2 * self.d1 * z)
        return (2 * (self.a1 - self.a0) * u + 2 * (self.b1 - self.b0) * v,
                2 * (self.b1 - self.b0) * u + 2 * (self.c1 - self.c0) * v,
                0, 2 * self.d0 * y, -2 * self.d1 * z)


def binary_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of two binary forms given by coefficient lists (degree = len-1)."""
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    rows = []
    for i in range(m):
        rows.append([0] * i + list(f) + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + list(g) + [0] * (size - m - 1 - i))
    return mat_det(tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class NormalFormReport:
    cond1_eps_nonsquare: bool
    cond2_d_values_match: bool
    cond3_product_square: bool
    cond4_no_common_root: bool
    resultant: int

    @property
    def valid(self) -> bool:
        return (self.cond1_eps_nonsquare and self.cond2_d_values_match
                and self.cond3_product_square and self.cond4_no_common_root)


def check_normal_form(nf: NormalFormSurface) -> NormalFormReport:
    cond1 = not is_perfect_square(nf.eps)
    cond2 = (nf.d0 == nf.b0 ** 2 - nf.a0 * nf.c0) and (nf.d1 == nf.b1 ** 2 - nf.a1 * nf.c1)
    d2 = nf.d2()
    prod = nf.eps * nf.d0 * nf.d1 * d2
    cond3 = prod != 0 and is_perfect_square(prod)
    res = binary_resultant([nf.a0, 2 * nf.b0, nf.c0], [nf.a1, 2 * nf.b1, nf.c1])
    cond4 = res != 0
    return NormalFormReport(cond1, cond2, cond3, cond4, res)


def subfamily_to_normal_form(s: SubfamilySurface) -> NormalFormSurface:
    """Rewrite the subfamily shape in normal form (an integral change of scale)."""
    A, B, C, D, M = s.A, s.B, s.C, s.D, s.M
    W = A * D - B * C
    return NormalFormSurface(
        eps=s.p,
        a0=0, b0=2 * M, c0=0,
        a1=4 * A * C, b1=2 * (A * D + B * C), c1=4 * B * D,
        d0=4 * M * M, d1=4 * W * W,
    )


def subfamily_point_to_normal_form(s: SubfamilySurface, pt) -> Point:
    """Coordinate change carrying points of the subfamily shape to the normal form."""
    u, v, x, y, z = pt
    W = s.A * s.D - s.B * s.C
    return normalize_point((u * s.M * W, v * s.M * W, 2 * x * s.M * W, y * W, z * s.M))


def normal_form_point_to_subfamily(s: SubfamilySurface, pt) -> Point:
    u, v, x, y, z = pt
    W = s.A * s.D - s.B * s.C
    return normalize_point((2 * u, 2 * v, x, 2 * s.M * y, 2 * W * z))


# ---------------------------------------------------------------------------
# the general pencil shape


@dataclass(frozen=True)
class GeneralSurface:
    """Pencil of quadrics spanned by two symmetric 5x5 integer matrices.

    The matrices M_j are the fields (``repr``, ``==``, ``hash``) and the view
    that ``member``, the quintic, ``decide_R`` and ``order4_test`` read.
    Points are evaluated on the content-free forms F_j = x.M_j x / c_j, c_j
    the gcd of the M_ii and the 2 M_ij (1 for a zero matrix, ``contents``),
    through ``hessians``: G_j = 2 M_j / c_j, with F_j = x.G_j x / 2 and gradient G_j x.
    At a prime q not dividing c_j this scales the system by a unit.  These, the quintic
    and its ``partials_resultant`` are worked out on first use, once per surface (``_kept``).
    """

    mat1: Matrix
    mat2: Matrix

    def __post_init__(self):
        for m in (self.mat1, self.mat2):
            if len(m) != 5 or any(len(r) != 5 for r in m):
                raise ValueError("matrices must be 5x5")
            if any(m[i][j] != m[j][i] for i in range(5) for j in range(5)):
                raise ValueError("matrices must be symmetric")
        object.__setattr__(self, "memo", {})

    @property
    def contents(self) -> tuple[int, int]:
        return _kept(self, "contents", lambda: tuple(
            gcd(*(a if i == j else 2 * a for i, row in enumerate(m) for j, a in enumerate(row))) or 1
            for m in (self.mat1, self.mat2)))

    @property
    def hessians(self) -> tuple[Matrix, Matrix]:
        return _kept(self, "hessians", lambda: tuple(tuple(tuple(2 * a // c for a in row) for row in m)
                                                     for m, c in zip((self.mat1, self.mat2), self.contents)))

    @property
    def quintic(self) -> tuple[int, ...]:
        return _kept(self, "quintic", lambda: tuple(discriminant_quintic(self)))

    @property
    def partials_resultant(self) -> int:
        return _kept(self, "partials_resultant", lambda: quintic_partials_resultant(self.quintic))

    def member(self, r: int, t: int) -> Matrix:
        return tuple(tuple(r * a + t * b for a, b in zip(ra, rb))
                     for ra, rb in zip(self.mat1, self.mat2))

    def quad_value(self, which: int, pt) -> int:
        """F_j(x) = x . G_j x / 2, the content-free quadric j: one matrix-vector product."""
        x0, x1, x2, x3, x4 = pt
        return sum(x * (r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3 + r4 * x4)
                   for x, (r0, r1, r2, r3, r4) in zip(pt, self.hessians[which])) // 2

    def equations(self, pt) -> tuple[int, int]:
        return (self.quad_value(0, pt), self.quad_value(1, pt))

    def jacobian(self, pt):
        """The gradients G_j x, one matrix-vector product per quadric."""
        x0, x1, x2, x3, x4 = pt
        return tuple(tuple(r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3 + r4 * x4 for r0, r1, r2, r3, r4 in m)
                     for m in self.hessians)

    def equations_and_jacobian(self, pt):
        """Both residuals from the one Jacobian: F_j(x) = x . (G_j x) / 2."""
        rows = self.jacobian(pt)
        x0, x1, x2, x3, x4 = pt
        return tuple((x0 * j0 + x1 * j1 + x2 * j2 + x3 * j3 + x4 * j4) // 2 for j0, j1, j2, j3, j4 in rows), rows


def to_matrices(s: SubfamilySurface) -> GeneralSurface:
    """Symmetric matrices of the two quadrics, doubled once to clear half-integers
    (content 2: the content-free forms walked are eq1 and eq2 themselves)."""
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    m1 = (
        (0, -M, 0, 0, 0),
        (-M, 0, 0, 0, 0),
        (0, 0, -2 * p, 0, 0),
        (0, 0, 0, 2, 0),
        (0, 0, 0, 0, 0),
    )
    m2 = (
        (-2 * A * C, -(A * D + B * C), 0, 0, 0),
        (-(A * D + B * C), -2 * B * D, 0, 0, 0),
        (0, 0, -2 * p, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 2),
    )
    return GeneralSurface(m1, m2)


# ---------------------------------------------------------------------------
# the pencil quintic and its rational degenerate members


def discriminant_quintic(g: GeneralSurface) -> list[int]:
    """Coefficients [c0..c5] of det(k*mat1 + l*mat2) as a binary quintic in (k, l).

    f(k) = det(k*mat1 + mat2) has degree at most 5 and coefficients c0..c5 from
    k^5 down to k^0.  Its values at k = 0..5 (Bareiss determinants) give the
    Newton forward differences d_j = j! a_j with integers a_j, and
    f(k) = a0 + k (a1 + (k-1) (a2 + ... (k-4) a5)) expands by Horner's rule.
    """
    diffs = [mat_det(g.member(k, 1)) for k in range(6)]
    newton = []
    for j in range(6):
        newton.append(diffs[0] // factorial(j))
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    coeffs = [newton[5]]
    for j in reversed(range(5)):  # coeffs * (k - j) + a_j
        coeffs = [a - j * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        coeffs[-1] += newton[j]
    return coeffs


def binary_form_eval(coeffs: list[int], r: int, t: int) -> int:
    """sum c_i r^(deg - i) t^i over coeffs = [c_0..c_deg], by Horner's rule in r."""
    acc, ti = 0, 1
    for c in coeffs:
        acc = acc * r + c * ti
        ti *= t
    return acc


def rational_roots_binary_form(coeffs: list[int]) -> list[tuple[int, int]]:
    """All rational projective roots (r : t) of an integer binary form.

    Normalized with gcd(r, t) = 1 and t > 0, plus (1, 0) for the root at
    infinity.  Raises on the identically zero form.
    """
    if all(c == 0 for c in coeffs):
        raise ValueError("form is identically zero")
    content = gcd(*coeffs)
    cs = [c // content for c in coeffs]
    roots: list[tuple[int, int]] = []
    lead = next(i for i, c in enumerate(cs) if c != 0)
    trail = next(i for i in reversed(range(len(cs))) if cs[i] != 0)
    if lead > 0:
        roots.append((1, 0))
    if trail < len(cs) - 1:
        roots.append((0, 1))
    middle = cs[lead:trail + 1]
    if len(middle) > 1:
        for r_abs in divisors(abs(middle[-1])):
            for t in divisors(abs(middle[0])):
                for r in (r_abs, -r_abs):
                    if gcd(r, t) == 1 and binary_form_eval(middle, r, t) == 0:
                        if (r, t) not in roots:
                            roots.append((r, t))
    return roots


def quintic_partials_resultant(quintic) -> int:
    """Res(f_k, f_l) of a binary quintic f(k, l), which is +-5^3 Disc(f): zero
    exactly when f is zero or has a repeated root (at infinity included)."""
    dk = [(5 - i) * c for i, c in enumerate(quintic[:5])]
    dl = [(i + 1) * c for i, c in enumerate(quintic[1:])]
    return binary_resultant(dk, dl)


def degenerate_members(g: GeneralSurface) -> list[tuple[tuple[int, int], int]]:
    """Rational points of the pencil where the member degenerates, with exact ranks."""
    return [(root, mat_rank(g.member(*root))) for root in rational_roots_binary_form(g.quintic)]


def epsilon_T(g: GeneralSurface, root: tuple[int, int]) -> SquareClass:
    """Square class of the member's determinant off its radical (rank 4 only)."""
    m = g.member(*root)
    if mat_rank(m) != 4:
        raise ValueError(f"member at {root} does not have rank 4")
    return _rank4_class(m)


def _rank4_class(m: Matrix) -> SquareClass:
    """``epsilon_T`` of a member m of rank 4, read on the restriction subspace:
    the lexicographically first 4 coordinates carrying a nonsingular 4x4 block."""
    for keep in itertools.combinations(range(5), 4):
        sub = tuple(tuple(m[i][j] for j in keep) for i in keep)
        d = mat_det(sub)
        if d != 0:
            return square_class(d)
    raise AssertionError("rank-4 matrix must have a nonsingular 4x4 principal block")


@dataclass(frozen=True)
class Order4Report:
    """Outcome of the order-4 criterion on a pencil of quadrics."""

    certified: bool
    eps: SquareClass | None
    certificate_points: tuple[tuple[int, int], ...]
    members: tuple[tuple[tuple[int, int], int, int | None], ...]  # (point, rank, eps class rep)
    quintic: tuple[int, ...]
    quintic_squarefree: bool  # smoothness proxy only, reported as such


def order4_test(g: GeneralSurface) -> Order4Report:
    """Certify a Brauer group of order 4 from three rational rank-4 degenerate members.

    Certified exactly when three distinct rational degenerate members have rank
    4 and share one non-square determinant class eps.
    """
    quintic = _nonzero_quintic(g)
    members = []
    by_class: dict[int, list[tuple[int, int]]] = {}
    for root, rank in degenerate_members(g):
        cls = _rank4_class(g.member(*root)).rep if rank == 4 else None
        members.append((root, rank, cls))
        if cls is not None and cls != 1:
            by_class.setdefault(cls, []).append(root)
    squarefree = g.partials_resultant != 0
    for cls, points in sorted(by_class.items()):
        if len(points) >= 3:
            return Order4Report(True, SquareClass(cls), tuple(points[:3]), tuple(members),
                                quintic, squarefree)
    return Order4Report(False, None, (), tuple(members), quintic, squarefree)


# ---------------------------------------------------------------------------
# collapsing a triple of degenerate-member points to a surface point


def collapse_triple(nf: NormalFormSurface, p0, p1, p2) -> Point:
    """Recover the common surface point behind a triple on the three members.

    Each pi must lie on the i-th distinguished member and the 3x5 gradient
    matrix must have rank 2; each point is rescaled by the left kernel vector,
    a cross product of two columns, and the shared coordinates are read off.
    The result satisfies both surface equations, with signs normalized (first
    nonzero of (x, y, z) positive).
    """
    pts = [tuple(int(c) for c in p) for p in (p0, p1, p2)]
    for i, pt in enumerate(pts):
        if nf.member_value(i, pt) != 0:
            raise ValueError(f"point {pt} does not lie on member {i}")
    rows = tuple(nf.member_gradient(i, pts[i]) for i in range(3))
    if mat_rank(rows) != 2:
        raise ValueError("gradient matrix does not have rank 2")
    for (a0, a1, a2), (b0, b1, b2) in itertools.combinations(zip(*rows), 2):
        w = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        if any(w):
            break
    else:
        raise AssertionError("a rank-2 matrix has two independent columns")
    kappa, lam, mu = (c // gcd(*w) for c in w)
    if kappa == 0 or lam == 0 or mu == 0:
        raise ValueError("degenerate triple: kernel vector has a zero coordinate")
    scaled = [tuple(kappa * c for c in pts[0]),
              tuple(-lam * c for c in pts[1]),
              tuple(mu * c for c in pts[2])]
    (u0, v0, x0, y0, _), (u1, v1, x1, _, z1), (u2, v2, _, y2, z2) = scaled
    if not (u0 == u1 == u2 and v0 == v1 == v2):
        raise ValueError("triple does not collapse: (u, v) coordinates disagree after rescaling")
    if not (x0 == x1 and y0 == y2 and z1 == z2):
        raise ValueError("triple does not collapse: paired coordinates disagree")
    out = (u0, v0, x0, y0, z1)
    if nf.eq1(out) != 0 or nf.eq2(out) != 0:
        raise ValueError("collapsed point does not satisfy the surface equations")
    out = normalize_point(out)
    for c in out[2:]:
        if c:
            if c < 0:
                out = tuple(-w for w in out)
            break
    return out
