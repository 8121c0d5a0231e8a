import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from dp4 import arith, quadform
from dp4.arith import SquareClass, square_class
from dp4.localsolve import validate_pencil
from dp4.quadform import (
    GeneralSurface,
    NormalFormSurface,
    SubfamilySurface,
    binary_form_eval,
    check_normal_form,
    check_subfamily,
    collapse_triple,
    definite_sign,
    degenerate_members,
    discriminant_quintic,
    epsilon_T,
    mat_det,
    mat_rank,
    normal_form_point_to_subfamily,
    normalize_point,
    points_sign_equivalent,
    quintic_partials_resultant,
    rational_roots_binary_form,
    sign_normalize_point,
    subfamily_point_to_normal_form,
    subfamily_to_normal_form,
    to_matrices,
    validate_subfamily,
    order4_test,
)

from helpers import box_slice

Y_13_2_6 = SubfamilySurface(13, 2, -13, 1, -6, 1)
Y_13_1_12 = SubfamilySurface(13, 1, -13, 1, -12, 1)
Y_13_12_1 = SubfamilySurface(13, 12, -13, 1, -1, 1)
S_13 = SubfamilySurface(13, 1, 1, 153, 179, 1)

BSD_M1 = ((0, -1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, -10, 0), (0, 0, 0, 0, 0))
BSD_M2 = ((-2, -3, 0, 0, 0), (-3, -4, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, -10))
BSD = GeneralSurface(BSD_M1, BSD_M2)


def test_check_subfamily_examples():
    rep = check_subfamily(Y_13_2_6)
    assert rep.valid
    assert rep.c1_value == 52 and rep.derived_N == 2
    rep_s = check_subfamily(S_13)
    assert rep_s.valid and rep_s.derived_N == 1 and rep_s.c1_value == 13
    bad = check_subfamily(SubfamilySurface(5, 1, 1, 1, 1, 1))
    assert not bad.c1_holds and not bad.valid
    assert bad.c1_value == -3


@pytest.mark.parametrize("coeffs, failed", [
    ((9, -4, -4, -4, 0, -2), "p is not an odd prime"),
    ((5, 1, 1, 1, 1, 1), "(C1) fails"),
    ((5, 1, 1, 1, 1, -1), "(C2) fails"),  # (C1) holds with N = 1, but AD - BC = 0
])
def test_validate_subfamily_names_the_failed_condition(coeffs, failed):
    s = SubfamilySurface(*coeffs)
    with pytest.raises(ValueError) as exc:
        validate_subfamily(s)
    assert str(exc.value) == f"invalid subfamily surface {s.label()}: {failed}"


def test_a_primality_proof_out_of_budget_is_not_kept():
    # beyond its bound is_prime raises a budget error, which no report
    # keeps: every validation tries again and raises again
    p = 10 ** 30 + 57
    s = SubfamilySurface(p, 1, 1, 1, -p, 1 - p)
    assert s.N == 2
    for _ in range(2):
        with pytest.raises(arith.PrimalityBudgetExceeded, match=str(p)):
            validate_subfamily(s)
        assert "report" not in s.memo
    assert not issubclass(arith.PrimalityBudgetExceeded, ValueError)


@pytest.mark.parametrize("coeffs, failed", [((10 ** 30 + 57, 1, 1, 1, -(10 ** 30 + 57), 1), "(C1) fails"),
                                            ((9, 1, 1, 1, 1, 1), "(C1) fails"),
                                            ((5, 1, 1, 1, 1, -1), "(C2) fails")])
def test_p_is_tested_only_where_c1_and_c2_hold(monkeypatch, coeffs, failed):
    # a surface that fails (C1) or (C2) names that condition without a
    # primality proof, which past the bound would only run out of budget
    def no_test(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(quadform, "is_prime", no_test)
    s = SubfamilySurface(*coeffs)
    assert check_subfamily(s).p_prime is None and not check_subfamily(s).valid
    with pytest.raises(ValueError, match=f"{re.escape(failed)}$"):
        validate_subfamily(s)


def test_subfamily_equations_and_paper_points():
    assert Y_13_1_12.contains((1, 0, 0, 0, 1))
    assert Y_13_12_1.contains((1, -3, 2, 7, 16))
    assert not Y_13_2_6.contains((1, 0, 0, 0, 1))


def test_subfamily_equations_and_jacobian_are_the_written_out_forms():
    # equations computes p x^2 once and eq1, eq2 read it; they, jacobian and
    # equations_and_jacobian are the two quadrics and their partials written
    # out here, at 2000 seeded integer tuples with negative and zero
    # coordinates on seeded valid surfaces
    rng = random.Random(7)
    surfaces = box_slice(11, 16) + [Y_13_2_6, S_13, SubfamilySurface(229, 5, 6, 8, 5, -19),
                                    SubfamilySurface(229, 2, -229, 1, -114, 1)]
    for s in surfaces:
        p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
        for _ in range(100):
            pt = tuple(0 if rng.random() < 0.2 else rng.randint(-10 ** rng.randint(1, 12), 10 ** 12)
                       for _ in range(5))
            u, v, x, y, z = pt
            eqs = (y * y - p * x * x - M * u * v, z * z - p * x * x - (A * u + B * v) * (C * u + D * v))
            jac = ((-M * v, -M * u, -2 * p * x, 2 * y, 0),
                   (-(2 * A * C * u + (A * D + B * C) * v), -((A * D + B * C) * u + 2 * B * D * v),
                    -2 * p * x, 0, 2 * z))
            assert s.equations(pt) == (s.eq1(pt), s.eq2(pt)) == eqs, (s, pt)
            assert s.jacobian(pt) == jac, (s, pt)
            assert s.equations_and_jacobian(pt) == (eqs, jac), (s, pt)
            assert s.contains(pt) == (eqs == (0, 0))
    assert all(check_subfamily(s).valid for s in surfaces)


def test_content_free_forms_stay_out_of_repr_eq_and_hash():
    # decide_Qq seeds its draws from repr(surface)
    assert repr(BSD) == f"GeneralSurface(mat1={BSD_M1!r}, mat2={BSD_M2!r})"
    doubled = GeneralSurface(*(tuple(tuple(2 * a for a in row) for row in m) for m in (BSD_M1, BSD_M2)))
    assert doubled.hessians == BSD.hessians and doubled != BSD
    assert GeneralSurface(BSD_M1, BSD_M2) == BSD and hash(GeneralSurface(BSD_M1, BSD_M2)) == hash(BSD)


def test_content_free_forms_of_a_pencil():
    # content of x.M1 x: gcd(2, 10, 2 * 1) = 2; of x.M2 x: gcd(2, 4, 2, 10, 2 * 3) = 2
    assert BSD.hessians == (BSD_M1, BSD_M2)
    zero = ((0,) * 5,) * 5
    g = GeneralSurface(zero, tuple(tuple(3 * a for a in row) for row in BSD_M1))
    assert g.hessians == (zero, BSD_M1)  # a zero form is left as it is
    pt = (1, 2, 3, 4, 5)
    assert g.equations(pt) == (0, BSD.quad_value(0, pt))
    assert g.jacobian(pt)[0] == (0,) * 5


def test_to_matrices_reproduces_equations():
    g = to_matrices(Y_13_2_6)
    rng = random.Random(0)
    for _ in range(40):
        pt = tuple(rng.randint(-9, 9) for _ in range(5))
        # both doubled forms have content 2: the walked forms are eq1 and eq2
        assert g.quad_value(0, pt) == Y_13_2_6.eq1(pt)
        assert g.quad_value(1, pt) == Y_13_2_6.eq2(pt)
    assert g.equations((1, 0, 0, 0, 1)) != (0, 0)
    g2 = to_matrices(Y_13_12_1)
    assert g2.equations((1, -3, 2, 7, 16)) == (0, 0)


def interpolated_quintic(g: GeneralSurface):
    # independent oracle: Lagrange interpolation of t -> det(mat1 + t*mat2)
    xs = list(range(6))
    ys = [Fraction(mat_det(g.member(1, t))) for t in xs]
    coeffs = [Fraction(0)] * 6
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = [b * (-xj) + (basis[k - 1] if k else 0) for k, b in enumerate(basis)] + [basis[-1]]
            denom *= xi - xj
        for k, b in enumerate(basis):
            coeffs[k] += ys[i] * b / denom
    # coeffs[k] multiplies t^k; as a binary form c_i k^(5-i) l^i this is c[k] = coeffs[k]
    return [int(c) for c in coeffs]


def test_discriminant_quintic_against_interpolation_oracle():
    rng = random.Random(7)
    for surf in [Y_13_2_6, S_13]:
        g = to_matrices(surf)
        assert discriminant_quintic(g) == interpolated_quintic(g)
    for _ in range(10):
        def sym():
            m = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)]
            return tuple(tuple((m[i][j] + m[j][i]) for j in range(5)) for i in range(5))
        g = GeneralSurface(sym(), sym())
        assert discriminant_quintic(g) == interpolated_quintic(g)


def leibniz_det(m):
    """det(m) as the signed sum over permutations, the sign from the inversion count."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_mat_det_against_leibniz_expansion():
    rng = random.Random(11)
    for n in range(1, 6):
        for trial in range(40):
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n > 1 and trial % 4 == 1:
                m[0][0] = 0  # zero leading pivot: Bareiss must swap rows
            if n > 1 and trial % 4 == 2:
                m[-1] = [a + 2 * b for a, b in zip(m[0], m[n // 2])]  # singular
            if n > 2 and trial % 4 == 3:
                # leading 2x2 minor 0: a zero pivot after the first elimination step
                m[1][:2] = [3 * m[0][0], 3 * m[0][1]]
            mat = tuple(tuple(row) for row in m)
            assert mat_det(mat) == leibniz_det(mat), mat
    assert mat_det(((0, 1), (1, 0))) == -1
    assert mat_det(((0, 0), (0, 5))) == 0


def sylvester_by_minors(m):
    """1, -1 or 0 (positive, negative or not definite), from every leading principal minor."""
    minors = [mat_det(tuple(row[:k] for row in m[:k])) for k in range(1, len(m) + 1)]
    if all(d > 0 for d in minors):
        return 1
    if all((-1) ** k * d > 0 for k, d in enumerate(minors, 1)):
        return -1
    return 0


def test_definite_sign_matches_the_leading_minors():
    rng = random.Random(23)
    seen = {}
    for trial in range(1200):
        n = rng.randint(1, 5)
        kind = trial % 5
        if kind == 0:  # plain entries: mostly indefinite, some wrong-signed pivot
            m = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations_with_replacement(range(n), 2):
                m[i][j] = m[j][i] = rng.randint(-4, 4)
        else:  # a Gram matrix B^T B, definite when B has rank n; rows < n make it singular
            rows = n if kind in (1, 2) else rng.randint(1, n)
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rows)]
            m = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
            if kind == 2:
                m = [[-x for x in row] for row in m]
            if kind == 4 and n > 1:  # a zero leading minor: d_1 = 0, or d_2 = 0 with d_1 != 0
                if rng.random() < 0.5:
                    m[0][0] = 0
                else:
                    m[0][0], m[0][1], m[1][0], m[1][1] = 2, 2, 2, 2
        mat = tuple(tuple(row) for row in m)
        expected = sylvester_by_minors(mat)
        assert definite_sign(mat) == expected, mat
        seen[expected] = seen.get(expected, 0) + 1
    assert min(seen.values()) > 100, seen
    assert definite_sign(((0, 0), (0, 5))) == 0 and definite_sign(((1, 1), (1, 1))) == 0
    assert definite_sign(((-2, 1), (1, -1))) == -1 and definite_sign(((-2, 1), (1, 1))) == 0


def definite_sign_by_elimination(m):
    """The reference: fraction-free elimination without pivoting, whose k-th
    pivot is the k-th leading principal minor d_k, stopped at the first pivot
    that is zero or not of the sign s^k, s the sign of d_1."""
    a = [list(row) for row in m]
    s = (a[0][0] > 0) - (a[0][0] < 0)
    prev = 1
    for k, pr in enumerate(a):
        pivot = pr[k]
        if pivot == 0 or (pivot > 0) != (s > 0 or k % 2 == 1):
            return 0
        for row in a[k + 1:]:
            for j in range(k + 1, len(a)):
                row[j] = (row[j] * pivot - row[k] * pr[j]) // prev
        prev = pivot
    return s


def test_definite_sign_agrees_with_the_elimination():
    # 10^4 seeded symmetric 2x2 to 5x5 matrices: +-B^T B, definite when B has
    # rank n and singular when it has fewer rows, and plain small entries
    rng = random.Random(44)
    seen, singular = Counter(), 0
    for trial in range(10 ** 4):
        n = rng.randint(2, 5)
        if trial % 2:
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n))]
            sign = rng.choice((1, -1))
            m = [[sign * sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
        else:
            m = [[0] * n for _ in range(n)]
            for i, j in itertools.combinations_with_replacement(range(n), 2):
                m[i][j] = m[j][i] = rng.randint(-2, 2)
        mat = tuple(tuple(row) for row in m)
        expected = definite_sign_by_elimination(mat)
        assert definite_sign(mat) == expected, mat
        seen[expected] += 1
        singular += mat_det(mat) == 0
    assert min(seen.values()) > 500 and singular > 1000, (seen, singular)


def test_quintic_consistency_evaluations():
    g = to_matrices(Y_13_2_6)
    q = discriminant_quintic(g)
    assert binary_form_eval(q, 1, 1) == mat_det(g.member(1, 1))
    zero = ((0,) * 5,) * 5
    g0 = GeneralSurface(g.mat1, zero)
    assert discriminant_quintic(g0) == [mat_det(g.mat1), 0, 0, 0, 0, 0]


def test_rational_roots_of_subfamily_quintic():
    for surf in [Y_13_2_6, Y_13_1_12, Y_13_12_1, S_13]:
        q = discriminant_quintic(to_matrices(surf))
        roots = rational_roots_binary_form(q)
        assert {(1, 0), (0, 1), (-1, 1)} <= set(roots)


def conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_rational_roots_constructed_form():
    # factors as linear forms (r - 2t)(3r + t) * r * t * (r + t); coeff lists ascending in t
    form = [1]
    for lin in ([1, -2], [3, 1], [1, 0], [0, 1], [1, 1]):
        form = conv(form, lin)
    roots = rational_roots_binary_form(form)
    assert set(roots) == {(2, 1), (-1, 3), (1, 0), (0, 1), (-1, 1)}


def test_rational_roots_irrational_only():
    # k^2 - 2 l^2 has no rational roots; times l^3 it gains only (0:1) and (1:0)? no: l^3 -> root (1,0)x3?
    # l^3 (k^2 - 2l^2): leading coeff in k is 0 -> root (1,0); no (0,1) root since trailing l^5 coeff -2 != 0.
    form = conv([1, 0, -2], [0, 0, 0, 1])
    assert rational_roots_binary_form(form) == [(1, 0)]


def _row_reduce(m) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination over Fraction: the reduced rows and the pivot columns."""
    rows = [[Fraction(x) for x in row] for row in m]
    pivots: list[int] = []
    for col in range(len(rows[0])):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / pr[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], pr)]
        pivots.append(col)
    return rows, pivots


def minor_rank_oracle(m):
    # largest k with a nonvanishing k x k minor
    n = len(m)
    for k in range(n, 0, -1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(n), k):
                sub = tuple(tuple(m[i][j] for j in cols) for i in rows)
                if mat_det(sub) != 0:
                    return k
    return 0


def test_rank_matches_minor_oracle():
    rng = random.Random(11)
    for _ in range(25):
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(5)) for _ in range(5))
        assert mat_rank(m) == minor_rank_oracle(m)
    for surf in [Y_13_2_6, S_13]:
        for root, rank in degenerate_members(to_matrices(surf)):
            assert rank == minor_rank_oracle(to_matrices(surf).member(*root))


def test_rank_matches_fraction_elimination_on_random_integer_matrices():
    # rectangular shapes, zero rows and rows that are combinations of others
    rng = random.Random(29)
    for trial in range(600):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(n_cols)] for _ in range(n_rows)]
        if trial % 3 == 1:
            m[rng.randrange(n_rows)] = [0] * n_cols
        if n_rows > 2 and trial % 3 == 2:
            i, j, k = rng.sample(range(n_rows), 3)
            c = rng.randint(-3, 3)
            m[i] = [c * a + b for a, b in zip(m[j], m[k])]
        assert mat_rank(m) == len(_row_reduce(m)[1]), m
    assert mat_rank(((0, 0, 0), (0, 0, 0))) == 0
    assert mat_rank(((0, 2, 4), (0, 1, 2), (0, 0, 5))) == 2


def test_binary_form_eval_is_the_power_sum():
    rng = random.Random(31)
    for _ in range(300):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 7))]
        for r, t in ((rng.randint(-6, 6), rng.randint(-6, 6)), (0, rng.randint(-6, 6)),
                     (rng.randint(-6, 6), 0), (0, 0)):
            deg = len(coeffs) - 1
            assert binary_form_eval(coeffs, r, t) == sum(c * r ** (deg - i) * t ** i
                                                         for i, c in enumerate(coeffs)), (coeffs, r, t)


def test_degenerate_members_ranks():
    for surf in [Y_13_2_6, Y_13_1_12, S_13]:
        members = dict(degenerate_members(to_matrices(surf)))
        assert members[(1, 0)] == 4 and members[(0, 1)] == 4 and members[(-1, 1)] == 4


def test_epsilon_T_subfamily_members_class_p():
    g = to_matrices(Y_13_2_6)
    for root in [(1, 0), (0, 1), (-1, 1)]:
        assert epsilon_T(g, root) == SquareClass(13)


def test_epsilon_T_trivial_diagonal():
    m = tuple(tuple(2 if (i == j and i < 4) else 0 for j in range(5)) for i in range(5))
    zero = ((0,) * 5,) * 5
    g = GeneralSurface(m, zero)
    assert epsilon_T(g, (1, 0)).is_square


def restriction_det(m, basis):
    gram = tuple(
        tuple(sum(basis[r][i] * m[i][j] * basis[c][j] for i in range(5) for j in range(5))
              for c in range(4))
        for r in range(4))
    return mat_det(gram)


def test_epsilon_T_complement_invariance():
    # restrictions to different complements of the radical share one square class
    rng = random.Random(5)
    for surf in [Y_13_2_6, S_13]:
        g = to_matrices(surf)
        for root in [(1, 0), (0, 1), (-1, 1)]:
            m = g.member(*root)
            want = epsilon_T(g, root)
            found = 0
            while found < 4:
                basis = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(4)]
                d = restriction_det(m, basis)
                if d == 0:
                    continue
                assert square_class(d) == want
                found += 1


def test_order4_certifies_subfamily_surfaces():
    for surf in [Y_13_2_6, Y_13_1_12, Y_13_12_1, S_13]:
        rep = order4_test(to_matrices(surf))
        assert rep.certified and rep.eps == SquareClass(surf.p)
        assert len(rep.certificate_points) == 3


def test_order4_ranks_each_member_once(monkeypatch):
    # order4_test reads eps off each member that degenerate_members ranked 4,
    # without ranking it again as the public epsilon_T does
    import dp4.quadform as quadform
    calls = []
    real = quadform.mat_rank
    monkeypatch.setattr(quadform, "mat_rank", lambda m: calls.append(m) or real(m))
    rep = order4_test(to_matrices(Y_13_2_6))
    assert len(calls) == 3
    assert rep == quadform.Order4Report(
        True, SquareClass(13), ((1, 0), (0, 1), (-1, 1)),
        (((1, 0), 4, 13), ((0, 1), 4, 13), ((-1, 1), 4, 13)), (0, 104, -5096, -5096, 104, 0), True)


def test_order4_bsd_not_certified():
    rep = order4_test(BSD)
    assert not rep.certified
    classes = sorted(c for (_, _, c) in rep.members if c is not None)
    assert classes == [-1, 5, 5]


def test_order4_computes_the_quintic_once(monkeypatch):
    import dp4.quadform as quadform
    calls = []

    def counted(g):
        calls.append(g)
        return discriminant_quintic(g)

    monkeypatch.setattr(quadform, "discriminant_quintic", counted)
    g = GeneralSurface(BSD_M1, BSD_M2)  # a fresh pencil: BSD keeps the quintic earlier tests worked out
    rep = order4_test(g)
    assert len(calls) == 1
    assert rep.quintic == tuple(discriminant_quintic(BSD))
    assert [(root, rank) for root, rank, _ in rep.members] == degenerate_members(g)


def _squarefree_by_euclid(quintic) -> bool:
    """No repeated root over Qbar: gcd(f(k, 1), f'(k, 1)) by Euclid over Q, with
    degree below 4 a repeated root at (1 : 0)."""
    f = [Fraction(c) for c in itertools.dropwhile(lambda c: c == 0, quintic)]
    if len(f) < 5:
        return False
    a, b = f, [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])]
    while b:
        while len(a) >= len(b):
            ratio = a[0] / b[0]
            a = list(itertools.dropwhile(lambda c: c == 0, [x - ratio * y for x, y in
                                                           zip(a, b + [0] * (len(a) - len(b)))]))
        a, b = b, a
    return len(a) == 1


def test_one_squarefree_test_for_the_pencil_quintic():
    # the partials' resultant against Euclid on random quintics, and
    # validate_pencil against order4_test on diagonal pencils
    rng = random.Random(19)
    singular = 0
    for n in range(2000):
        quintic = [rng.randint(-3, 3) for _ in range(6)]
        if n % 4 == 0:  # a cubic times a squared linear form, (1 : 0) and (0 : 1) included
            r, s = rng.choice([(r, s) for r in range(-2, 3) for s in range(3) if r or s])
            square = [r * r, 2 * r * s, s * s]
            quintic = [sum(quintic[i] * square[j - i] for i in range(4) if 0 <= j - i < 3)
                       for j in range(6)]
        if any(quintic):
            squarefree = _squarefree_by_euclid(quintic)
            assert (quintic_partials_resultant(quintic) != 0) == squarefree, quintic
            singular += not squarefree
    assert singular > 500
    for _ in range(60):
        g = GeneralSurface(*(tuple(tuple(d if i == j else 0 for j in range(5)) for i, d in enumerate(diag))
                             for diag in ([rng.randint(-2, 2) for _ in range(5)] for _ in range(2))))
        if not any(g.quintic):
            continue
        try:
            validate_pencil(g)
            accepted = True
        except ValueError:
            accepted = False
        assert order4_test(g).quintic_squarefree == accepted == _squarefree_by_euclid(g.quintic)


def test_order4_rejects_degenerate_pencil():
    zero = ((0,) * 5,) * 5
    with pytest.raises(ValueError):
        order4_test(GeneralSurface(zero, zero))


def test_normal_form_checks():
    nf = subfamily_to_normal_form(Y_13_2_6)
    assert check_normal_form(nf).valid
    bad_eps = NormalFormSurface(4, nf.a0, nf.b0, nf.c0, nf.a1, nf.b1, nf.c1, nf.d0, nf.d1)
    assert not check_normal_form(bad_eps).cond1_eps_nonsquare
    degenerate = NormalFormSurface(13, 1, 2, 3, 1, 2, 3, 1, 1)
    rep = check_normal_form(degenerate)
    assert not rep.cond3_product_square and not rep.valid


def test_check_normal_form_factors_nothing(monkeypatch):
    # conditions (1) and (3) are perfect-square tests, so a large eps answers at once
    def no_factor(n):
        raise AssertionError(f"factor({n}) called")

    monkeypatch.setattr(arith, "factor", no_factor)
    for surf in (Y_13_2_6, Y_13_1_12, Y_13_12_1, S_13):
        assert check_normal_form(subfamily_to_normal_form(surf)).valid
    nf = subfamily_to_normal_form(Y_13_2_6)
    eps = 1000000000000000003 * 1000000000000000009
    rep = check_normal_form(NormalFormSurface(eps, nf.a0, nf.b0, nf.c0, nf.a1, nf.b1, nf.c1, nf.d0, nf.d1))
    assert rep.cond1_eps_nonsquare and not rep.cond3_product_square


def test_normal_form_point_round_trip():
    for surf, pt in [(Y_13_1_12, (1, 0, 0, 0, 1)), (Y_13_12_1, (1, -3, 2, 7, 16))]:
        nf = subfamily_to_normal_form(surf)
        q = subfamily_point_to_normal_form(surf, pt)
        assert nf.eq1(q) == 0 and nf.eq2(q) == 0
        assert normal_form_point_to_subfamily(surf, q) == normalize_point(pt)


def test_collapse_triple_identity_and_signs():
    surf, pt = Y_13_12_1, (1, -3, 2, 7, 16)
    nf = subfamily_to_normal_form(surf)
    q = subfamily_point_to_normal_form(surf, pt)
    assert collapse_triple(nf, q, q, q) == q
    u, v, x, y, z = q
    flipped = [(u, v, x, -y, -z), (u, v, -x, y, -z)]
    out = collapse_triple(nf, q, *flipped)
    assert points_sign_equivalent(out, q)


def test_collapse_triple_random_rescaling():
    surf, pt = Y_13_1_12, (1, 0, 0, 0, 1)
    nf = subfamily_to_normal_form(surf)
    q = subfamily_point_to_normal_form(surf, pt)
    rng = random.Random(3)
    for _ in range(10):
        scales = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3)]
        triple = [tuple(s * c for c in q) for s in scales]
        out = collapse_triple(nf, *triple)
        assert points_sign_equivalent(out, q)


def test_collapse_triple_errors():
    nf = subfamily_to_normal_form(Y_13_1_12)
    q = subfamily_point_to_normal_form(Y_13_1_12, (1, 0, 0, 0, 1))
    with pytest.raises(ValueError):
        collapse_triple(nf, q, q, (1, 1, 1, 1, 1))  # not on member 2


def test_point_normalization():
    assert normalize_point((2, 4, -6, 0, 2)) == (1, 2, -3, 0, 1)
    assert normalize_point((-2, 4, -6, 0, 2)) == (1, -2, 3, 0, -1)
    assert sign_normalize_point((-1, 3, -2, 7, -16)) == (1, -3, 2, 7, 16)
    assert points_sign_equivalent((1, -3, 2, 7, 16), (-1, 3, 2, -7, 16))


def test_random_valid_subfamily_surfaces_certify_order_4():
    # structural invariant: every valid surface certifies with eps-class p,
    # and its pencil quintic has the three standard rational roots
    import sys
    sys.path.insert(0, "tests")
    from helpers import search_valid_surfaces

    surfaces = []
    for p, vals in [(5, (0, 0, 0, 0, 0)), (13, (0, 0, 0, 0, 0)), (7, (0, 0, 0, 0, 0)),
                    (13, (1, 1, 0, 0, 1)), (5, (1, 1, 0, 0, 2))]:
        surfaces += search_valid_surfaces(p, vals, limit=3)
    assert len(surfaces) >= 12
    for s in surfaces:
        g = to_matrices(s)
        rep = order4_test(g)
        assert rep.certified and rep.eps == SquareClass(s.p), s
        roots = {r for r, _ in degenerate_members(g)}
        assert {(1, 0), (0, 1), (-1, 1)} <= roots


def test_normal_form_and_subfamily_checks_agree():
    import sys
    sys.path.insert(0, "tests")
    from helpers import search_valid_surfaces

    for p in (5, 13):
        for s in search_valid_surfaces(p, (0, 0, 0, 0, 0), limit=4):
            assert check_subfamily(s).valid
            assert check_normal_form(subfamily_to_normal_form(s)).valid
    # an invalid tuple converts to an invalid normal form ((C1) fails -> (3) fails)
    bad = SubfamilySurface(5, 1, 1, 1, 1, 1)
    assert not check_subfamily(bad).valid
    assert not check_normal_form(subfamily_to_normal_form(bad)).valid


def test_degenerate_members_empty_for_irrational_pencil():
    rng = random.Random(21)
    found = False
    for _ in range(60):
        def sym():
            m = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(5)]
            return tuple(tuple(m[i][j] + m[j][i] for j in range(5)) for i in range(5))
        g = GeneralSurface(sym(), sym())
        q = discriminant_quintic(g)
        if all(c == 0 for c in q):
            continue
        if not rational_roots_binary_form(q):
            assert degenerate_members(g) == []
            found = True
            break
    assert found, "no pencil with an irrational quintic in the sample"


def test_epsilon_T_rejects_wrong_rank():
    g = to_matrices(Y_13_2_6)
    with pytest.raises(ValueError):
        epsilon_T(g, (1, 1))  # a smooth member has rank 5
