import itertools
import random

import pytest

from dp4 import localsolve
from dp4.quadform import GeneralSurface, SubfamilySurface, to_matrices
from dp4.localsolve import (
    EnumerationBudgetError,
    _shuffled_children,
    decide_Qq,
    decide_R,
    everywhere_locally_soluble,
    everywhere_locally_soluble_general,
    expand_children,
    iter_residue_points,
    lift_certificate,
    newton_refine,
    normalize_residue_tuple,
    residue_points,
    sample_local_points,
    solutions_at_level,
)
from dp4.arith import legendre, sqrt_mod_prime_power
from dp4.families import make_Y

from helpers import (CASE_PATTERN_SURFACES, INSOLUBLE_AT_P, exhaustive_primitive_solutions_exist,
                     search_valid_surfaces)

Y_13_2_6 = SubfamilySurface(13, 2, -13, 1, -6, 1)
Y_13_1_12 = SubfamilySurface(13, 1, -13, 1, -12, 1)
S_13 = SubfamilySurface(13, 1, 1, 153, 179, 1)


def brute_residue_points(s, q):
    pts = set()
    for t in itertools.product(range(q), repeat=5):
        if any(t) and s.eq1(t) % q == 0 and s.eq2(t) % q == 0:
            pts.add(normalize_residue_tuple(q, 1, t).coords)
    return pts


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_residue_points_match_bruteforce(q):
    for s in (Y_13_2_6, S_13):
        assert {p.coords for p in residue_points(s, q)} == brute_residue_points(s, q)


def test_residue_points_nonempty_at_small_primes():
    # two quadrics in five variables always have a nontrivial residue solution
    for s in (Y_13_2_6, Y_13_1_12, S_13, *INSOLUBLE_AT_P):
        for q in (2, 3, 5, 7, 11, 13):
            assert residue_points(s, q), (s, q)


def test_residue_count_invariant_under_unimodular_change():
    # a GL_5(Z) substitution permutes the residue points bijectively
    g = to_matrices(Y_13_2_6)
    t = (
        (1, 0, 0, 0, 0),
        (2, 1, 0, 0, 0),
        (0, 3, 1, 0, 0),
        (1, 0, 0, 1, 0),
        (0, 1, 0, 0, 1),
    )

    def transform(m):
        tm = [[sum(t[k][i] * m[k][l] for k in range(5)) for l in range(5)] for i in range(5)]
        return tuple(tuple(sum(tm[i][l] * t[l][j] for l in range(5)) for j in range(5))
                     for i in range(5))

    g2 = GeneralSurface(transform(g.mat1), transform(g.mat2))
    for q in (3, 5, 7):
        assert len(residue_points(g, q)) == len(residue_points(g2, q))


def test_residue_enumeration_budget():
    with pytest.raises(EnumerationBudgetError):
        residue_points(Y_13_2_6, 10007)


def reference_level1(s, q):
    """The exhaustive order, written as nested loops over the three patterns."""
    patterns = [(1, v, x) for v in range(q) for x in range(q)] + [(0, 1, x) for x in range(q)] + [(0, 0, 1)]
    out = []
    for u, v, x in patterns:
        for y in range(q):
            if s.eq1((u, v, x, y, 0)) % q:
                continue
            for z in range(q):
                if s.eq2((u, v, x, y, z)) % q == 0:
                    out.append(((u, v, x, y, z), 0 if u else 1 if v else 2))
    return out


LEVEL1_SURFACES = [Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case2"]]


@pytest.mark.parametrize("q", [2, 3, 5, 13])
@pytest.mark.parametrize("s", LEVEL1_SURFACES)
def test_exhaustive_residue_order_is_the_nested_loop(s, q):
    assert [(pt.coords, pt.pinned) for pt in iter_residue_points(s, q)] == reference_level1(s, q)


@pytest.mark.parametrize("q", [2, 3, 5, 13])
@pytest.mark.parametrize("s", LEVEL1_SURFACES)
def test_seeded_residue_draws_are_a_permutation(s, q):
    exhaustive = [(pt.coords, pt.pinned) for pt in iter_residue_points(s, q)]
    drawn = [(pt.coords, pt.pinned) for pt in iter_residue_points(s, q, random.Random(11))]
    assert sorted(drawn) == sorted(exhaustive)
    again = [(pt.coords, pt.pinned) for pt in iter_residue_points(s, q, random.Random(11))]
    assert again == drawn
    if len(drawn) > 2:
        other = [(pt.coords, pt.pinned) for pt in iter_residue_points(s, q, random.Random(12))]
        assert sorted(other) == sorted(drawn) and other != drawn


def test_seeded_residue_order_on_a_general_pencil():
    g = to_matrices(Y_13_2_6)
    exhaustive = [(pt.coords, pt.pinned) for pt in iter_residue_points(g, 5)]
    drawn = [(pt.coords, pt.pinned) for pt in iter_residue_points(g, 5, random.Random(11))]
    assert sorted(drawn) == sorted(exhaustive) and drawn != exhaustive
    pts = sample_local_points(g, 13, 12, 4, seed=2)
    assert len({pt.coords for pt in pts}) == 12
    for pt in pts:
        assert pt.k == 4 and lift_certificate(g, pt) is not None


def test_sampling_beyond_the_enumeration_budget():
    # seeded draws never build the level-1 set, so q above the exhaustive
    # enumeration budget is fine as long as certified points are plentiful
    s = make_Y(10009, 1, 10008)
    pts = sample_local_points(s, 10009, 16, 8)
    assert len({pt.coords for pt in pts}) == 16
    for pt in pts:
        assert pt.k == 8 and lift_certificate(s, pt) is not None


def test_level1_draws_are_bounded_beyond_the_enumeration_budget(monkeypatch):
    # mod P no level-1 point of (P, P, P, c, d, -mP) is certified, so pass 1
    # could draw all ~P^2 of them; beyond the exhaustive budget it stops
    # after ``budget`` draws instead
    P = 10007
    s = SubfamilySurface(P, P, P, 1, 194, -7 * P)  # (C1) with N = 2P
    drawn = [0]
    real = localsolve.iter_residue_points

    def counting(*args, **kwargs):
        for pt in real(*args, **kwargs):
            drawn[0] += 1
            yield pt

    monkeypatch.setattr(localsolve, "iter_residue_points", counting)
    with pytest.raises(EnumerationBudgetError):
        sample_local_points(s, P, 16, 8, budget=500)
    assert drawn[0] == 501


def test_lift_certificate_unit_minor():
    pts = residue_points(Y_13_2_6, 3)
    certified = [lift_certificate(Y_13_2_6, pt) for pt in pts]
    assert any(c is not None and c.e == 0 for c in certified)


def test_zero_tuple_is_not_projective():
    assert normalize_residue_tuple(3, 1, (0, 0, 0, 0, 0)) is None
    bad = residue_points(Y_13_2_6, 3)[0]
    broken = type(bad)(q=3, k=1, coords=(0, 3, 0, 0, 0), pinned=0)
    with pytest.raises(ValueError):
        lift_certificate(Y_13_2_6, broken)


def test_newton_refinement_doubles_residual_valuation():
    for pt in residue_points(Y_13_2_6, 3):
        cert = lift_certificate(Y_13_2_6, pt)
        if cert is None:
            continue
        refined = newton_refine(Y_13_2_6, pt, 2 * (pt.k - cert.e) + cert.e)
        mod = 3 ** refined.k
        assert Y_13_2_6.eq1(refined.coords) % mod == 0
        assert Y_13_2_6.eq2(refined.coords) % mod == 0
        # the certified minor keeps its valuation
        again = lift_certificate(Y_13_2_6, refined)
        assert again is not None and again.e == cert.e


def test_decide_paper_surfaces():
    assert decide_Qq(Y_13_2_6, 2).soluble
    assert decide_Qq(Y_13_2_6, 13).soluble
    assert decide_Qq(S_13, 2).soluble
    assert decide_Qq(S_13, 13).soluble


def test_s_family_2adic_witness_from_unit_square():
    # a = 153 = 1 mod 8, so (1 : 0 : 0 : 0 : sqrt(a)) is a 2-adic point
    k = 6
    roots = sqrt_mod_prime_power(153, 2, k)
    assert roots
    pt = normalize_residue_tuple(2, k, (1, 0, 0, 0, roots[0]))
    assert S_13.eq1(pt.coords) % 2 ** k == 0 and S_13.eq2(pt.coords) % 2 ** k == 0
    assert lift_certificate(S_13, pt) is not None


@pytest.mark.parametrize("s", INSOLUBLE_AT_P[:2])
def test_insoluble_instances_and_exhaustive_crosscheck(s):
    verdict = decide_Qq(s, s.p)
    assert verdict.status == "insoluble"
    assert verdict.level == 2
    assert not exhaustive_primitive_solutions_exist(s, s.p, verdict.level)
    # and the level below is nonempty (emptiness appears exactly at the level)
    assert exhaustive_primitive_solutions_exist(s, s.p, verdict.level - 1)


def test_level_monotonicity_projection():
    for q in (2, 3):
        l1 = {p.coords for p in solutions_at_level(Y_13_2_6, q, 1)}
        l2 = solutions_at_level(Y_13_2_6, q, 2)
        l3 = solutions_at_level(Y_13_2_6, q, 3)
        assert {tuple(c % q for c in p.coords) for p in l2} <= l1
        proj = {tuple(c % q ** 2 for c in p.coords) for p in l3}
        assert proj <= {p.coords for p in l2}


def test_expand_children_are_exactly_the_lifts():
    q = 3
    for pt in solutions_at_level(Y_13_2_6, q, 1)[:6]:
        children = {c.coords for c in expand_children(Y_13_2_6, pt)}
        mod2 = q ** 2
        brute = set()
        for digits in itertools.product(range(q), repeat=4):
            coords = list(pt.coords)
            pos = 0
            for idx in range(5):
                if idx == pt.pinned:
                    continue
                coords[idx] += q * digits[pos]
                pos += 1
            if Y_13_2_6.eq1(coords) % mod2 == 0 and Y_13_2_6.eq2(coords) % mod2 == 0:
                brute.add(tuple(coords))
        assert children == brute
        # the sampler's order: the same lifts, each exactly once, fixed by the seed
        shuffled = [c.coords for c in _shuffled_children(Y_13_2_6, pt, random.Random(5))]
        assert sorted(shuffled) == sorted(brute)
        again = [c.coords for c in _shuffled_children(Y_13_2_6, pt, random.Random(5))]
        assert again == shuffled


def test_theorem_shortcut_agreement():
    # places covered by the four-case residue argument are always soluble
    rng = random.Random(99)
    surfaces = []
    for p in (5, 13, 17):
        surfaces += search_valid_surfaces(p, (0, 0, 0, 0, 0), unit_range=8, m_range=60, limit=20)
    rng.shuffle(surfaces)
    surfaces = surfaces[:50]
    assert len(surfaces) == 50
    primes = [q for q in range(3, 100) if all(q % d for d in range(2, q))]
    checked = 0
    for s in surfaces:
        n = s.N
        for q in primes:
            if q in (2, s.p) or n % q == 0 or legendre(s.p, q) != -1:
                continue
            assert decide_Qq(s, q).soluble, (s, q)
            checked += 1
    assert checked > 200


def test_everywhere_locally_soluble_reports():
    rep = everywhere_locally_soluble(Y_13_2_6)
    assert rep.everywhere_soluble is True
    assert rep.decided_places == (2, 13)
    rep_s = everywhere_locally_soluble(S_13)
    assert rep_s.everywhere_soluble is True
    assert rep_s.decided_places == (2, 13)  # N = 1: only {2, p} need explicit work
    payload = rep.to_json()
    assert payload["everywhere_locally_soluble"] is True


def test_sampling_spec_examples():
    pts = sample_local_points(Y_13_2_6, 13, 20, 4, seed=7)
    assert len(pts) == 20
    mod = 13 ** 4
    for pt in pts:
        assert pt.k == 4
        assert Y_13_2_6.eq1(pt.coords) % mod == 0
        assert Y_13_2_6.eq2(pt.coords) % mod == 0
    assert len({pt.coords for pt in pts}) == 20
    assert sample_local_points(Y_13_2_6, 13, 0, 4) == []
    rerun = sample_local_points(Y_13_2_6, 13, 20, 4, seed=7)
    assert [p.coords for p in rerun] == [p.coords for p in pts]


def test_sampling_covers_distinct_residue_classes():
    pts = sample_local_points(Y_13_2_6, 13, 30, 4, seed=1)
    level1 = {tuple(c % 13 for c in p.coords) for p in pts}
    assert len(level1) >= 20


@pytest.mark.parametrize("s, q", [(CASE_PATTERN_SURFACES["case2"], 13),
                                  (SubfamilySurface(37, 37, 37, 2, 6, -222), 37)])
def test_sampling_below_uncertified_residue_classes(s, q):
    # no level-1 point is certified, so every sampled point comes from the
    # depth-first search, through nodes that can have up to q^4 lifts
    assert all(lift_certificate(s, pt) is None for pt in residue_points(s, q))
    pts = sample_local_points(s, q, 12, 6, seed=3)
    assert len({pt.coords for pt in pts}) == 12
    for pt in pts:
        assert pt.k == 6 and lift_certificate(s, pt) is not None
        assert s.eq1(pt.coords) % q ** 6 == 0 and s.eq2(pt.coords) % q ** 6 == 0
    assert [pt.coords for pt in sample_local_points(s, q, 12, 6, seed=3)] == [pt.coords for pt in pts]


def test_decide_R():
    assert decide_R(Y_13_2_6).soluble
    diag = tuple(tuple(2 if i == j else 0 for j in range(5)) for i in range(5))
    scaled = tuple(tuple(4 if i == j else 0 for j in range(5)) for i in range(5))
    assert decide_R(GeneralSurface(diag, scaled)).status == "insoluble"


BSD = GeneralSurface(
    ((0, -1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, -10, 0), (0, 0, 0, 0, 0)),
    ((-2, -3, 0, 0, 0), (-3, -4, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, -10)),
)


def test_bsd_general_path():
    assert decide_R(BSD).soluble
    rep = everywhere_locally_soluble_general(BSD)
    assert rep.everywhere_soluble is True
    assert set(rep.decided_places) == {2, 3, 5}


def test_bad_reduction_beyond_the_enumeration_budget_stays_inconclusive():
    # 61 divides 1*(-61) - 0*1 and so the pencil discriminant: the quintic has
    # a repeated root mod 61 > GENERAL_ENUM_BUDGET, and no theorem decides it
    diag = lambda *a: tuple(tuple(a[i] if i == j else 0 for j in range(5)) for i in range(5))
    g = GeneralSurface(diag(1, 0, 1, -1, 1), diag(0, 1, 2, 3, -61))
    rep = everywhere_locally_soluble_general(g)
    rows = {label: (v, note) for label, v, note in rep.rows}
    verdict, note = rows["61"]
    assert (verdict.status, verdict.method, note) == (
        "inconclusive", "bad reduction beyond enumeration budget", "")
    assert 61 not in rep.decided_places and rep.everywhere_soluble is None


def test_soluble_witnesses_verify():
    for s, q in [(Y_13_2_6, 2), (Y_13_2_6, 13), (S_13, 13)]:
        v = decide_Qq(s, q)
        assert v.soluble
        w = v.witness
        mod = q ** w.k
        assert s.eq1(w.coords) % mod == 0 and s.eq2(w.coords) % mod == 0
        assert lift_certificate(s, w) is not None


def test_case7_substitution_preserves_residue_counts():
    # the coefficient change for v_p(M) even, unit A..D is a linear bijection
    # away from p and the primes in its determinant, so residue counts match
    from helpers import CASE_PATTERN_SURFACES

    s = CASE_PATTERN_SURFACES["case7"]  # p = 5, v_5(M) = 2
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    k = 1
    W = A * D - B * C
    s2 = SubfamilySurface(p, M * D // p ** 2, -M * B // p ** 2, -C, A, W * W // p ** 2)
    from dp4.quadform import check_subfamily

    assert check_subfamily(s2).valid
    for q in (3, 7, 11):
        if W % q == 0 or p % q == 0:
            continue
        assert len(residue_points(s, q)) == len(residue_points(s2, q)), q


def test_sampling_insoluble_surface_raises():
    from dp4.localsolve import SamplingBudgetError

    with pytest.raises(SamplingBudgetError):
        sample_local_points(INSOLUBLE_AT_P[0], 5, 4, 6, budget=30_000)


def test_y_family_points_at_p_have_unit_u():
    # on the first family every primitive Q_p point has a p-adic unit u
    # (reducing u = 0 mod p forces v, x, y, z = 0 mod p in turn)
    for (p, a, b) in [(13, 2, 6), (13, 1, 12), (5, 2, 2), (17, 2, 8)]:
        s = SubfamilySurface(p, a, -p, 1, -b, 1)
        for pt in sample_local_points(s, p, 16, 6, seed=4):
            assert pt.coords[0] % p != 0, (s, pt)
