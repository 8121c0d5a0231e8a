import hashlib
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from dp4 import localsolve, quadform
from dp4.quadform import (GeneralSurface, SubfamilySurface, check_subfamily, discriminant_quintic,
                          mat_det, order4_test, to_matrices)
from dp4.localsolve import (
    EnumerationBudgetError,
    SolubilityVerdict,
    _node,
    _shuffled_indices,
    decide_Qq,
    decide_R,
    everywhere_locally_soluble,
    everywhere_locally_soluble_general,
    expand_children,
    iter_residue_points,
    lift_certificate,
    newton_refine,
    normalize_residue_tuple,
    sample_local_points,
)
from dp4 import arith
from dp4.arith import divisors, is_prime, legendre
from dp4.families import make_S, make_Y, s_from_t

from helpers import (CASE_PATTERN_SURFACES, INSOLUBLE_AT_P, box_slice,
                     exhaustive_primitive_solutions_exist, search_valid_surfaces)

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
        assert {p.coords for p in iter_residue_points(s, q)} == brute_residue_points(s, q)


def test_residue_points_nonempty_at_small_primes():
    # two quadrics in five variables always have a nontrivial residue solution
    for s in (Y_13_2_6, Y_13_1_12, S_13, *INSOLUBLE_AT_P):
        for q in (2, 3, 5, 7, 11, 13):
            assert list(iter_residue_points(s, q)), (s, q)


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
        assert len(list(iter_residue_points(g, q))) == len(list(iter_residue_points(g2, q)))


def test_residue_enumeration_budget():
    with pytest.raises(EnumerationBudgetError):
        list(iter_residue_points(Y_13_2_6, 10007))


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
    # after SAMPLING_BUDGET draws instead
    P = 10007
    s = SubfamilySurface(P, P, P, 1, 194, -7 * P)  # (C1) with N = 2P
    drawn = [0]
    real = localsolve.iter_residue_points

    def counting(*args, **kwargs):
        for pt in real(*args, **kwargs):
            drawn[0] += 1
            yield pt

    monkeypatch.setattr(localsolve, "iter_residue_points", counting)
    monkeypatch.setattr(localsolve, "SAMPLING_BUDGET", 500)
    with pytest.raises(EnumerationBudgetError):
        sample_local_points(s, P, 16, 8)
    assert drawn[0] == 501


@pytest.mark.parametrize("q, count, precision", [(2, 64, 14), (3, 64, 8)])
def test_sampler_reads_each_drawn_lift_once(monkeypatch, q, count, precision):
    # below level 1 a node is read only where a lift is drawn, and that one
    # reading both certifies it and, when uncertified, lists its own lifts
    reads, drawn = [], [0]
    real_node, real_draws = localsolve._node, localsolve._shuffled_indices

    def node(surface, pt):
        if pt.k > 1:
            reads.append(pt)
        return real_node(surface, pt)

    def draws(n, rng):
        for i in real_draws(n, rng):
            drawn[0] += 1
            yield i

    monkeypatch.setattr(localsolve, "_node", node)
    monkeypatch.setattr(localsolve, "_shuffled_indices", draws)
    pts = sample_local_points(Y_13_2_6, q, count, precision)
    assert len(pts) == count
    assert len({id(pt) for pt in reads}) == len(reads)  # reads keeps each point alive: no id reuse
    assert len(reads) <= drawn[0]
    # at 3 the points come from certified classes, whose lifts inherit the
    # certificate unread; at 2 the walk reads below uncertified classes
    assert bool(reads) == (q == 2)


@pytest.mark.parametrize("s, q, count, precision", [
    (Y_13_2_6, 2, 64, 14),
    (CASE_PATTERN_SURFACES["case8"], 3, 64, 8),  # pass 2's rounds walk below uncertified classes
])
def test_sampler_does_each_node_reading_dead_test_and_refinement_once(monkeypatch, s, q, count, precision):
    # the rounds and the sweep walk each class again from its top, with a
    # fresh seeded order, but within one call a node is read, its lifts'
    # dead tests run and a certified lift refined at most once
    reads, tests, refined = [], [], []
    real_node, real_refine = localsolve._node, localsolve.newton_refine

    def node(surface, pt):
        cert, build = real_node(surface, pt)
        reads.append((pt.k, pt.coords))

        def lifts():
            n, child, dead = build()

            def counted(i):
                tests.append((pt.k, pt.coords, i))
                return dead(i)

            return n, child, counted

        return cert, lifts

    def refine(surface, pt, target_k):
        refined.append((pt.k, pt.coords))
        return real_refine(surface, pt, target_k)

    monkeypatch.setattr(localsolve, "_node", node)
    monkeypatch.setattr(localsolve, "newton_refine", refine)
    assert len(localsolve._sample_points(s, q, count, precision)) == count
    assert reads and tests and refined
    for done in (reads, tests, refined):
        assert len(set(done)) == len(done)


def test_sampler_reads_no_certified_node_below_level_1(monkeypatch):
    # a lift is certified only under a node with 2e <= k, which hands it its
    # certificate (``_node``, "Certified lifts"), so it is never read
    certs = []
    real_node = localsolve._node

    def node(surface, pt):
        cert, lifts = real_node(surface, pt)
        if pt.k > 1:
            certs.append(cert)
        return cert, lifts

    monkeypatch.setattr(localsolve, "_node", node)
    assert len(sample_local_points(Y_13_2_6, 2, 64, 14)) == 64
    assert certs and all(cert is None for cert in certs)


def least_minor(s, pt):
    """(cols, e) of the first 2x2 Jacobian minor of least valuation below k, or None."""
    j1, j2 = s.jacobian(pt.coords)
    qk = pt.q ** pt.k
    found = [(arith.valuation(m, pt.q), cols) for cols in itertools.combinations(range(5), 2)
             if (m := (j1[cols[0]] * j2[cols[1]] - j1[cols[1]] * j2[cols[0]]) % qk)]
    return None if not found else min(found, key=lambda f: f[0])[::-1]


def test_lifts_inherit_the_node_certificate():
    # the "Certified lifts" lemma of ``_node``: where the least minor valuation
    # e of a node has 2e <= k, each lift's own reading gives the node's minor
    # and e; elsewhere no lift carries a certificate from its parent.  Seeded
    # nodes of levels 1-6, uncertified ones first, up to 40 lifts each
    rng = random.Random(4)
    inherited = at_half = 0
    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case2"]):
        for q in (2, 3, 5, 13):
            frontier = list(iter_residue_points(s, q))
            for k in range(1, 7):
                kids = []
                for pt in frontier:
                    n, child, _ = _node(s, pt)[1]()
                    lifts = [child(i) for i in (range(n) if n <= 40 else rng.sample(range(n), 40))]
                    found = least_minor(s, pt)
                    if found is not None and 2 * found[1] <= k:
                        want = localsolve.LiftCertificate(*found)
                        assert all(_node(s, c)[0] == c.cert == want for c in lifts), (s, q, pt)
                        inherited += len(lifts)
                        at_half += 2 * found[1] == k and bool(lifts)
                    else:
                        assert all(c.cert is None for c in lifts), (s, q, pt)
                    kids += lifts
                bare = [c for c in kids if c.cert is None]
                frontier = (rng.sample(bare, min(12, len(bare)))
                            + rng.sample([c for c in kids if c.cert], min(4, len(kids) - len(bare))))
    assert inherited > 10_000 and at_half > 5, (inherited, at_half)


def test_newton_refine_checks_the_equations_at_the_point_first():
    # a certified level-1 point claimed at level 2 without solving both
    # equations mod q^2: Newton would still reach a genuine point nearby
    s = Y_13_2_6
    pt = next(pt for pt in iter_residue_points(s, 3)
              if lift_certificate(s, pt) and any(f % 9 for f in s.equations(pt.coords)))
    claimed = localsolve.PadicApproxPoint(3, 2, pt.coords, pt.pinned, lift_certificate(s, pt))
    for target in (2, 8):
        with pytest.raises(ValueError, match="does not satisfy the equations mod 3\\^2"):
            newton_refine(s, claimed, target)


@pytest.mark.parametrize("s, q, count, precision", [
    (Y_13_2_6, 2, 64, 14),  # pass 2 below uncertified classes
    (Y_13_2_6, 3, 64, 6),  # the sweep below certified classes
    (Y_13_2_6, 13, 40, 4),  # pass 1 alone
    (CASE_PATTERN_SURFACES["case2"], 13, 64, 8),
])
def test_sampler_reads_each_level1_class_once(monkeypatch, s, q, count, precision):
    # pass 1 keeps each drawn class's reading for pass 2
    reads, drawn = [0], [0]
    real_node, real_draws = localsolve._node, localsolve.iter_residue_points

    def node(surface, pt):
        reads[0] += pt.k == 1
        return real_node(surface, pt)

    def draws(*args, **kwargs):
        for pt in real_draws(*args, **kwargs):
            drawn[0] += 1
            yield pt

    monkeypatch.setattr(localsolve, "_node", node)
    monkeypatch.setattr(localsolve, "iter_residue_points", draws)
    assert len(sample_local_points(s, q, count, precision)) == count
    assert reads[0] == drawn[0] > 0


class JacobianCounting(GeneralSurface):
    reads = 0

    def jacobian(self, coords):
        type(self).reads += 1
        return super().jacobian(coords)


def test_decide_reads_each_node_once(monkeypatch):
    # one equations-and-Jacobian reading per node the walk visits; the
    # level-7 witness carries its parent's certificate and comes unread
    g = to_matrices(make_Y(17, 16, 1))
    visited = [0]
    real_node = localsolve._node

    def node(surface, pt):
        visited[0] += 1
        return real_node(surface, pt)

    monkeypatch.setattr(localsolve, "_node", node)
    monkeypatch.setattr(JacobianCounting, "reads", 0)
    verdict = decide_Qq(JacobianCounting(g.mat1, g.mat2), 2)
    assert verdict.soluble and verdict.level == 7
    assert JacobianCounting.reads == visited[0] == 7


@pytest.mark.parametrize("s, q, level, coords, cols, e, bound", [
    (SubfamilySurface(401, 4, 5, -4, 2, 64), 2, 13, (1, 1336, 8, 232, 4), (1, 2), 6, 12_000),
    (CASE_PATTERN_SURFACES["case6"], 5, 9, (1, 1, 72785, 53400, 0), (2, 3), 4, 1_000),
])
def test_deep_places_skip_dead_lifts(monkeypatch, s, q, level, coords, cols, e, bound):
    # most nodes below these deep places are dead; recognised at their parent,
    # they are never read (184 210 and 198 504 reads when each was read), and
    # the walk still ends at the same certified witness
    reads = [0]
    real_node = localsolve._node

    def node(surface, pt):
        reads[0] += 1
        return real_node(surface, pt)

    monkeypatch.setattr(localsolve, "_node", node)
    verdict = decide_Qq(s, q)
    assert (verdict.status, verdict.level) == ("soluble", level)
    assert verdict.witness.coords == coords and verdict.witness.cert == localsolve.LiftCertificate(cols, e)
    assert reads[0] < bound


def test_skipped_dead_lifts_at_the_level_cap_leave_the_walk_inconclusive(monkeypatch):
    # insoluble at 2 with level 6 empty, so every level-5 node is dead; with
    # the cap at 5 they end their branches at the cap, read or skipped
    s = SubfamilySurface(13, 2, -4, 3, 6, 16)
    verdict = decide_Qq(s, 2)
    assert (verdict.status, verdict.level) == ("insoluble", 6)
    monkeypatch.setattr(localsolve, "LEVEL_CAP", 5)
    verdict = decide_Qq(s, 2)
    assert (verdict.status, verdict.level, verdict.method) == ("inconclusive", 5, "level budget exhausted")


@pytest.mark.parametrize("cap, status, level, coords", [
    (2, "inconclusive", 2, None),
    (3, "soluble", 3, (1, 0, 1, 1, 1)),
    # the first branch is cut at level 6 uncertified; a later one certifies
    (6, "soluble", 3, (1, 0, 1, 1, 1)),
    # the first branch reaches the golden's witness, a lift of a level-6 node
    (7, "soluble", 7, (1, 0, 0, 0, 4)),
])
def test_the_level_cap_boundary_on_the_y17_pencil(monkeypatch, cap, status, level, coords):
    monkeypatch.setattr(localsolve, "LEVEL_CAP", cap)
    verdict = decide_Qq(to_matrices(make_Y(17, 16, 1)), 2)
    assert (verdict.status, verdict.level) == (status, level)
    if coords is None:
        assert verdict.method == "level budget exhausted" and verdict.witness is None
    else:
        assert verdict.witness.coords == coords and verdict.witness.k == level
    if cap == 7:
        assert verdict.witness.cert == localsolve.LiftCertificate((1, 4), 3)


@pytest.mark.parametrize("cap, verdict", [
    (5, ("inconclusive", 5, "level budget exhausted")),
    (6, ("insoluble", 6, "empty residue level")),
])
def test_the_level_cap_boundary_on_an_insoluble_place(monkeypatch, cap, verdict):
    # level 6 is empty at 2: a cap at 5 leaves it unproved, a cap at 6 proves it
    monkeypatch.setattr(localsolve, "LEVEL_CAP", cap)
    v = decide_Qq(SubfamilySurface(13, 2, -4, 3, 6, 16), 2)
    assert (v.status, v.level, v.method) == verdict


@pytest.mark.parametrize("s, q, count, precision, digest", [
    (Y_13_2_6, 2, 64, 14, "40845caf9578852b"),
    (CASE_PATTERN_SURFACES["case2"], 13, 64, 8, "e6f0c4e7c2ed3fa6"),
])
def test_sampler_walk_order_is_pinned(s, q, count, precision, digest):
    # no level-1 class is certified here, so every point comes from pass 2's
    # seeded walk: the digest pins its order and its rng draws
    assert all(lift_certificate(s, pt) is None for pt in iter_residue_points(s, q))
    pts = sample_local_points(s, q, count, precision)
    listed = repr([(pt.coords, pt.pinned, pt.cert.cols, pt.cert.e) for pt in pts])
    assert hashlib.sha256(listed.encode()).hexdigest()[:16] == digest


def _randrange_shuffled_indices(n: int, rng: random.Random):
    """_shuffled_indices as it drew with rng.randrange, kept to pin its draws."""
    swapped: dict[int, int] = {}
    for i in range(n):
        j = rng.randrange(i, n)
        yield swapped.get(j, j)
        swapped[j] = swapped.pop(i, i)


def test_shuffled_indices_draw_as_randrange_does():
    # the same indices from the same rng stream, leaving the rng in the same
    # state, whole shuffles of small n and the first draws at a large q
    for seed in range(50):
        for n in (1, 2, 3, 7, 16, 1000):
            mine, theirs = random.Random(seed), random.Random(seed)
            assert list(_shuffled_indices(n, mine)) == list(_randrange_shuffled_indices(n, theirs)), (seed, n)
            assert mine.getrandbits(64) == theirs.getrandbits(64), (seed, n)
    n = 4 * (229 ** 2 + 229 + 1)
    mine, theirs = random.Random(0), random.Random(0)
    first = list(itertools.islice(_shuffled_indices(n, mine), 500))
    assert first == list(itertools.islice(_randrange_shuffled_indices(n, theirs), 500))
    assert mine.getrandbits(64) == theirs.getrandbits(64)
    assert len(set(first)) == 500


def test_lift_certificate_unit_minor():
    pts = list(iter_residue_points(Y_13_2_6, 3))
    certified = [lift_certificate(Y_13_2_6, pt) for pt in pts]
    assert any(c is not None and c.e == 0 for c in certified)


def test_zero_tuple_is_not_projective():
    assert normalize_residue_tuple(3, 1, (0, 0, 0, 0, 0)) is None
    bad = next(iter_residue_points(Y_13_2_6, 3))
    broken = type(bad)(q=3, k=1, coords=(0, 3, 0, 0, 0), pinned=0)
    with pytest.raises(ValueError):
        lift_certificate(Y_13_2_6, broken)


def test_newton_refinement_doubles_residual_valuation():
    for pt in iter_residue_points(Y_13_2_6, 3):
        cert = lift_certificate(Y_13_2_6, pt)
        if cert is None:
            continue
        refined = newton_refine(Y_13_2_6, replace(pt, cert=cert), 2 * (pt.k - cert.e) + cert.e)
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


@pytest.mark.parametrize("budget, level", [(5, 3), (50, 5), (500, 5)])
def test_a_spent_expansion_budget_is_inconclusive_never_insoluble(budget, level):
    # insoluble at 2, with level 6 empty; a walk cut short by its budget
    # says so, at the deepest level it reached
    s = SubfamilySurface(13, 2, -4, 3, 6, 16)
    full = decide_Qq(s, 2)
    assert (full.status, full.level) == ("insoluble", 6)
    verdict = decide_Qq(s, 2, budget=budget)
    assert (verdict.status, verdict.method, verdict.level) == ("inconclusive", "expansion budget exhausted", level)


def test_s_family_2adic_witness_from_unit_square():
    # a = 153 = 1 mod 8, so (1 : 0 : 0 : 0 : sqrt(a)) is a 2-adic point
    k = 6
    root = next(r for r in range(2 ** k) if (r * r - 153) % 2 ** k == 0)
    pt = normalize_residue_tuple(2, k, (1, 0, 0, 0, root))
    assert S_13.eq1(pt.coords) % 2 ** k == 0 and S_13.eq2(pt.coords) % 2 ** k == 0
    assert lift_certificate(S_13, pt) is not None


def test_box_verdicts_are_conclusive_and_sound():
    # under the level cap every verdict on the box is conclusive; each
    # insoluble one is confirmed by the independent exhaustive oracle
    statuses = set()
    for s in box_slice(2, 30):
        for q in (2, s.p):
            verdict = decide_Qq(s, q)
            statuses.add((verdict.status, q == 2))
            if verdict.soluble:
                assert lift_certificate(s, verdict.witness) is not None, (s, q)
            else:
                assert verdict.status == "insoluble", (s, q, verdict)
                assert not exhaustive_primitive_solutions_exist(s, q, verdict.level), (s, q)
    assert statuses == {("soluble", True), ("soluble", False), ("insoluble", True), ("insoluble", False)}


@pytest.mark.parametrize("s", INSOLUBLE_AT_P[:2])
def test_insoluble_instances_and_exhaustive_crosscheck(s):
    verdict = decide_Qq(s, s.p)
    assert verdict.status == "insoluble"
    assert verdict.level == 2
    assert not exhaustive_primitive_solutions_exist(s, s.p, verdict.level)
    # and the level below is nonempty (emptiness appears exactly at the level)
    assert exhaustive_primitive_solutions_exist(s, s.p, verdict.level - 1)


def level_k_solutions(s, q, k):
    """Every normalized solution mod q^k, level by level through expand_children."""
    level = list(iter_residue_points(s, q))
    for _ in range(k - 1):
        level = [child for pt in level for child in expand_children(s, pt)]
    return level


def test_level_monotonicity_projection():
    for q in (2, 3):
        l1 = {p.coords for p in level_k_solutions(Y_13_2_6, q, 1)}
        l2 = level_k_solutions(Y_13_2_6, q, 2)
        l3 = level_k_solutions(Y_13_2_6, q, 3)
        assert {tuple(c % q for c in p.coords) for p in l2} <= l1
        proj = {tuple(c % q ** 2 for c in p.coords) for p in l3}
        assert proj <= {p.coords for p in l2}


@pytest.mark.parametrize("s, q, levels, traps", [
    (S_13, 2, {1, 3}, True),
    (to_matrices(S_13), 2, {1, 3}, True),
    (S_13, 3, {1}, True),
    (to_matrices(S_13), 13, {1}, True),
    (CASE_PATTERN_SURFACES["case6"], 5, {1, 2, 3}, False),  # q^4 lifts: a two-dimensional kernel
    (to_matrices(CASE_PATTERN_SURFACES["case6"]), 5, {1, 2, 3}, False),
    (CASE_PATTERN_SURFACES["case2"], 13, {1, 2, 3}, True),
])
def test_dead_lifts_are_recognised_at_their_parent(s, q, levels, traps):
    # a lift the parent flags dead, read, has no certificate and no lifts; an
    # uncertified lift it does not flag has lifts.  A node's lifts are all
    # certified or none is; all are only at even k (e = k/2), where nothing is
    # flagged although some certified lifts are dead.  Eight seeded live
    # uncertified parents per level 1-6, up to 300 lifts each; levels are
    # those of the parents with a flagged lift
    rng = random.Random(0)
    frontier = list(iter_residue_points(s, q))
    flagged_at, certified_dead = set(), 0
    for k in range(1, 7):
        parents = [lifts for cert, lifts in map(lambda pt: _node(s, pt), frontier)
                   if cert is None and lifts()[0]]
        frontier = []
        for lifts in rng.sample(parents, min(8, len(parents))):
            n, child, dead = lifts()
            readings = {}
            for i in range(n) if n <= 300 else rng.sample(range(n), 300):
                cert, child_lifts = _node(s, child(i))
                readings[i] = (dead(i), cert is not None, child_lifts()[0])
            certified = {c for _, c, _ in readings.values()}
            assert len(certified) == 1, (s, q, k)
            if certified == {True}:
                assert k % 2 == 0 and not any(d for d, _, _ in readings.values()), (s, q, k)
                certified_dead += sum(m == 0 for _, _, m in readings.values())
                continue
            for i, (d, _, m) in readings.items():
                assert d == (m == 0), (s, q, k, i)
                if d:
                    flagged_at.add(k)
                else:
                    frontier.append(child(i))
    assert flagged_at == levels  # level 1 is the F(t) term
    assert (certified_dead > 0) == traps


def test_expand_children_are_exactly_the_lifts():
    q = 3
    for pt in list(iter_residue_points(Y_13_2_6, q))[:6]:
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
        n, child, _ = _node(Y_13_2_6, pt)[1]()
        shuffled = [child(i).coords for i in _shuffled_indices(n, random.Random(5))]
        assert sorted(shuffled) == sorted(brute)
        again = [child(i).coords for i in _shuffled_indices(n, random.Random(5))]
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


def test_everywhere_locally_soluble_checks_the_surface_conditions():
    # AD - BC = 0 breaks (C2); the theorem rows assume (C1)/(C2)
    with pytest.raises(ValueError, match="invalid subfamily surface"):
        everywhere_locally_soluble(SubfamilySurface(13, 1, 1, 1, 1, 13))


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


@pytest.mark.parametrize("q, precision, count, level", [(13, 8, 16, 1), (3, 6, 25, 6), (2, 14, 16, 14)])
def test_public_sample_is_the_private_one_refined(q, precision, count, level):
    # at 13 the call ends in pass 1 and its points come back unrefined, at
    # level 1; at 3 the 24 certified level-1 classes fall short (and the
    # sweep reaches a lift of one that refines to its pass-1 point), and at
    # 2 there are none, so pass 2 runs and every point comes back refined
    private = localsolve._sample_points(Y_13_2_6, q, count, precision, seed=5)
    public = sample_local_points(Y_13_2_6, q, count, precision, seed=5)
    assert {pt.k for pt in private} == {level}
    assert public == [newton_refine(Y_13_2_6, pt, precision) if pt.k < precision else pt for pt in private]
    assert all(pt.k == precision for pt in public) and len({pt.coords for pt in public}) == count
    assert (q == 2) == any(pt.cert.e > 0 for pt in public)


def test_sampling_covers_distinct_residue_classes():
    pts = sample_local_points(Y_13_2_6, 13, 30, 4, seed=1)
    level1 = {tuple(c % 13 for c in p.coords) for p in pts}
    assert len(level1) >= 20


@pytest.mark.parametrize("s, q", [(CASE_PATTERN_SURFACES["case2"], 13),
                                  (SubfamilySurface(37, 37, 37, 2, 6, -222), 37)])
def test_sampling_below_uncertified_residue_classes(s, q):
    # no level-1 point is certified, so every sampled point comes from the
    # depth-first search, through nodes that can have up to q^4 lifts
    assert all(lift_certificate(s, pt) is None for pt in iter_residue_points(s, q))
    pts = sample_local_points(s, q, 12, 6, seed=3)
    assert len({pt.coords for pt in pts}) == 12
    for pt in pts:
        assert pt.k == 6 and lift_certificate(s, pt) is not None
        assert s.eq1(pt.coords) % q ** 6 == 0 and s.eq2(pt.coords) % q ** 6 == 0
    assert [pt.coords for pt in sample_local_points(s, q, 12, 6, seed=3)] == [pt.coords for pt in pts]


def diag(*entries):
    return tuple(tuple(entries[i] if i == j else 0 for j in range(5)) for i in range(5))


def test_decide_R():
    assert decide_R(Y_13_2_6).soluble
    assert decide_R(GeneralSurface(diag(2, 2, 2, 2, 2), diag(4, 4, 4, 4, 4))).status == "insoluble"


def in_open_half_plane(ws):
    """Do the plane vectors all lie in one open half-plane through 0?

    Exactly when some w_j sees every w_i at an angle in [0, pi) counter-
    clockwise from it: cross(w_j, w_i) > 0, or w_i a positive multiple of w_j.
    """
    def ahead(wj, wi):
        cross = wj[0] * wi[1] - wj[1] * wi[0]
        return cross > 0 or (cross == 0 and wj[0] * wi[0] + wj[1] * wi[1] > 0)

    return any(all(ahead(wj, wi) for wi in ws) for wj in ws)


def test_decide_R_on_diagonal_pencils_matches_the_half_plane_oracle():
    # sum a_i x_i^2 = sum b_i x_i^2 = 0 has a real solution x != 0 iff 0 is a
    # nontrivial nonnegative combination of the (a_i, b_i), that is iff they
    # do not all lie in one open half-plane
    rng = random.Random(8)
    outcomes = set()
    for _ in range(300):
        ws = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(5)]
        verdict = decide_R(GeneralSurface(diag(*(a for a, _ in ws)), diag(*(b for _, b in ws))))
        assert verdict.status == ("insoluble" if in_open_half_plane(ws) else "soluble"), ws
        outcomes.add(verdict.status)
    assert outcomes == {"soluble", "insoluble"}


def test_decide_R_finds_a_narrow_definite_arc():
    # r*diag(1,1,1,-1000,-1000) + t*diag(0,0,0,1,1) is definite only for
    # 0 < r/t < 1/1000; no float search or angle sweep needs to hit that arc
    g = GeneralSurface(diag(1, 1, 1, -1000, -1000), diag(0, 0, 0, 1, 1))
    verdict = decide_R(g)
    assert (verdict.status, verdict.method) == ("insoluble", "definite pencil member")
    r, t = map(int, verdict.witness.strip("()").split(":"))
    member = g.member(r, t)
    minors = [mat_det([row[:k] for row in member[:k]]) for k in range(1, 6)]
    assert all(d > 0 for d in minors) or all((-1) ** k * d > 0 for k, d in enumerate(minors, 1))


BSD = GeneralSurface(
    ((0, -1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, -10, 0), (0, 0, 0, 0, 0)),
    ((-2, -3, 0, 0, 0), (-3, -4, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, -10)),
)


def test_bsd_general_path():
    assert decide_R(BSD).soluble
    rep = everywhere_locally_soluble_general(BSD)
    assert rep.everywhere_soluble is True
    assert set(rep.decided_places) == {2, 3, 5}


def points_on_every_arc_by_fractions(quintic):
    """The arc walk on Fraction points: the same Sturm chain and bisection order."""
    f = list(itertools.dropwhile(lambda c: c == 0, quintic))
    if not f:
        return []
    chain = [f, [(len(f) - 1 - i) * c for i, c in enumerate(f[:-1])]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        while len(a) >= len(b):
            a = [abs(b[0]) * x - (a[0] if b[0] > 0 else -a[0]) * y
                 for x, y in zip(a[1:], b[1:] + [0] * len(a))]
        rem = [-c for c in itertools.dropwhile(lambda c: c == 0, a)]
        if not rem:
            break
        content = math.gcd(*rem)
        chain.append([c // content for c in rem])

    def counted(x):
        signs = [v > 0 for v in (quadform.binary_form_eval(g, x.numerator, x.denominator) for g in chain) if v]
        return x, sum(a != b for a, b in zip(signs, signs[1:]))

    bound = Fraction(2 ** (max(abs(c) for c in f) // abs(f[0]) + 1).bit_length())
    points = [counted(-bound), counted(bound)]
    pieces = [tuple(points)]
    while pieces:
        (a, va), (b, vb) = pieces.pop()
        if va - vb > 1:
            m = (a + b) / 2
            while quadform.binary_form_eval(f, m.numerator, m.denominator) == 0:
                m = (a + m) / 2
            points.append(counted(m))
            pieces += [((a, va), points[-1]), (points[-1], (b, vb))]
    points.sort()
    return [(x.numerator, x.denominator) for i, (x, v) in enumerate(points) if i == 0 or v != points[i - 1][1]]


def form_from_roots(roots):
    """Coefficients, from k^5 down, of the product of the linear forms t k - r l over roots (r : t)."""
    coeffs = [1]
    for r, t in roots:
        coeffs = [t * a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def test_arc_walk_on_dyadics_matches_the_fraction_walk():
    rng = random.Random(31)
    quintics = []
    for n in range(600):
        quintic = [rng.randint(-9, 9) for _ in range(6)]
        if n % 3 == 0:  # leading zeros: a root at (1 : 0)
            zeros = rng.randint(1, 3)
            quintic[:zeros] = [0] * zeros
        if n % 4 == 0:  # a root at 0
            quintic[-1] = 0
        quintics.append(quintic)
    for _ in range(150):  # narrow arcs: roots r/t and (r + 1)/t a 1/t apart, t up to 5000
        t = rng.choice([2 ** rng.randint(3, 12), rng.randint(100, 5000)])
        r = rng.randint(-3 * t, 3 * t)
        rest = [(rng.randint(-5, 5), rng.randint(0, 3)) for _ in range(3)]
        quintics.append(form_from_roots([(r, t), (r + 1, t)] + [w for w in rest if w != (0, 0)]))
        quintics[-1] = [0] * (6 - len(quintics[-1])) + quintics[-1]
    quintics += [[0] * 6, [0, 0, 0, 0, 0, 7], form_from_roots([(0, 1), (1, 1024), (1, 1000), (1, 0), (-1, 1)])]
    for quintic in quintics:
        assert localsolve._points_on_every_arc(quintic) == points_on_every_arc_by_fractions(quintic), quintic


def decide_R_by_the_walk(g):
    """(status, witness, method) of decide_R from the arc walk alone, minors by mat_det."""
    for r, t in points_on_every_arc_by_fractions(g.quintic):
        member = g.member(r, t)
        minors = [mat_det([row[:k] for row in member[:k]]) for k in range(1, 6)]
        if all(d > 0 for d in minors) or all((-1) ** k * d > 0 for k, d in enumerate(minors, 1)):
            return "insoluble", f"({r}:{t})", "definite pencil member"
    return "soluble", None, "theorem: no definite pencil member (Finsler-Calabi)"


def test_the_diagonal_test_agrees_with_the_arc_walk(monkeypatch):
    # plain pencils (entries in [-3, 3]) and diagonal-biased ones (entries
    # off the diagonal in [-1, 1], diagonal pairs (a_i, b_i) in [-6, 6]^2 with
    # u a_i + v b_i > 0 for a random (u, v), one pair in four unconstrained),
    # decided by decide_R and by the walk alone; whenever the diagonal pairs
    # lie in no open half-plane, decide_R must not walk, and the walk finds no
    # definite member
    rng = random.Random(29)
    walks = []
    real_walk = localsolve._points_on_every_arc
    monkeypatch.setattr(localsolve, "_points_on_every_arc", lambda f: walks.append(f) or real_walk(f))
    counts = {"diagonal": 0, "walked": 0, "insoluble": 0}
    for n in range(2000):
        mats = [[[0] * 5 for _ in range(5)] for _ in range(2)]
        size = 1 if n % 2 else 3
        for m in mats:
            for i, j in itertools.combinations_with_replacement(range(5), 2):
                m[i][j] = m[j][i] = rng.randint(-size, size)
        if n % 2:
            u, v = rng.choice([(u, v) for u in range(-3, 4) for v in range(-3, 4) if u or v])
            for i in range(5):
                while True:
                    a, b = rng.randint(-6, 6), rng.randint(-6, 6)
                    if u * a + v * b > 0 or rng.random() < 0.25:
                        break
                mats[0][i][i], mats[1][i][i] = a, b
        g = GeneralSurface(*(tuple(map(tuple, m)) for m in mats))
        verdict = decide_R(g)
        expected = decide_R_by_the_walk(g)
        assert (verdict.status, verdict.witness, verdict.method) == expected, g
        decided = not in_open_half_plane([(g.mat1[i][i], g.mat2[i][i]) for i in range(5)])
        assert not decided or expected[0] == "soluble", g
        counts["diagonal" if decided else "walked"] += 1
        counts["insoluble"] += expected[0] == "insoluble"
    assert len(walks) == counts["walked"]
    assert counts["diagonal"] > 1000 and counts["walked"] > 500 and counts["insoluble"] > 200, counts


def test_family_pencils_are_decided_at_the_real_place_by_the_diagonal(monkeypatch):
    # the pencils of the benchmark's pencil workload: to_matrices of both
    # families at p = 5, 13, 29, 37, and BSD
    pencils = [BSD]
    for p in (5, 13, 29, 37):
        pencils += [to_matrices(make_Y(p, a, (p - 1) // a)) for a in divisors(p - 1)]
        t0 = 3 * (p - 1) // 4 % 8 or 8
        pencils += [to_matrices(make_S(*s_from_t(p, t0 + 8 * k))) for k in range(5)]

    def no_walk(quintic):
        raise AssertionError("decide_R walked the arcs")

    monkeypatch.setattr(localsolve, "_points_on_every_arc", no_walk)
    for g in pencils:
        assert decide_R(g) == SolubilityVerdict(0, "soluble",
                                                method="theorem: no definite pencil member (Finsler-Calabi)")


Y17_PENCIL = to_matrices(make_Y(17, 16, 1))


def scaled(g, r, t):
    return GeneralSurface(*(tuple(tuple(c * a for a in row) for row in m) for c, m in ((r, g.mat1), (t, g.mat2))))


@pytest.mark.parametrize("g", [BSD, Y17_PENCIL])
def test_a_pencils_content_moves_no_finite_place(g):
    # the walks read the content-free forms, so multiplying the quadrics by
    # 3 and 5 leaves every row at a prime as it was
    def finite_rows(h):
        return [row for row in everywhere_locally_soluble_general(h).rows if row[0] != "oo"]

    rows = finite_rows(g)
    for r, t in ((3, 5), (5, 3), (11, 13)):
        assert finite_rows(scaled(g, r, t)) == rows


@pytest.mark.parametrize("g, level", [(BSD, 3), (Y17_PENCIL, 7)])
def test_the_witness_at_2_lifts_on_the_given_matrices(g, level):
    verdict = decide_Qq(g, 2)
    assert (verdict.status, verdict.level) == ("soluble", level)
    pt = newton_refine(g, verdict.witness, 40)
    for m in (g.mat1, g.mat2):
        assert sum(x * a * y for x, row in zip(pt.coords, m) for a, y in zip(row, pt.coords)) % 2 ** 40 == 0


def first_family(primes):
    return [make_Y(p, a, (p - 1) // a) for p in primes if p % 4 == 1 and is_prime(p) for a in divisors(p - 1)]


def test_first_family_pencils_are_decided_at_2_at_their_subfamily_level():
    # to_matrices doubles both forms; their content-free forms are eq1 and
    # eq2 again, so each pencil is decided where its subfamily form is (the
    # doubled forms went four levels deeper)
    surfaces = first_family(range(5, 114))
    assert len(surfaces) == 118
    for s in surfaces:
        general, subfamily = decide_Qq(to_matrices(s), 2), decide_Qq(s, 2)
        assert (general.status, general.level) == (subfamily.status, subfamily.level), s


def test_family_pencils_read_no_more_nodes_at_2_than_their_subfamily_form(monkeypatch):
    # the pencil benchmark's family rows (p in {5, 13, 29, 37}: every first-
    # family row and the first four admissible t of the second); node reads
    # repeat exactly, unlike times
    surfaces = first_family((5, 13, 29, 37))
    for p in (5, 13, 29, 37):
        t0 = 3 * (p - 1) // 4 % 8 or 8
        surfaces += [make_S(*s_from_t(p, t0 + 8 * k)) for k in range(4)]
    reads = [0]
    real_node = localsolve._node

    def node(surface, pt):
        reads[0] += 1
        return real_node(surface, pt)

    def walked(surface):
        reads[0] = 0
        decide_Qq(surface, 2)
        return reads[0]

    monkeypatch.setattr(localsolve, "_node", node)
    for s in surfaces:
        assert walked(to_matrices(s)) <= walked(s), s


def test_level1_draws_beyond_the_budget_prove_q_prime_at_most_once(monkeypatch):
    # past RESIDUE_ENUM_BUDGET each slot takes its roots by Tonelli-Shanks,
    # with the non-residue found once and q not proved prime again
    q = 10037
    s = make_Y(q, 1, q - 1)
    calls = [0]
    real = arith.is_prime

    def counted(n):
        calls[0] += 1
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(localsolve, "is_prime", counted)
    draws = localsolve._level1_draws(s, q, random.Random(0))
    assert sum(1 for _ in itertools.islice(draws, 100)) == 100
    assert calls[0] <= 1


def test_level1_draws_beyond_the_budget_need_a_prime():
    with pytest.raises(ValueError, match="30021 is not prime"):
        next(iter_residue_points(Y_13_2_6, 3 * 10007, random.Random(0)))


@pytest.mark.parametrize("q", [9, 15, 3 * 10007])
def test_every_listing_rejects_a_q_that_is_not_prime(q):
    # the level-1 listing proves q prime once; no walk lists "points" mod 9
    message = f"^{q} is not prime$"
    for rng in (None, random.Random(0)):
        with pytest.raises(ValueError, match=message):
            next(iter_residue_points(Y_13_2_6, q, rng))
    with pytest.raises(ValueError, match=message):
        sample_local_points(Y_13_2_6, q, 4, 6)
    for s in (Y_13_2_6, to_matrices(Y_13_2_6)):
        with pytest.raises(ValueError, match=message):
            decide_Qq(s, q)


def test_q_is_proved_prime_once_per_decision_and_per_sample(monkeypatch):
    proofs = []
    real = arith.is_prime

    def counted(n):
        proofs.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(localsolve, "is_prime", counted)
    decisions = [(Y_13_2_6, 2), (Y_13_2_6, 13), (to_matrices(make_Y(17, 16, 1)), 2),
                 (SubfamilySurface(13, 2, -4, 3, 6, 16), 2), (make_Y(10037, 1, 10036), 10037)]
    for s, q in decisions:
        proofs.clear()
        decide_Qq(s, q)
        assert proofs.count(q) == 1, (s, q)
    samples = [(Y_13_2_6, 2, 64, 14), (Y_13_2_6, 13, 20, 4), (CASE_PATTERN_SURFACES["case2"], 13, 64, 8),
               (make_Y(10037, 1, 10036), 10037, 8, 4)]
    for s, q, count, precision in samples:
        proofs.clear()
        sample_local_points(s, q, count, precision)
        assert proofs.count(q) == 1, (s, q)


def test_newton_refine_checks_the_certificate_minor():
    # a certificate whose e is off by one, either way, is caught at the first
    # Newton step; the correct one refines the reduced point
    full = next(pt for pt in sample_local_points(Y_13_2_6, 2, 8, 14, seed=3) if pt.cert.e == 2)
    start = full.reduce(2 * full.cert.e + 1)
    assert all(f % 2 ** 14 == 0 for f in Y_13_2_6.equations(newton_refine(Y_13_2_6, start, 14).coords))
    for e in (full.cert.e - 1, full.cert.e + 1):
        wrong = localsolve.PadicApproxPoint(2, start.k, start.coords, start.pinned,
                                            localsolve.LiftCertificate(full.cert.cols, e))
        with pytest.raises(ArithmeticError, match="certificate minor valuation drifted during refinement"):
            newton_refine(Y_13_2_6, wrong, 14)


def test_a_reduced_point_keeps_its_certificate_only_while_it_applies():
    # a minor of valuation e proves a Q_q point only from k = 2e + 1 on
    checked = 0
    for full in sample_local_points(Y_13_2_6, 2, 8, 14, seed=3):
        e = full.cert.e
        if e:
            assert [full.reduce(k).cert for k in range(1, full.k + 1)] == [None] * 2 * e + [full.cert] * (full.k - 2 * e)
            checked += 1
    assert checked > 0


def test_newton_refine_needs_a_certificate_and_reduces_below_its_precision():
    uncertified = next(pt for pt in iter_residue_points(Y_13_2_6, 2) if lift_certificate(Y_13_2_6, pt) is None)
    with pytest.raises(ValueError, match="point carries no lift certificate"):
        newton_refine(Y_13_2_6, uncertified, 10)
    full = sample_local_points(Y_13_2_6, 2, 1, 14, seed=3)[0]
    assert newton_refine(Y_13_2_6, full, 14) is full
    assert newton_refine(Y_13_2_6, full, 9) == full.reduce(9)


def count_quintics(monkeypatch) -> list:
    """Record each computation of a pencil quintic; GeneralSurface.quintic is its one call site."""
    calls = []
    real = quadform.discriminant_quintic

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(quadform, "discriminant_quintic", counted)
    return calls


def test_general_report_computes_the_quintic_once(monkeypatch):
    calls = count_quintics(monkeypatch)
    g = GeneralSurface(BSD.mat1, BSD.mat2)  # a fresh pencil: BSD keeps the quintic earlier tests worked out
    rep = everywhere_locally_soluble_general(g)
    assert len(calls) == 1
    assert rep.rows[0][1] == decide_R(BSD)


def test_one_resultant_per_pencil_across_the_pencil_reports(monkeypatch):
    # order4_test and validate_pencil read the resultant of the quintic's
    # partials held on the pencil
    calls = []
    real = quadform.quintic_partials_resultant
    monkeypatch.setattr(quadform, "quintic_partials_resultant", lambda f: calls.append(f) or real(f))
    g = to_matrices(make_Y(13, 2, 6))
    assert order4_test(g).quintic_squarefree
    assert len(calls) == 1
    everywhere_locally_soluble_general(g)
    assert len(calls) == 1 and g.partials_resultant == real(g.quintic) != 0


def test_one_quintic_per_pencil_across_the_pencil_reports(monkeypatch):
    # order4_test, the local solubility report and decide_R all read the
    # quintic held on the pencil; it is worked out once, on first use
    calls = count_quintics(monkeypatch)
    g = GeneralSurface(BSD.mat1, BSD.mat2)
    rep = order4_test(g)
    report = everywhere_locally_soluble_general(g)
    assert decide_R(g) == report.rows[0][1]
    assert len(calls) == 1 and calls[0] is g
    assert g.quintic == rep.quintic == tuple(discriminant_quintic(g))


# pencils whose quintic det(k*mat1 + l*mat2) has a repeated root
REPEATED_ROOT_PENCILS = [
    (GeneralSurface(diag(1, 1, 1, 1, 1), diag(0, 0, 1, 2, 3)), [1, 6, 11, 6, 0, 0]),  # k^2 at (0 : 1)
    (GeneralSurface(diag(1, 1, 1, 1, 1), diag(1, 1, 2, 3, 4)), [1, 11, 45, 85, 74, 24]),  # (k + l)^2
    (GeneralSurface(diag(0, 0, 1, 1, 1), diag(1, 1, 2, 3, 4)), [0, 0, 1, 9, 26, 24]),  # l^2 at (1 : 0)
]
ZERO_PENCIL = GeneralSurface(diag(0, 0, 0, 0, 0), diag(0, 0, 0, 0, 0))


@pytest.mark.parametrize("g, quintic", REPEATED_ROOT_PENCILS)
def test_general_report_rejects_a_quintic_with_a_repeated_root(g, quintic):
    assert discriminant_quintic(g) == quintic
    with pytest.raises(ValueError, match="pencil quintic is not squarefree; the surface is singular"):
        everywhere_locally_soluble_general(g)


def test_general_report_rejects_the_zero_pencil():
    with pytest.raises(ValueError, match="pencil discriminant vanishes identically"):
        everywhere_locally_soluble_general(ZERO_PENCIL)


def test_certificate_draws_decide_a_bad_prime_beyond_the_enumeration_budget(monkeypatch):
    # mod 61 > GENERAL_ENUM_BUDGET the quintic k (k + 61 l) (k - 122 l) (3 l - k) l
    # has the triple root (0 : 1), so 61 is no theorem row: it is decided by
    # the walk's certificate draws.  A seeded smooth F_61 point proves
    # solubility there; with no draw left the row is inconclusive, never
    # insoluble
    g = GeneralSurface(diag(1, 1, 1, -1, 0), diag(0, 61, -122, 3, 1))

    def row61():
        rep = everywhere_locally_soluble_general(g)
        return rep, {label: v for label, v, _ in rep.rows}["61"]

    rep, verdict = row61()
    assert (verdict.status, verdict.level, verdict.witness.cert.e) == ("soluble", 1, 0)
    assert lift_certificate(g, verdict.witness) == verdict.witness.cert
    assert 61 in rep.decided_places and rep.everywhere_soluble is True
    monkeypatch.setattr(localsolve, "CERTIFICATE_DRAWS", 0)
    rep, verdict = row61()
    assert (verdict.status, verdict.method) == ("inconclusive", "certificate draws exhausted")
    assert rep.everywhere_soluble is None


def theorem_test_pencils():
    """The family pencils of the pencil workload and of make_Y for 13 <= p <= 53,
    and the smooth pencils among 600 with entries in [-1, 1]."""
    pencils = [to_matrices(make_Y(p, a, (p - 1) // a))
               for p in range(13, 54, 4) if is_prime(p) for a in divisors(p - 1)]
    for p in (5, 13, 29, 37):
        t0 = 3 * (p - 1) // 4 % 8 or 8
        pencils += [to_matrices(make_S(*s_from_t(p, t0 + 8 * k))) for k in range(5)]
    rng = random.Random(11)
    for _ in range(600):
        mats = [[[0] * 5 for _ in range(5)] for _ in range(2)]
        for m in mats:
            for i, j in itertools.combinations_with_replacement(range(5), 2):
                m[i][j] = m[j][i] = rng.randint(-1, 1)
        g = GeneralSurface(*(tuple(map(tuple, m)) for m in mats))
        if quadform.quintic_partials_resultant(g.quintic):
            pencils.append(g)
    return pencils


def test_the_nodal_reduction_theorem_agrees_with_the_walk():
    # at every odd bad prime 11 <= q <= GENERAL_ENUM_BUDGET, where the walk is
    # exhaustive, a theorem row is soluble by the walk too
    theorem = walked = 0
    for g in theorem_test_pencils():
        quintic, res = quadform.validate_pencil(g)
        for q in sorted(set(arith.factor(abs(res)))):
            if 11 <= q <= localsolve.GENERAL_ENUM_BUDGET:
                nodal = localsolve._nodal_reduction(quintic, q)
                theorem += nodal is not None
                walked += nodal is None
                assert nodal is None or decide_Qq(g, q).soluble, (g, q)
    assert theorem > 200 and walked > 50


def test_a_prime_with_a_triple_root_is_still_walked():
    # mod 13 the quintic k (k + 13 l) (k - 26 l) (3 l - k) l has the triple
    # root (0 : 1); mod 23 it has one double root and is a theorem row
    g = GeneralSurface(diag(1, 1, 1, -1, 0), diag(0, 13, -26, 3, 1))
    rows = {label: v for label, v, _ in everywhere_locally_soluble_general(g).rows}
    assert localsolve._nodal_reduction(g.quintic, 13) is None
    assert rows["13"] == decide_Qq(g, 13) and rows["13"].witness is not None
    assert (rows["23"].status, rows["23"].witness) == ("soluble", None)
    assert rows["23"].method == ("theorem: nodal reduction, the quintic mod q has 1 double root "
                                 "and no triple root")


def test_pencils_of_the_second_family_are_decided_at_every_bad_prime():
    # the paper's obstructed S_13_153_179 and the pencil workload's S rows
    # (p in {5, 13, 29, 37}, the first five admissible t): every bad prime
    # above GENERAL_ENUM_BUDGET is proved soluble, and the verdict agrees
    # with the subfamily path
    surfaces = [make_S(13, 153, 179)]
    for p in (5, 13, 29, 37):
        t0 = 3 * (p - 1) // 4 % 8 or 8
        surfaces += [make_S(*s_from_t(p, t0 + 8 * k)) for k in range(5)]
    large = set()
    for s in surfaces:
        rep = everywhere_locally_soluble_general(to_matrices(s))
        assert all(v.status != "inconclusive" for _, v, _ in rep.rows if v is not None), s
        assert rep.everywhere_soluble is everywhere_locally_soluble(s).everywhere_soluble is True, s
        large.update((s, q) for q in rep.decided_places if q > localsolve.GENERAL_ENUM_BUDGET)
    assert (surfaces[0], 179) in large and len(large) > 20


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_kernel_mod_against_brute_force(q):
    # seeded 10x5 and 5x5 matrices: the basis lies in the kernel, is
    # independent, and spans q^dim vectors, the kernel's size by enumeration
    rng = random.Random(q)
    for rows in (10, 5, 5, 5):
        m = [[rng.choice((0, 0, rng.randrange(-9, 10))) for _ in range(5)] for _ in range(rows)]
        basis = localsolve._kernel_mod(m, q)
        size = sum(all(sum(a * b for a, b in zip(row, x)) % q == 0 for row in m)
                   for x in itertools.product(range(q), repeat=5))
        assert size == q ** len(basis)
        span = {tuple(sum(c * v[i] for c, v in zip(cs, basis)) % q for i in range(5))
                for cs in itertools.product(range(q), repeat=len(basis))}
        assert len(span) == size and all(sum(a * b for a, b in zip(row, x)) % q == 0 for row in m for x in span)
    # seeded 2x4 digit systems, built as _node builds them (J | rhs | identity)
    # and reduced with pivots in the first four columns only: the rows past
    # the pivots flag exactly the systems with no solution in F_q^4, and their
    # last two entries annihilate the matrix and span its left kernel mod q
    for _ in range(60):
        j1 = [rng.choice((0, rng.randrange(-9, 10))) for _ in range(4)]
        j2 = [rng.choice((0, rng.randrange(-9, 10))) if rng.random() < 0.6 else rng.randrange(4) * a for a in j1]
        rhs = [rng.randrange(-9, 10), rng.randrange(-9, 10)]
        mat, pivots = localsolve._rref_mod([j1 + [rhs[0], 1, 0], j2 + [rhs[1], 0, 1]], q, 4)
        rest = mat[len(pivots):]
        soluble = any(all((sum(a * b for a, b in zip(j, t)) - r) % q == 0 for j, r in zip((j1, j2), rhs))
                      for t in itertools.product(range(q), repeat=4))
        assert soluble is not any(row[4] for row in rest)
        assert all((row[5] * a + row[6] * b) % q == 0 for row in rest for a, b in zip(j1, j2))
        left = sum(all((l1 * a + l2 * b) % q == 0 for a, b in zip(j1, j2))
                   for l1, l2 in itertools.product(range(q), repeat=2))
        assert left == q ** len(rest)


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_double_roots_of_products_of_linear_forms(q):
    # a form with known roots in P^1(F_q), maybe times an irreducible
    # quadratic: None exactly when a root has multiplicity >= 3, else the
    # double roots, (1 : 0) apart; every odd q, 3 included
    rng = random.Random(q)
    nonsquare = next(a for a in range(2, q) if legendre(a, q) == -1)
    for _ in range(300):
        degree = rng.choice((4, 5))
        roots = [rng.choice([(1, 0)] + [(r, 1) for r in range(q)]) for _ in range(degree - 2)]
        tail = [] if rng.random() < 0.5 else [[1, 0, -nonsquare]]  # k^2 - n l^2, no root in F_q
        if not tail:
            roots += [rng.choice([(1, 0)] + [(r, 1) for r in range(q)]) for _ in range(2)]
        form = [1]
        for factor in [[t, -r] for r, t in roots] + tail:  # t k - r l, coefficients from k first
            form = [sum(form[i] * factor[n - i] for i in range(len(form)) if 0 <= n - i < len(factor))
                    for n in range(len(form) + len(factor) - 1)]
        mult = {root: roots.count(root) for root in roots}
        unit = rng.randrange(1, q)
        got = localsolve._double_roots([unit * c for c in form], q)
        if max(mult.values()) >= 3:
            assert got is None, (form, roots)
        else:
            d, at_inf = got
            doubles = sorted(r for (r, t), m in mult.items() if m == 2 and t)
            assert at_inf == (mult.get((1, 0)) == 2) and len(d) - 1 == len(doubles), (form, roots)
            assert all(localsolve._poly_divmod(d, [-r % q, 1], q)[1] == [] for r in doubles)


def report_rows(monkeypatch, g):
    """{q: method} for the report's theorem rows at primes, and the primes it sends to decide_Qq (stubbed)."""
    walked = []

    def stub(surface, q, budget=localsolve.DEFAULT_EXPANSION_BUDGET):
        walked.append(q)
        return SolubilityVerdict(q, "inconclusive")

    monkeypatch.setattr(localsolve, "decide_Qq", stub)
    rows = everywhere_locally_soluble_general(g).rows
    monkeypatch.undo()
    theorems = {int(label): v.method for label, v, _ in rows if label.isdigit() and v.witness is None
                and v.method.startswith("theorem")}
    assert not set(theorems) & set(walked) and 2 in walked
    return theorems, walked


def content_free_disc(g):
    """Disc(f_cf) up to sign, f_cf = det(k G1 + l G2) worked out from the content-free forms themselves."""
    return quadform.quintic_partials_resultant(discriminant_quintic(GeneralSurface(*g.hessians))) // 125


def seeded_cones(seed, n):
    """n smooth pencils, each with a prime q in {3, 5, 7, 11, 13} dividing row and column 2 of both
    forms: x2 spans a common kernel mod q, so the reduction is a cone (or worse)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        q = rng.choice((3, 5, 7, 11, 13))
        mats = [[[0] * 5 for _ in range(5)] for _ in range(2)]
        for m in mats:
            for i, j in itertools.combinations_with_replacement(range(5), 2):
                m[i][j] = m[j][i] = rng.randint(-2, 2) * (q if 2 in (i, j) else 1)
        g = GeneralSurface(*(tuple(map(tuple, m)) for m in mats))
        if any(g.quintic) and g.partials_resultant:
            out.append((g, q))
    return out


CONE_TYPES = {
    "genus one": "theorem: cone over a smooth genus-one curve (Hasse-Weil)",
    "[211]": "theorem: cone over a one-node quartic curve, Segre type [211]",
    "[(11)11]": "theorem: cone over two F_q-conics, Segre type [(11)11]",
}


def test_cone_rows_agree_with_the_walk():
    # Random(7): 1500 seeded cones, each read by _cone_reduction at its q with
    # f_cf = det(k G1 + l G2) worked out from the forms.  Every theorem row
    # is soluble by the exhaustive walk, and every insoluble cone is walked.
    # The counts are this seed's.
    counts = {kind: 0 for kind in (*CONE_TYPES, "walked", "insoluble")}
    for g, q in seeded_cones(7, 1500):
        method = localsolve._cone_reduction(g.hessians, discriminant_quintic(GeneralSurface(*g.hessians)), q)
        verdict = decide_Qq(g, q)
        if method is None:
            counts["walked"] += 1
            counts["insoluble"] += verdict.status == "insoluble"
        else:
            assert verdict.soluble, (g, q, method)
            counts[next(kind for kind, text in CONE_TYPES.items() if text == method)] += 1
    assert counts == {"genus one": 1087, "[211]": 174, "[(11)11]": 25, "walked": 214, "insoluble": 15}, counts


def test_good_reduction_rows_agree_with_the_walk(monkeypatch):
    # the 530 smooth pencils among Random(11)'s 600 with entries in [-1, 1]:
    # at q = 3, 5 and 7 prime to Disc(f_cf) (1182 primes) the walk finds a
    # point, and the report's rows at 3 and 5 are good-reduction theorem
    # rows exactly there
    pencils = theorem_test_pencils()[60:]
    assert len(pencils) == 530
    good = 0
    for g in pencils:
        disc = content_free_disc(g)
        theorems, walked = report_rows(monkeypatch, g)
        for q in (3, 5, 7):
            if disc % q:
                good += 1
                assert decide_Qq(g, q).soluble, (g, q)
            if q < 7:
                is_good = theorems.get(q) == "theorem: good reduction, a smooth F_q point (Chevalley-Warning)"
                assert is_good == (disc % q != 0), (g, q)
    assert good == 1182, good


def test_family_pencils_are_theorem_rows_at_p(monkeypatch):
    # both families for p <= 101: the cone at q = p is a theorem row, [211]
    # on the first family and [(11)11] on the second, and every theorem row
    # agrees with decide_Qq: the exhaustive walk up to GENERAL_ENUM_BUDGET,
    # its certificate draws beyond (where q = p was decided before).  110
    # pencils, 288 theorem rows, 57 of them at q = p > 60
    surfaces = first_family(range(5, 102))
    for p in range(5, 102, 8):  # the second family needs p = 5 mod 8
        if is_prime(p):
            t0 = 3 * (p - 1) // 4 % 8 or 8
            surfaces += [make_S(*s_from_t(p, t0 + 8 * k)) for k in range(2)]
    rows = beyond = 0
    for s in surfaces:
        g = to_matrices(s)
        theorems, _ = report_rows(monkeypatch, g)
        assert theorems[s.p] == CONE_TYPES["[211]" if s.C == 1 else "[(11)11]"], s
        for q in theorems:
            rows += 1
            beyond += q == s.p > localsolve.GENERAL_ENUM_BUDGET
            assert decide_Qq(g, q).soluble, (s, q)
    assert (len(surfaces), rows, beyond) == (110, 288, 57)


# mod 5 each is a cone with vertex x2 over a curve in (x0 : x1 : x3 : x4) of
# the named kind; the other roots of its quartic g are simple
CONSTRUCTED_CONES = [
    ("genus one", diag(1, 1, 5, 1, 1), diag(1, 2, 30, 3, 4)),  # g = (k + l)(k + 2l)(k + 3l)(k + 4l)
    ("[211]", ((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 5, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)),
     diag(1, 5, 10, 3, 4)),  # -k^2 (k + 3l)(k + 4l), the member at (0 : 1) of rank 3
    ("[(11)11]", diag(1, -1, 5, 5, 5), diag(1, 1, 10, 1, 2)),  # l^2 at x0^2 - x1^2, split
    ("walked", diag(1, -2, 5, 5, 5), diag(1, 1, 10, 1, 2)),  # l^2 at x0^2 - 2 x1^2, 2 no square mod 5
    ("walked", diag(1, 1, 5, 1, 1), diag(1, 6, 10, 11, 3)),  # (k + l)^3 (k + 3l)
    ("walked", diag(1, 5, 10, 1, 2), diag(3, 10, 15, 4, 1)),  # x1 and x2 span the common kernel
]


@pytest.mark.parametrize("kind, m1, m2", CONSTRUCTED_CONES)
def test_constructed_cones_at_5(monkeypatch, kind, m1, m2):
    g = GeneralSurface(m1, m2)
    theorems, walked = report_rows(monkeypatch, g)
    if kind == "walked":
        assert 5 in walked
        rows = {label: v for label, v, _ in everywhere_locally_soluble_general(g).rows}
        assert rows["5"] == decide_Qq(g, 5)
    else:
        assert theorems[5] == CONE_TYPES[kind] and decide_Qq(g, 5).soluble


def reference_general_level1(g, q):
    """The exhaustive order on a general pencil, as nested loops over the pinned tails."""
    out = []
    for pinned in range(5):
        for tail in itertools.product(range(q), repeat=4 - pinned):
            pt = (0,) * pinned + (1,) + tail
            if g.quad_value(0, pt) % q == 0 and g.quad_value(1, pt) % q == 0:
                out.append((pt, pinned))
    return out


def random_symmetric(rng):
    m = [[0] * 5 for _ in range(5)]
    for i, j in itertools.combinations_with_replacement(range(5), 2):
        m[i][j] = m[j][i] = rng.randint(-3, 3)
    return tuple(map(tuple, m))


ORDER_PENCILS = [GeneralSurface(random_symmetric(rng), random_symmetric(rng))
                 for rng in map(random.Random, range(3))] + [
    # x4 is absent from the first form, so each line over a zero of
    # 2 x0 x1 + x2^2 - x3^2 lies inside the first quadric
    GeneralSurface(((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, -1, 0), (0, 0, 0, 0, 0)),
                   ((1, 0, 1, 0, 0), (0, 2, 0, 1, 0), (1, 0, -1, 0, 1), (0, 1, 0, 3, 0), (0, 0, 1, 0, 5))),
    # the x4^2 coefficient 30030 = 2*3*5*7*11*13 vanishes mod every q tested,
    # the x4 coefficient 2 (x0 + x2) does not: the first form is linear in x4
    GeneralSurface(((1, 0, 0, 0, 1), (0, -1, 0, 0, 0), (0, 0, 2, 0, 1), (0, 0, 0, 1, 0), (1, 0, 1, 0, 30030)),
                   diag(1, 1, -1, 2, -3)),
]


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("g", ORDER_PENCILS)
def test_general_residue_order_is_the_nested_loop(g, q):
    assert [(pt.coords, pt.pinned) for pt in iter_residue_points(g, q)] == reference_general_level1(g, q)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
@pytest.mark.parametrize("g", ORDER_PENCILS + [BSD])
def test_seeded_plane_order_lists_each_point_once(g, q):
    exhaustive = [(pt.coords, pt.pinned) for pt in iter_residue_points(g, q)]
    for seed in range(3):
        drawn = [(pt.coords, pt.pinned) for pt in iter_residue_points(g, q, random.Random(seed))]
        assert len(drawn) == len(exhaustive) and set(drawn) == set(exhaustive)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 67, 101, 257])
def test_polynomial_roots_agree_with_brute_force(q):
    # _poly_roots scans up to ROOT_SCAN_BOUND and splits gcd(f, x^q - x)
    # beyond it; the split path is also forced at small odd q
    rng = random.Random(q)
    for _ in range(60):
        f = [rng.randrange(q) for _ in range(rng.randint(2, 5))]
        if rng.random() < 0.5:  # a product of linear factors, roots likely repeated
            f = [1]
            for r in (rng.randrange(q) for _ in range(4)):
                f = [(a - r * b) % q for a, b in zip([0] + f, f + [0])]
        if not any(f):
            continue
        brute = [x for x in range(q) if sum(c * x ** i for i, c in enumerate(f)) % q == 0]
        assert localsolve._poly_roots(f, q, random.Random(1)) == brute, (f, q)
        if q > 2:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(localsolve, "ROOT_SCAN_BOUND", 0)
                assert localsolve._poly_roots(f, q, random.Random(2)) == brute, (f, q)


def test_general_enumeration_budget_edge():
    assert localsolve.GENERAL_ENUM_BUDGET == 60
    pts = list(iter_residue_points(BSD, 59))
    assert pts and all(f % 59 == 0 for pt in pts for f in BSD.equations(pt.coords))
    with pytest.raises(EnumerationBudgetError):
        list(iter_residue_points(BSD, 61))


@pytest.mark.parametrize("p", [29, 37, 53, 61])
def test_general_path_agrees_with_the_subfamily_path(p):
    # to_matrices doubles each form, so at odd q both zero sets coincide; at
    # p = 61 > GENERAL_ENUM_BUDGET the general path decides p by certificate draws
    def statuses(rep):
        return {label: v.status for label, v, _ in rep.rows if v is not None}

    for a in divisors(p - 1):
        s = make_Y(p, a, (p - 1) // a)
        g = to_matrices(s)
        general, sub = everywhere_locally_soluble_general(g), everywhere_locally_soluble(s)
        assert general.everywhere_soluble == sub.everywhere_soluble is not None, (p, a)
        ours, theirs = statuses(general), statuses(sub)
        assert "inconclusive" not in ours.values(), (p, a)
        assert all(ours[label] == theirs[label] for label in ours.keys() & theirs.keys()), (p, a)
        if a in (2, p - 1) and p <= localsolve.GENERAL_ENUM_BUDGET:
            assert ([pt.coords for pt in iter_residue_points(g, p)]
                    == [pt.coords for pt in iter_residue_points(s, p)])


def test_soluble_witnesses_verify():
    for s, q in [(Y_13_2_6, 2), (Y_13_2_6, 13), (S_13, 13),
                 # no 2-adic certificate below level 11 in the walk's order
                 (SubfamilySurface(13, -1, -6, 1, -6, 8), 2), (to_matrices(make_Y(17, 16, 1)), 2)]:
        v = decide_Qq(s, q)
        assert v.soluble
        w = v.witness
        mod = q ** w.k
        assert all(f % mod == 0 for f in s.equations(w.coords))
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
    assert check_subfamily(s2).valid
    for q in (3, 7, 11):
        if W % q == 0 or p % q == 0:
            continue
        assert len(list(iter_residue_points(s, q))) == len(list(iter_residue_points(s2, q))), q


def test_sampling_insoluble_surface_raises(monkeypatch):
    from dp4.localsolve import SamplingBudgetError

    monkeypatch.setattr(localsolve, "SAMPLING_BUDGET", 30_000)
    with pytest.raises(SamplingBudgetError) as err:
        sample_local_points(INSOLUBLE_AT_P[0], 5, 4, 6)
    assert err.value.points == []


@pytest.mark.parametrize("s, q, count, precision, budget", [
    (Y_13_2_6, 2, 64, 14, 50),  # the lift budget runs out in pass 2
    (CASE_PATTERN_SURFACES["p3mod4"], 2, 64, 14, 50),
    (CASE_PATTERN_SURFACES["p3mod4"], 2, 64, 14, 2000),  # every class explored: 60 points
])
def test_a_short_sample_carries_its_certified_points(monkeypatch, s, q, count, precision, budget):
    from dp4.localsolve import SamplingBudgetError

    monkeypatch.setattr(localsolve, "SAMPLING_BUDGET", budget)
    with pytest.raises(SamplingBudgetError, match=f"points at q={q}$") as err:
        sample_local_points(s, q, count, precision)
    points = err.value.points
    assert 0 < len(points) < count
    assert len({pt.coords for pt in points}) == len(points)
    for pt in points:
        assert (pt.q, pt.k) == (q, precision)
        assert pt.cert is not None and lift_certificate(s, pt) == pt.cert
        assert all(e % q ** precision == 0 for e in s.equations(pt.coords))


def test_y_family_points_at_p_have_unit_u():
    # on the first family every primitive Q_p point has a p-adic unit u
    # (reducing u = 0 mod p forces v, x, y, z = 0 mod p in turn)
    for (p, a, b) in [(13, 2, 6), (13, 1, 12), (5, 2, 2), (17, 2, 8)]:
        s = SubfamilySurface(p, a, -p, 1, -b, 1)
        for pt in sample_local_points(s, p, 16, 6, seed=4):
            assert pt.coords[0] % p != 0, (s, pt)
