from fractions import Fraction

import pytest

from dp4 import brauer, localsolve
from dp4.arith import PLACE_INF, PadicScalar, Place, hilbert_symbol, legendre
from dp4.brauer import (
    CLASS_TAGS,
    IndeterminateEvaluationError,
    _direct_value,
    bm_verdict,
    class_representations,
    evaluate_invariant,
    invariant_image,
    quadres_counts,
    quadres_witness,
    reciprocity_check,
    relevant_places,
    s_family_params,
    surjectivity_witness,
    y_family_params,
)
from dp4.families import make_Y
from dp4.localsolve import sample_local_points
from dp4.quadform import SubfamilySurface

from helpers import CASE_PATTERN_SURFACES, INSOLUBLE_AT_P

ZERO = Fraction(0)
HALF = Fraction(1, 2)

Y_13_2_6 = SubfamilySurface(13, 2, -13, 1, -6, 1)
Y_13_1_12 = SubfamilySurface(13, 1, -13, 1, -12, 1)
Y_13_12_1 = SubfamilySurface(13, 12, -13, 1, -1, 1)
S_13 = SubfamilySurface(13, 1, 1, 153, 179, 1)


def test_family_detection():
    assert y_family_params(Y_13_2_6) == (13, 2, 6)
    assert y_family_params(S_13) is None
    assert s_family_params(S_13) == (13, 153, 179)
    assert s_family_params(Y_13_2_6) is None


def test_representation_consistency_on_sampled_points():
    # every pair of simultaneously determinate representations agrees
    # (evaluate_invariant asserts this internally; drive it over many points)
    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case2"]):
        for q in (2, 3, s.p):
            for pt in sample_local_points(s, q, 12, 14 if q == 2 else 8, seed=3):
                for tag in CLASS_TAGS:
                    try:
                        evaluate_invariant(s, tag, pt)
                    except IndeterminateEvaluationError:
                        pass


def test_eval_reps_agrees_with_hilbert_symbol_per_representative(monkeypatch):
    # one representative at a time, the integer-valuation loop must give
    # (p, n/d)_q as hilbert_symbol computes it from the Fraction n/d: at exact
    # points wherever n, d are nonzero, at p-adic points wherever n and d are
    # determinate mod q^k, and nothing at the other p-adic points
    def symbol_value(s, rep, coords, q):
        sym = hilbert_symbol(s.p, Fraction(rep.eval_num(coords), rep.eval_den(coords)), Place(q))
        return ZERO if sym == 1 else HALF

    def determinate(x, q, k):
        scalar = PadicScalar.from_residue(q, x, k)
        return scalar.k >= (3 if q == 2 else 1)

    checked = skipped = 0
    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case2"]):
        for q in (2, 3, s.p):
            sampled = sample_local_points(s, q, 12, 14 if q == 2 else 8, seed=3)
            # low precisions too, where some representatives are indeterminate
            for pt in (full.reduce(k) for full in sampled for k in (1, 2, 3, full.k)):
                for tag in CLASS_TAGS:
                    for rep in class_representations(s, tag):
                        monkeypatch.setattr(brauer, "class_representations", lambda *_: (rep,))
                        n, d = rep.eval_num(pt.coords), rep.eval_den(pt.coords)
                        got_exact = brauer._eval_reps(s, tag, pt.coords, Place(q))
                        got_local = brauer._eval_reps(s, tag, pt, None)
                        monkeypatch.undo()
                        if n == 0 or d == 0:
                            assert got_exact is None
                        else:
                            assert got_exact == symbol_value(s, rep, pt.coords, q)
                        if determinate(n, q, pt.k) and determinate(d, q, pt.k):
                            assert got_local == symbol_value(s, rep, pt.coords, q)
                            checked += 1
                        else:
                            assert got_local is None
                            skipped += 1
    assert checked > 500 and skipped > 500


def test_invariant_A_at_p_is_half_on_obstructed_family_member():
    for pt in sample_local_points(Y_13_2_6, 13, 16, 8, seed=5):
        assert evaluate_invariant(Y_13_2_6, "A", pt) == HALF


def test_invariant_A_away_from_p_vanishes():
    for q in (2, 3, 5):
        for pt in sample_local_points(Y_13_2_6, q, 10, 14 if q == 2 else 8, seed=5):
            assert evaluate_invariant(Y_13_2_6, "A", pt) == ZERO


def test_invariant_B_flip_for_3mod4():
    s = CASE_PATTERN_SURFACES["p3mod4"]
    pts = sample_local_points(s, 7, 8, 8, seed=2)
    flipped_values = set()
    for pt in pts:
        mod = 7 ** pt.k
        u, v, x, y, z = pt.coords
        flip = (u, v, x, (-y) % mod, (-z) % mod)
        from dp4.localsolve import normalize_residue_tuple

        pt2 = normalize_residue_tuple(7, pt.k, flip)
        try:
            v1 = evaluate_invariant(s, "B", pt)
            v2 = evaluate_invariant(s, "B", pt2)
        except IndeterminateEvaluationError:
            continue
        assert v1 != v2
        flipped_values.add((v1, v2))
    assert flipped_values


def test_klein_four_identity():
    # C's own full direct path (refinement, then the local-constancy
    # fallback), not evaluate_invariant, which derives C from A and B
    checked = 0
    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case4"]):
        for q in (2, s.p):
            for pt in sample_local_points(s, q, 10, 14 if q == 2 else 8, seed=9):
                try:
                    a = evaluate_invariant(s, "A", pt)
                    b = evaluate_invariant(s, "B", pt)
                except IndeterminateEvaluationError:
                    continue
                c = _direct_value(s, "C", pt, None)
                if c is None:
                    continue
                assert (a + b) % 1 == c
                checked += 1
    assert checked > 0


def test_invariant_images_paper_values():
    images = invariant_image(Y_13_2_6, 13, use_theorems=False)
    assert set(images["B"].values) == {ZERO, HALF}
    assert set(images["A"].values) == {HALF}
    assert set(invariant_image(Y_13_1_12, 13, use_theorems=False)["A"].values) == {ZERO}
    assert set(invariant_image(S_13, 13, use_theorems=False)["B"].values) == {HALF}
    img = invariant_image(Y_13_2_6, 13)["A"]
    assert img.kind == "theorem" and set(img.values) == {HALF}


def test_bm_verdict_checks_the_klein_four_identity(monkeypatch):
    # with C's representatives swapped for A's, C = A + B fails wherever B is 1/2
    real = brauer.class_representations
    monkeypatch.setattr(brauer, "class_representations",
                        lambda s, tag: real(s, "A" if tag == "C" else tag))
    with pytest.raises(AssertionError, match="Klein-four identity fails"):
        bm_verdict(Y_13_2_6)


def test_bm_verdict_checks_family_theorems_against_the_sample(monkeypatch):
    real = brauer._theorem_image

    def wrong_for_a(s, tag, q):
        thm = real(s, tag, q)
        if tag == "A" and thm is not None:
            (value,) = thm.values
            thm = brauer.PlaceImage(frozenset({HALF - value}), thm.kind, thm.detail)
        return thm

    monkeypatch.setattr(brauer, "_theorem_image", wrong_for_a)
    with pytest.raises(AssertionError, match="family theorem and sampled image disagree"):
        bm_verdict(Y_13_2_6)


def test_bm_verdict_samples_each_place_once(monkeypatch):
    # one sample per relevant place serves all three classes, the theorem
    # cross-checks and the Klein-four check; the witness draws its own
    calls, in_witness = [], []
    real_sampler, real_witness = brauer.sample_local_points, brauer.surjectivity_witness

    def sampler(s, q, *args, **kwargs):
        if not in_witness:
            calls.append(q)
        return real_sampler(s, q, *args, **kwargs)

    def witness(*args, **kwargs):
        in_witness.append(True)
        try:
            return real_witness(*args, **kwargs)
        finally:
            in_witness.pop()

    monkeypatch.setattr(brauer, "sample_local_points", sampler)
    monkeypatch.setattr(brauer, "surjectivity_witness", witness)
    for s in (Y_13_2_6, S_13):
        calls.clear()
        bm_verdict(s)
        assert sorted(calls) == relevant_places(s)[0], s


def test_bm_verdict_draws_few_level1_points_at_large_p(monkeypatch):
    # the sampler draws level-1 points lazily instead of enumerating all
    # ~q^2 of them, so a verdict at p = 229 consumes only a few dozen
    consumed = [0]
    real = localsolve.iter_residue_points

    def counting(*args, **kwargs):
        for pt in real(*args, **kwargs):
            consumed[0] += 1
            yield pt

    monkeypatch.setattr(localsolve, "iter_residue_points", counting)
    bm_verdict(make_Y(229, 4, 57), seed=0)
    assert 0 < consumed[0] < 500


def test_class_representations_are_built_once_per_surface_and_class():
    reps = class_representations(Y_13_2_6, "B")
    assert isinstance(reps, tuple)
    assert class_representations(Y_13_2_6, "B") is reps
    assert class_representations(SubfamilySurface(13, 2, -13, 1, -6, 1), "B") is reps
    assert class_representations(S_13, "B") != reps


def test_quadres_counts_lemma_values():
    assert quadres_counts(13, 1, 1) == (1, 2, 3)
    assert quadres_counts(13, 1, 2) == (0, 3, 3)
    assert quadres_counts(17, 1, 1) == (1, 3, 4)


def brute_quadres(p, a, b):
    values = {(a + b * y * y) % p for y in range(1, p)}
    squares = {x * x % p for x in range(1, p)}
    zero = sum(1 for v in values if v == 0)
    sq = sum(1 for v in values if v in squares)
    return (zero, sq, len(values) - zero - sq)


@pytest.mark.parametrize("p", [13, 17, 29, 37])
def test_quadres_counts_formulas(p):
    nonsq = next(g for g in range(2, p) if legendre(g, p) == -1)
    for a in (1, 4):
        assert quadres_counts(p, a, 1) == brute_quadres(p, a, 1) == (1, (p - 5) // 4, (p - 1) // 4)
        assert quadres_counts(p, a, nonsq) == brute_quadres(p, a, nonsq) == (0, (p - 1) // 4, (p - 1) // 4)


def test_quadres_witness():
    y0 = quadres_witness(13, 1, 1, 1, 1)
    brute = next(y for y in range(1, 13)
                 if legendre(1 + y * y, 13) == -1 and legendre(1 + y * y, 13) == -1)
    assert y0 == brute
    assert quadres_witness(13, 1, 1, 4, 4) == y0  # scaling by squares changes nothing
    with pytest.raises(ValueError):
        quadres_witness(13, 2, 1, 1, 1)  # 2 is not a square mod 13


def test_witness_roots_that_do_not_exist_block_the_recipe():
    # the witness search then falls back on sampling instead of crashing
    from dp4.brauer import _ConstructionDegenerate, _unit_sqrt

    assert _unit_sqrt(13, 10, 4) ** 2 % 13 ** 4 == 10
    for bad in (2, 13, 0):  # a non-residue, a non-unit, zero
        with pytest.raises(_ConstructionDegenerate):
            _unit_sqrt(13, bad, 4)


def test_witness_paper_surfaces():
    w = surjectivity_witness(Y_13_2_6)
    assert w.tag == "B" and sorted(w.values) == [ZERO, HALF]
    w = surjectivity_witness(S_13)
    assert w.tag == "A" and sorted(w.values) == [ZERO, HALF]
    # the first constructed point is (1 : 0 : 0 : 0 : sqrt(AC))
    u, v, x, y, z = w.point1.coords
    assert (v, x, y) == (0, 0, 0) and u == 1
    mod = 13 ** w.point1.k
    assert (z * z - 153) % mod == 0
    w = surjectivity_witness(Y_13_1_12)
    assert w.tag == "B" and "case 1a" in " ".join(w.case_trace)


@pytest.mark.parametrize("name", sorted(CASE_PATTERN_SURFACES))
def test_witness_all_case_patterns(name):
    s = CASE_PATTERN_SURFACES[name]
    w = surjectivity_witness(s)
    assert not w.insoluble_at_p
    assert w.values[0] != w.values[1]
    # re-evaluate rather than trusting the recorded values
    assert evaluate_invariant(s, w.tag, w.point1) != evaluate_invariant(s, w.tag, w.point2)


def test_witness_insoluble_detection():
    for s in INSOLUBLE_AT_P[:2]:
        w = surjectivity_witness(s)
        assert w.insoluble_at_p


def test_witness_determinism():
    w1 = surjectivity_witness(Y_13_2_6, seed=4)
    w2 = surjectivity_witness(Y_13_2_6, seed=4)
    assert w1.point1.coords == w2.point1.coords and w1.point2.coords == w2.point2.coords


def test_bm_verdict_paper_surfaces():
    assert bm_verdict(Y_13_2_6).hp_obstructed_by == ("A",)
    rep = bm_verdict(Y_13_1_12)
    assert rep.hp_obstructed_by == () and rep.wa_failure
    assert bm_verdict(Y_13_12_1).hp_obstructed_by == ()
    rep_s = bm_verdict(S_13)
    assert rep_s.hp_obstructed_by == ("B",) and rep_s.wa_failure
    assert not rep_s.unknown_classes


def test_bm_verdict_requires_local_solubility():
    with pytest.raises(ValueError):
        bm_verdict(INSOLUBLE_AT_P[0])


def test_bm_verdict_json_shape():
    payload = bm_verdict(Y_13_2_6).to_json()
    entry = next(e for e in payload["entries"] if e["class"] == "A" and e["place"] == "13")
    assert entry["image"] == ["1/2"]
    assert entry["evidence"]["kind"] in ("theorem", "sampled", "witness-pair")


def test_reciprocity_at_paper_points():
    assert reciprocity_check(Y_13_1_12, (1, 0, 0, 0, 1))
    assert reciprocity_check(Y_13_12_1, (1, -3, 2, 7, 16))
    with pytest.raises(ValueError):
        reciprocity_check(Y_13_2_6, (1, 0, 0, 0, 1))  # not on the surface


@pytest.mark.parametrize("coeffs,point", [
    ((3, -4, 1, 1, -4, 1), (1, 4, 0, 2, 0)),
    ((5, -6, 1, -6, -4, 6), (1, 6, 0, 6, 0)),
    ((7, -6, 1, -4, -1, 6), (1, 6, 0, 6, 0)),
    ((13, -6, 1, -6, -3, 6), (1, 6, 0, 6, 0)),
])
def test_reciprocity_on_the_line_au_plus_bv_zero(coeffs, point):
    # (B : -A : 0 : sqrt(-MAB) : 0) lies on Au + Bv = 0, where every
    # representation of C is 0 or infinite; C is still A + B there
    s = SubfamilySurface(*coeffs)
    assert reciprocity_check(s, point)
    for v in [PLACE_INF] + [Place(q) for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)]:
        a, b, c = (evaluate_invariant(s, tag, point, v) for tag in "ABC")
        assert c == (a + b) % 1


def test_rational_point_evaluation_at_real_place():
    assert evaluate_invariant(Y_13_1_12, "A", (1, 0, 0, 0, 1), PLACE_INF) == ZERO


def test_rational_point_evaluation_matches_local():
    # exact evaluation at 13 agrees with the evaluation through residues
    pt = (1, -3, 2, 7, 16)
    exact = evaluate_invariant(Y_13_12_1, "B", pt, Place(13))
    from dp4.localsolve import normalize_residue_tuple

    local = normalize_residue_tuple(13, 6, pt)
    assert exact == evaluate_invariant(Y_13_12_1, "B", local)


def test_class_representations_have_expected_fractions():
    reps = {r.label for r in class_representations(Y_13_2_6, "A")}
    assert "u/(Au+Bv)" in reps and "Mv/(Au+Bv)" in reps
    reps_b = {r.label for r in class_representations(Y_13_2_6, "B")}
    assert "(z-y)/u" in reps_b and "AC(z+y)/u" in reps_b
    reps_c = {r.label for r in class_representations(Y_13_2_6, "C")}
    assert "(Au+Bv)/(z-y)" in reps_c


def test_generic_surfaces_formerly_undersampled_do_not_claim_obstruction():
    # each of these has small rational points; a verdict claiming a
    # Hasse-principle obstruction here would be an undersampling artifact
    from dp4.families import point_search

    for tup in [(5, 5, 1, 1, 1, -4), (13, 13, 1, 1, 1, 27), (13, 1, 4, 4, 3, -13),
                (13, 1, 4, 4, 3, 39), (13, 13, 1, 1, 3, -12)]:
        s = SubfamilySurface(*tup)
        rep = bm_verdict(s, sample_budget=24)
        assert rep.hp_obstructed_by == (), (tup, rep.hp_obstructed_by)
        assert rep.wa_failure
        assert point_search(s, 100)  # the refuting points really exist
