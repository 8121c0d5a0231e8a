import dataclasses
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from dp4 import arith, brauer, cli, localsolve, quadform
from dp4.arith import PLACE_INF, PadicScalar, Place, _prime_is_square_at, factor, hilbert_symbol, is_prime, legendre
from dp4.brauer import (
    CLASS_TAGS,
    IndeterminateEvaluationError,
    WitnessSearchError,
    _eval_reps,
    bm_verdict,
    class_representations,
    evaluate_invariant,
    invariant_image,
    quadres_counts,
    quadres_witness,
    reciprocity_check,
    relevant_places,
    surjectivity_witness,
)
from dp4.families import family_of, make_S, make_Y, point_search, s_from_t
from dp4.localsolve import SamplingBudgetError, SolubilityVerdict, everywhere_locally_soluble, sample_local_points
from dp4.quadform import SubfamilySurface, check_subfamily

from helpers import CASE_PATTERN_SURFACES, INSOLUBLE_AT_P, box_slice

ZERO = Fraction(0)
HALF = Fraction(1, 2)

Y_13_2_6 = SubfamilySurface(13, 2, -13, 1, -6, 1)
Y_13_1_12 = SubfamilySurface(13, 1, -13, 1, -12, 1)
Y_13_12_1 = SubfamilySurface(13, 12, -13, 1, -1, 1)
S_13 = SubfamilySurface(13, 1, 1, 153, 179, 1)


def test_family_detection():
    assert family_of(Y_13_2_6) == ("Y", (13, 2, 6))
    assert family_of(S_13) == ("S", (13, 153, 179))


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


def written_out(s, label, coords):
    """n and d of each representative, written out by hand, not read from the table."""
    u, v, _, y, z = coords
    A, B, C, D, M = s.A, s.B, s.C, s.D, s.M
    return {
        "u/(Au+Bv)": (u, A * u + B * v),
        "Mv/(Au+Bv)": (M * v, A * u + B * v),
        "u(Cu+Dv)": (u * (C * u + D * v), 1),
        "Mv(Cu+Dv)": (M * v * (C * u + D * v), 1),
        "(z-y)/u": (z - y, u),
        "AC(z+y)/u": (A * C * (z + y), u),
        "Mv(z-y)": (M * v * (z - y), 1),
        "ACMv(z+y)": (A * C * M * v * (z + y), 1),
        "(Au+Bv)/(z-y)": (A * u + B * v, z - y),
        "AC(z+y)/(Au+Bv)": (A * C * (z + y), A * u + B * v),
    }[label]


def symbol_value(s, n, d, q):
    sym = hilbert_symbol(s.p, Fraction(n, d), Place(q))
    return ZERO if sym == 1 else HALF


def determinate(x, q, k):
    scalar = PadicScalar.from_residue(q, x, k)
    return scalar.k >= (3 if q == 2 else 1)


def test_eval_reps_agrees_with_hilbert_symbol_per_representative(monkeypatch):
    # one representative at a time, the integer-valuation loop must give
    # (p, n/d)_q as hilbert_symbol computes it from the written-out n/d: at
    # exact points wherever n, d are nonzero, at p-adic points wherever n and
    # d are determinate mod q^k, and nothing at the other p-adic points
    checked = skipped = 0
    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case2"]):
        for q in (2, 3, s.p):
            sampled = sample_local_points(s, q, 12, 14 if q == 2 else 8, seed=3)
            # low precisions too, where some representatives are indeterminate
            for pt in (full.reduce(k) for full in sampled for k in (1, 2, 3, full.k)):
                digits = pt.k - (pt.cert.e if pt.cert else 0)
                for tag in CLASS_TAGS:
                    for rep in class_representations(s, tag):
                        monkeypatch.setitem(brauer.REPRESENTATIONS, tag, (rep,))
                        n, d = written_out(s, rep.label, pt.coords)
                        got_exact = brauer._eval_reps(brauer._Reading(s, pt.coords, q), tag)
                        got_local = brauer._eval_reps(brauer._Reading(s, pt, q), tag)
                        monkeypatch.undo()
                        if n == 0 or d == 0:
                            assert got_exact is None
                        else:
                            assert got_exact == symbol_value(s, n, d, q)
                        if determinate(n, q, digits) and determinate(d, q, digits):
                            assert got_local == symbol_value(s, n, d, q)
                            checked += 1
                        else:
                            assert got_local is None
                            skipped += 1
    assert checked > 500 and skipped > 500


def written_point_values(s, point, q):
    """(A, B, C) as _point_values must give them without refinement, from the
    written-out representatives and hilbert_symbol; an AssertionError where
    it must raise one."""
    local = isinstance(point, localsolve.PadicApproxPoint)
    coords = point.coords if local else point
    digits = point.k - (point.cert.e if point.cert else 0) if local else 0

    def value(tag):
        found = set()
        for rep in class_representations(s, tag):
            n, d = written_out(s, rep.label, coords)
            if (determinate(n, q, digits) and determinate(d, q, digits)) if local else n and d:
                found.add(symbol_value(s, n, d, q))
        if len(found) > 1:
            raise AssertionError(f"representations disagree for {tag}")
        return found.pop() if found else None

    a, b = value("A"), value("B")
    if a is None or b is None:
        return a, b, value("C")
    if value("C") not in (None, (a + b) % 1):
        raise AssertionError("Klein-four identity fails")
    return a, b, (a + b) % 1


def test_point_values_agree_with_hilbert_symbol_on_written_out_representatives(monkeypatch):
    # the one reading per point and place gives every value the written-out
    # representatives give, None included: at sampled points reduced to
    # precisions 1, 2, 3 and full, and at exact points on the loci u = 0,
    # Au + Bv = 0 and z = y, where it must also raise exactly where they
    # disagree (most of these integer tuples are not on the surface); the
    # theorem that makes every class 0 where p is a square in Q_q is
    # switched off, as the written-out representatives know nothing of it
    monkeypatch.setattr(brauer, "_prime_is_square_at", lambda p, q: False)
    counts = {"value": 0, "None": 0, "raises": 0}
    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case2"]):
        box = [c for c in itertools.product(range(-2, 3), repeat=5)
               if any(c) and (c[0] == 0 or s.A * c[0] + s.B * c[1] == 0 or c[3] == c[4])]
        for q in (2, 3, s.p):
            sampled = sample_local_points(s, q, 12, 14 if q == 2 else 8, seed=3)
            points = [full.reduce(k) for full in sampled for k in (1, 2, 3, full.k)] + box
            for point in points:
                try:
                    expected = written_point_values(s, point, q)
                except AssertionError as exc:
                    with pytest.raises(AssertionError, match=str(exc)):
                        brauer._point_values(s, brauer._Reading(s, point, q))
                    counts["raises"] += 1
                    continue
                assert brauer._point_values(s, brauer._Reading(s, point, q)) == expected, (s, point, q)
                for value in expected:
                    counts["None" if value is None else "value"] += 1
    assert min(counts.values()) > 1000, counts


def test_a_certified_point_is_read_at_the_digits_its_certificate_proves():
    # the seed-0 witness point1 here has k = 25 and e = 3, so it fixes its
    # Q_5 point mod 5^22; refined to 26 it proves 23 digits, at which
    # Cu + Dv is 0, and the reading must not take a valuation from the three
    # digits beyond them (read there, Cu + Dv made A's representatives disagree)
    s = SubfamilySurface(5, 5, 5, 4, 9, -475)
    pt = surjectivity_witness(s, seed=0).point1
    assert (pt.k, pt.cert.e) == (25, 3)
    reading = brauer._Reading(s, pt, 5, 26)
    assert reading.point.k == 26 and reading.vals[brauer.FACTORS.index("Cu+Dv")] == reading.room + 1 == 23
    assert brauer._point_values(s, reading) == (ZERO, HALF, HALF)


def test_one_factor_reading_per_point_and_place(monkeypatch):
    # A, B and C, the disagreement check and the Klein-four check come from
    # one reading of the seven factors per sampled point, and one more for
    # each point that the reading refines (A and B are determinate at every
    # point sampled here); reciprocity_check reads them once per place of
    # relevant_places, and never to find its places (fresh instances, whose
    # pattern tables are still empty, so every place's values are computed)
    reads, sampled, refined, places = [0], [0], [0], []
    real_factors, real_sampler, real_refine, real_values = (
        brauer._factor_values, brauer._sample_points, brauer.newton_refine, brauer._point_values)

    def factors(s, coords):
        reads[0] += 1
        return real_factors(s, coords)

    def sampler(*args, **kwargs):
        points = real_sampler(*args, **kwargs)
        sampled[0] += len(points)
        return points

    def refine(*args):
        refined[0] += 1
        return real_refine(*args)

    def point_values(s, reading):
        places.append(reading.q)
        return real_values(s, reading)

    monkeypatch.setattr(brauer, "_factor_values", factors)
    monkeypatch.setattr(brauer, "_sample_points", sampler)
    monkeypatch.setattr(brauer, "newton_refine", refine)
    monkeypatch.setattr(brauer, "_point_values", point_values)
    for s in (Y_13_2_6, S_13):
        for q in relevant_places(s):
            reads[0] = sampled[0] = refined[0] = 0
            invariant_image(s, q)
            assert reads[0] == sampled[0] + refined[0] and sampled[0] > 0, (s, q)
    for s, point in [(Y_13_1_12, (1, 0, 0, 0, 1)), (Y_13_12_1, (1, -3, 2, 7, 16)),
                     (SubfamilySurface(3, -4, 1, 1, -4, 1), (1, 4, 0, 2, 0))]:
        s = dataclasses.replace(s)
        reads[0] = 0
        places.clear()
        assert reciprocity_check(s, point)
        assert reads[0] == len(places) and places == relevant_places(s) and len(places) >= 2, (s, point)


READING_LEMMA_SURFACES = [
    make_Y(13, 2, 6), make_Y(101, 4, 25), make_Y(229, 4, 57), SubfamilySurface(229, 5, 6, 8, 5, -19),
    SubfamilySurface(13, 3, -2, 2, 1, 27), SubfamilySurface(13, -3, 1, 4, 4, -4),
    SubfamilySurface(101, -1, 2, 2, -5, -13), SubfamilySurface(101, 1, -4, -1, 5, -13),
    SubfamilySurface(229, 5, 2, -1, -6, 2), SubfamilySurface(229, 2, -1, 6, 5, -22)]


def test_a_sample_is_read_as_its_refinement_is(monkeypatch):
    # a point below the target precision is read mod q^(k - e) where that
    # fixes every factor's valuation and unit, else refined to 2k digits, and
    # again, until it does: either way the reading is the full refinement's,
    # valuations, signs and room, and the point read agrees with it mod
    # q^(k' - e) at its own precision k'
    calls = newton_calls(monkeypatch)
    branches = set()
    for s in READING_LEMMA_SURFACES:
        for q in relevant_places(s):
            precision = 14 if q == 2 else 8
            for pt in localsolve._sample_points(s, q, 16, precision, seed=1):
                refined = localsolve.newton_refine(s, pt, precision)
                before = len(calls)
                reading, full = brauer._Reading(s, pt, q, precision), brauer._Reading(s, refined, q)
                assert (reading.vals, reading.signs, reading.room) == (full.vals, full.signs, full.room)
                assert brauer._point_values(s, reading) == brauer._point_values(s, full)
                e = pt.cert.e
                factors = list(brauer._factor_values(s, pt.coords).values())
                vanishes = any(f % q ** (pt.k - e) == 0 for f in factors)
                if pt.k == precision:  # a pass-2 point, refined by the sampler
                    branches.add("pass 2, e > 0" if e else "pass 2")
                elif reading.point is pt:
                    branches.add("read unrefined")
                    assert q > 2 and not vanishes
                else:
                    point, mod = reading.point, q ** (reading.point.k - e)
                    assert pt.k < point.k <= precision and point.cert == pt.cert and (vanishes or q == 2)
                    assert [c % mod for c in point.coords] == [c % mod for c in refined.coords]
                    branches.add("refined where a factor vanishes")
                    if q > 2 and pt.k == 1 and all(full.vals[i] == 1 for i, f in enumerate(factors) if f % q == 0):
                        assert calls[before:] == [2] and point.k == 2  # one Newton call, to 2k digits
                        branches.add("one Newton call to 2 digits")
    assert branches >= {"read unrefined", "refined where a factor vanishes", "pass 2, e > 0",
                        "one Newton call to 2 digits"}


def newton_calls(monkeypatch):
    """The precisions of the newton_refine calls made after this, in order."""
    calls, real = [], localsolve.newton_refine

    def counted(s, pt, precision):
        calls.append(precision)
        return real(s, pt, precision)

    monkeypatch.setattr(localsolve, "newton_refine", counted)
    monkeypatch.setattr(brauer, "newton_refine", counted)
    return calls


def test_invariant_image_refines_only_the_points_it_cannot_read(monkeypatch):
    # 64 level-1 points at 229 are read there; those where a factor
    # vanishes mod 229 are refined (every point used to be)
    calls = newton_calls(monkeypatch)
    invariant_image(make_Y(229, 4, 57), 229)
    assert 0 < len(calls) <= 4


def test_sign_flip_witness_refines_only_the_point_it_returns(monkeypatch):
    calls = newton_calls(monkeypatch)
    w = surjectivity_witness(make_Y(229, 2, 114))
    assert w.point1.k == w.point2.k == 26 and calls.count(26) == 1


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
    # C's own representatives, not evaluate_invariant, which derives C from
    # A and B
    checked = 0
    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case4"]):
        for q in (2, s.p):
            for pt in sample_local_points(s, q, 10, 14 if q == 2 else 8, seed=9):
                try:
                    a = evaluate_invariant(s, "A", pt)
                    b = evaluate_invariant(s, "B", pt)
                except IndeterminateEvaluationError:
                    continue
                c = _eval_reps(brauer._Reading(s, pt, q), "C")
                if c is None:
                    continue
                assert (a + b) % 1 == c
                checked += 1
    assert checked > 0


def test_invariant_images_paper_values():
    # a theorem's image stands only after the sampled image is checked to be
    # a nonempty subset of it, so these are the sampled values too
    images = invariant_image(Y_13_2_6, 13)
    assert set(images["B"].values) == {ZERO, HALF}
    assert images["A"].kind == "theorem" and set(images["A"].values) == {HALF}
    img = invariant_image(Y_13_1_12, 13)["A"]
    assert img.kind == "theorem" and set(img.values) == {ZERO}
    img = invariant_image(S_13, 13)["B"]
    assert img.kind == "theorem" and set(img.values) == {HALF}


def test_bm_verdict_checks_the_klein_four_identity(monkeypatch):
    # with C's representatives swapped for A's, C = A + B fails wherever B is 1/2
    # (on a fresh instance: the tables of Y_13_2_6 hold patterns checked
    # against the real representatives)
    monkeypatch.setitem(brauer.REPRESENTATIONS, "C", brauer.REPRESENTATIONS["A"])
    with pytest.raises(AssertionError, match="Klein-four identity fails"):
        bm_verdict(make_Y(13, 2, 6))


def test_invariant_image_checks_that_representatives_agree(monkeypatch):
    # with A's second representative multiplied by z - y, a factor of B, it
    # disagrees with u/(Au+Bv) wherever B is 1/2 and both are determinate;
    # a reading pattern's values are computed, and checked, once per
    # instance, on a fresh one here, and a pattern that fails is never kept,
    # so a second call raises again
    first, second, *rest = brauer.REPRESENTATIONS["A"]
    broken = brauer.SymbolRep(second.label, second.num + ("z-y",), second.den)
    monkeypatch.setitem(brauer.REPRESENTATIONS, "A", (first, broken, *rest))
    s = make_Y(13, 2, 6)
    for _ in range(2):
        with pytest.raises(AssertionError, match="representations disagree for A"):
            invariant_image(s, 13)


def test_factor_values_come_in_factors_order():
    # _Reading and the representatives' positions index the seven factors by
    # their place in FACTORS
    for s, coords in ((Y_13_12_1, (1, -3, 2, 7, 16)), (S_13, (2, 3, 5, 7, 11))):
        u, v, _, y, z = coords
        values = brauer._factor_values(s, coords)
        assert tuple(values) == brauer.FACTORS
        assert tuple(values.values()) == (u, s.M * v, s.A * u + s.B * v, s.C * u + s.D * v,
                                          z - y, z + y, s.A * s.C)


def _sampled_points_and_images(monkeypatch, s, q):
    """invariant_image(s, q) with no family theorem, its sampled points, and
    each table entry as _point_values computed it, by reading pattern, on a
    fresh copy of s, whose tables hold no pattern yet."""
    points, table = [], {}
    real_sampler, real_values = brauer._sample_points, brauer._point_values

    def sampler(*args, **kwargs):
        try:
            points.extend(real_sampler(*args, **kwargs))
        except SamplingBudgetError as exc:  # a short sample stands
            points.extend(exc.points)
            raise
        return points

    def point_values(s, reading):
        key = (tuple(reading.vals), tuple(reading.signs), reading.room)
        assert key not in table
        table[key] = real_values(s, reading)
        return table[key]

    with monkeypatch.context() as m:
        m.setattr(brauer, "_sample_points", sampler)
        m.setattr(brauer, "_point_values", point_values)
        m.setattr(brauer, "_theorem_image", lambda family, tag, q: None)
        images = invariant_image(dataclasses.replace(s), q)
    return points, table, images


def test_values_looked_up_by_reading_pattern_are_each_points_own(monkeypatch):
    # the lemma of invariant_image: the triple looked up for a sampled point
    # is _point_values on that point, and the images and counts are those of
    # reading every point on its own
    patterns = total = 0
    paper = [Y_13_2_6, Y_13_1_12, Y_13_12_1, S_13, make_Y(229, 2, 114)]
    for s in paper + [*CASE_PATTERN_SURFACES.values(), *box_slice(3, 30)]:
        for q in relevant_places(s):
            try:
                points, table, images = _sampled_points_and_images(monkeypatch, s, q)
            except ValueError:  # insoluble at q
                continue
            precision = 14 if q == 2 else 8
            seen, counts = [set(), set(), set()], [0, 0, 0]
            for pt in points:
                reading = brauer._Reading(s, pt, q, precision)
                own = brauer._point_values(s, reading)
                assert table[(tuple(reading.vals), tuple(reading.signs), reading.room)] == own, (s, q, pt)
                for i, value in enumerate(own):
                    if value is not None and len(seen[i]) < 2:
                        seen[i].add(value)
                        counts[i] += 1
            assert [(img.values, img.n) for img in images.values()] == list(zip(seen, counts)), (s, q)
            patterns, total = patterns + len(table), total + len(points)
    assert 0 < patterns < total / 4, (patterns, total)


def test_each_reading_pattern_is_evaluated_once_per_image(monkeypatch):
    # _eval_reps runs for A, B and C once per distinct reading pattern of a
    # place's sample, not once per point, and the table lives with the
    # instance: the same image again on it evaluates nothing
    calls = []
    real = brauer._eval_reps

    def counting(reading, tag):
        calls.append(tag)
        return real(reading, tag)

    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case2"]):
        for q in relevant_places(s):
            points, table, _ = _sampled_points_and_images(monkeypatch, s, q)
            fresh = dataclasses.replace(s)
            for expected in (CLASS_TAGS * len(table), ()):
                calls.clear()
                with monkeypatch.context() as m:
                    m.setattr(brauer, "_eval_reps", counting)
                    invariant_image(fresh, q)
                assert sorted(calls) == sorted(expected), (s, q)
            assert len(table) < len(points), (s, q)


def test_invariant_image_reads_the_family_once(monkeypatch):
    # family_of is read once per image and once more by bm_verdict, not once
    # per class and place
    calls = []
    real = brauer.family_of

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(brauer, "family_of", counting)
    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case1"]):
        calls.clear()
        invariant_image(s, s.p)
        assert calls == [s]
    for s in (Y_13_2_6, S_13):
        calls.clear()
        bm_verdict(s)
        assert len(calls) == len(relevant_places(s)) + 1 == 3, s


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
    real_sampler, real_witness = brauer._sample_points, brauer.surjectivity_witness

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

    monkeypatch.setattr(brauer, "_sample_points", sampler)
    monkeypatch.setattr(brauer, "surjectivity_witness", witness)
    # the sample of p3mod4 at 2 falls short (60 of 64) and still stands
    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["p3mod4"]):
        calls.clear()
        bm_verdict(s)
        assert sorted(calls) == relevant_places(s), s


def test_bm_verdict_decides_no_place_itself(monkeypatch):
    # certified samples prove local solubility; no place is walked again
    calls, real = [], localsolve.decide_Qq

    def counted(surface, q, *args, **kwargs):
        calls.append(q)
        return real(surface, q, *args, **kwargs)

    monkeypatch.setattr(localsolve, "decide_Qq", counted)
    monkeypatch.setattr(brauer, "decide_Qq", counted)
    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case1"]):
        bm_verdict(s)
    assert calls == []


def test_places_decided_without_sampling_are_relevant():
    # bm_verdict proves local solubility from its samples at relevant_places,
    # so every place that everywhere_locally_soluble decides must be among them
    surfaces = [make_Y(p, a, (p - 1) // a) for p in range(5, 100) if p % 4 == 1 and is_prime(p)
                for a in range(1, p) if (p - 1) % a == 0]
    for p in range(5, 100, 8):
        if is_prime(p):
            t0 = 3 * (p - 1) // 4 % 8
            surfaces += [make_S(*s_from_t(p, t)) for t in (t0, t0 + 8)]
    surfaces += [*CASE_PATTERN_SURFACES.values(), *box_slice(1, 60)]
    for s in surfaces:
        decided = everywhere_locally_soluble(s).decided_places
        assert set(decided) <= set(relevant_places(s)), s
    assert len(surfaces) > 130


P_1_MOD_8 = [make_Y(17, 2, 8), make_Y(89, 2, 44), make_Y(233, 1, 232)]


def test_places_where_p_is_a_square_at_2_are_not_sampled(monkeypatch):
    # p = 1 mod 8 makes p a square in Q_2, so every class is 0 there by
    # theorem: bm_verdict samples nothing at 2 (where every representative
    # vanishes at (0:0:1:sqrt(p):+-sqrt(p)))
    sampled, exact = [], []
    real_sampler, real_exact = brauer._sample_points, brauer._exact_values

    def sampler(s, q, *args, **kwargs):
        sampled.append(q)
        return real_sampler(s, q, *args, **kwargs)

    def exact_values(s, point, q):
        exact.append(q)
        return real_exact(s, point, q)

    monkeypatch.setattr(brauer, "_sample_points", sampler)
    monkeypatch.setattr(brauer, "_exact_values", exact_values)
    points = 0
    for s in P_1_MOD_8:
        assert relevant_places(s)[0] == s.p and 2 not in everywhere_locally_soluble(s).decided_places
        sampled.clear()
        report = bm_verdict(s)
        assert 2 not in sampled and sampled, s
        assert (report.hp_obstructed_by, report.wa_failure) == ((), True), s
        assert all("2" not in report.images[tag] for tag in CLASS_TAGS), s
        exact.clear()
        for point in point_search(s, 16):
            assert reciprocity_check(s, point)
            points += 1
        assert 2 not in exact, s
    assert points == 10


def test_an_undecided_class_is_zero_where_p_is_a_square(monkeypatch):
    # (0:0:1:sqrt(89):sqrt(89)) mod 2^14 lies where every representative of
    # A, B and C vanishes; 89 = 1 mod 8 is a square in Q_2, so each class is
    # 0 there by theorem, with no residue node read and no Newton step
    s = make_Y(89, 2, 44)
    pt = localsolve.PadicApproxPoint(2, 14, (0, 0, 1, 12379, 4005), 2)
    assert all(_eval_reps(brauer._Reading(s, pt, 2), tag) is None for tag in CLASS_TAGS)
    walk = {localsolve._node.__code__, localsolve.newton_refine.__code__}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in walk:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        values = brauer._point_values(s, brauer._Reading(s, pt, 2))
    finally:
        sys.setprofile(None)
    assert values == (ZERO, ZERO, ZERO) and calls == []
    assert [evaluate_invariant(s, tag, pt) for tag in CLASS_TAGS] == [ZERO, ZERO, ZERO]
    # without the theorem nothing decides the classes there
    monkeypatch.setattr(brauer, "_prime_is_square_at", lambda p, q: False)
    assert brauer._point_values(s, brauer._Reading(s, pt, 2)) == (None, None, None)
    with pytest.raises(IndeterminateEvaluationError, match="class A indeterminate"):
        evaluate_invariant(s, "A", pt)


def test_evaluate_invariant_rejects_an_unknown_class_tag():
    local = sample_local_points(Y_13_2_6, 13, 1, 8, seed=5)[0]
    for point, v in ((local, None), ((1, 0, 0, 0, 1), Place(13)), ((1, 0, 0, 0, 1), PLACE_INF)):
        with pytest.raises(ValueError, match="unknown class tag 'D'"):
            evaluate_invariant(Y_13_1_12 if v else Y_13_2_6, "D", point, v)


def test_rational_point_repairs_an_undersampled_image(monkeypatch):
    # case1 is off-family; make A read {1/2} at 2, as an undersampled image
    # would, where the witness pair at 13 cannot repair it: the search finds
    # (0, 1, 0, 0, -1), whose exact value 0 at 2 joins the image and refutes
    # the obstruction
    s = CASE_PATTERN_SURFACES["case1"]
    real = brauer.invariant_image
    sampled_n = {}

    def undersampled(surface, q, **kwargs):
        images = real(surface, q, **kwargs)
        sampled_n[q] = images["A"].n
        if q == 2:
            images["A"] = brauer.PlaceImage(frozenset({HALF}), "sampled", n=sampled_n[q])
        return images

    monkeypatch.setattr(brauer, "invariant_image", undersampled)
    rep = bm_verdict(s)
    assert rep.rational_point == (0, 1, 0, 0, -1)
    assert rep.hp_obstructed_by == ()
    img = rep.images["A"]["2"]
    assert img.values == {ZERO, HALF} and img.n == sampled_n[2] + 1
    assert img.detail == "exact value at (0, 1, 0, 0, -1)"
    assert rep.images["A"]["13"].values == {ZERO} and rep.images["A"]["13"].n == sampled_n[13]


def test_a_rational_point_that_leaves_an_obstruction_is_an_evaluator_fault(monkeypatch):
    # the undersampled image of the test above, with the exact value at 2
    # read as 1/2 too: the repaired images still sum to 1/2 for A, which
    # reciprocity forbids at a rational point, so bm_verdict fails hard
    # rather than call the verdict inconclusive
    s = CASE_PATTERN_SURFACES["case1"]
    real_image, real_exact = brauer.invariant_image, brauer._exact_values

    def undersampled(surface, q, **kwargs):
        images = real_image(surface, q, **kwargs)
        if q == 2:
            images["A"] = brauer.PlaceImage(frozenset({HALF}), "sampled", n=images["A"].n)
        return images

    def misread(surface, point, q):
        values = real_exact(surface, point, q)
        return (HALF, *values[1:]) if q == 2 else values

    monkeypatch.setattr(brauer, "invariant_image", undersampled)
    monkeypatch.setattr(brauer, "_exact_values", misread)
    with pytest.raises(AssertionError, match="evaluation is inconsistent"):  # not a SamplingBudgetError
        bm_verdict(s)


def test_witness_pair_and_repairing_point_are_read_once(monkeypatch):
    # the witness pair is read once per point whatever the hint; a rational
    # point that repairs an image is read once per finite relevant place
    reads = []
    real_factors, real_image = brauer._factor_values, brauer.invariant_image

    def factors(s, coords):
        reads.append(tuple(coords))
        return real_factors(s, coords)

    monkeypatch.setattr(brauer, "_factor_values", factors)
    w = surjectivity_witness(Y_13_2_6)
    for hint in CLASS_TAGS:
        reads.clear()
        assert brauer._validated_result(Y_13_2_6, hint, w.point1, w.point2, brauer._WitnessContext())
        assert reads == [w.point1.coords, w.point2.coords], hint

    def undersampled(surface, q, **kwargs):  # as in the repair test above
        images = real_image(surface, q, **kwargs)
        if q == 2:
            images["A"] = brauer.PlaceImage(frozenset({HALF}), "sampled", n=1)
        return images

    monkeypatch.setattr(brauer, "invariant_image", undersampled)
    s = CASE_PATTERN_SURFACES["case1"]
    reads.clear()
    assert bm_verdict(s).rational_point == (0, 1, 0, 0, -1)
    assert reads.count((0, 1, 0, 0, -1)) == len(relevant_places(s))


def test_inert_primes_of_the_coefficients_divide_N_times_AD_minus_BC(monkeypatch):
    # the lemma of relevant_places: an odd q != p dividing A B C D M but not
    # N (AD - BC) has (p/q) = 1, so N and AD - BC carry every inert bad prime
    checked = 0
    for s in box_slice(19, 150):
        W = s.N * (s.A * s.D - s.B * s.C)
        for q in set(factor(abs(s.A * s.B * s.C * s.D * s.M))):
            if q % 2 and q != s.p and W % q:
                assert legendre(s.p, q) == 1, (s, q)
                checked += 1
        coefficients = (s.A, s.B, s.C, s.D, s.M, s.N, s.A * s.D - s.B * s.C)
        inert = {q for c in coefficients for q in factor(abs(c))
                 if q % 2 and q != s.p and legendre(s.p, q) == -1}
        assert relevant_places(s) == [2, s.p] + sorted(inert), s
    assert checked > 40
    # the places are derived once per instance: the first call factors |N|
    # and |AD - BC|, later ones factor nothing and return a fresh list
    calls = []
    monkeypatch.setattr(brauer, "factor", lambda n: calls.append(n) or factor(n))
    s = dataclasses.replace(CASE_PATTERN_SURFACES["case6"])
    places = relevant_places(s)
    assert places == [2, 5, 3] and calls == [abs(s.N), abs(s.A * s.D - s.B * s.C)]
    places.append(7)
    assert relevant_places(s) == relevant_places(s) == [2, 5, 3] and len(calls) == 2


@pytest.mark.parametrize("s, q, verdict", [
    (make_S(*s_from_t(13, 1601)), "1601", ("B",)),  # 1601 divides AD - BC = 2 t p
    (SubfamilySurface(5, 1, 1, 1, -2899411, -2899411), "1523", ()),  # 1523 divides N
])
def test_bm_verdict_samples_inert_places_of_any_size(s, q, verdict):
    assert int(q) in relevant_places(s) and legendre(s.p, int(q)) == -1
    report = bm_verdict(s)
    assert report.hp_obstructed_by == verdict and report.unknown_classes == ()
    assert all(q in report.images[tag] for tag in CLASS_TAGS)


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


def test_bm_verdict_beyond_the_enumeration_budget(monkeypatch):
    # p = 10037 > RESIDUE_ENUM_BUDGET: decide_Qq certifies Q_p by seeded
    # level-1 draws, so the verdict needs no exhaustive walk; every level-1
    # node is read once, so reads count the level-1 points drawn
    reads = [0]
    real = localsolve._node

    def node(surface, pt):
        reads[0] += pt.k == 1
        return real(surface, pt)

    monkeypatch.setattr(localsolve, "_node", node)
    assert bm_verdict(make_Y(10037, 2, 5018)).hp_obstructed_by == ("A",)
    assert 0 < reads[0] < 1000


def test_representatives_are_the_written_out_products():
    # one table for every surface: each label's n and d, evaluated from the
    # seven factor values, match the written-out formulas at every integer
    # point of a small box, which includes points where each factor is 0
    labels = {tag: {r.label for r in class_representations(Y_13_2_6, tag)} for tag in CLASS_TAGS}
    assert labels == {
        "A": {"u/(Au+Bv)", "Mv/(Au+Bv)", "u(Cu+Dv)", "Mv(Cu+Dv)"},
        "B": {"(z-y)/u", "AC(z+y)/u", "Mv(z-y)", "ACMv(z+y)"},
        "C": {"(Au+Bv)/(z-y)", "AC(z+y)/(Au+Bv)"},
    }
    vanishing = set()
    for s in (Y_13_2_6, S_13, CASE_PATTERN_SURFACES["case2"]):
        assert all(class_representations(s, tag) is class_representations(S_13, tag)
                   for tag in CLASS_TAGS)
        for coords in itertools.product(range(-2, 3), repeat=5):
            factors = brauer._factor_values(s, coords)
            vanishing |= {name for name, value in factors.items() if value == 0}
            for tag in CLASS_TAGS:
                for rep in class_representations(s, tag):
                    n = math.prod(factors[name] for name in rep.num)
                    d = math.prod(factors[name] for name in rep.den)
                    assert (n, d) == written_out(s, rep.label, coords), (s, rep.label, coords)
    assert vanishing == {"u", "Mv", "Au+Bv", "Cu+Dv", "z-y", "z+y"}
    with pytest.raises(ValueError, match="unknown class tag"):
        class_representations(Y_13_2_6, "D")


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
    # the witness search then raises WitnessSearchError instead of crashing;
    # a unit square's root mod p^26 lifts Tonelli's smaller root, or the
    # given one
    from dp4.arith import sqrt_mod
    from dp4.brauer import _WITNESS_PRECISION, _ConstructionDegenerate, _unit_sqrt

    assert _unit_sqrt(13, 10, 4) ** 2 % 13 ** 4 == 10
    rng = random.Random(0)
    for p in (p for p in range(3, 100) if is_prime(p)):
        mod = p ** _WITNESS_PRECISION
        squares = {r * r % p for r in range(1, p)}
        for a0 in range(p):
            a = a0 + p * rng.randrange(mod)
            if a0 not in squares:  # a non-unit or a non-residue
                for root in (None, 1):
                    with pytest.raises(_ConstructionDegenerate):
                        _unit_sqrt(p, a, root)
                continue
            r = _unit_sqrt(p, a, None)
            assert (r * r - a) % mod == 0 and r % p == sqrt_mod(a, p), (p, a)
            for root in (sqrt_mod(a, p), p - sqrt_mod(a, p)):
                r = _unit_sqrt(p, a, root)
                assert (r * r - a) % mod == 0 and (r - root) % p == 0, (p, a, root)


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


# one surface per witness branch that the fixed examples never reach, each
# found by helpers.search_valid_surfaces
@pytest.mark.parametrize("coeffs, first_step", [
    ((5, 5, 1, 5, 4, -5), "reduce: divide (A, C, M) by 5"),
    ((5, 1, 5, 1, 20, -5), "reduce: divide (B, D, M) by 5"),
    ((5, 25, 25, 1, 4, -25), "reduce: divide (A, B, M) by 5^2"),
    ((5, 1, 1, 25, 100, -25), "reduce: divide (C, D, M) by 5^2"),
    ((5, 1, 1, 5, 1, 1), "swap the linear factors"),
    ((5, 5, 1, 1, 5, 11), "case 1b"),
])
def test_witness_branches(coeffs, first_step):
    s = SubfamilySurface(*coeffs)
    w = surjectivity_witness(s)
    assert w.case_trace[0] == first_step
    assert w.case_trace[-1].startswith("validated")
    values = (evaluate_invariant(s, w.tag, w.point1), evaluate_invariant(s, w.tag, w.point2))
    assert values == w.values and values[0] != values[1]


def test_degenerate_witness_construction_raises(monkeypatch):
    # the surjectivity statement makes the construction total, so a blocked
    # recipe is a failed check
    def degenerate(s, ctx, depth):
        raise brauer._ConstructionDegenerate("blocked")

    monkeypatch.setattr(brauer, "_witness_recursive", degenerate)
    with pytest.raises(WitnessSearchError, match="construction degenerate on X_13_2_-13_1_-6_1: blocked"):
        surjectivity_witness(Y_13_2_6)
    assert issubclass(WitnessSearchError, AssertionError)


def test_witness_pair_that_fails_validation_raises(monkeypatch):
    monkeypatch.setattr(brauer, "_validated_result", lambda s, hint, pt1, pt2, ctx: None)
    with pytest.raises(WitnessSearchError, match="failed validation"):
        surjectivity_witness(Y_13_2_6)


def test_case3_has_abm_a_square_on_a_box():
    # the _case3 lemma: with A..D and M units at p and AC, BD squares mod p,
    # (C1) makes ABM a nonzero square mod p
    reached = 0
    units = [c for c in range(-4, 5) if c]
    for p in (5, 13):
        for A, B, C, D in itertools.product(units, repeat=4):
            if legendre(A * C, p) != 1 or legendre(B * D, p) != 1:
                continue
            for M in range(-30, 31):
                if M % p == 0:
                    continue
                s = SubfamilySurface(p, A, B, C, D, M)
                if not check_subfamily(s).valid:
                    continue
                reached += 1
                assert legendre(A * B * M, p) == 1, s
    assert reached > 5000
    # a surface that breaks the lemma (it fails (C1)) is a degenerate
    # construction, which surjectivity_witness reports as WitnessSearchError
    with pytest.raises(brauer._ConstructionDegenerate, match="ABM a square"):
        brauer._case3(SubfamilySurface(5, 1, 1, 1, 1, 2), brauer._WitnessContext())


def test_witness_construction_is_total_on_a_box_slice():
    for s in box_slice(3, 200):
        w = surjectivity_witness(s)
        if w.insoluble_at_p:
            assert w.tag is None and w.case_trace[-1].startswith(f"X(Q_{s.p}) empty"), s
            continue
        assert w.case_trace[-1].startswith("validated"), s
        values = (evaluate_invariant(s, w.tag, w.point1), evaluate_invariant(s, w.tag, w.point2))
        assert values == w.values and values[0] != values[1], s


def test_a_and_b_are_determinate_at_every_rational_point():
    # (C1)/(C2) keep some representative of A and of B nonzero and finite at
    # every rational point, so exact points need no local-constancy fallback
    checked = 0
    for s in box_slice(4, 300) + [Y_13_2_6, Y_13_1_12, Y_13_12_1, S_13]:
        for pt in point_search(s, 6):
            for tag in ("A", "B"):
                assert _eval_reps(brauer._Reading(s, pt, 2), tag) is not None, (s, tag, pt)
            checked += 1
    assert checked > 500


def test_witness_insoluble_detection():
    for s in INSOLUBLE_AT_P[:2]:
        w = surjectivity_witness(s)
        assert w.insoluble_at_p


def test_flip_witness_decides_nothing_when_it_samples_a_point(monkeypatch):
    # a certified sampled point already proves X(Q_p) nonempty
    calls = []
    real = brauer.decide_Qq

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(brauer, "decide_Qq", counted)
    w = surjectivity_witness(Y_13_2_6)
    assert not w.insoluble_at_p and calls == []


def test_flip_witness_keeps_an_inconclusive_decision_a_budget(monkeypatch):
    # p = 7 = 3 mod 4 takes the sign-flip branch; an empty short sample and
    # an inconclusive decision at 7 leave a spent budget, not a failed check
    def short(*args, **kwargs):
        raise SamplingBudgetError("short", [])

    monkeypatch.setattr(brauer, "_sample_points", short)
    monkeypatch.setattr(brauer, "decide_Qq", lambda s, q, budget: SolubilityVerdict(q, "inconclusive"))
    with pytest.raises(SamplingBudgetError, match="short"):
        surjectivity_witness(CASE_PATTERN_SURFACES["p3mod4"])


def test_flip_witness_decides_nothing_on_a_short_sample_with_points(monkeypatch):
    # a certified point proves X(Q_p) nonempty: the budget error stands at once
    s = CASE_PATTERN_SURFACES["p3mod4"]
    found = sample_local_points(s, 7, 1, 26)
    calls = []

    def short(*args, **kwargs):
        raise SamplingBudgetError("short", found)

    monkeypatch.setattr(brauer, "_sample_points", short)
    monkeypatch.setattr(brauer, "decide_Qq",
                        lambda s, q, budget: calls.append(q) or SolubilityVerdict(q, "soluble"))
    with pytest.raises(SamplingBudgetError, match="short"):
        surjectivity_witness(s)
    assert calls == []


def test_flip_witness_reports_insolubility_when_nothing_is_sampled():
    # p = 3 = 3 mod 4 takes the sign-flip branch; the sampler finds no point,
    # so the branch decides Q_3 and reports it empty
    w = surjectivity_witness(SubfamilySurface(3, 1, 6, 2, 3, -9))
    assert w.insoluble_at_p
    assert w.case_trace[-1] == "X(Q_3) empty: no primitive solutions mod 3^2"


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


def test_bm_verdict_does_not_depend_on_the_seed():
    # the witness pair's readings of every class join the images at p, so
    # a sampled singleton at p that the pair refutes no longer obstructs
    for coeffs in [(5, -5, 5, 1, -5, -20), (5, -3, 4, -5, -3, 19), (5, -5, -2, 1, 2, 8)]:
        s = SubfamilySurface(*coeffs)
        for seed in range(25):
            for budget in (16, 64):
                assert bm_verdict(s, sample_budget=budget, seed=seed).hp_obstructed_by == ("A",), (s, seed, budget)


def test_two_obstructing_classes_off_the_families_are_inconclusive(monkeypatch, capsys):
    # C reads sampled singletons summing to 1/2 (1/2 at 2, 0 at p), and is
    # indeterminate at the witness pair, so A and C both obstruct
    real_image, real_witness = brauer.invariant_image, brauer.surjectivity_witness

    def images(s, q, **kwargs):
        found = real_image(s, q, **kwargs)
        found["C"] = brauer.PlaceImage(frozenset({HALF if q == 2 else ZERO}), "sampled", n=found["C"].n)
        return found

    def witness(s, seed=0):
        w = real_witness(s, seed=seed)
        return dataclasses.replace(w, readings=tuple((a, b, None) for a, b, _ in w.readings))

    monkeypatch.setattr(brauer, "invariant_image", images)
    monkeypatch.setattr(brauer, "surjectivity_witness", witness)
    with pytest.raises(brauer.SampledContradictionError) as caught:
        bm_verdict(SubfamilySurface(5, -5, 5, 1, -5, -20))
    assert isinstance(caught.value, SamplingBudgetError)
    assert str(caught.value) == ("two classes obstruct on X_5_-5_5_1_-5_-20: ('A', 'C'); "
                                 "sampled singletons A at 2, A at 5, C at 2, C at 5")
    spec = '{"family": "subfamily", "p": 5, "A": -5, "B": 5, "C": 1, "D": -5, "M": -20}'
    assert cli.main(["analyze", spec]) == 3
    assert "budget exhausted: two classes obstruct" in capsys.readouterr().err
    # on a family member, the family theorem makes the same state a hard error
    with pytest.raises(AssertionError, match="two classes obstruct on X_13_2_-13_1_-6_1") as caught:
        bm_verdict(Y_13_2_6)
    assert not isinstance(caught.value, SamplingBudgetError)


def test_witness_values_outside_a_theorem_image_are_a_hard_error(monkeypatch):
    # class A at 13 on Y_13_2_6 is {1/2} by theorem; a pair reading 0 contradicts it
    w = surjectivity_witness(Y_13_2_6)
    fake = brauer.WitnessResult("B", w.point1, w.point2, False, w.case_trace,
                                ((ZERO, ZERO, ZERO), (ZERO, HALF, HALF)))
    monkeypatch.setattr(brauer, "surjectivity_witness", lambda s, seed=0: fake)
    with pytest.raises(AssertionError, match="family theorem image of A at 13 lacks"):
        bm_verdict(Y_13_2_6)


def test_bm_verdict_requires_local_solubility():
    with pytest.raises(ValueError, match="insoluble at 5"):
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


def test_reciprocity_factors_each_factor_at_most_once_per_point(monkeypatch):
    # the places come from relevant_places, which factors the surface's N
    # and AD - BC once per instance: the first check on a fresh instance
    # factors exactly those two, every later point nothing, and p is proved
    # prime at most once for the search and all the checks together
    calls, proofs = [], []
    real_factor, real_is_prime = brauer.factor, arith.is_prime

    def counting(n, *args, **kwargs):
        calls.append(n)
        return real_factor(n, *args, **kwargs)

    def proving(n):
        proofs.append(n)
        return real_is_prime(n)

    monkeypatch.setattr(brauer, "factor", counting)
    monkeypatch.setattr(arith, "is_prime", proving)
    monkeypatch.setattr(quadform, "is_prime", proving)
    s = dataclasses.replace(CASE_PATTERN_SURFACES["case2"])
    points = point_search(s, 60)
    assert len(points) == 8
    for i, point in enumerate(points):
        assert reciprocity_check(s, point)
        assert calls == [abs(s.N), abs(s.A * s.D - s.B * s.C)], (i, point)
    assert proofs.count(s.p) <= 1
    for surface, point in [(Y_13_1_12, (1, 0, 0, 0, 1)), (Y_13_12_1, (1, -3, 2, 7, 16)),
                           (SubfamilySurface(3, -4, 1, 1, -4, 1), (1, 4, 0, 2, 0))]:
        surface = dataclasses.replace(surface)
        calls.clear()
        assert reciprocity_check(surface, point) and reciprocity_check(surface, point)
        assert calls == [abs(surface.N), abs(surface.A * surface.D - surface.B * surface.C)], (surface, point)


def test_reciprocity_evaluates_each_class_once_per_finite_place(monkeypatch):
    # one _point_values call per place gives A, B and C together (C = A + B
    # where both are determinate); the real place is skipped, every class
    # symbol there being (p, *) with p > 0.  The values are kept per
    # instance, place and reading pattern: the same point again evaluates
    # nothing, and over all the points of a search each class is evaluated
    # at most once per (place, pattern)
    calls = []
    real = brauer._eval_reps

    def counting(reading, tag):
        calls.append((tag, reading.q, tuple(reading.vals), tuple(reading.signs), reading.room))
        return real(reading, tag)

    monkeypatch.setattr(brauer, "_eval_reps", counting)
    for surface, point in [(Y_13_1_12, (1, 0, 0, 0, 1)), (Y_13_12_1, (1, -3, 2, 7, 16)),
                           (SubfamilySurface(3, -4, 1, 1, -4, 1), (1, 4, 0, 2, 0))]:
        surface = dataclasses.replace(surface)
        calls.clear()
        assert reciprocity_check(surface, point)
        places = [v for _, v, *_ in calls[::3]]
        assert places == relevant_places(surface) and {2, surface.p} <= set(places) and 0 not in places
        assert sorted(call[:2] for call in calls) == sorted((tag, v) for tag in "ABC" for v in places)
        calls.clear()
        assert reciprocity_check(surface, point) and calls == []
    s = dataclasses.replace(CASE_PATTERN_SURFACES["case2"])
    points = point_search(s, 60)
    calls.clear()
    assert all(reciprocity_check(s, point) for point in points)
    assert len(calls) == len(set(calls)) < 3 * len(points) * len(relevant_places(s)), len(calls)


def test_reciprocity_proves_no_place_prime_again(monkeypatch):
    # the places are 2, the validated p and primes from factor: none is
    # proved prime again, not even once per point
    proofs = []
    real = Place.__post_init__

    def counting(place):
        proofs.append(place.q)
        real(place)

    monkeypatch.setattr(Place, "__post_init__", counting)
    s = CASE_PATTERN_SURFACES["case2"]
    for surface, point in [(s, pt) for pt in point_search(s, 60)] + [
            (Y_13_1_12, (1, 0, 0, 0, 1)), (Y_13_12_1, (1, -3, 2, 7, 16))]:
        assert reciprocity_check(surface, point)
    assert proofs == []


def test_an_invalid_surface_raises_at_every_call():
    # only a valid surface keeps its places: a failed check raises again
    for coeffs, point in (((5, 1, 1, 1, 1, -1), (1, -1, 0, 1, 0)),  # (C2) fails: AD - BC = 0
                          ((9, -4, -4, -4, 0, -2), None), ((5, 1, 1, 1, 1, 1), None)):
        s = SubfamilySurface(*coeffs)
        for _ in range(3):
            with pytest.raises(ValueError, match="invalid subfamily surface"):
                relevant_places(s)
            if point:
                with pytest.raises(ValueError, match="invalid subfamily surface"):
                    reciprocity_check(s, point)
        assert "places" not in s.memo


def test_equal_surfaces_built_apart_share_no_work(monkeypatch):
    # the kept data belong to the instance, not to its value: each of two
    # equal surfaces factors once
    calls = []
    monkeypatch.setattr(brauer, "factor", lambda n: calls.append(n) or factor(n))
    s, twin = SubfamilySurface(3, -4, 1, 1, -4, 1), SubfamilySurface(3, -4, 1, 1, -4, 1)
    assert s == twin and s is not twin
    for surface in (s, twin, s, twin):
        assert reciprocity_check(surface, (1, 4, 0, 2, 0))
    assert calls == [abs(s.N), abs(s.A * s.D - s.B * s.C)] * 2


def test_kept_data_leave_repr_eq_and_hash_alone():
    # the data live in the instance's memo, not in fields: repr, which seeds
    # the witness's rng, ==, hash and the fields are those of a fresh instance
    s, twin = SubfamilySurface(13, 12, -13, 1, -1, 1), SubfamilySurface(13, 12, -13, 1, -1, 1)
    before = (repr(s), hash(s))
    assert reciprocity_check(s, (1, -3, 2, 7, 16))
    invariant_image(s, 13, sample_budget=8)
    witness = surjectivity_witness(s)
    fields = [f.name for f in dataclasses.fields(s)]
    assert fields == ["p", "A", "B", "C", "D", "M"] and list(vars(s)) == list(vars(twin)) == [*fields, "memo"]
    assert {"N", "report", "places", 13} <= s.memo.keys() and twin.memo == {}
    assert (repr(s), hash(s)) == before == (repr(twin), hash(twin)) and s == twin
    assert surjectivity_witness(twin) == witness


def test_reciprocity_fails_when_one_local_value_flips(monkeypatch):
    # the check sums parities per class: one flipped 1/2 breaks reciprocity
    # for that class, at whichever place it sits
    real = brauer._exact_values
    for flip_q, flip_k in ((2, 0), (13, 1), (13, 2)):
        def flipped(s, point, q, flip_q=flip_q, flip_k=flip_k):
            values = list(real(s, point, q))
            if q == flip_q:
                values[flip_k] = HALF - values[flip_k]
            return tuple(values)

        monkeypatch.setattr(brauer, "_exact_values", flipped)
        assert not reciprocity_check(Y_13_12_1, (1, -3, 2, 7, 16)), (flip_q, flip_k)
    monkeypatch.setattr(brauer, "_exact_values", real)
    assert reciprocity_check(Y_13_12_1, (1, -3, 2, 7, 16))


def test_place_level_calls_name_the_failed_condition():
    # (C2) fails on X_13_1_1_1_1_13 (AD - BC = 0): the per-surface calls say
    # so, rather than failing to factor 0 or sampling an invalid surface
    s = SubfamilySurface(13, 1, 1, 1, 1, 13)
    with pytest.raises(ValueError, match=r"\(C2\) fails"):
        relevant_places(s)
    with pytest.raises(ValueError, match=r"\(C2\) fails"):
        invariant_image(s, 13, sample_budget=8)


def test_reciprocity_skips_only_places_where_every_class_is_zero():
    # reciprocity_check sums over relevant_places alone, so every class must
    # be 0 at every other prime of the point's factor values: where p is a
    # square in Q_q, (p, *)_q is identically 1; at an inert q outside the
    # list, the lemma of relevant_places gives 0 (good reduction)
    first_family = [make_Y(p, a, (p - 1) // a) for p in (13, 29, 37, 41, 53, 61)
                    for a in range(1, p) if (p - 1) % a == 0]
    square = inert = 0
    for s in (Y_13_1_12, Y_13_12_1, *box_slice(7, 12), *box_slice(4, 200), *first_family):
        places = relevant_places(s)
        for point in point_search(s, 40):
            primes = {q for value in brauer._factor_values(s, point).values() if value
                      for q in factor(abs(value))}
            for q in primes - set(places):
                assert brauer._point_values(s, brauer._Reading(s, point, q)) == (ZERO, ZERO, ZERO), (s, point, q)
                if _prime_is_square_at(s.p, q):
                    square += 1
                else:
                    inert += 1
    assert square > 0 and inert >= 100, (square, inert)


def test_reciprocity_fails_when_relevant_places_drops_a_place(monkeypatch):
    # the check sums over relevant_places alone, so it also tests that list:
    # at this point A and B are 1/2 at 13 and at 5, so without 5 they sum to 1/2
    s, point = SubfamilySurface(13, 5, -3, 5, 1, -5), (1, -5, 0, -5, 0)
    assert 5 in relevant_places(s) and reciprocity_check(s, point)
    for q in (13, 5):
        assert brauer._exact_values(s, point, q)[:2] == (HALF, HALF), q
    real = brauer.relevant_places
    monkeypatch.setattr(brauer, "relevant_places", lambda s: [q for q in real(s) if q != 5])
    assert not reciprocity_check(s, point)


def test_rational_point_evaluation_at_real_place():
    assert evaluate_invariant(Y_13_1_12, "A", (1, 0, 0, 0, 1), PLACE_INF) == ZERO


def test_rational_point_evaluation_matches_local():
    # exact evaluation at 13 agrees with the evaluation through residues
    pt = (1, -3, 2, 7, 16)
    exact = evaluate_invariant(Y_13_12_1, "B", pt, Place(13))
    from dp4.localsolve import normalize_residue_tuple

    local = normalize_residue_tuple(13, 6, pt)
    assert exact == evaluate_invariant(Y_13_12_1, "B", local)


def test_exact_points_are_normalized_and_checked_against_the_surface():
    # an off-surface tuple or the zero tuple is an input error at every
    # place; a scaled, sign-flipped point takes the primitive point's values
    assert not Y_13_2_6.contains((1, 1, 1, 1, 1))
    for v in (PLACE_INF, Place(2), Place(13)):
        for tag in "ABC":
            with pytest.raises(ValueError, match="is not on X_13_2_-13_1_-6_1"):
                evaluate_invariant(Y_13_2_6, tag, (1, 1, 1, 1, 1), v)
            with pytest.raises(ValueError, match="zero tuple"):
                evaluate_invariant(Y_13_2_6, tag, (0, 0, 0, 0, 0), v)
    pt = (1, -3, 2, 7, 16)
    for q in (2, 3, 13):
        for tag in "ABC":
            assert (evaluate_invariant(Y_13_12_1, tag, tuple(-2 * c for c in pt), Place(q))
                    == evaluate_invariant(Y_13_12_1, tag, pt, Place(q)))


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
    for tup in [(5, 5, 1, 1, 1, -4), (13, 13, 1, 1, 1, 27), (13, 1, 4, 4, 3, -13),
                (13, 1, 4, 4, 3, 39), (13, 13, 1, 1, 3, -12)]:
        s = SubfamilySurface(*tup)
        rep = bm_verdict(s, sample_budget=24)
        assert rep.hp_obstructed_by == (), (tup, rep.hp_obstructed_by)
        assert rep.wa_failure
        assert point_search(s, 100)  # the refuting points really exist
