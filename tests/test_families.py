import itertools
import math
import multiprocessing
import random
from math import gcd, isqrt
from types import SimpleNamespace

import pytest

from dp4.arith import is_prime, legendre, valuation
from dp4.brauer import invariant_image, reciprocity_check, relevant_places
from dp4.census import census_S, census_Y
from dp4.families import (
    _forced_divisors,
    _search_hyperbola,
    check_S_params,
    family_of,
    make_S,
    make_Y,
    point_search,
    predict_S,
    predict_Y,
    s_from_t,
)
from dp4.quadform import SubfamilySurface, check_subfamily
from helpers import CASE_PATTERN_SURFACES, search_valid_surfaces


def test_make_Y_examples():
    s = make_Y(13, 2, 6)
    assert (s.A, s.B, s.C, s.D, s.M) == (2, -13, 1, -6, 1)
    assert s.N == 2
    assert check_subfamily(s).valid
    make_Y(13, 1, 12)
    with pytest.raises(ValueError):
        make_Y(13, 5, 2)  # 5 * 2 != 12
    with pytest.raises(ValueError):
        make_Y(11, 2, 5)  # 11 = 3 mod 4


def test_predict_Y_examples():
    assert predict_Y(13, 2, 6).obstructed_by == ("A",)
    assert predict_Y(13, 1, 12).obstructed_by == ()
    assert predict_Y(13, 12, 1).obstructed_by == ()
    # the congruence criterion is asserted internally on every call
    for p in (5, 13, 17, 29):
        for a in range(1, p):
            if (p - 1) % a == 0:
                predict_Y(p, a, (p - 1) // a)


def test_make_S_examples():
    s = make_S(13, 153, 179)
    assert (s.A, s.B, s.C, s.D, s.M, s.N) == (1, 1, 153, 179, 1, 1)
    assert check_S_params(13, 154, 179)  # parity fails
    assert any("odd" in f for f in check_S_params(13, 154, 179))
    assert any("4ab" in f or "!=" in f for f in check_S_params(13, 153, 178))
    with pytest.raises(ValueError):
        make_S(13, 154, 179)
    with pytest.raises(ValueError):
        make_S(13, 153, 178)


def test_s_from_t():
    assert s_from_t(13, 1) == (13, 153, 179)
    p, a, b = s_from_t(13, 9)
    assert not check_S_params(p, a, b)
    with pytest.raises(ValueError):
        s_from_t(13, 2)  # wrong congruence class of t
    with pytest.raises(ValueError):
        s_from_t(17, 1)  # 17 = 1 mod 8


@pytest.mark.parametrize("p", [13, 29, 37, 53])
def test_s_from_t_three_admissible_t(p):
    t0 = 3 * (p - 1) // 4 % 8 or 8
    for i in range(3):
        _, a, b = s_from_t(p, t0 + 8 * i)
        make_S(p, a, b)  # full validation


def test_predict_S():
    assert predict_S(13, 153, 179).obstructed_by == ("B",)
    with pytest.raises(ValueError):
        predict_S(13, 3, 5)


def test_point_search_paper_points():
    assert (1, -3, 2, 7, 16) in point_search(make_Y(13, 12, 1), 16)
    assert (1, 0, 0, 0, 1) in point_search(make_Y(13, 1, 12), 1)
    assert point_search(make_Y(13, 2, 6), 200) == []


def test_point_search_finds_all_primitive_points_small():
    # brute-force comparison within a small box
    s = make_Y(5, 1, 4)
    bound = 6
    brute = set()
    import itertools
    from math import gcd

    for t in itertools.product(range(-bound, bound + 1), repeat=5):
        if not any(t):
            continue
        g = 0
        for c in t:
            g = gcd(g, c)
        if g != 1:
            continue
        lead = next(c for c in t if c)
        if lead < 0:
            continue
        if s.eq1(t) == 0 and s.eq2(t) == 0:
            brute.add(t)
    assert set(point_search(s, bound)) == brute


def test_point_search_results_verify():
    s = make_Y(13, 3, 4)
    pts = point_search(s, 25)
    assert pts
    for pt in pts:
        assert s.contains(pt)
        assert reciprocity_check(s, pt)


def test_point_search_jobs_agree():
    s = make_Y(13, 12, 1)
    assert point_search(s, 12, jobs=2) == point_search(s, 12)
    s = SubfamilySurface(5, 1, 1, 1, 4, -1)  # points at seven values of u up to height 40
    pts = point_search(s, 40)
    assert len({pt[0] for pt in pts}) == 7
    for jobs in (2, 3):
        assert point_search(s, 40, jobs=jobs) == pts
    s = SubfamilySurface(5, 2, 3, 2, -3, 24)  # B D < 0, and 3 | M is inert at p = 5
    pts = point_search(s, 40)
    assert len(pts) == 12
    assert point_search(s, 40, jobs=3) == pts
    s = make_Y(29, 1, 28)  # walked swapped: the window cut skips 112 of the 120 values of v
    pts = point_search(s, 120)
    assert pts
    assert point_search(s, 120, jobs=3) == pts


def test_point_search_starts_no_worker_without_a_value_of_u(monkeypatch):
    # min(jobs, h) workers: none at h <= 1, two at h = 2 whatever jobs asks;
    # B D > A C, so v is walked and the h = 1 points lie on the line v = 0
    s = make_Y(13, 1, 12)
    serial = {h: point_search(s, h) for h in (0, 1, 2)}
    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    def no_pool(method):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)  # point_search imports it where it starts a pool
    assert point_search(s, 0, jobs=4) == serial[0]
    assert point_search(s, 1, jobs=8) == serial[1] == [(1, 0, 0, 0, -1), (1, 0, 0, 0, 1)]
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=InlinePool))
    assert point_search(s, 2, jobs=8) == serial[2]
    assert sizes == [2]


def test_point_search_jobs_agree_on_a_surface_with_kept_data():
    # BD < AC, so the workers walk s itself, pickled with its places and
    # pattern tables; they search as on a fresh instance
    s = SubfamilySurface(5, 2, 3, 2, -3, 24)
    pts = point_search(s, 40)
    assert all(reciprocity_check(s, pt) for pt in pts)
    for q in relevant_places(s):
        invariant_image(s, q, sample_budget=8)
    assert s.memo["places"] and len(s.memo) > 1
    assert point_search(s, 40, jobs=2) == pts == point_search(SubfamilySurface(5, 2, 3, 2, -3, 24), 40)


def test_forced_divisors_match_their_definition():
    # g(|M| u): the product of l^ceil(k/2) over the odd primes l <= n with
    # (p/l) = -1 and l^k || |M| u, each l proved prime on its own; p | M and
    # l^2 | M included, and beyond the sieve (2^16) at u = l
    def inert(p, n):
        return [l for l in range(3, n + 1, 2) if is_prime(l) and legendre(p, l) == -1]

    def g(primes, M, u):
        return math.prod(l ** ((valuation(abs(M) * u, l) + 1) // 2) for l in primes if (M * u) % l == 0)

    for p, M in ((13, 1), (13, 13 * 5), (5, 24), (29, 3 ** 2 * 11 ** 3), (13, -5 ** 2 * 7 ** 3), (101, 2 * 3 ** 4)):
        for n in (1, 2, 9, 50, 400):
            primes = inert(p, n)
            assert _forced_divisors(p, M, n) == [1] + [g(primes, M, u) for u in range(1, n + 1)], (p, M, n)
    n = (1 << 16) + 64
    primes = inert(13, n)
    beyond = [l for l in primes if l > 1 << 16]
    assert len(beyond) >= 3
    big = _forced_divisors(13, 7 ** 3, n)
    for u in beyond + [1, 7, 49, 5 ** 3 * 11, 65535]:
        assert big[u] == g(primes, 7 ** 3, u), u


def test_point_search_rejects_a_negative_height_or_no_jobs():
    s = make_Y(13, 12, 1)
    with pytest.raises(ValueError, match="height_bound"):
        point_search(s, -1)
    with pytest.raises(ValueError, match="jobs"):
        point_search(s, 8, jobs=0)
    assert point_search(s, 0) == []
    row = census_Y(5, height_bound=-2, sample_budget=8).rows[0]
    assert row.error.startswith("ValueError") and not row.agreement


@pytest.mark.parametrize("p", [5, 13, 17, 29, 37, 41, 53])
def test_forced_divisor_divides_every_solution(p):
    # every solution of y^2 = p x^2 mod m has g(m) | x and g(m) | y
    g = _forced_divisors(p, 1, 12000)
    for m in range(1, 121):
        roots = {}
        for y in range(m):
            roots.setdefault(y * y % m, []).append(y)
        for x in range(m):
            for y in roots.get(p * x * x % m, ()):
                assert x % g[m] == 0 and y % g[m] == 0, (p, m, x, y)
    inert = [q for q in (3, 5, 7, 11) if q != p and pow(p, q // 2, q) == q - 1]
    for q in inert:
        assert (g[q], g[q * q], g[q ** 3]) == (q, q, q * q)
    if p == 13:
        assert g[125] == 25 and g[2 * 5 * 7 * 11] == 5 * 7 * 11 and g[3 * 17 * 23] == 1
    if p == 5:
        assert g[9] == 3 and g[27] == 9 and g[63] == 21
    # the table for M != 1 holds g(|M| u), built from v_q(M) and the multiples of q in u
    for M in (9, -27, 25, -175, 2 * 3 ** 4 * 7):
        gM = _forced_divisors(p, M, 10)
        assert gM[1:] == [g[abs(M) * u] for u in range(1, 11)], M


def _mixed_sign_surfaces():
    """Seeded valid surfaces, two in three with B D < 0, the first four at p = 5 with 9 | M."""
    rng = random.Random(18)
    out = []
    while len(out) < 12:
        p, M = ((5, rng.choice((-27, -9, 9, 27))) if len(out) < 4 else
                (rng.choice((5, 13)), rng.choice([m for m in range(-30, 31) if m])))
        A, B, C, D = (rng.randint(-6, 6) for _ in range(4))
        s = SubfamilySurface(p, A, B, C, D, M)
        if s not in out and check_subfamily(s).valid and (B * D < 0) == (len(out) % 3 > 0):
            out.append(s)
    return out


def _shell_scan(s, bound):
    """Reference search: every (u, v) by |u| + |v| shell, every x, two square tests."""
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    h2 = bound * bound
    found = set()
    for shell in range(0, 2 * bound + 1):
        for u in range(0, min(shell, bound) + 1):
            vv = shell - u
            if vv > bound or (u == 0 and vv == 0):
                continue
            for v in ((vv,) if (u == 0 or vv == 0) else (vv, -vv)):
                if u == 0 and v <= 0:
                    continue
                muv = M * u * v
                q2 = (A * u + B * v) * (C * u + D * v)
                lo = max(-muv, -q2, 0)
                hi = min(h2 - muv, h2 - q2)
                if hi < lo:
                    continue
                xmin = isqrt((lo + p - 1) // p)
                if xmin * xmin * p < lo:
                    xmin += 1
                for x in range(xmin, min(isqrt(hi // p), bound) + 1):
                    y = isqrt(muv + p * x * x)
                    z = isqrt(q2 + p * x * x)
                    if y * y != muv + p * x * x or z * z != q2 + p * x * x:
                        continue
                    for pt in itertools.product((u,), (v,), {x, -x}, {y, -y}, {z, -z}):
                        if gcd(*pt) == 1:
                            found.add(pt)
    return sorted(found)


def test_point_search_matches_the_shell_scan():
    sweep = [s for p in (5, 13)
             for s in search_valid_surfaces(p, (0, 0, 0, 0, 0), m_range=55, limit=16)]
    assert len(sweep) == 32
    assert any(s.M < -1 for s in sweep) and any(s.M > 1 for s in sweep)
    assert any(s.B * s.D == isqrt(s.B * s.D) ** 2 for s in sweep if s.B * s.D > 0)
    # at height 11, X_5_1_2_2_1_11 has (2, -2, 5, 9, 11) with p x^2 > h^2
    for s in sweep:
        for bound in (1, 3, 8, 11, 20):
            assert point_search(s, bound) == _shell_scan(s, bound), (s.label(), bound)
    family = [make_Y(5, 1, 4), make_Y(13, 12, 1), make_Y(13, 1, 12), make_Y(13, 3, 4),
              make_Y(13, 2, 6), make_Y(29, 4, 7), make_S(13, 153, 179), make_S(*s_from_t(29, 5))]
    # the first family is walked swapped and its mirrors (B, A, D, C) are not;
    # on make_Y(5, 1, 4), (13, 1, 12), (13, 3, 4), (13, 2, 6) and their mirrors
    # the window cut skips most outer values at these heights, and A C = 1 on
    # make_Y(13, 1, 12) puts its height-1 points on the line v = 0
    family += [_swapped(s) for s in family[:5]]
    assert {s.B * s.D > s.A * s.C for s in family} == {True, False}
    assert (1, 0, 0, 0, 1) in point_search(make_Y(13, 1, 12), 60)
    for s in family:
        for bound in (60, 120):
            assert point_search(s, bound) == _shell_scan(s, bound), (s.label(), bound)


def test_point_search_matches_the_shell_scan_on_either_sign_of_BD():
    # the v-window takes z^2 >= 0 as its bound when B D < 0 and z^2 <= h^2 when B D > 0
    edge = SubfamilySurface(5, 1, -4, -1, 1, -9)  # v = h and z = 0 at the window's ends
    assert (1, 4, -3, -3, 0) in point_search(edge, 4)
    surfaces = [edge] + _mixed_sign_surfaces()
    assert {s.B * s.D > 0 for s in surfaces} == {True, False}
    assert any(_forced_divisors(s.p, s.M, abs(s.M))[1] > 1 for s in surfaces)
    for s in surfaces:
        for bound in (4, 8, 20, 40):
            assert point_search(s, bound) == _shell_scan(s, bound), (s.label(), bound)
    assert sum(bool(point_search(s, 40)) for s in surfaces if s.B * s.D < 0) >= 4
    # the window cut's edge: at u = 1 and h = 4, z^2 <= h^2 meets |v| <= h
    # only at v = -4, where x = 0 and z = h; the mirror walks it swapped
    tangent = SubfamilySurface(13, -108, -23, -13, -3, -1)
    assert (1, -4, 0, 2, 4) in point_search(tangent, 4)
    for s in (tangent, _swapped(tangent)):
        assert point_search(s, 4) == _shell_scan(s, 4), s.label()


def _swapped(s):
    """The surface with u and v exchanged: (A, B, C, D) -> (B, A, D, C)."""
    return SubfamilySurface(s.p, s.B, s.A, s.D, s.C, s.M)


def _orientation_surfaces():
    """Seeded valid surfaces, five for each sign pattern of (B D, A C)."""
    rng = random.Random(39)
    out = []
    while len(out) < 20:
        pattern = (len(out) // 5 % 2 == 1, len(out) >= 10)  # (B D > 0, A C > 0)
        p, M = rng.choice((5, 13)), rng.choice([m for m in range(-40, 41) if m])
        A, B, C, D = (rng.choice([a for a in range(-9, 10) if a]) for _ in range(4))
        s = SubfamilySurface(p, A, B, C, D, M)
        if (B * D > 0, A * C > 0) == pattern and s not in out and check_subfamily(s).valid:
            out.append(s)
    return out


def test_search_hyperbola_agrees_in_both_orientations():
    # walking u on s and walking u on its mirror (the v of s) give one point set
    def frame(s, h):  # the walk plus its u = 0 line, x = y = 0 and z^2 = B D
        line = {(0, 1, 0, 0, z) for z in range(-h, h + 1) if h and z * z == s.B * s.D}
        return line | _search_hyperbola(s, h, range(1, h + 1))

    surfaces = _orientation_surfaces()
    assert any(abs(s.M) > 1 for s in surfaces)
    cases = [(s, h) for s in surfaces for h in (20, 40, 80)]
    cases += [(make_Y(13, 1, 12), 120), (make_Y(29, 1, 28), 120), (make_Y(61, 2, 30), 120)]
    found = 0
    for s, h in cases:
        direct = frame(s, h)
        mirrored = {(v, u, x, y, z) if v >= 0 else (-v, -u, -x, -y, -z)
                    for u, v, x, y, z in frame(_swapped(s), h)}
        assert direct == mirrored, (s.label(), h)
        assert point_search(s, h) == sorted(direct), (s.label(), h)
        found += bool(direct)
    assert found >= 20


def test_point_search_walks_only_the_roots_in_the_y_window():
    # the selection of roots by the cyclic interval [ylo, yhi] mod m, on
    # windows narrower than m that wrap and that do not, beside wide ones;
    # at height 20, |M| = 24 > h + 1 keeps every window narrow and unwrapped
    # and 3 | M, inert at p = 5, makes g(m) >= 3 at every u; X_5_1_1_1_4_-1
    # has wrapped intervals with no root between their ends
    wide_m = SubfamilySurface(5, 2, 3, 2, -3, 24)
    assert all(g % 3 == 0 for g in _forced_divisors(5, 24, 20)[1:])
    wraps = SubfamilySurface(5, 1, 1, 1, 4, -1)
    for s, bound in ((wide_m, 20), (wide_m, 40), (make_Y(13, 3, 4), 60), (wraps, 20)):
        assert point_search(s, bound) == _shell_scan(s, bound), (s.label(), bound)
    found = point_search(wraps, 40, jobs=2)
    assert len(found) == 48 and found == _shell_scan(wraps, 40)


def test_family_of_agrees_with_the_constructors():
    for p in range(5, 101):
        if p % 4 == 1 and is_prime(p):
            for a in range(1, p):
                if (p - 1) % a == 0:
                    assert family_of(make_Y(p, a, (p - 1) // a)) == ("Y", (p, a, (p - 1) // a))
    for p in (13, 29, 37, 53):
        t0 = 3 * (p - 1) // 4 % 8 or 8
        for t in range(t0, t0 + 24, 8):
            params = s_from_t(p, t)
            assert family_of(make_S(*params)) == ("S", params)
    for s in CASE_PATTERN_SURFACES.values():
        assert family_of(s) is None, s
    assert family_of(make_Y(13, -2, -6)) is None  # a, b < 0: no closed form


def test_census_small():
    res = census_Y(17, height_bound=8, sample_budget=16)
    assert len(res.rows) == 14
    assert all(r.agreement for r in res.rows)
    assert all(r.error is None for r in res.rows)
    obstructed = [r.params for r in res.rows if r.computed]
    assert obstructed == [(5, 2, 2), (13, 2, 6), (13, 6, 2)]
    for r in res.rows:
        assert r.wa_failure is True
        if not r.computed:
            assert r.points  # a rational point within height 8 on every unobstructed row
    assert res.header["rows"] == 14


def test_census_header_states_its_settings_without_rows():
    # no p = 1 mod 4 prime up to 4, so no rows; the header still holds the settings
    res = census_Y(4, height_bound=10, sample_budget=16, seed=5)
    assert res.rows == ()
    assert res.header == {"rows": 0, "height_bound": 10, "sample_budget": 16, "seed": 5, "jobs": 1,
                          "family": "Y", "p_max": 4}
    res = census_S([], height_bound=7, sample_budget=9, seed=2)
    assert (res.header["height_bound"], res.header["sample_budget"], res.header["seed"]) == (7, 9, 2)


def test_census_jobs_deterministic():
    seq = census_Y(13, sample_budget=16)
    par = census_Y(13, sample_budget=16, jobs=2)
    assert [r.to_json() for r in seq.rows] == [r.to_json() for r in par.rows]


def test_census_S_small():
    res = census_S([13], t_count=2, sample_budget=16)
    assert len(res.rows) == 2
    assert all(r.agreement and r.computed == ("B",) for r in res.rows)
