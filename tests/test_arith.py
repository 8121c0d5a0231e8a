import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp4 import arith
from dp4.arith import (
    FactorBudgetExceeded,
    InsufficientPrecisionError,
    PadicScalar,
    Place,
    PLACE_INF,
    divisors,
    factor,
    hilbert_symbol,
    hilbert_symbol_padic,
    is_prime,
    legendre,
    sqrt_mod,
    square_class,
    unit_part_mod,
    valuation,
)


def brute_legendre(a, p):
    # independent oracle: enumerate all squares mod p
    squares = {x * x % p for x in range(1, p)}
    a %= p
    if a == 0:
        return 0
    return 1 if a in squares else -1


def test_legendre_spec_values():
    assert legendre(2, 13) == brute_legendre(2, 13) == -1
    assert legendre(0, 13) == 0
    assert legendre(3, 13) == brute_legendre(3, 13) == 1  # 4^2 = 16 = 3 mod 13


def test_legendre_rejects_bad_modulus():
    with pytest.raises(ValueError):
        legendre(3, 12)
    with pytest.raises(ValueError):
        legendre(3, 2)


@pytest.mark.parametrize("p", [p for p in range(3, 102) if is_prime(p)])
def test_sqrt_mod_agrees_with_legendre_exhaustively(p):
    for a in range(p):
        r = sqrt_mod(a, p)
        if legendre(a, p) == -1:
            assert r is None
        else:
            assert r is not None and (r * r - a) % p == 0
            assert 0 <= r <= p // 2


@pytest.mark.parametrize("p", [13, 17, 41, 97, 10037])
def test_unchecked_sqrt_mod_with_a_given_nonresidue_is_sqrt_mod(p):
    z = arith.find_nonresidue(p)
    for a in range(min(p, 200)):
        assert arith._sqrt_mod_unchecked(a, p, z) == sqrt_mod(a, p)


def test_sqrt_mod_spec_values():
    assert sqrt_mod(3, 13) == 4
    assert sqrt_mod(0, 13) == 0
    assert sqrt_mod(2, 13) is None


def test_indeterminate_zero_raises():
    z = PadicScalar.from_residue(13, 0, 4)
    assert z.is_indeterminate
    with pytest.raises(InsufficientPrecisionError):
        z.require_determinate()


def test_hilbert_spec_values():
    assert hilbert_symbol(-1, -1, PLACE_INF) == -1
    assert hilbert_symbol(13, 2, Place(13)) == -1
    assert hilbert_symbol(5, -1, Place(5)) == 1  # -1 = 2^2 mod 5


def exhaustive_hilbert(a, b, q, k):
    """Oracle: z^2 = a x^2 + b y^2 has a solution mod q^k with x or y a unit.

    Valid discriminator for valuations <= 1 once q^k is past the Hensel
    threshold (k >= 3 odd q, k >= 5 at q = 2).
    """
    mod = q ** k
    squares = {z * z % mod for z in range(mod)}
    for x in range(mod):
        ax2 = a * x * x
        for y in range(mod):
            if x % q == 0 and y % q == 0:
                continue
            if (ax2 + b * y * y) % mod in squares:
                return 1
    return -1


@pytest.mark.parametrize("q,k", [(2, 5), (3, 3), (5, 3)])
def test_hilbert_matches_exhaustive_solubility(q, k):
    rng = random.Random(20 + q)
    for _ in range(25):
        a = rng.choice([1, q]) * rng.choice([u for u in range(1, 24) if u % q])
        b = rng.choice([1, q]) * rng.choice([u for u in range(1, 24) if u % q])
        a *= rng.choice([1, -1])
        b *= rng.choice([1, -1])
        assert hilbert_symbol(a, b, Place(q)) == exhaustive_hilbert(a, b, q, k), (a, b, q)


def test_hilbert_matches_exhaustive_solubility_13():
    rng = random.Random(33)
    for _ in range(6):
        a = rng.choice([1, 13]) * rng.choice([1, 2, 3, 5, 6])
        b = rng.choice([1, 13]) * rng.choice([1, 2, 3, 5, 6])
        assert hilbert_symbol(a, b, Place(13)) == exhaustive_hilbert(a, b, 13, 3), (a, b)


def relevant_places(a: Fraction, b: Fraction):
    qs = {2}
    for x in (a, b):
        qs.update(factor(abs(x.numerator)))
        qs.update(factor(x.denominator))
    return [PLACE_INF] + [Place(q) for q in sorted(qs)]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-300, max_value=300).filter(lambda n: n != 0),
    st.integers(min_value=-300, max_value=300).filter(lambda n: n != 0),
)
def test_hilbert_reciprocity(a, b):
    prod = 1
    for v in relevant_places(Fraction(a), Fraction(b)):
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
    st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
    st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0),
    st.sampled_from([0, 2, 3, 5, 7, 13]),
)
def test_hilbert_bilinearity(a, b, c, q):
    v = PLACE_INF if q == 0 else Place(q)
    assert hilbert_symbol(a, b * c, v) == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)


def test_hilbert_padic_agrees_with_rational():
    for q in (2, 3, 13):
        for b in (3, 50, -7, 13, 26):
            if b == 0:
                continue
            scalar = PadicScalar.from_rational(q, b, 6)
            assert hilbert_symbol_padic(13, scalar) == hilbert_symbol(13, b, Place(q))


def test_square_class_spec_values():
    assert square_class(-12).rep == -3
    assert square_class(13 * 36).rep == 13
    assert square_class(109561 - 109548).rep == 13


def test_square_class_of_fractions():
    assert square_class(Fraction(1, 2)).rep == 2
    assert square_class(Fraction(-4, 9)).rep == -1


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=-5000, max_value=5000).filter(lambda n: n != 0),
    st.integers(min_value=-5000, max_value=5000).filter(lambda n: n != 0),
    st.integers(min_value=1, max_value=50),
)
def test_square_class_kills_squares_and_multiplies(x, y, s):
    assert square_class(x * s * s) == square_class(x)
    assert square_class(square_class(x).rep * square_class(y).rep) == square_class(x * y)


def test_factor_spec_values():
    assert factor(1) == []
    assert factor(109548) == [2, 2, 3, 3, 17, 179]
    assert factor(13) == [13]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 9))
def test_factor_roundtrip(n):
    fs = factor(n)
    prod = 1
    for q in fs:
        assert is_prime(q)
        prod *= q
    assert prod == n


def test_factor_needs_no_primality_test_once_trial_division_passes_the_root(monkeypatch):
    # once trial division passes the square root of the cofactor, the
    # cofactor is 1 or prime, and no primality test runs
    def no_test(n):
        raise AssertionError(f"is_prime({n}) called")

    spf = list(range(10 ** 5))  # smallest prime factor, by a sieve
    for q in range(2, 317):
        if spf[q] == q:
            spf[q * q::q] = [min(m, q) for m in spf[q * q::q]]
    monkeypatch.setattr(arith, "is_prime", no_test)
    for n in range(1, 10 ** 5):
        want, m = [], n
        while m > 1:
            want.append(spf[m])
            m //= spf[m]
        assert factor(n) == want, n
    rng = random.Random(0)
    primes = [q for q in range(2, 1 << 16) if spf[q] == q]
    for _ in range(300):
        p1, p2 = rng.choice(primes), rng.choice(primes)
        assert factor(p1 * p2) == sorted([p1, p2]), (p1, p2)
    assert factor(65519 * 65521) == [65519, 65521] and factor(65521 ** 2) == [65521, 65521]


def test_factor_budget_failure_is_loud(monkeypatch):
    # product of two 40-digit primes is far beyond any rho budget this small
    p1 = 2 ** 127 - 1
    p2 = 2 ** 89 - 1
    monkeypatch.setattr(arith, "RHO_BUDGET", 10)
    with pytest.raises(FactorBudgetExceeded):
        factor(p1 * p1)


def test_every_budget_error_is_a_budget_exceeded():
    from dp4 import BudgetExceeded
    from dp4.localsolve import EnumerationBudgetError, SamplingBudgetError

    for exc in (FactorBudgetExceeded, arith.PrimalityBudgetExceeded, EnumerationBudgetError, SamplingBudgetError):
        assert issubclass(exc, BudgetExceeded), exc


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_place_validation():
    with pytest.raises(ValueError):
        Place(12)
    assert str(Place(13)) == "13"
    assert PLACE_INF.is_infinite


def test_unit_part_mod():
    assert unit_part_mod(Fraction(13, 4), 2, 8) == unit_part_mod(13, 2, 8)
    assert valuation(48, 2) == 4


def test_prime_is_square_at_is_the_trivial_hilbert_symbol():
    # p is a square in Q_q exactly when (p, b)_q = 1 for every b in a set of
    # representatives of Q_q^x / (Q_q^x)^2: {+-1, +-5} times {1, 2} at 2,
    # {1, n} times {1, q} at odd q, n a non-residue mod q
    primes = [q for q in range(2, 200) if is_prime(q)]
    squares = 0
    for p in primes[1:]:
        for q in primes:
            if q == 2:
                classes = [u * t for u in (1, -1, 5, -5) for t in (1, 2)]
            else:
                n = arith.find_nonresidue(q)
                classes = [u * t for u in (1, n) for t in (1, q)]
            trivial = all(hilbert_symbol(p, b, Place(q)) == 1 for b in classes)
            assert arith._prime_is_square_at(p, q) == trivial, (p, q)
            squares += trivial
    assert squares > 500 and not arith._prime_is_square_at(17, 17)
