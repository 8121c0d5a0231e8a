"""Exact rational, modular and p-adic arithmetic primitives.

Everything here works with arbitrary-precision integers and ``Fraction``;
no floating point.  All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt


class BudgetExceeded(Exception):
    """A search ran out of its budget: the answer is "inconclusive", never a wrong one."""


class FactorBudgetExceeded(BudgetExceeded):
    """Factorization gave up within its budget; never a wrong answer."""


class PrimalityBudgetExceeded(BudgetExceeded):
    """n is beyond the deterministic Miller-Rabin bound; no primality proof is attempted."""


class InsufficientPrecisionError(Exception):
    """A p-adic value is too imprecise to answer the question asked."""


# ---------------------------------------------------------------------------
# primality


# Deterministic Miller-Rabin bases, valid for all n < 3.3 * 10^24 (covers 2^64).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < 3.3e24 (all of 2^64); beyond, PrimalityBudgetExceeded."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_DETERMINISTIC_BOUND:
        raise PrimalityBudgetExceeded(f"deterministic primality certification limited to n < 3.3e24, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# places of Q


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: a certified prime q, or the archimedean place (q = 0)."""

    q: int  # 0 encodes the archimedean place

    def __post_init__(self):
        if self.q != 0 and not is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")

    @property
    def is_infinite(self) -> bool:
        return self.q == 0

    def __str__(self) -> str:
        return "oo" if self.q == 0 else str(self.q)


PLACE_INF = Place(0)


# ---------------------------------------------------------------------------
# Legendre symbol and modular square roots


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, +1} for an odd prime p."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"legendre needs an odd prime, got {p}")
    return _legendre_unchecked(a, p)


def _legendre_unchecked(a: int, p: int) -> int:
    # Inner-loop variant: caller guarantees p is an odd prime.
    a %= p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else 1


def _prime_is_square_at(p: int, q: int) -> bool:
    """Whether the odd prime p is a square in Q_q (q proved prime), so that every (p, f)_q
    is 1: p = 1 mod 8 at q = 2, (p/q) = 1 at odd q != p, never at q = p."""
    return p % 8 == 1 if q == 2 else q != p and _legendre_unchecked(p, q) == 1


def find_nonresidue(p: int) -> int:
    """Smallest quadratic non-residue modulo an odd prime p."""
    for z in range(2, p):
        if _legendre_unchecked(z, p) == -1:
            return z
    raise ValueError(f"no non-residue found; {p} is not an odd prime")


def sqrt_mod(a: int, p: int) -> int | None:
    """Square root of a modulo an odd prime p, in [0, p/2]; None if non-residue.

    Tonelli-Shanks; returns 0 when p | a.
    """
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"sqrt_mod needs an odd prime, got {p}")
    return _sqrt_mod_unchecked(a, p)


def _sqrt_mod_unchecked(a: int, p: int, nonresidue: int | None = None) -> int | None:
    # Inner-loop variant: caller guarantees p is an odd prime; nonresidue, if given, is one mod p.
    a %= p
    if a == 0:
        return 0
    if _legendre_unchecked(a, p) == -1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # p = 1 mod 4: write p - 1 = d * 2^s with d odd.
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    c = pow(nonresidue or find_nonresidue(p), d, p)
    r = pow(a, (d + 1) // 2, p)
    t = pow(a, d, p)
    m = s
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def valuation(n: int, q: int) -> int:
    """q-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def fraction_valuation(x: Fraction | int, q: int) -> int:
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0 is infinite")
    return valuation(x.numerator, q) - valuation(x.denominator, q)


def unit_part_mod(x: Fraction | int, q: int, mod: int) -> int:
    """The unit u with x = q^v * u, reduced modulo ``mod`` (a power of q)."""
    x = Fraction(x)
    num, den = x.numerator, x.denominator
    num //= q ** valuation(num, q)
    den //= q ** valuation(den, q)
    return num * pow(den, -1, mod) % mod


# ---------------------------------------------------------------------------
# p-adic scalars


@dataclass(frozen=True)
class PadicScalar:
    """q^e * u with u a unit known modulo q^k (relative precision k >= 1).

    A scalar whose valuation exceeds the working precision is represented with
    ``u = 0`` and ``k = 0``: the "indeterminate zero".  Any operation that needs
    its square class raises InsufficientPrecisionError.
    """

    q: int
    e: int
    u: int
    k: int

    def __post_init__(self):
        if self.k > 0 and (self.u % self.q == 0 or not (0 < self.u < self.q ** self.k)):
            raise ValueError("unit residue must be a reduced unit mod q^k")

    @property
    def is_indeterminate(self) -> bool:
        return self.k == 0

    @staticmethod
    def from_residue(q: int, residue: int, abs_prec: int) -> "PadicScalar":
        """Interpret residue mod q^abs_prec as a scalar known to that absolute precision."""
        residue %= q ** abs_prec
        if residue == 0:
            return PadicScalar(q, abs_prec, 0, 0)
        e = valuation(residue, q)
        u = residue // q ** e
        return PadicScalar(q, e, u % q ** (abs_prec - e), abs_prec - e)

    @staticmethod
    def from_rational(q: int, x: Fraction | int, k: int) -> "PadicScalar":
        x = Fraction(x)
        if x == 0:
            raise ValueError("exact zero has no PadicScalar representation")
        e = fraction_valuation(x, q)
        return PadicScalar(q, e, unit_part_mod(x, q, q ** k), k)

    def require_determinate(self) -> None:
        if self.is_indeterminate:
            raise InsufficientPrecisionError(
                f"value is 0 mod {self.q}^{self.e}; valuation, hence square class, unknown")

    def unit_mod(self, m: int) -> int:
        """Unit part reduced mod q^m (m <= k)."""
        self.require_determinate()
        if m > self.k:
            raise InsufficientPrecisionError(f"need unit mod {self.q}^{m}, have precision {self.k}")
        return self.u % self.q ** m


# ---------------------------------------------------------------------------
# Hilbert symbol


def hilbert_valunit(q: int, val_a: int, unit_a: int, val_b: int, unit_b: int) -> int:
    """Hilbert symbol (a, b)_q from valuations and unit parts.

    For odd q the units are needed mod q; for q = 2 mod 8, with eps(u) = (u - 1)/2
    and omega(u) = (u^2 - 1)/8 in the exponent (J.-P. Serre, A Course in Arithmetic, III.1.2).
    """
    if q == 2:
        a, b = unit_a % 8, unit_b % 8
        exp = (a - 1) // 2 * ((b - 1) // 2) + val_a * ((b * b - 1) // 8) + val_b * ((a * a - 1) // 8)
        return -1 if exp % 2 else 1
    s = 1
    if val_a % 2 and val_b % 2 and (q - 1) // 2 % 2:
        s = -s
    if val_b % 2:
        s *= _legendre_unchecked(unit_a, q)
    if val_a % 2:
        s *= _legendre_unchecked(unit_b, q)
    return s


def hilbert_symbol(a: Fraction | int, b: Fraction | int, v: Place) -> int:
    """Hilbert symbol (a, b)_v in {+1, -1} for nonzero rationals a, b."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if v.is_infinite:
        return -1 if (a < 0 and b < 0) else 1
    q = v.q
    mod = 8 if q == 2 else q
    return hilbert_valunit(q, fraction_valuation(a, q), unit_part_mod(a, q, mod),
                           fraction_valuation(b, q), unit_part_mod(b, q, mod))


def hilbert_symbol_padic(a: Fraction | int, b: PadicScalar) -> int:
    """(a, b)_q for exact rational a and a p-adic scalar b at q = b.q.

    Unused by the library since the invariant evaluator calls
    ``hilbert_valunit`` directly; kept while perfbench declares metrics for it.
    """
    b.require_determinate()
    q = b.q
    mod = 8 if q == 2 else q
    if q == 2 and b.k < 3:
        raise InsufficientPrecisionError("Hilbert symbol at 2 needs units mod 8")
    a = Fraction(a)
    return hilbert_valunit(q, fraction_valuation(a, q), unit_part_mod(a, q, mod),
                           b.e, b.unit_mod(min(3, b.k)) if q == 2 else b.unit_mod(1))


# ---------------------------------------------------------------------------
# factorization and square classes


_SIEVE_BOUND = 1 << 16
RHO_BUDGET = 2_000_000  # rho steps per seed before factor gives up
_small_primes: list[int] | None = None


def _sieve_primes() -> list[int]:
    global _small_primes
    if _small_primes is None:
        sieve = bytearray([1]) * _SIEVE_BOUND
        sieve[0] = sieve[1] = 0
        for i in range(2, isqrt(_SIEVE_BOUND) + 1):
            if sieve[i]:
                sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
        _small_primes = [i for i in range(_SIEVE_BOUND) if sieve[i]]
    return _small_primes


def _brent_rho(n: int, budget: int, seed: int) -> int | None:
    # Brent's cycle variant; returns a nontrivial factor or None on budget exhaustion.
    if n % 2 == 0:
        return 2
    state = seed
    steps = 0
    while steps < budget:
        state = (state * 1103515245 + 12345) % n
        c = state % (n - 1) + 1
        y, m, g, r, iters = 2, 128, 1, 1, 0
        while g == 1 and steps < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                prod = 1
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                steps += min(m, r - k)
                g = gcd(prod, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
    return None


def factor(n: int) -> list[int]:
    """Prime factorization of n >= 1, with multiplicity, sorted.

    Trial division over a sieve, then deterministic primality plus Brent's rho
    (RHO_BUDGET steps per seed).  Raises FactorBudgetExceeded, never guesses.
    """
    if n < 1:
        raise ValueError(f"factor needs n >= 1, got {n}")
    out: list[int] = []
    for q in _sieve_primes():
        if q * q > n:  # n has no prime factor up to its square root: 1 or prime
            return out + [n] if n > 1 else out
        while n % q == 0:
            out.append(q)
            n //= q
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < _MR_DETERMINISTIC_BOUND and is_prime(m):
            out.append(m)
            continue
        # m is composite, or too large to certify prime: it must be split

        d = None
        for seed in range(1, 8):
            d = _brent_rho(m, RHO_BUDGET, seed)
            if d is not None and 1 < d < m:
                break
            d = None
        if d is None:
            raise FactorBudgetExceeded(f"could not split {m} within budget")
        stack.append(d)
        stack.append(m // d)
    out.sort()
    return out


@dataclass(frozen=True)
class SquareClass:
    """A nonzero rational modulo squares, held as a signed squarefree integer."""

    rep: int

    def __post_init__(self):
        if self.rep == 0:
            raise ValueError("square class of zero is undefined")

    @property
    def is_square(self) -> bool:
        return self.rep == 1


def square_class(x: Fraction | int) -> SquareClass:
    """Squarefree representative of a nonzero rational modulo rational squares."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("square class of zero is undefined")
    n = x.numerator * x.denominator  # same class as x
    sign = -1 if n < 0 else 1
    n = abs(n)
    rep = sign
    for q in set(factor(n)):
        if valuation(n, q) % 2:
            rep *= q
    return SquareClass(rep)


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, sorted."""
    ds = [1]
    last = None
    for q in factor(n):
        if q != last:
            base = list(ds)
            power = 1
            last = q
        power *= q
        ds.extend(d * power for d in base)
    return sorted(set(ds))
