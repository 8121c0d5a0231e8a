"""Shared test utilities: surface generators and independent solubility oracles."""

import itertools
import random

from dp4.arith import is_perfect_square
from dp4.quadform import SubfamilySurface, check_subfamily


def search_valid_surfaces(p, valuations, unit_range=7, m_range=40, limit=3):
    """Valid surfaces whose coefficients carry the given p-valuations.

    Scans small unit multipliers and checks (C1)/(C2) exactly; the systematic
    source of case-specific inputs for the witness machinery.
    """
    vA, vB, vC, vD, vM = valuations
    out = []
    for uA, uB, uC, uD in itertools.product(range(1, unit_range), repeat=4):
        if any(u % p == 0 for u in (uA, uB, uC, uD)):
            continue
        A, B, C, D = uA * p ** vA, uB * p ** vB, uC * p ** vC, uD * p ** vD
        if A * D == B * C:
            continue
        for uM in range(-m_range, m_range + 1):
            if uM == 0 or uM % p == 0:
                continue
            M = uM * p ** vM
            val = (A * D + B * C - M) ** 2 - 4 * A * B * C * D
            if val <= 0 or val % p:
                continue
            if not is_perfect_square(val // p):
                continue
            s = SubfamilySurface(p, A, B, C, D, M)
            if check_subfamily(s).valid:
                out.append(s)
                if len(out) >= limit:
                    return out
    return out


def box_slice(seed, count):
    """Distinct valid surfaces drawn from p in {5, 13}, |A|, |B|, |C|, |D| <= 6, 0 < |M| <= 30."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.choice((5, 13))
        A, B, C, D = (rng.randint(-6, 6) for _ in range(4))
        M = rng.choice([m for m in range(-30, 31) if m])
        s = SubfamilySurface(p, A, B, C, D, M)
        if s not in out and check_subfamily(s).valid:
            out.append(s)
    return out


def exhaustive_primitive_solutions_exist(s: SubfamilySurface, q: int, k: int) -> bool:
    """Independent oracle: does a primitive solution mod q^k exist?

    Plain (u, v, x) scan with square-root tables mod q^k, no Hensel machinery.
    Cost is (q^k)^3, so only for small levels.
    """
    mod = q ** k
    is_sq = [False] * mod
    unit_root = [False] * mod
    for r in range(mod):
        r2 = r * r % mod
        is_sq[r2] = True
        if r % q:
            unit_root[r2] = True
    p, A, B, C, D, M = s.p, s.A, s.B, s.C, s.D, s.M
    for u in range(mod):
        for v in range(mod):
            muv = M * u * v
            q2 = (A * u + B * v) * (C * u + D * v)
            for x in range(mod):
                px2 = p * x * x
                r1 = (muv + px2) % mod
                if not is_sq[r1]:
                    continue
                r2 = (q2 + px2) % mod
                if not is_sq[r2]:
                    continue
                if u % q or v % q or x % q or unit_root[r1] or unit_root[r2]:
                    return True
    return False


# Frozen insoluble-at-p instances (valid (C1)/(C2) surfaces whose reduction
# hits the non-square residue pattern); found by search_valid_surfaces.
INSOLUBLE_AT_P = [
    SubfamilySurface(5, 5, 5, 1, 4, -45),
    SubfamilySurface(5, 5, 5, 1, 4, -5),
    SubfamilySurface(13, 13, 13, 1, 4, -221),
]

# Soluble instances per dispatch pattern of the witness machinery.
CASE_PATTERN_SURFACES = {
    "case1": SubfamilySurface(13, 13, 1, 1, 1, 1),
    "case2": SubfamilySurface(13, 13, 13, 1, 3, -52),
    "case4": SubfamilySurface(13, 1, 4, 4, 3, -13),
    "case5": SubfamilySurface(5, 25, 5, 1, 1, -95),
    "case6": SubfamilySurface(5, 5, 20, 4, 1, -2375),
    "case7": SubfamilySurface(5, 1, 4, 4, 1, -475),
    "case8": SubfamilySurface(5, 5, 5, 4, 9, -475),
    "p3mod4": SubfamilySurface(7, 1, 1, 1, 2, -3),
}
