"""The surjectivity witness, pinned row by row.

``golden/witness_table.json`` holds ``surjectivity_witness(s, seed).to_json()``
for seeds 0 and 1 on the paper's four surfaces and Y_229_2_114, the
case-pattern surfaces, the surfaces insoluble at p, one surface per witness
branch that the fixed examples never reach, and two box slices of 200
surfaces.  A change that should move no witness proves it here; one that
moves a witness on purpose re-records the table and says why:

    PYTHONPATH=src:tests python tests/test_witness.py
"""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from dp4 import arith, brauer, localsolve, quadform
from dp4.brauer import surjectivity_witness
from dp4.families import make_S, make_Y
from dp4.quadform import SubfamilySurface, validate_subfamily

from helpers import CASE_PATTERN_SURFACES, INSOLUBLE_AT_P, box_slice

TABLE = Path(__file__).resolve().parent / "golden" / "witness_table.json"

# the surfaces of test_brauer.test_witness_branches
BRANCH_SURFACES = [SubfamilySurface(*c) for c in (
    (5, 5, 1, 5, 4, -5), (5, 1, 5, 1, 20, -5), (5, 25, 25, 1, 4, -25),
    (5, 1, 1, 25, 100, -25), (5, 1, 1, 5, 1, 1), (5, 5, 1, 1, 5, 11))]

# one pattern per trace label family of the recursion and its base cases
TRACE_FAMILIES = (r"reduce: divide \(A, C, M\) by \d+", r"reduce: divide \(B, D, M\) by \d+",
                  r"reduce: divide \(A, B, M\) by \d+\^2", r"reduce: divide \(C, D, M\) by \d+\^2",
                  "swap the linear factors", "swap u and v", "swap u and v and the linear factors",
                  "case 1a", "case 1b", "case 2a", "case 3b", r"case 4 \(v_p\(M\) = \d+\)",
                  *(f"case {c} -> case {c - 4} with coefficients X_.*" for c in (5, 6, 7, 8)),
                  "p = 3 mod 4: flip the signs of y and z", r"\(p,AC\)_p = \(p,BD\)_p = -1: flip the sign of y",
                  r"X\(Q_\d+\) empty: .*")


def witness_table() -> dict[str, dict]:
    """``surjectivity_witness(s, seed).to_json()`` per 'group surface seed'."""
    groups = {"paper": [make_Y(13, 2, 6), make_Y(13, 1, 12), make_Y(13, 12, 1), make_S(13, 153, 179),
                        make_Y(229, 2, 114)],
              "pattern": list(CASE_PATTERN_SURFACES.values()) + INSOLUBLE_AT_P,
              "branch": BRANCH_SURFACES, "box3": box_slice(3, 200), "box7": box_slice(7, 200)}
    return {f"{group} {s.label()} {seed}": surjectivity_witness(s, seed).to_json()
            for group, surfaces in groups.items() for s in surfaces for seed in (0, 1)}


def test_witnesses_match_the_recorded_table():
    want = json.loads(TABLE.read_text())
    got = witness_table()
    assert len(want) == 844
    assert list(got) == list(want)
    assert [key for key in want if got[key] != want[key]] == []
    for family in TRACE_FAMILIES:
        hits = sum(any(re.fullmatch(family, label) for label in row["trace"]) for row in want.values())
        assert hits >= 2, family


@pytest.mark.parametrize("s, key, listings", [
    (CASE_PATTERN_SURFACES["case5"], "pattern", 0),  # case 5 -> case 1, a swap, case 1a
    (CASE_PATTERN_SURFACES["case7"], "pattern", 0),  # case 7 -> case 3, case 3b
    (make_Y(13, 2, 6), "paper", 1),  # a swap, then a sign flip of a sampled point
])
def test_a_witness_proves_p_prime_once_per_level1_listing(monkeypatch, s, key, listings):
    # the case constructions run after the surface's validation proved p
    # prime and kept the proof on s; a transformed surface, of the same p,
    # takes that proof, and so do the sampler's level-1 listings at p: the
    # witness proves nothing, however many listings it makes
    s = dataclasses.replace(s)
    validate_subfamily(s)
    calls, listed = [], []
    real, real_draws = arith.is_prime, localsolve._level1_draws

    def proving(n):
        calls.append(n)
        return real(n)

    def listing(surface, q, rng):
        listed.append(q)
        return real_draws(surface, q, rng)

    for module in (arith, quadform, localsolve, brauer):
        monkeypatch.setattr(module, "is_prime", proving)
    monkeypatch.setattr(localsolve, "_level1_draws", listing)
    result = surjectivity_witness(s, 0)
    assert result.to_json() == json.loads(TABLE.read_text())[f"{key} {s.label()} 0"]
    assert any(" -> " in label or "swap" in label for label in result.case_trace)  # it transforms
    assert listed == [s.p] * listings and calls == []


if __name__ == "__main__":
    TABLE.write_text("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(row)}"
                                       for key, row in witness_table().items()) + "\n}\n")
