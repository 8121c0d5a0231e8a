"""Obstruction verdicts, pinned row by row.

``golden/verdict_table.json`` holds ``bm_verdict(s, sample_budget,
seed).to_json()``, or the class and message of what it raised, on the rows
the census benchmark draws from (seeds 0 and 1, budget 32), the first-family
rows at p = 229 and 233 (seed 0, budget 64), the paper's surfaces, the
case-pattern surfaces and a box slice of 60 surfaces (seed 0, budget 64).
A change that should move no verdict, image count or witness proves it
here; one that moves them on purpose re-records the table and says why:

    PYTHONPATH=src:tests python tests/test_verdicts.py
"""

import json
from pathlib import Path

from dp4.arith import is_prime
from dp4.brauer import bm_verdict
from dp4.families import make_S, make_Y, s_from_t

from helpers import CASE_PATTERN_SURFACES, box_slice

TABLE = Path(__file__).resolve().parent / "golden" / "verdict_table.json"


def _first_family(p: int) -> list:
    return [make_Y(p, a, (p - 1) // a) for a in range(1, p) if (p - 1) % a == 0]


def _second_family(p: int, count: int = 4) -> list:
    t0 = 3 * (p - 1) // 4 % 8 or 8
    return [make_S(*s_from_t(p, t0 + 8 * k)) for k in range(count)]


def verdict_rows() -> list[tuple[str, object, int, int]]:
    """(group, surface, sample budget, seed) for every row of the table."""
    census = ([s for p in range(5, 100) if p % 4 == 1 and is_prime(p) for s in _first_family(p)]
              + [s for p in range(5, 100) if p % 8 == 5 and is_prime(p) for s in _second_family(p)])
    paper = [make_Y(13, 2, 6), make_Y(13, 1, 12), make_Y(13, 12, 1), make_S(13, 153, 179), make_Y(229, 2, 114)]
    return ([("census", s, 32, seed) for s in census for seed in (0, 1)]
            + [("large_p", s, 64, 0) for p in (229, 233) for s in _first_family(p)]
            + [("paper", s, 64, 0) for s in paper]
            + [("pattern", s, 64, 0) for s in CASE_PATTERN_SURFACES.values()]
            + [("box3", s, 64, 0) for s in box_slice(3, 60)])


def verdict_table() -> dict[str, dict]:
    """``bm_verdict(...).to_json()``, or {"raises": [class, message]}, per 'group surface budget seed'."""
    table = {}
    for group, s, budget, seed in verdict_rows():
        try:
            row = bm_verdict(s, sample_budget=budget, seed=seed).to_json()
        except Exception as exc:
            row = {"raises": [type(exc).__name__, str(exc)]}
        table[f"{group} {s.label()} {budget} {seed}"] = row
    return table


def test_verdicts_match_the_recorded_table():
    want = json.loads(TABLE.read_text())
    got = verdict_table()
    assert list(got) == list(want)
    assert [key for key in want if got[key] != want[key]] == []
    raised = [key for key, row in want.items() if "raises" in row]
    assert len(raised) == 23 and all(key.startswith("box3 ") for key in raised)
    assert all(want[key]["raises"][0] == "ValueError" for key in raised)


if __name__ == "__main__":
    TABLE.write_text("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(row)}"
                                       for key, row in verdict_table().items()) + "\n}\n")
