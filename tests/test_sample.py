"""The sampler's points, pinned case by case.

``golden/sample_table.json`` holds one sha256 per ``_sample_points(s, q,
count, precision, seed)`` call, over the (k, coords, pinned, certificate) of
every point it returns, or of ``SamplingBudgetError.points`` with the name of
the error.  The cases are every relevant place of one first-family and one
second-family census row at p = 5, 13, 29 and 37 and of the case-pattern
surfaces, and the place 229 of Y_229_2_114, at seeds 0 and 1 and counts 32
and 64, at ``invariant_image``'s precision (14 at 2, else 8).
``verdict_table.json`` pins the images these points give, not the points;
a change that should move no sampled point proves it here, and one that
moves them on purpose re-records the table and says why:

    PYTHONPATH=src:tests python tests/test_sample.py
"""

import hashlib
import json
from pathlib import Path

from dp4.brauer import relevant_places
from dp4.families import make_S, make_Y, s_from_t
from dp4.localsolve import SamplingBudgetError, _sample_points

from helpers import CASE_PATTERN_SURFACES

TABLE = Path(__file__).resolve().parent / "golden" / "sample_table.json"


def sample_cases() -> list[tuple[str, object, int]]:
    """(group, surface, place) for every surface and place of the table."""
    census = [s for p in (5, 13, 29, 37)
              for s in (make_Y(p, 2, (p - 1) // 2), make_S(*s_from_t(p, 3 * (p - 1) // 4 % 8 or 8)))]
    return ([("census", s, q) for s in census for q in relevant_places(s)]
            + [("pattern", s, q) for s in CASE_PATTERN_SURFACES.values() for q in relevant_places(s)]
            + [("large_p", make_Y(229, 2, 114), 229)])


def sample_digest(s, q: int, count: int, seed: int) -> str:
    """sha256 over the points of one ``_sample_points`` call, or over its error's name and points."""
    try:
        points, raised = _sample_points(s, q, count, 14 if q == 2 else 8, seed=seed), None
    except SamplingBudgetError as exc:
        points, raised = exc.points, type(exc).__name__
    rows = [[pt.k, list(pt.coords), pt.pinned, pt.cert and [list(pt.cert.cols), pt.cert.e]] for pt in points]
    return hashlib.sha256(json.dumps([raised, rows]).encode()).hexdigest()


def sample_table() -> dict[str, str]:
    """The digest per 'group surface place count seed'."""
    return {f"{group} {s.label()} {q} {count} {seed}": sample_digest(s, q, count, seed)
            for group, s, q in sample_cases() for count in (32, 64) for seed in (0, 1)}


def test_sampled_points_match_the_recorded_table():
    want = json.loads(TABLE.read_text())
    got = sample_table()
    assert list(got) == list(want)
    assert [key for key in want if got[key] != want[key]] == []
    assert sum(key.split()[2] == "2" for key in want) >= 32


if __name__ == "__main__":
    TABLE.write_text("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(row)}"
                                       for key, row in sample_table().items()) + "\n}\n")
