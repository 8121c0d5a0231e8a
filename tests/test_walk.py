"""The residue-tree walk below level 1, pinned verdict by verdict.

``golden/decide_Qq_table.json`` holds, for each (surface, form, place), the
status, level, method, witness coordinates and certificate of ``decide_Qq``:
the paper's four surfaces, the case-pattern surfaces and the surfaces
insoluble at p, each as a subfamily surface and as its ``to_matrices``
pencil, at its relevant places and at 2, 3 and 5, and the BSD pencil at its
candidate primes.  A change that should move no verdict proves it here; one
that moves a verdict on purpose re-records the table and says why:

    PYTHONPATH=src:tests python tests/test_walk.py
"""

import json
from pathlib import Path

import pytest

from dp4 import localsolve
from dp4.arith import factor
from dp4.brauer import relevant_places
from dp4.cli import BSD_MATRICES
from dp4.families import make_S, make_Y
from dp4.localsolve import LiftCertificate, decide_Qq, sample_local_points
from dp4.quadform import GeneralSurface, SubfamilySurface, to_matrices, validate_pencil

from helpers import CASE_PATTERN_SURFACES, INSOLUBLE_AT_P

TABLE = Path(__file__).resolve().parent / "golden" / "decide_Qq_table.json"

BSD = GeneralSurface(*BSD_MATRICES)


def decide_table() -> dict[str, list]:
    """(status, level, method, witness coords, certificate) per 'surface form place'."""
    surfaces = {"Y_13_2_6": make_Y(13, 2, 6), "Y_13_1_12": make_Y(13, 1, 12), "Y_13_12_1": make_Y(13, 12, 1),
                "S_13_153_179": make_S(13, 153, 179), **CASE_PATTERN_SURFACES,
                **{s.label(): s for s in INSOLUBLE_AT_P}}
    runs = []
    for name, s in surfaces.items():
        places = sorted(set(relevant_places(s)) | {2, 3, 5})
        runs += [(f"{name} {form} {q}", surface, q) for form, surface in (("subfamily", s), ("pencil", to_matrices(s)))
                 for q in places]
    _, res = validate_pencil(BSD)
    runs += [(f"bsd pencil {q}", BSD, q) for q in sorted({2, 3, 5} | set(factor(abs(res))))]
    table = {}
    for key, surface, q in runs:
        v = decide_Qq(surface, q)
        w = v.witness
        table[key] = [v.status, v.level, v.method, None if w is None else list(w.coords),
                      None if w is None or w.cert is None else [list(w.cert.cols), w.cert.e]]
    return table


def test_decide_verdicts_match_the_recorded_table():
    want = json.loads(TABLE.read_text())
    got = decide_table()
    assert list(got) == list(want)
    assert [key for key in want if got[key] != want[key]] == []
    assert {row[0] for row in want.values()} == {"soluble", "insoluble"}
    assert max(row[1] for row in want.values()) == 9  # case6 at 5: the deep walk


def certified_everywhere(monkeypatch):
    """Make every node read below level 1 claim a certificate."""
    real = localsolve._node

    def node(surface, pt):
        cert, lifts = real(surface, pt)
        return (LiftCertificate((0, 1), 0) if pt.k > 1 else cert), lifts

    monkeypatch.setattr(localsolve, "_node", node)


def test_decide_rejects_a_read_lift_that_is_certified(monkeypatch):
    # the "Certified lifts" lemma of ``_node`` rules such a lift out; the walk
    # says so instead of returning it as a witness
    s = SubfamilySurface(13, 2, -13, 1, -6, 1)
    assert decide_Qq(s, 2).level == 5  # the walk reads below level 1
    certified_everywhere(monkeypatch)
    with pytest.raises(AssertionError, match="a read lift is certified"):
        decide_Qq(s, 2)


def test_sampler_rejects_a_read_lift_that_is_certified(monkeypatch):
    certified_everywhere(monkeypatch)
    with pytest.raises(AssertionError, match="a read lift is certified"):
        sample_local_points(SubfamilySurface(13, 2, -13, 1, -6, 1), 2, 64, 14)


if __name__ == "__main__":
    TABLE.write_text("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(row)}"
                                       for key, row in decide_table().items()) + "\n}\n")
