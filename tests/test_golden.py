"""Golden output: stdout and exit codes of fixed commands, byte for byte.

A change that should not move any output (a simplification, a speed-up)
proves it here.  A change that moves output on purpose re-records the
fixtures and says why:

    PYTHONPATH=src python tests/test_golden.py

To list, for each case that differs from its fixture, the JSON paths whose
values differ, without rewriting anything (exit 1 if any case differs):

    PYTHONPATH=src python tests/test_golden.py --diff
"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from dp4.cli import main
from dp4.families import make_Y
from dp4.quadform import to_matrices

GOLDEN = Path(__file__).resolve().parent / "golden"

BSD_SPEC = json.dumps({"matrices": [
    [[0, -1, 0, 0, 0], [-1, 0, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, -10, 0], [0, 0, 0, 0, 0]],
    [[-2, -3, 0, 0, 0], [-3, -4, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, -10]]]})
NARROW_SPEC = json.dumps({"matrices": [
    [[d if i == j else 0 for j in range(5)] for i, d in enumerate(diagonal)]
    for diagonal in ((1, 1, 1, -1000, -1000), (0, 0, 0, 1, 1))]})
Y17_PENCIL = to_matrices(make_Y(17, 16, 1))
Y17_SPEC = json.dumps({"matrices": [Y17_PENCIL.mat1, Y17_PENCIL.mat2]})

CASES = {
    "census_Y_pmax30": ["census", "--family", "Y", "--pmax", "30"],
    "census_S_13_29_t2": ["census", "--family", "S", "--plist", "13,29", "--tcount", "2"],
    "analyze_Y_13_2_6": ["analyze", '{"family": "Y", "p": 13, "a": 2, "b": 6}'],
    "analyze_Y_13_1_12": ["analyze", '{"family": "Y", "p": 13, "a": 1, "b": 12}'],
    "analyze_Y_13_12_1": ["analyze", '{"family": "Y", "p": 13, "a": 12, "b": 1}'],
    "analyze_S_13_153_179": ["analyze", '{"family": "S", "p": 13, "a": 153, "b": 179}'],
    # neither family: every image is sampled and C's own representatives
    # drive the Klein-four check
    "analyze_case1": ["analyze", '{"family": "subfamily", "p": 13, "A": 13, "B": 1, "C": 1, "D": 1, "M": 1}'],
    "analyze_case7": ["analyze", '{"family": "subfamily", "p": 5, "A": 1, "B": 4, "C": 4, "D": 1, "M": -475}'],
    "invariants_Y_13_1_12": ["invariants", '{"family": "Y", "p": 13, "a": 1, "b": 12}'],
    "invariants_Y_13_1_12_place13": ["invariants", '{"family": "Y", "p": 13, "a": 1, "b": 12}', "--place", "13"],
    # 74 points, at many u: the search output must not move with its method
    "search_Y_13_12_1_h250": ["search", '{"family": "Y", "p": 13, "a": 12, "b": 1}', "--height", "250"],
    # a general pencil: the classical Birch/Swinnerton-Dyer quartic
    "analyze_bsd": ["analyze", BSD_SPEC],
    "solubility_bsd": ["solubility", BSD_SPEC],
    # a subfamily spec without --place: the local report at every relevant place
    "solubility_Y_13_2_6": ["solubility", '{"family": "Y", "p": 13, "a": 2, "b": 6}'],
    # every member r*diag(1,1,1,-1000,-1000) + t*diag(0,0,0,1,1) with
    # 0 < r/t < 1/1000 is positive definite, and no other member is definite
    "solubility_narrow_oo": ["solubility", NARROW_SPEC, "--place", "oo"],
    # the exhaustive walk at 2 reaches its first certified point at level 7,
    # as on the subfamily form (level 11 on the doubled forms)
    "solubility_Y_17_16_1_place2": ["solubility", Y17_SPEC, "--place", "2"],
    # large p: A-obstructed, through the sign-flip witness with a precision-26 pair
    "analyze_Y_229_2_114": ["analyze", '{"family": "Y", "p": 229, "a": 2, "b": 114}'],
    # off-family at large p: sampled images at 2, 23 and 229
    "analyze_X_229_5_6_8_5_-19": [
        "analyze", '{"family": "subfamily", "p": 229, "A": 5, "B": 6, "C": 8, "D": 5, "M": -19}'],
}


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = run(CASES[name])
    assert out == (GOLDEN / f"{name}.out").read_text()
    assert code == json.loads((GOLDEN / "exit_codes.json").read_text())[name]


def json_paths_that_differ(old, new, path="$"):
    """The paths, in the parsed JSON of two outputs, at which their values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            if key not in old or key not in new:
                yield f"{path}.{key}"
            else:
                yield from json_paths_that_differ(old[key], new[key], f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            if i >= len(old) or i >= len(new):
                yield f"{path}[{i}]"
            else:
                yield from json_paths_that_differ(old[i], new[i], f"{path}[{i}]")
    elif old != new or type(old) is not type(new):
        yield path


def diff_against_fixtures() -> int:
    codes, moved = json.loads((GOLDEN / "exit_codes.json").read_text()), 0
    for name, argv in sorted(CASES.items()):
        code, out = run(argv)
        fixture = (GOLDEN / f"{name}.out").read_text()
        if out == fixture and code == codes[name]:
            continue
        moved += 1
        print(f"{name}:")
        if code != codes[name]:
            print(f"  exit code {codes[name]} -> {code}")
        for line, (old, new) in enumerate(itertools.zip_longest(fixture.splitlines(), out.splitlines()), 1):
            if old is None or new is None:
                print(f"  line {line} {'added' if old is None else 'removed'}")
            elif old != new:
                for path in json_paths_that_differ(json.loads(old), json.loads(new)):
                    print(f"  line {line}: {path}")
    print(f"{moved} of {len(CASES)} cases differ from their fixtures")
    return 1 if moved else 0


def test_diff_lists_the_json_paths_that_moved(tmp_path, monkeypatch, capsys):
    name = "solubility_narrow_oo"
    moved = json.loads((GOLDEN / f"{name}.out").read_text())
    moved.update(status="soluble", extra=[1])
    fixture = json.dumps(moved) + "\n{}\n"  # and a line the output no longer has
    (tmp_path / f"{name}.out").write_text(fixture)
    (tmp_path / "exit_codes.json").write_text(json.dumps({name: 3}))
    monkeypatch.setitem(globals(), "GOLDEN", tmp_path)
    monkeypatch.setitem(globals(), "CASES", {name: CASES[name]})
    assert diff_against_fixtures() == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{name}:", "  exit code 3 -> 0", "  line 1: $.extra", "  line 1: $.status", "  line 2 removed",
        "1 of 1 cases differ from their fixtures"]
    assert (tmp_path / f"{name}.out").read_text() == fixture
    assert list(json_paths_that_differ({"a": [1, {"b": 2}]}, {"a": [1, {"b": 2.0}, 3]})) == ["$.a[1].b", "$.a[2]"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(diff_against_fixtures())
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run(argv)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
