"""Golden output: stdout and exit codes of fixed commands, byte for byte.

A change that should not move any output (a simplification, a speed-up)
proves it here.  A change that moves output on purpose re-records the
fixtures and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from dp4.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "census_Y_pmax30": ["census", "--family", "Y", "--pmax", "30"],
    "census_S_13_29_t2": ["census", "--family", "S", "--plist", "13,29", "--tcount", "2"],
    "analyze_Y_13_2_6": ["analyze", '{"family": "Y", "p": 13, "a": 2, "b": 6}'],
    "analyze_Y_13_1_12": ["analyze", '{"family": "Y", "p": 13, "a": 1, "b": 12}'],
    "analyze_Y_13_12_1": ["analyze", '{"family": "Y", "p": 13, "a": 12, "b": 1}'],
    "analyze_S_13_153_179": ["analyze", '{"family": "S", "p": 13, "a": 153, "b": 179}'],
    "invariants_Y_13_1_12": ["invariants", '{"family": "Y", "p": 13, "a": 1, "b": 12}'],
    "invariants_Y_13_1_12_place13": ["invariants", '{"family": "Y", "p": 13, "a": 1, "b": 12}', "--place", "13"],
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


if __name__ == "__main__":
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run(argv)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
