import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dp4.cli import main, parse_surface_spec, InputError
from dp4.quadform import GeneralSurface, SubfamilySurface


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_surface_specs():
    s = parse_surface_spec('{"family": "Y", "p": 13, "a": 2, "b": 6}')
    assert isinstance(s, SubfamilySurface) and (s.A, s.B) == (2, -13)
    s = parse_surface_spec('{"family": "subfamily", "p": 13, "A": 2, "B": -13, "C": 1, "D": -6, "M": 1}')
    assert isinstance(s, SubfamilySurface)
    s = parse_surface_spec('{"family": "S", "p": "13", "a": "153", "b": "179"}')
    assert (s.C, s.D) == (153, 179)  # decimal strings accepted
    g = parse_surface_spec(json.dumps({"matrices": [[[0] * 5] * 5, [[0] * 5] * 5]}))
    assert isinstance(g, GeneralSurface)
    with pytest.raises(InputError):
        parse_surface_spec("not json")
    with pytest.raises(InputError):
        parse_surface_spec('{"family": "Z"}')
    with pytest.raises(InputError):
        parse_surface_spec('{"matrices": [[[1]]]}')


def test_cli_analyze_obstructed(capsys):
    code, out, _ = run_cli(capsys, "analyze", '{"family": "Y", "p": 13, "a": 2, "b": 6}',
                           "--samples", "16")
    assert code == 0
    payload = json.loads(out)
    assert payload["obstruction"]["hp_obstructed_by"] == ["A"]
    assert payload["local_solubility"]["everywhere_locally_soluble"] is True


def test_cli_analyze_malformed_input(capsys):
    code, _, err = run_cli(capsys, "analyze", "{broken")
    assert code == 2
    assert "input error" in err


def test_cli_non_symmetric_matrix_is_input_error(capsys):
    bad = [[[0, 1, 0, 0, 0]] + [[0] * 5] * 4, [[0] * 5] * 5]
    code, _, err = run_cli(capsys, "classify", json.dumps({"matrices": bad}))
    assert code == 2


def test_cli_classify_bsd(capsys):
    bsd = {"matrices": [
        [[0, -1, 0, 0, 0], [-1, 0, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, -10, 0], [0, 0, 0, 0, 0]],
        [[-2, -3, 0, 0, 0], [-3, -4, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, -10]],
    ]}
    code, out, _ = run_cli(capsys, "classify", json.dumps(bsd))
    assert code == 0
    payload = json.loads(out)
    assert payload["order4_certified"] is False


def test_cli_classify_subfamily(capsys):
    code, out, _ = run_cli(capsys, "classify", '{"family": "Y", "p": 13, "a": 2, "b": 6}')
    payload = json.loads(out)
    assert payload["order4_certified"] is True and payload["eps"] == 13


def test_cli_solubility_place(capsys):
    code, out, _ = run_cli(capsys, "solubility", '{"family": "S", "p": 13, "a": 153, "b": 179}',
                           "--place", "13")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "soluble" and "certificate" in payload


def test_cli_search(capsys):
    code, out, _ = run_cli(capsys, "search", '{"family": "Y", "p": 13, "a": 12, "b": 1}',
                           "--height", "16")
    assert code == 0
    payload = json.loads(out)
    assert [1, -3, 2, 7, 16] in payload["points"]


def test_cli_census_small(capsys):
    code, out, _ = run_cli(capsys, "census", "--family", "Y", "--pmax", "13",
                           "--samples", "16", "--height", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["header"]["rows"] == len(lines) - 1
    rows = [json.loads(line) for line in lines[1:]]
    assert all(r["agreement"] for r in rows)


def test_cli_byte_identical_reruns(capsys):
    args = ("analyze", '{"family": "S", "p": 13, "a": 153, "b": 179}', "--samples", "12",
            "--seed", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_cli_invariants_place(capsys):
    code, out, _ = run_cli(capsys, "invariants", '{"family": "Y", "p": 13, "a": 1, "b": 12}',
                           "--place", "13", "--samples", "12")
    assert code == 0
    payload = json.loads(out)
    img_a = next(e for e in payload["entries"] if e["class"] == "A")
    assert img_a["image"] == ["0"]
    assert payload["witness"]["class"] == "B"


@pytest.mark.parametrize("place", ["15", "-13", "1", "0"])
def test_cli_invariants_rejects_non_prime_place(capsys, place):
    code, out, err = run_cli(capsys, "invariants", '{"family": "Y", "p": 13, "a": 1, "b": 12}',
                             f"--place={place}")
    assert code == 2
    assert out == "" and err == f"input error: {place} is not prime\n"


def test_cli_invariants_place_checks_the_surface_conditions(capsys):
    # Y_13_2_6 with M = 2 violates (C1); an explicit place must not skip the check
    spec = '{"family": "subfamily", "p": 13, "A": 2, "B": -13, "C": 1, "D": -6, "M": 2}'
    for extra in ((), ("--place", "13")):
        code, out, err = run_cli(capsys, "invariants", spec, *extra)
        assert code == 2 and out == ""
        assert err.startswith("input error: invalid subfamily surface")


def test_cli_table_format(capsys):
    code, out, _ = run_cli(capsys, "search", '{"family": "Y", "p": 13, "a": 1, "b": 12}',
                           "--height", "1", "--format", "table")
    assert code == 0
    assert "points" in out and "{" not in out.split("points")[0]


def test_cli_verify_paper(capsys):
    code, out, err = run_cli(capsys, "verify-paper", "--samples", "24")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] == payload["total"] == 5
    assert err.count("PASS") == 5


def test_cli_verify_paper_checks_survive_optimized_mode():
    # python -O strips assert statements; a wrong point search must still fail
    script = ("import sys, dp4.cli as cli\n"
              "cli.point_search = lambda s, h, **kw: [(2, 3, 5, 7, 11)]\n"
              "sys.exit(cli.main(['verify-paper', '--samples', '16']))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["passed"] == 2
    assert proc.stderr.count("FAIL") == 3


def test_census_point_checks_survive_optimized_mode():
    # a census row whose found point fails reciprocity must say so under python -O
    script = ("import json, dp4.families as fam\n"
              "fam.reciprocity_check = lambda s, pt: False\n"
              "res = fam.census_Y(13, height_bound=30, sample_budget=16)\n"
              "print(json.dumps([r.to_json() for r in res.rows]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    failed = [r for r in rows if r["error"] is not None]
    assert failed
    for r in failed:
        assert r["agreement"] is False
        assert r["error"].startswith("AssertionError: reciprocity fails at found point (")
    assert all(not r["points"] for r in rows)  # every row with a point failed


def test_library_has_no_assert_statements():
    # python -O strips assert statements; invariant checks must raise instead
    src = Path(__file__).resolve().parents[1] / "src" / "dp4"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_analyze_invalid_surface_exit_1(capsys):
    spec = '{"family": "subfamily", "p": 5, "A": 1, "B": 1, "C": 1, "D": 1, "M": 1}'
    code, out, _ = run_cli(capsys, "analyze", spec)
    assert code == 1
    assert json.loads(out)["validity"]["c1"] is False


def test_cli_supplied_N_mismatch_is_noted(capsys):
    spec = '{"family": "subfamily", "p": 13, "A": 2, "B": -13, "C": 1, "D": -6, "M": 1, "N": 1}'
    code, _, err = run_cli(capsys, "classify", spec)
    assert code == 0
    assert "N = 2" in err


def test_cli_inconclusive_exit_3(capsys):
    # level budget 1 cannot certify the 2-adic decision for this surface
    code, out, _ = run_cli(capsys, "solubility", '{"family": "Y", "p": 13, "a": 2, "b": 6}',
                           "--place", "2", "--precision-max", "1")
    assert code == 3
    assert json.loads(out)["status"] == "inconclusive"


def test_cli_rejects_bad_budgets(capsys):
    code, _, err = run_cli(capsys, "search", '{"family": "Y", "p": 13, "a": 1, "b": 12}',
                           "--height", "-2")
    assert code == 2


def test_cli_analyze_general_matrices(capsys):
    bsd = {"matrices": [
        [[0, -1, 0, 0, 0], [-1, 0, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, -10, 0], [0, 0, 0, 0, 0]],
        [[-2, -3, 0, 0, 0], [-3, -4, 0, 0, 0], [0, 0, 2, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, -10]],
    ]}
    code, out, _ = run_cli(capsys, "analyze", json.dumps(bsd))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "general"
    assert payload["classification"]["order4_certified"] is False
    assert payload["local_solubility"]["everywhere_locally_soluble"] is True
