import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from dp4 import arith, brauer, census, cli, families, localsolve, quadform
from dp4.cli import build_parser, main, parse_surface_spec, InputError
from dp4.families import make_Y
from dp4.quadform import GeneralSurface, SubfamilySurface, to_matrices


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


@pytest.mark.parametrize("spec", [
    '{"family": "Y", "p": 13}',
    '{"family": "S", "p": 13}',
    '{"matrices": [1, 2]}',
    '{"matrices": [[1, 2], [3, 4]]}',
])
def test_cli_malformed_spec_is_input_error(capsys, spec):
    code, out, err = run_cli(capsys, "analyze", spec)
    assert code == 2 and out == ""
    assert err.startswith("input error")


def test_cli_non_symmetric_matrix_is_input_error(capsys):
    bad = [[[0, 1, 0, 0, 0]] + [[0] * 5] * 4, [[0] * 5] * 5]
    code, _, err = run_cli(capsys, "classify", json.dumps({"matrices": bad}))
    assert code == 2


@pytest.mark.parametrize("diagonals, message", [
    (((1, 1, 1, 1, 1), (0, 0, 1, 2, 3)), "pencil quintic is not squarefree; the surface is singular"),
    (((0,) * 5, (0,) * 5), "pencil discriminant vanishes identically; not a del Pezzo pencil"),
])
def test_cli_solubility_rejects_singular_pencils(capsys, diagonals, message):
    mats = [[[d if i == j else 0 for j in range(5)] for i, d in enumerate(diag)] for diag in diagonals]
    code, out, err = run_cli(capsys, "solubility", json.dumps({"matrices": mats}))
    assert (code, out, err) == (2, "", f"input error: {message}\n")


@pytest.mark.parametrize("command", ["classify", "analyze", "solubility"])
def test_cli_the_zero_pencil_has_one_message(capsys, command):
    # one zero check, shared by validate_pencil and order4_test
    code, out, err = run_cli(capsys, command, json.dumps({"matrices": [[[0] * 5] * 5] * 2}))
    assert (code, out, err) == (2, "", "input error: pencil discriminant vanishes identically; "
                                       "not a del Pezzo pencil\n")


@pytest.mark.parametrize("spec, message", [
    (json.dumps({"matrices": [[[d if i == j else 0 for j in range(5)] for i, d in enumerate(diag)]
                              for diag in ((1, 1, 1, -1, -1), (0, 0, 1, 2, 3))]}),
     "input error: pencil quintic is not squarefree; the surface is singular\n"),
    ('{"family": "subfamily", "p": 13, "A": 2, "B": -13, "C": 1, "D": -6, "M": 2}',
     "input error: invalid subfamily surface"),
])
def test_cli_solubility_at_a_place_checks_the_surface_first(capsys, spec, message):
    # an explicit place must not walk a surface the full report rejects
    for extra in ((), ("--place", "2")):
        code, out, err = run_cli(capsys, "solubility", spec, *extra)
        assert (code, out) == (2, "") and err.startswith(message)


def test_cli_solubility_checks_a_subfamily_at_the_real_place(capsys):
    # p = -5 breaks (C1); the real place must not report the witness
    # (0:0:1:sqrt(p):sqrt(p)), which exists only for p > 0
    spec = '{"family": "subfamily", "p": -5, "A": 1, "B": 1, "C": 1, "D": 1, "M": 1}'
    for extra in ((), ("--place", "oo"), ("--place", "2")):
        code, out, err = run_cli(capsys, "solubility", spec, *extra)
        assert (code, out) == (2, "") and err.startswith("input error: invalid subfamily surface")


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


def test_cli_census_prints_a_table(capsys):
    code, out, _ = run_cli(capsys, "census", "--family", "Y", "--pmax", "13",
                           "--samples", "16", "--height", "2", "--format", "table")
    assert code == 0
    assert "rows:" in out.splitlines() and "surface: X_13_1_-13_1_-12_1" in out


def test_cli_byte_identical_reruns(capsys):
    args = ("analyze", '{"family": "S", "p": 13, "a": 153, "b": 179}', "--samples", "12",
            "--seed", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_cli_solubility_at_a_cone_prime_still_walks(capsys):
    # the report decides Y_17_16_1's pencil at 17 by theorem; --place 17 walks and prints a witness
    g = to_matrices(make_Y(17, 16, 1))
    spec = json.dumps({"matrices": [g.mat1, g.mat2]})
    code, out, _ = run_cli(capsys, "solubility", spec)
    row = {r["place"]: r for r in json.loads(out)["rows"]}["17"]
    assert code == 0 and "witness" not in row
    assert row["method"] == "theorem: cone over a one-node quartic curve, Segre type [211]"
    code, out, _ = run_cli(capsys, "solubility", spec, "--place", "17")
    verdict = json.loads(out)
    assert code == 0 and (verdict["status"], verdict["method"]) == ("soluble", "hensel")
    assert verdict["witness"]["q"] == 17 and verdict["certificate"]["e"] == 0


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


@pytest.mark.parametrize("command", ["invariants", "solubility"])
def test_cli_place_is_a_prime_or_oo(capsys, command):
    code, out, err = run_cli(capsys, command, '{"family": "Y", "p": 13, "a": 1, "b": 12}', "--place", "x")
    assert code == 2 and out == ""
    assert err == "input error: --place must be a prime or 'oo', got 'x'\n"


def test_cli_invariants_at_the_real_place_are_theorems(capsys):
    code, out, _ = run_cli(capsys, "invariants", '{"family": "Y", "p": 13, "a": 1, "b": 12}', "--place", "oo")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [
        {"class": tag, "place": "oo", "image": ["0"],
         "evidence": {"kind": "theorem", "detail": "p > 0: trivial at the real place"}}
        for tag in "ABC"]
    assert payload["witness"]["class"] == "B"


def test_cli_invariants_place_checks_the_surface_conditions(capsys):
    # Y_13_2_6 with M = 2 violates (C1); an explicit place must not skip the check
    spec = '{"family": "subfamily", "p": 13, "A": 2, "B": -13, "C": 1, "D": -6, "M": 2}'
    for extra in ((), ("--place", "13")):
        code, out, err = run_cli(capsys, "invariants", spec, *extra)
        assert code == 2 and out == ""
        assert err.startswith("input error: invalid subfamily surface")


def test_cli_invariants_names_an_empty_place(capsys):
    # X(Q_5) is empty: the sampler finds no point, and one decision at 5 says why
    spec = '{"family": "subfamily", "p": 5, "A": 5, "B": 5, "C": 1, "D": 4, "M": -45}'
    code, out, err = run_cli(capsys, "invariants", spec, "--place", "5")
    assert code == 2 and out == ""
    assert err == "input error: X_5_5_5_1_4_-45 is insoluble at 5: no primitive solutions mod 5^2\n"


def test_cli_analyze_decides_each_place_once(capsys, monkeypatch):
    calls = Counter()
    real = localsolve.decide_Qq

    def counted(surface, q, *args, **kwargs):
        calls[q] += 1
        return real(surface, q, *args, **kwargs)

    monkeypatch.setattr(localsolve, "decide_Qq", counted)
    monkeypatch.setattr(brauer, "decide_Qq", counted)
    code, out, _ = run_cli(capsys, "analyze", '{"family": "Y", "p": 13, "a": 2, "b": 6}')
    assert code == 0 and json.loads(out)["obstruction"]["hp_obstructed_by"] == ["A"]
    assert calls == {2: 1, 13: 1}


@pytest.mark.parametrize("spec", [
    '{"family": "subfamily", "p": 13, "A": 1, "B": 1, "C": 1, "D": 1, "M": 0}',
    '{"family": "subfamily", "p": 4, "A": 1, "B": 1, "C": 1, "D": 1, "M": 0}',
    '{"family": "subfamily", "p": 13, "A": 2, "B": -13, "C": 1, "D": -6, "M": 2}',
])
def test_cli_search_checks_the_surface_conditions(capsys, spec):
    code, out, err = run_cli(capsys, "search", spec, "--height", "5")
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
    script = ("import json, dp4.census as census\n"
              "census.reciprocity_check = lambda s, pt: False\n"
              "res = census.census_Y(13, height_bound=30, sample_budget=16)\n"
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


def test_cli_census_out_of_budget_is_inconclusive(capsys, monkeypatch):
    # a row whose sampler runs out of budget agrees or disagrees with nothing:
    # agreement null, and the census exits 3 as analyze does on that surface
    monkeypatch.setattr(localsolve, "SAMPLING_BUDGET", 5)
    code, out, _ = run_cli(capsys, "census", "--family", "Y", "--pmax", "13")
    rows = [json.loads(line) for line in out.strip().splitlines()[1:]]
    assert code == 3
    assert any(r["agreement"] is None and r["error"].startswith("SamplingBudgetError: ") for r in rows)
    assert all(r["agreement"] is not False for r in rows)
    code, _, _ = run_cli(capsys, "analyze", '{"family": "Y", "p": 13, "a": 2, "b": 6}')
    assert code == 3


def test_representation_check_survives_optimized_mode():
    # with B's (z-y)/u added to A's table, A's representatives disagree at
    # some sampled point; python -O strips assert statements, not this check
    script = ("import dp4.brauer as br\n"
              "from dp4.families import make_Y\n"
              "extra = tuple(r for r in br.REPRESENTATIONS['B'] if r.label == '(z-y)/u')\n"
              "br.REPRESENTATIONS['A'] += extra\n"
              "try:\n"
              "    br.invariant_image(make_Y(13, 2, 6), 13)\n"
              "except AssertionError as exc:\n"
              "    print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("representations disagree for A at "), proc.stdout


def test_library_has_no_assert_statements():
    # python -O strips assert statements; invariant checks must raise instead
    src = Path(__file__).resolve().parents[1] / "src" / "dp4"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_settable_values_do_not_grow():
    # a settable value is a defaulted parameter, a dataclass field with a
    # default, or a command-line option; each one is a knob to document and test
    src = Path(__file__).resolve().parents[1] / "src" / "dp4"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                defaults = len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
                found += [f"{where} {getattr(node, 'name', 'lambda')}"] * defaults
            elif isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                found += [f"{path.name}:{field.lineno} {node.name}.{field.target.id}" for field in node.body
                          if isinstance(field, ast.AnnAssign) and field.value is not None]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                found.append(f"{where} {ast.unparse(node.args[0])}")
    assert len(found) <= 53, "\n".join(found)


def test_import_leaves_multiprocessing_out():
    # only the jobs > 1 branches of point_search and the census need it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", "import sys, dp4; print('multiprocessing' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_relative_imports_follow_the_layers():
    # arith -> quadform -> {localsolve, families} -> brauer -> census -> cli:
    # a module imports only from lower layers, and never inside a function,
    # where an import cycle would hide until the function runs
    layer = {"arith": 0, "quadform": 1, "localsolve": 2, "families": 2, "brauer": 3,
             "census": 4, "cli": 5, "__init__": 6}
    src = Path(__file__).resolve().parents[1] / "src" / "dp4"
    paths = sorted(src.glob("*.py"))
    assert {path.stem for path in paths} == set(layer)
    upward, nested = [], []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, ast.ImportFrom) and node.level]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
                upward += [f"{path.name}:{node.lineno} imports {target}" for target in targets
                           if layer[target.split(".")[0]] >= layer[path.stem]]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                upward += [f"{path.name}:{node.lineno} imports {name}" for name in names
                           if name.split(".")[0] == "dp4"]
    assert upward == [] and nested == []


def test_derived_data_live_on_instances():
    # no memo keyed by value: functools.lru_cache, functools.cache and
    # weakref stay out of the library, so what a surface derives lives on
    # its instance, and arith's prime sieve is the one module table.  One store
    # per instance: no functools.cached_property, and ``memo`` is touched only
    # by the accessor quadform._kept and the two surface shapes' __post_init__
    src = Path(__file__).resolve().parents[1] / "src" / "dp4"
    memos = {"lru_cache", "cache", "cached_property"}
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        store = set()
        for scope in ast.walk(tree) if path.stem == "quadform" else ():
            if isinstance(scope, ast.ClassDef) and scope.name in ("SubfamilySurface", "GeneralSurface"):
                store |= {id(node) for fn in scope.body if getattr(fn, "name", None) == "__post_init__"
                          for node in ast.walk(fn)}
            elif isinstance(scope, ast.FunctionDef) and scope.name == "_kept":
                store |= {id(node) for node in ast.walk(scope)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bad = any(alias.name.split(".")[0] == "weakref" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                bad = (node.module or "").split(".")[0] == "weakref" or (
                    node.module == "functools" and any(alias.name in memos for alias in node.names))
            else:
                bad = (isinstance(node, ast.Attribute) and node.attr in memos
                       and isinstance(node.value, ast.Name) and node.value.id == "functools")
                bad |= id(node) not in store and (getattr(node, "attr", None) == "memo"
                                                  or getattr(node, "value", None) == "memo")
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_analyze_derives_each_fact_once(capsys, monkeypatch):
    # what a surface derives is kept on its instance: one analyze proves each
    # integer prime at most once and factors each integer at most once
    proofs, factorizations = Counter(), Counter()
    for name, seen in (("is_prime", proofs), ("factor", factorizations)):
        real = getattr(arith, name)

        def counting(n, *args, real=real, seen=seen):
            seen[n] += 1
            return real(n, *args)

        for module in (arith, quadform, localsolve, families, brauer, census, cli):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    for spec in ('{"family": "Y", "p": 13, "a": 2, "b": 6}', '{"family": "Y", "p": 13, "a": 1, "b": 12}',
                 '{"family": "S", "p": 13, "a": 153, "b": 179}',
                 '{"family": "subfamily", "p": 5, "A": 3, "B": -2, "C": 6, "D": -1, "M": 3}'):
        proofs.clear()
        factorizations.clear()
        code, out, _ = run_cli(capsys, "analyze", spec)
        assert code == 0 and "obstruction" in json.loads(out)
        assert proofs and max(proofs.values()) == 1, (spec, proofs)
        assert factorizations and max(factorizations.values()) == 1, (spec, factorizations)


def test_cli_verify_paper_fails_a_check_that_raises(capsys, monkeypatch):
    # only a budget leaves a check inconclusive: an internal ValueError fails
    # its own check, not the command's input, and the other checks still run
    def broken(g):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "order4_test", broken)
    code, out, err = run_cli(capsys, "verify-paper", "--samples", "24")
    checks = json.loads(out)["checks"]
    assert code == 1 and [c["ok"] for c in checks] == [True] * 4 + [False]
    assert checks[-1]["detail"] == "ValueError: internal fault"
    assert err.count("PASS") == 4 and err.count("FAIL") == 1


def test_place_images_widen_through_one_rule():
    # a PlaceImage is built only as the real place's image, a family theorem's,
    # invariant_image's sampled image, and in brauer._widened, the one rule by
    # which an image gains values after sampling and which a family theorem
    # can veto; a dataclasses.replace of an image's values counts as building one
    src = Path(__file__).resolve().parents[1] / "src" / "dp4"
    found = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            name = getattr(top, "name", None) or ast.unparse(top.targets[0] if isinstance(top, ast.Assign) else top)
            found |= {f"{path.stem}.{name}" for node in ast.walk(top) if isinstance(node, ast.Call)
                      and (getattr(node.func, "id", getattr(node.func, "attr", None)) == "PlaceImage"
                           or any(kw.arg == "values" for kw in node.keywords)
                           and "replace" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))}
    assert found == {"brauer.REAL_PLACE_IMAGE", "brauer._theorem_image", "brauer.invariant_image", "brauer._widened"}


def test_padic_scalars_stay_off_the_verdict_path():
    # PadicScalar and what rests on it serve only arith's own Hilbert symbol
    # of a p-adic scalar: no other library module names them
    banned = {"PadicScalar", "InsufficientPrecisionError", "hilbert_symbol_padic"}
    src = Path(__file__).resolve().parents[1] / "src" / "dp4"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py")) if path.stem not in ("arith", "__init__")
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Name) and node.id in banned)
             or (isinstance(node, ast.Attribute) and node.attr in banned)
             or (isinstance(node, ast.alias) and {node.name, node.asname} & banned)]
    assert found == []


def test_only_localsolve_reads_residue_nodes():
    # the residue-tree walk stays inside localsolve: no other module imports,
    # calls or otherwise names its node reader ``_node``
    src = Path(__file__).resolve().parents[1] / "src" / "dp4"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py")) if path.stem != "localsolve"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Name) and node.id == "_node")
             or (isinstance(node, ast.Attribute) and node.attr == "_node")
             or (isinstance(node, ast.alias) and "_node" in (node.name, node.asname))]
    assert found == []


def test_library_has_no_floating_point():
    # every verdict rests on exact integer or rational arithmetic
    src = Path(__file__).resolve().parents[1] / "src" / "dp4"
    banned_math = {"sqrt", "cos", "sin", "pi"}
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            bad = (
                (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
                or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float")
                or (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "math" and node.attr in banned_math)
                or (isinstance(node, ast.ImportFrom) and node.module == "math"
                    and any(alias.name in banned_math for alias in node.names))
                or (isinstance(node, ast.Attribute) and node.attr == "gauss"))
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_analyze_invalid_surface_exit_2(capsys):
    # a surface failing (C1)/(C2) is an input error, as for invariants and
    # solubility; the validity payload still goes to stdout
    for spec in ('{"family": "subfamily", "p": 5, "A": 1, "B": 1, "C": 1, "D": 1, "M": 1}',
                 '{"family": "subfamily", "p": 13, "A": 2, "B": -13, "C": 1, "D": -6, "M": 2}'):
        code, out, err = run_cli(capsys, "analyze", spec)
        assert code == 2
        assert json.loads(out)["validity"]["c1"] is False
        assert "input error" in err


def test_cli_analyze_names_a_p_that_is_not_prime(capsys):
    # (C1) and (C2) hold at p = 9; the error names the condition that fails
    spec = '{"family": "subfamily", "p": 9, "A": -4, "B": -4, "C": -4, "D": 0, "M": -2}'
    code, out, err = run_cli(capsys, "analyze", spec)
    payload = json.loads(out)
    assert code == 2
    assert payload["validity"]["c1"] is True and payload["validity"]["c2"] is True
    assert payload["error"] == "p is not an odd prime"
    assert "p is not an odd prime" in err and "(C1)" not in err


@pytest.mark.parametrize("command", ["invariants", "solubility", "search"])
def test_cli_names_the_condition_an_invalid_surface_fails(capsys, command):
    # the p = 9 surface of the analyze test above: (C1) and (C2) hold
    spec = '{"family": "subfamily", "p": 9, "A": -4, "B": -4, "C": -4, "D": 0, "M": -2}'
    code, out, err = run_cli(capsys, command, spec)
    assert (code, out) == (2, "")
    assert err == "input error: invalid subfamily surface X_9_-4_-4_-4_0_-2: p is not an odd prime\n"


def test_cli_analyze_past_the_primality_bound_is_inconclusive(capsys):
    # p = 10^30 + 57 lies beyond the deterministic Miller-Rabin bound, so
    # is_prime proves nothing either way: "inconclusive" (exit 3), not an
    # input error; A = B = C = 1, D = -p and M = 1 - p give (C1) with N = 2
    p = 10 ** 30 + 57
    spec = json.dumps({"family": "subfamily", "p": p, "A": 1, "B": 1, "C": 1, "D": -p, "M": 1 - p})
    code, out, err = run_cli(capsys, "analyze", spec)
    assert (code, out) == (3, "") and err.startswith("budget exhausted: ") and str(p) in err


def test_cli_analyze_names_a_failed_condition_without_proving_p_prime(capsys):
    # the same p with M = 1 fails (C1): an input error (exit 2) that names
    # the failed conditions, with no primality proof to run out of budget
    p = 10 ** 30 + 57
    spec = json.dumps({"family": "subfamily", "p": p, "A": 1, "B": 1, "C": 1, "D": -p, "M": 1})
    code, out, err = run_cli(capsys, "analyze", spec)
    payload = json.loads(out)
    assert code == 2 and payload["error"] == "conditions (C1)/(C2) fail" and payload["validity"]["c1"] is False
    assert err.startswith("input error: conditions (C1)/(C2) fail") and "budget" not in err
    code, out, err = run_cli(capsys, "invariants", spec)
    assert (code, out) == (2, "") and err.endswith(": (C1) fails\n")


def test_cli_supplied_N_mismatch_is_noted(capsys):
    spec = '{"family": "subfamily", "p": 13, "A": 2, "B": -13, "C": 1, "D": -6, "M": 1, "N": 1}'
    code, _, err = run_cli(capsys, "classify", spec)
    assert code == 0
    assert "N = 2" in err


def test_cli_inconclusive_exit_3(capsys, monkeypatch):
    # a level cap of 1 cannot certify the 2-adic decision for this surface
    monkeypatch.setattr(localsolve, "LEVEL_CAP", 1)
    code, out, _ = run_cli(capsys, "solubility", '{"family": "Y", "p": 13, "a": 2, "b": 6}',
                           "--place", "2")
    assert code == 3
    assert json.loads(out)["status"] == "inconclusive"


def test_cli_analyze_stops_at_an_inconclusive_local_report(capsys, monkeypatch):
    # the same level cap leaves 2 undecided: analyze prints the local report,
    # gives no obstruction verdict and exits 3
    monkeypatch.setattr(localsolve, "LEVEL_CAP", 1)
    code, out, _ = run_cli(capsys, "analyze", '{"family": "Y", "p": 13, "a": 2, "b": 6}')
    payload = json.loads(out)
    assert code == 3 and "obstruction" not in payload
    assert payload["local_solubility"]["everywhere_locally_soluble"] is None


def test_cli_analyze_decides_a_place_that_needs_level_11(capsys):
    # the 2-adic walk finds its first certificate at level 11
    spec = '{"family": "subfamily", "p": 13, "A": -1, "B": -6, "C": 1, "D": -6, "M": 8}'
    code, out, _ = run_cli(capsys, "analyze", spec)
    assert code == 0
    assert json.loads(out)["local_solubility"]["everywhere_locally_soluble"] is True


def test_cli_rejects_bad_budgets(capsys):
    # --height 0 is a legal search bound; --samples 0 leaves nothing to sample
    for command, flag, value in (("search", "--height", "-2"), ("analyze", "--samples", "0"),
                                 ("search", "--jobs", "0")):
        code, _, err = run_cli(capsys, command, '{"family": "Y", "p": 13, "a": 1, "b": 12}',
                               flag, value)
        assert code == 2 and "budgets must be positive" in err
    code, _, _ = run_cli(capsys, "search", '{"family": "Y", "p": 13, "a": 1, "b": 12}',
                         "--height", "0")
    assert code == 0
    # a census needs at least one row per prime and a prime bound of at least 1
    for argv in (("--family", "S", "--plist", "13", "--tcount", "-1"), ("--family", "S", "--tcount", "0"),
                 ("--family", "Y", "--pmax", "-5"), ("--family", "Y", "--pmax", "0")):
        code, out, err = run_cli(capsys, "census", *argv)
        assert (code, out) == (2, "") and "budgets must be positive" in err, argv
    code, out, _ = run_cli(capsys, "census", "--family", "Y", "--pmax", "4")  # no prime p = 1 mod 4 up to 4
    assert code == 0 and json.loads(out)["header"]["rows"] == 0


def test_cli_options_are_the_ones_each_handler_reads():
    # a subcommand accepts exactly the options its handler reads as args.*,
    # with --format wherever the handler prints through _emit
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted, read = {}, {}
    for name, parser in sub.choices.items():
        options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
        positional = {a.dest for a in parser._actions if not a.option_strings}
        accepted[name] = {a.dest for a in options}
        tree = ast.parse(textwrap.dedent(inspect.getsource(parser.get_default("fn"))))
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "args"}
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "_emit" for node in ast.walk(tree)):
            attrs.add("format")
        read[name] = attrs - positional
    assert accepted == read
    assert sum(map(len, accepted.values())) == 25


def test_cli_rejects_options_a_command_does_not_take(capsys):
    spec = '{"family": "Y", "p": 13, "a": 1, "b": 12}'
    for argv in (("classify", spec, "--samples", "5"), ("analyze", spec, "--height", "5")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in capsys.readouterr().err
    for argv, message in ((("--family", "S", "--pmax", "50"), "--family S does not take --pmax"),
                          (("--plist", "13", "--tcount", "1"), "--family Y does not take --plist, --tcount")):
        code, out, err = run_cli(capsys, "census", *argv)
        assert (code, out, err) == (2, "", f"input error: {message}\n")


def test_cli_census_parses_a_given_plist(capsys):
    # an empty --plist is not the default list
    code, out, err = run_cli(capsys, "census", "--family", "S", "--plist", "")
    assert (code, out) == (2, "") and err.startswith("input error: ")


@pytest.mark.parametrize("plist", ["13,x", "", "13,,29"])
def test_cli_census_plist_errors_name_the_flag(capsys, plist):
    code, out, err = run_cli(capsys, "census", "--family", "S", "--plist", plist)
    assert (code, out) == (2, "")
    assert err == f"input error: --plist must be comma-separated primes, got {plist!r}\n"


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
