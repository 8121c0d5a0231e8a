"""Command-line interface.

Surfaces are given as JSON, inline or via @file:

    {"family": "subfamily", "p": 13, "A": 2, "B": -13, "C": 1, "D": -6, "M": 1}
    {"family": "Y", "p": 13, "a": 2, "b": 6}
    {"family": "S", "p": 13, "a": 153, "b": 179}
    {"matrices": [[[...5 rows...]], [[...]]]}

Integers may be decimal strings when they exceed double precision.  Output is
JSON (default) or an aligned table; diagnostics go to standard error.  Exit
codes: 0 success, 1 assertion mismatch, 2 input error, 3 budget-inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arith import BudgetExceeded
from .brauer import (
    CLASS_TAGS,
    REAL_PLACE_IMAGE,
    IndeterminateEvaluationError,
    bm_verdict,
    invariant_image,
    relevant_places,
    surjectivity_witness,
)
from .localsolve import (
    decide_Qq,
    decide_R,
    everywhere_locally_soluble,
    everywhere_locally_soluble_general,
    validate_pencil,
)
from .quadform import (
    GeneralSurface,
    SubfamilySurface,
    check_subfamily,
    to_matrices,
    order4_test,
    validate_subfamily,
)
from .families import make_S, make_Y, point_search
from .census import census_S, census_Y

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


class InputError(ValueError):
    pass


def _to_int(x, field: str) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"field {field!r} must be an integer or decimal string, got {x!r}")
    try:
        return int(x)
    except ValueError as exc:
        raise InputError(f"field {field!r}: {exc}") from exc


def _place_arg(text: str | None):
    """The --place value: None, "oo" or an integer; anything else is an input error."""
    if text is None or text == "oo":
        return text
    try:
        return int(text)
    except ValueError:
        raise InputError(f"--place must be a prime or 'oo', got {text!r}") from None


def _plist_arg(text: str | None) -> list[int]:
    """The --plist primes, 13,29,37,53 by default; anything but comma-separated integers is an input error."""
    try:
        return [13, 29, 37, 53] if text is None else [int(p) for p in text.split(",")]
    except ValueError:
        raise InputError(f"--plist must be comma-separated primes, got {text!r}") from None


def _spec_fields(data: dict, family: str, keys) -> list[int]:
    """The integer fields ``keys`` of a family spec, in order."""
    out = []
    for key in keys:
        if key not in data:
            raise InputError(f"{family} spec is missing field {key!r}")
        out.append(_to_int(data[key], key))
    return out


def parse_surface_spec(text: str):
    """Parse a surface spec; returns SubfamilySurface or GeneralSurface."""
    if text.startswith("@"):
        try:
            text = open(text[1:]).read()
        except OSError as exc:
            raise InputError(str(exc)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("surface spec must be a JSON object")
    if "matrices" in data:
        mats = data["matrices"]
        if not (isinstance(mats, list) and len(mats) == 2
                and all(isinstance(m, list) and all(isinstance(r, list) for r in m) for m in mats)):
            raise InputError("'matrices' must hold two 5x5 matrices as lists of lists")
        try:
            m1 = tuple(tuple(_to_int(x, "matrices") for x in row) for row in mats[0])
            m2 = tuple(tuple(_to_int(x, "matrices") for x in row) for row in mats[1])
            return GeneralSurface(m1, m2)
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    family = data.get("family")
    if family == "subfamily":
        s = SubfamilySurface(*_spec_fields(data, family, ("p", "A", "B", "C", "D", "M")))
        if "N" in data:
            claimed = _to_int(data["N"], "N")
            derived = s.derived_N()
            if derived is not None and claimed not in (derived, 0):
                print(f"note: supplied N = {claimed} but the coefficients give N = {derived}",
                      file=sys.stderr)
        return s
    if family in ("Y", "S"):
        return (make_Y if family == "Y" else make_S)(*_spec_fields(data, family, ("p", "a", "b")))
    raise InputError("spec needs 'matrices' or a 'family' of subfamily/Y/S")


def _emit(payload, args) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        _print_table(payload)


def _print_table(payload, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in payload:
            val = payload[key]
            if isinstance(val, (dict, list)):
                print(f"{pad}{key}:")
                _print_table(val, indent + 1)
            else:
                print(f"{pad}{key}: {val}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                _print_table(item, indent)
                print()
            else:
                print(f"{pad}{item}")
    else:
        print(f"{pad}{payload}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    surface = parse_surface_spec(args.spec)
    if isinstance(surface, GeneralSurface):
        payload = {
            "kind": "general",
            "classification": _order4_payload(surface),
            "local_solubility": everywhere_locally_soluble_general(surface).to_json(),
            "note": "class invariants need the split two-form shape",
        }
        _emit(payload, args)
        return EXIT_OK
    rep = check_subfamily(surface)
    payload = {"kind": "subfamily", "surface": surface.label(),
               "validity": {"c1": rep.c1_holds, "c2": rep.c2_holds, "c1_value": rep.c1_value,
                            "N": rep.derived_N}}
    if not rep.valid:
        payload["error"] = "p is not an odd prime" if rep.c2_holds else "conditions (C1)/(C2) fail"
        _emit(payload, args)
        print(f"input error: {payload['error']} on {surface.label()}", file=sys.stderr)
        return EXIT_INPUT
    els = everywhere_locally_soluble(surface)
    payload["local_solubility"] = els.to_json()
    if els.everywhere_soluble is None:
        _emit(payload, args)
        return EXIT_INCONCLUSIVE
    if els.everywhere_soluble:
        verdict = bm_verdict(surface, sample_budget=args.samples, seed=args.seed)
        payload["obstruction"] = verdict.to_json()
    _emit(payload, args)
    return EXIT_OK


def _order4_payload(g: GeneralSurface):
    rep = order4_test(g)
    return {
        "quintic": list(rep.quintic),
        "quintic_squarefree": rep.quintic_squarefree,
        "members": [{"point": list(pt), "rank": rank, "eps_class": cls}
                    for pt, rank, cls in rep.members],
        "order4_certified": rep.certified,
        "eps": None if rep.eps is None else rep.eps.rep,
        "certificate_points": [list(p) for p in rep.certificate_points],
    }


def cmd_classify(args) -> int:
    surface = parse_surface_spec(args.spec)
    g = to_matrices(surface) if isinstance(surface, SubfamilySurface) else surface
    _emit(_order4_payload(g), args)
    return EXIT_OK


def cmd_solubility(args) -> int:
    place = _place_arg(args.place)
    surface = parse_surface_spec(args.spec)
    general = isinstance(surface, GeneralSurface)
    if not general:
        validate_subfamily(surface)
    if place is None:
        rep = (everywhere_locally_soluble_general(surface) if general
               else everywhere_locally_soluble(surface))
        _emit(rep.to_json(), args)
        return EXIT_INCONCLUSIVE if rep.everywhere_soluble is None else EXIT_OK
    if general and place != "oo":  # a singular pencil is still decided at the real place
        validate_pencil(surface)
    verdict = decide_R(surface) if place == "oo" else decide_Qq(surface, place)
    _emit(verdict.to_json(), args)
    return EXIT_INCONCLUSIVE if verdict.status == "inconclusive" else EXIT_OK


def cmd_invariants(args) -> int:
    place = _place_arg(args.place)
    surface = parse_surface_spec(args.spec)
    if not isinstance(surface, SubfamilySurface):
        raise InputError("invariants need the split two-form shape")
    places = relevant_places(surface) if place is None else [place]
    images = {q: dict.fromkeys(CLASS_TAGS, REAL_PLACE_IMAGE) if q == "oo"
              else invariant_image(surface, q, sample_budget=args.samples, seed=args.seed)
              for q in places}
    entries = [{"class": tag, "place": str(q), **images[q][tag].to_json()}
               for tag in CLASS_TAGS for q in places]
    payload = {"surface": surface.label(), "entries": entries}
    witness = surjectivity_witness(surface, seed=args.seed)
    payload["witness"] = witness.to_json()
    _emit(payload, args)
    return EXIT_OK


def cmd_search(args) -> int:
    surface = parse_surface_spec(args.spec)
    if not isinstance(surface, SubfamilySurface):
        raise InputError("point search needs the split two-form shape")
    pts = point_search(surface, args.height, jobs=args.jobs)
    _emit({"surface": surface.label(), "height_bound": args.height,
           "count": len(pts), "points": [list(p) for p in pts]}, args)
    return EXIT_OK


def cmd_census(args) -> int:
    foreign = {"Y": {"--plist": args.plist, "--tcount": args.tcount}, "S": {"--pmax": args.pmax}}[args.family]
    stray = [flag for flag, value in foreign.items() if value is not None]
    if stray:
        raise InputError(f"--family {args.family} does not take {', '.join(stray)}")
    if args.family == "Y":
        result = census_Y(100 if args.pmax is None else args.pmax, height_bound=args.height,
                          sample_budget=args.samples, seed=args.seed, jobs=args.jobs)
    else:
        result = census_S(_plist_arg(args.plist), t_count=3 if args.tcount is None else args.tcount,
                          height_bound=args.height, sample_budget=args.samples, seed=args.seed, jobs=args.jobs)
    if args.format == "json":
        print(json.dumps({"header": result.header}, sort_keys=True))
        for row in result.rows:
            print(json.dumps(row.to_json(), sort_keys=True))
    else:
        _print_table(result.to_json())
    agreements = {r.agreement for r in result.rows}
    return EXIT_MISMATCH if False in agreements else EXIT_INCONCLUSIVE if None in agreements else EXIT_OK


BSD_MATRICES = (
    ((0, -1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, -10, 0), (0, 0, 0, 0, 0)),
    ((-2, -3, 0, 0, 0), (-3, -4, 0, 0, 0), (0, 0, 2, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, -10)),
)


def _expect(ok: bool, what: str) -> None:
    """A check that still runs under ``python -O``, unlike ``assert``."""
    if not ok:
        raise AssertionError(what)


def cmd_verify_paper(args) -> int:
    """Re-run the five worked examples and assert their published conclusions."""
    checks = []
    inconclusive = []

    def record(name: str, ok: bool | None, detail: str = ""):
        checks.append({"example": name, "ok": ok, "detail": detail})
        line = "PASS" if ok else ("INCONCLUSIVE" if ok is None else "FAIL")
        print(f"{line:12s} {name} {detail}", file=sys.stderr)
        if ok is None:
            inconclusive.append(name)

    def run(name, fn):
        try:
            fn()
            record(name, True)
        except (BudgetExceeded, IndeterminateEvaluationError) as exc:
            record(name, None, f"budget: {exc}")
        except AssertionError as exc:
            record(name, False, str(exc))

    def check_y226():
        s = make_Y(13, 2, 6)
        els = everywhere_locally_soluble(s)
        _expect(els.everywhere_soluble is True, "local solubility")
        img = invariant_image(s, 13, sample_budget=args.samples, seed=args.seed)["A"]
        _expect(set(img.values) == {Fraction(1, 2)}, "inv_13 image of A")
        rep = bm_verdict(s, sample_budget=args.samples, seed=args.seed)
        _expect(rep.hp_obstructed_by == ("A",), f"obstruction {rep.hp_obstructed_by}")
        _expect(point_search(s, 200) == [], "no points up to height 200")

    def check_y1112():
        s = make_Y(13, 1, 12)
        rep = bm_verdict(s, sample_budget=args.samples, seed=args.seed)
        _expect(rep.hp_obstructed_by == (), f"obstruction {rep.hp_obstructed_by}")
        _expect((1, 0, 0, 0, 1) in point_search(s, 1), "trivial point at height 1")

    def check_y1121():
        s = make_Y(13, 12, 1)
        rep = bm_verdict(s, sample_budget=args.samples, seed=args.seed)
        _expect(rep.hp_obstructed_by == (), f"obstruction {rep.hp_obstructed_by}")
        _expect((1, -3, 2, 7, 16) in point_search(s, 16), "the nontrivial point at height 16")

    def check_s13():
        s = make_S(13, 153, 179)
        els = everywhere_locally_soluble(s)
        _expect(els.everywhere_soluble is True, "local solubility")
        rep = bm_verdict(s, sample_budget=args.samples, seed=args.seed)
        _expect(rep.hp_obstructed_by == ("B",), f"obstruction {rep.hp_obstructed_by}")

    def check_bsd():
        g = GeneralSurface(*BSD_MATRICES)
        rep = everywhere_locally_soluble_general(g)
        _expect(rep.everywhere_soluble is True, "local solubility")
        _expect(not order4_test(g).certified, "order-4 test must not certify")

    run("Y_13_2_6: obstructed by A, no small points", check_y226)
    run("Y_13_1_12: no obstruction, trivial point", check_y1112)
    run("Y_13_12_1: no obstruction, point (1:-3:2:7:16)", check_y1121)
    run("S_13_153_179: obstructed by B", check_s13)
    run("classical Birch/Swinnerton-Dyer quartic: soluble everywhere, order-4 not certified", check_bsd)

    passed = sum(1 for c in checks if c["ok"] is True)
    payload = {"checks": checks, "passed": passed, "total": len(checks)}
    _emit(payload, args)
    if any(c["ok"] is False for c in checks):
        return EXIT_MISMATCH
    if inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the parents whose options its handler reads
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("json", "table"), default="json")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--samples", type=int, default=64, help="sample budget per place")
    sampling.add_argument("--seed", type=int, default=0)
    searching = argparse.ArgumentParser(add_help=False)
    searching.add_argument("--height", type=int, default=64, help="height bound for point search")
    searching.add_argument("--jobs", type=int, default=1)

    parser = argparse.ArgumentParser(
        prog="dp4",
        description="Arithmetic of quartic del Pezzo surfaces: local solubility, "
                    "Brauer classes, obstruction verdicts, point search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[output, sampling],
                       help="validity, solubility, invariants, verdict")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("classify", parents=[output],
                       help="pencil quintic, degenerate members, order-4 certificate")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("solubility", parents=[output], help="local solubility per place")
    p.add_argument("spec")
    p.add_argument("--place", default=None, help="a prime, or 'oo'")
    p.set_defaults(fn=cmd_solubility)

    p = sub.add_parser("invariants", parents=[output, sampling],
                       help="invariant images per class per place")
    p.add_argument("spec")
    p.add_argument("--place", default=None, help="a prime, or 'oo'")
    p.set_defaults(fn=cmd_invariants)

    p = sub.add_parser("search", parents=[output, searching], help="rational points up to the height bound")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("census", parents=[output, sampling, searching],
                       help="family censuses with predictions")
    p.add_argument("--family", choices=("Y", "S"), default="Y")
    p.add_argument("--pmax", type=int, default=None, help="largest p (Y family, default 100)")
    p.add_argument("--plist", default=None, help="comma-separated primes (S family, default 13,29,37,53)")
    p.add_argument("--tcount", type=int, default=None, help="rows per prime (S family, default 3)")
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("verify-paper", parents=[output, sampling], help="re-run the five worked examples")
    p.set_defaults(fn=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    budgets = {name: n for name, n in vars(args).items() if n is not None}  # less unset census flags
    if budgets.get("height", 0) < 0 or min(budgets.get(name, 1) for name in ("samples", "jobs", "tcount", "pmax")) < 1:
        print("input error: budgets must be positive", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
