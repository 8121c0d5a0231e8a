"""Family censuses: every verdict on a family member against its prediction.

A row builds the surface, predicts its verdict in closed form, computes it
with ``bm_verdict``, and checks every point that ``point_search`` finds for
global reciprocity; a failing row reports its error and the census goes on.
A row that runs out of a budget has no agreement either way (``None``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import BudgetExceeded, is_prime
from .brauer import bm_verdict, reciprocity_check
from .families import make_S, make_Y, point_search, predict_S, predict_Y, s_from_t
from .quadform import Point


@dataclass(frozen=True)
class CensusRow:
    family: str
    params: tuple[int, int, int]
    surface: str
    predicted: tuple[str, ...]
    computed: tuple[str, ...] | None
    wa_failure: bool | None
    unknown_classes: tuple[str, ...]
    points: tuple[Point, ...]
    agreement: bool | None  # None: a budget ran out
    error: str | None = None

    def to_json(self):
        return {
            "family": self.family,
            "params": list(self.params),
            "surface": self.surface,
            "predicted_obstruction": list(self.predicted),
            "computed_obstruction": None if self.computed is None else list(self.computed),
            "wa_failure": self.wa_failure,
            "unknown_classes": list(self.unknown_classes),
            "points": [list(pt) for pt in self.points],
            "agreement": self.agreement,
            "error": self.error,
        }


@dataclass(frozen=True)
class CensusResult:
    header: dict
    rows: tuple[CensusRow, ...]

    def to_json(self):
        return {"header": self.header, "rows": [r.to_json() for r in self.rows]}


def _census_row(task) -> CensusRow:
    family, p, a, b, height_bound, sample_budget, seed = task
    params = (p, a, b)
    predicted: tuple[str, ...] = ()
    label = f"X_{p}"
    try:
        if family == "Y":
            s = make_Y(p, a, b)
            predicted = predict_Y(p, a, b).obstructed_by
        else:
            s = make_S(p, a, b)
            predicted = predict_S(p, a, b).obstructed_by
        label = s.label()
        report = bm_verdict(s, sample_budget=sample_budget, seed=seed)
        points = tuple(point_search(s, height_bound)) if height_bound else ()
        for pt in points:
            if not s.contains(pt):
                raise AssertionError(f"found point {pt} is not on the surface")
            if not reciprocity_check(s, pt):
                raise AssertionError(f"reciprocity fails at found point {pt}")
        agreement = (report.hp_obstructed_by == predicted
                     and len(report.hp_obstructed_by) <= 1
                     and report.wa_failure
                     and not report.unknown_classes)
        return CensusRow(family, params, s.label(), predicted, report.hp_obstructed_by,
                         report.wa_failure, report.unknown_classes, points, agreement)
    except Exception as exc:  # a census survives per-row failures and reports them
        return CensusRow(family, params, label, predicted, None, None, (), (),
                         None if isinstance(exc, BudgetExceeded) else False, error=f"{type(exc).__name__}: {exc}")


def census_Y(p_max: int, height_bound: int = 0, sample_budget: int = 32,
             seed: int = 0, jobs: int = 1) -> CensusResult:
    """Every (p, a, b) with p = 1 mod 4 prime, p <= p_max, ab = p - 1, a, b > 0."""
    members = [("Y", p, a, (p - 1) // a) for p in range(5, p_max + 1) if p % 4 == 1 and is_prime(p)
               for a in range(1, p) if (p - 1) % a == 0]
    return _run_census(members, height_bound, sample_budget, seed, jobs, {"family": "Y", "p_max": p_max})


def census_S(p_list, t_count: int = 3, height_bound: int = 0, sample_budget: int = 32,
             seed: int = 0, jobs: int = 1) -> CensusResult:
    """Rows from the stock construction: the first t_count admissible t per p."""
    members = [("S", *s_from_t(p, 3 * (p - 1) // 4 % 8 + 8 * i)) for p in p_list for i in range(t_count)]
    return _run_census(members, height_bound, sample_budget, seed, jobs,
                       {"family": "S", "p_list": list(p_list), "t_count": t_count})


def _run_census(members, height_bound: int, sample_budget: int, seed: int, jobs: int,
                extra_header: dict) -> CensusResult:
    """A row per (family, p, a, b) member; the header states the settings, rows or none."""
    tasks = [(*member, height_bound, sample_budget, seed) for member in members]
    if jobs > 1:
        import multiprocessing  # only here: ``import dp4`` does not pay for it
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            rows = tuple(pool.map(_census_row, tasks))
    else:
        rows = tuple(_census_row(t) for t in tasks)
    header = {"rows": len(rows), "height_bound": height_bound, "sample_budget": sample_budget,
              "seed": seed, "jobs": jobs, **extra_header}
    return CensusResult(header, rows)
