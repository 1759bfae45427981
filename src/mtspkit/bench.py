"""Experiment harness: seeded grids, instance comparisons, law pipeline.

Cell seeds derive from the config seed alone (never from scheduling), so
the emitted tables are byte-identical across runs and safe to parallelise
per cell. The same sampled instance is reused across every fleet size and
algorithm of a cell row, which keeps the consecutive-m distance increments
paired.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from . import exact, heuristics
from .distlaw import (
    MIN_DIST_COEF, MIN_DIST_EXP, PowerFit, SummaryRow, UnitInterval, delta_estimate,
    fit_power_law, min_dist_exact, min_dist_expectation, predict_mtsp_distance,
)
from .exact import ExactResult, InfeasibleModelError
from .instance import (
    _DATA_DIR, GridSpec, Instance, RoutePlan, _integer, derive_seed, generate_uniform_instance,
    write_csv,
)

REFERENCE_GRID_CSV = _DATA_DIR / "heuristic_grid_means.csv"

SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


@dataclass(frozen=True)
class ExperimentConfig:
    sizes: tuple[int, ...] = tuple(range(50, 501, 50))
    m_values: tuple[int, ...] = tuple(range(2, 8))
    samples: int = 30
    grid_max: int = 100
    base_seed: int = 1
    algorithms: tuple[str, ...] = ("nearest", "closest")

    def __post_init__(self):
        for name in ("samples", "grid_max", "base_seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("sizes", "m_values"):
            values = tuple(_integer(v, f"{name} value") for v in getattr(self, name))
            object.__setattr__(self, name, values)
        if self.samples < 2:
            raise ValueError("need at least 2 samples per cell")
        if not self.sizes:
            raise ValueError("need at least one instance size")
        if not self.m_values:
            raise ValueError("need at least one fleet size")
        for name, axis in (
            ("sizes", self.sizes), ("m_values", self.m_values),
            ("algorithms", self.algorithms),
        ):
            if len(set(axis)) != len(axis):
                raise ValueError(f"{name} repeats a value: {list(axis)}")
        unknown = set(self.algorithms) - set(heuristics.ALGORITHMS)
        if unknown:
            raise ValueError(f"unknown algorithms: {sorted(unknown)}")
        # the rules each cell's seed, GridSpec and balance_plan apply, checked
        # before the first instance is drawn; an m at or above a size keeps
        # balance_plan's InfeasibleModelError and message (it names the
        # salesmen and customers), which the CLI reports with exit code 2
        for name, check, *args in (
            ("grid_max", GridSpec, 3, self.grid_max, 0),
            ("base_seed", derive_seed, self.base_seed),
            *(("sizes", GridSpec, t, self.grid_max, 0) for t in self.sizes),
            *(("m_values", heuristics.balance_plan, min(self.sizes), m) for m in self.m_values),
        ):
            try:
                check(*args)
            except InfeasibleModelError:
                raise
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None


def run_experiment(config: ExperimentConfig) -> list[SummaryRow]:
    """Sample the configured grid and aggregate per-cell statistics.

    Cell (t, sample) reuses one instance across all m and algorithms.
    Standard deviation is the sample (n-1) estimator.
    """
    totals: dict[tuple[int, int, str], list[float]] = {
        (t, m, alg): []
        for t in config.sizes
        for m in config.m_values
        for alg in config.algorithms
    }
    for t in config.sizes:
        for sample in range(config.samples):
            inst = generate_uniform_instance(
                GridSpec(t, config.grid_max, derive_seed(config.base_seed, t, sample))
            )
            for alg in config.algorithms:
                solver = heuristics.ALGORITHMS[alg]
                for m in config.m_values:
                    totals[t, m, alg].append(solver(inst, m).total_distance)
    rows = []
    for t in config.sizes:
        for alg in config.algorithms:
            for m in config.m_values:
                values = np.asarray(totals[t, m, alg])
                rows.append(
                    SummaryRow(
                        t, m, alg,
                        float(values.mean()), float(values.std(ddof=1)),
                        config.samples,
                    )
                )
    return rows


def _dataclass_csv(cls, rows) -> str:
    """One column per field of the row dataclass ``cls``, in field order."""
    columns = [f.name for f in fields(cls)]
    return write_csv(columns, map(attrgetter(*columns), rows))


def _markdown(header, records) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(map(str, r)) + " |" for r in records]
    return "\n".join(lines) + "\n"


def summary_to_csv(rows: list[SummaryRow]) -> str:
    return _dataclass_csv(SummaryRow, rows)


def summary_from_csv(text: str) -> list[SummaryRow]:
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in SUMMARY_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"summary CSV lacks column(s): {', '.join(missing)}")
    rows = []
    for r in reader:
        try:
            rows.append(SummaryRow(int(r["t"]), int(r["m"]), r["algorithm"],
                                   float(r["mean"]), float(r["std"]), int(r["samples"])))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"summary CSV line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("summary CSV holds no rows")
    return rows


def load_reference_grid() -> list[SummaryRow]:
    """The transcribed reference grid shipped with the package."""
    return summary_from_csv(REFERENCE_GRID_CSV.read_text())


def summary_to_markdown(rows: list[SummaryRow]) -> str:
    sizes = sorted({r.t for r in rows})
    ms = sorted({r.m for r in rows})
    algs = list(dict.fromkeys(r.algorithm for r in rows))
    cells = {(r.t, r.m, r.algorithm): r for r in rows}

    def cell(t, m, alg):
        row = cells.get((t, m, alg))
        return "" if row is None else f"{row.mean:,.1f} ± {row.std:.1f}"

    return _markdown(
        ["nodes", "algorithm", *(f"m={m}" for m in ms)],
        ([t, alg, *(cell(t, m, alg) for m in ms)] for t in sizes for alg in algs),
    )


# ---------------------------------------------------------------------------
# named-instance comparison (exact vs heuristics)

ALGORITHMS = (*heuristics.ALGORITHMS, "exact")


@dataclass(frozen=True)
class ComparisonRow:
    instance: str
    m: int
    distances: dict[str, float]
    gaps: dict[str, float]
    statuses: dict[str, str] = field(default_factory=dict)


def default_window(n: int, m: int) -> tuple[int, int]:
    """Route-size window used for exact runs unless overridden: the tightest
    one around the balanced split. ``L`` is the first, largest quota of
    :func:`heuristics.balance_plan`, ``ceil((n-1)/m)``, and ``K = max(L-1, 1)``;
    ``balance_plan`` rejects ``m < 1`` and more routes than customers."""
    upper = int(heuristics.balance_plan(n, m)[0])
    return max(upper - 1, 1), upper


def solve(
    instance: Instance, m: int, algorithm: str,
    window: tuple[int, int] | None = None, time_limit: float | None = None,
) -> tuple[RoutePlan | None, ExactResult | None]:
    """Run one algorithm of :data:`ALGORITHMS` for one fleet size.

    A heuristic returns ``(plan, None)``. ``exact`` is one call of
    :func:`exact.solve` on ``window`` or :func:`default_window`, which
    picks the backend and always returns a plan, so every exact run returns
    ``(result.best, result)``; ``result.backend`` names the algorithm that
    ran.

    ``time_limit`` must pass :func:`exact.check_time_limit` and ``window``,
    if given, :func:`exact.check_window`, for every algorithm, although only
    ``exact`` reads them. Whether the window covers the customers, and
    whether the limit is finite above ``exact.ORACLE_MAX_N`` nodes, is
    checked on exact runs only.
    """
    exact.check_time_limit(time_limit)
    if window is not None:
        exact.check_window(*window)
    if algorithm in heuristics.ALGORITHMS:
        return heuristics.ALGORITHMS[algorithm](instance, m), None
    if algorithm != "exact":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    result = exact.solve(instance, m, *(window or default_window(instance.n, m)), time_limit)
    return result.best, result


def compare_instances(
    instances: list[Instance],
    m_values: list[int],
    algorithms: list[str],
    time_limit: float | None = None,
    window: tuple[int, int] | None = None,
) -> list[ComparisonRow]:
    """Distance per algorithm and pairwise percentage gaps per (instance, m).

    The gap for an ordered pair (A, B) of the algorithm list is
    ``100 * (dist_B - dist_A) / dist_A``, and ``nan`` when either distance
    is infinite or ``dist_A`` is 0. Each run goes through :func:`solve`;
    exact runs also record their status. A cell whose run raises
    ``InfeasibleModelError`` gets distance ``inf`` and spoils no other cell:
    an exact window that cannot cover the customers (status ``infeasible``),
    or a heuristic asked for more routes than there are customers. An
    algorithm named twice is a ``ValueError``.
    """
    if len(set(algorithms)) != len(algorithms):
        raise ValueError(f"algorithms repeats a value: {list(algorithms)}")
    rows = []
    for inst in instances:
        for m in m_values:
            distances: dict[str, float] = {}
            statuses: dict[str, str] = {}
            for alg in algorithms:
                try:
                    plan, result = solve(inst, m, alg, window, time_limit)
                except InfeasibleModelError:
                    distances[alg] = np.inf
                    if alg == "exact":
                        statuses[alg] = "infeasible"
                    continue
                distances[alg] = plan.total_distance
                if result is not None:
                    statuses[alg] = result.status.value
            gaps = {}
            for i, a in enumerate(algorithms):
                for b in algorithms[i + 1 :]:
                    da, db = distances[a], distances[b]
                    gaps[f"{a}_vs_{b}"] = (
                        100.0 * (db - da) / da if da and np.isfinite(da + db) else np.nan
                    )
            rows.append(ComparisonRow(inst.name, m, distances, gaps, statuses))
    return rows


def _comparison_table(rows, dist_head, gap_head, dist_fmt, gap_fmt):
    """Distances, gaps, then a ``status_<alg>`` column per exact run."""
    algs = list(rows[0].distances)
    gap_keys = list(rows[0].gaps)
    status_keys = list(rows[0].statuses)
    header = (
        ["instance", "m"]
        + [dist_head + a for a in algs]
        + [gap_head + g for g in gap_keys]
        + ["status_" + a for a in status_keys]
    )
    records = (
        [r.instance, r.m]
        + [dist_fmt(r.distances[a]) for a in algs]
        + [gap_fmt(r.gaps[g]) for g in gap_keys]
        + [r.statuses[a] for a in status_keys]
        for r in rows
    )
    return header, records


def comparison_to_csv(rows: list[ComparisonRow]) -> str:
    if not rows:
        return ""
    return write_csv(*_comparison_table(rows, "dist_", "gap_pct_", float, float))


def comparison_to_markdown(rows: list[ComparisonRow]) -> str:
    if not rows:
        return ""
    return _markdown(
        *_comparison_table(rows, "", "%", "{:,.1f}".format, "{:.1f}".format)
    )


# ---------------------------------------------------------------------------
# distance-law pipeline

@dataclass(frozen=True)
class PredictionRow:
    t: int
    m: int
    algorithm: str
    observed: float
    predicted: float
    deviation_pct: float


@dataclass(frozen=True)
class LawReport:
    deltas: dict[str, tuple[float, float]]
    fits: dict[str, PowerFit]
    predictions: tuple[PredictionRow, ...]
    max_deviation_pct: dict[str, float]


def law_pipeline(rows: list[SummaryRow]) -> LawReport:
    """Distance-law summary over an experiment grid.

    Per algorithm: the consecutive-m increment statistics, a power-law fit
    of the m = 2 column (both reported against the published constants),
    and the deviation of the published closed-form prediction from every
    observed cell mean. A deviation is relative to the mean, so a mean that
    is not positive raises ``ValueError`` naming its cell.
    """
    for r in rows:
        if not r.mean > 0:
            raise ValueError(
                f"cell t={r.t}, m={r.m}, {r.algorithm}: mean must be positive, got {r.mean!r}"
            )
    algorithms = list(dict.fromkeys(r.algorithm for r in rows))
    deltas = {}
    fits = {}
    predictions = []
    max_dev = {}
    for alg in algorithms:
        sub = [r for r in rows if r.algorithm == alg]
        deltas[alg] = delta_estimate(sub)
        base_col = sorted((r.t, r.mean) for r in sub if r.m == 2)
        fits[alg] = fit_power_law(base_col)
        worst = 0.0
        for r in sorted(sub, key=lambda r: (r.t, r.m)):
            predicted = predict_mtsp_distance(r.t, r.m)
            deviation = 100.0 * (predicted - r.mean) / r.mean
            worst = max(worst, abs(deviation))
            predictions.append(
                PredictionRow(r.t, r.m, alg, r.mean, predicted, deviation)
            )
        max_dev[alg] = worst
    return LawReport(deltas, fits, tuple(predictions), max_dev)


def law_report_to_csv(report: LawReport) -> str:
    return _dataclass_csv(PredictionRow, report.predictions)


def law_report_to_markdown(report: LawReport) -> str:
    bullets = "".join(
        f"* {alg}: increment per salesman = {delta:.2f} (std {std:.1f}); "
        f"m=2 fit s = {report.fits[alg].c:.1f} t^{report.fits[alg].p:.3f}; "
        f"max |deviation| = {report.max_deviation_pct[alg]:.2f}%\n"
        for alg, (delta, std) in report.deltas.items()
    )
    misses = ", ".join(
        f"{100 * (min_dist_expectation(n) / min_dist_exact(n, UnitInterval()) - 1):+.1f}% at n={n}"
        for n in (5, 50, 200, 1000)
    )
    bullets += (f"* published min-distance fit {MIN_DIST_COEF} n^{MIN_DIST_EXP} "
                f"against the exact expectation on [0, 1]: {misses}\n")
    table = _markdown(
        ["t", "m", "algorithm", "observed", "predicted", "deviation %"],
        (
            [p.t, p.m, p.algorithm, f"{p.observed:,.1f}", f"{p.predicted:,.1f}",
             f"{p.deviation_pct:+.2f}"]
            for p in report.predictions
        ),
    )
    return bullets + "\n" + table


# ---------------------------------------------------------------------------
# plan records (JSON lines)

def plan_record(
    instance_name: str,
    m: int,
    algorithm: str,
    plan: RoutePlan,
    result: ExactResult | None = None,
) -> dict:
    rec = {
        "instance": instance_name,
        "m": m,
        "algorithm": algorithm,
        "routes": [list(r) for r in plan.routes],
        "per_route_distance": list(plan.per_route_distance),
        "total_distance": plan.total_distance,
    }
    if result is not None:
        rec.update(
            status=result.status.value,
            backend=result.backend,
            objective=result.objective,
            lower_bound=result.lower_bound,
            gap=result.gap,
            nodes_explored=result.nodes_explored,
            wall_time=result.wall_time,
        )
    return rec


def plan_to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(rec) + "\n" for rec in records)
