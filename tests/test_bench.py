import hashlib

import numpy as np
import pytest

from mtspkit import (
    ExperimentConfig,
    SummaryRow,
    compare_instances,
    law_pipeline,
    load_bundled,
    load_reference_grid,
    nearest_node,
    parse_tsplib,
    run_experiment,
)
from mtspkit import (
    GridSpec,
    InfeasibleModelError,
    SolveStatus,
    bench,
    brute_force_oracle,
    build_model,
    generate_uniform_instance,
    heuristics,
    solve_exact,
)
from mtspkit.exact import ORACLE_MAX_N
from mtspkit.bench import (
    ALGORITHMS,
    comparison_to_csv,
    comparison_to_markdown,
    default_window,
    law_report_to_csv,
    law_report_to_markdown,
    plan_record,
    plan_to_jsonl,
    solve,
    summary_from_csv,
    summary_to_csv,
    summary_to_markdown,
)
from mtspkit.instance import bundled_path

TINY = ExperimentConfig(sizes=(20,), m_values=(2,), samples=2, base_seed=9)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(samples=1)
    with pytest.raises(ValueError):
        ExperimentConfig(sizes=())
    with pytest.raises(ValueError):
        ExperimentConfig(m_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(algorithms=("sweep",))


@pytest.mark.parametrize(
    "axis",
    [{"sizes": (20, 20)}, {"m_values": (2, 3, 2)}, {"algorithms": ("nearest",) * 2}],
)
def test_config_rejects_repeated_axis_values(axis):
    # a repeated value would pool two copies of each sample into one cell
    with pytest.raises(ValueError, match="repeats a value"):
        ExperimentConfig(**{"samples": 3, "algorithms": ("nearest",), **axis})


def test_experiment_solve_count(monkeypatch):
    calls = {"nearest": 0, "closest": 0}

    def with_counter(name, fn):
        def wrapped(inst, m):
            calls[name] += 1
            return fn(inst, m)

        return wrapped

    patched = {name: with_counter(name, fn) for name, fn in heuristics.ALGORITHMS.items()}
    monkeypatch.setattr(heuristics, "ALGORITHMS", patched)
    rows = run_experiment(TINY)
    assert calls == {"nearest": 2, "closest": 2}
    assert len(rows) == 2  # one cell per algorithm


def test_experiment_rows_and_determinism():
    rows_a = run_experiment(TINY)
    rows_b = run_experiment(TINY)
    assert summary_to_csv(rows_a) == summary_to_csv(rows_b)
    for row in rows_a:
        assert row.samples == 2
        assert row.std >= 0


def test_experiment_mean_lies_between_sample_extremes():
    config = ExperimentConfig(sizes=(15, 20), m_values=(2, 3), samples=3, base_seed=4)
    rows = run_experiment(config)
    from mtspkit.instance import GridSpec, derive_seed, generate_uniform_instance

    for row in rows:
        totals = []
        for sample in range(config.samples):
            seed = derive_seed(config.base_seed, row.t, sample)
            inst = generate_uniform_instance(GridSpec(row.t, config.grid_max, seed))
            totals.append(heuristics.ALGORITHMS[row.algorithm](inst, row.m).total_distance)
        assert min(totals) <= row.mean <= max(totals)
        assert row.mean == pytest.approx(np.mean(totals), rel=1e-12)
        assert row.std == pytest.approx(np.std(totals, ddof=1), rel=1e-12)


def test_summary_csv_round_trip():
    rows = run_experiment(TINY)
    again = summary_from_csv(summary_to_csv(rows))
    assert again == rows
    with pytest.raises(ValueError):
        summary_from_csv("t,m,algorithm,mean,std,samples\n")


def test_experiment_table_digest_is_locked():
    # Locks the seeded heuristic table byte for byte: any change to the
    # kernels, the instance generator or the CSV writer that moves one
    # visit order or one printed digit changes this digest.
    config = ExperimentConfig(sizes=(50, 100), m_values=(2, 3, 4), samples=3, base_seed=1)
    text = summary_to_csv(run_experiment(config))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "5b43e071c77febd3a5d0d48669fe0cab670f57087331e001765c04cf2fe914e5"


# sha256 of ``plan_to_jsonl`` over eil51, bays29 and eil76 (integer rounding)
# at m = 2..4, recorded before the heuristics built routes from ``tolist()``
_JSONL_DIGESTS = {
    "nearest": "80060696cf728ac380efa20f96128a7cffe72a3898ea11332d45f0dc92455f8c",
    "closest": "7fd8d2f74b45d4966a5333a4917486487e7a94e8b4bf6cfbf1f51e627ac36bd7",
}


@pytest.mark.parametrize("algorithm", sorted(_JSONL_DIGESTS))
def test_plan_jsonl_digest_is_locked(algorithm):
    records = []
    for name in ("eil51", "bays29", "eil76"):
        inst = parse_tsplib(bundled_path(name).read_text(), rounding="integer")
        for m in (2, 3, 4):
            plan = heuristics.ALGORITHMS[algorithm](inst, m)
            records.append(plan_record(name, m, algorithm, plan))
    digest = hashlib.sha256(plan_to_jsonl(records).encode()).hexdigest()
    assert digest == _JSONL_DIGESTS[algorithm]


# sha256 of the comparison, law and summary renderings, recorded before the
# writers shared one CSV and one markdown helper; the comparison covers
# eil51, bays29 and eil76 (integer rounding) at m = 2..4, heuristics only;
# law_markdown re-recorded when the report gained its min-distance fit bullet
_RENDER_DIGESTS = {
    "comparison_csv": "37d6255d21605741355bb17348bcf8b68fea4327884046a1baf250b0ceeaefa1",
    "comparison_markdown": "ce03dbb61ae44f6bbddb74a22f1fa6ce73f77d85d963fce859c62472ed3fce23",
    "law_csv": "a7bb0428eb593b2ffe5d8f7b784498eb4be1477bdc2e449ccecbd2e7eeaca9eb",
    "law_markdown": "d78822f304f0f4a0bf83a60564898dd08ab9e5dc1967b23c60460cae31b2306c",
    "summary_markdown": "53492f7600f5d148627e82ed8ff50ebe3b29480789cf1784c2d45ffa554ab7a7",
}


def _rendering(output):
    if output.startswith("comparison"):
        instances = [
            parse_tsplib(bundled_path(name).read_text(), rounding="integer")
            for name in ("eil51", "bays29", "eil76")
        ]
        rows = compare_instances(instances, [2, 3, 4], ["nearest", "closest"])
        writer = comparison_to_csv if output.endswith("csv") else comparison_to_markdown
        return writer(rows)
    if output.startswith("law"):
        report = law_pipeline(load_reference_grid())
        writer = law_report_to_csv if output.endswith("csv") else law_report_to_markdown
        return writer(report)
    return summary_to_markdown(load_reference_grid())


@pytest.mark.parametrize("output", sorted(_RENDER_DIGESTS))
def test_rendering_digest_is_locked(output):
    digest = hashlib.sha256(_rendering(output).encode()).hexdigest()
    assert digest == _RENDER_DIGESTS[output]


def test_compare_reference_instance(garn9):
    rows = compare_instances([garn9], [2], ["exact", "nearest", "closest"], time_limit=60)
    assert len(rows) == 1
    row = rows[0]
    for alg in ("exact", "nearest", "closest"):
        assert row.distances[alg] == pytest.approx(44.8, abs=0.05)
    for gap in row.gaps.values():
        assert gap == pytest.approx(0.0, abs=0.15)
    assert row.statuses["exact"] == "optimal"


def test_compare_gap_antisymmetry(garn9):
    ab = compare_instances([garn9], [3], ["nearest", "closest"])[0]
    ba = compare_instances([garn9], [3], ["closest", "nearest"])[0]
    gap_ab = ab.gaps["nearest_vs_closest"]
    gap_ba = ba.gaps["closest_vs_nearest"]
    # sign flips under swap (denominators differ, so magnitudes need not match)
    assert gap_ab * gap_ba <= 0


def test_compare_single_algorithm_has_no_gap_columns(garn9):
    rows = compare_instances([garn9], [2], ["nearest"])
    assert rows[0].gaps == {}
    csv_text = comparison_to_csv(rows)
    assert "gap" not in csv_text.splitlines()[0]


def test_comparison_rendering(garn9):
    rows = compare_instances([garn9], [2, 3], ["nearest", "closest"])
    csv_text = comparison_to_csv(rows)
    assert csv_text.splitlines()[0] == (
        "instance,m,dist_nearest,dist_closest,gap_pct_nearest_vs_closest"
    )
    md = comparison_to_markdown(rows)
    assert "| garn9 | 2 |" in md


def test_comparison_reports_exact_statuses(garn9, eil51):
    rows = compare_instances([garn9], [2], ["nearest", "exact"], time_limit=60)
    csv_lines = comparison_to_csv(rows).splitlines()
    assert csv_lines[0].endswith(",gap_pct_nearest_vs_exact,status_exact")
    assert csv_lines[1].endswith(",optimal")
    md_lines = comparison_to_markdown(rows).splitlines()
    assert md_lines[0].endswith("| %nearest_vs_exact | status_exact |")
    assert md_lines[2].endswith("| optimal |")
    # a time-limited incumbent must not read as a proof
    rows = compare_instances([eil51], [2], ["nearest", "exact"], time_limit=0.05)
    assert comparison_to_csv(rows).splitlines()[1].endswith(",feasible_time_limit")
    assert comparison_to_markdown(rows).splitlines()[2].endswith(
        "| feasible_time_limit |"
    )


def test_solve_dispatches_every_algorithm(garn9, eil51):
    assert ALGORITHMS == ("nearest", "closest", "exact")
    for alg in ("nearest", "closest"):
        plan, result = solve(garn9, 2, alg)
        assert result is None
        assert plan == heuristics.ALGORITHMS[alg](garn9, 2)
    plan, result = solve(garn9, 2, "exact", time_limit=60)
    assert result.status.value == "optimal"
    assert result.backend == "subset_dp"
    assert plan is result.best
    assert set(plan.customer_counts()) <= {3, 4}  # default_window(9, 2)
    assert plan == brute_force_oracle(garn9, 2, 3, 4).best
    # a window too tight for the customers, or more routes than customers,
    # is infeasible on both backends
    for inst in (garn9, eil51):
        for m, window in ((2, (3, 3)), (inst.n, None)):
            with pytest.raises(InfeasibleModelError):
                solve(inst, m, "exact", window=window)
    for alg in ("sweep", "oracle"):
        with pytest.raises(ValueError, match="unknown algorithm"):
            solve(garn9, 2, alg)


def test_exact_backend_follows_the_instance_size(monkeypatch):
    assert ORACLE_MAX_N == 16
    small, large = (
        generate_uniform_instance(GridSpec(n, 100, 1)) for n in (16, 17)
    )
    plan, result = solve(small, 3, "exact", time_limit=30)
    assert result.backend == "subset_dp"
    assert result.status is SolveStatus.OPTIMAL
    oracle = brute_force_oracle(small, 3, *default_window(small.n, 3))
    assert plan.routes == oracle.best.routes
    assert result.objective == oracle.objective
    assert result.nodes_explored == oracle.nodes_explored  # path labels
    # the limit reaches the DP (~3 s on this window), which falls back to
    # the nearest-node plan
    plan, result = solve(small, 7, "exact", window=(1, 8), time_limit=0.05)
    assert result.backend == "subset_dp"
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert plan == nearest_node(small, 7)
    # above the cap: the branch-and-bound, from the same warm start and window
    models = []

    def spy(model, time_limit=None):
        models.append((model, time_limit))
        return solve_exact(model, time_limit)

    monkeypatch.setattr(bench, "solve_exact", spy)
    plan, result = solve(large, 3, "exact", time_limit=0.3)
    warm = nearest_node(large, 3)
    window = default_window(large.n, 3)
    assert models == [(build_model(large, 3, *window, warm_start=warm), 0.3)]
    assert result.backend == "branch_and_bound"
    assert result.status.value in ("optimal", "feasible_time_limit")
    assert result.lower_bound <= result.objective <= warm.total_distance


def test_default_window_matches_balanced_quotas():
    assert default_window(51, 2) == (24, 25)
    assert default_window(9, 2) == (3, 4)
    assert default_window(4, 3) == (1, 1)
    with pytest.raises(InfeasibleModelError, match="^9 salesmen but only 8 customers$"):
        default_window(9, 9)
    with pytest.raises(ValueError, match="^need at least one salesman$"):
        default_window(9, 0)


@pytest.mark.parametrize("writer", [comparison_to_csv, comparison_to_markdown])
def test_comparison_writers_write_nothing_for_no_rows(writer):
    assert writer([]) == ""


def test_law_pipeline_on_reference_grid():
    report = law_pipeline(load_reference_grid())
    d_close, _ = report.deltas["closest"]
    d_near, _ = report.deltas["nearest"]
    assert d_close == pytest.approx(90.40, abs=0.05)
    assert d_near == pytest.approx(88.09, abs=0.05)
    assert 0.40 <= report.fits["closest"].p <= 0.48
    # the published single-cell deviation quoted for (250, 6) is reproduced
    cell = next(
        p for p in report.predictions
        if (p.t, p.m, p.algorithm) == (250, 6, "closest")
    )
    assert cell.deviation_pct == pytest.approx(-1.392, abs=0.02)


def test_law_pipeline_self_consistency():
    rows = [
        SummaryRow(t, m, "closest", 138.2 * t**0.44 + 90.4 * (m - 2), 1.0, 30)
        for t in range(50, 501, 50)
        for m in range(2, 8)
    ]
    report = law_pipeline(rows)
    assert report.max_deviation_pct["closest"] < 1e-6
    assert report.fits["closest"].c == pytest.approx(138.2, abs=1e-6)
    assert report.deltas["closest"][0] == pytest.approx(90.4, abs=1e-9)


def test_law_pipeline_rejects_incomplete_grid():
    rows = [SummaryRow(50, m, "closest", 100.0 * m, 1.0, 5) for m in (2, 4)]
    with pytest.raises(ValueError):
        law_pipeline(rows)


def test_law_report_rendering():
    report = law_pipeline(load_reference_grid())
    csv_text = law_report_to_csv(report)
    assert csv_text.splitlines()[0] == "t,m,algorithm,observed,predicted,deviation_pct"
    assert len(csv_text.splitlines()) == 121
    md = law_report_to_markdown(report)
    assert "increment per salesman = 90.41" in md
    assert "| 250 | 6 | closest |" in md
    # the published min-distance fit against the exact [0, 1] expectation
    assert md.splitlines()[2] == (
        "* published min-distance fit 0.4158 n^-0.949 against the exact expectation "
        "on [0, 1]: -5.2% at n=5, +1.6% at n=50, +9.0% at n=200, +18.3% at n=1000"
    )


def test_summary_markdown_smoke():
    md = summary_to_markdown(load_reference_grid())
    assert "| 50 | nearest | 772.2 ± 51.0" in md


def test_plan_records(garn9):
    plan = nearest_node(garn9, 2)
    rec = plan_record("garn9", 2, "nearest", plan)
    assert rec["routes"][0] == [1, 6, 7, 8, 9, 1]
    text = plan_to_jsonl([rec])
    assert text.count("\n") == 1
    import json

    parsed = json.loads(text)
    assert parsed["total_distance"] == pytest.approx(44.8, abs=0.05)
