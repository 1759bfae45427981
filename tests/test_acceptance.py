"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 3 covers the
named benchmark instances bundled with the package; the two instances whose
files could not be redistributed run only when supplied externally (see
``MTSPKIT_TSPLIB_DIR``) and are reported as skipped otherwise.
"""

import math
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import mtspkit as mk
from mtspkit import heuristics
from mtspkit.exact import completion_bound, neighbour_table
from mtspkit.instance import bundled_path


@contextmanager
def criterion(num, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {num} ({name}): FAIL [{type(exc).__name__}: {exc}]")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.2f}s]")


REFERENCE_CELLS = {
    # instance -> algorithm -> {m: published total}
    "eil51": {
        "nearest": {2: 533.91, 3: 613.42, 4: 640.88, 5: 685.97},
        "closest": {2: 619.78, 3: 634.93, 4: 669.88, 5: 701.98},
    },
    "eil76": {
        "nearest": {2: 692.58, 3: 747.34, 4: 782.76, 5: 874.24},
        "closest": {2: 692.58, 3: 804.21, 4: 841.31, 5: 839.86},
    },
    "eil101": {
        "nearest": {2: 789.40, 3: 846.99, 4: 872.21, 5: 967.82},
        "closest": {2: 887.81, 3: 899.68, 4: 913.17, 5: 990.98},
    },
    "kroA100": {
        "nearest": {2: 30180.0, 3: 32064.0, 4: 32988.0, 5: 36337.0},
        "closest": {2: 30180.0, 3: 32967.0, 4: 34520.0, 5: 36998.0},
    },
}

EXTERNAL_CELLS = {
    "kroA150": {
        "nearest": {2: 35881.0, 3: 36411.0, 4: 39657.0, 5: 41786.0},
        "closest": {2: 35633.0, 3: 38439.0, 4: 42074.0, 5: 46503.0},
    },
    "kroA200": {
        "nearest": {2: 36383.0, 3: 42517.0, 4: 45157.0, 5: 46631.0},
        "closest": {2: 40313.0, 3: 42268.0, 4: 44808.0, 5: 45383.0},
    },
}


def _assert_cells(inst, cells):
    for alg, per_m in cells.items():
        for m, published in per_m.items():
            total = heuristics.ALGORITHMS[alg](inst, m).total_distance
            assert total == pytest.approx(published, rel=0.02), (
                f"{inst.name} {alg} m={m}: {total} vs published {published}"
            )


def test_criterion_1_reference_instance(garn9):
    with criterion(1, "garn9 agreement across all four solvers"):
        start = time.perf_counter()
        near = mk.nearest_node(garn9, 2)
        close = mk.closest_vehicle(garn9, 2)
        exact = mk.exact.solve_exact(mk.exact.build_model(garn9, 2, 2, 5), time_limit=60)
        oracle = mk.brute_force_oracle(garn9, 2, 2, 5)
        elapsed = time.perf_counter() - start
        assert near.routes[0] == (1, 6, 7, 8, 9, 1)
        for total in (
            near.total_distance,
            close.total_distance,
            exact.objective,
            oracle.objective,
        ):
            assert total == pytest.approx(44.8, abs=0.05)
        assert exact.status is mk.SolveStatus.OPTIMAL
        assert elapsed < 1.0


def test_criterion_2_balance_arithmetic():
    with criterion(2, "balance quotas cover every customer exactly"):
        start = time.perf_counter()
        assert mk.balance_plan(9, 2).quota(1) == 4
        for n in range(3, 201):
            for m in range(1, n):
                bp = mk.balance_plan(n, m)
                covered = bp.larger_count * bp.quota_upper + (
                    m - bp.larger_count
                ) * bp.quota_lower
                assert covered == n - 1
        assert time.perf_counter() - start < 1.0


def test_criterion_3_bundled_benchmark_cells():
    with criterion(3, "benchmark heuristic cells within 2% (bundled instances)"):
        start = time.perf_counter()
        eil51 = mk.load_bundled("eil51")
        assert mk.nearest_node(eil51, 2).total_distance == pytest.approx(533.91, rel=0.01)
        assert mk.closest_vehicle(eil51, 2).total_distance == pytest.approx(619.78, rel=0.01)
        for name, cells in REFERENCE_CELLS.items():
            _assert_cells(mk.load_bundled(name), cells)
        assert time.perf_counter() - start < 10.0


def _external_instance(name):
    override = os.environ.get("MTSPKIT_TSPLIB_DIR")
    candidates = []
    if override:
        candidates.append(Path(override) / f"{name}.tsp")
    candidates.append(bundled_path(name))
    for path in candidates:
        if path.exists():
            return mk.parse_tsplib(path.read_text())
    return None


@pytest.mark.parametrize("name", sorted(EXTERNAL_CELLS))
def test_criterion_3_external_benchmark_cells(name):
    inst = _external_instance(name)
    if inst is None:
        pytest.skip(
            f"{name}.tsp is third-party data that could not be redistributed; "
            f"place the original file in MTSPKIT_TSPLIB_DIR to run these cells"
        )
    with criterion(3, f"benchmark heuristic cells within 2% ({name})"):
        _assert_cells(inst, EXTERNAL_CELLS[name])


def test_criterion_4_oracle_equivalence():
    with criterion(4, "exact solver matches brute force on 50 seeded instances"):
        start = time.perf_counter()
        for seed in range(50):
            n = 6 + seed % 3
            m = 1 + seed % 2
            inst = mk.generate_uniform_instance(mk.GridSpec(n, 100, 1000 + seed))
            bp = mk.balance_plan(n, m)
            lo, hi = bp.quota_lower, bp.quota_upper
            if lo == hi:
                lo = max(1, lo - 1)
            if seed % 4 >= 2:  # alternate tight and widened windows
                lo, hi = max(1, lo - 1), min(n - 1, hi + 1)
            model = mk.exact.build_model(inst, m, lo, hi, warm_start=mk.nearest_node(inst, m))
            exact = mk.exact.solve_exact(model)
            oracle = mk.brute_force_oracle(inst, m, lo, hi)
            assert exact.status is mk.SolveStatus.OPTIMAL
            assert exact.objective == pytest.approx(oracle.objective, abs=1e-9)
            ok, violations = mk.check_solution(model, exact.best)
            assert ok, violations
        assert time.perf_counter() - start < 120.0


def test_criterion_5_closed_form_point_checks():
    with criterion(5, "closed-form point values"):
        assert mk.predict_mtsp_distance(250, 6) == pytest.approx(1930.5, abs=0.1)
        assert mk.predict_mtsp_distance(250, 2) == pytest.approx(1568.9, abs=0.1)
        assert mk.expected_pair_distance_square(1.0) == pytest.approx(0.36869, abs=1e-5)
        assert mk.expected_pair_distance_square(math.sqrt(2) * 100) == pytest.approx(
            52.14, abs=0.01
        )
        assert mk.expected_pair_distance_ball(2, 1) == pytest.approx(
            64 / (45 * math.pi), rel=1e-12
        )
        assert mk.min_dist_expectation(50) == pytest.approx(0.01015, abs=1e-4)


def test_criterion_6_monte_carlo_means():
    with criterion(6, "Monte Carlo estimators land on the laws"):
        start = time.perf_counter()
        pair_unit = mk.simulate_min_dist(1, 100_000, mk.UnitInterval(), seed=20)
        assert pair_unit.mean == pytest.approx(1 / 3, abs=0.005)
        pair_int = mk.simulate_min_dist(1, 100_000, mk.IntegerRange(100), seed=21)
        assert pair_int.mean == pytest.approx(33.17, abs=0.5)
        min_unit = mk.simulate_min_dist(50, 100_000, mk.UnitInterval(), seed=22)
        assert min_unit.mean == pytest.approx(0.01, rel=0.10)
        min_int = mk.simulate_min_dist(50, 100_000, mk.IntegerRange(100), seed=23)
        assert min_int.mean == pytest.approx(0.9644, rel=0.10)
        assert time.perf_counter() - start < 30.0


def test_criterion_7_desk_scale_distance_law():
    with criterion(7, "desk-scale distance-law statistics"):
        start = time.perf_counter()
        config = mk.ExperimentConfig(
            sizes=(50, 100, 150, 200),
            m_values=(2, 3, 4, 5),
            samples=10,
            base_seed=42,
        )
        report = mk.law_pipeline(mk.run_experiment(config))
        for alg in ("nearest", "closest"):
            delta, _ = report.deltas[alg]
            assert 60.0 <= delta <= 120.0, f"{alg} increment {delta}"
            assert 0.38 <= report.fits[alg].p <= 0.50, f"{alg} exponent {report.fits[alg].p}"
            assert report.max_deviation_pct[alg] <= 8.0, (
                f"{alg} deviation {report.max_deviation_pct[alg]}%"
            )
        assert time.perf_counter() - start < 600.0


def test_criterion_8_reference_grid_pipeline():
    with criterion(8, "published grid reproduces the increment statistics"):
        start = time.perf_counter()
        report = mk.law_pipeline(mk.load_reference_grid())
        assert report.deltas["closest"][0] == pytest.approx(90.40, abs=0.05)
        assert report.deltas["nearest"][0] == pytest.approx(88.09, abs=0.05)
        assert time.perf_counter() - start < 1.0


def _min_completion(dist, seqs, ends, closed, unvisited, lo, hi):
    open_routes = [k for k in range(len(seqs)) if not closed[k]]
    if not open_routes:
        return math.inf if unvisited else 0.0
    k = open_routes[0]
    best = math.inf
    if len(seqs[k]) >= lo:
        best = dist[ends[k], 0] + _min_completion(
            dist, seqs, ends[:k] + (0,) + ends[k + 1 :],
            closed[:k] + (True,) + closed[k + 1 :], unvisited, lo, hi,
        )
    if len(seqs[k]) < hi:
        for v in sorted(unvisited):
            cand = dist[ends[k], v] + _min_completion(
                dist, seqs[:k] + (seqs[k] + (v,),) + seqs[k + 1 :],
                ends[:k] + (v,) + ends[k + 1 :], closed, unvisited - {v}, lo, hi,
            )
            best = min(best, cand)
    return best


def test_criterion_9_property_suites(garn9):
    with criterion(9, "invariants, specialisation chain, determinism, bounds"):
        # specialisation chain
        for side in (0.5, 2.0, 31.0):
            assert mk.expected_pair_distance_rectangle(side, side) == pytest.approx(
                mk.expected_pair_distance_square(math.sqrt(2) * side), abs=1e-9
            )
        for d in (0.1, 1.0, 12.0):
            assert mk.expected_pair_distance_ball(1, d) == pytest.approx(
                mk.expected_pair_distance_interval(d), abs=1e-9
            )

        # determinism of every seeded operation
        spec = mk.GridSpec(40, 100, 77)
        assert np.array_equal(
            mk.generate_uniform_instance(spec).coords,
            mk.generate_uniform_instance(spec).coords,
        )
        assert (
            mk.simulate_min_dist(1, 10_000, mk.UnitInterval(), seed=5).mean
            == mk.simulate_min_dist(1, 10_000, mk.UnitInterval(), seed=5).mean
        )
        assert (
            mk.simulate_min_dist(5, 10_000, mk.IntegerRange(9), seed=5).mean
            == mk.simulate_min_dist(5, 10_000, mk.IntegerRange(9), seed=5).mean
        )
        tiny = mk.ExperimentConfig(sizes=(15,), m_values=(2,), samples=2, base_seed=3)
        assert mk.run_experiment(tiny) == mk.run_experiment(tiny)
        inst = mk.generate_uniform_instance(spec)
        assert mk.nearest_node(inst, 3) == mk.nearest_node(inst, 3)
        assert mk.closest_vehicle(inst, 3) == mk.closest_vehicle(inst, 3)

        # route-plan and type invariants on a fresh plan
        plan = mk.closest_vehicle(inst, 3)
        assert plan.total_distance == pytest.approx(sum(plan.per_route_distance), rel=1e-9)
        assert sorted(v for r in plan.routes for v in r[1:-1]) == list(range(2, inst.n + 1))
        with pytest.raises(ValueError):
            mk.GridSpec(2, 100, 0)
        with pytest.raises(ValueError):
            mk.SummaryRow(50, 2, "nearest", 1.0, 0.1, samples=1)

        # warm-start dominance
        for seed in (1, 2, 3):
            small = mk.generate_uniform_instance(mk.GridSpec(8, 100, seed))
            warm = mk.nearest_node(small, 2)
            bp = mk.balance_plan(small.n, 2)
            result = mk.exact.solve_exact(
                mk.exact.build_model(small, 2, max(1, bp.quota_lower - 1),
                               bp.quota_upper + 1, warm_start=warm)
            )
            assert result.objective <= warm.total_distance + 1e-9

        # admissible bound spot-check against exhaustive completion costs
        for seed in (4, 5):
            small = mk.generate_uniform_instance(mk.GridSpec(7, 100, seed))
            dist = small.matrix
            states = [
                (((), ()), (0, 0), (False, False), frozenset(range(1, 7))),
                (((2,), ()), (2, 0), (False, False), frozenset({1, 3, 4, 5, 6})),
                (((1, 4), (2,)), (4, 2), (False, False), frozenset({3, 5, 6})),
            ]
            for seqs, ends, closed, unvisited in states:
                bound = completion_bound(neighbour_table(dist), {}, seqs, closed,
                                         sum(1 << v for v in unvisited), 2)
                truth = _min_completion(dist, seqs, ends, closed, unvisited, 2, 4)
                assert bound <= truth + 1e-9
