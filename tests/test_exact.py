import functools
import gc
import hashlib
import inspect
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mtspkit
from mtspkit import (
    GridSpec,
    InfeasibleModelError,
    Instance,
    RoutePlan,
    SolveStatus,
    brute_force_oracle,
    check_solution,
    evaluate_plan,
    generate_uniform_instance,
    nearest_node,
)
from mtspkit import bench, exact, kernels
from mtspkit.bench import default_window
from mtspkit.exact import (
    ORACLE_MAX_N,
    ExactModel,
    bound_from_ends,
    build_model,
    completion_bound,
    neighbour_table,
    solve_exact,
)
from mtspkit.instance import PlanError, plan_tour, rng_from_seed


def _window(inst, m, widen=0):
    lo, hi = default_window(inst.n, m)
    return max(1, lo - widen), min(inst.n - 1, hi + widen)


def test_build_model_validation(garn9):
    build_model(garn9, 2, 2, 5)
    with pytest.raises(InfeasibleModelError):
        build_model(garn9, 4, 3, 3)  # 4*3 > 8
    with pytest.raises(InfeasibleModelError):
        build_model(garn9, 2, 1, 3)  # 2*3 < 8
    with pytest.raises(ValueError):
        build_model(garn9, 2, 5, 2)
    with pytest.raises(ValueError):
        build_model(garn9, 0, 1, 8)
    with pytest.raises(ValueError):
        build_model(garn9, 2, 0, 5)


def test_build_model_on_bundled_medium_instance():
    from mtspkit import load_bundled

    bays29 = load_bundled("bays29")
    model = build_model(bays29, 4, 4, 8, warm_start=nearest_node(bays29, 4))
    ok, violations = check_solution(model, model.warm_start)
    assert ok, violations  # proving the 2603 optimum is the --long suite's job


def test_check_solution_accepts_reference_plan(garn9):
    model = build_model(garn9, 2, 2, 5)
    plan = evaluate_plan(garn9, [[1, 6, 7, 8, 9, 1], [1, 5, 4, 3, 2, 1]])
    ok, violations = check_solution(model, plan)
    assert ok and violations == []


def test_check_solution_reports_window_violations(garn9):
    model = build_model(garn9, 2, 3, 6)
    lopsided = evaluate_plan(garn9, [[1, 2, 1], [1, 3, 4, 5, 6, 7, 8, 9, 1]])
    ok, violations = check_solution(model, lopsided)
    assert not ok
    assert any("below minimum" in v for v in violations)
    assert any("above maximum" in v for v in violations)
    assert any("two-node tour" in v for v in violations)


def test_check_solution_wrong_route_count(garn9):
    model = build_model(garn9, 2, 2, 5)
    plan = evaluate_plan(
        garn9, [[1, 2, 3, 1], [1, 4, 5, 6, 1], [1, 7, 8, 9, 1]]
    )
    ok, violations = check_solution(model, plan)
    assert not ok and any("routes" in v for v in violations)


def test_check_solution_rejects_structural_garbage(garn9):
    model = build_model(garn9, 2, 2, 5)
    twice = RoutePlan(((1, 2, 2, 3, 4, 1), (1, 5, 6, 7, 8, 9, 1)), (0.0, 0.0), 0.0)
    with pytest.raises(PlanError):
        check_solution(model, twice)


def test_check_solution_two_node_row_applies_from_k_2(garn9):
    # the K >= 2 two-node row is the only row a one-customer route fails at K = 2
    plan = evaluate_plan(garn9, [[1, 2, 1], [1, 3, 4, 5, 6, 7, 8, 9, 1]])
    ok, violations = check_solution(ExactModel(garn9, 2, 2, 7), plan)
    assert not ok
    assert violations == ["route 1 visits 1 customers, a forbidden two-node tour"]
    assert check_solution(ExactModel(garn9, 2, 1, 7), plan) == (True, [])


@st.composite
def _plans_and_models(draw):
    """A structurally valid plan and a model with any m and 1 <= K <= L <= n-1."""
    n = draw(st.integers(3, 12))
    customers = draw(st.permutations(range(2, n + 1)))
    cuts = draw(st.sets(st.integers(1, n - 2), max_size=n - 2))
    bounds = [0, *sorted(cuts), n - 1]
    routes = [[1, *customers[a:b], 1] for a, b in zip(bounds, bounds[1:])]
    m = draw(st.sampled_from([len(routes), draw(st.integers(1, n - 1))]))
    lower = draw(st.integers(1, n - 1))
    upper = draw(st.integers(lower, n - 1))
    inst = generate_uniform_instance(GridSpec(n, 100, draw(st.integers(0, 99))))
    return evaluate_plan(inst, routes), ExactModel(inst, m, lower, upper)


@settings(max_examples=400, deadline=None)
@given(_plans_and_models())
def test_check_solution_rows_match_the_counting_rule(case):
    plan, model = case
    counting = plan.m == model.m and all(
        model.min_customers <= count <= model.max_customers
        for count in plan.customer_counts()
    )
    ok, violations = check_solution(model, plan)
    assert ok == counting, violations
    assert ok == (violations == [])


def test_solve_exact_reference_instance(garn9):
    result = solve_exact(build_model(garn9, 2, 2, 5), time_limit=60)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(44.8, abs=0.05)
    assert result.objective == pytest.approx(result.lower_bound, rel=1e-6)
    assert result.nodes_explored > 0
    ok, _ = check_solution(build_model(garn9, 2, 2, 5), result.best)
    assert ok


def test_warm_start_dominance(garn9):
    warm = evaluate_plan(garn9, [[1, 6, 7, 8, 9, 1], [1, 5, 4, 3, 2, 1]])
    result = solve_exact(build_model(garn9, 2, 2, 5, warm_start=warm))
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective <= warm.total_distance + 1e-9
    for seed in range(5):
        inst = generate_uniform_instance(GridSpec(8, 100, 500 + seed))
        m = 2
        lo, hi = _window(inst, m, widen=1)
        warm = nearest_node(inst, m)
        result = solve_exact(build_model(inst, m, lo, hi, warm_start=warm))
        assert result.objective <= warm.total_distance + 1e-9


def test_invalid_warm_start_rejected(garn9):
    bad = evaluate_plan(garn9, [[1, 2, 1], [1, 3, 4, 5, 6, 7, 8, 9, 1]])
    with pytest.raises(ValueError, match="warm start"):
        solve_exact(build_model(garn9, 2, 2, 5, warm_start=bad))


def test_heuristic_cuts_keep_reference_optimum(garn9):
    plain = solve_exact(build_model(garn9, 2, 2, 5))
    cut = solve_exact(build_model(garn9, 2, 2, 5, warm_start=nearest_node(garn9, 2)))
    assert cut.status is SolveStatus.OPTIMAL
    assert cut.objective == pytest.approx(plain.objective, rel=1e-9)


def _enumeration_optimum(instance, m, min_customers, max_customers):
    """Reference optimum by enumerating every feasible plan (n <= 9 here).

    All permutations of the customers are split into m consecutive segments
    with sizes inside the window; segment-label duplicates are skipped by
    requiring segment heads in ascending order.
    """
    n = instance.n
    model = build_model(instance, m, min_customers, max_customers)  # window check
    dist = instance.matrix
    customers = list(range(1, n))
    sizes = [
        comp
        for comp in _compositions(n - 1, m)
        if all(model.min_customers <= part <= model.max_customers for part in comp)
    ]
    if not sizes:
        raise InfeasibleModelError("no route sizes fit the window")
    best_cost = np.inf
    best_routes = None
    for perm in itertools.permutations(customers):
        for comp in sizes:
            routes = []
            offset = 0
            heads_ascend = True
            for part in comp:
                seg = perm[offset : offset + part]
                if routes and seg[0] < routes[-1][0]:
                    heads_ascend = False
                    break
                routes.append(seg)
                offset += part
            if not heads_ascend:
                continue
            cost = 0.0
            for seg in routes:
                cost += dist[0, seg[0]]
                for a, b in zip(seg[:-1], seg[1:]):
                    cost += dist[a, b]
                cost += dist[seg[-1], 0]
            if cost < best_cost - 1e-9:
                best_cost = cost
                best_routes = routes
    return evaluate_plan(
        instance, [(1, *[v + 1 for v in seg], 1) for seg in best_routes]
    )


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def test_subset_dp_oracle_matches_brute_force():
    # the library oracle against the enumeration: n 5, 7 and 9, symmetric and
    # asymmetric, m 1-3; widened windows at n 5 and 7, where enumerating them
    # takes milliseconds rather than the ~1 s of an n=9, m=3 one
    for n in (5, 7, 9):
        sym = generate_uniform_instance(GridSpec(n, 100, 700 + n))
        mat = rng_from_seed(800 + n).random((n, n)) * 50
        np.fill_diagonal(mat, np.inf)
        for inst in (sym, Instance(f"asym{n}", mat)):
            for m in (1, 2, 3):
                for widen in (0, 1) if n < 9 else (0,):
                    lo, hi = _window(inst, m, widen=widen)
                    oracle = brute_force_oracle(inst, m, lo, hi)
                    reference = _enumeration_optimum(inst, m, lo, hi)
                    assert oracle.status is SolveStatus.OPTIMAL
                    assert oracle.objective == pytest.approx(
                        reference.total_distance, abs=1e-9
                    ), (n, m, lo, hi)
                    ok, violations = check_solution(build_model(inst, m, lo, hi), oracle.best)
                    assert ok, violations


def test_nearest_node_start_matches_the_oracle():
    # on 7 of these 40 runs a cap on every route at the nearest-node plan's
    # longest route would cut off the optimum (worst: seed 4, n=10, m=3,
    # 438.96 -> 485.45)
    for seed in range(1, 11):
        for n in (9, 10):
            inst = generate_uniform_instance(GridSpec(n, 100, seed))
            for m in (2, 3):
                lo, hi = default_window(n, m)
                warm = nearest_node(inst, m)
                result = solve_exact(build_model(inst, m, lo, hi, warm_start=warm))
                assert result.status is SolveStatus.OPTIMAL
                assert result.objective == pytest.approx(
                    brute_force_oracle(inst, m, lo, hi).objective, abs=1e-9
                ), (seed, n, m)


def test_solver_is_deterministic(garn9):
    a = solve_exact(build_model(garn9, 2, 2, 5))
    b = solve_exact(build_model(garn9, 2, 2, 5))
    assert a.best == b.best
    assert a.nodes_explored == b.nodes_explored


def test_exact_backend_follows_the_instance_size(monkeypatch):
    assert ORACLE_MAX_N == 16
    small, large = (
        generate_uniform_instance(GridSpec(n, 100, 1)) for n in (16, 17)
    )
    window = default_window(small.n, 3)
    result = exact.solve(small, 3, *window, 30)
    assert result.backend == "subset_dp"
    assert result.status is SolveStatus.OPTIMAL
    oracle = brute_force_oracle(small, 3, *window)
    assert result.best.routes == oracle.best.routes
    assert result.objective == oracle.objective
    assert result.nodes_explored == oracle.nodes_explored  # path labels
    # bench.solve's exact run is this one call on the default window
    plan, via_bench = bench.solve(small, 3, "exact", time_limit=30)
    assert plan == result.best
    assert via_bench.objective == result.objective
    assert via_bench.nodes_explored == result.nodes_explored
    # the limit reaches the DP (~3 s on this window), which falls back to
    # the nearest-node plan
    result = exact.solve(small, 7, 1, 8, 0.05)
    assert result.backend == "subset_dp"
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert result.best == nearest_node(small, 7)
    # above the cap: the branch-and-bound on one model of the same window,
    # with no warm start; its ending starts from the nearest-node plan
    models = []

    def spy(model, time_limit=None):
        models.append((model, time_limit))
        return solve_exact(model, time_limit)

    monkeypatch.setattr(exact, "solve_exact", spy)
    window = default_window(large.n, 3)
    result = exact.solve(large, 3, *window, 0.3)
    warm = nearest_node(large, 3)
    assert models == [(build_model(large, 3, *window), 0.3)]
    assert result.backend == "branch_and_bound"
    assert result.status.value in ("optimal", "feasible_time_limit")
    assert result.lower_bound <= result.objective <= warm.total_distance


@pytest.mark.parametrize("limit", [0.0, -1.0, float("-inf"), float("nan")])
def test_exact_backends_reject_a_non_positive_time_limit(garn9, limit):
    model = build_model(garn9, 2, 2, 5)
    with pytest.raises(ValueError, match="time_limit must be positive"):
        solve_exact(model, time_limit=limit)
    with pytest.raises(ValueError, match="time_limit must be positive"):
        brute_force_oracle(garn9, 2, 2, 5, time_limit=limit)
    for algorithm in bench.ALGORITHMS:  # heuristics do not read it, but refuse it too
        with pytest.raises(ValueError, match="time_limit must be positive"):
            bench.solve(garn9, 2, algorithm, time_limit=limit)


def test_no_limit_above_the_dp_cap_is_refused_before_any_work(monkeypatch):
    # above the cap a run is the ending, whose phases under inf all still
    # end on their own counts; inf is refused for cost (the q-route bound
    # alone runs 0.79-10.7 s at n = 100-200, BENCH_qroute_step.json) and
    # None because check_time_limit reads it as inf, both before any work;
    # heuristics read no limit and take none at any size,
    # and up to the cap the subset DP still runs to a proof without one
    inst = generate_uniform_instance(GridSpec(ORACLE_MAX_N + 1, 100, 1))
    window = default_window(inst.n, 3)
    model = build_model(inst, 3, *window)

    def work(*args):
        raise AssertionError("an unlimited run above the cap does no work")

    monkeypatch.setattr(exact, "neighbour_table", work)
    monkeypatch.setattr(exact, "nearest_node", work)
    message = f"^time_limit must be finite above {ORACLE_MAX_N} nodes$"
    for limit in (None, float("inf")):
        with pytest.raises(ValueError, match=message):
            solve_exact(model, limit)
        with pytest.raises(ValueError, match=message):
            exact.solve(inst, 3, *window, limit)
        with pytest.raises(ValueError, match=message):
            bench.solve(inst, 3, "exact", time_limit=limit)
        assert bench.solve(inst, 3, "nearest", time_limit=limit)[0] == nearest_node(inst, 3)
    monkeypatch.undo()
    small = generate_uniform_instance(GridSpec(ORACLE_MAX_N, 100, 1))
    proof = brute_force_oracle(small, 3, *default_window(small.n, 3))
    for limit in (None, float("inf")):
        result = exact.solve(small, 3, *default_window(small.n, 3), limit)
        assert result.status is SolveStatus.OPTIMAL
        assert result.best == proof.best


def test_exact_backends_take_an_infinite_time_limit(garn9):
    proved = brute_force_oracle(garn9, 2, 2, 5)
    for result in (solve_exact(build_model(garn9, 2, 2, 5), time_limit=float("inf")),
                   brute_force_oracle(garn9, 2, 2, 5, time_limit=float("inf"))):
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(proved.objective, abs=1e-9)


@pytest.mark.parametrize("limit, read", [(None, np.inf), (np.inf, np.inf), (0.5, 0.5), (2, 2)])
def test_check_time_limit_returns_the_limit_a_run_reads(limit, read):
    assert exact.check_time_limit(limit) == read


def test_no_limit_runs_as_an_infinite_one(garn9):
    # both backends work out their deadlines from check_time_limit's float,
    # so None and inf give the same labels, nodes, plan and objective
    inst = generate_uniform_instance(GridSpec(11, 100, 4))
    for case, m, window in ((garn9, 2, (2, 5)), (inst, 3, default_window(inst.n, 3))):
        model = build_model(case, m, *window)
        for run in (lambda limit: brute_force_oracle(case, m, *window, time_limit=limit),
                    lambda limit: solve_exact(model, limit)):
            none, inf = run(None), run(np.inf)
            assert none.status is inf.status is SolveStatus.OPTIMAL
            assert (none.nodes_explored, none.objective, none.best.routes) == (
                inf.nodes_explored, inf.objective, inf.best.routes)


def test_a_stopped_run_builds_its_start_plan_once(monkeypatch):
    # the nearest-node plan is the ending's start plan and the q-route
    # bound's target at once: one kernel call per stopped run, above the cap
    # and for a stopped search that holds an incumbent; the bound calls no
    # heuristic, and a proven subset DP builds no start plan
    small = generate_uniform_instance(GridSpec(13, 100, 5))
    warm = build_model(small, 3, *default_window(13, 3), warm_start=nearest_node(small, 3))
    bays29 = mtspkit.load_bundled("bays29")
    calls = []
    real_order = kernels.nearest_order

    def order(*args):
        calls.append(1)
        return real_order(*args)

    monkeypatch.setattr(kernels, "nearest_order", order)
    result = exact.solve(bays29, 4, 4, 8, 1e6)
    assert (result.backend, calls) == ("branch_and_bound", [1])
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_OPEN_PER_S", 100)  # the search stops on its count
        calls.clear()
        assert solve_exact(warm, 60.0).nodes_explored > 0
        assert calls == [1]
    calls.clear()
    exact.qroute_bound(bays29, 4, 4, 8, 2603.0, np.inf)
    assert exact.solve(small, 3, *default_window(13, 3)).backend == "subset_dp"
    assert calls == []


def test_time_limit_holds_on_elapsed_time(eil51):
    model = build_model(eil51, 2, 24, 25)
    started = time.perf_counter()
    result = solve_exact(model, time_limit=0.2)
    elapsed = time.perf_counter() - started
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    # the 0.1 s margin covers the polish's last gather and row block; it is
    # wall-clock time, so a heavily loaded host can use it up
    assert result.wall_time <= 0.2 + 0.1
    assert elapsed <= 0.2 + 0.1


def test_time_limit_before_a_first_plan_polishes_the_nearest_node_plan():
    # without a warm start, a 1 ms run at n = 30 holds no plan; the ending
    # polishes the nearest-node plan instead
    inst = generate_uniform_instance(GridSpec(30, 100, 3))
    model = build_model(inst, 3, *default_window(inst.n, 3))
    result = solve_exact(model, time_limit=0.001)
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert result.best.total_distance <= nearest_node(inst, 3).total_distance
    assert result.objective == result.best.total_distance
    assert check_solution(model, result.best)[0]
    assert result.lower_bound <= result.objective


def test_a_search_stopped_before_a_first_plan_improves_the_nearest_node_plan(monkeypatch):
    # above the cap the same n = 30 run hands the ending no plan; its 0.2 s
    # limit goes to the q-route bound and the polishes of the nearest-node plan.
    # The proof gives up at its first pool's count, on any host: one that
    # finishes inside its 0.15 s share proves 644.53
    inst = generate_uniform_instance(GridSpec(30, 100, 3))
    model = build_model(inst, 3, *default_window(inst.n, 3))
    held = []
    real_finish = exact._finish

    def finish(model, backend, routes, *args):
        held.append(routes)
        return real_finish(model, backend, routes, *args)

    monkeypatch.setattr(exact, "_finish", finish)
    monkeypatch.setattr(exact, "_POOL_CAP", 0)
    result = solve_exact(model, time_limit=0.2)
    assert held == [None]
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert check_solution(model, result.best) == (True, [])
    assert result.objective < nearest_node(inst, 3).total_distance


def test_a_run_stopped_at_once_reports_the_root_bound():
    # 1 µs stops the q-route bound before its first step; the root bound is
    # still the run's
    inst = generate_uniform_instance(GridSpec(30, 100, 3))
    result = exact.solve(inst, 3, *default_window(inst.n, 3), time_limit=1e-6)
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert result.lower_bound == exact._root_bound(inst.matrix, 3) > 0.0


def test_solve_above_the_cap_does_all_its_work_inside_its_clock(monkeypatch):
    # exact.solve builds one model and checks no plan of its own making, so
    # its clock covers all of its work. The first assertion bounds work done
    # outside the clock, whatever the host's speed; the second is
    # test_time_limit_holds_on_elapsed_time's margin
    inst = generate_uniform_instance(GridSpec(2000, 100, 1))
    window = default_window(inst.n, 4)

    def check(*args):
        raise AssertionError("exact.solve checks no plan it built")

    monkeypatch.setattr(exact, "check_solution", check)
    started = time.perf_counter()
    result = exact.solve(inst, 4, *window, 0.2)
    elapsed = time.perf_counter() - started
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert elapsed - result.wall_time <= 0.02
    assert elapsed <= 0.2 + 0.1


def test_a_large_stopped_search_keeps_its_limit():
    # at n = 1000 the run is the ending alone, and the ending keeps its
    # 0.5 s limit: the polish stops within one gather and row block of it
    inst = generate_uniform_instance(GridSpec(1000, 100, 1))
    model = build_model(inst, 4, *default_window(inst.n, 4), warm_start=nearest_node(inst, 4))
    started = time.perf_counter()
    result = solve_exact(model, time_limit=0.5)
    elapsed = time.perf_counter() - started
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    # the margin of test_time_limit_holds_on_elapsed_time
    assert elapsed <= 0.5 + 0.1
    assert abs(elapsed - result.wall_time) <= 0.05
    assert result.lower_bound >= exact._root_bound(inst.matrix, 4)


def test_the_search_frees_its_table_before_the_ending(monkeypatch):
    tables, sizes = [], []
    real_table, real_finish = exact.neighbour_table, exact._finish

    def table(matrix):
        tables.append(real_table(matrix))
        return tables[-1]

    def finish(*args):
        rows, customers = tables[-1]
        sizes.append((len(rows), len(customers)))
        return real_finish(*args)

    monkeypatch.setattr(exact, "neighbour_table", table)
    monkeypatch.setattr(exact, "_finish", finish)
    garn9 = mtspkit.load_bundled("garn9")
    assert solve_exact(build_model(garn9, 2, 2, 5)).status is SolveStatus.OPTIMAL
    assert sizes == [(0, 0)]


def test_no_tree_search_above_the_dp_cap(monkeypatch):
    # above the cap solve_exact hands its warm start to the ending at once:
    # no neighbour table, no heap; the q-route proof proves bays29
    def work(*args):
        raise AssertionError("no tree search above the cap")

    monkeypatch.setattr(exact, "neighbour_table", work)
    monkeypatch.setattr(exact, "heappush", work)
    bays29 = mtspkit.load_bundled("bays29")
    model = build_model(bays29, 4, 4, 8, warm_start=nearest_node(bays29, 4))
    result = solve_exact(model, time_limit=1.0)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(2603, abs=1e-6)
    assert result.nodes_explored == 0
    assert result.backend == "branch_and_bound"


def _every_ending():
    """One case per way an exact run ends: (label, model, run, backend)."""
    garn9 = mtspkit.load_bundled("garn9")
    small = build_model(garn9, 2, 2, 5)
    wide = build_model(generate_uniform_instance(GridSpec(15, 100, 7)), 7, 1, 8)  # ~1 s
    late = build_model(generate_uniform_instance(GridSpec(30, 100, 3)), 3, 9, 10)
    eil51 = mtspkit.load_bundled("eil51")
    warm = build_model(eil51, 2, 24, 25, warm_start=nearest_node(eil51, 2))
    u16 = generate_uniform_instance(GridSpec(16, 100, 7))
    searched = build_model(u16, 2, *default_window(16, 2), warm_start=nearest_node(u16, 2))
    return [
        ("dp proven", small, lambda: brute_force_oracle(garn9, 2, 2, 5), "subset_dp"),
        ("dp stopped", wide,
         lambda: brute_force_oracle(wide.instance, 7, 1, 8, time_limit=0.01), "subset_dp"),
        ("b&b proven", small, lambda: solve_exact(small), "branch_and_bound"),
        ("b&b search stopped", searched,
         lambda: solve_exact(searched, time_limit=0.002), "branch_and_bound"),
        ("b&b above the cap stopped, warm start", warm,
         lambda: solve_exact(warm, time_limit=0.05), "branch_and_bound"),
        ("b&b above the cap stopped, no plan", late,
         lambda: solve_exact(late, time_limit=0.001), "branch_and_bound"),
    ]


def test_every_exact_ending_keeps_the_result_invariants(monkeypatch):
    heaps, polishes = {}, []
    real_push, real_polish = exact.heappush, exact._polish

    def push(heap, item):
        heaps[id(heap)] = heap
        real_push(heap, item)

    def polish(*args):
        assert not any(heaps.values()), "polished before the open nodes were freed"
        polishes[-1] += 1
        return real_polish(*args)

    monkeypatch.setattr(exact, "heappush", push)
    monkeypatch.setattr(exact, "_polish", polish)
    statuses = []
    for label, model, run, backend in _every_ending():
        polishes.append(0)
        result = run()
        # every stopped run polishes its plan, the nearest-node one if it
        # holds none; a stopped subset DP has no time left to change it
        assert (polishes[-1] > 0) == ("stopped" in label), label
        if label == "dp stopped":
            assert result.best == nearest_node(model.instance, model.m), label
        assert check_solution(model, result.best) == (True, []), label
        assert result.objective == result.best.total_distance, label
        assert result.lower_bound <= result.objective, label
        if "stopped" in label:  # never below the root bound, whatever the backend holds
            assert result.lower_bound >= exact._root_bound(model.instance.matrix, model.m), label
        assert (result.status is SolveStatus.OPTIMAL) == (
            result.lower_bound == result.objective
        ), label
        assert result.backend == backend, label
        statuses.append(result.status)
    optimal, stopped = SolveStatus.OPTIMAL, SolveStatus.FEASIBLE_TIME_LIMIT
    assert statuses == [optimal, stopped, optimal, stopped, stopped, stopped]


def test_search_without_a_warm_start_proves_every_feasible_window():
    # no window build_model admits leaves a full search without a plan: n 3-7,
    # the tie-heavy 6-grid and directed integer costs 0-4, every m, K and L
    runs = 0
    for n in range(3, 8):
        mat = rng_from_seed(1700 + n).integers(0, 5, (n, n)).astype(np.float64)
        np.fill_diagonal(mat, np.inf)
        for inst in (generate_uniform_instance(GridSpec(n, 6, n)), Instance(f"asym{n}", mat)):
            for m, lo, hi in itertools.product(range(1, n), repeat=3):
                if lo > hi or not m * lo <= n - 1 <= m * hi:
                    continue
                model = build_model(inst, m, lo, hi)
                result = solve_exact(model)
                assert result.status is SolveStatus.OPTIMAL, (inst.name, m, lo, hi)
                assert check_solution(model, result.best)[0]
                assert result.objective == pytest.approx(
                    brute_force_oracle(inst, m, lo, hi).objective, abs=1e-9
                ), (inst.name, m, lo, hi)
                runs += 1
    assert runs == 2 * 97  # 97 feasible (m, K, L) per matrix family


def test_bounds_hold_where_the_search_stops_proving():
    # n 12-14 from the nearest-node start under a short limit, where the
    # symmetric runs usually stop unproven: bound and incumbent must still
    # bracket the oracle's optimum
    for i, (n, m) in enumerate([(12, 3), (13, 2), (14, 2), (14, 3)]):
        mat = rng_from_seed(40 + i).random((n, n)) * 100
        np.fill_diagonal(mat, np.inf)
        for inst in (generate_uniform_instance(GridSpec(n, 100, 30 + i)), Instance("asym", mat)):
            lo, hi = default_window(n, m)
            model = build_model(inst, m, lo, hi, warm_start=nearest_node(inst, m))
            result = solve_exact(model, time_limit=0.3)
            optimum = brute_force_oracle(inst, m, lo, hi).objective
            assert result.lower_bound <= optimum + 1e-9, (n, m, inst.name)
            assert optimum <= result.objective + 1e-9, (n, m, inst.name)
            if result.status is SolveStatus.OPTIMAL:
                assert result.objective == pytest.approx(optimum, abs=1e-9)
                assert result.lower_bound == result.objective


def _lock_cases():
    for n in (8, 9, 10):
        rng = rng_from_seed(60 + n)
        asym = rng.random((n, n)) * 50
        ties = rng.integers(1, 6, size=(n, n)).astype(np.float64)
        np.fill_diagonal(asym, np.inf)
        np.fill_diagonal(ties, np.inf)
        for inst in (
            generate_uniform_instance(GridSpec(n, 100, 40 + n)),
            Instance(f"asym{n}", asym),
            Instance(f"ties{n}", ties),
        ):
            for m in (2, 3):
                yield inst, m


def test_search_is_locked():
    # Locks the search itself: any change to the branching order, the bound's
    # value or the pruning moves a node count or a route, and this digest.
    digest = hashlib.sha256()
    for inst, m in _lock_cases():
        for warm in (None, nearest_node(inst, m)):
            result = solve_exact(
                build_model(inst, m, *default_window(inst.n, m), warm_start=warm)
            )
            record = (result.status.value, result.objective, result.nodes_explored,
                      result.best.routes)
            digest.update(repr(record).encode())
    assert digest.hexdigest() == (
        "48fced4cb85d335050332e0f2562cd1729c380677a3b9697eb30a14a76abfa07"
    )


def test_subset_dp_is_locked():
    # Locks the DP's choices on ties: a 6x6 grid gives many equal labels,
    # routes and covers, so a change to which predecessor, closing customer
    # or route a tie keeps moves a route, and this digest.
    digest = hashlib.sha256()
    for n in range(5, 12):
        for seed in range(3):
            inst = generate_uniform_instance(GridSpec(n, 6, seed))
            for m in range(1, min(4, n - 1) + 1):
                for window in (default_window(n, m), (1, n - m)):
                    result = brute_force_oracle(inst, m, *window)
                    record = (result.objective, result.best.routes, result.nodes_explored)
                    digest.update(repr(record).encode())
    assert digest.hexdigest() == (
        "08785ee2f18c44a28f69251693dca71b8b1e038419c749dc55b92fbeceba0956"
    )


def test_subset_dp_is_locked_on_asymmetric_instances():
    # The grid lock is symmetric, so it cannot tell d[i, j] from d[j, i].
    # Directed integer costs 0-4 give ties in every table and a different
    # optimum for a reversed route, so reading a transposed arc or keeping
    # another tie moves a route, and this digest.
    digest = hashlib.sha256()
    for n in range(5, 12):
        for seed in range(3):
            mat = rng_from_seed(1600 + 10 * n + seed).integers(0, 5, (n, n))
            mat = mat.astype(np.float64)
            np.fill_diagonal(mat, np.inf)
            inst = Instance(f"asym{n}-{seed}", mat)
            for m in range(1, min(4, n - 1) + 1):
                for window in (default_window(n, m), (1, n - m)):
                    result = brute_force_oracle(inst, m, *window)
                    record = (result.objective, result.best.routes, result.nodes_explored)
                    digest.update(repr(record).encode())
    assert digest.hexdigest() == (
        "19976dbd0ed719d71b0d2a6da0dba9631e14ac21e30b0eed99f954ed3b691bf9"
    )


def test_oracle_reference_and_guards(garn9):
    result = brute_force_oracle(garn9, 2, 4, 4)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(44.8, abs=0.05)
    with pytest.raises(ValueError, match=f"n <= {ORACLE_MAX_N}"):
        big = generate_uniform_instance(GridSpec(ORACLE_MAX_N + 1, 100, 0))
        brute_force_oracle(big, 2, *default_window(big.n, 2))
    with pytest.raises(InfeasibleModelError):
        brute_force_oracle(garn9, 4, 3, 3)


def test_oracle_time_limit_holds():
    inst = generate_uniform_instance(GridSpec(15, 100, 7))
    root = completion_bound(
        neighbour_table(inst.matrix), {}, ((),) * 7, (False,) * 7, (1 << 15) - 2, 1
    )
    started = time.perf_counter()
    result = brute_force_oracle(inst, 7, 1, 8, time_limit=0.2)
    elapsed = time.perf_counter() - started
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert result.backend == "subset_dp"
    warm = nearest_node(inst, 7)
    assert result.best == warm and result.objective == warm.total_distance
    assert result.lower_bound == root
    # the whole run takes ~1 s; the clock is read on every label step and on
    # every subset a split round works on, so the run stops within a few ms
    assert result.wall_time <= elapsed <= 0.2 + 0.1
    assert 0 < result.nodes_explored <= 81368  # labels built of the full run's
    for limit in (0, -0.5):
        with pytest.raises(ValueError, match="time_limit must be positive"):
            brute_force_oracle(inst, 7, 1, 8, time_limit=limit)


def test_oracle_stopped_at_its_first_label_step_reports_the_singletons():
    # a limit already past at the first (size, t) step: only the 11 singleton
    # labels are built, and the ending, past its limit too, keeps the
    # nearest-node plan over the root bound
    inst = generate_uniform_instance(GridSpec(12, 100, 1))
    m = 2
    result = brute_force_oracle(inst, m, *default_window(inst.n, m), time_limit=1e-9)
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert result.nodes_explored == 11
    assert result.lower_bound == exact._root_bound(inst.matrix, m)
    assert result.best == nearest_node(inst, m)


@pytest.mark.parametrize("stop", [(3, 4), (4, 10)])
def test_oracle_stopped_inside_a_label_layer_counts_its_finished_layers(monkeypatch, stop):
    # the clock passes the deadline at step t of layer s: the run reports the
    # labels of layers 1..s - 1, s labels per subset of size s
    s, t = stop
    inst = generate_uniform_instance(GridSpec(12, 100, 1))
    k = inst.n - 1
    reads = []

    def clock():  # the start read, then one read per (size, t) label step
        reads.append(len(reads))
        return 0.0 if len(reads) <= 1 + (s - 2) * k + t else 2.0

    monkeypatch.setattr(exact, "time", SimpleNamespace(perf_counter=clock))
    result = brute_force_oracle(inst, 2, 1, 10, time_limit=1.0)
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert result.nodes_explored == sum(j * math.comb(k, j) for j in range(s))


def test_oracle_single_hamiltonian_tour():
    mat = np.array(
        [
            [np.inf, 2.0, 4.0, 7.0],
            [2.0, np.inf, 3.0, 6.0],
            [4.0, 3.0, np.inf, 5.0],
            [7.0, 6.0, 5.0, np.inf],
        ]
    )
    from mtspkit import Instance

    inst = Instance("tiny", mat)
    result = brute_force_oracle(inst, 1, 3, 3)
    # all tours are orientations of the same cycle set; cheapest is 2+3+5+7
    assert result.objective == pytest.approx(17.0)


def test_oracle_equivalence_small_sample():
    for seed in range(10):
        inst = generate_uniform_instance(GridSpec(7, 100, 200 + seed))
        for m in (1, 2):
            lo, hi = _window(inst, m)
            exact = solve_exact(build_model(inst, m, lo, hi))
            oracle = brute_force_oracle(inst, m, lo, hi)
            assert exact.status is SolveStatus.OPTIMAL
            assert exact.objective == pytest.approx(oracle.objective, abs=1e-9)


def test_oracle_equivalence_on_asymmetric_instances():
    from mtspkit import Instance
    from mtspkit.instance import rng_from_seed

    for seed in range(6):
        rng = rng_from_seed(900 + seed)
        mat = rng.random((7, 7)) * 50
        np.fill_diagonal(mat, np.inf)
        inst = Instance(f"asym{seed}", mat)
        for m in (1, 2):
            lo, hi = _window(inst, m)
            exact = solve_exact(build_model(inst, m, lo, hi))
            oracle = brute_force_oracle(inst, m, lo, hi)
            assert exact.objective == pytest.approx(oracle.objective, abs=1e-9)


def _enumerate_completions(dist, seqs, ends, closed, unvisited, lo, hi):
    """Exhaustive minimum completion cost of a partial state (inf if none)."""
    open_routes = [k for k in range(len(seqs)) if not closed[k]]
    if not open_routes:
        return np.inf if unvisited else 0.0
    k = open_routes[0]
    best = np.inf
    if len(seqs[k]) >= lo:
        sub = _enumerate_completions(
            dist, seqs, ends[:k] + (0,) + ends[k + 1 :],
            closed[:k] + (True,) + closed[k + 1 :], unvisited, lo, hi,
        )
        best = min(best, dist[ends[k], 0] + sub)
    if len(seqs[k]) < hi:
        for v in sorted(unvisited):
            sub = _enumerate_completions(
                dist,
                seqs[:k] + (seqs[k] + (v,),) + seqs[k + 1 :],
                ends[:k] + (v,) + ends[k + 1 :],
                closed,
                unvisited - {v},
                lo,
                hi,
            )
            best = min(best, dist[ends[k], v] + sub)
    return best


def _reference_bound(dist, ends, counts, closed, unvisited, min_customers):
    """The completion bound as a direct scan of the matrix: the formula the
    neighbour-table bound must reproduce bit for bit."""
    uv = {v for v in range(len(dist)) if unvisited >> v & 1}
    bound = 0.0
    for v in sorted(uv):
        best = dist[v, 0]
        for w in uv:
            if w != v and dist[v, w] < best:
                best = dist[v, w]
        bound += best
    for k, end in enumerate(ends):
        if closed[k]:
            continue
        best = np.inf
        if counts[k] >= min_customers:
            best = dist[end, 0]
        for w in uv:
            if dist[end, w] < best:
                best = dist[end, w]
        if not np.isfinite(best):
            return np.inf  # open route below minimum with nothing left to visit
        bound += best
    return bound


@st.composite
def _bound_states(draw):
    n = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(("float", "ties", "asym")))
    if kind == "ties":
        mat = draw(arrays(np.int64, (n, n), elements=st.integers(0, 4))).astype(np.float64)
    else:
        mat = draw(arrays(np.float64, (n, n), elements=st.floats(0, 1000)))
    if kind != "asym":
        mat = np.minimum(mat, mat.T)
    np.fill_diagonal(mat, np.inf)
    m = draw(st.integers(1, 3))
    customers = draw(st.permutations(range(1, n)))
    visited = draw(st.integers(0, n - 1))
    seqs = [[] for _ in range(m)]
    for v in customers[:visited]:
        seqs[draw(st.integers(0, m - 1))].append(v)
    closed = tuple(draw(st.booleans()) and bool(s) for s in seqs)
    kmin = draw(st.integers(1, n - 1))
    seqs = tuple(tuple(s) for s in seqs)
    return mat, seqs, closed, sum(1 << v for v in customers[visited:]), kmin


@settings(max_examples=300, deadline=None)
@given(_bound_states())
def test_completion_bound_matches_reference(state):
    mat, seqs, closed, unvisited, kmin = state
    ends = tuple(0 if c or not s else s[-1] for s, c in zip(seqs, closed))
    counts = [len(s) for s in seqs]
    expected = _reference_bound(mat, ends, counts, closed, unvisited, kmin)
    got = completion_bound(neighbour_table(mat), {}, seqs, closed, unvisited, kmin)
    assert got == expected


@settings(max_examples=200, deadline=None)
@given(_bound_states())
def test_completion_bound_memo_keeps_the_bits(state):
    # a memo filled by other states of the same table (every mask one
    # customer away, and this mask with one open route at the depot) must
    # not change a single bit of the bound
    mat, seqs, closed, unvisited, kmin = state
    table = neighbour_table(mat)
    fresh = completion_bound(table, {}, seqs, closed, unvisited, kmin)
    memo = {}
    for v in range(1, len(mat)):
        completion_bound(table, memo, ((v,),), (False,), unvisited ^ 1 << v, 1)
    completion_bound(table, memo, ((),), (False,), unvisited, 1)
    got = completion_bound(table, memo, seqs, closed, unvisited, kmin)
    assert got.hex() == fresh.hex()


_SHORT = np.array([[np.inf, 1.0, 2.0], [1.0, np.inf, 3.0], [2.0, 3.0, np.inf]])


@settings(max_examples=300, deadline=None)
@given(_bound_states())
@example((_SHORT, ((1, 2),), (False,), 0, 3))  # a short route with nothing left: inf
def test_bound_from_prepared_ends_keeps_the_bits(state):
    # the search lists a popped node's route ends once, then overwrites the
    # active route's entry for each customer it appends and drops it for the
    # close: both must give completion_bound's float on the child, bit for bit
    mat, seqs, closed, unvisited, kmin = state
    rows, customers = table = neighbour_table(mat)
    want = completion_bound(table, {}, seqs, closed, unvisited, kmin)
    if not unvisited and any(len(s) < kmin for s, c in zip(seqs, closed) if not c):
        assert want == np.inf

    def prepared(parent_seqs, parent_closed):
        return [(rows[s[-1] if s else 0], len(s) >= kmin)
                for s, c in zip(parent_seqs, parent_closed) if not c]

    assert bound_from_ends(customers, {}, prepared(seqs, closed), unvisited).hex() == want.hex()
    for k, seq in enumerate(seqs):
        if not seq:
            continue
        slot = sum(not c for c in closed[:k])
        if closed[k]:  # its parent held it open; closing drops its entry
            ends = prepared(seqs, closed[:k] + (False,) + closed[k + 1:])
            del ends[slot]
        else:  # its parent ended one customer earlier
            ends = prepared(seqs[:k] + (seq[:-1],) + seqs[k + 1:], closed)
            ends[slot] = (rows[seq[-1]], len(seq) >= kmin)
        got = bound_from_ends(customers, {}, ends, unvisited)
        assert got.hex() == want.hex(), k


_SOLVE_ONE = """
import sys
from mtspkit import GridSpec, generate_uniform_instance
from mtspkit.exact import build_model, solve_exact
inst = generate_uniform_instance(GridSpec(10, 100, int(sys.argv[1])))
r = solve_exact(build_model(inst, 2, 4, 5))
print(repr((r.status.value, r.best, r.objective, r.lower_bound, r.nodes_explored)))
"""


def test_bound_memo_is_per_solve():
    # instance B right after instance A (same n, m and window) must match B
    # solved in a fresh interpreter: a memo that outlived its solve would
    # score B's unvisited masks with A's customer terms
    env = dict(os.environ, PYTHONPATH=str(Path(mtspkit.__file__).parents[1]))
    alone = subprocess.run(
        [sys.executable, "-c", _SOLVE_ONE, "72"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout
    solve_exact(build_model(generate_uniform_instance(GridSpec(10, 100, 71)), 2, 4, 5))
    b = generate_uniform_instance(GridSpec(10, 100, 72))
    r = solve_exact(build_model(b, 2, 4, 5))
    after = repr((r.status.value, r.best, r.objective, r.lower_bound, r.nodes_explored))
    assert after == alone.strip()


def test_neighbour_table_rows_are_sorted_pairs():
    mat = np.array([[np.inf, 2.0, 1.0], [2.0, np.inf, 2.0], [1.0, 0.5, np.inf]])
    rows, customers = neighbour_table(mat)
    assert rows == [
        [(1.0, 1 << 2), (2.0, 1 << 1)],
        [(2.0, 1 << 0), (2.0, 1 << 2)],
        [(0.5, 1 << 1), (1.0, 1 << 0)],
    ]
    assert customers == [(1 << 1, rows[1]), (1 << 2, rows[2])]


def test_completion_bound_is_admissible():
    for seed in range(8):
        inst = generate_uniform_instance(GridSpec(7, 100, 300 + seed))
        dist = inst.matrix
        lo, hi = 2, 4
        # a few hand-built partial states: nothing fixed, one customer fixed,
        # one customer on each route
        states = [
            (((), ()), (0, 0), (False, False), frozenset(range(1, 7))),
            (((1,), ()), (1, 0), (False, False), frozenset(range(2, 7))),
            (((1,), (2,)), (1, 2), (False, False), frozenset(range(3, 7))),
            (((1, 3), (2,)), (3, 2), (False, False), frozenset({4, 5, 6})),
        ]
        for seqs, ends, closed, unvisited in states:
            bound = completion_bound(neighbour_table(dist), {}, seqs, closed,
                                     sum(1 << v for v in unvisited), lo)
            truth = _enumerate_completions(dist, seqs, ends, closed, unvisited, lo, hi)
            assert bound <= truth + 1e-9


def test_monotone_incumbent_under_time_slices(garn9):
    # solving with generous and tiny limits never worsens the warm start
    warm = nearest_node(garn9, 2)
    model = build_model(garn9, 2, 2, 5, warm_start=warm)
    quick = solve_exact(model, time_limit=1e-3)
    assert quick.objective <= warm.total_distance + 1e-9
    assert quick.best is not None


def _soon():
    """A polish deadline no correct run at n <= 11 comes near (each takes
    milliseconds); one that cycles on a mispriced move fails at it."""
    return time.perf_counter() + 10.0


def test_polish_is_locked():
    # Locks the local search: a change to the moves priced, their costs, the
    # tie rule or the window checks moves a route, and this digest.
    digest = hashlib.sha256()
    for inst, m in _lock_cases():
        warm = nearest_node(inst, m)
        for window in (default_window(inst.n, m), (1, inst.n - m)):
            plan = exact._polish(inst, warm.routes, *window, _soon())
            digest.update(repr((plan.total_distance, plan.routes)).encode())
    assert digest.hexdigest() == (
        "e24eaa736e937b81fed29a30b66d615b94dbe7b8b96b4623dc4b557ca65a9ffe"
    )


def test_polish_returns_the_plan_it_priced():
    inst = mtspkit.load_bundled("bays29")
    polished = exact._polish(inst, nearest_node(inst, 4).routes, 4, 8, _soon())
    assert isinstance(polished, RoutePlan)
    assert polished == evaluate_plan(inst, polished.routes)


def _neighbours(routes, lo, hi):
    """Every plan one reversal, move or swap away, by plain list surgery."""
    seqs = [list(r[1:-1]) for r in routes]
    for a, seq in enumerate(seqs):
        for i, j in itertools.combinations(range(len(seq)), 2):
            yield seqs[:a] + [seq[:i] + seq[i:j + 1][::-1] + seq[j + 1:]] + seqs[a + 1:]
    for a, b in itertools.permutations(range(len(seqs)), 2):
        if len(seqs[a]) > lo and len(seqs[b]) < hi:
            for i in range(len(seqs[a])):
                for j in range(len(seqs[b]) + 1):
                    out = [list(s) for s in seqs]
                    out[b].insert(j, out[a].pop(i))
                    yield out
    for a, b in itertools.combinations(range(len(seqs)), 2):
        for i in range(len(seqs[a])):
            for j in range(len(seqs[b])):
                out = [list(s) for s in seqs]
                out[a][i], out[b][j] = out[b][j], out[a][i]
                yield out


@st.composite
def _polish_cases(draw):
    """A seeded instance, symmetric or directed, a window and a plan inside it."""
    n = draw(st.integers(4, 11))
    m = draw(st.integers(1, min(4, n - 1)))
    lo = draw(st.integers(1, (n - 1) // m))
    hi = draw(st.integers(max(lo, -(-(n - 1) // m)), n - 1))
    seed = draw(st.integers(0, 999))
    if draw(st.booleans()):
        inst = generate_uniform_instance(GridSpec(n, 100, seed))
    else:
        mat = rng_from_seed(seed).integers(0, 20, (n, n)).astype(np.float64)
        np.fill_diagonal(mat, np.inf)
        inst = Instance(f"asym{n}", mat)
    sizes = [lo] * m
    for _ in range(n - 1 - m * lo):  # hand the rest out to routes with room
        sizes[draw(st.sampled_from([k for k in range(m) if sizes[k] < hi]))] += 1
    customers = draw(st.permutations(range(2, n + 1)))
    cuts = np.cumsum([0, *sizes]).tolist()
    routes = [(1, *customers[a:b], 1) for a, b in zip(cuts, cuts[1:])]
    return inst, m, lo, hi, evaluate_plan(inst, routes)


@settings(max_examples=150, deadline=None)
@given(_polish_cases())
def test_polish_keeps_the_window_and_never_costs_more(case):
    inst, m, lo, hi, plan = case
    polished = exact._polish(inst, plan.routes, lo, hi, _soon())
    assert check_solution(build_model(inst, m, lo, hi), polished) == (True, [])
    assert polished.total_distance <= plan.total_distance
    # it stops at a local optimum: no neighbour, priced by evaluate_plan, is cheaper
    for seqs in _neighbours(polished.routes, lo, hi):
        other = evaluate_plan(inst, [(1, *s, 1) for s in seqs])
        assert other.total_distance >= polished.total_distance - 1e-9, seqs
    # one pass takes the best neighbour, at the cost evaluate_plan gives it
    first = exact._polish(inst, plan.routes, lo, hi, -np.inf)
    assert first == plan  # a deadline already past allows no pass
    best = min(evaluate_plan(inst, [(1, *s, 1) for s in seqs]).total_distance
               for seqs in _neighbours(plan.routes, lo, hi))
    tour = plan_tour(plan.routes).tolist()
    move = exact._best_move(inst.matrix, tour, lo, hi, np.inf)
    if move is None:
        assert best >= plan.total_distance - 1e-9 * max(1.0, plan.total_distance)
        return
    kind, p, q = move
    if kind == "reverse":
        tour[p:q + 1] = tour[p:q + 1][::-1]
    elif kind == "move":
        tour.insert(q + (q < p), tour.pop(p))
    else:
        tour[p], tour[q] = tour[q], tour[p]
    depots = [k for k, v in enumerate(tour) if v == 0]
    moved = evaluate_plan(inst, [[v + 1 for v in tour[a:b + 1]]
                                 for a, b in zip(depots, depots[1:])])
    assert moved.total_distance == pytest.approx(best, abs=1e-9)


def test_best_move_past_its_deadline_returns_none_without_pricing(monkeypatch, eil51):
    # the clock is read before the tour-order gather and before each row
    # block: a deadline already past stops at the first read, one that passes
    # after the gather at the second, and no block is priced in either case
    tour = plan_tour(nearest_node(eil51, 2).routes).tolist()
    assert exact._best_move(eil51.matrix, tour, 24, 25, np.inf) is not None
    reads = []

    def clock():  # one second per read
        reads.append(len(reads) + 1)
        return reads[-1]

    monkeypatch.setattr(exact, "time", SimpleNamespace(perf_counter=clock))
    assert exact._best_move(eil51.matrix, tour, 24, 25, 0.5) is None
    assert reads == [1]
    reads.clear()
    assert exact._best_move(eil51.matrix, tour, 24, 25, 1.5) is None
    assert reads == [1, 2]


def test_polish_prices_a_directed_reversal_by_its_reversed_arcs():
    # one route 1-2-3-4-5 whose forward arcs cost 10 and backward arcs 100;
    # turning customers 2..4 around trades two 10s for two 1s at its ends,
    # which looks like a gain of 18 if arcs are read as symmetric, but it
    # reads the inner arcs backwards, so it costs 162 more
    mat = np.full((5, 5), 50.0)
    for v in range(5):
        mat[v, (v + 1) % 5], mat[(v + 1) % 5, v] = 10.0, 100.0
    mat[0, 3] = mat[1, 4] = 1.0
    np.fill_diagonal(mat, np.inf)
    inst = Instance("directed", mat)
    route = [(1, 2, 3, 4, 5, 1)]
    turned = evaluate_plan(inst, [(1, 4, 3, 2, 5, 1)])
    assert mat[0, 3] + mat[1, 4] - mat[0, 1] - mat[3, 4] == -18.0
    assert turned.total_distance == 50.0 + 162.0
    assert exact._polish(inst, route, 4, 4, _soon()) == evaluate_plan(inst, route)
    assert solve_exact(build_model(inst, 1, 4, 4)).objective == 50.0


def test_a_polished_stopped_run_ends_within_its_overshoot():
    # n = 200: the q-route bound, ~5 ms a step, stops at half the limit; the
    # polish and then the iterated polish end at most one gather and row
    # block past the limit, as the README states; the 0.1 s margin also
    # covers a slow host, as it does above
    inst = generate_uniform_instance(GridSpec(200, 100, 1))
    warm = nearest_node(inst, 3)
    model = build_model(inst, 3, *default_window(inst.n, 3), warm_start=warm)
    started = time.perf_counter()
    result = solve_exact(model, time_limit=0.2)
    elapsed = time.perf_counter() - started
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert result.objective < warm.total_distance
    assert check_solution(model, result.best) == (True, [])
    assert result.wall_time <= elapsed <= 0.2 + 0.1


def test_finish_reports_a_polished_plan_at_its_bound_as_optimal(monkeypatch):
    inst = generate_uniform_instance(GridSpec(10, 100, 3))
    model = build_model(inst, 2, 4, 5)
    optimum = brute_force_oracle(inst, 2, 4, 5)
    warm = nearest_node(inst, 2)
    assert warm.total_distance > optimum.objective
    # the proof step would prove both plans below; with it left unfinished
    # and raising nothing, the limit is far, so the iterated polish ends once
    # it reaches the bound
    monkeypatch.setattr(exact, "_prove", lambda *args: (None, -np.inf))
    result = exact._finish(model, "branch_and_bound", warm.routes, optimum.objective,
                           7, time.perf_counter(), 60.0)
    assert result.status is SolveStatus.OPTIMAL
    assert check_solution(model, result.best) == (True, [])
    assert result.lower_bound == result.objective == optimum.objective
    # _finish takes each polish's plan as returned: the polish applies only
    # moves that gain, and the iterated polish returns its start unless a
    # round priced strictly lower, so neither prices above its start. On
    # bays29 and a 40-node grid, stopped early or ending on their own counts
    grid = generate_uniform_instance(GridSpec(40, 100, 1))
    for inst, m, window in [(mtspkit.load_bundled("bays29"), 4, (4, 8)),
                            (grid, 3, default_window(grid.n, 3))]:
        start = nearest_node(inst, m)
        for later in (0.005, np.inf):
            deadline = time.perf_counter() + later
            once = exact._polish(inst, start.routes, *window, deadline)
            assert once.total_distance <= start.total_distance
            again = exact._iterate(inst, once, *window, deadline, -np.inf)
            assert again.total_distance <= once.total_distance


def test_finish_at_its_bound_runs_neither_the_proof_nor_the_iterated_polish(monkeypatch):
    inst = generate_uniform_instance(GridSpec(10, 100, 3))
    model = build_model(inst, 2, 4, 5)
    optimum = brute_force_oracle(inst, 2, 4, 5)

    def refuse(*args):
        raise AssertionError("a plan at its bound is proven already")

    monkeypatch.setattr(exact, "_prove", refuse)
    monkeypatch.setattr(exact, "_iterate", refuse)
    result = exact._finish(model, "branch_and_bound", optimum.best.routes, optimum.objective,
                           7, time.perf_counter(), 60.0)
    assert result.status is SolveStatus.OPTIMAL
    assert result.best == optimum.best
    assert result.lower_bound == result.objective == optimum.objective


@pytest.mark.parametrize("enabled", [True, False])
def test_search_leaves_the_collector_as_it_found_it(garn9, enabled, monkeypatch):
    seen = []
    real_push = exact.heappush

    def push(heap, item):
        seen.append(gc.isenabled())
        real_push(heap, item)

    monkeypatch.setattr(exact, "heappush", push)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        result = solve_exact(build_model(garn9, 2, 2, 5))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert result.status is SolveStatus.OPTIMAL
    assert seen and not any(seen)  # no collection while the search runs


def test_a_search_that_raises_turns_the_collector_back_on(garn9, monkeypatch):
    pushed = []
    real_push = exact.heappush

    def push(heap, item):
        if len(pushed) == 50:
            raise RuntimeError("push failed mid-search")
        pushed.append(item)
        real_push(heap, item)

    monkeypatch.setattr(exact, "heappush", push)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="mid-search"):
        solve_exact(build_model(garn9, 2, 2, 5))
    assert gc.isenabled()


def test_iterated_polish_is_locked(monkeypatch):
    # Locks the iterated polish: a change to the kicks, the generator, the
    # acceptance rule or the stall rule moves the round count or a route, and
    # this digest. The deadline is far, so the stall rule ends the run (~1 s)
    inst = mtspkit.load_bundled("bays29")
    once = exact._polish(inst, nearest_node(inst, 4).routes, 4, 8, _soon())
    rounds = []
    real_polish = exact._polish

    def polish(*args):
        rounds.append(len(rounds))
        return real_polish(*args)

    monkeypatch.setattr(exact, "_polish", polish)
    best = exact._iterate(inst, once, 4, 8, time.perf_counter() + 60.0, -np.inf)
    assert once.total_distance == 2635.0
    assert best.total_distance == 2603.0  # the published optimum
    record = (len(rounds), best.total_distance, best.routes)
    assert hashlib.sha256(repr(record).encode()).hexdigest() == (
        "5392082280fc53266eca2e79395065b7f4dee4af8c558b7b26ca843462c9f106"
    )


@st.composite
def _iterate_cases(draw):
    """A polish case on its own matrix, or on a tie-heavy directed one (costs 0-3)."""
    inst, m, lo, hi, plan = draw(_polish_cases())
    if draw(st.booleans()):
        mat = rng_from_seed(draw(st.integers(0, 999))).integers(0, 4, (inst.n, inst.n))
        mat = mat.astype(np.float64)
        np.fill_diagonal(mat, np.inf)
        inst = Instance(f"ties{inst.n}", mat)
    return inst, m, lo, hi, evaluate_plan(inst, plan.routes)


@settings(max_examples=80, deadline=None)
@given(_iterate_cases(), st.integers(0, 2**32 - 1))
def test_iterated_polish_keeps_the_window_and_never_costs_more(case, seed):
    inst, m, lo, hi, plan = case
    model = build_model(inst, m, lo, hi)
    kicked = exact._kick(plan.routes, rng_from_seed(seed))
    if kicked is not None:  # a kick keeps every route's size and every customer
        assert [len(r) for r in kicked] == [len(r) for r in plan.routes]
        assert check_solution(model, evaluate_plan(inst, kicked)) == (True, [])
    once = exact._polish(inst, plan.routes, lo, hi, _soon())
    # a short deadline keeps the example fast; the stall rule ends most earlier
    best = exact._iterate(inst, once, lo, hi, time.perf_counter() + 0.02, -np.inf)
    assert check_solution(model, best) == (True, [])
    assert all(lo <= len(r) - 2 <= hi for r in best.routes)
    assert best.total_distance <= once.total_distance


def test_iterated_polish_without_a_kick_returns_at_once(monkeypatch):
    # one route of 7 customers: no second route to swap with and none long
    # enough for a double bridge, so there is no round to run
    inst = generate_uniform_instance(GridSpec(8, 100, 5))
    once = exact._polish(inst, nearest_node(inst, 1).routes, 7, 7, _soon())
    assert exact._kick(once.routes, rng_from_seed(0)) is None
    calls = []
    monkeypatch.setattr(exact, "_polish", lambda *args: calls.append(args))
    assert exact._iterate(inst, once, 7, 7, np.inf, -np.inf) == once
    assert not calls


def test_iterated_polish_stops_at_a_bound_its_plan_meets(monkeypatch):
    # a plan that reaches the run's bound is proven: no round can improve it
    inst = mtspkit.load_bundled("bays29")
    once = exact._polish(inst, nearest_node(inst, 4).routes, 4, 8, _soon())
    bound = once.total_distance
    calls = []
    monkeypatch.setattr(exact, "_polish", lambda *args: calls.append(args))
    assert exact._iterate(inst, once, 4, 8, np.inf, bound) == once
    assert not calls


def test_a_stopped_run_above_the_dp_cap_is_proven_at_its_bound():
    # n = 20, m = 5: no tree search runs above the cap, the q-route
    # bound (~0.2 s here) reaches the optimum, and the iterated polish stops
    # once its plan meets it, well before the limit; the limit leaves the
    # bound ~5x its time on a slow host
    inst = generate_uniform_instance(GridSpec(20, 100, 301))
    result = exact.solve(inst, 5, *default_window(inst.n, 5), time_limit=4.0)
    assert result.backend == "branch_and_bound"
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(702.339132091225, rel=1e-12)
    assert result.lower_bound == result.objective and result.gap == 0.0
    assert result.wall_time < 4.0


def test_gap_is_the_certified_relative_gap(garn9, monkeypatch):
    assert exact.solve(garn9, 2, 2, 5).gap == 0.0
    # a stopped run whose plan stays above its bound: the polishes keep it,
    # and the proof step, which would prove the optimum, is left unfinished
    # and raises nothing
    model = build_model(garn9, 2, 2, 5)
    warm = nearest_node(garn9, 2)
    monkeypatch.setattr(exact, "_prove", lambda *args: (None, -np.inf))
    monkeypatch.setattr(exact, "_polish",
                        lambda inst, routes, *args: evaluate_plan(inst, routes))
    monkeypatch.setattr(exact, "_iterate", lambda inst, start, *args: start)
    bound = warm.total_distance - 5.0  # 39.82, above the root bound's 36.26
    # started 31 s ago: the q-route bound's half of the 60 s limit has passed,
    # so it finishes no step and the bound handed in stands
    result = exact._finish(model, "branch_and_bound", warm.routes, bound, 7,
                           time.perf_counter() - 31.0, 60.0)
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert result.gap == (warm.total_distance - bound) / warm.total_distance
    assert bench.plan_record("garn9", 2, "exact", result.best, result)["gap"] == result.gap


def _locked_bound_cases():
    cases = [(inst, m, window) for inst, m in _lock_cases()
             for window in (default_window(inst.n, m), (1, inst.n - m))]
    return cases + [(mtspkit.load_bundled("bays29"), 4, (4, 8)),
                    (mtspkit.load_bundled("eil51"), 2, (24, 25))]


@functools.cache
def _locked_bounds():
    return [exact.qroute_bound(inst, m, *window, nearest_node(inst, m).total_distance, np.inf)[0]
            for inst, m, window in _locked_bound_cases()]


def test_qroute_bound_is_locked():
    # Locks the q-route bound: a change to the labels, the 2-cycle rule, the
    # knapsack, the read-back, the step rule, the stop rule, the step count
    # or the rounding margin moves a float, and this digest. No deadline, so
    # no run depends on the clock.
    digest = hashlib.sha256()
    for bound in _locked_bounds():
        digest.update(float.hex(bound).encode())
    assert digest.hexdigest() == (
        "4159eb5e590fad8b6231014234f879ccf7deff10215c14bd3903e304e71b5af5"
    )


# The locked cases' bounds when the run went on until a step no longer
# moved λ bit for bit, before it stopped once no later step could raise
# the bound by _EPS / 2: the same steps, so at most that much higher.
_BOUNDS_RUN_ON = [
    "0x1.3d2b8abcc2d54p+8",
    "0x1.01ab35dd7755bp+8",
    "0x1.6b64f2e1b74d5p+8",
    "0x1.225d3055ea0efp+8",
    "0x1.ea94144ef02b8p+6",
    "0x1.9e8edbe33e2fep+6",
    "0x1.5835b71ebb161p+7",
    "0x1.34e4d87f0a5adp+7",
    "0x1.d000000000000p+3",
    "0x1.bfffffffffffep+3",
    "0x1.1000000000000p+4",
    "0x1.0ffffffefa77cp+4",
    "0x1.84c4320daa6e4p+8",
    "0x1.2905243cf66e2p+8",
    "0x1.a5c79361971a0p+8",
    "0x1.4247bbeabe05bp+8",
    "0x1.e1333862c5c27p+6",
    "0x1.beade22fc3a75p+6",
    "0x1.29ca041493513p+7",
    "0x1.129e7953cd73dp+7",
    "0x1.d000000000000p+3",
    "0x1.8000000000000p+3",
    "0x1.2000000000000p+4",
    "0x1.e000000000000p+3",
    "0x1.7260e0745e7c6p+8",
    "0x1.3bc78d43a6951p+8",
    "0x1.b7c15c7924eabp+8",
    "0x1.60c6e0274ae00p+8",
    "0x1.36602853f3f01p+6",
    "0x1.36602853f3f00p+6",
    "0x1.98266f731d413p+6",
    "0x1.74b7513a75aa2p+6",
    "0x1.f000000000000p+3",
    "0x1.dffffffffffffp+3",
    "0x1.3000000000000p+4",
    "0x1.2000000000000p+4",
    "0x1.4129dee28ff1bp+11",
    "0x1.b062e84275dc2p+8",
]


def test_qroute_bound_stops_at_most_eps_half_below_running_on():
    for bound, ran_on in zip(_locked_bounds(), map(float.fromhex, _BOUNDS_RUN_ON), strict=True):
        assert ran_on - exact._EPS / 2 <= bound <= ran_on


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("widest", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_covers_is_the_cheapest_choice_of_route_sizes(m, widest, seed):
    # the knapsack against every choice of r route sizes, r = 0..m, on
    # integral closing costs (so every sum is exact) with some sizes that
    # no route closes at (inf)
    k = 2 * m + 3 + seed
    lo, hi = exact._route_sizes(k, m, *((1, k - m + 1) if widest else default_window(k + 1, m)))
    rng = rng_from_seed(seed)
    closing = np.full(hi + 1, np.inf)
    closing[lo:] = rng.integers(0, 50, hi + 1 - lo)
    closing[lo:][rng.random(hi + 1 - lo) < 0.3] = np.inf
    covers = exact._covers(closing[lo:], exact._cover_table(k, lo, hi), m)
    assert covers.shape == (m + 1, k + 1)
    for r in range(m + 1):
        cheapest = [np.inf] * (k + 1)
        for sizes in itertools.product(range(lo, hi + 1), repeat=r):
            if sum(sizes) <= k:
                cost = sum(closing[q] for q in sizes)
                cheapest[sum(sizes)] = min(cheapest[sum(sizes)], cost)
        assert covers[r].tolist() == cheapest


def test_qroute_bound_holds_two_square_arrays_and_its_layers():
    # n = 300, m = 3, three steps: the arcs into each customer and one
    # layer's scratch are the two k x k float arrays; the labels, their two
    # predecessor rows and the closing sums of each of the L layers are
    # O(k L). A third k x k array, or a k x k index table, passes the bound.
    inst = generate_uniform_instance(GridSpec(300, 100, 1))
    window = default_window(inst.n, 3)
    k = inst.n - 1
    _, hi = exact._route_sizes(k, 3, *window)
    real_labels, calls = exact._walk_labels, []

    def labels(*args):
        calls.append(1)
        return False if len(calls) > 3 else real_labels(*args)

    tracemalloc.start()
    try:
        with mock.patch.object(exact, "_walk_labels", labels):
            bound, _ = exact.qroute_bound(inst, 3, *window,
                                          nearest_node(inst, 3).total_distance, np.inf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(calls) == 4 and bound > 0.0
    assert peak < 2 * k * k * 8 + 4 * k * (hi + 1) * 8


@pytest.mark.parametrize("seed", [101, 102])
def test_qroute_bound_meets_the_optimum_where_the_gap_closes(seed):
    # two default-window cases whose dual closes: run until no later step
    # can raise it by _EPS / 2, the bound reaches the subset DP optimum
    # (300 steps left it 0.0009 and 0.0054 below)
    inst = generate_uniform_instance(GridSpec(12, 100, seed))
    window = default_window(inst.n, 3)
    bound, _ = exact.qroute_bound(inst, 3, *window, nearest_node(inst, 3).total_distance, np.inf)
    assert bound == pytest.approx(brute_force_oracle(inst, 3, *window).objective,
                                  rel=0, abs=exact._EPS)


def _seeded_instance(n, seed, kind):
    """A symmetric, directed or tie-heavy directed (costs 0-4) instance."""
    if kind == "sym":
        return generate_uniform_instance(GridSpec(n, 100, seed))
    rng = rng_from_seed(seed)
    mat = rng.random((n, n)) * 100 if kind == "directed" else rng.integers(0, 5, (n, n))
    mat = np.asarray(mat, dtype=np.float64)
    np.fill_diagonal(mat, np.inf)
    return Instance(f"{kind}{n}", mat)


_KINDS = st.sampled_from(["sym", "directed", "ties"])


@st.composite
def _bound_cases(draw):
    """A :func:`_seeded_instance` of n 4-12, a fleet size and its default
    or widest window."""
    n = draw(st.integers(4, 12))
    m = draw(st.integers(1, min(4, n - 1)))
    seed = draw(st.integers(0, 999))
    inst = _seeded_instance(n, seed, draw(_KINDS))
    window = draw(st.sampled_from([default_window(n, m), (1, n - m)]))
    return inst, m, window


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 16), st.integers(0, 999), _KINDS)
def test_the_nearest_node_plan_fits_every_admitted_window(n, seed, kind):
    # _finish's fallback plan, qroute_bound's Polyak target and solve's warm
    # start are all this plan: each needs it to pass every window build_model
    # admits, at every fleet size
    inst = _seeded_instance(n, seed, kind)
    for m in range(1, n):
        plan = nearest_node(inst, m)
        for lo, hi in itertools.combinations_with_replacement(range(1, n), 2):
            try:
                model = build_model(inst, m, lo, hi)
            except InfeasibleModelError:
                continue
            assert check_solution(model, plan) == (True, []), (m, lo, hi)


@settings(max_examples=120, deadline=None)
@given(_bound_cases())
def test_qroute_bound_is_admissible(case):
    inst, m, window = case
    bound, _ = exact.qroute_bound(inst, m, *window, nearest_node(inst, m).total_distance, np.inf)
    assert 0.0 <= bound <= brute_force_oracle(inst, m, *window).objective + 1e-9


def test_qroute_bound_returns_once_a_step_leaves_lambda_unchanged():
    # coordinates scaled by 1e6: λ grows to ~1e8, where a step shorter than
    # its last bits leaves it unchanged bit for bit, and the bound returns
    # there (unscaled, the stop rule always comes first at these sizes)
    coords = generate_uniform_instance(GridSpec(9, 100, 1)).coords * 1e6
    inst = Instance("u9g100s1-scaled", coords=coords)
    window = default_window(inst.n, 2)
    lines, first = inspect.getsourcelines(exact.qroute_bound)
    exit_line = first + 1 + next(i for i, line in enumerate(lines) if "moved == penalty" in line)
    assert lines[exit_line - first].strip() == "return best, best_penalty"
    code, exits = exact.qroute_bound.__code__, []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == exit_line:
            exits.append(exit_line)
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        bound, _ = exact.qroute_bound(inst, 2, *window,
                                      nearest_node(inst, 2).total_distance, np.inf)
    finally:
        sys.settrace(previous)
    assert exits == [exit_line]
    assert bound <= brute_force_oracle(inst, 2, *window).objective


@pytest.mark.parametrize("n", range(8, 15))
def test_qroute_bound_stays_below_the_optimum_on_scaled_coordinates(n):
    # coordinates scaled by 1e6, where the unlowered best value read 1-2
    # ulps above the subset DP's objective in 14 of these 70 cases: the
    # rounding margin keeps every bound at or below it, with no tolerance
    for seed in range(1, 6):
        coords = generate_uniform_instance(GridSpec(n, 100, seed)).coords * 1e6
        inst = Instance(f"u{n}g100s{seed}-scaled", coords=coords)
        for m in (2, 3):
            window = default_window(n, m)
            bound, _ = exact.qroute_bound(inst, m, *window,
                                          nearest_node(inst, m).total_distance, np.inf)
            assert bound <= brute_force_oracle(inst, m, *window).objective, (seed, m)


def test_qroute_bound_stops_within_a_layer_of_its_deadline(monkeypatch):
    # n = 300: one subgradient step takes ~100 label layers of ~0.3 ms, so
    # a 0.05 s deadline falls inside the first steps
    inst = generate_uniform_instance(GridSpec(300, 100, 1))
    window = default_window(inst.n, 3)
    reads = []

    def clock():
        reads.append(time.perf_counter())
        return reads[-1]

    monkeypatch.setattr(exact, "time", SimpleNamespace(perf_counter=clock))
    started = time.perf_counter()
    deadline = started + 0.05
    bound, _ = exact.qroute_bound(inst, 3, *window, nearest_node(inst, 3).total_distance, deadline)
    returned = time.perf_counter()
    # the first read past the deadline ends the run, with no layer after it
    assert reads[-2] <= deadline < reads[-1]
    assert returned - reads[-1] < 0.01
    # one layer is the longest stretch between two reads; the margin covers
    # a slow host, as the time-limit tests' does
    assert returned - deadline <= max(np.diff(reads)) + 0.01
    assert returned - started <= 0.05 + 0.1
    assert 0.0 <= bound <= nearest_node(inst, 3).total_distance


def test_a_time_limited_search_stops_at_its_open_node_cap(monkeypatch):
    # n = 13 (m = 3) under a far limit: the heap passes _OPEN_PER_S nodes per
    # second of the limit long before a quarter of it, so the search stops
    # on the count and hands _finish the same plan, bound and node count
    inst = generate_uniform_instance(GridSpec(13, 100, 5))
    model = build_model(inst, 3, *default_window(13, 3), warm_start=nearest_node(inst, 3))
    monkeypatch.setattr(exact, "_OPEN_PER_S", 100)
    monkeypatch.setattr(
        exact, "_finish",
        lambda model, backend, routes, bound, nodes, start_time, limit:
            (routes, bound, nodes, time.perf_counter() - start_time),
    )
    first, second = (solve_exact(model, time_limit=60.0) for _ in range(2))
    assert first[:3] == second[:3]
    assert first[1] is not None  # stopped, with the best bound it popped
    assert max(first[3], second[3]) < exact._SEARCH_SHARE * 60.0


@st.composite
def _proof_cases(draw):
    """A bound case, a plan at or above its optimum for the proof to start
    from, and how the proof's λ is found: by the converged bound, by a
    bound cut off after a few steps, or not at all (λ = 0)."""
    inst, m, window = draw(_bound_cases())
    start = draw(st.sampled_from(["optimum", "nearest", "polished"]))
    lam = draw(st.sampled_from(["converged", "cut", "zero"]))
    return inst, m, window, start, lam, draw(st.integers(1, 20))


@settings(max_examples=100, deadline=None)
@given(_proof_cases())
def test_the_proof_finds_the_optimum_from_any_plan_and_any_penalties(case):
    inst, m, window, start, lam, steps = case
    model = build_model(inst, m, *window)
    optimum = brute_force_oracle(inst, m, *window)
    plan = optimum.best
    if start != "optimum":  # the nearest-node plan fits every admitted window
        plan = nearest_node(inst, m)
        if start == "polished":
            plan = exact._polish(inst, plan.routes, *window, _soon())
    if lam == "zero":  # the proof's steps start from the root bound
        bound, penalty = exact._root_bound(inst.matrix, m), np.zeros(inst.n - 1)
    else:
        real_labels, calls = exact._walk_labels, []

        def labels(*args):  # a deadline that falls after `steps` steps, without a clock
            calls.append(1)
            return False if lam == "cut" and len(calls) > steps else real_labels(*args)

        with mock.patch.object(exact, "_walk_labels", labels):
            bound, penalty = exact.qroute_bound(inst, m, *window,
                                                nearest_node(inst, m).total_distance, np.inf)
    proven, raised = exact._prove(inst, m, *window, penalty, plan, bound, np.inf)
    assert raised <= optimum.objective
    assert check_solution(model, proven) == (True, [])
    assert proven.total_distance <= plan.total_distance
    assert proven.total_distance == pytest.approx(optimum.objective, rel=0, abs=1e-9)


def test_the_proof_is_locked(monkeypatch):
    # Locks the proof: a change to the steps, the threshold, the backward
    # labels, the dominance rule, the pool's orders or the partition's
    # search moves a pool size, a bound or a route, and this digest. Each
    # case starts from its polished nearest-node plan under the converged
    # λ and bound, and the second proof starts from the optimum the first
    # returns. No deadline.
    sizes = []  # every step's pool size, in order
    real_pools = exact._route_pools

    def pools(*args):
        covers, pool_at = real_pools(*args)

        def at(*args):
            held = pool_at(*args)
            sizes.append(len(held))
            return held

        return covers, at

    monkeypatch.setattr(exact, "_route_pools", pools)
    grid = generate_uniform_instance(GridSpec(20, 100, 301))
    digest = hashlib.sha256()
    for inst, m, window in [(mtspkit.load_bundled("bays29"), 4, (4, 8)),
                            (grid, 5, default_window(grid.n, 5))]:
        bound, penalty = exact.qroute_bound(inst, m, *window,
                                            nearest_node(inst, m).total_distance, np.inf)
        once = exact._polish(inst, nearest_node(inst, m).routes, *window, _soon())
        del sizes[:]
        found, raised = exact._prove(inst, m, *window, penalty, once, bound, np.inf)
        first = sizes[:]
        again, _ = exact._prove(inst, m, *window, penalty, found, bound, np.inf)
        assert again is found
        record = (once.total_distance, found.total_distance, found.routes, raised, sizes)
        digest.update(repr(record).encode())
        if inst.name == "bays29":
            assert (once.total_distance, found.total_distance) == (2635.0, 2603.0)
            # the pools of steps 1-12 from 2569.31 toward 2635: step 12, at
            # U = 2615.76, finds 2603, which the second proof's step 13 proves
            assert first == [14, 17, 20, 34, 41, 48, 60, 79, 140, 221, 431, 912]
    assert digest.hexdigest() == (
        "3cb18dd7f0020010432a7281edb75e5b4de3e0d9e40502bf41c4de93836a9145"
    )


def _stepped_case(n, seed, m, kind):
    """A default-window case at n, the subset DP's optimum, and the
    nearest-node plan, the converged q-route bound and its λ; ``asym``
    scales the grid's matrix by U[1, 1.5] per arc."""
    inst = generate_uniform_instance(GridSpec(n, 100, seed))
    if kind == "asym":
        inst = Instance(f"{inst.name}-asym",
                        inst.matrix * rng_from_seed(seed).uniform(1.0, 1.5, (n, n)))
    window = default_window(n, m)
    start = nearest_node(inst, m)
    bound, penalty = exact.qroute_bound(inst, m, *window, start.total_distance, np.inf)
    optimum = brute_force_oracle(inst, m, *window).objective
    return inst, window, optimum, start, bound, penalty


@pytest.mark.parametrize("n", [12, 14, 16])
def test_the_proofs_steps_agree_with_the_subset_dp(n, monkeypatch):
    # 18 cases at n (seeds 1-3, m 2-4, symmetric and directed), each from its
    # nearest-node plan: with no cap the proof returns the DP optimum, and
    # no bound it raises lies above it, also where a proof gives up on a
    # forced _POOL_CAP (16 of the 99 give-ups under the caps raise a bound)
    caps, raised_by_give_ups = (exact._POOL_CAP, 50, 200, 1000), 0
    for seed, m, kind in itertools.product([1, 2, 3], [2, 3, 4], ["sym", "asym"]):
        inst, window, optimum, start, bound, penalty = _stepped_case(n, seed, m, kind)
        assert bound < start.total_distance
        for cap in caps:
            monkeypatch.setattr(exact, "_POOL_CAP", cap)
            proven, raised = exact._prove(inst, m, *window, penalty, start, bound, np.inf)
            assert bound <= raised <= optimum
            if proven is not None:
                assert check_solution(build_model(inst, m, *window), proven) == (True, [])
                assert proven.total_distance == pytest.approx(optimum, rel=1e-12)
            else:
                assert cap < caps[0]  # only a forced cap stops a proof with no deadline
                raised_by_give_ups += raised > bound
    assert raised_by_give_ups == {12: 7, 14: 4, 16: 5}[n]


def test_finish_reports_the_bound_a_proof_raised_before_its_cap(monkeypatch):
    # bays29 (m=4) under a cap of 2,000 labels and successor-row entries: the
    # proof's first nine steps refute their upper bounds, from 2570.33 to
    # 2585.73, and the tenth passes the cap. The run reports the bound they
    # raised, not the q-route bound, and the iterated polish stops at it
    inst = mtspkit.load_bundled("bays29")
    model = build_model(inst, 4, 4, 8)
    proofs, iterated = [], []
    real_prove = exact._prove

    def prove(*args):
        proofs.append((args[-2], real_prove(*args)))
        return proofs[-1][1]

    def iterate(inst, start, lo, hi, deadline, bound):
        iterated.append(bound)
        return start

    monkeypatch.setattr(exact, "_POOL_CAP", 2000)
    monkeypatch.setattr(exact, "_prove", prove)
    monkeypatch.setattr(exact, "_iterate", iterate)
    result = exact._finish(model, "branch_and_bound", None, 0.0, 0, time.perf_counter(), 60.0)
    [(qroute, (proven, raised))] = proofs
    assert proven is None
    assert qroute == pytest.approx(2569.3085, abs=1e-4)
    assert raised == pytest.approx(2585.7311, abs=1e-4)
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert result.lower_bound == raised == iterated[0]
    assert result.objective == 2635.0


def test_a_proven_stopped_run_skips_the_iterated_polish(monkeypatch):
    # bays29 (m=4) from its nearest-node plan under a far limit: the bound
    # converges, the polish reaches 2635, and the proof, which runs until
    # three quarters of the limit, finds and proves the published 2603
    inst = mtspkit.load_bundled("bays29")
    model = build_model(inst, 4, 4, 8)
    deadlines = []
    real_prove = exact._prove

    def prove(*args):
        deadlines.append(args[-1])
        return real_prove(*args)

    def iterate(*args):
        raise AssertionError("a proven run polishes no further")

    monkeypatch.setattr(exact, "_prove", prove)
    monkeypatch.setattr(exact, "_iterate", iterate)
    started = time.perf_counter()
    result = exact._finish(model, "branch_and_bound", None, 0.0, 0, started, 60.0)
    assert deadlines == [started + exact._PROOF_SHARE * 60.0]
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == result.lower_bound == 2603.0
    assert check_solution(model, result.best) == (True, [])


def test_a_proof_past_its_deadline_or_cap_falls_back_to_the_iterated_polish(monkeypatch):
    inst = mtspkit.load_bundled("bays29")
    bound, penalty = exact.qroute_bound(inst, 4, 4, 8, nearest_node(inst, 4).total_distance,
                                        np.inf)
    once = exact._polish(inst, nearest_node(inst, 4).routes, 4, 8, _soon())
    assert exact._prove(inst, 4, 4, 8, penalty, once, bound, -np.inf) == (None, bound)
    # bays29's step that finds 2603 needs over 5,000 labels and successor-row
    # entries; under 1,000 only its first step finishes
    monkeypatch.setattr(exact, "_POOL_CAP", 1000)
    assert exact._prove(inst, 4, 4, 8, penalty, once, bound, np.inf)[0] is None
    iterated = []
    real_iterate = exact._iterate

    def iterate(*args):
        iterated.append(args[4])
        return real_iterate(*args)

    monkeypatch.setattr(exact, "_iterate", iterate)
    started = time.perf_counter()
    result = exact._finish(build_model(inst, 4, 4, 8), "branch_and_bound", once.routes, 0.0,
                           0, started, 1.0)
    assert iterated == [started + 1.0]
    assert result.objective <= once.total_distance
    assert result.lower_bound <= 2603.0 <= result.objective


def test_the_proof_gives_up_at_every_clock_read_and_cap(monkeypatch):
    # bays29 (m=4) at its polished 2635: the pool holds 2,461 routes and the
    # partition, rarest customer first, takes more than 2,048 branches, so a
    # stop at its first check, branch 1024, falls inside the search
    inst = mtspkit.load_bundled("bays29")
    _, penalty = exact.qroute_bound(inst, 4, 4, 8, nearest_node(inst, 4).total_distance, np.inf)
    once = exact._polish(inst, nearest_node(inst, 4).routes, 4, 8, _soon())
    assert once.total_distance == 2635.0
    budget = once.total_distance - exact.left_fold(penalty.tolist())
    slack = 1e-7 * once.total_distance
    covers, pool_at = exact._route_pools(inst, 4, 4, 8, penalty, np.inf)
    pool = pool_at(budget, slack)
    assert len(pool) == 2461
    # the partition at its deadline; it has no cap, so under a cap of 0 it
    # still returns the optimum's routes
    assert exact._partition(pool, covers, 28, 4, budget, slack, -np.inf) is None
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_POOL_CAP", 0)
        paths = exact._partition(pool, covers, 28, 4, budget, slack, np.inf)
    routes = [(1, *[v + 2 for v in path], 1) for path in paths]
    assert evaluate_plan(inst, routes).total_distance == 2603.0
    # the proof passes a partition's stop on, at its first step, with the
    # bound it was given
    with monkeypatch.context() as patch:
        patch.setattr(exact, "_partition", lambda *args: None)
        assert exact._prove(inst, 4, 4, 8, penalty, once, 2569.0, np.inf) == (None, 2569.0)
    # the pool past its deadline at each of its clock reads, on the spot.
    # _route_pools reads once per backward label layer; a pool that finishes
    # then reads 29 times: once per size while it tables the completions (8),
    # once per label layer (8), and once per block of candidates (8) and of
    # routes read back (5, one per size from 4 to 8)
    _, hi = exact._route_sizes(inst.n - 1, 4, 4, 8)
    reads, late = [], np.inf

    def clock():
        reads.append(len(reads) + 1)
        return 0.0 if len(reads) < late else 1.0

    monkeypatch.setattr(exact, "time", SimpleNamespace(perf_counter=clock))
    _, pool_at = exact._route_pools(inst, 4, 4, 8, penalty, 0.5)
    assert len(reads) == hi
    assert len(pool_at(budget, slack)) == 2461
    assert len(reads) == hi + 29
    for late in range(hi + 1, hi + 30):
        del reads[:]
        _, pool_at = exact._route_pools(inst, 4, 4, 8, penalty, 0.5)
        assert len(reads) == hi
        assert pool_at(budget, slack) is None
        assert len(reads) == late


def test_the_proof_stops_near_its_deadline():
    # eil51 (m=2) from its nearest-node plan without penalties: far too wide
    # a gap to enumerate, so the deadline ends the proof; the pool reads the
    # clock once per label layer and per block of about 32,000 candidates, a
    # few ms apart
    inst = mtspkit.load_bundled("eil51")
    plan = nearest_node(inst, 2)
    bound = exact._root_bound(inst.matrix, 2)
    started = time.perf_counter()
    assert exact._prove(inst, 2, 24, 25, np.zeros(50), plan, bound, started + 0.05)[0] is None
    # the margin of the time-limit tests above, for a slow host
    assert time.perf_counter() - started <= 0.05 + 0.1


def _brute_force_pool(inst, m, window, penalty, budget, slack, covers):
    """Every elementary route of the window's sizes, by permutation: per
    customer set the cheapest order's reduced cost, a left fold of its
    reduced arcs as a pool's labels sum them, kept when it is at most T(q),
    read as ``_route_pools`` reads it."""
    d, k = inst.matrix, inst.n - 1
    lo, hi = exact._route_sizes(k, m, *window)
    first, back = (d[0, 1:] - penalty).tolist(), d[1:, 0].tolist()
    reduced = (d[1:, 1:] - penalty).tolist()
    cheapest = {}
    for q in range(lo, hi + 1):
        for order in itertools.permutations(range(k), q):
            cost = first[order[0]]
            for u, v in zip(order, order[1:]):
                cost += reduced[u][v]
            mask = sum(1 << v for v in order)
            rc = cost + back[order[-1]]
            if rc < cheapest.get(mask, np.inf):
                cheapest[mask] = rc
    return {mask: rc for mask, rc in cheapest.items()
            if rc <= budget - covers[m - 1][k - mask.bit_count()] + slack}


@pytest.mark.parametrize("n,m,wide,kind", [
    (7, 2, False, "sym"), (7, 3, True, "asym"), (8, 2, True, "sym"), (8, 3, False, "asym"),
    (9, 2, False, "sym"), (9, 2, True, "asym"), (9, 3, False, "sym"), (9, 4, True, "asym"),
])
def test_the_pool_holds_every_route_a_brute_force_admits(n, m, wide, kind):
    # Random penalties, and a budget that admits about half the customer
    # sets: the pool holds exactly the sets whose cheapest order fits under
    # T(q), each once, at that order's reduced cost bit for bit, in an order
    # that sums to it. Both symmetric and directed matrices.
    rng = rng_from_seed(n * 100 + m)
    inst = generate_uniform_instance(GridSpec(n, 100, n + m))
    if kind == "asym":
        inst = Instance(f"{inst.name}-asym", inst.matrix * rng.uniform(1.0, 1.5, (n, n)))
    window = (1, n - m) if wide else default_window(n, m)
    penalty = rng.uniform(-20.0, 40.0, n - 1)
    covers, pool_at = exact._route_pools(inst, m, *window, penalty, np.inf)
    everything = _brute_force_pool(inst, m, window, penalty, np.inf, 0.0, covers)
    needs = sorted(rc + covers[m - 1][n - 1 - mask.bit_count()] for mask, rc in everything.items())
    budget = needs[len(needs) // 2]
    slack = 1e-7 * budget
    expected = _brute_force_pool(inst, m, window, penalty, budget, slack, covers)
    assert 0 < len(expected) < len(everything)
    listed = pool_at(budget, slack)
    pool = {sum(1 << v for v in order): (rc, order) for rc, order in listed}
    assert len(pool) == len(listed)  # no customer set repeats
    assert {mask: rc for mask, (rc, _) in pool.items()} == expected
    first, back = inst.matrix[0, 1:] - penalty, inst.matrix[1:, 0]
    for mask, (rc, order) in pool.items():
        assert len(set(order)) == len(order)
        cost = float(first[order[0]])
        for u, v in zip(order, order[1:]):
            cost += float(inst.matrix[u + 1, v + 1] - penalty[v])
        assert cost + float(back[order[-1]]) == rc


def test_the_layered_pool_keeps_its_clock_and_memory(monkeypatch):
    # Zero penalties and the nearest-node plan's total as the budget: pools
    # far too large to enumerate. The clock stands still while the backward
    # labels are built, then each pool gets 0.05 s, or no limit, and gives
    # up, at its deadline or at its count, within the margin of the
    # time-limit tests above. Its tracemalloc peak, with the backward labels
    # and the successor rows, stays under the bound the _route_pools
    # docstring states: 8 (2 ceil(k/64) + 20) _POOL_CAP bytes, plus its
    # completion table, one block's arrays and the pool it returns (about
    # 10 MB together here). The grid's sets take 7 words.
    # At 725 customers the k² successor-row entries alone pass the cap, so
    # no pool starts and no clock is read. At 724 the backward labels start
    # and give up at their first clock read, past a deadline already gone
    eil51 = mtspkit.load_bundled("eil51")
    grid = generate_uniform_instance(GridSpec(400, 100, 1))
    started, reads = [], []

    def clock():
        reads.append(len(reads))
        return time.perf_counter() - started[0] if started else 0.0

    monkeypatch.setattr(exact, "time", SimpleNamespace(perf_counter=clock))
    for n, read in [(726, []), (725, [0])]:
        edge = generate_uniform_instance(GridSpec(n, 100, 1))
        assert exact._route_pools(edge, 4, *default_window(n, 4), np.zeros(n - 1), -1.0) is None
        assert reads == read
    for inst, m, limit in [(eil51, 2, 0.05), (eil51, 2, np.inf), (grid, 40, 0.05)]:
        k, window = inst.n - 1, default_window(inst.n, m)
        budget = nearest_node(inst, m).total_distance
        del started[:]
        tracemalloc.start()
        try:
            _, pool_at = exact._route_pools(inst, m, *window, np.zeros(k), limit)
            started.append(time.perf_counter())
            assert pool_at(budget, 1e-7 * budget) is None
            elapsed = clock()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed <= limit + 0.1
        hi = exact._route_sizes(k, m, *window)[1]
        assert peak <= 8 * (2 * -(-k // 64) + 20) * exact._POOL_CAP + 8 * hi * k + 10e6
