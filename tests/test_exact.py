import hashlib
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mtspkit
from mtspkit import (
    ExactModel,
    GridSpec,
    InfeasibleModelError,
    Instance,
    RoutePlan,
    SolveStatus,
    balance_plan,
    brute_force_oracle,
    build_model,
    check_solution,
    evaluate_plan,
    generate_uniform_instance,
    nearest_node,
    solve_exact,
)
from mtspkit import bench, exact
from mtspkit.bench import default_window
from mtspkit.exact import ORACLE_MAX_N, completion_bound, neighbour_table
from mtspkit.instance import PlanError, rng_from_seed


def _window(inst, m, widen=0):
    bp = balance_plan(inst.n, m)
    lo, hi = bp.quota_lower, bp.quota_upper
    if lo == hi:
        lo = max(1, lo - 1)
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
    # above the cap: the branch-and-bound, from the same warm start and window
    models = []

    def spy(model, time_limit=None):
        models.append((model, time_limit))
        return solve_exact(model, time_limit)

    monkeypatch.setattr(exact, "solve_exact", spy)
    window = default_window(large.n, 3)
    result = exact.solve(large, 3, *window, 0.3)
    warm = nearest_node(large, 3)
    assert models == [(build_model(large, 3, *window, warm_start=warm), 0.3)]
    assert result.backend == "branch_and_bound"
    assert result.status.value in ("optimal", "feasible_time_limit")
    assert result.lower_bound <= result.objective <= warm.total_distance


@pytest.mark.parametrize("limit", [0.0, -1.0, float("nan")])
def test_exact_backends_reject_a_non_positive_time_limit(garn9, limit):
    model = build_model(garn9, 2, 2, 5)
    with pytest.raises(ValueError, match="time_limit must be positive"):
        solve_exact(model, time_limit=limit)
    with pytest.raises(ValueError, match="time_limit must be positive"):
        brute_force_oracle(garn9, 2, 2, 5, time_limit=limit)


def test_exact_backends_take_an_infinite_time_limit(garn9):
    proved = brute_force_oracle(garn9, 2, 2, 5)
    for result in (solve_exact(build_model(garn9, 2, 2, 5), time_limit=float("inf")),
                   brute_force_oracle(garn9, 2, 2, 5, time_limit=float("inf"))):
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(proved.objective, abs=1e-9)


def test_time_limit_holds_on_elapsed_time(eil51):
    model = build_model(eil51, 2, 24, 25)
    started = time.perf_counter()
    result = solve_exact(model, time_limit=0.2)
    elapsed = time.perf_counter() - started
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    # the 0.1 s margin covers one node expansion plus freeing the open nodes;
    # it is wall-clock time, so a heavily loaded host can use it up
    assert result.wall_time <= 0.2 + 0.1
    assert elapsed <= 0.2 + 0.1


def test_time_limit_before_a_first_plan_returns_the_nearest_node_plan():
    # without a warm start, a 1 ms search at n = 30 stops long before it
    # completes a plan; it returns the subset DP's fallback plan instead
    inst = generate_uniform_instance(GridSpec(30, 100, 3))
    model = build_model(inst, 3, *default_window(inst.n, 3))
    result = solve_exact(model, time_limit=0.001)
    assert result.status is SolveStatus.FEASIBLE_TIME_LIMIT
    assert result.best == nearest_node(inst, 3)
    assert result.objective == result.best.total_distance
    assert check_solution(model, result.best)[0]
    assert result.lower_bound <= result.objective


def _every_ending():
    """One case per way an exact run ends: (label, model, run, backend)."""
    garn9 = mtspkit.load_bundled("garn9")
    small = build_model(garn9, 2, 2, 5)
    wide = build_model(generate_uniform_instance(GridSpec(15, 100, 7)), 7, 1, 8)  # ~1 s
    late = build_model(generate_uniform_instance(GridSpec(30, 100, 3)), 3, 9, 10)
    eil51 = mtspkit.load_bundled("eil51")
    warm = build_model(eil51, 2, 24, 25, warm_start=nearest_node(eil51, 2))
    return [
        ("dp proven", small, lambda: brute_force_oracle(garn9, 2, 2, 5), "subset_dp"),
        ("dp stopped", wide,
         lambda: brute_force_oracle(wide.instance, 7, 1, 8, time_limit=0.01), "subset_dp"),
        ("b&b proven", small, lambda: solve_exact(small), "branch_and_bound"),
        ("b&b stopped, warm start", warm,
         lambda: solve_exact(warm, time_limit=0.05), "branch_and_bound"),
        ("b&b stopped, no plan yet", late,
         lambda: solve_exact(late, time_limit=0.001), "branch_and_bound"),
    ]


def test_every_exact_ending_keeps_the_result_invariants():
    statuses = []
    for label, model, run, backend in _every_ending():
        result = run()
        assert check_solution(model, result.best) == (True, []), label
        assert result.objective == result.best.total_distance, label
        assert result.lower_bound <= result.objective, label
        assert (result.status is SolveStatus.OPTIMAL) == (
            result.lower_bound == result.objective
        ), label
        assert result.backend == backend, label
        statuses.append(result.status)
    optimal, stopped = SolveStatus.OPTIMAL, SolveStatus.FEASIBLE_TIME_LIMIT
    assert statuses == [optimal, stopped, optimal, stopped, stopped]


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


_SOLVE_ONE = """
import sys
from mtspkit import GridSpec, build_model, generate_uniform_instance, solve_exact
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
            bound = completion_bound(
                neighbour_table(dist), {}, seqs, closed, sum(1 << v for v in unvisited), lo
            )
            truth = _enumerate_completions(dist, seqs, ends, closed, unvisited, lo, hi)
            assert bound <= truth + 1e-9


def test_monotone_incumbent_under_time_slices(garn9):
    # solving with generous and tiny limits never worsens the warm start
    warm = nearest_node(garn9, 2)
    model = build_model(garn9, 2, 2, 5, warm_start=warm)
    quick = solve_exact(model, time_limit=1e-3)
    assert quick.objective <= warm.total_distance + 1e-9
    assert quick.best is not None
