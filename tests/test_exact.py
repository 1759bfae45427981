import hashlib
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mtspkit import (
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
from mtspkit.bench import default_window
from mtspkit.exact import completion_bound, neighbour_order
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
    cut = solve_exact(build_model(garn9, 2, 2, 5, heuristic_cuts=True))
    assert cut.status is SolveStatus.OPTIMAL
    assert cut.objective == pytest.approx(plain.objective, rel=1e-9)


def _subset_dp_optimum(dist, m, lo, hi):
    """Optimum by dynamic programming over customer subsets: cheapest
    depot-to-customer paths per (subset, last customer), closed into routes
    of lo..hi customers, then split into m routes. Independent of both the
    search and the brute-force enumeration, and fast enough for n = 10."""
    d = dist.tolist()
    k = len(d) - 1
    full = 1 << k
    path = [[math.inf] * k for _ in range(full)]  # bit j of the subset = customer j + 1
    for j in range(k):
        path[1 << j][j] = d[0][j + 1]
    for mask in range(1, full):
        for j, cost in enumerate(path[mask]):
            if cost == math.inf:
                continue
            for t in range(k):
                if not mask >> t & 1:
                    ext = path[mask | 1 << t]
                    ext[t] = min(ext[t], cost + d[j + 1][t + 1])
    route = [math.inf] * full
    for mask in range(1, full):
        if lo <= bin(mask).count("1") <= hi:
            route[mask] = min(path[mask][j] + d[j + 1][0] for j in range(k) if mask >> j & 1)
    cover = route
    for _ in range(m - 1):
        nxt = [math.inf] * full
        for mask in range(1, full):
            low = mask & -mask
            sub = mask
            while sub:
                if sub & low:  # the route holding the lowest customer, once per split
                    nxt[mask] = min(nxt[mask], route[sub] + cover[mask ^ sub])
                sub = (sub - 1) & mask
        cover = nxt
    return cover[full - 1]


def test_subset_dp_oracle_matches_brute_force():
    for seed in range(4):
        sym = generate_uniform_instance(GridSpec(8, 100, 700 + seed))
        mat = rng_from_seed(800 + seed).random((8, 8)) * 50
        np.fill_diagonal(mat, np.inf)
        for inst in (sym, Instance(f"asym{seed}", mat)):
            for m in (1, 2, 3):
                lo, hi = _window(inst, m, widen=1)
                oracle = brute_force_oracle(inst, m, lo, hi)
                dp = _subset_dp_optimum(inst.matrix, m, lo, hi)
                assert dp == pytest.approx(oracle.objective, abs=1e-9)


def test_nearest_node_start_matches_the_oracle():
    # heuristic_cuts starts from the nearest-node plan; on 7 of these 40 runs
    # a cap on every route at that plan's longest route would cut off the
    # optimum (worst: seed 4, n=10, m=3, 438.96 -> 485.45)
    for seed in range(1, 11):
        for n in (9, 10):
            inst = generate_uniform_instance(GridSpec(n, 100, seed))
            for m in (2, 3):
                lo, hi = default_window(n, m)
                result = solve_exact(build_model(inst, m, lo, hi, heuristic_cuts=True))
                assert result.status is SolveStatus.OPTIMAL
                assert result.objective == pytest.approx(
                    _subset_dp_optimum(inst.matrix, m, lo, hi), abs=1e-9
                ), (seed, n, m)


def test_solver_is_deterministic(garn9):
    a = solve_exact(build_model(garn9, 2, 2, 5))
    b = solve_exact(build_model(garn9, 2, 2, 5))
    assert a.best == b.best
    assert a.nodes_explored == b.nodes_explored


def test_time_limit_validation(garn9):
    with pytest.raises(ValueError):
        solve_exact(build_model(garn9, 2, 2, 5), time_limit=0)


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
        "154a0854a48a71d7f661a96231de0a3e879f01e0c5dbf5a4685462ebdbcee67c"
    )


def test_oracle_reference_and_guards(garn9):
    result = brute_force_oracle(garn9, 2, 4, 4)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(44.8, abs=0.05)
    with pytest.raises(ValueError, match="n <= 11"):
        big = generate_uniform_instance(GridSpec(12, 100, 0))
        brute_force_oracle(big, 2, 5, 6)
    with pytest.raises(InfeasibleModelError):
        brute_force_oracle(garn9, 4, 3, 3)


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
    uv = unvisited
    bound = 0.0
    for v in uv:
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
    ends = tuple(0 if c or not s else s[-1] for s, c in zip(seqs, closed))
    counts = [len(s) for s in seqs]
    kmin = draw(st.integers(1, n - 1))
    return mat, ends, counts, closed, frozenset(customers[visited:]), kmin


@settings(max_examples=300, deadline=None)
@given(_bound_states())
def test_completion_bound_matches_reference(state):
    mat, ends, counts, closed, unvisited, kmin = state
    expected = _reference_bound(mat, ends, counts, closed, unvisited, kmin)
    got = completion_bound(neighbour_order(mat), ends, counts, closed, unvisited, kmin)
    assert got == expected


def test_neighbour_order_rows_are_sorted_pairs():
    mat = np.array([[np.inf, 2.0, 1.0], [2.0, np.inf, 2.0], [1.0, 0.5, np.inf]])
    assert neighbour_order(mat) == [
        [(1.0, 2), (2.0, 1)],
        [(2.0, 0), (2.0, 2)],
        [(0.5, 1), (1.0, 0)],
    ]


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
                neighbour_order(dist), ends, [len(s) for s in seqs], closed, unvisited, lo
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
