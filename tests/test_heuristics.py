import numpy as np
import pytest

from mtspkit import (
    GridSpec,
    Instance,
    balance_plan,
    brute_force_oracle,
    closest_vehicle,
    generate_uniform_instance,
    nearest_node,
)
from mtspkit import heuristics, kernels


def test_balance_even_split():
    quotas = balance_plan(9, 2)
    assert quotas.dtype == np.int64
    assert quotas.tolist() == [4, 4]


def test_balance_single_salesman():
    assert balance_plan(9, 1).tolist() == [8]


def test_balance_uneven_split():
    assert 1 * 5 + 2 * 4 == 13
    assert balance_plan(14, 3).tolist() == [5, 4, 4]
    assert balance_plan(np.int64(14), np.uint8(3)).tolist() == [5, 4, 4]


def test_balance_covers_all_customers_exactly():
    for n in range(3, 201):
        for m in range(1, n):
            q = balance_plan(n, m)
            assert len(q) == m
            assert q.sum() == n - 1
            assert q.max() - q.min() in (0, 1)
            assert np.all(np.diff(q) <= 0)  # larger quotas first
            assert q[0] == -((n - 1) // -m) and q[-1] == (n - 1) // m


def test_balance_errors():
    with pytest.raises(ValueError):
        balance_plan(9, 9)
    with pytest.raises(ValueError):
        balance_plan(9, 0)
    for n, m, name in ((9.0, 2, "n"), (9, 2.0, "m"), (9, 2.5, "m"), ("9", 2, "n")):
        with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
            balance_plan(n, m)


def test_nearest_node_reference_routes(garn9):
    plan = nearest_node(garn9, 2)
    assert plan.routes[0] == (1, 6, 7, 8, 9, 1)
    assert plan.total_distance == pytest.approx(44.8, abs=0.05)


def test_closest_vehicle_reference_total(garn9):
    plan = closest_vehicle(garn9, 2)
    assert plan.total_distance == pytest.approx(44.8, abs=0.05)


def test_eil51_reference_values(eil51):
    assert nearest_node(eil51, 2).total_distance == pytest.approx(533.91, abs=0.05)
    assert closest_vehicle(eil51, 2).total_distance == pytest.approx(619.78, abs=0.05)


def test_single_salesman_equivalence(garn9):
    instances = [garn9] + [
        generate_uniform_instance(GridSpec(25, 100, seed)) for seed in range(3)
    ]
    for inst in instances:
        assert nearest_node(inst, 1) == closest_vehicle(inst, 1)


def test_star_tie_breaks_are_canonical():
    # depot equidistant from four customers, all customer pairs equal:
    # every balanced 2-route plan costs the same, so only tie-breaking
    # decides which one comes back
    mat = np.full((5, 5), 2.0)
    mat[0, :] = mat[:, 0] = 1.0
    np.fill_diagonal(mat, np.inf)
    star = Instance("star", mat)
    near = nearest_node(star, 2)
    close = closest_vehicle(star, 2)
    assert near.total_distance == close.total_distance == pytest.approx(8.0)
    assert near.routes == ((1, 2, 3, 1), (1, 4, 5, 1))
    assert close.routes == ((1, 2, 4, 1), (1, 3, 5, 1))


def _asymmetric_instance(n, seed):
    rng = np.random.default_rng(seed)
    mat = rng.integers(1, 50, size=(n, n)).astype(np.float64)
    np.fill_diagonal(mat, np.inf)
    return Instance(f"asym{n}", mat)


def test_quota_counts_and_coverage():
    instances = [
        generate_uniform_instance(GridSpec(23, 100, 11)),
        # a 3 x 3 grid for 23 nodes: many coincident nodes, many tied scans
        *(generate_uniform_instance(GridSpec(23, 3, s)) for s in range(3)),
        _asymmetric_instance(23, 5),
    ]
    for inst in instances:
        for m in (1, 2, 3, 5, 7, inst.n - 1):  # m = n - 1: every quota is 1
            quotas = balance_plan(inst.n, m)
            assert np.all(np.diff(quotas) <= 0)  # larger quotas first
            for plan in (nearest_node(inst, m), closest_vehicle(inst, m)):
                assert list(plan.customer_counts()) == quotas.tolist()
                visited = sorted(v for r in plan.routes for v in r[1:-1])
                assert visited == list(range(2, inst.n + 1))
                assert plan.total_distance == pytest.approx(
                    sum(plan.per_route_distance), rel=1e-9
                )


def test_runs_are_deterministic():
    inst = generate_uniform_instance(GridSpec(60, 100, 3))
    assert nearest_node(inst, 3) == nearest_node(inst, 3)
    assert closest_vehicle(inst, 3) == closest_vehicle(inst, 3)


def test_asymmetric_matrix_uses_row_of_current_node():
    # cheap forward chain 0->1->2->3 whose reverse arcs are prohibitive;
    # reading the transpose would pick a different tour
    mat = np.array(
        [
            [np.inf, 1.0, 50.0, 50.0],
            [90.0, np.inf, 1.0, 50.0],
            [90.0, 90.0, np.inf, 1.0],
            [1.0, 90.0, 90.0, np.inf],
        ]
    )
    inst = Instance("chain", mat)
    plan = nearest_node(inst, 1)
    assert plan.routes == ((1, 2, 3, 4, 1),)
    assert plan.total_distance == pytest.approx(4.0)
    assert closest_vehicle(inst, 1).routes == ((1, 2, 3, 4, 1),)


def test_scan_work_stays_quadratic():
    inst = generate_uniform_instance(GridSpec(500, 100, 1))
    n = inst.n
    quotas = balance_plan(n, 7)
    for kernel, cap in ((kernels.nearest_order, n * n), (kernels.closest_order, 2 * 7 * n * n)):
        routes, scans = kernel(inst.matrix, quotas)
        assert [len(r) for r in routes] == quotas.tolist()
        assert scans <= cap


def test_heuristics_never_beat_the_oracle():
    for seed in range(6):
        inst = generate_uniform_instance(GridSpec(8, 100, seed + 100))
        for m in (1, 2):
            q = balance_plan(inst.n, m)
            best = brute_force_oracle(inst, m, q.min(), q.max())
            assert nearest_node(inst, m).total_distance >= best.objective - 1e-9
            assert closest_vehicle(inst, m).total_distance >= best.objective - 1e-9


@pytest.mark.parametrize("algorithm", sorted(heuristics.ALGORITHMS))
def test_routes_hold_plain_ints(monkeypatch, garn9, algorithm):
    # plain ints already at assembly, not only after evaluate_plan converts
    assembled = []
    evaluate = heuristics.evaluate_plan

    def capture(instance, routes):
        assembled.append(routes)
        return evaluate(instance, routes)

    monkeypatch.setattr(heuristics, "evaluate_plan", capture)
    inst = generate_uniform_instance(GridSpec(40, 100, 5))
    for instance in (garn9, inst):
        for m in (1, 2, 3):
            plan = heuristics.ALGORITHMS[algorithm](instance, m)
            for routes in (assembled[-1], plan.routes):
                assert all(type(v) is int for route in routes for v in route)
