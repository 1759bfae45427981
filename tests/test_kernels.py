import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mtspkit import kernels


def _nearest_loops(dist, quotas):
    """Reference nearest node: hop to the nearest unvisited node, one scan per step.

    Ties break to the smallest node index. Returns ``(order, scans)``.
    """
    n = dist.shape[0]
    order = np.empty(n - 1, np.int64)
    taken = np.zeros(n, np.bool_)
    scans = 0
    pos = 0
    for k in range(quotas.shape[0]):
        here = 0
        for _ in range(quotas[k]):
            best = -1
            best_d = np.inf
            for t in range(1, n):
                if taken[t]:
                    continue
                scans += 1
                d = dist[here, t]
                if d < best_d:
                    best_d = d
                    best = t
            if best < 0 or not np.isfinite(best_d):
                raise ValueError("argmin scan found no selectable node")
            taken[best] = True
            order[pos] = best
            pos += 1
            here = best
    return order, scans


def _closest_loops(dist, quotas):
    """Reference closest vehicle: globally cheapest (vehicle, node) next.

    Vehicles at quota drop out of the scan. Ties break to the smallest
    vehicle index, then the smallest node index. Returns
    ``(order, vehicle, scans)``.
    """
    n = dist.shape[0]
    m = quotas.shape[0]
    order = np.empty(n - 1, np.int64)
    vehicle = np.empty(n - 1, np.int64)
    at = np.zeros(m, np.int64)
    filled = np.zeros(m, np.int64)
    taken = np.zeros(n, np.bool_)
    scans = 0
    for step in range(n - 1):
        best_d = np.inf
        best_k = -1
        best_t = -1
        for k in range(m):
            if filled[k] >= quotas[k]:
                continue
            here = at[k]
            for t in range(1, n):
                if taken[t]:
                    continue
                scans += 1
                d = dist[here, t]
                if d < best_d:
                    best_d = d
                    best_k = k
                    best_t = t
        if best_t < 0 or not np.isfinite(best_d):
            raise ValueError("argmin scan found no selectable node")
        taken[best_t] = True
        order[step] = best_t
        vehicle[step] = best_k
        at[best_k] = best_t
        filled[best_k] += 1
    return order, vehicle, scans


def _random_matrix(rng, n, symmetric):
    mat = rng.random((n, n)) * 100
    if symmetric:
        mat = (mat + mat.T) / 2
    np.fill_diagonal(mat, np.inf)
    return mat


def _quotas(n, m):
    lower = (n - 1) // m
    extra = (n - 1) - m * lower
    return np.array([lower + 1] * extra + [lower] * (m - extra), np.int64)


def _outcome(build, mat, quotas):
    """``build``'s return value, or None when it finds no selectable node."""
    try:
        return build(mat, quotas)
    except ValueError as exc:
        assert "no selectable node" in str(exc)
        return None


def _nearest_routes(quotas, order, scans):
    """The nearest-node oracle's order cut into labelled routes by the quotas."""
    ends = np.cumsum(quotas)
    return [(seg + 1).tolist() for seg in np.split(order, ends[:-1])], scans


def _closest_routes(quotas, order, vehicle, scans):
    """The closest-vehicle oracle's steps grouped into labelled routes by vehicle."""
    routes = [[] for _ in range(quotas.shape[0])]
    for t, k in zip(order.tolist(), vehicle.tolist()):
        routes[k].append(t + 1)
    return routes, scans


def _assert_kernels_match_oracle(mat, quotas):
    """Each kernel returns what its loop oracle returns once the oracle's
    output is grouped into labelled routes, ``scans`` included, or both
    raise "no selectable node"."""
    for kernel, oracle, group in (
        (kernels.nearest_order, _nearest_loops, _nearest_routes),
        (kernels.closest_order, _closest_loops, _closest_routes),
    ):
        got = _outcome(kernel, mat, quotas)
        want = _outcome(oracle, mat, quotas)
        assert (got is None) == (want is None)
        if want is not None:
            routes, scans = got
            assert all(type(v) is int for r in routes for v in r)
            assert (routes, scans) == group(quotas, *want)


@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("n,m", [(10, 1), (17, 3), (40, 5), (60, 7)])
def test_paths_agree(symmetric, n, m):
    rng = np.random.default_rng(n * 10 + m)
    _assert_kernels_match_oracle(_random_matrix(rng, n, symmetric), _quotas(n, m))


@st.composite
def _tie_heavy_cases(draw):
    n = draw(st.integers(3, 40))
    m = draw(st.integers(1, n - 1))
    mat = draw(arrays(np.int64, (n, n), elements=st.integers(0, 4))).astype(np.float64)
    if draw(st.booleans()):
        mat = np.minimum(mat, mat.T)
    if draw(st.booleans()):
        # +inf off the diagonal is allowed; a walk that meets only inf stops
        holes = draw(arrays(np.int64, (n, n), elements=st.integers(0, 7))) == 0
        mat[holes] = np.inf
    np.fill_diagonal(mat, np.inf)
    return mat, _quotas(n, m)


@settings(max_examples=150, deadline=None)
@given(_tie_heavy_cases())
def test_kernels_match_loop_oracle_on_ties(case):
    _assert_kernels_match_oracle(*case)


def test_all_sentinel_rows_error():
    mat = np.full((4, 4), np.inf)
    quotas = _quotas(4, 1)
    with pytest.raises(ValueError, match="no selectable node"):
        kernels.nearest_order(mat, quotas)
    with pytest.raises(ValueError, match="no selectable node"):
        kernels.closest_order(mat, quotas)


def test_a_dead_end_customer_stops_the_walk_midway():
    # customer 1 is the depot's nearest node and reaches no other customer
    mat = np.array([
        [np.inf, 1.0, 2.0, 3.0, 4.0],
        [1.0, np.inf, np.inf, np.inf, np.inf],
        [2.0, 1.0, np.inf, 1.0, 1.0],
        [3.0, 1.0, 1.0, np.inf, 1.0],
        [4.0, 1.0, 1.0, 1.0, np.inf],
    ])
    quotas = _quotas(5, 1)
    for build in (kernels.nearest_order, _nearest_loops):
        with pytest.raises(ValueError, match="no selectable node"):
            build(mat, quotas)


def test_dead_end_customers_stop_every_vehicle_midway():
    # vehicle 0 takes customer 1, vehicle 1 then takes customer 2; neither
    # customer reaches another one, so the third step finds nothing
    mat = np.array([
        [np.inf, 1.0, 2.0, np.inf, np.inf],
        [1.0, np.inf, np.inf, np.inf, np.inf],
        [2.0, np.inf, np.inf, np.inf, np.inf],
        [3.0, 1.0, 1.0, np.inf, 1.0],
        [4.0, 1.0, 1.0, 1.0, np.inf],
    ])
    quotas = _quotas(5, 2)
    for build in (kernels.closest_order, _closest_loops):
        with pytest.raises(ValueError, match="no selectable node"):
            build(mat, quotas)
