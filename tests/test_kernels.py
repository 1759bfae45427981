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


def _assert_kernels_match_oracle(mat, quotas):
    order, scans = kernels.nearest_order(mat, quotas)
    ref_order, ref_scans = _nearest_loops(mat, quotas)
    assert np.array_equal(order, ref_order)
    assert scans == ref_scans
    order, vehicle, scans = kernels.closest_order(mat, quotas)
    ref_order, ref_vehicle, ref_scans = _closest_loops(mat, quotas)
    assert np.array_equal(order, ref_order)
    assert np.array_equal(vehicle, ref_vehicle)
    assert scans == ref_scans


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
