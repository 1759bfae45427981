"""Node-balancing arithmetic and the two greedy construction heuristics.

Both heuristics visit exactly ``quotas[k]`` customers on route k, where
``quotas = balance_plan(n, m)`` splits the n - 1 customers as evenly as
possible: the first ``(n-1) mod m`` salesmen take ``ceil((n-1)/m)``
customers, the rest take ``floor((n-1)/m)``. Ties in every argmin scan
break to the smallest index, which makes runs deterministic. Asymmetric
matrices are respected: the distance from the current position to a
candidate always reads the current position's row.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .instance import Instance, RoutePlan, _integer, evaluate_plan


class InfeasibleModelError(ValueError):
    """No plan fits the fleet: more routes than customers, or a window with
    m*K > n-1 or m*L < n-1."""


def balance_plan(n: int, m: int) -> np.ndarray:
    """Split n - 1 customers over m salesmen: the int64 vector of the m
    quotas, which differ by at most one, larger ones first. ``n`` and ``m``
    are read through ``operator.index``, so numpy integers pass and floats
    do not."""
    n, m = _integer(n, "n"), _integer(m, "m")
    if m < 1:
        raise ValueError("need at least one salesman")
    if m > n - 1:
        raise InfeasibleModelError(f"{m} salesmen but only {n - 1} customers")
    lower, larger = divmod(n - 1, m)
    quotas = np.full(m, lower, np.int64)
    quotas[:larger] += 1
    return quotas


def _plan(instance: Instance, kernel, m: int) -> RoutePlan:
    """Evaluate the routes ``kernel`` builds on the balanced quotas, each
    closed at the depot at both ends."""
    routes, _ = kernel(instance.matrix, balance_plan(instance.n, m))
    return evaluate_plan(instance, [[1, *r, 1] for r in routes])


def nearest_node(instance: Instance, m: int) -> RoutePlan:
    """Build routes one salesman at a time, always hopping to the nearest
    unvisited node, closing each route at the depot once its quota is met."""
    return _plan(instance, kernels.nearest_order, m)


def closest_vehicle(instance: Instance, m: int) -> RoutePlan:
    """Grow all routes at once: each step assigns the globally cheapest
    (vehicle, unvisited node) pair, skipping vehicles already at quota."""
    return _plan(instance, kernels.closest_order, m)


ALGORITHMS = {
    "nearest": nearest_node,
    "closest": closest_vehicle,
}
