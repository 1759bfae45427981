"""Node-balancing arithmetic and the two greedy construction heuristics.

Both heuristics visit exactly ``quota(k)`` customers on route k, where the
quotas split the n - 1 customers as evenly as possible: the first
``larger_count`` salesmen take ``ceil((n-1)/m)`` customers, the rest take
``floor((n-1)/m)``. Ties in every argmin scan break to the smallest index,
which makes runs deterministic. Asymmetric matrices are respected: the
distance from the current position to a candidate always reads the current
position's row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .instance import Instance, RoutePlan, evaluate_plan


class InfeasibleModelError(ValueError):
    """No plan fits the fleet: more routes than customers, or a window with
    m*K > n-1 or m*L < n-1."""


@dataclass(frozen=True)
class BalancePlan:
    """Customer quotas for m salesmen over n - 1 customers."""

    m: int
    larger_count: int
    quota_upper: int
    quota_lower: int

    def quota(self, k: int) -> int:
        """Quota of salesman k (1-based): the first ``larger_count`` get the bigger share."""
        if not 1 <= k <= self.m:
            raise ValueError(f"salesman index {k} outside 1..{self.m}")
        return self.quota_upper if k <= self.larger_count else self.quota_lower

    def quotas(self) -> np.ndarray:
        return np.array(
            [self.quota_upper] * self.larger_count
            + [self.quota_lower] * (self.m - self.larger_count),
            dtype=np.int64,
        )


def balance_plan(n: int, m: int) -> BalancePlan:
    """Split n - 1 customers over m salesmen, quotas differing by at most one."""
    if m < 1:
        raise ValueError("need at least one salesman")
    if m > n - 1:
        raise InfeasibleModelError(f"{m} salesmen but only {n - 1} customers")
    lower = (n - 1) // m
    upper = -((n - 1) // -m)
    larger = (n - 1) - m * lower
    return BalancePlan(m, larger, upper, lower)


def nearest_node(instance: Instance, m: int) -> RoutePlan:
    """Build routes one salesman at a time, always hopping to the nearest
    unvisited node, closing each route at the depot once its quota is met."""
    quotas = balance_plan(instance.n, m).quotas()
    order, _ = kernels.nearest_order(instance.matrix, quotas)
    nodes = (order + 1).tolist()
    routes = []
    start = 0
    for quota in quotas.tolist():
        routes.append([1, *nodes[start : start + quota], 1])
        start += quota
    return evaluate_plan(instance, routes)


def closest_vehicle(instance: Instance, m: int) -> RoutePlan:
    """Grow all routes at once: each step assigns the globally cheapest
    (vehicle, unvisited node) pair, skipping vehicles already at quota."""
    quotas = balance_plan(instance.n, m).quotas()
    order, vehicle, _ = kernels.closest_order(instance.matrix, quotas)
    routes = [[1] for _ in range(m)]
    for t, k in zip(order, vehicle):
        routes[k].append(t + 1)
    for r in routes:
        r.append(1)
    return evaluate_plan(instance, routes)


ALGORITHMS = {
    "nearest": nearest_node,
    "closest": closest_vehicle,
}
