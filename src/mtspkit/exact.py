"""Exact solving: constraint model, subset DP, branch-and-bound.

:func:`solve` is the one choice of backend: the subset DP
(``brute_force_oracle``) up to its cap ``ORACLE_MAX_N``, the
branch-and-bound (``solve_exact``) from the nearest-node plan above it.
Both return an ``ExactResult`` that names its ``backend``.

The model is the node-balanced MTZ program of Kara & Bektas (2006) with
the route-size window [K, L] = [``min_customers``, ``max_customers``]:
degree rows (m routes leave and re-enter the depot, every customer is
entered and left exactly once), upper and lower window rows, MTZ order
rows and, for K >= 2, the two-node row x[1, i] + x[i, 1] <= 1.
``check_solution`` is its one statement: it evaluates those rows, each
family as one whole-array expression, on a plan's induced x/u variables.

The branch-and-bound is a combinatorial best-first search over partial
route extensions rather than an LP relaxation; the linear model is the
correctness semantics, not the search machinery. A search state is
``(cost, seqs, closed, unvisited)``, with the unvisited customers as one
int bitmask (bit v is 0-based node v); a route's end and size are read off
its sequence. Each solve builds one neighbour table (``neighbour_table``):
for every node, its ``(cost, 1 << w)`` pairs to all other nodes in
ascending ``(cost, w)`` order, as Python floats. Branching walks the active
route end's row, and ``completion_bound`` reads the same rows and
memoises, per solve, the sum of its customer terms for each unvisited
mask, so the search does no set or numpy-scalar work per node.

``brute_force_oracle`` is dynamic programming over customer subsets,
limited to n <= 16, on numpy arrays indexed by subset mask: one label
layer per subset size, then split rounds over the closable routes that
hold a subset's lowest customer. The arrays hold costs only; the plan is
read back by re-deriving each choice with the same ``argmin``. It is also
the ground truth the branch-and-bound is checked against.

Every exact run, on either backend, ends in ``_finish``, which states the
result's invariants once. ``best`` is always a plan that passes
``check_solution``: the run's routes priced by ``evaluate_plan``, or the
nearest-node plan when a run stopped by its time limit holds none.
``objective == best.total_distance``. A proven run is ``optimal`` with
``lower_bound == objective``; a stopped one is ``feasible_time_limit``
with the bound its search reached, which never exceeds the objective.
``wall_time`` is read once, after pricing. A window that cannot cover
the customers raises ``InfeasibleModelError`` before any search, so an
exact run is always ``optimal`` or ``feasible_time_limit``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum
from heapq import heappush, heappop

import numpy as np

from .heuristics import InfeasibleModelError, nearest_node
from .instance import Instance, RoutePlan, evaluate_plan, left_fold

_EPS = 1e-9


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    FEASIBLE_TIME_LIMIT = "feasible_time_limit"


@dataclass(frozen=True)
class ExactModel:
    instance: Instance
    m: int
    min_customers: int
    max_customers: int
    warm_start: RoutePlan | None = None


@dataclass(frozen=True)
class ExactResult:
    """One exact run. ``backend`` names the algorithm that ran:
    ``"subset_dp"`` (``nodes_explored`` counts path labels) or
    ``"branch_and_bound"`` (it counts search nodes).

    ``best`` is always a feasible plan and ``objective`` its total. An
    ``OPTIMAL`` run is proven, with ``lower_bound == objective``; a
    ``FEASIBLE_TIME_LIMIT`` run stopped at its limit, with ``lower_bound
    <= objective``."""

    status: SolveStatus
    best: RoutePlan
    objective: float
    lower_bound: float
    nodes_explored: int
    wall_time: float
    backend: str


def build_model(
    instance: Instance,
    m: int,
    min_customers: int,
    max_customers: int,
    warm_start: RoutePlan | None = None,
) -> ExactModel:
    """Assemble and validate the constraint system.

    ``warm_start`` becomes the search's first incumbent: it prunes every node
    whose bound reaches its total but never a cheaper plan.
    """
    n = instance.n
    if m < 1:
        raise ValueError("need at least one salesman")
    if min_customers < 1:
        raise ValueError("min_customers must be at least 1")
    if min_customers > max_customers:
        raise ValueError("min_customers exceeds max_customers")
    if m * min_customers > n - 1 or m * max_customers < n - 1:
        raise InfeasibleModelError(
            f"window [{min_customers}, {max_customers}] with {m} routes cannot "
            f"cover {n - 1} customers"
        )
    return ExactModel(instance, m, min_customers, max_customers, warm_start)


def solve(
    instance: Instance, m: int, min_customers: int, max_customers: int,
    time_limit: float | None = None,
) -> ExactResult:
    """The exact run on the window [``min_customers``, ``max_customers``].

    Up to ``ORACLE_MAX_N`` nodes it is the subset DP
    (:func:`brute_force_oracle`); above that, the branch-and-bound
    (:func:`solve_exact`) with the nearest-node plan as its warm start.
    ``result.backend`` names the one that ran. Either returns a plan even
    when its time limit passes first.
    """
    window = (min_customers, max_customers)
    if instance.n <= ORACLE_MAX_N:
        return brute_force_oracle(instance, m, *window, time_limit=time_limit)
    model = build_model(instance, m, *window, warm_start=nearest_node(instance, m))
    return solve_exact(model, time_limit)


def check_solution(model: ExactModel, plan: RoutePlan):
    """Return ``(ok, violations)`` for a plan against the model's literal rows.

    Structural defects (bad depot usage, repeated or missing nodes) raise
    ``PlanError``. The plan then induces the model's variables: ``x[i, j]``
    is 1 for each hop and ``u[i]`` is customer i's 1-based position in its
    route. Each row family (degree, upper and lower window, MTZ order,
    two-node for K >= 2) is one whole-array expression over them; a failing
    family yields one message per route it fails on, naming the route and
    its size. On a structurally valid plan the rows hold exactly when there
    are m routes of K..L customers.
    """
    plan = evaluate_plan(model.instance, plan.routes)  # structural rejection
    n, upper, lower = model.instance.n, model.max_customers, model.min_customers
    tour = np.concatenate([r[:-1] for r in plan.routes] + [(1,)]) - 1  # 0-based
    x = np.zeros((n, n), dtype=np.int64)
    x[tour[:-1], tour[1:]] = 1
    route = np.cumsum(tour == 0)  # 1-based route index along the tour
    depots = np.flatnonzero(tour == 0)
    u = np.zeros(n, dtype=np.int64)
    u[tour] = np.arange(tour.size) - depots[route - 1]
    route_of = np.zeros(n, dtype=np.int64)
    route_of[tour] = route
    sizes = np.diff(depots) - 1

    # per customer i: x[1, i] (first on its route), x[i, 1] (last), u[i], x[i, :]
    first, last, uc, xc = x[0, 1:], x[1:, 0], u[1:], x[1:, 1:]
    violations = []
    if first.sum() != model.m or last.sum() != model.m:
        violations.append(f"plan has {plan.m} routes, model requires {model.m}")
    # an MTZ row with i == j reads 0 <= upper - 1, so the full square is safe
    order = uc[:, None] - uc + upper * xc + (upper - 2) * xc.T > upper - 1
    families = (  # per customer: does a row of the family fail at it?
        ("not entered and left exactly once",  # holds on every structural plan
         (x[:, 1:].sum(0) != 1) | (x[1:].sum(1) != 1)),
        (f"above maximum {upper}",
         (uc + (upper - 2) * first - last > upper - 1) | order.any(1)),
        (f"below minimum {lower}", uc + first + (2 - lower) * last < 2),
        ("a forbidden two-node tour", (first + last > 1) & (lower >= 2)),
    )
    for words, fails in families:  # np.unique would import numpy.ma (~20 ms)
        for r in np.flatnonzero(np.bincount(route_of[1:][fails])).tolist():
            violations.append(f"route {r} visits {sizes[r - 1]} customers, {words}")
    return not violations, violations


# ---------------------------------------------------------------------------
# branch and bound

def neighbour_table(matrix):
    """The one per-solve table branching and bound read: ``(rows, customers)``.

    ``rows[v]`` lists ``(cost, 1 << w)`` for every node ``w != v``, sorted by
    ``(cost, w)``; costs are Python floats read from ``matrix.tolist()`` and
    the depot's bit is 1. ``customers`` lists ``(1 << v, rows[v])`` for every
    customer ``v`` in ascending order.
    """
    rows = [
        sorted((cost, 1 << w) for w, cost in enumerate(row) if w != v)
        for v, row in enumerate(matrix.tolist())
    ]
    return rows, [(1 << v, rows[v]) for v in range(1, len(rows))]


def completion_bound(table, memo, seqs, closed, unvisited, min_customers):
    """Admissible completion cost for a partial state (0-based nodes).

    Every unvisited customer still needs one outgoing arc (to another
    unvisited customer or the depot); every open route end needs one
    continuation (a customer, or the depot once the route reached the
    minimum). Summing each term's cheapest option never overestimates.

    ``table`` is ``neighbour_table``'s and ``unvisited`` a bitmask over its
    bits; an open route ends at ``seq[-1]``, or the depot while empty. Each
    term is the first entry of the node's row whose bit is allowed, which is
    that term's exact minimum; a customer's scan ends at the depot entry at
    the latest. The customer terms are added in ascending customer index and
    their sum is kept in ``memo`` under the mask, then the open routes'
    terms are added in route order. The bound is therefore a function of the
    state alone; ``memo`` must belong to ``table`` (one per solve).
    """
    rows, customers = table
    bound = memo.get(unvisited)
    if bound is None:
        bound = 0.0
        allowed = unvisited | 1  # the depot always ends a customer's scan
        for vbit, row in customers:
            if unvisited & vbit:
                for cost, bit in row:
                    if allowed & bit:
                        bound += cost
                        break
        memo[unvisited] = bound
    for seq, done in zip(seqs, closed):
        if done:
            continue
        allowed = unvisited | (len(seq) >= min_customers)  # depot once closable
        for cost, bit in rows[seq[-1] if seq else 0]:
            if allowed & bit:
                bound += cost
                break
        else:
            return np.inf  # open route below minimum with nothing left to visit
    return bound


def solve_exact(model: ExactModel, time_limit: float | None = None) -> ExactResult:
    """Best-first branch and bound over partial route extensions.

    A search state is ``(cost, seqs, closed, unvisited)``: the fixed arcs'
    cost, m partially built customer sequences, their closed flags and the
    unvisited customers as an int bitmask. A route ends at its last
    customer (the depot while empty) and its size is its length. The route
    with the fewest customers (lowest index on ties) is active; branching
    appends one unvisited customer (candidates in ascending arc cost, read
    off the end node's ``neighbour_table`` row) or closes the route once it
    reached the minimum size. Routes are interchangeable, so first customers
    are forced into ascending order across routes, which prunes
    label-permuted duplicates only. The table and the memo of the bound's
    customer terms are built once per solve; each child is bounded by
    ``completion_bound`` on them as it is made, summed in a fixed order, so
    node counts do not depend on set iteration order. Single-threaded and
    deterministic.

    The clock starts before the table is built and is read on every popped
    node, so a time-limited search stops at most one node expansion past
    ``time_limit``. ``wall_time`` also includes freeing the open nodes,
    which takes time in proportion to their number; a capped search holds
    as many as it could open within the limit, so the cheaper a node, the
    longer the freeing. A search that runs out of time before it holds a
    plan (no warm start) returns the nearest-node plan, as the subset DP
    does, above the best bound it reached. A search that runs to the end
    always holds a plan: ``build_model`` admits only windows that cover
    the customers, and every arc is finite.
    """
    if time_limit is not None and not time_limit > 0:  # NaN too
        raise ValueError("time_limit must be positive")
    n = model.instance.n
    m = model.m
    kmin, kmax = model.min_customers, model.max_customers

    incumbent_cost = np.inf
    incumbent_routes = None  # 1-based, as evaluate_plan takes them
    if model.warm_start is not None:
        ok, violations = check_solution(model, model.warm_start)
        if not ok:
            raise ValueError(f"warm start violates the model: {violations[0]}")
        incumbent_cost = model.warm_start.total_distance
        incumbent_routes = model.warm_start.routes

    start_time = time.perf_counter()
    table = neighbour_table(model.instance.matrix)
    rows = table[0]
    memo = {}  # unvisited mask -> summed customer terms of the bound
    to_depot = model.instance.matrix[:, 0].tolist()
    # cost of fixed arcs, customer sequences (0-based), closed flags, and the
    # unvisited customers: bits 1..n-1
    root = (0.0, ((),) * m, (False,) * m, (1 << n) - 2)
    counter = itertools.count()
    heap = [(0.0, next(counter), root)]
    explored = 0
    best_bound_seen = 0.0
    timed_out = False

    while heap:
        bound, _, state = heappop(heap)
        if bound >= incumbent_cost - _EPS:
            best_bound_seen = incumbent_cost
            break
        best_bound_seen = max(best_bound_seen, bound)
        explored += 1
        if time_limit is not None and time.perf_counter() - start_time > time_limit:
            timed_out = True
            break

        cost, seqs, closed, unvisited = state
        left = unvisited.bit_count()
        # size-window feasibility, and the active route: the open one with
        # the fewest customers, lowest index on ties. An all-closed state
        # still has customers (a finished plan is never pushed), so it fails.
        room = short = 0
        active = -1
        for k in range(m):
            if not closed[k]:
                count = len(seqs[k])
                room += kmax - count
                short += max(kmin - count, 0)
                if active < 0 or count < size:
                    active, size = k, count
        if room < left or short > left:
            continue
        seq = seqs[active]
        end = seq[-1] if seq else 0

        candidates = unvisited
        if not size and active > 0:  # label symmetry: first customers ascend
            candidates &= -2 << seqs[active - 1][0]
        if size < kmax and candidates:
            for arc, bit in rows[end]:
                if candidates & bit:
                    grown = _replace(seqs, active, seq + (bit.bit_length() - 1,))
                    rest = unvisited ^ bit
                    child_cost = cost + arc
                    child_bound = child_cost + completion_bound(
                        table, memo, grown, closed, rest, kmin
                    )
                    if child_bound < incumbent_cost - _EPS:
                        child = (child_cost, grown, closed, rest)
                        heappush(heap, (child_bound, next(counter), child))
        if size >= kmin:
            shut = _replace(closed, active, True)
            child_cost = cost + to_depot[end]
            if not unvisited and all(shut):
                if child_cost < incumbent_cost - _EPS:
                    incumbent_cost = child_cost
                    incumbent_routes = [(1, *[v + 1 for v in s], 1) for s in seqs]
                continue
            child_bound = child_cost + completion_bound(
                table, memo, seqs, shut, unvisited, kmin
            )
            if child_bound < incumbent_cost - _EPS:
                child = (child_cost, seqs, shut, unvisited)
                heappush(heap, (child_bound, next(counter), child))

    heap.clear()  # freeing the open nodes is part of the solve's time
    bound = best_bound_seen if timed_out else None
    return _finish(model.instance, m, "branch_and_bound", incumbent_routes, bound,
                   explored, start_time)


def _replace(tup, idx, value):
    return tup[:idx] + (value,) + tup[idx + 1 :]


# ---------------------------------------------------------------------------
# subset DP

ORACLE_MAX_N = 16


def brute_force_oracle(
    instance: Instance, m: int, min_customers: int, max_customers: int, *,
    time_limit: float | None = None,
) -> ExactResult:
    """Exact optimum by dynamic programming over customer subsets, n <= ``ORACLE_MAX_N``.

    Subset masks index numpy arrays (bit j is customer j + 1) that hold
    costs only. ``path[S, t]``, the cheapest depot-to-customer path through
    S ending at t, is filled one subset size at a time, each (size, t) step
    one ``min`` over the labels of ``S ^ 1 << t``. Subsets of
    ``min_customers`` to ``max_customers`` customers close into routes.
    ``m - 1`` split rounds then give each subset the other routes can
    complete its cheapest cover by r routes, ``covers[r - 1][S]``: the
    closable route R holding the subset's lowest customer plus the cover of
    the rest, over R in descending mask order. ``nodes_explored`` counts
    the path labels built. The plan is read back from the full mask by
    re-deriving each choice, every route R and then every closing customer
    and predecessor, by ``argmin`` over the same floats; its first minimum
    keeps the lowest predecessor and closing customer and the largest R.

    The clock starts before the tables are built and is read on every
    (size, t) label step and on every subset a split round works on. Once
    ``time_limit`` has passed, the run returns the nearest-node plan, which
    fits every feasible window, as ``feasible_time_limit`` above
    ``_root_bound``.
    """
    n = instance.n
    if n > ORACLE_MAX_N:
        raise ValueError(f"the subset DP oracle is limited to n <= {ORACLE_MAX_N}")
    build_model(instance, m, min_customers, max_customers)  # window check
    if time_limit is not None and not time_limit > 0:  # NaN too
        raise ValueError("time_limit must be positive")
    lo, hi = min_customers, max_customers
    start_time = time.perf_counter()
    deadline = np.inf if time_limit is None else start_time + time_limit
    d = instance.matrix
    k = n - 1  # bit j of a subset mask is customer j + 1 (0-based node j + 1)
    full = (1 << k) - 1
    masks = np.arange(full + 1)
    size = np.zeros(1, dtype=np.int64)  # size[mask]: the subset's customers
    for _ in range(k):
        size = np.concatenate([size, size + 1])
    path = np.full((full + 1, k), np.inf)
    path[1 << np.arange(k), np.arange(k)] = d[0, 1:]
    for s in range(2, hi + 1):
        layer = masks[size == s]
        for t in range(k):
            if time.perf_counter() > deadline:
                labels = int(size[size < s].sum())
                return _finish(instance, m, "subset_dp", None, _root_bound(d, m),
                               labels, start_time)
            sets = layer[layer & 1 << t > 0]
            path[sets, t] = (path[sets ^ 1 << t] + d[1:, t + 1]).min(1)
    labels = int(size[size <= hi].sum())
    route = np.where((lo <= size) & (size <= hi), (path + d[1:, 0]).min(1), np.inf)
    closable = masks[np.isfinite(route)][::-1]  # descending: ties keep the largest
    owns = {1 << j: closable[closable & -closable == 1 << j] for j in range(k)}
    covers, rest = [route], k - size  # covers[r - 1][mask]: the cheapest r routes
    for r in range(2, m + 1):
        cover = np.full(full + 1, np.inf)
        works = (r * lo <= size) & (size <= r * hi)
        works &= ((m - r) * lo <= rest) & (rest <= (m - r) * hi)
        for mask in masks[works].tolist():
            if time.perf_counter() > deadline:
                return _finish(instance, m, "subset_dp", None, _root_bound(d, m),
                               labels, start_time)
            held = owns[mask & -mask]
            held = held[(held & mask) == held]  # the routes inside mask
            cost = route[held] + covers[-1][mask ^ held]
            cover[mask] = cost[cost.argmin()]  # cost.min() is slower on short rows
        covers.append(cover)
    mask, chosen = full, []
    for cover in reversed(covers[:-1]):  # re-derive each round's route
        held = owns[mask & -mask]
        held = held[(held & mask) == held]
        chosen.append(int(held[(route[held] + cover[mask ^ held]).argmin()]))
        mask ^= chosen[-1]
    routes = []
    for s in chosen + [mask]:  # re-derive the closing customer, then each predecessor
        seq, j = [], int((path[s] + d[1:, 0]).argmin())
        while s:
            seq.append(j + 2)
            s ^= 1 << j
            j = int((path[s] + d[1:, j + 1]).argmin())
        routes.append((1, *reversed(seq), 1))
    return _finish(instance, m, "subset_dp", routes, None, labels, start_time)


def _root_bound(d, m) -> float:
    """The subset DP's lower bound once its limit passed. Every customer
    leaves by one arc and every route leaves the depot by one. The
    :func:`left_fold` adds the cheapest of each, in ascending customer
    order, then the depot's once per route."""
    return left_fold(d[1:].min(1).tolist() + [float(d[0, 1:].min())] * m)


# ---------------------------------------------------------------------------
# the one ending

def _finish(instance, m, backend, routes, bound, nodes, start_time) -> ExactResult:
    """End an exact run. ``routes`` (1-based, depot first and last) are
    priced by ``evaluate_plan``; a run that holds none takes the nearest-node
    plan. ``bound`` is ``None`` for a proven run, which is ``optimal`` at its
    objective; otherwise the run stopped at its time limit with that bound.
    The clock is read once, after pricing."""
    plan = nearest_node(instance, m) if routes is None else evaluate_plan(instance, routes)
    if bound is None:
        status, bound = SolveStatus.OPTIMAL, plan.total_distance
    else:
        status = SolveStatus.FEASIBLE_TIME_LIMIT
    return ExactResult(status, plan, plan.total_distance, bound, nodes,
                       time.perf_counter() - start_time, backend)
