"""Exact solving of the node-balanced mTSP: the model, the subset DP, the
q-route bound and proof, and the tree search.

Each rule is stated once, in the docstring of the function that owns it:

* :func:`solve` is the one exact entry point; it picks the backend by
  instance size alone (``ORACLE_MAX_N``).
* :func:`build_model`, :func:`check_window` and :func:`check_time_limit`
  say which windows and limits a run accepts; ``check_time_limit`` returns
  the one float a run reads its limit as, and :func:`solve_exact` refuses
  no limit above ``ORACLE_MAX_N``.
* :func:`check_solution` is the one statement of the model, the
  node-balanced MTZ program of Kara & Bektas (2006) with the route-size
  window [K, L] = [``min_customers``, ``max_customers``].
* :class:`ExactResult` says what a status, a bound and a gap mean.
* :func:`brute_force_oracle` is the subset DP up to ``ORACLE_MAX_N``.
* :func:`_finish` ends every run on either backend: it owns a stopped
  run's start plan (built once; its total is the bound's target), its
  lower bound, the shares of the limit, the overshoot and the choice of
  plan and status.
* :func:`qroute_bound` is the Lagrangian q-route bound and its stop rule,
  stepping toward the target its caller passes; it returns the bound and
  its λ. :func:`_covers` is the knapsack it and the proof share, over one
  closing cost per route size.
* :func:`_prove` is the proof: it steps an upper bound up the gap from
  the lower bound, and at each step the routes inside it
  (:func:`_route_pools`) are partitioned, rarest customer first
  (:func:`_partition`); a step that finds no partition raises the bound.
* :func:`_polish` (moves priced by :func:`_best_move`) and :func:`_iterate`
  (kicks by :func:`_kick`) are the local search and the iterated local
  search. Every phase of a stopped run's ending hands the next a priced
  ``RoutePlan``: the polish returns one, and the proof and the iterated
  polish start from it.
* :func:`solve_exact` is the best-first tree search, which only direct
  calls at up to ``ORACLE_MAX_N`` nodes reach; above that it is
  :func:`_finish` alone.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from heapq import heappush, heappop
from itertools import chain

import numpy as np

from .heuristics import InfeasibleModelError, nearest_node
from .instance import (
    _BLOCK_BYTES, Instance, RoutePlan, _block_rows, evaluate_plan, left_fold, plan_tour,
    rng_from_seed,
)

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
    ``"branch_and_bound"`` (it counts tree-search nodes, and reads 0 above
    ``ORACLE_MAX_N``, where no tree search runs).

    ``best`` is always a plan that passes :func:`check_solution` and
    ``objective`` is its total. ``OPTIMAL`` means proven, with
    ``lower_bound == objective``. ``FEASIBLE_TIME_LIMIT`` means not proven,
    with a valid ``lower_bound`` below ``objective`` (:func:`_finish` sets
    it). Despite the name, the limit need not have stopped the run: either
    it did, or every phase of the ending ended before it (the q-route
    bound at its stop rule, the proof at ``_POOL_CAP``, the iterated polish
    at ``_STALL_ROUNDS``) and the run returned before its limit. A
    window that cannot cover the customers raises ``InfeasibleModelError``
    before any work, so no result is infeasible."""

    status: SolveStatus
    best: RoutePlan
    objective: float
    lower_bound: float
    nodes_explored: int
    wall_time: float
    backend: str

    @property
    def gap(self) -> float:
        """The certified relative gap ``(objective - lower_bound) /
        objective``: 0.0 for an ``OPTIMAL`` run, positive for an unproven
        one (whose ``objective`` exceeds a bound of at least 0)."""
        if self.status is SolveStatus.OPTIMAL:
            return 0.0
        return (self.objective - self.lower_bound) / self.objective


def check_window(min_customers: int, max_customers: int) -> None:
    """Reject a route-size window [K, L] without ``1 <= K <= L``, the shape
    every run's window must have. Whether it covers the customers is
    :func:`build_model`'s own check."""
    if min_customers < 1:
        raise ValueError("min_customers must be at least 1")
    if min_customers > max_customers:
        raise ValueError("min_customers exceeds max_customers")


def check_time_limit(time_limit: float | None) -> float:
    """Return the limit a run reads, ``inf`` for no limit (``None`` or
    ``inf``), and reject one that is not positive, NaN included. Every run
    that takes a limit checks it here, and an exact run works out its
    deadlines from the returned float by arithmetic alone: under ``inf``
    each one is ``inf``."""
    limit = np.inf if time_limit is None else time_limit
    if not limit > 0:
        raise ValueError("time_limit must be positive")
    return limit


def build_model(
    instance: Instance,
    m: int,
    min_customers: int,
    max_customers: int,
    warm_start: RoutePlan | None = None,
) -> ExactModel:
    """Assemble and validate the constraint system.

    A window without ``1 <= K <= L`` raises ``ValueError``
    (:func:`check_window`), and one whose m routes cannot cover the n - 1
    customers raises ``InfeasibleModelError``.

    ``warm_start`` becomes the search's first incumbent: it prunes every node
    whose bound reaches its total but never a cheaper plan. Above
    ``ORACLE_MAX_N`` it is the plan the ending polishes. Only direct
    :func:`solve_exact` callers pass one (the benchmark and the tests);
    :func:`solve` does not. It is checked here, with :func:`check_solution`,
    so that a solve's clock never pays for the check (BENCH_pool.json,
    ``warm_start_check``); a plan that violates the model raises
    ``ValueError``.
    """
    n = instance.n
    if m < 1:
        raise ValueError("need at least one salesman")
    check_window(min_customers, max_customers)
    if m * min_customers > n - 1 or m * max_customers < n - 1:
        raise InfeasibleModelError(
            f"window [{min_customers}, {max_customers}] with {m} routes cannot "
            f"cover {n - 1} customers"
        )
    model = ExactModel(instance, m, min_customers, max_customers, warm_start)
    if warm_start is not None:
        ok, violations = check_solution(model, warm_start)
        if not ok:
            raise ValueError(f"warm start violates the model: {violations[0]}")
    return model


def solve(
    instance: Instance, m: int, min_customers: int, max_customers: int,
    time_limit: float | None = None,
) -> ExactResult:
    """The exact run on the window [``min_customers``, ``max_customers``]:
    the one place the backend is chosen.

    Up to ``ORACLE_MAX_N`` nodes it is the subset DP
    (:func:`brute_force_oracle`); above that, :func:`solve_exact` on one
    model with no warm start, which there is the ending of :func:`_finish`
    alone: it builds the nearest-node plan inside the run's clock, so the
    limit covers all of the run's work. ``result.backend`` names the one
    that ran. Both backends check the window (:func:`build_model`) before
    the limit (:func:`check_time_limit`, and above the cap
    :func:`solve_exact`'s refusal of no limit), and both before any work.
    """
    window = (min_customers, max_customers)
    if instance.n <= ORACLE_MAX_N:
        return brute_force_oracle(instance, m, *window, time_limit=time_limit)
    return solve_exact(build_model(instance, m, *window), time_limit)


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
    tour = plan_tour(plan.routes)
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
    ``(cost, w)``; costs are Python floats read from the matrix row's
    ``tolist()`` and the depot's bit is 1. ``customers`` lists
    ``(1 << v, rows[v])`` for every customer ``v`` in ascending order.
    The search builds it only up to ``ORACLE_MAX_N`` nodes, where it holds
    at most 240 pairs.
    """
    rows = [sorted((cost, 1 << w) for w, cost in enumerate(row.tolist()) if w != v)
            for v, row in enumerate(matrix)]
    return rows, [(1 << v, rows[v]) for v in range(1, len(rows))]


def completion_bound(table, memo, seqs, closed, unvisited, min_customers):
    """Admissible completion cost for a partial state (0-based nodes).

    Every unvisited customer still needs one outgoing arc (to another
    unvisited customer or the depot); every open route end needs one
    continuation (a customer, or the depot once the route reached the
    minimum). Summing each term's cheapest option never overestimates.

    ``table`` is ``neighbour_table``'s and ``unvisited`` a bitmask over its
    bits; an open route ends at ``seq[-1]``, or the depot while empty. The
    routes' ends are read off the state and the bound is
    :func:`bound_from_ends`'s, the form the search calls.
    """
    rows, customers = table
    ends = [(rows[seq[-1] if seq else 0], len(seq) >= min_customers)
            for seq, done in zip(seqs, closed) if not done]
    return bound_from_ends(customers, memo, ends, unvisited)


def bound_from_ends(customers, memo, ends, unvisited):
    """:func:`completion_bound` on prepared route ends.

    ``ends`` lists, per open route in route order, ``(row, closable)``: the
    ``neighbour_table`` row of the route's end and whether the route reached
    the minimum, so may go back to the depot. Each term is the first entry
    of the node's row whose bit is allowed, which is that term's exact
    minimum; a customer's scan ends at the depot entry at the latest. The
    customer terms (``customers`` is the table's second half) are added in
    ascending customer index and their sum is kept in ``memo`` under the
    mask, then the open routes' terms are added in route order. The bound is
    therefore a function of the state alone; ``memo`` must belong to the
    table (one per solve).
    """
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
    for row, closable in ends:
        allowed = unvisited | closable  # the depot once closable
        for cost, bit in row:
            if allowed & bit:
                bound += cost
                break
        else:
            return np.inf  # open route below minimum with nothing left to visit
    return bound


def solve_exact(model: ExactModel, time_limit: float | None = None) -> ExactResult:
    """Best-first branch and bound over partial route extensions, up to
    ``ORACLE_MAX_N`` nodes; above that, the ending alone.

    Above ``ORACLE_MAX_N`` nodes no tree search runs: the run hands
    :func:`_finish` its warm start (``None`` without one), a bound of 0.0
    and 0 nodes as soon as its clock starts. :func:`solve` calls it only
    there, with no warm start; a direct call reaches the search.

    Above ``ORACLE_MAX_N`` nodes the run must have a finite limit, and
    one of ``None`` or ``inf`` is refused as soon as it is read: the
    ending's phases run until shares of the limit. Under ``inf`` every
    share is ``inf`` and every phase still ends without the clock: the
    bound at its ``_EPS``/2 stop, the polish at a local optimum, a proof
    step's pool at ``_POOL_CAP``, the iterated polish at ``_STALL_ROUNDS``,
    and the proof's partition, which has no count of its own, when its
    search completes. The refusal is for cost: the q-route bound alone
    would run 0.79-10.7 s at n = 100-200 (BENCH_qroute_step.json,
    ``no_deadline_s``).

    Up to the cap, a search state is ``(cost, seqs, closed, unvisited)``:
    the fixed arcs' cost, m partially built customer sequences, their
    closed flags and the unvisited customers as an int bitmask. A route
    ends at its last customer (the depot while empty) and its size is its
    length. The route with the fewest customers (lowest index on ties) is
    active; branching appends one unvisited customer (candidates in
    ascending arc cost, read off the end node's ``neighbour_table`` row)
    or closes the route once it reached the minimum size. Routes are
    interchangeable, so first customers are forced into ascending order
    across routes, which prunes label-permuted duplicates only. The table
    and the memo of the bound's customer terms are built once per solve.
    Each popped node lists its open routes' ends once
    (:func:`bound_from_ends`'s form); each child overwrites only the
    active route's entry and is bounded as it is made, summed in a fixed
    order, so node counts do not depend on set iteration order. A heap
    entry is ``(bound, counter, *state)``, the counter unique.
    Single-threaded and deterministic.

    The search creates no reference cycles, so the cyclic garbage collector
    is switched off until its open nodes are freed (each full collection
    would walk every one of them) and put back as it was found, also when
    the search raises.

    The warm start was checked by :func:`build_model`, before the clock
    starts. The clock is read on every popped node. A time-limited search
    stops at most one node expansion past a quarter of ``time_limit``
    (``_SEARCH_SHARE``), or at the first popped node that leaves more than
    ``_OPEN_PER_S * time_limit`` open nodes on its heap: a heap that grows
    that fast does not close within the limit, and a stop on a count,
    unlike one on the clock, hands the same incumbent and bound to the
    ending at any speed. The search then frees its open nodes, table and
    memo inside its clock. It hands :func:`_finish` its incumbent (``None``
    if it stopped before its first plan, without a warm start) and, if it
    stopped, the best bound it popped. A search that runs to the end
    always holds a plan: ``build_model`` admits only windows that cover
    the customers, and every arc is finite.
    """
    n = model.instance.n
    time_limit = check_time_limit(time_limit)
    if n > ORACLE_MAX_N and time_limit == np.inf:
        raise ValueError(f"time_limit must be finite above {ORACLE_MAX_N} nodes")
    m = model.m
    kmin, kmax = model.min_customers, model.max_customers

    clock = time.perf_counter
    start_time = clock()
    incumbent_cost = np.inf
    incumbent_routes = None  # 1-based, as evaluate_plan takes them
    if model.warm_start is not None:  # build_model has checked it
        incumbent_cost = model.warm_start.total_distance
        incumbent_routes = model.warm_start.routes
    if n > ORACLE_MAX_N:  # the ending's bound and proof are the whole run
        return _finish(model, "branch_and_bound", incumbent_routes, 0.0, 0,
                       start_time, time_limit)

    stop_at = start_time + _SEARCH_SHARE * time_limit
    most_open = _OPEN_PER_S * time_limit
    rows, customers = neighbour_table(model.instance.matrix)
    memo = {}  # unvisited mask -> summed customer terms of the bound
    to_depot = model.instance.matrix[:, 0].tolist()
    bound_at, push, pop = bound_from_ends, heappush, heappop  # local names: read per node
    # bound, counter, cost of fixed arcs, customer sequences (0-based), closed
    # flags, and the unvisited customers: bits 1..n-1
    tick = 0
    heap = [(0.0, tick, 0.0, ((),) * m, (False,) * m, (1 << n) - 2)]
    explored = 0
    best_bound_seen = 0.0
    bound = None  # a stopped search's lower bound
    cutoff = incumbent_cost - _EPS

    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while heap:
            low, _, cost, seqs, closed, unvisited = pop(heap)
            if low >= cutoff:
                break
            if low > best_bound_seen:
                best_bound_seen = low
            explored += 1
            if clock() > stop_at or len(heap) > most_open:
                bound = best_bound_seen
                break

            left = unvisited.bit_count()
            # size-window feasibility, and the active route: the open one with
            # the fewest customers, lowest index on ties. An all-closed state
            # still has customers (a finished plan is never pushed), so it
            # fails. ends[slot] is the active route's entry.
            room = short = 0
            active = -1
            ends = []
            for k, seq in enumerate(seqs):
                if not closed[k]:
                    count = len(seq)
                    room += kmax - count
                    if count < kmin:
                        short += kmin - count
                    if active < 0 or count < size:
                        active, size, slot = k, count, len(ends)
                    ends.append((rows[seq[-1] if count else 0], count >= kmin))
            if room < left or short > left:
                continue
            seq = seqs[active]
            end = seq[-1] if size else 0

            candidates = unvisited
            if not size and active > 0:  # label symmetry: first customers ascend
                candidates &= -2 << seqs[active - 1][0]
            if size < kmax and candidates:
                head, tail = seqs[:active], seqs[active + 1 :]
                closable = size + 1 >= kmin
                for arc, bit in rows[end]:
                    if candidates & bit:
                        node = bit.bit_length() - 1
                        ends[slot] = (rows[node], closable)
                        rest = unvisited ^ bit
                        child_cost = cost + arc
                        child_bound = child_cost + bound_at(customers, memo, ends, rest)
                        if child_bound < cutoff:
                            tick += 1
                            push(heap, (child_bound, tick, child_cost,
                                        head + (seq + (node,),) + tail, closed, rest))
            if size >= kmin:
                child_cost = cost + to_depot[end]
                if not unvisited and len(ends) == 1:  # the last route closes
                    if child_cost < cutoff:
                        incumbent_cost = child_cost
                        cutoff = incumbent_cost - _EPS
                        incumbent_routes = [(1, *[v + 1 for v in s], 1) for s in seqs]
                    continue
                del ends[slot]
                child_bound = child_cost + bound_at(customers, memo, ends, unvisited)
                if child_bound < cutoff:
                    tick += 1
                    shut = closed[:active] + (True,) + closed[active + 1 :]
                    push(heap, (child_bound, tick, child_cost, seqs, shut, unvisited))
        for held in (heap, rows, customers, memo):  # freed now, inside the clock
            held.clear()
    finally:
        if gc_was_enabled:
            gc.enable()
    return _finish(model, "branch_and_bound", incumbent_routes, bound, explored,
                   start_time, time_limit)


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
    ``time_limit`` (:func:`check_time_limit`) has passed, the run hands
    :func:`_finish` no plan, a bound of 0.0 and the labels of the layers it
    finished, with no time left for the ending's phases.
    """
    n = instance.n
    if n > ORACLE_MAX_N:
        raise ValueError(f"the subset DP oracle is limited to n <= {ORACLE_MAX_N}")
    model = build_model(instance, m, min_customers, max_customers)  # window check
    time_limit = check_time_limit(time_limit)
    lo, hi = min_customers, max_customers
    start_time = time.perf_counter()
    deadline = start_time + time_limit
    d = instance.matrix
    k = n - 1  # bit j of a subset mask is customer j + 1 (0-based node j + 1)
    full = (1 << k) - 1
    masks = np.arange(full + 1)
    size = np.zeros(1, dtype=np.int64)  # size[mask]: the subset's customers
    for _ in range(k):
        size = np.concatenate([size, size + 1])
    path = np.full((full + 1, k), np.inf)
    path[1 << np.arange(k), np.arange(k)] = d[0, 1:]
    labels = k  # the path labels of the finished layers
    for s in range(2, hi + 1):
        layer = masks[size == s]
        for t in range(k):
            if time.perf_counter() > deadline:
                return _finish(model, "subset_dp", None, 0.0, labels, start_time, time_limit)
            sets = layer[layer & 1 << t > 0]
            path[sets, t] = (path[sets ^ 1 << t] + d[1:, t + 1]).min(1)
        labels += s * layer.size
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
                return _finish(model, "subset_dp", None, 0.0, labels, start_time, time_limit)
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
    return _finish(model, "subset_dp", routes, None, labels, start_time, time_limit)


def _root_bound(d, m) -> float:
    """A lower bound that needs no table: every customer leaves by one arc
    and every route leaves the depot by one. The :func:`left_fold` adds the
    cheapest of each, in ascending customer order, then the depot's once
    per route. It equals the tree search's completion bound at its root."""
    return left_fold(d[1:].min(1).tolist() + [float(d[0, 1:].min())] * m)


# ---------------------------------------------------------------------------
# q-route lower bound

_BOUND_STALL = 10  # steps without a gain that shrink its step multiplier
_BOUND_SHRINK = 0.7  # the factor that shrinks it


def qroute_bound(instance, m, min_customers, max_customers, target,
                 deadline) -> tuple[float, np.ndarray]:
    """A Lagrangian q-route lower bound (Christofides, Mingozzi & Toth,
    1981) on the cheapest plan of m routes of ``min_customers`` to
    ``max_customers`` customers of ``instance``, on a window
    ``build_model`` admits.

    It relaxes "every customer once" with penalties λ and keeps the rest:
    m depot-to-depot walks of K..L customers, covering n − 1 customers in
    total. ``f[q, v]`` is the cheapest walk of q customers from the depot
    ending at v, with λ_v subtracted on entering v, so a directed matrix is
    read by its own arcs (:func:`_walk_labels`). Each layer keeps per
    customer a best and a second best label with different predecessors;
    entering v from u takes u's second best when u's best came from v, so
    no walk turns back at once (2-cycle elimination). A walk of q in [K, L]
    closes at the depot, and a knapsack over route counts
    (:func:`_covers`) picks m sizes summing to n − 1. The relaxed optimum
    plus the sum of λ is a valid bound for every λ.

    λ starts at 0 and takes subgradient steps along 1 − visits, each of
    Polyak's length toward ``target``, T. T is the caller's and must be the
    total of a plan that fits the window, so that no value reaches above
    it; :func:`_finish` passes its start plan's, the nearest-node plan's.
    The bound calls no heuristic. The step multiplier μ starts at 1 and
    shrinks by ``_BOUND_SHRINK`` after ``_BOUND_STALL`` steps without a
    gain; a gain raises the best value by more than ``_EPS`` times it (at
    least ``_EPS``), and a smaller rise still raises the best value, which
    is the bound.

    The run returns once no later step can raise the bound by ``_EPS`` / 2.
    The relaxed value is concave in λ, with 1 − visits a supergradient,
    so a step of length μ(T − v) / ‖1 − visits‖² from value v lands at most
    μ(T − v) above v, that is at (1 − μ)v + μT or below. That grows with v,
    and v never exceeds the best value b, so whatever dips the values take,
    the next value is at most b + μ(T − b). Once μ(T − b) is below ``_EPS``
    no step gains: μ shrinks every ``_BOUND_STALL`` steps and b only rises,
    so all later steps together raise b by at most ``_BOUND_STALL`` /
    (1 − ``_BOUND_SHRINK``) · μ(T − b), and the run returns when that is at
    most ``_EPS`` / 2. The values are float sums, so this holds up to their
    rounding. That return always comes: every value is a
    lower bound, below T, so the best value gains only finitely often, and
    from then on μ shrinks geometrically. So with an infinite ``deadline``
    its float is a function of the instance's matrix, m and the window
    alone. The run also returns once a step leaves λ unchanged bit for
    bit, and when a relaxed optimum visits every customer once: that is a
    plan, and the bound is its cost.

    The clock is read once per label layer. Past ``deadline`` the bound
    returns the best value of its finished steps, 0.0 before the first.

    The returned bound is the best value lowered by a margin for its
    rounding; the gain test and the stop rule read the unlowered value.
    A value is float sums of one relaxed optimum's terms (its k + m arcs
    and k penalties, through the labels and the knapsack) plus Σλ's k.
    Every min is exact and float addition is monotone, so the value is at
    most the float sum of these 3k + m terms for the exact relaxed optimum
    S*, which errs by at most γ(3k + m) = (3k + m)u / (1 − (3k + m)u)
    times their absolute sum (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, §4.2; u = 2⁻⁵³). That sum is at most T + 4kΛ, with
    Λ = max |λ|: the arcs are non-negative and S*'s reduced cost is at most
    T − Σλ, since its exact value, a valid bound, is at most T. The margin
    n · 2⁻⁵⁰ · (T + 4kΛ) is over twice that, which also covers the rounding
    of the margin and of the lowering, so the lowered value stays below
    every plan's total. The bound keeps the largest lowered value, 0.0
    before the first.

    Returns ``(bound, penalty)``: a float and the λ of the step that gave
    the best value (all zero before the first step's value rises above
    0.0).
    """
    matrix = instance.matrix
    k = instance.n - 1
    lo, hi = _route_sizes(k, m, min_customers, max_customers)
    into = matrix[1:, 1:].T.copy()  # into[v, u]: customer u to customer v
    leave, back = matrix[0, 1:], matrix[1:, 0]
    # labels[q - 1], links[q - 1]: a step's q-customer labels and their
    # predecessors (p1, p2)
    labels, links = np.empty((hi, k)), np.empty((hi, 2, k), dtype=np.intp)
    link = memoryview(links)  # link[q - 1, i, v]: links' entries as Python ints
    table = _cover_table(k, lo, hi)
    penalty = best_penalty = np.zeros(k)
    best = top = 0.0  # the lowered bound, and the unlowered best value the rules read
    step, stall = 1.0, 0
    while True:
        if not _walk_labels(into, leave, penalty, deadline, labels, links):
            return best, best_penalty  # cut off at the deadline
        shut = labels[lo - 1:] + back
        ends = shut.argmin(1).tolist()  # ends[q - lo]: the customer the best q-route closes from
        closing = shut.min(1)  # closing[q - lo]: the best q-route
        covers = _covers(closing, table, m)
        value = float(covers[-1, k]) + left_fold(penalty.tolist())
        if value > top + _EPS * max(1.0, top):
            stall = 0
        else:
            stall += 1
            if stall == _BOUND_STALL:
                step, stall = step * _BOUND_SHRINK, 0
        if value > top:
            top, best_penalty = value, penalty
            margin = (k + 1) * 2.0 ** -50 * (target + 4 * k * float(np.abs(penalty).max()))
            best = max(best, top - margin)
        if _BOUND_STALL / (1 - _BOUND_SHRINK) * step * (target - top) <= _EPS / 2:
            return best, best_penalty  # no later step can raise it by _EPS / 2
        # read the relaxed optimum back: its route sizes, then each walk
        visits, close = [0] * k, closing.tolist()
        s = k
        for cover in covers[-2::-1].tolist():
            q = min(range(lo, min(hi, s) + 1), key=lambda q: cover[s - q] + close[q - lo])
            s -= q
            v, second = ends[q - lo], False
            for layer in range(q - 1, -1, -1):
                visits[v] += 1
                u = link[layer, second, v]
                if layer:
                    second = link[layer - 1, 0, u] == v
                v = u
        slope = 1 - np.array(visits)
        norm = int(slope @ slope)
        if not norm:  # every customer once: a plan, priced at the bound
            return best, best_penalty
        moved = penalty + step * (target - value) / norm * slope
        if (moved == penalty).all():  # the step no longer moves λ
            return best, best_penalty
        penalty = moved


def _route_sizes(k, m, min_customers, max_customers):
    """The sizes a route of a plan of m routes over k customers can take:
    inside the window, with room left for the other m - 1."""
    return (max(min_customers, k - (m - 1) * max_customers),
            min(max_customers, k - (m - 1) * min_customers))


def _walk_labels(into, leave, penalty, deadline, labels, links):
    """The 2-cycle-free walk labels from the depot, one layer per walk size:
    fills ``labels[q - 1]`` with ``f1`` and ``links[q - 1]`` with ``(p1,
    p2)`` for q = 1..``len(labels)``. The clock is read before each layer:
    returns True once every layer is filled, and False, with the layers
    after it unfilled, once the clock is past ``deadline``.

    ``into[v, u]`` is the arc from customer u to customer v and
    ``leave[v]`` the depot's arc to v; ``penalty[v]`` is subtracted on
    entering v. ``f1[v]`` is the cheapest walk of q customers ending at v
    that never turns straight back, from predecessor ``p1[v]`` (-1: the
    depot); ``p2[v]`` is the predecessor of the best label from another
    one, which the next layer takes when u's best came from v. Every
    elementary path is such a walk, so ``f1`` never exceeds the cheapest
    elementary one. On the transposed arcs the same layers read walks to
    the depot backwards: ``f1[v]`` is then the cheapest walk of q
    customers from v to the depot, v's penalty included.

    A layer is one pass over a k × k scratch array plus whole-vector
    gathers and scatters on flat indices into it and into ``into``, which
    are raveled once per call, after the first clock read (a copy when
    ``into`` is not contiguous, as ``_route_pools``' view is)."""
    k = leave.size
    for q, (f1, (p1, p2)) in enumerate(zip(labels, links), 1):
        if time.perf_counter() > deadline:
            return False
        if q == 1:  # set up past the first clock read: a call past its deadline copies nothing
            rows = np.arange(k)
            starts = rows * k  # the flat index of row v's first entry
            arcs = into.ravel()
            cost = np.empty((k, k))  # cost[v, u]: entering v from u's label, one layer
            flat = cost.ravel()
            np.subtract(leave, penalty, out=f1)
            p1.fill(-1)
            p2.fill(-1)
        else:
            np.add(into, last, out=cost)  # from u's best label
            if q > 2:  # u's best came from v: from its second best instead
                at = starts[came] + rows  # the flat index of (p1[u], u)
                flat[at] = arcs[at] + f2
            cost.argmin(1, out=p1)
            at = starts + p1
            cheapest = flat[at]
            flat[at] = np.inf
            cost.argmin(1, out=p2)
            np.subtract(cheapest, penalty, out=f1)
            f2 = flat[starts + p2] - penalty
        last, came = f1, p1
    return True


def _cover_table(k, lo, hi):
    """The knapsack's gather table: ``table[j, s]`` is s − (``lo`` + j),
    what is left to the other routes of s customers when one has ``lo`` + j,
    or k + 1, an entry that reads inf, where that is negative."""
    left = np.arange(k + 1) - np.arange(lo, hi + 1)[:, None]
    return np.where(left >= 0, left, k + 1)


def _covers(closing, table, m):
    """The knapsack over route counts: ``covers[r, s]`` is the cheapest r
    routes of lo..hi customers and ``s`` customers in total, a route of q
    customers costing ``closing[q - lo]``; r = 0..m and s = 0..k, with lo,
    hi and k those of ``table`` (:func:`_cover_table`), so ``closing``
    holds one cost per size lo..hi. Each route count is one gather, add
    and min over the table."""
    k = table.shape[1] - 1
    covers = np.full((m + 1, k + 2), np.inf)  # column k + 1 stays inf
    covers[0, 0] = 0.0
    for r in range(1, m + 1):
        sums = covers[r - 1][table]
        sums += closing[:, None]
        sums.min(0, out=covers[r, :k + 1])
    return covers[:, :k + 1]


# ---------------------------------------------------------------------------
# the proof of a stopped run: the routes inside steps of the q-route gap, each partitioned

_POOL_CAP = 1 << 19  # entries a pool's labels and λ's k² successor-row entries may hold together
_STEPS = tuple(2.0 ** (e / 2) for e in range(-12, 1))  # the proof's steps: 2⁻⁶ to 1 of the gap, ratio √2


def _prove(instance, m, min_customers, max_customers, penalty, plan, bound, deadline):
    """Prove ``plan`` optimal, find the optimum below it, or raise the lower
    bound toward it, by the bounding and enumeration of Baldacci,
    Christofides & Mingozzi (2008) on q-route penalties ``penalty``. Any λ
    is valid: a converged one, one cut off by its deadline, or zeros; the
    closer its bound to UB = ``plan.total_distance``, the smaller the pools.
    ``bound`` is a valid lower bound LB below UB.

    Returns ``(proven, raised)``. ``proven`` is the optimal ``RoutePlan``,
    ``plan`` itself unless a partition prices below it, or ``None`` once a
    step gives up: the clock passes ``deadline``, or a step's enumeration
    passes ``_POOL_CAP``. ``raised`` is the largest lower bound the
    finished steps certified, ``bound`` if none did.

    A route R of q customers has the reduced cost rc(R) = c(R) − λ(R), and
    a plan's total is its routes' reduced costs plus Σλ. The other m − 1
    routes of a plan are 2-cycle-free walks over the other k − q
    customers, so their reduced costs sum to at least G(k − q), the
    knapsack (:func:`_covers`) over the cheapest such q-route of each size.
    A plan of total at most U therefore holds only routes with rc(R) ≤
    T(q) = U − Σλ − G(k − q) + slack, and the pool at U
    (:func:`_route_pools`) holds every one of them. The slack, 1e-7 · UB,
    is the proof margin: it covers the rounding of the float sums (a
    relative error near n · 2⁻⁵³ each) many times over, and it only lets
    more routes and branches through. Every plan cheaper than U is then a
    partition of the pool's customer sets, each in its cheapest order, and
    :func:`_partition` finds the cheapest one below U, if any.

    The steps take U = LB + f · (UB − LB) for each f of ``_STEPS``, the
    last U = UB. The pool grows steeply with U, so the early steps cost
    little. A step that finds a partition has found the optimum: no plan
    outside its pool prices below it by more than the rounding. A step that finds none refutes U. Its pool
    and partition admitted everything up to the slack, so no plan prices
    below U − slack, a valid lower bound; at U = UB that proves ``plan``.
    The first step that gives up ends the proof. The steps share one λ, so
    they share its backward labels, knapsack and sorted successor rows.
    """
    k = instance.n - 1
    upper = plan.total_distance
    slack = 1e-7 * upper
    total = left_fold(penalty.tolist())  # Σλ
    raised = bound
    pools = _route_pools(instance, m, min_customers, max_customers, penalty, deadline)
    if pools is None:
        return None, raised
    covers, pool_at = pools
    for f in _STEPS:
        top = bound + f * (upper - bound) if f < 1 else upper
        budget = top - total  # U − Σλ: what the routes' rc may sum to
        pool = pool_at(budget, slack)
        paths = None if pool is None else _partition(pool, covers, k, m, budget, slack, deadline)
        if paths is None:
            return None, raised
        if paths:
            cheaper = evaluate_plan(instance, [(1, *[v + 2 for v in path], 1) for path in paths])
            return (cheaper if cheaper.total_distance < upper else plan), raised
        raised = max(raised, top - slack)
    return plan, raised


def _last_minima(values, head):
    """The index of the last minimum of each run of ``values``: the runs
    start where the bool array ``head`` is True, and its first entry is."""
    if not values.size:
        return np.empty(0, np.intp)
    starts = np.flatnonzero(head)
    low = np.minimum.reduceat(values, starts)[np.cumsum(head) - 1]
    return np.maximum.reduceat(np.where(values == low, np.arange(values.size), -1), starts)


def _cheapest(key, cost):
    """The index of the cheapest entry of each key, the last of equal ones,
    in ascending key order."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.empty(key.size, bool)
    head[:1], head[1:] = True, key[1:] != key[:-1]
    return order[_last_minima(cost[order], head)]


def _route_pools(instance, m, min_customers, max_customers, penalty, deadline):
    """The route pools of :func:`_prove`'s steps under one λ, ``penalty``:
    ``(covers, pool_at)``, or ``None``: at once when the k² successor-row
    entries alone pass ``_POOL_CAP`` (k > 724), and once the clock passes
    ``deadline`` while the backward labels are built. ``covers`` is the
    q-route knapsack G reads, as lists. ``pool_at(budget, slack)`` is every
    elementary route R of q customers with rc(R) ≤ T(q) = ``budget`` −
    G(k − q) + ``slack``, in its cheapest order: a list of ``(rc,
    customers in order)``, one per customer set, by size and then ascending
    set (0-based customer v is node v + 1), or ``None`` once the clock
    passes ``deadline`` or its count passes ``_POOL_CAP``.

    :func:`_walk_labels` on the transposed arcs gives, for every customer
    v and size j, the cheapest reduced 2-cycle-free walk of j customers
    from v to the depot; its closing q-routes give G. These, and the
    successor rows below, depend on λ alone, so every pool reads the same
    ones.

    A pool grows partial routes from the depot one size at a time. Layer s
    holds one label per (customer set, last customer) of s customers, as
    arrays: the set as ⌈k/64⌉ uint64 words, the last customer, the
    reduced cost and the index of its parent in layer s − 1. A label of
    cost c at v takes each successor w whose reduced arc a passes three
    tests: a ≤ −c − min(need), w is not in its set, and c + a + need(w) ≤
    0, where need(w) is the cheapest completion from w less T, the best
    over the sizes the route may still close at. Layer s + 1 keeps the
    cheapest candidate per (set, last customer). Float addition is
    monotone, so whatever passes the tests from a label passes them from
    every cheaper label of its key, and the cheapest label of a key
    extends the cheapest label of its parent's key. So one label per key
    loses no route, and its cost is the least left-to-right float sum of
    its key's orders. A label of q ≥ lo customers at v
    closes into the pool when c + back(v) ≤ T(q), and each set keeps its
    cheapest close. The routes are read back by walking the parent
    indices, as whole arrays.

    Of equal costs, a label keeps the candidate from its lowest-numbered
    predecessor, and a set the close from its lowest-numbered last
    customer. This holds because a layer is sorted by its sets as numbers
    and, within a set S, by descending last customer w, since S − 2^w
    falls as w rises; every sort is stable, and of equal minima the last
    is kept.

    A customer's successors are its row of reduced arcs sorted ascending
    and padded with inf to the next power of two above k, all k rows
    sorted at once, right after the backward labels. Binary lifting per
    label counts the successors within the first test, a prefix of the
    row. A layer's candidates are made in blocks of whole sets, each of
    about ``_BLOCK_BYTES`` / 8 candidates, so that a candidate array is
    about 256 kB. All labels of a key come from one parent set, so a block
    keeps the cheapest per key on its own, and the blocks' survivors wait,
    at most ``_POOL_CAP`` of them, until the layer ends.

    A pool's count is its own labels plus the k² entries of the successor
    rows, whatever pools ran before it. It only grows, and a pool gives up
    once it passes ``_POOL_CAP`` at a block of candidates, so it gives up
    exactly when a full enumeration's count would. The clock is read once
    per backward layer; then, per pool, once per size while the completion
    bounds are tabled, once per layer, once per block of candidates and of
    routes read back. So the longest step between reads is one whole-layer
    pass: the layer's sort, its binary lifting or its closes. The rows'
    sort, of at most ``_POOL_CAP`` entries, is no longer than one layer's
    sort, and reads no clock of its own.

    A pool's peak memory, with the successor rows, is at most
    8 · (2⌈k/64⌉ + 20) · ``_POOL_CAP`` bytes for k ≤ 724: 92 MB for k ≤ 64.
    On top of that come its completion table, hi · k floats, one block's
    arrays and the pool it returns. The count bounds the labels and the k²
    row entries together by ``_POOL_CAP``. The walk back holds two words
    per label. The current layer holds about ⌈k/64⌉ + 12 words per label,
    and its next layer ⌈k/64⌉ + 3, twice while it is sorted. The sorted
    rows hold two words per entry, under 2k entries a row, and their sort
    two more per arc while it runs."""
    clock = time.perf_counter
    matrix = instance.matrix
    k = instance.n - 1
    if k * k > _POOL_CAP:  # the successor rows alone pass the cap
        return None
    lo, hi = _route_sizes(k, m, min_customers, max_customers)
    # tails[j - 1, v]: the cheapest walk of j customers from v to the depot
    tails, links = np.empty((hi, k)), np.empty((hi, 2, k), dtype=np.intp)
    if not _walk_labels(matrix[1:, 1:], matrix[1:, 0], penalty, deadline, tails, links):
        return None
    covers = _covers((tails[lo - 1:] + matrix[0, 1:]).min(1), _cover_table(k, lo, hi), m)
    rest = covers[m - 1][k - np.arange(lo, hi + 1)]  # rest[q - lo]: G(k − q)
    first, back = matrix[0, 1:] - penalty, matrix[1:, 0]
    reduced = matrix[1:, 1:] - penalty  # reduced[v, w]: v to w, less w's penalty
    words = -(-k // 64)  # a customer set's uint64 words, customer v at bit v % 64 of word v // 64
    bit = np.uint64(1) << (np.arange(k) % 64).astype(np.uint64)
    width = 1 << k.bit_length()  # a sorted row's entries: k, then at least one padding
    # succ[v]: v's successors by ascending reduced arc, and arcs[v] those arcs
    succ = np.tile(np.arange(k)[:, None], width)  # padded by its customer
    succ[:, :k] = reduced.argsort(1)
    arcs = np.full((k, width), np.inf)  # padded by inf
    arcs[:, :k] = np.take_along_axis(reduced, succ[:, :k], 1)
    flat_arcs, flat_succ = arcs.ravel(), succ.ravel()
    block = _BLOCK_BYTES // 8  # the entries of a 256 kB float array: a block's candidates

    def pool_at(budget, slack):
        cap = budget - rest + slack  # cap[q - lo]: T(q)
        # need[s][v]: a partial route of s customers ending at v survives while
        # its cost plus need[s][v] is at most 0, the best over the sizes q >= s
        # it may close at; v's penalty is added back, as the partial cost holds it
        need, floors = [None], [None]
        for s in range(1, hi + 1):
            if clock() > deadline:
                return None
            q = np.arange(max(s, lo), hi + 1)
            row = (tails[q - s] - cap[q - lo, None]).min(0) + penalty
            need.append(row)
            floors.append(row.min())
        ends = np.flatnonzero(first + need[1] <= 0)  # the layer's last customers
        costs = first[ends]
        sets = np.zeros((ends.size, words), np.uint64)
        sets[np.arange(ends.size), ends >> 6] = bit[ends]
        head = np.ones(ends.size, bool)  # where a customer set starts in the layer
        parents, trail = None, []  # trail[s - 1]: layer s's last customers and parents
        labels, pool = ends.size, []
        for s in range(1, hi + 1):
            if clock() > deadline:
                return None
            if not ends.size:
                break
            trail.append((ends, parents))
            if s >= lo:  # each set's cheapest close, if it fits under T(s)
                rc = costs + back[ends]
                shut = _last_minima(rc, head)
                shut = shut[rc[shut] <= cap[s - lo]]
                step = max(1, block // s)  # routes per block read back
                for i in range(0, shut.size, step):
                    if clock() > deadline:
                        return None
                    at = shut[i:i + step]
                    closed = rc[at].tolist()
                    path = np.empty((at.size, s), np.intp)
                    for t in range(s - 1, -1, -1):  # walk the parents back
                        last, up = trail[t]
                        path[:, t] = last[at]
                        at = at if up is None else up[at]
                    pool.extend(zip(closed, map(tuple, path.tolist())))
            if s == hi:
                break
            flat_sets = sets.ravel()
            # each label's successors with arcs <= most, a prefix of its sorted row
            # at flat index base: binary lifting, which ends with low its length
            most, base = -costs - floors[s + 1], ends * width
            low, jump = np.zeros(ends.size, np.intp), width >> 1
            while jump:
                np.add(low, jump, out=low, where=flat_arcs[base + low + (jump - 1)] <= most)
                jump >>= 1
            group = np.cumsum(head) - 1  # each label's set, numbered in ascending order
            cuts, upto = np.append(np.flatnonzero(head), ends.size), np.cumsum(low)
            parts, held, start = [], 0, 0  # the next layer, block by block
            while start < ends.size:  # blocks of whole sets, of about `block` candidates
                if clock() > deadline:
                    return None
                stop = np.searchsorted(upto, upto[start] - low[start] + block, "right")
                stop = int(cuts[np.searchsorted(cuts, max(stop, start + 1))])
                count = low[start:stop]
                rep = np.repeat(np.arange(start, stop), count)  # each candidate's label
                at = np.arange(count.sum()) + np.repeat(
                    base[start:stop] + count - np.cumsum(count), count)
                w = flat_succ[at]
                extended = costs[rep] + flat_arcs[at]
                keep = np.flatnonzero(extended + need[s + 1][w] <= 0)
                rep, w, extended = rep[keep], w[keep], extended[keep]
                keep = np.flatnonzero(flat_sets[rep * words + (w >> 6)] & bit[w] == 0)
                rep, w, extended = rep[keep], w[keep], extended[keep]
                keep = _cheapest(group[rep] * k + w, extended)  # a key's labels share a block
                rep, w = rep[keep], w[keep]
                grown = sets[rep]
                grown[np.arange(rep.size), w >> 6] |= bit[w]
                parts.append((grown, w, extended[keep], rep))
                held += rep.size
                if labels + held + k * k > _POOL_CAP:
                    return None
                start = stop
            sets, ends, costs, parents = (np.concatenate(part) for part in zip(*parts))
            del parts
            order = np.lexsort(sets.T)  # ascending sets, stable: the last word is the primary key
            sets, ends, costs, parents = sets[order], ends[order], costs[order], parents[order]
            head = np.append(True, (sets[1:] != sets[:-1]).any(1))[:ends.size]
            labels += ends.size
        return pool

    return [cover.tolist() for cover in covers], pool_at


def _partition(pool, covers, k, m, budget, slack, deadline):
    """The cheapest m routes of ``pool`` (a pool of :func:`_route_pools`)
    that partition the k customers with reduced costs summing below
    ``budget``: their customer orders, ``[]`` if there are none, ``None``
    once the clock passes ``deadline``.

    The customers are first relabelled by ascending count of the pool
    routes that hold them (ties by customer), and the routes' customer
    sets with them. A depth-first search covers the lowest uncovered label,
    so the rarest customer first: the minimum-remaining-values rule of
    Knuth's Algorithm X ("Dancing links", 2000), fixed once per pool. It
    covers it with each pool route that holds it and no covered one, in
    ascending reduced cost. A branch is cut when its cost, plus the
    cheapest q-route cover (``covers``) of the rest by the routes left,
    reaches the cheapest sum so far (``budget`` at first) plus ``slack``;
    the last route is looked up by its customer set. The orders returned
    keep the customers' own labels. The clock is read every 1024 branches.

    The search keeps no memo of the subtrees it searched in vain. One,
    keyed by (uncovered customers, routes left), would skip only a subtree
    already searched under at least as much room, where no strictly
    cheaper sum was found, and the search accepts only strictly cheaper
    sums. So a memo cannot move the answer: short of a give-up, the search
    finds the same partitions in the same order with or without one."""
    clock = time.perf_counter
    count = Counter(chain.from_iterable(path for _, path in pool))
    bit = [0] * k  # bit[v]: customer v's relabelled bit
    for rank, v in enumerate(sorted(range(k), key=count.__getitem__)):
        bit[v] = 1 << rank
    routes = {}  # the pool by relabelled customer set
    by_low = [[] for _ in range(k)]  # the pool's routes by their lowest relabelled customer
    for rc, path in pool:
        mask = sum(map(bit.__getitem__, path))
        routes[mask] = (rc, path)
        by_low[(mask & -mask).bit_length() - 1].append((rc, mask, path))
    for held in by_low:
        held.sort()
    floors = [min(cover) for cover in covers]
    cheapest, paths = budget, []  # the cheapest sum below budget, and its routes' orders
    chosen = []
    branches = 0

    def search(uncovered, left, spent):
        nonlocal branches, cheapest, paths
        if left == 1:  # the one route that covers the rest, if the pool holds it
            last = routes.get(uncovered)
            if last is not None and spent + last[0] < cheapest:
                cheapest, paths = spent + last[0], [*chosen, last[1]]
            return True
        size = uncovered.bit_count()
        for rc, mask, path in by_low[(uncovered & -uncovered).bit_length() - 1]:
            if rc + floors[left - 1] >= cheapest - spent + slack:
                break
            if mask & ~uncovered:
                continue
            branches += 1
            if not branches & 1023 and clock() > deadline:
                return False
            if rc + covers[left - 1][size - mask.bit_count()] >= cheapest - spent + slack:
                continue
            chosen.append(path)
            if not search(uncovered ^ mask, left - 1, spent + rc):
                return False
            chosen.pop()
        return True

    if not search((1 << k) - 1, m, 0.0):
        return None
    return paths


# ---------------------------------------------------------------------------
# the ending's local search, iterated local search and shares of the limit

_SEARCH_SHARE = 0.25  # of a time limit: the search's share
_OPEN_PER_S = 1 << 15  # open nodes a time-limited search may hold per second of its limit
_BOUND_SHARE = 0.5  # of a time limit: the q-route bound runs until it, the polishes after
_PROOF_SHARE = 0.75  # of a time limit: the proof runs until it, the iterated polish after
_KICKS = np.random.SeedSequence(0)  # the one source of the iterated polish's kicks
_ACCEPT_WORSE = 0.05  # chance that a round's worse plan becomes the current one
_STALL_ROUNDS = 300  # rounds without a new best plan that end the iterated polish


def _polish(instance, routes, min_customers, max_customers, deadline):
    """Best-improvement local search of ``routes`` (1-based, depot first and
    last) on ``instance``; returns the local optimum as the ``RoutePlan``
    ``evaluate_plan`` prices.

    The plan is held as one list, its :func:`plan_tour`. Each pass prices
    every move of three kinds on that tour (:func:`_best_move`) and applies
    the single best one that gains; the final tour is split at its depots
    into routes. Every route keeps ``min_customers`` to ``max_customers``
    customers. The polish stops when no move gains or when ``_best_move``
    finds the clock past ``deadline``, and keeps the plan it holds.
    """
    tour = plan_tour(routes).tolist()
    while True:
        move = _best_move(instance.matrix, tour, min_customers, max_customers, deadline)
        if move is None:
            break
        kind, p, q = move
        if kind == "reverse":  # p < q, on one route
            tour[p : q + 1] = reversed(tour[p : q + 1])
        elif kind == "move":  # the customer at p goes after the node at q
            tour.insert(q + (q < p), tour.pop(p))
        else:
            tour[p], tour[q] = tour[q], tour[p]
    depots = [p for p, v in enumerate(tour) if v == 0]
    return evaluate_plan(instance, [[v + 1 for v in tour[a : b + 1]]
                                    for a, b in zip(depots, depots[1:])])


def _iterate(instance, start, min_customers, max_customers, deadline, bound):
    """Iterated local search from ``start``, a ``RoutePlan`` that
    :func:`_polish` returned; returns the best plan it saw, a ``RoutePlan``
    as ``_polish`` priced it (``start`` itself if no round found a cheaper
    one).

    Each round kicks the current plan (:func:`_kick`) and polishes the
    result with ``_polish`` to a local optimum. A polished plan below the
    best by more than ``_EPS`` times its total is the new best. A plan no
    dearer than the current one replaces it, and a dearer one does with
    probability ``_ACCEPT_WORSE``. The kicks and the acceptance draws come
    from one generator on ``_KICKS``, so the rounds repeat. The search
    stops after ``_STALL_ROUNDS`` rounds without a new best, when no kick
    exists, once the best plan is within ``_EPS`` of ``bound`` (a valid
    lower bound of the run, which proves that plan optimal; -inf proves
    nothing), or when the clock, read before each round, is past
    ``deadline``; the round's polish also stops at it. Each is checked
    before the first round too.
    """
    rng = rng_from_seed(_KICKS)
    best = current = start
    stall = 0
    while (stall < _STALL_ROUNDS and best.total_distance > bound + _EPS
           and time.perf_counter() <= deadline):
        kicked = _kick(current.routes, rng)
        if kicked is None:
            break
        plan = _polish(instance, kicked, min_customers, max_customers, deadline)
        cost = plan.total_distance
        if cost < best.total_distance - _EPS * max(1.0, best.total_distance):
            best, stall = plan, 0
        else:
            stall += 1
        if cost <= current.total_distance or rng.random() < _ACCEPT_WORSE:
            current = plan
    return best


def _kick(routes, rng):
    """``routes`` (1-based, depot first and last) changed at random: 2 to 4
    swaps of two customers on different routes (when there are two routes),
    then one double bridge inside a route of at least 8 customers (when
    there is one), which cuts its customers into four runs A B C D and
    reorders them A C B D. Neither changes a route's size, so every route
    stays in its window. ``None`` when neither kick exists."""
    seqs = [list(r[1:-1]) for r in routes]
    long = [k for k, seq in enumerate(seqs) if len(seq) >= 8]
    if len(seqs) < 2 and not long:
        return None
    if len(seqs) >= 2:
        for _ in range(int(rng.integers(2, 5))):
            a, b = rng.choice(len(seqs), 2, replace=False).tolist()
            i, j = int(rng.integers(len(seqs[a]))), int(rng.integers(len(seqs[b])))
            seqs[a][i], seqs[b][j] = seqs[b][j], seqs[a][i]
    if long:
        seq = seqs[long[int(rng.integers(len(long)))]]
        p, q, r = sorted(rng.choice(np.arange(1, len(seq)), 3, replace=False).tolist())
        seq[p:r] = seq[q:r] + seq[p:q]
    return [(1, *seq, 1) for seq in seqs]


def _best_move(d, tour, min_customers, max_customers, deadline):
    """The best gaining move on a plan's 0-based :func:`plan_tour`, or
    ``None``: also once the clock, read before the tour-order gather and
    before each row block, is past ``deadline``.

    The tour runs through every route, a depot copy between two routes,
    and the matrix is gathered once into tour order, so every node's
    neighbours are the next rows and columns. Three kinds of move
    are priced as whole arrays, one row per interior tour position, in
    blocks of rows of at most ``_BLOCK_BYTES`` per array:

    * ``reverse``: turn one route's customers i..j around. The two end arcs
      change and every arc inside is read backwards, so a directed matrix
      is priced by its reversed arcs;
    * ``move``: take a customer out of its route and put it on an arc of
      another, if its route keeps ``min_customers`` and the other stays
      within ``max_customers``;
    * ``swap``: exchange two customers of different routes.

    Kinds are tried in that order and rows, then columns, in ascending
    tour order; the first maximum gain wins. A move gains when it saves
    more than ``_EPS`` times the plan's total (at least ``_EPS``), so
    rounding in the priced sums never counts as a gain. Returns ``(kind,
    p, q)`` in tour positions: a ``reverse`` turns positions p..q around, a
    ``move`` puts the customer at p after the node at q, and a ``swap``
    exchanges the customers at p and q.
    """
    if time.perf_counter() > deadline:
        return None
    tour = np.array(tour)
    depot = tour == 0
    route = np.cumsum(depot) - 1  # of each position, and of the arc leaving it
    starts = np.flatnonzero(depot)
    e = d[tour[:, None], tour]  # e[p, q] = d[tour[p], tour[q]]
    # a node to itself: read by masked-out moves only, so zeroed to keep them finite
    e[starts[:, None], starts] = 0.0
    np.fill_diagonal(e, 0.0)
    et = e.T.copy()  # so that columns of e are read as rows
    arc = np.diagonal(e, 1)  # arc[p]: position p to p + 1
    # per interior position p = 1..T-2, at index p - 1
    cust, r = ~depot[1:-1], route[1:-1]
    at = np.arange(r.size)
    into, out = arc[:-1], arc[1:]
    # turn[j] - turn[i]: the change in cost of reading arcs i..j backwards
    turn = np.concatenate(([0.0], np.cumsum(np.diagonal(e, -1) - arc)))[1:-1]
    sizes = np.diff(starts) - 1
    held = into + out
    removal = held - np.diagonal(e, 2)
    leave = cust & (sizes[r] > min_customers)
    # the arcs a customer can move onto: another route's, which has room
    room = sizes[route[:-1]] < max_customers

    def shift(rows, k):  # the row slice of positions k further on
        return slice(rows.start + k, rows.stop + k)

    def reverse(rows):
        delta = (e[rows, 1:-1] + e[shift(rows, 1), 2:] - into[rows, None] - out
                 + turn - turn[rows, None])
        return delta, cust[rows, None] & (r[rows, None] == r) & (at[rows, None] < at)

    def move(rows):
        delta = (et[shift(rows, 1), :-1] + e[shift(rows, 1), 1:] - arc
                 - removal[rows, None])
        return delta, leave[rows, None] & room & (r[rows, None] != route[:-1])

    def swap(rows):
        delta = (e[rows, 1:-1] + et[shift(rows, 2), 1:-1] - held[rows, None]
                 + et[shift(rows, 1), :-2] + e[shift(rows, 1), 2:] - held)
        ok = cust[rows, None] & cust & (r[rows, None] != r) & (at[rows, None] < at)
        return delta, ok

    best, found = _EPS * max(1.0, float(arc.sum())), None
    for kind, price, cols in (("reverse", reverse, r.size), ("move", move, arc.size),
                              ("swap", swap, r.size)):
        step = _block_rows(cols)
        for first in range(0, r.size, step):
            if time.perf_counter() > deadline:
                return None
            delta, ok = price(slice(first, min(first + step, r.size)))
            gain = np.where(ok, -delta, -np.inf)
            k = int(gain.argmax())
            if gain.flat[k] > best:
                best, found = gain.flat[k], (kind, first + k // cols, k % cols)
    if found is None:
        return None
    kind, i, j = found  # row i is tour position i + 1, and so is column j
    return kind, i + 1, j + (kind != "move")  # but a move's column is the arc leaving j


# ---------------------------------------------------------------------------
# the one ending

def _finish(model, backend, routes, bound, nodes, start_time, time_limit) -> ExactResult:
    """End an exact run on ``model``, either backend's: what a run does
    with the rest of its limit, its lower bound, its plan and its status.

    ``bound`` is ``None`` for a proven run, whose ``routes`` (1-based, depot
    first and last) are priced by ``evaluate_plan`` and ``optimal`` at their
    objective. Otherwise the run stopped, and ``bound`` is the backend's own
    valid lower bound: the best bound a tree search popped, or 0.0. A
    stopped run builds its start plan, the nearest-node plan, once: its
    plan is ``routes`` if it holds any, else the start plan, and the start
    plan's total is the q-route bound's target whatever plan it holds.
    ``time_limit`` is :func:`check_time_limit`'s float, and the shares of
    it below count from ``start_time``.

    * The lower bound is the largest of ``bound``, :func:`_root_bound` and
      :func:`qroute_bound` toward the start plan's total, run until half
      the limit (``_BOUND_SHARE``).
    * :func:`_polish` takes the plan to a local optimum, until the limit,
      and returns it priced: the run's plan from then on. It applies only
      moves that gain, so it never prices above the plan it started from.
    * If that plan is still above the bound, :func:`_prove` steps up the
      gap between them on the bound's penalties until three quarters of
      the limit (``_PROOF_SHARE``). A proof that finishes makes the run
      ``optimal`` with the plan it returns, and nothing runs after it. A
      plan that meets the bound runs neither the proof nor the iterated
      polish.
    * Only a proof that gives up, at its deadline or its cap, hands the
      rest of the limit to :func:`_iterate`, from the polished plan and
      with the bound, at which it stops: the larger of the bound and the
      one the proof's refuted steps raised. Its plan is the run's: it
      returns its start unless a round priced strictly lower.

    Each phase stops at its share or on its own count, whichever comes
    first; the proof's partition has no count of its own, and completes
    its search or gives up at its clock. Every phase reads the clock often
    (each one's docstring says where); the last to run, a polish, reads it
    before its tour-order gather and each row block (:func:`_best_move`).
    So a run ends at most one gather plus one row block past its limit
    (BENCH_ending.json, ``overshoot_parts_n2000``).
    A run that reaches this point past its limit, as a stopped subset DP
    does, finds every phase's first clock read past its share: it reports
    :func:`_root_bound` and returns its plan as it is.

    A stopped run is ``optimal`` all the same when its plan's total reaches
    the bound within ``_EPS``, with ``lower_bound == objective``, and
    ``feasible_time_limit`` with the bound below the objective if not
    (:class:`ExactResult` says what each means). The clock is read once,
    after pricing."""
    instance, m, window = model.instance, model.m, (model.min_customers, model.max_customers)
    if bound is None:
        plan = evaluate_plan(instance, routes)
    else:
        start = nearest_node(instance, m)
        dual, penalty = qroute_bound(instance, m, *window, start.total_distance,
                                     start_time + _BOUND_SHARE * time_limit)
        bound = max(bound, _root_bound(instance.matrix, m), dual)
        deadline = start_time + time_limit
        plan = _polish(instance, routes or start.routes, *window, deadline)
        if plan.total_distance > bound + _EPS:
            proven, raised = _prove(instance, m, *window, penalty, plan, bound,
                                    start_time + _PROOF_SHARE * time_limit)
            if proven is not None:
                plan, bound = proven, None
            else:
                bound = max(bound, raised)
                plan = _iterate(instance, plan, *window, deadline, bound)
    if bound is None or plan.total_distance <= bound + _EPS:
        status, bound = SolveStatus.OPTIMAL, plan.total_distance
    else:
        status = SolveStatus.FEASIBLE_TIME_LIMIT
    return ExactResult(status, plan, plan.total_distance, bound, nodes,
                       time.perf_counter() - start_time, backend)
