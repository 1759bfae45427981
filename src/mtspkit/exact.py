"""Exact solving of the node-balanced mTSP: the model, the subset DP, the
q-route bound and proof, and the tree search.

Each rule is stated once, in the docstring of the function that owns it:

* :func:`solve` is the one exact entry point; it picks the backend by
  instance size alone (``ORACLE_MAX_N``).
* :func:`build_model`, :func:`check_window` and :func:`check_time_limit`
  say which windows and limits a run accepts.
* :func:`check_solution` is the one statement of the model, the
  node-balanced MTZ program of Kara & Bektas (2006) with the route-size
  window [K, L] = [``min_customers``, ``max_customers``].
* :class:`ExactResult` says what a status, a bound and a gap mean.
* :func:`brute_force_oracle` is the subset DP up to ``ORACLE_MAX_N``.
* :func:`_finish` ends every run on either backend: it owns a stopped
  run's lower bound, the shares of the limit, the overshoot and the
  choice of plan and status.
* :func:`qroute_bound` is the Lagrangian q-route bound and its stop rule;
  it returns the bound and its λ.
* :func:`_prove` is the proof: the routes inside the gap
  (:func:`_route_pool`), partitioned (:func:`_partition`).
* :func:`_polish` (moves priced by :func:`_best_move`) and :func:`_iterate`
  (kicks by :func:`_kick`) are the local search and the iterated local
  search.
* :func:`solve_exact` is the best-first tree search, which only direct
  calls at up to ``ORACLE_MAX_N`` nodes reach; above that it is
  :func:`_finish` alone.
"""

from __future__ import annotations

import gc
import itertools
import time
from dataclasses import dataclass
from enum import Enum
from heapq import heappush, heappop

import numpy as np

from .heuristics import InfeasibleModelError, nearest_node
from .instance import (
    Instance, RoutePlan, _block_rows, evaluate_plan, left_fold, rng_from_seed,
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
    it did, or every phase of the ending stopped on its own count first
    (the q-route bound's stop rule, the proof's ``_POOL_CAP``, the iterated
    polish's ``_STALL_ROUNDS``) and the run returned before its limit. A
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


def check_time_limit(time_limit: float | None, n: int = 0) -> None:
    """Reject a time limit that is not positive, NaN included; ``None`` and
    ``inf`` are no limit. Every run that takes a limit checks it here.

    An exact run passes its instance's ``n`` nodes, and above
    ``ORACLE_MAX_N`` it must have a finite limit: the run there is the
    ending of :func:`_finish`, whose phases run until shares of the limit.
    Under ``inf`` every share is ``inf`` and every phase still ends on its
    own count (the bound's ``_EPS``/2 stop, the polish's local optimum,
    ``_POOL_CAP``, ``_STALL_ROUNDS``); the refusal is for cost: the q-route
    bound alone would run 0.79-10.7 s at n = 100-200
    (BENCH_qroute_step.json, ``no_deadline_s``). ``None`` would fail in
    :func:`_finish`'s share arithmetic. A heuristic run, which reads no
    limit, passes no ``n``."""
    if time_limit is not None and not time_limit > 0:
        raise ValueError("time_limit must be positive")
    if n > ORACLE_MAX_N and (time_limit is None or time_limit == np.inf):
        raise ValueError(f"time_limit must be finite above {ORACLE_MAX_N} nodes")


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
    the limit (:func:`check_time_limit`, :func:`solve_exact`'s first
    statement), and both before any work.
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
    check_time_limit(time_limit, n)
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

    stop_at = np.inf if time_limit is None else start_time + _SEARCH_SHARE * time_limit
    most_open = np.inf if time_limit is None else _OPEN_PER_S * time_limit
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
    :func:`_finish` no plan and a bound of 0.0, with no time left for the
    ending's phases.
    """
    n = instance.n
    if n > ORACLE_MAX_N:
        raise ValueError(f"the subset DP oracle is limited to n <= {ORACLE_MAX_N}")
    model = build_model(instance, m, min_customers, max_customers)  # window check
    check_time_limit(time_limit, n)
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
                return _finish(model, "subset_dp", None, 0.0, labels, start_time, time_limit)
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


def qroute_bound(instance, m, min_customers, max_customers, deadline) -> tuple[float, np.ndarray]:
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
    Polyak's length toward the nearest-node plan's total T (a plan that
    fits every admitted window). The step multiplier μ starts at 1 and
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

    Returns ``(bound, penalty)``, with ``penalty`` the λ of the step that
    gave the bound's value (all zero before the first step's value rises
    above 0.0).
    """
    matrix = instance.matrix
    k = instance.n - 1
    lo, hi = _route_sizes(k, m, min_customers, max_customers)
    into = matrix[1:, 1:].T.copy()  # into[v, u]: customer u to customer v
    leave, back = matrix[0, 1:], matrix[1:, 0]
    target = nearest_node(instance, m).total_distance
    # labels[q - 1], links[q - 1]: a step's q-customer labels and their
    # predecessors (p1, p2); closing[q]: the best q-route
    labels, links = np.empty((hi, k)), np.empty((hi, 2, k), dtype=np.intp)
    link = memoryview(links)  # link[q - 1, i, v]: links' entries as Python ints
    table, closing = _cover_table(k, lo, hi), np.full(hi + 1, np.inf)
    penalty = best_penalty = np.zeros(k)
    best, step, stall = 0.0, 1.0, 0
    while True:
        if not _walk_labels(into, leave, penalty, deadline, labels, links):
            return best, best_penalty  # cut off at the deadline
        shut = labels[lo - 1:] + back
        ends = shut.argmin(1).tolist()  # ends[q - lo]: the customer the best q-route closes from
        closing[lo:] = shut.min(1)
        covers = _covers(closing, lo, table, m)
        value = float(covers[-1, k]) + left_fold(penalty.tolist())
        if value > best + _EPS * max(1.0, best):
            stall = 0
        else:
            stall += 1
            if stall == _BOUND_STALL:
                step, stall = step * _BOUND_SHRINK, 0
        if value > best:
            best, best_penalty = value, penalty
        if _BOUND_STALL / (1 - _BOUND_SHRINK) * step * (target - best) <= _EPS / 2:
            return best, best_penalty  # no later step can raise it by _EPS / 2
        # read the relaxed optimum back: its route sizes, then each walk
        visits, close = [0] * k, closing.tolist()
        s = k
        for cover in covers[-2::-1].tolist():
            q = min(range(lo, min(hi, s) + 1), key=lambda q: cover[s - q] + close[q])
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
    ``into`` is not contiguous, as ``_route_pool``'s view is)."""
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


def _covers(closing, lo, table, m):
    """The knapsack over route counts: ``covers[r, s]`` is the cheapest r
    routes of ``lo``..hi customers and ``s`` customers in total, a route
    of q customers costing ``closing[q]``; r = 0..m and s = 0..k, with
    hi and k read off ``table`` (:func:`_cover_table`). Each route count
    is one gather, add and min over the table."""
    k = table.shape[1] - 1
    covers = np.full((m + 1, k + 2), np.inf)  # column k + 1 stays inf
    covers[0, 0] = 0.0
    sizes = closing[lo:, None]
    for r in range(1, m + 1):
        sums = covers[r - 1][table]
        sums += sizes
        sums.min(0, out=covers[r, :k + 1])
    return covers[:, :k + 1]


# ---------------------------------------------------------------------------
# the proof of a stopped run: every route inside the q-route gap, then a partition

_POOL_CAP = 1 << 19  # entries the proof's labels, arc lists or failure memo hold before it gives up


def _prove(instance, m, min_customers, max_customers, penalty, plan, deadline):
    """Prove ``plan`` optimal, or find the optimum below it, by the bounding
    and enumeration of Baldacci, Christofides & Mingozzi (2008) on q-route
    penalties ``penalty``. Any λ is valid: a converged one, one cut off by
    its deadline, or zeros; the closer its bound to UB, the smaller the pool.
    Returns the optimal ``RoutePlan``, ``plan`` itself unless the partition
    finds one that prices below it, or ``None`` once the clock passes
    ``deadline`` or the enumeration or the partition passes ``_POOL_CAP``.

    A route R of q customers has the reduced cost rc(R) = c(R) − λ(R), and
    a plan's total is its routes' reduced costs plus Σλ. The other m − 1
    routes of a plan are 2-cycle-free walks over the other k − q
    customers, so their reduced costs sum to at least G(k − q), the
    knapsack (:func:`_covers`) over the cheapest such q-route of each size.
    A plan of total at most UB = ``plan.total_distance`` therefore holds
    only routes with rc(R) ≤ T(q) = UB − Σλ − G(k − q) + slack, and
    :func:`_route_pool` enumerates every one of them. The slack, 1e-7 · UB,
    is the proof margin: it covers the rounding of the float sums (a
    relative error near n · 2⁻⁵³ each) many times over, and it only lets
    more routes and branches through. So no plan prices below the one
    returned by more than that rounding. Every plan cheaper than UB is then
    a partition of the pool's customer sets, each in its cheapest order,
    and :func:`_partition` finds the cheapest one below UB, if any.
    """
    k = instance.n - 1
    upper = plan.total_distance
    slack = 1e-7 * upper
    budget = upper - left_fold(penalty.tolist())  # UB − Σλ: what the routes' rc may sum to
    held = _route_pool(instance, m, min_customers, max_customers, penalty, budget, slack,
                       deadline)
    if held is None:
        return None
    pool, covers = held
    paths = _partition(pool, covers, k, m, budget, slack, deadline)
    if paths is None:
        return None
    if not paths:
        return plan
    cheaper = evaluate_plan(instance, [(1, *[v + 2 for v in path], 1) for path in paths])
    return cheaper if cheaper.total_distance < upper else plan


def _route_pool(instance, m, min_customers, max_customers, penalty, budget, slack, deadline):
    """Every elementary route R of q customers with rc(R) ≤ T(q) = ``budget``
    − G(k − q) + ``slack``, in its cheapest order (:func:`_prove`), as
    ``(pool, covers)``: ``pool`` maps a customer set (bit v: 0-based
    customer v, node v + 1) to ``(rc, customers in order)`` and ``covers``
    is the q-route knapsack G reads, as lists. ``None`` once the clock
    passes ``deadline`` or the labels and arc lists pass ``_POOL_CAP``.

    :func:`_walk_labels` on the transposed arcs gives, for every customer
    v and size j, the cheapest reduced 2-cycle-free walk of j customers
    from v to the depot; its closing q-routes give G. A depth-first search
    from the depot then extends partial routes one customer at a time,
    each customer's successors in ascending reduced arc cost (a list built
    on its first use), and drops a partial route whose cost plus its
    cheapest completion passes T(q) at every size q it could close at. A
    label is pushed only when it is cheaper than every earlier label with
    its (customer set, last customer), and per customer set the pool keeps
    the cheapest order that closes under T. The stack is last in, first
    out, so the labels popped between a label's push and its pop descend
    from its younger siblings, whose customer sets each hold a customer
    its set lacks: no label with its key is pushed in between, and no
    popped label is beaten by a later one. The clock is
    read once per backward layer, once per size while the completion
    bounds are tabled, and every 1024 popped labels."""
    clock = time.perf_counter
    matrix = instance.matrix
    k = instance.n - 1
    lo, hi = _route_sizes(k, m, min_customers, max_customers)
    # tails[j - 1, v]: the cheapest walk of j customers from v to the depot
    tails, links = np.empty((hi, k)), np.empty((hi, 2, k), dtype=np.intp)
    if not _walk_labels(matrix[1:, 1:], matrix[1:, 0], penalty, deadline, tails, links):
        return None
    closing = np.full(hi + 1, np.inf)
    closing[lo:] = (tails[lo - 1:] + matrix[0, 1:]).min(1)
    covers = _covers(closing, lo, _cover_table(k, lo, hi), m)
    cap = np.full(hi + 1, -np.inf)  # cap[q]: T(q)
    cap[lo:] = budget - covers[m - 1][k - np.arange(lo, hi + 1)] + slack
    # need[s][v]: a partial route of s customers ending at v survives while
    # its cost plus need[s][v] is at most 0, the best over the sizes q >= s
    # it may close at; v's penalty is added back, as the partial cost holds it
    need, floors = [None], [None]
    for s in range(1, hi + 1):
        if clock() > deadline:
            return None
        q = np.arange(max(s, lo), hi + 1)
        row = (tails[q - s] - cap[q, None]).min(0) + penalty
        need.append(row.tolist())
        floors.append(float(row.min()))
    cap, back = cap.tolist(), matrix[1:, 0].tolist()
    reduced = matrix[1:, 1:] - penalty  # reduced[v, w]: v to w, less w's penalty
    succ = {}  # v -> [(reduced arc, w)] in ascending order
    shift = k.bit_length()  # a label's key: its customer set, then its last customer
    seen = {}
    stack = []  # (cost, customer set, last customer, customers in order)
    for w, cost in enumerate((matrix[0, 1:] - penalty).tolist()):
        if cost + need[1][w] <= 0:
            seen[1 << w << shift | w] = cost
            stack.append((cost, 1 << w, w, (w,)))
    pool = {}
    popped = 0
    while stack:
        popped += 1
        if not popped & 1023 and clock() > deadline:
            return None
        cost, mask, v, path = stack.pop()
        size = len(path)
        if size >= lo and cost + back[v] <= cap[size]:
            kept = pool.get(mask)
            if kept is None or cost + back[v] < kept[0]:
                pool[mask] = (cost + back[v], path)
        if size == hi:
            continue
        row = succ.get(v)
        if row is None:
            order = np.argsort(reduced[v], kind="stable")
            row = succ[v] = list(zip(reduced[v, order].tolist(), order.tolist()))
        row_need, most = need[size + 1], -cost - floors[size + 1]
        for arc, w in row:  # v's own entry is inf - λ_v, so it ends the scan
            if arc > most:
                break
            bit = 1 << w
            if mask & bit:
                continue
            extended = cost + arc
            if extended + row_need[w] > 0:
                continue
            key = (mask | bit) << shift | w
            old = seen.get(key)
            if old is None or extended < old:
                seen[key] = extended
                stack.append((extended, mask | bit, w, path + (w,)))
        if len(seen) + k * len(succ) > _POOL_CAP:
            return None
    return pool, [cover.tolist() for cover in covers]


def _partition(pool, covers, k, m, budget, slack, deadline):
    """The cheapest m routes of ``pool`` (:func:`_route_pool`'s) that
    partition the k customers with reduced costs summing below ``budget``:
    their customer orders, ``[]`` if there are none, ``None`` once the
    clock passes ``deadline`` or the memo holds more than ``_POOL_CAP``
    entries.

    A depth-first search covers the lowest uncovered customer with each
    pool route that holds it and no covered one, in ascending reduced
    cost. A branch is cut when its cost, plus the cheapest q-route cover
    (``covers``) of the rest by the routes left, reaches the cheapest sum
    so far (``budget`` at first) plus ``slack``; the last route is looked
    up by its customer set. A memo records each (uncovered customers,
    routes left) whose search found nothing, with the largest budget it
    failed under, and a branch that meets it with no more is cut. The
    clock and the memo's size are read every 1024 branches."""
    clock = time.perf_counter
    by_low = [[] for _ in range(k)]  # the pool's routes by their lowest customer
    for mask, (rc, path) in pool.items():
        by_low[(mask & -mask).bit_length() - 1].append((rc, mask, path))
    for routes in by_low:
        routes.sort()
    floors = [min(cover) for cover in covers]
    cheapest, paths = budget, []  # the cheapest sum below budget, and its routes' orders
    failed = {}
    chosen = []
    branches = 0

    def search(uncovered, left, spent):
        nonlocal branches, cheapest, paths
        if left == 1:  # the one route that covers the rest, if the pool holds it
            last = pool.get(uncovered)
            if last is not None and spent + last[0] < cheapest:
                cheapest, paths = spent + last[0], [*chosen, last[1]]
            return True
        key, found, room = (uncovered, left), cheapest, cheapest - spent
        if failed.get(key, -np.inf) >= room:
            return True
        size = uncovered.bit_count()
        for rc, mask, path in by_low[(uncovered & -uncovered).bit_length() - 1]:
            if rc + floors[left - 1] >= cheapest - spent + slack:
                break
            if mask & ~uncovered:
                continue
            branches += 1
            if not branches & 1023 and (clock() > deadline or len(failed) > _POOL_CAP):
                return False
            if rc + covers[left - 1][size - mask.bit_count()] >= cheapest - spent + slack:
                continue
            chosen.append(path)
            if not search(uncovered ^ mask, left - 1, spent + rc):
                return False
            chosen.pop()
        if cheapest == found:  # nothing below room: a failure at this budget
            failed[key] = max(failed.get(key, -np.inf), room)
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


def _polish(matrix, routes, min_customers, max_customers, deadline):
    """Best-improvement local search of ``routes`` (1-based, depot first and
    last), returned in the same form.

    Each pass prices every move of three kinds (:func:`_best_move`) and
    applies the single best one that gains. Every route keeps
    ``min_customers`` to ``max_customers`` customers. The polish stops when
    no move gains or when ``_best_move`` finds the clock past ``deadline``,
    and keeps the plan it holds.
    """
    seqs = [[v - 1 for v in r[1:-1]] for r in routes]
    while True:
        move = _best_move(matrix, seqs, min_customers, max_customers, deadline)
        if move is None:
            break
        kind, ra, i, rb, j = move
        if kind == "reverse":  # ra == rb, i < j
            seqs[ra][i : j + 1] = reversed(seqs[ra][i : j + 1])
        elif kind == "move":
            seqs[rb].insert(j, seqs[ra].pop(i))
        else:
            seqs[ra][i], seqs[rb][j] = seqs[rb][j], seqs[ra][i]
    return [(1, *[v + 1 for v in s], 1) for s in seqs]


def _iterate(instance, routes, min_customers, max_customers, deadline, bound):
    """Iterated local search from ``routes``, a local optimum of
    :func:`_polish` (1-based, depot first and last); returns the best plan
    it saw as the ``RoutePlan`` it priced.

    Each round kicks the current plan (:func:`_kick`) and polishes the
    result with ``_polish`` to a local optimum. A plan priced by
    ``evaluate_plan`` below the best by more than ``_EPS`` times its total
    is the new best. A plan no dearer than the current one replaces it, and
    a dearer one does with probability ``_ACCEPT_WORSE``. The kicks and the
    acceptance draws come from one generator on ``_KICKS``, so the rounds
    repeat. The search stops after ``_STALL_ROUNDS`` rounds without a new
    best, when no kick exists, once the best plan is within ``_EPS`` of
    ``bound`` (a valid lower bound of the run, which proves that plan
    optimal; -inf proves nothing), or when the clock, read before
    each round, is past ``deadline``; the round's polish also stops at it.
    Each is checked before the first round too.
    """
    rng = rng_from_seed(_KICKS)
    best = current = evaluate_plan(instance, routes)
    stall = 0
    while (stall < _STALL_ROUNDS and best.total_distance > bound + _EPS
           and time.perf_counter() <= deadline):
        kicked = _kick(current.routes, rng)
        if kicked is None:
            break
        plan = evaluate_plan(instance, _polish(instance.matrix, kicked, min_customers,
                                               max_customers, deadline))
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


def _best_move(d, seqs, min_customers, max_customers, deadline):
    """The best gaining move on 0-based customer sequences, or ``None``:
    also once the clock, read before the tour-order gather and before each
    row block, is past ``deadline``.

    The plan is read as one tour through every route, a depot copy between
    two routes, and the matrix is gathered once into tour order, so every
    node's neighbours are the next rows and columns. Three kinds of move
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
    route, index, route, index)``; a ``move`` names the customer's index
    and the index it is inserted at.
    """
    if time.perf_counter() > deadline:
        return None
    tour = np.array([0, *itertools.chain.from_iterable([*s, 0] for s in seqs)])
    depot = tour == 0
    route = np.cumsum(depot) - 1  # of each position, and of the arc leaving it
    starts = np.flatnonzero(depot)
    e = d[np.ix_(tour, tour)]  # e[p, q] = d[tour[p], tour[q]]
    # a node to itself: read by masked-out moves only, so zeroed to keep them finite
    e[np.ix_(starts, starts)] = 0.0
    np.fill_diagonal(e, 0.0)
    et = e.T.copy()  # so that columns of e are read as rows
    arc = np.diagonal(e, 1)  # arc[p]: position p to p + 1
    # per interior position p = 1..T-2, at index p - 1
    cust, r = ~depot[1:-1], route[1:-1]
    at = np.arange(r.size)
    into, out = arc[:-1], arc[1:]
    # turn[j] - turn[i]: the change in cost of reading arcs i..j backwards
    turn = np.concatenate(([0.0], np.cumsum(np.diagonal(e, -1) - arc)))[1:-1]
    sizes = np.array([len(s) for s in seqs])
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
    kind, i, j = found
    ra, ki = int(r[i]), i - int(starts[r[i]])  # position i + 1, after the depot
    if kind == "move":  # j is an arc: insert after its tail
        rb = int(route[j])
        return kind, ra, ki, rb, j - int(starts[rb])
    return kind, ra, ki, int(r[j]), j - int(starts[r[j]])


# ---------------------------------------------------------------------------
# the one ending

def _finish(model, backend, routes, bound, nodes, start_time, time_limit) -> ExactResult:
    """End an exact run on ``model``, either backend's: what a run does
    with the rest of its limit, its lower bound, its plan and its status.

    ``bound`` is ``None`` for a proven run, whose ``routes`` (1-based, depot
    first and last) are priced by ``evaluate_plan`` and ``optimal`` at their
    objective. Otherwise the run stopped holding ``routes`` or, if
    ``None``, the nearest-node plan, and ``bound`` is the backend's own
    valid lower bound: the best bound a tree search popped, or 0.0. The
    shares of ``time_limit`` below count from ``start_time``.

    * The lower bound is the largest of ``bound``, :func:`_root_bound` and
      :func:`qroute_bound` run until half the limit (``_BOUND_SHARE``).
    * :func:`_polish` takes the plan to a local optimum, until the limit;
      the polished plan replaces the held one unless that prices lower.
    * If that plan is still above the bound, :func:`_prove` runs on the
      bound's penalties until three quarters of the limit
      (``_PROOF_SHARE``). A proof that finishes makes the run ``optimal``
      with the plan it returns, and nothing runs after it.
    * A proof that gives up, at its deadline or its cap, hands the rest of
      the limit to :func:`_iterate`, from the polished plan and with the
      bound, at which it stops. Its plan replaces the held one unless that
      prices lower.

    Each phase stops at its share or on its own count, whichever comes
    first. Every phase reads the clock often (each one's docstring says
    where); the last to run, a polish, reads it before its tour-order
    gather and each row block (:func:`_best_move`). So a run ends at most
    one gather plus one row block past its limit (BENCH_ending.json,
    ``overshoot_parts_n2000``).
    A run that reaches this point past its limit, as a stopped subset DP
    does, finds every phase's first clock read past its share: it reports
    :func:`_root_bound` and returns its plan as it is.

    A stopped run is ``optimal`` all the same when its plan's total reaches
    the bound within ``_EPS``, with ``lower_bound == objective``, and
    ``feasible_time_limit`` with the bound below the objective if not
    (:class:`ExactResult` says what each means). The clock is read once,
    after pricing."""
    instance, m, window = model.instance, model.m, (model.min_customers, model.max_customers)
    plan = evaluate_plan(instance, routes) if routes else nearest_node(instance, m)
    if bound is not None:
        dual, penalty = qroute_bound(instance, m, *window,
                                     start_time + _BOUND_SHARE * time_limit)
        bound = max(bound, _root_bound(instance.matrix, m), dual)
        deadline = start_time + time_limit
        polished = _polish(instance.matrix, plan.routes, *window, deadline)
        once = evaluate_plan(instance, polished)
        if once.total_distance <= plan.total_distance:  # never above the incumbent
            plan = once
        proven = None
        if plan.total_distance > bound + _EPS:
            proven = _prove(instance, m, *window, penalty, plan,
                            start_time + _PROOF_SHARE * time_limit)
        if proven is not None:
            plan, bound = proven, None
        else:
            polished = _iterate(instance, polished, *window, deadline, bound)
            if polished.total_distance <= plan.total_distance:
                plan = polished
    if bound is None or plan.total_distance <= bound + _EPS:
        status, bound = SolveStatus.OPTIMAL, plan.total_distance
    else:
        status = SolveStatus.FEASIBLE_TIME_LIMIT
    return ExactResult(status, plan, plan.total_distance, bound, nodes,
                       time.perf_counter() - start_time, backend)
