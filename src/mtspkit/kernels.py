"""Hot construction kernels for the greedy route builders.

There is one numpy kernel per heuristic. A step's time is interpreter and
numpy call overhead more than arithmetic, so each step makes only the calls
the algorithm needs, on buffers and views built once per call, and keeps
its bookkeeping in Python lists:

* ``nearest_order`` adds a penalty vector (0 for open nodes, ``inf`` for
  taken ones and the depot) to the current node's row, writing into one
  reused row buffer, and takes that row's argmin. Per step: one add, one
  argmin, one penalty store and one row view.
* ``closest_order`` keeps an (m, n) candidate array whose row k holds
  vehicle k's penalised distances; a vehicle at its quota has a row of
  ``inf``. One argmin over the whole array picks the (vehicle, node) pair;
  row-major order breaks ties to the smallest vehicle, then the smallest
  node. The chosen node's column is filled with ``inf`` through a column
  view made once per call, and only the moved vehicle's row is rebuilt, in
  place through its row view.

No step reads the chosen value back: column 0 (the depot) is ``inf`` in
every candidate row, so the first minimum lands on index 0 exactly when no
finite candidate is left.

Both kernels take a float64 distance matrix whose diagonal holds ``inf``
(the never-selectable sentinel), whose other entries are neither NaN nor
``-inf`` (``Instance`` guarantees both), and an int64 quota vector summing
to ``n - 1``. Both return ``(routes, scans)``: ``routes[k]`` is route k's
customers as node labels (matrix index + 1) in visit order, depot left out,
and ``scans`` is the number of candidate (position, node) pairs a full scan
would examine, which the tests use to bound the scan work. A scan set that
stays in play for j steps examines ``j(n-1) - j(j-1)/2`` pairs, so the count
is a closed form, not a per-step sum. The tests compare both kernels' routes,
tie-breaks and scan counts with plain loop oracles.
"""

import numpy as np


def _scans(n, steps):
    """Pairs examined by one scan set over ``steps`` steps: n-1, n-2, ... nodes."""
    return steps * (n - 1) - steps * (steps - 1) // 2


def nearest_order(dist, quotas):
    """Sequential route building: always hop to the nearest unvisited node.

    Ties break to the smallest node index. Route k takes the next
    ``quotas[k]`` customers; the whole order is shifted to labels in one
    numpy add and cut at the route ends the walk records.
    """
    n = dist.shape[0]
    inf = np.inf
    add = np.add
    penalty = np.zeros(n)
    penalty[0] = inf
    row = np.empty(n)
    argmin = row.argmin
    order = []
    ends = [0]
    for quota in quotas.tolist():
        here = dist[0]
        for _ in range(quota):
            add(here, penalty, row)
            t = argmin()  # first minimum = smallest node index
            if not t:
                raise ValueError("argmin scan found no selectable node")
            penalty[t] = inf
            order.append(t)
            here = dist[t]
        ends.append(len(order))
    labels = (np.array(order, np.int64) + 1).tolist()
    routes = [labels[a:b] for a, b in zip(ends, ends[1:])]
    return routes, _scans(n, len(order))


def closest_order(dist, quotas):
    """Simultaneous route building: globally cheapest (vehicle, node) next.

    Vehicles at quota drop out of the scan. Ties break to the smallest
    vehicle index, then the smallest node index. The step that moves
    vehicle k to a customer appends the customer's label to ``routes[k]``.
    """
    n = dist.shape[0]
    inf = np.inf
    add = np.add
    room = quotas.tolist()
    penalty = np.zeros(n)
    penalty[0] = inf
    cand = np.empty((quotas.shape[0], n))
    add(dist[0], penalty, cand)
    cand[quotas <= 0] = inf
    rows = list(cand)
    cols = list(cand.T)
    argmin = cand.argmin
    # steps each vehicle stays in the scan: until it fills, or to the end
    steps = [n - 1 if r > 0 else 0 for r in room]
    routes = [[] for _ in room]
    for step in range(n - 1):
        k, t = divmod(int(argmin()), n)  # row-major: vehicle first, then node
        if not t:
            raise ValueError("argmin scan found no selectable node")
        routes[k].append(t + 1)
        penalty[t] = inf
        cols[t].fill(inf)
        room[k] -= 1
        if room[k]:
            add(dist[t], penalty, rows[k])
        else:
            rows[k].fill(inf)
            steps[k] = step + 1
    return routes, sum(_scans(n, s) for s in steps)
