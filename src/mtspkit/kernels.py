"""Hot construction kernels for the greedy route builders.

There is one numpy kernel per heuristic. Each step of a kernel does a few
contiguous whole-array operations on buffers allocated once per call:

* ``nearest_order`` adds a penalty vector (0 for open nodes, ``inf`` for
  taken ones and the depot) to the current node's row, writing into one
  reused row buffer, and takes that row's argmin.
* ``closest_order`` keeps an (m, n) candidate array whose row k holds
  vehicle k's penalised distances; a vehicle at its quota has a row of
  ``inf``. One argmin over the whole array picks the (vehicle, node) pair;
  row-major order breaks ties to the smallest vehicle, then the smallest
  node. The chosen node's column is set to ``inf`` and only the moved
  vehicle's row is rebuilt.

Both kernels take a float64 distance matrix whose diagonal holds ``inf``
(the never-selectable sentinel), whose other entries are neither NaN nor
``-inf`` (``Instance`` guarantees both), and an int64 quota vector summing
to ``n - 1``. Besides the visit order they return the number of candidate
(position, node) pairs a full scan would examine, which the tests use to
bound the scan work.
"""

import math

import numpy as np


def nearest_order(dist, quotas):
    """Sequential route building: always hop to the nearest unvisited node.

    Ties break to the smallest node index. Returns ``(order, scans)`` where
    ``order`` lists the 0-based customers in visit order; route k owns the
    slice of length ``quotas[k]``.
    """
    n = dist.shape[0]
    order = np.empty(n - 1, np.int64)
    penalty = np.zeros(n)
    penalty[0] = np.inf
    row = np.empty(n)
    left = n - 1
    scans = 0
    pos = 0
    for quota in quotas.tolist():
        here = 0
        for _ in range(quota):
            np.add(dist[here], penalty, out=row)
            t = int(row.argmin())  # first minimum = smallest node index
            if not math.isfinite(row[t]):
                raise ValueError("argmin scan found no selectable node")
            scans += left
            left -= 1
            penalty[t] = np.inf
            order[pos] = t
            pos += 1
            here = t
    return order, scans


def closest_order(dist, quotas):
    """Simultaneous route building: globally cheapest (vehicle, node) next.

    Vehicles at quota drop out of the scan. Ties break to the smallest
    vehicle index, then the smallest node index. Returns
    ``(order, vehicle, scans)``.
    """
    n = dist.shape[0]
    m = quotas.shape[0]
    order = np.empty(n - 1, np.int64)
    vehicle = np.empty(n - 1, np.int64)
    room = quotas.tolist()
    penalty = np.zeros(n)
    penalty[0] = np.inf
    cand = np.empty((m, n))
    np.add(dist[0], penalty, out=cand)
    cand[quotas <= 0] = np.inf
    active = int(np.count_nonzero(quotas > 0))
    scans = 0
    for step in range(n - 1):
        k, t = divmod(int(cand.argmin()), n)  # row-major: vehicle first, then node
        if not math.isfinite(cand[k, t]):
            raise ValueError("argmin scan found no selectable node")
        scans += active * (n - 1 - step)
        order[step] = t
        vehicle[step] = k
        penalty[t] = np.inf
        cand[:, t] = np.inf
        room[k] -= 1
        if room[k]:
            np.add(dist[t], penalty, out=cand[k])
        else:
            cand[k] = np.inf
            active -= 1
    return order, vehicle, scans
