"""Span tracer that times mtspkit's layers from outside the package.

``Tracer.install()`` wraps each traced public function and rebinds every
attribute of the mtspkit modules that refers to it: the defining module's
global, the same function imported into a sibling module, the entries of
``heuristics.ALGORITHMS`` and ``Instance.__post_init__``. Callers look these
attributes up at call time, so every call is timed. ``uninstall()`` puts
each original back.

Spans are kept in memory, each with its parent and the request it belongs
to, and written out by ``dump()``. A span's self time is its duration minus
the time its child spans cover. A request marked with ``set_aside()`` (one
that stopped at a time limit, so its work depends on the host's speed)
keeps its spans, but its times and counts leave the per-layer totals. Consecutive calls of one function under
the same parent with no children of their own (the completion bound inside
one search) are merged into one record with a call count, so memory stays
bounded by the number of distinct call sites, not calls.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import mtspkit
from mtspkit import bench, cli, distlaw, exact, heuristics, instance, kernels

MODULES = (mtspkit, instance, kernels, heuristics, exact, distlaw, bench, cli)


def _scans(result):
    return result[-1]


def _nbytes(result):
    return result.nbytes


# (layer, owner, attribute, counter name, counter from the return value)
TARGETS = (
    ("instance.matrix", instance, "euclidean_matrix", "instance.matrix_bytes", _nbytes),
    ("instance.validate", instance.Instance, "__post_init__", None, None),
    ("instance.parse", instance, "parse_tsplib", None, None),
    ("instance.generate", instance, "generate_uniform_instance", None, None),
    ("instance.evaluate", instance, "evaluate_plan", None, None),
    ("kernels.nearest", kernels, "nearest_order", "kernels.scans", _scans),
    ("kernels.closest", kernels, "closest_order", "kernels.scans", _scans),
    ("heuristics", heuristics, "nearest_node", None, None),
    ("heuristics", heuristics, "closest_vehicle", None, None),
    ("exact.build", exact, "build_model", None, None),
    ("exact.search", exact, "solve_exact", None, None),
    ("exact.bound", exact, "completion_bound", None, None),
    ("exact.check", exact, "check_solution", None, None),
    ("distlaw.mc", distlaw, "simulate_min_dist", None, None),
    ("bench.experiment", bench, "run_experiment", None, None),
    ("bench.law", bench, "law_pipeline", None, None),
    ("bench.csv", bench, "summary_to_csv", None, None),
    ("bench.csv", bench, "law_report_to_csv", None, None),
)

_ID, _PARENT, _NAME, _REQUEST, _START, _END, _CALLS, _SELF, _LEAF = range(9)


class Tracer:
    def __init__(self):
        # per-layer totals over the requests not set aside
        self.self_s = defaultdict(float)  # layer -> summed self time
        self.total_s = defaultdict(float)  # layer -> summed duration
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []  # finished span records, see the _ID.. indices
        self.set_aside_requests = set()  # ids of the requests set aside
        self._stack = []  # open frames: [id, name, start, child time, has children]
        self._ids = itertools.count(1)
        self._request = 0
        self._set_aside = False
        self._rebound = []  # (owner, key, original, is_mapping)

    # -- spans ----------------------------------------------------------------

    def _open(self, name):
        frame = [next(self._ids), name, time.perf_counter(), 0.0, False]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child, has_children = frame
        duration = end - start
        own = duration - child
        self.self_s[name] += own
        self.total_s[name] += duration
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        parent_id = 0
        if parent is not None:
            parent[3] += duration
            parent[4] = True
            parent_id = parent[0]
        last = self.spans[-1] if self.spans else None
        if (not has_children and last is not None and last[_LEAF]
                and last[_NAME] == name and last[_PARENT] == parent_id):
            last[_END] = end
            last[_CALLS] += 1
            last[_SELF] += own
            return
        self.spans.append([span_id, parent_id, name, self._request, start, end, 1, own,
                           not has_children])

    @contextmanager
    def span(self, name):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    @contextmanager
    def request(self, name):
        """A root span for one request; spans inside it carry its id."""
        totals = (self.self_s, self.total_s, self.calls, self.counts)
        before = [dict(t) for t in totals]
        outer = self._request
        frame = self._open(name)
        self._request = frame[0]
        self._set_aside = False
        try:
            yield
        finally:
            self._close(frame)
            self._request = outer
            if self._set_aside:
                self.set_aside_requests.add(frame[0])
                for total, old in zip(totals, before):
                    total.clear()
                    total.update(old)

    def set_aside(self):
        """Leave the current request out of the per-layer totals."""
        self._set_aside = True

    def _wrap(self, layer, fn, counter, count):
        open_, close = self._open, self._close
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame)
            if counter is not None:
                counts[counter] += count(result)
            return result

        return traced

    # -- rebinding ------------------------------------------------------------

    def install(self):
        if self._rebound:
            raise RuntimeError("tracer already installed")
        for layer, owner, attr, counter, count in TARGETS:
            original = vars(owner)[attr]
            wrapper = self._wrap(layer, original, counter, count)
            owners = [owner] if isinstance(owner, type) else MODULES
            for mod in owners:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebound.append((mod, key, original, False))
                        setattr(mod, key, wrapper)
            for key, value in list(heuristics.ALGORITHMS.items()):
                if value is original:
                    self._rebound.append((heuristics.ALGORITHMS, key, original, True))
                    heuristics.ALGORITHMS[key] = wrapper

    def uninstall(self):
        while self._rebound:
            owner, key, original, is_mapping = self._rebound.pop()
            if is_mapping:
                owner[key] = original
            else:
                setattr(owner, key, original)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- output ---------------------------------------------------------------

    def dump(self, path):
        """Write the span records as JSON lines (times relative to the first span)."""
        origin = min((rec[_START] for rec in self.spans), default=0.0)
        with open(path, "w") as out:
            for rec in sorted(self.spans, key=lambda r: r[_START]):
                out.write(json.dumps({
                    "id": rec[_ID], "parent": rec[_PARENT], "name": rec[_NAME],
                    "request": rec[_REQUEST], "start_s": rec[_START] - origin,
                    "end_s": rec[_END] - origin, "calls": rec[_CALLS],
                    "self_s": rec[_SELF],
                    "set_aside": rec[_REQUEST] in self.set_aside_requests,
                }) + "\n")


def bindings():
    """Every (owner, key) -> value that the tracer may rebind, for restore checks."""
    snap = {}
    for mod in MODULES:
        for key, value in vars(mod).items():
            if callable(value):
                snap[(mod.__name__, key)] = value
    for key, value in heuristics.ALGORITHMS.items():
        snap[("ALGORITHMS", key)] = value
    snap[("Instance", "__post_init__")] = vars(instance.Instance)["__post_init__"]
    return snap
