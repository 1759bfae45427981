"""The benchmark's three workloads: seeded inputs, passes and output checks.

Every call into mtspkit goes through a module attribute looked up at call
time (``heuristics.nearest_node``, ``exact.solve_exact``, ...), so the
tracer in ``tracer.py`` sees it when it rebinds those attributes.

A workload turns the ``--seed`` into inputs once, untimed. ``run_pass``
then runs one pass over those inputs and returns a :class:`PassResult`:
per-request latencies, one canonical output string per request (compared
across passes and with ``reference.json``), the requests that failed a
check, and plain counts the metrics are built from.

Speed scaling. On a shared 2-CPU Xeon VM the speed swings by up to 1.6x,
in phases of a few seconds; a deterministic solve measured back to back
took 0.55 s in one phase and 0.93 s in the next, in wall and CPU time
alike. Every request
is therefore bracketed by a short fixed calibration (:func:`calibrate`),
and its times are scaled by ``CALIB_REF_S`` over the calibration's mean
time around it: times read as seconds at the speed where the calibration
takes ``CALIB_REF_S``. Raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import math
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from mtspkit import bench, distlaw, exact, heuristics, instance

# --- law: the distance-law reproduction --------------------------------------
LAW_SIZES = tuple(range(50, 501, 50))
LAW_M = tuple(range(2, 8))
LAW_SAMPLES = 10
MC_N = 50
MC_GRID = 100
MC_REPS = 1 << 20  # 64 chunks of 2**14 repetitions

# --- large: big coordinate instances handed over as TSPLIB text ---------------
# Two n=1000 and three n=2000 instances per pass: the median and the tail
# request both fall inside the n=2000 group, away from the gap between sizes.
LARGE_SIZES = (1000, 2000, 1000, 2000, 2000)
LARGE_M = (2, 10)
LARGE_SPAN = 10_000  # integer coordinates in [0, LARGE_SPAN)

# --- exact: proofs on small instances, budgets on two named ones -------------
# One fixed family of instances, drawn from EXACT_FAMILY_SEED; the workload
# seed relabels their customers. Relabelling keeps every optimum (so the
# recorded optima check every seed) and moves the search effort by a few per
# cent, so an instance proven well inside the cap on one seed is proven well
# inside it on all of them. On this family every instance is either proven
# in under half the cap or still unproven at twice the cap (``record.py``
# checks this; reference.json holds the solve times). The n=12 asymmetric
# instances are left out: one needs 25k nodes, within a factor two of any
# cap short enough for the run, so its status would depend on the speed.
EXACT_FAMILY_SEED = 5
EXACT_PROVEN = tuple(
    (n, kind, m) for n in (10, 11) for kind in ("sym", "asym") for m in (2, 3)
)
EXACT_CAPPED = ((12, "sym", 2), (12, "sym", 3), (13, "sym", 3))
EXACT_CAP_S = 2.0
EXACT_BUDGET_S = 1.0
# (bundled name, m, route-size window, published optimum)
EXACT_NAMED = (("bays29", 4, (4, 8), 2603.0), ("eil51", 2, (24, 25), 444.09))
EXACT_GRID = 100

WORKLOADS = ("law", "large", "exact")

# --- speed scaling -------------------------------------------------------------
CALIB_REF_S = 0.0150  # the calibration's time in the host's fast phase (2-CPU Xeon)
_CALIB_BIG = np.random.default_rng(0).random((500, 500, 2))
_CALIB_ROW = np.random.default_rng(1).random(300)


def calibrate() -> float:
    """Seconds a fixed mix of work takes now, best of two: interpreter loops
    with and without allocation (like the search), small-array numpy steps
    (like the kernels) and one large array expression (like the matrix)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(30_000):
            acc += (i * 7) % 13
            table[i & 255] = acc
        heap = []
        pool = frozenset(range(12))
        for i in range(6_000):
            heapq.heappush(heap, (i * 7919 % 1000, i, (i, i + 1), pool - {i % 12}))
            if len(heap) > 200:
                heapq.heappop(heap)
        blocked = np.zeros(_CALIB_ROW.size, bool)
        for _ in range(_CALIB_ROW.size):
            blocked[int(np.argmin(np.where(blocked, np.inf, _CALIB_ROW)))] = True
        np.sqrt((_CALIB_BIG * _CALIB_BIG).sum(axis=2)).sum()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class PassResult:
    kind: str
    traced: bool = False
    time_limited: bool = False  # runs requests under a time limit, so its work varies
    wall_s: float = 0.0  # scaled time of all requests
    raw_s: float = 0.0  # unscaled time of all requests
    unlimited: dict = field(default_factory=dict)  # key -> (scaled, raw), requests no limit stopped
    latency: dict = field(default_factory=dict)  # key -> (scaled, raw) seconds
    scales: list = field(default_factory=list)  # speed scale around each request
    outputs: dict = field(default_factory=dict)  # request key -> canonical output
    deterministic: set = field(default_factory=set)  # keys whose output must repeat
    failures: dict = field(default_factory=dict)  # request key -> reason
    attempted: int = 0
    plans: int = 0
    rss_mb: float = 0.0  # peak resident memory of the process at the end of the pass
    stats: dict = field(default_factory=dict)
    _calib: float = 0.0

    def request(self, key: str, fn, tracer=None):
        """Run one request and book its time; an exception or a failed check
        marks it failed. ``fn`` returns ``(latency, limit)``: the seconds
        that count as its latency (or None), and the time limit it stopped
        at (or None). Under a tracer the request is one root span, so all
        its spans share its id; a request that stopped at its limit is set
        aside from the tracer's per-layer totals."""
        self.attempted += 1
        if not self._calib:
            self._calib = calibrate()
        gc.collect()  # every request starts from the same heap; collection is not its cost
        timed = limit = None
        t0 = time.perf_counter()
        try:
            with tracer.request(key) if tracer else nullcontext():
                timed, limit = fn()
                if tracer and limit is not None:
                    tracer.set_aside()
        except Exception as exc:  # one failed request must not stop the pass
            self.failures[key] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        after = calibrate()
        scale = 2.0 * CALIB_REF_S / (self._calib + after)
        self._calib = after
        self.scales.append(scale)
        self.raw_s += elapsed
        self.wall_s += _scaled(elapsed, scale, limit)
        if limit is None:
            self.unlimited[key] = (elapsed * scale, elapsed)
        if timed is not None:
            self.latency[key] = (_scaled(timed, scale, limit), timed)

    def finish(self):
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self


def _scaled(seconds: float, scale: float, limit=None) -> float:
    """Scale a time to the reference speed. A request that stopped at a time
    limit lasts as long as the limit at any speed, so only the rest scales."""
    if limit is None:
        return seconds * scale
    return min(seconds, limit) + max(seconds - limit, 0.0) * scale


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key))))


class CheckFailed(Exception):
    """An output did not match what the benchmark expects."""


def _expect(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


class FullPasses:
    """A workload whose passes are all full ones, as many as fit the seconds."""

    nominal_pass_s: float

    def schedule(self, seconds: float):
        return ["full"] * max(2, round(seconds / self.nominal_pass_s))


# ---------------------------------------------------------------------------
# law

class Law(FullPasses):
    """The seeded heuristic grid, the law pipeline and the Monte Carlo twin.

    One request per instance size: ``run_experiment`` over that size's row
    of the grid. Cells never share seeds across sizes, so the size rows
    together are the full grid, byte for byte.
    """

    name = "law"
    nominal_pass_s = 4.5

    def __init__(self, seed: int, sizes=LAW_SIZES, samples=LAW_SAMPLES, mc_reps=MC_REPS):
        self.seed = seed
        self.sizes = tuple(sizes)
        self.samples = samples
        self.mc_reps = mc_reps
        self.configs = {
            t: bench.ExperimentConfig(
                sizes=(t,), m_values=LAW_M, samples=samples, grid_max=100,
                base_seed=seed, algorithms=("nearest", "closest"),
            )
            for t in self.sizes
        }

    def inputs_digest(self) -> str:
        return sha256(repr((self.seed, self.sizes, self.samples, self.mc_reps)))

    @staticmethod
    def warm():
        cfg = bench.ExperimentConfig(sizes=(6, 8), m_values=(2, 3, 4), samples=2)
        rows = bench.run_experiment(cfg)
        bench.law_report_to_csv(bench.law_pipeline(rows))
        bench.summary_to_csv(rows)
        distlaw.simulate_min_dist(3, 8, distlaw.IntegerRange(MC_GRID), seed=1)

    def run_pass(self, kind: str, tracer=None) -> PassResult:
        result = PassResult(kind)
        all_rows = []
        for t, cfg in self.configs.items():
            key = f"t{t}"

            def size_request(t=t, cfg=cfg, key=key):
                t0 = time.perf_counter()
                rows = bench.run_experiment(cfg)
                elapsed = time.perf_counter() - t0
                result.plans += len(rows) * cfg.samples
                _expect(len(rows) == 2 * len(LAW_M), f"{len(rows)} summary rows for t={t}")
                all_rows.extend(rows)
                result.outputs[key] = sha256(bench.summary_to_csv(rows))
                return elapsed, None

            result.request(key, size_request, tracer)

        def law_request():
            _expect(len(all_rows) == 2 * len(LAW_M) * len(self.sizes), "grid incomplete")
            report = bench.law_pipeline(all_rows)
            result.outputs["law"] = sha256(
                bench.summary_to_csv(all_rows) + bench.law_report_to_csv(report)
            )
            return None, None

        result.request("law", law_request, tracer)

        def mc_request():
            mc = distlaw.simulate_min_dist(
                MC_N, self.mc_reps, distlaw.IntegerRange(MC_GRID), seed=self.seed, workers=1
            )
            result.stats["mc_draws"] = self.mc_reps * (MC_N + 1)
            _expect(int(mc.counts.sum()) == self.mc_reps, "histogram does not total the reps")
            result.outputs["mc"] = sha256(mc.to_csv())
            return None, None

        result.request("mc", mc_request, tracer)
        result.deterministic = set(result.outputs)
        return result.finish()


# ---------------------------------------------------------------------------
# large

def tsplib_text(name: str, pts: np.ndarray) -> str:
    """EUC_2D text of integer coordinates. ``instance.dumps_tsplib`` writes
    the same format but needs an ``Instance``, whose build at n=2000 (about
    0.5 s, and a matrix peak that ``peak_rss_mb`` would count) would run at
    set-up for every instance."""
    lines = [f"NAME : {name}", "TYPE : TSP", f"DIMENSION : {len(pts)}",
             "EDGE_WEIGHT_TYPE : EUC_2D", "NODE_COORD_SECTION"]
    lines += [f"{i} {int(x)} {int(y)}" for i, (x, y) in enumerate(pts, start=1)]
    lines.append("EOF")
    return "\n".join(lines) + "\n"


def check_balanced_plan(plan, pts: np.ndarray, m: int):
    """Independent check of a heuristic plan: every customer once, quotas
    balanced to within one, and the reported lengths re-priced here."""
    n = len(pts)
    _expect(plan.m == m, f"{plan.m} routes, expected {m}")
    visited = []
    for route, length in zip(plan.routes, plan.per_route_distance):
        _expect(route[0] == 1 and route[-1] == 1, "route does not start and end at the depot")
        hops = np.asarray(route) - 1
        seg = pts[hops[1:]] - pts[hops[:-1]]
        priced = float(np.sqrt((seg * seg).sum(axis=1)).sum())
        _expect(math.isclose(priced, length, rel_tol=1e-9), f"route priced {priced}, reported {length}")
        visited.extend(route[1:-1])
    _expect(sorted(visited) == list(range(2, n + 1)), "customers missed or repeated")
    counts = plan.customer_counts()
    _expect(max(counts) - min(counts) <= 1, f"unbalanced route sizes {counts}")
    _expect(math.isclose(sum(plan.per_route_distance), plan.total_distance, rel_tol=1e-12),
            "total differs from the sum of its routes")


class Large(FullPasses):
    """Big coordinate instances: TSPLIB text in, four heuristic plans out."""

    name = "large"
    nominal_pass_s = 2.25

    def __init__(self, seed: int, sizes=LARGE_SIZES):
        self.seed = seed
        self.points = [
            _rng(seed, 1, i, n).integers(0, LARGE_SPAN, size=(n, 2)).astype(np.float64)
            for i, n in enumerate(sizes)
        ]
        self.texts = [tsplib_text(f"large{i}n{len(p)}", p) for i, p in enumerate(self.points)]

    def inputs_digest(self) -> str:
        return sha256("".join(self.texts))

    @staticmethod
    def warm():
        inst = instance.parse_tsplib(tsplib_text("tiny", np.array([[0, 0], [3, 4], [6, 0], [3, 1]])))
        heuristics.nearest_node(inst, 2)
        heuristics.closest_vehicle(inst, 2)

    def run_pass(self, kind: str, tracer=None) -> PassResult:
        result = PassResult(kind)
        for i, (text, pts) in enumerate(zip(self.texts, self.points)):
            key = f"r{i}"

            def request(text=text, pts=pts, key=key):
                t0 = time.perf_counter()
                inst = instance.parse_tsplib(text)
                plans = [(alg, m, fn(inst, m))
                         for alg, fn in (("nearest", heuristics.nearest_node),
                                         ("closest", heuristics.closest_vehicle))
                         for m in LARGE_M]
                elapsed = time.perf_counter() - t0
                result.plans += len(plans)
                for _, m, plan in plans:
                    check_balanced_plan(plan, pts, m)
                result.outputs[key] = " ".join(
                    f"{alg}:{m}:{plan.total_distance!r}:{sha256(repr(plan.routes))[:16]}"
                    for alg, m, plan in plans
                )
                return elapsed, None

            result.request(key, request, tracer)
        result.deterministic = set(result.outputs)
        return result.finish()


# ---------------------------------------------------------------------------
# exact

def family_instance(n: int, kind: str):
    """Base instance of the exact family: coordinates, and for ``asym`` an
    integer matrix of Euclidean lengths stretched by seeded factors in [1, 1.5]."""
    rng = _rng(EXACT_FAMILY_SEED, n, 0 if kind == "sym" else 1)
    pts = rng.integers(1, EXACT_GRID + 1, size=(n, 2)).astype(np.float64)
    if kind == "sym":
        return pts, None
    dist = instance.euclidean_matrix(pts)
    mat = np.maximum(np.round(dist * rng.uniform(1.0, 1.5, size=(n, n))), 1.0)
    np.fill_diagonal(mat, np.inf)
    return pts, mat


def _timed_out(res) -> bool:
    return res.status is exact.SolveStatus.FEASIBLE_TIME_LIMIT


def relabel(n: int, seed: int, *key: int) -> np.ndarray:
    """Permutation of 0..n-1 that keeps the depot (0) and shuffles customers."""
    return np.concatenate([[0], 1 + _rng(seed, 2, n, *key).permutation(n - 1)])


def exact_key(n: int, kind: str, m: int) -> str:
    return f"n{n}-{kind}-m{m}"


class Exact:
    """Exact solving: proofs under a cap on the seeded family, then the two
    named instances at a fixed budget.

    A ``proven`` pass runs only the instances the cap lets the solver prove;
    their outputs must repeat byte for byte. A ``full`` pass runs everything.
    A proven pass comes first, so ``peak_rss_mb`` can be read before the
    capped searches, whose heap grows with however far the machine gets.
    """

    name = "exact"

    def __init__(self, seed: int, proven=EXACT_PROVEN, capped=EXACT_CAPPED,
                 cap_s=EXACT_CAP_S, budget_s=EXACT_BUDGET_S, optima=None):
        self.seed = seed
        self.cap_s = cap_s
        self.budget_s = budget_s
        self.optima = optima or {}
        self.cases = []  # (key, m, window, instance args, expected to prove)
        for group, expect_proof in ((proven, True), (capped, False)):
            for n, kind, m in group:
                pts, mat = family_instance(n, kind)
                perm = relabel(n, seed, 0 if kind == "sym" else 1)
                pts = pts[perm]
                mat = None if mat is None else mat[np.ix_(perm, perm)]
                self.cases.append((exact_key(n, kind, m), m, bench.default_window(n, m),
                                   (kind, pts, mat), expect_proof))

    def inputs_digest(self) -> str:
        parts = [repr((k, m, w, a[1].tolist(), None if a[2] is None else a[2].tolist()))
                 for k, m, w, a, _ in self.cases]
        return sha256("".join(parts) + repr(EXACT_NAMED))

    def schedule(self, seconds: float):
        # a traced run traces the odd passes, which must hold the full one
        return ["proven", "full", "proven"]

    @staticmethod
    def warm():
        tiny = instance.Instance("tiny", instance.euclidean_matrix([[0, 0], [3, 4], [6, 0], [3, 1], [5, 5]]))
        model = exact.build_model(tiny, 2, 2, 2, warm_start=heuristics.nearest_node(tiny, 2))
        res = exact.solve_exact(model, 1.0)
        exact.check_solution(model, res.best)
        instance.load_bundled("bays29")

    @staticmethod
    def build_instance(key, args):
        kind, pts, mat = args
        if kind == "sym":
            return instance.Instance(key, instance.euclidean_matrix(pts), coords=pts)
        return instance.Instance(key, mat)

    @staticmethod
    def solve(inst, m, window, limit):
        model = exact.build_model(inst, m, *window, warm_start=heuristics.nearest_node(inst, m))
        return model, exact.solve_exact(model, limit)

    def run_pass(self, kind: str, tracer=None) -> PassResult:
        result = PassResult(kind, time_limited=kind == "full")
        stats = result.stats
        stats.update(nodes_proven=0, proven=0, seeded=0, overshoot=[])
        for key, m, window, args, expect_proof in self.cases:
            if kind == "proven" and not expect_proof:
                continue

            def request(key=key, m=m, window=window, args=args):
                inst = self.build_instance(key, args)
                t0 = time.perf_counter()
                model, res = self.solve(inst, m, window, self.cap_s)
                elapsed = time.perf_counter() - t0
                result.plans += 1
                stats["seeded"] += 1
                ok, violations = exact.check_solution(model, res.best)
                _expect(ok, f"plan violates the model: {violations[:1]}")
                _expect(res.lower_bound <= res.objective + 1e-9, "bound above objective")
                ref = self.optima.get(key)
                if res.status is exact.SolveStatus.OPTIMAL:
                    stats["proven"] += 1
                    stats["nodes_proven"] += res.nodes_explored
                    if ref is not None:
                        _expect(math.isclose(res.objective, ref, rel_tol=1e-9),
                                f"optimum {res.objective!r}, recorded {ref!r}")
                    result.deterministic.add(key)
                else:
                    _expect(res.status is exact.SolveStatus.FEASIBLE_TIME_LIMIT,
                            f"status {res.status.value}")
                    stats["overshoot"].append(res.wall_time - self.cap_s)
                    if ref is not None:
                        _expect(res.lower_bound <= ref + 1e-9, "lower bound above the optimum")
                result.outputs[key] = (
                    f"{res.status.value}:{res.objective!r}:{res.nodes_explored}:"
                    f"{sha256(repr(res.best.routes))[:16]}"
                )
                return elapsed, self.cap_s if _timed_out(res) else None

            result.request(key, request, tracer)
        if kind == "full":
            for name, m, window, published in EXACT_NAMED:
                self._named_request(result, name, m, window, published, tracer)
        return result.finish()

    def _named_request(self, result, name, m, window, published, tracer):
        key = f"{name}_m{m}"

        def request():
            inst = instance.load_bundled(name)
            model, res = self.solve(inst, m, window, self.budget_s)
            result.plans += 1
            ok, violations = exact.check_solution(model, res.best)
            _expect(ok, f"plan violates the model: {violations[:1]}")
            _expect(res.objective >= published - 1e-6, "objective below the published optimum")
            _expect(res.lower_bound <= published + 1e-6, "lower bound above the published optimum")
            if _timed_out(res):
                result.stats["overshoot"].append(res.wall_time - self.budget_s)
            result.stats[f"{key}.gap_pct"] = 100.0 * (res.objective - res.lower_bound) / res.objective
            result.stats[f"{key}.excess_pct"] = 100.0 * (res.objective - published) / published
            result.outputs[key] = f"{res.status.value}:{res.objective!r}"
            return None, self.budget_s if _timed_out(res) else None

        result.request(key, request, tracer)


CLASSES = {"law": Law, "large": Large, "exact": Exact}


def make(name: str, seed: int, **overrides):
    return CLASSES[name](seed, **overrides)


def median(values):
    return statistics.median(values) if values else 0.0
