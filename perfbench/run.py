"""mtspkit benchmark: run one workload and print one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload law --seed 1 --seconds 20 --trace 0

It imports mtspkit from ``src/`` next to this directory and exits with
code 2, printing no result, when that source tree is missing. A run does a
fixed number of passes, chosen from ``--seconds`` so that it takes about
that long on a 2-CPU Xeon. With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics. Before the result it prints one JSON line
with the environment and the sample counts behind the metrics. See
``README.md`` next to this file for every metric.
"""

from __future__ import annotations

import os

# Every workload is single-threaded by design; pin the BLAS and OpenMP pools to
# one thread so the numbers do not depend on how many cores numpy finds.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = HERE / "out"
SETUP_REPEATS = 7
NOT_APPLICABLE = 1.0  # value of a metric on a workload it does not apply to
NAMED_METRICS = ("bays29_m4.gap_pct", "eil51_m2.gap_pct",
                 "bays29_m4.excess_pct", "eil51_m2.excess_pct")

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "solves_per_s": "1/s",
    "latency_p50_s": "s", "latency_tail_s": "s", "proven_share": "share",
    "bays29_m4.gap_pct": "%", "eil51_m2.gap_pct": "%",
    "bays29_m4.excess_pct": "%", "eil51_m2.excess_pct": "%",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "instance.matrix_s": "s", "instance.validate_s": "s", "instance.parse_s": "s",
    "instance.generate_s": "s", "instance.evaluate_s": "s", "instance.matrix_bytes": "bytes",
    "kernels.nearest_s": "s", "kernels.closest_s": "s", "kernels.calls": "count",
    "kernels.scans": "count", "heuristics.self_s": "s", "bench.experiment_self_s": "s",
    "exact.search_s": "s", "exact.bound_s": "s", "exact.bound_calls": "count",
    "exact.nodes": "count", "exact.nodes_per_s": "1/s", "exact.build_s": "s",
    "exact.check_s": "s", "exact.overshoot_s": "s", "distlaw.mc_s": "s",
    "distlaw.mc_draws_per_s": "1/s", "bench.law_s": "s", "bench.csv_s": "s",
    "trace.overhead_pct": "%", "trace.wall_s": "s", "trace.accounted_pct": "%",
}
# tracer layer -> per-layer metric holding its self time
SELF_METRICS = {
    "instance.matrix": "instance.matrix_s", "instance.validate": "instance.validate_s",
    "instance.parse": "instance.parse_s", "instance.generate": "instance.generate_s",
    "instance.evaluate": "instance.evaluate_s", "kernels.nearest": "kernels.nearest_s",
    "kernels.closest": "kernels.closest_s", "heuristics": "heuristics.self_s",
    "bench.experiment": "bench.experiment_self_s", "exact.search": "exact.search_s",
    "exact.bound": "exact.bound_s", "exact.build": "exact.build_s",
    "exact.check": "exact.check_s", "distlaw.mc": "distlaw.mc_s",
    "bench.law": "bench.law_s", "bench.csv": "bench.csv_s",
}


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "mtspkit" / "__init__.py").is_file():
        fail(f"no mtspkit source tree at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def tail(values):
    """The highest percentile with ten samples beyond it, or the maximum
    when there are fewer than eleven samples."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def measure_setup(workload: str, repeats: int) -> tuple[list[float], list[float]]:
    """Seconds from process start to the end of one tiny call of each entry
    point the workload uses, in fresh interpreters: (scaled, raw)."""
    from workloads import CALIB_REF_S, calibrate

    scaled, raw = [], []
    for _ in range(repeats):
        before = calibrate()
        start = time.monotonic()  # system-wide clock, comparable with the child's
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        raw.append(float(proc.stdout.split()[-1]) - start)
        scaled.append(raw[-1] * 2.0 * CALIB_REF_S / (before + calibrate()))
    return scaled, raw


def environment() -> dict:
    import importlib.util
    import platform

    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }
    try:
        import scipy
        env["scipy"] = scipy.__version__
    except ImportError:
        env["scipy"] = None
    try:
        from mtspkit import _accel
        env["kernel_path"] = "numba" if _accel.numba_enabled() else "numpy"
    except ImportError:
        env["kernel_path"] = "numpy"
    env["cpu_model"] = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        env["git_commit"] = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        env["git_commit"] = "unknown"
    return env


def load_reference(name: str, seed: int):
    """(optima, recorded outputs) for the workload; outputs only for the recorded seed."""
    if not REFERENCE.is_file():
        return {}, None
    ref = json.loads(REFERENCE.read_text())
    optima = ref.get("exact", {}).get("optima", {}) if name == "exact" else {}
    recorded = ref.get(name, {}).get("outputs") if ref.get("seed") == seed else None
    return optima, recorded


def failed_operations(passes, recorded):
    """(pass index, request, reason) for every request of every pass that
    raised, failed its own check, or whose output differs from the record
    or from an earlier pass."""
    failed = []
    first = {}
    for index, res in enumerate(passes):
        failed += [(index, key, why) for key, why in res.failures.items()]
        for key in sorted(res.deterministic - set(res.failures)):
            out = res.outputs[key]
            want = recorded.get(key) if recorded else None
            if want is not None and out != want:
                failed.append((index, key, "output differs from the recorded reference"))
            elif first.setdefault(key, out) != out:
                failed.append((index, key, "output differs from an earlier pass"))
    return failed


def run(args) -> dict:
    import workloads

    optima, recorded = load_reference(args.workload, args.seed)
    overrides = {"optima": optima} if args.workload == "exact" else {}
    wl = workloads.make(args.workload, args.seed, **overrides)
    return measure(wl, args.seed, args.seconds, args.trace, recorded)


def measure(wl, seed, seconds, trace, recorded=None, setup_repeats=SETUP_REPEATS) -> dict:
    """Run the workload's passes and build the result object."""
    from tracer import Tracer

    schedule = wl.schedule(seconds)
    setup = None if trace else measure_setup(wl.name, setup_repeats)
    wl.warm()  # first calls outside the timed passes

    tracer = Tracer()
    passes = []
    for index, kind in enumerate(schedule):
        traced = bool(trace) and index % 2 == 1
        if traced:
            with tracer.installed(), tracer.span("bench.pass"):
                res = wl.run_pass(kind, tracer)
        else:
            res = wl.run_pass(kind)
        res.traced = traced
        passes.append(res)

    failed = failed_operations(passes, recorded)
    for index, key, why in failed:
        print(f"perfbench: pass {index} ({schedule[index]}), {key}: {why}", file=sys.stderr)
    attempted = sum(r.attempted for r in passes)

    info = {
        "workload": wl.name, "seed": seed, "trace": trace,
        "inputs_sha256": wl.inputs_digest(), "passes": schedule,
        "reference_checked": recorded is not None,
        "environment": environment(),
    }
    if trace:
        metrics = layer_metrics(passes, tracer, info)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"trace-{wl.name}-seed{seed}.jsonl")
    else:
        metrics = e2e_metrics(wl, passes, setup, info)
    print(json.dumps(info))
    return {"correct": not failed and attempted > 0, "attempted": attempted,
            "failed": len(failed), "metrics": metrics}


def peak_before_time_limits(passes) -> float:
    """Peak memory up to the first pass with a time-limited request: how far
    a search gets before its limit, and so its heap, depends on the host."""
    peak = 0.0
    for res in passes:
        if res.time_limited:
            break
        peak = res.rss_mb
    return peak


def latency_stats(passes, index) -> tuple[float, float]:
    """(p50, tail) of the request latencies; ``index`` 0 for scaled, 1 for raw.

    The p50 is the median over passes of each pass's median, over the
    requests every pass runs: a slow spell moves one pass, not the metric,
    and no pass's median shifts because it runs more requests. The tail is
    pooled across passes.
    """
    from workloads import median

    common = set.intersection(*(set(r.latency) for r in passes))
    p50 = median([median([r.latency[k][index] for k in common]) for r in passes])
    return p50, tail([v[index] for r in passes for v in r.latency.values()])


def e2e_metrics(wl, passes, setup, info) -> dict:
    from workloads import median

    full = [r for r in passes if r.kind == "full"]
    p50, tail_s = latency_stats(passes, 0)
    if wl.name == "exact":
        per_s = median([r.plans / r.wall_s for r in full])
    else:
        per_s = median([r.plans / sum(v[0] for v in r.latency.values()) for r in passes])
    values = {
        "setup_s": median(setup[0]),
        "wall_s": median([r.wall_s for r in full]),
        "solves_per_s": per_s,
        "latency_p50_s": p50,
        "latency_tail_s": tail_s,
        "peak_rss_mb": peak_before_time_limits(passes),
    }
    if wl.name == "exact":
        values["proven_share"] = (sum(r.stats["proven"] for r in full)
                                  / sum(r.stats["seeded"] for r in full))
        for key in NAMED_METRICS:
            values[key] = median([r.stats[key] for r in full if key in r.stats])
    else:
        values.update(dict.fromkeys(("proven_share",) + NAMED_METRICS, NOT_APPLICABLE))
    n = sum(len(r.latency) for r in passes)
    raw_p50, raw_tail = latency_stats(passes, 1)
    info["samples"] = {
        "full_passes": len(full), "latency_samples": n,
        "latency_tail_percentile": round(100.0 * (n - 10) / n, 2) if n > 10 else 100.0,
        "plans": sum(r.plans for r in passes),
        "speed_scale_median": median([x for r in passes for x in r.scales]),
    }
    info["raw"] = {
        "setup_s": median(setup[1]), "wall_s": median([r.raw_s for r in full]),
        "latency_p50_s": raw_p50, "latency_tail_s": raw_tail,
    }
    return {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}


def layer_metrics(passes, tracer, info) -> dict:
    """Per-layer metrics of the traced passes, over the requests no time
    limit stopped (the tracer sets the others aside): their work is fixed,
    while a limited search does as much as the host's speed allows. Times
    and rates are scaled by the traced passes' median speed scale; the raw
    values go on the info line."""
    from workloads import median

    traced = [r for r in passes if r.traced]
    plain = [r for r in passes if not r.traced]
    per = 1.0 / len(traced)
    scale = median([x for r in traced for x in r.scales])
    raw = {metric: tracer.self_s.get(layer, 0.0) * per
           for layer, metric in SELF_METRICS.items()}
    raw["trace.wall_s"] = sum(v[1] for r in traced for v in r.unlimited.values()) * per
    values = {metric: seconds * scale for metric, seconds in raw.items()}
    calls, counts = tracer.calls, tracer.counts
    values["instance.matrix_bytes"] = counts.get("instance.matrix_bytes", 0) * per
    values["kernels.calls"] = (calls.get("kernels.nearest", 0) + calls.get("kernels.closest", 0)) * per
    values["kernels.scans"] = counts.get("kernels.scans", 0) * per
    values["exact.bound_calls"] = calls.get("exact.bound", 0) * per
    nodes = sum(r.stats.get("nodes_proven", 0) for r in traced)
    values["exact.nodes"] = nodes * per
    search_s = tracer.total_s.get("exact.search", 0.0) * scale
    values["exact.nodes_per_s"] = nodes / search_s if search_s else 0.0
    values["exact.overshoot_s"] = median([x for r in traced for x in r.stats.get("overshoot", [])])
    mc_s = tracer.total_s.get("distlaw.mc", 0.0) * scale
    draws = sum(r.stats.get("mc_draws", 0) for r in traced)
    values["distlaw.mc_draws_per_s"] = draws / mc_s if mc_s else 0.0
    common = set.intersection(*(set(r.unlimited) for r in passes))
    traced_s = median([sum(r.unlimited[k][0] for k in common) for r in traced])
    plain_s = median([sum(r.unlimited[k][0] for k in common) for r in plain])
    values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    layer_self = sum(raw[metric] for metric in SELF_METRICS.values())
    values["trace.accounted_pct"] = 100.0 * layer_self / raw["trace.wall_s"]
    info["samples"] = {"traced_passes": len(traced), "untraced_passes": len(plain),
                       "span_records": len(tracer.spans),
                       "set_aside_requests": len(tracer.set_aside_requests),
                       "speed_scale_median": scale}
    info["raw"] = raw
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("law", "large", "exact"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    import_package()
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
