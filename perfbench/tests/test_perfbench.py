"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mtspkit import exact, heuristics, instance  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())

# Seconds-long configurations of each workload; the checks stay on.
SMOKE = {
    "law": dict(sizes=(50, 100), samples=2, mc_reps=1 << 14),
    "large": dict(sizes=(300, 200, 300)),
    "exact": dict(proven=tuple(c for c in workloads.EXACT_PROVEN if c[0] == 10),
                  capped=((13, "sym", 3),), cap_s=1.0, budget_s=0.2,
                  optima=REFERENCE["exact"]["optima"]),
}


def smoke(name, seed, trace=0):
    wl = workloads.make(name, seed, **SMOKE[name])
    return run.measure(wl, seed, seconds=1, trace=trace, setup_repeats=1)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_passes_its_checks(name):
    result = smoke(name, 1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] != 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric(name):
    result = smoke(name, 1, trace=1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert 90.0 < result["metrics"]["trace.accounted_pct"]["value"] <= 100.0


def test_tracing_restores_every_rebound_attribute():
    before = tracer.bindings()
    t = tracer.Tracer()
    wl = workloads.make("exact", 3, **SMOKE["exact"])
    with pytest.raises(RuntimeError):
        with t.installed():
            assert heuristics.nearest_node is not before[("mtspkit.heuristics", "nearest_node")]
            assert exact.nearest_node is heuristics.nearest_node
            assert heuristics.ALGORITHMS["nearest"] is heuristics.nearest_node
            wl.run_pass("proven", t)
            raise RuntimeError("leave the traced region by an exception")
    after = tracer.bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert t.calls["exact.search"] == len(SMOKE["exact"]["proven"])


def test_time_limited_requests_leave_the_layer_totals():
    wl = workloads.make("exact", 1, **SMOKE["exact"])
    t = tracer.Tracer()
    with t.installed():
        res = wl.run_pass("full", t)
    assert not res.failures
    limited = len(res.latency) - len(res.unlimited) + len(workloads.EXACT_NAMED)
    assert limited > 0 and len(t.set_aside_requests) == limited
    assert t.calls["exact.search"] == len(res.unlimited)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_inputs_not_metric_names(name):
    one, two = (workloads.make(name, seed, **SMOKE[name]) for seed in (1, 2))
    assert one.inputs_digest() != two.inputs_digest()
    assert set(smoke(name, 2)["metrics"]) == set(smoke(name, 1)["metrics"])


def test_recorded_optima_of_small_instances_match_brute_force():
    optima = REFERENCE["exact"]["optima"]
    checked = 0
    for n, kind, m in workloads.EXACT_PROVEN:
        if n > 10:
            continue
        key = workloads.exact_key(n, kind, m)
        pts, mat = workloads.family_instance(n, kind)
        inst = (instance.Instance(key, instance.euclidean_matrix(pts), coords=pts)
                if mat is None else instance.Instance(key, mat))
        oracle = exact.brute_force_oracle(inst, m, *workloads.bench.default_window(n, m))
        assert math.isclose(oracle.objective, optima[key], rel_tol=1e-9), key
        checked += 1
    assert checked == 4


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for spec_path in SPEC["paths"]:
        shutil.copytree(ROOT / spec_path, tmp_path / spec_path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "law", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 41))
    assert run.tail(values) == 30
    assert run.tail([3.0, 1.0, 2.0]) == 3.0
