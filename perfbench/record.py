"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record.py

Writes ``reference.json`` next to this file:

* ``law`` and ``large``: every request's canonical output for seed 1;
* ``exact``: the outputs for seed 1, the optimum of every family
  instance the cap proves (relabelling keeps optima, so these check every
  seed), and the seed-time solve times and node counts. Each instance is
  solved once with a limit of twice the cap. An instance the workload
  expects to prove must finish in under half the cap, and one it expects
  to leave unproven must still be unproven at that limit. The script exits
  with code 1 when either fails, because then timing noise could flip
  ``proven_share``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from mtspkit import exact  # noqa: E402


def outputs(wl, kind="full"):
    res = wl.run_pass(kind)
    if res.failures:
        raise SystemExit(f"{wl.name}: requests failed while recording: {res.failures}")
    return {key: res.outputs[key] for key in sorted(res.deterministic)}


SEED = 1
PROBE_FACTOR = 2.0


def main():
    ref = {"seed": SEED}
    ref["law"] = {"outputs": outputs(workloads.make("law", SEED))}
    ref["large"] = {"outputs": outputs(workloads.make("large", SEED))}

    wl = workloads.make("exact", SEED)
    limit = PROBE_FACTOR * wl.cap_s
    optima, solve_s, nodes, problems = {}, {}, {}, []
    for key, m, window, case_args, expect_proof in wl.cases:
        inst = wl.build_instance(key, case_args)
        t0 = time.perf_counter()
        _, res = wl.solve(inst, m, window, limit)
        elapsed = time.perf_counter() - t0
        proven = res.status is exact.SolveStatus.OPTIMAL
        solve_s[key] = round(elapsed, 3)
        nodes[key] = res.nodes_explored
        print(f"{key}: {res.status.value} {res.objective!r} in {elapsed:.3f} s, "
              f"{res.nodes_explored} nodes", file=sys.stderr)
        if proven:
            optima[key] = res.objective
        if expect_proof and not (proven and elapsed < wl.cap_s / 2):
            problems.append(f"{key} is not proven well inside the {wl.cap_s} s cap")
        if not expect_proof and proven:
            problems.append(f"{key} is proven within {limit} s, not far beyond the cap")
    wl.optima = optima
    ref["exact"] = {
        "cap_s": wl.cap_s, "probe_limit_s": limit, "optima": optima,
        "solve_s": solve_s, "nodes": nodes, "outputs": outputs(wl, "proven"),
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"record: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
