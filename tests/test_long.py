"""Long-running reproduction suite; enable with ``pytest --long``.

Covers the full experiment grid (30 samples, sizes 50..500, m 2..7), the
heuristics' gaps to exact optima on small seeded instances, best-effort
exact runs (``exact.solve``) on the medium benchmark instances, and the
subset DP at its size cap. At 0.5, 1 and 2 s the bound and plan of
bays29 (m=4) and eil51 (m=2) must bracket the published optimum, which
is asserted only for a proven run, and an unproven one reports its gap.
bays29 must be proven at its published optimum at a limit no phase
reaches (1e6 s), where every phase ends on its own count, so that proof
does not depend on the host's speed.

The bracketing runs above the subset DP's cap take at most the fixed
2 s ``TIME_BUDGET``; bays29's far-limit proof ends when its phases do
(0.3-0.5 s on a 2-CPU Xeon VM).
"""

import pytest

import mtspkit as mk
from mtspkit import exact


# the longest bracketing limit: on a quick host bays29 (m=4) is proven at
# 2603 from 0.5 s on, and eil51 (m=2) reads 453.6272 over a bound of ~432.3
# at 0.5, 1 and 2 s alike, but a slow one may stop bays29 short of its
# proof, which is therefore asserted at a limit no phase reaches
TIME_BUDGET = 2.0


def test_full_grid_statistics(long_enabled):
    rows = mk.run_experiment(mk.ExperimentConfig(base_seed=2024))
    report = mk.law_pipeline(rows)
    for alg in ("nearest", "closest"):
        delta, _ = report.deltas[alg]
        assert 80.0 <= delta <= 100.0
        assert 0.40 <= report.fits[alg].p <= 0.48
        assert report.max_deviation_pct[alg] <= 6.0
    # cross-study consistency with the published grid: both sides are
    # 30-sample draws (cells within a row share instances, so rows shift
    # coherently by a percent or two); compare in aggregate, not per cell
    reference = {(r.t, r.m, r.algorithm): r for r in mk.load_reference_grid()}
    devs = sorted(
        abs(row.mean - reference[row.t, row.m, row.algorithm].mean)
        / reference[row.t, row.m, row.algorithm].mean
        for row in rows
    )
    median = devs[len(devs) // 2]
    print(f"published-grid deviations: median {median:.2%}, max {devs[-1]:.2%}")
    assert median <= 0.03
    assert devs[-1] <= 0.08
    # the two anchor cells, inside three pooled standard errors (x2 slack)
    cells = {(r.t, r.m, r.algorithm): r.mean for r in rows}
    assert 725 <= cells[50, 2, "closest"] <= 840
    assert 2409 <= cells[500, 7, "nearest"] <= 2648


def test_heuristic_gaps_to_the_exact_optimum(long_enabled):
    # 30 seeded 100-grid instances per n, default windows, every exact run a
    # subset DP proof. A gap is the heuristic's mean total above the exact
    # one; delta is the mean distance each extra vehicle adds, m 2 -> 5.
    algs, ms = ["nearest", "closest", "exact"], [2, 3, 4, 5]
    lines = ["| n | " + " | ".join(f"m={m}" for m in ms) + " | delta "
             + " / ".join(algs) + " |"]
    for n in (11, 16):
        instances = [
            mk.generate_uniform_instance(mk.GridSpec(n, 100, mk.derive_seed(2024, n, s)))
            for s in range(30)
        ]
        rows = mk.compare_instances(instances, ms, algs)
        for r in rows:
            assert r.statuses["exact"] == "optimal"
            # an equal plan read in another order may total one ulp less
            best = min(r.distances["nearest"], r.distances["closest"])
            assert best >= r.distances["exact"] - 1e-9
        means = {
            (m, alg): sum(r.distances[alg] for r in rows if r.m == m) / len(instances)
            for m in ms for alg in algs
        }
        cells = []
        for m in ms:
            gaps = []
            for alg in algs[:2]:
                gaps.append(100 * (means[m, alg] - means[m, "exact"]) / means[m, "exact"])
                assert 0 <= gaps[-1] <= 25, (n, m, alg)
            cells.append(" / ".join(f"{g:.1f}" for g in gaps) + "%")
        deltas = [(means[ms[-1], alg] - means[ms[0], alg]) / (ms[-1] - ms[0]) for alg in algs]
        lines.append(f"| {n} | " + " | ".join(cells) + " | "
                     + " / ".join(f"{d:.1f}" for d in deltas) + " |")
    print("\n".join(["gaps nearest / closest to the exact optimum:", *lines]))


@pytest.mark.parametrize("time_limit", [0.5, 1.0, TIME_BUDGET])
@pytest.mark.parametrize(
    "name,m,window,published,nearest,polished,bound_floor",
    [
        ("eil51", 2, (24, 25), 444.09, 533.91, 472.8943, 400.0),
        ("bays29", 4, (4, 8), 2603.0, 3482.0, 2635.0, 2200.0),
    ],
    ids=["eil51", "bays29"],
)
def test_exact_medium_instances(
    long_enabled, name, m, window, published, nearest, polished, bound_floor, time_limit
):
    # a stopped run polishes its incumbent: it ends below the nearest-node
    # total and never above the single polish's (eil51's is 472.89425...)
    inst = mk.load_bundled(name)
    warm = mk.nearest_node(inst, m)
    result = exact.solve(inst, m, *window, time_limit=time_limit)
    assert result.backend == "branch_and_bound"
    assert result.objective <= warm.total_distance + 1e-9
    assert result.objective < nearest and result.objective <= polished
    assert result.lower_bound <= result.objective + 1e-6
    assert result.lower_bound <= published + 1e-6
    assert result.objective >= published - 1e-6
    if time_limit >= 1.0:
        # at least the q-route bound, where the branch-and-bound's own reads
        # ~1880-1960 on bays29 and ~367-373 on eil51
        assert result.lower_bound > bound_floor
    if name == "bays29" and time_limit == TIME_BUDGET:
        # the proof step proves it once every phase ends on its own count,
        # whatever the host's speed
        proven = exact.solve(inst, m, *window, time_limit=1e6)
        assert proven.status is mk.SolveStatus.OPTIMAL
        assert proven.objective == proven.lower_bound == published
    if result.status is mk.SolveStatus.OPTIMAL:
        assert result.objective == pytest.approx(published, rel=0.01)
    else:
        print(
            f"{name} m={m}: not proven within {time_limit}s "
            f"(incumbent {result.objective:.1f}, bound {result.lower_bound:.1f}, "
            f"published optimum {published})"
        )


@pytest.mark.parametrize(
    "window,time_limit,status",
    [
        ((1, 9), None, mk.SolveStatus.OPTIMAL),
        ((1, 8), 0.05, mk.SolveStatus.FEASIBLE_TIME_LIMIT),
    ],
    ids=["proof", "stop"],
)
def test_subset_dp_at_its_cap(long_enabled, window, time_limit, status):
    # n = 16 is the DP's cap; on a wide window it proves and reads back a
    # plan (~2 s), and 0.05 s stops it with the nearest-node plan
    inst = mk.generate_uniform_instance(mk.GridSpec(16, 100, 1))
    result = exact.solve(inst, 7, *window, time_limit)
    assert result.backend == "subset_dp"
    assert result.status is status
