"""Long-running reproduction suite; enable with ``pytest --long``.

Covers the full experiment grid (30 samples, sizes 50..500, m 2..7), the
heuristics' gaps to exact optima on small seeded instances, best-effort
exact runs (``exact.solve``) on the medium benchmark instances, the
subset DP at its size cap, and an independent certificate above that cap:
HiGHS on the model's rows (skipped without scipy). At 0.5, 1 and 2 s the bound and plan of
bays29 (m=4) and eil51 (m=2) must bracket the published optimum, which
is asserted only for a proven run, and an unproven one reports its gap.
bays29 must be proven at its published optimum, and eil51 must read
453.6272 over its converged bound 437.4498, at a limit no phase reaches
(1e6 s), where every phase ends without the clock (on its own count, or
the proof's partition when its search completes), so neither depends on
the host's speed.

The bracketing runs above the subset DP's cap take at most the fixed
2 s ``TIME_BUDGET``; the far-limit runs end when their phases do (bays29
in 0.3-0.5 s and eil51 in 1.6-2.2 s on a 2-CPU Xeon VM). So do 27 proofs
on widened windows, which must read their recorded optima, at most 0.33 s
each, and 37 on default windows, 0.09-1.7 s each.
"""

import itertools

import numpy as np
import pytest

import mtspkit as mk
from mtspkit import exact
from mtspkit.bench import default_window


# the longest bracketing limit: on a quick host bays29 (m=4) is proven at
# 2603 from 0.5 s on, and eil51 (m=2) reads 453.6272 over a bound the
# proof's refuted steps raise, ~436.0 at 0.5 s, 436.0-437.4 at 1 s and
# 437.4498 at 2 s, its converged bound (BENCH_layers.json), but a slow host
# may stop bays29 short of its proof and eil51 short of that bound, so both
# are asserted at a limit no phase reaches
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
        # the proof step proves it once no phase stops at the clock,
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


def test_eil51_reads_its_converged_gap_at_a_limit_no_phase_reaches(long_enabled):
    # eil51 (m=2, (24, 25)) once no phase stops at the clock: the
    # proof's steps refute every upper bound up to 437.4498, the next step's
    # pool passes _POOL_CAP, and the iterated polish stalls at 453.6272, a
    # 3.57% gap whatever the host's speed (1.6-2.2 s on a 2-CPU Xeon VM)
    result = exact.solve(mk.load_bundled("eil51"), 2, 24, 25, time_limit=1e6)
    assert result.status is mk.SolveStatus.FEASIBLE_TIME_LIMIT
    assert (round(result.objective, 4), round(result.lower_bound, 4)) == (453.6272, 437.4498)


# gNsSmM on the window (1, ceil((N - 1) / M) + 2): the optima the proof
# reads (BENCH_partition.json), among them g24s2m6, whose partition once
# gave up at 10 s without a failure memo
WIDE_OPTIMA = {
    "g20s1m4": 496.7165, "g20s2m4": 560.0056, "g20s3m4": 589.0318,
    "g20s1m5": 531.0084, "g20s2m5": 585.2809, "g20s3m5": 646.0111,
    "g20s1m6": 566.2074, "g20s2m6": 619.6014, "g20s3m6": 714.2327,
    "g22s1m4": 534.6462, "g22s2m4": 562.1182, "g22s3m4": 611.2825,
    "g22s1m5": 575.2117, "g22s2m5": 587.3935, "g22s3m5": 660.6987,
    "g22s1m6": 621.3907, "g22s2m6": 640.1351, "g22s3m6": 716.0968,
    "g24s1m4": 540.8636, "g24s2m4": 581.2126, "g24s3m4": 632.1803,
    "g24s1m5": 568.9124, "g24s2m5": 604.4034, "g24s3m5": 687.2103,
    "g24s1m6": 616.0406, "g24s2m6": 685.6527, "g24s3m6": 768.7361,
}


# gNsSmM on the default window (default_window(N, M)): the 37 of the 60
# cases N 20, 25, 30, 40 and 50, M 2-5 and seeds 1-3 that the proof closes
# (BENCH_rows.json); the other 23 give up at the pool's cap
DEFAULT_OPTIMA = {
    "g20s1m2": 431.0141, "g20s2m2": 473.2863, "g20s3m2": 445.7740,
    "g20s1m3": 470.3176, "g20s2m3": 547.2158, "g20s3m3": 563.4355,
    "g20s1m4": 542.6498, "g20s2m4": 628.3465, "g20s3m4": 660.6393,
    "g20s1m5": 607.4114, "g20s2m5": 707.2826, "g20s3m5": 758.9819,
    "g25s1m2": 475.6216, "g25s2m2": 495.2461, "g25s1m3": 535.1658,
    "g25s2m3": 570.8777, "g25s3m3": 634.5349, "g25s1m4": 586.9494,
    "g25s2m4": 654.2754, "g25s3m4": 759.6676, "g25s1m5": 646.5768,
    "g25s2m5": 724.7971, "g25s3m5": 827.8106, "g30s2m2": 502.3953,
    "g30s1m3": 555.1405, "g30s2m3": 585.0634, "g30s3m3": 644.5345,
    "g30s1m4": 607.7621, "g30s2m4": 679.1364, "g30s3m4": 774.1732,
    "g30s1m5": 677.3820, "g30s2m5": 752.9712, "g30s3m5": 881.7745,
    "g40s2m2": 523.3290, "g40s1m4": 643.6510, "g40s1m5": 713.2486,
    "g40s2m5": 789.1458,
}


def test_the_proof_reads_the_widened_window_optima(long_enabled):
    # at a limit no phase reaches, every one of the 27 widened-window cases
    # and the 37 default-window ones is proven, the partition being
    # exhaustive (about 15 s in all on a 2-CPU Xeon VM, 9-10 s of it on the
    # default windows)
    for optima, widened in ((WIDE_OPTIMA, True), (DEFAULT_OPTIMA, False)):
        for name, objective in optima.items():
            n, seed, m = map(int, name[1:].replace("s", " ").replace("m", " ").split())
            window = (1, -(-(n - 1) // m) + 2) if widened else default_window(n, m)
            result = exact.solve(mk.generate_uniform_instance(mk.GridSpec(n, 100, seed)), m,
                                 *window, time_limit=1e6)
            assert result.status is mk.SolveStatus.OPTIMAL, name
            assert result.lower_bound == result.objective, name
            assert round(result.objective, 4) == objective, name


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


def _kara_bektas(inst, m, lo, hi, time_limit):
    """HiGHS (``scipy.optimize.milp``) on the node-balanced MTZ program of
    Kara & Bektaş (2006), stated here as rows of its own, apart from the
    package: ``(status, cost)`` with the cost of the 0/1-rounded arcs.

    Columns are x[i, j] for every ordered pair i != j (node 0 the depot),
    then u[i] for every customer i, its position on its route, in [1, L].
    Rows: m arcs leave and m enter the depot; every customer is entered
    and left once; u_i + (L − 2) x[0, i] − x[i, 0] ≤ L − 1 and u_i +
    x[0, i] + (2 − K) x[i, 0] ≥ 2 bound a route's size; u_i − u_j + L x[i,
    j] + (L − 2) x[j, i] ≤ L − 1 orders every customer pair; and for K ≥ 2
    x[0, i] + x[i, 0] ≤ 1 forbids a two-node tour."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = inst.n
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    col = {pair: c for c, pair in enumerate(pairs)}
    u = {i: len(pairs) + i - 1 for i in range(1, n)}
    width = len(pairs) + n - 1
    rows, lower, upper = [], [], []

    def row(terms, low, high):
        line = np.zeros(width)
        for c, a in terms:
            line[c] += a
        rows.append(line)
        lower.append(low)
        upper.append(high)

    row([(col[0, j], 1) for j in range(1, n)], m, m)
    row([(col[i, 0], 1) for i in range(1, n)], m, m)
    for v in range(1, n):
        row([(col[i, v], 1) for i in range(n) if i != v], 1, 1)
        row([(col[v, j], 1) for j in range(n) if j != v], 1, 1)
        row([(u[v], 1), (col[0, v], hi - 2), (col[v, 0], -1)], -np.inf, hi - 1)
        row([(u[v], 1), (col[0, v], 1), (col[v, 0], 2 - lo)], 2, np.inf)
        if lo >= 2:
            row([(col[0, v], 1), (col[v, 0], 1)], -np.inf, 1)
    for i, j in itertools.permutations(range(1, n), 2):
        row([(u[i], 1), (u[j], -1), (col[i, j], hi), (col[j, i], hi - 2)], -np.inf, hi - 1)
    cost = np.zeros(width)
    cost[:len(pairs)] = [inst.matrix[i, j] for i, j in pairs]
    integral = np.zeros(width)
    integral[:len(pairs)] = 1
    res = milp(cost, constraints=LinearConstraint(np.array(rows), lower, upper),
               integrality=integral,
               bounds=Bounds(np.r_[np.zeros(len(pairs)), np.ones(n - 1)],
                             np.r_[np.ones(len(pairs)), np.full(n - 1, hi)]),
               options={"mip_rel_gap": 0.0, "time_limit": time_limit})
    if res.x is None:
        return res.status, None
    arcs = np.round(res.x[:len(pairs)]) == 1
    return res.status, float(cost[:len(pairs)][arcs].sum())


# g20s1m2 and g20s1m3, then the cases of a timing run of HiGHS on twelve
# more (n 20-25, seeds 1-3), picked at under 2 s each before any objective
# was read: gNsSmM is GridSpec(N, 100, S) at m = M on its default window
@pytest.mark.parametrize("n,seed,m", [(20, 1, 2), (20, 1, 3), (20, 3, 2), (22, 1, 2)],
                         ids=["g20s1m2", "g20s1m3", "g20s3m2", "g22s1m2"])
def test_the_ending_proves_the_optimum_highs_finds(long_enabled, n, seed, m):
    # an independent certificate above the subset DP's cap: the ending, at a
    # limit no phase reaches, proves the optimum HiGHS proves on the model's
    # rows, stated apart from exact.check_solution
    pytest.importorskip("scipy")
    inst = mk.generate_uniform_instance(mk.GridSpec(n, 100, seed))
    window = default_window(n, m)
    status, cost = _kara_bektas(inst, m, *window, time_limit=120.0)
    assert status == 0  # HiGHS proved its optimum
    result = exact.solve(inst, m, *window, time_limit=1e6)
    assert result.status is mk.SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(cost, rel=1e-9)
