import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from mtspkit import distlaw
from mtspkit import (
    IntegerRange,
    Rectangle,
    SummaryRow,
    UnitInterval,
    delta_estimate,
    expected_pair_distance_ball,
    expected_pair_distance_interval,
    expected_pair_distance_rectangle,
    expected_pair_distance_square,
    extrapolate_m,
    fit_power_law,
    grid_2tsp_corner_distance,
    grid_line_distance,
    grid_scale,
    grid_tsp_distance,
    load_reference_grid,
    min_dist_exact,
    min_dist_expectation,
    predict_mtsp_distance,
    simulate_min_dist,
)
from mtspkit.distlaw import MonteCarloResult
from mtspkit.instance import rng_from_seed


# ---------------------------------------------------------------------------
# increment statistics and fits

def test_delta_on_reference_grid():
    rows = load_reference_grid()
    d_close, s_close = delta_estimate([r for r in rows if r.algorithm == "closest"])
    d_near, s_near = delta_estimate([r for r in rows if r.algorithm == "nearest"])
    assert d_close == pytest.approx(90.40, abs=0.05)
    assert s_close == pytest.approx(16.5, abs=0.1)
    assert d_near == pytest.approx(88.09, abs=0.05)
    assert s_near == pytest.approx(13.0, abs=0.1)


def test_delta_exactly_linear_table():
    rows = [
        SummaryRow(t, m, "closest", 100.0 + t + (m - 2) * 7.5, 1.0, 5)
        for t in (50, 100)
        for m in (2, 3, 4, 5)
    ]
    delta, std = delta_estimate(rows)
    assert delta == pytest.approx(7.5, abs=1e-12)
    assert std == pytest.approx(0.0, abs=1e-12)


def test_delta_requires_full_single_algorithm_grid():
    rows = [SummaryRow(50, m, "closest", 100.0 * m, 1.0, 5) for m in (2, 3, 5)]
    with pytest.raises(ValueError, match="grid must cover"):
        delta_estimate(rows)
    ragged = [
        SummaryRow(50, m, "closest", 100.0 * m, 1.0, 5) for m in (2, 3)
    ] + [SummaryRow(100, 2, "closest", 1.0, 1.0, 5)]
    with pytest.raises(ValueError, match="missing grid cell"):
        delta_estimate(ragged)
    mixed = [
        SummaryRow(50, 2, "closest", 1.0, 0.0, 5),
        SummaryRow(50, 2, "nearest", 1.0, 0.0, 5),
    ]
    with pytest.raises(ValueError, match="one algorithm"):
        delta_estimate(mixed)



def test_delta_needs_two_increments():
    # one fleet size has no increment, one increment has no sample std
    only_two = [SummaryRow(t, 2, "closest", 100.0 + t, 1.0, 5) for t in (50, 100)]
    one_step = [SummaryRow(50, m, "closest", 100.0 * m, 1.0, 5) for m in (2, 3)]
    for rows in (only_two, one_step):
        with pytest.raises(ValueError, match="two consecutive-m increments"):
            delta_estimate(rows)


def test_delta_rejects_a_repeated_cell():
    rows = [SummaryRow(t, m, "closest", 100.0 * m, 1.0, 5) for t in (50, 100) for m in (2, 3)]
    rows.append(SummaryRow(100, 3, "closest", 5000.0, 1.0, 5))
    with pytest.raises(ValueError, match=r"repeated grid cell \(t=100, m=3\)"):
        delta_estimate(rows)


def test_delta_leaves_out_the_single_salesman_column():
    rows = [
        SummaryRow(t, m, "closest", 100.0 + t + (m - 2) * 7.5 + (m == 3), 1.0, 5)
        for t in (50, 100)
        for m in (2, 3, 4)
    ]
    single = [SummaryRow(t, 1, "closest", 1.0, 1.0, 5) for t in (50, 100)]
    assert delta_estimate(single + rows) == delta_estimate(rows)


def test_extrapolation():
    assert extrapolate_m(1578.0, 2, 90.4) == pytest.approx(1578.0)
    assert extrapolate_m(1568.9, 6, 90.4) == pytest.approx(1930.5, abs=1e-9)
    assert extrapolate_m(0.0, 4, 90.4) == pytest.approx(180.8)
    with pytest.raises(ValueError):
        extrapolate_m(100.0, 1, 90.4)


def test_power_fit_recovers_generator():
    ts = np.arange(50, 501, 50, dtype=float)
    pts = np.column_stack([ts, 138.2 * ts**0.44])
    fit = fit_power_law(pts)
    assert fit.c == pytest.approx(138.2, abs=1e-6)
    assert fit.p == pytest.approx(0.44, abs=1e-9)
    assert fit.rss < 1e-20


def test_power_fit_on_reference_column():
    rows = [r for r in load_reference_grid() if r.algorithm == "closest" and r.m == 2]
    fit = fit_power_law([(r.t, r.mean) for r in rows])
    assert 120 <= fit.c <= 160
    assert 0.40 <= fit.p <= 0.48


def test_power_fit_two_points_interpolates():
    fit = fit_power_law([(2.0, 8.0), (4.0, 64.0)])
    assert fit.rss == pytest.approx(0.0, abs=1e-18)
    assert fit(2.0) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        fit_power_law([(1.0, 1.0), (2.0, -3.0), (3.0, 4.0)])


def test_fleet_growth_prediction():
    assert predict_mtsp_distance(250, 6) == pytest.approx(1930.5, abs=0.1)
    assert predict_mtsp_distance(250, 2) == pytest.approx(1568.9, abs=0.1)
    scaled = predict_mtsp_distance(250, 6, scale=299 / 99)
    assert scaled == pytest.approx(1930.523 * 299 / 99, abs=0.1)
    assert grid_scale(300) == pytest.approx(299 / 99, rel=1e-12)
    assert predict_mtsp_distance(250, 1) == pytest.approx(111.37 * 250**0.4704)
    with pytest.raises(ValueError):
        predict_mtsp_distance(0, 2)
    with pytest.raises(ValueError):
        predict_mtsp_distance(10, 0)
    with pytest.raises(ValueError):
        predict_mtsp_distance(10, 2, scale=0)


def test_prediction_monotonicity():
    ts = range(10, 500, 17)
    for m in (2, 3, 6):
        values = [predict_mtsp_distance(t, m) for t in ts]
        assert all(a < b for a, b in zip(values, values[1:]))
    for t in (50, 250):
        values = [predict_mtsp_distance(t, m) for m in range(2, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# closed forms

def test_interval_law():
    assert expected_pair_distance_interval(100) == pytest.approx(100 / 3)
    assert expected_pair_distance_interval(1) == pytest.approx(1 / 3)
    assert expected_pair_distance_interval(0) == 0
    with pytest.raises(ValueError):
        expected_pair_distance_interval(-1)


def test_square_law():
    coef = expected_pair_distance_square(1.0)
    assert coef == pytest.approx(0.36869, abs=1e-5)
    assert expected_pair_distance_square(math.sqrt(2) * 100) == pytest.approx(52.14, abs=0.01)
    assert expected_pair_distance_square(0) == 0


def test_rectangle_specialises_to_square():
    for side in (1.0, 3.5, 100.0):
        rect = expected_pair_distance_rectangle(side, side)
        square = expected_pair_distance_square(math.sqrt(2) * side)
        assert rect == pytest.approx(square, abs=1e-9)
    assert expected_pair_distance_rectangle(100, 100) == pytest.approx(52.14, abs=0.01)
    with pytest.raises(ValueError):
        expected_pair_distance_rectangle(0, 3)


def test_ball_law():
    assert expected_pair_distance_ball(2, 1) == pytest.approx(64 / (45 * math.pi))
    for d in (0.5, 1.0, 7.0):
        assert expected_pair_distance_ball(1, d) == pytest.approx(
            expected_pair_distance_interval(d), abs=1e-12
        )
    assert expected_pair_distance_ball(3, 2) == pytest.approx(36 / 35, rel=1e-12)
    with pytest.raises(ValueError):
        expected_pair_distance_ball(0, 1)


def test_min_dist_law():
    assert min_dist_expectation(50) == pytest.approx(0.010152, abs=1e-6)
    assert min_dist_expectation(2) == pytest.approx(0.21538, abs=1e-4)
    ns = np.arange(2, 10_001)
    values = 0.4158 * ns**-0.949
    assert np.all(np.diff(values) < 0)
    with pytest.raises(ValueError):
        min_dist_expectation(1)


# ---------------------------------------------------------------------------
# integer-grid traversals

def test_line_tour_length():
    assert grid_line_distance(0, 100) == 201
    assert grid_line_distance(5, 6) == 3
    assert grid_line_distance(1, 100) == 199
    with pytest.raises(ValueError):
        grid_line_distance(3, 3)


def test_grid_tour_length():
    assert grid_tsp_distance(1, 100) == 99**2 + 3 * 99 == 10098
    assert grid_tsp_distance(7, 8) == 4
    rng = rng_from_seed(0)
    for _ in range(100):
        a = int(rng.integers(-50, 50))
        g = int(rng.integers(1, 200))
        assert grid_tsp_distance(a, a + g) == g * (g + 1) + 2 * g


def test_two_corner_depot_tour_length():
    assert grid_2tsp_corner_distance(1, 99) == pytest.approx(10017.689, abs=0.01)
    assert grid_2tsp_corner_distance(0, 2) == pytest.approx(11.123, abs=0.001)
    with pytest.raises(ValueError, match="even"):
        grid_2tsp_corner_distance(1, 100)
    rng = rng_from_seed(1)
    for _ in range(100):
        a = int(rng.integers(-50, 50))
        g = 2 * int(rng.integers(1, 100))
        b = a + g
        first = g * (g + 1) + g - 1 + 2 * math.sqrt(g * g + 0.25 * (g - 1) ** 2)
        second = g * g + 2 * g - 1 + math.sqrt(
            5 * a * a - 10 * a * b + 2 * a + 5 * b * b - 2 * b + 1
        )
        assert first == pytest.approx(second, abs=1e-9)
        assert grid_2tsp_corner_distance(a, b) == pytest.approx(first)


# ---------------------------------------------------------------------------
# Monte Carlo twins

def test_interval_monte_carlo_matches_closed_form():
    result = simulate_min_dist(1, 1_000_000, UnitInterval(), seed=8)
    se = 0.2357 / math.sqrt(1_000_000)  # std of |x - y| on the unit square
    assert abs(result.mean - expected_pair_distance_interval(1.0)) < 3 * se


def test_pair_distance_unit_interval():
    result = simulate_min_dist(1, 100_000, UnitInterval(), seed=42)
    assert result.mean == pytest.approx(1 / 3, abs=0.005)
    # triangular shape: counts fall monotonically once rebinned coarsely
    coarse = result.counts.reshape(10, 10).sum(axis=1)
    assert all(a > b for a, b in zip(coarse, coarse[1:]))


def test_pair_distance_integer_range():
    result = simulate_min_dist(1, 100_000, IntegerRange(100), seed=42)
    assert result.mean == pytest.approx(min_dist_exact(1, IntegerRange(100)), abs=0.5)


@pytest.mark.parametrize("h", [1, 2, 3, 10, 100])
def test_integer_pair_expectation_is_the_closed_form(h):
    # the minimum distance to one other point is the pair distance
    expected = (h * h - 1) / (3 * h)
    assert min_dist_exact(1, IntegerRange(h)) == pytest.approx(expected, rel=1e-12)


def test_unit_pair_expectation_is_a_third():
    assert min_dist_exact(1, UnitInterval()) == expected_pair_distance_interval(1)


def test_pair_distance_degenerate_range():
    result = simulate_min_dist(1, 1000, IntegerRange(1), seed=0)
    assert result.mean == 0.0
    assert result.counts[0] == 1000


def test_pair_distance_rectangle_matches_closed_form():
    expected = expected_pair_distance_rectangle(3, 4)
    result = simulate_min_dist(1, 1_000_000, Rectangle(3, 4), seed=9)
    # 3 standard errors; distances in a 3x4 box have std below the diameter
    se = 5.0 / math.sqrt(1_000_000)
    assert abs(result.mean - expected) < 3 * se


def test_rectangle_min_dist_matches_a_python_oracle():
    # one chunk: the single points, then the 7-point clouds, each (x, y)
    # scaled by the sides; every distance taken one float at a time
    n, reps, seed = 7, 3000, 13
    rng = distlaw._chunk_rng(seed, 0)
    singles = rng.random((reps, 2)).tolist()
    clouds = rng.random((reps, n, 2)).tolist()
    values = []
    for (x, y), cloud in zip(singles, clouds):
        best = math.inf
        for u, v in cloud:
            dx = u * 3.0 - x * 3.0
            dy = v * 2.0 - y * 2.0
            best = min(best, math.sqrt(dx * dx + dy * dy))
        values.append(best)
    oracle = distlaw._histogram_result(np.array(values), reps, seed)
    result = simulate_min_dist(n, reps, Rectangle(3.0, 2.0), seed)
    assert result.mean == oracle.mean
    assert np.array_equal(result.counts, oracle.counts)
    assert np.array_equal(result.bin_edges, oracle.bin_edges)


def test_square_monte_carlo_matches_closed_form():
    expected = expected_pair_distance_square(math.sqrt(2) * 100)
    result = simulate_min_dist(1, 1_000_000, Rectangle(100, 100), seed=10)
    se = 100 * math.sqrt(2) / math.sqrt(1_000_000)
    assert abs(result.mean - expected) < 3 * se


def test_ball_monte_carlo_matches_closed_form():
    # rejection-sampled pairs in the unit-radius 3-ball (diameter 2)
    expected = expected_pair_distance_ball(3, 2)
    rng = rng_from_seed(11)
    need = 1_000_000
    collected = []
    while sum(len(c) for c in collected) < 2 * need:
        batch = rng.random((3 * need, 3)) * 2 - 1
        batch = batch[(batch * batch).sum(axis=1) <= 1.0]
        collected.append(batch)
    pts = np.concatenate(collected)[: 2 * need]
    dist = np.sqrt(((pts[:need] - pts[need:]) ** 2).sum(axis=1))
    se = dist.std(ddof=1) / math.sqrt(need)
    assert abs(dist.mean() - expected) < 3 * se


def test_min_dist_unit_interval():
    result = simulate_min_dist(50, 100_000, UnitInterval(), seed=42)
    assert result.mean == pytest.approx(0.01, rel=0.10)
    single = simulate_min_dist(1, 100_000, UnitInterval(), seed=43)
    se = 0.2357 / math.sqrt(100_000)
    assert abs(single.mean - 1 / 3) < 3 * se


def test_min_dist_integer_range():
    result = simulate_min_dist(50, 100_000, IntegerRange(100), seed=42)
    assert result.mean == pytest.approx(0.9644, rel=0.10)
    zero_bin = result.counts[0]
    assert zero_bin >= 0.2 * result.reps  # exact-hit mass sits in the first bin


def test_min_dist_tracks_the_law():
    law = min_dist_expectation(2)
    result = simulate_min_dist(2, 100_000, UnitInterval(), seed=44)
    assert result.mean == pytest.approx(law, rel=0.05)


def _min_dist_moments(n, domain):
    """E[D] from the library and the exact E[D^2] of the minimum distance D."""
    mean = min_dist_exact(n, domain)
    if isinstance(domain, UnitInterval):
        return mean, (n + 7) / (2 * (n + 1) * (n + 2) * (n + 3))
    high = domain.high
    x = np.arange(1, high + 1)[:, None]
    d = np.arange(1, high)
    within = np.minimum(high, x + d - 1) - np.maximum(1, x - d + 1) + 1  # |x - y| < d
    tail = (((high - within) / high) ** n).mean(axis=0)  # P(D >= d)
    return mean, ((2 * d - 1) * tail).sum()


@pytest.mark.parametrize("n, deviation_pct", [(5, -5.2), (50, 1.6), (200, 9.0), (1000, 18.3)])
def test_min_dist_fit_deviation_from_the_exact_expectation(n, deviation_pct):
    exact = min_dist_exact(n, UnitInterval())
    assert 100 * (min_dist_expectation(n) / exact - 1) == pytest.approx(deviation_pct, abs=0.05)


@pytest.mark.parametrize(
    "n, domain",
    [(5, UnitInterval()), (50, UnitInterval()), (5, IntegerRange(30)), (50, IntegerRange(100))],
    ids=["unit-5", "unit-50", "int30-5", "int100-50"],
)
def test_min_dist_mean_matches_the_exact_expectation(n, domain):
    reps = 1 << 16
    mean, second = _min_dist_moments(n, domain)
    result = simulate_min_dist(n, reps, domain, seed=1)
    se = math.sqrt((second - mean * mean) / reps)
    assert abs(result.mean - mean) < 4 * se


def test_simulation_determinism_and_worker_invariance():
    base = simulate_min_dist(1, 80_000, UnitInterval(), seed=5)
    again = simulate_min_dist(1, 80_000, UnitInterval(), seed=5)
    assert base.mean == again.mean
    assert np.array_equal(base.counts, again.counts)
    threaded = simulate_min_dist(1, 80_000, UnitInterval(), seed=5, workers=4)
    assert threaded.mean == base.mean
    assert np.array_equal(threaded.counts, base.counts)
    other = simulate_min_dist(1, 80_000, UnitInterval(), seed=6)
    assert other.mean != base.mean
    mins = simulate_min_dist(10, 50_000, IntegerRange(30), seed=5, workers=3)
    assert mins.mean == simulate_min_dist(10, 50_000, IntegerRange(30), seed=5).mean


class _NoThreads:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread pool was started")


@pytest.mark.parametrize("cpus,reps", [(1, 50_000), (4, 1_000)])
def test_simulation_caps_workers_at_cpus_and_chunks(monkeypatch, cpus, reps):
    # 50,000 repetitions make 4 chunks but 1 CPU; 1,000 make 1 chunk
    serial = simulate_min_dist(10, reps, IntegerRange(30), seed=5, workers=1)
    monkeypatch.setattr(distlaw, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(distlaw, "ThreadPoolExecutor", _NoThreads)
    capped = simulate_min_dist(10, reps, IntegerRange(30), seed=5, workers=4)
    assert capped.mean == serial.mean
    assert np.array_equal(capped.counts, serial.counts)
    assert np.array_equal(capped.bin_edges, serial.bin_edges)


@pytest.mark.parametrize("workers", [0, -3])
def test_simulation_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers"):
        simulate_min_dist(1, 100, UnitInterval(), seed=0, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        simulate_min_dist(5, 100, UnitInterval(), seed=0, workers=workers)


def test_unsupported_domains_raise():
    with pytest.raises(TypeError):
        simulate_min_dist(5, 100, (1.0, 1.0), seed=0)
    with pytest.raises(TypeError):
        simulate_min_dist(1, 100, "unit", seed=0)
    with pytest.raises(ValueError):
        simulate_min_dist(1, 0, UnitInterval(), seed=0)
    with pytest.raises(ValueError):
        simulate_min_dist(0, 10, UnitInterval(), seed=0)


def test_histogram_invariants_and_csv():
    result = simulate_min_dist(1, 12_345, UnitInterval(), seed=3)
    assert int(result.counts.sum()) == 12_345
    assert result.bin_edges[0] <= result.mean <= result.bin_edges[-1]
    assert len(result.bin_edges) == len(result.counts) + 1
    csv_text = result.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 101
    with pytest.raises(ValueError):
        MonteCarloResult(0.5, np.array([0.0, 1.0]), np.array([3]), reps=4, seed=0)
    with pytest.raises(ValueError):
        MonteCarloResult(2.0, np.array([0.0, 1.0]), np.array([4]), reps=4, seed=0)


@pytest.mark.parametrize(
    "call,error,fragment",
    [
        (lambda: delta_estimate([]), ValueError, "empty summary table"),
        (lambda: fit_power_law([(1.0, 2.0)]), ValueError, "at least two"),
        (lambda: grid_scale(1), ValueError, "grid_max must be at least 2"),
        (lambda: expected_pair_distance_square(-1), ValueError, "cannot be negative"),
        (lambda: expected_pair_distance_ball(2, -1), ValueError, "cannot be negative"),
        (lambda: grid_tsp_distance(3, 3), ValueError, "need b > a"),
        (lambda: grid_2tsp_corner_distance(4, 2), ValueError, "need b > a"),
        (lambda: IntegerRange(0), ValueError, "high >= 1"),
        (lambda: Rectangle(0, 1), ValueError, "sides must be positive"),
        (lambda: Rectangle(1, -1), ValueError, "sides must be positive"),
        (lambda: min_dist_exact(0, UnitInterval()), ValueError, "at least one target"),
        (lambda: min_dist_exact(5, Rectangle(1, 1)), TypeError, "unsupported domain"),
        (lambda: distlaw.PowerFit(0.0, 0.5, 0.0), ValueError, "coefficient must be positive"),
    ],
    ids=[
        "delta-empty", "fit-one-point", "grid-scale", "square-diameter", "ball-diameter",
        "grid-tsp", "grid-2tsp", "integer-range", "rect-width", "rect-height",
        "min-dist-n", "min-dist-rectangle", "power-fit-coefficient",
    ],
)
def test_argument_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_summary_row_validation():
    with pytest.raises(ValueError):
        SummaryRow(50, 2, "nearest", 1.0, 0.5, samples=1)
    with pytest.raises(ValueError):
        SummaryRow(50, 2, "nearest", 1.0, -0.5, samples=5)


# ---------------------------------------------------------------------------
# byte locks on the Monte Carlo outputs

def _mc_lock_cases(workers):
    # 40,000 repetitions make three chunks, so the threaded runs split work
    return {
        "min_int100": simulate_min_dist(50, 40_000, IntegerRange(100), seed=7, workers=workers),
        "min_int30": simulate_min_dist(5, 40_000, IntegerRange(30), seed=8, workers=workers),
        "min_unit": simulate_min_dist(10, 40_000, UnitInterval(), seed=9, workers=workers),
        "pair_unit": simulate_min_dist(1, 40_000, UnitInterval(), seed=10, workers=workers),
        "pair_int": simulate_min_dist(1, 40_000, IntegerRange(100), seed=11, workers=workers),
        "pair_rect": simulate_min_dist(1, 40_000, Rectangle(2.0, 1.0), seed=12, workers=workers),
    }


# sha256 of ``repr(mean)`` plus ``to_csv()``, recorded before the integer
# estimator moved to in-place int64 arithmetic
_MC_DIGESTS = {
    "min_int100": "620eeea6cb63f9538b801b174fa23b4144016a36f62cd725b7632486abe72df9",
    "min_int30": "1a3180976c14fe0336701ac5f91a11894d8ae317a421511863eb58f1b067eab7",
    "min_unit": "68849746433a699d1501ac40f5558628d0800e416b34da7d420aa0a14062028c",
    "pair_unit": "2c41296ede038c3df552ed565850de2b8e48e288802310f2fb4b7502bdf4f7c2",
    "pair_int": "b1113f49ad3e5431a52ccc6976e4d3b9df90b19bf2d7a40f1a2331694979b1a1",
    "pair_rect": "1371593f1904847cfe2fa4f74ee23bcc4e078adcd4e0fe69cdd1c40d8208abfb",
}


@pytest.mark.parametrize("workers", [1, 3])
def test_monte_carlo_outputs_are_locked(workers):
    for name, result in _mc_lock_cases(workers).items():
        text = f"{result.mean!r}\n" + result.to_csv()
        assert hashlib.sha256(text.encode()).hexdigest() == _MC_DIGESTS[name], name


# n = 300 puts ~4.9M points in a 16,384-repetition chunk, so each chunk's
# clouds span several draw blocks; recorded with whole-chunk draws
_MULTI_BLOCK_DIGESTS = {
    "int100": (IntegerRange(100), 31,
               "9015419e5cbb6aaf5a7c423e0e8329c611728c904c0298d46dea11bfc953ef9a"),
    "unit": (UnitInterval(), 32,
             "4301b9dee7f067880b9e206f608c14201821073ffba9cee3a4bfe1618a8526ac"),
    "rect": (Rectangle(2.0, 1.0), 33,
             "8646895fde7b34368bd320bd35bb2117c8656c1dfe7d5c79e0b1171ecfe88675"),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", sorted(_MULTI_BLOCK_DIGESTS))
def test_multi_block_monte_carlo_outputs_are_locked(name, workers):
    domain, seed, digest = _MULTI_BLOCK_DIGESTS[name]
    result = simulate_min_dist(300, 20_000, domain, seed=seed, workers=workers)
    text = f"{result.mean!r}\n" + result.to_csv()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [1000, 8000])
def test_monte_carlo_memory_does_not_grow_with_n(n):
    # whole-chunk draws peaked at 16.1 and 128.1 MB here
    tracemalloc.start()
    try:
        simulate_min_dist(n, 1_000, Rectangle(2.0, 1.0), seed=1, workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24e6


def _float_min_dist(n, reps, high, seed):
    # reference: the draws converted to float64 before subtracting, with
    # the estimator's chunking and per-chunk seeds
    parts = []
    for chunk, start in enumerate(range(0, reps, distlaw._CHUNK)):
        count = min(distlaw._CHUNK, reps - start)
        rng = distlaw._chunk_rng(seed, chunk)
        x = rng.integers(1, high + 1, count).astype(np.float64)
        ys = rng.integers(1, high + 1, (count, n)).astype(np.float64)
        parts.append(np.abs(ys - x[:, None]).min(axis=1))
    return distlaw._histogram_result(np.concatenate(parts), reps, seed)


def test_integer_min_dist_matches_float_formula_up_to_2_53():
    reps = distlaw._CHUNK + 500  # two chunks
    for high in (1, 100, 2**53):
        new = simulate_min_dist(3, reps, IntegerRange(high), seed=21)
        old = _float_min_dist(3, reps, high, seed=21)
        assert new.mean == old.mean
        assert new.to_csv() == old.to_csv()


@pytest.mark.parametrize("high,dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_integer_draw_dtype_leaves_the_stream_unchanged(monkeypatch, high, dtype):
    drawn = []
    chunk_rng = distlaw._chunk_rng

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def integers(self, *args, dtype):
            drawn.append(np.dtype(dtype))
            return self.rng.integers(*args, dtype=dtype)

    monkeypatch.setattr(distlaw, "_chunk_rng", lambda seed, i: Recording(chunk_rng(seed, i)))
    result = simulate_min_dist(3, 500, IntegerRange(high), seed=23)
    monkeypatch.undo()
    assert drawn == [np.dtype(dtype)] * 2
    old = _float_min_dist(3, 500, high, seed=23)  # int64 draws
    assert result.mean == old.mean
    assert result.to_csv() == old.to_csv()


def test_integer_min_dist_is_exact_beyond_2_53():
    # float64 cannot hold these draws; int64 differences stay exact and
    # only the minimum is rounded once
    high, n, reps, seed = 2**62, 4, 1_000, 22
    rng = distlaw._chunk_rng(seed, 0)
    x = rng.integers(1, high + 1, reps).tolist()
    ys = rng.integers(1, high + 1, (reps, n)).tolist()
    exact = np.array([float(min(abs(y - xi) for y in row)) for xi, row in zip(x, ys)])
    expected = distlaw._histogram_result(exact, reps, seed)
    result = simulate_min_dist(n, reps, IntegerRange(high), seed=seed)
    assert result.mean == expected.mean
    assert result.to_csv() == expected.to_csv()
