"""Closed-form distance laws and the Monte Carlo estimator validating them.

The reference constants below describe expected heuristic tour lengths for
uniformly random nodes on the 100x100 integer grid. They are published
empirical fits and deliberately kept separate from anything re-fitted at
runtime:

* two-salesman growth over instance size t: ``138.2 * t**0.44``
* extra distance per additional salesman beyond two: ``90.4``
* single-salesman (plain TSP) growth: ``111.37 * t**0.4704``
* expected minimum distance from a uniform point on [0, 1] to n others:
  ``0.4158 * n**-0.949``

Monte Carlo runs are chunked; chunk ``c`` draws from
``rng_from_seed(SeedSequence(seed, spawn_key=(c,)))``, so the result is a
pure function of the seed no matter how many workers process the chunks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .instance import rng_from_seed, write_csv

GRID_PAIR_COEF = 138.2
GRID_PAIR_EXP = 0.44
GRID_FLEET_STEP = 90.4
GRID_SINGLE_COEF = 111.37
GRID_SINGLE_EXP = 0.4704
MIN_DIST_COEF = 0.4158
MIN_DIST_EXP = -0.949

_REFERENCE_GRID = 100  # the constants above belong to the {1..100}^2 grid

_CHUNK = 1 << 14
_BLOCK = 1 << 20  # cloud points drawn at once
_BINS = 100


# ---------------------------------------------------------------------------
# summary statistics over experiment tables

@dataclass(frozen=True)
class SummaryRow:
    """Aggregated heuristic result for one (instance size, fleet size) cell."""

    t: int
    m: int
    algorithm: str
    mean: float
    std: float
    samples: int

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("summary rows need at least 2 samples")
        if self.std < 0:
            raise ValueError("standard deviation cannot be negative")


@dataclass(frozen=True)
class PowerFit:
    """Least-squares fit of ``s = c * t**p`` in log-log space."""

    c: float
    p: float
    rss: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("power-law coefficient must be positive")

    def __call__(self, t):
        return self.c * np.asarray(t, dtype=float) ** self.p


def delta_estimate(table: list[SummaryRow]):
    """Mean and sample std of the consecutive-m distance increments.

    ``table`` must hold one algorithm's rows, each (t, m) cell once, over a
    full grid S x {2..max_m}; the increments are ``s[t, m] - s[t, m-1]``
    for every t and every m >= 3. Rows with m = 1 take no part. Fewer
    than two increments have no sample std, so they raise ``ValueError``.
    """
    if not table:
        raise ValueError("empty summary table")
    algorithms = {row.algorithm for row in table}
    if len(algorithms) != 1:
        raise ValueError(f"expected rows for one algorithm, got {sorted(algorithms)}")
    cells = {}
    for row in table:
        if (row.t, row.m) in cells:
            raise ValueError(f"repeated grid cell (t={row.t}, m={row.m})")
        cells[row.t, row.m] = row.mean
    sizes = sorted({t for t, m in cells if m >= 2})
    ms = sorted({m for _, m in cells if m >= 2})
    if ms != list(range(2, len(ms) + 2)):
        raise ValueError(f"grid must cover every m from 2 to {ms[-1]}, got {ms}")
    diffs = []
    for t in sizes:
        for m in ms:
            if (t, m) not in cells:
                raise ValueError(f"missing grid cell (t={t}, m={m})")
            if m >= 3:
                diffs.append(cells[t, m] - cells[t, m - 1])
    if len(diffs) < 2:
        raise ValueError(
            f"need at least two consecutive-m increments, got {len(diffs)}"
        )
    diffs = np.asarray(diffs)
    return float(diffs.mean()), float(diffs.std(ddof=1))


def extrapolate_m(s_t2: float, m: int, delta: float) -> float:
    """Linear fleet-size extrapolation from the two-salesman distance."""
    if m < 2:
        raise ValueError("extrapolation starts at m = 2")
    return s_t2 + (m - 2) * delta


def fit_power_law(points) -> PowerFit:
    """Ordinary least squares on ``log s = log c + p log t``."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two (t, s) points")
    if np.any(pts <= 0):
        raise ValueError("power-law fitting needs positive values")
    logt = np.log(pts[:, 0])
    logs = np.log(pts[:, 1])
    p, logc = np.polyfit(logt, logs, 1)
    resid = logs - (logc + p * logt)
    return PowerFit(float(np.exp(logc)), float(p), float((resid * resid).sum()))


def predict_mtsp_distance(t: int, m: int, scale: float = 1.0) -> float:
    """Expected total heuristic distance for t nodes and m salesmen.

    Applies the reference-grid law ``138.2 t^0.44 + 90.4 (m - 2)`` for
    m >= 2 and the single-salesman law ``111.37 t^0.4704`` for m = 1,
    multiplied by ``scale`` (see :func:`grid_scale`).
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    if m < 1:
        raise ValueError("m must be at least 1")
    if scale <= 0:
        raise ValueError("scale must be positive")
    if m == 1:
        return scale * GRID_SINGLE_COEF * t**GRID_SINGLE_EXP
    return scale * (GRID_PAIR_COEF * t**GRID_PAIR_EXP + GRID_FLEET_STEP * (m - 2))


def grid_scale(grid_max: int) -> float:
    """Scale factor mapping the reference grid onto a {1..grid_max}^2 grid.

    The grid spans grid_max - 1 length units per side, so the factor is
    ``(grid_max - 1) / 99`` (e.g. 299/99 for a 300 km square).
    """
    if grid_max < 2:
        raise ValueError("grid_max must be at least 2")
    return (grid_max - 1) / (_REFERENCE_GRID - 1)


# ---------------------------------------------------------------------------
# expected pair distances in convex bodies

def expected_pair_distance_interval(diameter: float) -> float:
    """Two uniform points on a 1-D compact convex set: one third of the diameter."""
    if diameter < 0:
        raise ValueError("diameter cannot be negative")
    return diameter / 3.0


def expected_pair_distance_rectangle(a_len: float, b_len: float) -> float:
    """Two uniform points in an a x b rectangle (closed form)."""
    if a_len <= 0 or b_len <= 0:
        raise ValueError("rectangle sides must be positive")
    a, b = float(a_len), float(b_len)
    d = math.hypot(a, b)
    return (
        a**3 / b**2
        + b**3 / a**2
        + d * (3 - a**2 / b**2 - b**2 / a**2)
        + 2.5 * (b**2 / a * math.log((a + d) / b) + a**2 / b * math.log((b + d) / a))
    ) / 15.0


def expected_pair_distance_square(diameter: float) -> float:
    """Square specialisation: ``(2 + sqrt 2 + 5 log(sqrt 2 + 1)) d / (15 sqrt 2)``."""
    if diameter < 0:
        raise ValueError("diameter cannot be negative")
    return (2 + math.sqrt(2) + 5 * math.log(math.sqrt(2) + 1)) * diameter / (
        15 * math.sqrt(2)
    )


def expected_pair_distance_ball(dim: int, diameter: float) -> float:
    """Two uniform points in an s-dimensional ball of the given diameter."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if diameter < 0:
        raise ValueError("diameter cannot be negative")
    s = int(dim)
    if s % 2 == 0:
        beta = (
            2 ** (3 * s + 1)
            * math.factorial(s // 2) ** 2
            * math.factorial(s)
            / ((s + 1) * math.factorial(2 * s) * math.pi)
        )
    else:
        beta = (
            2 ** (s + 1)
            * math.factorial(s) ** 3
            / ((s + 1) * math.factorial((s - 1) // 2) ** 2 * math.factorial(2 * s))
        )
    return s / (2 * s + 1) * beta * diameter


def min_dist_expectation(n: int) -> float:
    """Expected minimum distance from one uniform point on [0, 1] to n others."""
    if n <= 1:
        raise ValueError("the law holds for n > 1")
    return MIN_DIST_COEF * n**MIN_DIST_EXP


# ---------------------------------------------------------------------------
# integer-grid traversal formulas

def grid_line_distance(a: int, b: int) -> float:
    """Single-salesman tour over every integer point of [a, b], random depot."""
    if b <= a:
        raise ValueError("need b > a")
    return 2 * (b - a) + 1


def grid_tsp_distance(a: int, b: int) -> float:
    """Single-salesman serpentine tour over the full integer grid [a, b]^2."""
    if b <= a:
        raise ValueError("need b > a")
    g = b - a
    return g * g + 3 * g


def grid_2tsp_corner_distance(a: int, b: int) -> float:
    """Two balanced salesmen from opposite corner depots on the [a, b]^2 grid.

    Requires an even span. Of the two published algebraic forms this
    evaluates the first; the tests check it against the second.
    """
    if b <= a:
        raise ValueError("need b > a")
    g = b - a
    if g % 2 != 0:
        raise ValueError("the corner-depot formula needs an even span b - a")
    return g * (g + 1) + g - 1 + 2 * math.sqrt(g * g + 0.25 * (g - 1) ** 2)


# ---------------------------------------------------------------------------
# Monte Carlo twins

@dataclass(frozen=True)
class UnitInterval:
    """Uniform reals on [0, 1]."""


@dataclass(frozen=True)
class IntegerRange:
    """Uniform integers on {1..high} inclusive."""

    high: int

    def __post_init__(self):
        if self.high < 1:
            raise ValueError("integer range needs high >= 1")


@dataclass(frozen=True)
class Rectangle:
    """Uniform points in a width x height rectangle."""

    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("rectangle sides must be positive")


def min_dist_exact(n: int, domain) -> float:
    """Exact expected minimum distance D from one uniform point to n others.

    On :class:`UnitInterval` it is ``(n + 3) / (2 (n + 1) (n + 2))``. On
    :class:`IntegerRange` ``{1..h}`` it is the tail sum ``sum_d P(D >= d)``
    over d = 1..h-1, where ``P(D >= d | x)`` is the n-th power of the share
    of the h values at distance d or more from x. The integer form builds
    an h x (h - 1) table.
    """
    if n < 1:
        raise ValueError("need at least one target point")
    if isinstance(domain, UnitInterval):
        return (n + 3) / (2 * (n + 1) * (n + 2))
    if not isinstance(domain, IntegerRange):
        raise TypeError(f"unsupported domain {domain!r}")
    high = domain.high
    x = np.arange(1, high + 1)[:, None]
    d = np.arange(1, high)
    within = np.minimum(high, x + d - 1) - np.maximum(1, x - d + 1) + 1  # |x - y| < d
    return float((((high - within) / high) ** n).mean(axis=0).sum())


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    bin_edges: np.ndarray
    counts: np.ndarray
    reps: int
    seed: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.reps:
            raise ValueError("histogram counts must total the repetitions")
        if not self.bin_edges[0] <= self.mean <= self.bin_edges[-1]:
            raise ValueError("mean outside the histogram support")

    def to_csv(self) -> str:
        edges = self.bin_edges.tolist()
        rows = zip(edges[:-1], edges[1:], self.counts.tolist())
        return write_csv(("bin_lo", "bin_hi", "count"), rows)


def _chunk_rng(seed, index):
    return rng_from_seed(np.random.SeedSequence(seed, spawn_key=(index,)))


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunks(reps, seed, workers, draw):
    if workers < 1:
        raise ValueError("workers must be at least 1")
    spans = [(i, min(_CHUNK, reps - i * _CHUNK)) for i in range((reps + _CHUNK - 1) // _CHUNK)]
    # results never depend on the worker count, so threads beyond the chunk
    # or CPU count would only add start-up cost
    workers = min(workers, len(spans), _usable_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda s: draw(_chunk_rng(seed, s[0]), s[1]), spans))
    else:
        parts = [draw(_chunk_rng(seed, i), count) for i, count in spans]
    return np.concatenate(parts)


def _histogram_result(values, reps, seed):
    top = float(values.max()) if values.size and values.max() > 0 else 1.0
    counts, edges = np.histogram(values, bins=_BINS, range=(0.0, top))
    return MonteCarloResult(float(values.mean()), edges, counts, reps, seed)


def simulate_min_dist(
    n: int, reps: int, domain, seed: int, workers: int = 1
) -> MonteCarloResult:
    """Sampled minimum distance from one point to n points of the domain.

    With ``n = 1`` this is the distance between two uniform points.

    Draw order per repetition chunk: the single points, then the n-point
    clouds row by row. A ``Rectangle`` point is one ``(x, y)`` row of
    ``random`` scaled by the sides: ``(count, 2)`` single points, then
    ``(count, n, 2)`` clouds.

    The clouds are drawn in blocks of whole rows, at most ``2**20`` points
    (one row when n is larger), so no buffer grows with n or with the
    thread count. numpy fills an array in C order from one stream, so the
    blocks hold exactly the values of one ``(count, n)`` draw.

    Each block's differences are taken in place in its own buffer. A
    ``Rectangle``'s are squared there and summed into the x plane as
    ``dx**2 + dy**2``, and only each repetition's least sum is rooted. On
    an ``IntegerRange`` they stay integers, where they are exact, and only
    the per-repetition minimum is converted to float64. For every
    ``high <= 2**53`` this equals converting the draws first; above that,
    converting first would round the draws before subtracting. Draws are
    int32 for ``high < 2**31``, which is faster than int64, and int64
    above; numpy draws both from one 32-bit sampler for ranges up to
    ``2**32``, so the stream does not depend on the dtype.
    """
    if n < 1:
        raise ValueError("need at least one target point")
    if reps < 1:
        raise ValueError("need at least one repetition")
    rect = isinstance(domain, Rectangle)
    if isinstance(domain, UnitInterval):
        def sample(rng, shape):
            return rng.random(shape)
    elif isinstance(domain, IntegerRange):
        dtype = np.int32 if domain.high < 2**31 else np.int64

        def sample(rng, shape):
            return rng.integers(1, domain.high + 1, shape, dtype=dtype)
    elif rect:
        span = np.array([domain.width, domain.height])

        def sample(rng, shape):
            points = rng.random((*shape, 2))
            points *= span
            return points
    else:
        raise TypeError(f"unsupported domain {domain!r}")

    def least(ys, x):
        ys -= x[:, None]
        if rect:
            np.square(ys, out=ys)
            squared = ys[..., 0]  # dx**2 + dy**2, summed into the x plane
            squared += ys[..., 1]
            # sqrt is monotone and correctly rounded: the root of the least
            # squared distance is the least distance
            return np.sqrt(squared.min(axis=1))
        np.abs(ys, out=ys)
        return ys.min(axis=1)

    rows = max(1, _BLOCK // n)

    def draw(rng, count):
        x = sample(rng, (count,))
        out = np.empty(count)
        for lo in range(0, count, rows):
            here = x[lo:lo + rows]
            # no name holds the block, so it is freed before the next draw
            out[lo:lo + rows] = least(sample(rng, (len(here), n)), here)
        return out

    return _histogram_result(_run_chunks(reps, seed, workers, draw), reps, seed)
