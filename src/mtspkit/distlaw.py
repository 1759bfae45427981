"""Closed-form distance laws and the Monte Carlo estimators validating them.

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
``SeedSequence(seed, spawn_key=(c,))``, so the result is a pure function
of the seed no matter how many workers process the chunks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

GRID_PAIR_COEF = 138.2
GRID_PAIR_EXP = 0.44
GRID_FLEET_STEP = 90.4
GRID_SINGLE_COEF = 111.37
GRID_SINGLE_EXP = 0.4704
MIN_DIST_COEF = 0.4158
MIN_DIST_EXP = -0.949

_REFERENCE_GRID = 100  # the constants above belong to the {1..100}^2 grid

_CHUNK = 1 << 14
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

    ``table`` must hold one algorithm's rows over a full grid
    S x {2..max_m}; the increments are ``s[t, m] - s[t, m-1]`` for every
    t and every m >= 3.
    """
    if not table:
        raise ValueError("empty summary table")
    algorithms = {row.algorithm for row in table}
    if len(algorithms) != 1:
        raise ValueError(f"expected rows for one algorithm, got {sorted(algorithms)}")
    cells = {(row.t, row.m): row.mean for row in table}
    sizes = sorted({row.t for row in table})
    ms = sorted({row.m for row in table})
    if ms != list(range(2, ms[-1] + 1)):
        raise ValueError(f"grid must cover every m from 2 to {ms[-1]}, got {ms}")
    diffs = []
    for t in sizes:
        for m in ms:
            if (t, m) not in cells:
                raise ValueError(f"missing grid cell (t={t}, m={m})")
            if m >= 3:
                diffs.append(cells[t, m] - cells[t, m - 1])
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

    Requires an even span. The two published algebraic forms are evaluated
    and cross-checked against each other.
    """
    if b <= a:
        raise ValueError("need b > a")
    g = b - a
    if g % 2 != 0:
        raise ValueError("the corner-depot formula needs an even span b - a")
    first = g * (g + 1) + g - 1 + 2 * math.sqrt(g * g + 0.25 * (g - 1) ** 2)
    second = g * g + 2 * g - 1 + math.sqrt(
        5 * a * a - 10 * a * b + 2 * a + 5 * b * b - 2 * b + 1
    )
    if abs(first - second) > 1e-9 * max(1.0, abs(first)):
        raise AssertionError("algebraic forms diverged")  # unreachable
    return first


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
    """Uniform points in a width x height rectangle (pair distances only)."""

    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("rectangle sides must be positive")


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
        lines = ["bin_lo,bin_hi,count"]
        for lo, hi, c in zip(self.bin_edges[:-1], self.bin_edges[1:], self.counts):
            lines.append(f"{float(lo)!r},{float(hi)!r},{int(c)}")
        return "\n".join(lines) + "\n"


def _chunk_rng(seed, index):
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,)))
    )


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


def simulate_pair_dist(reps: int, domain, seed: int, workers: int = 1) -> MonteCarloResult:
    """Sampled distance between two uniform points of the domain.

    Draw order per repetition chunk: first point(s), then second point(s).
    """
    if reps < 1:
        raise ValueError("need at least one repetition")

    def draw(rng, count):
        if isinstance(domain, UnitInterval):
            x = rng.random(count)
            y = rng.random(count)
            return np.abs(x - y)
        if isinstance(domain, IntegerRange):
            x = rng.integers(1, domain.high + 1, count)
            y = rng.integers(1, domain.high + 1, count)
            return np.abs(x - y).astype(np.float64)
        if isinstance(domain, Rectangle):
            span = np.array([domain.width, domain.height])
            x = rng.random((count, 2)) * span
            y = rng.random((count, 2)) * span
            return np.sqrt(((x - y) ** 2).sum(axis=1))
        raise TypeError(f"unsupported domain {domain!r}")

    return _histogram_result(_run_chunks(reps, seed, workers, draw), reps, seed)


def simulate_min_dist(
    n: int, reps: int, domain, seed: int, workers: int = 1
) -> MonteCarloResult:
    """Sampled minimum distance from one point to n points of the domain.

    Draw order per repetition chunk: the single points, then the n-point
    clouds row by row.

    Each chunk's differences are taken in place in the draws' own buffer.
    On an ``IntegerRange`` they stay int64, where they are exact, and only
    the per-repetition minimum is converted to float64. For every
    ``high <= 2**53`` this equals converting the draws first; above that,
    converting first would round the draws before subtracting.
    """
    if n < 1:
        raise ValueError("need at least one target point")
    if reps < 1:
        raise ValueError("need at least one repetition")

    def draw(rng, count):
        if isinstance(domain, UnitInterval):
            x = rng.random(count)
            ys = rng.random((count, n))
        elif isinstance(domain, IntegerRange):
            x = rng.integers(1, domain.high + 1, count)
            ys = rng.integers(1, domain.high + 1, (count, n))
        else:
            raise TypeError(f"unsupported domain {domain!r}")
        np.subtract(ys, x[:, None], out=ys)
        np.abs(ys, out=ys)
        return ys.min(axis=1).astype(np.float64, copy=False)

    return _histogram_result(_run_chunks(reps, seed, workers, draw), reps, seed)
