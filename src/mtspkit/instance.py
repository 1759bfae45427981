"""Instances: loading, generation, validation and route-plan evaluation.

Nodes are labelled 1..n with node 1 as the depot; the distance matrix is
a 0-based numpy array (``matrix[i - 1, j - 1]`` is the arc cost from node
i to node j) whose diagonal carries ``inf`` so that argmin scans can never
select a node's own row entry.

Reproducibility contract: each convention has one home here.

* :func:`rng_from_seed` is the only generator constructor (numpy's PCG64).
  An instance seed is :func:`derive_seed`'s value, the first uint64 of
  ``SeedSequence(base, spawn_key=key)``. Monte Carlo chunk c seeds its
  generator with ``SeedSequence(seed, spawn_key=(c,))`` itself.
* Every CSV goes through :func:`write_csv`, floats written by ``repr``.
* :func:`left_fold` makes plan totals and ``exact._root_bound``, the floor
  of every stopped exact run's lower bound on both backends, so no total
  depends on the Python version.

Seeds and draw order are part of the public contract; identical seeds
replay bit-identically on every platform.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_WEIGHT_FORMATS = (
    "FULL_MATRIX",
    "UPPER_ROW",
    "LOWER_ROW",
    "UPPER_DIAG_ROW",
    "LOWER_DIAG_ROW",
)

_DATA_DIR = Path(__file__).parent / "data"


class ParseError(ValueError):
    """Malformed instance file; the message names the offending line."""


class PlanError(ValueError):
    """A route plan violates the structural requirements."""


# Bytes per row block of the distance build: a block and its scratch stay in
# cache through every pass. Measured over n = 50-2000 against fixed blocks of
# 16-64 rows and budgets of 128-512 kB, this budget was fastest or tied; with
# the contiguous-operand fill it was again, against 64 kB-1 MB at n = 500-2000.
_BLOCK_BYTES = 256_000


def _block_rows(n: int) -> int:
    """Rows per block of an n-point build: all n rows up to n = 178."""
    return max(1, min(n, _BLOCK_BYTES // (8 * n)))


def euclidean_matrix(coords, rounding: str = "none") -> np.ndarray:
    """Pairwise Euclidean distances with an ``inf`` diagonal.

    ``rounding="integer"`` applies the TSPLIB nearest-integer convention
    ``floor(d + 0.5)`` to the off-diagonal entries only.

    The matrix is filled in blocks of rows of about 256 kB each (the whole
    matrix up to n = 178, 16 rows at n = 2000). In a block, each row is
    set to ``x`` and then has its own point's x subtracted, so row i holds
    ``x[j] - x[i]``, the exact negation of ``x[i] - x[j]``; both steps read
    contiguous operands, which numpy runs faster than the broadcast loop
    behind ``np.subtract.outer``. The x differences are squared in place,
    the y differences are formed the same way in one reused block-sized
    scratch buffer, squared and added, then ``sqrt`` and the rounding run
    in place. Every entry is ``dx*dx + dy*dy`` in that order, and the build
    allocates only the n x n float64 result (32 MB at n=2000) plus one block.
    """
    if rounding not in ("none", "integer"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("coordinates must be an (n, 2) array")
    n = pts.shape[0]
    if n < 3:
        raise ValueError("need at least 3 points")
    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1])
    rows = _block_rows(n)
    dist = np.empty((n, n))
    scratch = np.empty((rows, n))
    for i0 in range(0, n, rows):
        block = dist[i0 : i0 + rows]
        dy = scratch[: len(block)]
        block[...] = x
        block -= x[i0 : i0 + rows, None]
        block *= block
        dy[...] = y
        dy -= y[i0 : i0 + rows, None]
        dy *= dy
        block += dy
        np.sqrt(block, out=block)
        if rounding == "integer":
            block += 0.5
            np.floor(block, out=block)
    np.fill_diagonal(dist, np.inf)
    return dist


# Coordinates spanning less than this build no infinite distance: every entry
# is at most sqrt(dx*dx + dy*dy) with |dx|, |dy| < 9e153, and 2 * (9e153)**2
# = 1.62e308 is below the float64 maximum of 1.797e308.
_SAFE_SPAN = 9e153


def _check_off_diagonal_finite(matrix: np.ndarray) -> None:
    """Raise unless every off-diagonal entry is finite.

    The diagonal must already hold the ``inf`` sentinel, so the check
    reduces to counting exactly n non-finite entries.
    """
    n = matrix.shape[0]
    if np.count_nonzero(np.isfinite(matrix)) != n * (n - 1):
        raise ValueError("off-diagonal distances must be finite")


@dataclass(frozen=True, eq=False)
class Instance:
    """An mTSP instance; immutable after construction.

    Give a distance ``matrix``, ``coords``, or both. ``rounding`` is
    ``"none"`` or ``"integer"`` (see :func:`euclidean_matrix`); it is
    checked for every instance. From coordinates alone the constructor
    checks that they are finite, builds the matrix once with
    :func:`euclidean_matrix` and checks that no distance overflowed, so a
    coordinate instance costs one n x n float64 matrix (32 MB at n=2000).
    The overflow check is O(n): when the coordinates span less than
    ``_SAFE_SPAN`` (9e153) no entry can be infinite. Only wider spans scan
    all n x n entries.
    A given matrix must be square with n >= 3, an ``inf`` diagonal and
    finite non-negative off-diagonal entries; with coordinates as well, it
    must agree with them under ``rounding``, which the constructor
    re-derives the matrix to check. Both arrays are copied and frozen.
    Instances compare and hash by identity: two loads of one file are
    unequal.
    """

    name: str
    matrix: np.ndarray | None = None
    coords: np.ndarray | None = None
    rounding: str = "none"

    def __post_init__(self):
        if self.rounding not in ("none", "integer"):
            raise ValueError(f"unknown rounding mode {self.rounding!r}")
        coords = self.coords
        if coords is not None:
            coords = np.array(coords, dtype=np.float64)
        if self.matrix is None:
            if coords is None:
                raise ValueError("instance needs a distance matrix or coordinates")
            if not np.all(np.isfinite(coords)):
                raise ValueError("coordinates must be finite")
            matrix = euclidean_matrix(coords, self.rounding)  # checks (n, 2), n >= 3
            if not np.ptp(coords) < _SAFE_SPAN:
                _check_off_diagonal_finite(matrix)  # some distance may have overflowed
        else:
            matrix = np.array(self.matrix, dtype=np.float64)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError("distance matrix must be square")
            n = matrix.shape[0]
            if n < 3:
                raise ValueError("instance needs at least 3 nodes")
            if not np.all(np.isposinf(np.diagonal(matrix))):
                raise ValueError("matrix diagonal must be the infinity sentinel")
            _check_off_diagonal_finite(matrix)
            if np.any(matrix < 0):
                raise ValueError("distances must be non-negative")
            if coords is not None:
                if coords.shape != (n, 2):
                    raise ValueError("coords must be an (n, 2) array")
                # both diagonals are inf, which allclose counts as equal
                expected = euclidean_matrix(coords, self.rounding)
                if not np.allclose(matrix, expected, rtol=1e-9, atol=1e-9):
                    raise ValueError("matrix disagrees with coordinates")
        if coords is not None:
            coords.flags.writeable = False
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_symmetric(self) -> bool:
        # the constructor leaves an inf diagonal, which equals itself, and
        # finite entries off it
        return bool(np.array_equal(self.matrix, self.matrix.T))


@dataclass(frozen=True)
class RoutePlan:
    """Closed tours (1-based node labels, depot 1 first and last) plus costs."""

    routes: tuple[tuple[int, ...], ...]
    per_route_distance: tuple[float, ...]
    total_distance: float

    @property
    def m(self) -> int:
        return len(self.routes)

    def customer_counts(self) -> tuple[int, ...]:
        return tuple(len(r) - 2 for r in self.routes)


def evaluate_plan(instance: Instance, routes) -> RoutePlan:
    """Validate route structure against the instance and price the plan.

    Rejects plans that skip or repeat a customer, revisit the depot
    mid-route, or fail to start and end every route at node 1.

    Node labels must be integers (Python or numpy); a float such as 2.7 is
    rejected, never truncated. The whole plan is checked at once, on its
    :func:`plan_tour`: one ``np.bincount`` shows every customer once and
    the depot only where the routes start. One gather then takes every arc
    of the tour, and a route's cost is the numpy sum of its contiguous run
    of arcs. Only a plan that fails the check is walked route by route,
    node by node, so the error names its first defect in route order.

    The total is the :func:`left_fold` of the route costs in route order.
    """
    n = instance.n
    clean = []
    for route in routes:
        try:
            clean.append(tuple(map(operator.index, route)))
        except TypeError:
            _walk(n, clean)  # a defect of an earlier route comes first
            raise PlanError(
                f"route {len(clean) + 1} holds a non-integer node label"
            ) from None
    tour = _checked_tour(n, clean)
    if tour is None:
        missing = sorted(set(range(2, n + 1)) - _walk(n, clean))
        raise PlanError(f"nodes never visited: {missing}")
    arcs = instance.matrix[tour[:-1], tour[1:]]
    per = []
    start = 0
    for route in clean:
        stop = start + len(route) - 1
        per.append(float(arcs[start:stop].sum()))
        start = stop
    return RoutePlan(tuple(clean), tuple(per), left_fold(per))


def plan_tour(routes) -> np.ndarray:
    """The plan's one 0-based int64 tour: each route without its closing
    depot, then one final depot. Route k's arcs are a contiguous run of
    the tour's, since the next route starts at the depot it closes at."""
    nodes = itertools.chain.from_iterable(route[:-1] for route in routes)
    tour = np.fromiter(itertools.chain(nodes, (1,)), np.int64)
    tour -= 1
    return tour


def _checked_tour(n: int, routes) -> np.ndarray | None:
    """The :func:`plan_tour` of ``routes`` if they form a plan on nodes
    1..n, else None.

    Every route must start and end at the depot around a customer. The
    tour of m such routes holds the depot at least m + 1 times: the route
    starts and the final depot. If it holds n + m labels, each a node, and
    one bincount finds all n nodes among them, the n - 1 customers fill
    the other n - 1 places once each.
    """
    if not all(len(route) > 2 and route[0] == 1 == route[-1] for route in routes):
        return None
    try:
        tour = plan_tour(routes)
    except OverflowError:  # a label int64 cannot hold is no node
        return None
    # a negative index reads as a huge unsigned one
    if tour.size != n + len(routes) or tour.view(np.uint64).max() >= n:
        return None
    if np.count_nonzero(np.bincount(tour, minlength=n)) != n:
        return None
    return tour


def _walk(n: int, routes) -> set:
    """Walk ``routes`` in order, node by node, and raise :class:`PlanError`
    at the first defect; return the customers visited if there is none."""
    seen = set()
    for idx, route in enumerate(routes, start=1):
        if len(route) < 3 or route[0] != 1 or route[-1] != 1:
            raise PlanError(
                f"route {idx} must start and end at depot 1 and visit a customer"
            )
        for v in route[1:-1]:
            if v == 1:
                raise PlanError(f"route {idx} revisits the depot")
            if not 2 <= v <= n:
                raise PlanError(f"route {idx} contains unknown node {v}")
            if v in seen:
                raise PlanError(f"node {v} visited more than once")
            seen.add(v)
    return seen


def left_fold(values) -> float:
    """The package's one float total: ``((0.0 + v0) + v1) + ...`` in the
    given order. ``sum`` compensates rounding from Python 3.12 on, which
    would make a total depend on the Python version."""
    return functools.reduce(operator.add, values, 0.0)


def _integer(value, name: str) -> int:
    """``value`` as a Python int through ``operator.index``, so numpy
    integers pass and floats, even integral ones, do not; the error names
    the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


# ---------------------------------------------------------------------------
# seeded generation

@dataclass(frozen=True)
class GridSpec:
    """Uniform instance spec: n nodes i.i.d. on the integer grid {1..grid_max}^2.

    Each field is read through ``operator.index`` and kept as a Python int.
    """

    n: int
    grid_max: int
    seed: int

    def __post_init__(self):
        for name in ("n", "grid_max", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n < 3:
            raise ValueError("n must be at least 3")
        if self.grid_max < 2:
            raise ValueError("grid_max must be at least 2")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


def rng_from_seed(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """The package's one generator constructor: PCG64 from a seed or a
    ``SeedSequence``."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(base_seed: int, *key: int) -> int:
    """Derive a child seed: first uint64 of ``SeedSequence(base, spawn_key=key)``."""
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def generate_uniform_instance(spec: GridSpec) -> Instance:
    """Draw the instance for ``spec``; identical specs replay bit-identically.

    Draw order: one ``integers(1, grid_max + 1, size=(n, 2))`` call, row
    per node, x before y.
    """
    rng = rng_from_seed(spec.seed)
    pts = rng.integers(1, spec.grid_max + 1, size=(spec.n, 2)).astype(np.float64)
    name = f"u{spec.n}g{spec.grid_max}s{spec.seed}"
    return Instance(name, coords=pts)


# ---------------------------------------------------------------------------
# TSPLIB subset

# The header grammar: each keyword and the values it admits (empty: any
# value). A keyword may appear once, except COMMENT; the three keys in
# _REQUIRED must appear, and every *_SECTION must follow DIMENSION.
_KEYWORDS = {
    "NAME": (),
    "COMMENT": (),
    "TYPE": (),
    "DIMENSION": (),
    "EDGE_WEIGHT_TYPE": ("EUC_2D", "EXPLICIT"),
    "EDGE_WEIGHT_FORMAT": _WEIGHT_FORMATS,
    "DISPLAY_DATA_TYPE": ("COORD_DISPLAY", "TWOD_DISPLAY", "NO_DISPLAY"),
    "NODE_COORD_SECTION": (),
    "EDGE_WEIGHT_SECTION": (),
    "DISPLAY_DATA_SECTION": (),
}
_REQUIRED = ("NAME", "DIMENSION", "EDGE_WEIGHT_TYPE")


def parse_tsplib(text: str, rounding: str = "none") -> Instance:
    """Parse the TSPLIB subset: EUC_2D coordinates or EXPLICIT weights.

    Supported weight formats: FULL_MATRIX, UPPER_ROW, LOWER_ROW,
    UPPER_DIAG_ROW, LOWER_DIAG_ROW. Triangular formats are mirrored;
    FULL_MATRIX is taken as given (asymmetric matrices are legal).

    The header keywords are those of ``_KEYWORDS``. An unknown keyword, a
    value the keyword does not admit, a repeated keyword other than
    COMMENT, a section before DIMENSION, a missing NAME, DIMENSION or
    EDGE_WEIGHT_TYPE, and an EDGE_WEIGHT_SECTION in an EUC_2D file each
    raise :class:`ParseError`. An EXPLICIT file's distances are its
    weights: a NODE_COORD_SECTION there holds display coordinates, which
    are checked like any other coordinate rows and then dropped (``coords``
    is None), even where they disagree with the weights. The rows of a
    DISPLAY_DATA_SECTION, in either file type, are checked and dropped the
    same way.

    ``rounding`` must be ``"none"`` or ``"integer"`` for either file type,
    else :class:`ValueError`. It rounds EUC_2D distances; an EXPLICIT
    file's weights are kept as given under either mode.
    """
    lines = text.splitlines()
    values = {}  # keyword -> its value
    where = {}  # keyword -> the line it was last read on
    dim = coords = weights = None

    i = 0
    while i < len(lines):
        lineno = i + 1
        raw = lines[i].strip()
        i += 1
        if not raw:
            continue
        key, _, value = raw.partition(":")
        key = key.strip().upper()
        value = value.strip()
        if key == "EOF":
            break
        if key not in _KEYWORDS:
            raise ParseError(f"line {lineno}: unrecognised keyword {key!r}")
        if key in where and key != "COMMENT":
            raise ParseError(f"line {lineno}: {key} repeated from line {where[key]}")
        if _KEYWORDS[key] and value not in _KEYWORDS[key]:
            raise ParseError(f"line {lineno}: unsupported {key} {value!r}")
        if key.endswith("_SECTION") and dim is None:
            raise ParseError(f"line {lineno}: {key} before DIMENSION")
        values[key] = value
        where[key] = lineno
        if key == "DIMENSION":
            dim = _parse_int(value, lineno)
            if dim < 3:
                raise ParseError(f"line {lineno}: DIMENSION must be at least 3")
        elif key == "NODE_COORD_SECTION":
            coords, i = _read_coords(lines, i, dim)
        elif key == "EDGE_WEIGHT_SECTION":
            weight_format = values.get("EDGE_WEIGHT_FORMAT")
            if weight_format is None:
                raise ParseError(
                    f"line {lineno}: EDGE_WEIGHT_SECTION without EDGE_WEIGHT_FORMAT"
                )
            # the header only promises the values: read them before
            # allocating anything of the size it states
            numbers, i = _read_numbers(lines, i, _weight_count(weight_format, dim))
            weights = _weight_matrix(weight_format, dim, numbers)
        elif key == "DISPLAY_DATA_SECTION":
            _, i = _read_coords(lines, i, dim)  # plotting rows: checked, then dropped

    for key in _REQUIRED:
        if key not in values:
            raise ParseError(f"missing required key {key}")
    if values["EDGE_WEIGHT_TYPE"] == "EUC_2D":
        if weights is not None:
            line = where["EDGE_WEIGHT_SECTION"]
            raise ParseError(f"line {line}: EDGE_WEIGHT_SECTION in an EUC_2D file")
        if coords is None:
            raise ParseError("EUC_2D file has no NODE_COORD_SECTION")
        return Instance(values["NAME"], coords=coords, rounding=rounding)
    if weights is None:
        raise ParseError("EXPLICIT file has no EDGE_WEIGHT_SECTION")
    return Instance(values["NAME"], weights, rounding=rounding)


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: expected an integer, got {token!r}") from None


def _read_coords(lines, i, dim):
    # rows may come in any order: collect them, then store all in one step
    rows = []
    xy = []
    for _ in range(dim):
        if i >= len(lines):
            raise ParseError(f"line {len(lines)}: expected {dim} coordinate rows")
        lineno = i + 1
        parts = lines[i].split()
        i += 1
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: coordinate row needs 'index x y'")
        idx = _parse_int(parts[0], lineno)
        if not 1 <= idx <= dim:
            raise ParseError(f"line {lineno}: node index {idx} outside 1..{dim}")
        try:
            xy.append((float(parts[1]), float(parts[2])))
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric coordinate") from None
        rows.append(idx - 1)
    # dim in-range indices cover 1..dim unless one repeats; the values'
    # finiteness is the constructor's check
    if len(set(rows)) != dim:
        raise ParseError(f"line {i}: some node indices missing from coordinates")
    pts = np.empty((dim, 2))
    pts[rows] = xy
    return pts, i


def _read_numbers(lines, i, count):
    vals = []
    while len(vals) < count:
        # the end of the text reads as an EOF on its last line
        tokens = lines[i].split() if i < len(lines) else ["EOF"]
        lineno = min(i + 1, len(lines))
        if tokens and tokens[0].upper() == "EOF":
            raise ParseError(
                f"line {lineno}: EDGE_WEIGHT_SECTION ended after "
                f"{len(vals)} of {count} values"
            )
        i += 1
        for tok in tokens:
            try:
                vals.append(float(tok))
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric weight {tok!r}") from None
    if len(vals) > count:
        raise ParseError(
            f"line {i}: EDGE_WEIGHT_SECTION holds {len(vals)} values, expected {count}"
        )
    return vals, i


def _weight_count(fmt: str, n: int) -> int:
    """How many values an EDGE_WEIGHT_SECTION of the format holds."""
    if fmt == "FULL_MATRIX":
        return n * n
    return n * (n + 1) // 2 if "DIAG" in fmt else n * (n - 1) // 2


def _weight_matrix(fmt: str, n: int, numbers) -> np.ndarray:
    """The n x n matrix of an EDGE_WEIGHT_SECTION's values, read in file order."""
    if fmt == "FULL_MATRIX":
        weights = np.array(numbers).reshape(n, n)
    else:
        skip = 0 if "DIAG" in fmt else 1
        if fmt.startswith("UPPER"):
            rows, cols = np.triu_indices(n, skip)
        else:
            rows, cols = np.tril_indices(n, -skip)
        weights = np.zeros((n, n))
        weights[rows, cols] = numbers
        weights[cols, rows] = numbers  # triangular formats are mirrored
    np.fill_diagonal(weights, np.inf)
    return weights


def dumps_tsplib(instance: Instance) -> str:
    """Render a coordinate instance in the EUC_2D format (full precision)."""
    if instance.coords is None:
        raise ValueError("instance has no coordinates to write")
    out = [
        f"NAME : {instance.name}",
        "TYPE : TSP",
        f"DIMENSION : {instance.n}",
        "EDGE_WEIGHT_TYPE : EUC_2D",
        "NODE_COORD_SECTION",
    ]
    for i, (x, y) in enumerate(instance.coords, start=1):
        out.append(f"{i} {float(x)!r} {float(y)!r}")
    out.append("EOF")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# CSV: the one writer, and coordinates (header "x,y"; row 1 is the depot)

def write_csv(header, records) -> str:
    """The package's one CSV writer: a header row, then ``records``, every
    line ending in a bare newline. ``csv`` writes each value by ``str``,
    which for a float is its ``repr``, the shortest text that reads back
    to the same float."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    return out.getvalue()


def parse_coords_csv(
    text: str, name: str = "csv-instance", rounding: str = "none"
) -> Instance:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("line 1: empty CSV") from None
    if [h.strip().lower() for h in header] != ["x", "y"]:
        raise ParseError("line 1: CSV header must be 'x,y'")
    pts = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 2:
            raise ParseError(f"line {lineno}: expected two columns")
        try:
            pts.append((float(row[0]), float(row[1])))
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric coordinate") from None
    return Instance(name, coords=pts, rounding=rounding)


def dumps_coords_csv(instance: Instance) -> str:
    if instance.coords is None:
        raise ValueError("instance has no coordinates to write")
    return write_csv(("x", "y"), instance.coords.tolist())


def load_instance(path, rounding: str = "none") -> Instance:
    """Load ``.tsp`` (TSPLIB subset) or ``.csv`` (x,y header) files."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        return parse_coords_csv(text, name=path.stem, rounding=rounding)
    return parse_tsplib(text, rounding=rounding)


def bundled_path(name: str) -> Path:
    return _DATA_DIR / f"{name}.tsp"


def load_bundled(name: str) -> Instance:
    """Load one of the instances shipped under ``mtspkit/data``."""
    path = bundled_path(name)
    if not path.exists():
        raise FileNotFoundError(f"no bundled instance named {name!r}")
    return parse_tsplib(path.read_text())
