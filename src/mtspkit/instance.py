"""Instances: loading, generation, validation and route-plan evaluation.

Nodes are labelled 1..n with node 1 as the depot; the distance matrix is
a 0-based numpy array (``matrix[i - 1, j - 1]`` is the arc cost from node
i to node j) whose diagonal carries ``inf`` so that argmin scans can never
select a node's own row entry.

Randomness contract: every seeded operation in this package uses numpy's
PCG64 via :func:`rng_from_seed`, and derived seeds come from
:func:`derive_seed` (``SeedSequence(base, spawn_key=key)``). Seeds and
draw order are part of the public contract; identical seeds replay
bit-identically on every platform.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INFINITY = float("inf")

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


def euclidean_matrix(coords, rounding: str = "none") -> np.ndarray:
    """Pairwise Euclidean distances with an ``inf`` diagonal.

    ``rounding="integer"`` applies the TSPLIB nearest-integer convention
    ``floor(d + 0.5)`` to the off-diagonal entries only.

    The squares ``dx*dx + dy*dy`` are summed in place over two n x n outer
    differences, so the result is one n x n float64 matrix (32 MB at
    n=2000) and the build needs one scratch matrix of the same size.
    """
    if rounding not in ("none", "integer"):
        raise ValueError(f"unknown rounding mode {rounding!r}")
    pts = np.asarray(coords, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("coordinates must be an (n, 2) array")
    if pts.shape[0] < 3:
        raise ValueError("need at least 3 points")
    dist = np.subtract.outer(pts[:, 0], pts[:, 0])
    dist *= dist
    dy = np.subtract.outer(pts[:, 1], pts[:, 1])
    dy *= dy
    dist += dy
    np.sqrt(dist, out=dist)
    if rounding == "integer":
        dist += 0.5
        np.floor(dist, out=dist)
    np.fill_diagonal(dist, INFINITY)
    return dist


def _check_off_diagonal_finite(matrix: np.ndarray) -> None:
    """Raise unless every off-diagonal entry is finite.

    The diagonal must already hold the ``inf`` sentinel, so the check
    reduces to counting exactly n non-finite entries.
    """
    n = matrix.shape[0]
    if np.count_nonzero(np.isfinite(matrix)) != n * (n - 1):
        raise ValueError("off-diagonal distances must be finite")


@dataclass(frozen=True)
class Instance:
    """An mTSP instance; immutable after construction.

    ``coords`` is optional (explicit-matrix instances have none). When
    present, the matrix must agree with the coordinates under the stored
    rounding mode; the constructor re-derives the matrix to check that.
    Coordinate loaders use :meth:`from_coords` instead, which builds the
    matrix once and never re-derives it, so a coordinate instance costs
    one n x n float64 matrix (32 MB at n=2000).
    """

    name: str
    matrix: np.ndarray
    coords: np.ndarray | None = None
    rounding: str = "none"

    def __post_init__(self):
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
        coords = self.coords
        if coords is not None:
            coords = np.array(coords, dtype=np.float64)
            if coords.shape != (n, 2):
                raise ValueError("coords must be an (n, 2) array")
            # both diagonals are inf, which allclose counts as equal
            expected = euclidean_matrix(coords, self.rounding)
            if not np.allclose(matrix, expected, rtol=1e-9, atol=1e-9):
                raise ValueError("matrix disagrees with coordinates")
            coords.flags.writeable = False
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "coords", coords)

    @classmethod
    def from_coords(cls, name: str, coords, rounding: str = "none") -> Instance:
        """Build a coordinate instance, deriving its matrix exactly once.

        Checks that the coordinates are an (n, 2) array of finite values
        with n >= 3, and that no distance overflowed. The matrix comes
        from :func:`euclidean_matrix`, so it agrees with the coordinates
        by construction and is not re-derived.
        """
        pts = np.array(coords, dtype=np.float64)
        if not np.all(np.isfinite(pts)):
            raise ValueError("coordinates must be finite")
        matrix = euclidean_matrix(pts, rounding)  # checks the shape and n >= 3
        _check_off_diagonal_finite(matrix)
        pts.flags.writeable = False
        matrix.flags.writeable = False
        inst = object.__new__(cls)
        for field, value in (("name", name), ("matrix", matrix),
                             ("coords", pts), ("rounding", rounding)):
            object.__setattr__(inst, field, value)
        return inst

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_symmetric(self) -> bool:
        finite = np.where(np.isfinite(self.matrix), self.matrix, 0.0)
        return bool(np.array_equal(finite, finite.T))


@dataclass(frozen=True)
class RoutePlan:
    """Closed tours (1-based node labels, depot 1 first and last) plus costs."""

    routes: tuple[tuple[int, ...], ...]
    per_route_distance: tuple[float, ...]
    total_distance: float

    @property
    def m(self) -> int:
        return len(self.routes)

    @property
    def max_route_distance(self) -> float:
        return max(self.per_route_distance)

    def customer_counts(self) -> tuple[int, ...]:
        return tuple(len(r) - 2 for r in self.routes)


def evaluate_plan(instance: Instance, routes) -> RoutePlan:
    """Validate route structure against the instance and price the plan.

    Rejects plans that skip or repeat a customer, revisit the depot
    mid-route, or fail to start and end every route at node 1.

    Each route's customers are checked as a set; only a route that fails
    that check is walked node by node, so the error names its first
    offending node.
    """
    n = instance.n
    seen = set()
    clean = []
    for idx, route in enumerate(routes, start=1):
        route = tuple(map(int, route))
        if len(route) < 3 or route[0] != 1 or route[-1] != 1:
            raise PlanError(
                f"route {idx} must start and end at depot 1 and visit a customer"
            )
        customers = route[1:-1]
        visits = set(customers)
        if (
            len(visits) != len(customers)
            or min(customers) < 2
            or max(customers) > n
            or not visits.isdisjoint(seen)
        ):
            # a defect is certain; walk the route to name its first node
            for v in customers:
                if v == 1:
                    raise PlanError(f"route {idx} revisits the depot")
                if not 2 <= v <= n:
                    raise PlanError(f"route {idx} contains unknown node {v}")
                if v in seen:
                    raise PlanError(f"node {v} visited more than once")
                seen.add(v)
        seen |= visits
        clean.append(route)
    if len(seen) < n - 1:
        missing = sorted(set(range(2, n + 1)) - seen)
        raise PlanError(f"nodes never visited: {missing}")
    per = []
    for route in clean:
        hops = np.asarray(route, dtype=np.int64) - 1
        per.append(float(instance.matrix[hops[:-1], hops[1:]].sum()))
    return RoutePlan(tuple(clean), tuple(per), float(sum(per)))


# ---------------------------------------------------------------------------
# seeded generation

@dataclass(frozen=True)
class GridSpec:
    """Uniform instance spec: n nodes i.i.d. on the integer grid {1..grid_max}^2."""

    n: int
    grid_max: int
    seed: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be at least 3")
        if self.grid_max < 2:
            raise ValueError("grid_max must be at least 2")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


def rng_from_seed(seed: int) -> np.random.Generator:
    """The repository-wide deterministic generator (PCG64)."""
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
    return Instance.from_coords(name, pts)


# ---------------------------------------------------------------------------
# TSPLIB subset

def parse_tsplib(text: str, rounding: str = "none") -> Instance:
    """Parse the TSPLIB subset: EUC_2D coordinates or EXPLICIT weights.

    Supported weight formats: FULL_MATRIX, UPPER_ROW, LOWER_ROW,
    UPPER_DIAG_ROW, LOWER_DIAG_ROW. Triangular formats are mirrored;
    FULL_MATRIX is taken as given (asymmetric matrices are legal).
    """
    lines = text.splitlines()
    name = None
    dim = None
    weight_type = None
    weight_format = None
    coords = None
    weights = None

    i = 0
    while i < len(lines):
        lineno = i + 1
        raw = lines[i].strip()
        i += 1
        if not raw:
            continue
        key, colon, value = raw.partition(":")
        key = key.strip().upper()
        value = value.strip()
        if key == "EOF":
            break
        if key == "NAME":
            name = value
        elif key in ("COMMENT", "TYPE"):
            continue
        elif key == "DIMENSION":
            dim = _parse_int(value, lineno)
            if dim < 3:
                raise ParseError(f"line {lineno}: DIMENSION must be at least 3")
        elif key == "EDGE_WEIGHT_TYPE":
            if value not in ("EUC_2D", "EXPLICIT"):
                raise ParseError(
                    f"line {lineno}: unsupported EDGE_WEIGHT_TYPE {value!r}"
                )
            weight_type = value
        elif key == "EDGE_WEIGHT_FORMAT":
            if value not in _WEIGHT_FORMATS:
                raise ParseError(
                    f"line {lineno}: unsupported EDGE_WEIGHT_FORMAT {value!r}"
                )
            weight_format = value
        elif key == "NODE_COORD_SECTION":
            if dim is None:
                raise ParseError(f"line {lineno}: NODE_COORD_SECTION before DIMENSION")
            coords, i = _read_coords(lines, i, dim)
        elif key == "EDGE_WEIGHT_SECTION":
            if dim is None:
                raise ParseError(f"line {lineno}: EDGE_WEIGHT_SECTION before DIMENSION")
            if weight_format is None:
                raise ParseError(
                    f"line {lineno}: EDGE_WEIGHT_SECTION without EDGE_WEIGHT_FORMAT"
                )
            weights, i = _read_numbers(
                lines, i, _weight_count(weight_format, dim), lineno
            )
        elif key == "DISPLAY_DATA_SECTION":
            # plotting helper rows; read past them, never interpreted
            if dim is None:
                raise ParseError(f"line {lineno}: DISPLAY_DATA_SECTION before DIMENSION")
            i += dim
        else:
            raise ParseError(f"line {lineno}: unrecognised keyword {key!r}")

    if name is None:
        raise ParseError("missing required key NAME")
    if dim is None:
        raise ParseError("missing required key DIMENSION")
    if weight_type is None:
        raise ParseError("missing required key EDGE_WEIGHT_TYPE")
    if weight_type == "EUC_2D":
        if coords is None:
            raise ParseError("EUC_2D file has no NODE_COORD_SECTION")
        return Instance.from_coords(name, coords, rounding)
    if weights is None:
        raise ParseError("EXPLICIT file has no EDGE_WEIGHT_SECTION")
    return Instance(name, _expand_weights(weights, weight_format, dim))


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: expected an integer, got {token!r}") from None


def _read_coords(lines, i, dim):
    pts = np.full((dim, 2), np.nan)
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
            pts[idx - 1] = (float(parts[1]), float(parts[2]))
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric coordinate") from None
    if np.isnan(pts).any():
        raise ParseError(f"line {i}: some node indices missing from coordinates")
    return pts, i


def _read_numbers(lines, i, count, section_lineno):
    vals = []
    while len(vals) < count:
        if i >= len(lines):
            raise ParseError(
                f"line {len(lines)}: EDGE_WEIGHT_SECTION ended after "
                f"{len(vals)} of {count} values"
            )
        lineno = i + 1
        tokens = lines[i].split()
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
    if fmt == "FULL_MATRIX":
        return n * n
    if fmt in ("UPPER_DIAG_ROW", "LOWER_DIAG_ROW"):
        return n * (n + 1) // 2
    return n * (n - 1) // 2


def _expand_weights(vals, fmt, n) -> np.ndarray:
    mat = np.zeros((n, n))
    it = iter(vals)
    if fmt == "FULL_MATRIX":
        mat = np.array(vals).reshape(n, n)
    elif fmt in ("UPPER_ROW", "UPPER_DIAG_ROW"):
        with_diag = "DIAG" in fmt
        for r in range(n):
            for c in range(r if with_diag else r + 1, n):
                v = next(it)
                if c != r:
                    mat[r, c] = mat[c, r] = v
    else:  # LOWER_ROW, LOWER_DIAG_ROW
        with_diag = "DIAG" in fmt
        for r in range(n):
            for c in range(0, r + 1 if with_diag else r):
                v = next(it)
                if c != r:
                    mat[r, c] = mat[c, r] = v
    np.fill_diagonal(mat, INFINITY)
    return mat


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
# CSV coordinates (header "x,y"; row 1 is the depot)

def parse_coords_csv(text: str, name: str = "csv-instance") -> Instance:
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
    return Instance.from_coords(name, pts)


def dumps_coords_csv(instance: Instance) -> str:
    if instance.coords is None:
        raise ValueError("instance has no coordinates to write")
    lines = ["x,y"]
    lines += [f"{float(x)!r},{float(y)!r}" for x, y in instance.coords]
    return "\n".join(lines) + "\n"


def load_instance(path, rounding: str = "none") -> Instance:
    """Load ``.tsp`` (TSPLIB subset) or ``.csv`` (x,y header) files."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".csv":
        return parse_coords_csv(text, name=path.stem)
    return parse_tsplib(text, rounding=rounding)


def bundled_path(name: str) -> Path:
    return _DATA_DIR / f"{name}.tsp"


def load_bundled(name: str) -> Instance:
    """Load one of the instances shipped under ``mtspkit/data``."""
    path = bundled_path(name)
    if not path.exists():
        raise FileNotFoundError(f"no bundled instance named {name!r}")
    return parse_tsplib(path.read_text())
