import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtspkit import (
    GridSpec,
    Instance,
    ParseError,
    PlanError,
    dumps_tsplib,
    euclidean_matrix,
    evaluate_plan,
    generate_uniform_instance,
    load_bundled,
    parse_coords_csv,
    parse_tsplib,
)
from mtspkit.instance import RoutePlan, dumps_coords_csv

TRIANGLE = """\
NAME : tri
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 0
3 0 4
EOF
"""


def test_parse_345_triangle():
    inst = parse_tsplib(TRIANGLE)
    off = inst.matrix[~np.eye(3, dtype=bool)]
    assert sorted(set(np.round(off, 9))) == [3.0, 4.0, 5.0]
    assert np.isposinf(np.diagonal(inst.matrix)).all()


def test_parse_eil51(eil51):
    assert eil51.n == 51
    assert eil51.coords is not None
    assert eil51.name == "eil51"


def test_parse_explicit_full_matrix():
    inst = load_bundled("bays29")
    assert inst.n == 29
    assert inst.coords is None
    assert inst.is_symmetric
    assert inst.matrix[0, 1] == 107.0


@pytest.mark.parametrize("fmt", ["UPPER_ROW", "LOWER_ROW", "UPPER_DIAG_ROW", "LOWER_DIAG_ROW"])
def test_parse_triangular_formats(fmt):
    # 3x3 symmetric with off-diagonals 12, 13, 23
    values = {
        "UPPER_ROW": "12 13\n23",
        "LOWER_ROW": "12\n13 23",
        "UPPER_DIAG_ROW": "0 12 13\n0 23\n0",
        "LOWER_DIAG_ROW": "0\n12 0\n13 23 0",
    }[fmt]
    text = (
        "NAME : small\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
        f"EDGE_WEIGHT_FORMAT : {fmt}\nEDGE_WEIGHT_SECTION\n{values}\nEOF\n"
    )
    inst = parse_tsplib(text)
    assert inst.matrix[0, 1] == inst.matrix[1, 0] == 12
    assert inst.matrix[0, 2] == inst.matrix[2, 0] == 13
    assert inst.matrix[1, 2] == inst.matrix[2, 1] == 23


def test_parse_skips_display_data_section():
    text = (
        "NAME : small\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n12 13\n23\n"
        "DISPLAY_DATA_SECTION\n1 0 0\n2 1 1\n3 2 2\nEOF\n"
    )
    inst = parse_tsplib(text)
    assert inst.n == 3
    assert inst.coords is None
    assert inst.matrix[1, 2] == 23


def test_parse_asymmetric_explicit_accepted():
    text = (
        "NAME : asym\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
        "0 1 2\n9 0 3\n4 5 0\nEOF\n"
    )
    inst = parse_tsplib(text)
    assert inst.matrix[0, 1] == 1 and inst.matrix[1, 0] == 9
    assert not inst.is_symmetric


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("NAME : x\nWIBBLE : 3\n", "line 2"),
        ("NAME : x\nDIMENSION : t\n", "line 2"),
        (TRIANGLE.replace("EDGE_WEIGHT_TYPE : EUC_2D", "EDGE_WEIGHT_TYPE : GEO"), "line 4"),
        (TRIANGLE.replace("1 0 0\n", "1 0 zz\n"), "line 6"),
        (TRIANGLE.replace("1 0 0\n", ""), "line"),
        ("DIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n", "NAME"),
        (
            "NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT : UPPER_COL\n",
            "line 4",
        ),
        (
            "NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2\nEOF\n",
            "EDGE_WEIGHT_SECTION",
        ),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_tsplib(text)


def test_euclidean_matrix_values(garn9):
    mat = euclidean_matrix(garn9.coords)
    assert mat[0, 5] == pytest.approx(np.sqrt(5), abs=1e-12)  # nodes 1 and 6
    assert mat[0, 5] == pytest.approx(2.2361, abs=5e-5)


def test_euclidean_matrix_coincident_and_rounding():
    pts = [(0.0, 0.0), (0.0, 0.0), (3.0, 4.0)]
    mat = euclidean_matrix(pts)
    assert mat[0, 1] == 0.0
    assert mat[0, 2] == 5.0
    assert euclidean_matrix(pts, rounding="integer")[0, 2] == 5.0
    with pytest.raises(ValueError):
        euclidean_matrix([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        euclidean_matrix(pts, rounding="half-up")


def test_integer_rounding_mode_end_to_end(eil51):
    from mtspkit import parse_tsplib, dumps_tsplib, nearest_node

    rounded = parse_tsplib(dumps_tsplib(eil51), rounding="integer")
    off = rounded.matrix[np.isfinite(rounded.matrix)]
    assert np.array_equal(off, np.round(off))
    total = nearest_node(rounded, 2).total_distance
    assert total == np.round(total)
    assert total == pytest.approx(533.91, rel=0.02)  # close to the unrounded run


def test_generation_is_deterministic():
    spec = GridSpec(50, 100, 12345)
    a = generate_uniform_instance(spec)
    b = generate_uniform_instance(spec)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.matrix, b.matrix)


def test_generation_range_and_symmetry():
    inst = generate_uniform_instance(GridSpec(500, 100, 7))
    assert inst.coords.min() >= 1 and inst.coords.max() <= 100
    finite = np.where(np.isfinite(inst.matrix), inst.matrix, 0.0)
    assert np.array_equal(finite, finite.T)


def test_generation_distinct_seeds():
    seen = [generate_uniform_instance(GridSpec(50, 100, s)).coords for s in range(1, 31)]
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert not np.array_equal(seen[i], seen[j])


def test_evaluate_plan_reference_totals(garn9):
    plan = evaluate_plan(garn9, [[1, 6, 7, 8, 9, 1], [1, 5, 4, 3, 2, 1]])
    assert plan.per_route_distance[0] == pytest.approx(23.2, abs=0.05)
    assert plan.per_route_distance[1] == pytest.approx(21.6, abs=0.05)
    assert plan.total_distance == pytest.approx(44.8, abs=0.05)
    assert plan.total_distance == pytest.approx(sum(plan.per_route_distance), rel=1e-9)


def test_evaluate_plan_out_and_back():
    inst = parse_tsplib(TRIANGLE)
    plan = evaluate_plan(inst, [[1, 2, 1], [1, 3, 1]])
    assert plan.per_route_distance[0] == pytest.approx(2 * inst.matrix[0, 1], rel=1e-9)


def test_evaluate_plan_rejections(garn9):
    with pytest.raises(PlanError, match="never visited"):
        evaluate_plan(garn9, [[1, 6, 7, 8, 9, 1], [1, 5, 4, 3, 1]])
    with pytest.raises(PlanError, match="more than once"):
        evaluate_plan(garn9, [[1, 6, 7, 8, 9, 1], [1, 5, 4, 3, 2, 6, 1]])
    with pytest.raises(PlanError, match="start and end"):
        evaluate_plan(garn9, [[6, 7, 8, 9, 1], [1, 5, 4, 3, 2, 1]])
    with pytest.raises(PlanError, match="revisits"):
        evaluate_plan(garn9, [[1, 6, 1, 7, 8, 9, 1], [1, 5, 4, 3, 2, 1]])


def test_tsplib_round_trip(eil51):
    again = parse_tsplib(dumps_tsplib(eil51))
    assert np.allclose(
        again.matrix[np.isfinite(again.matrix)],
        eil51.matrix[np.isfinite(eil51.matrix)],
        rtol=1e-9,
    )
    gen = generate_uniform_instance(GridSpec(40, 100, 5))
    again = parse_tsplib(dumps_tsplib(gen))
    assert np.array_equal(again.coords, gen.coords)


def test_csv_round_trip(garn9):
    inst = parse_coords_csv(dumps_coords_csv(garn9), name="garn9")
    assert np.allclose(
        inst.matrix[np.isfinite(inst.matrix)],
        garn9.matrix[np.isfinite(garn9.matrix)],
        rtol=1e-9,
    )
    with pytest.raises(ParseError, match="header"):
        parse_coords_csv("a,b\n1,2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_coords_csv("x,y\n1,2\n3,oops\n4,5\n")


def test_instance_validation():
    good = np.full((3, 3), 1.0)
    np.fill_diagonal(good, np.inf)
    bad_diag = np.full((3, 3), 1.0)
    with pytest.raises(ValueError, match="diagonal"):
        Instance("x", bad_diag)
    neg = good.copy()
    neg[0, 1] = -1
    with pytest.raises(ValueError, match="non-negative"):
        Instance("x", neg)
    holes = good.copy()
    holes[0, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        Instance("x", holes)
    with pytest.raises(ValueError, match="at least 3"):
        two = np.full((2, 2), 1.0)
        np.fill_diagonal(two, np.inf)
        Instance("x", two)
    with pytest.raises(ValueError, match="disagrees"):
        Instance("x", good, coords=np.array([(0, 0), (5, 0), (0, 5)], float))


def test_instance_is_immutable(garn9):
    with pytest.raises(ValueError):
        garn9.matrix[0, 1] = 0.0
    with pytest.raises(ValueError):
        garn9.coords[0, 0] = 0.0


# ---------------------------------------------------------------------------
# coordinate instances: one 2-D matrix build, no re-derivation


def _tensor_matrix(coords, rounding="none"):
    """Reference formula: reduce an (n, n, 2) difference tensor over its last axis."""
    pts = np.asarray(coords, dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    if rounding == "integer":
        dist = np.floor(dist + 0.5)
    np.fill_diagonal(dist, np.inf)
    return dist


def _coords_of_kind(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "integer":
        return rng.integers(1, 101, size=(n, 2)).astype(np.float64)
    if kind == "float":
        return rng.random((n, 2)) * 1000.0
    if kind == "negative":
        return rng.normal(size=(n, 2)) * 1000.0
    scale = {"huge": 1e150, "tiny": 1e-150}[kind]
    return (rng.random((n, 2)) - 0.5) * scale


@pytest.mark.parametrize("n", [3, 10, 51, 500, 2000])
@pytest.mark.parametrize("kind", ["integer", "float", "negative", "huge", "tiny"])
def test_euclidean_matrix_matches_tensor_formula(n, kind):
    pts = _coords_of_kind(kind, n, seed=n)
    for rounding in ("none", "integer"):
        assert np.array_equal(euclidean_matrix(pts, rounding), _tensor_matrix(pts, rounding))


def _tsplib_text(pts):
    rows = "".join(f"{i} {x!r} {y!r}\n" for i, (x, y) in enumerate(pts.tolist(), start=1))
    return (f"NAME : pts\nDIMENSION : {len(pts)}\nEDGE_WEIGHT_TYPE : EUC_2D\n"
            f"NODE_COORD_SECTION\n{rows}EOF\n")


def _csv_text(pts):
    return "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in pts.tolist())


def _coordinate_loads():
    pts = _coords_of_kind("float", 60, seed=3)
    spec = GridSpec(80, 100, 11)
    return [
        (lambda: parse_tsplib(_tsplib_text(pts)), "none"),
        (lambda: parse_tsplib(_tsplib_text(pts), rounding="integer"), "integer"),
        (lambda: parse_coords_csv(_csv_text(pts), name="pts"), "none"),
        (lambda: generate_uniform_instance(spec), "none"),
    ]


@pytest.mark.parametrize("case", range(4))
def test_coordinate_loaders_match_generic_constructor(case):
    load, rounding = _coordinate_loads()[case]
    inst = load()
    generic = Instance(inst.name, _tensor_matrix(inst.coords, rounding),
                       coords=np.array(inst.coords), rounding=rounding)
    assert inst.rounding == rounding
    assert np.array_equal(inst.matrix, generic.matrix)
    assert np.array_equal(inst.coords, generic.coords)
    assert not inst.matrix.flags.writeable
    assert not inst.coords.flags.writeable


@pytest.mark.parametrize("case", range(4))
def test_coordinate_load_builds_matrix_once(monkeypatch, case):
    from mtspkit import instance as instance_module

    calls = []
    original = instance_module.euclidean_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(instance_module, "euclidean_matrix", counting)
    load, _ = _coordinate_loads()[case]
    load()
    assert len(calls) == 1


def test_from_coords_copies_and_freezes():
    pts = np.array([(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)])
    inst = Instance.from_coords("tri", pts)
    pts[0, 0] = 9.0
    assert inst.coords[0, 0] == 0.0
    assert pts.flags.writeable
    assert inst.matrix[1, 2] == 5.0
    with pytest.raises(ValueError):
        inst.matrix[0, 1] = 0.0
    with pytest.raises(ValueError):
        inst.coords[0, 0] = 1.0


BAD_COORDS = {
    "nan": ([(0.0, 0.0), (np.nan, 1.0), (2.0, 2.0)], "finite"),
    "inf": ([(0.0, 0.0), (np.inf, 1.0), (2.0, 2.0)], "finite"),
    "overflow": ([(0.0, 0.0), (1e200, 1e200), (-1e200, 0.0)], "finite"),
    "too few": ([(0.0, 0.0), (1.0, 1.0)], "at least 3"),
    "three columns": ([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 2.0, 2.0)], r"\(n, 2\)"),
    "flat": ([0.0, 1.0, 2.0, 3.0], r"\(n, 2\)"),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(BAD_COORDS))
def test_from_coords_rejects_bad_coordinates(kind):
    pts, fragment = BAD_COORDS[kind]
    with pytest.raises(ValueError, match=fragment):
        Instance.from_coords("bad", pts)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "text,error",
    [
        ("x,y\n0,0\nnan,1\n2,2\n", ValueError),
        ("x,y\n0,0\n1e200,1e200\n-1e200,0\n", ValueError),
        ("x,y\n0,0\n1,1\n", ValueError),
        ("x,y\n0,0,0\n1,1,1\n2,2,2\n", ParseError),
    ],
)
def test_bad_coordinate_files_fail_loudly(tmp_path, capsys, text, error):
    from mtspkit.cli import main

    with pytest.raises(error):
        parse_coords_csv(text)
    path = tmp_path / "bad.csv"
    path.write_text(text)
    assert main(["solve", "--instance", str(path), "--m", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_tsplib_coordinates_fail_loudly(tmp_path, capsys):
    from mtspkit.cli import main

    text = _tsplib_text(np.array([(0.0, 0.0), (1e200, 1e200), (-1e200, 0.0)]))
    with pytest.raises(ValueError, match="finite"):
        parse_tsplib(text)
    path = tmp_path / "bad.tsp"
    path.write_text(text)
    assert main(["solve", "--instance", str(path), "--m", "2"]) == 1
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# route validation against the node-by-node reference

def _reference_evaluate(instance, routes):
    """``evaluate_plan`` as a plain walk over every node of every route."""
    n = instance.n
    seen = set()
    clean = []
    for idx, route in enumerate(routes, start=1):
        route = tuple(int(v) for v in route)
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
        clean.append(route)
    missing = sorted(set(range(2, n + 1)) - seen)
    if missing:
        raise PlanError(f"nodes never visited: {missing}")
    per = []
    for route in clean:
        hops = np.asarray(route, dtype=np.int64) - 1
        per.append(float(instance.matrix[hops[:-1], hops[1:]].sum()))
    return RoutePlan(tuple(clean), tuple(per), float(sum(per)))


def _outcome(evaluate, instance, routes):
    try:
        return evaluate(instance, routes)
    except PlanError as exc:
        return f"PlanError: {exc}"


def _assert_matches_reference(instance, routes):
    expected = _outcome(_reference_evaluate, instance, routes)
    assert _outcome(evaluate_plan, instance, routes) == expected
    return expected


_VALID = [[1, 6, 7, 8, 9, 1], [1, 5, 4, 3, 2, 1]]  # garn9, n = 9

_DEFECTIVE = {
    "depot revisit": [[1, 6, 1, 7, 8, 9, 1], [1, 5, 4, 3, 2, 1]],
    "node 0": [[1, 6, 7, 8, 9, 0, 1], [1, 5, 4, 3, 2, 1]],
    "node -1": [[1, 6, 7, 8, 9, 1], [1, -1, 5, 4, 3, 2, 1]],
    "node n+1": [[1, 6, 7, 10, 8, 9, 1], [1, 5, 4, 3, 2, 1]],
    "duplicate within a route": [[1, 6, 7, 8, 7, 9, 1], [1, 5, 4, 3, 2, 1]],
    "duplicate across routes": [[1, 6, 7, 8, 9, 1], [1, 5, 4, 6, 3, 2, 1]],
    "missing customers": [[1, 6, 7, 9, 1], [1, 5, 3, 2, 1]],
    "no customer": [[1, 1], [1, 6, 7, 8, 9, 5, 4, 3, 2, 1]],
    "depot revisit before unknown node": [[1, 6, 1, 12, 7, 8, 9, 1], _VALID[1]],
    "unknown node before depot revisit": [[1, 6, 12, 1, 7, 8, 9, 1], _VALID[1]],
    "duplicate before unknown node": [[1, 6, 7, 8, 9, 1], [1, 5, 6, 0, 4, 3, 2, 1]],
    "unknown node before duplicate": [[1, 6, 7, 8, 9, 1], [1, 5, 0, 6, 4, 3, 2, 1]],
    "in-route duplicate before cross-route one": [
        [1, 6, 7, 8, 9, 1], [1, 5, 5, 7, 4, 3, 2, 1]
    ],
    "cross-route duplicate before in-route one": [
        [1, 6, 7, 8, 9, 1], [1, 5, 7, 5, 4, 3, 2, 1]
    ],
}


@pytest.mark.parametrize("name", sorted(_DEFECTIVE))
def test_evaluate_plan_names_the_reference_defect(garn9, name):
    outcome = _assert_matches_reference(garn9, _DEFECTIVE[name])
    assert isinstance(outcome, str), "the defective plan was accepted"


def test_evaluate_plan_accepts_what_the_reference_accepts(garn9):
    plans = [
        _VALID,
        [[1, 2, 3, 4, 5, 6, 7, 8, 9, 1]],
        [[1, 9, 1], [1, 2, 3, 1], [1, 8, 7, 6, 5, 4, 1]],
        [np.array([1, 6, 7, 8, 9, 1]), (1, 5, 4, 3, 2, 1)],
        [[1, np.int64(6), np.int32(7), 8, 9, 1], [1.0, 5, 4, 3, 2, 1]],
    ]
    for routes in plans:
        assert isinstance(_assert_matches_reference(garn9, routes), RoutePlan)


@st.composite
def _plans(draw):
    n = draw(st.integers(3, 12))
    customers = draw(st.permutations(list(range(2, n + 1))))
    cuts = sorted(draw(st.sets(st.integers(1, n - 2), max_size=min(3, n - 2))))
    bounds = [0, *cuts, n - 1]
    routes = [[1, *customers[a:b], 1] for a, b in zip(bounds, bounds[1:])]
    # up to three edits, each an insertion, deletion or overwrite of one node
    for _ in range(draw(st.integers(0, 3))):
        route = routes[draw(st.integers(0, len(routes) - 1))]
        pos = draw(st.integers(1, len(route) - 1))
        kind = draw(st.sampled_from(["insert", "delete", "overwrite"]))
        node = draw(st.integers(-1, n + 1))
        if kind == "insert":
            route.insert(pos, node)
        elif kind == "delete" and len(route) > 2:
            del route[pos - 1 if pos == len(route) - 1 else pos]
        else:
            route[pos - 1 if pos == len(route) - 1 else pos] = node
    return n, routes


@settings(max_examples=300, deadline=None)
@given(_plans())
def test_evaluate_plan_matches_reference(case):
    n, routes = case
    inst = generate_uniform_instance(GridSpec(n, 100, n))
    _assert_matches_reference(inst, routes)
