import operator
import tracemalloc

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
    load_instance,
    parse_coords_csv,
    parse_tsplib,
)
from mtspkit.instance import (
    _SAFE_SPAN, RoutePlan, _block_rows, bundled_path, dumps_coords_csv, rng_from_seed,
)

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


def _weights_by_loops(vals, fmt, n):
    """Reference reading of an EDGE_WEIGHT_SECTION, one value at a time in
    file order; returns the matrix and the number of values it consumed."""
    it = iter(vals)
    mat = np.zeros((n, n))
    if fmt == "FULL_MATRIX":
        mat = np.array(vals[: n * n]).reshape(n, n)
        used = n * n
    else:
        with_diag = "DIAG" in fmt
        used = 0
        for r in range(n):
            if fmt.startswith("UPPER"):
                cols = range(r if with_diag else r + 1, n)
            else:
                cols = range(0, r + 1 if with_diag else r)
            for c in cols:
                v = next(it)
                used += 1
                if c != r:
                    mat[r, c] = mat[c, r] = v
    np.fill_diagonal(mat, np.inf)
    return mat, used


@pytest.mark.parametrize(
    "fmt", ["FULL_MATRIX", "UPPER_ROW", "LOWER_ROW", "UPPER_DIAG_ROW", "LOWER_DIAG_ROW"]
)
@pytest.mark.parametrize("n", [3, 4, 7, 30, 100])
def test_weight_formats_match_the_loop_reading(fmt, n):
    vals = [float(v) for v in np.random.default_rng(n).integers(1, 1000, n * n)]
    expected, used = _weights_by_loops(vals, fmt, n)
    tokens = [str(int(v)) for v in vals[:used]]
    body = "\n".join(" ".join(tokens[i : i + 10]) for i in range(0, used, 10))
    text = (
        f"NAME : w{n}\nDIMENSION : {n}\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
        f"EDGE_WEIGHT_FORMAT : {fmt}\nEDGE_WEIGHT_SECTION\n{body}\nEOF\n"
    )
    assert np.array_equal(parse_tsplib(text).matrix, expected)
    short = text.replace(f"{body}\n", body.rsplit(" ", 1)[0] + "\n")
    with pytest.raises(ParseError, match=f"of {used} values"):
        parse_tsplib(short)


@pytest.mark.parametrize(
    "fmt,promised", [("FULL_MATRIX", 2000 * 2000), ("UPPER_ROW", 2000 * 1999 // 2)]
)
def test_truncated_weight_section_allocates_only_what_it_read(fmt, promised):
    # a ~110-byte file whose header promises millions of values
    text = (
        "NAME : big\nDIMENSION : 2000\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
        f"EDGE_WEIGHT_FORMAT : {fmt}\nEDGE_WEIGHT_SECTION\n0 1 2\nEOF\n"
    )
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"ended after 3 of {promised} values"):
            parse_tsplib(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_explicit_file_reads_its_coordinates_as_display_only():
    # TSPLIB distances of an EXPLICIT file are its weights; coordinates
    # there only place the nodes for plotting, so they are checked and not
    # kept, even where they disagree with the weights
    text = (
        "NAME : small\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n1 2\n3\n"
        "NODE_COORD_SECTION\n1 0 0\n2 50 0\n3 0 70\nEOF\n"
    )
    inst = parse_tsplib(text)
    assert inst.coords is None
    assert inst.matrix[0, 1] == 1.0 and inst.matrix[1, 2] == 3.0
    with pytest.raises(ParseError, match="line 10: non-numeric coordinate"):
        parse_tsplib(text.replace("2 50 0", "2 50 zz"))


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


def test_display_data_rows_are_checked_then_dropped():
    # bays29 with the display header and section of its TSPLIB 95 file
    text = bundled_path("bays29").read_text()
    rows = "".join(f"{v} {10 * v}.0 {20 * v}.0\n" for v in range(1, 30))
    text = text.replace("EDGE_WEIGHT_SECTION",
                        "DISPLAY_DATA_TYPE : TWOD_DISPLAY\nEDGE_WEIGHT_SECTION")
    text = text.replace("EOF", f"DISPLAY_DATA_SECTION\n{rows}EOF")
    inst = parse_tsplib(text)
    assert inst.coords is None
    assert np.array_equal(inst.matrix, load_bundled("bays29").matrix)
    small = (
        "NAME : small\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n12 13\n23\n"
        "DISPLAY_DATA_SECTION\nfoo\nbar baz\nqux\nEOF\n"
    )
    with pytest.raises(ParseError, match="^line 9: coordinate row needs 'index x y'$"):
        parse_tsplib(small)
    # a one-row section ends at its second row's line, the weights' keyword
    short = (
        "NAME : small\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT : UPPER_ROW\nDISPLAY_DATA_SECTION\n1 0 0\n"
        "EDGE_WEIGHT_SECTION\n1 2\n3\nEOF\n"
    )
    with pytest.raises(ParseError, match="^line 7: coordinate row needs 'index x y'$"):
        parse_tsplib(short)


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
        # a blank header line is read past but still counted
        ("NAME : x\n\nWIBBLE : 3\n", "^line 3: unrecognised keyword 'WIBBLE'$"),
        ("NAME : x\nNODE_COORD_SECTION\n", "^line 2: NODE_COORD_SECTION before DIMENSION$"),
        ("NAME : x\nDIMENSION : 2\n", "^line 2: DIMENSION must be at least 3$"),
        (
            "NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_SECTION\n",
            "^line 4: EDGE_WEIGHT_SECTION without EDGE_WEIGHT_FORMAT$",
        ),
        (
            TRIANGLE.replace("NODE_COORD_SECTION\n1 0 0\n2 3 0\n3 0 4\n", ""),
            "^EUC_2D file has no NODE_COORD_SECTION$",
        ),
        (
            "NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEOF\n",
            "^EXPLICIT file has no EDGE_WEIGHT_SECTION$",
        ),
        (TRIANGLE.replace("3 0 4\nEOF\n", ""), "^line 7: expected 3 coordinate rows$"),
        (TRIANGLE.replace("3 0 4", "4 0 4"), r"^line 8: node index 4 outside 1\.\.3$"),
        (
            "NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n1 two\n3\nEOF\n",
            "^line 6: non-numeric weight 'two'$",
        ),
        (
            "NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n1 2\n3 4\nEOF\n",
            "^line 7: EDGE_WEIGHT_SECTION holds 4 values, expected 3$",
        ),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_tsplib(text)


_EXPLICIT_HEAD = (
    "NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\nEDGE_WEIGHT_FORMAT : UPPER_ROW\n"
)


@pytest.mark.parametrize(
    "key,text,line,first",
    [
        ("NAME", TRIANGLE.replace("TYPE : TSP", "TYPE : TSP\nNAME : again"), 3, 1),
        ("TYPE", TRIANGLE.replace("DIMENSION", "TYPE : TSP\nDIMENSION"), 3, 2),
        # three coordinate rows, then a larger DIMENSION
        ("DIMENSION", TRIANGLE.replace("EOF", "DIMENSION : 5\nEOF"), 9, 3),
        (
            "EDGE_WEIGHT_TYPE",
            TRIANGLE.replace("NODE_COORD", "EDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD"),
            5,
            4,
        ),
        (
            "NODE_COORD_SECTION",
            TRIANGLE.replace("EOF", "NODE_COORD_SECTION\n1 0 0\n2 6 0\n3 0 8\nEOF"),
            9,
            5,
        ),
        (
            "EDGE_WEIGHT_FORMAT",
            _EXPLICIT_HEAD + "EDGE_WEIGHT_FORMAT : FULL_MATRIX\n",
            5,
            4,
        ),
        (
            "EDGE_WEIGHT_SECTION",
            _EXPLICIT_HEAD + "EDGE_WEIGHT_SECTION\n1 2\n3\n" * 2 + "EOF\n",
            8,
            5,
        ),
        (
            "DISPLAY_DATA_SECTION",
            TRIANGLE.replace("EOF", "DISPLAY_DATA_SECTION\n1 0 0\n2 0 0\n3 0 0\n" * 2 + "EOF"),
            13,
            9,
        ),
    ],
)
def test_repeated_keyword_names_its_line(key, text, line, first):
    with pytest.raises(ParseError) as info:
        parse_tsplib(text)
    assert str(info.value) == f"line {line}: {key} repeated from line {first}"


def test_repeated_comment_is_read_past():
    text = TRIANGLE.replace("TYPE : TSP", "COMMENT : one\nCOMMENT : two\nTYPE : TSP")
    assert np.array_equal(parse_tsplib(text).matrix, parse_tsplib(TRIANGLE).matrix)


@pytest.mark.parametrize("where", ["before", "after"])
def test_edge_weights_in_a_euc_2d_file_are_rejected(where):
    weights = "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n3 4\n5\n"
    if where == "before":
        text = TRIANGLE.replace("NODE_COORD", weights + "NODE_COORD")
        line = 6
    else:
        text = TRIANGLE.replace("EOF", weights + "EOF")
        line = 10
    with pytest.raises(ParseError) as info:
        parse_tsplib(text)
    assert str(info.value) == f"line {line}: EDGE_WEIGHT_SECTION in an EUC_2D file"


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


def test_evaluate_plan_total_is_a_left_fold_over_the_routes():
    # ten routes of 0.1 each: a left fold reads 0.9999999999999999, while
    # sum() compensates its rounding to 1.0 from Python 3.12 on
    matrix = np.full((11, 11), 0.05)
    np.fill_diagonal(matrix, np.inf)
    plan = evaluate_plan(Instance("tenths", matrix), [(1, k, 1) for k in range(2, 12)])
    assert plan.per_route_distance == (0.1,) * 10
    assert plan.total_distance == 0.9999999999999999


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
    # a float label is rejected, never truncated to a node (2.7 is not node 2)
    for routes in (
        [(1, 2.7, 3, 4, 5, 1), (1, 6, 7, 8, 9, 1)],
        [(1, 2, 3, 4, 5, 1), (1.0, 6, 7, 8, 9, 1)],
        [(1, 2, 3, 4, 5, 1), (1, 6, np.float64(7), 8, 9, 1)],
    ):
        with pytest.raises(PlanError, match="route [12] holds a non-integer"):
            evaluate_plan(garn9, routes)


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
    with pytest.raises(ParseError, match="^line 1: empty CSV$"):
        parse_coords_csv("")
    # blank rows, and rows of blank cells, are read past
    spaced = parse_coords_csv("x,y\n0,0\n\n3,0\n , \n0,4\n")
    assert np.array_equal(spaced.coords, [(0, 0), (3, 0), (0, 4)])



EXPLICIT_HALVES = """\
NAME : halves
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : UPPER_ROW
EDGE_WEIGHT_SECTION
1.5 2.5
3.5
EOF
"""


def test_explicit_files_check_the_rounding_and_keep_their_weights(tmp_path):
    # an unknown mode fails for EXPLICIT files as for EUC_2D ones
    bays29 = bundled_path("bays29").read_text()
    for parse in (
        lambda: parse_tsplib(bays29, rounding="foo"),
        lambda: load_instance(bundled_path("bays29"), rounding="foo"),
        lambda: parse_tsplib(EXPLICIT_HALVES, rounding="foo"),
        lambda: parse_tsplib(TRIANGLE, rounding="foo"),
    ):
        with pytest.raises(ValueError, match="^unknown rounding mode 'foo'$"):
            parse()
    # "integer" rounds distances built from coordinates, never given weights
    path = tmp_path / "halves.tsp"
    path.write_text(EXPLICIT_HALVES)
    for rounding in ("none", "integer"):
        for inst in (parse_tsplib(EXPLICIT_HALVES, rounding=rounding),
                     load_instance(path, rounding=rounding)):
            assert inst.coords is None
            assert inst.matrix[0, 1] == inst.matrix[1, 0] == 1.5
            assert inst.matrix[0, 2] == 2.5 and inst.matrix[1, 2] == 3.5


def test_csv_load_keeps_the_rounding(tmp_path):
    # the same coordinates as CSV and as TSPLIB give the same rounded matrix
    gen = generate_uniform_instance(GridSpec(12, 100, 3))
    path = tmp_path / "u12.csv"
    path.write_text(dumps_coords_csv(gen))
    tsplib = parse_tsplib(dumps_tsplib(gen), rounding="integer")
    for inst in (load_instance(path, rounding="integer"),
                 parse_coords_csv(path.read_text(), rounding="integer")):
        assert inst.rounding == "integer"
        assert np.array_equal(inst.matrix, tsplib.matrix)
    assert not np.array_equal(load_instance(path).matrix, tsplib.matrix)

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
    with pytest.raises(ValueError, match="must be square"):
        Instance("x", np.full((3, 4), 1.0))
    with pytest.raises(ValueError, match=r"coords must be an \(n, 2\) array"):
        Instance("x", good, coords=np.array([(0, 0), (5, 0)], float))


@pytest.mark.parametrize("dump", [dumps_tsplib, dumps_coords_csv])
def test_dumping_needs_coordinates(dump):
    matrix = euclidean_matrix([(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)])
    with pytest.raises(ValueError, match="no coordinates to write"):
        dump(Instance("x", matrix))


@pytest.mark.parametrize(
    "fields,fragment",
    [
        ((2, 100, 0), "n must be at least 3"),
        ((3, 1, 0), "grid_max must be at least 2"),
        ((3, 100, -1), "seed must fit in 64 unsigned bits"),
        ((3, 100, 2**64), "seed must fit in 64 unsigned bits"),
    ],
)
def test_grid_spec_rejects_bad_fields(fields, fragment):
    with pytest.raises(ValueError, match=fragment):
        GridSpec(*fields)


@pytest.mark.parametrize(
    "fields,name",
    [
        ((5.0, 10, 1), "n"),
        ((5, 10.5, 1), "grid_max"),
        ((5, 10, -0.5), "seed"),  # int(-0.5) == 0 would pass the range check
        ((5, 10, 1.0), "seed"),
        ((5, "10", 1), "grid_max"),
    ],
)
def test_grid_spec_reads_integers(fields, name):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        GridSpec(*fields)


def test_grid_spec_takes_numpy_integers():
    spec = GridSpec(np.int64(12), np.int32(100), np.uint64(3))
    assert spec == GridSpec(12, 100, 3)
    assert all(type(v) is int for v in (spec.n, spec.grid_max, spec.seed))
    a = generate_uniform_instance(spec)
    b = generate_uniform_instance(GridSpec(12, 100, 3))
    assert a.name == b.name and np.array_equal(a.coords, b.coords)


def test_unknown_bundled_name_is_named():
    with pytest.raises(FileNotFoundError, match="no bundled instance named 'nope'"):
        load_bundled("nope")


def test_instance_is_immutable(garn9):
    with pytest.raises(ValueError):
        garn9.matrix[0, 1] = 0.0
    with pytest.raises(ValueError):
        garn9.coords[0, 0] = 0.0


def test_instances_compare_and_hash_by_identity(garn9):
    assert garn9 == garn9
    assert {garn9} == {garn9} and hash(garn9) == hash(garn9)
    assert load_bundled("garn9") != load_bundled("garn9")


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


# Row-block edges of the build: n = 178 is one block exactly, n = 179 one
# block plus one row, n = 253 two blocks plus a last block of one row.
_BLOCK_EDGE_SIZES = [178, 179, 253]


def test_block_edge_sizes_sit_on_the_block_edges():
    assert _block_rows(178) == 178
    assert _block_rows(179) == 178
    assert divmod(253, _block_rows(253)) == (2, 1)


@pytest.mark.parametrize("n", [3, 10, 51, *_BLOCK_EDGE_SIZES, 500, 2000])
@pytest.mark.parametrize("kind", ["integer", "float", "negative", "huge", "tiny"])
def test_euclidean_matrix_matches_tensor_formula(n, kind):
    pts = _coords_of_kind(kind, n, seed=n)
    for rounding in ("none", "integer"):
        built = euclidean_matrix(pts, rounding)
        assert built.tobytes() == _tensor_matrix(pts, rounding).tobytes()


def test_euclidean_matrix_allocates_the_result_and_one_block():
    pts = _coords_of_kind("float", 2000, seed=1)
    tracemalloc.start()
    try:
        matrix = euclidean_matrix(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * matrix.nbytes


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


def test_coordinate_rows_may_come_in_any_order():
    pts = _coords_of_kind("float", 60, seed=5)
    in_order = _tsplib_text(pts).splitlines(keepends=True)
    rows = in_order[4:-1]
    order = np.random.default_rng(5).permutation(len(rows))
    shuffled = "".join(in_order[:4] + [rows[k] for k in order] + in_order[-1:])
    a, b = parse_tsplib("".join(in_order)), parse_tsplib(shuffled)
    assert a.coords.tobytes() == b.coords.tobytes()
    assert a.matrix.tobytes() == b.matrix.tobytes()


def test_duplicate_coordinate_index_reports_the_missing_node():
    with pytest.raises(ParseError, match="line 8: some node indices missing"):
        parse_tsplib(TRIANGLE.replace("3 0 4\n", "2 0 4\n"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tsplib_coordinate_is_named_as_such(value):
    # a NaN must not pass for a missing node index: every non-finite value
    # meets the constructor's check, as in a CSV file
    text = TRIANGLE.replace("2 3 0\n", f"2 {value} 0\n")
    for rounding in ("none", "integer"):
        with pytest.raises(ValueError, match="coordinates must be finite") as info:
            parse_tsplib(text, rounding)
        assert not isinstance(info.value, ParseError)
    with pytest.raises(ValueError, match="coordinates must be finite"):
        parse_coords_csv(f"x,y\n0,0\n{value},0\n0,4\n")


# These points span 1.2e154, past the safe span, but no distance overflows:
# every pair is at most 1.2e154 apart. Only the full scan can accept them.
SPAN_OVERFLOW = np.array([(0.0, 0.0), (1.2e154, 0.0), (6e153, 8e153)])


@pytest.mark.parametrize("rounding", ["none", "integer"])
def test_overflowing_span_bound_alone_rejects_nothing(rounding):
    inst = Instance("wide", coords=SPAN_OVERFLOW, rounding=rounding)
    assert inst.matrix.tobytes() == _tensor_matrix(SPAN_OVERFLOW, rounding).tobytes()


UNIT_SQUARE = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])


@pytest.mark.parametrize("kind,scans", [
    ("huge but bounded", 0),
    ("square just under the safe span", 0),
    ("square just over the safe span", 1),
    ("span overflow", 1),
])
def test_full_finiteness_scan_runs_only_when_the_span_bound_overflows(monkeypatch, kind, scans):
    from mtspkit import instance as instance_module

    calls = []
    original = instance_module._check_off_diagonal_finite

    def counting(matrix):
        calls.append(1)
        return original(matrix)

    monkeypatch.setattr(instance_module, "_check_off_diagonal_finite", counting)
    assert _SAFE_SPAN == 9e153
    pts = {
        "huge but bounded": _coords_of_kind("huge", 300, seed=6),
        "square just under the safe span": UNIT_SQUARE * np.nextafter(9e153, 0),
        "square just over the safe span": UNIT_SQUARE * np.nextafter(9e153, np.inf),
        "span overflow": SPAN_OVERFLOW,
    }[kind]
    inst = Instance("pts", coords=pts)
    assert len(calls) == scans
    # below the span no entry overflows, so skipping the scan accepts only
    # finite matrices
    assert np.count_nonzero(np.isfinite(inst.matrix)) == len(pts) * (len(pts) - 1)
    assert inst.matrix.tobytes() == _tensor_matrix(pts).tobytes()


def test_from_coords_copies_and_freezes():
    pts = np.array([(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)])
    inst = Instance("tri", coords=pts)
    pts[0, 0] = 9.0
    assert inst.coords[0, 0] == 0.0
    assert pts.flags.writeable
    assert inst.matrix[1, 2] == 5.0
    with pytest.raises(ValueError):
        inst.matrix[0, 1] = 0.0
    with pytest.raises(ValueError):
        inst.coords[0, 0] = 1.0


def test_constructor_needs_a_matrix_or_coordinates():
    with pytest.raises(ValueError, match="matrix or coordinates"):
        Instance("x")


def test_constructor_checks_the_rounding_of_a_matrix_instance():
    matrix = euclidean_matrix([(0.0, 0.0), (3.0, 0.0), (0.0, 4.0)])
    with pytest.raises(ValueError, match="unknown rounding mode"):
        Instance("x", matrix, rounding="bogus")


@pytest.mark.parametrize("rounding", ["none", "integer"])
def test_coordinate_instance_matrix_is_euclidean_matrix(rounding):
    pts = generate_uniform_instance(GridSpec(40, 100, 5)).coords * 0.37
    inst = Instance("pts", coords=pts, rounding=rounding)
    assert inst.matrix.tobytes() == euclidean_matrix(pts, rounding).tobytes()


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
        Instance("bad", coords=pts)


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
        try:
            route = tuple(operator.index(v) for v in route)
        except TypeError:
            raise PlanError(f"route {idx} holds a non-integer node label") from None
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
    # a left fold: sum() compensates its rounding from Python 3.12 on
    total = 0.0
    for cost in per:
        total += cost
    return RoutePlan(tuple(clean), tuple(per), total)


def _outcome(evaluate, instance, routes):
    try:
        return evaluate(instance, routes)
    except PlanError as exc:
        return f"PlanError: {exc}"


def _assert_matches_reference(instance, routes):
    expected = _outcome(_reference_evaluate, instance, routes)
    assert _outcome(evaluate_plan, instance, routes) == expected
    # a generator of route iterators is read once, on either path
    assert _outcome(evaluate_plan, instance, (iter(r) for r in routes)) == expected
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
    "route closing at a customer": [[1, 6, 7, 8, 9, 5], _VALID[1]],
    "node beyond int64": [[1, 6, 7, 2**70, 8, 9, 1], _VALID[1]],
    "depot revisit before node beyond int64": [[1, 6, 1, 7, 8, 9, 1], [1, 5, 2**70, 1]],
    "non-integer node": [_VALID[0], [1, 5, 4.0, 3, 2, 1]],
    "unknown node before non-integer node": [[1, 6, 12, 7, 8, 9, 1], [1, 5, 4.5, 3, 2, 1]],
    "non-integer node before unknown node": [[1, 6, 7.5, 12, 8, 9, 1], _VALID[1]],
    "non-integer node in a plan missing a customer": [[1, 6, 7, 8, 1], [1, 5, 4, 3, 2, 1], [1.0]],
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
        [[1, np.int64(6), np.int32(7), 8, 9, 1], [np.uint8(1), 5, 4, 3, 2, 1]],
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


@settings(max_examples=600, deadline=None)
@given(_plans(), st.booleans())
def test_evaluate_plan_matches_reference(case, asymmetric):
    n, routes = case
    if asymmetric:  # an explicit matrix, read by its own arcs
        matrix = rng_from_seed(n).random((n, n)) * 100
        np.fill_diagonal(matrix, np.inf)
        inst = Instance(f"asym{n}", matrix)
    else:
        inst = generate_uniform_instance(GridSpec(n, 100, n))
    _assert_matches_reference(inst, routes)


@pytest.mark.parametrize("m", range(2, 8))
def test_evaluate_plan_matches_reference_at_law_sizes(m):
    # n = 300, as on the law grid: each route's cost must equal its own
    # gather's sum bit for bit, and each defect must be named as the walk
    # names it
    inst = generate_uniform_instance(GridSpec(300, 100, m))
    rng = rng_from_seed(m)
    for _ in range(10):
        customers = (rng.permutation(299) + 2).tolist()
        cuts = sorted((rng.choice(298, m - 1, replace=False) + 1).tolist())
        bounds = [0, *cuts, 299]
        routes = [[1, *customers[a:b], 1] for a, b in zip(bounds, bounds[1:])]
        assert isinstance(_assert_matches_reference(inst, routes), RoutePlan)
        # one customer overwritten by the next: a repeat and a missing node
        route = routes[rng.integers(m)]
        i = rng.integers(1, len(route) - 2)
        route[i] = route[i + 1]
        assert isinstance(_assert_matches_reference(inst, routes), str)
