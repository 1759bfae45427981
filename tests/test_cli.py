import json
import os
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mtspkit import SolveStatus, load_instance, parse_tsplib
from mtspkit import bench, cli, distlaw
from mtspkit.bench import default_window
from mtspkit.cli import main
from mtspkit.exact import ORACLE_MAX_N, build_model, solve_exact
from mtspkit.instance import bundled_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "inst.tsp"
    code, _, _ = run(capsys, "generate", "--n", "12", "--seed", "3", "--out", str(out))
    assert code == 0
    inst = parse_tsplib(out.read_text())
    assert inst.n == 12
    code, text, _ = run(capsys, "generate", "--n", "12", "--seed", "3")
    assert code == 0
    assert np.array_equal(parse_tsplib(text).coords, inst.coords)


def test_generate_csv_format(capsys):
    code, text, _ = run(capsys, "generate", "--n", "5", "--seed", "1", "--format", "csv")
    assert code == 0
    assert text.splitlines()[0] == "x,y"
    assert len(text.strip().splitlines()) == 6


def test_solve_heuristic(capsys):
    code, text, _ = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")), "--m", "2"
    )
    assert code == 0
    rec = json.loads(text)
    assert rec["algorithm"] == "nearest"
    assert rec["routes"][0] == [1, 6, 7, 8, 9, 1]
    assert rec["total_distance"] == pytest.approx(44.8, abs=0.05)


def test_solve_multiple_fleet_sizes(capsys):
    code, text, _ = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")),
        "--m", "2,4", "--algorithm", "closest",
    )
    assert code == 0
    lines = text.strip().splitlines()
    assert [json.loads(l)["m"] for l in lines] == [2, 4]


def test_solve_exact(capsys):
    for window, limit in ((["--K", "2", "--L", "5"], ["--time-limit", "60"]),
                          (["--K", "4", "--L", "4"], [])):
        code, text, _ = run(
            capsys, "solve", "--instance", str(bundled_path("garn9")),
            "--m", "2", "--algorithm", "exact", *window, *limit,
        )
        assert code == 0
        rec = json.loads(text)
        assert rec["algorithm"] == "exact"
        assert rec["status"] == "optimal"
        assert rec["backend"] == "subset_dp"
        assert rec["objective"] == pytest.approx(44.8, abs=0.05)


def test_solve_oracle_up_to_its_cap(capsys, tmp_path):
    path = tmp_path / "n13.tsp"
    run(capsys, "generate", "--n", "13", "--seed", "1", "--out", str(path))
    code, text, _ = run(
        capsys, "solve", "--instance", str(path), "--m", "3", "--algorithm", "exact"
    )
    assert code == 0
    inst = load_instance(path)
    proof = solve_exact(build_model(inst, 3, *default_window(13, 3)))
    assert proof.status is SolveStatus.OPTIMAL
    rec = json.loads(text)
    assert rec["backend"] == "subset_dp"
    assert rec["objective"] == pytest.approx(proof.objective, abs=1e-9)

    # one node above the cap the branch-and-bound runs and says so
    path = tmp_path / "big.tsp"
    run(capsys, "generate", "--n", str(ORACLE_MAX_N + 1), "--seed", "1", "--out", str(path))
    code, text, err = run(
        capsys, "solve", "--instance", str(path), "--m", "2", "--algorithm", "exact",
        "--time-limit", "0.5",
    )
    assert code == 0 and err == ""
    rec = json.loads(text)
    assert rec["backend"] == "branch_and_bound"
    assert rec["status"] in ("optimal", "feasible_time_limit")
    assert rec["lower_bound"] <= rec["objective"]


def test_experiment_rejects_a_repeated_axis_value(capsys):
    code, out, err = run(
        capsys, "experiment", "--sizes", "20", "--m", "2,2", "--samples", "3",
    )
    assert code == 1
    assert out == ""
    assert "m_values repeats a value: [2, 2]" in err


def test_experiment_rejects_a_bad_last_size_before_any_cell_runs(capsys, monkeypatch):
    monkeypatch.setattr(bench, "run_experiment", lambda config: pytest.fail("grid ran"))
    code, out, err = run(capsys, "experiment", "--sizes", "300,2", "--m", "2", "--samples", "2")
    assert (code, out, err) == (1, "", "error: sizes: n must be at least 3\n")


def test_compare_outputs(capsys, tmp_path):
    code, text, _ = run(
        capsys, "compare", "--instances", str(bundled_path("garn9")),
        "--m", "2", "--algorithms", "nearest,closest", "--format", "markdown",
    )
    assert code == 0
    assert "| garn9 | 2 |" in text
    out = tmp_path / "cmp.csv"
    code, _, _ = run(
        capsys, "compare", "--instances", str(bundled_path("garn9")),
        "--m", "2,3", "--algorithms", "nearest,closest", "--out", str(out),
    )
    assert code == 0
    assert out.read_text().startswith("instance,m,dist_nearest")


def test_experiment_and_law_round_trip(capsys, tmp_path):
    rows_file = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys, "experiment", "--sizes", "20,30", "--m", "2-3",
        "--samples", "2", "--seed", "5", "--out", str(rows_file),
    )
    assert code == 0
    code, text, _ = run(capsys, "law", "--rows", str(rows_file))
    assert code == 0
    assert text.splitlines()[0] == "t,m,algorithm,observed,predicted,deviation_pct"
    assert len(text.strip().splitlines()) == 9


def test_law_rejects_a_csv_without_a_column(capsys, tmp_path):
    rows_file = tmp_path / "rows.csv"
    rows_file.write_text("t,m,algorithm,mean,samples\n50,2,nearest,611.2,30\n")
    code, text, err = run(capsys, "law", "--rows", str(rows_file))
    assert code == 1
    assert text == ""
    assert err == "error: summary CSV lacks column(s): std\n"



def test_law_rejects_a_summary_with_one_fleet_size(capsys, tmp_path):
    rows_file = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys, "experiment", "--sizes", "20,30", "--m", "2",
        "--samples", "2", "--seed", "5", "--out", str(rows_file),
    )
    assert code == 0
    code, text, err = run(capsys, "law", "--rows", str(rows_file))
    assert code == 1
    assert text == ""
    assert err == "error: need at least two consecutive-m increments, got 0\n"


def test_solve_rounds_a_csv_instance(capsys, tmp_path):
    # the same coordinates as CSV and as TSPLIB give the same rounded total
    totals = {}
    for fmt, suffix in (("csv", "csv"), ("tsplib", "tsp")):
        path = tmp_path / f"u12.{suffix}"
        run(capsys, "generate", "--n", "12", "--seed", "3", "--format", fmt,
            "--out", str(path))
        for rounding in ("none", "integer"):
            code, text, _ = run(capsys, "solve", "--instance", str(path), "--m", "2",
                                "--rounding", rounding)
            assert code == 0
            totals[fmt, rounding] = json.loads(text)["total_distance"]
    assert totals["csv", "integer"] == totals["tsplib", "integer"] == 490.0
    assert totals["csv", "none"] == totals["tsplib", "none"] != 490.0

def test_compare_on_coincident_points_writes_nan_gaps(capsys, tmp_path):
    same = tmp_path / "same.csv"
    same.write_text("x,y\n" + "5,5\n" * 6)
    code, text, err = run(
        capsys, "compare", "--instances", str(same), "--m", "2",
        "--algorithms", "nearest,exact",
    )
    assert code == 0 and err == ""
    assert text.splitlines()[1] == "same,2,0.0,0.0,nan,optimal"


def test_law_rejects_a_repeated_cell(capsys, tmp_path):
    # a dict of cells would keep only the second t=100, m=3 mean
    rows_file = tmp_path / "rows.csv"
    rows_file.write_text(
        "t,m,algorithm,mean,std,samples\n"
        "50,2,nearest,900,1,5\n50,3,nearest,990,1,5\n"
        "100,2,nearest,950,1,5\n100,3,nearest,1040,1,5\n100,3,nearest,5000,1,5\n"
    )
    code, text, err = run(capsys, "law", "--rows", str(rows_file))
    assert code == 1
    assert text == ""
    assert err == "error: repeated grid cell (t=100, m=3)\n"


@pytest.mark.parametrize("row,message", [
    ("50,3,nearest,nan,1,5", "line 3: mean and standard deviation must be finite\n"),
    ("50,3,nearest,inf,1,5", "line 3: mean and standard deviation must be finite\n"),
    ("50,3,nearest,990,nan,5", "line 3: mean and standard deviation must be finite\n"),
    ("x,3,nearest,990,1,5", "line 3: invalid literal for int() with base 10: 'x'\n"),
    ("50,3,nearest", "line 3: "),  # the wording of float(None)'s error varies
], ids=["nan-mean", "inf-mean", "nan-std", "unreadable-t", "short-row"])
def test_law_rejects_an_unusable_cell_by_its_line(capsys, tmp_path, row, message):
    # a NaN mean used to print "increment per salesman = nan" and exit 0
    rows_file = tmp_path / "rows.csv"
    rows_file.write_text(
        "t,m,algorithm,mean,std,samples\n50,2,nearest,900,1,5\n"
        f"{row}\n100,2,nearest,950,1,5\n100,3,nearest,1040,1,5\n"
    )
    code, text, err = run(capsys, "law", "--rows", str(rows_file))
    assert code == 1
    assert text == ""
    assert err.startswith(f"error: summary CSV {message}")


@pytest.mark.parametrize("mean", ["0", "-5"], ids=["zero-mean", "negative-mean"])
def test_law_rejects_a_mean_that_is_not_positive(capsys, tmp_path, mean):
    # a deviation is relative to its mean: 0 ended in a ZeroDivisionError
    # traceback and -5 printed "max |deviation| = 17363.56%" and exited 0
    rows_file = tmp_path / "rows.csv"
    rows_file.write_text(
        "t,m,algorithm,mean,std,samples\n50,2,nearest,900,1,5\n"
        f"50,3,nearest,{mean},1,5\n100,2,nearest,950,1,5\n100,3,nearest,1040,1,5\n"
    )
    code, text, err = run(capsys, "law", "--rows", str(rows_file))
    assert code == 1
    assert text == ""
    assert err == (
        f"error: cell t=50, m=3, nearest: mean must be positive, got {float(mean)!r}\n"
    )


def test_law_reads_a_grid_with_a_single_salesman_column(capsys, tmp_path):
    rows_file = tmp_path / "rows.csv"
    code, _, _ = run(
        capsys, "experiment", "--sizes", "20,30", "--m", "1-3",
        "--samples", "2", "--seed", "5", "--out", str(rows_file),
    )
    assert code == 0
    code, text, _ = run(capsys, "law", "--rows", str(rows_file))
    assert code == 0
    # m = 1 rows take no part in the increment but keep their prediction rows
    cells = [line.split(",")[:3] for line in text.splitlines()[1:]]
    assert sorted((t, alg) for t, m, alg in cells if m == "1") == [
        ("20", "closest"), ("20", "nearest"), ("30", "closest"), ("30", "nearest"),
    ]


def test_law_defaults_to_bundled_grid(capsys):
    code, text, _ = run(capsys, "law", "--format", "markdown")
    assert code == 0
    assert "increment per salesman = 90.41" in text


def test_simulate(capsys, tmp_path):
    out = tmp_path / "hist.csv"
    code, _, err = run(
        capsys, "simulate", "--n", "1", "--reps", "20000",
        "--seed", "2", "--out", str(out),
    )
    assert code == 0
    assert "mean = " in err
    assert out.read_text().splitlines()[0] == "bin_lo,bin_hi,count"
    code, _, err = run(
        capsys, "simulate", "--domain", "integers",
        "--grid-max", "100", "--n", "50", "--reps", "20000", "--seed", "2",
    )
    assert code == 0


def test_solve_with_integer_rounding(capsys):
    code, text, _ = run(
        capsys, "solve", "--instance", str(bundled_path("eil51")),
        "--m", "2", "--rounding", "integer",
    )
    assert code == 0
    total = json.loads(text)["total_distance"]
    assert total == int(total)


def test_exit_code_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "solve", "--instance", "missing.tsp", "--m", "2")
    assert code == 1
    bad = tmp_path / "bad.tsp"
    bad.write_text("NAME : x\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : GEO\n")
    code, _, err = run(capsys, "solve", "--instance", str(bad), "--m", "2")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tsplib_coordinate_exits_1(capsys, tmp_path, value):
    bad = tmp_path / "bad.tsp"
    bad.write_text(
        "NAME : tri\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
        f"NODE_COORD_SECTION\n1 0 0\n2 {value} 0\n3 0 4\nEOF\n"
    )
    code, out, err = run(capsys, "solve", "--instance", str(bad), "--m", "2")
    assert code == 1 and out == ""
    assert err == "error: coordinates must be finite\n"


@pytest.mark.parametrize(
    "tail,message",
    [
        ("DIMENSION : 5\n", "line 8: DIMENSION repeated from line 2"),
        ("EDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n3 4\n5\n",
         "line 9: EDGE_WEIGHT_SECTION in an EUC_2D file"),
    ],
)
def test_solve_exits_1_on_a_tsplib_file_that_says_too_much(capsys, tmp_path, tail, message):
    bad = tmp_path / "bad.tsp"
    bad.write_text(
        "NAME : tri\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EUC_2D\n"
        f"NODE_COORD_SECTION\n1 0 0\n2 3 0\n3 0 4\n{tail}EOF\n"
    )
    code, out, err = run(capsys, "solve", "--instance", str(bad), "--m", "2")
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_malformed_display_coordinates_of_an_explicit_file_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.tsp"
    bad.write_text(
        "NAME : small\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEDGE_WEIGHT_SECTION\n1 2\n3\n"
        "NODE_COORD_SECTION\n1 0 0\n2 50\n3 0 70\nEOF\n"
    )
    code, out, err = run(capsys, "solve", "--instance", str(bad), "--m", "2")
    assert code == 1 and out == ""
    assert err == "error: line 10: coordinate row needs 'index x y'\n"


def test_exit_code_infeasible(capsys):
    code, _, err = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")),
        "--m", "4", "--algorithm", "exact", "--K", "3", "--L", "3",
    )
    assert code == 2
    assert "infeasible" in err


def test_default_exact_window_with_more_routes_than_customers(capsys):
    # the default window is the balanced split's, which 8 customers cannot give 9 routes
    code, out, err = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")),
        "--m", "9", "--algorithm", "exact",
    )
    assert code == 2
    assert out == ""
    assert err == "garn9 m=9: infeasible: 9 salesmen but only 8 customers\n"


def test_experiment_with_more_routes_than_customers_exits_2(capsys):
    code, out, err = run(capsys, "experiment", "--sizes", "5", "--m", "9", "--samples", "2")
    assert code == 2
    assert out == ""
    assert err == "infeasible: 9 salesmen but only 4 customers\n"


def test_compare_keeps_feasible_cells_beside_an_infeasible_one(capsys):
    # K=2, L=3 covers 8 customers with 4 routes but not with 2
    code, text, err = run(
        capsys, "compare", "--instances", str(bundled_path("garn9")), "--m", "4,2",
        "--algorithms", "nearest,exact", "--K", "2", "--L", "3",
    )
    assert code == 2
    lines = text.splitlines()
    assert lines[0] == (
        "instance,m,dist_nearest,dist_exact,gap_pct_nearest_vs_exact,status_exact"
    )
    assert lines[1].startswith("garn9,4,") and lines[1].endswith(",optimal")
    assert lines[2].startswith("garn9,2,") and lines[2].endswith(",inf,nan,infeasible")
    assert len(lines) == 3
    assert err == ""


@pytest.mark.parametrize(
    "algorithms, m9_tail",
    [("nearest,exact", "inf,inf,nan,infeasible"), ("nearest,closest", "inf,inf,nan")],
    ids=["with-exact", "heuristics-only"],
)
def test_compare_keeps_feasible_cells_beside_a_heuristic_with_too_many_routes(
    capsys, algorithms, m9_tail
):
    # garn9 has 8 customers: no heuristic can balance them over 9 routes
    code, text, err = run(
        capsys, "compare", "--instances", str(bundled_path("garn9")), "--m", "2,9",
        "--algorithms", algorithms,
    )
    assert code == 2
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("garn9,2,") and "inf" not in lines[1]
    assert lines[2] == "garn9,9," + m9_tail
    assert err == ""


def test_solve_keeps_the_fleet_sizes_it_solved(capsys, tmp_path):
    out = tmp_path / "plans.jsonl"
    code, _, err = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")), "--m", "4,2,3",
        "--algorithm", "exact", "--K", "2", "--L", "3", "--out", str(out),
    )
    assert code == 2
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["m"], r["status"]) for r in records] == [(4, "optimal"), (3, "optimal")]
    assert "garn9 m=2: infeasible: window [2, 3]" in err


@pytest.mark.parametrize("algorithm", ["nearest", "closest"])
def test_solve_keeps_the_fleet_sizes_beside_one_with_too_many_routes(
    capsys, tmp_path, algorithm
):
    # garn9 has 8 customers: no heuristic can balance them over 9 routes
    out = tmp_path / "plans.jsonl"
    code, _, err = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")), "--m", "2,9,3",
        "--algorithm", algorithm, "--out", str(out),
    )
    assert code == 2
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["m"] for r in records] == [2, 3]
    assert "garn9 m=9: infeasible:" in err


@pytest.mark.parametrize("m", ["5-2", ",", ""])
def test_solve_rejects_empty_or_descending_fleet_sizes(capsys, m):
    code, out, err = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")), "--m", m
    )
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("m", ["-1", "2-", "a"])
def test_solve_names_unreadable_fleet_sizes(capsys, m):
    code, out, err = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")), "--m", m
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {m!r} as integers")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--instance", str(bundled_path("garn9")), "--m", "0",
         "--algorithm", "exact"],
        ["compare", "--instances", str(bundled_path("garn9")), "--m", "0",
         "--algorithms", "exact"],
    ],
    ids=["solve", "compare"],
)
def test_exact_rejects_zero_salesmen(capsys, argv):
    # the default window divides by m, so m = 0 must be caught before it
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: need at least one salesman\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--m", "2", "--time-limit", "-1"],
        ["solve", "--m", "2", "--algorithm", "closest", "--time-limit", "0"],
        ["solve", "--m", "2", "--algorithm", "exact", "--time-limit", "nan"],
        ["compare", "--m", "2", "--algorithms", "nearest", "--time-limit", "-1"],
        ["compare", "--m", "2", "--algorithms", "exact", "--time-limit", "nan"],
    ],
)
def test_every_algorithm_rejects_a_non_positive_time_limit(capsys, argv):
    where = "--instance" if argv[0] == "solve" else "--instances"
    code, out, err = run(capsys, *argv, where, str(bundled_path("garn9")))
    assert code == 1
    assert out == ""
    assert err == "error: time_limit must be positive\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--m", "2", "--K", "5", "--L", "2"], "min_customers exceeds max_customers"),
        (["solve", "--m", "2", "--algorithm", "closest", "--K", "-3", "--L", "0"],
         "min_customers must be at least 1"),
        (["compare", "--m", "2", "--K", "5", "--L", "2"], "min_customers exceeds max_customers"),
        (["compare", "--m", "2", "--algorithms", "nearest", "--K", "0", "--L", "3"],
         "min_customers must be at least 1"),
    ],
)
def test_every_algorithm_rejects_a_malformed_window(capsys, argv, message):
    # heuristics ignore the window, but a malformed one is still an input error
    where = "--instance" if argv[0] == "solve" else "--instances"
    code, out, err = run(capsys, *argv, where, str(bundled_path("garn9")))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_solve_takes_an_infinite_time_limit(capsys):
    code, text, _ = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")), "--m", "2",
        "--algorithm", "exact", "--time-limit", "inf",
    )
    assert code == 0
    assert json.loads(text)["status"] == "optimal"


@pytest.mark.parametrize("limit", [[], ["--time-limit", "inf"]], ids=["omitted", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--m", "4", "--algorithm", "exact", "--instance"],
        ["compare", "--m", "4", "--algorithms", "nearest,exact", "--instances"],
    ],
    ids=["solve", "compare"],
)
def test_exact_above_the_dp_cap_refuses_no_limit(capsys, argv, limit):
    # bays29 has 29 nodes: without a limit the run's shares of it never
    # arrive, so both commands exit 1 before any work
    code, out, err = run(capsys, *argv, str(bundled_path("bays29")), *limit)
    assert code == 1
    assert out == ""
    assert err == f"error: time_limit must be finite above {ORACLE_MAX_N} nodes\n"


def test_compare_rejects_a_repeated_algorithm(capsys):
    code, out, err = run(
        capsys, "compare", "--instances", str(bundled_path("garn9")), "--m", "2",
        "--algorithms", "nearest,nearest",
    )
    assert code == 1
    assert out == ""
    assert err == "error: algorithms repeats a value: ['nearest', 'nearest']\n"


@pytest.mark.parametrize("workers", ["2", "0", "-3"])
def test_simulate_rejects_fewer_than_one_worker(capsys, workers):
    # the thread count is the CPU count, clamped to the chunks and usable
    # CPUs: --workers is no option, so every count is refused as unknown
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--reps", "100", "--seed", "1", "--workers", workers])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --workers {workers}" in captured.err


@pytest.mark.parametrize("sides", [("nan", "1"), ("inf", "1"), ("1e200", "1e200")],
                         ids=["nan", "inf", "overflowing-diagonal"])
def test_simulate_rejects_a_rectangle_before_any_draw(capsys, monkeypatch, sides):
    draws = []
    original = distlaw._chunk_rng

    def counting(seed, index):
        draws.append(index)
        return original(seed, index)

    monkeypatch.setattr(distlaw, "_chunk_rng", counting)
    code, text, err = run(
        capsys, "simulate", "--domain", "rect", "--rect-width", sides[0],
        "--rect-height", sides[1], "--n", "3", "--reps", "100", "--seed", "1",
    )
    assert code == 1
    assert text == "" and draws == []
    assert err == ("error: rectangle sides must be positive, "
                   "with a finite width**2 + height**2\n")


@pytest.mark.parametrize("domain", ["unit", "integers", "rect"])
@pytest.mark.parametrize("option, message", [
    (("--grid-max", "0"), "error: integer range needs high >= 1\n"),
    (("--rect-width", "-1"), "error: rectangle sides must be positive, "
                             "with a finite width**2 + height**2\n"),
], ids=["grid-max", "rect-width"])
def test_simulate_rejects_a_bad_domain_option_whatever_the_domain(capsys, domain, option,
                                                                   message):
    code, text, err = run(capsys, "simulate", "--domain", domain, *option,
                          "--n", "5", "--reps", "10", "--seed", "1")
    assert (code, text, err) == (1, "", message)


def test_threaded_simulate_writes_the_serial_csv(capsys, monkeypatch, tmp_path):
    # 40,000 repetitions make three chunks, each run on its own thread here
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(distlaw, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(distlaw, "ThreadPoolExecutor", Recording)
    out = tmp_path / "hist.csv"
    code, _, _ = run(
        capsys, "simulate", "--domain", "rect", "--rect-width", "2", "--n", "7",
        "--reps", "40000", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    assert pools == [3]
    serial = distlaw.simulate_min_dist(7, 40_000, distlaw.Rectangle(2.0, 1.0), 3, workers=1)
    assert out.read_text() == serial.to_csv()


@pytest.mark.parametrize("flag", ["--K", "--L"])
def test_window_bounds_go_together(capsys, flag):
    garn9 = str(bundled_path("garn9"))
    for argv in (
        ["solve", "--instance", garn9, "--m", "2", "--algorithm", "exact"],
        ["compare", "--instances", garn9, "--m", "2", "--algorithms", "exact"],
    ):
        code, out, err = run(capsys, *argv, flag, "3")
        assert code == 1
        assert out == ""
        assert "--K and --L must be given together" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["--nope"],
        ["solve", "--m", "2"],
        ["solve", "--instance", "x.tsp", "--m", "2", "--algorithm", "bogus"],
        ["compare", "--m", "2"],
        ["simulate", "--seed", "x"],
        # the subset DP runs as `exact`; neither old spelling selects it
        ["solve", "--instance", "x.tsp", "--m", "2", "--algorithm", "oracle"],
        ["solve-exact", "--instance", "x.tsp", "--m", "2"],
        # a pair distance is --n 1; the kind switch is gone
        ["simulate", "--kind", "pair", "--seed", "1"],
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["compare", "--help"], ["solve", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


# Each subcommand's minimal argv, the namespace it parses to and the option
# strings and choice sets its --help lists: a lock on every flag, dest,
# default and choice of the command line.
_CLI_LOCK = {
    "generate": (
        ["--n", "5", "--seed", "1"],
        {"n": 5, "grid_max": 100, "seed": 1, "out": None, "format": "tsplib",
         "func": cli.cmd_generate},
        {"--n", "--grid-max", "--seed", "--out", "--format"},
        {"{tsplib,csv}"},
    ),
    "solve": (
        ["--instance", "x.tsp", "--m", "2"],
        {"instance": "x.tsp", "algorithm": "nearest", "m": "2", "min_customers": None,
         "max_customers": None, "time_limit": None, "rounding": "none", "out": None,
         "func": cli.cmd_solve},
        {"--instance", "--algorithm", "--m", "--K", "--L", "--time-limit", "--rounding",
         "--out"},
        {"{nearest,closest,exact}", "{none,integer}"},
    ),
    "compare": (
        ["--instances", "x.tsp", "--m", "2"],
        {"instances": ["x.tsp"], "m": "2", "algorithms": "nearest,closest",
         "min_customers": None, "max_customers": None, "time_limit": None,
         "rounding": "none", "out": None, "format": "csv", "func": cli.cmd_compare},
        {"--instances", "--m", "--algorithms", "--K", "--L", "--time-limit",
         "--rounding", "--out", "--format"},
        {"{csv,markdown}", "{none,integer}"},
    ),
    "experiment": (
        [],
        {"sizes": "50,100,150,200,250,300,350,400,450,500", "m": "2-7", "samples": 30,
         "grid_max": 100, "seed": 1, "algorithms": "nearest,closest", "out": None,
         "format": "csv", "func": cli.cmd_experiment},
        {"--sizes", "--m", "--samples", "--grid-max", "--seed", "--algorithms", "--out",
         "--format"},
        {"{csv,markdown}"},
    ),
    "law": (
        [],
        {"rows": None, "out": None, "format": "csv", "func": cli.cmd_law},
        {"--rows", "--out", "--format"},
        {"{csv,markdown}"},
    ),
    "simulate": (
        ["--seed", "1"],
        {"domain": "unit", "grid_max": 100, "rect_width": 1.0,
         "rect_height": 1.0, "n": 50, "reps": 100_000, "seed": 1,
         "out": None, "func": cli.cmd_simulate},
        {"--domain", "--grid-max", "--rect-width", "--rect-height", "--n",
         "--reps", "--seed", "--out"},
        {"{unit,integers,rect}"},
    ),
}


@pytest.mark.parametrize("command", sorted(_CLI_LOCK))
def test_cli_grammar_is_locked(capsys, monkeypatch, command):
    argv, namespace, options, choices = _CLI_LOCK[command]
    assert vars(cli.build_parser().parse_args([command, *argv])) == {
        "command": command, **namespace
    }
    monkeypatch.setenv("COLUMNS", "200")  # wide enough that no option string wraps
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    listed = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", text))
    assert listed == options | {"-h", "--help"}
    assert set(re.findall(r"\{[^}]*\}", text)) == choices
