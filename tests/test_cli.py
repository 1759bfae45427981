import json

import numpy as np
import pytest

from mtspkit import parse_tsplib
from mtspkit.cli import main
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


def test_solve_exact_alias(capsys):
    code, text, _ = run(
        capsys, "solve-exact", "--instance", str(bundled_path("garn9")),
        "--m", "2", "--K", "2", "--L", "5", "--time-limit", "60",
    )
    assert code == 0
    rec = json.loads(text)
    assert rec["algorithm"] == "exact"
    assert rec["status"] == "optimal"
    assert rec["objective"] == pytest.approx(44.8, abs=0.05)


def test_solve_oracle(capsys):
    code, text, _ = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")),
        "--m", "2", "--algorithm", "oracle", "--K", "4", "--L", "4",
    )
    assert code == 0
    assert json.loads(text)["objective"] == pytest.approx(44.8, abs=0.05)


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


def test_law_defaults_to_bundled_grid(capsys):
    code, text, _ = run(capsys, "law", "--format", "markdown")
    assert code == 0
    assert "increment per salesman = 90.41" in text


def test_simulate(capsys, tmp_path):
    out = tmp_path / "hist.csv"
    code, _, err = run(
        capsys, "simulate", "--kind", "pair", "--reps", "20000",
        "--seed", "2", "--out", str(out),
    )
    assert code == 0
    assert "mean = " in err
    assert out.read_text().splitlines()[0] == "bin_lo,bin_hi,count"
    code, _, err = run(
        capsys, "simulate", "--kind", "min", "--domain", "integers",
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


def test_exit_code_infeasible(capsys):
    code, _, err = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")),
        "--m", "4", "--algorithm", "exact", "--K", "3", "--L", "3",
    )
    assert code == 2
    assert "infeasible" in err


@pytest.mark.parametrize("m", ["5-2", ",", ""])
def test_solve_rejects_empty_or_descending_fleet_sizes(capsys, m):
    code, out, err = run(
        capsys, "solve", "--instance", str(bundled_path("garn9")), "--m", m
    )
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_simulate_rejects_fewer_than_one_worker(capsys, workers):
    code, out, err = run(
        capsys, "simulate", "--kind", "min", "--reps", "100", "--seed", "1",
        "--workers", workers,
    )
    assert code == 1
    assert out == ""
    assert "workers" in err
