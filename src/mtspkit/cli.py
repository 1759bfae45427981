"""Command-line interface.

Subcommands: generate, solve, compare, experiment, law, simulate. Exit
codes: 0 success, 1 input or usage error, 2 infeasibility. ``--K``/``--L``
(the route-size window of exact runs) are given together or not at all;
without them each fleet size gets ``bench.default_window``. Every run goes
through ``bench.solve``; an exact one is a call of ``exact.solve``, which
picks the backend by instance size.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import bench, distlaw
from .exact import InfeasibleModelError
from .instance import (
    GridSpec,
    ParseError,
    PlanError,
    dumps_coords_csv,
    dumps_tsplib,
    generate_uniform_instance,
    load_instance,
)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, rows, to_csv, to_markdown):
    """Write ``rows`` in the ``--format`` of a table subcommand."""
    _emit((to_markdown if args.format == "markdown" else to_csv)(rows), args.out)


def _int_list(text: str) -> list[int]:
    """Parse '2,3,4' or '2-7' (inclusive range); empty, descending or
    unreadable text is an error that names the text."""
    ranged = "-" in text and "," not in text
    try:
        if ranged:
            lo, _, hi = text.partition("-")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(
            f"cannot read {text!r} as integers: give a list like '2,3,4' or a range like '2-7'"
        ) from None
    if not values:
        raise ValueError(f"{'descending range' if ranged else 'empty list'} {text!r}")
    return values


def _window(args) -> tuple[int, int] | None:
    """The ``--K``/``--L`` window, or None for the default one."""
    window = (args.min_customers, args.max_customers)
    if window.count(None) == 1:
        raise ValueError("--K and --L must be given together")
    return None if None in window else window


def cmd_generate(args) -> int:
    inst = generate_uniform_instance(GridSpec(args.n, args.grid_max, args.seed))
    text = dumps_coords_csv(inst) if args.format == "csv" else dumps_tsplib(inst)
    _emit(text, args.out)
    return 0


def cmd_solve(args) -> int:
    """One record per fleet size that has a plan; any without one exits 2
    after the others are written."""
    window = _window(args)
    inst = load_instance(args.instance, rounding=args.rounding)
    records = []
    code = 0
    for m in _int_list(args.m):
        try:
            plan, result = bench.solve(inst, m, args.algorithm, window, args.time_limit)
        except InfeasibleModelError as exc:  # every run that returns has a plan
            print(f"{inst.name} m={m}: infeasible: {exc}", file=sys.stderr)
            code = 2
            continue
        records.append(bench.plan_record(inst.name, m, args.algorithm, plan, result))
    _emit(bench.plan_to_jsonl(records), args.out)
    return code


def cmd_compare(args) -> int:
    instances = [load_instance(p, rounding=args.rounding) for p in args.instances]
    rows = bench.compare_instances(
        instances,
        _int_list(args.m),
        [a.strip() for a in args.algorithms.split(",")],
        time_limit=args.time_limit,
        window=_window(args),
    )
    _emit_table(args, rows, bench.comparison_to_csv, bench.comparison_to_markdown)
    return 2 if any(math.isinf(d) for row in rows for d in row.distances.values()) else 0


def cmd_experiment(args) -> int:
    config = bench.ExperimentConfig(
        sizes=tuple(_int_list(args.sizes)),
        m_values=tuple(_int_list(args.m)),
        samples=args.samples,
        grid_max=args.grid_max,
        base_seed=args.seed,
        algorithms=tuple(a.strip() for a in args.algorithms.split(",")),
    )
    rows = bench.run_experiment(config)
    _emit_table(args, rows, bench.summary_to_csv, bench.summary_to_markdown)
    return 0


def cmd_law(args) -> int:
    if args.rows:
        rows = bench.summary_from_csv(Path(args.rows).read_text())
    else:
        rows = bench.load_reference_grid()
    report = bench.law_pipeline(rows)
    _emit_table(args, report, bench.law_report_to_csv, bench.law_report_to_markdown)
    return 0


def cmd_simulate(args) -> int:
    if args.domain == "unit":
        domain = distlaw.UnitInterval()
    elif args.domain == "integers":
        domain = distlaw.IntegerRange(args.grid_max)
    else:
        domain = distlaw.Rectangle(args.rect_width, args.rect_height)
    # output is the same at any thread count; the library clamps this one to
    # the chunk count and to the CPUs the process may use
    result = distlaw.simulate_min_dist(args.n, args.reps, domain, args.seed, os.cpu_count() or 1)
    print(f"mean = {result.mean!r} over {result.reps} repetitions", file=sys.stderr)
    _emit(result.to_csv(), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like other input errors; 2 means infeasible."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mtspkit",
        description="Balanced mTSP heuristics, exact solving and distance laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups shared by several subcommands
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    table = argparse.ArgumentParser(add_help=False, parents=[out])
    table.add_argument("--format", choices=("csv", "markdown"), default="csv")
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument("--K", dest="min_customers", type=int, default=None)
    runs.add_argument("--L", dest="max_customers", type=int, default=None)
    runs.add_argument("--time-limit", type=float, default=None)
    runs.add_argument("--rounding", choices=("none", "integer"), default="none")

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, parents=parents, help=summary)
        p.set_defaults(func=func)
        return p

    p = command("generate", cmd_generate, "write a uniform random grid instance", out)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid-max", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--format", choices=("tsplib", "csv"), default="tsplib")

    p = command("solve", cmd_solve, "route an instance with one algorithm", runs, out)
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", choices=bench.ALGORITHMS, default="nearest")
    p.add_argument("--m", required=True, help="fleet size(s), e.g. 2 or 2,3,5 or 2-5")

    p = command("compare", cmd_compare, "side-by-side distances and %% gaps", runs, table)
    p.add_argument("--instances", nargs="+", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--algorithms", default="nearest,closest")

    p = command("experiment", cmd_experiment, "seeded heuristic grid statistics", table)
    p.add_argument("--sizes", default="50,100,150,200,250,300,350,400,450,500")
    p.add_argument("--m", default="2-7")
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--grid-max", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--algorithms", default="nearest,closest")

    p = command("law", cmd_law, "distance-law report from a summary CSV", table)
    p.add_argument("--rows", help="summary CSV; defaults to the bundled reference grid")

    p = command("simulate", cmd_simulate, "Monte Carlo minimum distance to n points", out)
    p.add_argument("--domain", choices=("unit", "integers", "rect"), default="unit")
    p.add_argument("--grid-max", type=int, default=100)
    p.add_argument("--rect-width", type=float, default=1.0)
    p.add_argument("--rect-height", type=float, default=1.0)
    p.add_argument("--n", type=int, default=50, help="target points; 1 gives the pair distance")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleModelError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ParseError, PlanError, ValueError, OSError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
