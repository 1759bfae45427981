"""Command-line interface.

Subcommands: generate, solve, solve-exact, compare, experiment, law,
simulate. Exit codes: 0 success, 1 input error, 2 infeasibility.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench, distlaw, heuristics
from .exact import InfeasibleModelError, SolveStatus, brute_force_oracle, build_model, solve_exact
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


def _int_list(text: str) -> list[int]:
    """Parse '2,3,4' or '2-7' (inclusive range); empty or descending is an error."""
    if "-" in text and "," not in text:
        lo, _, hi = text.partition("-")
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"descending range {text!r}")
        return values
    values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values


def cmd_generate(args) -> int:
    inst = generate_uniform_instance(GridSpec(args.n, args.grid_max, args.seed))
    text = dumps_coords_csv(inst) if args.format == "csv" else dumps_tsplib(inst)
    _emit(text, args.out)
    return 0


def cmd_solve(args) -> int:
    inst = load_instance(args.instance, rounding=args.rounding)
    records = []
    for m in _int_list(args.m):
        if args.algorithm in heuristics.ALGORITHMS:
            plan = heuristics.ALGORITHMS[args.algorithm](inst, m)
            records.append(bench.plan_record(inst.name, m, args.algorithm, plan))
            continue
        kmin = args.min_customers
        kmax = args.max_customers
        if kmin is None or kmax is None:
            kmin, kmax = bench.default_window(inst.n, m)
        if args.algorithm == "oracle":
            result = brute_force_oracle(inst, m, kmin, kmax)
        else:
            model = build_model(
                inst, m, kmin, kmax,
                warm_start=heuristics.nearest_node(inst, m),
                heuristic_cuts=args.heuristic_cuts,
            )
            result = solve_exact(model, args.time_limit)
        if result.status is SolveStatus.INFEASIBLE or result.best is None:
            print(f"{inst.name} m={m}: no feasible plan found", file=sys.stderr)
            return 2
        records.append(
            bench.plan_record(inst.name, m, args.algorithm, result.best, result)
        )
    _emit(bench.plan_to_jsonl(records), args.out)
    return 0


def cmd_compare(args) -> int:
    instances = [load_instance(p, rounding=args.rounding) for p in args.instances]
    rows = bench.compare_instances(
        instances,
        _int_list(args.m),
        [a.strip() for a in args.algorithms.split(",")],
        time_limit=args.time_limit,
        window=(
            (args.min_customers, args.max_customers)
            if args.min_customers is not None and args.max_customers is not None
            else None
        ),
    )
    text = (
        bench.comparison_to_markdown(rows)
        if args.format == "markdown"
        else bench.comparison_to_csv(rows)
    )
    _emit(text, args.out)
    return 0


def cmd_experiment(args) -> int:
    config = bench.ExperimentConfig(
        sizes=tuple(_int_list(args.sizes)),
        m_values=tuple(_int_list(args.m)),
        samples=args.samples,
        grid_max=args.grid_max,
        base_seed=args.seed,
        algorithms=tuple(a.strip() for a in args.algorithms.split(",")),
        shared_instances=not args.independent_draws,
    )
    rows = bench.run_experiment(config)
    text = (
        bench.summary_to_markdown(rows)
        if args.format == "markdown"
        else bench.summary_to_csv(rows)
    )
    _emit(text, args.out)
    return 0


def cmd_law(args) -> int:
    if args.rows:
        rows = bench.summary_from_csv(Path(args.rows).read_text())
    else:
        rows = bench.load_reference_grid()
    report = bench.law_pipeline(rows)
    text = (
        bench.law_report_to_markdown(report)
        if args.format == "markdown"
        else bench.law_report_to_csv(report)
    )
    _emit(text, args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.domain == "unit":
        domain = distlaw.UnitInterval()
    elif args.domain == "integers":
        domain = distlaw.IntegerRange(args.grid_max)
    else:
        domain = distlaw.Rectangle(args.rect_width, args.rect_height)
    if args.kind == "pair":
        result = distlaw.simulate_pair_dist(args.reps, domain, args.seed, args.workers)
    else:
        result = distlaw.simulate_min_dist(
            args.n, args.reps, domain, args.seed, args.workers
        )
    print(f"mean = {result.mean!r} over {result.reps} repetitions", file=sys.stderr)
    _emit(result.to_csv(), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtspkit",
        description="Balanced mTSP heuristics, exact solving and distance laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a uniform random grid instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid-max", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("tsplib", "csv"), default="tsplib")
    p.set_defaults(func=cmd_generate)

    def add_solve(name, help_text, fixed_algorithm=None):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--instance", required=True)
        if fixed_algorithm is None:
            q.add_argument(
                "--algorithm",
                choices=("nearest", "closest", "exact", "oracle"),
                default="nearest",
            )
        else:
            q.set_defaults(algorithm=fixed_algorithm)
        q.add_argument("--m", required=True, help="fleet size(s), e.g. 2 or 2,3,5 or 2-5")
        q.add_argument("--K", dest="min_customers", type=int, default=None)
        q.add_argument("--L", dest="max_customers", type=int, default=None)
        q.add_argument("--time-limit", type=float, default=None)
        q.add_argument("--heuristic-cuts", action="store_true")
        q.add_argument("--rounding", choices=("none", "integer"), default="none")
        q.add_argument("--out")
        q.add_argument("--format", choices=("jsonl",), default="jsonl")
        q.set_defaults(func=cmd_solve)

    add_solve("solve", "route an instance with one algorithm")
    add_solve("solve-exact", "branch-and-bound with optional cuts", "exact")

    p = sub.add_parser("compare", help="side-by-side distances and % gaps")
    p.add_argument("--instances", nargs="+", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--algorithms", default="nearest,closest")
    p.add_argument("--K", dest="min_customers", type=int, default=None)
    p.add_argument("--L", dest="max_customers", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--rounding", choices=("none", "integer"), default="none")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("experiment", help="seeded heuristic grid statistics")
    p.add_argument("--sizes", default="50,100,150,200,250,300,350,400,450,500")
    p.add_argument("--m", default="2-7")
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--grid-max", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--algorithms", default="nearest,closest")
    p.add_argument("--independent-draws", action="store_true")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("law", help="distance-law report from a summary CSV")
    p.add_argument("--rows", help="summary CSV; defaults to the bundled reference grid")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.set_defaults(func=cmd_law)

    p = sub.add_parser("simulate", help="Monte Carlo distance estimators")
    p.add_argument("--kind", choices=("pair", "min"), required=True)
    p.add_argument("--domain", choices=("unit", "integers", "rect"), default="unit")
    p.add_argument("--grid-max", type=int, default=100)
    p.add_argument("--rect-width", type=float, default=1.0)
    p.add_argument("--rect-height", type=float, default=1.0)
    p.add_argument("--n", type=int, default=50, help="target points for --kind min")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

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
