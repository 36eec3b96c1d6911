"""Command-line interface.

Subcommands: construct, localsearch, solve, oracle, bench, stats, validate.
"""

import argparse
import json
import math
import random
import sys
from dataclasses import asdict
from pathlib import Path

from .constructive import best_of_est_ect, construct_ect, construct_est
from .graph import ScheduleError, build_schedule, schedule_to_json
from .harness import (
    INSTANCE_FORMATS,
    emit_results,
    gap_stats,
    load_instance_file,
    read_results_csv,
    run_benchmark,
    wilcoxon,
)
from .local_search import STRATEGIES, LocalSearchConfig, local_search
from .metaheuristics import ALGORITHMS, MetaConfig, run
from .moves import NEIGHBORHOOD_MODES
from .oracle import OracleLimitError, solve_exhaustive

__all__ = ["main"]


def _add_instance_args(parser):
    parser.add_argument("--instance", required=True, help="instance file")
    parser.add_argument("--format", choices=INSTANCE_FORMATS,
                        default="native", help="instance file format")
    parser.add_argument("--alpha", type=float, default=None,
                        help="override the instance learning rate")


def _load(args):
    return load_instance_file(args.instance, args.format, args.alpha)


def _read_solution(path) -> tuple:
    """The assignment, machine sequences and makespan (None if absent) that
    a schedule JSON file declares; ScheduleError when it declares none, or
    declares a machine or makespan that is not an integer."""
    try:
        data = json.loads(Path(path).read_text())
        assignment = {int(op): k for op, k in data["assignment"].items()}
        sequences = [list(seq) for seq in data["sequences"]]
        makespan = data.get("makespan")
    except KeyError as exc:
        raise ScheduleError(f"solution {path} has no {exc} entry") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScheduleError(f"solution {path} is not a schedule: {exc}") from None
    declared = [(f"operation {op}'s machine", k)
                for op, k in assignment.items()]
    if makespan is not None:
        declared.append(("makespan", makespan))
    for what, value in declared:
        if type(value) is not int:  # bool is an int subclass: excluded
            raise ScheduleError(f"solution {path}: {what} "
                                f"{json.dumps(value)} is not an integer")
    return assignment, sequences, makespan


def _method_pair(spec: str, records) -> tuple:
    """The two distinct methods named by ``A,B``, each present in
    ``records``."""
    names = [name.strip() for name in spec.split(",")]
    if len(names) != 2 or not all(names):
        raise ValueError(
            f"--wilcoxon expects two method names as A,B, got {spec!r}")
    if names[0] == names[1]:
        raise ValueError(
            f"--wilcoxon compares a method with itself: {names[0]!r}")
    present = {rec.algorithm for rec in records}
    for name in names:
        if name not in present:
            raise ValueError(f"method {name!r} is not in the results")
    return tuple(names)


def _names(option: str, spec: str) -> list:
    """The comma-separated names of ``--option``, each at most once."""
    names = [name.strip() for name in spec.split(",")]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"--{option} names {name!r} more than once")
    return names


def _meta_config(args) -> MetaConfig:
    overrides = {
        "time_budget": args.time_limit,
        "max_iterations": args.iterations,
        "seed": args.seed,
        "no_improve_limit": args.no_improve,
        "target_makespan": args.target,
        "ils_perturb_min": args.perturb_min,
        "ils_perturb_max": args.perturb_max,
        "grasp_alpha": args.rcl_alpha,
        "ts_factor": args.tabu_factor,
    }
    return MetaConfig.calibrated(
        args.algo, args.neighborhood,
        **{key: value for key, value in overrides.items() if value is not None},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flexshop",
        description="Flexible job shop scheduling with sequencing "
                    "flexibility and position-based learning effect",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="run a constructive heuristic")
    _add_instance_args(p)
    p.add_argument("--rule", choices=("est", "ect", "best"), default="best")
    p.add_argument("--rcl-alpha", type=float, default=0.0,
                   help="restricted candidate list width in [0, 1] "
                        "(0 is greedy; rule best builds both with it)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the randomized pick, with --rcl-alpha > 0")

    p = sub.add_parser("localsearch", help="run the local search")
    _add_instance_args(p)
    p.add_argument("--neighborhood", choices=NEIGHBORHOOD_MODES,
                   default="reduced")
    p.add_argument("--strategy", choices=STRATEGIES, default="best")
    p.add_argument("--time-limit", type=float, default=None)

    p = sub.add_parser("solve", help="run a metaheuristic")
    _add_instance_args(p)
    p.add_argument("--algo", choices=ALGORITHMS, required=True)
    p.add_argument("--neighborhood", choices=("reduced", "cropped"),
                   default="reduced")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=int, default=None)
    p.add_argument("--no-improve", type=float, default=None,
                   help="stop after this many seconds without improvement")
    p.add_argument("--perturb-min", type=int, default=None)
    p.add_argument("--perturb-max", type=int, default=None)
    p.add_argument("--rcl-alpha", type=float, default=None)
    p.add_argument("--tabu-factor", type=float, default=None)

    p = sub.add_parser("oracle", help="exhaustive solve of a tiny instance")
    _add_instance_args(p)
    p.add_argument("--limit", type=int, default=1_000_000)

    p = sub.add_parser("bench", help="batch experiment runner")
    p.add_argument("--instances", required=True, help="instance directory")
    p.add_argument("--format", choices=INSTANCE_FORMATS,
                   default="native")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--algos", default="ils,grasp,ts,sa",
                   help="comma-separated algorithm list")
    p.add_argument("--neighborhoods", default="reduced",
                   help="comma-separated neighborhood list")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--time-limit", type=float, default=300.0)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="results.csv")

    p = sub.add_parser("stats", help="statistics over a results file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--wilcoxon", default=None, metavar="A,B",
                   help="compare two methods by name")

    p = sub.add_parser("validate", help="check a solution against an instance")
    _add_instance_args(p)
    p.add_argument("--solution", required=True, help="schedule JSON file")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (OSError, ValueError, OracleLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "construct":
        inst = _load(args)
        rule = {"est": construct_est, "ect": construct_ect,
                "best": best_of_est_ect}[args.rule]
        sched = rule(inst, args.rcl_alpha, random.Random(args.seed))
        sys.stdout.write(schedule_to_json(inst, sched))
        return 0

    if args.command == "localsearch":
        inst = _load(args)
        cfg = LocalSearchConfig(args.neighborhood, args.strategy,
                                args.time_limit)
        result = local_search(inst, best_of_est_ect(inst), cfg)
        sys.stdout.write(schedule_to_json(inst, result.schedule))
        print(f"iterations: {result.iterations}", file=sys.stderr)
        print(f"neighbors evaluated: {result.neighbors_evaluated}",
              file=sys.stderr)
        return 0

    if args.command == "solve":
        inst = _load(args)
        cfg = _meta_config(args)
        # a target alone may never be reached, nor an infinite budget
        if not any(stop is not None and math.isfinite(stop) for stop in (
                cfg.time_budget, cfg.max_iterations, cfg.no_improve_limit)):
            raise ValueError("solve needs a stop: --time-limit, "
                             "--iterations or --no-improve")
        record = run(inst, cfg)
        sys.stdout.write(schedule_to_json(inst, record.schedule))
        print(
            f"makespan {record.best_makespan} after {record.iterations} "
            f"iterations ({record.stop_reason}), "
            f"time to best {record.time_to_best:.3f}s",
            file=sys.stderr,
        )
        return 0

    if args.command == "oracle":
        inst = _load(args)
        result = solve_exhaustive(inst, args.limit)
        sys.stdout.write(schedule_to_json(inst, result.schedule))
        print(f"optimal makespan {result.optimal_makespan} "
              f"({result.feasible_count} feasible solutions)",
              file=sys.stderr)
        return 0

    if args.command == "bench":
        configs = [
            MetaConfig.calibrated(algo, mode, time_budget=args.time_limit,
                                  max_iterations=args.iterations)
            for algo in _names("algos", args.algos)
            for mode in _names("neighborhoods", args.neighborhoods)
        ]
        paths = [p for p in sorted(Path(args.instances).iterdir())
                 if p.is_file()]
        if not paths:
            raise ValueError(f"no instance files in {args.instances}")
        records = run_benchmark(
            paths, configs, runs=args.runs, seed_base=args.seed_base,
            fmt=args.format, learning_rate=args.alpha, workers=args.workers,
        )
        fmt = "json" if str(args.out).endswith(".json") else "csv"
        emit_results(records, gap_stats(records), fmt, args.out,
                     configs=configs)
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
        return 0

    if args.command == "stats":
        records = read_results_csv(args.infile)
        stats = gap_stats(records)
        if args.wilcoxon:
            name_a, name_b = _method_pair(args.wilcoxon, records)
            per_instance = stats["per_instance"]
            pairs = [
                (tbl[name_a]["best"], tbl[name_b]["best"])
                for tbl in per_instance.values()
                if name_a in tbl and name_b in tbl
            ]
            try:
                outcome = wilcoxon(pairs)
            except ValueError as exc:
                stats["wilcoxon"] = {
                    "methods": [name_a, name_b],
                    "error": str(exc),
                }
            else:
                stats["wilcoxon"] = {"methods": [name_a, name_b],
                                     **asdict(outcome)}
        json.dump(stats, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    if args.command == "validate":
        inst = _load(args)
        assignment, sequences, makespan = _read_solution(args.solution)
        try:
            sched = build_schedule(inst, sequences)
        except ValueError as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return 1
        # the declared assignment must be the one the sequences imply
        violations = [
            f"operation {op}: assignment says machine "
            f"{assignment.get(op)}, sequences say machine {k}"
            for op, k in sched.assignment.items() if assignment.get(op) != k
        ]
        if len(assignment) != len(sched.assignment):
            violations.append(
                f"assignment lists {len(assignment)} operations, "
                f"the sequences {len(sched.assignment)}"
            )
        if makespan not in (None, sched.makespan):
            violations.append(
                f"declared makespan {makespan} differs from "
                f"recomputed {sched.makespan}"
            )
        for v in violations:
            print(v, file=sys.stderr)
        if not violations:
            print(f"valid; makespan {sched.makespan}")
        return 1 if violations else 0

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
