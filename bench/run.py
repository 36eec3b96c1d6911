"""Benchmark of the flexshop solver: one workload per invocation.

Run from the repository root::

    python3 bench/run.py --workload scan-dag --seed 1 --seconds 40 --trace 0

The library is imported from ``src/`` next to this directory; without it
the command fails. The workload's inputs are generated from ``--seed``
(same seed, same inputs; their SHA-256 is printed). The solver runs the
workload's fixed job list in rounds until the next round would not fit in
``--seconds`` (at least one round); every returned schedule is checked
after the timed rounds. Timings are medians over rounds, in seconds at
reference host speed (see hostspeed.py); set-up time is the median of
several set-ups.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced round with a traced one (a set-up pass plus the round) and prints
the per-layer metrics, per traced round, with the tracing overhead. The
last line of standard output is one JSON object; details, the environment
and (traced) all spans go to ``.bench_out/`` at the repository root. The
exit code is non-zero when any run fails.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "neighbors_per_s": "1/s",
    "ttt_s": "s",
    "makespan_mean": "time_units",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and caps, for the benchmark's test")
    return parser.parse_args(argv)


def import_library():
    """Import flexshop from ``src/`` of this checkout, or exit."""
    src = ROOT / "src"
    if not (src / "flexshop" / "__init__.py").is_file():
        sys.exit(f"error: no flexshop sources under {src}")
    sys.path.insert(0, str(src))
    import flexshop

    if Path(flexshop.__file__).resolve().parent != src / "flexshop":
        sys.exit(f"error: imported flexshop from {flexshop.__file__}, "
                 f"not from {src}")


def git_sha() -> str:
    """HEAD of the repository at ROOT; "unknown" outside a git checkout
    (the search for ``.git`` stops at ROOT)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,  # informational, not gated
    }


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, plus the largest pool child if asked."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def measure_setup(wl) -> list:
    """Reference seconds of each of ``SETUP_REPEATS`` set-ups."""
    samples, seconds = [hostspeed.sample()], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        seconds.append(time.perf_counter() - t0)
        samples.append(hostspeed.sample())
    return [t * f for t, f in zip(seconds, hostspeed.factors(samples))]


def check_rounds(wl, rounds) -> tuple:
    """(attempted, failed, first errors); rounds must also agree exactly."""
    attempted = failed = 0
    messages = []
    reference = None
    for rnd in rounds:
        results = rnd.results
        per_run = wl.check(results)
        makespans = [r.record.best_makespan if r.record else None
                     for r in results]
        if reference is None:
            reference = makespans
        for errors, ms, ref in zip(per_run, makespans, reference):
            if ms != ref:
                errors = errors + [f"makespan {ms} differs from first "
                                   f"round's {ref}"]
            attempted += 1
            if errors:
                failed += 1
                messages.extend(errors)
    return attempted, failed, messages


def run_key(rec) -> tuple:
    return rec.instance_id, rec.algorithm, rec.seed


def end_to_end(wl, setup_times, rounds) -> dict:
    """Medians over rounds, in seconds at reference host speed (see
    hostspeed.py); ``ttt_s`` is the median over the time-to-target runs
    of each run's median over rounds."""
    walls, rates, ttb = [], [], {}
    for rnd in rounds:
        done = [r for r in rnd.results if r.record is not None]
        walls.append(rnd.ref_seconds or 0.0)
        runtime = sum(r.record.total_runtime * r.factor for r in done)
        rates.append(sum(r.record.neighbors_evaluated for r in done) / runtime
                     if runtime > 0 else 0.0)
        for r in wl.ttt_results(rnd.results):
            ttb.setdefault(run_key(r.record), []).append(
                r.record.time_to_best * r.factor)
    first = [r.record.best_makespan for r in rounds[0].results
             if r.record is not None]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "neighbors_per_s": statistics.median(rates),
        "ttt_s": statistics.median(statistics.median(t) for t in ttb.values())
        if ttb else 0.0,
        "makespan_mean": statistics.fmean(first) if first else 0.0,
        "peak_rss_mb": peak_rss_mb(children=wl.name == "batch-chain"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import tracing
    import workloads
    from instances import fingerprint

    if args.workload not in workloads.NAMES:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.NAMES)}")
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.Workload(args.workload, args.seed, args.smoke, out_dir)

    setup_times = measure_setup(wl)
    input_errors = wl.input_errors()
    sha = fingerprint(wl.generated)

    started = time.perf_counter()
    untraced, traced = [], []
    tracer = tracing.Tracer() if args.trace else None
    while True:
        untraced.append(wl.timed_round())
        if tracer is not None:
            tracer.install(solver=wl.name != "batch-chain")
            try:
                wl.setup()  # a traced set-up pass, for the parse layer
                traced.append(wl.timed_round(tracer))
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - started
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break
    if not args.trace:
        metrics = end_to_end(wl, setup_times, untraced)
    # after peak_rss_mb: the git child would count as a pool child
    env = environment()

    attempted, failed, messages = check_rounds(wl, untraced + traced)
    messages = input_errors + messages
    correct = failed == 0 and not input_errors

    print(f"workload {wl.name}  seed {args.seed}  rounds {len(untraced)}"
          f"{' + %d traced' % len(traced) if traced else ''}  "
          f"runs/round {wl.attempted()}  smoke {args.smoke}")
    print(f"inputs_sha256 {sha}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print("round seconds, raw / at reference host speed: " + "  ".join(
        f"{r.seconds or 0:.3f}/{r.ref_seconds or 0:.3f}" for r in untraced))
    for msg in messages[:20]:
        print(f"FAILED {msg}")
    report = {"workload": wl.name, "seed": args.seed, "smoke": args.smoke,
              "inputs_sha256": sha, "env": env, "attempted": attempted,
              "failed": failed, "errors": messages,
              "runs": [[r.record.instance_id, r.record.algorithm,
                        r.record.best_makespan, r.record.neighbors_evaluated,
                        r.record.total_runtime, r.record.time_to_best,
                        r.record.stop_reason]
                       for r in untraced[0].results if r.record is not None],
              "raw_seconds": [r.seconds for r in untraced],
              "reference_seconds": [r.ref_seconds for r in untraced]}
    if args.trace:
        import layers

        unit_metrics = layers.per_layer(tracer, wl, untraced, traced)
        tracer.write_spans(out_dir / "spans.csv.gz")
        print("per-round layer figures; pool children of batch-chain are "
              "not traced (parent-side harness and parse spans only)")
    else:
        unit_metrics = {name: (value, E2E_UNITS[name])
                        for name, value in metrics.items()}
    print(f"{'failed_frac':<34} {failed / attempted:>14.6g} ratio"
          f"  ({failed}/{attempted} runs)")
    for name, (value, unit) in unit_metrics.items():
        print(f"{name:<34} {value:>14.6g} {unit}")
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in unit_metrics.items()}
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
