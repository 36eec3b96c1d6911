"""Experiment runner and statistics.

Batch execution of (instance, config) pairs over several seeded runs,
gap statistics against the cross-method best, a Wilcoxon signed-rank test
for paired method comparison, and CSV/JSON persistence of run records.
"""

import csv
import json
import math
import os
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass, asdict, replace
from pathlib import Path

from .instance import (
    Instance,
    InstanceError,
    import_classical_fjs,
    parse_instance,
)
from .metaheuristics import RunRecord, run

__all__ = [
    "WilcoxonOutcome",
    "run_benchmark",
    "gap_stats",
    "wilcoxon",
    "emit_results",
    "read_results_csv",
    "CSV_COLUMNS",
]

# results-file column -> (RunRecord field, type of its values)
_COLUMNS = {
    "instance": ("instance_id", str),
    "algorithm": ("algorithm", str),
    "seed": ("seed", int),
    "best_makespan": ("best_makespan", int),
    "time_to_best": ("time_to_best", float),
    "total_runtime": ("total_runtime", float),
    "iterations": ("iterations", int),
    "neighbors_evaluated": ("neighbors_evaluated", int),
    "stalled_iterations": ("stalled_iterations", int),
    "stop_reason": ("stop_reason", str),
}
CSV_COLUMNS = tuple(_COLUMNS)
INSTANCE_FORMATS = ("native", "classical")


@dataclass
class WilcoxonOutcome:
    r_plus: float
    r_minus: float
    w: float
    n: int  # pairs with a nonzero difference
    z: float
    p_value: float
    small_sample: bool  # n < 10: normal approximation is shaky


def _check_format(fmt: str) -> None:
    if fmt not in INSTANCE_FORMATS:
        raise ValueError(f"unknown instance format {fmt!r}: expected "
                         f"{' or '.join(INSTANCE_FORMATS)}")


def load_instance_file(path, fmt: str = "native",
                       learning_rate: float | None = None) -> Instance:
    _check_format(fmt)
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InstanceError(f"{path} is not a text file: {exc}") from None
    name = Path(path).stem
    if fmt == "classical":
        inst = import_classical_fjs(
            text, 1.0 if learning_rate is None else learning_rate, name
        )
    else:
        inst = parse_instance(text, name)
        if learning_rate is not None:
            inst = inst.with_learning_rate(learning_rate)
    return inst


def _error_record(name: str, cfg, seed: int, exc) -> RunRecord:
    return RunRecord(name, cfg.label, seed, -1, 0.0, 0.0,
                     0, 0, 0, f"error: {exc}")


def _one_run(args):
    inst, cfg = args
    try:
        return run(inst, cfg)
    except Exception as exc:  # one failed run must not sink the batch
        return _error_record(inst.name, cfg, cfg.seed, exc)


def run_benchmark(instance_paths, configs, runs: int = 5, seed_base: int = 0,
                  fmt: str = "native", learning_rate: float | None = None,
                  workers: int = 1) -> list:
    """Execute every (instance, config) pair ``runs`` times.

    Seeds are ``seed_base + run_index``.  Each instance file is parsed
    once and the parsed instance is handed to its runs.  Unreadable
    instances and runs that raise produce a failed record (stop_reason
    ``error: ...``) and the batch continues.  ``workers > 1`` dispatches
    runs over a process pool; oversubscription beyond the CPUs this process
    may run on is refused so per-run wall-clock budgets stay honest.  The
    runs left unfinished when a worker dies get ``error: worker died``
    records.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if hasattr(os, "sched_getaffinity"):
        cpu = len(os.sched_getaffinity(0))
    else:
        cpu = os.cpu_count() or 1
    if workers > cpu:
        raise ValueError(f"workers={workers} exceeds the {cpu} available CPUs")
    _check_format(fmt)
    jobs = []
    records = []
    for path in instance_paths:
        try:
            inst = load_instance_file(path, fmt, learning_rate)
        except (OSError, ValueError) as exc:
            records.extend(_error_record(Path(path).stem, cfg, -1, exc)
                           for cfg in configs)
            continue
        for cfg in configs:
            for r in range(runs):
                jobs.append((inst, replace(cfg, seed=seed_base + r)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_one_run, job) for job in jobs]
        for future, (inst, cfg) in zip(futures, jobs):
            try:
                records.append(future.result())
            except BrokenProcessPool:  # the pool fails every unfinished run
                records.append(_error_record(inst.name, cfg, cfg.seed,
                                             "worker died"))
    else:
        records.extend(map(_one_run, jobs))
    return records


def gap_stats(records) -> dict:
    """Per-instance and per-method gap tables.

    For each instance, each method's best-of-runs makespan is compared with
    the cross-method minimum (``gap``); the mean-of-runs makespan is
    compared with the minimum of the means (``mean_gap``).  Gaps are in
    percent; None when the reference minimum is zero.
    """
    groups: dict = {}
    for rec in records:
        if rec.best_makespan is None or rec.best_makespan < 0:
            continue
        groups.setdefault(rec.instance_id, {}).setdefault(
            rec.algorithm, []
        ).append(rec.best_makespan)
    per_instance = {}
    method_gaps: dict = {}
    method_mean_gaps: dict = {}
    for instance_id, methods in sorted(groups.items()):
        best = {m: min(vals) for m, vals in methods.items()}
        mean = {m: sum(vals) / len(vals) for m, vals in methods.items()}
        c_min = min(best.values())
        c_mean_min = min(mean.values())
        table = {}
        for m in sorted(methods):
            gap = 100.0 * (best[m] - c_min) / c_min if c_min > 0 else None
            mean_gap = (
                100.0 * (mean[m] - c_mean_min) / c_mean_min
                if c_mean_min > 0 else None
            )
            table[m] = {
                "best": best[m], "mean": mean[m],
                "gap": gap, "mean_gap": mean_gap,
            }
            if gap is not None:
                method_gaps.setdefault(m, []).append(gap)
            if mean_gap is not None:
                method_mean_gaps.setdefault(m, []).append(mean_gap)
        per_instance[instance_id] = table
    summary = {
        m: {
            "gap": sum(gs) / len(gs),
            "mean_gap": (
                sum(method_mean_gaps[m]) / len(method_mean_gaps[m])
                if m in method_mean_gaps else None
            ),
        }
        for m, gs in method_gaps.items()
    }
    return {"per_instance": per_instance, "summary": summary}


def wilcoxon(pairs) -> WilcoxonOutcome:
    """Signed-rank test on paired per-instance values ``(c1, c2)``.

    Zero differences are dropped; absolute differences are ranked
    ascending with mid-ranks on ties.  The statistic ``W = R+ - R-`` is
    normalized by ``sqrt(N(N+1)(2N+1)/6)`` and the two-tailed p-value
    comes from the normal approximation.  No pairs, or only zero
    differences, leave the test undefined: a ValueError.
    """
    if not pairs:
        raise ValueError("no paired values; the test is undefined")
    diffs = [c2 - c1 for c1, c2 in pairs if c2 != c1]
    n = len(diffs)
    if n == 0:
        raise ValueError("all differences are zero; the test is undefined")
    by_abs = sorted(range(n), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(diffs[by_abs[j + 1]]) == abs(diffs[by_abs[i]]):
            j += 1
        mid = (i + j) / 2 + 1  # average of 1-based positions i+1 .. j+1
        for idx in by_abs[i:j + 1]:
            ranks[idx] = mid
        i = j + 1
    r_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    r_minus = sum(r for r, d in zip(ranks, diffs) if d < 0)
    w = r_plus - r_minus
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 6)
    z = w / sigma
    p = math.erfc(abs(z) / math.sqrt(2))
    return WilcoxonOutcome(r_plus, r_minus, w, n, z, p, small_sample=n < 10)


def _record_row(rec: RunRecord) -> dict:
    return {column: getattr(rec, name)
            for column, (name, _) in _COLUMNS.items()}


def emit_results(records, stats=None, fmt: str = "csv", path="results.csv",
                 configs=None) -> None:
    """Persist run records (stable row order: instance, method, seed)."""
    rows = sorted(
        (_record_row(r) for r in records),
        key=lambda row: (row["instance"], row["algorithm"], row["seed"]),
    )
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
                writer.writeheader()
                writer.writerows(rows)
        elif fmt == "json":
            payload = {"records": rows}
            if stats is not None:
                payload["stats"] = stats
            if configs is not None:
                payload["configs"] = [asdict(c) for c in configs]
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            raise ValueError(f"unknown output format {fmt!r}")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def read_results_csv(path) -> list:
    """Load records written by emit_results (CSV).

    Raises ValueError naming the file and the columns its header lacks,
    the file and line of a row that is shorter or longer than the header,
    or the file, line and column of a malformed value.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in _COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: missing columns {', '.join(missing)}")
        records = []
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            # DictReader files a short row's gaps and a long row's surplus
            # under None
            if None in row or None in row.values():
                raise ValueError(f"{where}: not as many fields as the header")
            values = {}
            for column, (name, kind) in _COLUMNS.items():
                try:
                    values[name] = kind(row[column])
                except ValueError:
                    raise ValueError(
                        f"{where}, column {column}: invalid {kind.__name__} "
                        f"value {row[column]!r}"
                    ) from None
            records.append(RunRecord(**values))
        return records
