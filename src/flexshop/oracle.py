"""Exhaustive ground-truth solver for tiny instances.

Enumerates every machine assignment and, per assignment, every tuple of
machine sequences whose combined solution graph is acyclic.  Sequences are
generated by recursively extending per-machine prefixes in precedence-
compatible order, so infeasible interleavings are never visited.
"""

import itertools
from dataclasses import dataclass

from .instance import Instance
from .graph import Schedule, build_schedule

__all__ = ["OracleResult", "OracleLimitError", "solve_exhaustive"]


class OracleLimitError(RuntimeError):
    """The enumeration limit was exceeded; no partial answer is given."""


@dataclass
class OracleResult:
    optimal_makespan: int
    schedule: Schedule
    feasible_count: int


def _sequence_tuples(inst: Instance, assignment):
    """All distinct acyclic sequence tuples for a fixed assignment."""
    preds = inst.tables.preds
    seen = set()
    seqs = [[] for _ in range(inst.num_machines)]
    scheduled = set()

    def extend():
        if len(scheduled) == inst.num_operations:
            key = tuple(tuple(s) for s in seqs)
            if key not in seen:
                seen.add(key)
                yield key
            return
        for v in inst.operations:
            if v in scheduled or any(i not in scheduled for i in preds[v]):
                continue
            k = assignment[v]
            seqs[k - 1].append(v)
            scheduled.add(v)
            yield from extend()
            scheduled.remove(v)
            seqs[k - 1].pop()

    yield from extend()


def solve_exhaustive(inst: Instance, limit: int = 1_000_000) -> OracleResult:
    """True optimal makespan by brute force.

    Raises OracleLimitError once more than ``limit`` feasible solutions
    have been enumerated, and ValueError for a ``limit`` below 1.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    best: Schedule | None = None
    count = 0
    for combo in itertools.product(*inst.tables.machines[1:]):
        assignment = {op: combo[op - 1] for op in inst.operations}
        for sequences in _sequence_tuples(inst, assignment):
            count += 1
            if count > limit:
                raise OracleLimitError(
                    f"enumeration limit of {limit} feasible solutions exceeded"
                )
            sched = build_schedule(inst, sequences)
            if best is None or sched.makespan < best.makespan:
                best = sched
    assert best is not None
    return OracleResult(best.makespan, best, count)
