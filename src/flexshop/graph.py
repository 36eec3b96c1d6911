"""Solution graph representation of a feasible schedule.

Vertices are ``0`` (dummy source ``s``), the operations ``1..n`` and
``n + 1`` (dummy sink ``t``).  Arcs come from three sources: the instance's
precedence DAG, dummy arcs from ``s`` to precedence sources and from
precedence sinks to ``t``, and machine arcs linking consecutive operations
of each machine sequence.  The longest ``s -> t`` path is the critical
path; its length is the makespan.
"""

from dataclasses import dataclass, field

from .instance import Instance
from .learning import actual_time

__all__ = [
    "SOURCE",
    "Schedule",
    "CycleError",
    "ScheduleError",
    "build_arcs",
    "topological_sort_plus",
    "reachable_from",
    "critical_path",
    "build_schedule",
    "validate_schedule",
    "start_completion_times",
    "schedule_to_dict",
    "schedule_to_json",
]

SOURCE = 0  # dummy source vertex; the sink is num_operations + 1


class CycleError(ValueError):
    """The digraph contains a directed cycle (infeasible sequencing)."""


class ScheduleError(ValueError):
    """Assignment and sequences are mutually inconsistent."""


@dataclass
class Schedule:
    """A feasible solution with its timing and critical path.

    ``sequences[k-1]`` is the ordered tuple of operations on machine ``k``;
    ``assignment[i]`` the machine of operation ``i``; ``actual_times[i]``
    its learning-adjusted processing time.  ``tau[k-1]`` is the position of
    the last critical operation on machine ``k`` (0 if none).
    """

    assignment: dict
    sequences: tuple
    actual_times: dict
    critical_path: tuple
    makespan: int
    tau: tuple = field(default=())

    @property
    def sink(self) -> int:
        return len(self.assignment) + 1

    def position_of(self, op: int) -> int:
        """1-based position of ``op`` in its machine sequence."""
        return self.sequences[self.assignment[op] - 1].index(op) + 1

    def key(self) -> tuple:
        """Hashable identity of the underlying solution."""
        return (tuple(sorted(self.assignment.items())), self.sequences)


def build_arcs(inst: Instance, sequences) -> tuple:
    """Adjacency lists (successors, ascending) for precedence, dummy and
    machine arcs.  Index 0 is ``s``; index ``n + 1`` is ``t``."""
    n = inst.num_operations
    sink = n + 1
    succ = [set() for _ in range(n + 2)]
    has_pred = [False] * (n + 2)
    has_succ = [False] * (n + 2)
    for i, j in inst.precedence_arcs:
        succ[i].add(j)
        has_pred[j] = True
        has_succ[i] = True
    for op in inst.operations:
        if not has_pred[op]:
            succ[SOURCE].add(op)
        if not has_succ[op]:
            succ[op].add(sink)
    for seq in sequences:
        for a, b in zip(seq, seq[1:]):
            succ[a].add(b)
    return tuple(tuple(sorted(s)) for s in succ)


def topological_sort_plus(adjacency, start: int = SOURCE, target: int | None = None):
    """Topological order of the vertices reachable from ``start``.

    Returns ``(order, reach)`` where ``reach`` is the set of vertices from
    which ``target`` is reachable (including ``target``), or None when no
    target is given.  Raises CycleError on a directed cycle.
    """
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    order = []
    # iterative DFS: (vertex, iterator over its successors)
    stack = [(start, iter(adjacency[start]))]
    color[start] = GRAY
    while stack:
        v, it = stack[-1]
        advanced = False
        for j in it:
            state = color.get(j, WHITE)
            if state == GRAY:
                raise CycleError(f"cycle detected through vertex {j}")
            if state == WHITE:
                color[j] = GRAY
                stack.append((j, iter(adjacency[j])))
                advanced = True
                break
        if not advanced:
            stack.pop()
            color[v] = BLACK
            order.append(v)
    order.reverse()
    if target is None:
        return order, None
    reach = {target}
    for v in reversed(order):
        if v not in reach and any(j in reach for j in adjacency[v]):
            reach.add(v)
    return order, reach


def reachable_from(adjacency, v: int) -> set:
    """Vertices reachable from ``v`` (including ``v`` itself)."""
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for j in adjacency[u]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


def critical_path(adjacency, weights, sequences, assignment, num_machines: int):
    """Longest ``s -> t`` path by dynamic programming over a topological order.

    Returns ``(path, length, tau)`` where ``path`` runs from ``s`` to ``t``
    and ``tau[k-1]`` is the position in ``sequences[k-1]`` of the last
    operation of the path on machine ``k`` (0 if none).  ``weights`` maps
    vertices to processing times; the dummies must weigh 0.  Operations
    absent from ``assignment`` (e.g. a removed one) never contribute to tau.
    """
    order, _ = topological_sort_plus(adjacency, SOURCE)
    sink = len(adjacency) - 1
    d = {SOURCE: 0}
    pi = {}
    for i in order:
        if i not in d:
            continue
        base = d[i] + weights[i]
        for j in adjacency[i]:
            if j not in d or d[j] < base:
                d[j] = base
                pi[j] = i
    length = d[sink]
    position = {}
    for seq in sequences:
        for idx, op in enumerate(seq, start=1):
            position[op] = idx
    tau = [0] * num_machines
    path = [sink]
    i = pi[sink]
    while i != SOURCE:
        k = assignment.get(i)
        if k is not None and tau[k - 1] == 0:
            tau[k - 1] = position[i]
        path.append(i)
        i = pi[i]
    path.append(SOURCE)
    path.reverse()
    return tuple(path), length, tuple(tau)


def build_schedule(inst: Instance, assignment, sequences) -> Schedule:
    """Assemble a Schedule from an assignment and machine sequences.

    Raises ScheduleError on inconsistent inputs and CycleError when the
    machine arcs contradict the precedence DAG.
    """
    sequences = tuple(tuple(seq) for seq in sequences)
    if len(sequences) != inst.num_machines:
        raise ScheduleError(
            f"expected {inst.num_machines} machine sequences, got {len(sequences)}"
        )
    seen = {}
    for k, seq in enumerate(sequences, start=1):
        for op in seq:
            if op in seen:
                raise ScheduleError(f"operation {op} appears on more than one machine")
            seen[op] = k
    for op in inst.operations:
        k = seen.get(op)
        if k is None:
            raise ScheduleError(f"operation {op} missing from every sequence")
        if assignment.get(op) != k:
            raise ScheduleError(
                f"operation {op}: assignment says machine {assignment.get(op)}, "
                f"sequences say machine {k}"
            )
        if k not in inst.eligible_machines(op):
            raise ScheduleError(f"operation {op} assigned to ineligible machine {k}")

    assignment = {op: seen[op] for op in inst.operations}
    weights = {SOURCE: 0, inst.num_operations + 1: 0}
    for k, seq in enumerate(sequences, start=1):
        for pos, op in enumerate(seq, start=1):
            weights[op] = actual_time(inst.std_time[(op, k)], pos, inst.learning_rate)
    adjacency = build_arcs(inst, sequences)
    path, length, tau = critical_path(
        adjacency, weights, sequences, assignment, inst.num_machines
    )
    return Schedule(assignment, sequences, weights, path, length, tau)


def validate_schedule(inst: Instance, sched: Schedule) -> list:
    """Every Schedule invariant, reported as a list of violations."""
    violations = []
    seen = {}
    for k, seq in enumerate(sched.sequences, start=1):
        for op in seq:
            if op in seen:
                violations.append(f"operation {op} appears on multiple machines")
            seen[op] = k
    for op in inst.operations:
        k = seen.get(op)
        if k is None:
            violations.append(f"operation {op} missing from every sequence")
            continue
        if sched.assignment.get(op) != k:
            violations.append(f"operation {op}: assignment/sequence mismatch")
        if k not in inst.eligible_machines(op):
            violations.append(f"operation {op} on ineligible machine {k}")
    if violations:
        return violations
    for k, seq in enumerate(sched.sequences, start=1):
        for pos, op in enumerate(seq, start=1):
            expected = actual_time(inst.std_time[(op, k)], pos, inst.learning_rate)
            if sched.actual_times.get(op) != expected:
                violations.append(
                    f"operation {op}: stale actual time "
                    f"{sched.actual_times.get(op)} (expected {expected})"
                )
    adjacency = build_arcs(inst, sched.sequences)
    try:
        path, length, tau = critical_path(
            adjacency,
            {v: sched.actual_times.get(v, 0) for v in range(inst.num_operations + 2)},
            sched.sequences,
            sched.assignment,
            inst.num_machines,
        )
    except CycleError:
        violations.append("solution graph contains a cycle")
        return violations
    if sched.makespan != length:
        violations.append(
            f"stored makespan {sched.makespan} differs from recomputed {length}"
        )
    return violations


def start_completion_times(inst: Instance, sched: Schedule) -> dict:
    """Earliest start/completion per operation from a forward pass."""
    adjacency = build_arcs(inst, sched.sequences)
    order, _ = topological_sort_plus(adjacency, SOURCE)
    start = {SOURCE: 0}
    for i in order:
        if i not in start:
            continue
        done = start[i] + sched.actual_times.get(i, 0)
        for j in adjacency[i]:
            if start.get(j, -1) < done:
                start[j] = done
    return {
        op: (start[op], start[op] + sched.actual_times[op])
        for op in sched.assignment
    }


def schedule_to_dict(inst: Instance, sched: Schedule) -> dict:
    times = start_completion_times(inst, sched)
    return {
        "assignment": {str(op): k for op, k in sorted(sched.assignment.items())},
        "sequences": [list(seq) for seq in sched.sequences],
        "start": {str(op): times[op][0] for op in sorted(times)},
        "completion": {str(op): times[op][1] for op in sorted(times)},
        "makespan": sched.makespan,
    }


def schedule_to_json(inst: Instance, sched: Schedule) -> str:
    import json

    return json.dumps(schedule_to_dict(inst, sched), indent=2,
                      sort_keys=True) + "\n"
