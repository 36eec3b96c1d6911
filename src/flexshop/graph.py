"""Solution graph representation of a feasible schedule.

Vertices are ``0`` (dummy source ``s``), the operations ``1..n`` and
``n + 1`` (dummy sink ``t``).  Arcs come from three sources: the instance's
precedence DAG, dummy arcs from ``s`` to precedence sources and from
precedence sinks to ``t``, and machine arcs linking consecutive operations
of each machine sequence.  The longest ``s -> t`` path is the critical
path; its length is the makespan.

A graph is timed by one forward pass in a topological order.
``build_schedule``, the entry for sequences from outside, checks them,
weighs every operation and finds the order by a DFS (``time_graph``).
``schedule_from_placement`` times a construction's graph in its placement
order, which is topological since each operation is placed after its
precedence and machine predecessors, with the times it was placed with:
nothing is checked, weighed or searched again.  Both give the same times,
tie flags and critical path.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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
    "Timing",
    "time_graph",
    "timing_of",
    "critical_path",
    "solution_key",
    "build_schedule",
    "schedule_from_placement",
    "validate_schedule",
    "start_completion_times",
    "schedule_to_dict",
    "schedule_to_json",
]

SOURCE = 0  # dummy source vertex; the sink is num_operations + 1


class CycleError(ValueError):
    """The digraph contains a directed cycle (infeasible sequencing)."""


class ScheduleError(ValueError):
    """Machine sequences that are not a solution of the instance."""


@dataclass
class Schedule:
    """A feasible solution with its timing.

    ``sequences[k-1]`` is the ordered tuple of operations on machine ``k``,
    the one stored encoding of the solution; ``actual_times[i]`` is the
    learning-adjusted processing time of vertex ``i``, 0 for the dummies.
    ``timing``, that of its solution graph, feeds the next removal or scan
    and the critical path; a ``RunRecord``'s schedule and one built by hand
    have none.
    """

    sequences: tuple
    actual_times: list
    makespan: int
    timing: "Timing | None" = field(default=None, repr=False, compare=False)

    @cached_property
    def assignment(self) -> dict:
        """The machine of each operation, machine by machine in sequence
        order."""
        assignment = {}
        for k, seq in enumerate(self.sequences, start=1):
            assignment.update(dict.fromkeys(seq, k))
        return assignment

    @cached_property
    def critical_path(self) -> tuple:
        """The longest ``s -> t`` path that ``build_schedule``'s timing
        gives, walked from ``timing`` when first read (``critical_path``).
        A ``RunRecord``'s schedule keeps the path its run read."""
        if self.timing is None:
            raise ValueError("a schedule without a timing has no critical "
                             "path to walk")
        return critical_path(self.timing, self.sequences)[0]

    def position_of(self, op: int) -> int:
        """1-based position of ``op`` in its machine sequence."""
        return self.sequences[self.assignment[op] - 1].index(op) + 1

    def key(self) -> tuple:
        """Hashable identity of the underlying solution."""
        return solution_key(self.sequences)


def solution_key(sequences) -> tuple:
    """``Schedule.key`` of the solution with machine sequences
    ``sequences``."""
    return (tuple(sorted((op, k) for k, seq in enumerate(sequences, start=1)
                         for op in seq)), sequences)


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


def topological_sort_plus(adjacency) -> list:
    """Topological order (reversed DFS postorder) of the vertices reachable
    from the source.  Raises CycleError on a directed cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    order = []
    # iterative DFS: (vertex, iterator over its successors)
    stack = [(SOURCE, iter(adjacency[SOURCE]))]
    color[SOURCE] = GRAY
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
    return order


def reachable_from(adjacency, v: int) -> set:
    """Vertices reachable from ``v`` (including ``v`` itself); over
    predecessor lists, the vertices that reach ``v``."""
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for j in adjacency[u]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return seen


class Timing(NamedTuple):
    """Longest-path timing of a solution graph, indexed by vertex."""

    succs: tuple  # adjacency lists, as given
    # a topological order: topological_sort_plus's, a construction's
    # placement order (schedule_from_placement) or an edit's
    order: list
    rank: list  # index of each vertex in that order
    preds: list  # predecessor lists, in an order that no reader relies on
    start: list  # earliest start: the latest completion of a predecessor
    completion: list
    # a predecessor whose completion is the start (a forward pass: the
    # first in its order; an edit: the first in preds); the critical path is
    # walked back along these
    setter: list
    # whether two predecessors finish at the start, so that another order
    # could set it from another one: a tie on the critical path makes
    # critical_path time the graph again from scratch
    tied: list


def time_graph(adjacency, weights) -> Timing:
    """Earliest start and completion of every vertex, its rank in the
    topological order and whether two predecessors tie at its start, by one
    forward pass in ``topological_sort_plus``'s order.

    ``weights[i]`` is vertex ``i``'s processing time; the dummies must
    weigh 0.  Raises CycleError on a directed cycle.
    """
    return _timed_in(adjacency, weights, topological_sort_plus(adjacency))


def _timed_in(adjacency, weights, order) -> Timing:
    """``time_graph``'s forward pass over ``order``, a topological order
    of every vertex, the source first.  The times and tie flags do not
    depend on the order; the setters of tied vertices and the order of
    each predecessor list do."""
    size = len(adjacency)
    rank = [0] * size
    preds = [[] for _ in range(size)]
    start = [-1] * size  # below any completion: the first predecessor sets it
    start[SOURCE] = 0
    completion = [0] * size
    setter = [SOURCE] * size
    tied = [False] * size
    for idx, i in enumerate(order):
        rank[i] = idx
        done = completion[i] = start[i] + weights[i]
        for j in adjacency[i]:
            preds[j].append(i)
            if start[j] < done:
                start[j] = done
                setter[j] = i
                tied[j] = False
            elif start[j] == done:
                tied[j] = True
    return Timing(adjacency, order, rank, preds, start, completion, setter,
                  tied)


def timing_of(inst: Instance, sched: Schedule) -> Timing:
    """The timing of the schedule's solution graph: the one it carries, or
    the graph timed here when it carries none."""
    if sched.timing is not None:
        return sched.timing
    return time_graph(build_arcs(inst, sched.sequences), sched.actual_times)


def critical_path(timing: Timing, sequences) -> tuple:
    """The longest ``s -> t`` path as ``build_schedule``'s timing of the
    same graph gives it, walked back from ``t`` along the predecessors that
    set each start.

    A tied vertex on the path would follow ``timing``'s order's tie-break,
    so at the first one the graph is timed again from scratch
    (``time_graph``, each vertex weighing its completion minus its start)
    and the walk goes on along that timing's setters.  Up to there each
    setter was the only predecessor that finishes at the start, the same in
    any order.

    Returns ``(path, length, tau)`` where ``path`` runs from ``s`` to ``t``
    and ``tau[k-1]`` is the position in ``sequences[k-1]`` of the last
    operation of the path on machine ``k`` (0 if none).  Operations absent
    from ``sequences`` (e.g. a removed one) never contribute to tau.
    """
    path, i, checked = [], len(timing.start) - 1, True
    while i != SOURCE:
        if checked and timing.tied[i]:
            weights = [c - s for s, c in zip(timing.start, timing.completion)]
            timing, checked = time_graph(timing.succs, weights), False
        path.append(i)
        i = timing.setter[i]
    path.append(SOURCE)
    path.reverse()
    # a path meets a machine's operations in sequence order (machine arcs),
    # so the last one on the path is the one at the highest position
    on_path = set(path)
    tau = []
    for seq in sequences:
        pos = len(seq)
        while pos and seq[pos - 1] not in on_path:
            pos -= 1
        tau.append(pos)
    return tuple(path), timing.start[-1], tuple(tau)


def _sequence_faults(inst: Instance, sequences) -> list:
    """Why ``sequences`` are not one sequence per machine that together
    hold every operation exactly once, each on an eligible machine."""
    faults = []
    if len(sequences) != inst.num_machines:
        faults.append(
            f"expected {inst.num_machines} machine sequences, got {len(sequences)}"
        )
    operations, eligible = inst.operations, inst.eligible
    placed = set()
    for k, seq in enumerate(sequences, start=1):
        for op in seq:
            if type(op) is not int or op not in operations:
                faults.append(f"unknown operation {op!r} on machine {k}")
            elif op in placed:
                faults.append(f"operation {op} placed more than once")
            else:
                placed.add(op)
                if k not in eligible[op - 1]:
                    faults.append(f"operation {op} on ineligible machine {k}")
    if len(placed) < len(operations):
        faults.extend(f"operation {op} missing from every sequence"
                      for op in operations if op not in placed)
    return faults


def _weigh(inst: Instance, sequences) -> list:
    """Learning-adjusted times of well-formed ``sequences`` by vertex, with
    the dummies' zero weights."""
    weights = [0] * (inst.num_operations + 2)
    for k, seq in enumerate(sequences, start=1):
        for pos, op in enumerate(seq, start=1):
            weights[op] = actual_time(inst.std_time[(op, k)], pos, inst.learning_rate)
    return weights


def build_schedule(inst: Instance, sequences) -> Schedule:
    """Assemble a Schedule from its machine sequences.

    Raises ScheduleError on malformed sequences and CycleError when the
    machine arcs contradict the precedence DAG.
    """
    sequences = tuple(tuple(seq) for seq in sequences)
    faults = _sequence_faults(inst, sequences)
    if faults:
        raise ScheduleError(faults[0])
    weights = _weigh(inst, sequences)
    timing = time_graph(build_arcs(inst, sequences), weights)
    return Schedule(sequences, weights, timing.start[-1], timing)


def schedule_from_placement(inst: Instance, sequences, weights,
                            order) -> Schedule:
    """The Schedule of a construction: its well-formed ``sequences`` (a
    tuple of tuples), the ``weights`` it placed each vertex with and
    ``order``: the source, the operations as placed, the sink.  The graph
    is timed in that order (see the module's docstring)."""
    timing = _timed_in(build_arcs(inst, sequences), weights, order)
    return Schedule(sequences, weights, timing.start[-1], timing)


def validate_schedule(inst: Instance, sched: Schedule) -> list:
    """Every Schedule invariant, reported as a list of violations."""
    violations = _sequence_faults(inst, sched.sequences)
    if violations:
        return violations
    weights = _weigh(inst, sched.sequences)
    given = sched.actual_times
    for op in sched.assignment:
        time = given[op] if op < len(given) else None
        if time != weights[op]:
            violations.append(f"operation {op}: stale actual time {time} "
                              f"(expected {weights[op]})")
    try:
        timing = time_graph(build_arcs(inst, sched.sequences), weights)
    except CycleError:
        violations.append("solution graph contains a cycle")
        return violations
    if sched.makespan != timing.start[-1]:
        violations.append(
            f"stored makespan {sched.makespan} differs from recomputed "
            f"{timing.start[-1]}"
        )
    return violations


def start_completion_times(inst: Instance, sched: Schedule) -> dict:
    """Earliest start/completion per operation from a forward pass."""
    timing = timing_of(inst, sched)
    return {
        op: (timing.start[op], timing.completion[op]) for op in inst.operations
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
