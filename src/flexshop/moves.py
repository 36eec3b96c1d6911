"""Remove/insert move machinery and neighborhood enumeration.

A neighbor is obtained by removing one operation from its machine and
reinserting it at a cycle-free position of an eligible machine.  The
reduced neighborhood additionally skips insertions that provably cannot
improve the makespan: if the longest path of the reduced graph is already
at least as long as the current makespan and the insertion happens after
the last critical position of the target machine, the surviving path is
untouched.

A neighbor is priced without building its graph: ``remove_op`` times the
reduced graph once, and that one pass gives the insertion windows, the
reduction's bounds and the times from which each insertion re-times only
what lies downstream of the inserted operation.  The neighbor's
``Schedule`` is built on demand, for the move a search applies.
"""

from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .instance import Instance
from .learning import actual_time
from .graph import (
    CycleError,
    Schedule,
    Timing,
    build_arcs,
    build_schedule,
    critical_path,
    reachable_from,
    time_graph,
)

__all__ = [
    "ReducedState",
    "InsertionWindow",
    "Move",
    "remove_op",
    "feasible_window",
    "insert_op",
    "enumerate_neighbors",
    "NEIGHBORHOOD_MODES",
]

NEIGHBORHOOD_MODES = ("full", "reduced", "cropped")


@dataclass
class ReducedState:
    """Intermediate structure after removing one operation.

    The removed operation keeps its vertex (weight 0) together with its
    precedence and dummy arcs; only its machine arcs are rewired.
    """

    removed: int
    f_minus: dict
    q_minus: tuple
    w_minus: dict
    xi: int
    reach_to_v: set
    reach_from_v: set
    tau: tuple
    timing: Timing  # of the reduced graph


@dataclass(frozen=True)
class InsertionWindow:
    """Cycle-free insertion positions on one machine, possibly narrowed by
    the longest-path reduction.  Valid positions are
    ``lower + 1 .. upper_effective``."""

    machine: int
    lower: int  # position of the last operation that must precede v
    upper: int  # position of the first operation that must follow v
    upper_effective: int

    @property
    def positions(self) -> range:
        return range(self.lower + 1, self.upper_effective + 1)

    @property
    def cycle_free(self) -> range:
        """Positions that avoid cycles, ignoring the reduction."""
        return range(self.lower + 1, self.upper + 1)


class Move:
    """One neighbor: ``operation`` reinserted at ``position`` of ``machine``.

    ``makespan`` is exact; ``schedule`` is built by ``insert_op`` on first
    access.
    """

    __slots__ = ("operation", "machine", "position", "makespan", "_inst",
                 "_rs", "_schedule")

    def __init__(self, operation: int, machine: int, position: int,
                 makespan: int, inst: Instance, rs: ReducedState):
        self.operation = operation
        self.machine = machine
        self.position = position
        self.makespan = makespan
        self._inst = inst
        self._rs = rs
        self._schedule = None

    @property
    def schedule(self) -> Schedule:
        if self._schedule is None:
            self._schedule = insert_op(self._inst, self._rs, self.operation,
                                       self.machine, self.position)
        return self._schedule


def remove_op(inst: Instance, sched: Schedule, v: int) -> ReducedState:
    """Remove operation ``v`` from the schedule's solution graph."""
    if not 1 <= v <= inst.num_operations:
        raise ValueError(f"cannot remove vertex {v}: not an operation")
    old_machine = sched.assignment[v]
    gamma = sched.position_of(v)

    q_minus = list(sched.sequences)
    old_seq = q_minus[old_machine - 1]
    q_minus[old_machine - 1] = old_seq[:gamma - 1] + old_seq[gamma:]
    q_minus = tuple(q_minus)

    f_minus = {op: k for op, k in sched.assignment.items() if op != v}
    w_minus = dict(sched.actual_times)
    w_minus[v] = 0
    for pos, op in enumerate(q_minus[old_machine - 1], start=1):
        if pos >= gamma:  # shifted one position earlier
            w_minus[op] = actual_time(
                inst.std_time[(op, old_machine)], pos, inst.learning_rate
            )

    timing = time_graph(build_arcs(inst, q_minus), w_minus)
    reach_to_v = reachable_from(timing.preds, v)
    reach_from_v = reachable_from(timing.succs, v)
    _, xi, tau = critical_path(timing, q_minus, f_minus, inst.num_machines)
    return ReducedState(
        v, f_minus, q_minus, w_minus, xi, reach_to_v, reach_from_v, tau, timing
    )


def feasible_window(rs: ReducedState, k: int, reduction_active: bool,
                    c_max: int) -> InsertionWindow:
    """Insertion window for the removed operation on machine ``k``."""
    seq = rs.q_minus[k - 1]
    lower = 0
    for pos, op in enumerate(seq, start=1):
        if op in rs.reach_to_v:
            lower = pos
    upper = len(seq) + 1
    for pos, op in enumerate(seq, start=1):
        if op in rs.reach_from_v:
            upper = pos
            break
    effective = upper
    if reduction_active and rs.xi >= c_max:
        effective = min(upper, rs.tau[k - 1])
    return InsertionWindow(k, lower, upper, effective)


def insert_op(inst: Instance, rs: ReducedState, v: int, k: int,
              gamma: int) -> Schedule:
    """Reinsert ``v`` at position ``gamma`` of machine ``k``.

    ``gamma`` must lie in the cycle-free window; anything else would close
    a cycle through ``v``.
    """
    if v != rs.removed:
        raise ValueError(f"reduced state holds operation {rs.removed}, not {v}")
    window = feasible_window(rs, k, reduction_active=False, c_max=0)
    if gamma not in window.cycle_free:
        raise CycleError(
            f"inserting operation {v} at position {gamma} of machine {k} "
            f"creates a cycle (window {window.lower + 1}..{window.upper})"
        )
    q_plus = list(rs.q_minus)
    seq = q_plus[k - 1]
    q_plus[k - 1] = seq[:gamma - 1] + (v,) + seq[gamma - 1:]
    f_plus = dict(rs.f_minus)
    f_plus[v] = k
    return build_schedule(inst, f_plus, q_plus)


def _insertion_makespan(rs: ReducedState, rank: list, seq: tuple,
                        later: list, gamma: int, time_v: int) -> int:
    """Makespan once the removed operation, taking ``time_v``, sits at
    position ``gamma`` of the machine sequence ``seq``; ``later[i]`` is the
    time of ``seq[i]`` one position further back and ``rank[u]`` the index
    of ``u`` in the reduced graph's topological order.

    Only the inserted operation, the operations it pushes one position
    later and their descendants are re-timed; everything else keeps its
    reduced-graph times.  ``gamma`` must lie in the cycle-free window: then
    no predecessor of the inserted operation is re-timed, and the reduced
    graph's order still holds for every vertex below it.  A re-timed vertex
    pushes a later completion to its successors; one that finishes earlier
    makes a successor whose start it set take the maximum over all its
    predecessors again.
    """
    v = rs.removed
    succs, order, preds, start, completion, _ = rs.timing
    begin = start[v]
    if gamma > 1 and completion[seq[gamma - 2]] > begin:
        begin = completion[seq[gamma - 2]]
    done_v = begin + time_v
    moved = seq[gamma - 1:]
    moved_time = dict(zip(moved, later[gamma - 1:]))
    follower = moved[0] if moved else None
    # pending vertex -> latest completion pushed to it by a predecessor
    pushed = dict.fromkeys(moved, 0)
    if moved:
        pushed[follower] = done_v
    for j in succs[v]:
        if done_v > start[j]:
            pushed[j] = done_v
    if not pushed:
        return completion[-1]
    new = completion.copy()
    new[v] = done_v
    repull = set()
    weight = rs.w_minus
    pop = pushed.pop
    for u in islice(order, min(map(rank.__getitem__, pushed)), None):
        latest = pop(u, None)
        if latest is None:
            continue
        if u in repull:
            latest = max(map(new.__getitem__, preds[u]))
            if u == follower and done_v > latest:
                latest = done_v
        elif start[u] > latest:
            latest = start[u]
        done = latest + moved_time.get(u, weight[u])
        old = completion[u]
        if done > old:
            new[u] = done
            for j in succs[u]:
                if done > start[j] and pushed.get(j, 0) < done:
                    pushed[j] = done
        elif done < old:
            new[u] = done
            for j in succs[u]:
                if start[j] == old:
                    repull.add(j)
                    pushed.setdefault(j, 0)
        if not pushed:
            break
    return new[-1]


def enumerate_neighbors(inst: Instance, sched: Schedule,
                        mode: str = "reduced") -> Iterator[Move]:
    """All neighbors of a schedule, in deterministic (v, k, gamma) order.

    ``full`` keeps every cycle-free reinsertion, ``reduced`` applies the
    longest-path pruning rule, ``cropped`` further restricts the removed
    operation to the current critical path.  Each neighbor's makespan is
    computed incrementally from the timing of the reduced graph.
    """
    if mode not in NEIGHBORHOOD_MODES:
        raise ValueError(f"unknown neighborhood mode {mode!r}")
    if mode == "cropped":
        critical = set(sched.critical_path)
        candidates = [v for v in inst.operations if v in critical]
    else:
        candidates = list(inst.operations)
    reduction = mode in ("reduced", "cropped")
    alpha = inst.learning_rate
    for v in candidates:
        rs = remove_op(inst, sched, v)
        rank = None
        for k in sorted(inst.eligible_machines(v)):
            window = feasible_window(rs, k, reduction, sched.makespan)
            if not window.positions:
                continue
            if rank is None:
                rank = [0] * len(rs.timing.succs)
                for idx, u in enumerate(rs.timing.order):
                    rank[u] = idx
            seq = rs.q_minus[k - 1]
            later = [actual_time(inst.std_time[(op, k)], pos, alpha)
                     for pos, op in enumerate(seq, start=2)]
            p_v = inst.std_time[(v, k)]
            for gamma in window.positions:
                makespan = _insertion_makespan(
                    rs, rank, seq, later, gamma, actual_time(p_v, gamma, alpha)
                )
                yield Move(v, k, gamma, makespan, inst, rs)
