"""Remove/insert move machinery and neighborhood enumeration.

A neighbor is obtained by removing one operation from its machine and
reinserting it at a cycle-free position of an eligible machine.  The
reduced neighborhood additionally skips insertions that provably cannot
improve the makespan: if the longest path of the reduced graph is already
at least as long as the current makespan and the insertion happens after
the last critical position of the target machine, the surviving path is
untouched.
"""

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .instance import Instance
from .learning import actual_time
from .graph import (
    SOURCE,
    CycleError,
    Schedule,
    build_arcs,
    build_schedule,
    critical_path,
    reachable_from,
    topological_sort_plus,
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


class Move(NamedTuple):
    operation: int
    machine: int
    position: int
    schedule: Schedule


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

    adjacency = build_arcs(inst, q_minus)
    _, reach_to_v = topological_sort_plus(adjacency, SOURCE, target=v)
    reach_from_v = reachable_from(adjacency, v)
    _, xi, tau = critical_path(
        adjacency, w_minus, q_minus, f_minus, inst.num_machines
    )
    return ReducedState(
        v, f_minus, q_minus, w_minus, xi, reach_to_v, reach_from_v, tau
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


def enumerate_neighbors(inst: Instance, sched: Schedule,
                        mode: str = "reduced") -> Iterator[Move]:
    """All neighbors of a schedule, in deterministic (v, k, gamma) order.

    ``full`` keeps every cycle-free reinsertion, ``reduced`` applies the
    longest-path pruning rule, ``cropped`` further restricts the removed
    operation to the current critical path.
    """
    if mode not in NEIGHBORHOOD_MODES:
        raise ValueError(f"unknown neighborhood mode {mode!r}")
    if mode == "cropped":
        critical = set(sched.critical_path)
        candidates = [v for v in inst.operations if v in critical]
    else:
        candidates = list(inst.operations)
    reduction = mode in ("reduced", "cropped")
    for v in candidates:
        rs = remove_op(inst, sched, v)
        for k in sorted(inst.eligible_machines(v)):
            window = feasible_window(rs, k, reduction, sched.makespan)
            for gamma in window.positions:
                yield Move(v, k, gamma, insert_op(inst, rs, v, k, gamma))
