"""Constructive heuristics based on dispatching rules.

Both heuristics schedule one operation at a time, always accounting for
the learning effect at the position the operation would occupy.  The
earliest-starting-time (EST) rule first restricts attention to the
operation/machine pairs that can start soonest and picks the one with the
shortest adjusted processing time; the earliest-completion-time (ECT) rule
directly picks the pair that finishes soonest.

With ``rcl_alpha > 0`` the greedy pick is replaced by a uniform draw,
from the given RNG, from the restricted candidate list of pairs within an
``rcl_alpha`` fraction of the best; ``rcl_alpha > 0`` without an RNG is a
ValueError.  With ``rcl_alpha == 0`` the pick is deterministic, regardless
of the RNG: one pass over the ready pairs takes the first, in ascending
(operation, machine) order, with the least (start, time) for EST and the
least completion for ECT, the pair that the list filter would keep first.

Each step reads the start, the adjusted time and the completion that the
construction keeps for every ready (operation, machine) pair; a placement
re-prices only the pairs on the machine it used.  Each operation's
predecessors, successors and sorted eligible machines come from the
instance's ``Instance.tables``.  ``best_of_est_ect`` compares the two
constructions' makespans and builds only the kept one's ``Schedule``,
from the sequences, times and placement order that its construction
recorded (``graph.schedule_from_placement``).
"""

import bisect
import random
from operator import itemgetter

from .instance import Instance
from .learning import actual_time
from .graph import SOURCE, Schedule, schedule_from_placement

__all__ = ["construct_est", "construct_ect", "best_of_est_ect"]

_OPERATION = itemgetter(0)
_START_TIME = itemgetter(3, 4)
_COMPLETION = itemgetter(5)


class _State:
    """A construction in progress.

    ``pairs`` holds one entry ``[operation, machine, release, start, time,
    completion]`` per (operation, machine) pair whose operation has every
    predecessor placed, in ascending (operation, machine) order.  ``start``
    is ``max(release, machine release)``, ``time`` the learning-adjusted
    time at the machine's next position and ``completion`` their sum; a
    placement re-prices only the entries on the machine it used.  Each
    operation's predecessors, successors and sorted eligible machines come
    from ``Instance.tables``.  ``order`` holds the source and then
    each operation as it is placed, ``weights`` the time it was placed
    with, by vertex; ``makespan`` is the latest completion placed.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.preds, self.succs, self.machines = inst.tables
        self.waiting = [len(preds) for preds in self.preds]
        self.order = [SOURCE]
        self.weights = [0] * (inst.num_operations + 2)
        self.completion = {}
        self.machine_release = [0] * inst.num_machines
        self.next_position = [1] * inst.num_machines
        self.sequences = [[] for _ in range(inst.num_machines)]
        self.makespan = 0
        self.pairs = []
        # on_machine[k - 1]: ready operation -> its entry on machine k
        self.on_machine = [{} for _ in range(inst.num_machines)]
        for op in inst.operations:
            if not self.waiting[op]:
                self._release(op)

    def _release(self, v):
        """Price the pairs of ``v``, whose predecessors are all placed."""
        release = max([self.completion[i] for i in self.preds[v]], default=0)
        std, alpha = self.inst.std_time, self.inst.learning_rate
        entries = []
        for k in self.machines[v]:
            free = self.machine_release[k - 1]
            start = release if release > free else free
            time = actual_time(std[(v, k)], self.next_position[k - 1], alpha)
            entry = [v, k, release, start, time, start + time]
            self.on_machine[k - 1][v] = entry
            entries.append(entry)
        at = bisect.bisect_left(self.pairs, v, key=_OPERATION)
        self.pairs[at:at] = entries

    def place(self, entry):
        """Append the entry's operation to its machine, at its start."""
        v, k, _, _, time, end = entry
        self.order.append(v)
        self.weights[v] = time
        self.completion[v] = end
        if end > self.makespan:
            self.makespan = end
        self.sequences[k - 1].append(v)
        machines = self.machines[v]
        for m in machines:
            del self.on_machine[m - 1][v]
        at = bisect.bisect_left(self.pairs, v, key=_OPERATION)
        del self.pairs[at:at + len(machines)]
        self.machine_release[k - 1] = end
        self.next_position[k - 1] += 1
        std, alpha = self.inst.std_time, self.inst.learning_rate
        position = self.next_position[k - 1]
        for other in self.on_machine[k - 1].values():
            start = other[2] if other[2] > end else end
            time = actual_time(std[(other[0], k)], position, alpha)
            other[3:] = start, time, start + time
        for j in self.succs[v]:
            self.waiting[j] -= 1
            if not self.waiting[j]:
                self._release(j)

    def schedule(self) -> Schedule:
        """The finished construction's ``Schedule``, timed in placement
        order."""
        return schedule_from_placement(
            self.inst, tuple(map(tuple, self.sequences)), self.weights,
            self.order + [self.inst.num_operations + 1])


def _check(rcl_alpha, rng):
    if not 0 <= rcl_alpha <= 1:
        raise ValueError(f"rcl_alpha must lie in [0, 1], got {rcl_alpha}")
    if rcl_alpha and rng is None:
        raise ValueError(f"rcl_alpha {rcl_alpha} > 0 needs an rng")


def _est(pairs, rcl_alpha, rng):
    """Among the pairs that start soonest, one whose time lies within an
    ``rcl_alpha`` fraction of the shortest; greedily, the first with the
    least (start, time)."""
    if not rcl_alpha:
        return min(pairs, key=_START_TIME)
    r_min = min([entry[3] for entry in pairs])
    earliest = [entry for entry in pairs if entry[3] == r_min]
    times = [entry[4] for entry in earliest]
    lo = min(times)
    threshold = lo + rcl_alpha * (max(times) - lo)
    return rng.choice([entry for entry in earliest if entry[4] <= threshold])


def _ect(pairs, rcl_alpha, rng):
    """A pair whose completion lies within an ``rcl_alpha`` fraction of
    the earliest; greedily, the first with the earliest."""
    if not rcl_alpha:
        return min(pairs, key=_COMPLETION)
    finish = [entry[5] for entry in pairs]
    lo = min(finish)
    threshold = lo + rcl_alpha * (max(finish) - lo)
    return rng.choice([entry for entry, end in zip(pairs, finish)
                       if end <= threshold])


def _construct(inst, rule, rcl_alpha, rng) -> _State:
    """Place every operation by ``rule``."""
    _check(rcl_alpha, rng)
    state = _State(inst)
    while state.pairs:
        state.place(rule(state.pairs, rcl_alpha, rng))
    return state


def construct_est(inst: Instance, rcl_alpha: float = 0.0,
                  rng: random.Random | None = None) -> Schedule:
    """Earliest-starting-time constructive heuristic."""
    return _construct(inst, _est, rcl_alpha, rng).schedule()


def construct_ect(inst: Instance, rcl_alpha: float = 0.0,
                  rng: random.Random | None = None) -> Schedule:
    """Earliest-completion-time constructive heuristic."""
    return _construct(inst, _ect, rcl_alpha, rng).schedule()


def best_of_est_ect(inst: Instance, rcl_alpha: float = 0.0,
                    rng: random.Random | None = None) -> Schedule:
    """Better of the ECT and EST constructions, both built with
    ``rcl_alpha`` and ``rng`` (greedy by default), ECT first.

    ECT is compared first with a strict `<`, so EST is kept on ties.  Only
    the kept construction becomes a Schedule.
    """
    ect = _construct(inst, _ect, rcl_alpha, rng)
    est = _construct(inst, _est, rcl_alpha, rng)
    kept = ect if ect.makespan < est.makespan else est
    return kept.schedule()
