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
ValueError.  With ``rcl_alpha == 0`` the pick is deterministic (first pair
in ascending (operation, machine) order), regardless of the RNG.
"""

import bisect
import random

from .instance import Instance
from .learning import actual_time
from .graph import Schedule, build_schedule

__all__ = ["construct_est", "construct_ect", "best_of_est_ect"]


class _State:
    def __init__(self, inst: Instance):
        self.inst = inst
        self.preds = {op: inst.predecessors(op) for op in inst.operations}
        self.succs = {op: inst.successors(op) for op in inst.operations}
        self.waiting = {op: len(self.preds[op]) for op in inst.operations}
        self.unscheduled = set(inst.operations)
        self.completion = {}
        self.machine_release = [0] * inst.num_machines
        self.next_position = [1] * inst.num_machines
        self.sequences = [[] for _ in range(inst.num_machines)]
        self.ready = []  # operations with every predecessor placed, ascending
        self.pairs = {}  # ready operation -> its (operation, machine, release)
        for op in inst.operations:
            if not self.waiting[op]:
                self._release(op)

    def _release(self, v):
        """Make ``v``, whose predecessors are all placed, ready."""
        release = max((self.completion[i] for i in self.preds[v]), default=0)
        self.pairs[v] = [(v, k, release)
                         for k in sorted(self.inst.eligible_machines(v))]
        bisect.insort(self.ready, v)

    def ready_pairs(self):
        """(operation, machine) pairs whose precedence predecessors are all
        scheduled, with the operation's release time; ascending order."""
        pairs = self.pairs
        return [pair for v in self.ready for pair in pairs[v]]

    def processing_time(self, v, k):
        return actual_time(
            self.inst.std_time[(v, k)],
            self.next_position[k - 1],
            self.inst.learning_rate,
        )

    def place(self, v, k, completion):
        self.completion[v] = completion
        self.machine_release[k - 1] = completion
        self.next_position[k - 1] += 1
        self.sequences[k - 1].append(v)
        self.unscheduled.remove(v)
        self.ready.remove(v)
        del self.pairs[v]
        for j in self.succs[v]:
            self.waiting[j] -= 1
            if not self.waiting[j]:
                self._release(j)

    def finish(self) -> Schedule:
        return build_schedule(self.inst, self.sequences)


def _check(rcl_alpha, rng):
    if not 0 <= rcl_alpha <= 1:
        raise ValueError(f"rcl_alpha must lie in [0, 1], got {rcl_alpha}")
    if rcl_alpha and rng is None:
        raise ValueError(f"rcl_alpha {rcl_alpha} > 0 needs an rng")


def _pick(candidates, rcl_alpha, rng):
    return rng.choice(candidates) if rcl_alpha else candidates[0]


def construct_est(inst: Instance, rcl_alpha: float = 0.0,
                  rng: random.Random | None = None) -> Schedule:
    """Earliest-starting-time constructive heuristic."""
    _check(rcl_alpha, rng)
    state = _State(inst)
    while state.unscheduled:
        pairs = state.ready_pairs()
        r_min = min(max(rel, state.machine_release[k - 1]) for _, k, rel in pairs)
        earliest = [
            (v, k) for v, k, rel in pairs
            if max(rel, state.machine_release[k - 1]) == r_min
        ]
        times = {pair: state.processing_time(*pair) for pair in earliest}
        lo = min(times.values())
        hi = max(times.values())
        threshold = lo + rcl_alpha * (hi - lo)
        rcl = [pair for pair in earliest if times[pair] <= threshold]
        v, k = _pick(rcl, rcl_alpha, rng)
        state.place(v, k, r_min + times[(v, k)])
    return state.finish()


def construct_ect(inst: Instance, rcl_alpha: float = 0.0,
                  rng: random.Random | None = None) -> Schedule:
    """Earliest-completion-time constructive heuristic."""
    _check(rcl_alpha, rng)
    state = _State(inst)
    while state.unscheduled:
        pairs = state.ready_pairs()
        finish = {
            (v, k): max(rel, state.machine_release[k - 1])
            + state.processing_time(v, k)
            for v, k, rel in pairs
        }
        lo = min(finish.values())
        hi = max(finish.values())
        threshold = lo + rcl_alpha * (hi - lo)
        rcl = [pair for pair in finish if finish[pair] <= threshold]
        v, k = _pick(rcl, rcl_alpha, rng)
        state.place(v, k, finish[(v, k)])
    return state.finish()


def best_of_est_ect(inst: Instance, rcl_alpha: float = 0.0,
                    rng: random.Random | None = None) -> Schedule:
    """Better of the ECT and EST constructions, both built with
    ``rcl_alpha`` and ``rng`` (greedy by default), ECT first.

    ECT is compared first with a strict `<`, so EST is kept on ties.
    """
    ect = construct_ect(inst, rcl_alpha, rng)
    est = construct_est(inst, rcl_alpha, rng)
    return ect if ect.makespan < est.makespan else est
