"""Remove/insert move machinery and neighborhood enumeration.

A neighbor is obtained by removing one operation from its machine and
reinserting it at a cycle-free position of an eligible machine.  The
reduced neighborhood additionally skips insertions that provably cannot
improve the makespan: if the longest path of the reduced graph is already
at least as long as the current makespan and the insertion happens after
the last critical position of the target machine, the surviving path is
untouched.

A neighbor is priced without building its graph.  A scan takes the
timing of the schedule's own graph G, which the ``Schedule`` carries
(``timing_of`` times G once when it carries none), and tabulates once what
its removals and built moves read of G: each vertex's ancestors and
descendants as bitsets of G's ranks, each machine's operations, and each
operation's time one position earlier and one later.

Every change of a timed graph is one edit (``_edited``): the machine arcs
it breaks are dropped, those it makes are added, and the order is kept
unless an added arc points backwards in it, which a local reorder mends
(Pearce and Kelly's dynamic topological sort).  A removal edits G into its
reduced graph G⁻: prev→v and v→next give way to prev→next, which never
points backwards, so G⁻ keeps G's order and ranks.  Every move that is
applied, a scanned one as well as a random relocation, edits G into G⁺ at
once (``_relocated``), by the removal's edit composed with the insertion's:
prev→v, v→next and before→after give way to prev→next, before→v and
v→after.  Only the operations whose position changed are re-weighed (v's
old suffix and the suffix that v pushes, or on a move within one machine
the stretch between the two positions), and G⁻ is never timed for it.

Every re-timing, an edit's and a neighbor's pricing, follows one pull
rule: the stale vertices, whose weight or predecessors changed, are
visited in a topological order, each starts at the latest completion of
its predecessors, and one whose completion changes makes every successor
stale.  An edit also keeps setters and tie flags; a pricing
(``_insertion_makespan``) keeps only times.
Every timing flags the vertices that two predecessors finish at the start
of.  An edit walks no critical path: a removal walks G⁻'s at once, for ξ,
τ⁻ and P, and a built ``Schedule`` walks its own when it is first read,
by a cropped scan or for a ``RunRecord``, with ``graph.critical_path``,
which gives ``build_schedule``'s path for any timing.  A removal keeps the
timing it derives, in G's order: the reduction's bounds, the windows and
the pricing read only times, arcs and an order, which are G⁻'s.

The insertion window on a machine lies between the last ancestor and the
first descendant of the removed operation there.  No path that ends or
starts at the removed operation can use the machine arcs that its removal
rewires, so its ancestors in G⁻ are those of its predecessors in G, its
descendants those of its successors, and ranks rise along every machine
sequence: each bound is one bit operation on a scan table of G, which a
removal outside a scan tabulates for itself.  A random relocation asks one
machine and gets two searches that pop vertices in rank order and stop at
its first operation met (``_searched_bounds``); G's order suits G⁻, so
they search G's own arc lists with only v's rewired: prev leaves its
predecessors and next its successors.  In G⁻ next never reaches v and v
never reaches prev, so their lists, which the removal rewires too, are
never read.

Each neighbor carries an O(1) lower bound on its makespan and is priced
only when its makespan is read.  Let P be G⁻'s critical path, of length ξ.
Inserting the removed operation at position γ of machine k keeps P, or
routes it through the inserted operation, and only P's operations on k at
positions ≥ γ change weight: each moves one position later and so gets
shorter.  The makespan is therefore at least ξ minus what those operations
lose; the reduction's rule is the case where none of them lies at γ or
after.  A scan takes each machine's window from one rule (``_window``),
which ``feasible_window`` wraps, and builds the bound for every position
of it in one backward pass from τ_k, P's last position on k, which the
window may end before.

A second bound reads heads in G⁻ and tails in G.  The scan table holds
tail_G[u], the longest path from u's start to the end of G, u's weight
included.  Let a and b be the operations at positions γ-1 and γ of q⁻_k,
and L_k(γ) what the operations at positions ≥ γ lose when each moves one
position later.  Then the makespan is at least
max(start⁻[v], C⁻[a]) + p_{v,k}(γ) + T - L_k(γ), where T is the largest
tail_G among v's successors in G⁻ and b, unless b is an ancestor of v
in G.  The head is exact, since no predecessor of v is re-timed inside
the cycle-free window.  A G-path from a descendant of v, or from a b that
does not reach v, avoids v and so the arcs the removal rewires; it cannot
reach a, so it does not use a→b either and survives in G⁺.  Along it the
weights are G's but for two kinds of operation, each met at most once:
those that moved earlier on v's machine, which are no shorter, and those
of k at positions ≥ γ, each shorter by at most its share of L_k(γ),
which G⁻'s times give.  A search that needs only moves shorter
than a cutoff asks ``Move.beats``: the first bound, then the second, and
only then the price.

The neighbor's ``Schedule`` is built on demand, for the move a search
applies, by the one edit of G into G⁺ that builds every relocation
(``_relocated``); the move to the operation's own slot is the scanned
schedule itself.  A removal records the schedule it cut from and the slot
it cut, which that edit reads.  The timing of G⁺ is inside the
``Schedule``, for the next scan or removal, and is stripped from every
``RunRecord``, which keeps the path walked from it instead.  Outside a
scan ``insert_op`` checks a slot of a removal and builds it by the same
edit, and ``random_relocation`` draws a slot and returns its ``Schedule``.
Local search and tabu search choose among the scanned moves with
``best_neighbor``, which builds the chosen move's ``Schedule`` and raises
``PricingError`` when its makespan is not the move's price.
"""

import random
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Callable, Iterator

from .instance import Instance
from .learning import actual_time
from .graph import (
    CycleError,
    Schedule,
    ScheduleError,
    Timing,
    critical_path,
    timing_of,
)

__all__ = [
    "ReducedState",
    "InsertionWindow",
    "Move",
    "remove_op",
    "feasible_window",
    "insert_op",
    "enumerate_neighbors",
    "best_neighbor",
    "PricingError",
    "random_relocation",
    "NEIGHBORHOOD_MODES",
]

NEIGHBORHOOD_MODES = ("full", "reduced", "cropped")


@dataclass
class ReducedState:
    """Intermediate structure after removing one operation.

    The removed operation keeps its vertex (weight 0) together with its
    precedence and dummy arcs; only its machine arcs are rewired.  It was
    cut from position ``gamma`` of machine ``origin`` in ``source``, the
    schedule of G.  ``cycle_bounds(k)`` gives the positions on machine
    ``k`` of the last operation that must precede it and of the first that
    must follow it (0 and one past the end when there is none).
    """

    removed: int
    source: Schedule = field(repr=False)
    origin: int
    gamma: int
    q_minus: tuple
    w_minus: list  # weight by vertex: 0 for the removed one and the dummies
    path: tuple  # critical path of the reduced graph, s to t
    xi: int
    tau: tuple
    timing: Timing  # of the reduced graph
    cycle_bounds: Callable = field(repr=False, compare=False)


@dataclass(frozen=True)
class InsertionWindow:
    """Cycle-free insertion positions on one machine, possibly narrowed by
    the longest-path reduction.  Valid positions are
    ``lower + 1 .. upper_effective``."""

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
    """One scanned neighbor: ``operation`` reinserted at ``position`` of
    ``machine``.

    ``bound`` is a lower bound on the makespan, known at once.  ``makespan``
    is exact and priced from the reduced state ``rs`` on first access;
    ``later[i]`` is the time of the target machine's ``i``-th operation one
    position further back.  ``tails`` serves ``head_tail_bound``: the
    scan's ``_ScanTable``, the largest tail in G among the operation's
    successors in G⁻, and ``drop[i]``, what the target machine's operations
    from index ``i`` on lose by moving one position later.  ``schedule``
    is built on first access from the removal's source and the table's
    timing of G (``_relocated``).
    """

    __slots__ = ("operation", "machine", "position", "bound", "_inst",
                 "_rs", "_later", "_tails", "_time", "_makespan", "_schedule")

    def __init__(self, operation: int, machine: int, position: int,
                 bound: int, inst: Instance, rs: ReducedState,
                 later: list, tails: tuple):
        self.operation = operation
        self.machine = machine
        self.position = position
        self.bound = bound
        self._inst = inst
        self._rs = rs
        self._later = later
        self._tails = tails
        self._time = None
        self._makespan = None
        self._schedule = None

    def beats(self, cutoff) -> bool:
        """Whether the makespan is below ``cutoff``, priced only when
        neither lower bound rules it out."""
        return (self.bound < cutoff and self.head_tail_bound < cutoff
                and self.makespan < cutoff)

    @property
    def head_tail_bound(self) -> int:
        """A scanned move's head-tail lower bound: see the module docstring."""
        table, longest, drop = self._tails
        rs, v, i = self._rs, self.operation, self.position - 1
        seq = rs.q_minus[self.machine - 1]
        head = rs.timing.start[v]
        if i and rs.timing.completion[seq[i - 1]] > head:
            head = rs.timing.completion[seq[i - 1]]
        if i < len(seq):  # b's tail counts unless b reaches v in G
            b = seq[i]
            if (table.tail[b] > longest
                    and not table.anc[v] >> table.rank[b] & 1):
                longest = table.tail[b]
        return head + self._time_v() + longest - drop[i]

    @property
    def makespan(self) -> int:
        if self._makespan is None:
            rs = self._rs
            self._makespan = _insertion_makespan(
                rs, rs.q_minus[self.machine - 1], self._later, self.position,
                self._time_v())
        return self._makespan

    def _time_v(self) -> int:
        """The moved operation's time at its new position."""
        if self._time is None:
            std = self._inst.std_time[(self.operation, self.machine)]
            self._time = actual_time(std, self.position,
                                     self._inst.learning_rate)
        return self._time

    @property
    def schedule(self) -> Schedule:
        if self._schedule is None:
            rs = self._rs
            self._schedule = _relocated(
                self._inst, rs.source, self._tails[0].graph, self.operation,
                rs.origin, rs.gamma, self.machine, self.position)
        return self._schedule


def remove_op(inst: Instance, sched: Schedule, v: int,
              table: "_ScanTable | None" = None) -> ReducedState:
    """Remove operation ``v`` from the schedule's solution graph G.

    The reduced graph is derived from G's timing, so its order is G's, and
    its critical path is walked at once (``critical_path``).  ``table``, a
    scan's ``_ScanTable`` of the schedule, holds that timing, the shifted
    times and what the windows read; without one, one is tabulated here.
    """
    if not 1 <= v <= inst.num_operations:
        raise ValueError(f"cannot remove vertex {v}: not an operation")
    if table is None:
        table = _ScanTable(inst, sched)
    origin = sched.assignment[v]
    gamma = sched.position_of(v)

    q_minus = list(sched.sequences)
    old_seq = q_minus[origin - 1]
    q_minus[origin - 1] = old_seq[:gamma - 1] + old_seq[gamma:]
    q_minus = tuple(q_minus)

    w_minus = list(sched.actual_times)
    w_minus[v] = 0
    shifted = old_seq[gamma:]  # one position earlier now
    for op, time in zip(shifted, table.earlier[origin - 1][gamma - 1:]):
        w_minus[op] = time

    prev = old_seq[gamma - 2] if gamma > 1 else None
    nxt = shifted[0] if shifted else None
    timing = _edited(inst, table.graph, ((prev, v), (v, nxt)),
                     ((prev, nxt),), w_minus, {v, *shifted})
    path, xi, tau = critical_path(timing, q_minus)
    return ReducedState(v, sched, origin, gamma, q_minus, w_minus, path, xi,
                        tau, timing,
                        table.cycle_bounds(timing, v, origin, q_minus))


class _ScanTable:
    """What the removals and built moves of one scan read of G, the graph
    of the scanned schedule ``sched``, tabulated once from its timing
    ``graph`` (``timing_of``).

    ``anc[u]`` and ``desc[u]`` are bitsets of the ranks (``rank``, G's) of
    u's ancestors and of its descendants, u included; ``mask[k-1]`` that
    of machine ``k``'s operations; ``pos[r]`` the position on its machine
    of the operation ranked ``r``.  ``earlier[k-1]`` holds the times of machine
    ``k``'s operations after the first one position earlier, ``later[k-1]``
    those of all its operations one position later, and ``drop[k-1][i]``
    what its operations from index ``i`` on lose by that.  ``tail[u]`` is
    the longest path from u's start to the end of G, u's weight included.
    """

    __slots__ = ("graph", "rank", "anc", "desc", "tail", "mask",
                 "pos", "earlier", "later", "drop")

    def __init__(self, inst: Instance, sched: Schedule):
        self.graph = graph = timing_of(inst, sched)
        order, rank = graph.order, graph.rank
        self.rank = rank
        self.anc = anc = [0] * len(order)
        for u in order:
            bits = 1 << rank[u]
            for i in graph.preds[u]:
                bits |= anc[i]
            anc[u] = bits
        self.desc = desc = [0] * len(order)
        self.tail = tail = [0] * len(order)
        start, completion = graph.start, graph.completion
        for u in reversed(order):
            bits = 1 << rank[u]
            longest = 0
            for j in graph.succs[u]:
                bits |= desc[j]
                if tail[j] > longest:
                    longest = tail[j]
            desc[u] = bits
            tail[u] = longest + completion[u] - start[u]
        self.pos = [0] * len(order)
        self.mask, self.earlier, self.later, self.drop = [], [], [], []
        for k, seq in enumerate(sched.sequences, start=1):
            for pos, op in enumerate(seq, start=1):
                self.pos[rank[op]] = pos
            self.mask.append(sum(1 << rank[op] for op in seq))
            self.earlier.append(_times(inst, seq[1:], k, 1))
            later = _times(inst, seq, k, 2)
            self.later.append(later)
            self.drop.append(_drops(sched.actual_times, seq, later, 0))

    def cycle_bounds(self, reduced: Timing, v: int, origin: int,
                     q_minus: tuple) -> Callable:
        """``ReducedState.cycle_bounds`` for ``v``, removed from machine
        ``origin``, given G⁻'s timing ``reduced`` and sequences ``q_minus``
        (see the module's docstring).  On ``origin`` every descendant of
        ``v`` has moved one position earlier."""
        above = below = 0
        for i in reduced.preds[v]:
            above |= self.anc[i]
        for j in reduced.succs[v]:
            below |= self.desc[j]
        mask, pos = self.mask, self.pos

        def bounds(k: int) -> tuple:
            ancestors = above & mask[k - 1]
            lower = pos[ancestors.bit_length() - 1] if ancestors else 0
            descendants = below & mask[k - 1]
            if not descendants:
                return lower, len(q_minus[k - 1]) + 1
            first = pos[(descendants & -descendants).bit_length() - 1]
            return lower, first - (k == origin)

        return bounds


def _searched_bounds(succs: list, preds: list, order: list, rank: list,
                     ends: tuple, seq: tuple) -> tuple:
    """``ReducedState.cycle_bounds`` of the removed operation v, whose
    predecessors and successors in G⁻ are ``ends``, on the machine whose
    q⁻ sequence is ``seq``, from two searches over ``succs`` and ``preds``,
    G⁻'s arc lists of the vertices v reaches and that reach v, given a
    topological ``order`` of G⁻ and its ``rank``s.
    Each pops vertices from a heap in rank order and stops at the first
    operation of ``seq``: over ``preds`` in decreasing rank for the lower
    bound, over ``succs`` in increasing rank for the upper.  ``seq`` is a
    chain of G⁻'s arcs, so ranks rise along it: v's ancestors on it form a
    prefix and its descendants a suffix.  Popping in decreasing rank pops
    every ancestor ranked above r before any vertex ranked at or below r,
    so the first hit is the last ancestor, and there is none once the top
    ranks below ``seq[0]``; the descendants mirror this.
    """
    if not seq:
        return 0, 1
    where = {op: pos for pos, op in enumerate(seq, start=1)}

    def first(adjacency, start, sign: int, end: int):
        # where[u] of the first u popped in order of sign * rank, up to end
        heap = [sign * rank[u] for u in start]
        heapify(heap)
        seen = set(start)
        limit = sign * rank[end]
        while heap and heap[0] <= limit:
            u = order[sign * heappop(heap)]
            if u in where:
                return where[u]
            for j in adjacency[u]:
                if j not in seen:
                    seen.add(j)
                    heappush(heap, sign * rank[j])
        return None

    above, below = ends
    return (first(preds, above, -1, seq[0]) or 0,
            first(succs, below, 1, seq[-1]) or len(seq) + 1)


def _times(inst: Instance, ops: tuple, k: int, first: int) -> list:
    """Time of each of ``ops`` on machine ``k``, the first at position
    ``first`` and the rest at the positions after it."""
    std, alpha = inst.std_time, inst.learning_rate
    return [actual_time(std[(op, k)], pos, alpha)
            for pos, op in enumerate(ops, start=first)]


def _drops(weights: list, seq: tuple, later: list, lowest: int) -> list:
    """``drop[i]``, for ``i`` from ``lowest`` on: what the operations of
    ``seq`` from index ``i`` on lose when each takes its ``later`` time
    instead of its weight."""
    drop = [0] * (len(seq) + 1)
    for i in range(len(seq) - 1, lowest - 1, -1):
        drop[i] = drop[i + 1] + weights[seq[i]] - later[i]
    return drop


def _rewired(inst: Instance, base: Timing, drop, add) -> tuple:
    """``(succs, preds, backward)``: ``base``'s arc lists, copied, with the
    machine arcs ``drop`` removed and those in ``add`` added, and the added
    arcs that point backwards in ``base``'s order.

    Pairs that hold ``None`` and precedence arcs are left alone; successor
    lists stay sorted, as ``build_arcs`` gives them, and predecessors are
    appended.
    """
    succs = list(base.succs)
    preds = base.preds.copy()
    arcs = inst.precedence_arcs
    for i, j in drop:
        if i is not None and j is not None and (i, j) not in arcs:
            succs[i] = tuple(x for x in succs[i] if x != j)
            preds[j] = [x for x in preds[j] if x != i]
    rank = base.rank
    backward = []
    for i, j in add:
        if i is not None and j is not None and (i, j) not in arcs:
            succs[i] = tuple(sorted(succs[i] + (j,)))
            preds[j] = preds[j] + [i]
            if rank[i] > rank[j]:
                backward.append((i, j))
    return succs, preds, backward


def _edited(inst: Instance, base: Timing, drop, add, weights: list,
            stale: set) -> Timing:
    """The timing of ``base``'s graph with the machine arcs ``drop``
    removed and those in ``add`` added (``_rewired``), vertex ``i``
    weighing ``weights[i]`` (see the module's docstring).

    An added arc that points backwards in ``base``'s order is mended by
    ``_reorder``.  One edit adds at most one.  A removal's prev→next never
    does, since v ranks between prev and next.  Putting v between before
    and after, where before→after is an arc of ``base``, adds before→v and
    v→after, and as after ranks after before at most one of them points
    backwards.  The composed edit of a relocation (``_relocated``) does
    both: before→after is an arc of G unless it is prev→next, which is v's
    own slot, never edited.  A second backward arc raises ValueError.  The
    ``stale`` vertices, which must hold every vertex whose weight or
    predecessors changed, are re-timed by the pull rule, their tie flags
    counted again; the rest keep ``base``'s times, setters and flags.  No
    path is walked: the flags let ``critical_path`` walk it as
    ``build_schedule``'s when it is read.
    """
    succs, preds, backward = _rewired(inst, base, drop, add)
    order, rank = base.order, base.rank
    if len(backward) > 1:
        raise ValueError(f"machine arcs {backward[0]} and {backward[1]} both "
                         "point backwards in the order")
    if backward:
        order, rank = _reorder(succs, preds, order, rank, *backward[0])

    start = base.start.copy()
    completion = base.completion.copy()
    setter = base.setter.copy()
    tied = base.tied.copy()
    for u in islice(order, min(map(rank.__getitem__, stale)), None):
        if u not in stale:
            continue
        stale.discard(u)
        latest = -1
        for i in preds[u]:
            if completion[i] > latest:
                latest = completion[i]
                setter[u] = i
                tied[u] = False
            elif completion[i] == latest:
                tied[u] = True
        start[u] = latest
        done = latest + weights[u]
        if done != completion[u]:
            completion[u] = done
            stale.update(succs[u])
        if not stale:
            break
    return Timing(tuple(succs), order, rank, preds, start, completion,
                  setter, tied)


def _window(rs: ReducedState, k: int, reduction_active: bool,
            c_max: int) -> tuple:
    """``(lower, end)``: the removed operation's insertion positions on
    machine ``k`` are ``lower + 1 .. end``, its cycle bounds
    (``rs.cycle_bounds``) cut at τ_k when the reduction is active and
    ξ ≥ ``c_max``, the makespan.  The one window rule: the scan calls it,
    ``feasible_window`` wraps it."""
    lower, upper = rs.cycle_bounds(k)
    if reduction_active and rs.xi >= c_max and rs.tau[k - 1] < upper:
        return lower, rs.tau[k - 1]
    return lower, upper


def feasible_window(rs: ReducedState, k: int, reduction_active: bool,
                    c_max: int) -> InsertionWindow:
    """Insertion window for the removed operation on machine ``k``
    (``_window``)."""
    if not 1 <= k <= len(rs.q_minus):
        raise ValueError(f"no machine {k}: machines are 1..{len(rs.q_minus)}")
    lower, upper = rs.cycle_bounds(k)
    return InsertionWindow(lower, upper,
                           _window(rs, k, reduction_active, c_max)[1])


def insert_op(inst: Instance, rs: ReducedState, v: int, k: int,
              gamma: int) -> Schedule:
    """Reinsert ``v``, the removed operation, at position ``gamma`` of
    machine ``k`` in q⁻, outside a scan.  Raises ValueError unless ``rs``
    holds ``v``, then CycleError unless ``gamma`` lies in the cycle-free
    window, and then ScheduleError unless ``v`` may run on ``k``.  The slot
    is built as a scanned move is, by one edit of the removal's source G
    into G⁺ (``_relocated``); the own slot returns the source."""
    if v != rs.removed:
        raise ValueError(f"reduced state holds operation {rs.removed}, not {v}")
    window = feasible_window(rs, k, reduction_active=False, c_max=0)
    if gamma not in window.cycle_free:
        raise CycleError(
            f"inserting operation {v} at position {gamma} of machine {k} "
            f"creates a cycle (window {window.lower + 1}..{window.upper})"
        )
    if k not in inst.eligible[v - 1]:
        # q⁻ came from a checked Schedule: only v's machine is new
        raise ScheduleError(f"operation {v} on ineligible machine {k}")
    source = rs.source
    return _relocated(inst, source, timing_of(inst, source), v, rs.origin,
                      rs.gamma, k, gamma)


def random_relocation(inst: Instance, sched: Schedule,
                      rng: random.Random) -> Schedule:
    """The ``Schedule`` of a random relocation: an operation, one of its
    eligible machines and a position of that machine's cycle-free window
    in q⁻, each drawn uniformly in that order; the longest-path reduction
    is not applied.  A draw of the operation's own slot returns ``sched``.

    The operation's machine is found among its eligible machines'
    sequences; ScheduleError names it when it sits on none.  The window
    comes from a search of G's own arc lists, in G's order, with only the
    operation's own lists rewired into G⁻'s, and ``_relocated`` builds the
    slot.  It needs no further check: its draws are those of a removal's
    window, and ``_relocated`` builds every slot of that window.
    """
    v = rng.randint(1, inst.num_operations)
    machines = inst.tables.machines[v]
    origin = next((m for m in machines if v in sched.sequences[m - 1]), None)
    if origin is None:
        raise ScheduleError(f"operation {v} is on none of its eligible "
                            f"machines {list(machines)}")
    graph = timing_of(inst, sched)
    old_seq = sched.sequences[origin - 1]
    gamma = old_seq.index(v) + 1
    prev = old_seq[gamma - 2] if gamma > 1 else None
    nxt = old_seq[gamma] if gamma < len(old_seq) else None
    k = machines[rng.randrange(len(machines))]
    seq = (old_seq[:gamma - 1] + old_seq[gamma:] if k == origin
           else sched.sequences[k - 1])
    # in G⁻ next never reaches v and v never reaches prev, so the searches
    # read no rewired list but v's own
    arcs = inst.precedence_arcs
    ends = ([i for i in graph.preds[v] if i != prev or (i, v) in arcs],
            [j for j in graph.succs[v] if j != nxt or (v, j) in arcs])
    lower, upper = _searched_bounds(graph.succs, graph.preds, graph.order,
                                    graph.rank, ends, seq)
    return _relocated(inst, sched, graph, v, origin, gamma, k,
                      rng.randint(lower + 1, upper))


def _relocated(inst: Instance, sched: Schedule, graph: Timing, v: int,
               origin: int, gamma: int, k: int, slot: int) -> Schedule:
    """``Schedule`` of the graph G⁺ that moves ``v`` from position
    ``gamma`` of machine ``origin`` to position ``slot`` of machine ``k``
    in q⁻, a cycle-free slot on a machine it may run on, edited from
    ``graph``, the timing of ``sched``'s graph G, in one step (see the
    module's docstring).  Its timing has G⁺'s arcs as ``build_arcs`` gives
    them and exact times; no path is walked until its ``critical_path`` is
    read.  The own slot returns ``sched``: there the composed edit would
    keep a prev→next arc that ``build_arcs`` does not make.
    """
    if k == origin and slot == gamma:
        return sched
    old_seq = sched.sequences[origin - 1]
    prev = old_seq[gamma - 2] if gamma > 1 else None
    nxt = old_seq[gamma] if gamma < len(old_seq) else None
    sequences = list(sched.sequences)
    sequences[origin - 1] = old_seq[:gamma - 1] + old_seq[gamma:]
    seq = sequences[k - 1]
    before = seq[slot - 2] if slot > 1 else None
    after = seq[slot - 1] if slot <= len(seq) else None
    sequences[k - 1] = seq[:slot - 1] + (v,) + seq[slot - 1:]
    sequences = tuple(sequences)

    weights = list(sched.actual_times)
    if k == origin:  # the stretch between the two positions
        first, last = min(gamma, slot), max(gamma, slot)
        moved = [(k, first, sequences[k - 1][first - 1:last])]
    else:  # v's old suffix, and v with the suffix it pushes
        moved = [(origin, gamma, sequences[origin - 1][gamma - 1:]),
                 (k, slot, sequences[k - 1][slot - 1:])]
    stale = {v, nxt, after} - {None}  # the heads of the changed arcs
    for m, first, ops in moved:
        for op, time in zip(ops, _times(inst, ops, m, first)):
            weights[op] = time
        stale.update(ops)
    timing = _edited(inst, graph, ((prev, v), (v, nxt), (before, after)),
                     ((prev, nxt), (before, v), (v, after)), weights, stale)
    return Schedule(sequences, weights, timing.start[-1], timing)


def _reorder(succs: list, preds: list, order: list, rank: list, x: int,
             y: int) -> tuple:
    """Order and ranks, copied, once the arc x→y, with y ranked before x,
    is mended (Pearce and Kelly, JEA 2007).

    The descendants of y and the ancestors of x ranked between the two are
    the only vertices that move: they take the same ranks, the ancestors
    first, each group in its old order.
    """
    lo, hi = rank[y], rank[x]
    ahead = _reach_between(preds, x, rank, lo, hi)
    behind = _reach_between(succs, y, rank, lo, hi)
    moving = sorted(ahead, key=rank.__getitem__)
    moving += sorted(behind, key=rank.__getitem__)
    order, rank = order.copy(), rank.copy()
    for slot, u in zip(sorted(map(rank.__getitem__, moving)), moving):
        order[slot] = u
        rank[u] = slot
    return order, rank


def _reach_between(adjacency, v: int, rank: list, lo: int, hi: int) -> set:
    """Vertices reachable from ``v`` through vertices ranked strictly
    between ``lo`` and ``hi``, ``v`` included."""
    seen = {v}
    stack = [v]
    while stack:
        for j in adjacency[stack.pop()]:
            if j not in seen and lo < rank[j] < hi:
                seen.add(j)
                stack.append(j)
    return seen


def _insertion_makespan(rs: ReducedState, seq: tuple, later: list,
                        gamma: int, time_v: int) -> int:
    """Makespan once the removed operation v, taking ``time_v``, sits at
    position ``gamma`` of the machine sequence ``seq``; ``later[i]`` is the
    time of ``seq[i]`` one position further back.

    The pull rule (see the module's docstring) over G⁻'s lists, read in
    place but for a copy of the completions: the moved operations and v's
    successors, the sink at least, start stale.  In the cycle-free window,
    where ``gamma`` must lie, no predecessor of v is re-timed: v's start is
    final at once, and G⁻'s order holds for every other vertex.  The follower
    ``seq[gamma - 1]`` also takes v's completion; its predecessor in G⁻
    ``seq[gamma - 2]``, no longer one in G⁺, finishes no later than v.
    """
    v = rs.removed
    succs, order, rank, preds, start, completion, *_ = rs.timing
    begin = start[v]
    if gamma > 1 and completion[seq[gamma - 2]] > begin:
        begin = completion[seq[gamma - 2]]
    done_v = begin + time_v
    moved = seq[gamma - 1:]
    moved_time = dict(zip(moved, later[gamma - 1:]))
    stale = {*moved, *succs[v]}
    new = completion.copy()
    new[v] = done_v
    follower = moved[0] if moved else None
    weight = rs.w_minus
    for u in islice(order, min(map(rank.__getitem__, stale)), None):
        if u not in stale:
            continue
        stale.discard(u)
        latest = done_v if u == follower else 0
        for i in preds[u]:
            if new[i] > latest:
                latest = new[i]
        done = latest + (moved_time[u] if u in moved_time else weight[u])
        if done != completion[u]:
            new[u] = done
            stale.update(succs[u])
        if not stale:
            break
    return new[-1]


def enumerate_neighbors(inst: Instance, sched: Schedule,
                        mode: str = "reduced") -> Iterator[Move]:
    """All neighbors of a schedule, in deterministic (v, k, gamma) order.

    ``full`` keeps every cycle-free reinsertion, ``reduced`` applies the
    longest-path pruning rule, ``cropped`` further restricts the removed
    operation to the current critical path, walked here if no one read it
    before (``Schedule.critical_path``), or from the graph the scan times
    when the schedule carries no timing.  Each neighbor carries its
    lower bound; its makespan is computed incrementally from the timing of
    the reduced graph when it is read.  The removals are derived from the
    timing of the schedule's own graph (``timing_of``).
    """
    if mode not in NEIGHBORHOOD_MODES:
        raise ValueError(f"unknown neighborhood mode {mode!r}")
    table = _ScanTable(inst, sched)
    if mode == "cropped":
        critical = set(sched.critical_path if sched.timing is not None
                       else critical_path(table.graph, sched.sequences)[0])
        candidates = [v for v in inst.operations if v in critical]
    else:
        candidates = list(inst.operations)
    reduction = mode in ("reduced", "cropped")
    for v in candidates:
        rs = remove_op(inst, sched, v, table)
        on_path = set(rs.path)
        xi, w_minus = rs.xi, rs.w_minus
        after_v = max(map(table.tail.__getitem__, rs.timing.succs[v]))
        for k in inst.tables.machines[v]:
            lower, end = _window(rs, k, reduction, sched.makespan)
            if end <= lower:
                continue
            seq = rs.q_minus[k - 1]
            later, drop = table.later[k - 1], table.drop[k - 1]
            if k == rs.origin:
                # the operations after v are back at their positions in G
                cut = rs.gamma - 1
                later = later[:cut] + [sched.actual_times[op]
                                       for op in seq[cut:]]
                drop = _drops(w_minus, seq, later, lower)
            # bound[i]: ξ minus what the path's operations at index >= i
            # lose when they move one position later; none lies beyond τ_k,
            # which the window may end before
            bound = [xi] * (len(seq) + 1)
            for i in range(rs.tau[k - 1] - 1, lower - 1, -1):
                op = seq[i]
                bound[i] = (bound[i + 1] - w_minus[op] + later[i]
                            if op in on_path else bound[i + 1])
            tails = table, after_v, drop
            for gamma in range(lower + 1, end + 1):
                yield Move(v, k, gamma, bound[gamma - 1], inst, rs, later,
                           tails)


class PricingError(RuntimeError):
    """A chosen move's price differs from the makespan of the schedule it
    builds: a fault of the pricing or of the build."""


def best_neighbor(inst: Instance, sched: Schedule, mode: str,
                  ceiling: Callable, stop: Callable,
                  first: bool = False) -> tuple:
    """``(move, cut)``: the first neighbor in scan order whose makespan is
    the smallest below ``ceiling(move)`` (None if none is), and whether
    ``stop()``, asked before each neighbor, cut the scan short.  A move
    that either lower bound rules out is not priced (``Move.beats``); with
    ``first`` the scan ends at the first move that counts.  The chosen
    move's schedule is built here, and PricingError is raised when its
    makespan is not the price the move was chosen for."""
    best, least, cut = None, float("inf"), False
    for move in enumerate_neighbors(inst, sched, mode):
        if stop():
            cut = True
            break
        if move.beats(min(ceiling(move), least)):
            best, least = move, move.makespan
            if first:
                break
    if best is not None and best.schedule.makespan != least:
        raise PricingError(
            f"move (v={best.operation}, k={best.machine}, "
            f"gamma={best.position}) was priced {least} but builds a "
            f"schedule of makespan {best.schedule.makespan}")
    return best, cut
