"""Problem data model and instance file I/O.

An instance consists of a set of operations (1-based dense ids), a set of
machines (1-based dense ids), per-operation machine eligibility with
standard processing times, a precedence DAG over the operations, and a
learning rate.

Native text format (whitespace separated)::

    line 1:            num_operations num_machines alpha
    next |O| lines:    m  k1 p1  k2 p2  ...  km pm
    next line:         num_arcs
    next arc lines:    i j        (operation i precedes operation j)

``#`` starts a comment.  The classical Brandimarte FJSP layout (a header
line ``jobs machines ...``, then per job an operation count followed by that
many ``m  k1 p1 ... km pm`` blocks) is imported by renumbering operations
globally and chaining each job's operations.
"""

import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import cached_property

__all__ = [
    "Instance",
    "InstanceError",
    "parse_instance",
    "serialize_instance",
    "import_classical_fjs",
    "validate_instance",
]


# actual_time's bound: 100 * p <= 2**1000 for every standard time p
_LARGEST_TIME = 2**1000 // 100

_Tables = namedtuple("_Tables", "preds succs machines")


class InstanceError(ValueError):
    """Malformed or inconsistent instance data."""


@dataclass(frozen=True)
class Instance:
    """Immutable problem data; safe to share across concurrent runs."""

    num_operations: int
    num_machines: int
    eligible: tuple  # eligible[i-1] = tuple of machine ids for operation i
    std_time: dict  # (op, machine) -> standard processing time
    precedence_arcs: frozenset  # frozenset of (i, j) pairs
    learning_rate: float
    name: str = field(default="", compare=False)

    @property
    def operations(self) -> range:
        return range(1, self.num_operations + 1)

    @property
    def machines(self) -> range:
        return range(1, self.num_machines + 1)

    def eligible_machines(self, op: int) -> tuple:
        return self.eligible[op - 1]

    @cached_property
    def tables(self) -> _Tables:
        """``(preds, succs, machines)``, each indexed by operation with
        index 0 empty: the predecessors and the successors, in the
        precedence arcs' iteration order, and the eligible machines in
        ascending order, as tuples.  Built once per instance."""
        preds = [[] for _ in range(self.num_operations + 1)]
        succs = [[] for _ in range(self.num_operations + 1)]
        for i, j in self.precedence_arcs:
            preds[j].append(i)
            succs[i].append(j)
        machines = ((),) + tuple(tuple(sorted(ks)) for ks in self.eligible)
        return _Tables(tuple(map(tuple, preds)), tuple(map(tuple, succs)),
                       machines)

    def predecessors(self, op: int) -> list:
        if type(op) is not int or op not in self.operations:
            raise ValueError(f"unknown operation {op!r}")
        return list(self.tables.preds[op])

    def with_learning_rate(self, alpha: float) -> "Instance":
        """The same instance with learning rate ``alpha``, validated."""
        return _check(replace(self, learning_rate=alpha))


def validate_instance(inst: Instance) -> list:
    """Return a list of human-readable invariant violations (empty = valid)."""
    from .graph import CycleError, topological_sort_plus  # graph imports instance

    violations = []
    if inst.num_operations < 1:
        violations.append("instance must have at least one operation")
    if inst.num_machines < 1:
        violations.append("instance must have at least one machine")
    if not inst.learning_rate >= 0:
        violations.append(f"learning_rate must be >= 0, got {inst.learning_rate}")
    elif not math.isfinite(inst.learning_rate):
        violations.append(f"learning_rate must be finite, got {inst.learning_rate}")
    if len(inst.eligible) != inst.num_operations:
        violations.append(
            f"eligible has {len(inst.eligible)} entries for "
            f"{inst.num_operations} operations"
        )
    listed = min(inst.num_operations, len(inst.eligible))
    for op in range(1, listed + 1):
        machines = inst.eligible[op - 1]
        if not machines:
            violations.append(f"operation {op} has an empty eligibility set")
        if len(set(machines)) != len(machines):
            for k in sorted({k for k in machines if machines.count(k) > 1}):
                violations.append(
                    f"operation {op} lists machine {k} more than once"
                )
        for k in machines:
            if not 1 <= k <= inst.num_machines:
                violations.append(f"operation {op}: machine id {k} out of range")
            if (op, k) not in inst.std_time:
                violations.append(f"missing standard time for pair ({op}, {k})")
    for (op, k), p in inst.std_time.items():
        if not (1 <= op <= listed and k in inst.eligible[op - 1]):
            violations.append(f"standard time given for non-eligible pair ({op}, {k})")
        elif p < 0:
            violations.append(f"negative standard time for pair ({op}, {k})")
        elif p > _LARGEST_TIME:
            violations.append(f"standard time for pair ({op}, {k}) "
                              "exceeds 2**1000 / 100")
    ops = inst.operations
    adjacency = [ops] + [[] for _ in ops]  # vertex 0 precedes every operation
    for i, j in inst.precedence_arcs:
        if i in ops and j in ops:
            adjacency[i].append(j)
        else:
            for v in (i, j):
                if v not in ops:
                    violations.append(f"precedence arc ({i}, {j}): id {v} out of range")
        if i == j:
            violations.append(f"self-loop precedence arc ({i}, {j})")
    try:
        topological_sort_plus(adjacency)
    except CycleError:
        violations.append("precedence arcs contain a directed cycle")
    return violations


def _check(inst: Instance) -> Instance:
    violations = validate_instance(inst)
    if violations:
        raise InstanceError("; ".join(violations))
    return inst


class _Tokens:
    """The whitespace-separated tokens of a text, read in order; errors name
    the line.  ``#`` starts a comment that runs to the end of its line."""

    __slots__ = ("_words", "_ends", "_pos")

    def __init__(self, text: str):
        self._words = []
        self._ends = []  # _ends[i] = number of tokens on lines 1..i+1
        for line in text.splitlines():
            self._words += line.split("#", 1)[0].split()
            self._ends.append(len(self._words))
        self._pos = 0

    def _line(self, pos: int) -> int:
        return bisect_right(self._ends, pos) + 1

    def take(self, kind, what: str):
        """The next token converted by ``kind``; InstanceError naming
        ``what`` when there is none or it does not convert."""
        pos = self._pos
        if pos >= len(self._words):
            raise InstanceError(f"unexpected end of file while reading {what}")
        self._pos = pos + 1
        try:
            return kind(self._words[pos])
        except ValueError:
            raise InstanceError(f"line {self._line(pos)}: expected {what}, "
                                f"got {self._words[pos]!r}") from None

    def skip_line(self) -> None:
        """Drop the tokens left on the line of the last token taken."""
        self._pos = self._ends[bisect_right(self._ends, self._pos - 1)]

    def finish(self) -> None:
        """InstanceError when a token is left unread."""
        if self._pos < len(self._words):
            raise InstanceError(
                f"line {self._line(self._pos)}: trailing content starting at "
                f"{self._words[self._pos]!r}"
            )

    def operation(self, op: int, std_time: dict) -> tuple:
        """One operation block: a machine count, then that many
        ``machine standard_time`` pairs.  Stores the times in ``std_time``
        and returns the machines in file order."""
        machines = []
        for _ in range(self.take(int, f"eligibility count of operation {op}")):
            k = self.take(int, "machine id")
            std_time[(op, k)] = self.take(int, "standard time")
            machines.append(k)
        return tuple(machines)


def parse_instance(text: str, name: str = "") -> Instance:
    """Parse the native text format into a validated Instance."""
    tokens = _Tokens(text)
    num_ops = tokens.take(int, "operation count")
    num_machines = tokens.take(int, "machine count")
    alpha = tokens.take(float, "learning rate")
    std_time = {}
    eligible = tuple(tokens.operation(op, std_time)
                     for op in range(1, num_ops + 1))
    arcs = set()
    for _ in range(tokens.take(int, "arc count")):
        arcs.add((tokens.take(int, "arc tail"), tokens.take(int, "arc head")))
    tokens.finish()
    return _check(
        Instance(num_ops, num_machines, eligible, std_time,
                 frozenset(arcs), alpha, name)
    )


def serialize_instance(inst: Instance) -> str:
    """Serialize to the native text format (inverse of parse_instance)."""
    lines = [f"{inst.num_operations} {inst.num_machines} {inst.learning_rate}"]
    for op in inst.operations:
        machines = inst.eligible[op - 1]
        parts = [str(len(machines))]
        for k in machines:
            parts.append(f"{k} {inst.std_time[(op, k)]}")
        lines.append(" ".join(parts))
    arcs = sorted(inst.precedence_arcs)
    lines.append(str(len(arcs)))
    for i, j in arcs:
        lines.append(f"{i} {j}")
    return "\n".join(lines) + "\n"


def import_classical_fjs(text: str, learning_rate: float = 1.0,
                         name: str = "") -> Instance:
    """Import a Brandimarte-style FJSP file as a chain-precedence instance.

    The header line holds the job count and the machine count; the rest of
    that line (often the average flexibility) is ignored.  Each job is an
    operation count followed by that many operation blocks, as in the
    native format.  Operations are renumbered globally in job order; each
    job contributes a chain of precedence arcs.
    """
    tokens = _Tokens(text)
    num_jobs = tokens.take(int, "job count")
    num_machines = tokens.take(int, "machine count")
    tokens.skip_line()
    eligible, std_time, arcs = [], {}, set()
    for job in range(1, num_jobs + 1):
        for step in range(tokens.take(int, f"operation count of job {job}")):
            op = len(eligible) + 1
            eligible.append(tokens.operation(op, std_time))
            if step:
                arcs.add((op - 1, op))
    tokens.finish()
    return _check(
        Instance(len(eligible), num_machines, tuple(eligible), std_time,
                 frozenset(arcs), learning_rate, name)
    )
