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

The classical Brandimarte FJSP layout (header ``jobs machines``; per job an
operation count followed by ``(machine, time)`` alternatives) is imported by
renumbering operations globally and chaining each job's operations.
"""

import math
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
    def _precedence_lists(self) -> tuple:
        """(predecessors, successors) of every operation, built from the
        precedence arcs once per instance, in their iteration order."""
        preds, succs = {}, {}
        for i, j in self.precedence_arcs:
            preds.setdefault(j, []).append(i)
            succs.setdefault(i, []).append(j)
        return preds, succs

    def predecessors(self, op: int) -> list:
        return list(self._precedence_lists[0].get(op, ()))

    def successors(self, op: int) -> list:
        return list(self._precedence_lists[1].get(op, ()))

    def with_learning_rate(self, alpha: float) -> "Instance":
        """The same instance with learning rate ``alpha``, validated."""
        return _check(replace(self, learning_rate=alpha))


def _topological_order(num_ops: int, arcs) -> list | None:
    """Kahn's algorithm; returns None if the arcs contain a cycle."""
    succ = {i: [] for i in range(1, num_ops + 1)}
    indeg = {i: 0 for i in range(1, num_ops + 1)}
    for i, j in arcs:
        if i in succ and j in indeg:  # out-of-range ids reported elsewhere
            succ[i].append(j)
            indeg[j] += 1
    ready = [i for i in range(1, num_ops + 1) if indeg[i] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for j in succ[v]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    return order if len(order) == num_ops else None


def validate_instance(inst: Instance) -> list:
    """Return a list of human-readable invariant violations (empty = valid)."""
    violations = []
    if inst.num_operations < 1:
        violations.append("instance must have at least one operation")
    if inst.num_machines < 1:
        violations.append("instance must have at least one machine")
    if not inst.learning_rate > 0:
        violations.append(f"learning_rate must be > 0, got {inst.learning_rate}")
    elif not math.isfinite(inst.learning_rate):
        violations.append(f"learning_rate must be finite, got {inst.learning_rate}")
    if len(inst.eligible) != inst.num_operations:
        violations.append(
            f"eligible has {len(inst.eligible)} entries for "
            f"{inst.num_operations} operations"
        )
    for op in inst.operations:
        if op > len(inst.eligible):
            break
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
        if not (1 <= op <= inst.num_operations and k in inst.eligible[op - 1]):
            violations.append(f"standard time given for non-eligible pair ({op}, {k})")
        elif p < 0:
            violations.append(f"negative standard time for pair ({op}, {k})")
    for i, j in inst.precedence_arcs:
        for v in (i, j):
            if not 1 <= v <= inst.num_operations:
                violations.append(f"precedence arc ({i}, {j}): id {v} out of range")
        if i == j:
            violations.append(f"self-loop precedence arc ({i}, {j})")
    if _topological_order(inst.num_operations, inst.precedence_arcs) is None:
        violations.append("precedence arcs contain a directed cycle")
    return violations


def _check(inst: Instance) -> Instance:
    violations = validate_instance(inst)
    if violations:
        raise InstanceError("; ".join(violations))
    return inst


def parse_instance(text: str, name: str = "") -> Instance:
    """Parse the native text format into a validated Instance."""
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0]
        for tok in stripped.split():
            tokens.append((tok, lineno))
    pos = 0

    def take(kind, what):
        nonlocal pos
        if pos >= len(tokens):
            raise InstanceError(f"unexpected end of file while reading {what}")
        tok, lineno = tokens[pos]
        pos += 1
        try:
            return kind(tok)
        except ValueError:
            raise InstanceError(
                f"line {lineno}: expected {what}, got {tok!r}"
            ) from None

    num_ops = take(int, "operation count")
    num_machines = take(int, "machine count")
    alpha = take(float, "learning rate")
    eligible = []
    std_time = {}
    for op in range(1, num_ops + 1):
        m = take(int, f"eligibility count of operation {op}")
        machines = []
        for _ in range(m):
            k = take(int, f"machine id for operation {op}")
            p = take(int, f"standard time for operation {op}")
            machines.append(k)
            std_time[(op, k)] = p
        eligible.append(tuple(machines))
    num_arcs = take(int, "arc count")
    arcs = set()
    for _ in range(num_arcs):
        i = take(int, "arc tail")
        j = take(int, "arc head")
        arcs.add((i, j))
    if pos != len(tokens):
        tok, lineno = tokens[pos]
        raise InstanceError(f"line {lineno}: trailing content starting at {tok!r}")
    return _check(
        Instance(num_ops, num_machines, tuple(eligible), std_time,
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

    Operations are renumbered globally in job order; each job contributes a
    chain of precedence arcs.  Some files carry a trailing float on the
    header line (average flexibility); it is ignored.
    """
    tokens = text.split()
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(tokens):
            raise InstanceError(f"unexpected end of file while reading {what}")
        tok = tokens[pos]
        pos += 1
        try:
            return int(tok)
        except ValueError:
            raise InstanceError(f"expected {what}, got {tok!r}") from None

    try:
        num_jobs = int(tokens[0])
        num_machines = int(tokens[1])
    except (IndexError, ValueError):
        raise InstanceError("malformed header: expected 'jobs machines'") from None
    pos = 2
    # optional flexibility figure on the header line
    if pos < len(tokens) and "." in tokens[pos]:
        pos += 1

    eligible = []
    std_time = {}
    arcs = set()
    op = 0
    for job in range(1, num_jobs + 1):
        n_ops = take(f"operation count of job {job}")
        prev = None
        for _ in range(n_ops):
            op += 1
            n_alt = take(f"alternative count of operation {op}")
            if n_alt == 0:
                raise InstanceError(f"operation {op} (job {job}) has no alternatives")
            machines = []
            for _ in range(n_alt):
                k = take("machine id")
                p = take("processing time")
                machines.append(k)
                std_time[(op, k)] = p
            eligible.append(tuple(machines))
            if prev is not None:
                arcs.add((prev, op))
            prev = op
    return _check(
        Instance(op, num_machines, tuple(eligible), std_time,
                 frozenset(arcs), learning_rate, name)
    )
