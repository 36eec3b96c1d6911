"""Seeded instance generator for the benchmark.

Two layouts, both with 1-3 eligible machines per operation:

* ``dag``: arcs ``i -> j`` for ``i < j <= i + 6``, each with probability
  0.3 (sequencing flexibility), standard times in [1, 99], emitted in the
  native text format;
* ``chain``: Brandimarte-style jobs whose operations form one chain each,
  standard times in [1, 19], emitted as a classical ``.fjs`` file.

The generator keeps its own copy of every instance's data, so the parsed
``Instance`` can be compared with what was generated and the correctness
check can rebuild a schedule's makespan without the library's graph code.
"""

import hashlib
import random
from dataclasses import dataclass

import flexshop.instance

ALPHA = 0.2
MAX_ELIGIBLE = 3
DAG_ARC_SPAN = 6
DAG_ARC_PROB = 0.3


@dataclass(frozen=True)
class Generated:
    """One generated instance: its data and the text that encodes it."""

    name: str
    fmt: str  # "native" or "classical" (.fjs)
    num_machines: int
    eligible: tuple  # eligible[op - 1] = ascending machine ids
    std_time: dict  # (op, machine) -> standard time
    arcs: tuple  # sorted precedence arcs (i, j)
    alpha: float
    text: str

    @property
    def num_operations(self) -> int:
        return len(self.eligible)

    def parse(self):
        """Parse and validate ``text`` through the library's public parsers."""
        if self.fmt == "classical":
            return flexshop.instance.import_classical_fjs(
                self.text, self.alpha, self.name)
        return flexshop.instance.parse_instance(self.text, self.name)


def _operation(rng: random.Random, m: int, p_max: int):
    machines = tuple(sorted(rng.sample(range(1, m + 1),
                                       rng.randint(1, min(MAX_ELIGIBLE, m)))))
    return machines, {k: rng.randint(1, p_max) for k in machines}


def dag_instance(rng: random.Random, name: str, n: int, m: int) -> Generated:
    eligible, std_time = [], {}
    for op in range(1, n + 1):
        machines, times = _operation(rng, m, 99)
        eligible.append(machines)
        std_time.update({(op, k): p for k, p in times.items()})
    arcs = tuple(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, min(n, i + DAG_ARC_SPAN) + 1)
        if rng.random() < DAG_ARC_PROB
    )
    lines = [f"{n} {m} {ALPHA}"]
    for op, machines in enumerate(eligible, start=1):
        pairs = " ".join(f"{k} {std_time[(op, k)]}" for k in machines)
        lines.append(f"{len(machines)} {pairs}")
    lines.append(str(len(arcs)))
    lines.extend(f"{i} {j}" for i, j in arcs)
    text = "\n".join(lines) + "\n"
    return Generated(name, "native", m, tuple(eligible), std_time, arcs,
                     ALPHA, text)


def chain_instance(rng: random.Random, name: str, jobs: int, ops_per_job: tuple,
                   m: int) -> Generated:
    """Jobs with ``ops_per_job[0]..ops_per_job[1]`` chained operations each."""
    eligible, std_time, arcs = [], {}, []
    job_lines = []
    for _ in range(jobs):
        count = rng.randint(*ops_per_job)
        parts = [str(count)]
        for step in range(count):
            op = len(eligible) + 1
            machines, times = _operation(rng, m, 19)
            eligible.append(machines)
            std_time.update({(op, k): p for k, p in times.items()})
            if step:
                arcs.append((op - 1, op))
            parts.append(str(len(machines)))
            parts.extend(f"{k} {times[k]}" for k in machines)
        job_lines.append(" ".join(parts))
    flexibility = sum(len(e) for e in eligible) / len(eligible)
    text = "\n".join([f"{jobs} {m} {flexibility:.2f}"] + job_lines) + "\n"
    return Generated(name, "classical", m, tuple(eligible), std_time,
                     tuple(arcs), ALPHA, text)


def fingerprint(generated) -> str:
    """SHA-256 over every instance's name and text, in workload order."""
    digest = hashlib.sha256()
    for g in generated:
        digest.update(f"{g.name}\n{g.fmt}\n".encode())
        digest.update(g.text.encode())
    return digest.hexdigest()


def round_trip_errors(g: Generated, inst) -> list:
    """Differences between the generated data and the parsed Instance."""
    errors = []
    if inst.num_operations != g.num_operations:
        errors.append(f"{g.name}: {inst.num_operations} operations parsed, "
                      f"{g.num_operations} generated")
    if inst.num_machines != g.num_machines:
        errors.append(f"{g.name}: machine count differs")
    if tuple(inst.eligible) != g.eligible:
        errors.append(f"{g.name}: eligibility differs")
    if dict(inst.std_time) != g.std_time:
        errors.append(f"{g.name}: standard times differ")
    if sorted(inst.precedence_arcs) != list(g.arcs):
        errors.append(f"{g.name}: precedence arcs differ")
    if inst.learning_rate != g.alpha:
        errors.append(f"{g.name}: learning rate differs")
    if (g.fmt == "native"
            and flexshop.instance.serialize_instance(inst) != g.text):
        errors.append(f"{g.name}: serialize(parse(text)) != text")
    return errors
