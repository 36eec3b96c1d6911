"""Correctness check for every run, made outside the timed region.

A returned schedule must pass the library's ``validate_schedule``. Its
makespan is then recomputed independently: learning-adjusted weights come
from the generator's own standard times, the arcs from the generator's own
precedence list plus the schedule's machine sequences, and the longest path
from ``networkx.dag_longest_path_length``. No code of ``flexshop.graph`` or
``flexshop.learning`` is involved in the recomputation.
"""

import math

import flexshop.graph


def independent_makespan(g, sequences) -> int:
    """Longest source-to-sink path of the solution graph, via networkx."""
    import networkx as nx  # loaded lazily: it must not count in peak RSS

    weight = {}
    for k, seq in enumerate(sequences, start=1):
        for pos, op in enumerate(seq, start=1):
            p = g.std_time[(op, k)]
            weight[op] = math.floor(100.0 * p / pos ** g.alpha + 0.5)
    graph = nx.DiGraph()
    for op in range(1, g.num_operations + 1):
        graph.add_edge("s", op, weight=0)
        graph.add_edge(op, "t", weight=weight[op])
    arcs = list(g.arcs)
    for seq in sequences:
        arcs.extend(zip(seq, seq[1:]))
    for i, j in arcs:
        graph.add_edge(i, j, weight=weight[i])
    return nx.dag_longest_path_length(graph, weight="weight")


def schedule_errors(g, inst, sched, claimed: int) -> list:
    """Violations of a returned schedule; empty when it is correct.

    ``claimed`` is the makespan the solver reported for the schedule.
    """
    import networkx as nx

    if sched is None:
        return [f"{g.name}: no schedule returned"]
    errors = [f"{g.name}: {v}"
              for v in flexshop.graph.validate_schedule(inst, sched)]
    if errors:
        return errors
    placed = sorted(op for seq in sched.sequences for op in seq)
    if placed != list(range(1, g.num_operations + 1)):
        return [f"{g.name}: sequences do not hold every operation once"]
    for k, seq in enumerate(sched.sequences, start=1):
        for op in seq:
            if k not in g.eligible[op - 1]:
                return [f"{g.name}: operation {op} on ineligible machine {k}"]
    try:
        length = independent_makespan(g, sched.sequences)
    except nx.NetworkXUnfeasible:
        return [f"{g.name}: solution graph has a cycle"]
    if not length == sched.makespan == claimed:
        errors.append(f"{g.name}: independent makespan {length}, schedule "
                      f"says {sched.makespan}, run reported {claimed}")
    return errors
