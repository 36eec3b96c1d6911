"""Independent cross-checks against networkx and scipy (skipped when the
package is not installed)."""

import random
from dataclasses import replace

import pytest

from flexshop import best_of_est_ect, remove_op, start_completion_times, wilcoxon
from flexshop.graph import build_arcs
from flexshop.moves import _ScanTable

from conftest import random_instance, random_schedule, scratch_removal


def _longest_path(nx, adjacency, weights) -> int:
    graph = nx.DiGraph()
    for i, out in enumerate(adjacency):
        for j in out:
            graph.add_edge(i, j, weight=weights[i])
    return nx.dag_longest_path_length(graph)


@pytest.mark.parametrize("max_time", [10, 2])  # 2: standard times in {1, 2}
def test_longest_path_matches_networkx(max_time):
    nx = pytest.importorskip("networkx")
    rng = random.Random(max_time)
    for _ in range(40):
        inst = random_instance(rng, max_ops=10, max_time=max_time)
        for sched in (random_schedule(rng, inst), best_of_est_ect(inst)):
            length = _longest_path(nx, build_arcs(inst, sched.sequences),
                                   sched.actual_times)
            assert sched.makespan == length
            times = start_completion_times(inst, sched)
            assert max(c for _, c in times.values()) == length
            for v in inst.operations:
                rs = remove_op(inst, sched, v)
                want = scratch_removal(inst, sched, v)
                assert rs.xi == want.xi == _longest_path(
                    nx, build_arcs(inst, want.q_minus), want.w_minus)


@pytest.mark.parametrize("max_time", [10, 2])
def test_scan_table_tails_match_networkx(max_time):
    """Each vertex's tail in a scan's table is networkx's longest path
    from it to the sink, its own weight included."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(100 + max_time)
    for _ in range(40):
        inst = random_instance(rng, max_ops=10, max_time=max_time)
        # a schedule that carries no timing has its graph timed for the scan
        for sched in (replace(random_schedule(rng, inst), timing=None),
                      best_of_est_ect(inst)):
            arcs = build_arcs(inst, sched.sequences)
            table = _ScanTable(inst, sched)
            graph = nx.DiGraph()
            graph.add_nodes_from(range(len(arcs)))
            for i, out in enumerate(arcs):
                for j in out:
                    graph.add_edge(i, j, weight=sched.actual_times[i])
            # every path ends at the sink, which weighs 0; the longest path
            # below u starts at u, since no weight is negative
            assert table.tail == [
                nx.dag_longest_path_length(
                    graph.subgraph(nx.descendants(graph, u) | {u}))
                for u in range(len(arcs))]


def test_wilcoxon_matches_scipy_without_ties():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(3)
    for n in (5, 12, 30):
        # distinct nonzero magnitudes: no zero differences and no ties
        diffs = [rng.choice((-1, 1)) * d for d in rng.sample(range(1, 201), n)]
        c1 = [rng.randint(0, 1000) for _ in range(n)]
        c2 = [a + d for a, d in zip(c1, diffs)]
        ours = wilcoxon(list(zip(c1, c2)))
        theirs = stats.wilcoxon(c1, c2, method="approx", correction=False)
        assert ours.p_value == pytest.approx(theirs.pvalue, rel=1e-9)
