"""Independent cross-checks against networkx and scipy (skipped when the
package is not installed)."""

import random

import pytest

from flexshop import best_of_est_ect, remove_op, start_completion_times, wilcoxon
from flexshop.graph import build_arcs

from conftest import random_instance, random_schedule


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
                assert rs.xi == _longest_path(
                    nx, build_arcs(inst, rs.q_minus), rs.w_minus)


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
