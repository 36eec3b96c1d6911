"""The one selection rule of local search and tabu search.

``best_neighbor`` prices lazily and keeps a running best; the reference
prices every neighbor and picks, among the admissible ones (makespan below
the move's ceiling), the first of least makespan, or with ``first`` the
first admissible one.  Every scan of best- and first-improvement descents
and of tabu search runs on the behaviour digest's instances, half of them
tie-heavy, must choose the reference's move.
"""

import importlib
import random

import pytest

import flexshop.metaheuristics
from flexshop import (
    LocalSearchConfig,
    MetaConfig,
    enumerate_neighbors,
    local_search,
    run,
)
from flexshop.moves import NEIGHBORHOOD_MODES, best_neighbor

from test_behaviour_digest import _instances, _starts


def _key(move):
    return None if move is None else (move.operation, move.machine,
                                      move.position)


def _reference(moves, ceiling, first=False):
    """The chosen move of a fully priced neighbor list."""
    admissible = [m for m in moves if m.makespan < ceiling(m)]
    if not admissible:
        return None
    if first:
        return admissible[0]
    least = min(m.makespan for m in admissible)
    return next(m for m in admissible if m.makespan == least)


@pytest.fixture(scope="module")
def cases():
    return [(inst, _starts(inst, seed)) for inst, seed in _instances()]


def test_every_scan_chooses_the_reference_move(cases, monkeypatch):
    scans = {"best": 0, "first": 0, "ts": 0}
    aspirated = []

    def checked(kind):
        def select(inst, sched, mode, ceiling, stop, first=False):
            move, cut = best_neighbor(inst, sched, mode, ceiling, stop, first)
            assert not cut
            moves = list(enumerate_neighbors(inst, sched, mode))
            assert _key(move) == _key(_reference(moves, ceiling, first))
            if kind == "ts":
                scans["ts"] += 1
                if move is not None and ceiling(move) != float("inf"):
                    aspirated.append(move)
            else:
                scans["first" if first else "best"] += 1
            return move, cut
        return select

    # the package re-exports the function under its module's name
    descent = importlib.import_module("flexshop.local_search")
    monkeypatch.setattr(descent, "best_neighbor",
                        checked("descent"))
    monkeypatch.setattr(flexshop.metaheuristics, "best_neighbor",
                        checked("ts"))
    for index, (inst, starts) in enumerate(cases):
        for mode in NEIGHBORHOOD_MODES:
            for sched in starts[:2]:
                for strategy in ("best", "first"):
                    local_search(inst, sched, LocalSearchConfig(mode, strategy))
            # a short tabu list evicts, a long one re-meets tabu pairs
            for factor in (0.05, 0.9):
                run(inst, MetaConfig.calibrated("ts", mode, ts_factor=factor,
                                                max_iterations=15))
    assert all(scans.values()), scans
    assert aspirated  # a tabu move beat the incumbent and was chosen


def test_a_stop_keeps_the_best_of_the_neighbors_before_it(cases):
    """A ``stop`` that first answers True before neighbor j (1-based) cuts
    the scan to the choice among neighbors 1..j-1; one that never does
    leaves it whole."""
    rng = random.Random(2026)
    for inst, starts in cases[:20]:
        for sched, mode in zip(starts, NEIGHBORHOOD_MODES * 2):
            moves = list(enumerate_neighbors(inst, sched, mode))
            tabu = {(m.operation, m.machine) for m in moves
                    if rng.random() < 0.3}
            incumbent = sched.makespan - rng.randint(0, 2)
            ceilings = [
                lambda m: sched.makespan,
                lambda m: (incumbent if (m.operation, m.machine) in tabu
                           else float("inf")),
            ]
            for ceiling in ceilings:
                for first in (False, True):
                    for j in {1, 2, len(moves) or 1, len(moves) + 1,
                              rng.randint(1, len(moves) + 1)}:
                        asked = []

                        def stop():
                            asked.append(1)
                            return len(asked) == j

                        move, cut = best_neighbor(inst, sched, mode, ceiling,
                                                  stop, first)
                        expected = _reference(moves[:j - 1], ceiling, first)
                        assert _key(move) == _key(expected)
                        if cut:
                            assert len(asked) == j
                        else:
                            # the whole scan, or the first admissible move
                            # before neighbor j
                            assert j > len(moves) or (
                                first and expected is not None)
