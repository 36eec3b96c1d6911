"""Local search over the remove/insert neighborhood.

Six variants: {full, reduced, cropped} neighborhood x {best, first}
improvement.  Best improvement scans the whole neighborhood and keeps the
first-encountered strict minimum; first improvement accepts the first
strictly improving neighbor and restarts the scan.  Neighbors are compared
by their incrementally computed makespan; a Schedule is built only for the
move that is applied.
"""

import time
from dataclasses import dataclass, field

from .instance import Instance
from .graph import Schedule
from .moves import NEIGHBORHOOD_MODES, enumerate_neighbors

__all__ = ["LocalSearchConfig", "LocalSearchResult", "local_search"]

STRATEGIES = ("best", "first")


@dataclass(frozen=True)
class LocalSearchConfig:
    mode: str = "reduced"
    strategy: str = "best"
    time_budget: float | None = None  # seconds; None = run to local optimum

    def __post_init__(self):
        if self.mode not in NEIGHBORHOOD_MODES:
            raise ValueError(f"unknown neighborhood mode {self.mode!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class LocalSearchResult:
    schedule: Schedule
    iterations: int  # accepted moves
    neighbors_evaluated: int
    # identity of every iterate, starting solution included
    trajectory: list = field(default_factory=list)


def local_search(inst: Instance, start: Schedule,
                 cfg: LocalSearchConfig = LocalSearchConfig()) -> LocalSearchResult:
    """Descend from ``start`` until no neighbor strictly improves.

    The result is monotone (makespan never increases) and deterministic:
    ties among equally good neighbors break by scan order.  With a time
    budget, a scan may be abandoned mid-neighborhood; the best improving
    move found so far, if any, is still applied.
    """
    deadline = None
    if cfg.time_budget is not None:
        deadline = time.monotonic() + cfg.time_budget
    current = start
    result = LocalSearchResult(current, 0, 0, [current.key()])
    while True:
        best = None
        for move in enumerate_neighbors(inst, current, cfg.mode):
            result.neighbors_evaluated += 1
            if best is None or move.makespan < best.makespan:
                best = move
            if cfg.strategy == "first" and best.makespan < current.makespan:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
        if best is not None and best.makespan < current.makespan:
            current = best.schedule
            result.iterations += 1
            result.trajectory.append(current.key())
        else:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
    result.schedule = current
    return result
