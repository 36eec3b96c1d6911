"""Local search over the remove/insert neighborhood.

Six variants: {full, reduced, cropped} neighborhood x {best, first}
improvement.  Best improvement scans the whole neighborhood and keeps the
first-encountered strict minimum; first improvement accepts the first
strictly improving neighbor and restarts the scan.  Both choose with
``moves.best_neighbor``, as tabu search does: a neighbor counts only if it
beats a cutoff, the best improving makespan found so far in the scan or
the current one.  Its two lower bounds are tested first (``Move.beats``),
so a neighbor that either rules out is never priced; a Schedule is built
only for the move that is applied.
"""

import time
from dataclasses import dataclass, field

from .instance import Instance
from .graph import Schedule, solution_key
from .moves import NEIGHBORHOOD_MODES, best_neighbor

__all__ = ["LocalSearchConfig", "LocalSearchResult", "local_search"]

STRATEGIES = ("best", "first")


def check_seconds(name: str, value) -> None:
    """Reject a negative or NaN duration; ``None`` (no limit) and 0 pass."""
    if value is not None and not value >= 0:
        raise ValueError(f"{name} must be >= 0 seconds, got {value}")


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
        check_seconds("time_budget", self.time_budget)


@dataclass
class LocalSearchResult:
    schedule: Schedule
    iterations: int  # accepted moves
    neighbors_evaluated: int
    # the machine sequences of every iterate, starting solution included
    iterates: list = field(default_factory=list)

    @property
    def trajectory(self) -> list:
        """The identity (``Schedule.key``) of every iterate, starting
        solution included, worked out when read."""
        return [solution_key(sequences) for sequences in self.iterates]


def local_search(inst: Instance, start: Schedule,
                 cfg: LocalSearchConfig = LocalSearchConfig()
                 ) -> LocalSearchResult:
    """Descend from ``start`` until no neighbor strictly improves.

    The result is monotone (makespan never increases) and deterministic:
    ties among equally good neighbors break by scan order.  With a time
    budget the clock is read before each neighbor and after each applied
    move; a scan may be abandoned mid-neighborhood, and the best improving
    move found so far, if any, is still applied.  Each scan derives its
    removals from the timing its schedule carries.
    """
    deadline = None
    if cfg.time_budget is not None:
        deadline = time.monotonic() + cfg.time_budget
    current = start
    result = LocalSearchResult(current, 0, 0, [current.sequences])

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    def stop() -> bool:
        result.neighbors_evaluated += 1
        return out_of_time()

    while True:
        best, _ = best_neighbor(inst, current, cfg.mode,
                                lambda move: current.makespan, stop,
                                cfg.strategy == "first")
        if best is None:
            break
        current = best.schedule
        result.iterations += 1
        result.iterates.append(current.sequences)
        if out_of_time():
            break
    result.schedule = current
    return result
