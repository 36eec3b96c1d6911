"""Trajectory metaheuristics: ILS, GRASP, tabu search, simulated annealing.

All four start from the better of the two constructive heuristics
(``best_of_est_ect``; GRASP's are randomized) and share the remove/insert
move machinery.  ``run`` is the one entry: it dispatches on the
configuration's ``algo``.  A run's bookkeeping lives in ``_Run``: its one
seeded RNG, the descent that ILS and GRASP embed, the candidate clock, the
incumbent and the stop.  Budgets can be wall-clock seconds, an iteration
cap (for deterministic testing), or both.
"""

import math
import random
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from .instance import Instance
from .graph import Schedule
from .moves import NEIGHBORHOOD_MODES, best_neighbor, random_relocation
from .local_search import LocalSearchConfig, check_seconds, local_search
from .constructive import best_of_est_ect

__all__ = [
    "ALGORITHMS",
    "MetaConfig",
    "RunRecord",
    "perturb",
    "run",
]

ALGORITHMS = ("ils", "grasp", "ts", "sa")

CHECK_EVERY = 64  # wall-clock poll interval, in candidate evaluations

# simulated annealing: candidates per temperature step; the initial
# temperature accepts a relative worsening of SA_T0_P with probability
# SA_T0_M; geometric cooling by SA_DELTA down to the floor SA_TF
SA_SWEEP = 3
SA_T0_P = 0.78
SA_T0_M = 0.79
SA_TF = 1e-3
SA_DELTA = 0.82

# calibrated parameters that differ from MetaConfig's defaults, which are
# the reduced neighborhood's calibration; keyed by (algorithm, mode)
_CALIBRATED = {
    ("ils", "cropped"): {"ils_perturb_min": 1, "ils_perturb_max": 3},
    ("grasp", "cropped"): {"grasp_alpha": 0.59},
    ("ts", "cropped"): {"ts_factor": 0.5},
}


@dataclass(frozen=True)
class MetaConfig:
    algo: str = "ils"
    mode: str = "reduced"  # neighborhood used by the embedded search
    time_budget: float | None = None  # wall-clock seconds
    max_iterations: int | None = None  # outer-loop cap, for determinism
    seed: int = 0
    ils_perturb_min: int = 2
    ils_perturb_max: int = 4
    grasp_alpha: float = 0.38
    ts_factor: float = 0.9
    # stop once the incumbent reaches it.  ILS and GRASP test it after
    # each applied move of a descent and return that move's schedule
    target_makespan: int | None = None
    # seconds; opt-in secondary stop.  ILS and GRASP test it after each
    # applied move of a descent, so a run stops within one scan of it
    no_improve_limit: float | None = None

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.mode not in NEIGHBORHOOD_MODES:
            raise ValueError(f"unknown neighborhood mode {self.mode!r}")
        if not 1 <= self.ils_perturb_min <= self.ils_perturb_max:
            raise ValueError("need 1 <= ils_perturb_min <= ils_perturb_max")
        if not 0 <= self.grasp_alpha <= 1:
            raise ValueError(
                f"grasp_alpha must lie in [0, 1], got {self.grasp_alpha}")
        if not (math.isfinite(self.ts_factor) and self.ts_factor > 0):
            raise ValueError(
                f"ts_factor must be finite and > 0, got {self.ts_factor}")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError(
                f"max_iterations must be >= 0, got {self.max_iterations}")
        check_seconds("time_budget", self.time_budget)
        check_seconds("no_improve_limit", self.no_improve_limit)

    @property
    def has_stop(self) -> bool:
        """Whether ``time_budget``, ``max_iterations`` or
        ``no_improve_limit`` is set and finite: a run ends only on one of
        them, as a target may never be reached."""
        stops = (self.time_budget, self.max_iterations, self.no_improve_limit)
        return any(s is not None and math.isfinite(s) for s in stops)

    @property
    def label(self) -> str:
        """The ``algorithm`` of this config's records."""
        return f"{self.algo}-{self.mode}"

    def ts_list_size(self, inst: Instance) -> int:
        return math.ceil((inst.num_operations + inst.num_machines) * self.ts_factor)

    @classmethod
    def calibrated(cls, algo: str, mode: str = "reduced", **overrides) -> "MetaConfig":
        """Config preloaded with the calibrated defaults for (algo, mode)."""
        params = dict(_CALIBRATED.get((algo, mode), {}))
        params.update(overrides)
        return cls(algo=algo, mode=mode, **params)


@dataclass
class RunRecord:
    instance_id: str
    algorithm: str
    seed: int
    best_makespan: int
    time_to_best: float
    total_runtime: float
    iterations: int
    neighbors_evaluated: int
    stalled_iterations: int
    stop_reason: str
    schedule: Schedule | None = field(default=None, repr=False, compare=False)


class _Run:
    """Per-run bookkeeping: seeded RNG, clock, budget, counters and
    incumbent tracking."""

    def __init__(self, inst: Instance, cfg: MetaConfig):
        self.inst = inst
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.started = time.monotonic()
        self.deadline = (
            None if cfg.time_budget is None else self.started + cfg.time_budget
        )
        self.iterations = 0
        self.neighbors = 0
        self.stalled = 0
        self.incumbent: Schedule | None = None
        self.time_to_best = 0.0
        self.stop_reason = "budget"

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def descend(self, start: Schedule) -> Schedule:
        """One iteration of ILS or GRASP: best-improvement local search
        from ``start`` within the time left; its neighbors are counted.
        Each applied move is offered as it is made, and the descent ends
        at the first one after which the run must stop."""
        left = (None if self.deadline is None
                else max(0.0, self.deadline - time.monotonic()))
        result = local_search(self.inst, start,
                              LocalSearchConfig(self.cfg.mode, "best", left),
                              self.must_stop)
        self.neighbors += result.neighbors_evaluated
        self.iterations += 1
        return result.schedule

    def must_stop(self, sched: Schedule) -> bool:
        """Offer one applied move of a descent; True when it reaches the
        target or the run is out of time."""
        return self.offer(sched) or self.out_of_time()

    def record_candidate(self) -> bool:
        """Count one candidate evaluation; True when the run must stop.
        The clock is read every ``CHECK_EVERY`` candidates."""
        self.neighbors += 1
        return not self.neighbors % CHECK_EVERY and self.out_of_time()

    def out_of_time(self) -> bool:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            self.stop_reason = "budget"
            return True
        if (self.cfg.no_improve_limit is not None
                and self.elapsed() - self.time_to_best
                > self.cfg.no_improve_limit):
            self.stop_reason = "no-improvement"
            return True
        return False

    def exhausted(self) -> bool:
        if (self.cfg.max_iterations is not None
                and self.iterations >= self.cfg.max_iterations):
            self.stop_reason = "iteration-cap"
            return True
        return self.out_of_time()

    def offer(self, sched: Schedule) -> bool:
        """Update the incumbent; True when the target makespan is reached."""
        if self.incumbent is None or sched.makespan < self.incumbent.makespan:
            self.incumbent = sched
            self.time_to_best = self.elapsed()
        if (self.cfg.target_makespan is not None
                and self.incumbent.makespan <= self.cfg.target_makespan):
            self.stop_reason = "target"
            return True
        return False

    def finish(self) -> RunRecord:
        assert self.incumbent is not None
        # callers keep records by the thousand: drop the timing, but walk
        # the path while it is there
        kept = replace(self.incumbent, timing=None)
        kept.critical_path = self.incumbent.critical_path
        return RunRecord(
            self.inst.name,
            self.cfg.label,
            self.cfg.seed,
            self.incumbent.makespan,
            self.time_to_best,
            self.elapsed(),
            self.iterations,
            self.neighbors,
            self.stalled,
            self.stop_reason,
            kept,
        )


# one random relocation, built: ILS's perturbation step and SA's candidate
perturb = random_relocation


def _ils(inst: Instance, cfg: MetaConfig) -> RunRecord:
    """Iterated local search: descend, perturb the local optimum, repeat.
    A run that must stop stops after its descent, before a perturbation it
    would not descend from."""
    run = _Run(inst, cfg)
    current = best_of_est_ect(inst)
    if run.offer(current):
        return run.finish()
    while not run.exhausted():
        current = run.descend(current)
        if run.offer(current) or run.exhausted():
            break
        for _ in range(run.rng.randint(cfg.ils_perturb_min,
                                       cfg.ils_perturb_max)):
            current = perturb(inst, current, run.rng)
    return run.finish()


def _grasp(inst: Instance, cfg: MetaConfig) -> RunRecord:
    """GRASP: randomized construction plus local search, best kept.

    At least one iteration always runs so the incumbent is well defined.
    """
    run = _Run(inst, cfg)
    while not run.offer(run.descend(
            best_of_est_ect(inst, cfg.grasp_alpha, run.rng))):
        if run.exhausted():
            break
    return run.finish()


def _ts(inst: Instance, cfg: MetaConfig) -> RunRecord:
    """Tabu search over the configured neighborhood (``cfg.mode``).

    The chosen move's (operation, machine) pair becomes the newest tabu
    entry; the memory is a set of at most ``ts_list_size`` pairs ordered
    oldest first, so a membership test costs O(1).  Each scan chooses with
    ``best_neighbor``: a tabu move is still admissible when it beats both
    the scan's best and the incumbent, and a move that either lower bound
    rules out is not priced.  A scan with no admissible move evicts the
    oldest tabu entry and is counted as stalled.
    """
    run = _Run(inst, cfg)
    current = best_of_est_ect(inst)
    if run.offer(current):
        return run.finish()
    tabu: OrderedDict = OrderedDict()  # (operation, machine), oldest first
    t_max = cfg.ts_list_size(inst)
    while not run.exhausted():
        best, cut = best_neighbor(
            inst, current, cfg.mode,
            lambda m: (run.incumbent.makespan
                       if (m.operation, m.machine) in tabu else math.inf),
            run.record_candidate)
        run.iterations += 1
        if best is not None:
            chosen = (best.operation, best.machine)
            tabu[chosen] = None
            tabu.move_to_end(chosen)
            if len(tabu) > t_max:
                tabu.popitem(last=False)
            current = best.schedule
            if run.offer(current):
                break
        elif not cut:
            run.stalled += 1
            if tabu:
                tabu.popitem(last=False)
        if cut:
            break
    return run.finish()


def _sa(inst: Instance, cfg: MetaConfig) -> RunRecord:
    """Simulated annealing with geometric cooling on the relative gap.

    Each candidate is ``perturb``'s random relocation, built by one edit
    of the current schedule's graph and read for its makespan.  A
    candidate no worse than the current schedule is always accepted, a
    worse one with probability exp(-(gap / C) / T) for the current
    makespan C > 0, and never from C = 0, which has no relative gap.
    """
    run = _Run(inst, cfg)
    current = best_of_est_ect(inst)
    if run.offer(current):
        return run.finish()
    temperature = -SA_T0_P / math.log(SA_T0_M)
    while not run.exhausted():
        stop = False
        for _ in range(SA_SWEEP):
            cand = perturb(inst, current, run.rng)
            r = run.rng.random()
            gap = cand.makespan - current.makespan
            if gap <= 0 or (current.makespan and math.exp(
                    -(gap / current.makespan) / temperature) >= r):
                current = cand
                stop = run.offer(current)
            stop = stop or run.record_candidate()
            if stop:
                break
        run.iterations += 1
        if stop:
            break
        temperature = max(SA_DELTA * temperature, SA_TF)
    return run.finish()


_RUNNERS = {"ils": _ils, "grasp": _grasp, "ts": _ts, "sa": _sa}


def run(inst: Instance, cfg: MetaConfig) -> RunRecord:
    """Run the metaheuristic that ``cfg.algo`` names on ``inst``.  Raises
    ValueError unless ``cfg.has_stop``."""
    if not cfg.has_stop:
        raise ValueError("a run needs a finite time_budget, max_iterations "
                         "or no_improve_limit")
    return _RUNNERS[cfg.algo](inst, cfg)
