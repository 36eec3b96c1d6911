"""Flexible job shop scheduling with sequencing flexibility and
position-based learning effect: local search, trajectory metaheuristics,
exhaustive oracle and a benchmark harness."""

from .instance import (
    Instance,
    InstanceError,
    import_classical_fjs,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from .learning import actual_time
from .graph import (
    CycleError,
    Schedule,
    ScheduleError,
    build_schedule,
    critical_path,
    reachable_from,
    schedule_to_dict,
    schedule_to_json,
    start_completion_times,
    topological_sort_plus,
    validate_schedule,
)
from .moves import (
    InsertionWindow,
    Move,
    ReducedState,
    enumerate_neighbors,
    feasible_window,
    insert_op,
    remove_op,
)
from .local_search import LocalSearchConfig, LocalSearchResult, local_search
from .constructive import best_of_est_ect, construct_ect, construct_est
from .metaheuristics import MetaConfig, RunRecord, perturb, run
from .oracle import OracleLimitError, OracleResult, solve_exhaustive
from .harness import emit_results, gap_stats, run_benchmark, wilcoxon

__version__ = "0.1.0"
