"""Per-layer metrics of a traced run, each with its unit.

Counts and self times are per traced round (a set-up pass plus one pass
over the job list); percentiles are of inclusive per-call durations.
Ratios whose base is zero on a workload (say, SA acceptance where no SA
runs in this process) read 0.
"""

import statistics

# (span name, figures reported for it)
SPAN_FIGURES = (
    ("graph.build_schedule", ("calls", "self_s", "us_p50", "us_p99")),
    ("graph.critical_path", ("calls", "self_s")),
    ("graph.topological_sort_plus", ("calls", "self_s")),
    ("graph.build_arcs", ("calls", "self_s")),
    ("graph.reachable_from", ("calls", "self_s")),
    ("moves.remove_op", ("calls", "self_s", "us_p50", "us_p99")),
    ("moves.insert_op", ("calls", "self_s", "us_p50")),
    ("moves.enumerate_neighbors", ("calls", "self_s")),
    ("local_search", ("calls", "self_s")),
    ("constructive.construct_est", ("calls", "self_s")),
    ("constructive.construct_ect", ("calls", "self_s")),
    ("instance.parse", ("calls", "self_s")),
    ("instance.predecessors", ("calls", "self_s")),
    ("metaheuristics.run", ("calls", "self_s")),
    ("metaheuristics.perturb", ("calls", "self_s")),
    ("harness.run_benchmark", ("self_s",)),
    ("harness.load_instance_file", ("calls",)),
    ("harness.emit_results", ("self_s",)),
)
UNITS = {"calls": "count", "self_s": "s", "us_p50": "us", "us_p99": "us"}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer, wl, untraced, traced) -> dict:
    """name -> (value, unit) for every per-layer metric."""
    rounds = len(traced)
    stats = tracer.layer_stats(rounds)
    out = {}
    for span, figures in SPAN_FIGURES:
        for fig in figures:
            out[f"{span}.{fig}"] = (stats[span][fig], UNITS[fig])

    records = [r.record for rnd in traced for r in rnd.results
               if r.record is not None]
    ts = [r for r in records if r.algorithm.startswith("ts")]
    ts_moves = sum(r.iterations - r.stalled_iterations for r in ts)
    accepted = (tracer.ls_accepted + ts_moves + tracer.sa_accepted
                + tracer.adopted_perturbs)
    built = stats["graph.build_schedule"]["calls"] * rounds
    scans = stats["moves.enumerate_neighbors"]["calls"]
    descents = stats["local_search"]["calls"]
    # the parent's wait also covers the workers' host-speed samples
    pool_wait = (stats["harness.pool_wait"]["self_s"]
                 - sum(r.calibration_s for r in traced) / rounds)

    out.update({
        "moves.feasible_window.calls": (tracer.window_calls[0] / rounds,
                                        "count"),
        "moves.kept_ratio": (_ratio(tracer.kept_slots,
                                    tracer.cycle_free_slots), "ratio"),
        "moves.materialized_ratio": (_ratio(accepted, built), "ratio"),
        "learning.actual_time.calls": (tracer.actual_time_calls[0] / rounds,
                                       "count"),
        "local_search.scans_per_call": (_ratio(scans, descents), "scans/call"),
        "local_search.improving_ratio": (_ratio(tracer.ls_accepted,
                                                tracer.ls_evaluated), "ratio"),
        "metaheuristics.sa.accept_ratio": (_ratio(tracer.sa_accepted,
                                                  tracer.sa_decisions), "ratio"),
        "metaheuristics.ts.stalled_ratio": (
            _ratio(sum(r.stalled_iterations for r in ts),
                   sum(r.iterations for r in ts)), "ratio"),
        "harness.pool_wait_s": (pool_wait, "s"),
    })

    untraced_ref = statistics.median(r.ref_seconds or 0.0 for r in untraced)
    traced_ref = statistics.median(r.ref_seconds or 0.0 for r in traced)
    traced_wall = sum(r.seconds or 0.0 for r in traced) / rounds
    graph_moves = sum(stats[name]["self_s"] for name in stats
                      if name.startswith(("graph.", "moves.")))
    out.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_ratio": (_ratio(traced_ref, untraced_ref), "ratio"),
        "trace.graph_moves_share": (_ratio(graph_moves, traced_wall), "ratio"),
    })
    return out
