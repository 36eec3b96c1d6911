"""Acceptance gate: one test per release criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure) in addition to asserting.
"""

import random
import time

import pytest

from flexshop import (
    LocalSearchConfig,
    MetaConfig,
    actual_time,
    best_of_est_ect,
    build_schedule,
    construct_ect,
    construct_est,
    enumerate_neighbors,
    local_search,
    parse_instance,
    perturb,
    run,
    schedule_to_json,
    solve_exhaustive,
    validate_schedule,
    wilcoxon,
)

from conftest import FIG1_TEXT, random_instance


def _report(number: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


@pytest.fixture(scope="module")
def fig1():
    return parse_instance(FIG1_TEXT, "fig1")


@pytest.fixture(scope="module")
def fig2a(fig1):
    return build_schedule(fig1, [[2], [1, 4, 5, 3]])


def test_criterion_1_learning_goldens():
    goldens = {(1, 1): 100, (10, 2): 500, (1, 3): 33, (1, 4): 25,
               (1, 2): 50, (10, 3): 333, (1, 5): 20}
    failures = {pr: actual_time(p, r, 1.0)
                for pr in goldens
                for p, r in [pr]
                if actual_time(p, r, 1.0) != goldens[pr]}
    _report(1, not failures, f"mismatches: {failures}" if failures else "")


def test_criterion_2_makespan_goldens(fig1, fig2a):
    b = build_schedule(fig1, [[], [1, 2, 4, 5, 3]])
    ok = (fig2a.makespan == 658
          and fig2a.critical_path == (0, 1, 4, 5, 3, 6)
          and b.makespan == 528
          and b.critical_path == (0, 1, 2, 4, 5, 3, 6))
    _report(2, ok, f"got {fig2a.makespan}/{b.makespan}")


def test_criterion_3_learning_breaks_critical_path(fig1, fig2a):
    reduced = [(m.operation, m.machine, m.position, m.schedule.makespan)
               for m in enumerate_neighbors(fig1, fig2a, "reduced")]
    cropped = [m.operation for m in enumerate_neighbors(fig1, fig2a, "cropped")]
    ok = (2, 2, 2, 528) in reduced and 2 not in cropped
    _report(3, ok)


def test_criterion_3_without_learning_improving_moves_are_critical():
    """Criterion 3's partner at α = 0, the abstract's case without a
    learning effect: every improving full-neighborhood move relocates an
    operation on ``Schedule.critical_path``.  The law is exact: with times
    that do not depend on position, relocating an operation off the walked
    path leaves that path in G⁺, at worst with a detour through the moved
    operation, so the makespan cannot fall.  Random DAGs, half of them
    tie-heavy (times in {1, 2}), from greedy and perturbed starts."""
    rng = random.Random(3)
    improving = 0
    for case in range(120):
        inst = random_instance(rng, max_ops=10, max_machines=3, alphas=(0.0,),
                               max_time=2 if case % 2 else 10)
        sched = best_of_est_ect(inst)
        for _ in range(case % 3):
            sched = perturb(inst, sched, rng)
        path = set(sched.critical_path)
        for move in enumerate_neighbors(inst, sched, "full"):
            if move.makespan < sched.makespan:
                assert move.schedule.makespan == move.makespan
                assert move.operation in path, (case, move.operation)
                improving += 1
    _report(3, improving > 150, f"{improving} improving moves at α = 0, "
            "each relocating a critical operation")


def test_criterion_4_full_equals_reduced():
    rng = random.Random(2024)
    started = time.monotonic()
    savings = []
    for i in range(200):
        inst = random_instance(rng, max_ops=10, max_machines=3)
        start = best_of_est_ect(inst)
        full = local_search(inst, start, LocalSearchConfig("full", "best"))
        red = local_search(inst, start, LocalSearchConfig("reduced", "best"))
        if (full.trajectory != red.trajectory
                or full.schedule.makespan != red.schedule.makespan
                or red.neighbors_evaluated > full.neighbors_evaluated):
            _report(4, False, f"instance #{i} diverged")
        if full.neighbors_evaluated:
            savings.append(
                1 - red.neighbors_evaluated / full.neighbors_evaluated
            )
    elapsed = time.monotonic() - started
    mean_saving = 100 * sum(savings) / len(savings)
    _report(4, True,
            f"200 instances, {elapsed:.1f}s, "
            f"mean neighbor saving {mean_saving:.1f}%")


def test_criterion_5_reduction_safety():
    """The reduced neighborhood keeps every improving move: 100 instances
    at the learning rates 0.1-0.3 and 50 at α = 0."""
    rng = random.Random(5)
    violations = 0
    pruned_total = 0
    for case in range(150):
        inst = random_instance(rng, max_ops=8, max_machines=3,
                               alphas=(0.0,) if case >= 100 else
                               (0.1, 0.2, 0.3))
        sched = best_of_est_ect(inst)
        kept = {(m.operation, m.machine, m.position)
                for m in enumerate_neighbors(inst, sched, "reduced")}
        for move in enumerate_neighbors(inst, sched, "full"):
            if (move.operation, move.machine, move.position) not in kept:
                pruned_total += 1
                if move.schedule.makespan < sched.makespan:
                    violations += 1
    _report(5, violations == 0,
            f"{pruned_total} pruned neighbors force-evaluated, "
            f"{violations} violations")


def test_criterion_6_oracle_optimality_desk_scale():
    rng = random.Random(6)
    instances = []
    while len(instances) < 50:
        inst = random_instance(rng, max_ops=7, max_machines=2)
        if inst.num_machines == 2:
            instances.append(inst)
    optima = [solve_exhaustive(inst, limit=2_000_000).optimal_makespan
              for inst in instances]
    hits = {algo: 0 for algo in ("ils", "grasp", "ts", "sa")}
    for inst, optimum in zip(instances, optima):
        for algo in hits:
            # TS draws no random number: its seeds would repeat one run
            for seed in range(1 if algo == "ts" else 5):
                # the cap ends a run that misses; every hit takes at most
                # 11 (ILS), 3 (GRASP), 8 (TS) or 86 (SA) iterations
                cfg = MetaConfig.calibrated(
                    algo, "reduced", time_budget=2.0, seed=seed,
                    max_iterations=1000 if algo == "sa" else 100,
                    target_makespan=optimum,
                )
                record = run(inst, cfg)
                if record.best_makespan == optimum:
                    hits[algo] += 1
                    break
    rates = {algo: n / 50 for algo, n in hits.items()}
    ok = rates["ils"] >= 0.90 and all(
        rates[a] >= 0.80 for a in ("grasp", "ts", "sa")
    )
    _report(6, ok, "hit rates " + ", ".join(
        f"{a}={rates[a]:.0%}" for a in ("ils", "grasp", "ts", "sa")))


def test_criterion_7_feasibility_fuzzing():
    rng = random.Random(7)
    operations = 0
    bad = 0

    def check(inst, sched):
        nonlocal operations, bad
        operations += 1
        if validate_schedule(inst, sched):
            bad += 1

    while operations < 10_000:
        inst = random_instance(rng, max_ops=7, max_machines=3)
        est = construct_est(inst, rcl_alpha=0.5, rng=rng)
        ect = construct_ect(inst, rcl_alpha=0.5, rng=rng)
        check(inst, est)
        check(inst, ect)
        sched = est
        for _ in range(6):
            sched = perturb(inst, sched, rng)
            check(inst, sched)
        for move in enumerate_neighbors(inst, sched, "full"):
            check(inst, move.schedule)
        algo = ("ils", "grasp", "ts", "sa")[rng.randrange(4)]
        record = run(inst, MetaConfig.calibrated(
            algo, "reduced", max_iterations=2, seed=rng.randrange(10**6)))
        check(inst, record.schedule)
    _report(7, bad == 0, f"{operations} schedules validated, {bad} failures")


def test_criterion_8_wilcoxon_unit():
    hand = wilcoxon([(10, 11), (12, 10), (8, 8)])
    ok = (hand.r_plus, hand.r_minus, hand.w) == (1, 2, -1)
    rng = random.Random(8)
    trials = 0
    while trials < 1000:
        n = rng.randint(1, 15)
        pairs = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(n)]
        if all(a == b for a, b in pairs):
            continue
        trials += 1
        outcome = wilcoxon(pairs)
        if outcome.r_plus + outcome.r_minus != outcome.n * (outcome.n + 1) / 2:
            ok = False
            break
    _report(8, ok, f"{trials} random identity checks")


def test_criterion_9_determinism(fig1):
    serializations = []
    for _ in range(2):
        batch = []
        for algo in ("ils", "grasp", "ts", "sa"):
            cfg = MetaConfig.calibrated(algo, "reduced", max_iterations=12,
                                        seed=9)
            batch.append(schedule_to_json(fig1, run(fig1, cfg).schedule))
        serializations.append(batch)
    ok = serializations[0] == serializations[1]
    _report(9, ok)


def test_criterion_10_public_instance_spot_check():
    # optional and non-gating: runs only when public benchmark instances
    # have been downloaded into examples/instances/
    from pathlib import Path

    directory = Path(__file__).resolve().parent.parent / "examples" / "instances"
    files = sorted(directory.glob("*.fjs")) if directory.is_dir() else []
    if not files:
        print("[criterion 10] SKIP (no public instances present)")
        pytest.skip("public benchmark instances not downloaded")
    from flexshop.harness import load_instance_file

    for path in files[:3]:
        inst = load_instance_file(path, fmt="classical", learning_rate=0.1)
        result = local_search(inst, best_of_est_ect(inst),
                              LocalSearchConfig("reduced", "best"))
        print(f"[criterion 10] {path.name}: makespan {result.schedule.makespan}")
    _report(10, True, "informational only")
