import json
import math
import multiprocessing
import os
import random
import time

import pytest

import flexshop.harness
from flexshop import (
    InstanceError, MetaConfig, emit_results, gap_stats, run_benchmark, wilcoxon,
)
from flexshop.harness import CSV_COLUMNS, load_instance_file, read_results_csv
from flexshop.metaheuristics import RunRecord

from conftest import FIG1_TEXT


def _record(instance, algorithm, seed, makespan):
    return RunRecord(instance, algorithm, seed, makespan, 0.1, 0.2, 3, 40, 0,
                     "iteration-cap")


def test_wilcoxon_hand_ranked_example():
    # diffs 1 and -2 (zero dropped): ranks 1 and 2
    outcome = wilcoxon([(10, 11), (12, 10), (8, 8)])
    assert outcome.r_plus == 1
    assert outcome.r_minus == 2
    assert outcome.w == -1
    assert outcome.n == 2
    assert outcome.small_sample
    sigma = math.sqrt(2 * 3 * 5 / 6)
    assert outcome.z == pytest.approx(-1 / sigma)
    assert outcome.p_value == pytest.approx(math.erfc(abs(outcome.z) / math.sqrt(2)))


def test_wilcoxon_one_sided_shift():
    # c2 = c1 + 1 everywhere: every rank is positive, mid-ranked at 2.5
    outcome = wilcoxon([(i, i + 1) for i in range(4)])
    assert outcome.r_plus == 10
    assert outcome.r_minus == 0
    assert outcome.w == 10


def test_wilcoxon_mid_ranks_on_ties():
    # |diffs| = {2, 2, 5}: the tied pair shares rank 1.5
    outcome = wilcoxon([(0, 2), (0, -2), (0, 5)])
    assert outcome.r_plus == 1.5 + 3
    assert outcome.r_minus == 1.5


def test_wilcoxon_rank_sum_identity():
    rng = random.Random(71)
    for _ in range(1000):
        n = rng.randint(1, 12)
        pairs = [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(n)]
        if all(a == b for a, b in pairs):
            continue
        outcome = wilcoxon(pairs)
        m = outcome.n
        assert outcome.r_plus + outcome.r_minus == m * (m + 1) / 2
        assert outcome.w == outcome.r_plus - outcome.r_minus


def test_wilcoxon_all_zero_raises():
    with pytest.raises(ValueError):
        wilcoxon([(5, 5), (7, 7)])


def test_wilcoxon_without_pairs_says_so():
    with pytest.raises(ValueError, match="^no paired values"):
        wilcoxon([])


def test_gap_stats_two_methods():
    records = [
        _record("a", "m1", 0, 100),
        _record("a", "m1", 1, 110),
        _record("a", "m2", 0, 105),
        _record("a", "m2", 1, 105),
    ]
    stats = gap_stats(records)
    table = stats["per_instance"]["a"]
    assert table["m1"]["best"] == 100
    assert table["m1"]["gap"] == 0.0
    assert table["m2"]["gap"] == pytest.approx(5.0)
    # means: m1 = 105, m2 = 105 -> both mean gaps zero
    assert table["m1"]["mean_gap"] == 0.0
    assert table["m2"]["mean_gap"] == 0.0
    assert stats["summary"]["m2"]["gap"] == pytest.approx(5.0)


def test_gap_stats_known_pair():
    records = [_record("x", "a", 0, 528), _record("x", "b", 0, 658)]
    table = gap_stats(records)["per_instance"]["x"]
    assert table["a"]["gap"] == 0.0
    assert table["b"]["gap"] == pytest.approx(100 * (658 - 528) / 528)


def test_gap_stats_skips_failed_records():
    records = [_record("a", "m1", 0, 100),
               _record("a", "m2", -1, -1)]
    stats = gap_stats(records)
    assert "m2" not in stats["per_instance"]["a"]


def test_csv_round_trip(tmp_path):
    failed = RunRecord("c", "ils-reduced", -1, -1, 0.0, 0.0, 0, 0, 0,
                       'error: line 2: expected "x", got 1.5')
    records = [_record("b", "m1", 1, 200), failed, _record("a", "m1", 0, 100)]
    out = tmp_path / "results.csv"
    emit_results(records, fmt="csv", path=out)
    text = out.read_text().splitlines()
    assert text[0] == ",".join(CSV_COLUMNS)
    loaded = read_results_csv(out)
    # rows come back sorted by (instance, algorithm, seed)
    assert [r.instance_id for r in loaded] == ["a", "b", "c"]
    assert loaded[1].best_makespan == 200
    assert loaded[0].stop_reason == "iteration-cap"
    assert loaded == [records[2], records[0], failed]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: ["instance,algorithm"] + lines[1:],
         ": missing columns seed, best_makespan, time_to_best, total_runtime, "
         "iterations, neighbors_evaluated, stalled_iterations, stop_reason"),
        (lambda lines: lines[:2] + [lines[2].replace(",0,", ",zz,", 1)],
         ", line 3, column seed: invalid int value 'zz'"),
        (lambda lines: lines[:2] + ["b,m1,1"],
         ", line 3: not as many fields as the header"),
        (lambda lines: lines[:2] + [lines[2] + ",surplus"],
         ", line 3: not as many fields as the header"),
    ],
    ids=["missing-columns", "bad-value", "short-row", "long-row"],
)
def test_read_results_csv_names_the_fault(tmp_path, edit, message):
    out = tmp_path / "results.csv"
    emit_results([_record("a", "m1", 1, 100), _record("b", "m1", 0, 200)],
                 path=out)
    out.write_text("\n".join(edit(out.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError) as raised:
        read_results_csv(out)
    assert str(raised.value) == f"{out}{message}"


def test_json_emission(tmp_path):
    records = [_record("a", "m1", 0, 100)]
    out = tmp_path / "results.json"
    emit_results(records, stats=gap_stats(records), fmt="json", path=out,
                 configs=[MetaConfig(algo="ils", max_iterations=5)])
    payload = json.loads(out.read_text())
    assert payload["records"][0]["best_makespan"] == 100
    assert payload["stats"]["per_instance"]["a"]["m1"]["gap"] == 0.0
    assert payload["configs"][0]["max_iterations"] == 5


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_results([], fmt="xml", path=tmp_path / "x")


def test_emit_reports_unwritable_path(tmp_path):
    with pytest.raises(OSError, match="cannot write"):
        emit_results([], fmt="csv", path=tmp_path / "missing" / "out.csv")


def test_load_instance_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    inst = load_instance_file(path)
    assert inst.name == "fig1"
    assert inst.num_operations == 5
    assert load_instance_file(path, learning_rate=0.3).learning_rate == 0.3


def test_load_instance_file_rejects_unknown_format(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    with pytest.raises(ValueError,
                       match="'bogus': expected native or classical"):
        load_instance_file(path, "bogus")


@pytest.mark.parametrize("alpha", [math.inf, math.nan, -0.1, -1.0])
@pytest.mark.parametrize("fmt, text", [
    ("native", FIG1_TEXT),
    ("classical", "1 1\n2 1 1 5 1 1 3\n"),
])
def test_load_instance_file_rejects_bad_learning_rate(tmp_path, fmt, text,
                                                      alpha):
    path = tmp_path / "inst.txt"
    path.write_text(text)
    assert load_instance_file(path, fmt, 0.5).learning_rate == 0.5
    with pytest.raises(InstanceError, match="learning_rate"):
        load_instance_file(path, fmt, alpha)


def test_run_benchmark_cardinality_and_seeds(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    configs = [MetaConfig.calibrated("ils", "reduced", max_iterations=2),
               MetaConfig.calibrated("sa", "reduced", max_iterations=2)]
    records = run_benchmark([path], configs, runs=5, seed_base=100)
    assert len(records) == 10
    assert sorted({r.seed for r in records}) == [100, 101, 102, 103, 104]
    assert {r.algorithm for r in records} == {"ils-reduced", "sa-reduced"}
    assert all(r.instance_id == "fig1" for r in records)
    assert all(r.best_makespan > 0 for r in records)


def test_run_benchmark_survives_bad_instance(tmp_path):
    good = tmp_path / "fig1.txt"
    good.write_text(FIG1_TEXT)
    bad = tmp_path / "broken.txt"
    bad.write_text("not an instance")
    configs = [MetaConfig.calibrated("ils", "reduced", max_iterations=1)]
    records = run_benchmark([bad, good], configs, runs=1)
    by_instance = {r.instance_id: r for r in records}
    assert by_instance["broken"].stop_reason.startswith("error:")
    assert by_instance["fig1"].best_makespan > 0


def test_run_benchmark_survives_failing_run(tmp_path, monkeypatch):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    real_run = flexshop.harness.run

    def run(inst, cfg):
        if cfg.seed == 1:
            raise RuntimeError("boom")
        return real_run(inst, cfg)

    monkeypatch.setattr(flexshop.harness, "run", run)
    configs = [MetaConfig.calibrated("ils", "reduced", max_iterations=1)]
    records = run_benchmark([path], configs, runs=3)
    by_seed = {r.seed: r for r in records}
    assert sorted(by_seed) == [0, 1, 2]
    assert by_seed[1].stop_reason == "error: boom"
    assert by_seed[1].best_makespan == -1
    assert by_seed[1].instance_id == "fig1"
    assert all(by_seed[s].best_makespan > 0 for s in (0, 2))


_ONE_RUN = flexshop.harness._one_run


def _dying_run(job):
    """``_one_run``, but the worker that gets b's run with seed 2, the last
    job, waits until the other runs have finished and then dies.  It lives
    at module level so that a forked worker can unpickle it."""
    inst, cfg = job
    if (inst.name, cfg.seed) == ("b", 2):
        time.sleep(0.5)
        os._exit(3)
    return _ONE_RUN(job)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork"
                    or _cpus() < 2,
                    reason="needs forked pool workers and 2 CPUs")
def test_dead_worker_costs_only_the_runs_it_held(tmp_path, monkeypatch):
    """A pool worker that dies (``os._exit``, as the OOM killer or a crash
    would end it) turns the run it held into an ``error: worker died``
    record; the batch returns every record in job order, and those of the
    runs that had finished equal the serial batch's."""
    paths = []
    for name in ("a", "b"):
        paths.append(tmp_path / f"{name}.txt")
        paths[-1].write_text("3 1 0.2\n1 1 4\n1 1 3\n1 1 5\n1\n1 2\n")
    configs = [MetaConfig(algo="ts", max_iterations=2)]
    serial = run_benchmark(paths, configs, runs=3)
    monkeypatch.setattr(flexshop.harness, "_one_run", _dying_run)
    pooled = run_benchmark(paths, configs, runs=3, workers=2)

    def fields(rec):
        return (rec.instance_id, rec.algorithm, rec.seed, rec.best_makespan,
                rec.iterations, rec.neighbors_evaluated,
                rec.stalled_iterations, rec.stop_reason)

    assert len(pooled) == 6
    assert list(map(fields, pooled[:-1])) == list(map(fields, serial[:-1]))
    assert fields(pooled[-1]) == ("b", "ts-reduced", 2, -1, 0, 0, 0,
                                  "error: worker died")
    assert serial[-1].stop_reason == "iteration-cap"


def test_run_benchmark_refuses_oversubscription(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    import os

    too_many = (os.cpu_count() or 1) + 1
    with pytest.raises(ValueError, match="exceeds"):
        run_benchmark([path], [MetaConfig(max_iterations=1)], runs=1,
                      workers=too_many)


def test_run_benchmark_counts_the_cpus_it_may_run_on(tmp_path, monkeypatch):
    # pinned to one CPU of eight, two workers would share it
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    with pytest.raises(ValueError,
                       match="workers=2 exceeds the 1 available CPUs"):
        run_benchmark([path], [MetaConfig(max_iterations=1)], runs=1,
                      workers=2)


def test_run_benchmark_counts_all_cpus_without_affinity(tmp_path,
                                                        monkeypatch):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    import os

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    with pytest.raises(ValueError,
                       match="workers=4 exceeds the 3 available CPUs"):
        run_benchmark([path], [MetaConfig(max_iterations=1)], runs=1,
                      workers=4)


def test_run_benchmark_rejects_unknown_format_before_reading(tmp_path,
                                                            monkeypatch):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    read = []
    monkeypatch.setattr(flexshop.harness, "load_instance_file",
                        lambda *args: read.append(args))
    with pytest.raises(ValueError,
                       match="'fjs': expected native or classical"):
        run_benchmark([path], [MetaConfig(max_iterations=1)], runs=1,
                      fmt="fjs")
    assert read == []


def test_run_benchmark_returns_every_record(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    records = run_benchmark([path], [MetaConfig(max_iterations=1)], runs=3)
    assert len(records) == 3


def test_run_benchmark_records_load_failures(tmp_path):
    # an unreadable file gets a failed record, in file order, like a run's
    good = tmp_path / "fig1.txt"
    good.write_text(FIG1_TEXT)
    bad = tmp_path / "broken.txt"
    bad.write_text("not an instance")
    records = run_benchmark([bad, good], [MetaConfig(max_iterations=1)],
                            runs=1)
    assert len(records) == 2
    assert records[0].instance_id == "broken"
    assert records[0].stop_reason.startswith("error:")


def test_run_benchmark_records_runs_without_a_finite_stop(tmp_path):
    """A config that no stop ends fails each of its runs at once, with one
    error record per run, and the batch returns."""
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    configs = [MetaConfig(algo="ts"),
               MetaConfig(algo="sa", time_budget=math.inf,
                          target_makespan=1)]
    records = run_benchmark([path], configs, runs=2)
    assert [(r.algorithm, r.seed) for r in records] == [
        ("ts-reduced", 0), ("ts-reduced", 1),
        ("sa-reduced", 0), ("sa-reduced", 1)]
    assert all(r.stop_reason == "error: a run needs a finite time_budget, "
               "max_iterations or no_improve_limit" for r in records)


def test_run_benchmark_parses_each_instance_once(tmp_path, monkeypatch):
    paths = []
    for name in ("a", "b"):
        path = tmp_path / f"{name}.txt"
        path.write_text(FIG1_TEXT)
        paths.append(path)
    loads, runs = [], []

    def load(path, fmt="native", learning_rate=None):
        loads.append(path)
        return load_instance_file(path, fmt, learning_rate)

    def run(inst, cfg):
        runs.append((inst.name, cfg.algo, cfg.seed))
        return _record(inst.name, f"{cfg.algo}-{cfg.mode}", cfg.seed, 1)

    monkeypatch.setattr(flexshop.harness, "load_instance_file", load)
    monkeypatch.setattr(flexshop.harness, "run", run)
    configs = [MetaConfig(algo="ils"), MetaConfig(algo="sa")]
    records = run_benchmark(paths, configs, runs=3, seed_base=7)
    assert loads == paths
    assert sorted(runs) == sorted(
        (p.stem, cfg.algo, 7 + r)
        for p in paths for cfg in configs for r in range(3)
    )
    assert len(records) == 12
