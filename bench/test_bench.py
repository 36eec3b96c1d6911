"""The benchmark's own test: the smoke configuration of the real command.

Run from the repository root with ``python -m pytest bench``.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import instances  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from flexshop import best_of_est_ect  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                 "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs(tmp_path):
    def sha(seed):
        wl = workloads.Workload("scan-dag", seed, True, tmp_path)
        wl.setup()
        assert wl.input_errors() == []
        return instances.fingerprint(wl.generated)

    assert sha(5) == sha(5) != sha(6)


def test_chain_instances_round_trip(tmp_path):
    wl = workloads.Workload("batch-chain", 2, True, tmp_path)
    wl.setup()
    assert wl.input_errors() == []
    assert sorted(p.stem for p in (tmp_path / "instances").glob("*.fjs")) \
        == sorted(g.name for g in wl.generated)


def test_missed_target_fails_the_run(tmp_path):
    wl = workloads.Workload("scan-dag", 4, True, tmp_path)
    wl.setup()
    assert wl.targets and wl.input_errors() == []
    wl.targets = {i: 0 for i in wl.targets}  # unreachable
    errors = wl.check(wl.timed_round().results)
    for job, errs in zip(wl.jobs, errors):
        assert bool(errs) == job.to_target
        assert all("expected 'target'" in e for e in errs)


def test_pool_targets_belong_to_the_generated_text(tmp_path):
    wl = workloads.Workload("scan-dag", 4, True, tmp_path)
    j, target, _ = wl.pool_picks[0]
    wl.pool_picks[0] = (j, target, "0" * 16)
    wl.setup()
    assert any("target" in e for e in wl.input_errors())


def test_check_rejects_a_wrong_makespan():
    g = instances.dag_instance(random.Random(1), "check", 15, 3)
    inst = g.parse()
    sched = best_of_est_ect(inst)
    assert verify.schedule_errors(g, inst, sched, sched.makespan) == []
    assert verify.schedule_errors(g, inst, sched, sched.makespan + 1)
    sched.makespan -= 1
    assert verify.schedule_errors(g, inst, sched, sched.makespan)
    assert verify.schedule_errors(g, inst, None, 0)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "scan-dag", "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
