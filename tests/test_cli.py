import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import flexshop
from flexshop.cli import main
from flexshop.constructive import best_of_est_ect
from flexshop.graph import schedule_to_json
from flexshop.harness import emit_results
from flexshop.instance import parse_instance, serialize_instance
from flexshop.metaheuristics import RunRecord

from conftest import (
    DAG6_TEXT,
    FIG1_OPTIMUM,
    FIG1_TEXT,
    HUGE_TIME_TEXT,
    ONE_MACHINE_TEXT,
    usable_cpus,
)
from test_metaheuristics import _large_instance


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    return path


@pytest.fixture
def instance_dir(tmp_path, monkeypatch):
    """A working directory that holds the instance files the command lines
    of the tests name: t.txt, d2.txt, big.txt and r43.txt, and the
    directory d with two copies of t.txt."""
    for name, text in (("t.txt", ONE_MACHINE_TEXT), ("d2.txt", DAG6_TEXT),
                       ("big.txt", HUGE_TIME_TEXT),
                       ("r43.txt", serialize_instance(_large_instance(43)))):
        (tmp_path / name).write_text(text)
    (tmp_path / "d").mkdir()
    for name in ("a.txt", "b.txt"):
        (tmp_path / "d" / name).write_text(ONE_MACHINE_TEXT)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_construct(instance_file, capsys):
    assert main(["construct", "--instance", str(instance_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"assignment", "sequences", "start", "completion",
                            "makespan"}
    assert payload["makespan"] > 0


def test_construct_best_with_rcl_alpha_is_grasps_first_start(
        instance_file, capsys):
    assert main(["construct", "--instance", str(instance_file), "--rule",
                 "best", "--rcl-alpha", "0.5", "--seed", "1"]) == 0
    inst = parse_instance(FIG1_TEXT)
    first_start = best_of_est_ect(inst, 0.5, random.Random(1))
    assert capsys.readouterr().out == schedule_to_json(inst, first_start)
    # seed 1 draws a start that the greedy rule does not build
    assert first_start.makespan != best_of_est_ect(inst).makespan


def test_localsearch(instance_file, capsys):
    assert main(["localsearch", "--instance", str(instance_file),
                 "--neighborhood", "reduced"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["makespan"] == FIG1_OPTIMUM
    assert "neighbors evaluated" in captured.err


def test_solve(instance_file, capsys):
    assert main(["solve", "--instance", str(instance_file), "--algo", "ils",
                 "--iterations", "10", "--seed", "4"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["makespan"] == FIG1_OPTIMUM
    assert "iterations" in captured.err


def test_solve_sa_on_a_zero_makespan(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text("2 1 0.2\n1 1 0\n1 1 0\n0\n")
    assert main(["solve", "--instance", str(path), "--algo", "sa",
                 "--iterations", "3"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["makespan"] == 0
    assert "Traceback" not in captured.err


def test_solve_deterministic_output(instance_file, capsys):
    argv = ["solve", "--instance", str(instance_file), "--algo", "sa",
            "--iterations", "8", "--seed", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_oracle(instance_file, capsys):
    assert main(["oracle", "--instance", str(instance_file)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["makespan"] == FIG1_OPTIMUM
    assert "152 feasible" in captured.err


def test_oracle_limit(instance_file, capsys):
    assert main(["oracle", "--instance", str(instance_file),
                 "--limit", "3"]) == 1
    assert "error" in capsys.readouterr().err


def test_alpha_override(instance_file, capsys):
    assert main(["oracle", "--instance", str(instance_file),
                 "--alpha", "0.0001"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # with a near-zero learning rate no position discount applies:
    # 5 operations of standard times 1,1,1,10,1 on 2 machines
    assert payload["makespan"] > FIG1_OPTIMUM


def test_no_learning_rate_solves_and_validates(instance_file, tmp_path,
                                               capsys):
    """α = 0, the case without a learning effect: ``--alpha 0`` and a
    native header of 0 are valid, and a TS solve at that rate passes
    ``validate`` at that rate, from either source."""
    header, rest = FIG1_TEXT.split("\n", 1)
    zero = tmp_path / "zero.txt"
    zero.write_text(" ".join(header.split()[:2] + ["0"]) + "\n" + rest)
    assert main(["solve", "--instance", str(instance_file), "--algo", "ts",
                 "--iterations", "5", "--alpha", "0"]) == 0
    solution = tmp_path / "ts0.json"
    solution.write_text(capsys.readouterr().out)
    assert main(["validate", "--instance", str(instance_file), "--alpha",
                 "0", "--solution", str(solution)]) == 0
    assert main(["validate", "--instance", str(zero), "--solution",
                 str(solution)]) == 0
    assert main(["validate", "--instance", str(instance_file),
                 "--solution", str(solution)]) == 1


def test_bench_and_stats(instance_file, tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(["bench", "--instances", str(instance_file.parent),
                 "--algos", "ils,sa", "--runs", "2", "--iterations", "2",
                 "--out", str(out)]) == 0
    assert "wrote 4 records" in capsys.readouterr().err
    assert main(["stats", "--in", str(out),
                 "--wilcoxon", "ils-reduced,sa-reduced"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert "fig1" in stats["per_instance"]
    assert "wilcoxon" in stats  # may be absent only if undefined
    assert stats["wilcoxon"]["methods"] == ["ils-reduced", "sa-reduced"]


@pytest.fixture
def paired_results(tmp_path):
    """Results of methods a and b, where b is worse than a by i + 1 on
    instance i: a defined test."""
    records = [
        RunRecord(f"i{i}", algo, 0, 100 + (i + 1) * (algo == "b"),
                  0.0, 0.0, 1, 1, 0, "iteration-cap")
        for i in range(4) for algo in ("a", "b")
    ]
    out = tmp_path / "results.csv"
    emit_results(records, path=out)
    return out


def test_stats_wilcoxon_keys(paired_results, capsys):
    assert main(["stats", "--in", str(paired_results),
                 "--wilcoxon", "a,b"]) == 0
    outcome = json.loads(capsys.readouterr().out)["wilcoxon"]
    assert set(outcome) == {"methods", "r_plus", "r_minus", "w", "n", "z",
                            "p_value", "small_sample"}
    assert outcome["methods"] == ["a", "b"]
    assert outcome["n"] == 4 and outcome["r_plus"] == 10


@pytest.mark.parametrize(
    "spec, message",
    [
        ("a", "error: --wilcoxon expects two method names as A,B, got 'a'"),
        ("a,b,c", "expects two method names as A,B"),
        ("a,", "expects two method names as A,B"),
        ("a,c", "error: method 'c' is not in the results"),
        ("a,a", "error: --wilcoxon compares a method with itself: 'a'"),
    ],
    ids=["one-name", "three-names", "empty-name", "absent", "same"],
)
def test_stats_wilcoxon_rejects_bad_pair(paired_results, capsys, spec,
                                         message):
    _fails(["stats", "--in", str(paired_results), "--wilcoxon", spec],
           capsys, message)


def test_stats_wilcoxon_without_shared_instances(tmp_path, capsys):
    # a runs only on i0 and i1, b only on i2 and i3: nothing is paired
    records = [RunRecord(f"i{i}", "ab"[i // 2], 0, 100 + i, 0.0, 0.0, 1, 1,
                         0, "iteration-cap") for i in range(4)]
    out = tmp_path / "results.csv"
    emit_results(records, path=out)
    assert main(["stats", "--in", str(out), "--wilcoxon", "a,b"]) == 0
    assert json.loads(capsys.readouterr().out)["wilcoxon"] == {
        "methods": ["a", "b"],
        "error": "no paired values; the test is undefined",
    }


def test_bench_json_output(instance_file, tmp_path, capsys):
    out = tmp_path / "results.json"
    assert main(["bench", "--instances", str(instance_file.parent),
                 "--algos", "ils", "--runs", "1", "--iterations", "1",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["records"][0]["instance"] == "fig1"
    assert "stats" in payload and "configs" in payload


def test_validate_accepts_own_output(instance_file, tmp_path, capsys):
    assert main(["construct", "--instance", str(instance_file)]) == 0
    solution = tmp_path / "solution.json"
    solution.write_text(capsys.readouterr().out)
    assert main(["validate", "--instance", str(instance_file),
                 "--solution", str(solution)]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_rejects_wrong_makespan(instance_file, tmp_path, capsys):
    assert main(["construct", "--instance", str(instance_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    payload["makespan"] += 1
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(payload))
    assert main(["validate", "--instance", str(instance_file),
                 "--solution", str(solution)]) == 1
    assert "differs" in capsys.readouterr().err


def test_validate_rejects_infeasible(instance_file, tmp_path, capsys):
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({
        "assignment": {"1": 1, "2": 1, "3": 1, "4": 2, "5": 2},
        "sequences": [[2, 1, 3], [4, 5]],  # contradicts precedence 1 -> 2
    }))
    assert main(["validate", "--instance", str(instance_file),
                 "--solution", str(solution)]) == 1
    assert "infeasible" in capsys.readouterr().err


FIG2A_SEQUENCES = [[2], [1, 4, 5, 3]]
FIG2A_ASSIGNMENT = {"1": 2, "2": 1, "3": 2, "4": 2, "5": 2}


def _fails(argv, capsys, message):
    """``argv`` exits with code 1 and one stderr line holding ``message``."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and message in err
    return err


@pytest.mark.parametrize(
    "text, extra, message",
    [
        ("5 2 x\n", [], "error: line 1: expected learning rate, got 'x'"),
        (FIG1_TEXT, ["--alpha", "-0.1"],
         "error: learning_rate must be >= 0, got -0.1"),
    ],
    ids=["bad-token", "alpha-negative"],
)
def test_bad_instance_is_one_error_line(tmp_path, capsys, text, extra,
                                        message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    _fails(["construct", "--instance", str(path)] + extra, capsys, message)


def test_missing_instance_file_is_one_error_line(tmp_path, capsys):
    _fails(["solve", "--algo", "ils", "--instance",
            str(tmp_path / "absent.txt")], capsys, "error: ")


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "error: "),
        ("not json", "is not a schedule"),
        (json.dumps({"assignment": FIG2A_ASSIGNMENT}),
         "has no 'sequences' entry"),
        (json.dumps({"sequences": FIG2A_SEQUENCES}),
         "has no 'assignment' entry"),
    ],
    ids=["unreadable", "not-json", "no-sequences", "no-assignment"],
)
def test_validate_bad_solution_file_is_one_error_line(
        instance_file, tmp_path, capsys, content, message):
    solution = tmp_path / "solution.json"
    if content is not None:
        solution.write_text(content)
    err = _fails(["validate", "--instance", str(instance_file),
                  "--solution", str(solution)], capsys, message)
    assert err.startswith("error: ")


def test_validate_rejects_unknown_operation(instance_file, tmp_path, capsys):
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({
        "assignment": {**FIG2A_ASSIGNMENT, "7": 1},
        "sequences": [[2, 7], [1, 4, 5, 3]],
    }))
    _fails(["validate", "--instance", str(instance_file),
            "--solution", str(solution)], capsys,
           "infeasible: unknown operation 7 on machine 1")


def test_validate_rejects_assignment_that_contradicts_sequences(
        instance_file, tmp_path, capsys):
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({
        "assignment": {**FIG2A_ASSIGNMENT, "2": 2},
        "sequences": FIG2A_SEQUENCES,
    }))
    _fails(["validate", "--instance", str(instance_file),
            "--solution", str(solution)], capsys,
           "operation 2: assignment says machine 2, sequences say machine 1")


@pytest.mark.parametrize(
    "declared, message",
    [
        ({"assignment": {**FIG2A_ASSIGNMENT, "2": "1"}},
         "operation 2's machine \"1\" is not an integer"),
        ({"assignment": {**FIG2A_ASSIGNMENT, "2": 1.0}},
         "operation 2's machine 1.0 is not an integer"),
        ({"assignment": {**FIG2A_ASSIGNMENT, "2": True}},
         "operation 2's machine true is not an integer"),
        ({"assignment": FIG2A_ASSIGNMENT, "makespan": "658"},
         "makespan \"658\" is not an integer"),
        ({"assignment": FIG2A_ASSIGNMENT, "start": {"1": "0"}},
         "operation 1's start \"0\" is not an integer"),
        ({"assignment": FIG2A_ASSIGNMENT, "completion": {"3": 658.0}},
         "operation 3's completion 658.0 is not an integer"),
    ],
    ids=["machine-string", "machine-float", "machine-bool", "makespan-string",
         "start-string", "completion-float"],
)
def test_validate_rejects_a_declared_value_that_is_not_an_integer(
        instance_file, tmp_path, capsys, declared, message):
    # each value equals or spells the right one, yet the file is not a
    # schedule of integers
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({"sequences": FIG2A_SEQUENCES,
                                    **declared}))
    err = _fails(["validate", "--instance", str(instance_file),
                  "--solution", str(solution)], capsys, message)
    assert err.startswith("error: ")


def test_validate_reports_each_operation_whose_declared_time_differs(
        instance_file, tmp_path, capsys):
    """A declared start or completion that is not the recomputed earliest
    one is reported, one line per operation, as a wrong makespan is."""
    assert main(["solve", "--instance", str(instance_file), "--algo", "ts",
                 "--iterations", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    start, completion = dict(payload["start"]), dict(payload["completion"])
    payload["completion"]["1"] = 1
    payload["start"]["2"] = 99999
    payload["start"]["4"] += 1
    payload["completion"]["4"] += 1
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(payload))
    assert main(["validate", "--instance", str(instance_file),
                 "--solution", str(solution)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"operation 1: declared completion 1 differs from recomputed "
        f"{completion['1']}",
        f"operation 2: declared start 99999 differs from recomputed "
        f"{start['2']}",
        f"operation 4: declared start {start['4'] + 1} differs from "
        f"recomputed {start['4']}, declared completion "
        f"{completion['4'] + 1} differs from recomputed {completion['4']}",
    ]


def test_validate_accepts_a_solution_without_times(instance_file, tmp_path,
                                                   capsys):
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({"assignment": FIG2A_ASSIGNMENT,
                                    "sequences": FIG2A_SEQUENCES}))
    assert main(["validate", "--instance", str(instance_file),
                 "--solution", str(solution)]) == 0
    assert capsys.readouterr().out == "valid; makespan 658\n"


def test_solve_with_a_huge_learning_rate_validates(instance_file, tmp_path,
                                                   capsys):
    """With alpha = 700, r**alpha overflows a float from position 3 on on
    fig1's machine 2; those operations take 0 time units."""
    assert main(["solve", "--instance", str(instance_file), "--algo", "sa",
                 "--iterations", "20", "--alpha", "700"]) == 0
    solution = tmp_path / "solution.json"
    solution.write_text(capsys.readouterr().out)
    assert main(["validate", "--instance", str(instance_file), "--alpha",
                 "700", "--solution", str(solution)]) == 0
    assert capsys.readouterr().out.startswith("valid; makespan ")


def test_validate_reports_an_operation_the_assignment_lacks(
        instance_file, tmp_path, capsys):
    assignment = dict(FIG2A_ASSIGNMENT)
    del assignment["2"]
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps({"assignment": assignment,
                                    "sequences": FIG2A_SEQUENCES}))
    assert main(["validate", "--instance", str(instance_file),
                 "--solution", str(solution)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "operation 2: assignment says machine None, sequences say machine 1",
        "assignment lists 4 operations, the sequences 5",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "--instance", "{fig1}", "--rule", "ect",
          "--rcl-alpha", "2"], "error: rcl_alpha must lie in [0, 1], got 2.0"),
        (["construct", "--instance", "{fig1}", "--rcl-alpha", "1.5"],
         "error: rcl_alpha must lie in [0, 1], got 1.5"),
        (["construct", "--instance", "{fig1}", "--rule", "est",
          "--rcl-alpha", "-0.5"],
         "error: rcl_alpha must lie in [0, 1], got -0.5"),
        (["construct", "--instance", "{fig1}", "--rcl-alpha", "nan"],
         "error: rcl_alpha must lie in [0, 1], got nan"),
        (["solve", "--instance", "{fig1}", "--algo", "ils",
          "--perturb-min", "5", "--perturb-max", "2"],
         "error: need 1 <= ils_perturb_min <= ils_perturb_max"),
        (["bench", "--instances", "{dir}", "--algos", "bogus"],
         "error: unknown algorithm 'bogus'"),
        # a repeated name is rejected before the directory is read
        (["bench", "--instances", "{dir}/missing", "--algos", "ils, ts,ils"],
         "error: --algos names 'ils' more than once"),
        (["bench", "--instances", "{dir}/missing", "--neighborhoods",
          "reduced,cropped,cropped"],
         "error: --neighborhoods names 'cropped' more than once"),
        (["solve", "--instance", "{fig1}", "--algo", "ts",
          "--tabu-factor", "-1", "--iterations", "3"],
         "error: ts_factor must be finite and > 0, got -1.0"),
        (["solve", "--instance", "{fig1}", "--algo", "sa",
          "--iterations", "-3"], "error: max_iterations must be >= 0, got -3"),
        (["solve", "--instance", "{fig1}", "--algo", "ils",
          "--time-limit", "-1"],
         "error: time_budget must be >= 0 seconds, got -1.0"),
        (["solve", "--instance", "{fig1}", "--algo", "ils",
          "--no-improve", "-1", "--iterations", "2"],
         "error: no_improve_limit must be >= 0 seconds, got -1.0"),
        (["localsearch", "--instance", "{fig1}", "--time-limit", "-5"],
         "error: time_budget must be >= 0 seconds, got -5.0"),
        (["solve", "--instance", "{fig1}", "--algo", "ils",
          "--rcl-alpha", "5"], "error: grasp_alpha must lie in [0, 1], got 5.0"),
        (["solve", "--instance", "{fig1}", "--algo", "grasp",
          "--rcl-alpha", "nan"], "error: grasp_alpha must lie in [0, 1], got nan"),
        (["bench", "--instances", "{dir}", "--runs", "0",
          "--out", "{dir}/out.csv"], "error: runs must be >= 1, got 0"),
        (["bench", "--instances", "{dir}", "--runs", "-1",
          "--out", "{dir}/out.csv"], "error: runs must be >= 1, got -1"),
        (["bench", "--instances", "{dir}", "--workers", "0",
          "--out", "{dir}/out.csv"], "error: workers must be >= 1, got 0"),
        (["bench", "--instances", "{dir}", "--workers", "-3",
          "--out", "{dir}/out.csv"], "error: workers must be >= 1, got -3"),
        (["oracle", "--instance", "{fig1}", "--limit", "0"],
         "error: limit must be >= 1, got 0"),
        (["oracle", "--instance", "{fig1}", "--limit", "-1"],
         "error: limit must be >= 1, got -1"),
        (["solve", "--instance", "{fig1}", "--algo", "ils"],
         "error: solve needs a stop: --time-limit, --iterations or "
         "--no-improve"),
        (["solve", "--instance", "{fig1}", "--algo", "sa", "--target", "453"],
         "error: solve needs a stop"),
        (["solve", "--instance", "{fig1}", "--algo", "ts",
          "--time-limit", "inf"], "error: solve needs a stop"),
        (["solve", "--instance", "{fig1}", "--algo", "ts",
          "--no-improve", "inf"], "error: solve needs a stop"),
        ("bench --instances d --algos ts --runs 1 --time-limit inf".split(),
         "error: bench needs a stop: --time-limit or --iterations"),
        ("bench --instances d --algos ts,ts --iterations 1 --runs 1 "
         "--out x.csv".split(), "error: --algos names 'ts' more than once"),
        ("solve --instance d2.txt --algo ts --iterations 5 "
         "--alpha -0.1".split(), "error: learning_rate must be >= 0, got -0.1"),
    ],
    ids=["rcl-alpha", "rcl-alpha-best-range", "rcl-alpha-est-negative",
         "rcl-alpha-best-nan", "perturb-range", "unknown-algo",
         "repeated-algo", "repeated-neighborhood", "tabu-factor",
         "iterations", "time-limit", "no-improve", "localsearch-time-limit",
         "grasp-alpha", "grasp-alpha-nan", "runs-0", "runs-negative",
         "workers-0", "workers-negative", "oracle-limit-0",
         "oracle-limit-negative", "solve-no-stop", "solve-target-only",
         "solve-infinite-time-limit", "solve-infinite-no-improve",
         "bench-infinite-time-limit", "bench-algo-twice",
         "solve-negative-alpha"],
)
def test_rejected_option_value_is_one_error_line(instance_file, instance_dir,
                                                 capsys, argv, message):
    argv = [a.format(fig1=instance_file, dir=instance_file.parent)
            for a in argv]
    _fails(argv, capsys, message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("instance,algorithm\nfig1,ils-reduced\n",
         "missing columns seed, best_makespan, time_to_best, total_runtime, "
         "iterations, neighbors_evaluated, stalled_iterations, stop_reason"),
        ("instance,algorithm,seed,best_makespan,time_to_best,total_runtime,"
         "iterations,neighbors_evaluated,stalled_iterations,stop_reason\n"
         "fig1,ils-reduced,zz,528,0.1,0.2,3,40,0,iteration-cap\n",
         "line 2, column seed: invalid int value 'zz'"),
    ],
    ids=["missing-columns", "bad-value"],
)
def test_malformed_results_file_is_one_error_line(tmp_path, capsys, text,
                                                  message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    err = _fails(["stats", "--in", str(path)], capsys, message)
    assert err.startswith(f"error: {path}")


def test_bench_on_empty_directory_writes_nothing(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "e.csv"
    _fails(["bench", "--instances", str(empty), "--runs", "1",
            "--out", str(out)], capsys, f"error: no instance files in {empty}")
    assert not out.exists()


def test_non_text_instance_file_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"\xff\xfe5\x002\x00")
    _fails(["construct", "--instance", str(path)], capsys,
           f"error: {path} is not a text file")


@pytest.mark.parametrize(
    "command, makespan",
    [
        ("solve --instance t.txt --algo ts --iterations 2", None),
        # random relocations often draw an operation's own slot
        ("solve --instance t.txt --algo sa --iterations 300 --seed 3", None),
        ("localsearch --instance t.txt --strategy first", None),
        ("localsearch --instance t.txt --neighborhood full", None),
        ("oracle --instance t.txt", None),
        ("construct --instance d2.txt --rule est", None),
        ("construct --instance d2.txt --rule ect", None),
        ("construct --instance d2.txt --rule best --rcl-alpha 0.5 --seed 1",
         None),
        ("solve --instance d2.txt --algo grasp --iterations 5 --seed 3", None),
        # random relocations move operations across machines
        ("solve --instance d2.txt --algo sa --iterations 300 --seed 3", None),
        # scans after a perturbation read a critical path walked when read
        ("solve --instance d2.txt --algo ils --neighborhood cropped "
         "--iterations 5 --seed 3", None),
        # applied scanned moves are built by the edit of a random relocation
        ("solve --instance d2.txt --algo ts --iterations 20 --seed 3", None),
        ("oracle --instance d2.txt", None),
        # exact above 2**53: a float quotient would give 100000000000000096
        ("solve --instance big.txt --algo sa --iterations 1",
         100000000000000100),
        # the start's makespan is 7280: the run stops at the first applied
        # move, not at its descent's local optimum 6090
        ("solve --instance r43.txt --algo ils --iterations 5 --target 7279",
         6900),
    ],
    ids=["t-ts", "t-sa", "t-first", "t-full", "t-oracle", "d2-est", "d2-ect",
         "d2-best", "d2-grasp", "d2-sa", "d2-ils-cropped", "d2-ts",
         "d2-oracle", "big-sa", "r43-ils-target"],
)
def test_each_solution_producing_commands_output_validates(
        instance_dir, capsys, command, makespan):
    """The command exits 0, and ``validate`` accepts the schedule it wrote
    on the same instance; ``makespan``, where given, is the exact one."""
    argv = command.split()
    assert main(argv) == 0
    out = capsys.readouterr().out
    Path("s.json").write_text(out)
    instance = argv[argv.index("--instance") + 1]
    assert main(["validate", "--instance", instance,
                 "--solution", "s.json"]) == 0
    written = json.loads(out)["makespan"]
    assert capsys.readouterr().out == f"valid; makespan {written}\n"
    assert makespan in (None, written)


@pytest.mark.skipif(usable_cpus() < 2, reason="needs 2 CPUs")
def test_bench_over_a_two_worker_pool_and_its_stats(instance_dir, capsys):
    """All four metaheuristics over two instance files through the process
    pool and the result CSV, which ``stats`` reads back."""
    assert main("bench --instances d --algos ils,grasp,ts,sa --iterations 2 "
                "--runs 2 --workers 2 --out r.csv".split()) == 0
    assert capsys.readouterr().err == "wrote 16 records to r.csv\n"
    assert "error" not in Path("r.csv").read_text()
    assert main(["stats", "--in", "r.csv"]) == 0
    assert set(json.loads(capsys.readouterr().out)["per_instance"]) == {
        "a", "b"}


@pytest.mark.parametrize(
    "kind, value, message",
    [
        ("assignment", 2,
         "operation 1: assignment says machine 2, sequences say machine 1"),
        ("assignment", "1", "operation 1's machine \"1\" is not an integer"),
        ("completion", 1, "operation 1: declared completion 1 differs from "
                          "recomputed 400"),
        # a declared null is declared, not absent
        ("makespan", None, "makespan null is not an integer"),
    ],
    ids=["machine", "machine-string", "completion", "makespan-null"],
)
def test_validate_rejects_a_solve_output_with_one_entry_changed(
        instance_dir, capsys, kind, value, message):
    """``kind`` names a per-operation map, whose operation 1 changes, or
    the makespan."""
    assert main(["solve", "--instance", "t.txt", "--algo", "ts",
                 "--iterations", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    if kind == "makespan":
        payload[kind] = value
    else:
        payload[kind]["1"] = value
    Path("bad.json").write_text(json.dumps(payload))
    _fails(["validate", "--instance", "t.txt", "--solution", "bad.json"],
           capsys, message)


def _validate_t(text, capsys) -> tuple:
    """The exit code and stderr lines of ``validate`` on t.txt and a
    solution file of ``text``."""
    Path("s.json").write_text(text)
    code = main(["validate", "--instance", "t.txt", "--solution", "s.json"])
    return code, capsys.readouterr().err.splitlines()


@pytest.mark.parametrize(
    "text, line",
    [
        ('{"assignment": {"1":1,"01":1,"2":1,"3":1}, '
         '"sequences": [[1,2,3]]}',
         'error: solution s.json: assignment key "01" is not an operation '
         'id'),
        ('{"assignment": {"1":1,"2":1,"3":1}, "sequences": [[1,2,3]], '
         '"start": {"1":0,"01":0}}',
         'error: solution s.json: start key "01" is not an operation id'),
        ('{"assignment": {"1":1,"1":1,"2":1,"3":1}, '
         '"sequences": [[1,2,3]]}',
         'error: solution s.json: key "1" appears twice'),
        ('{"assignment": {"1":1,"2":1,"3":1}, "sequences": [[1,2,3]], '
         '"makespan": 1, "makespan": 1062}',
         'error: solution s.json: key "makespan" appears twice'),
    ],
    ids=["assignment-leading-zero", "start-leading-zero",
         "repeated-operation", "repeated-makespan"],
)
def test_validate_rejects_a_file_that_names_an_entry_twice(
        instance_dir, capsys, text, line):
    """JSON keeps the last of two equal keys, and int() reads "01" as 1:
    either would let a file name an operation twice and pass."""
    assert _validate_t(text, capsys) == (1, [line])


@pytest.mark.parametrize("op", [9, 0, -4])
def test_validate_names_a_declared_time_of_an_unknown_operation(
        instance_dir, capsys, op):
    text = json.dumps({"assignment": {"1": 1, "2": 1, "3": 1},
                       "sequences": [[1, 2, 3]],
                       "start": {"1": 0, str(op): 0},
                       "completion": {str(op): 4}})
    assert _validate_t(text, capsys) == (1, [
        f"unknown operation {op}: declared start 0, declared completion 4"])


def test_validate_names_an_unknown_operation_in_the_assignment(
        instance_dir, capsys):
    text = json.dumps({"assignment": {"1": 1, "2": 1, "3": 1, "7": 1},
                       "sequences": [[1, 2, 3]]})
    assert _validate_t(text, capsys) == (1, [
        "unknown operation 7: assignment says machine 1"])


def test_python_m_flexshop_cli_hands_over_the_exit_code(instance_dir):
    """``python -m flexshop.cli`` runs ``main`` and exits with its code."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(flexshop.__file__).resolve().parents[1])}

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "flexshop.cli", *args],
                              capture_output=True, text=True, env=env,
                              timeout=60)

    solved = cli("solve", "--instance", "t.txt", "--algo", "ts",
                 "--iterations", "2")
    assert solved.returncode == 0
    assert json.loads(solved.stdout)["makespan"] > 0
    rejected = cli("solve", "--instance", "t.txt", "--algo", "ils")
    assert rejected.returncode == 1
    assert rejected.stderr == ("error: solve needs a stop: --time-limit, "
                               "--iterations or --no-improve\n")
