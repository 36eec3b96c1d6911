import json
import random

import pytest

from flexshop.cli import main
from flexshop.constructive import best_of_est_ect
from flexshop.graph import schedule_to_json
from flexshop.harness import emit_results
from flexshop.instance import parse_instance
from flexshop.metaheuristics import RunRecord

from conftest import FIG1_OPTIMUM, FIG1_TEXT


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "fig1.txt"
    path.write_text(FIG1_TEXT)
    return path


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
        (FIG1_TEXT, ["--alpha", "0"], "error: learning_rate must be > 0"),
    ],
    ids=["bad-token", "alpha-0"],
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
    ],
    ids=["machine-string", "machine-float", "machine-bool", "makespan-string"],
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
    ],
    ids=["rcl-alpha", "rcl-alpha-best-range", "rcl-alpha-est-negative",
         "rcl-alpha-best-nan", "perturb-range", "unknown-algo",
         "repeated-algo", "repeated-neighborhood", "tabu-factor",
         "iterations", "time-limit", "no-improve", "localsearch-time-limit",
         "grasp-alpha", "grasp-alpha-nan", "runs-0", "runs-negative",
         "workers-0", "workers-negative", "oracle-limit-0",
         "oracle-limit-negative", "solve-no-stop", "solve-target-only",
         "solve-infinite-time-limit", "solve-infinite-no-improve"],
)
def test_rejected_option_value_is_one_error_line(instance_file, capsys, argv,
                                                 message):
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
