import random
import re
from dataclasses import replace

import pytest

from flexshop import (
    Instance,
    InstanceError,
    import_classical_fjs,
    parse_instance,
    serialize_instance,
    validate_instance,
)

from conftest import FIG1_TEXT, random_instance


def test_parse_fig1():
    inst = parse_instance(FIG1_TEXT, "fig1")
    assert inst.num_operations == 5
    assert inst.num_machines == 2
    assert inst.learning_rate == 1.0
    assert inst.eligible == ((1, 2),) * 5
    assert inst.std_time[(4, 1)] == 10
    assert inst.std_time[(4, 2)] == 10
    assert inst.std_time[(1, 1)] == 1
    assert inst.precedence_arcs == frozenset({(1, 2), (2, 3), (4, 5)})
    assert sorted(inst.predecessors(3)) == [2]
    assert sorted(inst.predecessors(1)) == []


@pytest.mark.parametrize("arc_prob", (0.0, 0.2, 0.5))
def test_tables_derive_from_the_arcs_and_eligibility(arc_prob):
    """``Instance.tables`` holds, by operation with index 0 empty, the
    predecessors and the successors in the precedence arcs' iteration
    order and the eligible machines in ascending order, whatever their
    order in ``eligible``; it is built once.  ``predecessors`` returns a
    fresh list: mutating it changes neither the table nor the next call."""
    rng = random.Random(17)
    isolated = 0
    for _ in range(40):
        inst = random_instance(rng, max_ops=10, max_machines=4,
                               arc_prob=arc_prob)
        shuffled = tuple(tuple(rng.sample(ks, len(ks))) for ks in inst.eligible)
        inst = replace(inst, eligible=shuffled)
        arcs = inst.precedence_arcs
        ids = range(inst.num_operations + 1)
        preds = tuple(tuple(i for i, j in arcs if j == op) for op in ids)
        succs = tuple(tuple(j for i, j in arcs if i == op) for op in ids)
        machines = ((),) + tuple(tuple(sorted(ks)) for ks in shuffled)
        assert inst.tables == (preds, succs, machines)
        assert inst.tables is inst.tables
        assert inst.eligible == shuffled
        for op in inst.operations:
            isolated += not preds[op] and not succs[op]
            got = inst.predecessors(op)
            assert got == list(preds[op])
            got.append(op)
            assert inst.predecessors(op) == list(preds[op])
        assert inst.tables == (preds, succs, machines)
    assert isolated


@pytest.mark.parametrize("op", (0, 6, -1, "1", True))
def test_predecessors_rejects_an_unknown_id(op):
    inst = parse_instance(FIG1_TEXT, "fig1")
    with pytest.raises(ValueError, match=re.escape(f"unknown operation {op!r}")):
        inst.predecessors(op)


def test_comments_and_whitespace():
    text = "# header comment\n1 1 0.5\n1 1 7  # inline\n\n0\n"
    inst = parse_instance(text)
    assert inst.num_operations == 1
    assert inst.std_time[(1, 1)] == 7
    assert inst.learning_rate == 0.5


def test_round_trip_fig1():
    inst = parse_instance(FIG1_TEXT, "fig1")
    assert parse_instance(serialize_instance(inst), "fig1") == inst


def test_round_trip_random_instances():
    rng = random.Random(7)
    for _ in range(30):
        inst = random_instance(rng)
        assert parse_instance(serialize_instance(inst)) == inst


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "operation count"),
        ("1 1 1.0\n1 1", "standard time"),
        ("1 1 1.0\n1 1 x\n0", "expected"),
        ("1 1 1.0\n1 1 5\n0\nextra", "trailing"),
        ("1 1 1.0\n1 1 5\n1\n1 1", "self-loop"),
        ("2 1 1.0\n1 1 5\n1 1 5\n2\n1 2\n2 1", "cycle"),
        ("1 1 1.0\n0\n0", "empty eligibility"),
        ("1 1 -0.1\n1 1 5\n0", "learning_rate must be >= 0"),
        ("1 1 inf\n1 1 5\n0", "learning_rate must be finite, got inf"),
        ("2 1 1.0\n2 1 5 1 7\n1 1 5\n0",
         "operation 1 lists machine 1 more than once"),
        ("1 1 1.0\n1 2 5\n0", "out of range"),
        ("2 1 1.0\n1 1 5\n1 1 5\n1\n1 3", "out of range"),
    ],
)
def test_parse_rejects_bad_input(text, fragment):
    with pytest.raises(InstanceError, match=fragment):
        parse_instance(text)


def test_error_reports_line_number():
    with pytest.raises(InstanceError, match="line 2"):
        parse_instance("1 1 1.0\n1 oops 5\n0")


def test_validate_reports_all_violations():
    inst = Instance(2, 1, ((1,), ()), {(1, 1): -3}, frozenset({(1, 2), (2, 1)}),
                    -0.1)
    violations = validate_instance(inst)
    text = "\n".join(violations)
    assert "learning_rate" in text
    assert "empty eligibility" in text
    assert "negative standard time" in text
    assert "cycle" in text


def test_validate_rejects_duplicate_machine_and_infinite_rate():
    inst = Instance(2, 2, ((1, 2), (2, 1, 2)),
                    {(1, 1): 3, (1, 2): 4, (2, 1): 5, (2, 2): 6},
                    frozenset(), float("inf"))
    assert validate_instance(inst) == [
        "learning_rate must be finite, got inf",
        "operation 2 lists machine 2 more than once",
    ]


CYCLE = "precedence arcs contain a directed cycle"


@pytest.mark.parametrize(
    "arcs, expected",
    [
        ({(2, 2)}, ["self-loop precedence arc (2, 2)", CYCLE]),
        ({(1, 2), (2, 1)}, [CYCLE]),
        ({(1, 2), (2, 3), (3, 1)}, [CYCLE]),
        ({(1, 2), (2, 1), (3, 9)},
         ["precedence arc (3, 9): id 9 out of range", CYCLE]),
        ({(1, 2), (2, 3), (3, 9)}, ["precedence arc (3, 9): id 9 out of range"]),
    ],
    ids=["self-loop", "2-cycle", "3-cycle", "out-of-range-arc", "acyclic"],
)
def test_validate_reports_precedence_cycles(arcs, expected):
    inst = Instance(3, 1, ((1,),) * 3, {(op, 1): 1 for op in (1, 2, 3)},
                    frozenset(arcs), 0.5)
    assert validate_instance(inst) == expected


def test_classical_import_rejects_duplicate_machine():
    with pytest.raises(InstanceError,
                       match="operation 2 lists machine 1 more than once"):
        import_classical_fjs("1 2\n2  1 1 4  2 1 5 1 7\n")


LARGEST_TIME = 2**1000 // 100  # the largest p with 100 * p <= 2**1000


@pytest.mark.parametrize("read", [
    lambda p: parse_instance(f"1 1 0.2\n1 1 {p}\n0\n"),
    lambda p: import_classical_fjs(f"1 1\n1 1 1 {p}\n", 0.2),
], ids=["native", "classical"])
def test_standard_time_beyond_the_float_range_is_rejected(read):
    """A standard time whose 100 * p exceeds 2**1000 is refused by one
    InstanceError naming the pair, in both formats; the largest allowed
    one parses and prices."""
    for p in (LARGEST_TIME + 1, 10**400):
        with pytest.raises(InstanceError) as excinfo:
            read(p)
        assert str(excinfo.value) == ("standard time for pair (1, 1) "
                                      "exceeds 2**1000 / 100")
    inst = read(LARGEST_TIME)
    assert inst.std_time[(1, 1)] == LARGEST_TIME


def test_validate_clean_instance(fig1):
    assert validate_instance(fig1) == []


def test_classical_import_chains_jobs():
    # two jobs; job 1 has two operations, job 2 one operation
    text = "2 2\n2  2 1 1 2 2  1 2 3\n1  1 1 4\n"
    inst = import_classical_fjs(text, learning_rate=0.3, name="mini")
    assert inst.num_operations == 3
    assert inst.num_machines == 2
    assert inst.precedence_arcs == frozenset({(1, 2)})
    assert inst.eligible == ((1, 2), (2,), (1,))
    assert inst.std_time == {(1, 1): 1, (1, 2): 2, (2, 2): 3, (3, 1): 4}
    assert inst.learning_rate == 0.3
    assert validate_instance(inst) == []


def test_classical_import_skips_flexibility_figure():
    text = "1 2 1.5\n1  1 1 9\n"
    inst = import_classical_fjs(text)
    assert inst.num_operations == 1
    assert inst.std_time == {(1, 1): 9}


def test_classical_import_rejects_truncation():
    with pytest.raises(InstanceError, match="end of file"):
        import_classical_fjs("1 1\n2  1 1 5\n")


@pytest.mark.parametrize(
    "text, eligible, std_time, arcs",
    [
        ("1 2 1\n1  1 1 5\n", ((1,),), {(1, 1): 5}, set()),
        ("2 2 2\n2  2 1 3 2 4  1 1 5\n1  2 1 2 2 6\n",
         ((1, 2), (1,), (1, 2)),
         {(1, 1): 3, (1, 2): 4, (2, 1): 5, (3, 1): 2, (3, 2): 6}, {(1, 2)}),
        ("# jobs machines\n1 1 # two operations\n2  1 1 5\n1 1 3 # last\n",
         ((1,), (1,)), {(1, 1): 5, (2, 1): 3}, {(1, 2)}),
    ],
    ids=["integer-figure", "two-jobs", "comments"],
)
def test_classical_import_ignores_rest_of_header_line(text, eligible, std_time,
                                                      arcs):
    inst = import_classical_fjs(text)
    assert inst.eligible == eligible
    assert inst.std_time == std_time
    assert inst.precedence_arcs == frozenset(arcs)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 1\n1  1 1 5\n7\n", "line 3: trailing content starting at '7'"),
        ("1 2\n1  1 x 5\n", "line 2: expected machine id, got 'x'"),
    ],
    ids=["trailing", "bad-token"],
)
def test_classical_import_errors_name_the_line(text, message):
    with pytest.raises(InstanceError) as info:
        import_classical_fjs(text)
    assert str(info.value) == message


def test_validate_reports_short_eligibility_list():
    inst = Instance(2, 1, ((1,),), {(1, 1): 1, (2, 1): 3}, frozenset(), 0.5)
    assert validate_instance(inst) == [
        "eligible has 1 entries for 2 operations",
        "standard time given for non-eligible pair (2, 1)",
    ]


@pytest.mark.parametrize(
    "inst, expected",
    [
        (Instance(0, 1, (), {}, frozenset(), 0.5),
         ["instance must have at least one operation"]),
        (Instance(1, 0, ((1,),), {(1, 1): 2}, frozenset(), 0.5),
         ["instance must have at least one machine",
          "operation 1: machine id 1 out of range"]),
        (Instance(1, 2, ((1, 2),), {(1, 1): 2}, frozenset(), 0.5),
         ["missing standard time for pair (1, 2)"]),
    ],
    ids=["no-operations", "no-machines", "missing-time"],
)
def test_validate_reports_what_no_parser_produces(inst, expected):
    """The parsers never give an instance without operations, without
    machines or without the standard time of an eligible pair, but one
    built by hand can have each."""
    assert validate_instance(inst) == expected


def test_with_learning_rate(fig1):
    other = fig1.with_learning_rate(0.2)
    assert other.learning_rate == 0.2
    assert other.std_time == fig1.std_time
    assert fig1.learning_rate == 1.0  # original untouched


def test_name_not_part_of_identity(fig1):
    assert fig1 == parse_instance(FIG1_TEXT, "other-name")
