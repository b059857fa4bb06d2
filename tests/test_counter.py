"""Counter machine syntax, exact semantics, and the restricted zero-test class."""

from __future__ import annotations

from random import Random

import pytest

from gen import random_counter_machine
from oracles import _ref_control_reachable, ref_counter_step, ref_is_cmrz, ref_run
from paper import require_no_zero_tests
from wstskit.counter import (
    OP_DEC,
    OP_INC,
    OP_NOOP,
    CounterConfig,
    CounterMachine,
    CounterTransition,
    cm_post,
    control_reachable,
    counter_config_str,
    is_cmrz,
)
from wstskit.olts import counter_olts


def mk(states, counters, trans, initial):
    return CounterMachine(tuple(states), tuple(counters), tuple(trans), initial)


def t(src, op, counter, tgt, zero=()):
    return CounterTransition(src, op, counter, frozenset(zero), tgt)


def test_validation_rejects_bad_machines():
    with pytest.raises(ValueError):
        mk(["q0", "q0"], ["c"], [], "q0")
    with pytest.raises(ValueError):
        mk(["q0"], ["c", "c"], [], "q0")
    with pytest.raises(ValueError):
        mk(["q0"], ["c"], [], "q9")
    with pytest.raises(ValueError):
        mk(["q0"], ["c"], [t("q0", OP_INC, "c", "q9")], "q0")
    with pytest.raises(ValueError):
        mk(["q0"], ["c"], [t("q0", OP_INC, "d", "q0")], "q0")
    with pytest.raises(ValueError):
        mk(["q0"], ["c"], [t("q0", OP_NOOP, "c", "q0")], "q0")
    with pytest.raises(ValueError):
        mk(["q0"], ["c"], [t("q0", OP_INC, None, "q0")], "q0")
    with pytest.raises(ValueError):
        mk(["q0"], ["c"], [t("q0", OP_NOOP, None, "q0", zero=["d"])], "q0")
    with pytest.raises(ValueError, match="^transition 0 has unknown op 'mul'$"):
        mk(["q0"], ["c"], [t("q0", "mul", "c", "q0")], "q0")


def test_counter_index_names_the_unknown_counter(m8):
    assert m8.machine.counter_index("c") == 0
    with pytest.raises(ValueError, match="^unknown counter 'zz'$"):
        m8.machine.counter_index("zz")


def test_initial_config_shapes():
    m = mk(["q0"], ["a", "b"], [], "q0")
    assert m.initial_config() == CounterConfig("q0", (0, 0))
    assert m.initial_config([1, 2]) == CounterConfig("q0", (1, 2))
    with pytest.raises(ValueError):
        m.initial_config([1])


def test_step_semantics_on_hand_cases():
    m = mk(
        ["q0", "q1"],
        ["c", "d"],
        [
            t("q0", OP_INC, "c", "q1"),
            t("q1", OP_DEC, "d", "q0"),
            t("q0", OP_NOOP, None, "q0", zero=["c", "d"]),
        ],
        "q0",
    )
    step = counter_olts(m).step
    assert step(CounterConfig("q0", (0, 0)), 0) == CounterConfig("q1", (1, 0))
    assert step(CounterConfig("q1", (0, 0)), 0) is None  # wrong control
    assert step(CounterConfig("q1", (5, 0)), 1) is None  # dec at zero
    assert step(CounterConfig("q1", (5, 2)), 1) == CounterConfig("q0", (5, 1))
    assert step(CounterConfig("q0", (0, 0)), 2) == CounterConfig("q0", (0, 0))
    assert step(CounterConfig("q0", (1, 0)), 2) is None  # zero test fails
    with pytest.raises(ValueError):
        step(CounterConfig("q0", (0, 0)), 3)


def test_step_agrees_with_reference_on_random_machines():
    rng = Random(20260823)
    for _ in range(80):
        m = random_counter_machine(rng, zero_tests=True)
        for _ in range(20):
            x = CounterConfig(
                rng.choice(m.states),
                tuple(rng.randint(0, 3) for _ in m.counters),
            )
            for label in range(len(m.transitions)):
                assert counter_olts(m).step(x, label) == ref_counter_step(m, x, label)


def test_post_is_declaration_ordered():
    rng = Random(7)
    for _ in range(30):
        m = random_counter_machine(rng, zero_tests=True)
        x = CounterConfig(m.states[0], tuple(1 for _ in m.counters))
        post = cm_post(m, x)
        labels = [label for label, _ in post]
        assert labels == sorted(labels)
        for label, y in post:
            assert counter_olts(m).step(x, label) == y


def test_post_matches_reference_steps_on_random_machines():
    # cm_post reads a per-machine index; every label of the reference stepper
    # must agree, from every control and from an undeclared one
    rng = Random(20261019)
    for _ in range(150):
        m = random_counter_machine(rng, max_counters=3, max_transitions=10, zero_tests=True)
        for q in m.states + ("nowhere",):
            for _ in range(5):
                x = CounterConfig(q, tuple(rng.randint(0, 2) for _ in m.counters))
                want = [
                    (label, y)
                    for label in range(len(m.transitions))
                    if (y := ref_counter_step(m, x, label)) is not None
                ]
                assert cm_post(m, x) == want, (m, x)


def test_run_reports_first_stuck_index():
    rng = Random(11)
    for _ in range(40):
        m = random_counter_machine(rng, zero_tests=True)
        x = m.initial_config()
        labels = [rng.randrange(len(m.transitions)) for _ in range(8)]
        got = counter_olts(m).run(labels, x)
        assert got == ref_run(m, x, labels, ref_counter_step)


def test_describe_transition_formats():
    m = mk(
        ["q0"],
        ["a", "b"],
        [
            t("q0", OP_INC, "a", "q0"),
            t("q0", OP_DEC, "b", "q0", zero=["b", "a"]),
            t("q0", OP_NOOP, None, "q0", zero=["a"]),
        ],
        "q0",
    )
    assert m.describe_transition(0) == "inc(a)"
    assert m.describe_transition(1) == "dec(b) [zero: a,b]"
    assert m.describe_transition(2) == "noop [zero: a]"
    assert counter_config_str(CounterConfig("q0", (0, 3))) == "q0:(0,3)"


def test_control_reachable():
    m = mk(
        ["q0", "q1", "q2"],
        ["c"],
        [t("q0", OP_INC, "c", "q1"), t("q2", OP_INC, "c", "q0")],
        "q0",
    )
    assert control_reachable(m, "q0") == {"q0", "q1"}
    assert control_reachable(m, "q2") == {"q0", "q1", "q2"}


def test_is_cmrz_same_transition_violation():
    m = mk(["q0"], ["c"], [t("q0", OP_INC, "c", "q0", zero=["c"])], "q0")
    ok, witness = is_cmrz(m)
    assert not ok and witness == [0]


def test_is_cmrz_update_after_test():
    m = mk(
        ["q0", "q1", "q2"],
        ["c"],
        [
            t("q0", OP_NOOP, None, "q1", zero=["c"]),
            t("q1", OP_NOOP, None, "q2"),
            t("q2", OP_DEC, "c", "q2"),
        ],
        "q0",
    )
    ok, witness = is_cmrz(m)
    assert not ok and witness == [0, 1, 2]


def test_is_cmrz_unreachable_test_is_fine():
    m = mk(
        ["q0", "q1"],
        ["c"],
        [t("q1", OP_INC, "c", "q1", zero=["c"])],  # q1 unreachable from q0
        "q0",
    )
    assert is_cmrz(m) == (True, None)


def test_is_cmrz_other_counter_untouched():
    m = mk(
        ["q0", "q1"],
        ["c", "d"],
        [t("q0", OP_NOOP, None, "q1", zero=["c"]), t("q1", OP_INC, "d", "q1")],
        "q0",
    )
    assert is_cmrz(m) == (True, None)


def test_is_cmrz_on_corpus(m7, m8):
    assert is_cmrz(m7.machine) == (True, None)
    ok, witness = is_cmrz(m8.machine)
    assert not ok and witness == [0, 1]


def test_is_cmrz_matches_the_transition_scan_on_random_machines():
    rng = Random(20261024)
    violations = 0
    for _ in range(1000):
        m = random_counter_machine(
            rng, max_states=5, max_counters=3, max_transitions=10, zero_tests=True, zero_p=0.4
        )
        got = is_cmrz(m)
        assert got == ref_is_cmrz(m), m
        violations += not got[0]
        for q in m.states:
            assert is_cmrz(m, q) == ref_is_cmrz(m, q), (m, q)
            assert control_reachable(m, q) == _ref_control_reachable(m, q), (m, q)
        # an undeclared start once reached only itself, so nothing was tested
        assert "zz" not in m.states
        for check in (is_cmrz, control_reachable):
            with pytest.raises(ValueError, match="^start control 'zz' not a machine state$"):
                check(m, "zz")
    assert violations >= 400, violations


def test_require_no_zero_tests_message():
    m = mk(["q0"], ["c"], [t("q0", OP_INC, "c", "q0"), t("q0", OP_NOOP, None, "q0", zero=["c"])], "q0")
    with pytest.raises(ValueError) as err:
        require_no_zero_tests(m)
    assert "transition 1 carries a zero test" in str(err.value)
    clean = mk(["q0"], ["c"], [t("q0", OP_INC, "c", "q0")], "q0")
    assert require_no_zero_tests(clean) is clean
