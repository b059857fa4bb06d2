"""FIFO machine semantics, bounded-language automata, product, iterability."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from itertools import product as iproduct
from pathlib import Path
from random import Random

import pytest

import wstskit
from conftest import MODELS
from gen import random_fifo_machine, random_loop_instance
from oracles import (
    ref_completable_pairs,
    ref_ext_prefix_leq,
    ref_fifo_step,
    ref_position_dfa,
    ref_product_machine,
    ref_rrt,
    ref_run,
    simulate_iterations,
)
from paper import check_fifo_infinite_iterability, recv_proj, resolve_action_run, send_proj
from wstskit.fifo import (
    RECV,
    SEND,
    Alphabet,
    BoundedLang,
    FifoConfig,
    FifoMachine,
    FifoTransition,
    bounded_lang,
    build_recv_dfa,
    build_send_dfa,
    fifo_config_str,
    fifo_post,
    normalize_distinct_letter,
    product_machine,
)
from wstskit.cli import main
from wstskit.olts import fifo_olts
from wstskit.rrt import build_rrt


def chain_machine(actions: str, letters: str = "ab", channel: str = "ch"):
    """Cycle machine firing the action string once per round, e.g. "?a !b"."""
    toks = actions.split()
    alphabet = Alphabet(letters)
    states = tuple(f"p{i}" for i in range(len(toks)))
    trans = tuple(
        FifoTransition(
            states[i], channel, tok[0], alphabet.letter(tok[1:]), states[(i + 1) % len(toks)]
        )
        for i, tok in enumerate(toks)
    )
    return FifoMachine(states, (channel,), alphabet, trans, states[0], name="chain")


def test_alphabet_basics():
    a = Alphabet(["a", "b", "req"])
    assert a.letter("a") == "\x00" and a.name("\x02") == "req"
    assert a.word("ab") == "\x00\x01"
    assert a.word(["req", "a"]) == "\x02\x00"
    assert a.show("") == "ε"
    assert a.show("\x00\x01") == "ab"
    assert a.show("\x02\x00") == "req.a"
    # membership asks for letters, not names
    assert a.letter("b") in a and "b" not in a and "\x03" not in a
    assert 0 not in a and "" not in a and a.word("ab") not in a
    with pytest.raises(ValueError):
        a.letter("z")
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])
    with pytest.raises(ValueError):
        Alphabet([""])


def test_machine_validation():
    a = Alphabet("ab")
    letter = a.letter("a")
    with pytest.raises(ValueError):
        FifoMachine(("q0", "q0"), ("ch",), a, (), "q0")
    with pytest.raises(ValueError):
        FifoMachine(("q0",), ("ch", "ch"), a, (), "q0")
    with pytest.raises(ValueError):
        FifoMachine(("q0",), ("ch",), a, (), "q9")
    with pytest.raises(ValueError, match="^transition 0 uses undeclared control state$"):
        FifoMachine(("q0",), ("ch",), a, (FifoTransition("q0", "ch", SEND, letter, "q9"),), "q0")
    with pytest.raises(ValueError):
        FifoMachine(
            ("q0",), ("ch",), a,
            (FifoTransition("q0", "xx", SEND, letter, "q0"),), "q0",
        )
    with pytest.raises(ValueError):
        FifoMachine(
            ("q0",), ("ch",), a,
            (FifoTransition("q0", "ch", "x", letter, "q0"),), "q0",
        )
    # ints, a float, a two-letter word and the empty word are not letters
    for bad in (9, 0, 0.5, a.word("ab"), ""):
        message = f"^transition 0 uses unknown letter {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            FifoMachine(("q0",), ("ch",), a, (FifoTransition("q0", "ch", SEND, bad, "q0"),), "q0")


def test_step_semantics_hand_cases(m2):
    m = m2.machine
    x = m.initial_config()
    assert x == FifoConfig("q0", ("",))
    step = fifo_olts(m).step
    y = step(x, 0)  # send a
    assert y == FifoConfig("q0", (m.alphabet.word("a"),))
    assert step(x, 2) is None  # wrong control
    z = step(FifoConfig("q1", (m.alphabet.word("ca"),)), 2)  # recv c
    assert z == FifoConfig("q2", (m.alphabet.word("a"),))
    assert step(FifoConfig("q1", (m.alphabet.word("ac"),)), 2) is None
    assert step(FifoConfig("q1", ("",)), 2) is None
    with pytest.raises(ValueError):
        step(x, 99)


def test_step_agrees_with_reference_on_random_machines():
    rng = Random(20260823)
    for _ in range(60):
        m = random_fifo_machine(rng)
        letters = m.alphabet.word(m.alphabet.letters)
        for _ in range(15):
            contents = tuple(
                "".join(rng.choice(letters) for _ in range(rng.randint(0, 3))) for _ in m.channels
            )
            x = FifoConfig(rng.choice(m.states), contents)
            for label in range(len(m.transitions)):
                assert fifo_olts(m).step(x, label) == ref_fifo_step(m, x, label)


def test_post_and_run(m2):
    m = m2.machine
    x = FifoConfig("q2", (m.alphabet.word("b"),))
    post = fifo_post(m, x)
    assert [label for label, _ in post] == [3, 4, 6]
    got = fifo_olts(m).run([0, 0, 1, 2])
    want = ref_run(m, m.initial_config(), [0, 0, 1, 2], ref_fifo_step)
    assert got == want
    assert got[1] == 3  # recv c on content "aab" is stuck


def test_run_reports_first_stuck_index():
    # from loaded channels, along label sequences that are random or follow
    # enabled steps, so both stuck and complete runs, receives included, occur
    rng = Random(12)
    stuck_at = set()
    for _ in range(60):
        m = random_fifo_machine(rng, max_channels=3)
        x = m.initial_config(
            {ch: "".join(rng.choice("ab") for _ in range(rng.randint(0, 3))) for ch in m.channels}
        )
        olts = fifo_olts(m, x)
        for walk in (False, True):
            labels, y = [], x
            for _ in range(8):
                enabled = [label for label, _ in fifo_post(m, y)]
                label = rng.choice(enabled if walk and enabled else range(len(m.transitions)))
                labels.append(label)
                y = ref_fifo_step(m, y, label) or y
            got = olts.run(labels)
            assert got == ref_run(m, x, labels, ref_fifo_step)
            assert olts.run(labels, x) == got
            stuck_at.add(got[1])
    assert None in stuck_at and 0 in stuck_at and len(stuck_at) >= 5


def test_post_matches_reference_steps_on_random_machines():
    # fifo_post reads a per-machine index; every label of the reference
    # stepper must agree, on one to three channels and from an undeclared control
    rng = Random(20261020)
    for _ in range(150):
        m = random_fifo_machine(rng, max_channels=3, letters="abc", max_transitions=10)
        letters = m.alphabet.word("abc")
        for q in m.states + ("nowhere",):
            for _ in range(5):
                x = FifoConfig(
                    q,
                    tuple(
                        "".join(rng.choice(letters) for _ in range(rng.randint(0, 3)))
                        for _ in m.channels
                    ),
                )
                want = [
                    (label, y)
                    for label in range(len(m.transitions))
                    if (y := ref_fifo_step(m, x, label)) is not None
                ]
                assert fifo_post(m, x) == want, (m, x)


def test_initial_config_takes_letter_names(m2):
    m = m2.machine
    want = FifoConfig("q0", (m.alphabet.word("ca"),))
    assert m.initial_config({"ch": "ca"}) == want
    assert m.initial_config({"ch": ["c", "a"]}) == want
    with pytest.raises(ValueError, match="unknown letter 0"):
        m.initial_config({"ch": (0, 1)})  # ints are not letter names
    with pytest.raises(ValueError, match="unknown channel 'zz'"):
        m.initial_config({"zz": "a"})


def test_describe_and_config_str(m2):
    m = m2.machine
    assert m.describe_transition(0) == "!a"
    assert m.describe_transition(2) == "?c"
    ab = Alphabet("ab")
    two = FifoMachine(
        ("q0",), ("c1", "c2"), ab,
        (FifoTransition("q0", "c2", SEND, ab.letter("a"), "q0"),), "q0",
    )
    assert two.describe_transition(0) == "c2!a"
    assert fifo_config_str(m, FifoConfig("q1", (m.alphabet.word("ab"),))) == "q1:(ab)"
    assert fifo_config_str(two, FifoConfig("q0", ("", ab.word("a")))) == "q0:(ε|a)"


def test_resolve_action_run(m2):
    m = m2.machine
    assert resolve_action_run(m, m.initial_config(), "!a !b") == [0, 1]
    assert resolve_action_run(m, m.initial_config(), ["ch!a", "ch!a"]) == [0, 0]
    with pytest.raises(ValueError):
        resolve_action_run(m, m.initial_config(), "?c")  # not executable
    with pytest.raises(ValueError):
        resolve_action_run(m, m.initial_config(), "!a !!")  # bad token
    a = Alphabet("a").letter("a")
    fork = FifoMachine(
        ("q0", "q1", "q2"), ("ch",), Alphabet("a"),
        (
            FifoTransition("q0", "ch", SEND, a, "q1"),
            FifoTransition("q0", "ch", SEND, a, "q2"),
        ),
        "q0",
    )
    with pytest.raises(ValueError):
        resolve_action_run(fork, fork.initial_config(), "!a")  # ambiguous
    two = FifoMachine(
        ("q0",), ("c1", "c2"), Alphabet("a"),
        (FifoTransition("q0", "c1", SEND, a, "q0"),), "q0",
    )
    with pytest.raises(ValueError):
        resolve_action_run(two, two.initial_config(), "!a")  # channel required


def test_resolve_action_run_long_run_needs_no_recursion(m1):
    labels = resolve_action_run(m1.machine, m1.initial, "!a " * 5000)
    assert labels == [0] * 5000
    assert fifo_olts(m1.machine, m1.initial).run(labels)[1] is None
    with pytest.raises(ValueError, match="not executable"):
        resolve_action_run(m1.machine, m1.initial, "!a " * 4999 + "!b !a")


def test_resolve_action_run_is_polynomial_on_ambiguous_dead_ends():
    # Two self-loops spell !a, so 40 sends have 2^40 resolutions.  A
    # resolver that enumerates them never ends, so the calls run in a
    # child process that the timeout stops instead of hanging the suite.
    script = textwrap.dedent(
        """
        from paper import resolve_action_run
        from wstskit.fifo import Alphabet, FifoMachine, FifoTransition

        ab = Alphabet("ab")
        loop = FifoTransition("q0", "ch", "!", ab.letter("a"), "q0")
        m = FifoMachine(("q0",), ("ch",), ab, (loop, loop), "q0")
        for actions in ("!a " * 40 + "?b", "!a " * 40):
            try:
                resolve_action_run(m, m.initial_config(), actions)
            except ValueError as exc:
                print(exc)
        """
    )
    # the resolver lives in tests/paper.py, which imports the package
    path = [str(Path(wstskit.__file__).resolve().parent.parent), str(Path(__file__).parent)]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "action run is not executable",
        "action run is ambiguous; pass transition labels instead",
    ]


def brute_resolutions(machine, x0, actions):
    """Every label sequence whose transitions spell the actions and replay."""
    per_action = []
    for tok in actions:
        ch, kind, name = (tok[:-2] or machine.channels[0]), tok[-2], tok[-1]
        letter = machine.alphabet.letter(name)
        per_action.append([
            label for label, t in enumerate(machine.transitions)
            if (t.channel, t.kind, t.letter) == (ch, kind, letter)
        ])
    return [
        list(seq) for seq in iproduct(*per_action)
        if ref_run(machine, x0, seq, ref_fifo_step)[1] is None
    ]


def test_resolve_action_run_matches_brute_force_on_random_machines():
    rng = Random(20261021)
    outcomes = set()
    for _ in range(300):
        m = random_fifo_machine(rng, max_states=3, max_channels=2, max_transitions=8)
        x0 = m.initial_config()
        actions = [
            f"{rng.choice(m.channels)}{rng.choice('!?')}{rng.choice('ab')}"
            for _ in range(rng.randint(1, 5))
        ]
        want = brute_resolutions(m, x0, actions)
        if len(want) == 1:
            assert resolve_action_run(m, x0, actions) == want[0]
            outcomes.add("unique")
        else:
            with pytest.raises(ValueError, match="not executable" if not want else "ambiguous"):
                resolve_action_run(m, x0, actions)
            outcomes.add("none" if not want else "ambiguous")
    assert outcomes == {"unique", "none", "ambiguous"}


def test_projections(m2):
    m = m2.machine
    labels = [0, 1, 2, 3, 4]
    assert send_proj(m, labels, "ch") == m.alphabet.word("abb")
    assert recv_proj(m, labels, "ch") == m.alphabet.word("cb")


def test_bounded_lang_shapes(m4):
    lang = m4.lang
    assert lang is not None
    assert lang.channels == ("ch",)
    assert lang.blocks_for("ch") == (m4.machine.alphabet.word("ab"),)
    assert lang.distinct_letter
    assert lang.show() == "ch: (ab)"
    rep = bounded_lang(m4.machine, {"ch": ("ab", "a")})
    assert not rep.distinct_letter
    with pytest.raises(ValueError, match="must be distinct-letter"):
        build_send_dfa(m4.machine, rep)
    with pytest.raises(ValueError, match=r"^bounded language misses channels: \['ch'\]$"):
        build_send_dfa(m4.machine, BoundedLang(m4.machine.alphabet, (), ()))
    with pytest.raises(ValueError, match="^one block list per channel required$"):
        BoundedLang(m4.machine.alphabet, ("ch",), ())
    with pytest.raises(ValueError):
        bounded_lang(m4.machine, {"nope": ("a",)})
    with pytest.raises(ValueError):
        BoundedLang(m4.machine.alphabet, ("ch",), (("",),))  # empty word
    with pytest.raises(ValueError, match="^unknown channel 'zz'$"):
        lang.blocks_for("zz")
    # a letter outside the alphabet: an int, or a letter of a larger alphabet
    ab = m4.machine.alphabet.word("ab")
    h = Alphabet("abcdefgh").letter("h")
    for word, bad in (((0, 7), 0), (ab + h, h)):
        message = f"^a word of channel 'ch' uses unknown letter {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            BoundedLang(m4.machine.alphabet, ("ch",), ((word,),))
    with pytest.raises(ValueError, match="^bounded language repeats channel 'ch'$"):
        BoundedLang(m4.machine.alphabet, ("ch", "ch"), ((ab,), (ab,)))
    # a word of letters that is not a str would show as ch: (ab), yet
    # compare unequal to the parsed language
    message = f"^a word of channel 'ch' is not a str: {re.escape(repr(tuple(ab)))}$"
    with pytest.raises(ValueError, match=message):
        BoundedLang(m4.machine.alphabet, ("ch",), ((tuple(ab),),))


def test_normalization_identity(m4):
    norm = normalize_distinct_letter(m4.machine, m4.lang)
    assert norm.machine is m4.machine
    assert norm.lang is m4.lang
    assert norm.letter_map == {"a": "a", "b": "b"}
    assert norm.positions == {"a": ("ch", 0, 0), "b": ("ch", 0, 1)}


def free_machine():
    """One control state that sends a or b on one channel."""
    ab = Alphabet("ab")
    sends = tuple(FifoTransition("p0", "ch", SEND, letter, "p0") for letter in ab.word("ab"))
    return FifoMachine(("p0",), ("ch",), ab, sends, "p0")


def test_normalization_renames_occurrences_apart():
    free = free_machine()
    lang = bounded_lang(free, {"ch": ("ab", "a")})
    norm = normalize_distinct_letter(free, lang)
    assert norm.lang.distinct_letter
    assert norm.machine.alphabet.letters == ("a", "b", "a1", "b1", "a2")
    assert norm.letter_map == {"a": "a", "b": "b", "a1": "a", "b1": "b", "a2": "a"}
    assert norm.positions == {
        "a1": ("ch", 0, 0),
        "b1": ("ch", 0, 1),
        "a2": ("ch", 1, 0),
    }
    # transitions on a are split per occurrence of a, likewise for b
    kinds = [
        (t.source, norm.machine.alphabet.name(t.letter), t.target)
        for t in norm.machine.transitions
    ]
    assert kinds == [
        ("p0", "a1", "p0"),
        ("p0", "a2", "p0"),
        ("p0", "b1", "p0"),
    ]


def test_normalization_name_clash_and_letters_of_other_channels():
    alphabet = Alphabet(["a", "a1"])
    a, a1 = alphabet.word(alphabet.letters)
    m = FifoMachine(
        ("p0",), ("c", "d"), alphabet,
        (
            FifoTransition("p0", "c", SEND, a, "p0"),
            FifoTransition("p0", "d", SEND, a, "p0"),  # a is only in c's words
            FifoTransition("p0", "c", RECV, a1, "p0"),  # a1 is in no word
        ),
        "p0",
    )
    norm = normalize_distinct_letter(m, bounded_lang(m, {"c": ("aa",), "d": ()}))
    # the first fresh name for a, a1, clashes with a declared letter
    assert norm.machine.alphabet.letters == ("a", "a1", "a1_", "a2")
    assert norm.letter_map == {"a": "a", "a1": "a1", "a1_": "a", "a2": "a"}
    assert norm.positions == {"a1_": ("c", 0, 0), "a2": ("c", 0, 1)}
    fresh1, fresh2 = norm.machine.alphabet.word(["a1_", "a2"])
    assert norm.lang.blocks == ((fresh1 + fresh2,), ())
    # transitions whose letter no word of their channel uses are kept verbatim
    assert norm.machine.transitions == (
        FifoTransition("p0", "c", SEND, fresh1, "p0"),
        FifoTransition("p0", "c", SEND, fresh2, "p0"),
        FifoTransition("p0", "d", SEND, a, "p0"),
        FifoTransition("p0", "c", RECV, a1, "p0"),
    )


M4_PRODUCT = """\
# product of m4 with bounds: ch: (ab)
kind fifo
states q0_s0_r0 q1_s1_r0 q2_s0_r0 q0_s0_r1 q1_s1_r1 q2_s0_r1
channels ch
alphabet a b
q0_s0_r0 -- ch!a --> q1_s1_r0
q1_s1_r0 -- ch!b --> q2_s0_r0
q2_s0_r0 -- ch?a --> q0_s0_r1
q0_s0_r1 -- ch!a --> q1_s1_r1
q1_s1_r1 -- ch!b --> q2_s0_r1
init q0_s0_r0
"""

MIX_MODEL = """\
kind fifo
states p q
channels c d
alphabet a b a1
p -- c!a --> q
q -- c!b --> p
q -- d!a --> q
q -- d!b --> q
p -- c?a --> p
p -- c?b --> p
bound c: (ab)(a)
bound d: (b)
init p
"""

MIX_PRODUCT = """\
# product of mix with bounds: c: (ab)(a); d: (b)
# letter a1_ -> a (channel c, word 0, position 0)
# letter a2 -> a (channel c, word 1, position 0)
# letter b1 -> b (channel c, word 0, position 1)
# letter b2 -> b (channel d, word 0, position 0)
kind fifo
states p_s0_r0 q_s1_r0 q_s2_r0 p_s0_r1 p_s0_r2 q_s1_r1 q_s2_r1 q_s1_r2 q_s2_r2
channels c d
alphabet a b a1 a1_ b1 a2 b2
p_s0_r0 -- c!a1_ --> q_s1_r0
p_s0_r0 -- c!a2 --> q_s2_r0
p_s0_r0 -- c?a1_ --> p_s0_r1
p_s0_r0 -- c?a2 --> p_s0_r2
q_s1_r0 -- c!b1 --> p_s0_r0
q_s1_r0 -- d!b2 --> q_s1_r0
q_s2_r0 -- d!b2 --> q_s2_r0
p_s0_r1 -- c!a1_ --> q_s1_r1
p_s0_r1 -- c!a2 --> q_s2_r1
p_s0_r1 -- c?b1 --> p_s0_r0
p_s0_r2 -- c!a1_ --> q_s1_r2
p_s0_r2 -- c!a2 --> q_s2_r2
p_s0_r2 -- c?a2 --> p_s0_r2
q_s1_r1 -- c!b1 --> p_s0_r1
q_s1_r1 -- d!b2 --> q_s1_r1
q_s2_r1 -- d!b2 --> q_s2_r1
q_s1_r2 -- c!b1 --> p_s0_r2
q_s1_r2 -- d!b2 --> q_s1_r2
q_s2_r2 -- d!b2 --> q_s2_r2
init p_s0_r0
"""


def test_product_output_is_pinned(tmp_path, capsys):
    # the whole `wstskit product` text, distinct-letter (m4) and renamed
    # (a repeated letter, a name clash, and d!a dropped: a is in c's words only)
    mix = tmp_path / "mix.model"
    mix.write_text(MIX_MODEL, encoding="utf-8")
    for model, expected in ((MODELS / "m4.model", M4_PRODUCT), (mix, MIX_PRODUCT)):
        assert main(["product", str(model)]) == 0
        assert capsys.readouterr().out == expected


def test_product_output_does_not_depend_on_string_hashing(tmp_path):
    # letters are str keys of the DFA tables, and str hashes change with
    # PYTHONHASHSEED; the product text must not
    mix = tmp_path / "mix.model"
    mix.write_text(MIX_MODEL, encoding="utf-8")
    src = str(Path(wstskit.__file__).resolve().parent.parent)
    for model, expected in ((MODELS / "m4.model", M4_PRODUCT), (mix, MIX_PRODUCT)):
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "wstskit", "product", str(model)],
                capture_output=True,
                timeout=60,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == expected.encode(), (model.name, seed)


def test_product_letter_comments_sort_numbers_as_numbers(tmp_path, capsys):
    # eleven occurrences of one letter: a10 and a11 come after a9, not after a1
    model = tmp_path / "eleven.model"
    model.write_text(
        "kind fifo\nstates p\nchannels ch\nalphabet a\n"
        "p -- ch!a --> p\np -- ch?a --> p\nbound ch: (aaaaaaaaaaa)\ninit p\n",
        encoding="utf-8",
    )
    assert main(["product", str(model)]) == 0
    comments = [line for line in capsys.readouterr().out.splitlines() if line.startswith("# letter")]
    assert comments == [
        f"# letter a{i + 1} -> a (channel ch, word 0, position {i})" for i in range(11)
    ]


def test_send_dfa_acceptance(m4):
    m = m4.machine
    dfa = build_send_dfa(m, m4.lang)
    a, b = m.alphabet.word("ab")
    send_a, send_b = ("ch", SEND, a), ("ch", SEND, b)
    recv_a = ("ch", RECV, a)
    assert dfa.accepts([])
    assert dfa.accepts([send_a, send_b])
    assert dfa.accepts([send_a, send_b, send_a, send_b])
    assert not dfa.accepts([send_a])  # mid-block
    assert dfa.run([send_b]) is None  # block must start with a
    assert dfa.accepts([send_a, recv_a, send_b])  # receives do not move it


def test_recv_dfa_accepts_prefixes(m4):
    m = m4.machine
    dfa = build_recv_dfa(m, m4.lang)
    a, b = m.alphabet.word("ab")
    recv_a, recv_b = ("ch", RECV, a), ("ch", RECV, b)
    send_b = ("ch", SEND, b)
    assert dfa.accepts([])
    assert dfa.accepts([recv_a])  # proper prefix is fine
    assert dfa.accepts([recv_a, recv_b, recv_a])
    assert dfa.run([recv_b]) is None
    assert dfa.accepts([send_b, recv_a])  # sends do not move it


def test_block_skipping():
    free = free_machine()
    lang = bounded_lang(free, {"ch": ("a", "b")})
    dfa = build_send_dfa(free, lang)
    send_a = ("ch", SEND, free.alphabet.letter("a"))
    send_b = ("ch", SEND, free.alphabet.letter("b"))
    assert dfa.accepts([send_b])  # may skip the a-block entirely
    assert dfa.accepts([send_a, send_a, send_b])
    assert dfa.run([send_b, send_a]) is None  # no going back


def test_product_matches_expected_path(m3, m4):
    norm = normalize_distinct_letter(m4.machine, m4.lang)
    prod = product_machine(
        norm.machine, build_send_dfa(norm.machine, norm.lang),
        build_recv_dfa(norm.machine, norm.lang),
    )
    assert prod.states == (
        "q0_s0_r0", "q1_s1_r0", "q2_s0_r0", "q0_s0_r1", "q1_s1_r1", "q2_s0_r1",
    )
    moves = [(t.source, t.kind, prod.alphabet.name(t.letter), t.target) for t in prod.transitions]
    assert moves == [
        ("q0_s0_r0", SEND, "a", "q1_s1_r0"),
        ("q1_s1_r0", SEND, "b", "q2_s0_r0"),
        ("q2_s0_r0", RECV, "a", "q0_s0_r1"),
        ("q0_s0_r1", SEND, "a", "q1_s1_r1"),
        ("q1_s1_r1", SEND, "b", "q2_s0_r1"),
    ]
    assert m3.machine.states == m4.machine.states  # same underlying triangle


def random_languages(seed: int, count: int):
    """``count`` random machines with bounded languages on 1-3 channels,
    with distinct or repeated letters and some empty channels, each
    normalized: yields (original machine, language, normalization)."""
    rng = Random(seed)
    for _ in range(count):
        m = random_fifo_machine(rng, max_channels=3, letters="abcdef", max_transitions=6)
        pool = list(m.alphabet.letters)
        rng.shuffle(pool)
        distinct = rng.random() < 0.5
        words = {}
        for ch in m.channels:
            words[ch] = tuple(
                "".join(
                    pool.pop() if distinct and pool else rng.choice("abc")
                    for _ in range(rng.randint(1, 2))
                )
                for _ in range(rng.randint(0, 3))
            )
        lang = bounded_lang(m, words)
        yield m, lang, normalize_distinct_letter(m, lang)


def language_kinds(m: FifoMachine, lang: BoundedLang) -> set[str]:
    kinds = {"distinct" if lang.distinct_letter else "repeated", f"{len(m.channels)} channels"}
    if not all(lang.blocks):
        kinds.add("empty channel")
    return kinds


ALL_LANGUAGE_KINDS = {
    "distinct", "repeated", "empty channel", "1 channels", "2 channels", "3 channels",
}


def test_every_position_dfa_pair_is_completable():
    # product_machine keeps every reachable triple because no DFA pair is a
    # dead end; check that against the backward search on random languages
    seen = set()
    for m, lang, norm in random_languages(20261101, 120):
        send = build_send_dfa(norm.machine, norm.lang)
        recv = build_recv_dfa(norm.machine, norm.lang)
        pairs = {(s, r) for s in send.states for r in recv.states}
        assert ref_completable_pairs(norm.machine, send, recv) == pairs, (m, lang.show())
        seen |= language_kinds(m, lang)
    assert seen == ALL_LANGUAGE_KINDS


def test_position_dfas_match_the_explicit_table():
    # the DFAs store only tracked moves; stepping must agree with the full
    # table, self-loops included, on every action over the machine's signature
    seen = set()
    for m, lang, norm in random_languages(20261018, 150):
        machine = norm.machine
        letters = machine.alphabet.word(machine.alphabet.letters)
        actions = list(iproduct(machine.channels, (SEND, RECV), letters))
        for build, tracked, prefix in ((build_send_dfa, SEND, "s"), (build_recv_dfa, RECV, "r")):
            dfa = build(machine, norm.lang)
            states, initial, accepting, delta = ref_position_dfa(machine, norm.lang, tracked, prefix)
            assert (dfa.states, dfa.initial, dfa.accepting) == (states, initial, accepting)
            for state in states:
                for a in actions:
                    assert dfa.step(state, a) == delta.get((state, a)), (lang.show(), state, a)
        seen |= language_kinds(m, lang)
    assert seen == ALL_LANGUAGE_KINDS


def test_product_matches_the_textbook_product():
    # the product's states are named and ordered by its search, and its
    # transitions listed in the order found; check both against a plain
    # queue search over the explicit DFA tables
    seen = set()
    for m, lang, norm in random_languages(20261018, 150):
        machine = norm.machine
        prod = product_machine(
            machine, build_send_dfa(machine, norm.lang), build_recv_dfa(machine, norm.lang)
        )
        states, transitions = ref_product_machine(machine, norm.lang)
        assert (prod.states, prod.initial) == (states, states[0]), lang.show()
        assert list(prod.transitions) == transitions, lang.show()
        seen |= language_kinds(m, lang)
    assert seen == ALL_LANGUAGE_KINDS


def trace_actions(machine: FifoMachine, depth: int):
    """All executable action-name traces from the empty initial config."""
    out = set()
    step = fifo_olts(machine).step
    stack = [(machine.initial_config(), ())]
    while stack:
        x, trace = stack.pop()
        out.add(trace)
        if len(trace) == depth:
            continue
        for label in range(len(machine.transitions)):
            y = step(x, label)
            if y is not None:
                t = machine.transitions[label]
                stack.append((y, trace + ((t.kind, machine.alphabet.name(t.letter)),)))
    return out


def test_normalized_product_traces_erase_to_bounded_originals():
    free = free_machine()
    lang = bounded_lang(free, {"ch": ("aa", "b")})
    norm = normalize_distinct_letter(free, lang)
    prod = product_machine(
        norm.machine, build_send_dfa(norm.machine, norm.lang),
        build_recv_dfa(norm.machine, norm.lang),
    )
    depth = 5
    erased = {
        tuple((kind, norm.letter_map[name]) for kind, name in trace)
        for trace in trace_actions(prod, depth)
    }
    # prefixes of (aa)*(b)* sends: any a-run alone, or an even a-run
    # followed by a b-run (the b block may only start at a block boundary)
    expected = set()
    for na in range(depth + 1):
        for nb in range(depth + 1 - na):
            if nb == 0 or na % 2 == 0:
                expected.add(tuple([(SEND, "a")] * na + [(SEND, "b")] * nb))
    assert erased == expected


def test_iterability_hand_cases():
    grow = chain_machine("!a")
    assert check_fifo_infinite_iterability(grow, grow.initial_config(), [0])

    drain = chain_machine("?a")
    x = drain.initial_config({"ch": "aa"})
    assert not check_fifo_infinite_iterability(drain, x, [0])  # receives exceed sends

    relay = chain_machine("?a !a")
    x = relay.initial_config({"ch": "a"})
    assert check_fifo_infinite_iterability(relay, x, [0, 1])

    mismatch = chain_machine("?a !b")
    x = mismatch.initial_config({"ch": "a"})
    assert not check_fifo_infinite_iterability(mismatch, x, [0, 1])

    pump = chain_machine("?a !a !a")
    x = pump.initial_config({"ch": "a"})
    assert check_fifo_infinite_iterability(pump, x, [0, 1, 2])

    phase = chain_machine("?a ?b !a !b")
    x = phase.initial_config({"ch": "ab"})
    assert check_fifo_infinite_iterability(phase, x, [0, 1, 2, 3])

    stuck = chain_machine("?a")
    assert not check_fifo_infinite_iterability(stuck, stuck.initial_config(), [0])

    onestep = FifoMachine(
        ("q0", "q1"), ("ch",), Alphabet("a"),
        (FifoTransition("q0", "ch", SEND, Alphabet("a").letter("a"), "q1"),), "q0",
    )
    # fires but ends in a different control state: no second round possible
    assert not check_fifo_infinite_iterability(onestep, onestep.initial_config(), [0])

    # the empty sequence is no loop: it fires nothing, so nothing repeats
    assert not check_fifo_infinite_iterability(grow, grow.initial_config(), [])


def test_iterability_two_channels():
    a = Alphabet("ab")
    m = FifoMachine(
        ("q0", "q1"), ("c1", "c2"), a,
        (
            FifoTransition("q0", "c1", RECV, a.letter("a"), "q1"),
            FifoTransition("q1", "c1", SEND, a.letter("a"), "q0"),
        ),
        "q0",
    )
    x = m.initial_config({"c1": "a", "c2": "b"})
    assert check_fifo_infinite_iterability(m, x, [0, 1])  # c2 never received


def test_letters_past_one_byte():
    # rotate-with-drop over the first and the last of 300 letters, whose
    # letter is U+012B: the semantics must not assume one-byte letters
    alphabet = Alphabet(f"l{i}" for i in range(300))
    a, b = alphabet.word(["l299", "l0"])
    assert a == "\u012b"
    m = FifoMachine(
        ("q", "ra", "rb"), ("ch",), alphabet,
        (
            FifoTransition("q", "ch", RECV, a, "q"),
            FifoTransition("q", "ch", RECV, a, "ra"),
            FifoTransition("ra", "ch", SEND, a, "q"),
            FifoTransition("q", "ch", RECV, b, "rb"),
            FifoTransition("rb", "ch", SEND, b, "q"),
        ),
        "q",
    )
    x = m.initial_config({"ch": ["l299", "l0", "l299", "l299", "l0"]})
    assert fifo_config_str(m, x) == "q:(l299.l0.l299.l299.l0)"

    rrt = build_rrt(fifo_olts(m, x), budget=200)
    want = ref_rrt(m, x, ref_fifo_step, ref_ext_prefix_leq, max_nodes=200)
    assert rrt.complete and len(rrt.nodes) == 70
    assert {tuple(rrt.path_labels(i)): n.state for i, n in enumerate(rrt.nodes)} == {
        path: state for path, (state, _, _) in want.items()
    }
    for n in rrt.nodes:
        assert fifo_post(m, n.state) == [
            (label, y)
            for label in range(len(m.transitions))
            if (y := ref_fifo_step(m, n.state, label)) is not None
        ]

    labels = resolve_action_run(m, x, "?l299 !l299 ?l0 !l0")
    assert labels == [1, 2, 3, 4] and ref_run(m, x, labels, ref_fifo_step)[1] is None
    y = m.initial_config({"ch": ["l299", "l0"]})
    verdicts = []
    for start, loop in ((x, [0]), (x, [1, 2]), (x, labels), (y, labels), (y, [1, 2, 3, 4, 1, 2])):
        claimed = check_fifo_infinite_iterability(m, start, loop)
        assert claimed == (simulate_iterations(m, start, loop, 60)[0] == 60), loop
        verdicts.append(claimed)
    assert verdicts == [False, False, False, True, False]


def test_iterability_agrees_with_simulation():
    # Horizon 60 is conclusive here: with |w|,|s|,|r| <= 6 any divergence
    # between the receive stream and w followed by repeated sends shows up
    # within |w| + |s||r| + |s| + |r| <= 54 received letters, and rounds
    # with a non-empty receive part consume at least one letter each.
    rng = Random(99)
    forever = stuck = 0
    for _ in range(150):
        machine, x, labels, w, s, r = random_loop_instance(rng)
        claimed = check_fifo_infinite_iterability(machine, x, labels)
        done, _ = simulate_iterations(machine, x, labels, 60)
        assert claimed == (done == 60), (w, s, r, done, claimed)
        if done == 60:
            forever += 1
        else:
            stuck += 1
    assert forever > 0 and stuck > 0
