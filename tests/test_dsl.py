"""Model text parsing, canonical printing, and target parsing."""

from __future__ import annotations

import sys

import pytest

from conftest import load_model
from wstskit.counter import CounterConfig
from wstskit.dsl import ParseError, parse_model, parse_target, print_model
from wstskit.fifo import BoundedLang, FifoConfig

CORPUS = ["m1", "m2", "m3", "m4", "m6", "m7", "m8"]


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_parses_and_round_trips(name):
    mf = load_model(name)
    text = print_model(mf)
    again = parse_model(text, name=name)
    assert again == mf
    assert print_model(again) == text  # canonical form is a fixed point


def test_counter_model_fields(m7):
    assert m7.kind == "counter"
    assert m7.machine.states == ("q0", "q1", "q2")
    assert m7.machine.counters == ("c",)
    assert m7.initial == CounterConfig("q0", (0,))
    assert m7.lang is None


def test_fifo_model_fields(m4):
    assert m4.kind == "fifo"
    assert m4.machine.channels == ("ch",)
    assert m4.machine.alphabet.letters == ("a", "b")
    assert m4.initial == FifoConfig("q0", ("",))
    assert m4.lang is not None and m4.lang.show() == "ch: (ab)"


def test_statement_order_is_lenient():
    text = """\
kind counter
init q0 (1)
q0 -- dec(c) --> q0
counters c
states q0
"""
    mf = parse_model(text)
    assert mf.initial == CounterConfig("q0", (1,))
    assert len(mf.machine.transitions) == 1


def test_input_bounded_synonym(m4, models_dir):
    original = (models_dir / "m4.model").read_text(encoding="utf-8")
    swapped = original.replace("bound ch:", "input_bounded ch:")
    assert parse_model(swapped, name="m4") == m4


def test_comments_and_quotes():
    text = """\
# leading comment
kind fifo   # trailing comment
states q0
channels ch
alphabet a b
q0 -- ch!a --> q0
init q0 ch:"ab"  # comment after quoted content
"""
    mf = parse_model(text)
    assert mf.initial.contents == (mf.machine.alphabet.word("ab"),)


def err(text):
    with pytest.raises(ParseError) as info:
        parse_model(text)
    return info.value


def test_kind_must_come_first():
    e = err("states q0\nkind counter\ninit q0\n")
    assert e.line == 1 and "kind" in str(e)


def test_empty_model():
    e = err("\n# only a comment\n")
    assert "empty model" in str(e)


def test_duplicate_declarations():
    assert "duplicate states" in str(err("kind counter\nstates q0\nstates q1\ninit q0\n"))
    assert "duplicate name" in str(err("kind counter\nstates q0 q0\ninit q0\n"))
    assert "duplicate init" in str(err("kind counter\nstates q0\ninit q0\ninit q0\n"))


def test_bad_transitions():
    base = "kind counter\nstates q0\ncounters c\n{}\ninit q0\n"
    assert "bad counter transition" in str(err(base.format("q0 -- inc c --> q0")))
    e = err(base.format("q0 -- inc(c) --> q9"))
    assert "unknown state 'q9'" in str(e) and e.line == 4 and e.col == 18
    assert "unknown counter 'd'" in str(err(base.format("q0 -- inc(d) --> q0")))
    assert "unknown counter 'd'" in str(err(base.format("q0 -- noop [zero: d] --> q0")))
    e = err(base.format("q0 -- noop --> q"))
    assert "unknown state 'q'" in str(e) and e.col == 16
    e = err(base.format("  q0 -- inc(c) --> q9"))  # columns count the indent
    assert "unknown state 'q9'" in str(e) and e.line == 4 and e.col == 20
    fifo = "kind fifo\nstates q0\nchannels ch\nalphabet a\n{}\ninit q0\n"
    assert "bad fifo transition" in str(err(fifo.format("q0 -- ch*a --> q0")))
    assert "unknown channel 'xx'" in str(err(fifo.format("q0 -- xx!a --> q0")))
    assert "unknown letter 'z'" in str(err(fifo.format("q0 -- ch!z --> q0")))
    e = err(fifo.format("q0 -- ch!c --> q0"))
    assert "unknown letter 'c'" in str(e) and e.col == 10


def test_bad_bounds():
    base = "kind fifo\nstates q0\nchannels ch\nalphabet a b\nq0 -- ch!a --> q0\n{}\ninit q0\n"
    assert "unknown channel" in str(err(base.format("bound xx: (ab)")))
    assert "bad bound words" in str(err(base.format("bound ch: ab")))
    assert "unknown letter 'z'" in str(err(base.format("bound ch: (az)")))
    e = err(base.format("bound ch: (az)"))  # the column of z on the line
    assert e.line == 6 and e.col == 13
    two = base.format("bound ch: (a)\nbound ch: (b)")
    assert "duplicate bound clause" in str(err(two))


def test_bad_init():
    base = "kind counter\nstates q0\ncounters c d\ninit {}\n"
    assert "unknown state" in str(err(base.format("q9 (0,0)")))
    assert "expected 2 initial values" in str(err(base.format("q0 (0)")))
    assert "must be integers" in str(err(base.format("q0 (x,y)")))
    assert "must be non-negative" in str(err(base.format("q0 (0,-1)")))
    fifo = "kind fifo\nstates q0\nchannels ch\nalphabet a\ninit {}\n"
    assert "unknown channel" in str(err(fifo.format('q0 xx:"a"')))
    assert "unknown letter" in str(err(fifo.format('q0 ch:"z"')))
    e = err(fifo.format('q0 ch:"ib"'))
    assert "unknown letter 'i'" in str(e) and e.col == 13
    e = err(fifo.format('q0 ch:"a" ch:"b"'))  # the second naming is refused, not kept
    assert "duplicate channel 'ch' in init" in str(e) and e.col == 16


_CTR = "kind counter\nstates q0 q1\ncounters c\n{}\ninit q0\n"
_FIFO = "kind fifo\nstates q0\nchannels ch\nalphabet a b\n{}\ninit q0\n"
_FIFO_INIT = "kind fifo\nstates q0\nchannels ch\nalphabet a b\n{}\n"

# every site that refuses an undeclared name: text, message, line, column
UNKNOWN_NAME_SITES = {
    "transition source": (_CTR.format("  q9 -- inc(c) --> q0"), "unknown state 'q9'", 4, 3),
    "transition target": (_CTR.format("q0 -- inc(c) --> q9"), "unknown state 'q9'", 4, 18),
    "counter": (_CTR.format("q0 --  inc(d) --> q1"), "unknown counter 'd'", 4, 12),
    "zero test": (_CTR.format("q0 -- noop [zero: c, d] --> q1"), "unknown counter 'd'", 4, 22),
    "fifo channel": (_FIFO.format("q0 -- xx!a --> q0"), "unknown channel 'xx'", 5, 7),
    "fifo letter": (_FIFO.format("q0 -- ch ! z --> q0"), "unknown letter 'z'", 5, 12),
    "bound channel": (_FIFO.format(" bound xx: (ab)"), "unknown channel 'xx'", 5, 8),
    "bound letter": (_FIFO.format("bound ch: (ab)(az)"), "unknown letter 'z'", 5, 17),
    "init state": ("kind counter\nstates q0\ncounters c\ninit  q9 (0)\n", "unknown state 'q9'", 4, 7),
    "init channel": (_FIFO_INIT.format('init q0 ch:"a" xx:"b"'), "unknown channel 'xx'", 5, 16),
    "init letter": (_FIFO_INIT.format('init q0 ch:"abz"'), "unknown letter 'z'", 5, 15),
}


@pytest.mark.parametrize("site", sorted(UNKNOWN_NAME_SITES))
def test_unknown_name_sites(site):
    text, message, line, col = UNKNOWN_NAME_SITES[site]
    e = err(text)
    assert str(e) == f"line {line}, col {col}: {message}"
    assert (e.line, e.col) == (line, col)


# every site that refuses a model for a statement its kind needs or
# refuses: text, message, line, column.  A missing statement is reported
# on the kind line.
KIND_RULE_SITES = {
    "missing states": ("kind counter\ninit q0\n", "missing states declaration", 1, 1),
    "missing init": ("kind counter\nstates q0\n", "missing init statement", 1, 1),
    "missing init after a transition": (
        "kind counter\nstates q0\ncounters c\nq0 -- inc(c) --> q0\n",
        "missing init statement", 1, 1,
    ),
    "missing channels, kind on line 2": (
        "# a fifo model\nkind fifo\nstates q0\nalphabet a\ninit q0\n",
        "missing channels declaration", 2, 1,
    ),
    "missing alphabet": (
        "kind fifo\nstates q0\nchannels ch\ninit q0\n", "missing alphabet declaration", 1, 1
    ),
    "channels in a counter model": (
        "kind counter\nstates q0\nchannels ch\ninit q0\n",
        "channels declaration in a counter model", 3, 1,
    ),
    "alphabet in a counter model": (
        "kind counter\nstates q0\n  alphabet a\ninit q0\n",
        "alphabet declaration in a counter model", 3, 3,
    ),
    "bound in a counter model": (
        _CTR.format(" bound ch: (a)"), "bound clause in a counter model", 4, 2
    ),
    "counters in a fifo model": (
        _FIFO_INIT.format("counters c\ninit q0"), "counters declaration in a fifo model", 5, 1
    ),
    # a line ends at its first #, also inside quotes
    "# inside quotes": (
        _FIFO_INIT.format('init q0 ch:"a#b"'), "bad init statement: 'init q0 ch:\"a'", 5, 1
    ),
}


@pytest.mark.parametrize("site", sorted(KIND_RULE_SITES))
def test_kind_rule_sites(site):
    text, message, line, col = KIND_RULE_SITES[site]
    e = err(text)
    assert str(e) == f"line {line}, col {col}: {message}"
    assert (e.line, e.col) == (line, col)


def test_unrecognized_statement():
    e = err("kind counter\nstates q0\nwat is this\ninit q0\n")
    assert "unrecognized statement" in str(e) and e.line == 3


def test_counterless_machine_round_trip():
    text = "kind counter\nstates q0 q1\nq0 -- noop --> q1\ninit q0\n"
    mf = parse_model(text)
    assert mf.machine.counters == ()
    assert mf.initial == CounterConfig("q0", ())
    assert parse_model(print_model(mf)) == mf


def test_multi_character_letters_in_words_are_refused():
    # a word is written one character per letter, so ``a1`` would parse
    # back as the letters ``a`` and ``1``
    mf = parse_model("kind fifo\nstates q0\nchannels ch\nalphabet a1 b\n"
                     "q0 -- ch!a1 --> q0\ninit q0\n")
    assert parse_model(print_model(mf)) == mf  # transitions name letters whole
    a1, b = mf.machine.alphabet.word(["a1", "b"])
    message = "^cannot print letter 'a1' in a word of channel 'ch'"
    with pytest.raises(ValueError, match=message):
        print_model(mf._replace(initial=FifoConfig("q0", (b + a1,))))
    lang = BoundedLang(mf.machine.alphabet, ("ch",), ((b, a1 + b),))
    with pytest.raises(ValueError, match=message):
        print_model(mf._replace(lang=lang))
    # one-character letters still print in words
    text = print_model(mf._replace(initial=FifoConfig("q0", (b,)),
                                   lang=BoundedLang(mf.machine.alphabet, ("ch",), ((b,),))))
    assert 'bound ch: (b)\ninit q0 ch:"b"\n' in text


def test_parse_target_counter(m8):
    assert parse_target(m8, "q2:(3)") == CounterConfig("q2", (3,))
    with pytest.raises(ValueError):
        parse_target(m8, "q2:3")
    with pytest.raises(ValueError):
        parse_target(m8, "zz:(3)")
    with pytest.raises(ValueError, match=r"^expected 1 target values, got 2$"):
        parse_target(m8, "q2:(3,1)")
    with pytest.raises(ValueError, match=r"^expected 1 target values, got 0$"):
        parse_target(m8, "q2:( )")
    with pytest.raises(ValueError, match="^target values must be non-negative$"):
        parse_target(m8, "q2:(-1)")
    with pytest.raises(ValueError, match="^target values must be integers$"):
        parse_target(m8, "q2:(x)")


@pytest.mark.parametrize("value", ["1_000", "\u0663", "+2", " 0_1"])
def test_values_are_ascii_decimals(m8, value):
    # int() reads underscores, a plus sign and non-ASCII digits; a value
    # is only ASCII decimal digits around optional whitespace
    e = err(f"kind counter\nstates q0\ncounters c d\ninit q0 (0,{value})\n")
    assert str(e) == "line 4, col 10: initial values must be integers"
    with pytest.raises(ValueError, match="^target values must be integers$"):
        parse_target(m8, f"q2:({value})")


def test_values_around_whitespace(m8):
    assert parse_target(m8, "q2:( 3 )") == CounterConfig("q2", (3,))
    mf = parse_model("kind counter\nstates q0\ncounters c d\ninit q0 ( 1 ,\t2)\n")
    assert mf.initial == CounterConfig("q0", (1, 2))
    with pytest.raises(ValueError, match="^target values must be non-negative$"):
        parse_target(m8, "q2:( -1 )")


def test_values_beyond_the_int_digit_limit(m8):
    # int() refuses a decimal with more digits than its limit; the message
    # names that limit instead of calling the value a non-integer
    limit = sys.get_int_max_str_digits()
    long = "7" * (limit + 1)
    e = err(f"kind counter\nstates q0\ncounters c d\ninit q0 (0, -{long})\n")
    assert str(e) == f"line 4, col 10: initial values must have at most {limit} digits"
    with pytest.raises(ValueError, match=f"^target values must have at most {limit} digits$"):
        parse_target(m8, f"q2:({long})")
    # one digit fewer is still a value (a large one)
    assert parse_target(m8, f"q2:({long[1:]})").values == (int(long[1:]),)


def test_parse_target_fifo(m2):
    # targets are counter configurations; the CLI rejects x0-cover on a
    # FIFO model before it parses the target
    for text in ('q1:"ab"@ch', "q1:(1)"):
        with pytest.raises(ValueError, match="^targets apply to counter machines only$"):
            parse_target(m2, text)
