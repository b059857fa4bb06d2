"""Model-file syntax for counter and FIFO machines.

A model file is line-oriented: a kind line, declarations, transitions,
optional per-channel bound clauses, and an initial state.  A line ends at
its first ``#``; the rest is a comment.  Example::

    kind counter
    states q0 q1 q2
    counters c
    q0 -- inc(c) --> q1
    q1 -- noop [zero: c] --> q2
    init q0 (0)

    kind fifo
    states q0 q1
    channels ch
    alphabet a b
    q0 -- ch!a --> q0
    q0 -- ch!b --> q1
    bound ch: (ab)
    init q0

Bound clauses list the words of a per-channel language w1* w2* ...; the
spelling ``input_bounded ch: (ab)* (c)*`` is accepted as a synonym of
``bound ch: (ab)(c)``.  Letters inside word parentheses are single
characters.  Parsing is lenient about statement order after the kind
line; the printer emits the canonical order shown above.  A missing
declaration or init statement is reported on the kind line.  The values
of ``init`` and of a coverability target (``parse_target``) follow one
rule: comma-separated non-negative integers in ASCII decimal digits,
one per counter, each with optional whitespace around it; ``init``
without values starts every counter at 0.  The command line reads model
files as UTF-8 and drops a leading byte-order mark.
"""

from __future__ import annotations

import re
import sys
from typing import Any, Container, NamedTuple, Optional, Union

from .counter import (
    OP_NOOP,
    CounterConfig,
    CounterMachine,
    CounterTransition,
)
from .fifo import (
    Alphabet,
    BoundedLang,
    FifoMachine,
    FifoTransition,
    bounded_lang,
)


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ModelFile(NamedTuple):
    kind: str  # "counter" or "fifo"
    machine: Union[CounterMachine, FifoMachine]
    initial: Any  # machine.initial_config(...): a CounterConfig or a FifoConfig
    lang: Optional[BoundedLang] = None


def _words(m: re.Match, group: int, base: int) -> list[tuple[str, int]]:
    """The words of a match group, each with its column on the line."""
    start = base + m.start(group)
    return [(w.group(), start + w.start()) for w in re.finditer(r"\w+", m.group(group))]


_KIND_RE = re.compile(r"^kind\s+(counter|fifo)$")
_NAMES_RE = re.compile(r"^(states|counters|channels|alphabet)\s+(\w+(?:\s+\w+)*)$")
_CTR_TRANS_RE = re.compile(
    r"^(\w+)\s*--\s*(?:(inc|dec)\s*\(\s*(\w+)\s*\)|(noop))\s*"
    r"(?:\[\s*zero\s*:\s*(\w+(?:\s*,\s*\w+)*)\s*\])?\s*-->\s*(\w+)$"
)
_FIFO_TRANS_RE = re.compile(r"^(\w+)\s*--\s*(\w+)\s*([!?])\s*(\w+)\s*-->\s*(\w+)$")
_BOUND_RE = re.compile(r"^(?:bound|input_bounded)\s+(\w+)\s*:\s*(.+)$")
_BOUND_WORDS_RE = re.compile(r"^(?:\(\w+\)\s*\*?\s*)+$")
_INIT_CTR_RE = re.compile(r"^init\s+(\w+)\s*(?:\(\s*([^()]*)\s*\))?$")
_INIT_FIFO_RE = re.compile(r'^init\s+(\w+)((?:\s+\w+\s*:\s*"[^"]*")*)\s*$')
_FIFO_CONTENT_RE = re.compile(r'(\w+)\s*:\s*"([^"]*)"')


# the statements each kind needs and the ones it refuses, by first word
_KIND_RULES = {
    "counter": (("states", "init"), ("channels", "alphabet", "bound")),
    "fifo": (("states", "init", "channels", "alphabet"), ("counters",)),
}
# the statements that may appear more than once: transitions, bound clauses
_REPEATED = ("-->", "bound")


def _noun(key: str) -> str:
    """A statement as messages name it: ``states declaration``, ``init statement``."""
    return f"{key} " + {"init": "statement", "bound": "clause"}.get(key, "declaration")


def parse_model(text: str, name: str = "model") -> ModelFile:
    # (line, base, body): base is the column of the body's first character
    # on the line as written, so base + offset is a column there
    statements: list[tuple[int, int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        body = line.strip()
        if body:
            statements.append((lineno, len(line) - len(line.lstrip()) + 1, body))
    if not statements:
        raise ParseError(1, 1, "empty model: expected a kind line")

    kind_line, base, head = statements[0]
    m = _KIND_RE.match(head)
    if not m:
        raise ParseError(kind_line, base, "expected 'kind counter' or 'kind fifo'")
    kind = m.group(1)

    # the statements under their first word, transitions under "-->"
    found: dict[str, list[tuple[int, int, str]]] = {k: [] for k in _REPEATED}
    for lineno, base, body in statements[1:]:
        if m := _NAMES_RE.match(body):
            key, names = m.group(1), m.group(2).split()
            if len(set(names)) < len(names):
                seen = set()
                for n, col in _words(m, 2, base):
                    if n in seen:
                        raise ParseError(lineno, col, f"duplicate name {n!r}")
                    seen.add(n)
        elif "-->" in body:
            key = "-->"
        elif _BOUND_RE.match(body):
            key = "bound"
        elif body.startswith("init"):
            key = "init"
        else:
            raise ParseError(lineno, base, f"unrecognized statement: {body!r}")
        if key in found and key not in _REPEATED:
            raise ParseError(lineno, base, f"duplicate {_noun(key)}")
        found.setdefault(key, []).append((lineno, base, body))

    needs, refuses = _KIND_RULES[kind]
    for key in needs:
        if key not in found:
            raise ParseError(kind_line, 1, f"missing {_noun(key)}")
    for key in refuses:
        if found.get(key):
            lineno, base, _ = found[key][0]
            raise ParseError(lineno, base, f"{_noun(key)} in a {kind} model")
    build = _build_counter if kind == "counter" else _build_fifo
    return build(name, _names(found, "states"), found)


def _names(found: dict, key: str) -> list[str]:
    """The names a declaration lists, or none when it is absent."""
    return found[key][0][2].split()[1:] if key in found else []


_VALUE_RE = re.compile(r"\s*(-?\d+)\s*", re.ASCII)


def _counter_values(text: str, count: int, what: str) -> tuple[int, ...]:
    """The comma-separated values of ``text``, one non-negative integer
    per counter, or a ValueError naming ``what``.  A value is ASCII decimal
    digits, optionally signed with ``-`` and surrounded by whitespace; one
    that ``int`` does not convert has more digits than it allows
    (``sys.get_int_max_str_digits()``), so its message names that limit."""
    values = []
    for value in text.split(",") if text.strip() else ():
        m = _VALUE_RE.fullmatch(value)
        if m is None:
            raise ValueError(f"{what} values must be integers")
        try:
            values.append(int(m.group(1)))
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise ValueError(f"{what} values must have at most {limit} digits") from None
    if any(v < 0 for v in values):
        raise ValueError(f"{what} values must be non-negative")
    if len(values) != count:
        raise ValueError(f"expected {count} {what} values, got {len(values)}")
    return tuple(values)


def _require(names: Container[str], name: str, what: str, lineno: int, col: int) -> None:
    if name not in names:
        raise ParseError(lineno, col, f"unknown {what} {name!r}")


def _machine(cls, *fields):
    """Build a machine, reporting its validation error as a parse error."""
    try:
        return cls(*fields)
    except ValueError as exc:
        raise ParseError(1, 1, str(exc)) from None


def _build_counter(name, states, found) -> ModelFile:
    counters = _names(found, "counters")
    parsed = []
    for lineno, base, body in found["-->"]:
        m = _CTR_TRANS_RE.match(body)
        if not m:
            raise ParseError(lineno, base, f"bad counter transition: {body!r}")
        source, op, counter, noop, zeros, target = m.groups()
        _require(states, source, "state", lineno, base + m.start(1))
        _require(states, target, "state", lineno, base + m.start(6))
        if noop:
            op = OP_NOOP
            counter = None
        else:
            _require(counters, counter, "counter", lineno, base + m.start(3))
        zero_set = []
        if zeros:
            for z, col in _words(m, 5, base):
                _require(counters, z, "counter", lineno, col)
                zero_set.append(z)
        parsed.append(
            CounterTransition(source, op, counter, frozenset(zero_set), target)
        )

    lineno, base, body = found["init"][0]
    m = _INIT_CTR_RE.match(body)
    if not m:
        raise ParseError(lineno, base, f"bad init statement: {body!r}")
    q0, values_text = m.groups()
    _require(states, q0, "state", lineno, base + m.start(1))
    values = (0,) * len(counters)
    if values_text:  # no values, or a blank list, start every counter at 0
        try:
            values = _counter_values(values_text, len(counters), "initial")
        except ValueError as exc:
            raise ParseError(lineno, base + m.start(2), str(exc)) from None

    machine = _machine(CounterMachine, tuple(states), tuple(counters), tuple(parsed), q0, name)
    return ModelFile("counter", machine, machine.initial_config(values))


def _bound_words(lineno: int, base: int, m: re.Match) -> list[list[tuple[str, int]]]:
    """The words of a bound clause's right-hand side (group 2 of ``m``),
    each as its letters with their columns on the line."""
    rhs = m.group(2)
    start = base + m.start(2)
    if not _BOUND_WORDS_RE.match(rhs):
        raise ParseError(lineno, start, f"bad bound words: {rhs!r}")
    return [
        [(letter, start + w.start(1) + i) for i, letter in enumerate(w.group(1))]
        for w in re.finditer(r"\((\w+)\)", rhs)
    ]


def _build_fifo(name, states, found) -> ModelFile:
    channels = _names(found, "channels")
    alphabet = Alphabet(_names(found, "alphabet"))
    parsed = []
    for lineno, base, body in found["-->"]:
        m = _FIFO_TRANS_RE.match(body)
        if not m:
            raise ParseError(lineno, base, f"bad fifo transition: {body!r}")
        source, channel, kind_ch, letter, target = m.groups()
        _require(states, source, "state", lineno, base + m.start(1))
        _require(states, target, "state", lineno, base + m.start(5))
        _require(channels, channel, "channel", lineno, base + m.start(2))
        _require(alphabet.letters, letter, "letter", lineno, base + m.start(4))
        parsed.append(FifoTransition(source, channel, kind_ch, alphabet.letter(letter), target))

    bound_words: dict[str, list[list[str]]] = {}
    for lineno, base, body in found["bound"]:
        m = _BOUND_RE.match(body)
        ch, col = m.group(1), base + m.start(1)
        _require(channels, ch, "channel", lineno, col)
        if ch in bound_words:
            raise ParseError(lineno, col, f"duplicate bound clause for channel {ch!r}")
        bound_words[ch] = []
        for w in _bound_words(lineno, base, m):
            for letter, col in w:
                _require(alphabet.letters, letter, "letter", lineno, col)
            bound_words[ch].append([letter for letter, _ in w])

    lineno, base, body = found["init"][0]
    m = _INIT_FIFO_RE.match(body)
    if not m:
        raise ParseError(lineno, base, f"bad init statement: {body!r}")
    q0 = m.group(1)
    _require(states, q0, "state", lineno, base + m.start(1))
    contents = {}  # channel: word, as machine.initial_config reads them
    start = base + m.start(2)
    for c in _FIFO_CONTENT_RE.finditer(m.group(2)):
        ch, word = c.groups()
        _require(channels, ch, "channel", lineno, start + c.start(1))
        if ch in contents:
            raise ParseError(lineno, start + c.start(1), f"duplicate channel {ch!r} in init")
        for i, letter in enumerate(word):
            _require(alphabet.letters, letter, "letter", lineno, start + c.start(2) + i)
        contents[ch] = word

    machine = _machine(
        FifoMachine, tuple(states), tuple(channels), alphabet, tuple(parsed), q0, name
    )
    lang = bounded_lang(machine, bound_words) if bound_words else None
    return ModelFile("fifo", machine, machine.initial_config(contents), lang)


def print_model(mf: ModelFile) -> str:
    """Canonical text for a model, parseable back to an equal ModelFile.

    Raises ValueError when FIFO init contents or a bound word hold a letter
    whose name is more than one character: no model text spells it."""
    lines = [f"kind {mf.kind}"]
    machine = mf.machine
    lines.append("states " + " ".join(machine.states))
    if mf.kind == "counter":
        if machine.counters:
            lines.append("counters " + " ".join(machine.counters))
        for label, t in enumerate(machine.transitions):
            lines.append(f"{t.source} -- {machine.describe_transition(label)} --> {t.target}")
        if machine.counters:
            values = ",".join(str(v) for v in mf.initial.values)
            lines.append(f"init {mf.initial.control} ({values})")
        else:
            lines.append(f"init {mf.initial.control}")
    else:
        lines.append("channels " + " ".join(machine.channels))
        lines.append("alphabet " + " ".join(machine.alphabet.letters))
        for t in machine.transitions:
            letter = machine.alphabet.name(t.letter)
            lines.append(f"{t.source} -- {t.channel}{t.kind}{letter} --> {t.target}")
        if mf.lang is not None:
            for ch, words in zip(mf.lang.channels, mf.lang.blocks):
                body = "".join("(" + _word_text(machine.alphabet, ch, w) + ")" for w in words)
                lines.append(f"bound {ch}: {body}")
        init_line = f"init {mf.initial.control}"
        for ch, word in zip(machine.channels, mf.initial.contents):
            if word:
                init_line += f' {ch}:"{_word_text(machine.alphabet, ch, word)}"'
        lines.append(init_line)
    return "\n".join(lines) + "\n"


def _word_text(alphabet: Alphabet, ch: str, word: str) -> str:
    """A word of channel ``ch`` as model text, one character per letter;
    a ValueError when a letter's name is longer, since the text would
    parse back as other letters."""
    names = [alphabet.name(letter) for letter in word]
    for name in names:
        if len(name) != 1:
            raise ValueError(f"cannot print letter {name!r} in a word of channel {ch!r}: "
                             "letters in words are written as one character")
    return "".join(names)


_TARGET_RE = re.compile(r"^(\w+):\(([^()]*)\)$")


def parse_target(mf: ModelFile, text: str) -> CounterConfig:
    """Parse a coverability target on a counter machine: ``q:(3)`` or
    ``q:(1,0)``."""
    if mf.kind != "counter":
        raise ValueError("targets apply to counter machines only")
    m = _TARGET_RE.match(text)
    if not m:
        raise ValueError(f"bad target {text!r}: expected form q:(v1,v2)")
    q, values_text = m.groups()
    if q not in mf.machine.states:
        raise ValueError(f"unknown state {q!r} in target")
    return CounterConfig(q, _counter_values(values_text, len(mf.machine.counters), "target"))
