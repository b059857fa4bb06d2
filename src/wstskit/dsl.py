"""Model-file syntax for counter and FIFO machines.

A model file is line-oriented: a kind line, declarations, transitions,
optional per-channel bound clauses, and an initial state.  Comments run
from ``#`` to the end of the line.  Example::

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
line; the printer emits the canonical order shown above.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from ._record import Fields
from .counter import (
    OP_NOOP,
    CounterConfig,
    CounterMachine,
    CounterTransition,
)
from .fifo import (
    Alphabet,
    BoundedLang,
    FifoConfig,
    FifoMachine,
    FifoTransition,
)


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ModelFile(Fields):
    _fields = ("kind", "machine", "initial", "lang")

    def __init__(
        self,
        kind: str,  # "counter" or "fifo"
        machine: Union[CounterMachine, FifoMachine],
        initial: Union[CounterConfig, FifoConfig],
        lang: Optional[BoundedLang] = None,
    ) -> None:
        self.kind = kind
        self.machine = machine
        self.initial = initial
        self.lang = lang


def _strip_comment(line: str) -> str:
    out = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            break
        out.append(ch)
    return "".join(out)


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
_BOUND_RE = re.compile(r"^bound\s+(\w+)\s*:\s*(.+)$")
_INPUT_BOUNDED_RE = re.compile(r"^input_bounded\s+(\w+)\s*:\s*(.+)$")
_BOUND_WORDS_RE = re.compile(r"^(?:\(\w+\)\s*\*?\s*)+$")
_INIT_CTR_RE = re.compile(r"^init\s+(\w+)\s*(?:\(\s*([^()]*)\s*\))?$")
_INIT_FIFO_RE = re.compile(r'^init\s+(\w+)((?:\s+\w+\s*:\s*"[^"]*")*)\s*$')
_FIFO_CONTENT_RE = re.compile(r'(\w+)\s*:\s*"([^"]*)"')


def parse_model(text: str, name: str = "model") -> ModelFile:
    # (line, base, body): base is the column of the body's first character
    # on the line as written, so base + offset is a column there
    statements: list[tuple[int, int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        body = line.strip()
        if body:
            statements.append((lineno, len(line) - len(line.lstrip()) + 1, body))
    if not statements:
        raise ParseError(1, 1, "empty model: expected a kind line")

    lineno, base, head = statements[0]
    m = _KIND_RE.match(head)
    if not m:
        raise ParseError(lineno, base, "expected 'kind counter' or 'kind fifo'")
    kind = m.group(1)

    decls: dict[str, tuple[int, list[str]]] = {}
    transitions: list[tuple[int, int, str]] = []
    bounds: list[tuple[int, int, re.Match]] = []
    init: Optional[tuple[int, int, str]] = None

    for lineno, base, body in statements[1:]:
        m = _NAMES_RE.match(body)
        if m:
            what, names = m.group(1), m.group(2).split()
            if what in decls:
                raise ParseError(lineno, base, f"duplicate {what} declaration")
            if len(set(names)) < len(names):
                seen = set()
                for n, col in _words(m, 2, base):
                    if n in seen:
                        raise ParseError(lineno, col, f"duplicate name {n!r}")
                    seen.add(n)
            decls[what] = (lineno, names)
            continue
        if "-->" in body:
            transitions.append((lineno, base, body))
            continue
        m = _BOUND_RE.match(body) or _INPUT_BOUNDED_RE.match(body)
        if m:
            bounds.append((lineno, base, m))
            continue
        if body.startswith("init"):
            if init is not None:
                raise ParseError(lineno, base, "duplicate init statement")
            init = (lineno, base, body)
            continue
        raise ParseError(lineno, base, f"unrecognized statement: {body!r}")

    if "states" not in decls:
        raise ParseError(lineno, 1, "missing states declaration")
    if init is None:
        raise ParseError(lineno, 1, "missing init statement")
    states = decls["states"][1]

    if kind == "counter":
        return _build_counter(name, states, decls, transitions, bounds, init)
    return _build_fifo(name, states, decls, transitions, bounds, init)


def _require_state(states: list[str], q: str, lineno: int, col: int) -> None:
    if q not in states:
        raise ParseError(lineno, col, f"unknown state {q!r}")


def _build_counter(name, states, decls, transitions, bounds, init) -> ModelFile:
    for bad in ("channels", "alphabet"):
        if bad in decls:
            raise ParseError(decls[bad][0], 1, f"{bad} declaration in a counter model")
    if bounds:
        raise ParseError(bounds[0][0], bounds[0][1], "bound clause in a counter model")
    counters = decls.get("counters", (0, []))[1]

    parsed = []
    for lineno, base, body in transitions:
        m = _CTR_TRANS_RE.match(body)
        if not m:
            raise ParseError(lineno, base, f"bad counter transition: {body!r}")
        source, op, counter, noop, zeros, target = m.groups()
        _require_state(states, source, lineno, base + m.start(1))
        _require_state(states, target, lineno, base + m.start(6))
        if noop:
            op = OP_NOOP
            counter = None
        elif counter not in counters:
            raise ParseError(lineno, base + m.start(3), f"unknown counter {counter!r}")
        zero_set = []
        if zeros:
            for z, col in _words(m, 5, base):
                if z not in counters:
                    raise ParseError(lineno, col, f"unknown counter {z!r}")
                zero_set.append(z)
        parsed.append(
            CounterTransition(source, op, counter, frozenset(zero_set), target)
        )

    lineno, base, body = init
    m = _INIT_CTR_RE.match(body)
    if not m:
        raise ParseError(lineno, base, f"bad init statement: {body!r}")
    q0, values_text = m.groups()
    _require_state(states, q0, lineno, base + m.start(1))
    # the values, or the end of the statement when there are none
    col = base + (len(body) if values_text is None else m.start(2))
    if values_text is None or values_text.strip() == "":
        values = tuple(0 for _ in counters)
    else:
        try:
            values = tuple(int(v) for v in values_text.split(","))
        except ValueError:
            raise ParseError(lineno, col, "initial values must be integers") from None
        if any(v < 0 for v in values):
            raise ParseError(lineno, col, "initial values must be non-negative")
    if len(values) != len(counters):
        raise ParseError(lineno, col, f"expected {len(counters)} initial values, got {len(values)}")

    try:
        machine = CounterMachine(
            states=tuple(states),
            counters=tuple(counters),
            transitions=tuple(parsed),
            initial=q0,
            name=name,
        )
    except ValueError as exc:
        raise ParseError(1, 1, str(exc)) from None
    return ModelFile("counter", machine, CounterConfig(q0, values))


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


def _build_fifo(name, states, decls, transitions, bounds, init) -> ModelFile:
    if "counters" in decls:
        raise ParseError(decls["counters"][0], 1, "counters declaration in a fifo model")
    if "channels" not in decls:
        raise ParseError(1, 1, "missing channels declaration")
    if "alphabet" not in decls:
        raise ParseError(1, 1, "missing alphabet declaration")
    channels = decls["channels"][1]
    alphabet = Alphabet(decls["alphabet"][1])

    parsed = []
    for lineno, base, body in transitions:
        m = _FIFO_TRANS_RE.match(body)
        if not m:
            raise ParseError(lineno, base, f"bad fifo transition: {body!r}")
        source, channel, kind_ch, letter, target = m.groups()
        _require_state(states, source, lineno, base + m.start(1))
        _require_state(states, target, lineno, base + m.start(5))
        if channel not in channels:
            raise ParseError(lineno, base + m.start(2), f"unknown channel {channel!r}")
        if letter not in alphabet:
            raise ParseError(lineno, base + m.start(4), f"unknown letter {letter!r}")
        parsed.append(FifoTransition(source, channel, kind_ch, alphabet.id(letter), target))

    lang = None
    if bounds:
        seen_channels: dict[str, tuple] = {}
        for lineno, base, m in bounds:
            ch, col = m.group(1), base + m.start(1)
            if ch not in channels:
                raise ParseError(lineno, col, f"unknown channel {ch!r}")
            if ch in seen_channels:
                raise ParseError(lineno, col, f"duplicate bound clause for channel {ch!r}")
            words = []
            for w in _bound_words(lineno, base, m):
                for letter, col in w:
                    if letter not in alphabet:
                        raise ParseError(lineno, col, f"unknown letter {letter!r}")
                words.append(tuple(alphabet.id(letter) for letter, _ in w))
            seen_channels[ch] = tuple(words)
        lang = BoundedLang(
            alphabet,
            tuple(ch for ch in channels if ch in seen_channels),
            tuple(seen_channels[ch] for ch in channels if ch in seen_channels),
        )

    lineno, base, body = init
    m = _INIT_FIFO_RE.match(body)
    if not m:
        raise ParseError(lineno, base, f"bad init statement: {body!r}")
    q0 = m.group(1)
    _require_state(states, q0, lineno, base + m.start(1))
    contents = [()] * len(channels)
    start = base + m.start(2)
    named = set()
    for c in _FIFO_CONTENT_RE.finditer(m.group(2)):
        ch, word = c.groups()
        if ch not in channels:
            raise ParseError(lineno, start + c.start(1), f"unknown channel {ch!r}")
        if ch in named:
            raise ParseError(lineno, start + c.start(1), f"duplicate channel {ch!r} in init")
        named.add(ch)
        for i, letter in enumerate(word):
            if letter not in alphabet:
                raise ParseError(lineno, start + c.start(2) + i, f"unknown letter {letter!r}")
        contents[channels.index(ch)] = tuple(alphabet.id(letter) for letter in word)

    try:
        machine = FifoMachine(
            states=tuple(states),
            channels=tuple(channels),
            alphabet=alphabet,
            transitions=tuple(parsed),
            initial=q0,
            name=name,
        )
    except ValueError as exc:
        raise ParseError(1, 1, str(exc)) from None
    return ModelFile("fifo", machine, FifoConfig(q0, tuple(contents)), lang)


def print_model(mf: ModelFile) -> str:
    """Canonical text for a model, parseable back to an equal ModelFile."""
    lines = [f"kind {mf.kind}"]
    machine = mf.machine
    lines.append("states " + " ".join(machine.states))
    if mf.kind == "counter":
        if machine.counters:
            lines.append("counters " + " ".join(machine.counters))
        for t in machine.transitions:
            op = "noop" if t.counter is None else f"{t.op}({t.counter})"
            zero = ""
            if t.zero_tests:
                zero = " [zero: " + ",".join(sorted(t.zero_tests)) + "]"
            lines.append(f"{t.source} -- {op}{zero} --> {t.target}")
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
                body = "".join(
                    "(" + "".join(machine.alphabet.name(l) for l in w) + ")" for w in words
                )
                lines.append(f"bound {ch}: {body}")
        init_line = f"init {mf.initial.control}"
        for ch, word in zip(machine.channels, mf.initial.contents):
            if word:
                text = "".join(machine.alphabet.name(l) for l in word)
                init_line += f' {ch}:"{text}"'
        lines.append(init_line)
    return "\n".join(lines) + "\n"


_TARGET_CTR_RE = re.compile(r"^(\w+):\(([^()]*)\)$")
_TARGET_FIFO_RE = re.compile(r'^(\w+):"([^"]*)"@(\w+)$')


def parse_target(mf: ModelFile, text: str) -> Union[CounterConfig, FifoConfig]:
    """Parse a coverability target: ``q:(3)`` or ``q:(1,0)``, or for FIFO
    machines ``q:"ab"@ch`` (other channels empty)."""
    if mf.kind == "counter":
        m = _TARGET_CTR_RE.match(text)
        if not m:
            raise ValueError(f"bad target {text!r}: expected form q:(v1,v2)")
        q, values_text = m.groups()
        if q not in mf.machine.states:
            raise ValueError(f"unknown state {q!r} in target")
        try:
            values = tuple(int(v) for v in values_text.split(",")) if values_text.strip() else ()
        except ValueError:
            raise ValueError("target values must be integers") from None
        if len(values) != len(mf.machine.counters):
            raise ValueError(
                f"target has {len(values)} values, machine has {len(mf.machine.counters)} counters"
            )
        if any(v < 0 for v in values):
            raise ValueError("target values must be non-negative")
        return CounterConfig(q, values)
    m = _TARGET_FIFO_RE.match(text)
    if not m:
        raise ValueError(f'bad target {text!r}: expected form q:"w"@ch')
    q, word, ch = m.groups()
    machine = mf.machine
    if q not in machine.states:
        raise ValueError(f"unknown state {q!r} in target")
    if ch not in machine.channels:
        raise ValueError(f"unknown channel {ch!r} in target")
    contents = [()] * len(machine.channels)
    contents[machine.channel_index(ch)] = machine.alphabet.word(word)
    return FifoConfig(q, tuple(contents))
