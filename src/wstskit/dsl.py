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
from dataclasses import dataclass
from typing import Optional, Union

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


@dataclass
class ModelFile:
    kind: str  # "counter" or "fifo"
    machine: Union[CounterMachine, FifoMachine]
    initial: Union[CounterConfig, FifoConfig]
    lang: Optional[BoundedLang] = None


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


def _col_of(line: str, token: str) -> int:
    pos = line.find(token)
    return pos + 1 if pos >= 0 else 1


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
    statements: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = _strip_comment(raw).strip()
        if body:
            statements.append((lineno, body))
    if not statements:
        raise ParseError(1, 1, "empty model: expected a kind line")

    lineno, head = statements[0]
    m = _KIND_RE.match(head)
    if not m:
        raise ParseError(lineno, 1, "expected 'kind counter' or 'kind fifo'")
    kind = m.group(1)

    decls: dict[str, tuple[int, list[str]]] = {}
    transitions: list[tuple[int, str]] = []
    bounds: list[tuple[int, str, str]] = []
    init: Optional[tuple[int, str]] = None

    for lineno, body in statements[1:]:
        m = _NAMES_RE.match(body)
        if m:
            what, names = m.group(1), m.group(2).split()
            if what in decls:
                raise ParseError(lineno, 1, f"duplicate {what} declaration")
            dup = _first_duplicate(names)
            if dup:
                raise ParseError(lineno, _col_of(body, dup), f"duplicate name {dup!r}")
            decls[what] = (lineno, names)
            continue
        if "-->" in body:
            transitions.append((lineno, body))
            continue
        m = _BOUND_RE.match(body) or _INPUT_BOUNDED_RE.match(body)
        if m:
            bounds.append((lineno, m.group(1), m.group(2)))
            continue
        if body.startswith("init"):
            if init is not None:
                raise ParseError(lineno, 1, "duplicate init statement")
            init = (lineno, body)
            continue
        raise ParseError(lineno, 1, f"unrecognized statement: {body!r}")

    if "states" not in decls:
        raise ParseError(lineno, 1, "missing states declaration")
    if init is None:
        raise ParseError(lineno, 1, "missing init statement")
    states = decls["states"][1]

    if kind == "counter":
        return _build_counter(name, states, decls, transitions, bounds, init)
    return _build_fifo(name, states, decls, transitions, bounds, init)


def _first_duplicate(names: list[str]) -> Optional[str]:
    seen = set()
    for n in names:
        if n in seen:
            return n
        seen.add(n)
    return None


def _require_state(states: list[str], q: str, lineno: int, body: str) -> None:
    if q not in states:
        raise ParseError(lineno, _col_of(body, q), f"unknown state {q!r}")


def _build_counter(name, states, decls, transitions, bounds, init) -> ModelFile:
    for bad in ("channels", "alphabet"):
        if bad in decls:
            raise ParseError(decls[bad][0], 1, f"{bad} declaration in a counter model")
    if bounds:
        raise ParseError(bounds[0][0], 1, "bound clause in a counter model")
    counters = decls.get("counters", (0, []))[1]

    parsed = []
    for lineno, body in transitions:
        m = _CTR_TRANS_RE.match(body)
        if not m:
            raise ParseError(lineno, 1, f"bad counter transition: {body!r}")
        source, op, counter, noop, zeros, target = m.groups()
        _require_state(states, source, lineno, body)
        _require_state(states, target, lineno, body)
        if noop:
            op = OP_NOOP
            counter = None
        elif counter not in counters:
            raise ParseError(lineno, _col_of(body, counter), f"unknown counter {counter!r}")
        zero_set = []
        if zeros:
            zero_set = [z.strip() for z in zeros.split(",")]
            for z in zero_set:
                if z not in counters:
                    raise ParseError(lineno, _col_of(body, z), f"unknown counter {z!r}")
        parsed.append(
            CounterTransition(source, op, counter, frozenset(zero_set), target)
        )

    lineno, body = init
    m = _INIT_CTR_RE.match(body)
    if not m:
        raise ParseError(lineno, 1, f"bad init statement: {body!r}")
    q0, values_text = m.groups()
    _require_state(states, q0, lineno, body)
    if values_text is None or values_text.strip() == "":
        values = tuple(0 for _ in counters)
    else:
        try:
            values = tuple(int(v) for v in values_text.split(","))
        except ValueError:
            raise ParseError(lineno, _col_of(body, "("), "initial values must be integers") from None
        if any(v < 0 for v in values):
            raise ParseError(lineno, _col_of(body, "("), "initial values must be non-negative")
    if len(values) != len(counters):
        raise ParseError(
            lineno, _col_of(body, "("), f"expected {len(counters)} initial values, got {len(values)}"
        )

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


def _parse_bound_words(lineno: int, body_rhs: str) -> list[str]:
    if not _BOUND_WORDS_RE.match(body_rhs.strip()):
        raise ParseError(lineno, 1, f"bad bound words: {body_rhs.strip()!r}")
    return re.findall(r"\((\w+)\)", body_rhs)


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
    for lineno, body in transitions:
        m = _FIFO_TRANS_RE.match(body)
        if not m:
            raise ParseError(lineno, 1, f"bad fifo transition: {body!r}")
        source, channel, kind_ch, letter, target = m.groups()
        _require_state(states, source, lineno, body)
        _require_state(states, target, lineno, body)
        if channel not in channels:
            raise ParseError(lineno, _col_of(body, channel), f"unknown channel {channel!r}")
        if letter not in alphabet:
            raise ParseError(lineno, _col_of(body, letter), f"unknown letter {letter!r}")
        parsed.append(FifoTransition(source, channel, kind_ch, alphabet.id(letter), target))

    lang = None
    if bounds:
        seen_channels: dict[str, tuple] = {}
        for lineno, ch, rhs in bounds:
            if ch not in channels:
                raise ParseError(lineno, 1, f"unknown channel {ch!r}")
            if ch in seen_channels:
                raise ParseError(lineno, 1, f"duplicate bound clause for channel {ch!r}")
            words = []
            for w in _parse_bound_words(lineno, rhs):
                for letter in w:
                    if letter not in alphabet:
                        raise ParseError(
                            lineno, _col_of(rhs, letter), f"unknown letter {letter!r}"
                        )
                words.append(tuple(alphabet.id(letter) for letter in w))
            seen_channels[ch] = tuple(words)
        lang = BoundedLang(
            alphabet,
            tuple(ch for ch in channels if ch in seen_channels),
            tuple(seen_channels[ch] for ch in channels if ch in seen_channels),
        )

    lineno, body = init
    m = _INIT_FIFO_RE.match(body)
    if not m:
        raise ParseError(lineno, 1, f"bad init statement: {body!r}")
    q0, contents_text = m.groups()
    _require_state(states, q0, lineno, body)
    contents = [()] * len(channels)
    for ch, word in _FIFO_CONTENT_RE.findall(contents_text or ""):
        if ch not in channels:
            raise ParseError(lineno, _col_of(body, ch), f"unknown channel {ch!r}")
        for letter in word:
            if letter not in alphabet:
                raise ParseError(lineno, _col_of(body, letter), f"unknown letter {letter!r}")
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
