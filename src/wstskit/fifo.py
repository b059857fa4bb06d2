"""FIFO machines: syntax, semantics, bounded-language automata, and the
input-bounded product construction.

Letters are interned in an :class:`Alphabet` and compared by integer id;
channel contents are tuples of letter ids.  Transition labels are
declaration indices, as for counter machines.  The product construction
restricts a machine to behaviours whose per-channel send projections stay
inside a bounded language w_1^* ... w_n^* and whose receive projections
stay inside its prefixes; for distinct-letter languages the construction
is a product with two deterministic position-tracking automata.
"""

from __future__ import annotations

import re
from collections import deque
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._record import Fields, FrozenFields, set_field

SEND = "!"
RECV = "?"

# A DFA action: (channel, direction, letter id).
Action = tuple[str, str, int]


class Alphabet:
    """Interned letter table; words are tuples of integer letter ids."""

    def __init__(self, letters: Iterable[str]):
        self._letters = tuple(letters)
        if len(set(self._letters)) != len(self._letters):
            raise ValueError("duplicate letters in alphabet")
        for name in self._letters:
            if not name:
                raise ValueError("empty letter name")
        self._ids = {a: i for i, a in enumerate(self._letters)}

    @property
    def letters(self) -> tuple[str, ...]:
        return self._letters

    def __len__(self) -> int:
        return len(self._letters)

    def __contains__(self, name: str) -> bool:
        return name in self._ids

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __repr__(self) -> str:
        return f"Alphabet({list(self._letters)!r})"

    def id(self, name: str) -> int:
        try:
            return self._ids[name]
        except KeyError:
            raise ValueError(f"unknown letter {name!r}") from None

    def name(self, lid: int) -> str:
        return self._letters[lid]

    def word(self, text: str | Iterable[str]) -> tuple[int, ...]:
        """Intern a word; a plain string is read one character per letter."""
        if isinstance(text, str):
            return tuple(self.id(ch) for ch in text)
        return tuple(self.id(a) for a in text)

    def show(self, word: Sequence[int]) -> str:
        if not word:
            return "ε"
        names = [self.name(lid) for lid in word]
        if all(len(n) == 1 for n in names):
            return "".join(names)
        return ".".join(names)


class FifoTransition(NamedTuple):
    source: str
    channel: str
    kind: str  # SEND or RECV
    letter: int
    target: str


class FifoConfig(FrozenFields):
    __slots__ = _fields = ("control", "contents")

    def __init__(
        self,
        control: str,
        contents: tuple[tuple[int, ...], ...],  # indexed by channel declaration order
    ) -> None:
        set_field(self, "control", control)
        set_field(self, "contents", contents)


class FifoMachine(FrozenFields):
    """A validated FIFO machine, frozen so that ``post_index`` can cache
    its transitions."""

    _fields = ("states", "channels", "alphabet", "transitions", "initial", "name")

    def __init__(
        self,
        states: tuple[str, ...],
        channels: tuple[str, ...],
        alphabet: Alphabet,
        transitions: tuple[FifoTransition, ...],
        initial: str,
        name: str = "fifo-machine",
    ) -> None:
        set_field(self, "states", states)
        set_field(self, "channels", channels)
        set_field(self, "alphabet", alphabet)
        set_field(self, "transitions", transitions)
        set_field(self, "initial", initial)
        set_field(self, "name", name)
        states = set(self.states)
        channels = set(self.channels)
        if len(states) != len(self.states):
            raise ValueError("duplicate control states")
        if len(channels) != len(self.channels):
            raise ValueError("duplicate channels")
        if self.initial not in states:
            raise ValueError(f"initial control {self.initial!r} not declared")
        for i, t in enumerate(self.transitions):
            if t.source not in states or t.target not in states:
                raise ValueError(f"transition {i} uses undeclared control state")
            if t.channel not in channels:
                raise ValueError(f"transition {i} uses undeclared channel {t.channel!r}")
            if t.kind not in (SEND, RECV):
                raise ValueError(f"transition {i} has unknown direction {t.kind!r}")
            if not 0 <= t.letter < len(self.alphabet):
                raise ValueError(f"transition {i} uses an unknown letter id")

    def channel_index(self, ch: str) -> int:
        return self.channels.index(ch)

    @cached_property
    def post_index(self) -> dict[str, list[tuple[int, int, bool, int, str]]]:
        """Transitions by source control, in declaration order, with channel
        indices resolved: ``(label, channel index, is send, letter,
        target)``.  Built on first use."""
        index: dict[str, list] = {q: [] for q in self.states}
        for label, t in enumerate(self.transitions):
            index[t.source].append(
                (label, self.channel_index(t.channel), t.kind == SEND, t.letter, t.target)
            )
        return index

    def initial_config(
        self, contents: Mapping[str, str | Sequence[int]] | None = None
    ) -> FifoConfig:
        per_channel = [()] * len(self.channels)
        if contents:
            for ch, word in contents.items():
                per_channel[self.channel_index(ch)] = self.alphabet.word(word)
        return FifoConfig(self.initial, tuple(per_channel))

    def describe_transition(self, label: int) -> str:
        t = self.transitions[label]
        prefix = "" if len(self.channels) == 1 else t.channel
        return f"{prefix}{t.kind}{self.alphabet.name(t.letter)}"


def fifo_config_str(machine: FifoMachine, x: FifoConfig) -> str:
    return f"{x.control}:(" + "|".join(machine.alphabet.show(w) for w in x.contents) + ")"


def fifo_post(machine: FifoMachine, x: FifoConfig) -> list[tuple[int, FifoConfig]]:
    """All enabled one-step successors, in transition declaration order.

    A send appends to the channel tail; a receive consumes the head letter
    and is disabled unless the channel starts with that letter.
    """
    contents = x.contents
    out = []
    for label, ci, send, letter, target in machine.post_index.get(x.control, ()):
        word = contents[ci]
        if send:
            word = word + (letter,)
        elif word and word[0] == letter:
            word = word[1:]
        else:
            continue
        out.append((label, FifoConfig(target, contents[:ci] + (word,) + contents[ci + 1 :])))
    return out


_ACTION_RE = re.compile(r"^(\w+)?([!?])(\w+)$")


def resolve_action_run(
    machine: FifoMachine, x0: FifoConfig, actions: str | Sequence[str]
) -> list[int]:
    """Resolve an action-string run like ``"!c !b ?c"`` to transition labels.

    The channel may be omitted on single-channel machines.  Resolution
    simulates the machine with backtracking and requires exactly one
    transition sequence that executes the whole action string; zero or
    several complete resolutions are errors.
    """
    if isinstance(actions, str):
        tokens = actions.split()
    else:
        tokens = list(actions)
    parsed: list[tuple[str, str, int]] = []
    for tok in tokens:
        m = _ACTION_RE.match(tok)
        if not m:
            raise ValueError(f"bad action token {tok!r}")
        ch, kind, letter = m.groups()
        if ch is None:
            if len(machine.channels) != 1:
                raise ValueError(f"action {tok!r} omits the channel on a multi-channel machine")
            ch = machine.channels[0]
        parsed.append((ch, kind, machine.alphabet.id(letter)))

    if not parsed:
        return []
    spelled = [(t.channel, t.kind, t.letter) for t in machine.transitions]

    def moves(x: FifoConfig, i: int):
        return ((lab, y) for lab, y in fifo_post(machine, x) if spelled[lab] == parsed[i])

    # depth-first, one pending-moves iterator per chosen prefix, so long runs
    # need no recursion; stops once two complete resolutions are known
    solutions: list[list[int]] = []
    chosen: list[int] = []
    stack = [moves(x0, 0)]
    while stack and len(solutions) < 2:
        move = next(stack[-1], None)
        if move is None:
            stack.pop()
            if chosen:
                chosen.pop()
            continue
        label, y = move
        chosen.append(label)
        if len(chosen) == len(parsed):
            solutions.append(list(chosen))
            chosen.pop()
        else:
            stack.append(moves(y, len(chosen)))
    if not solutions:
        raise ValueError("action run is not executable")
    if len(solutions) > 1:
        raise ValueError("action run is ambiguous; pass transition labels instead")
    return solutions[0]


def _proj(machine: FifoMachine, labels: Iterable[int], channel: str, kind: str) -> tuple[int, ...]:
    picked = (machine.transitions[label] for label in labels)
    return tuple(t.letter for t in picked if t.channel == channel and t.kind == kind)


def send_proj(machine: FifoMachine, labels: Iterable[int], channel: str) -> tuple[int, ...]:
    """Word of letters sent on ``channel`` along the label sequence."""
    return _proj(machine, labels, channel, SEND)


def recv_proj(machine: FifoMachine, labels: Iterable[int], channel: str) -> tuple[int, ...]:
    """Word of letters received on ``channel`` along the label sequence."""
    return _proj(machine, labels, channel, RECV)


class BoundedLang(FrozenFields):
    """Per-channel bounded languages w_1^* ... w_n^* over one alphabet."""

    _fields = ("alphabet", "channels", "blocks")

    def __init__(
        self,
        alphabet: Alphabet,
        channels: tuple[str, ...],
        blocks: tuple[tuple[tuple[int, ...], ...], ...],  # per channel, per block
    ) -> None:
        set_field(self, "alphabet", alphabet)
        set_field(self, "channels", channels)
        set_field(self, "blocks", blocks)
        if len(self.channels) != len(self.blocks):
            raise ValueError("one block list per channel required")
        for per_channel in self.blocks:
            for w in per_channel:
                if not w:
                    raise ValueError("bounded-language words must be non-empty")

    def blocks_for(self, channel: str) -> tuple[tuple[int, ...], ...]:
        return self.blocks[self.channels.index(channel)]

    @property
    def distinct_letter(self) -> bool:
        """True iff no letter occurs twice across all words of all channels."""
        letters = [lid for per_channel in self.blocks for w in per_channel for lid in w]
        return len(letters) == len(set(letters))

    def show(self) -> str:
        parts = []
        for ch, per_channel in zip(self.channels, self.blocks):
            body = "".join(f"({self.alphabet.show(w)})" for w in per_channel)
            parts.append(f"{ch}: {body}")
        return "; ".join(parts)


def bounded_lang(machine: FifoMachine, words: Mapping[str, Sequence[str]]) -> BoundedLang:
    """Build a BoundedLang from plain strings, e.g. {"ch": ("ab", "c")}."""
    channels = []
    blocks = []
    for ch in machine.channels:
        if ch not in words:
            continue
        channels.append(ch)
        blocks.append(tuple(machine.alphabet.word(w) for w in words[ch]))
    unknown = set(words) - set(machine.channels)
    if unknown:
        raise ValueError(f"bounded language names unknown channels: {sorted(unknown)}")
    return BoundedLang(machine.alphabet, tuple(channels), tuple(blocks))


class Normalization(Fields):
    """Result of distinct-letter normalization.

    ``letter_map`` maps every letter name of the new machine back to the
    original letter name, so traces of the normalized machine erase to
    traces of the original one.  ``positions`` records, for each annotated
    letter, the (channel, block index, offset) occurrence it stands for.
    """

    _fields = ("machine", "lang", "letter_map", "positions")

    def __init__(
        self,
        machine: FifoMachine,
        lang: BoundedLang,
        letter_map: dict[str, str],
        positions: dict[str, tuple[str, int, int]],
    ) -> None:
        self.machine = machine
        self.lang = lang
        self.letter_map = letter_map
        self.positions = positions


def normalize_distinct_letter(machine: FifoMachine, lang: BoundedLang) -> Normalization:
    """Rename bounded-language letter occurrences apart.

    Each occurrence of a letter in the language's words becomes a fresh
    annotated letter; machine transitions on a renamed letter are split
    into one copy per occurrence on the same channel.  A language that is
    already distinct-letter is returned unchanged (identity letter map).
    The annotation is resolved at run time by the product construction:
    receives are forced by the channel head, sends by the position DFAs.
    """
    alphabet = machine.alphabet
    # every letter occurrence, in declaration order: channel, block, offset
    occurrences = [
        (ch, bi, oi, lid)
        for ch, per_channel in zip(lang.channels, lang.blocks)
        for bi, w in enumerate(per_channel)
        for oi, lid in enumerate(w)
    ]
    letter_map = {name: name for name in alphabet.letters}
    if lang.distinct_letter:
        positions = {alphabet.name(lid): (ch, bi, oi) for ch, bi, oi, lid in occurrences}
        return Normalization(machine, lang, letter_map, positions)

    # The new alphabet extends the old one, so old letter ids stay valid and
    # the k-th occurrence becomes letter len(alphabet) + k; positions lists
    # the new names in that order.
    base = len(alphabet)
    positions = {}
    counts: dict[int, int] = {}
    for ch, bi, oi, lid in occurrences:
        counts[lid] = counts.get(lid, 0) + 1
        name = f"{alphabet.name(lid)}{counts[lid]}"
        while name in letter_map:  # an old letter or an earlier new name
            name += "_"
        letter_map[name] = alphabet.name(lid)
        positions[name] = (ch, bi, oi)
    new_alphabet = Alphabet(alphabet.letters + tuple(positions))
    fresh = iter(range(base, len(new_alphabet)))  # each word becomes a run of new ids
    new_blocks = tuple(
        tuple(tuple(next(fresh) for _ in w) for w in per_channel) for per_channel in lang.blocks
    )
    new_lang = BoundedLang(new_alphabet, lang.channels, new_blocks)

    # Split each transition into one copy per occurrence of its letter on
    # its channel; transitions whose letter never occurs there are kept
    # verbatim, and the product drops them because the position DFAs have
    # no move on that letter.
    new_transitions = []
    for t in machine.transitions:
        variants = [
            t._replace(letter=base + k)
            for k, (ch, _, _, lid) in enumerate(occurrences)
            if (ch, lid) == (t.channel, t.letter)
        ]
        new_transitions.extend(variants or [t])
    new_machine = FifoMachine(
        machine.states,
        machine.channels,
        new_alphabet,
        tuple(new_transitions),
        machine.initial,
        f"{machine.name}-normalized",
    )
    return Normalization(new_machine, new_lang, letter_map, positions)


class Dfa(Fields):
    """Deterministic automaton over machine actions (channel, direction, letter)
    that tracks one direction, ``tracked`` (SEND or RECV).

    ``delta`` holds the moves of the tracked direction and is partial; a
    missing entry rejects.  An action of the other direction leaves the
    state unchanged.
    """

    _fields = ("states", "initial", "accepting", "tracked", "delta")

    def __init__(
        self,
        states: tuple[str, ...],
        initial: str,
        accepting: frozenset[str],
        tracked: str,
        delta: dict[tuple[str, Action], str],
    ) -> None:
        self.states = states
        self.initial = initial
        self.accepting = accepting
        self.tracked = tracked
        self.delta = delta

    def step(self, state: str, action: Action) -> str | None:
        if action[1] != self.tracked:
            return state
        return self.delta.get((state, action))

    def run(self, actions: Iterable[Action]) -> str | None:
        state: str | None = self.initial
        for a in actions:
            state = self.step(state, a)
            if state is None:
                return None
        return state

    def accepts(self, actions: Iterable[Action]) -> bool:
        state = self.run(actions)
        return state is not None and state in self.accepting


def _tracker_step(
    blocks: tuple[tuple[int, ...], ...], hit: tuple[int, int], pos: tuple[int, int]
) -> tuple[int, int] | None:
    """Advance a cyclic position tracker through w_1^* ... w_n^* on the
    letter at position ``hit``.

    State (i, j) means: blocks before i are complete, j letters of w_i are
    matched.  The letter at position (k, l) is enabled when it is the next
    letter of the current word, (k, l) = (i, j), or when it starts a later
    block at a block boundary, j = l = 0 and k > i; either way the tracker
    moves to (k, l + 1), back to (k, 0) at the end of w_k.
    """
    k, l = hit
    i, j = pos
    if (k, l) == (i, j) or (j == l == 0 and k > i):
        return (k, (l + 1) % len(blocks[k]))
    return None


def _build_position_dfa(
    machine: FifoMachine, lang: BoundedLang, tracked: str, prefix: str
) -> Dfa:
    if not lang.distinct_letter:
        raise ValueError("bounded language must be distinct-letter; normalize first")
    missing = [ch for ch in machine.channels if ch not in lang.channels]
    if missing:
        raise ValueError(f"bounded language misses channels: {missing}")

    # per channel: its blocks and its letters, each with the action it
    # labels and its (block, offset); letter-id order fixes the order in
    # which states are discovered, and so their names
    channel_moves = []
    for ch in machine.channels:
        blocks = lang.blocks_for(ch)
        hits = sorted((lid, (bi, oi)) for bi, w in enumerate(blocks) for oi, lid in enumerate(w))
        channel_moves.append((blocks, [((ch, tracked, lid), hit) for lid, hit in hits]))

    initial = ((0, 0),) * len(machine.channels)
    names: dict[tuple, str] = {initial: f"{prefix}0"}  # in discovery order
    delta: dict[tuple[str, Action], str] = {}
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        for ci, (blocks, moves) in enumerate(channel_moves):
            for action, hit in moves:
                moved = _tracker_step(blocks, hit, state[ci])
                if moved is None:
                    continue
                nxt = state[:ci] + (moved,) + state[ci + 1 :]
                if nxt not in names:
                    names[nxt] = f"{prefix}{len(names)}"
                    queue.append(nxt)
                delta[(names[state], action)] = names[nxt]

    if tracked == SEND:
        accepting = frozenset(
            name for s, name in names.items() if all(pos[1] == 0 for pos in s)
        )
    else:
        accepting = frozenset(names.values())
    return Dfa(
        states=tuple(names.values()),
        initial=names[initial],
        accepting=accepting,
        tracked=tracked,
        delta=delta,
    )


def build_send_dfa(machine: FifoMachine, lang: BoundedLang) -> Dfa:
    """DFA accepting action sequences whose send projections lie in L_c.

    Product over channels of cyclic position trackers; receive actions
    leave it unchanged.  Accepting states are those with every tracker at
    a block boundary (each channel's sent word is a complete element of L_c).
    """
    return _build_position_dfa(machine, lang, SEND, "s")


def build_recv_dfa(machine: FifoMachine, lang: BoundedLang) -> Dfa:
    """DFA accepting action sequences whose receive projections lie in
    Pref(L_c); all states accepting, send actions leave it unchanged."""
    return _build_position_dfa(machine, lang, RECV, "r")


def product_machine(machine: FifoMachine, send_dfa: Dfa, recv_dfa: Dfa) -> FifoMachine:
    """Product of a FIFO machine with the send and receive automata.

    Control states are the reachable triples (q, s, r), all of them kept:
    the position DFAs are trim, so every reachable pair (s, r) completes to
    joint acceptance (send the rest of each channel's current word; the
    receive DFA accepts everywhere and ignores sends).  A triple is named
    ``q_s_r``; DFA state names have no ``_``, so distinct triples get
    distinct names.
    """
    channels = machine.channels
    init = (machine.initial, send_dfa.initial, recv_dfa.initial)
    names = {init: "_".join(init)}  # the visited triples, in discovery order
    transitions: list[FifoTransition] = []
    queue = deque([init])
    while queue:
        q, s, r = queue.popleft()
        for _, ci, send, letter, target in machine.post_index[q]:
            action: Action = (channels[ci], SEND if send else RECV, letter)
            s2 = send_dfa.step(s, action)
            r2 = recv_dfa.step(r, action)
            if s2 is None or r2 is None:
                continue
            triple = (target, s2, r2)
            if triple not in names:
                names[triple] = "_".join(triple)
                queue.append(triple)
            transitions.append(FifoTransition(names[q, s, r], *action, names[triple]))
    return FifoMachine(
        states=tuple(names.values()),
        channels=channels,
        alphabet=machine.alphabet,
        transitions=tuple(transitions),
        initial=names[init],
        name=f"{machine.name}-product",
    )


def _omega_prefix(head: Sequence[int], period: Sequence[int], n: int) -> tuple[int, ...]:
    out = list(head)
    while len(out) < n:
        out.extend(period)
    return tuple(out[:n])


def check_fifo_infinite_iterability(
    machine: FifoMachine, x: FifoConfig, labels: Sequence[int]
) -> bool:
    """Decide whether the loop ``labels`` can be iterated forever from x.

    True iff the sequence fires from x, returns to x's control state, and
    for every channel either nothing is received, or the receive
    projection is no longer than the send projection and the eventually
    periodic words w_c·send^ω and recv^ω coincide.  The ω-equation is
    decided on a prefix of length |w_c| + |send|·|recv| + |send| + |recv|,
    which is safe by periodicity.  A sequence that does not fire, or that
    ends in a different control state (so a second iteration is
    impossible), yields False.
    """
    from .olts import fifo_olts  # olts imports this module

    final, stuck = fifo_olts(machine, x).run(labels)
    if stuck is not None or final.control != x.control:
        return False
    for ci, ch in enumerate(machine.channels):
        s = send_proj(machine, labels, ch)
        r = recv_proj(machine, labels, ch)
        if not r:
            continue
        if len(r) > len(s):
            return False
        w = x.contents[ci]
        n = len(w) + len(s) * len(r) + len(s) + len(r)
        if _omega_prefix(w + s, s, n) != _omega_prefix(r, r, n):
            return False
    return True
