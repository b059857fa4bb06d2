"""FIFO machines: syntax, semantics, bounded-language automata, and the
input-bounded product construction.

A letter is a one-character ``str`` that an :class:`Alphabet` maps to and
from its name, and every word is a ``str`` of letters: transition letters,
channel contents, bounded-language words, projections and DFA actions.  So
the prefix order is a C-level ``str.startswith``.  Transition labels are
declaration indices, as for counter machines.  The product construction
restricts a machine to behaviours whose per-channel send projections stay
inside a bounded language w_1^* ... w_n^* and whose receive projections
stay inside its prefixes; for distinct-letter languages the construction
is a product with two deterministic position-tracking automata.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._explore import Explorer
from ._record import FrozenFields, set_field

SEND = "!"
RECV = "?"

# A DFA action: (channel, direction, letter).
Action = tuple[str, str, str]


class Alphabet(FrozenFields):
    """Letter names and their letters: the i-th name's letter is ``chr(i)``,
    so letters sort in name order.  The only code that maps between the two."""

    _fields = ("letters",)

    def __init__(self, letters: Iterable[str]):
        set_field(self, "letters", tuple(letters))
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letters in alphabet")
        for name in self.letters:
            if not name:
                raise ValueError("empty letter name")
        set_field(self, "_letters", {a: chr(i) for i, a in enumerate(self.letters)})

    def __contains__(self, letter: object) -> bool:
        """True iff ``letter`` is one of this alphabet's letters (not names)."""
        return isinstance(letter, str) and len(letter) == 1 and ord(letter) < len(self.letters)

    def letter(self, name: str) -> str:
        try:
            return self._letters[name]
        except KeyError:
            raise ValueError(f"unknown letter {name!r}") from None

    def name(self, letter: str) -> str:
        return self.letters[ord(letter)]

    def word(self, names: str | Iterable[str]) -> str:
        """The word of some letter names; a plain string is one name per character."""
        return "".join(map(self.letter, names))

    def check_word(self, word: str, what: str) -> None:
        """Raise ValueError naming ``what`` unless ``word`` is valid: a ``str`` of
        this alphabet's letters; a letter outside it is reported first."""
        for letter in word if isinstance(word, Iterable) else ():
            if letter not in self:
                raise ValueError(f"{what} uses unknown letter {letter!r}")
        if not isinstance(word, str):
            raise ValueError(f"{what} is not a str: {word!r}")

    def show(self, word: str) -> str:
        names = [self.name(letter) for letter in word]
        if not names:
            return "ε"
        if all(len(n) == 1 for n in names):
            return "".join(names)
        return ".".join(names)


class FifoTransition(NamedTuple):
    source: str
    channel: str
    kind: str  # SEND or RECV
    letter: str
    target: str


class FifoConfig(FrozenFields):
    __slots__ = _fields = ("control", "contents")

    def __init__(
        self,
        control: str,
        contents: Sequence[str],  # channel words by declaration order
    ) -> None:
        set_field(self, "control", control)
        set_field(self, "contents", tuple(contents))  # a tuple, as in CounterConfig


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
        super().__init__(states, channels, alphabet, transitions, initial, name)
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
            if t.letter not in self.alphabet:
                raise ValueError(f"transition {i} uses unknown letter {t.letter!r}")

    def channel_index(self, ch: str) -> int:
        if ch not in self.channels:
            raise ValueError(f"unknown channel {ch!r}")
        return self.channels.index(ch)

    @cached_property
    def post_index(self) -> dict[str, list[tuple[int, int, bool, str, str]]]:
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
        self, contents: Mapping[str, str | Sequence[str]] | None = None
    ) -> FifoConfig:
        per_channel = [""] * len(self.channels)
        if contents:
            for ch, word in contents.items():
                per_channel[self.channel_index(ch)] = self.alphabet.word(word)
        return FifoConfig(self.initial, per_channel)

    def check(self, x: FifoConfig, what: str) -> FifoConfig:
        """x, or a ValueError naming ``what`` unless x has one valid word per channel."""
        k = len(self.channels)
        if len(x.contents) != k:
            raise ValueError(f"{what} channels {len(x.contents)} != machine channels {k}")
        for ch, word in zip(self.channels, x.contents):
            self.alphabet.check_word(word, f"{what} word of channel {ch!r}")
        return x

    def describe_transition(self, label: int) -> str:
        t = self.transitions[label]
        prefix = "" if len(self.channels) == 1 else t.channel
        return f"{prefix}{t.kind}{self.alphabet.name(t.letter)}"


def fifo_config_str(machine: FifoMachine, x: FifoConfig) -> str:
    return f"{x.control}:(" + "|".join(map(machine.alphabet.show, x.contents)) + ")"


def fifo_post(machine: FifoMachine, x: FifoConfig) -> list[tuple[int, FifoConfig]]:
    """All enabled one-step successors, in transition declaration order.

    A send appends its letter to the channel tail; a receive consumes the
    head letter and is disabled unless the channel starts with it.
    """
    contents = x.contents
    out = []
    for label, ci, send, letter, target in machine.post_index.get(x.control, ()):
        word = contents[ci]
        if send:
            word += letter
        elif word.startswith(letter):
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
    requires exactly one transition sequence that executes the whole action
    string; zero or several are errors.  One forward pass over the actions,
    with no backtracking, keeps per reached configuration the number of
    label sequences that reach it, capped at 2, and the first of them.
    Raises ValueError on an x0 that :meth:`FifoMachine.check` refuses.
    """
    machine.check(x0, "initial")
    if isinstance(actions, str):
        tokens = actions.split()
    else:
        tokens = list(actions)
    parsed: list[Action] = []
    for tok in tokens:
        m = _ACTION_RE.match(tok)
        if not m:
            raise ValueError(f"bad action token {tok!r}")
        ch, kind, letter = m.groups()
        if ch is None:
            if len(machine.channels) != 1:
                raise ValueError(f"action {tok!r} omits the channel on a multi-channel machine")
            ch = machine.channels[0]
        parsed.append((ch, kind, machine.alphabet.letter(letter)))

    spelled = [(t.channel, t.kind, t.letter) for t in machine.transitions]
    reached: dict[FifoConfig, tuple[int, list[int]]] = {x0: (1, [])}
    for action in parsed:
        after: dict[FifoConfig, tuple[int, list[int]]] = {}
        for x, (count, labels) in reached.items():
            for label, y in fifo_post(machine, x):
                if spelled[label] != action:
                    continue
                seen, first = after.setdefault(y, (0, labels + [label]))
                after[y] = (min(seen + count, 2), first)
        reached = after
    resolutions = sum(count for count, _ in reached.values())
    if not resolutions:
        raise ValueError("action run is not executable")
    if resolutions > 1:
        raise ValueError("action run is ambiguous; pass transition labels instead")
    return next(iter(reached.values()))[1]


def _proj(machine: FifoMachine, labels: Iterable[int], channel: str, kind: str) -> str:
    picked = (machine.transitions[label] for label in labels)
    return "".join(t.letter for t in picked if t.channel == channel and t.kind == kind)


def send_proj(machine: FifoMachine, labels: Iterable[int], channel: str) -> str:
    """Word of letters sent on ``channel`` along the label sequence."""
    return _proj(machine, labels, channel, SEND)


def recv_proj(machine: FifoMachine, labels: Iterable[int], channel: str) -> str:
    """Word of letters received on ``channel`` along the label sequence."""
    return _proj(machine, labels, channel, RECV)


class BoundedLang(FrozenFields):
    """Per-channel bounded languages w_1^* ... w_n^* over one alphabet."""

    _fields = ("alphabet", "channels", "blocks")

    def __init__(
        self,
        alphabet: Alphabet,
        channels: tuple[str, ...],
        blocks: tuple[tuple[str, ...], ...],  # per channel, per block
    ) -> None:
        super().__init__(alphabet, channels, blocks)
        if len(self.channels) != len(self.blocks):
            raise ValueError("one block list per channel required")
        for i, (ch, per_channel) in enumerate(zip(self.channels, self.blocks)):
            if ch in self.channels[:i]:
                raise ValueError(f"bounded language repeats channel {ch!r}")
            for w in per_channel:
                if not w:
                    raise ValueError("bounded-language words must be non-empty")
                self.alphabet.check_word(w, f"a word of channel {ch!r}")

    def blocks_for(self, channel: str) -> tuple[str, ...]:
        if channel not in self.channels:
            raise ValueError(f"unknown channel {channel!r}")
        return self.blocks[self.channels.index(channel)]

    @property
    def distinct_letter(self) -> bool:
        """True iff no letter occurs twice across all words of all channels."""
        letters = [letter for per_channel in self.blocks for w in per_channel for letter in w]
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


class Normalization(NamedTuple):
    """Result of distinct-letter normalization.

    ``letter_map`` maps every letter name of the new machine back to the
    original letter name, so traces of the normalized machine erase to
    traces of the original one.  ``positions`` records, for each annotated
    letter, the (channel, block index, offset) occurrence it stands for.
    """

    machine: FifoMachine
    lang: BoundedLang
    letter_map: dict[str, str]
    positions: dict[str, tuple[str, int, int]]


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
        (ch, bi, oi, letter)
        for ch, per_channel in zip(lang.channels, lang.blocks)
        for bi, w in enumerate(per_channel)
        for oi, letter in enumerate(w)
    ]
    letter_map = {name: name for name in alphabet.letters}
    if lang.distinct_letter:
        positions = {alphabet.name(letter): (ch, bi, oi) for ch, bi, oi, letter in occurrences}
        return Normalization(machine, lang, letter_map, positions)

    # The new alphabet extends the old one, so old letters stay valid, and
    # the k-th occurrence becomes the k-th new name's letter; positions
    # lists the new names in that order.
    positions = {}
    counts: dict[str, int] = {}
    for ch, bi, oi, letter in occurrences:
        counts[letter] = counts.get(letter, 0) + 1
        name = f"{alphabet.name(letter)}{counts[letter]}"
        while name in letter_map:  # an old letter or an earlier new name
            name += "_"
        letter_map[name] = alphabet.name(letter)
        positions[name] = (ch, bi, oi)
    new_alphabet = Alphabet(alphabet.letters + tuple(positions))
    fresh = new_alphabet.word(positions)
    letters = iter(fresh)  # each word becomes a run of new letters
    new_blocks = tuple(
        tuple("".join(next(letters) for _ in w) for w in words) for words in lang.blocks
    )
    new_lang = BoundedLang(new_alphabet, lang.channels, new_blocks)

    # Split each transition into one copy per occurrence of its letter on
    # its channel; transitions whose letter never occurs there are kept
    # verbatim, and the product drops them because the position DFAs have
    # no move on that letter.
    new_transitions = []
    for t in machine.transitions:
        variants = [
            t._replace(letter=fresh[k])
            for k, (ch, _, _, letter) in enumerate(occurrences)
            if (ch, letter) == (t.channel, t.letter)
        ]
        new_transitions.extend(variants or [t])
    new_machine = machine._replace(alphabet=new_alphabet, transitions=tuple(new_transitions),
                                   name=f"{machine.name}-normalized")
    return Normalization(new_machine, new_lang, letter_map, positions)


class Dfa(NamedTuple):
    """Deterministic automaton over machine actions (channel, direction, letter)
    that tracks one direction, ``tracked`` (SEND or RECV).

    ``delta`` holds the moves of the tracked direction and is partial; a
    missing entry rejects.  An action of the other direction leaves the
    state unchanged.
    """

    states: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    tracked: str
    delta: dict[tuple[str, Action], str]

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
    blocks: tuple[str, ...], hit: tuple[int, int], pos: tuple[int, int]
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
    # labels and its (block, offset); letter order fixes the order in which
    # states are discovered, and so their names
    channel_moves = []
    for ch in machine.channels:
        blocks = lang.blocks_for(ch)
        hits = sorted((a, (bi, oi)) for bi, w in enumerate(blocks) for oi, a in enumerate(w))
        channel_moves.append((blocks, [((ch, tracked, a), hit) for a, hit in hits]))

    explorer = Explorer(((0, 0),) * len(machine.channels))
    moved_to: list[tuple[int, Action, int]] = []  # (state, action, next state) by index
    for i, state in explorer:
        for ci, (blocks, moves) in enumerate(channel_moves):
            for action, hit in moves:
                moved = _tracker_step(blocks, hit, state[ci])
                if moved is not None:
                    nxt = state[:ci] + (moved,) + state[ci + 1 :]
                    moved_to.append((i, action, explorer.add(nxt, i, action)))

    names = tuple(f"{prefix}{i}" for i in range(len(explorer.states)))
    accepting = frozenset(  # a send DFA accepts with every tracker at a block boundary
        name for s, name in zip(explorer.states, names)
        if tracked == RECV or all(pos[1] == 0 for pos in s)
    )
    return Dfa(
        states=names,
        initial=names[0],
        accepting=accepting,
        tracked=tracked,
        delta={(names[i], action): names[j] for i, action, j in moved_to},
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
    explorer = Explorer((machine.initial, send_dfa.initial, recv_dfa.initial))
    moved_to: list[tuple[int, Action, int]] = []  # (triple, action, next triple) by index
    for i, (q, s, r) in explorer:
        for label, ci, send, letter, target in machine.post_index[q]:
            action: Action = (channels[ci], SEND if send else RECV, letter)
            s2 = send_dfa.step(s, action)
            r2 = recv_dfa.step(r, action)
            if s2 is not None and r2 is not None:
                moved_to.append((i, action, explorer.add((target, s2, r2), i, label)))
    names = tuple("_".join(triple) for triple in explorer.states)
    transitions = tuple(FifoTransition(names[i], *action, names[j]) for i, action, j in moved_to)
    return machine._replace(states=names, transitions=transitions,
                            initial=names[0], name=f"{machine.name}-product")


def _omega_prefix(head: str, period: str, n: int) -> str:
    out = head
    while len(out) < n:
        out += period
    return out[:n]


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
    impossible), yields False, and so does the empty sequence, which is
    no loop at all.  Raises ValueError on an x that :func:`fifo_olts`
    refuses, whatever the labels.
    """
    from .olts import fifo_olts  # olts imports this module

    final, stuck = fifo_olts(machine, x).run(labels)
    if not labels or stuck is not None or final.control != x.control:
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
