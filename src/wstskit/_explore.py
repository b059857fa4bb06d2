"""Breadth-first search that visits each distinct state once."""

from __future__ import annotations

from typing import Any, Hashable


class Explorer:
    """Distinct states in discovery order, each with the step that found it.

    ``states`` is also the queue: iterating yields ``(index, state)`` and
    reaches states added while it runs.  The caller expands the states it
    takes, handing successors to :meth:`add`, so it keeps its own skip rule
    and stop point.  ``index`` maps a state to its index; ``via[i]`` is the
    ``(parent index, label)`` that found state i, None for the start.
    """

    def __init__(self, start: Hashable) -> None:
        self.states = [start]
        self.index = {start: 0}
        self.via: list[tuple[int, Any] | None] = [None]

    def __iter__(self):
        return enumerate(self.states)

    def add(self, y: Hashable, i: int, label: Any) -> int:
        """y's index; a new y is appended, found from state i by ``label``."""
        j = self.index.setdefault(y, len(self.states))
        if j == len(self.states):
            self.states.append(y)
            self.via.append((i, label))
        return j

    def path(self, i: int) -> list:
        """The labels of the steps from the start to state i."""
        labels = []
        while self.via[i] is not None:
            i, label = self.via[i]
            labels.append(label)
        return labels[::-1]
