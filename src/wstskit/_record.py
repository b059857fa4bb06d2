"""Value equality and a field-by-field repr for the package's plain classes.

Most immutable records (transitions, ideals, verdicts) are
``typing.NamedTuple`` types.  The configurations are plain slotted classes
instead: the tree build reads their fields millions of times, and the
interpreter reads a slot about four times faster than a named-tuple field.
Classes that validate their arguments, cache a derived index, or are
mutated are plain classes too.  Each plain class names its attributes in
``_fields`` (two or more) and gets equality (same class, equal fields) and
``repr`` from :class:`Fields`.  None of them uses :mod:`dataclasses`: its
import (which pulls in :mod:`inspect`) and its per-class code generation
would cost every CLI run more than the analysis of a small model.
"""

from __future__ import annotations

from operator import attrgetter

#: How a frozen class's ``__init__`` sets its fields.
set_field = object.__setattr__


class Fields:
    """Equality and repr over the attributes named in ``_fields``; mutable
    subclasses stay unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the field values as one tuple, read in C
        cls._astuple = attrgetter(*cls._fields) if cls._fields else None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"


class FrozenFields(Fields):
    """Fields for classes whose attributes are set once, in ``__init__``
    through :data:`set_field`; assigning one later raises AttributeError,
    and instances hash their fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
