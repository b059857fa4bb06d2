"""Value equality, repr and ``_replace`` for the package's plain classes.

The read-only records (transitions, ideals, verdicts, trees, DFAs, parsed
model files) are ``typing.NamedTuple`` types.  The configurations are
plain slotted classes instead: the tree build reads their fields millions
of times, and the interpreter reads a slot about four times faster than a
named-tuple field.  Classes that validate their arguments or cache a
derived index (the machines, ``BoundedLang``, ``Alphabet``) are plain
classes too, as is ``RrtNode``, the one mutable record.  Each plain class
names its attributes in ``_fields`` (one or more) and gets equality (same
class, equal fields), ``repr`` and ``_replace`` from :class:`Fields`.  So
every record kind is built by field order or by keyword and copied with
``_replace``, which runs the class's ``__init__`` again.  None of them uses
:mod:`dataclasses`: its import (which pulls in :mod:`inspect`) and its
per-class code generation would cost every CLI run more than the analysis
of a small model.
"""

from __future__ import annotations

from operator import attrgetter

#: How a frozen class's ``__init__`` sets its fields.
set_field = object.__setattr__


class Fields:
    """Equality, repr and ``_replace`` over the attributes named in
    ``_fields``; mutable subclasses stay unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the field values as one tuple (a lone field's value), read in C
        cls._astuple = attrgetter(*cls._fields) if cls._fields else None

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def _replace(self, **changes):
        """A copy with ``changes`` applied, built by the class's ``__init__``."""
        return type(self)(**({f: getattr(self, f) for f in self._fields} | changes))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({shown})"


class FrozenFields(Fields):
    """Fields for classes whose attributes are set once, in ``__init__``
    (in ``_fields`` order, or through :data:`set_field`); assigning one
    later raises AttributeError, and instances hash their fields."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            set_field(self, name, value)

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
