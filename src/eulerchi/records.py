"""Plain slotted records: the package's values and results.

A record's fields are the names in its class's own ``__slots__``, in order,
and ``Record``'s one constructor takes a value for each field, by position,
in that order.  A class writes its own ``__init__`` only to do more than
store its arguments: to convert one (``CellSpace``), to give one a default
(``Presentation``, ``CustomIsotropy``), or to start its fields as fresh
containers (``SuiteResult``, ``Report``); the first three still store
through ``Record.__init__``.  The two bases differ only in mutability:

* ``Record`` -- mutable; ``repr`` and equality field by field, and equal
  only to an instance of the same class; unhashable.
* ``Value`` -- a ``Record`` that is immutable and hashed field by field, so
  it can key a cache.  Only ``Record.__init__`` sets its fields.

Plain classes, not generated ones: a command-line run is a fresh process,
and generating every record's methods at import, and importing the
generator, took it longer than most of its computations.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__slots__", ()))

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__qualname__}({', '.join(fields)}) takes {len(fields)} values, "
                f"got {len(values)}"
            )
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class Value(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())
