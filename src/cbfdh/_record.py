"""Value records: the equality, hash, repr and pickling of a frozen
dataclass, without the start-up cost of the standard dataclass module,
whose import pulls in ``inspect``, ``ast`` and ``dis``, and of the methods
it compiles.

A record's fields are the parameters of its own ``__init__``, in order, kept
as ``_fields``.  Instances of one class compare and hash by their fields,
print as ``Name(field=value, ...)``, pickle as a call of the constructor on
the fields and refuse attribute assignment.  ``__init__`` checks the fields
and writes them with ``set_fields(self, locals())``, or, in an inner loop,
each with :func:`set_field`.  No method changes a field after ``__init__``;
a record with a dict or list field is unhashable, as such a frozen
dataclass is.
"""

from __future__ import annotations

# How a FrozenRecord's __init__ writes a field, as a frozen dataclass does.
# It keeps CPython's inline attribute values, which read about twice as
# fast as fields written through a materialised ``self.__dict__``.
set_field = object.__setattr__


def set_fields(record: FrozenRecord, values: dict[str, object]) -> None:
    """Write each field of ``record`` from its ``__init__``'s locals()."""
    for name in record._fields:
        set_field(record, name, values[name])


class FrozenRecord:
    """An immutable, hashable record, like a frozen dataclass."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            code = cls.__init__.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy the fields only: a cached value is rebuilt on use
        return type(self), self._astuple()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
