"""Bases of the package's value types: plain slot classes, created at import without generated code.

A value type lists its fields in __slots__, in declaration order, and sets them in a hand-written
__init__ that validates them.  These bases compare and print an instance by those fields, and
Frozen also hashes it and refuses assignment, so a value type declares no more than its fields
and its validation.
"""

__all__ = ["Frozen", "Record"]


class Record:
    """A mutable value type: equal to an instance of its own class with equal fields, unhashable,
    printed as Name(field=value, ...)."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable value type: __init__ sets every field once through _set, assignment raises
    AttributeError, and equal instances hash alike."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Set the fields to values, given in __slots__ order."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
