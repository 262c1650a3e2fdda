"""Immutable slotted records, the package's value types.

A subclass names its fields in __slots__, in constructor order, and its
__init__ sets them once through _set, which keeps their values as the key
that equality, repr and pickling read.  The key's hash is computed on first
use and stored, so an lru_cache lookup reads one slot.
"""


class Record:
    __slots__ = ("_key", "_hash")

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash(self._key))
            return self._hash

    def __reduce__(self):
        # rebuilt through __init__, which validates; the hash is recomputed
        return self.__class__, self._key

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key))
        return f"{self.__class__.__qualname__}({fields})"
