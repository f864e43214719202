"""Value equality for the library's small immutable records."""

from __future__ import annotations


class Value:
    """Mixin: instances compare and hash by the tuple `_fields` returns.

    The hash is that of the field tuple, the one a frozen dataclass
    gives.  Instances of different classes never compare equal.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())
