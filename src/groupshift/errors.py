"""Shared exception types, and the base classes of the library's records."""


class Record:
    """A record: fixed fields in `__slots__`, set once by `__init__`.

    The repr lists the fields in slot order; equality is identity.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Value(Record):
    """A record equal to any record of its class with equal fields, and
    hashed by its fields (a subclass sets `__hash__ = None` to opt out)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())


class GroupshiftError(Exception):
    """Base class for all library errors."""


class UnknownSymbol(GroupshiftError):
    """A word used a symbol outside the declared generator set."""


class SchemaError(GroupshiftError):
    """A JSON descriptor was malformed.

    Carries the path of the offending field so CLI errors can point at it.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


class ResourceLimit(GroupshiftError):
    """An enumeration or search exceeded its configured node budget."""


class OutOfBall(GroupshiftError):
    """A translate left the finite ball a patch is defined on."""


class InsufficientPrefix(GroupshiftError):
    """An encoding window needs more symbols than the given prefix has."""


class AlphabetMismatch(GroupshiftError):
    """A patch symbol does not belong to the alphabet being checked."""


class BallTooSmall(GroupshiftError):
    """A read window does not fit inside the available ball."""


class DisplacementNotGenerator(GroupshiftError):
    """A successor step is not realized by any single generator edge."""


class CycleDetected(GroupshiftError):
    """A label patch meant to be cycle-free contains a cycle."""


class IncompleteSupport(GroupshiftError):
    """A pattern is missing (or conflicts on) a required address."""


class BadLength(GroupshiftError):
    """A word length is not the required power of three."""


class UndecodableWindow(GroupshiftError):
    """No aligned block of a window survives the decoding procedure."""
