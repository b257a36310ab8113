"""Shared exception types, the base classes of the library's records, and
the typed readers of JSON descriptor fields: each returns the value it reads
or raises the one `SchemaError` for its fault at the field's path."""


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


def need(ok, path: str, text: str) -> None:
    """Raise SchemaError(path, text) unless `ok`."""
    if not ok:
        raise SchemaError(path, text)


def read_object(value, path: str) -> dict:
    need(isinstance(value, dict), path, "expected an object")
    return value


def fields(obj, path: str, *keys: str) -> tuple:
    """The values at `keys` of a descriptor object; each must be present."""
    read_object(obj, path)
    for key in keys:
        need(key in obj, f"{path}.{key}", "missing")
    return tuple(obj[key] for key in keys)


def read_list(value, path: str, text: str, empty: bool = False) -> list:
    """A list, non-empty unless `empty`."""
    need(isinstance(value, list) and (empty or value), path, text)
    return value


def read_int(value, path: str, low=None, text=None) -> int:
    """An integer (a JSON boolean is not one) of at least `low`, if given."""
    if type(value) is not int or (low is not None and value < low):
        bound = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
        raise SchemaError(path, text or f"expected {bound[low]}")
    return value


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
