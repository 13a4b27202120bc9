"""Exception hierarchy shared across the toolkit, and the base of every value class.

Everything raised on bad input derives from ``TracebindError`` so callers
(the CLI in particular) can separate input problems from genuine bugs.
Every command loads this module, so it also holds what the value classes
share, and what ``probe``, which loads only it, ``metrics`` and ``cli``,
shares with the trace path: two constants of the window kernel and the
JSON Lines line reader of every input file.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from itertools import chain
from pathlib import Path

# A missing minimal horizon, and the bound no finite parameter reaches.
INFINITE = math.inf

# The default search cap for minimal horizons in the gap ratio.
DEFAULT_HORIZON_MAX = 256


class TracebindError(Exception):
    """Base class for all toolkit errors."""


class StructuralError(TracebindError, ValueError):
    """A value violates a structural constraint of its type."""


class ParameterError(TracebindError, ValueError):
    """A numeric or configuration parameter is outside its documented range."""


class OutOfRangeError(TracebindError, IndexError):
    """A window or step index does not fit inside the trace."""


class GroundingLookupError(TracebindError, KeyError):
    """An identity statement references an undeclared predicate label."""


class StreamOrderError(TracebindError):
    """Activation sets arrived out of step order."""


class CapacityError(TracebindError):
    """Context cannot hold the requested tokens even after eviction."""


class FeatureError(TracebindError):
    """An action requires a scaffold feature the preset does not provide."""


class ScenarioError(TracebindError):
    """Scenario parameters cannot realize the construction they promise."""


class MetricError(TracebindError):
    """A metric is undefined for the given inputs."""


class FileFormatError(TracebindError, ValueError):
    """A trace or identity-spec file violates its documented format."""


class _FrozenType(type):
    """A class's own annotations become its fields and slots, their values its ``_defaults``."""

    def __new__(mcs, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", {}))
        defaults = {field: namespace.pop(field) for field in fields if field in namespace}
        namespace.update(__slots__=fields, _fields=fields, _defaults=defaults)
        return super().__new__(mcs, name, bases, namespace)


class Frozen(metaclass=_FrozenType):
    """Base of every immutable value class of the toolkit.

    A subclass's fields are its own annotations, in order, held in slots; a
    class attribute of the same name is a field's default.  Instances compare,
    hash and print as ``@dataclass(frozen=True)`` ones do, ``__post_init__`` runs
    once the fields are set, and they pickle and copy through the constructor.
    Importing ``dataclasses`` and generating the methods would cost about 15 ms.
    """

    def __init__(self, *args, **kwargs) -> None:
        fields, extra = self._fields, len(args) - len(self._fields)
        given = dict(zip(fields, args))
        faults = [f"{extra} more positional arguments than fields"] if extra > 0 else []
        faults += [f"multiple values for {name!r}" for name in kwargs if name in given]
        faults += [f"unexpected keyword argument {name!r}" for name in kwargs if name not in fields]
        values = {**self._defaults, **given, **kwargs}
        faults += [f"no value for {name!r}" for name in fields if name not in values]
        if faults:
            raise TypeError(f"{type(self).__qualname__}() got {', '.join(faults)}")
        for name in fields:
            object.__setattr__(self, name, values[name])
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen value")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


def replace(value: Frozen, /, **changes) -> Frozen:
    """A copy of ``value`` with ``changes`` to its fields, built by its checked constructor."""
    return type(value)(**{**dict(zip(value._fields, value._values())), **changes})


def _collection(value, name: str):
    """``value``, unless it is one ``str``, which a tuple or set would read as
    its characters: that raises :class:`StructuralError`."""
    if isinstance(value, str):
        raise StructuralError(f"{name} must be a collection of strings, not one string")
    return value


def _mapping(value, name: str) -> dict:
    """A dict copy of ``value``, unless it is no mapping: that raises :class:`StructuralError`."""
    if not isinstance(value, Mapping):
        raise StructuralError(f"{name} must be a mapping, not {type(value).__name__}")
    return dict(value)


_BLOCK_BYTES = 16 * 1024


def _split_lines(text: str) -> list[str]:
    """``text``'s lines as JSON Lines reads them: broken at ``\\n``, ``\\r\\n`` and ``\\r``
    only, not at U+2028 as ``str.splitlines`` is, and no empty line after a last break."""
    if "\r" in text:  # a replace that finds nothing still costs a scan
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    return lines if lines[-1] else lines[:-1]


def _text_lines(path: str | Path) -> Iterator[str]:
    """Each line of the file, broken as :func:`_split_lines` breaks them.  A
    block of bytes, read on to the end of its last line so that no character
    and no CR LF pair straddles a cut, is decoded at once; one that is not
    UTF-8 is decoded again line by line, so the error names its line."""

    def blocks() -> Iterator[list[str]]:
        lineno = 0
        with open(path, "rb") as stream:
            while data := stream.read(_BLOCK_BYTES) + stream.readline():
                try:
                    lines = _split_lines(data.decode("utf-8"))
                except UnicodeDecodeError:
                    lines = []
                    for raw in data.splitlines():  # the same breaks, on bytes
                        try:
                            lines.append(raw.decode("utf-8"))
                        except UnicodeDecodeError as exc:
                            yield lines
                            where = f"{path}:{lineno + len(lines) + 1}"
                            raise FileFormatError(f"{where}: not UTF-8 text: {exc}") from None
                lineno += len(lines)
                yield lines

    return chain.from_iterable(blocks())
