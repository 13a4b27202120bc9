"""Exception hierarchy shared across the toolkit, and the command path's value base.

Everything raised on bad input derives from ``TracebindError`` so callers
(the CLI in particular) can separate input problems from genuine bugs.
"""


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


class Frozen:
    """Base of the immutable value classes that ``analyze`` and ``probe`` load.

    A subclass's fields are its own annotations, in order; a class attribute
    of the same name is a field's default.  Instances compare, hash and print
    by their fields as ``@dataclass(frozen=True)`` ones do, and
    ``__post_init__`` runs once the fields are set.  Importing ``dataclasses``
    and generating the methods would cost every command about 15 ms.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

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
        self.__dict__.update((name, values[name]) for name in fields)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen value")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"
