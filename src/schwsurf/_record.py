"""Immutable value records: the package's parameter and report types.

:class:`Record` gives a subclass the behaviour of ``dataclass(frozen=True)``
read straight from the class's own annotations, so no record module
imports ``dataclasses`` (and with it ``inspect``) or generates code at
import time.
"""


class Record:
    """Base of an immutable record whose fields are the class annotations,
    in order; a field with a class-level value defaults to it.

    Construction takes the fields by position or by keyword, stores them
    and calls :meth:`__post_init__`, which validates them and may coerce
    one with ``object.__setattr__``.  Assignment and deletion raise
    :class:`AttributeError`.  ``==`` and ``hash`` compare the tuple of the
    fields between instances of one type, and ``repr`` reads
    ``Name(field=value, ...)`` without the fields named in the class
    keyword ``hide``.  Instances keep a ``__dict__``, so
    ``functools.cached_property`` works on them.
    """

    def __init_subclass__(cls, hide=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls._shown = tuple(name for name in cls._fields if name not in hide)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args))
        if kwargs or len(args) != len(fields):
            complete = {**self._defaults, **values, **kwargs}
            if len(args) > len(fields) or complete.keys() != set(fields) or not kwargs.keys().isdisjoint(values):
                raise TypeError(
                    f"{type(self).__qualname__}() takes the fields {fields},"
                    f" got {len(args)} by position and {sorted(kwargs)} by keyword"
                )
            values = complete
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Validate the fields; a record without checks keeps this no-op."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({shown})"
