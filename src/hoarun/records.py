"""Immutable records, made without generated code.

``@record`` turns a class that declares its fields as annotations, with
optional defaults, into a frozen record with ``__slots__``, as
``@dataclass(frozen=True, slots=True)`` would, but writes no source and
runs no ``exec``: it reads the fields once and installs shared functions
that close over them. A record has:

- ``__init__`` taking the fields by position or keyword, defaults
  filled in, then calling ``__post_init__`` when the class has one;
- ``==`` true only between records of the same class whose compared
  fields are equal, and a ``hash`` of those fields; a field whose
  default is an :class:`Uncompared` takes part in neither;
- the dataclass-form ``repr``, ``Name(field=value, ...)``;
- no ``__dict__``, and fields that cannot be assigned or deleted;
- copies and pickles made through its constructor.

A method that the class body or one of its bases (other than
``object``) already defines is kept. Records built in bulk define a plain
``__init__`` that stores each field with :data:`set_field`, which skips
the generic argument handling.

Records are not dataclasses: ``dataclasses.replace``, ``fields`` and
``asdict`` do not apply to them. :func:`replace` makes a changed copy,
and the field names are the class's ``__slots__``.
"""

from __future__ import annotations

_MISSING = object()

# stores a field of a frozen record, whose own __setattr__ refuses
set_field = object.__setattr__


class Uncompared:
    """The default of a field left out of ``==`` and ``hash``; the field
    is still set, printed and replaced."""

    __slots__ = ("default",)

    def __init__(self, default):
        self.default = default


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls: type) -> type:
    """The frozen, slotted record class declared by ``cls``."""
    names = tuple(cls.__annotations__)
    namespace = dict(cls.__dict__)
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    defaults = {}
    compared = []
    for name in names:
        default = namespace.pop(name, _MISSING)
        if isinstance(default, Uncompared):
            default = default.default
        else:
            compared.append(name)
        if default is not _MISSING:
            defaults[name] = default
        elif defaults:
            raise TypeError(f"{cls.__name__}: field {name!r} without a default follows one with")
    namespace["__slots__"] = names
    new = type(cls)(cls.__name__, cls.__bases__, namespace)

    def values(self):
        return tuple([getattr(self, name) for name in compared])

    if new.__init__ is object.__init__ and (names or hasattr(new, "__post_init__")):
        new.__init__ = _init(new.__qualname__, names, defaults, getattr(new, "__post_init__", None))
    if new.__eq__ is object.__eq__:

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            return hash(values(self))

        new.__eq__, new.__hash__ = __eq__, __hash__
    if new.__repr__ is object.__repr__:

        def __repr__(self):
            shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
            return f"{self.__class__.__qualname__}({shown})"

        new.__repr__ = __repr__
    new.__setattr__, new.__delattr__ = _refuse_set, _refuse_delete

    def __reduce__(self):  # copy and pickle would set the fields one by one
        return self.__class__, tuple([getattr(self, name) for name in names])

    new.__reduce__ = __reduce__
    return new


def _init(qualname: str, names: tuple[str, ...], defaults: dict, post_init):
    """The generic ``__init__`` of a record with fields ``names``."""
    count = len(names)

    def __init__(self, *args, **kwargs):
        if len(args) > count:
            raise TypeError(
                f"{qualname}.__init__() takes {count + 1} positional arguments "
                f"but {len(args) + 1} were given"
            )
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args) :]:
            value = kwargs.pop(name, defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{qualname}.__init__() missing required argument: {name!r}")
            set_field(self, name, value)
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{qualname}.__init__() got {problem} argument {name!r}")
        if post_init is not None:
            post_init(self)

    return __init__


def replace(obj, /, **changes):
    """A copy of the record ``obj`` with ``changes`` to its fields, made
    by its class's ``__init__``, so it is validated again."""
    for name in obj.__class__.__slots__:
        if name not in changes:
            changes[name] = getattr(obj, name)
    return obj.__class__(**changes)
