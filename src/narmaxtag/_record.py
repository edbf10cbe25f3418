"""Frozen record classes, built without :mod:`dataclasses`.

``dataclasses`` writes each class's methods as source text and runs it
with ``exec`` on every import, and importing it loads ``inspect``: for
the package's record classes that was about a third of what every
command paid before it did any work.  :func:`record` installs, as plain
functions over the annotated field names, only what the package uses:
``__init__`` with the fields' defaults, followed by ``__post_init__``;
the dataclass ``__repr__`` text; field-tuple ``__eq__`` and
``__hash__``, or under ``eq=False`` those the class defines itself or
identity; and frozen attributes.

A record is slotted: :func:`record` returns a new class with
``__slots__`` over the fields, so an instance has no ``__dict__`` (a
derivation node or a label is the most numerous object the package
holds).  The fields' defaults move from the class into ``__init__``,
where the slots would clash with them, and ``__init__`` sets the fields
through ``object.__setattr__``, past the frozen ``__setattr__``.  The
frozen ``__setattr__`` would also refuse the field-by-field restore that
``copy``, ``deepcopy`` and ``pickle`` do by default, so ``__reduce__``
rebuilds a record by calling its class with its field values.  A class
with a ``cached_property`` (``ElementaryTree._table``,
``Grammar._tables``) keeps a ``__dict__`` slot, where the property
stores its value.
"""

from functools import cached_property
from operator import attrgetter


def _frozen_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_del(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(eq=True):
    """Class decorator: a frozen record over the class's annotated fields,
    of which those with a class-level default come last."""

    def wrap(cls):
        namespace = dict(cls.__dict__)
        names = tuple(namespace.get("__annotations__", {}))
        defaults = tuple(namespace.pop(name) for name in names if name in namespace)
        required = len(names) - len(defaults)
        post_init = namespace.get("__post_init__")
        key = attrgetter(*names)  # the field tuple, for two or more fields

        def __init__(self, *args, **kwargs):
            if kwargs or not required <= len(args) <= len(names):
                args = _bind(cls.__qualname__, names, defaults, args, kwargs)
            else:
                args += defaults[len(args) - required :]
            for name, value in zip(names, args):
                object.__setattr__(self, name, value)  # past the frozen __setattr__
            if post_init is not None:
                post_init(self)

        def __repr__(self):
            fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
            return f"{type(self).__qualname__}({fields})"

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash(key(self))

        def __reduce__(self):
            return type(self), tuple(getattr(self, name) for name in names)

        namespace.update(__init__=__init__, __repr__=__repr__, __reduce__=__reduce__)
        if eq:
            namespace.update(__eq__=__eq__, __hash__=__hash__)
        namespace.update(__setattr__=_frozen_set, __delattr__=_frozen_del)
        cached = any(isinstance(value, cached_property) for value in namespace.values())
        namespace["__slots__"] = names + ("__dict__",) * cached
        namespace.pop("__dict__", None)
        namespace.pop("__weakref__", None)
        return type(cls.__name__, cls.__bases__, namespace)

    return wrap


def _bind(qualname, names, defaults, args, kwargs):
    """The field values of a call with keywords or with too few or too
    many positional arguments, or the ``TypeError`` it raises."""
    where = f"{qualname}.__init__()"
    first_default = len(names) - len(defaults)
    if len(args) > len(names):
        takes = f"from {first_default + 1} to " * bool(defaults) + str(len(names) + 1)
        given = len(args) + 1
        raise TypeError(f"{where} takes {takes} positional arguments but {given} were given")
    for name in names[: len(args)]:
        if name in kwargs:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
    values = list(args)
    missing = []
    for i in range(len(args), len(names)):
        if names[i] in kwargs:
            values.append(kwargs.pop(names[i]))
        elif i >= first_default:
            values.append(defaults[i - first_default])
        else:
            missing.append(repr(names[i]))
    if kwargs:
        raise TypeError(f"{where} got an unexpected keyword argument {next(iter(kwargs))!r}")
    if missing:
        *rest, last = missing
        listed = f"{', '.join(rest)}{',' * (len(rest) > 1)} and {last}" if rest else last
        plural = "s" * (len(missing) > 1)
        raise TypeError(
            f"{where} missing {len(missing)} required positional argument{plural}: {listed}"
        )
    return values
