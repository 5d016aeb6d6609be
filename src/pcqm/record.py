"""Value records: plain classes whose fields are their ``__slots__``.

A record lists its fields once, in ``__slots__``, in constructor order.
``Record``'s one ``__init__`` fills them from positional and keyword
arguments, taking a field's default from the class's ``_defaults`` mapping,
and stores each value as given.  A record that validates its arguments
defines its own ``__init__`` and passes the checked values to
``Record.__init__``, since assigning a field is refused once the record
exists.  ``Record`` derives equality, hashing and ``repr`` from the slots,
so no code is generated per class at import.
"""

from operator import attrgetter


def _listed(names) -> str:
    return ", ".join(map(repr, sorted(names)))


class Record:
    """Immutable value with ``Name(field=value, ...)`` as its ``repr``.

    Two records are equal when they are of the same class and their fields
    are equal; equal records hash alike.
    """

    __slots__ = ()
    # Field name -> default value, for the fields that may be left out.
    _defaults = {}

    def __init_subclass__(cls):
        # A record without fields compares by its class alone.
        cls._values = attrgetter(*cls.__slots__ or ("__class__",))
        # Each slot's own setter: it fills the slot past the refusing
        # __setattr__, without object.__setattr__'s lookup of the name.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._arguments(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    @classmethod
    def _arguments(cls, args: tuple, kwargs: dict) -> list:
        """The value of every field, in slot order, from a call that names
        fields or leaves some out; ``TypeError`` when the call does not fit."""
        names, name = cls.__slots__, cls.__name__
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} arguments but {len(args)} were given")
        twice = kwargs.keys() & names[: len(args)]
        if twice:
            raise TypeError(f"{name}() got multiple values for {_listed(twice)}")
        unknown = kwargs.keys() - names
        if unknown:
            raise TypeError(f"{name}() got unexpected keyword arguments {_listed(unknown)}")
        values = {**cls._defaults, **dict(zip(names, args)), **kwargs}
        # Every key is a field name now, so a shorter map lacks a field.
        if len(values) < len(names):
            missing = [key for key in names if key not in values]
            raise TypeError(f"{name}() missing required arguments {_listed(missing)}")
        return [values[key] for key in names]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Copies and pickles are rebuilt through __init__, since a slot refuses assignment.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")
