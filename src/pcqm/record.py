"""Value records: plain classes whose fields are their ``__slots__``.

A record lists its fields in ``__slots__``, in constructor order, and fills
them in its own ``__init__`` with ``init_field``, since assigning a field is
refused once the record exists.  ``Record`` derives equality, hashing and
``repr`` from the slots, so no code is generated per class at import.
"""

from operator import attrgetter

# Fills a slot of a new record from its own __init__, past the refusing __setattr__.
init_field = object.__setattr__


class Record:
    """Immutable value with ``Name(field=value, ...)`` as its ``repr``.

    Two records are equal when they are of the same class and their fields
    are equal; equal records hash alike.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # A record without fields compares by its class alone.
        cls._values = attrgetter(*cls.__slots__ or ("__class__",))

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
