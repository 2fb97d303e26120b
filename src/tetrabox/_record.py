"""Record: the frozen value base of tetrabox's data classes.

A subclass names its fields, in order, in a `_fields` tuple in its class
body; a class attribute of the same name is that field's default. The
field list is read from that tuple and never from the annotations, whose
storage differs between Python versions. A record is built positionally or
by keyword, then its `__post_init__` runs; a class built in hot loops
(Matrix, Subspace) writes its own `__init__` instead. A record's fields are
never reassigned: assignment and deletion raise AttributeError. `==` and
`hash` compare the field tuple, and `repr` reads `Name(f=v, ...)`.

The base builds no code at class creation, so importing the package loads
neither dataclasses nor inspect. An attribute that is not a field (a memo
a class keeps) goes straight into the instance __dict__; ==, hash and repr
never see it.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        fields = cls._fields
        get = attrgetter(*fields)
        # the key is the field tuple, which a dataclass compares and hashes
        cls._key = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # one object.__setattr__ per field, not self.__dict__.update: touching
        # __dict__ moves the instance's attributes into a dict, and every
        # later field read is slower for it
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values in order, from a call that is not one positional value per field."""
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments but {len(args)} were given")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument: '{field}'")
        for key in kwargs:
            problem = "multiple values for argument" if key in fields else "an unexpected keyword argument"
            raise TypeError(f"{name}() got {problem} '{key}'")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"
