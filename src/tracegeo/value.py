"""The base of tracegeo's small immutable records.

A subclass lists its fields in `_fields`, in constructor order, and its
own __init__ stores each one with set_field, then checks them.  Value
supplies equality, hash, repr and immutability from that list.  It
imports no inspect and builds no method with exec, so defining a record
class costs a cold CLI process next to nothing.
"""

from operator import attrgetter

# Stores a field past the frozen __setattr__.  Unlike writing the instance
# __dict__, it keeps CPython's compact attribute layout, which matters for
# the tens of thousands of subsets and Levis one enumeration builds.
set_field = object.__setattr__


class Value:
    """Equal only to an instance of the same class with equal compared
    fields, hashed as the tuple of those fields, shown as
    Name(field=value, ...), and closed to assignment.  Fields named in
    `_uncompared` show in the repr only.  Instances keep a __dict__, so
    functools.cached_property works on them."""

    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = [f for f in cls._fields if f not in cls._uncompared]
        get = attrgetter(*names)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._eq_key = get if len(names) > 1 else \
            staticmethod(lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._eq_key(self) == self._eq_key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._eq_key(self))

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
