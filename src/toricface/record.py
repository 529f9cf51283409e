"""Frozen records, the package's value classes.  A record's __init__ sets
the fields its class annotates, in order, then calls __post_init__ if the
class has one.  Records compare, hash and show by the fields not named with
a leading "_"; a class keeps any __eq__, __hash__ or __repr__ it defines."""

from operator import attrgetter


class FrozenRecordError(AttributeError):
    """An attribute of a record was assigned or deleted."""


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._values(self) == other._values(other)
    return NotImplemented


def _hash(self):
    return hash(self._values(self))


def _repr(self):
    shown = ", ".join(map("{}={!r}".format, self._shown, self._values(self)))
    return f"{self.__class__.__qualname__}({shown})"


def _frozen(self, name, *value):
    raise FrozenRecordError(f"cannot assign to or delete field {name!r}")


def record(cls):
    """Make cls a frozen record of its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    params = [f"{n}=_cls.{n}" if n in cls.__dict__ else n for n in names]
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    scope = {"_cls": cls, "_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body),
         scope)
    cls.__init__ = scope["__init__"]
    cls._shown = tuple(n for n in names if not n.startswith("_"))
    get = attrgetter(*cls._shown)
    # of one field attrgetter gives the value, and the hash wants (value,)
    cls._values = staticmethod(get if len(cls._shown) > 1
                               else lambda self: (get(self),))
    for name, method in (("__eq__", _eq), ("__hash__", _hash),
                         ("__repr__", _repr)):
        if cls.__dict__.get(name) is None:
            setattr(cls, name, method)
    cls.__setattr__ = cls.__delattr__ = _frozen
    return cls
