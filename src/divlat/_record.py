"""Frozen records: the one record mechanism of divlat.

A subclass of Record lists its fields as its own annotations, in order; a
class attribute of a field's name is that field's default.  Each class gets
three methods compiled from one source: ``__init__``, one
``object.__setattr__`` line per field and then ``self.__post_init__()``
where the class has one; ``__eq__``, the exact class and then the field
tuple; and ``__hash__``, the hash of the field tuple.  The repr
``Name(field=value, ...)`` and the refusal to assign or delete are written
once, here.  All of them behave as those of ``dataclass(frozen=True)``,
hash values included.  ``_fields`` names the fields, as a NamedTuple's
does, and ``_repr_fields`` the fields the repr shows: all of them unless
the class sets it.
"""


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        fields = tuple(own.get("__annotations__", ()))
        defaults = tuple(own[name] for name in fields if name in own)
        if any(name in own for name in fields[: len(fields) - len(defaults)]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        mine = "".join(f"self.{name}, " for name in fields)
        theirs = "".join(f"other.{name}, " for name in fields)
        source = [f"def __init__({', '.join(('self',) + fields)}):",
                  *(f"    _set(self, {name!r}, {name})" for name in fields),
                  "    self.__post_init__()" if hasattr(cls, "__post_init__") else "    pass",
                  "def __eq__(self, other):",
                  "    if other.__class__ is self.__class__:",
                  f"        return ({mine}) == ({theirs})",
                  "    return NotImplemented",
                  "def __hash__(self):",
                  f"    return hash(({mine}))"]
        namespace = {}
        exec("\n".join(source), {"_set": object.__setattr__}, namespace)
        for name, method in namespace.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        cls.__init__.__defaults__ = defaults or None
        cls._fields = fields
        if "_repr_fields" not in own:
            cls._repr_fields = fields

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._repr_fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
