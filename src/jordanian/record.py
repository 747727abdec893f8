"""Immutable objects and value records, without dataclasses (see report)."""


class Frozen:
    """Setting or deleting an attribute raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__


class Record:
    """Its fields are the parameters of its __init__, in order, which sets
    each once: == and hash compare them within one class, repr shows them
    as a dataclass does, and pickle and copy rebuild the record from them."""

    __slots__ = ()

    def _items(self) -> list[tuple[str, object]]:
        code = type(self).__init__.__code__
        return [(f, getattr(self, f)) for f in code.co_varnames[1:code.co_argcount]]

    def __eq__(self, other):
        return (self._items() == other._items() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self) -> int:
        return hash(tuple(self._items()))

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{f}={v!r}" for f, v in self._items()))

    def __reduce__(self):
        return type(self), tuple(v for _, v in self._items())
