"""The immutable base of the scalar value types: ``GRFN`` and ``GFN``,
``TriangularGaussian``, ``Interval``, ``GrfnFusion`` and ``ProductResult``.

``import erfs`` and every scalar CLI call load them.  As frozen dataclasses
they cost ``import dataclasses`` (with ``inspect``, ``ast``, ``dis`` and
``tokenize``, about 10 ms under ``python -X importtime``) plus about 1 ms a
class, more than a scalar answer takes.  ``grfv``, ``inference`` and
``randomset`` keep ``@dataclass``: each imports numpy, which costs more than
``dataclasses`` does, and callers use ``dataclasses.replace`` on
``randomset.MCConfig``.
"""


class Value:
    """What ``@dataclass(frozen=True)`` gave: equality within one class, a hash
    and ``repr`` of the fields, ``AttributeError`` on assignment, and copies and
    pickles rebuilt through the constructor.  A subclass's ``__init__`` checks
    its arguments and sets each slot with ``object.__setattr__``."""

    __slots__ = ()
    # every slot down the class chain; the constructor's arguments, each an
    # attribute (the slots unless a class names them)
    _SLOTS = _FIELDS = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._SLOTS += cls.__dict__.get("__slots__", ())
        cls._FIELDS = cls._FIELDS or cls._SLOTS
        cls.__match_args__ = cls._SLOTS

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._SLOTS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._SLOTS)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._FIELDS)
