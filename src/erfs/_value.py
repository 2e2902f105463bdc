"""The immutable base of the value types, and the document protocol of the models.

Every model type (``GRFN``, ``GFN``, ``TriangularGaussian``, ``GRFV``, ``GFV``)
is a :class:`Model`, and every other record a :class:`Value`: the results
(``Interval``, ``GrfnFusion``, ``GrfvFusion``, ``ProductResult``), the
Monte-Carlo records (``MCEstimate``, ``SoftConditioningSample``) and the
inference records (``Sample``, ``LogLikelihood``).  As frozen dataclasses they
would cost the scalar CLI ``import dataclasses`` (with ``inspect`` and ``ast``,
about 10 ms), more than a scalar answer takes.  ``randomset.MCConfig`` stays a
frozen dataclass, for the benchmark's ``dataclasses.replace`` of it.
"""

import math

from .errors import DomainError


class Value:
    """What ``@dataclass(frozen=True)`` gave: equality within one class, a hash
    and ``repr`` of the fields, ``AttributeError`` on assignment, and copies and
    pickles rebuilt through the constructor.  A subclass's ``__init__`` checks
    its arguments and sets each slot with ``object.__setattr__``.  An array
    field compares by its shape and entries and makes the value unhashable."""

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
        # an array as (shape, nested lists): numpy's == compares elementwise
        return tuple((v.shape, v.tolist()) if hasattr(v, "shape") else v
                     for v in map(self.__getattribute__, self._SLOTS))

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


class Model(Value):
    """A model type, read from and written to its evidence document, a JSON object
    of its ``_FIELDS``.  A field is read by ``_read``, which checks its JSON form;
    the constructor checks the domain."""

    __slots__ = ()

    def to_dict(self) -> dict:
        """The fields: arrays as nested lists, an infinite value as ``"inf"``."""
        values = ((f, getattr(self, f)) for f in self._FIELDS)
        return {f: v.tolist() if hasattr(v, "tolist") else "inf" if math.isinf(v) else v
                for f, v in values}

    @classmethod
    def from_dict(cls, d: dict):
        for field in cls._FIELDS:
            if field not in d:
                raise DomainError(f"missing field '{field}'")
        return cls(*(cls._read(field, d[field]) for field in cls._FIELDS))

    @staticmethod
    def _read(field: str, v) -> float:
        """A scalar field: a finite JSON number or ``"inf"``, the one infinite
        spelling (JSON's ``1e400``, ``Infinity`` and ``NaN`` are refused)."""
        if v == "inf":
            return math.inf
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise DomainError(f"field '{field}' must be a number")
        try:
            v = float(v)
        except OverflowError:  # a JSON integer beyond the float range
            raise DomainError(f"field '{field}' is too large for a float") from None
        if not math.isfinite(v):
            raise DomainError(f"field '{field}' must be a finite number or \"inf\", got {v}")
        return v
