"""Epistemic random fuzzy sets.

Gaussian fuzzy numbers and vectors, Gaussian random fuzzy numbers and
vectors, generalized product-intersection combination with degrees of
conflict, likelihood-based evidence, and a Monte-Carlo random-set oracle
validating every closed form.

The scalar layer (``fuzzy``, ``grfn``) imports without numpy.  ``grfv``,
``inference``, ``randomset`` and the names they define are imported on
first access (PEP 562), so they load numpy only for code that uses them.
"""

import importlib

from . import fuzzy, grfn
from .errors import (
    ContradictoryEvidence,
    DomainError,
    ErfsError,
    NotPositiveDefinite,
    PracticalRejection,
    SingularBlock,
)
from .fuzzy import ProductResult
from .grfn import GFN, GRFN, GrfnFusion, GrfnKind
from .interval import Interval, WHOLE_LINE

# lazy name -> the submodule that defines it (``None`` for the submodule itself)
_LAZY = {
    "grfv": None,
    "inference": None,
    "randomset": None,
    "GFV": "grfv",
    "GRFV": "grfv",
    "GrfvFusion": "grfv",
    "MCConfig": "randomset",
    "MCEstimate": "randomset",
}

__version__ = "0.1.0"

__all__ = [
    "GFN",
    "GFV",
    "GRFN",
    "GRFV",
    "GrfnFusion",
    "GrfnKind",
    "GrfvFusion",
    "Interval",
    "MCConfig",
    "MCEstimate",
    "ProductResult",
    "WHOLE_LINE",
    "ErfsError",
    "DomainError",
    "ContradictoryEvidence",
    "NotPositiveDefinite",
    "SingularBlock",
    "PracticalRejection",
    "fuzzy",
    "grfn",
    "grfv",
    "inference",
    "randomset",
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _LAZY[name]
    value = importlib.import_module(f".{module or name}", __name__)
    if module is not None:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
