"""Possibilistic queries on Gaussian fuzzy numbers and vectors.

A Gaussian fuzzy number ``GFN(m, h)`` is the normal fuzzy subset of the
real line with membership ``exp(-h/2 (x - m)^2)``; ``m`` is the mode and
``h`` in ``[0, +inf]`` the precision.  It is the Gaussian random fuzzy
number whose mode does not vary, ``GRFN(m, 0, h)``, and lives in
:mod:`erfs.grfn`.  The vector analogue ``GFV(m, H)`` is
``GRFV(m, 0, H)`` and lives in :mod:`erfs.grfv`; ``erfs.fuzzy.GFV`` still
resolves to it.

The family is closed under the normalized product intersection: the
product of two Gaussian memberships is a Gaussian membership rescaled by
its height.  :func:`product` is the combination of the two ``sigma2 = 0``
(``Sigma = 0``) numbers without its conflict cutoff, the ``_fuse`` of
:mod:`erfs.grfn` or :mod:`erfs.grfv`, and reports the height ``1 - kappa``:
the module's one Gaussian height, also its contour's, formed in log-space,
so widely separated modes give tiny-but-exact heights.

A model answers a query through its own method of that name, the
protocol the CLI dispatches by, and a GFN answers every query through
GRFN's: its belief and plausibility are its necessity and possibility,
:meth:`GRFN.bel_pl <erfs.grfn.GRFN.bel_pl>` at ``sigma2 = 0``, rays
included, and :func:`possibility_necessity` is the ``(possibility,
necessity)`` view of it.  GFN queries run on ``math`` alone;
:mod:`erfs.grfv` is imported only when a ``GFV`` is asked for.
"""

from __future__ import annotations

import math

from . import grfn
from ._value import Value
from .errors import DomainError
from .grfn import GFN
from .interval import Interval

__all__ = [
    "GFN",
    "GFV",
    "ProductResult",
    "product",
    "linear_combination",
    "possibility_necessity",
]


class ProductResult(Value):
    """Normalized product intersection plus the height of the raw product."""

    __slots__ = ("product", "height")

    def __init__(self, product: "GFN | GFV", height: float):
        object.__setattr__(self, "product", product)
        object.__setattr__(self, "height", height)


def product(g1, g2) -> ProductResult:
    """Normalized product intersection of two GFNs or two GFVs."""
    if isinstance(g1, GFN) and isinstance(g2, GFN):
        fuse, kind = grfn._fuse, GFN
    else:
        from . import grfv

        if not (isinstance(g1, grfv.GFV) and isinstance(g2, grfv.GFV)):
            raise DomainError("product requires two GFNs or two GFVs")
        fuse, kind = grfv._fuse, grfv.GFV
    (mode, _, precision), height, *_ = fuse(g1, g2, math.exp)
    return ProductResult(kind(mode, precision), height)


def linear_combination(terms) -> GFN:
    """Extension-principle linear combination of GFNs with nonzero weights:
    :func:`erfs.grfn.linear_combination` of the ``sigma2 = 0`` numbers.

    ``sum_i lam_i GFN(m_i, h_i)`` has mode ``sum lam_i m_i`` and precision
    ``(sum |lam_i| h_i^{-1/2})^{-2}``; every precision must lie in
    ``(0, +inf)`` for the closed form to apply.
    """
    g = grfn.linear_combination(terms)
    return GFN(g.mu, g.h)


def possibility_necessity(g: GFN, b: Interval) -> tuple[float, float]:
    """Degrees of possibility and necessity of ``theta in b``: ``g.bel_pl(b)`` reversed."""
    necessity, possibility = g.bel_pl(b)
    return possibility, necessity


def __getattr__(name: str):
    # PEP 562: ``GFV`` is defined in erfs.grfv, imported on first use
    if name != "GFV":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .grfv import GFV

    return GFV
