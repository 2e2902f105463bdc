"""Gaussian fuzzy numbers and vectors: the deterministic possibilistic layer.

A Gaussian fuzzy number ``GFN(m, h)`` is the normal fuzzy subset of the
real line with membership ``exp(-h/2 (x - m)^2)``; ``m`` is the mode and
``h`` in ``[0, +inf]`` the precision.  ``h = 0`` is the maximally imprecise
whole line, ``h = +inf`` the crisp point ``{m}``.  The vector analogue
``GFV(m, H)`` is the Gaussian random fuzzy vector whose mode does not
vary, ``GRFV(m, 0, H)``, and lives in :mod:`erfs.grfv`; ``erfs.fuzzy.GFV``
still resolves to it, and :func:`product` sends a pair of GFVs to
:func:`erfs.grfv.gfv_product`.

The family is closed under the normalized product intersection: the
product of two Gaussian memberships is a Gaussian membership rescaled by
its height, and the height has a closed form.  Heights are computed in
log-space and exponentiated only at the boundary, so widely separated
modes give tiny-but-exact heights instead of underflowing intermediates.

``GFN`` runs on ``math`` alone; :mod:`erfs.grfv` is imported only when a
``GFV`` is asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._normal import as_output, as_points, constant, exp, indicator
from .errors import ContradictoryEvidence, DomainError
from .interval import Interval

__all__ = [
    "GFN",
    "GFV",
    "ProductResult",
    "product",
    "linear_combination",
    "possibility_necessity",
    "effective_pair_precision",
    "pair_log_height",
]


@dataclass(frozen=True)
class GFN:
    """Gaussian fuzzy number with mode ``mode`` and precision ``precision``."""

    mode: float
    precision: float

    def __post_init__(self):
        mode, h = float(self.mode), float(self.precision)
        if not math.isfinite(mode):
            raise DomainError("GFN mode must be finite")
        if math.isnan(h) or h < 0.0:
            raise DomainError(f"GFN precision must be in [0, +inf], got {h}")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "precision", h)

    @property
    def is_vacuous(self) -> bool:
        return self.precision == 0.0

    @property
    def is_crisp(self) -> bool:
        return math.isinf(self.precision)

    def membership(self, x):
        """Degree of membership of ``x``; scalar in, scalar out."""
        x = as_points(x)
        if self.precision == 0.0:
            out = constant(x, 1.0)
        elif math.isinf(self.precision):
            out = indicator(x, self.mode)
        else:
            d = x - self.mode
            out = exp(-0.5 * self.precision * d * d)
        return as_output(out)

    contour = membership  # the contour function of a fuzzy set is its membership

    def alpha_cut(self, alpha: float) -> Interval:
        """The closed set of points with membership at least ``alpha``.

        Defined for ``precision > 0`` and ``alpha`` in ``(0, 1]``; the cut of
        a zero-precision number is the whole line, which callers must branch
        on themselves (it has no finite representation worth returning here).
        """
        if not 0.0 < alpha <= 1.0:
            raise DomainError(f"alpha must be in (0, 1], got {alpha}")
        if self.precision == 0.0:
            raise DomainError("alpha-cut of a zero-precision GFN is the whole line")
        if math.isinf(self.precision) or alpha == 1.0:
            return Interval(self.mode, self.mode)
        r = math.sqrt(-2.0 * math.log(alpha) / self.precision)
        return Interval(self.mode - r, self.mode + r)

    def to_dict(self) -> dict:
        h = self.precision
        return {"mode": self.mode, "precision": "inf" if math.isinf(h) else h}

    @classmethod
    def from_dict(cls, d: dict) -> "GFN":
        mode = _require_number(d, "mode")
        h = _require_extended(d, "precision")
        return cls(mode, h)


@dataclass(frozen=True)
class ProductResult:
    """Normalized product intersection plus the height of the raw product."""

    product: "GFN | GFV"
    height: float


def effective_pair_precision(h1: float, h2: float) -> float:
    """``h1 h2 / (h1 + h2)`` extended to the degenerate precisions.

    A zero precision absorbs everything (result 0); an infinite precision
    is neutral (result is the other operand); two infinite precisions give
    +inf.  This is the precision governing the height of a product of two
    Gaussian memberships.
    """
    if h1 == 0.0 or h2 == 0.0:
        return 0.0
    if math.isinf(h1):
        return h2
    if math.isinf(h2):
        return h1
    return h1 * h2 / (h1 + h2)


def pair_log_height(m1: float, h1: float, m2: float, h2: float) -> float:
    """log height of the (unnormalized) product of two Gaussian memberships."""
    hbar = effective_pair_precision(h1, h2)
    d = m1 - m2
    if math.isinf(hbar):
        return 0.0 if d == 0.0 else -math.inf
    return -0.5 * hbar * d * d


def product(g1, g2) -> ProductResult:
    """Normalized product intersection of two GFNs or two GFVs."""
    if isinstance(g1, GFN) and isinstance(g2, GFN):
        return _gfn_product(g1, g2)
    from .grfv import GFV, gfv_product

    if isinstance(g1, GFV) and isinstance(g2, GFV):
        return gfv_product(g1, g2)
    raise DomainError("product requires two GFNs or two GFVs")


def _gfn_product(g1: GFN, g2: GFN) -> ProductResult:
    m1, h1 = g1.mode, g1.precision
    m2, h2 = g2.mode, g2.precision
    if math.isinf(h1) and math.isinf(h2):
        if m1 != m2:
            raise ContradictoryEvidence(
                "two crisp points with distinct modes have empty intersection"
            )
        return ProductResult(GFN(m1, math.inf), 1.0)
    if h1 == 0.0 and h2 == 0.0:
        # all zero-precision numbers are the same fuzzy set; use mode 0
        return ProductResult(GFN(0.0, 0.0), 1.0)
    if h1 == 0.0:
        return ProductResult(g2, 1.0)
    if h2 == 0.0:
        return ProductResult(g1, 1.0)
    height = math.exp(pair_log_height(m1, h1, m2, h2))
    if math.isinf(h1):
        return ProductResult(GFN(m1, math.inf), height)
    if math.isinf(h2):
        return ProductResult(GFN(m2, math.inf), height)
    h12 = h1 + h2
    m12 = (h1 * m1 + h2 * m2) / h12
    return ProductResult(GFN(m12, h12), height)


def linear_combination(terms) -> GFN:
    """Extension-principle linear combination of GFNs with positive weights.

    ``sum_i lam_i GFN(m_i, h_i)`` has mode ``sum lam_i m_i`` and precision
    ``(sum |lam_i| h_i^{-1/2})^{-2}``; every precision must lie in
    ``(0, +inf)`` for the closed form to apply.
    """
    terms = list(terms)
    if not terms:
        raise DomainError("linear_combination requires a nonempty list of terms")
    mode = 0.0
    spread = 0.0
    for lam, g in terms:
        lam = float(lam)
        if lam == 0.0:
            raise DomainError("coefficients must be nonzero")
        if not 0.0 < g.precision < math.inf:
            raise DomainError(
                f"term precision must be in (0, +inf), got {g.precision}"
            )
        mode += lam * g.mode
        spread += abs(lam) / math.sqrt(g.precision)
    return GFN(mode, spread ** -2)


def possibility_necessity(g: GFN, b: Interval) -> tuple[float, float]:
    """Degrees of possibility and necessity of ``theta in b`` under ``g``."""

    def poss(s: Interval) -> float:
        if g.is_crisp:
            return float(s.contains(g.mode))
        if s.contains(g.mode):
            return 1.0
        best = 0.0
        for endpoint in (s.lo, s.hi):
            if math.isfinite(endpoint):
                best = max(best, float(g.membership(endpoint)))
        return best

    pi = poss(b)
    rays = b.complement_rays()
    if g.is_crisp:
        # sup over the open complement of a point indicator: excludes b's boundary
        outside = float(not b.contains(g.mode))
        return pi, 1.0 - outside
    n = 1.0 - max((poss(r) for r in rays), default=0.0)
    return pi, n


def _require_number(d: dict, field: str) -> float:
    if field not in d:
        raise DomainError(f"missing field '{field}'")
    v = d[field]
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise DomainError(f"field '{field}' must be a number")
    return float(v)


def _require_extended(d: dict, field: str) -> float:
    if field not in d:
        raise DomainError(f"missing field '{field}'")
    v = d[field]
    if v == "inf":
        return math.inf
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise DomainError(f"field '{field}' must be a number or \"inf\"")
    return float(v)


def __getattr__(name: str):
    # PEP 562: ``GFV`` is defined in erfs.grfv, imported on first use
    if name != "GFV":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .grfv import GFV

    return GFV
