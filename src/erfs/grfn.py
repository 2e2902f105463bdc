"""Gaussian random fuzzy numbers.

A Gaussian random fuzzy number ``GRFN(mu, sigma2, h)`` is a Gaussian fuzzy
number with fixed precision ``h`` whose mode is itself Gaussian with mean
``mu`` and variance ``sigma2``.  The three parameters separate location,
probabilistic uncertainty and possibilistic imprecision:

* ``h = 0``       -- vacuous (total ignorance); canonical form ``(0, 1, 0)``
* ``h = +inf``    -- an ordinary Gaussian random variable ``N(mu, sigma2)``
* ``sigma2 = 0``  -- a Gaussian fuzzy number ``GFN(mu, h)``

``GFN(mode, precision)`` is that possibilistic number, ``GRFN(mode, 0,
precision)``: its membership ``exp(-h/2 (x - m)^2)`` is the contour, and
:func:`erfs.fuzzy.product` of two GFNs is :func:`combine` at ``sigma2 = 0``
without the conflict cutoff (both run :func:`_fuse`).

All queries (contour, interval belief/plausibility, cdf and expectation
bounds) have closed forms in the standard normal cdf, and two numbers
combine by the generalized product-intersection rule into another GRFN
with an explicit degree of conflict.

``TriangularGaussian``, a triangular fuzzy number with a Gaussian random
mode, answers the same queries in closed form.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._normal import (Phi, as_output, at_least, constant, elementwise, exp, log_indicator, maximum,
                      minimum, phi, phi_over, where_nan)
from ._value import Model, Value
from .errors import ContradictoryEvidence, DomainError
from .interval import Interval

__all__ = ["GFN", "GRFN", "GrfnFusion", "LemmaIntermediates", "TriangularGaussian",
           "combine", "combine_many", "effective_pair_precision", "linear_combination", "vacuous"]

# 1 - kappa below this threshold counts as total conflict
_CONFLICT_EPS = 1e-15


class GRFN(Model):
    __slots__ = ("mu", "sigma2", "h")

    # the names of mu and h in error messages
    _NAMES = ("mu", "h")

    def __init__(self, mu: float, sigma2: float, h: float):
        mu_name, h_name = self._NAMES
        mu, s2, h = float(mu), float(sigma2), float(h)
        if not math.isfinite(mu):
            raise DomainError(f"{mu_name} must be finite")
        if not math.isfinite(s2) or s2 < 0.0:
            raise DomainError(f"sigma2 must be a finite nonnegative real, got {s2}")
        if math.isnan(h) or h < 0.0:
            raise DomainError(f"{h_name} must be in [0, +inf], got {h}")
        if h == 0.0:
            # every vacuous GRFN is the same object; fix the canonical form
            mu, s2 = 0.0, 1.0
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", s2)
        object.__setattr__(self, "h", h)

    @property
    def is_vacuous(self) -> bool:
        return self.h == 0.0

    @elementwise
    def contour(self, x):
        """Pointwise plausibility ``pl(x)``: the height against the point ``x``.

        ``(1 + h sigma2)^{-1/2} exp(-h (x - mu)^2 / (2 (1 + h sigma2)))``;
        identically 1 for a vacuous number and identically 0 for a random
        variable (except the degenerate point mass, whose contour is the
        indicator of its atom).
        """
        v = _log_height(self.h, self.sigma2, x - self.mu)
        return math.exp(v) if isinstance(x, float) else as_output(exp(v))

    def bel_pl(self, b: Interval) -> tuple[float, float]:
        """Degrees of belief and plausibility of an interval: bounded, a ray or the line.

        The whole line has both 1; a vacuous number has (0, 1) on any other set of reals
        (``[inf, inf]`` holds none).  A number whose mode does not vary (``sigma2 = 0``: a
        GFN, the point mass) answers its necessity and possibility.  A ray ``(-inf, y]``
        has the cdf bounds at ``y``, and ``[x, inf)`` those of the mirror image
        ``GRFN(-mu, sigma2, h)`` at ``-x``.  On a bounded ``[x, y]``, conditioning the
        Gaussian mode on which side of the endpoints it falls averages the endpoint
        membership to the contour value times a Gaussian cdf whose mean is shrunk toward
        the anchoring endpoint,

            m0(t) = (t h sigma2 + mu) / (h sigma2 + 1),
            s0    = sigma / sqrt(1 + h sigma2),

        and the plausibility is the upper cdf at ``y`` less the lower cdf at ``x``.
        """
        x, y = b.lo, b.hi
        if self.h == 0.0:
            # total ignorance: only the whole line is believed, any set of reals is plausible
            return float(x == -math.inf and y == math.inf), float(x < math.inf and y > -math.inf)
        m = self.mu
        if self.sigma2 == 0.0:
            if math.isinf(self.h):
                # sup over the open complement of a point indicator excludes b's boundary
                return (float(x <= m <= y),) * 2
            # the membership falls away from the mode: its sup over a set that misses the
            # mode is its value at the nearer end, 0 at infinity
            if x <= m <= y:
                # the complement's rays (-inf, x] and [y, inf) hold the mode at most at an end
                return 1.0 - max(self.contour(x), self.contour(y)), 1.0
            # the ray of the complement on the mode's side holds it: necessity 0
            return 0.0, self.contour(x if m < x else y)
        if x == -math.inf:
            return self.cdf_bounds(y)
        if y == math.inf:
            return GRFN(-m, self.sigma2, self.h).cdf_bounds(-x)
        sigma = math.sqrt(self.sigma2)
        dx, dy = x - m, y - m
        band = phi_over(dy, sigma) - phi_over(dx, sigma)
        hs = self.h * self.sigma2
        s1 = sigma * math.sqrt(hs + 1.0)
        if math.isinf(s1):
            # h sigma2 is inf (h = inf among them): the contour terms are 0, as in cdf_bounds
            return band, band
        plx, ply = self.contour(x), self.contour(y)
        # t - m0(t) = (t - mu) q, q = 1 / (1 + h sigma2), so Phi((t - m0(t)) / s0) is the cdf
        # bounds' Phi((t - mu) / s1); each offset comes from t - mu, lest a large mu round it
        fx, fy = phi_over(dx, s1), phi_over(dy, s1)
        q = 1.0 / (1.0 + hs)
        s0 = sigma * math.sqrt(q)
        r = 0.5 * y - 0.5 * x
        bel = band - plx * (phi_over(dx * q + r, s0) - fx) - ply * (fy - phi_over(dy * q - r, s0))
        pl = band + plx * fx + ply * (1.0 - fy)
        pl = min(max(pl, 0.0), 1.0)
        bel = min(max(bel, 0.0), pl)
        return bel, pl

    @elementwise
    def cdf_bounds(self, y):
        """Lower and upper cdf at ``y`` (elementwise): Bel and Pl of ``(-inf, y]``."""
        if self.h == 0.0:
            # as bel_pl: the ray to +inf is the whole line, the ray to -inf holds no real point
            lower, upper = at_least(y, math.inf), 1.0 - at_least(-y, math.inf)
        elif math.isinf(self.h) and self.sigma2 == 0.0:
            # the point mass: its cdf is right-continuous, 1 at the atom
            lower = upper = at_least(y, self.mu)
        else:
            sigma = math.sqrt(self.sigma2)
            f0 = phi_over(y - self.mu, sigma)
            s1 = sigma * math.sqrt(self.h * self.sigma2 + 1.0)
            if math.isinf(s1):
                # h sigma2 is inf (h = inf too), so the contour term is 0 (and y - mu may be)
                lower = upper = f0
            else:
                ply = self.contour(y)
                f1 = phi_over(y - self.mu, s1)
                lower = maximum(f0 - ply * f1, 0.0)
                upper = minimum(f0 + ply * (1.0 - f1), 1.0)
        return as_output(lower), as_output(upper)

    def expectation_bounds(self) -> tuple[float, float]:
        """Lower and upper expectations ``mu -+ sqrt(pi / (2h))``; needs ``h > 0``."""
        if self.h == 0.0:
            raise DomainError("expectations of a vacuous number are unbounded")
        if math.isinf(self.h):
            return self.mu, self.mu
        q = math.pi / (2.0 * self.h)  # inf at a subnormal h, 0 above h = 2^1023
        r = math.sqrt(q) if 0.0 < q < math.inf else math.sqrt(0.5 * math.pi) / math.sqrt(self.h)
        return self.mu - r, self.mu + r


class GFN(GRFN):
    """Gaussian fuzzy number: ``GRFN(mode, 0, precision)``, whose mode does
    not vary; ``mode`` and ``precision`` are ``mu`` and ``h``.

    The membership ``exp(-h/2 (x - m)^2)`` is the contour.  ``h = 0`` is
    the maximally imprecise whole line (GRFN's canonical vacuous form, mode
    0), ``h = +inf`` the crisp point ``{m}``.  Every query is GRFN's method:
    ``bel_pl`` gives the necessity and possibility, rays included.
    """

    __slots__ = ()
    _FIELDS = ("mode", "precision")
    _NAMES = ("GFN mode", "GFN precision")

    def __init__(self, mode: float, precision: float):
        super().__init__(mode, 0.0, precision)

    mode = property(lambda self: self.mu)
    precision = property(lambda self: self.h)
    membership = GRFN.contour

    def alpha_cut(self, alpha: float) -> Interval:
        """The closed set of points with membership at least ``alpha``.

        Defined for ``precision > 0`` and ``alpha`` in ``(0, 1]``; the cut of
        a zero-precision number is the whole line, which callers must branch
        on themselves (it has no finite representation worth returning here).
        """
        if not 0.0 < alpha <= 1.0:
            raise DomainError(f"alpha must be in (0, 1], got {alpha}")
        if self.h == 0.0:
            raise DomainError("alpha-cut of a zero-precision GFN is the whole line")
        if math.isinf(self.h) or alpha == 1.0:
            return Interval(self.mu, self.mu)
        r = math.sqrt(-2.0 * math.log(alpha) / self.h)
        return Interval(self.mu - r, self.mu + r)


class TriangularGaussian(Model):
    """Triangular fuzzy number of half-width ``a`` whose mode is ``N(mu, sigma^2)``.

    Each realization is unimodal, so at ``z0 = (y - mu) / sigma`` (``y - mu`` first,
    lest a large ``mu`` round ``a`` away) the queries are sums of ``Phi(z0)`` and the
    two side masses of :func:`_side_masses`: contour ``= above + below``, lower cdf
    ``= Phi(z0) - below``, upper cdf ``= Phi(z0) + above``.  So ``upper - lower`` is
    the contour and ``lower <= Phi(z0) <= upper``.  The masses are a series in ``a /
    sigma`` below 0.1 and a closed form above; ``a = 0`` is the random variable
    ``N(mu, sigma^2)``.  Requires ``mu`` finite, ``0 < sigma < inf``, ``0 <= a < inf``.
    """

    __slots__ = ("mu", "sigma", "a")

    def __init__(self, mu: float, sigma: float, a: float):
        mu, sigma, a = float(mu), float(sigma), float(a)
        if not math.isfinite(mu):
            raise DomainError("mu must be finite")
        if not sigma > 0.0:
            raise DomainError("sigma must be positive")
        if not a >= 0.0:
            raise DomainError("a must be nonnegative")
        if math.isinf(sigma) or math.isinf(a):
            raise DomainError(f"sigma and a must be finite, got sigma={sigma}, a={a}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "a", a)

    @elementwise
    def contour(self, x):
        """Pointwise plausibility: the mean realized membership at ``x``."""
        above, below = _side_masses((x - self.mu) / self.sigma, self.a / self.sigma)
        return as_output(minimum(above + below, 1.0))

    @elementwise
    def cdf_bounds(self, y):
        """Lower and upper cdf at ``y`` (elementwise): Bel and Pl of ``(-inf, y]``."""
        z0 = (y - self.mu) / self.sigma
        above, below = _side_masses(z0, self.a / self.sigma)
        p0 = Phi(z0)
        return as_output(maximum(p0 - below, 0.0)), as_output(minimum(p0 + above, 1.0))

    def expectation_bounds(self) -> tuple[float, float]:
        """Lower and upper expectations ``mu -+ a/2``."""
        return self.mu - 0.5 * self.a, self.mu + 0.5 * self.a


def _side_masses(t, h: float):
    """``int_0^h (1 - s/h) phi(+-t + s) ds``, elementwise in ``t``: the mean memberships
    at a point ``t`` sigmas from the mode's mean of the modes above and below it, for
    ``h = a / sigma``.  Never negative; NaN, from an overflowing ``t`` or ``h``, is 0.

    For ``h < 0.1`` the mass above is ``h phi(t) sum_k (-h)^k He_k(t) / (k + 2)!`` (0 at
    ``h = 0``), the mass below the same with the odd terms negated, summed until two
    terms in a row (an odd ``He_k(0)`` is 0) no longer move the smaller.  Otherwise each
    is ``(t/h + 1) (Phi(t + h) - Phi(t)) + (phi(t + h) - phi(t)) / h``, the difference
    of ``Phi`` reflected into the left tail where ``t + h/2 > 0``.
    """
    if h < 0.1:
        u_prev, u = 0.0, 0.5 * h * phi(t)
        even, odd, k = u, 0.0, 0
        while True:  # two terms a step: u_{k+1} = -h (t u_k + k h u_{k-1} / (k + 2)) / (k + 3)
            u_prev, u = u, -h * (t * u + k * h / (k + 2) * u_prev) / (k + 3)
            odd = odd + u
            u_prev, u = u, -h * (t * u + (k + 1) * h / (k + 3) * u_prev) / (k + 4)
            even, k = even + u, k + 2
            moving = abs(u_prev) + abs(u) > 2.0 ** -53 * (even - abs(odd))  # False on NaN
            if not (moving if moving.__class__ is bool else moving.any()):
                break
        sides = even + odd, even - odd
    else:
        p = phi(t)
        sides = [(s / h + 1.0) * (Phi(minimum(-s, s + h)) - Phi(minimum(-s - h, s)))
                 + (phi(s + h) - p) / h for s in (t, -t)]
    return [maximum(where_nan(v, 0.0), 0.0) for v in sides]


def vacuous() -> GRFN:
    """The canonical vacuous number (total ignorance)."""
    return GRFN(0.0, 1.0, 0.0)


class LemmaIntermediates(namedtuple("LemmaIntermediates", "mu1 mu2 var1 var2 rho hbar")):
    """The mode pair soft-conditioned on agreement: the Kalman update that
    observes ``M1 - M2 = 0`` with noise variance ``1/hbar``.  For modes
    ``N(m_i, v_i)``, ``n = 1/hbar + v1 + v2``, gains ``k_i = v_i / n`` and
    shares ``q1 = (1/hbar + v2) / n``, ``q2 = (1/hbar + v1) / n``: ``mu1 =
    q1 m1 + k1 m2`` (and the mirror), ``var_i = v_i q_i`` and ``rho =
    sqrt(k1 / q2) sqrt(k2 / q1)``; ``1/hbar`` is 0 for two random variables.
    """

    __slots__ = ()


class GrfnFusion(Value):
    __slots__ = ("combined", "kappa", "intermediates")

    def __init__(self, combined: GRFN, kappa: float, intermediates: LemmaIntermediates):
        object.__setattr__(self, "combined", combined)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "intermediates", intermediates)


def _pair_law(g1: GRFN, g2: GRFN, hbar: float) -> LemmaIntermediates:
    """The Kalman update of :class:`LemmaIntermediates` for ``hbar > 0`` and
    a pair that is not two points.  Every parameter is an input times a
    share in [0, 1], so none overflows where the result is finite."""
    mu1, mu2, v1, v2 = g1.mu, g2.mu, g1.sigma2, g2.sigma2
    # the noise and the mode variances, times 2^-64 where 1/hbar overflows
    c = 2.0 ** -64 if hbar < 2.0 ** -960 else 1.0
    r, a1, a2 = c / hbar, c * v1, c * v2
    if r + a1 + a2 == math.inf:
        c, r, a1, a2 = 0.25 * c, 0.25 * r, 0.25 * a1, 0.25 * a2
    n = r + a1 + a2
    b1, b2 = r + a2, r + a1
    k1, k2, q1, q2 = a1 / n, a2 / n, b1 / n, b2 / n
    # k1 / q2 = a1 / b2, free of n
    rho = math.sqrt(a1 / b2) * math.sqrt(a2 / b1) if v1 > 0.0 and v2 > 0.0 else 0.0
    # v_i q_i = (b_i / c) k_i: the smaller factor times the larger share (>= 1/2, no underflow)
    var1, var2 = min(v1, b1 / c) * max(q1, k1), min(v2, b2 / c) * max(q2, k2)
    return LemmaIntermediates(q1 * mu1 + k1 * mu2, q2 * mu2 + k2 * mu1, var1, var2, rho, hbar)


def _share(a: float, b: float) -> float:
    """``a / (a + b)`` for positive ``a``, ``b``: 1 and 0 against an infinite
    precision, 1/2 for two; halved (exactly) if a finite ``a + b`` overflows."""
    t = a + b
    if t < math.inf:
        return a / t
    if math.isinf(a) or math.isinf(b):
        return 0.5 if a == b else float(a > b)
    return (0.5 * a) / (0.5 * a + 0.5 * b)


def effective_pair_precision(h1: float, h2: float) -> float:
    """``h1 h2 / (h1 + h2)`` extended to the degenerate precisions.

    A zero precision absorbs everything (result 0); an infinite precision
    is neutral (result is the other operand); two infinite precisions give
    +inf.  This is the precision governing the height of a product of two
    Gaussian memberships.  Finite ``h1``, ``h2`` give ``lo - lo w``, ``lo = min(h1, h2)``,
    ``w = lo / (h1 + h2) <= 1/2``: no overflow, and at least ``lo / 2`` (never 0).
    """
    if h1 == 0.0 or h2 == 0.0:
        return 0.0
    if math.isinf(h1):
        return h2
    if math.isinf(h2):
        return h1
    lo, hi = (h1, h2) if h1 <= h2 else (h2, h1)
    return lo - lo * _share(lo, hi)


def _log_height(h: float, s: float, d):
    """``log E[exp(-h D^2 / 2)]`` for ``D ~ N(d, s)`` (elementwise on an array
    ``d``): ``-1/2 log(1 + h s) - 1/2 hc d^2``, ``hc = h / (1 + h s)``.

    ``hc`` is ``h`` at ``s = 0`` (``1 / (1/h)`` may round), else the ratio
    form ``1 / (1/h + s)``, finite when ``h s`` overflows, or ``h / (1 + h s)``
    when ``1/h + s`` does; so ``hc > 0``, and an overflowed ``d`` gives
    ``-inf``, not ``0 * inf``.  ``h = 0`` gives 0; ``h = inf`` gives ``-inf``,
    but 0 at ``d = 0`` when ``s = 0``.
    """
    if h == 0.0:
        return constant(d, 0.0)
    if math.isinf(h):
        return log_indicator(d, 0.0) if s == 0.0 else constant(d, -math.inf)
    if s == 0.0:
        hc = h
    else:
        r = 1.0 / h + s
        hc = 1.0 / r if r < math.inf else h / (1.0 + h * s)
    hs = h * s
    # log(1 + h s) is log h + log s, to rounding, where h s overflows
    lead = math.log1p(hs) if hs < math.inf else math.log(h) + math.log(s)
    return -0.5 * lead - 0.5 * (hc * d * d)


def log_one_minus_kappa(g1: GRFN, g2: GRFN) -> float:
    """log of the expected height of the pairwise product of the two numbers.

    The double Gaussian integral of the pair height collapses to the single
    Gaussian height (:func:`_log_height`, the contour's) of ``hbar = h1 h2 /
    (h1 + h2)`` in the mode difference ``D ~ N(mu1 - mu2, sigma1^2 +
    sigma2^2)``.  Evaluating in log-space keeps distant modes exact.
    """
    hbar = effective_pair_precision(g1.h, g2.h)
    s = g1.sigma2 + g2.sigma2
    if s == math.inf:
        # the same height: D / 2 ~ N(d / 2, s / 4) under precision 4 hbar
        return _log_height(4.0 * hbar, 0.25 * g1.sigma2 + 0.25 * g2.sigma2, 0.5 * (g1.mu - g2.mu))
    return _log_height(hbar, s, g1.mu - g2.mu)


def conflict_degree(log1mk: float) -> float:
    """``kappa = 1 - exp(log1mk)``, the conflict policy of every combination.

    Raises :class:`ContradictoryEvidence` when ``1 - kappa`` is below
    ``_CONFLICT_EPS`` (1e-15): the evidence is totally conflicting; and
    :class:`DomainError` when ``log1mk`` is NaN, which an overflow in a
    caller's closed form leaves behind.
    """
    if not log1mk > math.log(_CONFLICT_EPS):  # NaN fails this test too
        if log1mk != log1mk:
            raise DomainError("log(1 - kappa) is NaN: the conflict overflowed")
        raise ContradictoryEvidence(
            f"degree of conflict rounds to 1 (log(1 - kappa) = {log1mk:.3g})"
        )
    return min(max(0.0, -math.expm1(log1mk)), 1.0)  # no conflict is +0.0, not -0.0


def combine(g1: GRFN, g2: GRFN) -> GrfnFusion:
    """Generalized product-intersection combination of two independent GRFNs.

    The combined number has precision ``h1 + h2``; its mode is the
    ``h``-weighted mix of the mode pair after a Kalman update on agreement
    (see :class:`LemmaIntermediates`).  A vacuous operand is exactly neutral
    with zero conflict.  When both operands are random variables (``h =
    +inf``) the interpretations agree only on a null set, so the reported
    conflict is 1 while the combination itself is the well-defined
    conditional limit: the precision-weighted Gaussian.

    Raises :class:`ContradictoryEvidence` when the evidence is totally
    conflicting (1 - kappa below 1e-15) outside that structural case.
    """
    random_pair = math.isinf(g1.h) and math.isinf(g2.h) and g1.sigma2 + g2.sigma2 > 0.0
    weigh = (lambda _: 1.0) if random_pair else conflict_degree
    (mu, sigma2, h), kappa, inter = _fuse(g1, g2, weigh)
    return GrfnFusion(GRFN(mu, sigma2, h), kappa, inter)


def _fuse(g1: GRFN, g2: GRFN, weigh):
    """The product-intersection case analysis of :func:`combine` and of
    :func:`erfs.fuzzy.product` (two GFNs).

    Returns the combined ``(mu, sigma2, h)``, ``weigh(log(1 - kappa))`` and
    the intermediates.  ``weigh`` is the caller's conflict policy; it runs
    before the combined parameters are formed, so it may reject the pair.
    A vacuous operand is neutral and two equal points agree, both with
    ``log(1 - kappa) = 0``; two distinct points contradict.  Any other pair
    is the ``h_i / (h1 + h2)`` mix of :func:`_pair_law`, whose weights are
    1 and 0 against one infinite precision and 1/2 for two.
    """
    hbar = effective_pair_precision(g1.h, g2.h)
    if hbar == 0.0 or math.isinf(hbar) and g1.sigma2 == g2.sigma2 == 0.0:
        if hbar > 0.0 and g1.mu != g2.mu:
            raise ContradictoryEvidence("two distinct deterministic points cannot be combined")
        kept = g2 if g1.is_vacuous else g1
        inter = LemmaIntermediates(g1.mu, g2.mu, g1.sigma2, g2.sigma2, 0.0, hbar)
        return (kept.mu, kept.sigma2, kept.h), weigh(0.0), inter

    weight = weigh(log_one_minus_kappa(g1, g2))
    inter = _pair_law(g1, g2, hbar)
    h1, h2 = g1.h, g2.h
    w1, w2 = _share(h1, h2), _share(h2, h1)
    mu12 = w1 * inter.mu1 + w2 * inter.mu2
    # w (w var): no h_i^2 to overflow, no w^2 to underflow
    var12 = w1 * (w1 * inter.var1) + w2 * (w2 * inter.var2) \
        + 2.0 * inter.rho * w1 * w2 * math.sqrt(inter.var1) * math.sqrt(inter.var2)
    return (mu12, var12, h1 + h2), weight, inter


def combine_many(gs) -> GRFN:
    """Left fold of :func:`combine`; order-independent by associativity."""
    gs = list(gs)
    if not gs:
        raise DomainError("combine_many requires a nonempty list")
    acc = gs[0]
    for g in gs[1:]:
        acc = combine(acc, g).combined
    return acc


def linear_combination(terms) -> GRFN:
    """Extension-principle linear combination of independent GRFNs (or
    GFNs) with nonzero coefficients.

    Mode means add as ``sum lam_i mu_i``, mode variances as
    ``sum lam_i^2 sigma_i^2``, and the precisions as
    ``h = (sum |lam_i| h_i^{-1/2})^{-2}``.  Every ``h_i`` must lie in
    ``(0, +inf)`` for the closed form to apply.
    """
    terms = [(float(lam), g) for lam, g in terms]
    if not terms:
        raise DomainError("linear_combination requires a nonempty list of terms")
    mu = var = spread = 0.0
    for lam, g in terms:
        if lam == 0.0:
            raise DomainError("coefficients must be nonzero")
        if not 0.0 < g.h < math.inf:
            raise DomainError(f"term precision must be in (0, +inf), got {g.h}")
        mu += lam * g.mu
        var += lam * lam * g.sigma2
        spread += abs(lam) / math.sqrt(g.h)
    return GRFN(mu, var, spread ** -2)
