"""Monte-Carlo engine for random (fuzzy) sets.

Every closed form in :mod:`erfs.fuzzy`, :mod:`erfs.grfn` and
:mod:`erfs.grfv` can be checked against an estimator in this module that
never touches the formula under test: belief and plausibility are averages
of alpha-cut events, contours are averages of realized memberships,
conflicts are one minus average pair heights, and the combination rule's
parameters are weighted moments of a soft-conditioned sample.  The closed
forms themselves live with their model types.

Every sampler realizes a core ``[lo, hi]`` per sample (a point for a
random mode, an interval or ray for a crisp random set); its alpha-cut is
the core widened by ``reach(alpha)`` on each side, and its membership is
``falloff`` of the distance from the core.  A sampler writes ``realize``,
and a fuzzy one also ``reach`` and ``falloff``; cuts and memberships are
written once, in :class:`FuzzySampler`.

Randomness contract
-------------------
Streams are counter-based (Philox), keyed by ``(seed, stream-tag,
block-index)`` with a fixed block size.  Workers split work by block.
Every estimator is one call of ``_mc_means``: a block reduces each of its
per-sample statistics to (sum, sum of squares, count, min, max), and the
block summaries are merged in block order, so every estimate is
bit-identical for a fixed ``(seed, samples)`` regardless of the worker
count.  ``alpha`` is drawn uniformly on (0, 1], matching the uniform
mixing measure over cuts that defines belief and plausibility of a random
fuzzy set.
"""

from __future__ import annotations

import math
import operator
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._normal import Phi
from ._value import Value
from .errors import DomainError, PracticalRejection
from .grfn import GRFN, TriangularGaussian, combine, effective_pair_precision
from .interval import Interval

__all__ = [
    "MCConfig",
    "MCEstimate",
    "FuzzySampler",
    "GrfnSampler",
    "TriangularGaussianSampler",
    "GaussianLowerRaySampler",
    "GaussianUpperRaySampler",
    "ConditionalGaussianIntervalSampler",
    "SoftConditioningSample",
    "mc_bel_pl",
    "mc_contour",
    "mc_conflict",
    "mc_expectation_bounds",
    "soft_conditioning_sampler",
    "dempster_gaussian_rays",
    "triangular_gaussian_cdf_bounds",
    "triangular_gaussian_expectation_bounds",
    "oracle_suite",
]

BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class MCConfig:
    """Seed, sample count and worker count, each an integer (no float or string); a frozen
    dataclass, as the benchmark's oracle gate copies it with ``dataclasses.replace``."""

    seed: int = 42
    samples: int = 1_000_000
    workers: int = 1

    def __post_init__(self):
        for name in ("seed", "samples", "workers"):
            v = getattr(self, name)
            try:
                if v.__class__ is bool:
                    raise TypeError
                object.__setattr__(self, name, operator.index(v))
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {v!r}") from None
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must be a 64-bit unsigned integer")
        if self.samples < 1:
            raise DomainError("samples must be >= 1")
        if self.workers < 1:
            raise DomainError("workers must be >= 1")


class MCEstimate(Value):
    __slots__ = ("value", "stderr", "n")

    def __init__(self, value: float, stderr: float, n: int):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "stderr", stderr)
        object.__setattr__(self, "n", n)

    def within(self, reference: float, nsigma: float = 3.0) -> bool:
        """True when ``reference`` lies inside the ``nsigma`` band."""
        return abs(self.value - reference) <= nsigma * self.stderr + 1e-12

    def to_dict(self) -> dict:
        return {"value": self.value, "stderr": self.stderr, "n": self.n}


def _block_rng(seed: int, tag: str, block: int) -> np.random.Generator:
    tag_word = (zlib.crc32(tag.encode("utf-8")) << 32) | (block & 0xFFFFFFFF)
    key = np.array([seed, tag_word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_blocks(cfg: MCConfig, tag: str, block_fn):
    """Run ``block_fn(rng, n)`` over all blocks; results in block order."""
    nblocks = (cfg.samples + BLOCK_SIZE - 1) // BLOCK_SIZE

    def work(i: int):
        return block_fn(_block_rng(cfg.seed, tag, i), min(BLOCK_SIZE, cfg.samples - i * BLOCK_SIZE))

    if cfg.workers == 1 or nblocks == 1:
        return [work(i) for i in range(nblocks)]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(work, range(nblocks)))


def _summary(x: np.ndarray) -> tuple:
    """(sum, sum of squares, count, min, max) of one sample; empty gives min > max.
    A boolean ``x`` (an indicator) needs one count; (1, 0) is its empty range."""
    n = x.shape[0]
    if x.dtype == bool:
        k = float(np.count_nonzero(x))
        return k, k, n, float(k == n), float(k > 0)
    return (float(np.sum(x)), float(np.sum(x * x)), n,
            float(x.min(initial=np.inf)), float(x.max(initial=-np.inf)))


def _mean_stderr(total: float, total_sq: float, n: int, lo: float, hi: float) -> MCEstimate:
    if lo == hi:
        # constant sample (no randomness): exact value, zero error
        return MCEstimate(lo, 0.0, n)
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return MCEstimate(mean, math.sqrt(var / n), n)


def _mc_means(cfg: MCConfig, tag: str, stats) -> tuple[MCEstimate, ...]:
    """Sample means of the statistics ``stats(rng, n)`` returns for one block.

    ``stats`` draws one block and returns arrays of equal length, one value
    per realized sample (a boolean array for an indicator).  Each block is
    reduced to one ``_summary`` per array; the summaries are merged in
    block order, so the estimates do not depend on the worker count.
    """
    parts = _run_blocks(cfg, tag, lambda rng, n: [_summary(x) for x in stats(rng, n)])
    return tuple(
        _mean_stderr(sum(t), sum(q), sum(n), min(lo), max(hi))
        for t, q, n, lo, hi in (zip(*blocks) for blocks in zip(*parts))
    )


def _gaussian_height(h: float, d: np.ndarray) -> np.ndarray:
    """``exp(-h d^2 / 2)`` at offsets ``d``: 1 for ``h = 0``, ``d == 0`` for ``h = inf``."""
    if h == 0.0:
        return np.ones_like(d)
    if math.isinf(h):
        return (d == 0.0).astype(float)
    return np.exp(-0.5 * h * d * d)


class FuzzySampler:
    """One realized fuzzy number per sample, as a core, a reach and a falloff.

    ``realize`` consumes the per-block stream and returns the cores
    ``(lo, hi)``, ``+-inf`` encoding rays and the whole line.  The default
    ``reach`` (0) and ``falloff`` (the indicator of ``dist == 0``) realize
    crisp intervals; a fuzzy sampler writes both, so that the alpha-cut
    ``[lo - reach, hi + reach]`` is where the membership is at least alpha.
    """

    def realize(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def reach(self, alphas: np.ndarray):
        return 0.0

    def falloff(self, dist: np.ndarray) -> np.ndarray:
        return (dist == 0.0).astype(float)

    def cut_bounds(self, state, alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = state
        r = self.reach(alphas)
        return lo - r, hi + r

    def membership(self, state, x: float) -> np.ndarray:
        lo, hi = state
        return self.falloff(np.maximum(np.maximum(lo - x, x - hi), 0.0))


def _gaussian_cores(rng, n: int, mu: float, sd: float):
    """Point cores at Gaussian random modes ``N(mu, sd^2)``."""
    modes = mu + sd * rng.standard_normal(n) if sd > 0.0 else np.full(n, mu)
    return modes, modes


class GrfnSampler(FuzzySampler):
    """Sampler of a GRFN: Gaussian random mode, fixed precision."""

    def __init__(self, g: GRFN):
        self.g = g

    def realize(self, rng, n):
        return _gaussian_cores(rng, n, self.g.mu, math.sqrt(self.g.sigma2))

    def reach(self, alphas):
        if self.g.h == 0.0:
            return np.full_like(alphas, np.inf)
        return np.sqrt(-2.0 * np.log(alphas) / self.g.h)  # 0 for h = inf

    def falloff(self, dist):
        return _gaussian_height(self.g.h, dist)


class TriangularGaussianSampler(FuzzySampler):
    """Triangular fuzzy number with Gaussian random mode and half-width ``a``."""

    def __init__(self, mu: float, sigma: float, a: float):
        if sigma < 0.0 or a < 0.0:
            raise DomainError("sigma and a must be nonnegative")
        self.mu, self.sigma, self.a = float(mu), float(sigma), float(a)

    def realize(self, rng, n):
        return _gaussian_cores(rng, n, self.mu, self.sigma)

    def reach(self, alphas):
        return self.a * (1.0 - alphas)

    def falloff(self, dist):
        if self.a == 0.0:
            return super().falloff(dist)
        return np.clip(1.0 - dist / self.a, 0.0, None)


class GaussianLowerRaySampler(FuzzySampler):
    """Random ray ``[X, +inf)`` with Gaussian ``X``."""

    def __init__(self, mu: float, sigma: float):
        self.mu, self.sigma = float(mu), float(sigma)

    def realize(self, rng, n):
        x = self.mu + self.sigma * rng.standard_normal(n)
        return x, np.full(n, np.inf)


class GaussianUpperRaySampler(FuzzySampler):
    """Random ray ``(-inf, X]`` with Gaussian ``X``."""

    def __init__(self, mu: float, sigma: float):
        self.mu, self.sigma = float(mu), float(sigma)

    def realize(self, rng, n):
        x = self.mu + self.sigma * rng.standard_normal(n)
        return np.full(n, -np.inf), x


class ConditionalGaussianIntervalSampler(FuzzySampler):
    """``[X1, X2]`` under two independent Gaussians conditioned on ``X1 <= X2``.

    Realized by rejection: a block of proposal pairs keeps the ordered
    ones, so the number of realized intervals per block is random but
    reproducible for a fixed stream.
    """

    def __init__(self, mu1, sigma1, mu2, sigma2):
        self.mu1, self.sigma1 = float(mu1), float(sigma1)
        self.mu2, self.sigma2 = float(mu2), float(sigma2)

    def _propose(self, rng, n):
        x1 = self.mu1 + self.sigma1 * rng.standard_normal(n)
        x2 = self.mu2 + self.sigma2 * rng.standard_normal(n)
        return x1, x2, x1 <= x2

    def realize(self, rng, n):
        x1, x2, keep = self._propose(rng, n)
        return x1[keep], x2[keep]

    def rejection_rate(self, cfg: MCConfig) -> MCEstimate:
        """Share of proposal pairs that ``realize`` rejects."""
        return _mc_means(cfg, "rays-rejection",
                         lambda rng, n: [~self._propose(rng, n)[2]])[0]


def _random_cuts(sampler: FuzzySampler, rng, n: int):
    """One block of realized samples, each cut at an alpha uniform on (0, 1]
    (the cut at alpha = 0 is not a focal set)."""
    state = sampler.realize(rng, n)
    return sampler.cut_bounds(state, 1.0 - rng.random(state[0].shape[0]))


def mc_bel_pl(sampler: FuzzySampler, b: Interval, cfg: MCConfig) -> tuple[MCEstimate, MCEstimate]:
    """Belief and plausibility of ``b`` by alpha-cut sampling.

    Each draw is a pair (realized fuzzy number, alpha); the cut counts
    toward belief when contained in ``b`` and toward plausibility when it
    meets ``b``.  The same sample serves both indicators, so the estimated
    belief never exceeds the estimated plausibility.
    """

    def block(rng, n):
        lo, hi = _random_cuts(sampler, rng, n)
        return [(lo >= b.lo) & (hi <= b.hi), (lo <= b.hi) & (hi >= b.lo)]

    return _mc_means(cfg, "bel-pl", block)


def mc_contour(sampler: FuzzySampler, x: float, cfg: MCConfig) -> MCEstimate:
    """Pointwise plausibility: mean realized membership at ``x``."""
    return _mc_means(cfg, "contour",
                     lambda rng, n: [sampler.membership(sampler.realize(rng, n), x)])[0]


def mc_expectation_bounds(sampler: FuzzySampler, cfg: MCConfig) -> tuple[MCEstimate, MCEstimate]:
    """Lower/upper expectations: means of sampled alpha-cut endpoints."""

    def block(rng, n):
        lo, hi = _random_cuts(sampler, rng, n)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DomainError("a realized alpha-cut is unbounded; expectations undefined")
        return [lo, hi]

    return _mc_means(cfg, "expectation", block)


def _pair_heights(s1, s2, st1, st2) -> np.ndarray:
    # a rejection sampler keeps a random number of iid samples: pair the first m of each
    m = min(st1[0].shape[0], st2[0].shape[0])
    st1, st2 = [a[:m] for a in st1], [a[:m] for a in st2]
    if isinstance(s1, GrfnSampler) and isinstance(s2, GrfnSampler):
        return _gaussian_height(effective_pair_precision(s1.g.h, s2.g.h), st1[0] - st2[0])
    if type(s1).falloff is type(s2).falloff is FuzzySampler.falloff:  # two crisp samplers
        (lo1, hi1), (lo2, hi2) = st1, st2
        return ((lo1 <= hi2) & (lo2 <= hi1)).astype(float)
    raise DomainError("no closed-form pair height for these samplers")


def mc_conflict(s1: FuzzySampler, s2: FuzzySampler, cfg: MCConfig) -> MCEstimate:
    """Degree of conflict: one minus the mean height of independent pair products."""

    def block(rng, n):
        st1 = s1.realize(rng, n)
        st2 = s2.realize(rng, n)
        return [_pair_heights(s1, s2, st1, st2)]

    (consistency,) = _mc_means(cfg, "conflict", block)
    return MCEstimate(1.0 - consistency.value, consistency.stderr, consistency.n)


class SoftConditioningSample(Value):
    """Weighted sample of a mode pair, weights = pairwise product heights.

    Weighted moments estimate the soft-conditioned joint mode law that
    drives the combination rule; the mean weight estimates one minus the
    degree of conflict.  Standard errors use the ratio-estimator
    linearization, with the Fisher approximation for the correlation.
    """

    __slots__ = ("m1", "m2", "weights")

    def __init__(self, m1: np.ndarray, m2: np.ndarray, weights: np.ndarray):
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "m2", m2)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def effective_sample_size(self) -> float:
        s = float(np.sum(self.weights))
        s2 = float(np.sum(self.weights ** 2))
        return s * s / s2 if s2 > 0.0 else 0.0

    def mean_weight(self) -> MCEstimate:
        return _mean_stderr(*_summary(self.weights))

    def _weighted_mean(self, x: np.ndarray) -> MCEstimate:
        w = self.weights
        sw = float(np.sum(w))
        mean = float(np.sum(w * x)) / sw
        se = math.sqrt(float(np.sum((w * (x - mean)) ** 2))) / sw
        return MCEstimate(mean, se, self.n)

    def estimates(self) -> dict[str, MCEstimate]:
        w = self.weights
        mu1, mu2 = self._weighted_mean(self.m1), self._weighted_mean(self.m2)
        c1, c2 = self.m1 - mu1.value, self.m2 - mu2.value
        out = {
            "mu1": mu1,
            "mu2": mu2,
            "var1": self._weighted_mean(c1 ** 2),
            "var2": self._weighted_mean(c2 ** 2),
            "mean_weight": self.mean_weight(),
        }
        cov = float(np.sum(w * c1 * c2)) / float(np.sum(w))
        denom = math.sqrt(out["var1"].value * out["var2"].value)
        rho = cov / denom if denom > 0.0 else 0.0
        ess = self.effective_sample_size
        rho_se = (1.0 - rho * rho) / math.sqrt(ess) if ess > 0.0 else math.inf
        out["rho"] = MCEstimate(rho, rho_se, self.n)
        return out


def soft_conditioning_sampler(g1: GRFN, g2: GRFN, cfg: MCConfig) -> SoftConditioningSample:
    """Importance-weighted oracle for the combination rule's mode law.

    Draws mode pairs from the unconditioned product law and attaches the
    pair height as weight.  Heights lie in (0, 1], so weighting is unbiased
    and strictly more efficient than rejection here; rejection is reserved
    for hard (crisp) conditioning.
    """
    if not (0.0 < g1.h < math.inf and 0.0 < g2.h < math.inf):
        raise DomainError("soft conditioning requires finite positive precisions")
    hbar = effective_pair_precision(g1.h, g2.h)
    sd1, sd2 = math.sqrt(g1.sigma2), math.sqrt(g2.sigma2)

    def block(rng, n):
        m1 = g1.mu + sd1 * rng.standard_normal(n)
        m2 = g2.mu + sd2 * rng.standard_normal(n)
        return m1, m2, _gaussian_height(hbar, m1 - m2)

    # the weighted moments need the whole sample: blocks are joined in block order
    parts = _run_blocks(cfg, "soft-conditioning", block)
    return SoftConditioningSample(*(np.concatenate(arrays) for arrays in zip(*parts)))


def dempster_gaussian_rays(mu1, sigma1, mu2, sigma2, cfg: MCConfig):
    """Conflict and combined sampler for Gaussian random rays.

    The lower ray ``[X1, +inf)`` and upper ray ``(-inf, X2]`` conflict
    exactly when ``X1 > X2``, so the degree of conflict has the closed form
    ``Phi((mu1 - mu2) / sqrt(sigma1^2 + sigma2^2))``.  The returned sampler
    realizes the combined random interval ``[X1', X2']`` by rejection.
    """
    if sigma1 <= 0.0 or sigma2 <= 0.0:
        raise DomainError("sigma1 and sigma2 must be positive")
    kappa = float(Phi((mu1 - mu2) / math.hypot(sigma1, sigma2)))
    if kappa > 1.0 - 1e-6:
        raise PracticalRejection(
            f"acceptance probability {1.0 - kappa:.2e} too small for rejection sampling"
        )
    return kappa, ConditionalGaussianIntervalSampler(mu1, sigma1, mu2, sigma2)


def triangular_gaussian_cdf_bounds(mu, sigma, a, x):
    return TriangularGaussian(mu, sigma, a).cdf_bounds(x)


def triangular_gaussian_expectation_bounds(mu, a):
    return TriangularGaussian(mu, 1.0, a).expectation_bounds()  # sigma does not enter


def oracle_suite(cfg: MCConfig):
    """Closed-form-vs-oracle comparisons for the cross-validation command.

    Returns a list of ``(name, reference, estimate)`` triples; a comparison
    passes when the reference lies within three standard errors of the
    estimate.  The battery is fixed, so for a fixed config the outcome is
    reproducible.
    """
    checks: list[tuple[str, float, MCEstimate]] = []

    g = GRFN(0.3, 1.2, 0.8)
    s = GrfnSampler(g)
    for x in (-1.0, 0.3, 1.5):
        checks.append((f"grfn contour x={x}", g.contour(x), mc_contour(s, x, cfg)))
    for b in (Interval(-1.0, 1.0), Interval(0.0, 2.5)):
        bel, pl = g.bel_pl(b)
        mc_bel, mc_pl = mc_bel_pl(s, b, cfg)
        checks.append((f"grfn bel {b.lo}..{b.hi}", bel, mc_bel))
        checks.append((f"grfn pl {b.lo}..{b.hi}", pl, mc_pl))
    lower, upper = g.cdf_bounds(0.7)
    mc_low, mc_up = mc_bel_pl(s, Interval(-math.inf, 0.7), cfg)
    checks.append(("grfn lower cdf y=0.7", lower, mc_low))
    checks.append(("grfn upper cdf y=0.7", upper, mc_up))

    g2 = GRFN(0.0, 1.0, math.pi / 2.0)
    e_low, e_high = g2.expectation_bounds()
    mc_elow, mc_ehigh = mc_expectation_bounds(GrfnSampler(g2), cfg)
    checks.append(("grfn lower expectation", e_low, mc_elow))
    checks.append(("grfn upper expectation", e_high, mc_ehigh))

    ga, gb = GRFN(0.0, 1.0, 1.0), GRFN(0.5, 0.5, 2.0)
    fusion = combine(ga, gb)
    checks.append(
        ("grfn conflict", fusion.kappa, mc_conflict(GrfnSampler(ga), GrfnSampler(gb), cfg))
    )
    soft = soft_conditioning_sampler(ga, gb, cfg).estimates()
    inter = fusion.intermediates
    checks.append(("soft-conditioning mu1", inter.mu1, soft["mu1"]))
    checks.append(("soft-conditioning var1", inter.var1, soft["var1"]))
    checks.append(("soft-conditioning rho", inter.rho, soft["rho"]))
    checks.append(("soft-conditioning 1-kappa", 1.0 - fusion.kappa, soft["mean_weight"]))

    kappa, combined = dempster_gaussian_rays(0.0, 1.0, 1.0, 1.0, cfg)
    checks.append(("gaussian rays conflict", kappa, combined.rejection_rate(cfg)))
    x = 0.6
    pl_closed = float(Phi(x - 0.0) * (1.0 - Phi(x - 1.0)) / (1.0 - kappa))
    checks.append(("gaussian rays combined contour", pl_closed, mc_contour(combined, x, cfg)))

    model = TriangularGaussian(0.0, 1.0, 1.5)
    tri = TriangularGaussianSampler(0.0, 1.0, 1.5)
    for x in (-1.0, 0.0, 1.0):
        bel_c, pl_c = model.cdf_bounds(x)
        mc_bel, mc_pl = mc_bel_pl(tri, Interval(-math.inf, x), cfg)
        checks.append((f"triangular lower cdf x={x}", bel_c, mc_bel))
        checks.append((f"triangular upper cdf x={x}", pl_c, mc_pl))
    e_low, e_high = model.expectation_bounds()
    mc_elow, mc_ehigh = mc_expectation_bounds(tri, cfg)
    checks.append(("triangular lower expectation", e_low, mc_elow))
    checks.append(("triangular upper expectation", e_high, mc_ehigh))

    return checks
