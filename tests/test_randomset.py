"""Tests for the Monte-Carlo random-set engine."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import ndtr

import erfs.randomset as rs
from erfs.errors import DomainError, PracticalRejection
from erfs.fuzzy import GFN
from erfs.grfn import GRFN, TriangularGaussian, combine, vacuous
from erfs.interval import Interval
from erfs.randomset import (
    BLOCK_SIZE,
    ConditionalGaussianIntervalSampler,
    GaussianLowerRaySampler,
    GaussianUpperRaySampler,
    GrfnSampler,
    MCConfig,
    MCEstimate,
    TriangularGaussianSampler,
    _block_rng,
    _summary,
    dempster_gaussian_rays,
    mc_bel_pl,
    mc_conflict,
    mc_contour,
    mc_expectation_bounds,
    oracle_suite,
    soft_conditioning_sampler,
    triangular_gaussian_cdf_bounds,
    triangular_gaussian_expectation_bounds,
)
from erfs._normal import Phi
from oracles import (
    triangular_cdf_by_cut_integration,
    triangular_contour_by_mode_integration,
)

CFG = MCConfig(seed=42, samples=200_000)


class TestConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            MCConfig(seed=-1)
        with pytest.raises(DomainError):
            MCConfig(samples=0)
        with pytest.raises(DomainError):
            MCConfig(workers=0)

    def test_estimate_serialization(self):
        e = MCEstimate(0.5, 0.01, 100)
        assert e.to_dict() == {"value": 0.5, "stderr": 0.01, "n": 100}


class TestDeterminism:
    """Fixed (seed, samples) must give bit-identical results for any worker count."""

    def _cfgs(self):
        return (
            MCConfig(seed=42, samples=150_000, workers=1),
            MCConfig(seed=42, samples=150_000, workers=4),
        )

    def test_bel_pl(self):
        g = GrfnSampler(GRFN(0.0, 1.0, 1.0))
        b = Interval(-1.0, 1.0)
        c1, c4 = self._cfgs()
        assert mc_bel_pl(g, b, c1) == mc_bel_pl(g, b, c4)

    def test_contour(self):
        g = GrfnSampler(GRFN(0.5, 2.0, 0.7))
        c1, c4 = self._cfgs()
        assert mc_contour(g, 0.3, c1) == mc_contour(g, 0.3, c4)

    def test_expectation(self):
        g = GrfnSampler(GRFN(0.0, 1.0, 2.0))
        c1, c4 = self._cfgs()
        assert mc_expectation_bounds(g, c1) == mc_expectation_bounds(g, c4)

    def test_conflict(self):
        s1 = GrfnSampler(GRFN(0.0, 1.0, 1.0))
        s2 = GrfnSampler(GRFN(0.5, 0.5, 2.0))
        c1, c4 = self._cfgs()
        assert mc_conflict(s1, s2, c1) == mc_conflict(s1, s2, c4)

    def test_soft_conditioning(self):
        c1, c4 = self._cfgs()
        g1, g2 = GRFN(0.0, 1.0, 1.0), GRFN(0.0, 1.0, 1.0)
        s1 = soft_conditioning_sampler(g1, g2, c1)
        s4 = soft_conditioning_sampler(g1, g2, c4)
        assert np.array_equal(s1.m1, s4.m1)
        assert np.array_equal(s1.weights, s4.weights)
        e1, e4 = s1.estimates(), s4.estimates()
        assert all(e1[k] == e4[k] for k in e1)

    def test_rejection(self):
        c1, c4 = self._cfgs()
        _, s = dempster_gaussian_rays(0.0, 1.0, 1.0, 1.0, c1)
        assert s.rejection_rate(c1) == s.rejection_rate(c4)

    def test_return_shapes(self):
        # bel/pl and the expectation bounds are pairs, the rejection rate one estimate
        cfg = MCConfig(seed=5, samples=20_000)
        g = GrfnSampler(GRFN(0.0, 1.0, 1.0))
        _, rays = dempster_gaussian_rays(0.0, 1.0, 1.0, 1.0, cfg)
        for out in (mc_bel_pl(g, Interval(-1.0, 1.0), cfg), mc_expectation_bounds(g, cfg)):
            assert type(out) is tuple and len(out) == 2
            assert all(type(e) is MCEstimate for e in out)
        assert type(rays.rejection_rate(cfg)) is MCEstimate

    def test_counts_are_exact(self):
        # indicator means are counts over the realized sample: n is the number of
        # proposals for the rejection rate and of accepted intervals for bel/pl
        cfg = MCConfig(seed=9, samples=2 * BLOCK_SIZE + 17, workers=2)
        _, rays = dempster_gaussian_rays(0.0, 1.0, 1.0, 1.0, cfg)
        sizes = (BLOCK_SIZE, BLOCK_SIZE, 17)
        rejected = sum(
            int(np.count_nonzero(x1 > x2))
            for x1, x2 in (rays._propose(_block_rng(9, "rays-rejection", i), n)[:2]
                           for i, n in enumerate(sizes))
        )
        rate = rays.rejection_rate(cfg)
        assert (rate.value, rate.n) == (rejected / cfg.samples, cfg.samples)
        bel, pl = mc_bel_pl(rays, Interval(-math.inf, math.inf), cfg)
        assert bel.n == pl.n < cfg.samples
        assert (bel.value, bel.stderr) == (1.0, 0.0)

    def test_indicator_summary_matches_its_float_form(self):
        rng = np.random.default_rng(0)
        for mask in (rng.random(1000) < 0.3, np.ones(7, bool), np.zeros(7, bool)):
            assert _summary(mask) == _summary(mask.astype(float))
        # an empty indicator block widens no merged range on {0, 1}
        assert _summary(np.zeros(0, bool))[3:] == (1.0, 0.0)

    def test_one_stream_per_block(self, monkeypatch):
        seen = []

        def counted(seed, tag, block):
            seen.append((tag, block))
            return _block_rng(seed, tag, block)

        monkeypatch.setattr(rs, "_block_rng", counted)
        cfg = MCConfig(seed=3, samples=3 * BLOCK_SIZE, workers=2)
        mc_bel_pl(GrfnSampler(GRFN(0.0, 1.0, 1.0)), Interval(0.0, 1.0), cfg)
        assert sorted(seen) == [("bel-pl", 0), ("bel-pl", 1), ("bel-pl", 2)]

    def test_different_seeds_differ(self):
        g = GrfnSampler(GRFN(0.0, 1.0, 1.0))
        a = mc_contour(g, 0.3, MCConfig(seed=1, samples=50_000))
        b = mc_contour(g, 0.3, MCConfig(seed=2, samples=50_000))
        assert a.value != b.value


class TestBelPl:
    def test_vacuous_bounds(self):
        bel, pl = mc_bel_pl(GrfnSampler(vacuous()), Interval(0.0, 1.0), CFG)
        assert bel.value == 0.0 and bel.stderr == 0.0
        assert pl.value == 1.0 and pl.stderr == 0.0

    def test_matches_closed_form(self):
        g = GRFN(0.0, 1.0, 1.0)
        bel, pl = mc_bel_pl(GrfnSampler(g), Interval(-1.0, 1.0), CFG)
        cb, cp = g.bel_pl(Interval(-1.0, 1.0))
        assert bel.within(cb) and pl.within(cp)
        assert bel.value <= pl.value

    def test_probabilistic_band(self):
        g = GRFN(0.0, 1.0, math.inf)
        bel, pl = mc_bel_pl(GrfnSampler(g), Interval(-1.0, 1.0), CFG)
        assert bel.within(0.6826894921370859)
        assert bel == pl

    def test_ray_query_matches_cdf(self):
        g = GRFN(0.3, 1.2, 0.8)
        lower, upper = g.cdf_bounds(0.5)
        bel, pl = mc_bel_pl(GrfnSampler(g), Interval(-math.inf, 0.5), CFG)
        assert bel.within(lower) and pl.within(upper)

    def test_duality_against_complement_rays(self):
        """pl([x, y]) = 1 - bel of the complement; an interval-shaped cut lies
        in the complement iff it lies in one of the two (disjoint) rays."""
        g = GRFN(0.2, 0.9, 1.1)
        s = GrfnSampler(g)
        x, y = -0.8, 1.4
        _, pl = g.bel_pl(Interval(x, y))
        bel_left, _ = mc_bel_pl(s, Interval(-math.inf, x), CFG)
        bel_right, _ = mc_bel_pl(s, Interval(y, math.inf), CFG)
        mc_complement = bel_left.value + bel_right.value
        band = 3.0 * (bel_left.stderr + bel_right.stderr) + 1e-12
        assert abs((1.0 - mc_complement) - pl) <= band


class TestContour:
    def test_matches_closed_form(self):
        g = GRFN(0.0, 1.0, 1.0)
        est = mc_contour(GrfnSampler(g), 0.0, CFG)
        assert est.within(1.0 / math.sqrt(2.0))

    def test_possibilistic_exact(self):
        g = GRFN(1.0, 0.0, 2.0)
        est = mc_contour(GrfnSampler(g), 0.5, CFG)
        assert est.value == GFN(1.0, 2.0).membership(0.5)
        assert est.stderr == 0.0

    def test_triangular_matches_quadrature(self):
        est = mc_contour(TriangularGaussianSampler(0.0, 1.0, 1.5), 0.25, CFG)
        ref = triangular_contour_by_mode_integration(0.0, 1.0, 1.5, 0.25)
        assert est.within(ref)

    def test_grid_of_21_points(self):
        g = GRFN(0.3, 1.2, 0.8)
        s = GrfnSampler(g)
        for k, x in enumerate(np.linspace(-4.0, 4.0, 21)):
            est = mc_contour(s, float(x), MCConfig(seed=100 + k, samples=100_000))
            assert est.within(g.contour(float(x))), f"contour mismatch at x={x}"


class TestExpectationBounds:
    def test_matches_closed_form(self):
        g = GRFN(0.0, 1.0, math.pi / 2.0)
        lo, hi = mc_expectation_bounds(GrfnSampler(g), CFG)
        assert lo.within(-1.0) and hi.within(1.0)

    def test_triangular(self):
        lo, hi = mc_expectation_bounds(TriangularGaussianSampler(0.0, 1.0, 1.0), CFG)
        assert lo.within(-0.5) and hi.within(0.5)

    def test_crisp_point_exact(self):
        lo, hi = mc_expectation_bounds(GrfnSampler(GRFN(3.0, 0.0, math.inf)), CFG)
        assert (lo.value, hi.value) == (3.0, 3.0)
        assert lo.stderr == 0.0 and hi.stderr == 0.0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unbounded_cuts_rejected(self, workers):
        # more than one block, so with two workers the error crosses the thread pool
        cfg = MCConfig(seed=42, samples=2 * BLOCK_SIZE + 1, workers=workers)
        with pytest.raises(DomainError, match="unbounded"):
            mc_expectation_bounds(GrfnSampler(vacuous()), cfg)


class TestConflict:
    def test_identical_possibilistic_zero(self):
        s = GrfnSampler(GRFN(1.0, 0.0, 2.0))
        est = mc_conflict(s, s, CFG)
        assert est.value == 0.0 and est.stderr == 0.0

    def test_matches_combination_kappa(self):
        g1, g2 = GRFN(0.0, 1.0, 1.0), GRFN(0.0, 1.0, 1.0)
        est = mc_conflict(GrfnSampler(g1), GrfnSampler(g2), CFG)
        assert est.within(1.0 - 1.0 / math.sqrt(2.0))

    def test_rays_at_equal_means(self):
        s1 = GaussianLowerRaySampler(0.0, 1.0)
        s2 = GaussianUpperRaySampler(0.0, 1.0)
        est = mc_conflict(s1, s2, CFG)
        assert est.within(0.5)

    def test_custom_height_required_for_mixed(self):
        with pytest.raises(DomainError):
            mc_conflict(GrfnSampler(GRFN(0, 1, 1)), GaussianLowerRaySampler(0.0, 1.0), CFG)

    @pytest.mark.parametrize("other", ["ray", "itself"])
    def test_rejection_sampler_pairs_its_kept_samples(self, other):
        # [X1, X2], X1 ~ N(0, 1) and X2 ~ N(1, 1) given X1 <= X2, keeps a random
        # number of proposals per block, so its block differs in length from the other's
        _, cond = dempster_gaussian_rays(0.0, 1.0, 1.0, 1.0, CFG)

        def pdf(x, mu=0.0):
            return math.exp(-0.5 * (x - mu) ** 2) / math.sqrt(2.0 * math.pi)

        p = ndtr(1.0 / math.sqrt(2.0))
        if other == "ray":
            # the ray [Y, inf), Y ~ N(0.1, 0.9), misses [X1, X2] when X2 < Y
            s2 = GaussianLowerRaySampler(0.1, 0.9)
            exact = quad(lambda x: pdf(x, 1.0) * ndtr(x) * ndtr((0.1 - x) / 0.9), -np.inf, np.inf)[0] / p
        else:
            # two independent copies miss each other when one's upper end lies below the
            # other's lower end: 2 P(A2 < B1), A2 and B1 the conditioned X2 and X1
            def below(y):  # p P(A2 <= y)
                return quad(lambda x: pdf(x, 1.0) * ndtr(x), -np.inf, y)[0]
            s2 = cond
            exact = 2.0 * quad(lambda y: pdf(y) * ndtr(1.0 - y) * below(y), -np.inf, np.inf)[0] / (p * p)
        ests = [mc_conflict(cond, s2, MCConfig(seed=1, samples=60_000, workers=w)) for w in (1, 2)]
        assert ests[0] == ests[1]
        assert 40_000 < ests[0].n < 60_000
        assert ests[0].within(exact)


class TestSoftConditioning:
    def test_reproduces_fusion_intermediates(self):
        g1, g2 = GRFN(0.0, 1.0, 1.0), GRFN(0.0, 1.0, 1.0)
        f = combine(g1, g2)
        est = soft_conditioning_sampler(g1, g2, MCConfig(seed=42, samples=1_000_000)).estimates()
        assert est["mu1"].within(f.intermediates.mu1)
        assert est["mu2"].within(f.intermediates.mu2)
        assert est["var1"].within(f.intermediates.var1)
        assert est["var2"].within(f.intermediates.var2)
        assert est["rho"].within(f.intermediates.rho)
        assert est["mean_weight"].within(1.0 - f.kappa)

    def test_tiny_precision_gives_unit_weights(self):
        g1, g2 = GRFN(0.0, 1.0, 1e-12), GRFN(5.0, 1.0, 1e-12)
        s = soft_conditioning_sampler(g1, g2, MCConfig(seed=1, samples=50_000))
        assert np.all(s.weights > 0.99999)
        assert s.estimates()["mu1"].within(0.0)

    def test_requires_finite_positive_precision(self):
        with pytest.raises(DomainError):
            soft_conditioning_sampler(vacuous(), GRFN(0, 1, 1), CFG)
        with pytest.raises(DomainError):
            soft_conditioning_sampler(GRFN(0, 1, math.inf), GRFN(0, 1, 1), CFG)

    def test_constant_weights_are_exact(self):
        # possibilistic operands: every pair has the same height, so no sampling error
        s = soft_conditioning_sampler(GRFN(0.0, 0.0, 1.0), GRFN(1.0, 0.0, 1.0), CFG)
        w = s.mean_weight()
        assert (w.value, w.stderr) == (math.exp(-0.25), 0.0)

    def test_effective_sample_size(self):
        s = soft_conditioning_sampler(GRFN(0, 1, 1), GRFN(0, 1, 1), MCConfig(seed=3, samples=10_000))
        assert 0 < s.effective_sample_size <= s.n


class TestDempsterRays:
    def test_equal_means_half(self):
        kappa, _ = dempster_gaussian_rays(0.0, 1.0, 0.0, 1.0, CFG)
        assert kappa == pytest.approx(0.5, abs=1e-15)

    def test_closed_form_value(self):
        kappa, _ = dempster_gaussian_rays(0.0, 1.0, 3.0, 1.0, CFG)
        assert kappa == pytest.approx(float(Phi(-3.0 / math.sqrt(2.0))), abs=1e-15)
        assert kappa == pytest.approx(0.01694742676234465, abs=1e-12)

    def test_rejection_rate_matches_kappa(self):
        kappa, sampler = dempster_gaussian_rays(0.0, 1.0, 1.0, 1.0, CFG)
        assert sampler.rejection_rate(CFG).within(kappa)

    def test_combined_contour_is_normalized_product(self):
        kappa, sampler = dempster_gaussian_rays(0.0, 1.0, 1.0, 1.0, CFG)
        x = 0.6
        closed = float(Phi(x) * (1.0 - Phi(x - 1.0)) / (1.0 - kappa))
        assert mc_contour(sampler, x, CFG).within(closed)

    def test_infeasible_rejection(self):
        with pytest.raises(PracticalRejection):
            dempster_gaussian_rays(20.0, 1.0, -20.0, 1.0, CFG)

    def test_sigma_validation(self):
        with pytest.raises(DomainError):
            dempster_gaussian_rays(0.0, 0.0, 0.0, 1.0, CFG)


class TestTriangularClosedForms:
    def test_zero_halfwidth_is_gaussian_cdf(self):
        xs = np.linspace(-3.0, 3.0, 13)
        lower, upper = triangular_gaussian_cdf_bounds(0.0, 1.0, 0.0, xs)
        assert_allclose(lower, Phi(xs), atol=1e-15)
        assert_allclose(upper, Phi(xs), atol=1e-15)

    def test_against_cut_integration(self):
        for x in (-1.5, 0.0, 0.8):
            for a in (0.5, 1.5):
                lower, upper = triangular_gaussian_cdf_bounds(0.0, 1.0, a, x)
                qb, qp = triangular_cdf_by_cut_integration(0.0, 1.0, a, x)
                assert lower == pytest.approx(qb, abs=1e-10)
                assert upper == pytest.approx(qp, abs=1e-10)

    def test_cdf_limits(self):
        lower, upper = triangular_gaussian_cdf_bounds(0.0, 1.0, 1.5, -30.0)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert upper == pytest.approx(0.0, abs=1e-12)

    def test_matches_mc(self):
        tri = TriangularGaussianSampler(0.0, 1.0, 1.5)
        for x in (-1.0, 0.5):
            lower, upper = triangular_gaussian_cdf_bounds(0.0, 1.0, 1.5, x)
            bel, pl = mc_bel_pl(tri, Interval(-math.inf, x), CFG)
            assert bel.within(lower) and pl.within(upper)

    def test_contour_against_quadrature(self):
        for x in (-0.5, 0.0, 1.2):
            ref = triangular_contour_by_mode_integration(0.0, 1.0, 1.5, x)
            assert TriangularGaussian(0.0, 1.0, 1.5).contour(x) == pytest.approx(ref, abs=1e-10)

    def test_expectations(self):
        assert triangular_gaussian_expectation_bounds(2.0, 1.0) == (1.5, 2.5)


class TestCutNesting:
    def test_sampled_cuts_nested(self):
        rng = np.random.default_rng(9)
        for sampler in (GrfnSampler(GRFN(0.0, 1.0, 1.3)), TriangularGaussianSampler(0.0, 1.0, 2.0)):
            state = sampler.realize(rng, 64)
            alphas = np.full(64, 0.3)
            lo1, hi1 = sampler.cut_bounds(state, alphas)
            lo2, hi2 = sampler.cut_bounds(state, np.full(64, 0.8))
            assert np.all(lo1 <= lo2) and np.all(hi2 <= hi1)


_CUT_SAMPLERS = {
    "grfn": GrfnSampler(GRFN(0.3, 1.2, 0.8)),
    "vacuous-grfn": GrfnSampler(vacuous()),
    "probabilistic-grfn": GrfnSampler(GRFN(0.3, 1.2, math.inf)),
    "triangular": TriangularGaussianSampler(0.2, 1.1, 1.5),
    "triangular-a0": TriangularGaussianSampler(0.2, 1.1, 0.0),
    "lower-ray": GaussianLowerRaySampler(0.1, 0.9),
    "upper-ray": GaussianUpperRaySampler(-0.2, 1.3),
    "conditioned-interval": dempster_gaussian_rays(0.0, 1.0, 1.0, 1.0, CFG)[1],
}


class TestCutsAreLevelSets:
    """``reach`` and ``falloff`` agree: the alpha-cut is where the membership is >= alpha."""

    @pytest.mark.parametrize("name", list(_CUT_SAMPLERS))
    def test_membership_at_least_alpha_exactly_on_the_cut(self, name):
        sampler = _CUT_SAMPLERS[name]
        rng = np.random.default_rng(23)
        state = sampler.realize(rng, 2000)
        m = state[0].shape[0]
        checked = 0
        for x in rng.uniform(-6.0, 6.0, 40):
            alphas = 1.0 - rng.random(m)
            lo, hi = sampler.cut_bounds(state, alphas)
            away = (np.abs(x - lo) > 1e-12) & (np.abs(x - hi) > 1e-12)
            in_cut = (lo <= x) & (x <= hi)
            member = sampler.membership(state, float(x)) >= alphas
            assert np.array_equal(in_cut[away], member[away]), f"{name} at x={x}"
            checked += int(np.count_nonzero(away))
        assert checked > 0.99 * 40 * m

    def test_a_sampler_writes_only_realize(self):
        class UnitInterval(rs.FuzzySampler):
            def realize(self, rng, n):
                return np.zeros(n), np.ones(n)

        s = UnitInterval()
        cfg = MCConfig(seed=4, samples=1000)
        assert [e.value for e in mc_bel_pl(s, Interval(-1.0, 0.5), cfg)] == [0.0, 1.0]
        assert [mc_contour(s, x, cfg).value for x in (0.0, 0.5, 1.0, 1.5)] == [1.0, 1.0, 1.0, 0.0]
        assert [e.value for e in mc_expectation_bounds(s, cfg)] == [0.0, 1.0]
        assert mc_conflict(s, GaussianLowerRaySampler(5.0, 1e-3), cfg).value == 1.0


class TestOracleSuite:
    def test_all_checks_pass_with_default_seed(self):
        checks = oracle_suite(MCConfig(seed=42, samples=100_000))
        failed = [name for name, ref, est in checks if not est.within(ref)]
        assert failed == []
