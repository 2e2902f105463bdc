"""Tests for Gaussian random fuzzy numbers: closed forms vs independent oracles."""

import itertools
import math
import struct
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from erfs._normal import Phi, phi_over
from erfs.errors import ContradictoryEvidence, DomainError, ErfsError
from erfs.fuzzy import GFN, possibility_necessity, product
from erfs.grfn import (
    GRFN,
    TriangularGaussian,
    combine,
    combine_many,
    conflict_degree,
    effective_pair_precision,
    linear_combination,
    log_one_minus_kappa,
    vacuous,
)
from erfs.grfv import GRFV
from erfs.interval import Interval
from oracles import (
    belpl_by_cut_integration,
    contour_by_mode_integration,
    cut_halfwidth_by_integration,
    grfn_fusion_by_kalman_update,
    grfv_fusion_by_kalman_update,
    grfn_kappa_by_verbatim_formula,
    pair_precision_mp,
    random_grfn_params,
    triangular_cdf_bounds_mp,
    triangular_contour_mp,
)

mus = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
variances = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
precisions = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def grfns():
    return st.builds(GRFN, mus, variances, precisions)


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestConstructionAndKind:
    def test_vacuous_canonical_form(self):
        g = GRFN(3.0, 7.0, 0.0)
        assert (g.mu, g.sigma2, g.h) == (0.0, 1.0, 0.0)
        assert g == vacuous()

    def test_validation(self):
        with pytest.raises(DomainError):
            GRFN(0.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            GRFN(math.inf, 1.0, 1.0)
        with pytest.raises(DomainError):
            GRFN(0.0, 1.0, -2.0)


class TestContour:
    def test_at_the_mean(self):
        assert GRFN(0.0, 1.0, 1.0).contour(0.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_vacuous_is_one(self):
        assert GRFN(0.0, 1.0, 0.0).contour(123.0) == 1.0

    def test_probabilistic_is_zero(self):
        assert GRFN(2.0, 1.0, math.inf).contour(2.0) == 0.0

    def test_possibilistic_equals_membership(self):
        g = GRFN(2.0, 0.0, 3.0)
        f = GFN(2.0, 3.0)
        xs = np.linspace(-3.0, 7.0, 21)
        assert_allclose(g.contour(xs), f.membership(xs), rtol=1e-14)

    def test_against_mode_integration(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu, s2, h = random_grfn_params(rng)
            g = GRFN(mu, s2, h)
            x = mu + rng.uniform(-4.0, 4.0)
            assert g.contour(x) == pytest.approx(
                contour_by_mode_integration(mu, s2, h, x), abs=1e-9
            )

    @given(g=st.builds(GRFN, st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(min_value=0.0, allow_infinity=False),
                       st.floats(min_value=0.0)),
           x=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_contour_is_one_minus_kappa_against_the_point(self, g, x):
        # one Gaussian height: the contour at x is the height of g against the point x
        assert g.contour(x) == math.exp(log_one_minus_kappa(g, GRFN(x, 0.0, math.inf)))

    def test_tiny_precision_against_an_overflowing_offset(self):
        # -0.5 h underflows to -0.0 for the least subnormal h, and -0.0 * inf is NaN
        g = GRFN(-1.7e308, 1.0, 5e-324)
        assert g.contour(1e308) == 0.0
        np.testing.assert_array_equal(g.contour(np.array([1e308, -1.7e308])), [0.0, 1.0])

    def test_total_integral(self):
        # the contour integrates to sqrt(2 pi / h) regardless of sigma2
        for mu, s2, h in [(0.0, 1.0, 1.0), (2.0, 3.0, 0.4), (-1.0, 0.0, 2.5)]:
            g = GRFN(mu, s2, h)
            total = quad(lambda x: g.contour(x), mu - 60.0, mu + 60.0, limit=500)[0]
            assert total == pytest.approx(math.sqrt(2.0 * math.pi / h), rel=1e-8)


class TestBelPl:
    def test_vacuous(self):
        assert GRFN(0.0, 1.0, 0.0).bel_pl(Interval(-5.0, 1.0)) == (0.0, 1.0)

    def test_probabilistic_band(self):
        bel, pl = GRFN(0.0, 1.0, math.inf).bel_pl(Interval(-1.0, 1.0))
        expected = 0.6826894921370859
        assert bel == pytest.approx(expected, abs=1e-12)
        assert pl == pytest.approx(expected, abs=1e-12)

    def test_against_cut_integration(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            mu, s2, h = random_grfn_params(rng, var_range=(0.05, 4.0))
            x = mu + rng.uniform(-3.0, 0.5)
            y = x + rng.uniform(0.2, 4.0)
            g = GRFN(mu, s2, h)
            bel, pl = g.bel_pl(Interval(x, y))
            qb, qp = belpl_by_cut_integration(mu, s2, h, x, y)
            assert bel == pytest.approx(qb, abs=1e-7)
            assert pl == pytest.approx(qp, abs=1e-7)

    def test_possibilistic_equals_necessity_possibility(self):
        g = GRFN(0.3, 0.0, 1.7)
        f = GFN(0.3, 1.7)
        for b in [Interval(-1.0, 1.0), Interval(1.0, 2.0), Interval(-2.0, -1.0)]:
            pi, n = possibility_necessity(f, b)
            assert g.bel_pl(b) == pytest.approx((n, pi), abs=1e-14)

    def test_rays_are_cdf_bounds(self):
        # (-inf, 0] and, by symmetry, [0, inf) of GRFN(0, 1, 1): 1/2 -+ 1/(2 sqrt 2)
        g = GRFN(0.0, 1.0, 1.0)
        expected = (0.5 * (1.0 - 1.0 / math.sqrt(2.0)), 0.5 * (1.0 + 1.0 / math.sqrt(2.0)))
        for ray in (Interval(-math.inf, 0.0), Interval(0.0, math.inf)):
            assert g.bel_pl(ray) == pytest.approx(expected, abs=1e-13)
        assert g.bel_pl(Interval(-math.inf, math.inf)) == (1.0, 1.0)
        assert vacuous().bel_pl(Interval(-math.inf, math.inf)) == (1.0, 1.0)

    @given(mu=mus, s2=st.one_of(st.sampled_from([0.0, 5e-324]), variances),
           h=st.one_of(st.sampled_from([0.0, math.inf]), precisions), x=mus,
           w=st.floats(0.0, 5.0))
    @example(mu=0.0, s2=5e-324, h=1.0, x=0.0, w=1.0)
    @example(mu=0.0, s2=1.0, h=0.0, x=0.0, w=1.0)
    @settings(max_examples=300, deadline=None)
    def test_interval_query_law(self, mu, s2, h, x, w):
        # rays are the cdf bounds (of the mirror image for [x, inf)), at -inf and +inf too,
        # on a float and on an array, the whole line is certain, sigma2 = 0 is the GFN
        # whatever the class, and a bounded interval's plausibility is upper(y) - lower(x),
        # neither measure above that of (-inf, y]
        g, y = GRFN(mu, s2, h), x + w
        ray = g.bel_pl(Interval(-math.inf, y))
        assert _bits(ray) == _bits(g.cdf_bounds(y))
        ends = g.cdf_bounds(np.array([-math.inf, math.inf]))
        for i, end in enumerate((-math.inf, math.inf)):
            want = _bits(g.bel_pl(Interval(-math.inf, end)))
            assert want == _bits(g.cdf_bounds(end)) == _bits(v[i] for v in ends)
        mirror = GRFN(-g.mu, g.sigma2, g.h).cdf_bounds(-x)
        assert _bits(g.bel_pl(Interval(x, math.inf))) == _bits(mirror)
        assert g.bel_pl(Interval(-math.inf, math.inf)) == (1.0, 1.0)
        bel, pl = g.bel_pl(Interval(x, y))
        if s2 == 0.0:
            assert _bits((bel, pl)) == _bits(GFN(mu, h).bel_pl(Interval(x, y)))
        if 0.0 < h < math.inf:
            assert abs(pl - (g.cdf_bounds(y)[1] - g.cdf_bounds(x)[0])) <= 1e-15
            assert bel <= ray[0] + 1e-15 and pl <= ray[1] + 1e-15

    @pytest.mark.parametrize("shift", [1e3, 1e6, -1e9, 1e12])
    def test_a_large_mode_rounds_no_offset(self, shift):
        # the endpoints' offsets from mu are exact here, so the answer is the unshifted one
        b = Interval(shift - 1.0, shift + 0.5)
        shifted = GRFN(shift, 0.7, 0.3).bel_pl(b)
        assert shifted == pytest.approx(GRFN(0.0, 0.7, 0.3).bel_pl(Interval(-1.0, 0.5)), abs=1e-15)

    @given(g=grfns(), lo=mus, w1=st.floats(0.0, 5.0), w2=st.floats(0.0, 5.0))
    @settings(max_examples=150, deadline=None)
    def test_order_and_monotonicity(self, g, lo, w1, w2):
        small = Interval(lo, lo + w1)
        big = Interval(lo, lo + w1 + w2)
        bel_s, pl_s = g.bel_pl(small)
        bel_b, pl_b = g.bel_pl(big)
        assert 0.0 <= bel_s <= pl_s <= 1.0
        assert bel_s <= bel_b + 1e-12
        assert pl_s <= pl_b + 1e-12


    def test_monotone_when_one_over_sigma2_overflows(self):
        # subnormal sigma2: 1/sigma2 is inf, the ratio form would read s0 = 0
        g = GRFN(0.0, 2.2250738585e-313, 1.0)
        _, pl_point = g.bel_pl(Interval(0.0, 0.0))
        _, pl_wider = g.bel_pl(Interval(0.0, 2.225073858507203e-309))
        assert pl_point == pytest.approx(1.0, abs=1e-12)
        assert pl_point <= pl_wider + 1e-12


class TestCdfBounds:
    def test_symmetric_point(self):
        lower, upper = GRFN(0.0, 1.0, 1.0).cdf_bounds(0.0)
        assert lower == pytest.approx(0.5 * (1.0 - 1.0 / math.sqrt(2.0)), abs=1e-13)
        assert upper == pytest.approx(0.5 * (1.0 + 1.0 / math.sqrt(2.0)), abs=1e-13)

    def test_limits(self):
        g = GRFN(0.0, 1.0, 1.0)
        lower, upper = g.cdf_bounds(40.0)
        assert lower == pytest.approx(1.0, abs=1e-12)
        assert upper == pytest.approx(1.0, abs=1e-12)
        lower, upper = g.cdf_bounds(-40.0)
        assert lower == pytest.approx(0.0, abs=1e-12)
        assert upper == pytest.approx(0.0, abs=1e-12)

    def test_probabilistic_collapses_to_gaussian_cdf(self):
        g = GRFN(1.0, 4.0, math.inf)
        lower, upper = g.cdf_bounds(2.0)
        expected = 0.6914624612740131  # Phi(0.5)
        assert lower == pytest.approx(expected, abs=1e-12)
        assert upper == expected

    def test_monotone_grid(self):
        g = GRFN(0.5, 2.0, 0.7)
        ys = np.linspace(-8.0, 8.0, 161)
        lower, upper = g.cdf_bounds(ys)
        assert np.all(np.diff(lower) >= -1e-12)
        assert np.all(np.diff(upper) >= -1e-12)
        assert np.all(lower <= upper + 1e-15)

    def test_possibilistic_matches_product_example(self):
        # lower cdf of the combined possibilistic pair: 1 - membership above the mode
        g = GRFN(0.625, 0.0, 0.8)
        xs = np.array([-1.0, 0.0, 0.625, 1.0, 3.0])
        lower, upper = g.cdf_bounds(xs)
        memb = GFN(0.625, 0.8).membership(xs)
        expect_lower = np.where(xs > 0.625, 1.0 - memb, 0.0)
        expect_upper = np.where(xs <= 0.625, memb, 1.0)
        assert_allclose(lower, expect_lower, atol=1e-14)
        assert_allclose(upper, expect_upper, atol=1e-14)


# a random variable GRFN(mu, sigma2, inf): the whole float range, both infinities and NaN
_RV_MUS = [-1.7e308, -1e8, 0.0, 1.0, 1e16, 1.7e308]
_RV_VARIANCES = [5e-324, 1e-300, 1e-8, 0.5, 1.0, 4.0, 1e8, 1e300, 1.7e308]
_RV_POINTS = [-math.inf, -1.7e308, -1e300, -1e8, -1.0, 0.0, 0.5, 1.0, 1e16, 1.7e308, math.inf,
              math.nan]


@pytest.mark.parametrize("mu", _RV_MUS)
def test_random_variable_cdf_is_the_mode_cdf(mu):
    # the general path answers h = inf: h sigma2 is inf, so the contour term drops
    for s2 in _RV_VARIANCES:
        g = GRFN(mu, s2, math.inf)
        for y in _RV_POINTS:
            want = struct.pack("<d", phi_over(y - mu, math.sqrt(s2)))
            assert [struct.pack("<d", v) for v in g.cdf_bounds(y)] == [want, want], (s2, y)
        ys = np.array(_RV_POINTS)
        with np.errstate(over="ignore"):
            want = phi_over(ys - mu, math.sqrt(s2))
        for bound in g.cdf_bounds(ys):
            assert bound.tobytes() == want.tobytes(), s2


class TestPointMassCdf:
    """The point mass ``GRFN(mu, 0, inf)`` has the right-continuous cdf of its atom."""

    @pytest.mark.parametrize("g", [GRFN(1.5, 0.0, math.inf), GFN(1.5, math.inf)],
                             ids=["grfn", "gfn"])
    def test_scalar_and_array(self, g):
        assert g.cdf_bounds(1.5) == (1.0, 1.0)
        assert g.cdf_bounds(1.0) == (0.0, 0.0)
        assert g.cdf_bounds(2.0) == (1.0, 1.0)
        for bound in g.cdf_bounds(np.array([1.0, 1.5, 2.0])):
            np.testing.assert_array_equal(bound, [0.0, 1.0, 1.0])

    def test_agrees_with_belpl_necessity_and_monte_carlo(self):
        from erfs.randomset import GrfnSampler, MCConfig, mc_bel_pl

        g = GRFN(1.5, 0.0, math.inf)
        cfg = MCConfig(seed=7, samples=2_000)
        for y in (1.0, 1.5, 2.0):
            cdf = g.cdf_bounds(y)
            assert g.bel_pl(Interval(-10.0, y)) == cdf
            assert possibility_necessity(GFN(1.5, math.inf), Interval(-math.inf, y))[::-1] == cdf
            bel, pl = mc_bel_pl(GrfnSampler(g), Interval(-math.inf, y), cfg)
            assert (bel.value, pl.value) == cdf


class TestExpectationBounds:
    def test_unit_halfwidth(self):
        lo, hi = GRFN(0.0, 1.0, math.pi / 2.0).expectation_bounds()
        assert lo == pytest.approx(-1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_two_halfwidth(self):
        lo, hi = GRFN(3.0, 2.0, math.pi / 8.0).expectation_bounds()
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(5.0, abs=1e-12)

    def test_probabilistic(self):
        assert GRFN(7.0, 1.0, math.inf).expectation_bounds() == (7.0, 7.0)

    def test_vacuous_rejected(self):
        with pytest.raises(DomainError):
            vacuous().expectation_bounds()

    def test_against_cut_integration(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            mu, s2, h = random_grfn_params(rng)
            lo, hi = GRFN(mu, s2, h).expectation_bounds()
            half = cut_halfwidth_by_integration(h)
            assert lo == pytest.approx(mu - half, rel=1e-7, abs=1e-9)
            assert hi == pytest.approx(mu + half, rel=1e-7, abs=1e-9)


class TestCombine:
    def test_worked_example(self):
        f = combine(GRFN(0.0, 1.0, 1.0), GRFN(0.0, 1.0, 1.0))
        assert f.combined.mu == pytest.approx(0.0, abs=1e-14)
        assert f.combined.sigma2 == pytest.approx(0.5, abs=1e-14)
        assert f.combined.h == pytest.approx(2.0, abs=1e-14)
        assert f.kappa == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-14)
        assert f.intermediates.var1 == pytest.approx(0.75, abs=1e-14)
        assert f.intermediates.rho == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert f.intermediates.hbar == pytest.approx(0.5, abs=1e-15)

    def test_vacuous_is_neutral(self):
        g = GRFN(2.0, 3.0, 1.5)
        f = combine(g, vacuous())
        assert f.combined == g
        assert f.kappa == 0.0
        f = combine(vacuous(), g)
        assert f.combined == g
        assert f.kappa == 0.0

    def test_both_vacuous(self):
        f = combine(vacuous(), vacuous())
        assert f.combined == vacuous()
        assert f.kappa == 0.0

    def test_possibilistic_reduces_to_gfn_product(self):
        f = combine(GRFN(0.0, 0.0, 0.3), GRFN(1.0, 0.0, 0.5))
        assert f.combined.mu == pytest.approx(0.625, abs=1e-14)
        assert f.combined.sigma2 == 0.0
        assert f.combined.h == pytest.approx(0.8, abs=1e-14)
        r = product(GFN(0.0, 0.3), GFN(1.0, 0.5))
        assert f.kappa == pytest.approx(1.0 - r.height, abs=1e-14)

    @pytest.mark.parametrize("first", [True, False], ids=["random-first", "random-second"])
    def test_one_probabilistic_operand(self, first):
        # a random variable absorbs finite-precision evidence into a new Gaussian
        g, e = GRFN(1.0, 2.0, math.inf), GRFN(0.0, 1.0, 3.0)
        f = combine(g, e) if first else combine(e, g)
        denom = 1.0 + 3.0 * (2.0 + 1.0)
        assert f.combined.h == math.inf
        assert f.combined.mu == pytest.approx((1.0 * (1.0 + 3.0) + 0.0) / denom, abs=1e-14)
        assert f.combined.sigma2 == pytest.approx(2.0 * (1.0 + 3.0) / denom, abs=1e-14)

    def test_both_probabilistic_corollary(self):
        f = combine(GRFN(1.0, 4.0, math.inf), GRFN(3.0, 1.0, math.inf))
        assert f.combined.mu == pytest.approx((1.0 * 1.0 + 3.0 * 4.0) / 5.0, abs=1e-14)
        assert f.combined.sigma2 == pytest.approx(4.0 / 5.0, abs=1e-14)
        assert f.combined.h == math.inf
        assert f.kappa == 1.0

    @pytest.mark.parametrize("g1, g2", [
        # a mode times the other's variance overflows; the fused variance is subnormal
        (GRFN(1e16, 1.7e308, math.inf), GRFN(1e16, 5e-324, math.inf)),
        (GRFN(-1.7e308, 1e300, math.inf), GRFN(-1.7e308, 5e-324, math.inf)),
        # the share v1 / (v1 + v2) underflows, its product with v2 does not
        (GRFN(0.0, 1e-300, math.inf), GRFN(0.0, 1.7e308, math.inf)),
        # v1 + v2 overflows
        (GRFN(0.0, 1.7e308, math.inf), GRFN(1.0, 1.7e308, math.inf)),
    ], ids=["mode-times-variance", "mode-near-the-float-limit", "share-underflows", "variance-sum"])
    def test_two_random_variables_at_extreme_variances(self, g1, g2):
        with mpmath.workdps(50):
            (m1, v1), (m2, v2) = ((mpmath.mpf(g.mu), mpmath.mpf(g.sigma2)) for g in (g1, g2))
            mu, sigma2 = float((m1 * v2 + m2 * v1) / (v1 + v2)), float(v1 * v2 / (v1 + v2))
        for a, b in ((g1, g2), (g2, g1)):
            f = combine(a, b)
            assert f.kappa == 1.0 and f.combined.h == math.inf
            assert f.combined.mu == pytest.approx(mu, rel=1e-15)
            # 5e-324 in the first case is subnormal: an absolute floor of the smallest normal float
            assert f.combined.sigma2 == pytest.approx(sigma2, rel=1e-15, abs=2.0 ** -1022)

    def test_identical_points_agree(self):
        f = combine(GRFN(2.0, 0.0, math.inf), GRFN(2.0, 0.0, math.inf))
        assert f.combined == GRFN(2.0, 0.0, math.inf)
        assert f.kappa == 0.0

    def test_distinct_points_contradict(self):
        with pytest.raises(ContradictoryEvidence):
            combine(GRFN(0.0, 0.0, math.inf), GRFN(1.0, 0.0, math.inf))

    def test_total_conflict_raises(self):
        with pytest.raises(ContradictoryEvidence):
            combine(GRFN(-1000.0, 0.0, 10.0), GRFN(1000.0, 0.0, 10.0))

    def test_kappa_identical_possibilistic(self):
        f = combine(GRFN(1.0, 0.0, 2.0), GRFN(1.0, 0.0, 2.0))
        assert f.kappa == 0.0

    def test_kappa_matches_verbatim_bivariate_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            g1 = GRFN(*random_grfn_params(rng))
            g2 = GRFN(*random_grfn_params(rng))
            f = combine(g1, g2)
            verbatim = grfn_kappa_by_verbatim_formula(g1, g2, f.intermediates)
            assert f.kappa == pytest.approx(verbatim, abs=1e-12)
            assert 0.0 <= f.kappa <= 1.0
            assert abs(f.intermediates.rho) <= 1.0

    def test_contour_product_law(self):
        rng = np.random.default_rng(37)
        xs = np.linspace(-5.0, 5.0, 21)
        for _ in range(20):
            g1 = GRFN(*random_grfn_params(rng))
            g2 = GRFN(*random_grfn_params(rng))
            f = combine(g1, g2)
            lhs = f.combined.contour(xs) * (1.0 - f.kappa)
            rhs = g1.contour(xs) * g2.contour(xs)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    @given(a=grfns(), b=grfns())
    @settings(max_examples=150, deadline=None)
    def test_commutative(self, a, b):
        try:
            f1 = combine(a, b)
        except ContradictoryEvidence:
            with pytest.raises(ContradictoryEvidence):
                combine(b, a)
            return
        f2 = combine(b, a)
        assert f1.combined.mu == pytest.approx(f2.combined.mu, abs=1e-12)
        assert f1.combined.sigma2 == pytest.approx(f2.combined.sigma2, rel=1e-12, abs=1e-12)
        assert f1.combined.h == pytest.approx(f2.combined.h, rel=1e-12)
        assert f1.kappa == pytest.approx(f2.kappa, abs=1e-12)


class TestExtremePrecisions:
    """Precisions whose square, product or reciprocal leaves the float range."""

    @pytest.mark.parametrize("g1, g2", [
        # (h1 + h2)^2 underflows
        (GRFN(1.0, 1.0, 1e-170), GRFN(1.0, 1.0, 1e-170)),
        # h1^2 overflows, times the GFN's variance 0
        (GFN(0.0, 1e160), GRFN(0.0, 1.0, 1.0)),
        # h1 h2 overflows; kappa is about 5e-101
        (GRFN(0.0, 1e-300, 1e200), GRFN(0.0, 1e-300, 1e200)),
        (GRFN(-1.0, 2.0, 1e308), GRFN(3.0, 0.5, 1e-300)),
        # sigma1^2 sigma2^2 overflows; kappa is 1 - 1/sqrt(2)
        (GRFN(0.0, 1e160, 1e-160), GRFN(0.0, 1e160, 1e-160)),
        # sigma^2 (1 + hbar sigma^2) overflows
        (GRFN(0.0, 8e307, 1e-300), GRFN(0.0, 8e307, 1e-300)),
        # sigma1^2 + sigma2^2 overflows; log(1 - kappa) is -9.21, not -inf
        (GRFN(0.0, 1e308, 1e-300), GRFN(0.0, 1e308, 1e-300)),
        # mu (1 + hbar sigma^2) overflows
        (GRFN(1e300, 1e10, 1e10), GRFN(1e300, 1e10, 1e10)),
        # sigma1^2 sigma2^2 underflows: the pair correlation was 0, not 0.52
        (GRFN(1e-160, 1e-170, 2e170), GRFN(1.2e-160, 3e-170, 1e170)),
        # the squared weight w2^2 = 1e-340 underflows: sigma2 was 1e-300, not 1e-180
        (GRFN(0.0, 1e-300, 1e10), GRFN(0.0, 1e170, 1e-160)),
        # hbar is subnormal: 1/hbar overflows, and so would hbar/2
        (GRFN(0.0, 1e300, 1.0), GRFN(1e16, 1e-8, 5e-324)),
        # 1/hbar + sigma1^2 + sigma2^2 overflows though 1/hbar does not; kappa is 1 - 1e-14
        (GRFN(0.0, 1e308, 1e-280), GRFN(1e8, 1e308, 1e-280)),
    ], ids=["tiny", "gfn-huge", "product-overflows", "far-apart", "variance-product",
            "variance-times-precision", "variance-sum", "mode-times-precision",
            "variance-product-underflows", "weight-square-underflows", "subnormal-pair-precision",
            "innovation-variance-overflows"])
    def test_fusion_matches_the_kalman_update(self, g1, g2):
        f = combine(g1, g2)
        mu, sigma2, h, log1mk = (float(v) for v in grfn_fusion_by_kalman_update(g1, g2))
        # 5e-321 in the gfn-huge case is subnormal: an absolute floor of 1e-300
        assert f.combined.mu == pytest.approx(mu, rel=1e-12, abs=1e-300)
        assert f.combined.sigma2 == pytest.approx(sigma2, rel=1e-12, abs=1e-300)
        assert f.combined.h == pytest.approx(h, rel=1e-15)
        assert log_one_minus_kappa(g1, g2) == pytest.approx(log1mk, rel=1e-12, abs=0.0)
        assert f.kappa == pytest.approx(-math.expm1(log1mk), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("g1, g2", [
        # h sigma2 = 1e310 and the modes are 1e200 apart: -inf, not inf / inf
        (GRFN(0.0, 1e300, 1e10), GRFN(1e200, 1e300, 1e10)),
        # h1 h2 overflows: hbar is 5e307, not NaN
        (GRFN(0.0, 1.0, 1e308), GRFN(0.0, 1.0, 1e308)),
    ], ids=["offset", "product"])
    def test_total_conflict_where_intermediates_overflow(self, g1, g2):
        with pytest.raises(ContradictoryEvidence, match="rounds to 1"):
            combine(g1, g2)

    # h sigma2 overflows in the first; the pair is rejected, 1 - kappa is 8.3e-309
    OVERFLOWING_PAIR = (GRFN(0.0, 1.7e308, 1.7e308), GRFN(0.0, 1e-300, 1.7e308))

    def test_log_one_minus_kappa_where_precision_times_variance_overflows(self):
        g1, g2 = self.OVERFLOWING_PAIR
        log1mk = float(grfn_fusion_by_kalman_update(g1, g2)[3])
        assert log1mk == pytest.approx(-709.3802633, rel=1e-9)
        assert log_one_minus_kappa(g1, g2) == pytest.approx(log1mk, rel=1e-12)
        with pytest.raises(ContradictoryEvidence, match=r"-709"):
            combine(g1, g2)
        # the height at the mode, (1 + h sigma2)^(-1/2), is subnormal, not 0
        assert g1.contour(0.0) == pytest.approx(1.0 / 1.7e308, rel=1e-12, abs=0.0)

    def test_the_oracles_are_exact_where_the_library_rejects(self):
        # v1 - v1^2 / n cancels at 50 digits (7.5e-301); at w1 = w2 = 1/2 the
        # variance is (r (v1 + v2) + 4 v1 v2) / (4 n), a sum of positive terms
        g1, g2 = self.OVERFLOWING_PAIR
        with mpmath.workdps(50):
            v1, v2, r = mpmath.mpf(g1.sigma2), mpmath.mpf(g2.sigma2), 2 / mpmath.mpf(g1.h)
            exact = float((r * (v1 + v2) + 4 * v1 * v2) / (4 * (v1 + v2 + r)))
        assert exact == pytest.approx(1e-300, rel=1e-8, abs=0.0)
        sigma2 = float(grfn_fusion_by_kalman_update(g1, g2)[1])
        assert sigma2 == pytest.approx(exact, rel=1e-12, abs=0.0)
        as_vectors = [SimpleNamespace(mu=[g.mu], Sigma=[[g.sigma2]], H=[[g.h]]) for g in (g1, g2)]
        sigma = grfv_fusion_by_kalman_update(*as_vectors)[1]
        assert sigma[0, 0] == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_the_vector_oracle_keeps_a_conflict_below_the_working_precision(self):
        # 1 - kappa is 1 - 5e-171: log|N| - log|R| is a sum of log1p, not a difference of logs
        g = GRFN(1.0, 1.0, 1e-170)
        want = float(grfn_fusion_by_kalman_update(g, g)[3])
        assert want == pytest.approx(-5e-171, rel=1e-12)
        assert log_one_minus_kappa(g, g) == pytest.approx(want, rel=1e-12)
        v = GRFV([1.0], [[1.0]], [[1e-170]])
        assert grfv_fusion_by_kalman_update(v, v)[3] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_pair_precision_on_the_whole_float_range(self):
        scales = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-170, 1e-8, 0.7, 1.0, 3.0,
                  1e8, 1e160, 1e300, 1e307, 8.988465674311579e307, 1.7e308, 1.7976931348623157e308]
        rng = np.random.default_rng(12)
        scales += [float(v) for v in 10.0 ** rng.uniform(-323.0, 308.2, size=40)]
        for h1 in scales:
            for h2 in scales:
                got = effective_pair_precision(h1, h2)
                ref = pair_precision_mp(h1, h2)
                assert 0.0 < got < math.inf and got == effective_pair_precision(h2, h1)
                assert abs(got - ref) <= 2 * math.ulp(float(ref)), (h1, h2)


class TestFusionLattice:
    """Every pair of a fixed magnitude lattice against the 50-digit Kalman update."""

    MUS = (-1e8, 0.0, 1e16)
    SIGMA2S = (0.0, 5e-324, 1e-300, 1e-8, 1.0, 1e300, 1.7e308)
    HS = (5e-324, 1e-300, 1.0, 1e160, 1.7e308)

    def test_every_pair_matches_the_kalman_update(self):
        gs = [GRFN(m, s, h) for m in self.MUS for s in self.SIGMA2S for h in self.HS]
        accepted = 0
        for g1, g2 in itertools.product(gs, gs):
            mu, sigma2, h, log1mk = (float(v) for v in grfn_fusion_by_kalman_update(g1, g2))
            try:
                f = combine(g1, g2)
            except ContradictoryEvidence:
                assert log1mk < math.log(1e-15) + 1e-12, (g1, g2)
                continue
            accepted += 1
            assert abs(f.combined.mu - mu) <= 1e-12 * max(abs(g1.mu), abs(g2.mu)), (g1, g2)
            assert abs(f.combined.sigma2 - sigma2) <= 1e-12 * sigma2, (g1, g2)
            assert f.combined.h == pytest.approx(h, rel=1e-15)
            assert abs(f.kappa + math.expm1(log1mk)) <= 1e-12, (g1, g2)
        assert accepted == 7539


class TestConflictDegree:
    def test_nan_is_a_typed_error(self):
        # an overflowing closed form leaves NaN; it must not print kappa = NaN
        with pytest.raises(DomainError, match="NaN"):
            conflict_degree(math.nan)

    def test_cutoff(self):
        with pytest.raises(ContradictoryEvidence):
            conflict_degree(-math.inf)
        with pytest.raises(ContradictoryEvidence):
            conflict_degree(math.log(1e-15))
        assert conflict_degree(0.0) == 0.0
        assert conflict_degree(math.log(0.25)) == pytest.approx(0.75, rel=1e-15)


class TestCombineMany:
    def test_single(self):
        g = GRFN(1.0, 2.0, 3.0)
        assert combine_many([g]) == g

    def test_neutral_in_the_middle(self):
        g1, g2 = GRFN(0.0, 1.0, 1.0), GRFN(1.0, 2.0, 0.5)
        direct = combine(g1, g2).combined
        with_vac = combine_many([g1, vacuous(), g2])
        assert with_vac.mu == pytest.approx(direct.mu, abs=1e-14)
        assert with_vac.sigma2 == pytest.approx(direct.sigma2, abs=1e-14)
        assert with_vac.h == pytest.approx(direct.h, abs=1e-14)

    def test_fold_order_invariance(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            gs = [GRFN(*random_grfn_params(rng)) for _ in range(3)]
            left = combine_many(gs)
            right = combine(gs[0], combine(gs[1], gs[2]).combined).combined
            assert left.mu == pytest.approx(right.mu, abs=1e-9)
            assert left.sigma2 == pytest.approx(right.sigma2, abs=1e-9)
            assert left.h == pytest.approx(right.h, abs=1e-9)
            reversed_fold = combine_many(gs[::-1])
            assert left.mu == pytest.approx(reversed_fold.mu, abs=1e-9)
            assert left.sigma2 == pytest.approx(reversed_fold.sigma2, abs=1e-9)
            assert left.h == pytest.approx(reversed_fold.h, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            combine_many([])


class TestLinearCombination:
    def test_sum(self):
        out = linear_combination([(1.0, GRFN(1.0, 1.0, 4.0)), (1.0, GRFN(2.0, 1.0, 4.0))])
        assert out == GRFN(3.0, 2.0, 1.0)

    def test_scaling(self):
        out = linear_combination([(2.0, GRFN(1.0, 1.0, 4.0))])
        assert out == GRFN(2.0, 4.0, 1.0)

    def test_identity(self):
        g = GRFN(1.5, 0.5, 2.5)
        out = linear_combination([(1.0, g)])
        assert out.mu == pytest.approx(g.mu, abs=1e-15)
        assert out.sigma2 == pytest.approx(g.sigma2, abs=1e-15)
        assert out.h == pytest.approx(g.h, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            linear_combination([])
        with pytest.raises(DomainError):
            linear_combination([(1.0, vacuous())])
        with pytest.raises(DomainError):
            linear_combination([(1.0, GRFN(0.0, 1.0, math.inf))])
        with pytest.raises(DomainError):
            linear_combination([(0.0, GRFN(0.0, 1.0, 1.0))])


class TestJson:
    def test_round_trip(self):
        g = GRFN(0.123456789012345, 2.5, 0.75)
        assert GRFN.from_dict(g.to_dict()) == g

    def test_infinite_precision(self):
        g = GRFN(1.0, 2.0, math.inf)
        d = g.to_dict()
        assert d["h"] == "inf"
        assert GRFN.from_dict(d) == g

    def test_errors_name_fields(self):
        with pytest.raises(DomainError, match="sigma2"):
            GRFN.from_dict({"mu": 0.0, "h": 1.0})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_float_is_refused(self, value):
        # "inf" is the one infinite spelling; a float inf comes from JSON's 1e400 or Infinity
        with pytest.raises(DomainError, match="field 'h' must be a finite number or \"inf\""):
            GRFN.from_dict({"mu": 0.0, "sigma2": 1.0, "h": value})


# parameter extremes: h in {0, tiny, huge, inf}, sigma2 in {0, tiny, huge}
extreme_h = st.sampled_from([0.0, 5e-324, 1e-300, 1e-3, 1.0, 1e300, 1e308, math.inf])
extreme_s2 = st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, 1e308])
extreme_mu = st.sampled_from([0.0, -2.5, 1e10, -1e308, 1e308])
points = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _outcome(fn):
    """The result of ``fn()``, or the type of the erfs error it raises."""
    try:
        return fn()
    except ErfsError as exc:
        return type(exc)


class TestScalarArrayAgreement:
    """A float goes through ``math``, an array through numpy (``Phi`` maps
    ``math.erfc``): one formula, so the two paths agree to rounding."""

    @given(mu=extreme_mu, s2=extreme_s2, h=extreme_h, x=points)
    @settings(max_examples=400, deadline=None)
    def test_contour_and_cdf_bounds(self, mu, s2, h, x):
        g = _outcome(lambda: GRFN(mu, s2, h))
        if isinstance(g, type):
            return
        scalar = _outcome(lambda: (g.contour(x), *g.cdf_bounds(x)))
        array = _outcome(lambda: (g.contour(np.array([x]))[0],
                                  *(v[0] for v in g.cdf_bounds(np.array([x])))))
        if isinstance(scalar, type) or isinstance(array, type):
            assert scalar == array
            return
        assert all(type(v) is float and math.isfinite(v) for v in scalar)
        assert np.max(np.abs(np.subtract(scalar, array))) <= 1e-15
        contour, lower, upper = scalar
        assert 0.0 <= contour <= 1.0
        assert 0.0 <= lower <= upper <= 1.0

    @given(mu=extreme_mu, s2=extreme_s2, h=extreme_h, x=points,
           w=st.floats(min_value=0.0, max_value=1e6))
    @settings(max_examples=400, deadline=None)
    def test_bel_pl_finite_and_ordered(self, mu, s2, h, x, w):
        g = GRFN(mu, s2, h)
        bel, pl = g.bel_pl(Interval(x, x + w))
        assert type(bel) is float and type(pl) is float
        assert 0.0 <= bel <= pl <= 1.0
        assert (bel, pl) == g.bel_pl(Interval(np.float64(x), np.float64(x + w)))

    def test_float64_inputs_return_python_floats(self):
        g = GRFN(0.3, 1.2, 0.8)
        x = np.float64(0.7)
        assert type(g.contour(x)) is float
        assert all(type(v) is float for v in g.cdf_bounds(x))
        assert all(type(v) is float for v in g.bel_pl(Interval(x, x + 1.0)))
        assert g.contour(x) == g.contour(0.7)
        assert g.cdf_bounds(x) == g.cdf_bounds(0.7)

    def test_zero_dim_array_returns_floats(self):
        g = GRFN(0.3, 1.2, 0.8)
        assert type(g.contour(np.asarray(0.7))) is float
        assert all(type(v) is float for v in g.cdf_bounds(np.asarray(0.7)))


class TestOverflowingPrecisionTimesVariance:
    """``h * sigma2`` overflows to inf: the answers stay finite and correct."""

    g = GRFN(1e308, 1e308, 1e308)

    def test_float_path(self):
        assert self.g.contour(0.0) == 0.0
        assert self.g.cdf_bounds(0.0) == (0.0, 0.0)
        assert self.g.bel_pl(Interval(-1.0, 1.0)) == (0.0, 0.0)

    def test_array_path(self):
        xs = np.array([-1e300, 0.0, 1e308])
        assert np.all(np.isfinite(self.g.contour(xs)))
        lower, upper = self.g.cdf_bounds(xs)
        assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
        assert_allclose(lower, [0.0, 0.0, 0.5], atol=1e-15)
        assert_allclose(upper, [0.0, 0.0, 0.5], atol=1e-15)

    def test_bel_pl_takes_the_limit_not_the_overflow(self):
        # h sigma2 = 1e310 overflows, yet s0 = 1/sqrt(h) = 1e-5 is ordinary:
        # bel_pl is continuous in sigma2 across the overflow
        b = Interval(-2e-5, 3e-5)
        big = GRFN(0.0, 1e300, 1e10).bel_pl(b)
        near = GRFN(0.0, 1e298, 1e10).bel_pl(b)
        assert all(math.isfinite(v) for v in big)
        assert big == pytest.approx(near, abs=1e-12)


class TestCdfBoundsWhenTheOffsetOverflowsToo:
    """``h * sigma2`` and ``y - mu`` both overflow: the limit, not ``0 * NaN``."""

    g = GRFN(1e308, 1e308, 1e308)

    def test_float_path(self):
        assert self.g.cdf_bounds(-1e308) == (0.0, 0.0)
        assert self.g.cdf_bounds(1e308) == (0.5, 0.5)

    def test_array_path(self):
        lower, upper = self.g.cdf_bounds(np.array([-1e308, -1e300, 0.0, 1e308]))
        np.testing.assert_array_equal(lower, [0.0, 0.0, 0.0, 0.5])
        np.testing.assert_array_equal(upper, [0.0, 0.0, 0.0, 0.5])


class TestTriangularGaussian:
    def test_validated_when_built(self):
        for args, message in [((0.0, -1.0, 1.0), "sigma must be positive"),
                              ((0.0, 0.0, 1.0), "sigma must be positive"),
                              ((0.0, math.nan, 1.0), "sigma must be positive"),
                              ((0.0, 1.0, -1.0), "a must be nonnegative"),
                              ((0.0, 1.0, math.nan), "a must be nonnegative"),
                              ((math.nan, 1.0, 1.0), "mu must be finite"),
                              ((math.inf, 1.0, 1.0), "mu must be finite"),
                              ((0.0, math.inf, 1.0), "must be finite"),
                              ((0.0, 1.0, math.inf), "must be finite")]:
            with pytest.raises(DomainError, match=message):
                TriangularGaussian(*args)

    def test_zero_halfwidth_is_the_random_variable(self):
        t = TriangularGaussian(0.2, 0.7, 0.0)
        assert t.contour(0.2) == 0.0
        lower, upper = t.cdf_bounds(0.9)
        assert lower == upper == GRFN(0.2, 0.49, math.inf).cdf_bounds(0.9)[0]
        assert t.expectation_bounds() == (0.2, 0.2)

    # y - mu far above a, or a far below sigma: both bounds are Phi((y - mu) / sigma)
    # exactly, where the ungrouped ((d + a) / a) Phi(z+) - (d / a) Phi(z0) cancels
    # two terms of size d / a
    @pytest.mark.parametrize("mu, sigma, a, y, want", [
        (0.0, 1e-8, 1e-8, 1.0, 1.0),
        (0.0, 5e-324, 1e-8, 1.0, 1.0),
        (0.0, 1e-300, 1e-8, 1.0, 1.0),
        (0.0, 1e-170, 1e-8, 1.0, 1.0),
        (0.0, 1e160, 1e-8, 1.0, 0.5),
        (0.0, 1e300, 1e-8, 1.0, 0.5),
        (0.0, 1e160, 1e8, 1.0, 0.5),
        (0.0, 1.7e308, 1e8, 1.0, 0.5),
        (-1e8, 5e-324, 1e-300, 0.0, 1.0),
        (1e16, 1e160, 1e-8, 0.0, 0.5),
        (0.0, 1.0, 1e-300, 1.0, 0.5 * math.erfc(-1.0 / math.sqrt(2.0))),
    ])
    def test_cdf_bounds_do_not_cancel(self, mu, sigma, a, y, want):
        assert TriangularGaussian(mu, sigma, a).cdf_bounds(y) == (want, want)
        lower, upper = TriangularGaussian(mu, sigma, a).cdf_bounds(np.array([y, y]))
        np.testing.assert_array_equal(lower, [want, want])
        np.testing.assert_array_equal(upper, [want, want])

    @pytest.mark.parametrize("ratio", [1e-6, 1e-4, 1e-2, 1.0])
    def test_cdf_bounds_against_a_50_digit_integral(self, ratio):
        # the error left grows like eps / ratio; the ungrouped form had about 3x it
        for mu, sigma in ((0.0, 1.0), (2.5, 7.0)):
            t = TriangularGaussian(mu, sigma, ratio * sigma)
            for k in range(-10, 11):
                y = mu + 0.4 * k * sigma
                want = triangular_cdf_bounds_mp(mu, sigma, ratio * sigma, y)
                assert t.cdf_bounds(y) == pytest.approx(want, rel=0.0, abs=5e-16 / ratio)

    @pytest.mark.parametrize("mu, sigma, a, y", [
        (-1.7e308, 1.7e308, 1e300, 0.0),
        (-1e8, 1e8, 1.0, 1.0),
        (-1e8, 1e8, 1e-8, 1.0),
        (0.0, 1e300, 1e8, 1.0),
    ])
    def test_cdf_bounds_straddle_the_mode_cdf(self, mu, sigma, a, y):
        # lower <= Phi((y - mu) / sigma) <= upper holds exactly; rounding broke lower <= upper
        p0 = 0.5 * math.erfc(-((y - mu) / sigma) / math.sqrt(2.0))
        lower, upper = TriangularGaussian(mu, sigma, a).cdf_bounds(y)
        assert 0.0 <= lower <= p0 <= upper <= 1.0

    def test_dict_round_trip(self):
        t = TriangularGaussian(0.5, 1.2, 0.8)
        assert TriangularGaussian.from_dict(t.to_dict()) == t
        with pytest.raises(DomainError, match="'a'"):
            TriangularGaussian.from_dict({"mu": 0.0, "sigma": 1.0, "a": None})


class TestTriangularWithALargeMode:
    """``x - mu`` is formed first, so ``a`` is not rounded away against ``mu``."""

    big = TriangularGaussian(1e16, 1.0, 1.0)
    centred = TriangularGaussian(0.0, 1.0, 1.0)

    def test_float_path(self):
        lower, upper = self.big.cdf_bounds(1e16)
        assert (lower, upper) == self.centred.cdf_bounds(0.0)
        assert lower == pytest.approx(0.3156, abs=1e-4) and upper == pytest.approx(0.6844, abs=1e-4)
        assert self.big.contour(1e16) == self.centred.contour(0.0) > 0.0

    def test_array_path(self):
        offsets = np.array([-2.0, 0.0, 2.0])  # 1e16 + offsets is exact
        lower, upper = self.big.cdf_bounds(1e16 + offsets)
        want_lower, want_upper = self.centred.cdf_bounds(offsets)
        np.testing.assert_array_equal(lower, want_lower)
        np.testing.assert_array_equal(upper, want_upper)
        np.testing.assert_array_equal(self.big.contour(1e16 + offsets), self.centred.contour(offsets))


class TestTriangularWhenTheOffsetOverflows:
    """``x -+ a - mu`` overflows: the finite limit, not ``inf * 0``."""

    t = TriangularGaussian(1e308, 1.0, 1.0)

    def test_float_path(self):
        assert self.t.contour(-1e308) == 0.0
        assert self.t.cdf_bounds(-1e308) == (0.0, 0.0)
        far_left = TriangularGaussian(-1e308, 1.0, 1.0)
        assert far_left.contour(1e308) == 0.0
        assert far_left.cdf_bounds(1e308) == (1.0, 1.0)
        # only the ratio (x - mu) / a overflows
        assert TriangularGaussian(0.0, 1.0, 0.5).cdf_bounds(-1e308) == (0.0, 0.0)

    def test_array_path(self):
        xs = np.array([-1e308, -1.7e308, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            contour = self.t.contour(xs)
            lower, upper = self.t.cdf_bounds(xs)
        np.testing.assert_array_equal(contour, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(lower, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(upper, [0.0, 0.0, 0.0])

    def test_float_and_array_paths_agree(self):
        t = TriangularGaussian(0.3, 0.8, 1.2)
        xs = np.linspace(-6.0, 6.0, 41)
        lower, upper = t.cdf_bounds(xs)
        for i, x in enumerate(xs):
            assert t.contour(float(x)) == pytest.approx(t.contour(xs)[i], abs=1e-15)
            assert t.cdf_bounds(float(x)) == pytest.approx((lower[i], upper[i]), abs=1e-15)


# a/sigma on both sides of the series' switch at 0.1; z0 in the body and the tails
_SIDE_RATIOS = (1e-16, 1e-12, 1e-8, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 1.0, 3.0)
_BODY = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0)
_TAILS = (20.0, 30.0, 37.0)


class TestTriangularSideMasses:
    """The contour and both cdf bounds are ``Phi(z0)`` and two side masses."""

    @pytest.mark.parametrize("ratio", _SIDE_RATIOS)
    def test_against_50_digit_side_integrals(self, ratio):
        # in the tails the rounding of Phi's and phi's arguments (about z0^2 eps), times the
        # side masses' cancellation, leaves up to 1.1e-10
        t = TriangularGaussian(0.0, 1.0, ratio)
        for zs, rel in ((_BODY, 2e-11), (_TAILS, 1e-9)):
            zs = np.array([s * z for z in zs for s in (1.0, -1.0)])
            want = np.array([[triangular_contour_mp(0.0, 1.0, ratio, z),
                              *triangular_cdf_bounds_mp(0.0, 1.0, ratio, z)] for z in zs])
            for got in (np.array([[t.contour(z), *t.cdf_bounds(z)] for z in zs.tolist()]),
                        np.column_stack([t.contour(zs), *t.cdf_bounds(zs)])):
                assert_allclose(got, want, rtol=rel, atol=1e-300)

    def test_small_ratios_do_not_cancel(self):
        # a/sigma 1e-12 and 1e-16 once gave 8.3e-5 and 0.555 for contours near 1e-13 and 1e-17
        assert TriangularGaussian(0.0, 1.0, 1e-12).contour(1.0) == pytest.approx(2.4197e-13, rel=1e-4)
        wide = TriangularGaussian(-1e8, 1e8, 1e-8)
        assert wide.contour(-8.0) == 2.4197074387680132e-17
        assert wide.cdf_bounds(0.0) == (0.8413447460685429, 0.8413447460685429)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2 ** 20, 2 ** 20), st.integers(0, 2 ** 16),
           st.sampled_from([0.25, 0.7, 1.0, 3.0]),
           st.sampled_from([0.0, 1e-16, 1e-8, 1e-3, 0.05, 0.0999, 0.1, 0.3, 1.0, 3.0, 50.0]))
    @example(0, 12 * 1024, 1.0, 1.0)
    def test_laws(self, mu_units, d_units, sigma, ratio):
        # mu -+ d are multiples of 2^-10 below 2^11: exact, so x - mu is -+d exactly
        mu, d = mu_units / 1024.0, d_units / 1024.0
        t = TriangularGaussian(mu, sigma, ratio * sigma)
        contour = t.contour(mu + d)
        assert contour == t.contour(mu - d)
        lower, upper = t.cdf_bounds(mu + d)
        p0 = Phi(d / sigma)
        assert 0.0 <= lower <= p0 <= upper <= 1.0
        assert abs((upper - lower) - contour) <= 4 * 2.0 ** -52 * upper
