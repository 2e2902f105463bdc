"""Tests for the Gaussian fuzzy number/vector algebra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import erfs
from erfs import fuzzy, grfn
from erfs.errors import ContradictoryEvidence, DomainError, NotPositiveDefinite
from erfs.fuzzy import (
    GFN,
    GFV,
    linear_combination,
    possibility_necessity,
    product,
)
from erfs.grfn import GRFN, combine, log_one_minus_kappa
from erfs.interval import Interval, WHOLE_LINE

modes = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
precisions = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def gfns():
    return st.builds(GFN, modes, precisions)


class TestMembership:
    def test_value_at_mode_is_one(self):
        assert GFN(0.0, 1.0).membership(0.0) == 1.0

    def test_direct_evaluation(self):
        # exp(-h/2 (x-m)^2) with h=2, x-m=1
        assert GFN(0.0, 2.0).membership(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_zero_precision_is_maximally_imprecise(self):
        g = GFN(5.0, 0.0)
        assert g.membership(-100.0) == 1.0
        assert np.all(g.membership(np.linspace(-1e6, 1e6, 7)) == 1.0)

    def test_infinite_precision_is_the_crisp_point(self):
        g = GFN(5.0, math.inf)
        assert g.membership(4.0) == 0.0
        assert g.membership(5.0) == 1.0

    def test_vectorized(self):
        g = GFN(1.0, 3.0)
        xs = np.array([-1.0, 1.0, 2.0])
        assert_allclose(g.membership(xs), [math.exp(-6.0), 1.0, math.exp(-1.5)], rtol=1e-14)


class TestGfnIsGrfn:
    """A GFN is the GRFN with sigma2 = 0: same contour, closed forms and fusion."""

    def test_subclass_and_aliases(self):
        g = GFN(1.5, 2.0)
        assert isinstance(g, GRFN) and type(g) is GFN
        assert erfs.GFN is fuzzy.GFN is grfn.GFN is GFN and GFN.__module__ == "erfs.grfn"
        assert (g.mu, g.sigma2, g.h) == (1.5, 0.0, 2.0)
        assert (g.mode, g.precision) == (1.5, 2.0)
        xs = np.array([-1.0, 1.5, 4.0])
        np.testing.assert_array_equal(g.membership(xs), GRFN(1.5, 0.0, 2.0).contour(xs))
        assert g.cdf_bounds(2.0) == GRFN(1.5, 0.0, 2.0).cdf_bounds(2.0)
        assert g.to_dict() == {"mode": 1.5, "precision": 2.0}

    def test_vacuous_takes_the_canonical_form(self):
        g = GFN(5.0, 0.0)
        assert g == GFN(0.0, 0.0) and g.mode == 0.0 and g.is_vacuous
        assert g.to_dict() == {"mode": 0.0, "precision": 0.0}

    @given(a=st.one_of(gfns(), st.builds(GFN, modes, st.sampled_from([0.0, math.inf]))),
           b=gfns())
    @settings(max_examples=100, deadline=None)
    def test_product_is_the_combination_without_its_cutoff(self, a, b):
        r = product(a, b)
        assert r.height == math.exp(log_one_minus_kappa(a, b))
        try:
            f = combine(a, b)
        except ContradictoryEvidence:
            assert r.height < 1e-15
            return
        assert type(r.product) is GFN and type(f.combined) is GRFN
        assert (r.product.mode, r.product.precision) == (f.combined.mu, f.combined.h)


class TestValidation:
    def test_negative_precision_rejected(self):
        with pytest.raises(DomainError):
            GFN(0.0, -1.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            GFN(math.nan, 1.0)
        with pytest.raises(DomainError):
            GFN(0.0, math.nan)


class TestProduct:
    def test_worked_example(self):
        r = product(GFN(0.0, 0.3), GFN(1.0, 0.5))
        assert r.product.mode == pytest.approx(0.625, abs=1e-12)
        assert r.product.precision == pytest.approx(0.8, abs=1e-12)

    def test_worked_example_height(self):
        # hbar = 0.3*0.5/0.8 = 0.1875, height = exp(-hbar/2)
        r = product(GFN(0.0, 0.3), GFN(1.0, 0.5))
        assert r.height == pytest.approx(math.exp(-0.09375), rel=1e-14)

    def test_coincident_modes(self):
        r = product(GFN(2.0, 1.5), GFN(2.0, 1.5))
        assert r.product == GFN(2.0, 3.0)
        assert r.height == 1.0

    def test_zero_precision_neutral(self):
        g = GFN(3.0, 2.0)
        assert product(g, GFN(9.0, 0.0)).product == g
        assert product(GFN(9.0, 0.0), g).product == g
        assert product(g, GFN(9.0, 0.0)).height == 1.0

    def test_both_vacuous(self):
        r = product(GFN(5.0, 0.0), GFN(9.0, 0.0))
        assert r.product.precision == 0.0
        assert r.height == 1.0

    def test_crisp_same_mode(self):
        r = product(GFN(1.0, math.inf), GFN(1.0, math.inf))
        assert r.product == GFN(1.0, math.inf)
        assert r.height == 1.0

    def test_crisp_distinct_modes_contradictory(self):
        with pytest.raises(ContradictoryEvidence):
            product(GFN(0.0, math.inf), GFN(1.0, math.inf))

    def test_crisp_with_finite(self):
        r = product(GFN(1.0, math.inf), GFN(0.0, 2.0))
        assert r.product == GFN(1.0, math.inf)
        assert r.height == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_distant_modes_underflow_to_zero_height(self):
        r = product(GFN(-500.0, 10.0), GFN(500.0, 10.0))
        assert r.height == 0.0
        assert r.product.precision == 20.0

    @given(a=gfns(), b=gfns())
    @settings(max_examples=150, deadline=None)
    def test_commutative(self, a, b):
        r1, r2 = product(a, b), product(b, a)
        assert r1.product.mode == pytest.approx(r2.product.mode, abs=1e-12)
        assert r1.product.precision == pytest.approx(r2.product.precision, rel=1e-12)
        assert r1.height == pytest.approx(r2.height, rel=1e-12, abs=1e-300)

    @given(a=gfns(), b=gfns(), c=gfns())
    @settings(max_examples=150, deadline=None)
    def test_associative_parameters(self, a, b, c):
        left = product(product(a, b).product, c).product
        right = product(a, product(b, c).product).product
        assert left.mode == pytest.approx(right.mode, abs=1e-9)
        assert left.precision == pytest.approx(right.precision, rel=1e-12)

    @given(a=gfns(), b=gfns(), x=modes)
    @settings(max_examples=150, deadline=None)
    def test_unnormalized_product_identity(self, a, b, x):
        """membership(a) * membership(b) == height * membership(product)."""
        r = product(a, b)
        lhs = a.membership(x) * b.membership(x)
        rhs = r.height * r.product.membership(x)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestAlphaCut:
    def test_unit_radius(self):
        cut = GFN(0.0, 2.0).alpha_cut(math.exp(-1.0))
        assert cut.lo == pytest.approx(-1.0, abs=1e-12)
        assert cut.hi == pytest.approx(1.0, abs=1e-12)

    def test_alpha_one_is_the_mode(self):
        assert GFN(7.0, 5.0).alpha_cut(1.0) == Interval(7.0, 7.0)

    def test_double_radius(self):
        cut = GFN(0.0, 2.0).alpha_cut(math.exp(-4.0))
        assert cut.lo == pytest.approx(-2.0, abs=1e-12)
        assert cut.hi == pytest.approx(2.0, abs=1e-12)

    def test_crisp_cut_is_the_point(self):
        assert GFN(3.0, math.inf).alpha_cut(0.5) == Interval(3.0, 3.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            GFN(0.0, 0.0).alpha_cut(0.5)
        with pytest.raises(DomainError):
            GFN(0.0, 1.0).alpha_cut(0.0)
        with pytest.raises(DomainError):
            GFN(0.0, 1.0).alpha_cut(1.5)

    @given(g=gfns(), a1=st.floats(1e-6, 1.0), a2=st.floats(1e-6, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_cuts_are_nested(self, g, a1, a2):
        lo, hi = sorted([a1, a2])
        outer, inner = g.alpha_cut(lo), g.alpha_cut(hi)
        assert outer.lo <= inner.lo <= inner.hi <= outer.hi


class TestLinearCombination:
    def test_sum_of_two(self):
        assert linear_combination([(1.0, GFN(1.0, 4.0)), (1.0, GFN(2.0, 4.0))]) == GFN(3.0, 1.0)

    def test_scalar_rule(self):
        assert linear_combination([(2.0, GFN(1.0, 4.0))]) == GFN(2.0, 1.0)

    def test_identity(self):
        g = GFN(1.3, 2.7)
        out = linear_combination([(1.0, g)])
        assert out.mode == pytest.approx(g.mode, abs=1e-15)
        assert out.precision == pytest.approx(g.precision, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            linear_combination([])
        with pytest.raises(DomainError):
            linear_combination([(1.0, GFN(0.0, 0.0))])
        with pytest.raises(DomainError):
            linear_combination([(1.0, GFN(0.0, math.inf))])
        with pytest.raises(DomainError):
            linear_combination([(0.0, GFN(0.0, 1.0))])


class TestPossibilityNecessity:
    def test_mode_inside(self):
        pi, n = possibility_necessity(GFN(0.0, 1.0), Interval(-1.0, 1.0))
        assert pi == 1.0
        assert n == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)

    def test_mode_outside(self):
        pi, n = possibility_necessity(GFN(0.0, 1.0), Interval(1.0, 2.0))
        assert pi == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert n == 0.0

    def test_whole_line(self):
        assert possibility_necessity(GFN(0.0, 1.0), WHOLE_LINE) == (1.0, 1.0)

    def test_vacuous(self):
        pi, n = possibility_necessity(GFN(0.0, 0.0), Interval(3.0, 4.0))
        assert pi == 1.0 and n == 0.0

    def test_crisp(self):
        pi, n = possibility_necessity(GFN(1.0, math.inf), Interval(1.0, 2.0))
        assert (pi, n) == (1.0, 1.0)
        pi, n = possibility_necessity(GFN(0.0, math.inf), Interval(1.0, 2.0))
        assert (pi, n) == (0.0, 0.0)

    def test_ray_query(self):
        pi, n = possibility_necessity(GFN(0.0, 2.0), Interval(1.0, math.inf))
        assert pi == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert n == 0.0

    @given(g=gfns(), lo=modes, width=st.floats(0.0, 10.0))
    @settings(max_examples=150, deadline=None)
    def test_duality_and_order(self, g, lo, width):
        b = Interval(lo, lo + width)
        pi, n = possibility_necessity(g, b)
        assert 0.0 <= n <= pi <= 1.0
        # N(B) = 1 - max possibility over the two complement rays
        rays = b.complement_rays()
        pi_c = max(possibility_necessity(g, r)[0] for r in rays)
        assert n == pytest.approx(1.0 - pi_c, abs=1e-12)

    @given(mode=modes, h=st.one_of(st.sampled_from([0.0, math.inf]), precisions), lo=modes,
           width=st.floats(0.0, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_gfn_bel_pl_is_the_grfn_closed_form(self, mode, h, lo, width):
        # a GFN owns its bel_pl: on a bounded interval it is GRFN.bel_pl bit for
        # bit, on a ray (-inf, y] the cdf bounds, on [y, inf) those of the mirror image
        g = GFN(mode, h)
        b = Interval(lo, lo + width)
        if 0.5 * b.lo + 0.5 * b.hi == g.mode:
            # GRFN.bel_pl's unit step is 1/2 at the mode: it averages the two endpoint
            # memberships, equal but for rounding, where GFN.bel_pl takes the larger
            assert g.bel_pl(b) == pytest.approx(GRFN.bel_pl(g, b), abs=1e-12)
        else:
            assert _bits(g.bel_pl(b)) == _bits(GRFN.bel_pl(g, b))
        assert _bits(possibility_necessity(g, b)) == _bits(g.bel_pl(b)[::-1])
        assert _bits(g.bel_pl(Interval(-math.inf, lo))) == _bits(GRFN(mode, 0.0, h).cdf_bounds(lo))
        assert _bits(g.bel_pl(Interval(lo, math.inf))) == _bits(GRFN(-mode, 0.0, h).cdf_bounds(-lo))


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestGfvProduct:
    def test_coincident_modes(self):
        h1 = np.array([[2.0, 0.3], [0.3, 1.0]])
        h2 = np.array([[1.0, -0.2], [-0.2, 3.0]])
        r = product(GFV([1.0, -1.0], h1), GFV([1.0, -1.0], h2))
        assert r.height == pytest.approx(1.0, abs=1e-14)
        assert_allclose(r.product.precision, h1 + h2, rtol=1e-14)

    def test_identity_matrices(self):
        r = product(GFV([0.0, 0.0], np.eye(2)), GFV([1.0, 0.0], np.eye(2)))
        assert_allclose(r.product.mode, [0.5, 0.0], atol=1e-14)
        assert_allclose(r.product.precision, 2.0 * np.eye(2), atol=1e-14)
        assert r.height == pytest.approx(math.exp(-0.25), rel=1e-13)

    def test_one_dimensional_reduction(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            m1, m2 = rng.uniform(-5, 5, size=2)
            h1, h2 = rng.uniform(0.05, 8.0, size=2)
            rv = product(GFV([m1], [[h1]]), GFV([m2], [[h2]]))
            rn = product(GFN(m1, h1), GFN(m2, h2))
            assert rv.product.mode[0] == pytest.approx(rn.product.mode, abs=1e-12)
            assert rv.product.precision[0, 0] == pytest.approx(rn.product.precision, rel=1e-12)
            assert rv.height == pytest.approx(rn.height, rel=1e-11)

    def test_requires_positive_definite(self):
        # the contract is H1 + H2 positive definite; either precision may be singular
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NotPositiveDefinite, match="H1 \\+ H2"):
            product(GFV([0.0, 0.0], singular), GFV([0.0, 0.0], singular))
        r = product(GFV([1.0, 0.0], singular), GFV([0.0, 0.0], np.eye(2)))
        assert_allclose(r.product.precision, singular + np.eye(2), rtol=1e-15)
        # Hbar = singular (singular + I)^-1 = singular / 3: d^T Hbar d = 1/3
        assert r.height == pytest.approx(math.exp(-1.0 / 6.0), rel=1e-14)
        assert_allclose(r.product.mode, [1.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            product(GFV([0.0], [[1.0]]), GFV([0.0, 0.0], np.eye(2)))

    def test_overflowing_quadratic_form_is_a_typed_error(self):
        # d^T Hbar d is >= 0 in exact arithmetic; here it overflows to -inf
        a = GFV([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
        b = GFV([1e300, -1e300], 1e10 * np.eye(2))
        with np.errstate(all="raise"), pytest.raises(DomainError, match="quadratic form"):
            product(a, b)

    def test_mixed_types_rejected(self):
        with pytest.raises(DomainError):
            product(GFN(0.0, 1.0), GFV([0.0], [[1.0]]))


class TestGfvProjectExtend:
    def test_block_diagonal_projection(self):
        h = np.diag([2.0, 3.0, 4.0])
        g = GFV([1.0, 2.0, 3.0], h).project(2)
        assert_allclose(g.precision, np.diag([2.0, 3.0]), atol=1e-14)
        assert_allclose(g.mode, [1.0, 2.0])

    def test_schur_complement(self):
        g = GFV([0.0, 0.0], [[2.0, 1.0], [1.0, 2.0]]).project(1)
        assert g.precision[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_extension_structure(self):
        g = GFV([1.0], [[2.0]]).cylindrical_extension(1)
        assert_allclose(g.mode, [1.0, 0.0])
        assert_allclose(g.precision, [[2.0, 0.0], [0.0, 0.0]])

    def test_extension_membership_constant_in_new_coords(self):
        g = GFV([1.0], [[2.0]]).cylindrical_extension(1)
        vals = [g.membership(np.array([0.3, t])) for t in (-50.0, 0.0, 50.0)]
        assert vals[0] == vals[1] == vals[2]

    def test_round_trip(self):
        g = GFV([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])
        back = g.cylindrical_extension(2).project(2)
        assert_allclose(back.mode, g.mode, atol=1e-14)
        assert_allclose(back.precision, g.precision, atol=1e-14)

    def test_singular_nonzero_block(self):
        # range(H21) lies in range(H22) = span(1, 1): the pseudo-inverse complement
        h = np.array([
            [2.0, 0.5, 0.5],
            [0.5, 1.0, 1.0],
            [0.5, 1.0, 1.0],
        ])
        g = GFV([0.0, 0.0, 0.0], h).project(1)
        assert g.precision[0, 0] == pytest.approx(1.75, abs=1e-14)

    def test_permute(self):
        g = GFV([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]]).permute([1, 0])
        assert_allclose(g.mode, [2.0, 1.0])
        assert_allclose(g.precision, [[1.0, 0.5], [0.5, 2.0]])


class TestJson:
    def test_gfn_round_trip(self):
        g = GFN(0.1234567890123456, 7.89)
        assert GFN.from_dict(g.to_dict()) == g

    def test_gfn_infinite_precision(self):
        g = GFN(1.0, math.inf)
        d = g.to_dict()
        assert d["precision"] == "inf"
        assert GFN.from_dict(d) == g

    def test_gfv_round_trip(self):
        g = GFV([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
        back = GFV.from_dict(g.to_dict())
        assert_allclose(back.mode, g.mode)
        assert_allclose(back.precision, g.precision)

    def test_errors_name_fields(self):
        with pytest.raises(DomainError, match="mode"):
            GFN.from_dict({"precision": 1.0})
        with pytest.raises(DomainError, match="precision"):
            GFN.from_dict({"mode": 0.0})
        with pytest.raises(DomainError, match="precision"):
            GFN.from_dict({"mode": 0.0, "precision": "huge"})
