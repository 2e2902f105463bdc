"""Tests for Gaussian random fuzzy vectors."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from erfs import grfv
from erfs.errors import ContradictoryEvidence, DomainError, ErfsError, NotPositiveDefinite, SingularBlock
from erfs.fuzzy import GFV, product
from erfs.grfn import GRFN, log_one_minus_kappa
from erfs.grfn import combine as combine_1d
from erfs.grfv import GRFV, combine
from oracles import (grfv_combination_by_dense_k_form, grfv_combination_by_pair_law,
                     grfv_fusion_by_kalman_update,
                     random_grfn_params, random_spd)


def _accepted_pair(rng, p):
    """Two PD sources whose fusion stays above the conflict cutoff: beyond
    p = 50 the mode variances shrink, as the conflict grows with p."""
    mu1 = rng.normal(size=p)
    mu2 = mu1 + 0.3 * rng.normal(size=p) / math.sqrt(p)
    c = min(1.0, 50.0 / p)
    s1, s2 = random_spd(rng, p, c / p), random_spd(rng, p, 2.0 * c / p)
    h1, h2 = random_spd(rng, p, 1.0 / p), random_spd(rng, p, 0.5 / p)
    return mu1, s1, h1, mu2, s2, h2


class TestConstruction:
    def test_dimension_consistency(self):
        with pytest.raises(DomainError):
            GRFV([0.0, 0.0], np.eye(2), np.eye(3))

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            GRFV([0.0, 0.0], bad, np.eye(2))

    def test_indefinite_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            GRFV([0.0, 0.0], np.eye(2), bad)

    def test_psd_accepted(self):
        # singular-but-PSD matrices are valid states (vacuous extensions)
        g = GRFV([0.0, 0.0], np.eye(2), np.zeros((2, 2)))
        assert g.dim == 2

    def test_empty_vectors_rejected(self):
        with pytest.raises(DomainError, match="^mu must have at least one coordinate$"):
            GRFV(np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)))
        with pytest.raises(DomainError, match="^GFV mode must have at least one coordinate$"):
            GFV(np.zeros(0), np.zeros((0, 0)))
        with pytest.raises(DomainError, match="^GFV mode must have at least one coordinate$"):
            GFV.from_dict({"mode": [], "precision": []})


class TestGfvIsGrfv:
    """A GFV is the GRFV with Sigma = 0: same contour, marginal and fusion."""

    def test_subclass_and_aliases(self):
        h = np.array([[2.0, 0.5], [0.5, 1.0]])
        g = GFV([1.0, -2.0], h)
        assert isinstance(g, GRFV) and type(g) is GFV
        assert g.mode is g.mu and g.precision is g.H
        np.testing.assert_array_equal(g.Sigma, np.zeros((2, 2)))
        x = np.array([[0.5, 0.0], [3.0, -1.0]])
        np.testing.assert_array_equal(g.membership(x), GRFV(g.mu, np.zeros((2, 2)), h).contour(x))
        assert g.to_dict() == {"mode": [1.0, -2.0], "precision": h.tolist()}

    def test_operations_return_gfvs(self):
        g = GFV([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])
        assert type(g.project(1)) is GFV
        assert type(g.cylindrical_extension(1)) is GFV
        assert type(g.permute([1, 0])) is GFV
        assert type(product(g, g).product) is GFV

    def test_combine_accepts_a_gfv(self):
        g = GRFV([0.5, 0.0], [[1.0, 0.2], [0.2, 0.5]], np.eye(2))
        v = GFV([0.0, 1.0], [[2.0, 0.5], [0.5, 1.0]])
        for a, b in ((v, g), (g, v)):
            f = combine(a, b)
            lifted = [GRFV(x.mu, x.Sigma, x.H) for x in (a, b)]
            ref = combine(*lifted)
            assert type(f.combined) is GRFV and f.kappa == ref.kappa
            np.testing.assert_array_equal(f.combined.mu, ref.combined.mu)
            np.testing.assert_array_equal(f.combined.Sigma, ref.combined.Sigma)


class TestOverflowingOffsets:
    """``x - mu`` may overflow while the contour is finite: the offset is halved."""

    def test_vacuous_coordinate_drops_out(self):
        x = np.array([0.5, -1e308])
        h = np.diag([1.0, 0.0])
        got = GRFV([0.0, 1e308], np.eye(2), h).contour(x)
        assert got == GRFV([0.0], [[1.0]], [[1.0]]).contour(np.array([0.5]))
        assert got == pytest.approx(GRFN(0.0, 1.0, 1.0).contour(0.5), rel=1e-15)
        one_d = GFV([0.0], [[1.0]]).membership(np.array([0.5]))
        assert one_d == pytest.approx(math.exp(-0.125), rel=1e-15)
        assert GFV([0.0, 1e308], h).membership(x) == one_d
        batch = GFV([0.0, 1e308], h).membership(np.array([x, x]))
        np.testing.assert_array_equal(batch, [one_d] * 2)

    def test_overflowing_quadratic_form_is_zero(self):
        g = GRFV([1e308, 0.0], np.eye(2), np.eye(2))
        assert g.contour(np.array([-1e308, 0.0])) == 0.0
        assert GFV([1e308, 0.0], np.eye(2)).membership(np.array([[-1e308, 0.0]])).tolist() == [0.0]

    def test_fusion_across_an_offset_that_overflows(self):
        # mu1 - mu2 overflows where the first source is vacuous: the second one decides
        f = combine(GRFV([0.0, 1e308], np.eye(2), np.diag([1.0, 0.0])),
                    GRFV([0.0, -1e308], np.eye(2), np.eye(2)))
        assert f.kappa == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), rel=1e-15)
        np.testing.assert_array_equal(f.combined.mu, [0.0, -1e308])
        assert_allclose(f.combined.Sigma, np.diag([0.5, 1.0]), rtol=1e-15)
        # modes 2e308 apart: the product is the midpoint at height 0, as for GFNs
        r = product(GFV([1e308, 0.0], np.eye(2)), GFV([-1e308, 0.0], np.eye(2)))
        assert r.height == 0.0
        np.testing.assert_array_equal(r.product.mode, [0.0, 0.0])

    @pytest.mark.parametrize("g, x", [
        # H e = (inf, 5e307) against e = (0, 5e307): inf * 0 is NaN
        (GFV([0.0, 0.0], [[100.0, 10.0], [10.0, 1.0]]), [0.0, 1e308]),
        # one term of (H e)^T M^-1 e overflows to -inf, the other stays finite
        (GRFV([-0.5, 1.0], 0.3 * np.eye(2), [[2.0, 0.3], [0.3, 1.0]]), [0.0, 1e308]),
    ], ids=["nan", "minus-inf"])
    def test_quadratic_form_overflowing_below_zero_is_an_error(self, g, x):
        with pytest.raises(DomainError, match="quadratic form"):
            g.contour(np.array(x))
        with pytest.raises(DomainError, match="quadratic form"):
            g.contour(np.array([[0.0, 0.0], x]))


class TestContour:
    def test_value_at_the_mean(self):
        sigma = np.array([[1.0, 0.3], [0.3, 2.0]])
        h = np.array([[2.0, 0.0], [0.0, 0.5]])
        g = GRFV([1.0, -1.0], sigma, h)
        expected = 1.0 / math.sqrt(np.linalg.det(np.eye(2) + sigma @ h))
        assert g.contour(np.array([1.0, -1.0])) == pytest.approx(expected, rel=1e-13)

    def test_diagonal_factorizes_coordinatewise(self):
        params = [(0.5, 1.0, 2.0), (-1.0, 3.0, 0.4)]
        g = GRFV(
            [p[0] for p in params],
            np.diag([p[1] for p in params]),
            np.diag([p[2] for p in params]),
        )
        xs = np.array([0.3, -2.0])
        per_coord = np.prod([GRFN(*p).contour(x) for p, x in zip(params, xs)])
        assert g.contour(xs) == pytest.approx(per_coord, rel=1e-12)

    def test_one_dimensional_reduction(self):
        # the contour and the conflict are one Gaussian height in each module
        rng, other_rng = np.random.default_rng(3), np.random.default_rng(4)
        for _ in range(100):
            mu, s2, h = random_grfn_params(rng)
            x = mu + rng.uniform(-4.0, 4.0)
            gv = GRFV([mu], [[s2]], [[h]])
            gn = GRFN(mu, s2, h)
            assert gv.contour(np.array([x])) == pytest.approx(gn.contour(x), abs=1e-12)
            mu2, s22, h2 = random_grfn_params(other_rng)
            kappa = combine(gv, GRFV([mu2], [[s22]], [[h2]])).kappa
            assert abs(kappa - combine_1d(gn, GRFN(mu2, s22, h2)).kappa) <= 2 * math.ulp(1.0)

    def test_batch_evaluation(self):
        g = GRFV([0.0, 0.0], np.eye(2), np.eye(2))
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        vals = g.contour(pts)
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(0.5, rel=1e-14)

    def test_singular_precision(self):
        # a zero precision asserts nothing: the contour is 1 everywhere
        g = GRFV([0.0, 0.0], np.eye(2), np.zeros((2, 2)))
        assert g.contour(np.array([3.0, -1.0])) == 1.0
        np.testing.assert_array_equal(g.contour(np.array([[0.0, 0.0], [5.0, -5.0]])), [1.0, 1.0])

    def test_against_monte_carlo_membership_average(self):
        """The contour is the mean membership of the realized fuzzy vector."""
        rng = np.random.default_rng(71)
        sigma = random_spd(rng, 2)
        h = random_spd(rng, 2)
        mu = rng.normal(size=2)
        g = GRFV(mu, sigma, h)
        n = 200_000
        chol = np.linalg.cholesky(sigma)
        modes = mu + rng.standard_normal((n, 2)) @ chol.T
        for _ in range(10):
            x = mu + rng.uniform(-2.0, 2.0, size=2)
            d = x - modes
            memb = np.exp(-0.5 * np.einsum("ij,jk,ik->i", d, h, d))
            est, se = float(np.mean(memb)), float(np.std(memb) / math.sqrt(n))
            assert abs(g.contour(x) - est) <= 3.0 * se + 1e-12


class TestCombine:
    def test_standard_pair(self):
        g = GRFV([0.0, 0.0], np.eye(2), np.eye(2))
        f = combine(g, g)
        assert_allclose(f.combined.mu, [0.0, 0.0], atol=1e-14)
        assert_allclose(f.combined.Sigma, 0.5 * np.eye(2), atol=1e-13)
        assert_allclose(f.combined.H, 2.0 * np.eye(2), atol=1e-14)
        assert f.kappa == pytest.approx(0.5, abs=1e-13)

    def test_diagonal_reduces_to_coordinatewise(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d1 = [random_grfn_params(rng, var_range=(0.1, 3.0), h_range=(0.1, 4.0)) for _ in range(3)]
            d2 = [random_grfn_params(rng, var_range=(0.1, 3.0), h_range=(0.1, 4.0)) for _ in range(3)]
            g1 = GRFV([t[0] for t in d1], np.diag([t[1] for t in d1]), np.diag([t[2] for t in d1]))
            g2 = GRFV([t[0] for t in d2], np.diag([t[1] for t in d2]), np.diag([t[2] for t in d2]))
            fv = combine(g1, g2)
            fns = [combine_1d(GRFN(*a), GRFN(*b)) for a, b in zip(d1, d2)]
            assert_allclose(fv.combined.mu, [f.combined.mu for f in fns], atol=1e-9)
            assert_allclose(np.diag(fv.combined.Sigma), [f.combined.sigma2 for f in fns], atol=1e-9)
            assert_allclose(np.diag(fv.combined.H), [f.combined.h for f in fns], atol=1e-9)
            assert 1.0 - fv.kappa == pytest.approx(np.prod([1.0 - f.kappa for f in fns]), rel=1e-9)

    def test_one_dimensional_reduction(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            a = random_grfn_params(rng, var_range=(0.05, 4.0), h_range=(0.05, 5.0))
            b = random_grfn_params(rng, var_range=(0.05, 4.0), h_range=(0.05, 5.0))
            fv = combine(GRFV([a[0]], [[a[1]]], [[a[2]]]), GRFV([b[0]], [[b[1]]], [[b[2]]]))
            fn = combine_1d(GRFN(*a), GRFN(*b))
            assert fv.combined.mu[0] == pytest.approx(fn.combined.mu, abs=1e-10)
            assert fv.combined.Sigma[0, 0] == pytest.approx(fn.combined.sigma2, abs=1e-10)
            assert fv.combined.H[0, 0] == pytest.approx(fn.combined.h, abs=1e-12)
            assert fv.kappa == pytest.approx(fn.kappa, abs=1e-10)

    def test_commutative(self):
        rng = np.random.default_rng(41)
        g1 = GRFV(rng.normal(size=3), random_spd(rng, 3), random_spd(rng, 3))
        g2 = GRFV(rng.normal(size=3), random_spd(rng, 3), random_spd(rng, 3))
        f12, f21 = combine(g1, g2), combine(g2, g1)
        assert_allclose(f12.combined.mu, f21.combined.mu, atol=1e-12)
        assert_allclose(f12.combined.Sigma, f21.combined.Sigma, atol=1e-12)
        assert_allclose(f12.combined.H, f21.combined.H, atol=1e-12)
        assert f12.kappa == pytest.approx(f21.kappa, abs=1e-12)

    def test_contour_product_law(self):
        rng = np.random.default_rng(47)
        grid = np.array([[u, v] for u in np.linspace(-2, 2, 5) for v in np.linspace(-2, 2, 5)])
        for _ in range(5):
            g1 = GRFV(rng.normal(size=2), random_spd(rng, 2), random_spd(rng, 2))
            g2 = GRFV(rng.normal(size=2), random_spd(rng, 2), random_spd(rng, 2))
            f = combine(g1, g2)
            lhs = f.combined.contour(grid) * (1.0 - f.kappa)
            rhs = g1.contour(grid) * g2.contour(grid)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_outputs_positive_definite(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            g1 = GRFV(rng.normal(size=3), random_spd(rng, 3), random_spd(rng, 3))
            g2 = GRFV(rng.normal(size=3), random_spd(rng, 3), random_spd(rng, 3))
            f = combine(g1, g2)
            assert np.all(np.linalg.eigvalsh(f.combined.Sigma) > 0.0)
            assert 0.0 <= f.kappa <= 1.0

    def test_total_conflict_raises(self):
        g1 = GRFV([-300.0, -300.0], 0.0001 * np.eye(2), 10.0 * np.eye(2))
        g2 = GRFV([300.0, 300.0], 0.0001 * np.eye(2), 10.0 * np.eye(2))
        with pytest.raises(ContradictoryEvidence):
            combine(g1, g2)

    def test_semidefinite_inputs_rejected(self):
        # the contract is H1 + H2 positive definite: sources vacuous on one coordinate fail it
        for h in (np.zeros((2, 2)), np.diag([1.0, 0.0])):
            vac = GRFV([0.0, 0.0], np.eye(2), h)
            with pytest.raises(NotPositiveDefinite, match="H1 \\+ H2"):
                combine(vac, vac)

    def test_possibilistic_inputs_combine_coordinatewise(self):
        # Sigma1 + Sigma2 = 0: the modes are known, only the precisions blur them
        g1 = GRFV([0.0, 1.0], np.zeros((2, 2)), np.diag([1.0, 2.0]))
        g2 = GRFV([1.0, 0.5], np.zeros((2, 2)), np.diag([0.5, 1.0]))
        f = combine(g1, g2)
        fns = [combine_1d(GRFN(a, 0.0, ha), GRFN(b, 0.0, hb))
               for a, ha, b, hb in ((0.0, 1.0, 1.0, 0.5), (1.0, 2.0, 0.5, 1.0))]
        assert_allclose(f.combined.mu, [fn.combined.mu for fn in fns], rtol=1e-14)
        np.testing.assert_array_equal(f.combined.Sigma, np.zeros((2, 2)))
        assert 1.0 - f.kappa == pytest.approx(np.prod([1.0 - fn.kappa for fn in fns]), rel=1e-13)

    def test_gfv_product_is_the_possibilistic_combination(self):
        rng = np.random.default_rng(17)
        for p in (1, 2, 5):
            m1, m2 = rng.normal(size=p), rng.normal(size=p)
            h1, h2 = random_spd(rng, p), random_spd(rng, p)
            f = combine(GRFV(m1, np.zeros((p, p)), h1), GRFV(m2, np.zeros((p, p)), h2))
            r = product(GFV(m1, h1), GFV(m2, h2))
            assert r.height == pytest.approx(1.0 - f.kappa, rel=1e-12)
            assert_allclose(r.product.mode, f.combined.mu, rtol=1e-13, atol=1e-14)
            assert_allclose(r.product.precision, f.combined.H, rtol=1e-15)

    def test_overflow_is_a_typed_error_or_the_limit(self):
        g = GRFV([0.0, 1.0], 1e160 * np.eye(2), 1e160 * np.eye(2))
        x = np.array([0.5, 0.5])
        for call in (lambda: combine(g, g).kappa, lambda: g.contour(x),
                     lambda: g.contour(np.array([x, x]))):
            with np.errstate(over="ignore"):
                try:
                    value = call()
                except ErfsError:
                    continue
            assert np.all(np.isfinite(value))

    def test_lu_factor_singular_in_floating_point_is_a_typed_error(self):
        # I + Hbar S and I + Sigma H are nonsingular in exact arithmetic; 1 + 1e160 rounds away the 1
        a = GRFV([1.0, 0.0], np.zeros((2, 2)), [[1.0, 1.0], [1.0, 1.0]])
        b = GRFV([0.0, 1.0], 1e160 * np.eye(2), 1e160 * np.eye(2))
        for pair in ((a, b), (b, a)):
            with pytest.raises(DomainError, match=r"^I \+ Hbar S is singular in floating point$"):
                combine(*pair)
        c = GRFV([0.0, 0.0], 1e160 * np.eye(2), [[1.0, 1.0], [1.0, 1.0]])
        # a zero pivot in the LU of M^T though not in that of M: each call factors M^T only
        s = [[4e18, 2e18], [2e18, 1e18]]
        d = GRFV([0.0, 0.0], s, [[1.0, 0.5], [0.5, 1.0]])
        for x in (np.zeros(2), np.zeros((3, 2))):
            for g in (c, d):
                with pytest.raises(DomainError, match=r"^I \+ Sigma H is singular in floating point$"):
                    g.contour(x)
        e = GRFV([0.0, 0.0], s, [[2.0, 1.0], [1.0, 2.0]])
        f = GRFV([0.0, 0.0], np.zeros((2, 2)), [[2.0, 1.0], [1.0, 2.0]])
        for pair in ((e, f), (f, e)):
            with pytest.raises(ErfsError, match=r"^I \+ Hbar S is singular in floating point$"):
                combine(*pair)

    def test_one_sided_semidefinite_inputs_combine(self):
        rng = np.random.default_rng(61)
        g = GRFV(rng.normal(size=2), random_spd(rng, 2), random_spd(rng, 2))
        for other in (GRFV([0.3, -0.2], np.zeros((2, 2)), random_spd(rng, 2)),
                      GRFV([0.3, -0.2], random_spd(rng, 2), np.diag([1.5, 0.0]))):
            for f in (combine(g, other), combine(other, g)):
                assert 0.0 <= f.kappa < 1.0
                assert np.all(np.linalg.eigvalsh(f.combined.Sigma) > 0.0)

    def test_badly_scaled_coordinates_combine_coordinatewise(self):
        # the second coordinate in units 1e6 times smaller: H scales by 1e-12 and more
        for h_small in (1e-13, 1e-20):
            d1 = [(0.5, 0.5, 1.0), (2e6, 0.7e12, h_small)]
            d2 = [(-0.4, 1.5, 2.0), (-1e6, 0.2e12, 3 * h_small)]
            g1 = GRFV(*(np.array(a) if i == 0 else np.diag(a) for i, a in enumerate(zip(*d1))))
            g2 = GRFV(*(np.array(a) if i == 0 else np.diag(a) for i, a in enumerate(zip(*d2))))
            f = combine(g1, g2)
            fns = [combine_1d(GRFN(*a), GRFN(*b)) for a, b in zip(d1, d2)]
            assert_allclose(f.combined.mu, [fn.combined.mu for fn in fns], rtol=1e-12)
            assert_allclose(np.diag(f.combined.Sigma), [fn.combined.sigma2 for fn in fns], rtol=1e-12)
            assert_allclose(np.diag(f.combined.H), [fn.combined.h for fn in fns], rtol=1e-12)
            assert 1.0 - f.kappa == pytest.approx(np.prod([1.0 - fn.kappa for fn in fns]), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            combine(GRFV([0.0], [[1.0]], [[1.0]]), GRFV([0.0, 0.0], np.eye(2), np.eye(2)))

    @pytest.mark.parametrize("p", [1, 2, 3, 10, 50, 200])
    def test_matches_the_dense_k_form(self, p):
        rng = np.random.default_rng(100 + p)
        for _ in range(5):
            mu1, s1, h1, mu2, s2, h2 = _accepted_pair(rng, p)
            f = combine(GRFV(mu1, s1, h1), GRFV(mu2, s2, h2))
            want = grfv_combination_by_dense_k_form(mu1, s1, h1, mu2, s2, h2)
            got = {"kappa": f.kappa, "mu": f.combined.mu, "Sigma": f.combined.Sigma,
                   "H": f.combined.H}
            assert 0.0 < f.kappa < 1.0
            for name, value in want.items():
                assert_allclose(got[name], value, rtol=0,
                                atol=1e-10 * np.max(np.abs(value)), err_msg=name)

    def test_vacuous_source_is_neutral(self):
        rng = np.random.default_rng(67)
        for p in (1, 2, 5):
            g = GRFV(rng.normal(size=p), random_spd(rng, p), random_spd(rng, p))
            vac = GRFV(rng.normal(size=p), random_spd(rng, p), np.zeros((p, p)))
            for f in (combine(g, vac), combine(vac, g)):
                assert f.kappa == 0.0
                np.testing.assert_array_equal(f.combined.H, g.H)
                assert_allclose(f.combined.mu, g.mu, rtol=1e-12, atol=1e-14)
                assert_allclose(f.combined.Sigma, g.Sigma, rtol=1e-12, atol=1e-14)

    def test_vacuous_extension_fuses_coordinatewise(self):
        g1 = GRFV([0.0], [[1.0]], [[1.0]]).vacuous_extend(1)
        g2 = GRFV([0.0, 0.0], np.eye(2), np.eye(2))
        f = combine(g1, g2)
        scalar = combine_1d(GRFN(0.0, 1.0, 1.0), GRFN(0.0, 1.0, 1.0))
        assert f.kappa == pytest.approx(1.0 - 1.0 / math.sqrt(2.0), abs=1e-15)
        assert f.kappa == pytest.approx(scalar.kappa, abs=1e-15)
        first = f.combined.marginalize(1)
        assert first.mu[0] == pytest.approx(scalar.combined.mu, abs=1e-15)
        assert first.Sigma[0, 0] == pytest.approx(scalar.combined.sigma2, abs=1e-15)
        assert first.H[0, 0] == pytest.approx(scalar.combined.h, abs=1e-15)
        # the second coordinate is the second source's, untouched
        assert_allclose(f.combined.mu, [0.0, 0.0], atol=1e-15)
        assert_allclose(f.combined.Sigma, np.diag([0.5, 1.0]), atol=1e-15)
        assert_allclose(f.combined.H, np.diag([2.0, 1.0]), atol=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 3, 10, 50, 200])
    def test_matches_the_pair_law_on_semidefinite_inputs(self, p):
        # the dense K form inverts Sigma; the 2p x 2p pair law takes any PSD pair
        rng = np.random.default_rng(300 + p)
        mu1, s1, h1, mu2, s2, h2 = _accepted_pair(rng, p)
        v1, v2 = rng.normal(size=(2, p)) / p
        zero = np.zeros((p, p))
        k = max(p // 2, 1)
        half = GRFV(mu1[:k], s1[:k, :k], h1[:k, :k]).vacuous_extend(p - k)
        pairs = [
            (GRFV(mu1, zero, h1), GRFV(mu2, s2, h2)),
            (GRFV(mu1, s1, h1), GRFV(mu2, np.outer(v2, v2), h2)),
            (GRFV(mu1, np.outer(v1, v1), h1), GRFV(mu2, np.outer(v2, v2), h2)),
            (GRFV(mu1, zero, h1), GRFV(mu2, zero, h2)),
            (half, GRFV(mu2, s2, h2)),
            (GRFV(mu2, s2, h2), half),
        ]
        for g1, g2 in pairs:
            mu, sigma = grfv_combination_by_pair_law(g1.mu, g1.Sigma, g1.H, g2.mu, g2.Sigma, g2.H)
            f = combine(g1, g2)
            assert 0.0 <= f.kappa < 1.0
            assert_allclose(f.combined.mu, mu, rtol=0, atol=1e-12 * np.max(np.abs(mu)))
            assert_allclose(f.combined.Sigma, sigma, rtol=0,
                            atol=1e-12 * max(np.max(np.abs(sigma)), 1e-300))
        r = product(GFV(mu1, h1), GFV(mu2, h2))
        mu, _ = grfv_combination_by_pair_law(mu1, zero, h1, mu2, zero, h2)
        assert_allclose(r.product.mode, mu, rtol=0, atol=1e-12 * np.max(np.abs(mu)))

    def test_accepted_fusion_forms_no_pair_law(self):
        # the 2p x 2p pair law alone is 4 p^2 doubles; combine stays near 11 p^2
        p = 200
        mu1, s1, h1, mu2, s2, h2 = _accepted_pair(np.random.default_rng(300 + p), p)
        g1, g2 = GRFV(mu1, s1, h1), GRFV(mu2, s2, h2)
        combine(g1, g2)
        tracemalloc.start()
        try:
            combine(g1, g2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 13 * p * p * 8


class TestMarginalizeExtend:
    def test_block_diagonal(self):
        g = GRFV([1.0, 2.0], np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        m = g.marginalize(1)
        assert_allclose(m.mu, [1.0])
        assert_allclose(m.Sigma, [[1.0]])
        assert_allclose(m.H, [[3.0]])

    def test_schur_complement(self):
        g = GRFV([1.0, 2.0], np.eye(2), [[2.0, 1.0], [1.0, 2.0]])
        m = g.marginalize(1)
        assert m.H[0, 0] == pytest.approx(1.5, abs=1e-12)
        assert_allclose(m.mu, [1.0])
        assert_allclose(m.Sigma, [[1.0]])

    def test_extension_structure(self):
        g = GRFV([1.0], [[1.0]], [[2.0]]).vacuous_extend(1)
        assert_allclose(g.mu, [1.0, 0.0])
        assert_allclose(g.Sigma, np.eye(2))
        assert_allclose(g.H, [[2.0, 0.0], [0.0, 0.0]])

    def test_extend_zero_is_identity(self):
        g = GRFV([1.0], [[1.0]], [[2.0]])
        assert g.vacuous_extend(0) is g

    def test_round_trip(self):
        g = GRFV([1.0, -2.0], [[1.0, 0.2], [0.2, 2.0]], [[2.0, 0.5], [0.5, 1.0]])
        back = g.vacuous_extend(2).marginalize(2)
        assert_allclose(back.mu, g.mu, atol=1e-12)
        assert_allclose(back.Sigma, g.Sigma, atol=1e-12)
        assert_allclose(back.H, g.H, atol=1e-12)

    def test_singular_nonzero_block(self):
        # range(H21) lies in range(H22) = span(1, 1): the pseudo-inverse complement
        h = np.array([
            [2.0, 0.5, 0.5],
            [0.5, 1.0, 1.0],
            [0.5, 1.0, 1.0],
        ])
        m = GRFV([0.0] * 3, np.eye(3), h).marginalize(1)
        assert m.H[0, 0] == pytest.approx(1.75, abs=1e-14)

    @pytest.mark.parametrize("unit", [1.0, 3e-7, 1e-150, 1e100])
    def test_complement_does_not_depend_on_trailing_units(self, unit):
        # H = D H0 D with the last coordinate in other units; the exact complement is 1 - 0.95^2
        h0 = np.array([[1.0, 0.0, 0.95], [0.0, 1.0, 0.0], [0.95, 0.0, 1.0]])
        d = np.diag([1.0, 1.0, unit])
        m = GRFV(np.zeros(3), np.eye(3), d @ h0 @ d).marginalize(1)
        assert m.H[0, 0] == pytest.approx(1.0 - 0.95**2, rel=1e-12)

    def test_coupled_ill_conditioned_block_raises(self):
        # PSD, but the trailing block's small eigenvalue (1e-14) lies under the rank cut while
        # its coupling to x1 carries a quarter of the complement: 1 - (0.5e-7)^2 / 1e-14 = 0.75
        r = math.sqrt(0.5)
        q = np.array([[1.0, 0.0, 0.0], [0.0, r, r], [0.0, r, -r]])
        h = q @ np.array([[1.0, 0.0, 0.5e-7], [0.0, 2.0, 0.0], [0.5e-7, 0.0, 1e-14]]) @ q.T
        with pytest.raises(SingularBlock, match="coupled"):
            GRFV(np.zeros(3), np.eye(3), h).marginalize(1)

    def test_partly_vacuous_trailing_block(self):
        m = GRFV(np.zeros(3), np.eye(3), np.diag([1.0, 1.0, 0.0])).marginalize(1)
        np.testing.assert_array_equal(m.H, [[1.0]])

    def test_extension_contour_constant_in_new_coords(self):
        g = GRFV([1.0], [[1.0]], [[2.0]]).vacuous_extend(1)
        vals = [g.contour(np.array([0.2, t])) for t in (-9.0, 0.0, 9.0)]
        assert vals[0] == vals[1] == vals[2]
        assert vals[0] == pytest.approx(GRFN(1.0, 1.0, 2.0).contour(0.2), rel=1e-14)


class TestNoninteractive:
    def test_diagonal(self):
        g = GRFV([0.0, 1.0], np.diag([1.0, 2.0]), np.diag([0.5, 3.0]))
        assert g.is_noninteractive()

    def test_coupled_precision(self):
        g = GRFV([0.0, 1.0], np.eye(2), [[2.0, 1.0], [1.0, 2.0]])
        assert not g.is_noninteractive()

    def test_coupled_covariance(self):
        g = GRFV([0.0, 1.0], [[1.0, 0.4], [0.4, 1.0]], np.eye(2))
        assert not g.is_noninteractive()

    def test_one_dimensional_always(self):
        assert GRFV([0.0], [[1.0]], [[2.0]]).is_noninteractive()


class TestPermuteAndJson:
    def test_permute(self):
        g = GRFV([1.0, 2.0], [[1.0, 0.2], [0.2, 2.0]], [[3.0, 0.5], [0.5, 4.0]])
        p = g.permute([1, 0])
        assert_allclose(p.mu, [2.0, 1.0])
        assert p.Sigma[0, 0] == 2.0 and p.H[0, 0] == 4.0
        back = p.permute([1, 0])
        assert_allclose(back.Sigma, g.Sigma)

    def test_json_round_trip(self):
        g = GRFV([1.0, -2.0], [[1.0, 0.2], [0.2, 2.0]], [[2.0, 0.5], [0.5, 1.0]])
        back = GRFV.from_dict(g.to_dict())
        assert_allclose(back.mu, g.mu)
        assert_allclose(back.Sigma, g.Sigma)
        assert_allclose(back.H, g.H)

    def test_symmetry_validated_on_load(self):
        d = {"mu": [0.0, 0.0], "Sigma": [[1.0, 0.5], [0.1, 1.0]], "H": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(NotPositiveDefinite):
            GRFV.from_dict(d)

    def test_errors_name_fields(self):
        with pytest.raises(DomainError, match="H"):
            GRFV.from_dict({"mu": [0.0], "Sigma": [[1.0]]})


# ---------------------------------------------------------------------------
# diagonal GRFVs with semidefinite Sigma and H reduce to their coordinates

_LOG_CUTOFF = math.log(1e-15)
_finite_or_zero = st.one_of(st.just(0.0), st.floats(0.05, 4.0))


@st.composite
def _diagonal_pair(draw):
    """Two noninteractive sources: each sigma2 in {0, finite}; each h finite,
    or 0 in exactly one source."""
    p = draw(st.integers(1, 4))
    coords = []
    for _ in range(p):
        h1, h2 = draw(st.floats(0.05, 4.0)), draw(st.floats(0.05, 4.0))
        vacuous = draw(st.sampled_from((None, 0, 1)))
        if vacuous == 0:
            h1 = 0.0
        elif vacuous == 1:
            h2 = 0.0
        coords.append(tuple(GRFN(draw(st.floats(-1.5, 1.5)), draw(_finite_or_zero), h) for h in (h1, h2)))
    return coords


def _grfv(numbers) -> GRFV:
    return GRFV([n.mu for n in numbers], np.diag([n.sigma2 for n in numbers]),
                np.diag([n.h for n in numbers]))


@settings(max_examples=300, deadline=None)
@given(_diagonal_pair(), st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
def test_diagonal_semidefinite_pairs_match_the_scalar_algebra(coords, x):
    p = len(coords)
    x = np.array(x[:p])
    firsts, seconds = [c[0] for c in coords], [c[1] for c in coords]
    g1, g2 = _grfv(firsts), _grfv(seconds)
    for g, numbers in ((g1, firsts), (g2, seconds)):
        want = math.prod(n.contour(xi) for n, xi in zip(numbers, x))
        assert g.contour(x) == pytest.approx(want, rel=1e-12, abs=1e-300)
        if p > 1:
            m = g.marginalize(p - 1)
            assert_allclose(m.H, g.H[:-1, :-1], rtol=1e-15)
            assert_allclose(m.Sigma, g.Sigma[:-1, :-1], rtol=1e-15)

    log1mk = math.fsum(log_one_minus_kappa(a, b) for a, b in coords)
    assume(abs(log1mk - _LOG_CUTOFF) > 1e-6)
    with mock.patch.object(grfv, "conflict_degree", wraps=grfv.conflict_degree) as decided:
        if log1mk < _LOG_CUTOFF:
            with pytest.raises(ContradictoryEvidence):
                combine(g1, g2)
            return
        f = combine(g1, g2)
    assert decided.call_args.args[0] == pytest.approx(log1mk, rel=1e-12, abs=1e-15)
    fns = [combine_1d(a, b).combined for a, b in coords]
    for got, want in ((f.combined.mu, [n.mu for n in fns]),
                      (f.combined.Sigma, np.diag([n.sigma2 for n in fns])),
                      (f.combined.H, np.diag([n.h for n in fns]))):
        assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    want = math.prod(n.contour(xi) for n, xi in zip(fns, x))
    assert f.combined.contour(x) == pytest.approx(want, rel=1e-10, abs=1e-300)


# ---------------------------------------------------------------------------
# the fused mode law against a 50-digit reference, and the laws fusion obeys


def _integer_psd(rng, p, kind):
    """An exactly PSD integer matrix (its products with powers of ten up to 1e20
    stay exact): ``B B^T + I``, a rank-one ``v v^T`` or zero."""
    if kind == "zero":
        return np.zeros((p, p))
    if kind == "rank-one":
        v = rng.integers(-3, 4, p).astype(float)
        v[0] = 1.0 + abs(v[0])
        return np.outer(v, v)
    b = rng.integers(-3, 4, (p, p)).astype(float)
    return b @ b.T + np.eye(p)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("kinds", [("full", "zero"), ("full", "full"), ("rank-one", "zero"),
                                   ("rank-one", "rank-one"), ("zero", "zero")], ids="-".join)
def test_fusion_matches_the_50_digit_kalman_update(p, kinds):
    # Sigma1 at scales 1..1e20 (Sigma2 at scale 1); the accepted fusions match the mpmath
    # reference within 1e-10 where cond(I + Hbar S) <= 1e5, and within 1e-15 cond beyond,
    # where a fused Sigma whose smallest eigenvalue rounds below -1e-10 of its largest is
    # rejected as NotPositiveDefinite.  A rank-one Sigma1 at scale s has cond about s at
    # p >= 2, so it stops at 1e12: beyond, I + Hbar S is singular in floating point
    rng = np.random.default_rng([p, len(kinds[0]), len(kinds[1])])
    for exponent in range(0, 13 if kinds[0] == "rank-one" and p > 1 else 21, 2):
        s = 10.0 ** exponent
        g1 = GRFV(rng.integers(-3, 4, p).astype(float), s * _integer_psd(rng, p, kinds[0]),
                  _integer_psd(rng, p, "full"))
        g2 = GRFV(rng.integers(-3, 4, p).astype(float), _integer_psd(rng, p, kinds[1]),
                  _integer_psd(rng, p, "full"))
        mu, sigma, h, log1mk = grfv_fusion_by_kalman_update(g1, g2)
        if abs(log1mk - _LOG_CUTOFF) < 1e-6:
            continue
        if log1mk < _LOG_CUTOFF:
            with pytest.raises(ContradictoryEvidence):
                combine(g1, g2)
            continue
        hbar = np.linalg.inv(np.linalg.inv(g1.H) + np.linalg.inv(g2.H))
        tol = max(1e-10, 1e-15 * np.linalg.cond(np.eye(p) + hbar @ (g1.Sigma + g2.Sigma)))
        try:
            f = combine(g1, g2)
        except NotPositiveDefinite:
            assert tol > 1e-10 and kinds[0] == "rank-one"
            continue
        assert np.linalg.norm(f.combined.mu - mu) <= tol * max(np.linalg.norm(mu), 1.0)
        assert np.linalg.norm(f.combined.Sigma - sigma) <= tol * max(np.linalg.norm(sigma), 1e-300)
        assert_allclose(f.combined.H, h, rtol=1e-15)
        assert f.kappa == pytest.approx(-math.expm1(log1mk), rel=0, abs=1e-2 * tol)


@pytest.mark.parametrize("exponent", range(0, 21))
def test_one_dimensional_fusion_matches_the_scalar_one_up_to_hbar_s_1e20(exponent):
    # the subtracted form A1 S1 A1 + A2 S2 A2 - C G C returned 0.0 for 1e20 against 0 (exact 0.5)
    rng = np.random.default_rng(exponent)
    for sigma2 in (0.0, float(rng.uniform(0.1, 2.0))):
        h1, h2 = rng.uniform(0.5, 2.0, 2)
        hbar = h1 * h2 / (h1 + h2)
        a = (float(rng.normal()), 10.0 ** exponent / hbar, float(h1))
        b = (float(rng.normal()), sigma2, float(h2))
        fv = combine(GRFV([a[0]], [[a[1]]], [[a[2]]]), GRFV([b[0]], [[b[1]]], [[b[2]]]))
        fn = combine_1d(GRFN(*a), GRFN(*b))
        assert fv.combined.mu[0] == pytest.approx(fn.combined.mu, rel=1e-10, abs=1e-300)
        assert fv.combined.Sigma[0, 0] == pytest.approx(fn.combined.sigma2, rel=1e-10)
        assert fv.combined.H[0, 0] == pytest.approx(fn.combined.h, rel=1e-15)
        assert 1.0 - fv.kappa == pytest.approx(1.0 - fn.kappa, rel=1e-6)


@st.composite
def _three_sources(draw):
    """Three sources at p in {1, 2, 3, 5}: each Sigma zero, rank-one or full at a
    log-uniform scale, and at most one H vacuous-extended (the other two are PD, so
    each pair's H1 + H2 is).  A full Sigma stays below 1e14 and 10^(28/p), where two
    of them fuse above the 1e-15 cutoff; a rank-one one at p >= 2 below 1e2: its
    fused law is accurate to about 1e-16 cond(I + Hbar S), and the cond grows like
    its scale times |v|^2 (up to 25 here)."""
    p = draw(st.sampled_from((1, 2, 3, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vacuous = draw(st.sampled_from((None, 0, 1, 2))) if p > 1 else None
    sources = []
    for i in range(3):
        kind = draw(st.sampled_from(("zero", "rank-one", "full")))
        top = min(14.0, 28.0 / p) if kind == "full" or p == 1 else 2.0
        sigma = 10.0 ** draw(st.floats(0.0, top)) * _integer_psd(rng, p, kind)
        g = GRFV(0.3 * rng.normal(size=p), sigma, random_spd(rng, p, 1.0 / p))
        if i == vacuous:
            k = int(rng.integers(1, p))
            g = GRFV(g.mu[k:], g.Sigma[k:, k:], g.H[k:, k:]).vacuous_extend(k)
        sources.append(g)
    return sources


def _normwise(a, b):
    # the floor, far below any nonzero entry the sources fuse to, serves a fused Sigma
    # that is zero in exact arithmetic and rounds to about 1e-32
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


@settings(max_examples=150, deadline=None)
@given(_three_sources())
def test_combination_is_associative_and_one_minus_kappa_multiplies(sources):
    a, b, c = sources
    # log(1 - kappa) as combine decides it: kappa itself rounds near 1
    with mock.patch.object(grfv, "conflict_degree", wraps=grfv.conflict_degree) as decided:
        try:
            left = combine(combine(a, b).combined, c).combined
            right = combine(a, combine(b, c).combined).combined
        except ContradictoryEvidence:
            assume(False)
    ab, abc, bc, a_bc = (call.args[0] for call in decided.call_args_list)
    assert _normwise(left.Sigma, right.Sigma) <= 1e-12
    assert np.linalg.norm(left.mu - right.mu) <= 1e-12 * max(np.linalg.norm(left.mu), 1.0)
    assert _normwise(left.H, right.H) <= 1e-15
    assert ab + abc == pytest.approx(bc + a_bc, rel=1e-12, abs=1e-12)
