"""Tests for the SPD kernel."""

import numpy as np
import pytest

from erfs._linalg import PSD_RTOL, SpdFactor, check_psd, parallel_sum, schur_complement_keep_leading
from erfs.errors import NotPositiveDefinite, SingularBlock


def _with_spectrum(eigenvalues, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((len(eigenvalues), len(eigenvalues))))
    a = q @ np.diag(eigenvalues) @ q.T
    return 0.5 * (a + a.T)


def _eigenvalue_rule(a):
    w = np.linalg.eigvalsh(a)
    return bool(w[0] >= -PSD_RTOL * max(w[-1], 0.0, 1e-300))


_BATTERY = {
    "identity": np.eye(3),
    "pd": _with_spectrum([3.0, 1.0, 0.2, 1e-6]),
    "ill-conditioned pd": _with_spectrum([1.0, 1e-9, 1e-15]),
    "zero": np.zeros((3, 3)),
    "singular psd": _with_spectrum([2.0, 1.0, 0.0]),
    "rank one": np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
    "vacuous extension": np.diag([2.0, 0.0]),
    "indefinite": np.array([[1.0, 2.0], [2.0, 1.0]]),
    "negative definite": -np.eye(2),
    "just above the tolerance": _with_spectrum([1.0, 0.5, -0.9 * PSD_RTOL]),
    "just below the tolerance": _with_spectrum([1.0, 0.5, -1.1 * PSD_RTOL]),
    "just above, scaled": _with_spectrum([1e6, 3.0, -0.9e6 * PSD_RTOL], seed=1),
    "just below, scaled": _with_spectrum([1e6, 3.0, -1.1e6 * PSD_RTOL], seed=1),
    "just above, p=50": _with_spectrum(np.r_[np.linspace(1.0, 2.0, 49), -0.9 * 2.0 * PSD_RTOL], seed=2),
    "just below, p=50": _with_spectrum(np.r_[np.linspace(1.0, 2.0, 49), -1.1 * 2.0 * PSD_RTOL], seed=2),
}


@pytest.mark.parametrize("case", sorted(_BATTERY))
def test_check_psd_decides_as_the_eigenvalue_rule(case):
    a = _BATTERY[case]
    accept = _eigenvalue_rule(a)
    if accept:
        np.testing.assert_array_equal(check_psd(a, "A"), a)
    else:
        with pytest.raises(NotPositiveDefinite, match="below the PSD tolerance"):
            check_psd(a, "A")


def test_battery_straddles_the_tolerance():
    decisions = {case: _eigenvalue_rule(a) for case, a in _BATTERY.items()}
    assert decisions["just above the tolerance"] and not decisions["just below the tolerance"]
    assert decisions["just above, p=50"] and not decisions["just below, p=50"]
    assert decisions["singular psd"] and not decisions["indefinite"]


def test_random_near_boundary_matrices():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = int(rng.integers(2, 8))
        w = rng.uniform(0.1, 10.0, p)
        w[0] = -w.max() * PSD_RTOL * rng.uniform(0.5, 1.5)
        a = _with_spectrum(w, seed=int(rng.integers(1 << 30)))
        try:
            check_psd(a, "A")
            accepted = True
        except NotPositiveDefinite:
            accepted = False
        assert accepted == _eigenvalue_rule(a)


class TestSpdFactor:
    def test_factor_solve_logdet(self):
        a = _with_spectrum([4.0, 2.0, 0.5])
        f = SpdFactor(a)
        np.testing.assert_allclose(f.L @ f.L.T, a, atol=1e-14)
        assert np.all(np.triu(f.L, 1) == 0.0)
        assert f.logdet == pytest.approx(np.log(4.0), abs=1e-13)
        b = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(a @ f.solve(b), b, atol=1e-13)
        assert f.quad_form(b) == pytest.approx(b @ np.linalg.solve(a, b), rel=1e-13)
        np.testing.assert_allclose(f.inv(), np.linalg.inv(a), atol=1e-13)

    @pytest.mark.parametrize("a", [np.zeros((2, 2)), np.diag([1.0, 0.0]), -np.eye(2),
                                   np.array([[1.0, 2.0], [2.0, 1.0]])])
    def test_not_positive_definite_named(self, a):
        with pytest.raises(NotPositiveDefinite, match="Sigma1 \\+ Sigma2 is not positive definite"):
            SpdFactor(a, "Sigma1 + Sigma2")

    def test_singular_matrix_passed_by_rounding(self):
        # Cholesky of this singular matrix succeeds with a last pivot of about 2e-8
        with pytest.raises(NotPositiveDefinite, match="H1 \\+ H2 is not positive definite"):
            SpdFactor(np.full((2, 2), 2.0), "H1 + H2")


    @pytest.mark.parametrize("scale", [1e-13, 1e-200, 1e200])
    def test_pivot_test_ignores_the_units(self, scale):
        a = np.diag([1.0, scale])
        f = SpdFactor(a)
        np.testing.assert_allclose(f.solve([1.0, scale]), [1.0, 1.0], rtol=1e-15)
        assert f.logdet == pytest.approx(np.log(scale), rel=1e-14)


class TestParallelSum:
    def test_positive_definite_pair(self):
        h1, h2 = _with_spectrum([3.0, 1.0, 0.5]), _with_spectrum([2.0, 0.7, 0.1], seed=1)
        a2, hbar = parallel_sum(h1, h2)
        np.testing.assert_allclose(a2, np.linalg.solve(h1 + h2, h2), atol=1e-14)
        want = np.linalg.inv(np.linalg.inv(h1) + np.linalg.inv(h2))
        np.testing.assert_allclose(hbar, want, atol=1e-13)
        np.testing.assert_array_equal(hbar, hbar.T)

    def test_semidefinite_operand(self):
        a2, hbar = parallel_sum(np.diag([2.0, 0.0]), np.eye(2))
        np.testing.assert_allclose(a2, np.diag([1.0 / 3.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(hbar, np.diag([2.0 / 3.0, 0.0]), atol=1e-15)

    def test_singular_sum_named(self):
        with pytest.raises(NotPositiveDefinite, match="H1 \\+ H2"):
            parallel_sum(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]))


class TestSchurComplement:
    def test_matches_the_inverse_formula_on_pd_blocks(self):
        h = _with_spectrum([4.0, 2.0, 1.0, 0.5, 0.3], seed=3)
        want = h[:2, :2] - h[:2, 2:] @ np.linalg.solve(h[2:, 2:], h[2:, :2])
        np.testing.assert_allclose(schur_complement_keep_leading(h, 2), want, atol=1e-13)

    def test_rank_deficient_trailing_block(self):
        # H = B B^T is PSD of rank 2; the complement equals the one from a pseudo-inverse
        b = np.random.default_rng(4).standard_normal((4, 2))
        h = b @ b.T
        want = h[:1, :1] - h[:1, 1:] @ np.linalg.pinv(h[1:, 1:]) @ h[1:, :1]
        np.testing.assert_allclose(schur_complement_keep_leading(h, 1), want, atol=1e-12)

    def test_zero_trailing_block(self):
        h = np.zeros((3, 3))
        h[0, 0] = 2.0
        np.testing.assert_array_equal(schur_complement_keep_leading(h, 1), [[2.0]])

    def test_scaled_trailing_coordinate(self):
        h0 = np.array([[1.0, 0.0, 0.95], [0.0, 1.0, 0.0], [0.95, 0.0, 1.0]])
        d = np.diag([1.0, 1.0, 3e-7])
        # keep = 1 runs through GRFV.marginalize in tests/test_grfv.py; here the 1x1 block is 9e-14
        np.testing.assert_allclose(schur_complement_keep_leading(d @ h0 @ d, 2),
                                   np.diag([1.0 - 0.95**2, 1.0]), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("keep", [0, 3, -1])
    def test_keep_out_of_range(self, keep):
        with pytest.raises(SingularBlock):
            schur_complement_keep_leading(np.eye(3), keep)
