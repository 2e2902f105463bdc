"""Tests for the SPD kernel."""

from unittest import mock

import numpy as np
import pytest
from oracles import random_spd, schur_complement_by_eigh

from erfs._linalg import (PSD_RTOL, SpdFactor, check_psd, check_symmetric, parallel_sum,
                          schur_complement_keep_leading)
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


class TestCheckSymmetric:
    def test_symmetric_input_is_returned_bit_identical(self):
        # as a copy: a GRFV keeps what check_symmetric returns, never the caller's array or a
        # view of a larger one
        rng = np.random.default_rng(3)
        for p in (1, 2, 7, 40):
            b = rng.standard_normal((p, p)) * 10.0 ** rng.integers(-300, 300, (p, p))
            a = np.triu(b) + np.triu(b, 1).T
            out = check_symmetric(a, "A")
            assert out.tobytes() == a.tobytes() and not np.shares_memory(out, a)
        big = np.eye(4)
        out = check_symmetric(big[:2, :2], "A")
        assert out.base is None and out.flags.c_contiguous

    def test_near_symmetric_input_gets_the_same_midpoint_as_the_full_skew(self):
        # a + (a.T/2 - a/2) equals a + (a.T - a)/2 bit for bit wherever halving is exact,
        # near the float maximum too, where a.T - a stays finite for entries of one sign
        rng = np.random.default_rng(5)
        for p in (1, 2, 3, 8, 30):
            for scale in (1e-300, 1e-8, 1.0, 1e8, 1e300, 1.7e308):
                b = rng.uniform(0.5, 1.0, (p, p)) * scale
                a = np.triu(b) + np.triu(b, 1).T
                a = a * (1.0 + 1e-12 * rng.standard_normal((p, p)))
                assert np.isfinite(a).all()
                assert check_symmetric(a, "A").tobytes() == (a + 0.5 * (a.T - a)).tobytes()

    def test_skew_only_in_subnormal_bits(self):
        # halving a subnormal rounds, so the midpoint may move by one subnormal step (5e-324)
        # against (a.T - a) / 2; a skew that halves to zero returns the input as a copy
        u = 5e-324
        for x, y in ((u, 0.0), (3 * u, u), (2 * u, 0.0), (7 * u, 2 * u)):
            a = np.array([[1.0, x], [y, 1.0]])
            out = check_symmetric(a, "A")
            assert np.abs(out - (a + 0.5 * (a.T - a))).max() <= u
        a = np.array([[1.0, u], [0.0, 1.0]])
        np.testing.assert_array_equal(check_symmetric(a, "A"), a)

    def test_near_symmetric_input_becomes_the_midpoint(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-12, 3.0]])
        out = check_symmetric(a, "A")
        np.testing.assert_allclose(out, 0.5 * (a + a.T), rtol=1e-16)
        assert out[0, 1] == out[1, 0]

    def test_entries_near_the_float_maximum_stay_finite(self):
        a = np.array([[1e308, 9e307], [9e307 * (1 + 1e-15), 1.7e308]])
        out = check_symmetric(a, "A")
        assert np.isfinite(out).all() and out[0, 1] == out[1, 0]
        np.testing.assert_allclose(out, 0.5 * a + 0.5 * a.T, rtol=1e-15)

    @pytest.mark.parametrize("off", [1.0, 1e308])
    def test_asymmetric_input_is_rejected(self, off):
        # the skew of the second matrix overflows to inf, which must fail quietly
        a = np.array([[1.0, off], [-off, 1.0]])
        with pytest.raises(NotPositiveDefinite, match="not symmetric"):
            check_symmetric(a, "A")


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


def _schur_sweep_case(exponent, q, coupling, seed):
    """``H`` (keep 2) whose unit-diagonal trailing q x q block has condition number
    about ``10^exponent``, in random units.  ``in range``: ``H12 = X H22``, a
    well-posed complement ``I``.  ``weak``: also coupled along the weakest eigenvector,
    with ``H22^-1 H21`` of size ``w_min^-1/2``, so the complement is ``I`` up to terms
    of size ``w_min^1/2`` only after cancelling two terms of size 1."""
    rng = np.random.default_rng(seed)
    qq, _ = np.linalg.qr(rng.standard_normal((q, q)))
    w = np.logspace(0, -exponent, q)
    h22 = qq @ np.diag(w) @ qq.T
    x = rng.standard_normal((2, q))
    h12, h11 = x @ h22, x @ h22 @ x.T + np.eye(2)
    if coupling == "weak":
        c = rng.standard_normal(2)
        h12 = h12 + np.outer(c, qq[:, -1]) * np.sqrt(0.5 * w[-1])
        h11 = h11 + 0.5 * np.outer(c, c)
    h = np.block([[h11, h12], [h12.T, h22]])
    d = np.exp(rng.uniform(-5.0, 5.0, 2 + q))
    return d[:, None] * (0.5 * (h + h.T)) * d


def _complement_mp(h, keep):
    import mpmath

    with mpmath.workdps(50):
        m = mpmath.matrix(h.tolist())
        out = m[:keep, :keep] - m[:keep, keep:] * mpmath.inverse(m[keep:, keep:]) * m[keep:, :keep]
        return np.array(out.tolist(), dtype=float)


# the sweep inputs whose outcome differs from the eigendecomposition form's: each raised
# SingularBlock there (a cut eigenpair coupled beyond rounding) and passes the pivot test here
_SWEEP_OUTCOME_CHANGES = {
    (12, 5, "in range", 2), (12, 5, "weak", 1), (12, 5, "weak", 2), (12.5, 2, "weak", 1),
    (12.5, 2, "weak", 2), (12.5, 3, "weak", 1), (12.5, 5, "weak", 1), (12.5, 5, "weak", 2),
    (13, 2, "weak", 0), (13, 5, "weak", 0), (13, 5, "weak", 1), (13, 5, "weak", 2),
    (13.5, 3, "weak", 0), (13.5, 5, "weak", 0), (13.5, 5, "weak", 1), (14, 3, "weak", 0),
    (14, 3, "weak", 2), (14, 5, "weak", 0), (14, 5, "weak", 1),
}


class TestSchurComplement:
    @pytest.mark.parametrize("p", [2, 3, 10, 50, 200])
    def test_pd_trailing_block_is_solved_as_the_eigen_form(self, p):
        rng = np.random.default_rng(p)
        for keep in sorted({1, p // 2, p - 1}):
            h = random_spd(rng, p)
            want = schur_complement_by_eigh(h, keep)
            with mock.patch.object(np.linalg, "eigh", side_effect=AssertionError("eigh ran")):
                got = schur_complement_keep_leading(h, keep)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_near_singular_sweep(self):
        # scaled trailing-block condition numbers 1e8..1e14: every value is within
        # 1e-15 cond of the 50-digit complement, a block the eigen form answers is answered,
        # and the outcomes that changed are listed
        changed = set()
        for exponent in (8, 9, 10, 11, 11.5, 12, 12.5, 13, 13.5, 14):
            for q in (2, 3, 5):
                for coupling in ("in range", "weak"):
                    for seed in range(3):
                        h = _schur_sweep_case(exponent, q, coupling, seed)
                        try:
                            before = schur_complement_by_eigh(h, 2)
                        except SingularBlock:
                            before = None
                        try:
                            got = schur_complement_keep_leading(h, 2)
                        except SingularBlock:
                            assert before is None
                            continue
                        want = _complement_mp(h, 2)
                        assert np.linalg.norm(got - want) <= 1e-15 * 10**exponent * np.linalg.norm(want)
                        if before is None:
                            changed.add((exponent, q, coupling, seed))
        assert changed == _SWEEP_OUTCOME_CHANGES

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
