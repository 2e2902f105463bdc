"""Tests for likelihood-based evidence construction."""

import math

import numpy as np
import pytest

from erfs.errors import DomainError
from erfs.fuzzy import GFN, product
from erfs.grfn import GRFN
from erfs.inference import (
    LogLikelihood,
    Sample,
    gaussian_mean_likelihood_fuzzy,
    gaussian_mean_predictive,
    load_sample,
    relative_likelihood_contour,
)


class TestSample:
    def test_basic(self):
        s = Sample((1.0, 2.0, 3.0))
        assert s.n == 3 and s.mean == 2.0

    def test_mean_is_exactly_rounded(self):
        # a running float sum loses the 1.0 between the cancelling terms
        assert Sample((1e16, 1.0, -1e16)).mean == 1.0 / 3.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Sample(())

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            Sample((1.0, math.nan))

    def test_from_text_lines(self):
        s = Sample.from_text("1.5\n2.5\n\n3.5\n")
        assert s.observations == (1.5, 2.5, 3.5)

    def test_from_text_json(self):
        s = Sample.from_text("[1, 2, 3]")
        assert s.observations == (1.0, 2.0, 3.0)

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "obs.txt"
        p.write_text("0.5\n1.5\n")
        assert load_sample(str(p)).mean == 1.0


class TestGaussianMeanConstructors:
    def test_likelihood_fuzzy(self):
        g = gaussian_mean_likelihood_fuzzy(Sample((1.0, 2.0, 3.0)))
        assert g == GFN(2.0, 3.0)

    def test_single_observation(self):
        assert gaussian_mean_likelihood_fuzzy(Sample((4.5,))) == GFN(4.5, 1.0)

    def test_predictive(self):
        g = gaussian_mean_predictive(Sample((1.0, 2.0, 3.0)))
        assert g == GRFN(2.0, 1.0, 3.0)

    def test_predictive_contour_at_mean(self):
        s = Sample((0.2, 0.8, 1.1, -0.4))
        g = gaussian_mean_predictive(s)
        assert g.contour(s.mean) == pytest.approx(1.0 / math.sqrt(1.0 + s.n), abs=1e-14)

    def test_predictive_expectation_bounds(self):
        s = Sample((0.2, 0.8, 1.1, -0.4))
        lo, hi = gaussian_mean_predictive(s).expectation_bounds()
        half = math.sqrt(math.pi / (2.0 * s.n))
        assert lo == pytest.approx(s.mean - half, abs=1e-14)
        assert hi == pytest.approx(s.mean + half, abs=1e-14)

    def test_split_combination_consistency(self):
        """Combining the fuzzy sets of any two sub-samples reproduces
        the full-sample fuzzy set."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = rng.integers(2, 30)
            obs = rng.normal(size=n)
            k = int(rng.integers(1, n))
            full = gaussian_mean_likelihood_fuzzy(Sample(tuple(obs)))
            left = gaussian_mean_likelihood_fuzzy(Sample(tuple(obs[:k])))
            right = gaussian_mean_likelihood_fuzzy(Sample(tuple(obs[k:])))
            combined = product(left, right).product
            assert combined.mode == pytest.approx(full.mode, abs=1e-12)
            assert combined.precision == pytest.approx(full.precision, rel=1e-12)


class TestRelativeLikelihood:
    def _gaussian_loglik(self, obs):
        obs = np.asarray(obs, dtype=float)

        def ll(theta):
            return -0.5 * float(np.sum((obs - theta) ** 2))

        theta_hat = float(np.mean(obs))
        return LogLikelihood(ll, theta_hat, ll(theta_hat))

    def test_maximum_point(self):
        l = self._gaussian_loglik([1.0, 2.0, 3.0])
        assert relative_likelihood_contour(l, l.theta_hat) == 1.0

    def test_equals_gfn_membership(self):
        obs = [0.5, 1.5, -0.3, 2.2]
        l = self._gaussian_loglik(obs)
        g = gaussian_mean_likelihood_fuzzy(Sample(tuple(obs)))
        for theta in np.linspace(-3.0, 4.0, 15):
            assert relative_likelihood_contour(l, theta) == pytest.approx(
                g.membership(theta), abs=1e-12
            )

    def test_tail_decay(self):
        l = self._gaussian_loglik([0.0, 0.0, 0.0])
        assert relative_likelihood_contour(l, 50.0) < 1e-6

    def test_probe_validates_maximizer(self):
        l = self._gaussian_loglik([1.0, 2.0])
        l.probe(np.linspace(-10.0, 10.0, 1000))

    def test_invalid_maximizer_rejected(self):
        def ll(theta):
            return -((theta - 1.0) ** 2)

        bad = LogLikelihood(ll, 0.0, ll(0.0))
        with pytest.raises(DomainError):
            relative_likelihood_contour(bad, 1.0)
        with pytest.raises(DomainError):
            bad.probe([1.0])

    def test_values_in_unit_interval(self):
        l = self._gaussian_loglik([0.3, 0.9])
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-20, 20, size=200):
            v = relative_likelihood_contour(l, float(theta))
            assert 0.0 <= v <= 1.0

    def test_nonfinite_maximum_rejected(self):
        with pytest.raises(DomainError):
            LogLikelihood(lambda t: 0.0, 0.0, math.inf)
