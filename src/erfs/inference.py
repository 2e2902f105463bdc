"""Likelihood-based evidence about a model parameter.

The relative likelihood ``L(theta) / L(theta_hat)`` defines a normal fuzzy
set of likely parameter values whose possibility measure is consonant.
For the unit-variance Gaussian mean model this fuzzy set is exactly
``GFN(sample mean, n)``, and predicting a new observation yields the
random fuzzy number ``GRFN(sample mean, 1, n)``; those two constructors are
provided directly.  Any other model goes through the generic
:class:`LogLikelihood` contract.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .grfn import GFN, GRFN

__all__ = [
    "Sample",
    "LogLikelihood",
    "gaussian_mean_likelihood_fuzzy",
    "gaussian_mean_predictive",
    "relative_likelihood_contour",
    "load_sample",
]

_MAX_SLACK = 1e-9


@dataclass(frozen=True)
class Sample:
    """A nonempty batch of real observations."""

    observations: tuple[float, ...]

    def __post_init__(self):
        obs = tuple(float(v) for v in self.observations)
        if not obs:
            raise DomainError("sample must contain at least one observation")
        if not all(math.isfinite(v) for v in obs):
            raise DomainError("observations must be finite")
        object.__setattr__(self, "observations", obs)

    @property
    def n(self) -> int:
        return len(self.observations)

    @property
    def mean(self) -> float:
        return math.fsum(self.observations) / self.n

    @classmethod
    def from_text(cls, text: str) -> "Sample":
        """Parse newline-delimited numbers or a JSON array."""
        stripped = text.strip()
        if stripped.startswith("["):
            return cls(tuple(json.loads(stripped)))
        values = [float(line) for line in stripped.splitlines() if line.strip()]
        return cls(tuple(values))


def load_sample(path: str) -> Sample:
    with open(path, "r", encoding="utf-8") as fh:
        return Sample.from_text(fh.read())


@dataclass(frozen=True)
class LogLikelihood:
    """A log-likelihood evaluator together with its maximizer.

    ``evaluator(theta)`` returns ``log L(theta)``; ``theta_hat`` maximizes
    it and ``max_log_value = evaluator(theta_hat)`` must be finite.  The
    maximality claim is checked lazily: any query exceeding the supplied
    maximum by more than 1e-9 invalidates the object.
    """

    evaluator: Callable[[float], float]
    theta_hat: float
    max_log_value: float

    def __post_init__(self):
        if not math.isfinite(self.max_log_value):
            raise DomainError("the supplied maximum log-likelihood must be finite")

    def probe(self, thetas) -> None:
        """Spot-check maximality on a batch of probe points."""
        for theta in np.asarray(thetas, dtype=float):
            if self.evaluator(float(theta)) > self.max_log_value + _MAX_SLACK:
                raise DomainError(
                    f"log-likelihood at theta={theta} exceeds the supplied maximum"
                )


def gaussian_mean_likelihood_fuzzy(s: Sample) -> GFN:
    """Fuzzy set of likely means for iid unit-variance Gaussian data.

    The relative likelihood is ``exp(-n/2 (theta - theta_hat)^2)``, i.e.
    the Gaussian fuzzy number with mode the sample mean and precision the
    sample size.
    """
    return GFN(s.mean, float(s.n))


def gaussian_mean_predictive(s: Sample) -> GRFN:
    """Predictive random fuzzy number for one more unit-variance draw.

    Writing the future observation as ``theta + U`` with standard normal
    ``U`` shifts the likely-values fuzzy set by a Gaussian random offset:
    fixed precision ``n``, random mode ``N(theta_hat, 1)``.
    """
    return GRFN(s.mean, 1.0, float(s.n))


def relative_likelihood_contour(l: LogLikelihood, theta: float) -> float:
    """``L(theta) / L(theta_hat)``, evaluated in log-space and clamped to [0, 1]."""
    log_rel = l.evaluator(float(theta)) - l.max_log_value
    if log_rel > _MAX_SLACK:
        raise DomainError(
            "evaluator exceeds the supplied maximum: theta_hat is not a maximizer"
        )
    return min(math.exp(min(log_rel, 0.0)), 1.0)
