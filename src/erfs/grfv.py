"""Gaussian random fuzzy vectors: the p-dimensional evidence model.

``GRFV(mu, Sigma, H)`` is a Gaussian fuzzy vector with precision matrix
``H`` whose mode is a Gaussian random vector ``N(mu, Sigma)``.  Both
matrices need only be positive semidefinite: a zero block of ``H`` is a
vacuous extension (nothing asserted about those coordinates), a zero
``Sigma`` a possibilistic vector.

:func:`combine`, :meth:`GRFV.contour` and :meth:`GRFV.marginalize` hold
for any PSD ``Sigma`` and ``H``.  Combination and contour factor, by LU,
only ``I + Hbar S`` and ``I + Sigma H``, which stay nonsingular there (the
eigenvalues of a product of two PSD matrices are >= 0); marginalization
takes a generalized Schur complement.  The conflict is formed in
log-space.

Contract: :func:`combine` needs ``H1 + H2`` positive definite, so a
vacuous extension fuses with evidence on the missing coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._linalg import (  # noqa: F401 - perfbench's traced run patches SpdFactor and is_pd here
    SpdFactor,
    as_matrix,
    check_psd,
    is_pd,
    parallel_sum,
    schur_complement_keep_leading,
)
from .errors import DomainError
from .fuzzy import _check_perm
from .grfn import conflict_degree

__all__ = ["GRFV", "GrfvFusion", "GrfvIntermediates", "combine"]

_DIAG_RTOL = 1e-12


@dataclass(frozen=True)
class GRFV:
    mu: np.ndarray
    Sigma: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if mu.ndim != 1 or not np.all(np.isfinite(mu)):
            raise DomainError("mu must be a finite real vector")
        sigma = check_psd(self.Sigma, "Sigma")
        h = check_psd(self.H, "H")
        p = mu.shape[0]
        if sigma.shape[0] != p or h.shape[0] != p:
            raise DomainError(
                f"inconsistent dimensions: mu {p}, Sigma {sigma.shape}, H {h.shape}"
            )
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "Sigma", sigma)
        object.__setattr__(self, "H", h)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def contour(self, x):
        """Pointwise plausibility: ``|I + Sigma H|^{-1/2} exp(-q/2)`` with
        ``q = (x - mu)^T (H^{-1} + Sigma)^{-1} (x - mu)``.

        ``(H^-1 + Sigma)^-1 = H M^-1`` with ``M = I + Sigma H``, so
        ``q = (H d)^T M^-1 d``; ``M`` is nonsingular for any PSD ``Sigma``
        and ``H``, and a zero ``H`` gives the constant 1.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # as_matrix rejects an overflow
            sh = self.Sigma @ self.H
        m = as_matrix(np.eye(self.dim) + sh, "I + Sigma H")
        log_norm = -0.5 * np.linalg.slogdet(m)[1]
        x = np.asarray(x, dtype=float)
        d = x - self.mu
        if d.ndim == 1:
            return float(np.exp(log_norm - 0.5 * (self.H @ d) @ np.linalg.solve(m, d)))
        q = np.einsum("ij,ji->i", d @ self.H, np.linalg.solve(m, d.T))
        return np.exp(log_norm - 0.5 * q)

    def marginalize(self, keep: int) -> "GRFV":
        """Marginal on the leading ``keep`` coordinates: the kept block's
        generalized Schur complement, so a vacuous or exactly singular
        trailing block projects like any other."""
        h11 = schur_complement_keep_leading(self.H, keep)
        return GRFV(self.mu[:keep], self.Sigma[:keep, :keep], h11)

    def vacuous_extend(self, k: int) -> "GRFV":
        """Extend by ``k`` coordinates about which nothing is asserted.

        The new coordinates get zero precision (no possibilistic
        constraint) and a unit-variance mode law, which is immaterial
        because the zero precision block makes the membership constant in
        those directions.
        """
        if k < 0:
            raise DomainError(f"k must be >= 0, got {k}")
        if k == 0:
            return self
        p = self.dim
        mu = np.concatenate([self.mu, np.zeros(k)])
        sigma = np.zeros((p + k, p + k))
        sigma[:p, :p] = self.Sigma
        sigma[p:, p:] = np.eye(k)
        h = np.zeros((p + k, p + k))
        h[:p, :p] = self.H
        return GRFV(mu, sigma, h)

    def is_noninteractive(self) -> bool:
        """True iff both Sigma and H are diagonal (coordinates carry
        independent, separately combinable evidence)."""
        return _is_diagonal(self.Sigma) and _is_diagonal(self.H)

    def permute(self, perm) -> "GRFV":
        perm = _check_perm(perm, self.dim)
        ix = np.ix_(perm, perm)
        return GRFV(self.mu[perm], self.Sigma[ix], self.H[ix])

    def to_dict(self) -> dict:
        return {
            "mu": self.mu.tolist(),
            "Sigma": self.Sigma.tolist(),
            "H": self.H.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GRFV":
        for field in ("mu", "Sigma", "H"):
            if field not in d:
                raise DomainError(f"missing field '{field}'")
        return cls(
            np.asarray(d["mu"], dtype=float),
            np.asarray(d["Sigma"], dtype=float),
            np.asarray(d["H"], dtype=float),
        )


def _is_diagonal(a: np.ndarray) -> bool:
    off = a - np.diag(np.diag(a))
    scale = max(np.max(np.abs(np.diag(a))), 1e-300)
    return bool(np.max(np.abs(off)) <= _DIAG_RTOL * scale)


class GrfvIntermediates(NamedTuple):
    """Soft-conditioned joint mode law over the stacked (2p) mode pair."""

    mu: np.ndarray       # (2p,)
    Sigma: np.ndarray    # (2p, 2p)
    Hbar: np.ndarray     # (p, p)
    A: np.ndarray        # (p, 2p) precision-weighted averaging map


@dataclass(frozen=True)
class GrfvFusion:
    combined: GRFV
    kappa: float
    intermediates: GrfvIntermediates

    def to_dict(self) -> dict:
        return {
            "combined": self.combined.to_dict(),
            "kappa": self.kappa,
            "intermediates": {
                "mu": self.intermediates.mu.tolist(),
                "Sigma": self.intermediates.Sigma.tolist(),
                "Hbar": self.intermediates.Hbar.tolist(),
                "A": self.intermediates.A.tolist(),
            },
        }


def combine(g1: GRFV, g2: GRFV) -> GrfvFusion:
    """Generalized product-intersection combination of two independent GRFVs.

    ``H1 + H2`` must be positive definite; ``Sigma1``, ``Sigma2`` and each
    ``H`` may be singular.  The combined vector has precision ``H1 + H2``.
    A pair of modes ``(M1, M2)`` is consistent with height
    ``exp(-D^T Hbar D / 2)``, ``D = M1 - M2``, where

        Hbar = H1 (H1 + H2)^-1 H2

    is the matrix parallel sum (``(H1^-1 + H2^-1)^-1`` when both are PD,
    0 when either is 0).  With ``S = Sigma1 + Sigma2``,
    ``M = I + Hbar S``, ``d = mu1 - mu2`` and
    ``G = (Hbar^-1 + S)^-1 = M^-1 Hbar``,

        log(1 - kappa) = -1/2 log|M| - 1/2 d^T G d.

    The joint mode law conditioned on consistency has mean
    ``[mu1 - Sigma1 G d; mu2 + Sigma2 G d]`` and covariance
    ``diag(Sigma1, Sigma2) - [Sigma1; -Sigma2] G [Sigma1, -Sigma2]``; the
    combined mode law is its image under the precision-weighted averaging
    map ``A = [I - A2, A2]``, ``A2 = (H1 + H2)^-1 H2``.  The conflict is
    decided before any mode-law work, so a rejected fusion stops there.
    """
    if g1.dim != g2.dim:
        raise DomainError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    p = g1.dim
    a2, hbar = parallel_sum(g1.H, g2.H)

    s1, s2 = g1.Sigma, g2.Sigma
    with np.errstate(over="ignore", invalid="ignore"):  # conflict_degree rejects an overflow
        d = g1.mu - g2.mu
        m = np.eye(p) + hbar @ (s1 + s2)
        # d^T G d without forming G: a rejected fusion stops after one vector solve
        log1mk = -0.5 * np.linalg.slogdet(m)[1] - 0.5 * float(d @ np.linalg.solve(m, hbar @ d))
    kappa = conflict_degree(log1mk)

    g = np.linalg.solve(m, hbar)
    g = 0.5 * (g + g.T)
    gd = g @ d
    a = np.hstack([np.eye(p) - a2, a2])
    mu_tilde = np.concatenate([g1.mu - s1 @ gd, g2.mu + s2 @ gd])
    c = np.vstack([s1, -s2])
    sigma_tilde = -(c @ g @ c.T)
    sigma_tilde[:p, :p] += s1
    sigma_tilde[p:, p:] += s2
    sigma_tilde = 0.5 * (sigma_tilde + sigma_tilde.T)

    mu12 = a @ mu_tilde
    sigma12 = a @ sigma_tilde @ a.T
    sigma12 = 0.5 * (sigma12 + sigma12.T)
    combined = GRFV(mu12, sigma12, g1.H + g2.H)
    inter = GrfvIntermediates(mu_tilde, sigma_tilde, hbar, a)
    return GrfvFusion(combined, kappa, inter)
