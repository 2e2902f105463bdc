"""Gaussian random fuzzy vectors: the p-dimensional evidence model.

``GRFV(mu, Sigma, H)`` is a Gaussian fuzzy vector with precision matrix
``H`` whose mode is a Gaussian random vector ``N(mu, Sigma)``.  Everything
runs on the SPD kernel in :mod:`erfs._linalg`: Cholesky solves and
factor-diagonal log-determinants, so the conflict's determinant ratio is
formed in log-space and the 2p x 2p conditioning system is solved directly
rather than through explicit inverses.

Combination requires positive definite ``Sigma`` and ``H`` on both sides
(the conditioning integral needs densities); the possibilistic
``Sigma = 0`` limit is available in one dimension through :mod:`erfs.grfn`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._linalg import (
    SpdFactor,
    check_psd,
    is_pd,
    schur_complement_keep_leading,
)
from .errors import DomainError, NotPositiveDefinite
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
        ``q = (x - mu)^T (H^{-1} + Sigma)^{-1} (x - mu)``.  Needs PD ``H``."""
        if not is_pd(self.H):
            raise NotPositiveDefinite("contour requires a positive definite H")
        hf = SpdFactor(self.H, "H")
        w = hf.inv() + self.Sigma
        wf = SpdFactor(w, "H^-1 + Sigma")
        # |I + Sigma H| = |H^-1 + Sigma| |H|
        log_norm = -0.5 * (wf.logdet + hf.logdet)
        x = np.asarray(x, dtype=float)
        d = x - self.mu
        if d.ndim == 1:
            return float(np.exp(log_norm - 0.5 * wf.quad_form(d)))
        q = np.einsum("ij,ji->i", d, wf.solve(d.T))
        return np.exp(log_norm - 0.5 * q)

    def marginalize(self, keep: int) -> "GRFV":
        """Marginal on the leading ``keep`` coordinates.

        The precision of the kept block is its Schur complement; a vacuous
        trailing block (all-zero precision, as produced by
        :meth:`vacuous_extend`) is read off structurally instead, since the
        complement formula's nonsingularity assumption fails there.
        """
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

    All four matrices must be positive definite.  The joint mode law
    conditioned on pair consistency is Gaussian with precision

        K = [[Sigma1^-1 + Hbar, -Hbar], [-Hbar, Sigma2^-1 + Hbar]],

    ``Hbar = (H1^-1 + H2^-1)^-1``; its mean solves ``K mu~ = (Sigma1^-1 mu1,
    Sigma2^-1 mu2)``.  The combined vector is the image of that law under
    the precision-weighted averaging map ``A = (H1 + H2)^-1 [H1 H2]``, and

        1 - kappa = sqrt(|Sigma~| / (|Sigma1| |Sigma2|))
                    exp(-(q1 + q2 - q~) / 2)

    is evaluated fully in log-space from Cholesky log-determinants.
    """
    if g1.dim != g2.dim:
        raise DomainError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    p = g1.dim
    for name, mat in (
        ("H1", g1.H), ("H2", g2.H), ("Sigma1", g1.Sigma), ("Sigma2", g2.Sigma),
    ):
        if not is_pd(mat):
            raise NotPositiveDefinite(f"{name} must be positive definite")

    h1f = SpdFactor(g1.H, "H1")
    h2f = SpdFactor(g2.H, "H2")
    hbar = SpdFactor(h1f.inv() + h2f.inv(), "H1^-1 + H2^-1").inv()

    s1f = SpdFactor(g1.Sigma, "Sigma1")
    s2f = SpdFactor(g2.Sigma, "Sigma2")
    s1inv = s1f.inv()
    s2inv = s2f.inv()

    k = np.zeros((2 * p, 2 * p))
    k[:p, :p] = s1inv + hbar
    k[:p, p:] = -hbar
    k[p:, :p] = -hbar
    k[p:, p:] = s2inv + hbar
    kf = SpdFactor(k, "conditioned joint precision")

    b = np.concatenate([s1inv @ g1.mu, s2inv @ g2.mu])
    mu_tilde = kf.solve(b)
    sigma_tilde = kf.inv()

    log1mk = 0.5 * (-kf.logdet - s1f.logdet - s2f.logdet) - 0.5 * (
        float(g1.mu @ (s1inv @ g1.mu))
        + float(g2.mu @ (s2inv @ g2.mu))
        - float(mu_tilde @ b)
    )
    kappa = conflict_degree(log1mk)

    h12 = g1.H + g2.H
    a = SpdFactor(h12, "H1 + H2").solve(np.hstack([g1.H, g2.H]))
    mu12 = a @ mu_tilde
    sigma12 = a @ sigma_tilde @ a.T
    sigma12 = 0.5 * (sigma12 + sigma12.T)
    combined = GRFV(mu12, sigma12, h12)
    inter = GrfvIntermediates(mu_tilde, sigma_tilde, hbar, a)
    return GrfvFusion(combined, kappa, inter)
