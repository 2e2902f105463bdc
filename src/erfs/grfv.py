"""Gaussian random fuzzy vectors: the p-dimensional evidence model.

``GRFV(mu, Sigma, H)`` is a Gaussian fuzzy vector with precision matrix
``H`` whose mode is a Gaussian random vector ``N(mu, Sigma)``.  Both
matrices need only be positive semidefinite: a zero block of ``H`` is a
vacuous extension (nothing asserted about those coordinates), a zero
``Sigma`` a possibilistic vector.  The Gaussian fuzzy vector
``GFV(mode, precision)`` is that possibilistic vector,
``GRFV(mode, 0, precision)``: its membership is the contour, its
projection the marginal, and :func:`erfs.fuzzy.product` of two GFVs is
:func:`combine` at ``Sigma = 0`` without the conflict cutoff (both run
:func:`_fuse`).

All of it holds for any PSD ``Sigma`` and ``H``.  One Gaussian height,
:func:`_log_height`, gives the contour, the conflict of :func:`combine`
and the GFV product's height, with one overflow rule for all three; it
factors, by LU, only ``I + s h``, which stays nonsingular for a PSD pair.
Marginalization takes a Schur complement, generalized for a singular
trailing block.  The conflict is formed in log-space.

Contract: :func:`combine` needs ``H1 + H2`` positive definite, so a
vacuous extension fuses with evidence on the missing coordinates.
"""

from __future__ import annotations

import itertools

import numpy as np

from ._linalg import (  # noqa: F401 - perfbench's traced run patches SpdFactor and is_pd here
    SpdFactor,
    as_matrix,
    check_psd,
    is_pd,
    parallel_sum,
    schur_complement_keep_leading,
)
from ._value import Model, Value
from .errors import DomainError
from .grfn import conflict_degree

__all__ = ["GFV", "GRFV", "GrfvFusion", "combine"]

_DIAG_RTOL = 1e-12


class GRFV(Model):
    __slots__ = ("mu", "Sigma", "H")

    # the names of mu, Sigma and H in error messages, and the dimension-mismatch message
    _NAMES = ("mu", "Sigma", "H", "inconsistent dimensions: mu {p}, Sigma {s}, H {h}")

    def __init__(self, mu, Sigma, H):
        mu_name, sigma_name, h_name, dims = self._NAMES
        mu = np.array(mu, dtype=float, ndmin=1)
        if mu.ndim != 1 or not np.all(np.isfinite(mu)):
            raise DomainError(f"{mu_name} must be a finite real vector")
        p = mu.shape[0]
        if p == 0:
            raise DomainError(f"{mu_name} must have at least one coordinate")
        sigma = check_psd(Sigma, sigma_name)
        h = check_psd(H, h_name)
        if sigma.shape[0] != p or h.shape[0] != p:
            raise DomainError(dims.format(p=p, s=sigma.shape, h=h.shape))
        # each array is this object's own copy, so no caller's array is flagged
        for name, a in (("mu", mu), ("Sigma", sigma), ("H", h)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    def contour(self, x):
        """Pointwise plausibility: ``|I + Sigma H|^{-1/2} exp(-q/2)`` with
        ``q = (x - mu)^T (H^{-1} + Sigma)^{-1} (x - mu)``, the height
        (:func:`_log_height`) against the point ``x``; 1 for a zero ``H``.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # _log_height rejects an overflow
            log_height = _log_height(self.H, self.Sigma, np.asarray(x, dtype=float), self.mu,
                                     "I + Sigma H")[0]
        out = np.exp(log_height)
        return float(out) if out.ndim == 0 else out

    def marginalize(self, keep: int) -> "GRFV":
        """Marginal on the leading ``keep`` coordinates: the kept block's Schur
        complement, generalized where the trailing block fails the PD test, so
        a vacuous or exactly singular trailing block projects like any other."""
        h11 = schur_complement_keep_leading(self.H, keep)
        return self._like(self.mu[:keep], self.Sigma[:keep, :keep], h11)

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
        return self._like(mu, sigma, h)

    def is_noninteractive(self) -> bool:
        """True iff both Sigma and H are diagonal (coordinates carry
        independent, separately combinable evidence)."""
        return _is_diagonal(self.Sigma) and _is_diagonal(self.H)

    def permute(self, perm) -> "GRFV":
        perm = np.asarray(perm, dtype=int)
        if sorted(perm.tolist()) != list(range(self.dim)):
            raise DomainError(f"not a permutation of 0..{self.dim - 1}: {perm.tolist()}")
        ix = np.ix_(perm, perm)
        return self._like(self.mu[perm], self.Sigma[ix], self.H[ix])

    @classmethod
    def _like(cls, mu, sigma, h) -> "GRFV":
        """The result of a coordinate operation, of this model type."""
        return GRFV(mu, sigma, h)

    @staticmethod
    def _read(field: str, v) -> np.ndarray:
        """An array field: numpy stores a bool, string, null, object or integer
        beyond the float range in an array of another kind, but a bool among
        numbers as 0 or 1, so the entries' types are checked too."""
        try:
            a = np.asarray(v)
        except ValueError:
            raise DomainError(f"field '{field}' must be a rectangular array") from None
        entries = v
        for _ in range(a.ndim - 1):
            entries = itertools.chain.from_iterable(entries)
        if a.dtype.kind not in "iuf" or a.ndim and bool in map(type, entries):
            raise DomainError(f"field '{field}' must be an array of numbers")
        return a


class GFV(GRFV):
    """Gaussian fuzzy vector: ``GRFV(mode, 0, precision)``, whose mode does
    not vary; ``mode`` and ``precision`` are ``mu`` and ``H``."""

    __slots__ = ()
    # Sigma is zeros shaped like the precision, so its checks name the precision
    _FIELDS = ("mode", "precision")
    _NAMES = ("GFV mode", "GFV precision", "GFV precision",
              "GFV mode has dim {p} but precision is {h}")

    def __init__(self, mode, precision):
        precision = np.asarray(precision, dtype=float)
        super().__init__(mode, np.zeros_like(precision), precision)

    mode = property(lambda self: self.mu)
    precision = property(lambda self: self.H)
    membership = GRFV.contour
    project = GRFV.marginalize
    cylindrical_extension = GRFV.vacuous_extend

    @classmethod
    def _like(cls, mu, sigma, h) -> "GFV":
        return GFV(mu, h)


def _is_diagonal(a: np.ndarray) -> bool:
    off = a - np.diag(np.diag(a))
    scale = max(np.max(np.abs(np.diag(a))), 1e-300)
    return bool(np.max(np.abs(off)) <= _DIAG_RTOL * scale)


class GrfvFusion(Value):
    __slots__ = ("combined", "kappa")

    def __init__(self, combined: GRFV, kappa: float):
        object.__setattr__(self, "combined", combined)
        object.__setattr__(self, "kappa", kappa)


def _log_height(h, s, x, y, name: str):
    """``log E[exp(-1/2 D^T h D)]`` for ``D ~ N(x - y, s)`` (``x`` may be a
    batch of rows), with the ``M^T = I + s h`` it factors (the transpose
    of ``M = I + h s``) and the offset ``e``:

        -1/2 log|M| - 1/2 q,    q = d^T (h^-1 + s)^-1 d = (d h) M^-T d.

    ``|M| >= 1`` for PSD ``h``, ``s`` (``h s`` has eigenvalues >= 0).
    The offset is halved, ``e = x/2 - y/2``, exact and finite for finite
    inputs, and ``q = 4 (e h) M^-T e``.  ``log|M|`` and every solve factor
    the same ``M^T``, so a zero LU pivot (``1 + 1e160`` rounds away the 1)
    shows in ``slogdet``.  It, a determinant that rounds to negative, a
    non-finite ``M`` and a ``q`` (>= 0 in exact arithmetic) that overflows
    to NaN or ``-inf`` raise typed errors naming them; a ``q`` of inf is a
    height of 0.  The caller silences numpy's overflow warnings.
    """
    mt = as_matrix(np.eye(h.shape[0]) + s @ h, name)
    sign, logdet = np.linalg.slogdet(mt)
    if not sign > 0.0:
        raise DomainError(f"{name} is singular in floating point")
    e = 0.5 * x - 0.5 * y
    if e.ndim == 1:
        q = (e @ h) @ np.linalg.solve(mt, e)
    else:
        q = np.einsum("ij,ji->i", e @ h, np.linalg.solve(mt, e.T))
    if not (q > -np.inf).all():  # NaN fails this test too
        raise DomainError(f"the quadratic form with {name} overflowed to NaN or -inf")
    return -0.5 * logdet - 2.0 * q, mt, e


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

        log(1 - kappa) = -1/2 log|M| - 1/2 d^T G d,

    the height :func:`_log_height` of ``Hbar`` and ``S`` at ``d``.

    The combined mode ``A1 M1 + A2 M2``, ``A2 = (H1 + H2)^-1 H2`` and
    ``A1 = I - A2``, has under the height-weighted pair law the mean and
    covariance (``C = A1 Sigma1 - A2 Sigma2``, ``K = C M^-1``, ``C G = K Hbar``)

        mu12    = A1 mu1 + A2 mu2 - C G d,
        Sigma12 = (A1 - C G) Sigma1 (A1 - C G)^T + (A2 + C G) Sigma2 (A2 + C G)^T
                  + K Hbar K^T.

    They are the image under ``[A1, A2]`` of the 2p x 2p soft-conditioned pair
    law (``tests/oracles.py``).  ``Sigma12``, the Joseph form (Bucy & Joseph, 1968)
    of ``A1 Sigma1 A1^T + A2 Sigma2 A2^T - C G C^T``, adds PSD terms that cannot
    cancel.  The conflict is decided first, so a rejected fusion stops there.
    """
    (mu, sigma, h), kappa = _fuse(g1, g2, conflict_degree)
    return GrfvFusion(GRFV(mu, sigma, h), kappa)


def _fuse(g1: GRFV, g2: GRFV, weigh):
    """The product-intersection rule of :func:`combine` and of
    :func:`erfs.fuzzy.product` (two GFVs), the vector twin of
    :func:`erfs.grfn._fuse`.

    Returns the combined ``(mu, Sigma, H)`` (the p x p law of
    :func:`combine`) and ``weigh(log(1 - kappa))``.  ``weigh`` is the
    caller's conflict policy; it runs before the mode law is formed, so it
    may reject the pair.
    """
    if g1.dim != g2.dim:
        raise DomainError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    a2, hbar = parallel_sum(g1.H, g2.H)
    s1, s2 = g1.Sigma, g2.Sigma
    # a mode law that overflows is rejected by GRFV, the conflict by _log_height
    with np.errstate(over="ignore", invalid="ignore"):
        log1mk, mt, e = _log_height(hbar, s1 + s2, g1.mu, g2.mu, "I + Hbar S")
        weight = weigh(log1mk)

        a1 = np.eye(g1.dim) - a2
        k = np.linalg.solve(mt, (a1 @ s1 - a2 @ s2).T).T  # K = C M^-1
        cg = k @ hbar  # C G = K Hbar
        mu12 = a1 @ g1.mu + a2 @ g2.mu - 2.0 * (cg @ e)  # d = 2 e may overflow where C G ignores it
        a1 -= cg
        a2 += cg
        sigma12 = (a1 @ s1) @ a1.T + (a2 @ s2) @ a2.T + cg @ k.T
        sigma12 = 0.5 * (sigma12 + sigma12.T)
    return (mu12, sigma12, g1.H + g2.H), weight
