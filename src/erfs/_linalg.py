"""Small symmetric-positive-definite kernel used by the vector modules.

All factorizations are Cholesky-based; log-determinants are accumulated
from the factor diagonal so that determinant ratios stay finite in
log-space.  Checks fail loudly (no jitter, no automatic regularization):
silently repairing an indefinite matrix would corrupt the closed forms
this package exists to validate.

All dense linear algebra runs on numpy (``np.linalg``), never on
``scipy.linalg``.  numpy and scipy wheels each bundle their own OpenBLAS
with its own thread pool, and a process that alternates between the two
has both pools competing for the same cores: small numpy solves run many
times slower right after a large scipy factorization.  One BLAS keeps one
pool.

Tolerances (relative):
  * symmetry:            1e-10
  * PSD eigenvalue test: eigenvalues >= -1e-10 * max eigenvalue
  * PD test / singular block: 1e-12
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, SingularBlock

SYM_RTOL = 1e-10
PSD_RTOL = 1e-10
PD_RTOL = 1e-12


def as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotPositiveDefinite(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotPositiveDefinite(f"{name} contains non-finite entries")
    return a


def check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    scale = max(np.abs(a).max(), 1.0)
    if np.abs(a - a.T).max() > SYM_RTOL * scale:
        raise NotPositiveDefinite(f"{name} is not symmetric to relative tolerance {SYM_RTOL}")
    # symmetrize exactly so downstream factorizations see a symmetric matrix
    return 0.5 * (a + a.T)


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a finite symmetric ``a``, or None when ``a`` is
    not numerically positive definite.  A factor that numpy returns has a
    finite, positive diagonal: an overflow or a nonpositive pivot anywhere
    reaches a later pivot as NaN or a negative number, and LAPACK stops."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def check_psd(a: np.ndarray, name: str) -> np.ndarray:
    """Validate symmetry and numerical positive semidefiniteness.

    The rule is "smallest eigenvalue >= -1e-10 * largest".  A Cholesky
    factorization that succeeds in floating point proves the smallest
    eigenvalue is at least about ``-n * eps * max|a_ii|``, far inside that
    tolerance, so the eigendecomposition runs only when Cholesky fails
    (singular or indefinite input) and decides those cases exactly as
    before.
    """
    a = check_symmetric(as_matrix(a, name), name)
    if _cholesky(a) is not None:
        return a
    w = np.linalg.eigvalsh(a)
    w_max = max(w[-1], 0.0)
    if w[0] < -PSD_RTOL * max(w_max, 1e-300):
        raise NotPositiveDefinite(
            f"{name} has eigenvalue {w[0]:.3e} below the PSD tolerance"
        )
    return a


def is_pd(a: np.ndarray) -> bool:
    """Positive definiteness test: all eigenvalues > PD_RTOL * trace / p."""
    a = np.asarray(a, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    thresh = PD_RTOL * max(np.trace(a) / a.shape[0], 0.0)
    return bool(w[0] > thresh)


class SpdFactor:
    """Cholesky factorization ``a = L L^T`` of an SPD matrix, with solve and
    log-determinant.  Raises :class:`NotPositiveDefinite` when it fails."""

    def __init__(self, a: np.ndarray, name: str = "matrix"):
        a = check_symmetric(as_matrix(a, name), name)
        lower = _cholesky(a)
        if lower is None:
            raise NotPositiveDefinite(f"{name} is not positive definite")
        self._a = a
        self.L = lower
        self._logdet = 2.0 * float(np.log(lower.diagonal()).sum())
        self.n = a.shape[0]

    def solve(self, b) -> np.ndarray:
        return np.linalg.solve(self._a, np.asarray(b, dtype=float))

    def inv(self) -> np.ndarray:
        out = self.solve(np.eye(self.n))
        return 0.5 * (out + out.T)

    @property
    def logdet(self) -> float:
        return self._logdet

    def quad_form(self, v) -> float:
        """v^T A^{-1} v for the factored matrix A."""
        v = np.asarray(v, dtype=float)
        return float(v @ self.solve(v))


def schur_complement_keep_leading(h: np.ndarray, keep: int) -> np.ndarray:
    """Precision of the leading ``keep`` coordinates after maximizing out the rest.

    Returns ``H11 - H12 H22^{-1} H21`` for the block split at ``keep``.  The
    all-zero trailing block (a vacuous/cylindrical extension, where the
    general formula's precondition fails) is read off structurally: the
    leading block passes through unchanged.  A singular but nonzero trailing
    block raises :class:`SingularBlock`.
    """
    p = h.shape[0]
    if not 0 < keep < p:
        raise SingularBlock(f"keep must be in (0, {p}), got {keep}")
    h11 = h[:keep, :keep]
    h12 = h[:keep, keep:]
    h22 = h[keep:, keep:]
    scale = max(np.max(np.abs(h)), 1e-300)
    if np.max(np.abs(h22)) <= PD_RTOL * scale and np.max(np.abs(h12)) <= PD_RTOL * scale:
        return h11.copy()
    w = np.linalg.eigvalsh(0.5 * (h22 + h22.T))
    if np.min(np.abs(w)) <= PD_RTOL * max(np.max(np.abs(w)), 1e-300):
        raise SingularBlock("trailing block is singular to relative tolerance 1e-12")
    x = np.linalg.solve(h22, h12.T)
    out = h11 - h12 @ x
    return 0.5 * (out + out.T)
