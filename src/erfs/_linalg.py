"""Small symmetric-positive-semidefinite kernel used by the vector modules.

Inputs are validated as PSD; only ``H1 + H2`` (:func:`parallel_sum`) must
be positive definite.  Checks fail loudly (no jitter, no automatic
regularization): silently repairing an indefinite matrix would corrupt
the closed forms this package exists to validate.

All dense linear algebra runs on numpy (``np.linalg``), never on
``scipy.linalg``.  numpy and scipy wheels each bundle their own OpenBLAS
with its own thread pool, and a process that alternates between the two
has both pools competing for the same cores: small numpy solves run many
times slower right after a large scipy factorization.  One BLAS keeps one
pool.

Tolerances (relative):
  * symmetry: half the skew part, |a.T/2 - a/2| <= 0.5e-10 * max(|a|, 1)
  * PSD eigenvalue test: eigenvalues >= -1e-10 * max eigenvalue
  * PD test (H1 + H2, Schur trailing block): Cholesky pivots L_ii^2 > 1e-12 * a_ii
  * Schur complement rank cut, past a failed PD test: 1e-12 (unit-diagonal block)
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
    # half the skew part, and a + half the midpoint of a and a.T: halves of finite
    # floats cannot overflow when subtracted, a.T - a and a + a.T can above about 9e307
    half = 0.5 * a.T - 0.5 * a
    if not half.any():
        return a.copy()
    if np.abs(half).max() > 0.5 * SYM_RTOL * max(np.abs(a).max(), 1.0):
        raise NotPositiveDefinite(f"{name} is not symmetric to relative tolerance {SYM_RTOL}")
    return a + half


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a finite symmetric ``a``, or None when ``a`` is
    not numerically positive definite.  A factor that numpy returns has a
    finite, positive diagonal: an overflow or a nonpositive pivot anywhere
    reaches a later pivot as NaN or a negative number, and LAPACK stops."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def _pd_cholesky(a: np.ndarray) -> np.ndarray | None:
    """:func:`_cholesky` of ``a`` if each ``L_ii^2 > PD_RTOL a_ii``, else None: rounding
    passes a singular ``a`` with a pivot near ``eps``, numpy a non-finite one with inf or NaN."""
    lower = _cholesky(a)
    ok = lower is not None and (lower.diagonal() ** 2 > PD_RTOL * a.diagonal()).all()
    return lower if ok else None


def check_psd(a: np.ndarray, name: str) -> np.ndarray:
    """Validate symmetry and numerical positive semidefiniteness.

    The rule is "smallest eigenvalue >= -1e-10 * largest".  A Cholesky
    factorization that succeeds in floating point proves the smallest
    eigenvalue is at least about ``-n * eps * max|a_ii|``, far inside that
    tolerance, so the eigendecomposition runs only when Cholesky fails
    on a nonzero matrix (singular or indefinite input; a zero matrix, such
    as a GFV's ``Sigma``, is PSD) and decides those cases exactly as before.
    """
    a = check_symmetric(as_matrix(a, name), name)
    if _cholesky(a) is not None or not a.any():
        return a
    w = np.linalg.eigvalsh(a)
    w_max = max(w[-1], 0.0)
    if w[0] < -PSD_RTOL * max(w_max, 1e-300):
        raise NotPositiveDefinite(
            f"{name} has eigenvalue {w[0]:.3e} below the PSD tolerance"
        )
    return a


# only perfbench/wl_vector.py:boundaries still uses is_pd
def is_pd(a: np.ndarray) -> bool:
    """Positive definiteness test: all eigenvalues > PD_RTOL * trace / p."""
    a = np.asarray(a, dtype=float)
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    thresh = PD_RTOL * max(np.trace(a) / a.shape[0], 0.0)
    return bool(w[0] > thresh)


# only perfbench/wl_vector.py:boundaries and the tests still use SpdFactor
class SpdFactor:
    """Cholesky factorization ``a = L L^T`` by :func:`_pd_cholesky`, with solve and
    log-determinant; :class:`NotPositiveDefinite` when that returns None."""

    def __init__(self, a: np.ndarray, name: str = "matrix"):
        a = check_symmetric(as_matrix(a, name), name)
        lower = _pd_cholesky(a)
        if lower is None:
            raise NotPositiveDefinite(f"{name} is not positive definite")
        self._a = a
        self.L = lower
        self.logdet = 2.0 * float(np.log(lower.diagonal()).sum())

    def solve(self, b) -> np.ndarray:
        return np.linalg.solve(self._a, np.asarray(b, dtype=float))

    def inv(self) -> np.ndarray:
        out = self.solve(np.eye(len(self._a)))
        return 0.5 * (out + out.T)

    def quad_form(self, v) -> float:
        """v^T A^{-1} v for the factored matrix A."""
        v = np.asarray(v, dtype=float)
        return float(v @ self.solve(v))


def parallel_sum(h1: np.ndarray, h2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``A2 = (H1 + H2)^-1 H2`` and the parallel sum ``Hbar = H1 A2``.

    ``Hbar`` is the precision of the height of a product of two Gaussian
    memberships: PSD, and 0 when either is (Anderson & Duffin, 1969).
    :class:`NotPositiveDefinite` names ``H1 + H2`` unless it passes the PD test.
    """
    h = h1 + h2
    if _pd_cholesky(h) is None:
        raise NotPositiveDefinite("H1 + H2 is not positive definite")
    a2 = np.linalg.solve(h, h2)
    hbar = h1 @ a2
    return a2, 0.5 * (hbar + hbar.T)


def schur_complement_keep_leading(h: np.ndarray, keep: int) -> np.ndarray:
    """Precision of the leading ``keep`` coordinates after maximizing out the rest.

    ``H11 - H12 H22^-1 H21``, solved when ``H22`` passes the PD test.  Else the
    generalized one, ``H11 - B W^-1 B^T`` with ``B = H12 S V``, over the eigenpairs
    ``(W, V)`` of ``S H22 S`` (``H22`` rescaled to a unit diagonal) above the rank
    cut: a PSD ``H`` has ``range(H21)`` in ``range(H22)``, so a zero trailing
    block passes ``H11`` through, and ``B_ik^2 <= H11_ii W_k``, so a cut eigenpair
    coupled beyond rounding is ill-conditioned, not null, and raises
    :class:`SingularBlock`.
    """
    p = h.shape[0]
    if not 0 < keep < p:
        raise SingularBlock(f"keep must be in (0, {p}), got {keep}")
    h11, h12, h22 = h[:keep, :keep], h[:keep, keep:], h[keep:, keep:]
    if _pd_cholesky(h22) is not None:
        out = h11 - h12 @ np.linalg.solve(h22, h12.T)
        return 0.5 * (out + out.T)
    d = h22.diagonal()
    s = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    w, v = np.linalg.eigh(s[:, None] * h22 * s)
    b = (h12 * s) @ v
    cut = PD_RTOL * max(w[-1], 1e-300)
    rank = w > cut
    if (b[:, ~rank] ** 2 > PD_RTOL * cut * h11.diagonal()[:, None]).any():
        raise SingularBlock("trailing block is singular to tolerance 1e-12 but coupled to the rest")
    b = b[:, rank]
    out = h11 - (b / w[rank]) @ b.T
    return 0.5 * (out + out.T)
