"""Independent numerical oracles used across the test suite.

Everything here is computed by quadrature, direct integration over the
alpha-cut representation, higher precision or another construction of the
same law (the 2p x 2p pair law, the dense K form), never through the
closed forms under test.
"""

import functools
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr


def belpl_by_cut_integration(mu, sigma2, h, x, y):
    """Bel/Pl of [x, y] for a Gaussian random fuzzy number, by integrating
    the cut-containment / cut-intersection probabilities over alpha."""
    s = math.sqrt(sigma2)

    def radius(a):
        return math.sqrt(-2.0 * math.log(a) / h)

    def bel_integrand(a):
        r = radius(a)
        return max(ndtr((y - r - mu) / s) - ndtr((x + r - mu) / s), 0.0)

    def pl_integrand(a):
        r = radius(a)
        return ndtr((y + r - mu) / s) - ndtr((x - r - mu) / s)

    bel = quad(bel_integrand, 0.0, 1.0, limit=300)[0]
    pl = quad(pl_integrand, 0.0, 1.0, limit=300)[0]
    return bel, pl


def contour_by_mode_integration(mu, sigma2, h, x):
    """Pointwise plausibility as the Gaussian-mode average of memberships."""
    s = math.sqrt(sigma2)

    def integrand(m):
        return math.exp(-0.5 * h * (x - m) ** 2) * math.exp(
            -0.5 * ((m - mu) / s) ** 2
        ) / (s * math.sqrt(2.0 * math.pi))

    lo, hi = mu - 12.0 * s, mu + 12.0 * s
    return quad(integrand, lo, hi, limit=300)[0]


def cut_halfwidth_by_integration(h):
    """Mean alpha-cut half-width: integral of sqrt(-2 ln(a) / h) over (0, 1]."""
    return quad(lambda a: math.sqrt(-2.0 * math.log(a) / h), 0.0, 1.0, limit=300)[0]


def triangular_cdf_by_cut_integration(mu, sigma, a, x):
    """Lower/upper cdf of the triangular random fuzzy number by integrating
    endpoint probabilities of the cut [M - a(1-alpha), M + a(1-alpha)]."""
    bel = quad(
        lambda al: ndtr((x - a * (1.0 - al) - mu) / sigma), 0.0, 1.0, limit=300
    )[0]
    pl = quad(
        lambda al: ndtr((x + a * (1.0 - al) - mu) / sigma), 0.0, 1.0, limit=300
    )[0]
    return bel, pl


@functools.lru_cache(maxsize=None)
def triangular_side_mass_mp(t, al, dps=50):
    """``int_0^al (1 - s/al) phi(t + s) ds`` at ``dps`` digits (mpmath): the mean
    membership at a point ``t`` sigmas from the mode's mean of the modes above it,
    for ``al = a / sigma``.  The quadrature runs over ``s = al u`` with the
    integrand divided by its largest value, since mpmath's tolerance is absolute
    and the mass may be far below 1e-50 (about 1e-300 at ``t = 37``).  Cached: a
    symmetric lattice asks for each mass twice."""
    import mpmath

    with mpmath.workdps(dps):
        t, al = mpmath.mpf(t), mpmath.mpf(al)
        peak = mpmath.npdf(t + min(max(-t, 0), al))
        return al * peak * mpmath.quad(lambda u: (1 - u) * mpmath.npdf(t + al * u) / peak, [0, 1])


def triangular_cdf_bounds_mp(mu, sigma, a, y, dps=50):
    """Lower and upper cdf of the triangular random fuzzy number at ``y``, at
    ``dps`` digits (mpmath): ``Phi(z0) -+ int_0^al (1 - s/al) phi(z0 -+ s) ds``
    with ``z0 = (y - mu) / sigma`` and ``al = a / sigma``.  ``Phi(z0)`` is the
    mode's own cdf; a mode within ``a`` above ``y`` adds its membership at
    ``y`` to the upper cdf, and one within ``a`` below ``y`` takes its
    membership at ``y`` from the lower cdf."""
    import mpmath

    with mpmath.workdps(dps):
        mu, sigma, a, y = (mpmath.mpf(v) for v in (mu, sigma, a, y))
        z0, al = (y - mu) / sigma, a / sigma
        p0 = mpmath.ncdf(z0)
        return (float(p0 - triangular_side_mass_mp(-z0, al, dps)),
                float(p0 + triangular_side_mass_mp(z0, al, dps)))


def triangular_contour_mp(mu, sigma, a, x, dps=50):
    """Contour of the triangular random fuzzy number at ``x``, at ``dps`` digits
    (mpmath): the mean membership at ``x`` of the modes above it plus that of
    the modes below it, two side integrals."""
    import mpmath

    with mpmath.workdps(dps):
        mu, sigma, a, x = (mpmath.mpf(v) for v in (mu, sigma, a, x))
        z0, al = (x - mu) / sigma, a / sigma
        return float(triangular_side_mass_mp(z0, al, dps) + triangular_side_mass_mp(-z0, al, dps))


def triangular_contour_by_mode_integration(mu, sigma, a, x):
    """Mean triangular membership at x over the Gaussian mode."""

    def integrand(m):
        memb = max(1.0 - abs(x - m) / a, 0.0)
        return memb * math.exp(-0.5 * ((m - mu) / sigma) ** 2) / (
            sigma * math.sqrt(2.0 * math.pi)
        )

    return quad(integrand, x - a, x + a, limit=300)[0]


def grfn_kappa_by_verbatim_formula(g1, g2, intermediates):
    """Degree of conflict through the unreduced bivariate-Gaussian expression
    (requires positive variances)."""
    i = intermediates
    s1, s2 = math.sqrt(g1.sigma2), math.sqrt(g2.sigma2)
    st1, st2 = math.sqrt(i.var1), math.sqrt(i.var2)
    rho = i.rho
    z = -0.5 * (g1.mu ** 2 / g1.sigma2 + g2.mu ** 2 / g2.sigma2) + (
        1.0 / (2.0 * (1.0 - rho ** 2))
    ) * (
        i.mu1 ** 2 / i.var1
        + i.mu2 ** 2 / i.var2
        - 2.0 * rho * i.mu1 * i.mu2 / (st1 * st2)
    )
    return 1.0 - (st1 * st2 / (s1 * s2)) * math.sqrt(1.0 - rho ** 2) * math.exp(z)


def random_grfn_params(rng, mu_range=(-3.0, 3.0), var_range=(0.05, 4.0), h_range=(0.05, 5.0)):
    return (
        float(rng.uniform(*mu_range)),
        float(rng.uniform(*var_range)),
        float(rng.uniform(*h_range)),
    )


def random_spd(rng, p, scale=1.0):
    a = rng.normal(size=(p, p))
    return scale * (a @ a.T + p * np.eye(p) * 0.1)


def grfv_combination_by_dense_k_form(mu1, s1, h1, mu2, s2, h2):
    """Combination of two GRFVs through the 2p x 2p information form.

    The joint mode law conditioned on pair consistency has precision
    ``K = [[S1^-1 + Hbar, -Hbar], [-Hbar, S2^-1 + Hbar]]`` with
    ``Hbar = (H1^-1 + H2^-1)^-1`` and mean ``K^-1 [S1^-1 mu1; S2^-1 mu2]``;
    ``log(1 - kappa)`` is the ratio of the Gaussian normalizers.  Dense
    ``np.linalg.inv``/``slogdet`` throughout, so all four matrices must be
    positive definite.
    """
    inv = np.linalg.inv
    s1i, s2i = inv(s1), inv(s2)
    hbar = inv(inv(h1) + inv(h2))
    k = np.block([[s1i + hbar, -hbar], [-hbar, s2i + hbar]])
    sigma_t = inv(k)
    b = np.concatenate([s1i @ mu1, s2i @ mu2])
    mu_t = sigma_t @ b
    logdet = lambda m: np.linalg.slogdet(m)[1]  # noqa: E731
    log1mk = 0.5 * (-logdet(k) - logdet(s1) - logdet(s2)) - 0.5 * (
        mu1 @ s1i @ mu1 + mu2 @ s2i @ mu2 - mu_t @ b
    )
    a = inv(h1 + h2) @ np.hstack([h1, h2])
    return {"kappa": -math.expm1(log1mk), "mu": a @ mu_t, "Sigma": a @ sigma_t @ a.T, "H": h1 + h2}


def grfv_combination_by_pair_law(mu1, s1, h1, mu2, s2, h2):
    """Combined mode law ``(mu, Sigma)`` of two GRFVs as the image of the
    2p x 2p soft-conditioned pair law under the averaging map ``[A1, A2]``.

    The pair law has mean ``[mu1 - S1 G d; mu2 + S2 G d]`` and covariance
    ``diag(S1, S2) - [S1; -S2] G [S1, -S2]``, with ``A2 = (H1 + H2)^-1 H2``,
    ``Hbar = H1 A2``, ``G = (I + Hbar (S1 + S2))^-1 Hbar`` and ``d = mu1 - mu2``.
    It solves only with ``H1 + H2`` and ``I + Hbar S``, so zero or rank-deficient
    ``Sigma`` and vacuous ``H`` blocks are valid inputs, which the dense K form
    cannot take.
    """
    p = len(mu1)
    a2 = np.linalg.solve(h1 + h2, h2)
    hbar = h1 @ a2
    hbar = 0.5 * (hbar + hbar.T)
    g = np.linalg.solve(np.eye(p) + hbar @ (s1 + s2), hbar)
    g = 0.5 * (g + g.T)
    gd = g @ (mu1 - mu2)
    a = np.hstack([np.eye(p) - a2, a2])
    mu_tilde = np.concatenate([mu1 - s1 @ gd, mu2 + s2 @ gd])
    c = np.vstack([s1, -s2])
    sigma_tilde = -(c @ g @ c.T)
    sigma_tilde[:p, :p] += s1
    sigma_tilde[p:, p:] += s2
    sigma_tilde = 0.5 * (sigma_tilde + sigma_tilde.T)
    sigma12 = a @ sigma_tilde @ a.T
    return a @ mu_tilde, 0.5 * (sigma12 + sigma12.T)


def schur_complement_by_eigh(h, keep):
    """Precision of the leading ``keep`` coordinates of a PSD ``h`` after
    maximizing out the rest, always by the generalized Schur complement over
    the eigenpairs of the unit-diagonal trailing block above a 1e-12 rank cut.
    This is the only form the library used before it solved positive definite
    trailing blocks by Cholesky; like it, a cut eigenpair coupled beyond
    rounding raises :class:`erfs.errors.SingularBlock`."""
    from erfs.errors import SingularBlock

    d = h.diagonal()[keep:]
    s = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    w, v = np.linalg.eigh(s[:, None] * h[keep:, keep:] * s)
    b = (h[:keep, keep:] * s) @ v
    cut = 1e-12 * max(w[-1], 1e-300)
    rank = w > cut
    h11 = h[:keep, :keep]
    if (b[:, ~rank] ** 2 > 1e-12 * cut * h11.diagonal()[:, None]).any():
        raise SingularBlock("trailing block is singular to tolerance 1e-12 but coupled to the rest")
    b = b[:, rank]
    out = h11 - (b / w[rank]) @ b.T
    return 0.5 * (out + out.T)


def pair_precision_mp(h1, h2, dps=50):
    """``h1 h2 / (h1 + h2)`` for finite positive precisions, as ``1 / (1/h1 + 1/h2)``
    at ``dps`` digits (mpmath)."""
    import mpmath

    with mpmath.workdps(dps):
        return 1 / (1 / mpmath.mpf(h1) + 1 / mpmath.mpf(h2))


def grfn_fusion_by_kalman_update(g1, g2, dps=50):
    """Combined ``(mu, sigma2, h, log(1 - kappa))`` of two GRFNs with finite
    positive precisions, at ``dps`` digits (mpmath), derived as a Kalman update.

    The pair height ``exp(-hbar (M1 - M2)^2 / 2)`` is the likelihood of
    observing ``M1 - M2 = 0`` with noise variance ``r = 1/h1 + 1/h2``.  With
    the innovation variance ``n = sigma1^2 + sigma2^2 + r`` and ``d = mu1 - mu2``,
    the pair law updates to mean ``(mu1 - v1 d / n, mu2 + v2 d / n)`` and
    covariance ``diag(v1, v2) - (v1, -v2)^T (v1, -v2) / n``; the combined mode
    is its ``h``-weighted average, and ``1 - kappa = sqrt(r / n) exp(-d^2 / (2 n))``.
    """
    import mpmath

    with mpmath.workdps(dps):
        h1, h2, mu1, mu2, v1, v2 = (mpmath.mpf(v) for v in (g1.h, g2.h, g1.mu, g2.mu,
                                                             g1.sigma2, g2.sigma2))
        r = 1 / h1 + 1 / h2
        n = v1 + v2 + r
        d = mu1 - mu2
        m1, m2 = mu1 - v1 * d / n, mu2 + v2 * d / n
        # v_i (r + v_j) / n, not v_i - v_i^2 / n, which cancels where (r + v_j) / n is tiny
        c11, c22, c12 = v1 * (r + v2) / n, v2 * (r + v1) / n, v1 * v2 / n
        w1, w2 = h1 / (h1 + h2), h2 / (h1 + h2)
        mu = w1 * m1 + w2 * m2
        var = w1 * w1 * c11 + w2 * w2 * c22 + 2 * w1 * w2 * c12
        # log(r / n) as -log1p((v1 + v2) / r): r / n rounds to 1 where (v1 + v2) / r < 1e-50
        return mu, var, h1 + h2, -mpmath.log1p((v1 + v2) / r) / 2 - d * d / (2 * n)


def grfv_fusion_by_kalman_update(g1, g2, dps=50):
    """Combined ``(mu, Sigma, H, log(1 - kappa))`` of two GRFVs with positive
    definite precisions, at ``dps`` digits (mpmath): the matrix twin of
    :func:`grfn_fusion_by_kalman_update`.

    The pair height ``exp(-(M1 - M2)^T Hbar (M1 - M2) / 2)`` is the likelihood
    of observing ``M1 - M2 = 0`` with noise covariance ``R = H1^-1 + H2^-1``.
    With the innovation covariance ``N = Sigma1 + Sigma2 + R`` and
    ``d = mu1 - mu2``, the pair law updates to mean
    ``(mu1 - Sigma1 N^-1 d, mu2 + Sigma2 N^-1 d)`` and covariance
    ``diag(Sigma1, Sigma2) - [Sigma1; -Sigma2] N^-1 [Sigma1, -Sigma2]``; the
    combined mode is its image under ``[A1, A2]``, ``Ai = (H1 + H2)^-1 Hi``, and
    ``1 - kappa = sqrt(|R| / |N|) exp(-d^T N^-1 d / 2)``.  Zero and singular
    ``Sigma`` are valid inputs.  Returns float numpy arrays and a float.
    """
    import mpmath

    with mpmath.workdps(dps):
        mu1, mu2 = (mpmath.matrix([mpmath.mpf(float(v)) for v in g.mu]) for g in (g1, g2))
        s1, s2, h1, h2 = (mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in m])
                          for m in (g1.Sigma, g2.Sigma, g1.H, g2.H))
        r = mpmath.inverse(h1) + mpmath.inverse(h2)
        n = s1 + s2 + r
        ninv = mpmath.inverse(n)
        d = mu1 - mu2
        m1, m2 = mu1 - s1 * ninv * d, mu2 + s2 * ninv * d
        c11, c22, c12 = s1 * ninv * (s2 + r), s2 * ninv * (s1 + r), s1 * ninv * s2
        hsum_inv = mpmath.inverse(h1 + h2)
        a1, a2 = hsum_inv * h1, hsum_inv * h2
        mu = a1 * m1 + a2 * m2
        sigma = a1 * c11 * a1.T + a2 * c22 * a2.T + a1 * c12 * a2.T + a2 * c12.T * a1.T
        # log|N| - log|R| = log|I + L^-1 (Sigma1 + Sigma2) L^-T| (R = L L^T), a sum of
        # log1p of its eigenvalues: no I + to round away a small Sigma1 + Sigma2
        linv = mpmath.inverse(mpmath.cholesky(r, tol=0))  # R may be far below 1e-50
        lam = mpmath.eigsy(linv * (s1 + s2) * linv.T, eigvals_only=True)
        log1mk = -mpmath.fsum(mpmath.log1p(v) for v in lam) / 2 - (d.T * ninv * d)[0] / 2

        def to_array(m):
            return np.array(m.tolist(), dtype=float)

        return (to_array(mu).ravel(), to_array(sigma), to_array(h1 + h2), float(log1mk))
