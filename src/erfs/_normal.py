"""Standard-normal kernel shared by every closed form in the package.

``Phi`` is evaluated through the complementary error function, not through
a series or a rational approximation: every belief/plausibility formula in
the package inherits its accuracy from this one function.  A Python float
(``np.float64`` included) goes through ``math.erfc`` and comes back as a
float; anything else goes elementwise through ``scipy.special.ndtr``.  Both
are within 1e-15 absolute of the exact cdf over the whole real line, and
they agree with each other to that tolerance, though not always to the
last bit.  numpy and scipy are imported on the first array call
(``load_numpy``, ``_scipy_special``), so scalar closed forms load neither.

``phi_over`` generalizes ``Phi((num) / (den))`` to the degenerate scale
``den == 0``, where the Gaussian cdf collapses to a unit step (with value
1/2 exactly at the jump).  This is what the closed forms of possibilistic
objects (zero mode variance) reduce to, so callers never divide by zero.

The closed forms take a Python float or an array.  ``as_points``,
``exp``, ``maximum``, ``minimum`` and ``as_output`` let one formula serve
both: a float stays a float and is computed with ``math``, an array goes
through numpy.  ``constant``, ``log_indicator`` and ``at_least`` are the
float-or-array forms of ``full_like``, ``log(x == at)`` and ``x >= at``.
"""

from __future__ import annotations

import functools
import math

SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)


@functools.cache
def load_numpy():
    """numpy, imported on the first call: only array branches call this."""
    import numpy

    return numpy


def is_scalar(x) -> bool:
    """True for the inputs the closed forms evaluate with ``math``."""
    return isinstance(x, (float, int))


def as_points(x):
    """A Python float for scalar input, a float ndarray otherwise."""
    return float(x) if is_scalar(x) else load_numpy().asarray(x, dtype=float)


def as_output(v):
    """Arrays pass through; scalars and 0-d arrays come back as floats."""
    return v if getattr(v, "ndim", 0) else float(v)


def constant(x, value: float):
    """``value`` at every point of ``x`` (a float or a float array)."""
    return value if is_scalar(x) else load_numpy().full_like(x, value)


def log_indicator(x, at: float):
    """0.0 where ``x == at``, else -inf (a float or a float array)."""
    if is_scalar(x):
        return 0.0 if x == at else -math.inf
    return load_numpy().where(x == at, 0.0, -math.inf)


def at_least(x, at: float):
    """1.0 where ``x >= at``, else 0.0 (a float or a float array)."""
    return float(x >= at) if is_scalar(x) else (x >= at).astype(float)


def exp(v):
    return math.exp(v) if is_scalar(v) else load_numpy().exp(v)


def maximum(v, bound: float):
    return max(v, bound) if is_scalar(v) else load_numpy().maximum(v, bound)


def minimum(v, bound: float):
    return min(v, bound) if is_scalar(v) else load_numpy().minimum(v, bound)


def where_nan(v, fill):
    """``v`` with its NaN entries replaced by ``fill`` (a float, or an
    array shaped like ``v``)."""
    if is_scalar(v):
        return fill if v != v else v
    np = load_numpy()
    return np.where(np.isnan(v), fill, v)


def quiet_on_arrays(method):
    """Run ``method(self, x)`` on an array ``x`` under
    ``np.errstate(over="ignore", invalid="ignore")``.

    The closed forms take the finite limit where an intermediate such as
    ``x - mu`` overflows, but numpy would still print a ``RuntimeWarning``
    for the overflow (and for the ``inf * 0`` it leaves behind).  Python
    float arithmetic never warns, so a float ``x`` goes straight through.
    """

    @functools.wraps(method)
    def quiet(self, x):
        if is_scalar(x):
            return method(self, x)
        with load_numpy().errstate(over="ignore", invalid="ignore"):
            return method(self, x)

    return quiet


@functools.cache
def _scipy_special():
    import scipy.special

    return scipy.special


def Phi(z):
    """Standard normal cdf, elementwise."""
    if is_scalar(z):
        return 0.5 * math.erfc(-z / _SQRT_2)
    return _scipy_special().ndtr(z)


def phi(z):
    """Standard normal pdf, elementwise."""
    z = as_points(z)
    return as_output(exp(-0.5 * z * z) / SQRT_2PI)


def step(t):
    """Unit step with value 1/2 at 0: the sigma -> 0 limit of Phi(t/sigma)."""
    t = as_points(t)
    if is_scalar(t):
        return (t > 0.0) + 0.5 * (t == 0.0)
    np = load_numpy()
    return as_output(np.greater(t, 0.0) + 0.5 * np.equal(t, 0.0))


def phi_over(num, den):
    """``Phi(num / den)`` with the exact step-function limit at ``den == 0``.

    ``den`` must be a nonnegative scalar; ``num`` may be an array.
    """
    if den > 0.0:
        if is_scalar(num):
            return Phi(num / den)
        return as_output(Phi(as_points(num) / den))
    return step(num)
