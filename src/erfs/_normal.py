"""Standard-normal kernel shared by every closed form in the package.

``Phi`` is ``0.5 * math.erfc(-z / sqrt 2)``, not a series or a rational
approximation: every belief/plausibility formula in the package inherits
its accuracy from the C library's ``erfc``, within 1e-15 absolute of the
exact cdf over the whole real line.  A Python float (``np.float64`` and
``int`` included) comes back as a float; an array is mapped through the
same ``math.erfc`` element by element and keeps its shape, so the two
agree bit for bit (numpy's and ``math``'s ``exp`` may not).  The package
imports no scipy, and numpy only on the first array call (``load_numpy``),
so scalar closed forms load neither.

``phi_over`` generalizes ``Phi((num) / (den))`` to the degenerate scale
``den == 0``, where the Gaussian cdf collapses to a unit step (with value
1/2 exactly at the jump).  This is what the closed forms of possibilistic
objects (zero mode variance) reduce to, so callers never divide by zero.

The closed forms take a Python float or an array; ``elementwise`` hands
a method its points as one or the other.  ``exp``, ``maximum``,
``minimum`` and ``as_output`` let one formula serve both: a float stays a
float and is computed with ``math``, an array goes through numpy.
``constant``, ``log_indicator`` and ``at_least`` are the float-or-array
forms of ``full_like``, ``log(x == at)`` and ``x >= at``.
"""

from __future__ import annotations

import functools
import math

SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2 = math.sqrt(2.0)
# the inputs the closed forms evaluate with ``math``
_SCALARS = (float, int)


@functools.cache
def load_numpy():
    """numpy, imported on the first call: only array branches call this."""
    import numpy

    return numpy


def as_points(x):
    """A Python float for scalar input, a float ndarray otherwise."""
    return float(x) if isinstance(x, _SCALARS) else load_numpy().asarray(x, dtype=float)


def as_output(v):
    """Arrays pass through; scalars and 0-d arrays come back as floats."""
    return float(v) if isinstance(v, _SCALARS) or not v.ndim else v


def constant(x, value: float):
    """``value`` at every point of ``x`` (a float or a float array)."""
    return value if isinstance(x, _SCALARS) else load_numpy().full_like(x, value)


def log_indicator(x, at: float):
    """0.0 where ``x == at``, else -inf (a float or a float array)."""
    if isinstance(x, _SCALARS):
        return 0.0 if x == at else -math.inf
    return load_numpy().where(x == at, 0.0, -math.inf)


def at_least(x, at: float):
    """1.0 where ``x >= at``, else 0.0 (a float or a float array)."""
    return float(x >= at) if isinstance(x, _SCALARS) else (x >= at).astype(float)


def exp(v):
    return math.exp(v) if isinstance(v, _SCALARS) else load_numpy().exp(v)


def maximum(v, bound: float):
    return max(v, bound) if isinstance(v, _SCALARS) else load_numpy().maximum(v, bound)


def minimum(v, bound: float):
    return min(v, bound) if isinstance(v, _SCALARS) else load_numpy().minimum(v, bound)


def where_nan(v, fill):
    """``v`` with its NaN entries replaced by ``fill`` (a float, or an
    array shaped like ``v``)."""
    if isinstance(v, _SCALARS):
        return fill if v != v else v
    np = load_numpy()
    return np.where(np.isnan(v), fill, v)


def elementwise(method):
    """Run ``method(self, x)`` on ``x`` as a Python float, or as a float
    ndarray under ``np.errstate(over="ignore", invalid="ignore")``.

    The closed forms take the finite limit where an intermediate such as
    ``x - mu`` overflows, but numpy would still print a ``RuntimeWarning``
    for the overflow (and for the ``inf * 0`` it leaves behind).  Python
    float arithmetic never warns, so a float ``x`` goes straight through.
    """

    @functools.wraps(method)
    def quiet(self, x):
        if x.__class__ is float:
            return method(self, x)
        if isinstance(x, _SCALARS):
            return method(self, float(x))
        np = load_numpy()
        with np.errstate(over="ignore", invalid="ignore"):
            return method(self, np.asarray(x, dtype=float))

    return quiet


def Phi(z):
    """Standard normal cdf, elementwise."""
    if isinstance(z, _SCALARS):
        return 0.5 * math.erfc(-z / _SQRT_2)
    t = -as_points(z) / _SQRT_2
    erfc = load_numpy().fromiter(map(math.erfc, t.ravel().tolist()), float, t.size)
    return 0.5 * erfc.reshape(t.shape)


def phi(z):
    """Standard normal pdf, elementwise."""
    z = as_points(z)
    return as_output(exp(-0.5 * z * z) / SQRT_2PI)


def step(t):
    """Unit step with value 1/2 at 0: the sigma -> 0 limit of Phi(t/sigma)."""
    t = as_points(t)
    if isinstance(t, float):
        return (t > 0.0) + 0.5 * (t == 0.0)
    np = load_numpy()
    return as_output(np.greater(t, 0.0) + 0.5 * np.equal(t, 0.0))


def phi_over(num, den):
    """``Phi(num / den)`` with the exact step-function limit at ``den == 0``.

    ``den`` must be a nonnegative scalar; ``num`` may be an array.
    """
    if den > 0.0:
        if isinstance(num, _SCALARS):
            return 0.5 * math.erfc(-(num / den) / _SQRT_2)
        return as_output(Phi(as_points(num) / den))
    return step(num)
