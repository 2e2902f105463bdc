"""Tests for the standard-normal kernel: the float path against ``ndtr``, and
the array path against the float path, bit for bit."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from erfs._normal import Phi, phi, phi_over, step


ZS = np.linspace(-38.0, 38.0, 200_001)


def test_float_phi_matches_ndtr_on_dense_grid():
    got = np.array([Phi(float(z)) for z in ZS])
    assert np.max(np.abs(got - ndtr(ZS))) <= 1e-15


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


def test_array_phi_is_float_phi_bit_for_bit():
    got = Phi(ZS)
    assert got.dtype == float and got.shape == ZS.shape
    np.testing.assert_array_equal(_bits(got), _bits([Phi(float(z)) for z in ZS]))


@pytest.mark.parametrize("zs", [
    np.array(0.3),
    np.array(math.nan),
    np.empty(0),
    np.empty((2, 0)),
    np.array([[-math.inf, -1.5, math.nan], [0.0, 2.25, math.inf]]),
    np.linspace(-9.0, 9.0, 40).reshape(4, 10)[:, ::3],   # not contiguous
    np.array([[1.0, -math.inf], [math.nan, 40.0]]).T,    # Fortran order
    [-math.inf, -0.0, math.nan, 7.5],                    # a list
])
def test_array_phi_keeps_shape_and_float_values(zs):
    arr = np.asarray(zs, dtype=float)
    got = np.asarray(Phi(zs))
    assert got.shape == arr.shape
    want = [Phi(float(z)) for z in arr.ravel()]
    np.testing.assert_array_equal(_bits(got).ravel(), _bits(want))


def test_float_phi_tails_and_center():
    assert Phi(0.0) == 0.5
    assert Phi(-40.0) == pytest.approx(0.0, abs=1e-300)
    assert Phi(40.0) == 1.0
    assert Phi(math.inf) == 1.0
    assert Phi(-math.inf) == 0.0


@pytest.mark.parametrize("fn", [Phi, phi, step])
def test_scalar_inputs_return_python_floats(fn):
    for z in (0.3, np.float64(0.3), 2):
        assert type(fn(z)) is float


def test_arrays_stay_arrays():
    zs = np.array([-1.0, 0.0, 1.0])
    assert isinstance(Phi(zs), np.ndarray)
    assert isinstance(phi_over(zs, 2.0), np.ndarray)
    np.testing.assert_array_equal(phi_over(zs, 0.0), [0.0, 0.5, 1.0])


def test_phi_over_float_and_array_agree():
    nums = np.linspace(-9.0, 9.0, 181)
    for den in (0.0, 1e-300, 0.7, 1e300):
        arr = phi_over(nums, den)
        flt = np.array([phi_over(float(v), den) for v in nums])
        assert np.max(np.abs(arr - flt)) <= 1e-15


def test_phi_over_step_limit_is_exact():
    assert phi_over(0.0, 0.0) == 0.5
    assert phi_over(-1e-300, 0.0) == 0.0
    assert phi_over(1e-300, 0.0) == 1.0
    assert type(phi_over(np.float64(1.0), 0.0)) is float
