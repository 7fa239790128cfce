"""The universal circle-valued multipliers and their symmetries."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from levlab.loops import r_even, r_odd

INF = float("inf")


def test_value_at_one_matches_reference():
    # -tanh(pi) - i sech(pi), digits from 50-digit arithmetic
    want = complex(-0.99627207622074994, -0.08626673833405443)
    assert abs(r_even(1.0) - want) < 1e-15


def test_value_at_zero():
    assert r_even(0.0) == -1j
    assert r_odd(0.0) == 1j


def test_exact_endpoint_values():
    assert r_even(INF) == -1.0
    assert r_even(-INF) == 1.0
    assert r_odd(INF) == -1.0
    assert r_odd(-INF) == 1.0


def test_saturates_before_clip():
    # the clip at |pi x| = 40 must be invisible in double precision
    assert r_even(20.0) == r_even(1e6)
    assert abs(r_even(20.0) - (-1.0)) < 1e-15


def test_array_evaluation_matches_scalars():
    xs = np.array([-INF, -2.0, 0.0, 0.5, 3.0, INF])
    arr = r_even(xs)
    assert arr.shape == xs.shape
    for x, v in zip(xs, arr):
        assert v == r_even(float(x))


def test_real_part_strictly_decreasing():
    xs = np.linspace(-3.0, 3.0, 41)
    re = np.real(r_even(xs))
    assert np.all(np.diff(re) < 0)


@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_unit_modulus(x):
    assert abs(abs(r_even(x)) - 1.0) < 1e-12


@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_odd_is_conjugate_of_even(x):
    assert r_odd(x) == np.conjugate(r_even(x))


@given(st.floats(-50.0, 50.0, allow_nan=False))
def test_reflection_symmetry(x):
    # r_even(-x) = -conj(r_even(x)): real part flips, imaginary part stays
    assert abs(r_even(-x) + np.conjugate(r_even(x))) < 1e-12


def test_forward_traversal_crosses_lower_half_plane():
    # from +1 at x=-inf to -1 at x=+inf through -i: the lower unit semicircle
    xs = np.linspace(-5.0, 5.0, 101)
    assert np.all(np.imag(r_even(xs)) < 0)
    assert math.isclose(np.imag(r_even(0.0)), -1.0)


def _bits(z):
    """The two IEEE words of a complex number, so that -0.0 differs from 0.0."""
    return np.array([z], dtype=complex).view(np.uint64).tolist()


@given(st.floats(-60.0, 60.0, allow_nan=False))
def test_scalar_value_is_the_array_value_bit_for_bit(x):
    assert _bits(r_even(x)) == _bits(r_even(np.array([x]))[0])


CLIP_EDGE = 40.0 / math.pi


@pytest.mark.parametrize(
    "x",
    [
        0.0,
        -0.0,
        INF,
        -INF,
        CLIP_EDGE,
        -CLIP_EDGE,
        math.nextafter(CLIP_EDGE, 0.0),
        math.nextafter(CLIP_EDGE, INF),
        math.nextafter(-CLIP_EDGE, 0.0),
        math.nextafter(-CLIP_EDGE, -INF),
    ],
)
def test_scalar_value_is_the_array_value_at_the_edges(x):
    assert _bits(r_even(x)) == _bits(r_even(np.array([x]))[0])
    assert _bits(r_even(np.float64(x))) == _bits(r_even(x))
