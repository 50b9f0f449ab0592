"""Periodic finite-difference stencil tests: exactness, accuracy order, validation."""

import math

import numpy as np
import pytest

from gstrand import DerivativeStencil, second_derivative

TWO_PI = 2.0 * math.pi


def grid(n, length=TWO_PI):
    return np.arange(n) * (length / n)


def test_constant_field_has_zero_derivative():
    for order in (2, 4):
        st = DerivativeStencil(order=order, ds=0.1)
        np.testing.assert_array_equal(st(np.full(32, 3.7)), np.zeros(32))


def test_linear_combination_of_columns():
    # acts along axis 0, columns independent
    n = 64
    s = grid(n)
    st = DerivativeStencil(order=2, ds=s[1])
    f = np.stack([np.sin(s), np.cos(2 * s), np.full(n, 1.5)], axis=1)
    df = st(f)
    for j in range(3):
        np.testing.assert_array_equal(df[:, j], st(f[:, j]))


@pytest.mark.parametrize("order,expected", [(2, 2.0), (4, 4.0)])
def test_first_derivative_convergence_order(order, expected):
    errs = []
    for n in (32, 64, 128):
        s = grid(n)
        st = DerivativeStencil(order=order, ds=TWO_PI / n)
        errs.append(np.max(np.abs(st(np.sin(3 * s)) - 3 * np.cos(3 * s))))
    rates = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(rates) > expected - 0.25
    assert max(rates) < expected + 0.25


def test_second_derivative_convergence_order():
    errs = []
    for n in (32, 64, 128):
        s = grid(n)
        errs.append(np.max(np.abs(second_derivative(np.sin(2 * s), TWO_PI / n) + 4 * np.sin(2 * s))))
    rates = [math.log2(errs[k] / errs[k + 1]) for k in range(2)]
    assert min(rates) > 1.8


def test_second_derivative_of_constant_is_zero():
    np.testing.assert_array_equal(second_derivative(np.full(16, 2.5), 0.3), np.zeros(16))


def test_fourth_order_beats_second_on_smooth_data():
    n = 64
    s = grid(n)
    f = np.sin(s) + 0.2 * np.cos(3 * s)
    exact = np.cos(s) - 0.6 * np.sin(3 * s)
    e2 = np.max(np.abs(DerivativeStencil(2, TWO_PI / n)(f) - exact))
    e4 = np.max(np.abs(DerivativeStencil(4, TWO_PI / n)(f) - exact))
    assert e4 < e2 / 10.0


@pytest.mark.parametrize("order,ds", [(3, 0.1), (0, 0.1), (2, 0.0), (2, -1.0), (4, math.nan)])
def test_invalid_construction(order, ds):
    with pytest.raises(ValueError):
        DerivativeStencil(order=order, ds=ds)


def test_periodic_wraparound():
    """The stencil closes the strand: shifting the samples shifts the derivative."""
    n = 32
    s = grid(n)
    st = DerivativeStencil(order=2, ds=TWO_PI / n)
    f = np.sin(s + 0.3)
    np.testing.assert_allclose(st(np.roll(f, 5)), np.roll(st(f), 5), rtol=0.0, atol=1e-14)


# ------------------------------------------------- np.roll oracle, bit for bit


def roll_first(f, order, ds):
    """The stencils as np.roll differences, the form the slices replace."""
    f = np.asarray(f, dtype=float)
    if order == 2:
        return (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)) / (2.0 * ds)
    d1 = np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0)
    d2 = np.roll(f, -2, axis=0) - np.roll(f, 2, axis=0)
    return (8.0 * d1 - d2) / (12.0 * ds)


def roll_second(f, ds):
    f = np.asarray(f, dtype=float)
    return (np.roll(f, -1, axis=0) - 2.0 * f + np.roll(f, 1, axis=0)) / (ds * ds)


def assert_bitwise(got, expected, what):
    assert got.shape == expected.shape and got.dtype == expected.dtype, what
    assert got.tobytes() == expected.tobytes(), what


def oracle_inputs(n):
    """Fields on n nodes in every layout the stencils meet."""
    rng = np.random.default_rng(n)
    table = rng.standard_normal((n, 8))
    if n > 2:
        table[1, 0] = np.inf  # non-finite entries propagate the same way
        table[2, 1] = -0.0
    q, m, nn = table[:, :3], table[:, 3:6], table[:, 5:]
    return {
        "1-D": table[:, 2].copy(),
        "(N_s, 3)": table[:, :3].copy(),
        "(N_s, 5)": table[:, 3:].copy(),
        "peakon [N | M]": np.concatenate((nn, m), axis=1),
        "column view": q[:, 1],
        "strided columns": table[:, ::3],
        "reversed rows": table[::-1, :3],
        "fortran order": np.asfortranarray(table[:, :3]),
        "list": table[:, 2:4].tolist(),
        "integers": np.arange(n) ** 2 - 3 * np.arange(n),
        "integer list": [(k * k) % 7 for k in range(n)],
    }


@pytest.mark.parametrize("n", [*range(1, 10), 256])
def test_stencils_bitwise_equal_roll_formulas(n):
    ds = TWO_PI / n
    with np.errstate(invalid="ignore"):
        for name, f in oracle_inputs(n).items():
            for order in (2, 4):
                expected = roll_first(f, order, ds)
                assert_bitwise(DerivativeStencil(order, ds)(f), expected, f"order {order}, {name}")
                # into a given array: a slot of a larger one, as the lone peakon's RHS passes
                slots = np.full((2,) + expected.shape, np.nan)
                got = DerivativeStencil(order, ds)(f, out=slots[1])
                assert np.shares_memory(got, slots[1])
                assert_bitwise(slots[1], expected, f"order {order}, {name}, out")
            assert_bitwise(second_derivative(f, ds), roll_second(f, ds), f"second, {name}")
