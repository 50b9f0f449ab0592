"""The vectorised %.17g formatter against the interpreter's own '%.17g'."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstrand import _g17


def formatted(values):
    """What ``_g17.cells`` makes of each value, as text."""
    rows = _g17.cells(np.asarray(values, dtype=float))
    return [row[row != 0].tobytes().decode("ascii") for row in rows]


def assert_like_percent(values):
    values = np.asarray(values, dtype=float)
    assert formatted(values) == ["%.17g" % v for v in values.tolist()]


def fast_flags(values):
    """Where each value takes the vectorised path instead of '%.17g'."""
    return _g17._round17(np.abs(np.asarray(values, dtype=float)))[2]


SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@SETTINGS
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float(values):
    """Subnormals, +-0.0, infinities and nans included."""
    assert_like_percent(values)


@SETTINGS
@given(st.lists(st.tuples(st.integers(-10**17, 10**17), st.integers(-20, 20)),
                min_size=1, max_size=64))
def test_decimal_rounded_floats(pairs):
    """Short decimals such as 0.1 or 123.456 sit next to a tie at 17 digits."""
    assert_like_percent([float(f"{m}e{e}") for m, e in pairs])


@SETTINGS
@given(st.lists(st.integers(-10**18, 10**18), min_size=1, max_size=64))
def test_integer_valued_floats(values):
    assert_like_percent([float(v) for v in values])


def neighbours(value, steps=2):
    """``value`` and its ``steps`` nearest doubles on either side."""
    out = [value]
    below = above = value
    for _ in range(steps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [below, above]
    return out


def test_neighbours_of_powers_of_ten():
    values = [v for p in range(-330, 309) for v in neighbours(float(f"1e{p}"))]
    assert_like_percent(values + [-v for v in values])


def test_fast_path_edges():
    """Both ends of 1e-4 <= |x| < 1e16, on both sides, and the points where
    the fixed-point part grows by one digit."""
    edges = [1e-4, 1e16, 0.001, 1.0, 9999999999999998.0, 999999999999999.9]
    values = [v for edge in edges for v in neighbours(edge, steps=4)]
    assert_like_percent(values + [-v for v in values])
    assert fast_flags([1e-4, np.nextafter(1e-4, 0), 1e16]).tolist() == [True, False, False]


def test_every_exponent_of_the_fast_path():
    rng = np.random.default_rng(17)
    values = rng.uniform(1, 10, (20, 200)) * 10.0 ** np.arange(-4, 16)[:, None]
    values[:, ::2] *= -1
    fast = fast_flags(values.ravel()).reshape(values.shape)
    # every one takes the fast path, the exact ties that are common from
    # about 1e11 up included
    assert fast.all()
    assert_like_percent(values.ravel())


def is_tie(x):
    """Whether y = |x| 10^(16 - k) lies halfway between integers, for |x| >= 1."""
    k = len(str(int(abs(x)))) - 1
    return (Fraction(x) * 10 ** (16 - k)).denominator == 2


def test_exact_ties_take_the_fast_path():
    """y halfway between integers, which '%.17g' rounds half to even; so
    does hi + rint(lo), as hi is even."""
    ties = [1000000000000000.25, 1000000000000000.75, 100000000000000.125,
            100000000000000.375, -1000000000000000.25]
    assert all(is_tie(x) for x in ties)
    assert fast_flags(ties).all()
    assert formatted(ties) == ["1000000000000000.2", "1000000000000000.8",
                               "100000000000000.12", "100000000000000.38",
                               "-1000000000000000.2"]
    assert_like_percent(ties)


def test_tie_sweep_at_the_two_top_exponents():
    """1,000 exact ties at k = 14, n + odd/8 in [5.6e14, 1e15), and 1,000 at
    k = 15, n + 1/4 in [1e15, 2.25e15); every such double is one."""
    rng = np.random.default_rng(14)
    k14 = rng.integers(560 * 10**12, 10**15, 1000) + rng.choice([1, 3, 5, 7], 1000) / 8
    k15 = rng.integers(10**15, 2250 * 10**12, 1000) + 0.25
    ties = np.concatenate((k14, k15))
    ties[::2] *= -1
    assert all(is_tie(x) for x in ties.tolist())
    assert fast_flags(ties).all()
    assert_like_percent(ties)


@pytest.mark.parametrize("shift", [-1, 1])
def test_an_exponent_off_by_one_takes_the_fallback(monkeypatch, shift):
    """A log10 one too small makes D reach 1e17 (a carry past 17 digits); one
    too large leaves D under 1e16.  Either way the value goes to '%.17g'."""
    rng = np.random.default_rng(3)
    values = rng.uniform(1, 10, 400) * 10.0 ** rng.integers(-4, 16, 400)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    assert not fast_flags(values).any()
    assert_like_percent(values)


def test_rows_are_zero_padded_ascii():
    """No output byte is zero, so dropping zero bytes recovers each value."""
    values = np.array([-0.0, 0.0, 1.5, -2.5e-300, np.nan, -np.inf, 123456.789, 5e-324])
    rows = _g17.cells(values)
    # 123456.789 has k = 5: two integer words after the first
    assert rows.shape == (values.size, 24 + 4 * 2) and rows.dtype == np.uint8
    assert max(len("%.17g" % v) for v in values.tolist()) <= rows.shape[1] <= _g17.WIDTH
    assert formatted(values) == ["-0", "0", "1.5", "-2.5e-300", "nan",
                                 "-inf", "123456.789", "4.9406564584124654e-324"]


def test_empty_and_shaped_input():
    assert _g17.cells(np.array([])).shape == (0, 24)
    grid = np.arange(6.0).reshape(2, 3) / 7
    assert formatted(grid) == ["%.17g" % v for v in grid.ravel().tolist()]


def width(values):
    return _g17.cells(np.asarray(values, dtype=float)).shape[1]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_width_follows_largest_exponent(sign):
    """24 bytes, plus 4 for each integer word after the first that the
    largest k = floor(log10|x|) of the call needs (word j when k >= 4j - 3)."""
    small = sign * np.array([1e-4, 0.5, 9.999999999999998, 3.0, 0.0])
    assert width(small) == 24
    for k, expected in [(1, 28), (4, 28), (5, 32), (8, 32), (9, 36), (12, 36),
                        (13, 40), (15, 40)]:
        values = np.append(small, sign * 1.25 * 10.0**k)
        assert width(values) == expected, k
        assert_like_percent(values)
    # a value the fallback formats sets no width, however large
    fallback = sign * np.array([0.0, 5e-324, 1e-300, 1e16, 1.7976931348623157e308,
                                np.inf, np.nan, 9.5e-5])
    assert width(fallback) == 24
    assert width(np.append(fallback, sign * 12.5)) == 28
    assert width([]) == 24
    assert_like_percent(fallback)
    # every fallback text fits in the narrowest row: 17 digits, a point, an
    # exponent of three digits and its sign, and the value's sign
    longest = sign * np.array([5e-324, 1.7976931348623157e308, 2.2250738585072014e-308])
    assert max(len("%.17g" % v) for v in longest.tolist()) <= 24
    assert len("%.17g" % -5e-324) == 24
    assert width(longest) == 24
    assert_like_percent(longest)


def load_kernel_digests():
    """scripts/kernel_digests.py, whose ``_g17.cells`` value set these tests share."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "kernel_digests.py"
    spec = importlib.util.spec_from_file_location("kernel_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def texts(rows):
    return [row[row != 0].tobytes() for row in rows]


@pytest.mark.parametrize("size", [1, 3, 100, 4096])
def test_comma_cells_on_the_kernel_digest_values(size):
    """Every cell from ``comma_from`` on is b"," + b"%.17g" % v: powers of
    ten with their two nearest doubles on either side, random mantissas at
    every exponent, ties at k = 14 and 15, +-0.0, infinities, nans and
    subnormals, both signs, in chunks of ``size`` values."""
    values = load_kernel_digests().g17_cases()
    oracle = [b"%.17g" % v for v in values.tolist()]
    for start in range(0, values.size, size):
        chunk, expected = values[start:start + size], oracle[start:start + size]
        assert texts(_g17.cells(chunk, comma_from=0)) == [b"," + t for t in expected]
        # the first values of a chunk bare, as a CSV row's time is
        half = len(chunk) // 2
        if half:
            mixed = expected[:half] + [b"," + t for t in expected[half:]]
            assert texts(_g17.cells(chunk, comma_from=half)) == mixed


def test_comma_cells_widen_for_the_longest_fallback_text():
    """A comma and the 24 bytes of "%.17g" % -5e-324 take 25: such a chunk's
    comma cells are 28 bytes wide, its bare cells keep 24."""
    longest = np.array([-5e-324, 0.5])
    assert _g17.cells(longest).shape == (2, 24)
    rows = _g17.cells(longest, comma_from=0)
    assert rows.shape == (2, 28)
    assert texts(rows) == [b",-4.9406564584124654e-324", b",0.5"]
    assert _g17.cells(longest, comma_from=1).shape == (2, 24)


def runs(rows):
    """The number of zero-free byte runs in each row."""
    nonzero = np.pad(rows != 0, ((0, 0), (1, 0)))
    return np.count_nonzero(nonzero[:, 1:] & ~nonzero[:, :-1], axis=1)


def test_cell_text_runs_unbroken():
    """On the fast path the lead (comma, sign, "0." and zeros after the
    point) meets the first digit, and the point the fraction: a value with
    k < 0 is one run of bytes, one with k >= 0 at most two."""
    rng = np.random.default_rng(25)
    values = rng.uniform(1, 10, (20, 50)) * 10.0 ** np.arange(-4, 16)[:, None]
    values[:, ::2] *= -1
    for comma_from in (None, 0):
        rows = runs(_g17.cells(values.ravel(), comma_from=comma_from)).reshape(values.shape)
        assert (rows[:4] == 1).all()
        assert (rows[4:] <= 2).all() and (rows[4:] == 2).any()
