"""The bytes of ``'%.17g' % x`` for every value of a float64 array, vectorised.

``cells(x)`` gives one row of bytes per value: the ASCII bytes of
``'%.17g' % x`` in order, with zero bytes between and after them.  No output
byte is zero, so rows laid side by side read as text once every zero byte is
dropped (``buf[buf != 0]``).  All rows of one call have one width, which the
largest integer part among the values sets: 24 bytes when every value is
below 10, and 4 more for each further 4 integer digits, up to ``WIDTH``.

For 1e-4 <= |x| < 1e16, ``%.17g`` prints 17 significant digits in fixed
point, and the row is formed in five steps:

1. k = floor(log10|x|);
2. y = |x| 10^(16 - k), formed exactly as a Dekker two-product hi + lo
   (10^p is exact in binary64 for p <= 22, and hi is an even integer
   because y >= 1e16 > 2^53);
3. D = hi + rint(lo), y rounded to an integer: the 17 digits;
4. D's digits, as 4-digit words from a table of 10,000;
5. the sign, the integer digits (a "0" if k < 0), the point, the zeros
   after it (if k < 0) and the fractional digits, each in a fixed slot of
   the row; digits that are not in a part, trailing fractional zeros and a
   point with no fraction after it are zero bytes.

As hi is even, step 3 rounds an exact tie lo = +-1/2 (as many as half the
doubles from 1e14 up) half to even, as ``'%.17g'`` does.  Every other
value takes ``'%.17g'`` itself, so the fallback is the oracle rather than
an approximation: zero, |x| < 1e-4, |x| >= 1e16 (subnormals, infinities and
nans among them), and any D outside [1e16, 1e17), which a log10 that is off
by one or a rounding carry gives.
"""

import numpy as np

_POW = np.array([float(10**p) for p in range(23)])
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter into two 26-bit halves
_POW_HI = _SPLIT * _POW - (_SPLIT * _POW - _POW)
_POW_LO = _POW - _POW_HI


def _words(strings):
    """Each byte string, zero-padded to 4 bytes, as one uint32."""
    return np.array(strings, dtype="S4").view(np.uint32)


def _mask(keep):
    return np.where(keep, 255, 0).astype(np.uint8).view(np.uint32)


# The 4-digit word of g, then of g with its trailing zeros made zero bytes
_WORD = _words([b"%04d" % g for g in range(10000)]
               + [(b"%04d" % g).rstrip(b"0") for g in range(10000)])
# A row is two frames of five words, one for the integer part and one for the
# fraction.  Each frame holds D's 17 digits after 3 free bytes: its first word
# is "000" plus the leading digit, and frame byte b holds digit j = b - 3, of
# place value 10^(k - j).  The integer frame's free bytes take the sign and,
# for k < 0, "0."; the fraction frame's take the point for k >= 0, or the
# zeros after the point for k < 0.  _INTEGER[j][k + 4] masks word j of the
# integer frame for exponent k, and _FRACTION likewise.  Word j >= 1 of the
# integer frame holds digits 4j - 3 to 4j, so it is zero for every k < 4j - 3,
# and a call leaves out those words that no value of it needs.
_DIGIT = np.arange(20) - 3
_INTEGER = np.array([_mask((_DIGIT >= 0) & (_DIGIT <= k)) for k in range(-4, 16)]).T.copy()
_FRACTION = np.array([_mask((_DIGIT >= 0) & (_DIGIT > k)) for k in range(-4, 16)]).T.copy()
_LEAD = _words([(b"-" if negative else b"\x00") + (b"0." if k < 0 else b"")
                for negative in (0, 1) for k in range(-4, 16)])  # by k + 4 + 20 negative
_POINT = _words([(b"." if point and k >= 0 else b"") + b"0" * max(0, -k - 1)
                 for k in range(-4, 16) for point in (0, 1)])  # by 2 (k + 4) + point

# The widest row: both frames whole, for a call with some k >= 13.  The
# narrowest, 24 bytes, holds len("%.17g" % -5e-324), the longest fallback text.
WIDTH = 40


def _round17(a):
    """(k, D, fast) for each |x| in ``a``: the exponent k and the 17 digits D
    of the fast path, and where they hold (elsewhere k = 0, D = 1e16)."""
    fast = (a >= 1e-4) & (a < 1e16)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    p = 16 - k
    hi = a * _POW[p]
    c = _SPLIT * a
    a1 = c - (c - a)
    a2 = a - a1
    p1, p2 = _POW_HI[p], _POW_LO[p]
    lo = ((a1 * p1 - hi) + a1 * p2 + a2 * p1) + a2 * p2  # hi + lo == a 10^p exactly
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    fast &= (d >= 10**16) & (d < 10**17)
    return np.where(fast, k, 0), np.where(fast, d, 10**16), fast


def cells(x):
    """``'%.17g' % v`` of each value of ``x``, as (x.size, width) zero-padded
    bytes, where width = 24 + 4 m <= WIDTH and m is the number of integer
    words after the first that some value needs."""
    x = np.asarray(x, dtype=np.float64).ravel()
    k, d, fast = _round17(np.abs(x))
    extra = max(0, (int(k.max(initial=0)) + 3) // 4)  # word j >= 1 when some k >= 4j - 3
    row = k + 4
    out = np.empty((x.size, 6 + extra), np.uint32)
    stripped = np.full(x.size, 10000)  # _WORD's stripped half while later groups are zero
    fraction = np.zeros(x.size, np.uint32)
    for j in range(4, -1, -1):
        if j:
            quotient = d // 10000
            group = d - 10000 * quotient
            d = quotient
        else:
            group = d  # the leading digit, as D < 10^17
        if j <= extra:
            out[:, j] = _WORD[group] & _INTEGER[j][row]
        tail = _WORD[group + stripped] & _FRACTION[j][row]
        out[:, 1 + extra + j] = tail
        fraction |= tail
        if j:
            stripped *= group == 0
    point = fraction != 0
    out[:, 0] |= _LEAD[row + 20 * np.signbit(x)]
    out[:, 1 + extra] |= _POINT[2 * row + point]
    out = out.view(np.uint8)

    slow = np.flatnonzero(~fast)
    if slow.size:
        width = out.shape[1]
        text = [("%.17g" % v).encode() for v in x[slow].tolist()]
        out[slow] = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return out
