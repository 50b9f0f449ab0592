"""The bytes of ``'%.17g' % x`` for every value of a float64 array, vectorised.

``cells(x)`` gives one row of bytes per value: the ASCII bytes of
``'%.17g' % x`` in order, with zero bytes around and between them, and
``cells(x, comma_from=i)`` puts a comma before the text of every value from
index i on, so a CSV cell carries its own separator.  No output byte is
zero, so rows laid side by side read as text once every zero byte is dropped
(``buf[buf != 0]``).  All rows of one call have one width, which the largest
integer part among the values sets: 24 bytes when every value is below 10,
and 4 more for each further 4 integer digits, up to ``WIDTH``.  (A comma
cell whose fallback text takes 25 bytes makes the width at least 28.)

For 1e-4 <= |x| < 1e16, ``%.17g`` prints 17 significant digits in fixed
point, and the row is formed in five steps:

1. k = floor(log10|x|);
2. y = |x| 10^(16 - k), formed exactly as a Dekker two-product hi + lo
   (10^p is exact in binary64 for p <= 22, and hi is an even integer
   because y >= 1e16 > 2^53);
3. D = hi + rint(lo), y rounded to an integer: the 17 digits;
4. D's digits, as 4-digit words from a table of 10,000;
5. the lead (the comma, the sign, and for k < 0 "0." and the zeros after
   the point), the integer digits, the point and the fractional digits,
   each in a fixed slot of the row; digits that are not in a part,
   trailing fractional zeros and a point with no fraction after it are
   zero bytes.

The lead ends where the first digit begins and the point sits in the slot
of the last integer digit, so the text of a value with k < 0 runs unbroken
and that of a value with k >= 0 is two runs of bytes, its integer part and
its point and fraction.  Dropping the zero bytes costs time in proportion
to the number of runs.

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

# A row is two frames, one for the integer part and one for the fraction.
# Frame byte b holds digit i = b - 3 of D, of place value 10^(k - i): a
# frame's word 0 is 3 free bytes and the leading digit, and its word j >= 1
# holds digits 4j - 3 to 4j, D's group j of 4 digits.  The integer frame
# shows digits i <= k, the fraction frame the point in the slot of digit k
# and then digits i > k.  Word j >= 1 of the integer frame is zero for
# every k < 4j - 3, and a call leaves out those words that no value of it
# needs.  _INTEGER[j][k + 4] masks word j of the integer frame.
_DIGIT = np.arange(20) - 3
_INTEGER = np.array([_mask((_DIGIT >= 0) & (_DIGIT <= k)) for k in range(-4, 16)]).T.copy()

# Word j >= 1 of the fraction frame is _FRACTION[_PLACE[j][k + 4] + 10000 s + g]
# for group g, where s = 1 when every later group of D is zero, which
# strips g's trailing zeros.  _PLACE tells where the point falls: before
# the word (every digit fractional), in its byte b (a point when some digit
# after it is not zero, then the digits after it), or after it (nothing).
# With s = 0 some later digit is not zero, so the point is always there.
_WORD_BYTES = _WORD.view(np.uint8).reshape(20000, 4)
_POINTS = [np.where(_WORD_BYTES[:, b + 1:].any(axis=1) | (np.arange(20000) < 10000), ord("."), 0)
           .astype(np.uint8) for b in range(4)]
_FRACTION = np.concatenate(
    [_WORD_BYTES]
    + [np.column_stack((np.zeros((20000, b), np.uint8), _POINTS[b], _WORD_BYTES[:, b + 1:]))
       for b in range(4)]
    + [np.zeros_like(_WORD_BYTES)]).view(np.uint32).ravel()
_PLACE = 20000 * np.array([[0 if k < 4 * j - 3 else min(k - 4 * j + 4, 5) for k in range(-4, 16)]
                           for j in range(5)])


def _lead(k, negative, comma):
    """The text before a value's first digit."""
    point = b"0." + b"0" * (-k - 1) if k < 0 else b""
    return b"," * comma + b"-" * negative + point


# A value's lead is _LEAD[k + 4 + 20 negative + 40 comma], and the tables
# that take it are indexed by 10 lead + D's leading digit g.  For k >= 0 the
# lead fills the free bytes of the integer frame, ahead of g.  For k < 0 its
# last 3 bytes fill those of the fraction frame, ahead of g, and the rest,
# its head of at most 4 bytes, ends the integer frame: in word 0 when that
# is the frame's one word (_FIRST[0]), otherwise ORed into its last (_HEAD).
# Word 0 of the fraction frame is _FRACTION0[10000 s + 10 lead + g]; for
# k = 0 it holds the point unless s.
_LEAD = [(k, _lead(k, negative, comma)) for comma in (0, 1) for negative in (0, 1) for k in range(-4, 16)]
_HEAD = _words([lead[:-3].rjust(4, b"\0") if k < 0 else b"" for k, lead in _LEAD for g in range(10)])
_FIRST = _words([lead.rjust(3, b"\0") + b"%d" % g if k >= 0 else b"" for k, lead in _LEAD for g in range(10)])
_FIRST = np.array([_FIRST | _HEAD, _FIRST])
_FRACTION0 = np.zeros(10800, np.uint32)
_FRACTION0[:800], _FRACTION0[10000:] = (
    _words([lead[-3:].rjust(3, b"\0") + b"%d" % g if k < 0 else b"\0\0\0." * (k == 0 and not s)
            for k, lead in _LEAD for g in range(10)])
    for s in (0, 1))

# The widest row: both frames whole, for a call with some k >= 13.  The
# narrowest, 24 bytes, holds len("%.17g" % -5e-324), the longest fallback
# text; a comma cell widens to 28 for such a text.
WIDTH = 40


def _round17(a):
    """(k, D, fast) for each |x| in ``a``: the exponent k and the 17 digits D
    of the fast path, and where they hold (elsewhere k = 0, D = 1e16).
    The entries of ``a`` off the fast path are set to 1."""
    fast = a >= 1e-4
    fast &= a < 1e16
    if not fast.all():
        a[~fast] = 1.0
    k = np.log10(a)
    k = np.floor(k, out=k).astype(np.intp)
    p = 16 - k
    hi = np.take(_POW, p)
    hi *= a
    c = _SPLIT * a
    a1 = c - a
    a1 = np.subtract(c, a1, out=a1)
    a2 = np.subtract(a, a1, out=c)
    p1, p2 = np.take(_POW_HI, p), np.take(_POW_LO, p)
    # hi + lo == a 10^p exactly
    lo = a1 * p1
    lo -= hi
    a1 *= p2
    lo += a1
    p1 *= a2
    lo += p1
    a2 *= p2
    lo += a2
    d = hi.astype(np.int64)
    d += np.rint(lo, out=lo).astype(np.int64)
    d -= 10**16
    fast &= d.view(np.uint64) < 9 * 10**16  # 10^16 <= D < 10^17
    d += 10**16
    if not fast.all():
        slow = ~fast
        k[slow] = 0
        d[slow] = 10**16
    return k, d, fast


def cells(x, comma_from=None):
    """``'%.17g' % v`` of each value of ``x``, after a comma from index
    ``comma_from`` on, as (x.size, width) zero-padded bytes, where width =
    24 + 4 m <= WIDTH and m is the number of integer words after the first
    that some value needs (or 1, for a comma cell whose fallback text takes
    25 bytes)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    k, d, fast = _round17(np.abs(x))
    bare = x.size if comma_from is None else comma_from  # the values without a comma
    slow = np.flatnonzero(~fast)
    text = [b"," * (i >= bare) + b"%.17g" % v for i, v in zip(slow.tolist(), x[slow].tolist())]
    longest = max(map(len, text), default=0)
    # a word for every 4 integer digits after the first, or for every 4
    # bytes of fallback text after 24
    extra = max(0, (int(k.max(initial=0)) + 3) // 4, (longest - 21) // 4)
    row = k + 4
    lead = 10 * row
    lead += 200 * np.signbit(x)
    lead[bare:] += 400
    out = np.empty((x.size, 6 + extra), np.uint32)
    stripped = np.full(x.size, 10000)
    group = np.empty_like(d)
    index = np.empty_like(d)
    for j in range(4, 0, -1):
        quotient = d // 10000
        np.subtract(d, np.multiply(quotient, 10000, out=group), out=group)
        d = quotient
        np.add(group, stripped, out=index)
        if j <= extra:
            out[:, j] = np.take(_WORD, group) & np.take(_INTEGER[j], row)
            index += np.take(_PLACE[j], row)
        out[:, 1 + extra + j] = np.take(_FRACTION, index)
        stripped *= group == 0
    index = np.add(lead, d, out=index)  # d is now the leading digit
    out[:, 0] = np.take(_FIRST[min(extra, 1)], index)
    if extra:
        out[:, extra] |= np.take(_HEAD, index)
    index += stripped
    out[:, 1 + extra] = np.take(_FRACTION0, index)
    out = out.view(np.uint8)
    if text:
        width = out.shape[1]
        out[slow] = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return out
