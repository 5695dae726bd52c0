"""CSV rows of float64 values, each written exactly as Python's ``'%.17g'``.

Every finite x with 1e-10 <= |x| < 1e15 is encoded with numpy.  Its 17
significant digits are D = round-half-even(|x| * 10**s), s = 16 - X, where
X = floor(log10 |x|).  With |x| = M * 2**e (M a 53-bit integer),
|x| * 10**s = M * 5**s / 2**k with k = -(e + s) in [1, 63], and M * 5**s is
held exactly in two uint64 halves.  A float log10 that lands one off next
to a power of ten shows as floor(|x| * 10**s) outside [1e16, 1e17) and is
corrected.  No value in the range rounds up to a power of ten: the double
nearest below each lies further from it than half a unit of the 17th digit.

The text of a value is a fixed record: the sign, the ``0.000`` prefix of
the fixed notation below 1, the 17 digits each followed by a slot for the
decimal point, the ``e-XX`` exponent and the separator, with NUL in the
slots a value does not use.  Each slot is one contiguous uint8 row over
the values of a block; a slot that is NUL in every value of the block is
left out.  One transpose lays the records end to end and one
``bytes.translate`` drops the NULs.  Every other value (0, subnormals, inf,
nan and the magnitudes outside the range) is formatted by Python's own
``'%.17g'`` into its record.

uint64 arithmetic takes np.uint64 operands only: under numpy 1.x a uint64
mixed with a Python or a signed int becomes float64 and drops digits.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_ONE = _U64(1)
_E16, _E17 = _U64(10 ** 16), _U64(10 ** 17)

# the range encoded here, and the decimal exponents X it gives
_MIN, _MAX = 1e-10, 1e15
_X_LO, _X_HI = -10, 14

# np.log10 is faithful, not correctly rounded, and may land on the wrong side
# of a power of ten; a module name, so that a test can make it err more
_log10 = np.log10

# 5**s for s = 16 - X, X one off the range included, as 32-bit halves
_POW5 = np.array([5 ** s for s in range(17 - _X_LO + 1)], dtype=_U64)
_POW5_LO, _POW5_HI = _POW5 & _LOW32, _POW5 >> _U64(32)

# _DIGIT[c, g]: ASCII of the c-th of the four digits of g in 0..9999;
# _TRAILING_ZEROS[g]: how many of them end the group (4 for g = 0)
_DIGIT = (np.arange(10000, dtype=np.uint16) // np.array([[1000], [100], [10], [1]], np.uint16)
          % np.uint16(10)).astype(np.uint8) + np.uint8(ord("0"))
_TRAILING_ZEROS = (_DIGIT[::-1] == ord("0")).cumprod(axis=0).sum(axis=0).astype(np.uint8)


def _x_table(text_of_x, width: int) -> np.ndarray:
    """(width, X range) ASCII rows of a text that depends on X only."""
    table = np.zeros((width, _X_HI - _X_LO + 1), np.uint8)
    for i, x in enumerate(range(_X_LO, _X_HI + 1)):
        text = text_of_x(x).encode()
        table[: len(text), i] = np.frombuffer(text, np.uint8)
    return table


# %g writes X >= -4 in fixed notation, X < -4 in scientific
_PREFIX_ROWS = _x_table(lambda x: "0." + "0" * (-x - 1) if -4 <= x < 0 else "", 5)
_EXP_ROWS = _x_table(lambda x: f"e-{-x:02d}" if x < -4 else "", 4)
# the digit the point follows (255: the point is in the prefix), and the
# digits kept whatever trailing zeros they are
_POINT_AFTER = np.array([x if x >= 0 else 0 if x < -4 else 255
                         for x in range(_X_LO, _X_HI + 1)], np.uint8)
_INTEGER_DIGITS = np.array([max(x + 1, 0) for x in range(_X_LO, _X_HI + 1)], np.uint8)


def _digits(m: np.ndarray, e2: np.ndarray, x: np.ndarray):
    """(floor, round-up flag) of |v| * 10**(16 - x) for |v| = m * 2**e2."""
    s = 16 - x
    f0, f1 = _POW5_LO[s], _POW5_HI[s]
    k = (-e2 - 16 + x).astype(_U64)
    m0, m1 = m & _LOW32, m >> _U64(32)
    p00, p01, p10 = m0 * f0, m0 * f1, m1 * f0
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    lo = (mid << _U64(32)) | (p00 & _LOW32)
    hi = m1 * f1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    q = (hi << (_U64(64) - k)) | (lo >> k)
    rem = lo & ((_ONE << k) - _ONE)
    half = _ONE << (k - _ONE)
    return q, (rem > half) | ((rem == half) & (q & _ONE).astype(bool))


def _text_rows(values: np.ndarray) -> list:
    """The record slots, in text order, of values in [_MIN, _MAX) in
    magnitude, each a uint8 row over the values; slots NUL for every value
    are left out."""
    mag = np.abs(values)
    frac, e2 = np.frexp(mag)
    m = (frac * 2.0 ** 53).astype(_U64)
    e2 = e2.astype(np.int64) - 53
    x = np.floor(_log10(mag)).astype(np.int64)
    q, up = _digits(m, e2, x)
    off = np.flatnonzero((q < _E16) | (q >= _E17))
    if off.size:
        x[off] += (q[off] >= _E17).astype(np.int64) - (q[off] < _E16)
        q[off], up[off] = _digits(m[off], e2[off], x[off])
    d = q + up

    # d = g0 g1 g2 g3 g4: one digit, then four groups of four
    high, low = np.divmod(d, _U64(10 ** 8))
    g0, high = np.divmod(high.astype(np.uint32), np.uint32(10 ** 8))
    groups = [g.astype(np.intp) for part in (high, low.astype(np.uint32))
              for g in np.divmod(part, np.uint32(10 ** 4))]
    zeros = _TRAILING_ZEROS[groups[3]]
    all_zero = groups[3] == 0
    for g in groups[2::-1]:
        zeros += _TRAILING_ZEROS[g] * all_zero
        all_zero &= g == 0
    xi = (x - _X_LO).astype(np.intp)
    shown = np.maximum(np.uint8(17) - zeros, _INTEGER_DIGITS[xi])
    point = _POINT_AFTER[xi]
    point[shown - np.uint8(1) <= point] = 255  # no digit after the point

    x_present = np.zeros(_X_HI - _X_LO + 1, bool)
    x_present[xi] = True
    point_present = np.zeros(256, bool)
    point_present[point] = True
    rows = []
    sign = np.signbit(values)
    if sign.any():
        rows.append(sign * np.uint8(ord("-")))
    rows += [table[xi] for table in _PREFIX_ROWS if table[x_present].any()]
    rows.append(g0.astype(np.uint8) + np.uint8(ord("0")))
    for j in range(int(shown.max())):
        if j:
            rows.append(_DIGIT[(j - 1) % 4][groups[(j - 1) // 4]] * (shown > j))
        if point_present[j]:
            rows.append((point == j) * np.uint8(ord(".")))
    rows += [table[xi] for table in _EXP_ROWS if table[x_present].any()]
    return rows


def format_rows(block: np.ndarray) -> bytes:
    """The CSV text of a 2-D float64 block: ``'%.17g'`` values joined by
    ``,``, each row ended by CRLF."""
    rows, cols = block.shape
    values = block.ravel()
    mag = np.abs(values)
    fast = (mag >= _MIN) & (mag < _MAX)
    text_rows = _text_rows(np.where(fast, values, 1.0))
    rest = np.flatnonzero(~fast)
    if rest.size:
        texts = [("%.17g" % v).encode() for v in values[rest].tolist()]
        width = max(len(text_rows), max(map(len, texts)))
        text_rows += [np.zeros(values.size, np.uint8)] * (width - len(text_rows))
    rec = np.stack(text_rows + [
        np.tile(np.array([ord(",")] * (cols - 1) + [ord("\r")], np.uint8), rows),
        np.tile(np.array([0] * (cols - 1) + [ord("\n")], np.uint8), rows)])
    if rest.size:
        text = b"".join(t.ljust(width, b"\0") for t in texts)
        rec[:width, rest] = np.frombuffer(text, np.uint8).reshape(rest.size, width).T
    return rec.T.tobytes().translate(None, b"\0")
