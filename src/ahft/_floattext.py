"""``repr`` text of float64 arrays, computed on the array, as NUL-padded bytes.

:func:`float_rows` writes ``repr`` of each double of an array into a row
of ``ROW_BYTES`` bytes, from byte 0 and NUL after it, and
:func:`digit_rows` the decimal digits of non-negative integers.  The
rows go straight into the byte frames of ``dataset.csv_blocks``, which
drops the NULs of a whole block at once, so no cell becomes a Python
str.  The digits come from Ryū (Adams, "Ryū: fast float-to-string
conversion", PLDI 2018): the shortest decimal that reads back as the
same double and, among those, the closest to it, which is also what
CPython's ``repr`` writes.  Ryū needs only 64-bit integer arithmetic,
so numpy runs it on whole ``uint64`` arrays.  The text is then laid out
in fixed notation, as ``repr`` lays out every double from 1e-4 up to
1e16, by masks and byte shifts of words chosen per layout.  Those
shifts count on numpy's ``uint64`` shifts by 64 bits or more giving 0,
as its baseline and SIMD loops both do.

Only Ryū's common case runs here, for positive doubles from 2**-13 up
to 2**53 whose exact scaled value is not an integer: the long float
columns of the pipeline (fatigue, predictions, grids) almost never fall
below 2**-13.  The rest (negative doubles, doubles below 2**-13 with
zeros, subnormals and all that ``repr`` writes as ``d.ddde-XX``, powers
of two, |x| >= 2**53, inf, nan, and short dyadics such as 0.5 or 3.0,
Ryū's trailing-zero "general case") get the bytes of ``repr``, one at a
time.  ``dataset.csv_blocks`` hands the kernel magnitudes only and
writes a sign byte in front, so signed columns (relative errors,
loadings) take the common case too.
"""

from __future__ import annotations

import numpy as np

from .svg import _HIDDEN_BIT, _MANTISSA, _U

_LOW32 = _U(0xFFFFFFFF)


def _exponent_tables():
    """Per sign bit and biased exponent b: Ryū's 5**i multiplier and more.

    For b in [1010, 1075] (e2 = b - 1077 < 0), Ryū takes q = log10(5**-e2) - 1,
    i = -e2 - q, and 5**i cut to its top 125 bits; vr, vp and vm are
    ``(4*m2 + d) * that >> j`` for d = 0, 2, -2, with j in [118, 121].
    Shifted left by 121 - j, the multiplier E fills at most 128 bits and
    the three become ``(2*m2 + d) * E >> 120`` for d = 0, 1, -1.  The
    scaled value is exact, Ryū's general case, when q <= 1 or 2**q
    divides 4*m2: exactly when the low bits of the significand under
    ``mask`` are all zero, as they are for a power of two.  Every other
    index, that of each negative double among them, keeps a zero mask,
    so all its doubles go to ``repr``.
    """
    minus_e2 = 1077 - np.arange(1010, 1076)
    q = ((minus_e2 * 732923) >> 20) - 1  # log10(5**-e2) - 1
    i = minus_e2 - q
    top_lo, top_hi, pow5 = [], [], 1
    for _ in range(i.max() + 1):
        top = pow5 << 125 >> pow5.bit_length()  # the top 125 bits of 5**i
        top_lo.append(top & 0xFFFFFFFFFFFFFFFF)
        top_hi.append(top >> 64)
        pow5 *= 5
    top_lo, top_hi = np.array(top_lo, dtype=_U), np.array(top_hi, dtype=_U)
    shift = (((i * 1217359) >> 19) + 1 - 4 - q).astype(_U)  # 121 - j: bit length of 5**i - 4 - q
    e_lo, e_hi, mask = np.zeros((3, 4096), dtype=_U)
    e_lo[1010:1076] = top_lo[i] << shift
    e_hi[1010:1076] = (top_hi[i] << shift) | (top_lo[i] >> _U(1) >> (_U(63) - shift))
    mask[1010:1076] = [(1 << min(v - 2, 52)) - 1 if v >= 2 else 0 for v in q.tolist()]
    e10 = np.zeros(4096, dtype=np.intp)
    e10[1010:1076] = q - minus_e2
    return e_lo, e_hi, mask, e10


_E_LO, _E_HI, _REPR_MASK, _E10 = _exponent_tables()
_POW10 = np.array([10 ** k for k in range(20)], dtype=_U)
# _HALF[r]: half a unit in the last of r removed digits.
_HALF = np.array([0] + [5 * 10 ** (k - 1) for k in range(1, 20)], dtype=_U)
# Four decimal digits of k in the low bytes of a word, and their trailing
# zeros, from those of two digits.
_DIGITS2 = np.array([int.from_bytes(b"%02d" % k, "little") for k in range(100)], dtype=_U)
_ZEROS2 = np.array([2, 0, 0, 0, 0, 0, 0, 0, 0, 0] * 10, dtype=np.uint8)
_ZEROS2[10::10] = 1
_DIGITS4 = (_DIGITS2[:, None] | (_DIGITS2 << _U(16))).ravel()
_ZEROS4 = np.where(_ZEROS2 == 2, _ZEROS2[:, None] + 2, _ZEROS2).ravel()
# A double that takes the common case; rows bound for repr compute it instead.
_COMMON = np.float64(0.3).view(_U)
# Doubles per pass: bounds the kernel's arrays, about 40 of PASS words at
# once, whatever the call's length.  The byte frames of ``dataset`` hand
# the kernel a column in spans of whole passes, each span one block.
# csv_blocks of the cohort workload's tables (one Xeon core, median of 12
# rounds, pass sizes interleaved) at 2048 / 4096 / 8192 / 16384 doubles:
# validation.csv's body 15.3 / 14.5 / 13.9 / 15.0 ms, the 10,000-point
# curve 5.1 / 4.1 / 3.8 / 3.5 ms, synthetic.csv 6.4 / 5.6 / 5.3 / 7.1 ms.
# 8192 saves 4-8% for twice the arrays and frames, so 4096 stays.
PASS = 4096


def _words(x):
    """The three 64-bit words of the 24 bytes of x, a non-negative int, low first."""
    return [(x >> 64 * w) & 0xFFFFFFFFFFFFFFFF for w in range(3)]


def _byte_masks(first, stop):
    """Three words with 0xFF in bytes [first, stop) of their 24 bytes."""
    return _words((1 << 8 * stop) - (1 << 8 * first))


def _layout_tables():
    """Per layout key: where the digits and the point go, and what comes in front.

    The key is ``(point + 3) * 18 + n`` for a value ``0.DDD * 10**point``
    of n digits; from 2**-13 up, point is at least -3.  The text after its
    prefix is the digits, at bytes 0-16 of three words, under ``before``,
    the digits one byte on under ``after``, and the point of ``point``:

    - fixed notation from 1 up: digits [0, point), the point, digits
      [point, n) (a common-case double is no integer, so point < n);
    - fixed notation below 1: the n digits, after a prefix "0." and
      -point zeros.

    ``prefix`` holds that "0." and zeros, and ``shift`` their length in
    bits: the text moves up by it.
    """
    before, after, point, prefix, shift = [], [], [], [], []
    for kz in range(-3, 17):
        for n in range(18):
            if kz > 0:
                k, dot, lead = kz, True, b""
            else:
                k, dot, lead = n, False, b"0." + b"0" * -kz
            before.append(_byte_masks(0, k))
            after.append(_byte_masks(k + 1, n + 1) if dot else [0, 0, 0])
            point.append(_words(dot * ord(".") << 8 * k))
            prefix.append(int.from_bytes(lead.ljust(8, b"\0"), "little"))
            shift.append(8 * len(lead))
    return (*(np.array(t, dtype=_U).T.copy() for t in (before, after, point)),
            np.array(prefix, dtype=_U), np.array(shift, dtype=_U))


# Each row of text is four words: ``repr`` from byte 0, NUL after it.  The
# longest text, such as -2.2250738585072014e-308 from ``repr``, is 24
# characters, so byte 24 is always NUL and is left for the caller's separator.
ROW_BYTES = 32
SEPARATOR = 24
_BEFORE, _AFTER, _POINT, _PREFIX, _SHIFT = _layout_tables()
# _LEADING[n] keeps the last n of 16 bytes: the digits of an n-digit number.
_LEADING = np.array([_byte_masks(16 - n, 16)[:2] for n in range(17)], dtype=_U)


def _mul(a_lo, a_hi, e):
    """Low and high words of a * e, for a = a_hi * 2**32 + a_lo < 2**54."""
    e_lo, e_hi = e & _LOW32, e >> _U(32)
    p00, p01 = a_lo * e_lo, a_lo * e_hi
    middle = (p00 >> _U(32)) + (p01 & _LOW32) + a_hi * e_lo
    return ((middle << _U(32)) | (p00 & _LOW32),
            a_hi * e_hi + (p01 >> _U(32)) + (middle >> _U(32)))


def _bounds(p0, p1, p2, e_lo, e_hi):
    """``(p + d*e) >> 120`` for d = 0, 1, -1: Ryū's vr, vp and vm.

    p = p2 * 2**128 + p1 * 2**64 + p0 with p2 < 2**54, e = e_hi * 2**64 + e_lo <= p.
    """
    vr = (p1 >> _U(56)) | (p2 << _U(8))
    t = p1 + e_hi
    s1 = t + ((p0 + e_lo) < e_lo)
    vp = (s1 >> _U(56)) | ((p2 + ((t < e_hi) | (s1 < t))) << _U(8))
    t = p1 - e_hi
    borrow = p0 < e_lo
    vm = ((t - borrow) >> _U(56)) | ((p2 - ((p1 < e_hi) | (t < borrow))) << _U(8))
    return vr, vp, vm


def _trailing_zeros(u):
    """Decimal trailing zeros of each element of ``u`` (all positive)."""
    rest = u // _U(10000)
    zeros = _ZEROS4[(u - rest * _U(10000)).view(np.int64)]
    more = np.flatnonzero(zeros == 4)
    if len(more):
        zeros[more] += _trailing_zeros(rest[more])
    return zeros


def _shortest(bits, b):
    """Ryū's shortest digits of each common-case double: ``(output, exp10)``.

    ``b`` holds the biased exponents.  The double is ``output * 10**exp10``.
    """
    a = ((bits & _MANTISSA) | _HIDDEN_BIT) << _U(1)  # 2 * m2
    a_lo, a_hi = a & _LOW32, a >> _U(32)
    e_lo, e_hi = _E_LO[b], _E_HI[b]
    # p = a * E in three words; then vr, vp and vm from p + d * E.
    p0, low_high = _mul(a_lo, a_hi, e_lo)
    p1, p2 = _mul(a_lo, a_hi, e_hi)
    p1 += low_high
    p2 += p1 < low_high
    vr, vp, vm = _bounds(p0, p1, p2, e_lo, e_hi)

    # Ryū removes the largest count r of digits with vp // 10**r > vm // 10**r,
    # that is vp % 10**r < w = vp - vm.  Since E lies in [2**124, 2**128), w
    # lies in [32, 512]: every r <= r0 = floor(log10 w) qualifies, and a
    # larger r does when vp % 10**(r0+1) < w and the digits of vp from
    # r0 + 1 up to r - 1 are zero.
    w = vp - vm
    wide = w >= _U(100)
    u = np.where(wide, vp // _U(1000), vp // _U(100))
    r = 1 + wide.view(np.int8).astype(np.intp)
    cut = np.flatnonzero(vp - u * _POW10[r + 1] < w)
    r[cut] += 1 + _trailing_zeros(u[cut])
    # Round at the last removed digit, or step up off the excluded vm.
    scale = _POW10[r]
    output = vr // scale
    removed = vr - output * scale
    output += (removed >= vr - vm) | (removed >= _HALF[r])
    return output, _E10[b] + r


def _eight(x):
    """The eight decimal digits of each x < 10**8 as ASCII bytes of a word."""
    high = x // _U(10000)
    low = x - high * _U(10000)
    return _DIGITS4.take(high.view(np.int64)) | (_DIGITS4.take(low.view(np.int64)) << _U(32))


def _rows(output, exp10, rows):
    """Write the ``repr`` text of each double into ``rows``: four words a row, from byte 0."""
    n = np.searchsorted(_POW10[1:18], output, side="right") + 1  # digit count
    point = exp10 + n  # the value is 0.DDD * 10**point; every common-case double is below 1e16
    key = point * 18 + (n + 54)  # as in _layout_tables

    # The 17 digits, left-aligned, at bytes 0-16, and again one byte on.
    left = output * _POW10.take(17 - n)
    top = left // _U(10 ** 9)
    rest = left - top * _U(10 ** 9)
    middle = rest // _U(10)
    text = [_eight(top), _eight(middle), rest - middle * _U(10) + _U(ord("0"))]
    later = [text[0] << _U(8), (text[1] << _U(8)) | (text[0] >> _U(56)),
             (text[2] << _U(8)) | (text[1] >> _U(56))]
    for w in range(3):
        text[w] &= _BEFORE[w].take(key)
        later[w] &= _AFTER[w].take(key)
        text[w] |= later[w]
        text[w] |= _POINT[w].take(key)

    # "0." and zeros go in front: shift the text by their length.
    shift = _SHIFT.take(key)
    back = _U(64) - shift  # a shift by 64 gives 0
    np.bitwise_or(text[0] << shift, _PREFIX.take(key), out=rows[:, 0])
    np.bitwise_or(text[1] << shift, text[0] >> back, out=rows[:, 1])
    np.bitwise_or(text[2] << shift, text[1] >> back, out=rows[:, 2])
    rows[:, 3] = 0


def float_rows(values: np.ndarray) -> np.ndarray:
    """``repr`` of each double of a 1-D float64 array, one ``(ROW_BYTES,)`` uint8 row each.

    A row holds the ASCII text from byte 0 and NUL everywhere else, byte
    ``SEPARATOR`` included.
    """
    bits = values.view(_U)
    b = (bits >> _U(52)).view(np.int64)  # the sign bit and the biased exponent
    to_repr = np.flatnonzero((bits & _REPR_MASK[b]) == 0)
    if len(to_repr):
        bits = bits.copy()
        bits[to_repr] = _COMMON
        b = (bits >> _U(52)).view(np.int64)
    rows = np.empty((len(bits), ROW_BYTES // 8), dtype=_U)
    for start in range(0, len(bits), PASS):
        part = slice(start, start + PASS)
        _rows(*_shortest(bits[part], b[part]), rows[part])
    text = rows.view(np.uint8)
    if len(to_repr):
        reprs = [repr(v).encode("ascii") for v in values[to_repr].tolist()]
        text[to_repr] = np.array(reprs, dtype=f"S{ROW_BYTES}")[:, None].view(np.uint8)
    return text


def digit_rows(values: np.ndarray) -> np.ndarray:
    """Decimal text of non-negative int64 values below 10**16, one ``(16,)`` uint8 row each.

    The digits end at byte 15; NUL fills the bytes before them.
    """
    x = values.view(_U)
    high = x // _U(10 ** 8)
    rows = np.column_stack([_eight(high), _eight(x - high * _U(10 ** 8))])
    rows &= _LEADING[np.searchsorted(_POW10[1:16], x, side="right") + 1]
    return rows.view(np.uint8)
