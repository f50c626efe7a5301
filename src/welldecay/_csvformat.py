"""CSV rows of float columns, every value written as format(v, ".15g") writes it.

The text of a block of rows is built by numpy for all its values at once:

- A double-double product of |v| and 10**(14 - e) (Dekker's split, no FMA)
  gives the correctly rounded 15-digit integer mantissa and its decimal
  exponent e. 10**k is formed as hi + lo with exact integer arithmetic, in
  one table for the whole fast range, built at first use.
- Integer arithmetic in 3-digit chunks turns the mantissa into 16 bytes of
  digit text. Shifts drop the trailing zeros and insert the point.
- Each value's text is 32 little-endian bytes in four uint64 words, NUL in
  the bytes it does not use: sign and "0.000" prefix | 16 mantissa bytes |
  "e+dd[d]" and the separator. Each word fills a contiguous plane; one
  transposed copy interleaves them and one bytes.translate deletes the NULs.

Values the product cannot decide go through format() itself: inf, nan, +-0,
|v| outside [1e-280, 1e280) and mantissas within 1e-6 of a rounding tie.

Two measured costs shape the code. It uses only numpy loops that the rest
of the package loads anyway (no log10, no bitwise and/or on integers, no
integer floor division or abs; np.clip's wrapper cost more than a take):
the first use of any other loop maps 64 KB more of numpy's code, which
counts in a run's peak RSS. A pass formats 4096 values, as one column's did
before; with one BLAS thread a benchmark pass peaked at 41.09, 41.09 and
50.15 MB on spectra-trajectory, continuum-solvers and chain-sidebands
(40.98, 41.18, 50.18 MB before; code layout alone moves these by 0.1 MB).
And it is a module of its own: with bytecode caching off, compiling it as
part of cli.py raised the peak RSS of a benchmark pass by about 0.3 MB.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_U64 = np.uint64
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for binary64
_LOG10_2 = math.log10(2.0)


def _pack(text: str) -> int:
    return int.from_bytes(text.encode(), "little")


_DIGITS3 = np.array([_pack(f"{i:03d}") for i in range(1000)], _U64)  # "000".."999"
_PREFIX = np.array([0, *(_pack("0." + "0" * z) << 8 for z in range(4)), 0], _U64)  # by -e
_ZEROS = _U64(_pack("0" * 8)), _U64(_pack("0" * 7))
_SHIFTS = np.array([64 - 8 * n for n in range(9)], _U64)  # x << s >> s keeps n low bytes


@functools.cache
def _pow10():
    """Rows hi, hi's upper and lower Dekker halves, lo; column 281 - e holds 10**(14 - e)
    as hi + lo to about 2**-106, for e in [-281, 281]: |v| in [1e-280, 1e280), one off."""
    hi, lo = np.empty(563), np.empty(563)
    for i, k in enumerate(range(-267, 296)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi[i] = num / den  # int / int is correctly rounded
        p, q = hi[i].as_integer_ratio()
        lo[i] = (num * q - p * den) / (den * q)
    upper = _SPLIT * hi - (_SPLIT * hi - hi)
    return np.array([hi, upper, hi - upper, lo])


def _scaled(a, e):
    """Integer part and fraction of a * 10**(14 - e), the fraction good to about 1e-16."""
    hi, hi_upper, hi_lower, lo = _pow10().take(281 - e, axis=1)
    p = a * hi
    t = _SPLIT * a
    a_upper = t - (t - a)
    a_lower = a - a_upper
    err = ((a_upper * hi_upper - p) + a_upper * hi_lower + a_lower * hi_upper
           + a_lower * hi_lower + a * lo)  # a * hi - p exactly, plus a * lo
    n = np.floor(p)
    return n, (p - n) + err


def _mantissa(v):
    """m, the correctly rounded 15-digit mantissa of each value as a float in
    [1e14, 1e15), its decimal exponent e, and whether the two decide its text."""
    a = np.abs(v)
    fast = (a >= 1e-280) & (a < 1e280)
    a[~fast] = 1.0
    e = np.floor(np.log2(a) * _LOG10_2).astype(np.int64)
    n, frac = _scaled(a, e)
    while True:  # next to a power of ten e can be one off: move it until m has 15 digits
        m = n + np.floor(frac + 0.5)
        low, high = n < 1e14, m > 1e15
        off = np.flatnonzero(low | high)
        if not off.size:
            break
        e[off] += np.where(high[off], 1, -1)
        n[off], frac[off] = _scaled(a[off], e[off])
    fast &= np.abs(frac - 0.5) >= 1e-6
    carry = m == 1e15  # rounded up to the next power of ten
    m[carry] = 1e14
    e[carry] += 1
    return m, e, fast


def _low_bytes(x, n):
    """The low n bytes of each word of x, n clipped to [0, 8] (numpy shifts by 64 give 0)."""
    s = _SHIFTS.take(n, mode="clip")
    return (x << s) >> s


def _format_values(v, words) -> None:
    """Write the text of each value v[i] into words[:, i]."""
    m, e, fast = _mantissa(v)
    chunks = []  # the 3-digit chunks of m, last first
    for _ in range(5):
        q = np.floor(m / 1000.0)  # exact: m < 2**53 is a whole number
        chunks.append(_DIGITS3.take((m - 1000.0 * q).astype(np.int64)))
        m = q
    c4, c3, c2, c1, c0 = chunks
    lo = c0 + (c1 << _U64(24)) + (c2 << _U64(48))  # digits 0..7, one per byte
    hi = (c2 >> _U64(16)) + (c3 << _U64(8)) + (c4 << _U64(32))  # digits 8..14
    values = (hi - _ZEROS[1]).astype(float) * 2.0**64 + (lo - _ZEROS[0]).astype(float)
    digits = np.floor(np.log2(values) / 8).astype(np.int64) + 1  # through the last nonzero one

    fixed = (e >= -4) & (e < 15)  # written without an exponent
    point = np.where(fixed, e + 1, 1)  # the byte after the integer digits
    keep = np.maximum(digits, point)
    lo, hi = _low_bytes(lo, keep), _low_bytes(hi, keep - 8)
    point[(keep <= point) | (point <= 0)] = 16  # no point
    below_lo, below_hi = _low_bytes(lo, point), _low_bytes(hi, point - 8)
    above_lo = lo - below_lo
    dot = 8 * point.astype(_U64)
    words[1] = below_lo + (above_lo << _U64(8)) + (_U64(ord(".")) << dot)
    words[2] = (below_hi + (hi - below_hi << _U64(8)) + (above_lo >> _U64(56))
                + (_U64(ord(".")) << np.where(point >= 8, dot - _U64(64), _U64(64))))

    words[0] = _PREFIX.take(-e, mode="clip") + np.where(v < 0, _U64(ord("-")), _U64(0))
    ae = np.maximum(e, -e)
    exponent = (_DIGITS3.take(ae) >> np.where(ae < 100, _U64(8), _U64(0))) << _U64(16)
    exponent += np.where(e < 0, _U64(_pack("e-")), _U64(_pack("e+")))
    words[3] = np.where(fixed, _U64(0), exponent)

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(format(x, ".15g").encode().ljust(24, b"\0") for x in v[slow].tolist())
        words[:3, slow] = np.frombuffer(text, "<u8").reshape(-1, 3).T
        words[3, slow] = 0


def format_rows(columns) -> bytes:
    """The CSV lines of equal-length float64 columns, as format(v, ".15g") writes each value."""
    values = np.stack(columns, axis=1).ravel()  # row by row
    words = np.empty((4, values.size), "<u8")  # one plane per word
    _format_values(values, words)
    ends = words[3].reshape(-1, len(columns))
    ends[:, :-1] += _U64(ord(",") << 56)
    ends[:, -1] += _U64(ord("\n") << 56)
    return words.T.tobytes().translate(None, b"\0")
