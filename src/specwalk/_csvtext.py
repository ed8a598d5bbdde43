"""CSV text of float arrays: repr's shortest round-trip digits, computed
for whole arrays at once.

`float_text` gives every element the text repr(float(x)) gives it: the
shortest decimal that reads back as the same double and, of those, the
nearest. Its digits come from Ryu (U. Adams, "Ryu: fast float-to-string
conversion", PLDI 2018), whose digit search needs only integer products
of the scaled mantissa with a 125-bit power of five, which numpy computes
in 32-bit halves on uint64 arrays, about _CHUNK values at a time. The
layout is then repr's: fixed notation for decimal exponents -5 < e < 16,
otherwise a mantissa and a signed exponent of at least two digits.

Arrays of fewer than _REPR_BELOW values, where numpy's fixed cost per
call outweighs the work per value, take repr itself. For the rest, Ryu's
vectorised path covers finite x with 0 < |x| < 2^54 whose mantissa bits
are not all zero and whose digit search does not reach an exact decimal
(Ryu's trailing-zero case). 0.0 and -0.0 get fixed text. The rest falls
back to repr, one value at a time: non-finite values, |x| >= 2^54, exact
powers of two, and values like 1.0, 0.75 or 2.5 whose scaled mantissa
has trailing zeros. Such values are rare in series and chi data, and
their repr is short and cheap.

Text is fixed-width: each cell is _WIDTH bytes (an "S24" array; repr of
a double is at most 24 characters, as in "-2.2250738585072014e-308"),
and may hold NUL bytes anywhere, which stand for no character;
`_csv_blocks`, the row assembler, drops them.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

_WIDTH = 24
_TEXT = f"S{_WIDTH}"
# values formatted by one pass of the vectorised path
_CHUNK = 1 << 13
# arrays shorter than this go through repr: the vectorised path's fixed
# numpy cost, about 0.2 ms a call, matches repr's near 300-500 values
_REPR_BELOW = 256
# cells of one block of CSV rows
_CSV_BLOCK_CELLS = 1 << 15

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
# the shifted scaled mantissa 2 m2 is below 2^54 on the vectorised path
_MAX_EXP = 1077
_POW10 = np.array([10**k for k in range(20)], dtype=_U64)
_ASCII_0 = ord("0")
# the zeros after "0." of 0.d1d2... x 10^point, for point = 0, -1, -2, -3
_LEADING_ZEROS = np.array([b"\0\0\0", b"0\0\0", b"00\0", b"000"], dtype="S3").view(
    np.uint8).reshape(4, 3)


class _Tables(NamedTuple):
    """Ryu's d2s quantities for e2 < 0 (Ryu's names), per biased exponent
    below _MAX_EXP."""

    e10: np.ndarray     # decimal exponent q + e2 of the scaled bounds
    m_hi: np.ndarray    # 5^(-e2 - q), scaled to exactly 125 bits, as two
    m_lo: np.ndarray    # 64-bit limbs
    shift: np.ndarray   # right shift of 2 m2 (+-1) times it: Ryu's j - 1
    inexact: np.ndarray  # 2^q - 1: bits of 4 m2 not all zero unless the
                         # scaled value is an exact integer
    pairs: np.ndarray   # "00".."99" as the 16-bit words holding the bytes
    keep: np.ndarray    # per digit count c, a mask of bytes 1..c of 18,
                        # as nine 16-bit words


@cache
def _tables() -> _Tables:
    """Built exactly from Python ints on the first call. The shift is
    Ryu's j - 1 because the mantissa here carries one factor of two
    fewer; it lies in [117, 121]."""
    e10, hi, lo, shift, inexact = [], [], [], [], []
    for exp in range(_MAX_EXP):
        e2 = max(exp, 1) - 1077
        q = ((-e2 * 732923) >> 20) - (e2 < -1)
        pow5 = 5 ** (-e2 - q)
        bits = pow5.bit_length() - 125
        m = pow5 >> bits if bits >= 0 else pow5 << -bits
        e10.append(q + e2)
        hi.append(m >> 64)
        lo.append(m & (2**64 - 1))
        shift.append(q - bits - 1)
        # Ryu's trailing-zero case: the scaled value is exact when 2^q
        # divides 4 m2, so always when q <= 1
        inexact.append((1 << min(q, 63)) - 1)
    pairs = np.array([f"{k:02d}".encode() for k in range(100)], dtype="S2")
    keep = np.arange(18) - 1 < np.arange(18)[:, None]
    keep[:, 0] = False
    return _Tables(np.array(e10, dtype=np.intp), *(
        np.array(col, dtype=_U64) for col in (hi, lo, shift, inexact)),
        pairs.view(np.uint16), (keep * np.uint8(255)).view(np.uint16))


def _mul64(a, b):
    """The 128-bit products a*b of uint64 arrays, as (high, low) limbs."""
    a0, a1 = a & _LOW32, a >> _U64(32)
    b0, b1 = b & _LOW32, b >> _U64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    low = (mid << _U64(32)) | (p00 & _LOW32)
    high = a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    return high, low


def _bounds(u, m_hi, m_lo, shift):
    """floor((u + d) M / 2^shift) for d = 0, 1, -1, where M = m_hi 2^64 +
    m_lo and 117 <= shift <= 121: Ryu's vr, vp and vm."""
    h0, q0 = _mul64(u, m_lo)
    q2, l1 = _mul64(u, m_hi)
    q1 = l1 + h0
    q2 += q1 < h0
    # Q + M and Q - M: the low limb only carries or borrows, into m_hi,
    # which is below 2^61
    up_hi = m_hi + (q0 + m_lo < q0)
    p1 = q1 + up_hi
    p2 = q2 + (p1 < q1)
    down_hi = m_hi + (q0 < m_lo)
    d1 = q1 - down_hi
    d2 = q2 - (q1 < down_hi)
    up, down = shift - _U64(64), _U64(128) - shift
    return [(x1 >> up) | (x2 << down)
            for x1, x2 in ((q1, q2), (p1, p2), (d1, d2))]


def _digits(value, count):
    """ASCII digits of positive integers below 10^17 with `count` digits
    each: rows of 18 bytes, a NUL, the digits, then NULs."""
    t = _tables()
    x = value * _POW10[17 - count]
    # "0d1", then d2..d17 as two 8-digit halves, written a pair at a time
    out = np.empty((len(x), 9), dtype=np.uint16)
    first = x // _U64(10**16)
    np.take(t.pairs, first, out=out[:, 0])
    x -= first * _U64(10**16)
    high = (x // _U64(10**8)).astype(np.uint32)
    halves = (high, (x - high * _U64(10**8)).astype(np.uint32))
    for start, half in zip((1, 5), halves):
        for k in range(start + 3, start - 1, -1):
            rest = half // np.uint32(100)
            np.take(t.pairs, half - rest * np.uint32(100), out=out[:, k])
            half = rest
    out &= np.take(t.keep, count, axis=0)
    return out.view(np.uint8)


def _ryu(m2, exp, neg):
    """Rows of repr's text of the doubles with these mantissas (implicit
    bit included), biased exponents and signs, all inside the vectorised
    domain."""
    t = _tables()
    vr, vp, vm = _bounds(m2 << _U64(1), t.m_hi[exp], t.m_lo[exp], t.shift[exp])
    # shortest: drop the most digits that leave a multiple of the dropped
    # power of ten inside the open interval (vm, vp); the count found
    # bit by bit from 16 down, since vp // 10^r > vm // 10^r holds for
    # every r up to it and none past it
    removed = np.zeros(len(m2), dtype=np.intp)
    last = np.zeros(len(m2), dtype=_U64)
    for step in (16, 8, 4, 2, 1):
        p, m = vp // _POW10[step], vm // _POW10[step]
        ok = p > m
        if not ok.any():
            continue
        top = vr // _POW10[step - 1]
        r = top // _U64(10)
        np.copyto(last, top - r * _U64(10), where=ok)
        for bound, cut in ((vr, r), (vp, p), (vm, m)):
            np.copyto(bound, cut, where=ok)
        removed += ok * step
    # nearest: round up on a dropped 5..9, and off the excluded lower bound
    digits = vr + ((vr == vm) | (last >= _U64(5)))
    count = np.searchsorted(_POW10, digits, side="right")
    return _layout(_digits(digits, count), count, count + t.e10[exp] + removed, neg)


def _scientific(digits, count, point):
    """d1[.d2..d17]e+-[E]EE"""
    out = np.zeros((len(count), _WIDTH), dtype=np.uint8)
    exp10 = point - 1
    mag = np.abs(exp10)
    out[:, 1] = digits[:, 1]
    out[:, 2] = (count > 1) * ord(".")
    out[:, 3:19] = digits[:, 2:]
    out[:, 19] = ord("e")
    out[:, 20] = np.where(exp10 < 0, ord("-"), ord("+"))
    out[:, 21] = (mag >= 100) * (_ASCII_0 + mag // 100)
    out[:, 22] = _ASCII_0 + mag // 10 % 10
    out[:, 23] = _ASCII_0 + mag % 10
    return out


def _fraction(digits, count, point):
    """0.[000]d1..d17, for -3 <= point <= 0"""
    out = np.zeros((len(count), _WIDTH), dtype=np.uint8)
    out[:, 1] = _ASCII_0
    out[:, 2] = ord(".")
    out[:, 3:6] = _LEADING_ZEROS[-point]
    out[:, 6:23] = digits[:, 1:]
    return out


def _fixed(digits, count, point):
    """d1..d_point, zero-padded, then . and the other digits or 0, for
    1 <= point <= 16"""
    out = np.zeros((len(count), _WIDTH), dtype=np.uint8)
    out[:, 2:19] = digits[:, 1:]
    padded = np.maximum(digits, _ASCII_0)
    for at in np.flatnonzero(np.bincount(point, minlength=17)):
        rows = np.flatnonzero(point == at)
        out[rows, 1:1 + at] = padded[rows, 1:1 + at]
        out[rows, 1 + at] = ord(".")
    out[:, 19] = (point >= count) * _ASCII_0
    return out


def _layout(digits, count, point, neg):
    """Rows of repr's text of 0.d1d2... x 10^point, given the rows of
    `_digits`."""
    layout = 1 + (point > 0)
    layout[(point < -3) | (point > 16)] = 0
    out = np.empty((len(count), _WIDTH), dtype=np.uint8)
    for k, build in enumerate((_scientific, _fraction, _fixed)):
        rows = np.flatnonzero(layout == k)
        if len(rows) == len(out):
            out = build(digits, count, point)
        elif len(rows):
            part = _rows(digits)[rows].view(np.uint8).reshape(len(rows), -1)
            _rows(out)[rows] = _rows(build(part, count[rows], point[rows]))
    out[:, 0] = neg * ord("-")
    return out


def _rows(a):
    """A C-contiguous 2-D uint8 array as a 1-D array of its rows, which
    numpy gathers and scatters faster."""
    return a.view(f"V{a.shape[1]}").reshape(-1)


def _format(x, out):
    """repr's text of the doubles x into the rows of out (zeroed uint8,
    _WIDTH columns)."""
    bits = x.view(_U64)
    neg = (bits >> _U64(63)).astype(bool)
    exp = ((bits >> _U64(52)) & _U64(2047)).astype(np.intp)
    m2 = bits & _U64((1 << 52) - 1)
    zero = (exp == 0) & (m2 == 0)
    fast = (exp < _MAX_EXP) & (m2 != 0)
    exp[~fast] = 0
    m2 |= (exp > 0).astype(_U64) << _U64(52)
    fast &= ((m2 << _U64(2)) & _tables().inexact[exp]) != 0
    rows = np.flatnonzero(fast)
    if len(rows) == len(x):
        out[:] = _ryu(m2, exp, neg)
        return
    if len(rows):
        _rows(out)[rows] = _rows(_ryu(m2[rows], exp[rows], neg[rows]))
    rows = np.flatnonzero(zero)
    out[rows, 0] = neg[rows] * ord("-")
    out[rows, 1:4] = np.frombuffer(b"0.0", dtype=np.uint8)
    rows = np.flatnonzero(~fast & ~zero)
    if len(rows):
        _rows(out)[rows] = _repr_text(x[rows]).view(f"V{_WIDTH}")


def _repr_text(x):
    """repr's text of the doubles x, one value at a time, as _TEXT cells."""
    return np.array(list(map(repr, x.tolist())), dtype=_TEXT)


def float_text(values) -> np.ndarray:
    """repr(float(x)) of every element, as an array of _TEXT cells of the
    same shape; NUL bytes inside a cell stand for no character. Arrays of
    fewer than _REPR_BELOW values take repr itself."""
    x = np.ascontiguousarray(values, dtype=float)
    flat = x.reshape(-1)
    if len(flat) < _REPR_BELOW:
        return _repr_text(flat).reshape(x.shape)
    out = np.zeros((len(flat), _WIDTH), dtype=np.uint8)
    for lo in range(0, len(flat), _CHUNK):
        _format(flat[lo:lo + _CHUNK], out[lo:lo + _CHUNK])
    return out.view(_TEXT).reshape(x.shape)


def int_text(values) -> np.ndarray:
    """Decimal text of non-negative integers below 10^17, as _TEXT cells."""
    v = np.asarray(values, dtype=_U64).reshape(-1)
    count = np.maximum(np.searchsorted(_POW10, v, side="right"), 1)
    out = np.zeros((len(v), _WIDTH), dtype=np.uint8)
    out[:, :18] = _digits(v, count)
    return out.view(_TEXT).reshape(-1)


def _csv_blocks(header, rows, width, cells, labelled=False):
    """ASCII blocks of a CSV: the header line, then `rows` rows of `width`
    comma-separated cells, each block holding about _CSV_BLOCK_CELLS
    cells. cells(lo, hi) gives the text of rows lo..hi-1 as _TEXT cells
    of shape (hi - lo, width), built only when its block is consumed.
    With labelled, each row starts with one more cell, its index from 0.

    Each cell is copied into a slot of _WIDTH bytes followed by its
    separator, and the NUL bytes are dropped.
    """
    yield header.encode()
    lead = int(labelled)
    step = max(1, _CSV_BLOCK_CELLS // (lead + width))
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        slots = np.empty((hi - lo, lead + width, _WIDTH + 1), dtype=np.uint8)
        if labelled:
            slots[:, 0, :-1] = int_text(np.arange(lo, hi)).view(np.uint8).reshape(-1, _WIDTH)
        slots[:, lead:, :-1] = cells(lo, hi).view(np.uint8).reshape(hi - lo, width, _WIDTH)
        slots[:, :, -1] = ord(",")
        slots[:, -1, -1] = ord("\n")
        yield slots.tobytes().translate(None, b"\0")


def _columns(*texts):
    """cells for `_csv_blocks` reading the rows of equal-length _TEXT
    columns."""
    return lambda lo, hi: np.stack([t[lo:hi] for t in texts], axis=1)
