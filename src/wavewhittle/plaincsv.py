"""Exact, vectorized reader of the numbers in a plain CSV panel body.

The plain dialect is ASCII, ``,`` between cells, ``\\n`` or ``\\r\\n`` at the
end of each row, and cells of the form ``[+-]?digits[.digits][(e|E)[+-]?digits]``
with at least one mantissa digit (either side of the dot may be empty) and no
padding.  ``parse_body`` returns the value ``float(cell)`` gives for every
cell, bit for bit, or None when the body leaves that dialect, so that the
caller can hand the file to its row-by-row reader.

Each cell is read like this (Clinger 1990; Lemire 2021, *Software: Practice
and Experience* 51, "Number parsing at a gigabyte per second"):

1. Its mantissa digits, the dot taken out, become a ``uint64`` m, eight
   digits per word.  This needs at most 19 significant digits, so m < 10**19.
2. The decimal exponent e10 is the written exponent less the number of
   digits after the dot.
3. When |e10| <= 27 the value is m times or divided by 10**|e10| in x87
   extended precision: 10**k = 5**k * 2**k is exact in its 64-bit
   significand, so the product or quotient is rounded once.  Rounding it
   again to float64 is then correct unless that first rounding landed on a
   float64 halfway point.
4. Any other cell, a cell whose result lands on a halfway point, and every
   cell on a host without the 64-bit long double, is read by ``float(cell)``.

The body is read in row-aligned blocks of about 256 KB, which bounds the
temporaries to a few MB whatever the size of the file.
"""

from __future__ import annotations

import csv
import math
import sys

import numpy as np

# numpy's longdouble is the x87 80-bit format (64-bit significand) stored in
# 16 little-endian bytes: steps 3 and 4 above rely on both
_EXTENDED = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and sys.byteorder == "little"
)
_BLOCK_BYTES = 1 << 18
_MAX_EXP = 27  # the largest k with 10**k exact in 64 bits (5**27 < 2**63)
_WIN = 24  # mantissa bytes read in place per cell: three uint64 words

_U64 = np.uint64
_WORDS = np.dtype("<u8")  # the first byte of a word is its least significant


def _pow10() -> np.ndarray:
    powers = [np.longdouble(1)]
    for _ in range(_MAX_EXP):
        powers.append(powers[-1] * 10)  # exact: every power here fits 64 bits
    return np.array(powers, dtype=np.longdouble)


def _masks(keep) -> np.ndarray:
    """(3, _WIN + 1) words; column k keeps the window bytes c with keep(k, c)."""
    rows = [[0xFF if keep(k, c) else 0 for c in range(_WIN)] for k in range(_WIN + 1)]
    return np.array(rows, dtype=np.uint8).view(_WORDS).T.astype(_U64, order="C")


def _every_byte(value: int) -> np.uint64:
    return _U64(int.from_bytes(bytes([value]) * 8, "little"))


_POW10 = _pow10()
_LAST = _masks(lambda k, c: c >= _WIN - k)  # the last k bytes of the window
_FIRST = _masks(lambda k, c: c < k)  # the first k bytes of the window
_ZEROS, _DOTS, _LOW7 = _every_byte(ord("0")), _every_byte(ord(".")), _every_byte(0x7F)
_WORD_END = np.array([[1], [9], [17]], dtype=np.uint8)  # 1 + the first column of each word


def _eight_digits(v: np.ndarray) -> np.ndarray:
    """In place: words of eight digit values (0-9, first digit in the low
    byte) become the numbers they spell, by three multiply-shift steps."""
    v *= _U64(10 * 256 + 1)
    v >>= _U64(8)
    v &= _U64(0x00FF00FF00FF00FF)
    v *= _U64(100 * 65536 + 1)
    v >>= _U64(16)
    v &= _U64(0x0000FFFF0000FFFF)
    v *= _U64(10000 * 2**32 + 1)
    v >>= _U64(32)
    return v


def parse_body(data: bytes, start: int, width: int) -> np.ndarray | None:
    """The (rows, width) values of ``data[start:]``, or None if it is empty or
    leaves the plain dialect."""
    blocks = []
    pos, size = start, len(data)
    while pos < size:
        cut = data.find(b"\n", pos + _BLOCK_BYTES - 1)
        end = size if cut < 0 else cut + 1
        k = end - pos
        buf = np.zeros(_WIN + k + 1, dtype=np.uint8)
        buf[_WIN:_WIN + k] = np.frombuffer(data, dtype=np.uint8, count=k, offset=pos)
        if data[end - 1] != ord("\n"):  # the last row may lack its line end
            buf[_WIN + k] = ord("\n")
            k += 1
        values = _parse_block(buf[:_WIN + k], data, pos - _WIN, width)
        if values is None:
            return None
        blocks.append(values)
        pos = end
    return np.concatenate(blocks) if blocks else None


def _parse_block(buf: np.ndarray, data: bytes, base: int, width: int) -> np.ndarray | None:
    """Values of whole rows at ``buf[_WIN:]``, the last ending in '\\n'.

    The first _WIN bytes of ``buf`` are padding, so every cell has a full
    window of bytes before its end.  Byte i of ``buf`` is ``data[base + i]``.
    """
    body = buf[_WIN:]
    seps = np.flatnonzero((body == ord(",")) | (body == ord("\n")))
    n = seps.size
    if n % width:
        return None
    seps += _WIN
    line_end = buf[seps] == ord("\n")
    rows = line_end.reshape(-1, width)
    if not rows[:, -1].all() or rows[:, :-1].any():
        return None
    crlf = (buf[seps - 1] == ord("\r")) & line_end
    starts = np.empty(n, dtype=np.intp)
    starts[0] = _WIN
    np.add(seps[:-1], 1, out=starts[1:])
    ends = seps - crlf

    # bytes.find rules out an exponent mark faster than a pass over the block
    lo, hi = base + _WIN, base + buf.size
    n_exp = 0
    if data.find(b"e", lo, hi) >= 0 or data.find(b"E", lo, hi) >= 0:
        is_exp = (body | 0x20) == ord("e")
        n_exp = int(np.count_nonzero(is_exp))
    first = buf[starts]
    negative = first == ord("-")
    sign = negative | (first == ord("+"))
    mantissa_end = ends
    if n_exp:
        exp_at = np.flatnonzero(is_exp) + _WIN
        exp_cell = np.searchsorted(seps, exp_at)
        if (np.diff(exp_cell) == 0).any():
            return None  # two marks in one cell
        mantissa_end = ends.copy()
        mantissa_end[exp_cell] = exp_at
    mantissa_len = mantissa_end - starts
    long_cell = mantissa_len > _WIN

    # The window of each cell's mantissa, right-aligned, as 3 words (3, n);
    # item i of ``window`` is buf[i:i + _WIN], a plain strided view.
    window = np.ndarray((buf.size - _WIN + 1,), np.dtype(f"V{_WIN}"), buf, 0, (1,))
    words = window[mantissa_end - _WIN].view(_WORDS).reshape(-1, 3).T.astype(_U64, order="C")
    # The high bit of every '.' byte in the mantissa, by the exact zero-byte
    # test on words ^ '........'.
    dots = words ^ _DOTS
    low = dots & _LOW7
    low += _LOW7
    dots |= low
    dots |= _LOW7
    np.invert(dots, out=dots)
    dots &= _LAST.take(np.minimum(mantissa_len, _WIN), axis=1)
    dots -= _U64(1)
    byte = np.bitwise_count(dots) >> 3  # the dot's byte in its word, 8 where none
    dot_end = ((byte < 8) * (byte + _WORD_END)).max(axis=0)  # 1 + its column, 0 if none
    has_dot = dot_end > 0
    n_digits = mantissa_len - sign - has_dot

    # Take the dot out: the bytes before it move one column right.  What is
    # left of the digits is masked to 0, the sign and the padding included.
    moved = words << _U64(8)
    moved[1:] |= words[:-1] >> _U64(56)
    moved ^= words
    moved &= _FIRST.take(dot_end, axis=1)
    words ^= moved
    words ^= _ZEROS
    words &= _LAST.take(np.clip(n_digits, 0, _WIN), axis=1)
    eights = _eight_digits(words)
    mantissa = eights[0] * _U64(10**16)
    mantissa += eights[1] * _U64(10**8)
    mantissa += eights[2]
    exponent = np.where(has_dot, dot_end.astype(np.intp) - _WIN, 0)

    exp_digits = 0
    if n_exp:
        exp_end = ends[exp_cell]
        after = buf[exp_at + 1]
        exp_negative = after == ord("-")
        exp_sign = exp_negative | (after == ord("+"))
        n_exp_digits = exp_end - exp_at - 1 - exp_sign
        last = window[exp_end - _WIN].view(_WORDS)[2::3].astype(_U64)
        last ^= _ZEROS
        last &= _LAST[2, np.clip(n_exp_digits, 0, 8)]
        written = _eight_digits(last).astype(np.intp)
        exponent[exp_cell] += np.where(exp_negative, -written, written)
        long_cell[exp_cell] |= n_exp_digits > 8
        read = ~long_cell[exp_cell]
        if (n_exp_digits[read] < 1).any():
            return None
        exp_digits = int(n_exp_digits[read].sum())

    # A cell read above has a sign, a dot, an exponent mark and an exponent
    # sign at most, where they were found; a long cell is left to float().
    # Every other byte of a cell must be a digit, so the digits of the block
    # must number exactly those bytes: this refuses "1-2", "1..2", a padded
    # or a non-ASCII cell, and a \r that does not end a row.
    read = ~long_cell
    if (n_digits[read] < 1).any():
        return None
    digits = int(n_digits[read].sum()) + exp_digits
    by_float = long_cell | (eights[0] >= 1000) | (np.abs(exponent) > _MAX_EXP)
    cells = np.flatnonzero(long_cell)
    limit = csv.field_size_limit()  # a longer cell is an error for csv.reader
    for lo, hi in zip((starts[cells] + base).tolist(), (ends[cells] + base).tolist()):
        if hi - lo > limit:
            return None
        digits += len(data[lo:hi].translate(None, b"+-.eE"))
    if digits != np.count_nonzero((body - ord("0")) < 10):
        return None

    value = mantissa.astype(np.longdouble)
    scale = _POW10.take(np.minimum(np.abs(exponent), _MAX_EXP))
    up = exponent > 0
    if up.any():
        value = np.where(up, value * scale, value / scale)
    else:
        value /= scale
    if _EXTENDED:
        # the low 11 of the 64 significand bits are what float64 rounds off
        by_float |= (value.view(_U64)[::2] & _U64(0x7FF)) == _U64(0x400)
    else:
        by_float[:] = True
    out = value.astype(np.float64)
    out.view(_U64)[:] |= negative.astype(_U64) << _U64(63)
    cells = np.flatnonzero(by_float)
    for i, lo, hi in zip(cells.tolist(), (starts[cells] + base).tolist(),
                         (ends[cells] + base).tolist()):
        try:
            out[i] = cell = float(data[lo:hi])
        except ValueError:
            return None
        if not math.isfinite(cell):
            return None
    return out.reshape(-1, width)
