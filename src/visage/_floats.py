"""The text that repr writes for a block of float64 cells, made for whole
arrays at once.

``lines(block)`` returns exactly
``[",".join(map(repr, row)) for row in block.tolist()]``
without a Python call per cell. A finite normal double that repr writes
positionally (decimal point position decpt with -4 < decpt <= 16) gets
its digits from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): the shortest decimal that rounds back to the double,
and of those the nearest, as CPython's repr picks them. Its arithmetic
runs on uint64 arrays. The text is then assembled by byte masks. Zeros,
subnormals, inf, nan and values that repr writes in exponent form are
written by repr itself.

Schubfach scales v = c * 2^q by 10^-k, with k = floor(log10(2^q)).
Over all doubles that takes a table of 126-bit approximations of 10^-k
and a proof that rounding the products to odd keeps every comparison.
A value that repr writes positionally has -20 <= k <= 0, where 10^-k =
5^-k * 2^-k is an integer below 2^67, so here the products are exact
128-bit integers from a 21-entry table of powers of five, and each
comparison is exact.

Every operand of the kernel is an explicit uint64 or int64 array or
scalar: numpy promotes a uint64/int64 mix to float64, which drops bits,
and numpy 1.x and 2.x promote Python scalars differently (NEP 50).

The tables below are built when this module is first imported. Only
``cohort.save_cohort`` imports it, when it is called, so a command that
writes no cohort never builds them.
"""

from __future__ import annotations

import numpy as np

_U, _I = np.uint64, np.int64

# Cells formatted at a time. It bounds the kernel's arrays to about
# 1 MB (the rows of a 512 x 64 block peak at 1.9 MB traced, their
# 0.67 MB of text included), and a chunk is long enough that numpy's
# cost per call is small: 8192 was no faster, and 2048 was 20 % slower.
_CHUNK = 4096


# 5^j * 2^4 for j = 0..20, the odd part of 10^j with room for a shift.
_FIVES = np.array([5**j << 4 for j in range(21)], _U)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f * 10^k the decimal that repr writes for each
    positive finite normal double whose bit pattern is in ``bits`` and
    whose decimal exponent k lies in [-20, 0]; f has 16 or 17 digits,
    trailing zeros included.

    Other patterns give values that the caller discards: their k alone
    puts them outside repr's positional range."""
    t = bits & _U(2**52 - 1)
    c = t | _U(2**52)
    q = (bits >> _U(52)).view(_I) - _I(1075)  # bits = c * 2^q
    # The rounding interval is asymmetric below a power of two.
    irregular = (t == 0) & (q > _I(-1074))
    k = (q * _I(661971961083) - irregular * _I(274743187321)) >> _I(41)
    # x * 2^q * 10^-k = x * 5^-k * 2^4 / 2^n, with 1 <= n <= 50 for
    # -20 <= k <= 0. The clip keeps the shifts of other cells in range.
    n = np.clip(_I(4) - q + k, 1, 63).view(_U)
    m = _U(64) - n
    five = np.take(_FIVES, -k, mode="clip")
    # v in quarter units: cb = 4c, its interval ends cb - 2 (cb - 1 when
    # irregular) and cb + 2. cb * five as 128 bits: cb < 2^55, five < 2^51.
    cb = c << _U(2)
    cb_lo, cb_hi = cb & _U(2**32 - 1), cb >> _U(32)
    five_lo, five_hi = five & _U(2**32 - 1), five >> _U(32)
    low = cb_lo * five_lo
    middle = cb_lo * five_hi + cb_hi * five_lo
    product_lo = low + (middle << _U(32))
    product_hi = cb_hi * five_hi + (middle >> _U(32)) + (product_lo < low)

    def rop(high, low):
        # (high, low) / 2^n, rounded to odd: below 2^59 for the cells kept.
        return (low >> n) | (high << m) | ((low << m) != 0)

    vb = rop(product_hi, product_lo)
    # Round half to even: an interval end belongs to it when c is even.
    odd = c & _U(1)
    step = np.where(irregular, five, five << _U(1))  # (cb - cbl) * five
    lower_lo = product_lo - step
    lower = rop(product_hi - (lower_lo > product_lo), lower_lo) + odd
    upper_lo = product_lo + (five << _U(1))
    upper = rop(product_hi + (upper_lo < product_lo), upper_lo) - odd
    s = vb >> _U(2)
    # A multiple of ten inside the interval has one digit fewer.
    s10 = s // _U(10) * _U(10)
    below10 = lower <= s10 << _U(2)
    above10 = (s10 + _U(10)) << _U(2) <= upper
    # Otherwise s or s + 1, whichever is inside (one is); when both are,
    # the nearer, ties to even.
    below = lower <= s << _U(2)
    above = (s + _U(1)) << _U(2) <= upper
    nearer_up = vb + (s & _U(1)) > (s << _U(2)) + _U(2)
    f = s + (above & (nearer_up | ~below))
    f = np.where(below10 | above10, np.where(above10, s10 + _U(10), s10), f)
    return f, k


# Each cell is laid out in a row of _WIDTH bytes, and a mask keeps its
# text, in order and in two runs of the row:
#   0      "-", kept before "0."
#   1      "0" when the text starts "0.", else "-"
#   2-18   the 17 digits (A), with "." written over the one after the
#          integer part
#   19-21  "000", for the zeros after "0."
#   22-39  the 17 digits again (B), with the separator written over the
#          one after the last digit kept
# A gives the digits before the point and B those after it, so that the
# text of every value is a mask over the same row.
_WIDTH = 40
_A, _B = 2, 22
_ROW = np.frombuffer(b"-0" + b"0" * 17 + b"000" + b"0" * 18, np.uint8)

# The four ASCII digits of 0..9999 as one uint32, and how many of them
# are left without trailing zeros.
_quads = (np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1])) % 10
_QUADS = (_quads + 48).astype(np.uint8).view(np.uint32).ravel()
_QUAD_DIGITS = np.where(
    _quads.any(axis=1), 4 - np.argmax(_quads[:, ::-1] != 0, axis=1), 0
).astype(np.int8)
del _quads


def _masks() -> np.ndarray:
    """Row (neg * 20 + decpt + 3) * 17 + digits - 1 keeps the text of a
    value of that sign, decimal point position (-3..16) and number of
    significant digits (1..17); the last row keeps only the last byte."""
    neg, decpt, digits = np.indices((2, 20, 17)).reshape(3, -1, 1)
    decpt, digits = decpt - 3, digits + 1
    integer = np.maximum(decpt, 0)
    column, zeros = np.arange(18), np.arange(3)
    rows = np.concatenate(
        [
            (neg == 1) & (decpt <= 0),
            (neg == 1) | (decpt <= 0),
            column[:17] <= integer,
            zeros >= 3 + decpt,
            (column >= integer) & (column <= np.maximum(digits, decpt + 1)),
        ],
        axis=1,
    )
    last_only = np.zeros((1, _WIDTH), bool)
    last_only[0, -1] = True
    return np.concatenate([rows, last_only])


_MASKS = _masks()


def _chunk(values: np.ndarray, ends: np.ndarray) -> bytes:
    """The text of the cells ``values`` (1-d float64), each followed by
    its separator in ``ends``."""
    n = values.size
    bits = values.view(_U)
    negative = (bits >> _U(63)).view(_I)
    magnitude = bits & _U(2**63 - 1)
    f, k = _shortest(magnitude)
    short = f < _U(10**16)
    d = np.where(short, f * _U(10), f)  # 17 digits
    decpt = k + _I(17) - short
    high = d // _U(10**8)
    low = d - high * _U(10**8)
    high_quads = high // _U(10**4)
    first = high_quads // _U(10**4)
    low_quads = low // _U(10**4)
    quads = (
        first,
        high_quads - first * _U(10**4),
        high - high_quads * _U(10**4),
        low_quads,
        low - low_quads * _U(10**4),
    )
    # Significant digits end in the last nonzero group of four.
    last, end = quads[1], np.full(n, 1, _I)
    for j in (2, 3, 4):
        nonzero = quads[j] != 0
        last = np.where(nonzero, quads[j], last)
        end[nonzero] = 4 * j - 3
    digits = end + np.take(_QUAD_DIGITS, last.view(_I), mode="clip")
    exponent = magnitude >> _U(52)
    positional = (exponent != 0) & (exponent != _U(0x7FF)) & (decpt > -4) & (decpt <= 16)
    row = np.where(
        positional, (negative * _I(20) + decpt + _I(3)) * _I(17) + digits - _I(1), _I(-1)
    )
    # The first group holds one digit, in its last byte.
    chars = np.take(_QUADS, np.stack(quads, axis=1).view(_I), mode="clip").view(np.uint8)[:, 3:]
    layout = np.empty((n, _WIDTH), np.uint8)
    layout[:] = _ROW
    layout[:, 1] = np.where(decpt <= 0, np.uint8(ord("0")), np.uint8(ord("-")))
    layout[:, _A : _A + 17] = chars
    layout[:, _B : _B + 17] = chars
    starts = np.arange(0, n * _WIDTH, _WIDTH)
    layout.ravel()[starts + _A + np.clip(decpt, 0, 16)] = ord(".")
    # A value that repr writes itself ends at the row's last byte.
    after = np.where(positional, np.maximum(digits, decpt + _I(1)), _I(17))
    layout.ravel()[starts + _B + after] = ends
    mask = np.take(_MASKS, row, axis=0, mode="wrap")
    if not positional.all():
        rest = ~positional
        reprs = [repr(value) for value in values[rest].tolist()]
        written = np.array(reprs, "S24").view(np.uint8).reshape(-1, 24)
        layout[rest, :24] = written
        mask[rest, :24] = written != 0
    return layout.ravel()[mask.ravel()].tobytes()


def lines(block) -> list[str]:
    """The rows of the 2-d float block, each as its cells as repr writes
    them, joined by ","."""
    block = np.ascontiguousarray(block, dtype=np.float64)
    rows, cols = block.shape
    if not block.size:
        return [""] * rows
    step = max(1, _CHUNK // cols)
    ends = np.full((min(step, rows), cols), ord(","), np.uint8)
    ends[:, -1] = ord("\n")
    ends = ends.ravel()
    # A chunk holds whole rows, so each chunk's text is split into its
    # rows as it is made: the block's text is held once, as rows, never
    # also joined.
    out: list[str] = []
    for start in range(0, rows, step):
        part = block[start : start + step].ravel()
        out += _chunk(part, ends[: part.size]).decode("ascii").split("\n")[:-1]
    return out
