"""Shortest round-trip decimal text of float64 arrays, laid out as CSV bytes.

Every value is written as ``repr(float(value))`` writes it: the shortest
decimal that reads back as the same double, the one closest to it where
several are that short, ties to an even last digit (CPython's ``repr``,
David Gay's dtoa in mode 0).  The digits of the normal finite values are
found for whole arrays at once by the Schubfach algorithm (R. Giulietti,
"The Schubfach way to render doubles", 2020; cf. U. Adams, "Ryū: fast
float-to-string conversion", PLDI 2018): one table entry ``g(k)``, a
126-bit upper approximation of ``10**-k``, scales the value and both ends
of its rounding interval; the 64 x 64 -> 128-bit products are formed from
32-bit limbs in ``uint64``, once per value, and those of the interval's
ends follow from them by exact 128-bit additions.  Java's reference forces
at least two digits, which differs from ``repr`` only among subnormals.

The layout is CPython's: with the value ``0.d1d2...dn * 10**decpt``,
positional notation when ``-4 < decpt <= 16``, with ``.0`` after an
integer; otherwise ``d1.d2...dne±XX``, with at least two exponent digits.
Zeros print as ``0.0`` and ``-0.0`` without a digit search.  NaN, the
infinities and the subnormal values take ``repr`` itself, one call each.

A field is a row of 48 byte slots and a mask of the slots it keeps: the
sign, the ``0.000`` prefix of a small value, 17 digits each followed by a
``.`` slot, ``e``, the exponent's sign and three digits, a separator and
two slots never kept.  The row is six 8-byte words, each looked up whole
from a table: the sign, prefix and first digit; four groups of four
digits; the exponent.  The mask is looked up by the field's layout: its
sign, notation, digit count and decimal point (or exponent width).  A
line's bytes are its fields' kept slots in order.  The tables are built by
the first call, not at import.
"""

from __future__ import annotations

import functools

import numpy as np

_WORDS = 6  # 8-byte words per field
# digit i sits at slot _DIGIT + 2 i, its "." slot right after it; then "e"
# at _E, the exponent's sign and three digits, and the separator
_DIGIT = 6
_E = _DIGIT + 34
_SEP = _E + 5
_WORD = np.dtype("<u8")
# rows of the word table: first digits, then groups of four digits, then exponents
_GROUP_ROW, _EXP_ROW = 10, 10 + 10_000
# the tables' decimal point positions decpt run from -_DECPT to _DECPT - 1
_DECPT = 330
# mask keys run over sign, notation, _POSITIONS decimal points (positional)
# or exponent widths, and 1 to 17 digits
_POSITIONS = 20

_K_MIN, _K_MAX = -324, 292
_M32 = (1 << 32) - 1
_M63 = (1 << 63) - 1


def _g() -> list[int]:
    """``g(k) = floor(10**-k / 2**r) + 1`` for k in [_K_MIN, _K_MAX], with
    ``r`` such that it lies in [2**125, 2**126); the powers of ten are
    formed once, by multiplication."""
    powers = [1]
    for _ in range(max(-_K_MIN, _K_MAX)):
        powers.append(powers[-1] * 10)
    g = []
    for p in powers[-_K_MIN::-1]:  # 10**-k for k = _K_MIN .. 0
        r = p.bit_length() - 126
        g.append((p >> r if r >= 0 else p << -r) + 1)
    for m in powers[1 : _K_MAX + 1]:
        g.append((1 << (125 + m.bit_length())) // m + 1)
    return g


def _words(chars: np.ndarray) -> np.ndarray:
    """Rows of 8 bytes as little-endian 8-byte words."""
    return np.ascontiguousarray(chars, dtype=np.uint8).view(_WORD)[..., 0]


@functools.cache
def _tables() -> dict[str, np.ndarray]:
    """The Schubfach constants per biased exponent, the word table and the
    slot masks per layout."""
    # row e is biased exponent e with regular spacing, row 2048 + e the
    # irregular spacing of a power of two (below the smallest normal's)
    q = np.tile(np.arange(2048, dtype=np.int64) - 1075, 2)
    irregular = np.repeat(np.arange(2, dtype=np.int64), 2048)
    # floor(log10(2**q)), or floor(log10(3/4 2**q)); floor(log2(10**-k))
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = q + ((-k * 913_124_641_741) >> 38) + 2
    g = _g()
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)[k - _K_MIN]
    g0 = np.array([x & _M63 for x in g], dtype=np.uint64)[k - _K_MIN]
    # row 0 holds zeros, subnormals, infinities and NaN, with f = 0: decpt 1
    # prints a zero as 0.0, and the others take repr
    k[0] = -15

    ascii_digits = np.arange(10, dtype=np.uint8) + ord("0")
    first = np.tile(np.frombuffer(b"-0.0000.", dtype=np.uint8), (10, 1))
    first[:, _DIGIT] = ascii_digits
    # the four digits of each group 0 .. 9999, most significant first
    group = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
    groups = np.full((10_000, 8), ord("."), dtype=np.uint8)
    groups[:, ::2] = group + ord("0")
    decpt = np.arange(-_DECPT, _DECPT)
    exp10 = abs(decpt - 1)
    exponents = np.tile(np.frombuffer(b"e+000,  ", dtype=np.uint8), (decpt.size, 1))
    exponents[:, 1] = np.where(decpt - 1 < 0, ord("-"), ord("+"))
    exponents[:, 2:5] = ascii_digits[exp10[:, None] // np.array([100, 10, 1]) % 10]
    # the position, counted from the first digit, of the last non-zero digit
    # of group g at place p (0 for g = 0) is last[p * 10_000 + g]
    length = (np.arange(1, 5, dtype=np.uint8) * (group != 0)).max(axis=1)
    last = np.where(length == 0, 0, np.arange(0, 16, 4, dtype=np.uint8)[:, None] + length)

    # mask[neg, use_exp, position, n - 1, slot]; position: decpt + 3 in
    # positional notation, whether the exponent has three digits otherwise
    neg, use_exp, position, n = np.ix_(range(2), range(2), range(_POSITIONS), range(1, 18))
    j = np.arange(8 * _WORDS)
    digit_slot = (j >= _DIGIT) & (j < _E) & (j % 2 == 0)
    dot_slot = (j > _DIGIT) & (j < _E) & (j % 2 == 1)
    i = (j - _DIGIT) // 2
    point = position[..., None] - 3
    n = n[..., None]
    positional = (
        ((j == 1) | (j == 2)) & (point <= 0)
        | (j >= 3) & (j < _DIGIT) & (j - 3 < -point)
        | digit_slot & (i < np.maximum(n, point + 1))
        | dot_slot & (i == point - 1)
    )
    exponential = (
        digit_slot & (i < n)
        | dot_slot & (i == 0) & (n > 1)
        | (j >= _E) & (j < _SEP) & (j != _E + 2)
        | (j == _E + 2) & (position[..., None] == 1)
    )
    mask = (j == 0) & (neg[..., None] == 1) | (j == _SEP) | np.where(use_exp[..., None] == 1, exponential, positional)
    # the part of the mask key that decpt sets: notation and position
    use = (decpt <= -4) | (decpt > 16)
    layout = (use * _POSITIONS + np.where(use, exp10 >= 100, decpt + 3)) * 17

    tables = {
        "k": k + (_DECPT + 16),
        "h": h.astype(np.uint64),
        "g1": g1,
        "g0": g0,
        "g1_hi": g1 >> 32,
        "g1_lo": g1 & _M32,
        "g0_hi": g0 >> 32,
        "g0_lo": g0 & _M32,
        "words": _words(np.concatenate([first, groups, exponents])),
        "last": last.reshape(-1),
        "layout": layout,
        "masks": _words(mask.view(np.uint8).reshape(-1, _WORDS, 8) * 0xFF),
    }
    for table in tables.values():
        table.flags.writeable = False
    return tables


def _mulhi(a, b):
    """The high 64 bits of the 128-bit products ``a * b``, from 32-bit limbs
    ``(a >> 32, a & M32)`` and ``(b >> 32, b & M32)``."""
    (a1, a0), (b1, b0) = a, b
    mid = a1 * b0 + ((a0 * b0) >> 32)
    mid2 = a0 * b1 + (mid & _M32)
    return a1 * b1 + (mid >> 32) + (mid2 >> 32)


def _shift(a, s):
    """``a 2**s`` as a 128-bit (high, low) pair of words, for ``0 < s < 64``."""
    return a >> (64 - s), a << s


def _add(p, q):
    """The sum of the 128-bit (high, low) pairs ``p`` and ``q``."""
    low = p[1] + q[1]
    return p[0] + q[0] + (low < q[1]), low


def _sub(p, q):
    """The difference of the 128-bit (high, low) pairs ``p`` and ``q``."""
    low = p[1] - q[1]
    return p[0] - q[0] - (low > p[1]), low


def _rop(x, y):
    """``floor(g cp / 2**127)`` rounded to odd (its last bit set when bits
    below it are), for ``g = g1 2**63 + g0``, from the 128-bit products
    ``x = g0 cp`` and ``y = g1 cp`` as (high, low) words."""
    z = (y[1] >> 1) + x[0]
    return (y[0] + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(bits, t):
    """Schubfach's shortest decimal ``f 10**e`` in the rounding interval of
    each normal value, the closest where several are that short, ties to
    even; ``(f, row)`` with ``f`` of 16 or 17 digits and ``row`` the
    value's row in the exponent tables, which give ``e``."""
    exponent = (bits >> 52 & 0x7FF).astype(np.intp)
    frac = bits & ((1 << 52) - 1)
    # a power of two above the smallest normal is nearer its lower neighbour
    irregular = (frac == 0) & (exponent > 1)
    row = np.where(irregular, exponent + 2048, exponent)
    h = t["h"][row]
    g1, g0 = t["g1"][row], t["g0"][row]
    # 4 v in units of 10**e from cp = 4 c 2**h, and the ends of its rounding
    # interval from cp -+ 2**(h + 1) (2**h below a power of two): the
    # products g0 cp and g1 cp shift by exact additions of g0 and g1
    cp = ((frac | (1 << 52)) << 2) << h
    limbs = (cp >> 32, cp & _M32)
    x = (_mulhi((t["g0_hi"][row], t["g0_lo"][row]), limbs), g0 * cp)
    y = (_mulhi((t["g1_hi"][row], t["g1_lo"][row]), limbs), g1 * cp)
    vb = _rop(x, y)
    lower = h + 1 - irregular
    vbl = _rop(_sub(x, _shift(g0, lower)), _sub(y, _shift(g1, lower)))
    vbr = _rop(_add(x, _shift(g0, h + 1)), _add(y, _shift(g1, h + 1)))
    # an end is in the interval when the significand is even
    out = frac & 1
    # s 10**e <= v < (s + 1) 10**e; sp10 and tp10 bracket v one digit shorter
    s = vb >> 2
    sp10 = s // 10 * 10
    tp10 = sp10 + 10
    upin = vbl + out <= sp10 << 2
    wpin = (tp10 << 2) + out <= vbr
    uin = vbl + out <= s << 2
    win = (s << 2) + 4 + out <= vbr
    mid = (2 * s + 1) << 1
    nearer_s = (vb < mid) | (vb == mid) & (s & 1 == 0)
    f = np.where(upin != wpin, np.where(upin, sp10, tp10), np.where(uin & (~win | nearer_s), s, s + 1))
    return f, row


def _fill(x, words, masks) -> None:
    """Write the field of each value of the float array ``x`` to ``words``
    and the mask of its kept slots to ``masks``, both of shape
    ``x.shape + (6,)``."""
    t = _tables()
    bits = np.ascontiguousarray(x).reshape(-1).view(np.uint64)
    exponent = bits >> 52 & 0x7FF
    normal = np.flatnonzero((exponent != 0) & (exponent != 0x7FF))
    f, row = np.zeros(bits.size, dtype=np.uint64), np.zeros(bits.size, dtype=np.intp)
    f[normal], row[normal] = _shortest(bits[normal], t)
    # f left-aligned to 17 digits; d is decpt + _DECPT
    long = f >= 10**16
    d = t["k"][row] + long
    # the first digit, then four groups of four
    index = np.empty((_WORDS, bits.size), dtype=np.intp)
    index[4] = np.where(long, f, f * 10)
    for j in (3, 2, 1, 0):
        np.floor_divide(index[j + 1], 10**4, out=index[j])
    index[1:5] -= index[:4] * 10**4
    n_1 = t["last"][index[1:5] + np.arange(0, 40_000, 10_000)[:, None]].max(axis=0)
    key = (bits >> 63).astype(np.intp) * (2 * _POSITIONS * 17) + t["layout"][d] + n_1
    index[1:5] += _GROUP_ROW
    index[5] = d + _EXP_ROW
    np.take(t["words"], np.moveaxis(index.reshape((-1,) + x.shape), 0, -1), out=words, mode="clip")
    np.take(t["masks"], key.reshape(x.shape), axis=0, out=masks, mode="clip")

    # NaN, infinities and subnormals
    for i in np.flatnonzero((row == 0) & (bits << 1 != 0)):
        at = np.unravel_index(i, x.shape)
        text = np.frombuffer(repr(float(x[at])).encode(), dtype=np.uint8)
        words.view(np.uint8)[at][: text.size] = text
        masks.view(np.uint8)[at][:_SEP] = np.where(np.arange(_SEP) < text.size, 0xFF, 0)


def fields(values) -> np.ndarray:
    """The fields of the values of a 1-D float array: their words, then
    their masks, stacked in an array of shape (2, len, 6)."""
    x = np.asarray(values, dtype=np.float64)
    both = np.empty((2, len(x), _WORDS), dtype=_WORD)
    _fill(x, *both)
    return both


def grid(axes, rows: int) -> list[tuple]:
    """The fields of the axes of a C-order grid, for :func:`lines` of at most
    ``rows`` consecutive grid points.

    Point r's value on an axis of ``size`` values is that axis's value
    ``(r // stride) % size``, with ``stride`` the product of the later
    axes' sizes: one label repeated ``stride`` times, label after label,
    cycling.  Each axis's :func:`fields` are repeated often enough that
    the labels of any ``rows`` consecutive points are one slice of them.
    Returns ``(fields, size, stride)`` per axis.
    """
    out, stride = [], 1
    for axis in reversed(axes):
        table = fields(axis)
        size = table.shape[1]
        # a slice starts within the first repeat and spans at most
        # rows // stride + 2 labels
        out.append((np.tile(table, (1, 2 + rows // stride // size, 1)), size, stride))
        stride *= size
    return out[::-1]


def lines(values, lead=(), start=0) -> bytes:
    """The bytes of one line per row of the 2-D float array ``values``.

    With ``lead`` a :func:`grid` result, line r starts with the fields of
    the axis values of grid point ``start + r``, then has the row's values;
    fields are separated by commas and every line ends in a newline.
    """
    x = np.asarray(values, dtype=np.float64)
    rows = len(x)
    # the words, then the masks
    both = np.empty((2, rows, len(lead) + x.shape[1], _WORDS), dtype=_WORD)
    for j, (table, size, stride) in enumerate(lead):
        # the rows before the first label boundary, whole runs of stride
        # rows, then the rest; label o is the first whole run's
        head = min(-start % stride, rows)
        runs, tail = divmod(rows - head, stride)
        o = -(-start // stride) % size
        out = both[:, :, j]
        if head:
            out[:, :head] = table[:, o - 1, None]
        out[:, head : rows - tail].reshape(2, runs, stride, _WORDS, copy=False)[...] = table[:, o : o + runs, None]
        if tail:
            out[:, rows - tail :] = table[:, o + runs, None]
    words, masks = both
    _fill(x, words[:, len(lead) :], masks[:, len(lead) :])
    words.view(np.uint8)[:, -1, _SEP] = ord("\n")
    # unkept slots become NUL bytes, which no field has, and go
    words &= masks
    return words.tobytes().translate(None, b"\0")
