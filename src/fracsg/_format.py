"""Vectorized ``"%.15e" % v`` for float64 arrays, byte for byte.

Each value's 16 significant digits are the integer nearest to
y = |v| 10^(15-E), E = floor(log10 |v|), computed in ``np.longdouble``.  On
x86-64 that carries 64 mantissa bits, so y is off by at most about 1.6e-3:
one rounding of the power of ten (``powl``, within one unit in the last place)
and one of the product.  Wherever that error could change the result, the
value is formatted by Python's ``%`` instead, which rounds correctly:

- y within ``MARGIN`` of a half-integer, where the rounding direction is in
  doubt (exact ties included);
- y within 1 of 1e15 or 1e16, or outside [1e15, 1e16) because log10 was off
  by one, where E is in doubt or the rounding could carry into the next
  decade;
- zeros, NaN and infinities.

``MARGIN`` = 8 eps 1e16 (eps of ``np.longdouble``), about 8.7e-3 on x86-64,
is more than five times the error bound.  Everywhere else the nearest integer
is decided exactly, so the output equals ``%.15e`` for every float64.  Where
``np.longdouble`` is plain double (MSVC, Apple silicon), ``MARGIN`` exceeds
0.5 and every value takes the exact ``%`` path: correct, only slow.

Each value fills a fixed slot ``[-]d.ddddddddddddddde+dd[d],`` together with a
mask of the bytes it keeps; the separator ending each row becomes a newline,
and the table of slots becomes text by one boolean gather.
"""

from __future__ import annotations

import functools

import numpy as np

SLOT = 24  # 23 characters at most, then a separator
MARGIN = 1e16 * 8 * float(np.finfo(np.longdouble).eps)
_POW_MIN = -400  # 10^k for k in [-400, 400]: 15 - E lies in [-293, 339]


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """10^k in longdouble, and 0000..9999 in ASCII as uint32 in memory order."""
    pow10 = np.power(np.longdouble(10), np.arange(_POW_MIN, 1 - _POW_MIN, dtype=np.longdouble))
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)  # uint8 throughout: 40 KB
    quads = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"), axis=-1)
    tables = pow10, quads.view(np.uint32).ravel()
    for table in tables:
        table.flags.writeable = False  # shared by every caller through the cache
    return tables


def csv_lines(table: np.ndarray) -> bytes:
    """One line of comma-separated ``"%.15e"`` cells per row of a 2-D float64
    table."""
    pow10, quads = _tables()
    v = np.asarray(table, dtype=np.float64).ravel()
    a = np.abs(v)
    fast = np.isfinite(a) & (a > 0)
    a = np.where(fast, a, 1.0)  # keeps the arithmetic below free of nan, inf and log10(0)
    E = np.floor(np.log10(a)).astype(np.int64)
    y = a * pow10[15 - E - _POW_MIN]  # in [1e15, 1e16) unless log10 was off by one
    t = y.astype(np.int64)  # truncates, and much faster than np.trunc on longdouble
    frac = (y - t).astype(np.float64)  # exact: y < 2^54 keeps 10 fraction bits
    fast &= (t > 10 ** 15) & (t < 10 ** 16 - 1) & (np.abs(frac - 0.5) >= MARGIN)
    d = np.where(fast, t + (frac > 0.5), 0)  # no carry to 10^16: t < 10^16 - 1

    chars = np.empty((len(v), SLOT), np.uint8)
    keep = np.ones((len(v), SLOT), bool)
    chars[:, 0] = ord("-")
    keep[:, 0] = np.signbit(v)
    groups = np.stack([d // 10 ** 12, d // 10 ** 8 % 10000, d // 10000 % 10000, d % 10000], 1)
    chars[:, 2:18] = quads[groups].view(np.uint8)
    chars[:, 1] = chars[:, 2]
    chars[:, 2] = ord(".")
    chars[:, 18] = ord("e")
    e = np.abs(E)
    chars[:, 19:23] = quads[e, None].view(np.uint8)  # 0ddd; the 0 becomes the sign
    chars[:, 19] = np.where(E < 0, ord("-"), ord("+"))
    keep[:, 20] = e >= 100
    chars[:, 23] = ord(",")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"%-23.15e," * slow.size % tuple(v[slow].tolist())  # SLOT bytes, space-padded
        chars[slow] = np.frombuffer(text, np.uint8).reshape(-1, SLOT)
        keep[slow] = chars[slow] != ord(" ")
    chars.reshape(*table.shape, SLOT)[:, -1, -1] = ord("\n")  # a view: chars is contiguous
    return chars[keep].tobytes()
