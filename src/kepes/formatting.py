"""Exact "%.17g" formatting of float64 rows by a numpy kernel.

Kernel()(columns, lo, hi) returns the rows lo:hi of the float64 columns
as CSV lines of "%.17g" fields, the bytes of Python's "%" formatting of
every value, with "," between the fields and "\\n" after each row.

For each value v the kernel forms e = floor(log10|v|) and
y = |v| 10**(16 - e) exactly, as p + err by a two-product:
10**(16 - e) is an exact double for e in [-6, 16].  Since
y >= 1e16 > 2**53, p is an even integer, so r = p + rint(err) is y
rounded half to even, as "%.17g" rounds it, ties included.  An e that
log10 got one off shows in p + err outside [1e16, 1e17) and is mended
(_mend).  No r rounds up to 1e17, so e needs no carry: every double below
10**k, k in [-5, 17], lies more than half a unit of the 17th digit below
it (10**k is a double for k >= 0; for k < 0 the double nearest it lies
above it).  The 17 digits of r come from a table of 4-digit groups, and
each value gets a padded field of 48 bytes: fixed notation for
-4 <= e < 17, d.ddd...e-0X for e = -6 and -5, with trailing fraction
zeros and a bare point dropped, and the sign from signbit.
bytes.translate then deletes the padding.  Zero stays in the kernel; any
other value outside 1e-6 <= |v| < 1e17 (subnormal, tiny, huge, inf, nan)
is formatted by "%" one by one.

driver imports this module on the first block it formats with the
kernel, so importing kepes does not compile it.
"""

import functools

import numpy as np

# Veltkamp's splitter: a double is the sum of its high and low halves of
# 26 bits, high = s a - (s a - a), and the halves' products are exact
_SPLITTER = 2.0 ** 27 + 1
# the exact doubles 10**k for k = 0..22, their high and low halves
_POW10 = np.array([float(10 ** k) for k in range(23)])
_POW10 = np.stack([_POW10, _SPLITTER * _POW10 - (_SPLITTER * _POW10
                                                 - _POW10)])
_POW10 = np.vstack([_POW10, _POW10[0] - _POW10[1]])
# the index of the separator words in _tables()'s words
_SEP = 10_000
# a dropped digit, "0" | 0x80: it and NUL are the padding of a field
_DROP = 0x80
_PADDING = bytes([0, 48 | _DROP])


@functools.cache
def _tables():
    """The kernel's lookup tables, built with numpy arithmetic on first
    use:

    - words: one 8-byte word per 4-digit group, "d\\0d\\0d\\0d\\0" (a
      digit, then its point slot), at 0..9999; the separator words
      ("," or "\\n" at byte 4) at _SEP and _SEP + 1; a single digit at
      byte 6 at _SEP + 2 + d;
    - last: last[j][g], twice the index among the 17 digits of the last
      nonzero digit of group g at word j (0 for g = 0);
    - layout: the words OR-ed into a field, per key
      34 (e + 6) + 2 last + sign: the sign, the point, the lead and the
      exponent, and _DROP on each digit past the last one kept.

    A field is 6 words: the sign, "0.000" for e < 0, d0 and its point
    slot, 4 words of 4 digits and their point slots, and "e-0X" with the
    separator."""
    # uint8 throughout: the temporaries' heap stays in the process's RSS
    d = np.arange(10, dtype=np.uint8)
    digits = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), -1)
    digits = digits.reshape(10_000, 4)
    words = np.zeros((_SEP + 12, 8), np.uint8)
    words[:_SEP, ::2] = 48 + digits
    words[_SEP:_SEP + 2, 4] = (44, 10)
    words[_SEP + 2:, 6] = 48 + d
    # 1 + the index of the last nonzero digit in the group, 0 for none
    in_group = ((digits != 0) * d[1:5]).max(axis=1)
    last = np.zeros((5, 10_000), np.uint8)
    last[1:] = np.where(in_group > 0, 2 * (4 * d[:4, None] + in_group), 0)
    # the key's axes: e + 6, the last nonzero digit, the sign
    e = np.arange(-6, 17)[:, None, None]
    fixed = e >= -4
    nd, sign = np.arange(17)[:, None], np.arange(2)
    keep = np.where(fixed, np.maximum(nd, e), nd) + 0 * sign  # last kept
    dot = np.where(fixed, np.maximum(e, 0), 0) + 0 * keep  # point after
    layout = np.zeros((48, 23, 17, 2), np.uint8)  # bytes first
    layout[6 + 2 * np.arange(17)] = np.where(
        np.arange(17)[:, None, None, None] > keep, np.uint8(_DROP), 0)
    layout[0] = 45 * sign
    pointed = (keep > dot) & ~(fixed & (e < 0))
    layout[(7 + 2 * dot[pointed], *np.nonzero(pointed))] = 46
    for ev in range(-4, 0):  # "0." and -e - 1 zeros
        layout[1:2 - ev, ev + 6] = np.array(
            [48, 46, 48, 48, 48][:1 - ev])[:, None, None]
    for ev in (-6, -5):
        layout[40:44, ev + 6] = np.array(
            [101, 45, 48, 48 - ev])[:, None, None]  # "e-0X"
    layout = np.moveaxis(layout, 0, -1).reshape(782, 48)
    tables = (words.view("<u8").ravel(), last,
              np.ascontiguousarray(layout).view("<u8"))
    for table in tables:
        table.flags.writeable = False  # shared by every caller
    return tables


def _two_product(a, b, p, err, t):
    """p + err = a * b exactly (Dekker, Numer. Math. 18, 1971), with b
    given as the (b, high half, low half) rows of _POW10; t is (3, n)
    scratch.  Exact for 1e-7 < a < 1e18 and b <= 1e22, where no term
    under- or overflows."""
    b, bh, bl = b
    np.multiply(a, b, out=p)
    np.multiply(a, _SPLITTER, out=t[0])
    np.subtract(t[0], a, out=t[1])
    np.subtract(t[0], t[1], out=t[0])  # a's high half
    np.subtract(a, t[0], out=t[1])  # a's low half
    np.multiply(t[0], bh, out=err)
    np.subtract(err, p, out=err)
    np.multiply(t[0], bl, out=t[2])
    np.add(err, t[2], out=err)
    np.multiply(t[1], bh, out=t[2])
    np.add(err, t[2], out=err)
    np.multiply(t[1], bl, out=t[2])
    np.add(err, t[2], out=err)


class Kernel:
    """The kernel with its buffers, made for the first block it formats
    and reused: made per block, their page faults cost as much as the
    arithmetic."""

    def __init__(self):
        self.size = self.cols = 0

    def _make(self, rows, cols):
        n = self.size = rows * cols
        self.cols = cols
        self.v = np.empty((rows, cols))
        self.f = np.empty((9, n))
        self.i = np.empty((5, n), np.intp)
        self.b = np.empty((4, n), bool)
        self.last = np.empty(n, np.uint8)
        self.g = np.empty((rows, cols, 6), np.intp)  # word indices
        self.g[..., 5] = _SEP
        self.g[:, -1, 5] = _SEP + 1
        self.w = np.empty((2, n, 6), "<u8")  # the fields, OR-ed words

    def __call__(self, columns, lo: int, hi: int) -> bytes:
        words, last_nonzero, layout = _tables()
        rows = hi - lo
        n = rows * len(columns)
        if n > self.size or len(columns) != self.cols:
            self._make(rows, len(columns))
        for j, c in enumerate(columns):
            self.v[:rows, j] = c[lo:hi]
        v = self.v[:rows].reshape(n)
        (a, p, err), t = self.f[:3, :n], self.f[3:, :n]
        e, k, key, r, q = self.i[:, :n]
        far, zero, odd, mask = self.b[:, :n]
        last = self.last[:n]
        g = self.g[:rows].reshape(n, 6)
        w, m = self.w[:, :n]
        # far: not 1e-7 < |v| < 1e18, nor zero; it is formatted later by
        # "%", and formed here, as zero is, from a stand-in |v| = 1.  Any
        # other value's e, clipped to [-6, 16], is then at most one off
        np.abs(v, out=a)
        np.less_equal(a, 1e-7, out=far)
        np.greater_equal(a, 1e18, out=mask)
        np.logical_or(far, mask, out=far)
        np.isnan(a, out=mask)
        np.logical_or(far, mask, out=far)
        np.copyto(a, 1.0, where=far)
        np.equal(v, 0.0, out=zero)
        np.logical_xor(far, zero, out=far)
        np.log10(a, out=t[0])
        np.floor(t[0], out=t[0])
        np.clip(t[0], -6.0, 16.0, out=t[0])
        np.copyto(e, t[0], casting="unsafe")
        np.subtract(16, e, out=k)
        np.take(_POW10, k, axis=1, out=t[3:], mode="clip")
        _two_product(a, t[3:], p, err, t)
        # odd: p + err may lie outside [1e16, 1e17).  (p - 1e16) + err
        # has the sign of p + err - 1e16: the difference is exact where
        # it is small (Sterbenz), and err too small to flip it elsewhere
        np.subtract(p, 1e16, out=t[0])
        np.add(t[0], err, out=t[0])
        np.less(t[0], 0.0, out=odd)
        np.greater_equal(p, 1e17, out=mask)
        np.logical_or(odd, mask, out=odd)
        np.copyto(r, p, casting="unsafe")
        np.rint(err, out=t[0])
        np.copyto(key, t[0], casting="unsafe")
        np.add(r, key, out=r)
        np.copyto(r, 0, where=zero)
        if odd.any():
            _mend(np.flatnonzero(odd), a, p, err, e, r, far)
        # the digits d0 g1 g2 g3 g4 of r, in the words of the field (an
        # integer division is slow into a strided out)
        np.floor_divide(r, 10 ** 8, out=k)  # d0 g1 g2
        np.multiply(k, 10 ** 8, out=key)
        np.subtract(r, key, out=r)  # g3 g4
        np.floor_divide(k, 10 ** 4, out=key)  # d0 g1
        np.multiply(key, 10 ** 4, out=q)
        np.subtract(k, q, out=g[:, 2])
        np.floor_divide(key, 10 ** 4, out=k)  # d0
        np.add(k, _SEP + 2, out=g[:, 0])
        np.multiply(k, 10 ** 4, out=q)
        np.subtract(key, q, out=g[:, 1])
        np.floor_divide(r, 10 ** 4, out=k)  # g3
        np.copyto(g[:, 3], k)
        np.multiply(k, 10 ** 4, out=q)
        np.subtract(r, q, out=g[:, 4])
        # the last nonzero digit, searched towards d0 where a group is 0
        np.take(last_nonzero[4], g[:, 4], out=last, mode="clip")
        np.equal(last, 0, out=mask)
        idx = np.flatnonzero(mask)
        for j in (3, 2, 1):
            if not idx.size:
                break
            found = last_nonzero[j][g[idx, j]]
            last[idx] = found
            idx = idx[found == 0]
        np.multiply(e, 34, out=key)
        np.add(key, last, out=key)
        np.signbit(v, out=mask)
        np.add(key, mask, out=key)
        np.add(key, 204, out=key)
        np.take(words, g, out=w, mode="clip")
        np.take(layout, key, axis=0, out=m, mode="clip")
        np.bitwise_or(w, m, out=w)
        if far.any():
            fields = w.view(np.uint8)
            for i in np.flatnonzero(far):
                fields[i, :40] = np.frombuffer(
                    (b"%.17g" % v[i]).ljust(40, b"\0"), np.uint8)
        # bytes.translate is ~1.6x faster than bytearray's
        return w.tobytes().translate(None, _PADDING)


def _mend(i, a, p, err, e, r, far):
    """Mend the values at the indices i, whose p + err may lie outside
    [1e16, 1e17): their e is one off, or outside [-6, 16] (far)."""
    p, err, ei = p[i], err[i], e[i]
    ei += (p > 1e17) | ((p == 1e17) & (err >= 0))
    ei -= (p < 1e16) | ((p == 1e16) & (err < 0))
    far_i = far[i] | (ei < -6) | (ei > 16)
    ei[far_i] = 0
    _two_product(np.where(far_i, 1.0, a[i]), _POW10[:, 16 - ei], p, err,
                 np.empty((3, len(i))))
    r[i] = p.astype(np.int64) + np.rint(err).astype(np.int64)
    e[i], far[i] = ei, far_i
