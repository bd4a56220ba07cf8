"""CSV lines of float64 values with the bytes of repr(float(v)), in integer numpy.

Python's repr of a float is the shortest decimal that rounds back to it,
the closest one to the float among those of that length.  _Encoder finds
it for a whole array with Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020), which, like Ryu (U. Adams, "Ryu: fast
float-to-string conversion", PLDI 2018), needs no bignum: for v = c 2^q
and k = floor(log10 2^q) (of 3/4 2^q when the lower neighbour is closer),
v 10^-k and the two ends of v's rounding interval, in the same units, are
each one round-to-odd product of 4c << h with a 126-bit g ~ 10^-k.  g comes
from a 617-entry table for k in [-324, 292], built at import from exact
Python integers; the 64x64 -> 128-bit products run on 32-bit limbs of
uint64 arrays.  Then:

- of s = floor(v 10^-k), s + 1 and the multiples of ten next to s, the
  decimal is the one in the interval with the fewest digits, then the one
  closest to v, then the even one.  Integers below 2**53 need no path of
  their own: this gives their own digits;
- the decimal is brought to 17 digits and written four digits per table
  lookup; its trailing zeros end at the highest non-'0' byte, found from
  the exponent of the 17 digit values read as one float;
- the layout is repr's: with decpt the position of the decimal point
  (v = 0.d1d2... 10^decpt), fixed notation when -4 < decpt <= 16
  ("0.000ddd", "ddd.ddd", and ".0" after a whole number), otherwise
  "d.ddde-XX" with at least two exponent digits and no "." after a single
  digit, and "-" before a negative value.

Texts are three little-endian uint64 words (24 bytes) per value, padded
with NUL bytes; a line is its words with the NULs dropped.  So an exponent
suffix is written at a fixed byte, 18, after the at most 18 bytes of digits
and ".", and the NUL drop closes the gap.  A zero is written as 1.0 with
its leading '1' turned to '0'.  Only subnormals, infinities and NaN go
through repr() itself: Schubfach keeps at least two digits of a subnormal
(4.9e-324 where repr writes 5e-324), and repr writes no sign for a
negative NaN.

Every scalar is a np.uint64 and every integer array uint64, because numpy
1.x's value-based casting turns uint64 with int64 into float64.
"""

from __future__ import annotations

import numpy as np

__all__: list[str] = []

_u = np.uint64

# --- tables --------------------------------------------------------------


def _floor_log2_pow10(e):
    """floor(log2(10**e)) for |e| <= 1838394 (Giulietti's flog2pow10)."""
    return (e * 913124641741) >> 38


def _floor_log10_pow2(q, closer):
    """floor(log10(2**q)), or floor(log10(3/4 2**q)) where `closer`, for
    |q| <= 5456721 (Giulietti's flog10pow2 and flog10threefourthspow2)."""
    return (q * 661971961083 - closer * 274743187321) >> 41


def _g(k: int) -> int:
    """Schubfach's g for 10^-k: floor(10**-k 2**(125 - floor(log2(10**-k)))) + 1,
    an exact integer in [2**125, 2**126)."""
    shift = 125 - _floor_log2_pow10(-k)
    if k <= 0:
        return (10**-k << shift if shift >= 0 else 10**-k >> -shift) + 1
    return (1 << shift) // 10**k + 1


# The decimal point's position is stored as decpt + _BIAS, so that it stays
# a uint64 index.
_BIAS = 400


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Per table index (the biased exponent, plus 2048 for a zero fraction
    above the least normal exponent, whose lower neighbour is closer): g's
    high 63 and low 63 bits, the shift h, the lower interval end's offset
    from 4c and the decimal exponent k + 17 + _BIAS.  Index 2048, reached
    only by zeros, takes 1.0's entry (3071).  Biased exponents 0 and 2047
    otherwise (subnormals, inf, nan) take the least and greatest normal's
    entries; those values are written elsewhere."""
    index = np.arange(4096)
    index[2048] = 3071
    q = np.clip(index & 2047, 1, 2046) - 1075
    closer = (index >= 2048) & (q > -1074)
    k = _floor_log10_pow2(q, closer)
    g = [_g(j) for j in range(-324, 293)]
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & (2**63 - 1) for x in g], dtype=np.uint64)
    h = q + _floor_log2_pow10(-k) + 2
    return (g1[k + 324], g0[k + 324], *(a.astype(np.uint64) for a in (h, 2 - closer, k + 17 + _BIAS)))


_G1, _G0, _H, _LOW, _KB = _exponent_tables()

# The four ASCII digits of 0..9999, first digit in the low byte.
_DIGITS4 = sum((np.arange(10000, dtype=np.uint64) // _u(10**(3 - i)) % _u(10) + _u(0x30)) << _u(8 * i)
               for i in range(4))


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _mask(nbytes: int) -> int:
    return (1 << 8 * nbytes) - 1


def _layout_tables() -> tuple[np.ndarray, ...]:
    """Per decpt + _BIAS: the 17 digit bytes split at byte P, the bytes from
    P on moved up by S bytes and the fill put in the gap: "." after P
    digits in fixed notation (1 <= decpt <= 16) and after the first one in
    exponent notation, "0.000"[:S] in front for -3 <= decpt <= 0.  Each
    row holds the low-part masks of words 0 and 1, the fill's three words,
    8 S, the text length as max(n + plus, least) for n significant digits,
    1 for exponent notation and its suffix ("e-05") at byte 18 of the text,
    that is bit 16 of word 2, and 0, 0 for fixed notation."""
    rows = []
    for kb in range(1024):
        decpt = kb - _BIAS
        suffix = 0
        if 1 <= decpt <= 16:
            p, s, fill, plus, least = decpt, 1, _word(b"."), 1, decpt + 2
        elif -3 <= decpt <= 0:
            p, s, fill, plus, least = 0, 2 - decpt, _word(b"0.000"[:2 - decpt]), 2 - decpt, 0
        else:
            p, s, fill, plus, least = 1, 1, _word(b"."), 1, 0
            suffix = _word(b"e%+03d" % (decpt - 1)) << 16
        low = _mask(p)
        fill <<= 8 * p
        rows.append((low & _mask(8), low >> 64, fill & _mask(8), (fill >> 64) & _mask(8), fill >> 128,
                     8 * s, plus, least, suffix > 0, suffix))
    return tuple(np.array(column, dtype=np.uint64) for column in zip(*rows))


(_MASK0, _MASK1, _FILL0, _FILL1, _FILL2, _SHIFT, _PLUS, _LEAST, _SCI, _SUFFIX) = _layout_tables()

# Per text length 0..24: the masks of its bytes in words 0, 1 and 2.
_KEEP = tuple(np.array([_mask(min(max(n - 8 * w, 0), 8)) for n in range(25)], dtype=np.uint64)
              for w in range(3))

_ZEROS = _u(0x3030303030303030)  # eight '0' bytes
_M32, _M63 = _u(2**32 - 1), _u(2**63 - 1)
_U0, _U1, _U2, _U3, _U32, _U63 = (_u(i) for i in (0, 1, 2, 3, 32, 63))


# --- the kernel --------------------------------------------------------------


class _Encoder:
    """Writes the repr() text of up to `size` float64 values as words, in
    uint64 scratch arrays that every call reuses."""

    def __init__(self, size: int) -> None:
        self.size = size
        self._scratch = np.empty((16, size), dtype=np.uint64)

    def __call__(self, x: np.ndarray, lead: np.ndarray, minus: np.ndarray, out: np.ndarray) -> None:
        """For contiguous float64 x of shape (..., c), write out[..., 1:4] =
        the text of x after its "-" as NUL-padded little-endian words, and
        out[..., 0] = lead (c,) before a text without "-", lead + minus
        before one with it."""
        m = x.size
        if m > self.size:
            raise ValueError(f"{m} values, more than the encoder's {self.size}")
        bits = x.reshape(-1).view(np.uint64)
        (idx, cb, g1h, g1l, g0h, g0l, h, low, kb, vb, vbl, vbr,
         t1, t2, t3, t4) = (row[:m] for row in self._scratch)

        # Biased exponent 0 (zeros, subnormals) or 2047 (inf, nan); all but
        # the zeros are mended at the end.
        np.right_shift(bits, _u(52), out=idx)
        idx &= _u(0x7FF)
        np.subtract(idx, _U1, out=t1)
        odd = t1 >= _u(2046)
        # Table index: the biased exponent, plus 2048 for a zero fraction.
        np.bitwise_and(bits, _u(2**52 - 1), out=cb)
        np.subtract(cb, _U1, out=t1)
        t1 >>= _u(52)
        t1 &= _u(0x800)
        idx |= t1
        zero = idx == _u(2048)  # ±0.0, written as 1.0 with a '0' for its '1'
        odd ^= zero
        ix = idx.view(np.int64)
        _take(_G1, ix, g1h)
        _take(_G0, ix, g0h)
        _take(_H, ix, h)
        _take(_LOW, ix, low)
        _take(_KB, ix, kb)
        np.bitwise_and(g1h, _M32, out=g1l)
        g1h >>= _U32
        np.bitwise_and(g0h, _M32, out=g0l)
        g0h >>= _U32
        cb |= _u(2**52)
        cb <<= _U2  # 4c

        # vb, vbl, vbr: 4v and the rounding interval's ends, times 10^-k,
        # each rounded to odd (Giulietti's rop of g = g1 2^63 + g0 and cp).
        cl, ch, x1, y = t1, t2, t3, t4
        np.subtract(cb, low, out=low)  # the lower end, 4c - 2 (4c - 1 for a closer neighbour)
        for result, end in ((vb, cb), (vbl, low), (vbr, None)):
            if end is None:  # the upper end, 4c + 2
                np.add(cb, _U2, out=cl)
                cl <<= h
            else:
                np.left_shift(end, h, out=cl)
            np.right_shift(cl, _U32, out=ch)
            cl &= _M32
            # x1 = the high 64 bits of g0 cp
            np.multiply(g0l, cl, out=x1)
            x1 >>= _U32
            np.multiply(g0l, ch, out=y)
            x1 += y
            np.multiply(g0h, cl, out=y)
            x1 += y
            x1 >>= _U32
            np.multiply(g0h, ch, out=y)
            x1 += y
            # g1 cp = y1 2^64 + y0; cl and ch are spent after it
            np.multiply(g1l, cl, out=result)
            np.multiply(g1h, cl, out=cl)
            np.multiply(g1l, ch, out=y)
            y += cl  # the cross terms, below 2^64
            np.left_shift(y, _U32, out=cl)
            cl += result  # y0
            result >>= _U32
            result += y
            result >>= _U32
            ch *= g1h
            result += ch  # y1
            # z = (y0 >> 1) + x1; result = (y1 + (z >> 63)) | (z mod 2^63 != 0)
            cl >>= _U1
            cl += x1
            np.right_shift(cl, _U63, out=y)
            result += y
            cl &= _M63
            cl += _M63
            cl >>= _U63
            result |= cl

        # d: the shortest decimal in the interval, closest to v on a tie.
        s, o, q, d = t1, t2, t3, g1h
        np.right_shift(vb, _U2, out=s)
        np.right_shift(cb, _U2, out=o)
        o &= _U1  # c odd: the interval's ends are excluded
        vbl += o
        np.floor_divide(s, _u(10), out=q)
        q *= _u(10)  # the multiple of ten at or below s
        np.left_shift(q, _U2, out=t4)
        up = t4 >= vbl  # q in the interval
        t4 += _u(40)
        t4 += o
        ten = t4 <= vbr  # q + 10 in the interval
        ten ^= up  # exactly one of them is: d is that one
        np.left_shift(s, _U2, out=t4)
        u_in = t4 >= vbl
        t4 += _u(4)
        t4 += o
        w_in = t4 <= vbr
        np.bitwise_and(vb, _U3, out=t4)  # 4v - 4s, then + (s odd)
        np.bitwise_and(s, _U1, out=cb)
        t4 += cb
        closer = t4 <= _U2  # s is closer to v than s + 1, or as close and even
        closer |= ~w_in
        closer &= u_in  # else: d is s or s + 1, whichever is in or closer
        np.add(s, _U1, out=d)
        d -= closer
        np.logical_not(up, out=up)
        np.multiply(up, _u(10), out=t4)
        q += t4
        q -= d
        q *= ten
        d += q
        # Seventeen digits: d in [10^16, 10^17), decpt = kb - _BIAS.
        np.subtract(d, _u(10**16), out=t4)
        t4 >>= _U63
        kb -= t4
        t4 *= _u(9)
        t4 *= d
        d += t4

        # The digits, four per lookup: d = d1 10^16 + (a 10^4 + b) 10^8 + c 10^4 + e.
        w0, w1, w2, n = g1h, g1l, g0h, g0l
        hi, lo, a, c = t1, t2, t3, vb
        np.floor_divide(d, _u(10**8), out=hi)
        np.multiply(hi, _u(10**8), out=t4)
        np.subtract(d, t4, out=lo)  # c 10^4 + e
        np.floor_divide(hi, _u(10**8), out=d)  # d1
        np.multiply(d, _u(10**8), out=t4)
        hi -= t4  # a 10^4 + b
        np.floor_divide(hi, _u(10**4), out=a)
        np.multiply(a, _u(10**4), out=t4)
        hi -= t4  # b
        np.floor_divide(lo, _u(10**4), out=c)
        np.multiply(c, _u(10**4), out=t4)
        lo -= t4  # e
        _take(_DIGITS4, a.view(np.int64), w1)
        _take(_DIGITS4, hi.view(np.int64), w2)
        _take(_DIGITS4, c.view(np.int64), a)
        _take(_DIGITS4, lo.view(np.int64), c)
        d += _u(0x30)  # w0 = d1 | a << 8 | b << 40, as digits
        np.left_shift(w1, _u(8), out=t4)
        d |= t4
        np.left_shift(w2, _u(40), out=t4)
        d |= t4
        np.right_shift(w2, _u(24), out=w1)  # w1 = b >> 24 | c << 8 | e << 40
        np.left_shift(a, _u(8), out=t4)
        w1 |= t4
        np.left_shift(c, _u(40), out=t4)
        w1 |= t4
        np.right_shift(c, _u(24), out=w2)  # w2 = e >> 24
        # n: the last non-'0' digit's byte + 1, from the exponent of the 17
        # digit values (each below 16) read as one number.
        f = vbl.view(np.float64)
        np.bitwise_xor(w2, _u(0x30), out=t4)
        f[...] = t4
        f *= 2.0**64
        np.bitwise_xor(w1, _ZEROS, out=t4)
        f += t4
        f *= 2.0**64
        np.bitwise_xor(w0, _ZEROS, out=t4)
        f += t4
        np.right_shift(vbl, _u(52), out=n)
        n -= _u(1023 - 8)
        n >>= _U3
        w0 ^= zero

        # Layout: the bytes below P, the fill, the bytes from P moved up.
        kx = kb.view(np.int64)
        sh, back, lo0, lo1 = t1, t2, t3, t4
        _take(_SHIFT, kx, sh)
        np.subtract(_u(64), sh, out=back)
        _take(_MASK0, kx, lo0)
        _take(_MASK1, kx, lo1)
        lo0 &= w0
        lo1 &= w1
        w0 ^= lo0
        w1 ^= lo1
        w2 <<= sh  # word 2
        np.right_shift(w1, back, out=vb)
        w2 |= vb
        np.right_shift(w0, back, out=vb)
        w1 <<= sh  # word 1
        w1 |= vb
        w1 |= lo1
        w0 <<= sh  # word 0
        w0 |= lo0
        for table, word in ((_FILL0, w0), (_FILL1, w1), (_FILL2, w2)):
            _take(table, kx, vb)
            word |= vb
        # The text's length: max(n + plus, least), less the "." after a
        # single digit in exponent notation; its bytes are kept, then the
        # exponent suffix put at byte 18.
        length = t1
        _take(_PLUS, kx, length)
        length += n
        _take(_LEAST, kx, vb)
        np.maximum(length, vb, out=length)
        _take(_SCI, kx, vb)
        vb &= n == _U1
        length -= vb
        lx = length.view(np.int64)
        for table, word in ((_KEEP[0], w0), (_KEEP[1], w1), (_KEEP[2], w2)):
            _take(table, lx, vb)
            word &= vb
        _take(_SUFFIX, kx, vb)
        w2 |= vb
        neg = t2
        np.right_shift(bits, _U63, out=neg)

        if odd.any():
            for i in np.flatnonzero(odd).tolist():  # repr writes the sign of -inf and none for nan
                text = repr(float(bits[i].view(np.float64))).encode().ljust(24, b"\0")
                w0[i], w1[i], w2[i] = np.frombuffer(text, dtype="<u8").tolist()
                neg[i] = 0

        shape = out.shape[:-1]
        np.multiply(neg.reshape(shape), minus, out=out[..., 0])
        out[..., 0] += lead
        for col, word in enumerate((w0, w1, w2), 1):
            out[..., col] = word.reshape(shape)


def _take(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    np.take(table, index, out=out, mode="clip")


# The least values per block of lines.  While a block is this size (trace
# flocks of up to 256 agents), its text stays under glibc's 128 KB mmap
# threshold (a value takes at most 25 bytes), and its buffers under 1 MB.
_BLOCK_VALUES = 4608


class _Lines:
    """CSV lines of rows of float64 values.  A line is the row's prefix bytes
    (the caller writes them into `prefix`; NUL bytes are dropped), then each
    value's repr() after its column's byte in `seps` (NUL for none), then a
    newline.  Holds the buffers of a block of `rows` rows, _BLOCK_VALUES
    values' worth but at least `least`, which every call reuses."""

    def __init__(self, seps: bytes, prefix: int = 0, least: int = 1) -> None:
        self.rows = rows = max(least, _BLOCK_VALUES // len(seps))
        words = -(-prefix // 8)
        # Little-endian words, so that a word's low byte comes first.
        self._buf = np.zeros((rows, words + 4 * len(seps) + 1), dtype="<u8")
        self._buf[:, -1] = _word(b"\n")
        self.prefix = self._buf[:, :words].view(np.uint8)[:, :prefix]
        self._values = self._buf[:, words:-1].reshape(rows, len(seps), 4)
        # Each value's separator and "-" end the word before its text, so
        # that they and the text are one run of bytes.
        sep = np.frombuffer(seps, dtype=np.uint8).astype(np.uint64)
        self._lead = sep << _u(56)
        self._minus = np.where(sep == _U0, _u(0x2D << 56), (sep << _u(48)) | _u(0x2D << 56)) - self._lead
        self._keep = np.empty(self._buf.nbytes, dtype=bool)
        self._encoder = _Encoder(rows * len(seps))

    def text(self, values: np.ndarray) -> str:
        """The lines of values[i] (at most `rows` of them) after prefix[i]."""
        rows = len(values)
        self._encoder(np.ascontiguousarray(values, dtype=np.float64), self._lead, self._minus,
                      self._values[:rows])
        raw = self._buf[:rows].view(np.uint8).reshape(-1)
        keep = np.not_equal(raw, 0, out=self._keep[:raw.size])
        return str(memoryview(raw[keep]), "ascii")
