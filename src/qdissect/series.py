"""Truncated power series with explicit precision over Z or Z/mZ.

A Series holds exactly `precision` coefficients, indexed from q^0. Every
operation states the precision of its result; nothing is ever extended
silently. Coefficients over a residue ring are kept reduced to [0, m) by
`Series.of` and by the multiply, which build every computed result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Products whose exact coefficients stay below this run on one float64 FFT
# (53-bit mantissa), over ZZ and Z/m alike. Near this bound its rounding
# errors reach about 0.1 on random operands and 0.3 when every coefficient
# is at the bound; the residual check sends any product off by 1/4 or more
# to the exact path.
_FFT_MAX = 1 << 50
# Products whose shorter operand has fewer terms than this take the exact
# path: below it, the int64 conversions and the FFT cost more than packing.
_FFT_MIN_LEN = 32
# From this power-of-two FFT length on, a product that fits in 3/4 of it
# runs on 3/4 of it: below, the mixed-radix transform costs more than the
# points it saves
_FFT_3_MIN = 1 << 10
# The most limbs one FFT of the limb form takes past one limb each: longer
# operands are cut into row blocks, which bounds the FFT's memory
_LIMB_BUDGET = 1 << 17


@dataclass(frozen=True)
class RingSpec:
    """Coefficient ring marker: exact integers when modulus is None."""

    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.modulus is not None and self.modulus < 2:
            raise ValueError("modulus must be at least 2")

    @property
    def exact(self) -> bool:
        return self.modulus is None

    def __repr__(self) -> str:
        return "ZZ" if self.modulus is None else f"Z/{self.modulus}"


ZZ = RingSpec()


def mod_ring(m: int) -> RingSpec:
    return RingSpec(m)


def _pack(coeffs, nb: int) -> int:
    """Evaluate a signed coefficient vector at 2**(8*nb)."""
    pos = b"".join((c if c > 0 else 0).to_bytes(nb, "little") for c in coeffs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(nb, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _convolve(a, b, n_out: int) -> list[int]:
    """Truncated integer convolution by Kronecker substitution, the exact path.

    Packs both vectors into one int each, with slots of 8*nb bits wide
    enough that no product coefficient can reach a neighbouring slot,
    multiplies once and reads the slots back, with a bias so the buffer is
    nonnegative. Exact for any signed coefficients.
    """
    max_a = max(map(abs, a))
    max_b = max(map(abs, b))
    if max_a == 0 or max_b == 0:  # slots sized by the bound hold neither
        return [0] * n_out
    bound = min(len(a), len(b)) * max_a * max_b
    nb = bound.bit_length() // 8 + 1
    half = 1 << (8 * nb - 1)
    z = _pack(a, nb) * _pack(b, nb)
    n_slots = len(a) + len(b)
    bias = int.from_bytes(half.to_bytes(nb, "little") * n_slots, "little")
    buf = (z + bias).to_bytes(n_slots * nb, "little")
    return [
        int.from_bytes(buf[k * nb : (k + 1) * nb], "little") - half
        for k in range(n_out)
    ]


def _fft_product(a: np.ndarray, b: np.ndarray, n_out: int) -> np.ndarray | None:
    """The first n_out terms of the convolution of two int64 vectors by one
    float64 rfft, as int64, or None when some coefficient lies 1/4 or more
    from an integer. The rfft's length is the least power of two 2^k that
    holds the whole product, or 3 * 2^(k-2) when that holds it too and
    2^k >= _FFT_3_MIN."""
    n = len(a) + len(b) - 1
    size = 1 << (n - 1).bit_length()
    if 4 * n <= 3 * size and size >= _FFT_3_MIN:
        size = size // 4 * 3
    fa = np.fft.rfft(a, size)
    fa *= fa if b is a else np.fft.rfft(b, size)
    x = np.fft.irfft(fa, size)[:n_out]
    del fa  # freed before the rounding temporaries: a lower peak RSS
    r = np.rint(x)
    x -= r
    if np.abs(x, out=x).max() >= 0.25:
        return None
    return r.astype(np.int64)


def _fft_fits(n: int, top_a: int, top_b: int) -> bool:
    # the one FFT gate: n * max|a| * max|b| bounds every product coefficient
    return n * top_a * top_b < _FFT_MAX


def _operand(x):
    # x as int64 when every coefficient fits, else as Python ints; max|x|
    try:
        x = np.asarray(x, dtype=np.int64)
    except OverflowError:  # an object array too lists its Python ints
        return list(x), max(map(abs, x))
    return x, max(int(x.max()), -int(x.min()))  # np.abs wraps -2^63


def _limbs(x, k: int, w: int, stride: int) -> np.ndarray:
    """Row i holds x_i = sum_s row[s] * 2**(8*w*s) in k limbs of w bytes,
    the low ones in [0, 2**(8*w)) and the top one signed, then zeros up to
    `stride` columns; an int64 array splits by shifts, Python ints by bytes."""
    bits = 8 * w
    if isinstance(x, np.ndarray):  # a shift by 63 leaves the sign, as any longer one
        rows = np.zeros((len(x), stride), np.int64)
        rows[:, :k] = x[:, None] >> np.minimum(np.arange(0, bits * k, bits), 63)
        rows[:, : k - 1] &= (1 << bits) - 1
        return rows
    by = np.zeros((len(x), stride, 8), np.uint8)
    raw = b"".join(c.to_bytes(k * w, "little", signed=True) for c in x)
    by[:, :k, :w] = np.frombuffer(raw, np.uint8).reshape(len(x), k, w)
    rows = by.view("<i8")[:, :, 0]
    rows[:, k - 1] -= (rows[:, k - 1] >> (bits - 1)) << bits
    return rows


def _limb_product(a, b, n_out: int) -> np.ndarray | list[int] | None:
    """The exact product on the float FFT, each coefficient split into
    signed limbs of w bytes: ka per coefficient of a, kb of b. Rows of
    limbs at stride K = ka + kb - 1 keep the product of limbs s and t of
    a_i and b_j alone in slot (i + j) * K + s + t. At K = 1 the limbs are
    the int64 operands themselves, multiplied unblocked into int64. Else
    operands of more than _LIMB_BUDGET limbs together are cut into row
    blocks, whose products add up in int64, and Python ints come back. w
    is the widest for which each block product passes the FFT gate and
    each summed slot stays below 2^62, with room for the carries that then
    bring every slot but a row's top one back into a limb, so that each row
    reads back as one two's complement number. None when no w passes or the
    residual check refuses a block.
    """
    square = b is a
    n = min(len(a), len(b))
    a, top_a = _operand(a)
    b, top_b = (a, top_a) if square else _operand(b)
    for w in range(7, 0, -1):  # int64 holds an unsigned limb of 7 bytes
        bits = 8 * w
        ka, kb = (-(-(t.bit_length() + 1) // bits) for t in (top_a, top_b))
        lim_a = top_a if ka == 1 else (1 << bits) - 1
        lim_b = top_b if kb == 1 else (1 << bits) - 1
        stride = ka + kb - 1
        rows = n if stride == 1 else max(1, _LIMB_BUDGET // (2 * stride))
        k = min(ka, kb)
        if _fft_fits(min(n, rows) * k, lim_a, lim_b) and n * k * lim_a * lim_b < 1 << 62:
            break
    else:
        return None
    if stride == 1:
        return _fft_product(a, b, n_out)
    pa = _limbs(a, ka, w, stride)
    pb = pa if square else _limbs(b, kb, w, stride)
    z = np.zeros((n_out, stride), np.int64)
    slots = z.reshape(-1)
    for i in range(0, min(len(a), n_out), rows):
        xa = pa[i : i + rows].reshape(-1)
        # a square needs only the blocks with j >= i: block (j, i) is (i, j)
        for j in range(i if square else 0, min(len(b), n_out - i), rows):
            xb = xa if square and i == j else pb[j : j + rows].reshape(-1)
            n_rows = min((len(xa) + len(xb)) // stride - 1, n_out - i - j)
            block = _fft_product(xa, xb, n_rows * stride)
            if block is None:
                return None
            if square and j > i:
                block *= 2
            slots[(i + j) * stride : (i + j + n_rows) * stride] += block
    for s in range(stride - 1):
        z[:, s + 1] += z[:, s] >> bits
        z[:, s] &= (1 << bits) - 1
    # each row as one little-endian two's complement number: its low limbs
    # as w bytes apiece, then the signed top limb's 8 bytes
    by = z.astype("<i8", copy=False).view(np.uint8).reshape(n_out, stride, 8)
    out = np.concatenate((by[:, :-1, :w].reshape(n_out, -1), by[:, -1]), axis=1)
    # a void row lists as its bytes
    return [
        int.from_bytes(row, "little", signed=True)
        for row in out.view(f"V{out.shape[1]}")[:, 0].tolist()
    ]


def _multiply(a, b, n_out: int, m: int | None) -> list[int]:
    """The one product of coefficient vectors (sequences of ints or integer
    arrays): exact over ZZ (m is None), reduced into [0, m) over Z/m.

    Products whose shorter operand has at least _FFT_MIN_LEN terms run on
    the checked float FFT in limb form, an unreduced Z/m operand on wider
    limbs; short products and any the FFT refuses take the exact path.
    """
    out = _limb_product(a, b, n_out) if min(len(a), len(b)) >= _FFT_MIN_LEN else None
    if out is None:
        a, b = (x.tolist() if isinstance(x, np.ndarray) else x for x in (a, b))
        out = _convolve(a, b, n_out)
    elif isinstance(out, np.ndarray):  # one limb each: |out| < _FFT_MAX
        if m is not None and m < _FFT_MAX:
            return np.remainder(out, m, out=out).tolist()
        out = out.tolist()
    return out if m is None else [c % m for c in out]


def _schoolbook(a, b, n_out: int) -> list[int]:
    # quadratic reference used by the randomized tests
    out = [0] * n_out
    for i, x in enumerate(a):
        if x:
            stop = min(len(b), n_out - i)
            for j in range(stop):
                out[i + j] += x * b[j]
    return out


@dataclass(frozen=True)
class Series:
    ring: RingSpec
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("a series carries at least one coefficient")

    @classmethod
    def of(cls, ring: RingSpec, coeffs) -> "Series":
        """The one reducing constructor: mod m over Z/m, as given over ZZ."""
        m = ring.modulus
        return cls(ring, tuple(coeffs) if m is None else tuple(c % m for c in coeffs))

    @classmethod
    def zero(cls, ring: RingSpec, precision: int) -> "Series":
        return cls(ring, (0,) * precision)

    @classmethod
    def one(cls, ring: RingSpec, precision: int) -> "Series":
        return cls(ring, (1,) + (0,) * (precision - 1))

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.precision > 6 else ""
        return f"Series({self.ring!r}, prec={self.precision}, [{head}{tail}])"

    def _check(self, other: "Series") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def truncate(self, precision: int) -> "Series":
        if precision < 1 or precision > self.precision:
            raise ValueError(
                f"cannot truncate precision {self.precision} to {precision}"
            )
        if precision == self.precision:
            return self
        return Series(self.ring, self.coeffs[:precision])

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        return Series.of(self.ring, (x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Series") -> "Series":
        self._check(other)
        return Series.of(self.ring, (x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Series":
        return Series.of(self.ring, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return Series.of(self.ring, (other * c for c in self.coeffs))
        self._check(other)
        n = min(self.precision, other.precision)
        m = self.ring.modulus
        return Series(self.ring, tuple(_multiply(self.coeffs[:n], other.coeffs[:n], n, m)))

    __rmul__ = __mul__

    def inv(self) -> "Series":
        """Multiplicative inverse at the same precision (Newton lifting)."""
        c0 = self.coeffs[0]
        if self.ring.exact:
            if c0 not in (1, -1):
                raise ValueError(f"constant term {c0} is not a unit over ZZ")
            x0 = c0
        else:
            try:
                x0 = pow(c0, -1, self.ring.modulus)
            except ValueError:
                raise ValueError(
                    f"constant term {c0} is not a unit mod {self.ring.modulus}"
                ) from None
        n, m = self.precision, self.ring.modulus
        x = (x0,)
        while len(x) < n:
            h, p = len(x), min(2 * len(x), n)
            # self * x = 1 + q^h e to p terms, so 1/self = x - q^h x e: the
            # correction needs only p - h terms of each factor
            e = _multiply(self.coeffs[:p], x, p, m)[h:]
            x += Series.of(self.ring, (-c for c in _multiply(x[: p - h], e, p - h, m))).coeffs
        return Series(self.ring, x)

    def __truediv__(self, other: "Series") -> "Series":
        """self / other to the shorter precision n, without a full-length
        inverse: x = 1/other to h = ceil(n/2) terms and y = self * x to h
        terms; then self - other * y = q^h e, and self / other = y + q^h x e
        to n terms (A. H. Karp and P. Markstein, "High-precision division
        and square root", ACM TOMS 23(4), 1997). Exact over ZZ and Z/m when
        other's constant term is a unit; `inv` raises when it is not."""
        self._check(other)
        n, m = min(self.precision, other.precision), self.ring.modulus
        h = (n + 1) // 2
        x = other.truncate(h).inv().coeffs
        y = _multiply(self.coeffs[:h], x, h, m)
        if h == n:  # n = 1: no correction
            return Series(self.ring, tuple(y))
        r = _multiply(other.coeffs[:n], y, n, m)
        e = Series.of(self.ring, (a - b for a, b in zip(self.coeffs[h:n], r[h:]))).coeffs
        return Series(self.ring, (*y, *_multiply(x[: n - h], e, n - h, m)))

    def __pow__(self, e: int) -> "Series":
        """Left-to-right square-and-multiply from self, never by the unit;
        e == 0 gives the unit and a negative e inverts first."""
        if not isinstance(e, int):
            raise TypeError("series exponent must be an integer")
        if e < 0:
            return self.inv() ** (-e)
        if e == 0:
            return Series.one(self.ring, self.precision)
        result = self
        for bit in bin(e)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def scale_q(self, m: int, precision: int | None = None) -> "Series":
        """Substitute q -> q^m, to `precision` coefficients (precision * m
        by default), built at that length: it reads ceil(precision / m)
        terms of self."""
        if m < 1:
            raise ValueError("scale factor must be at least 1")
        if precision is None:
            precision = self.precision * m
        k = -(-precision // m)
        if precision < 1 or k > self.precision:
            raise ValueError(
                f"cannot scale precision {self.precision} by {m} to {precision}"
            )
        if m == 1:
            return self.truncate(precision)
        out = [0] * precision
        out[::m] = self.coeffs[:k]
        return Series(self.ring, tuple(out))

    def mul_qpow(self, k: int) -> "Series":
        """Multiply by q^k; the result carries precision + k coefficients."""
        if k < 0:
            raise ValueError("q-power shift must be nonnegative")
        if k == 0:
            return self
        return Series(self.ring, (0,) * k + self.coeffs)

    def reduce_mod(self, m: int) -> "Series":
        """Reduce into Z/mZ; for residue input, m must divide the modulus."""
        if m < 2:
            raise ValueError("modulus must be at least 2")
        if m == self.ring.modulus:
            return self
        if not self.ring.exact and self.ring.modulus % m != 0:
            raise ValueError(
                f"cannot reduce mod {m}: not a divisor of {self.ring.modulus}"
            )
        return Series.of(mod_ring(m), self.coeffs)
