"""Truncated power series with explicit precision over Z or Z/mZ.

A Series holds exactly `precision` coefficients, indexed from q^0. Every
operation states the precision of its result; nothing is ever extended
silently. Coefficients over a residue ring are kept reduced to [0, m) by
`Series.of` and by the multiply, which build every computed result.
"""

from __future__ import annotations

import decimal
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Exact products whose min(len(a), len(b)) * slot bits reach this run on
# decimal, smaller ones on int: from 2^18 on, decimal won at every operand
# shape measured. The tests lower it to reach the decimal path.
_DEC_MIN_BITS = 1 << 18
# Products whose exact coefficients stay below this run on one float64 FFT
# (53-bit mantissa), over ZZ and Z/m alike. Near this bound its rounding
# errors reach about 0.1 on random operands and 0.3 when every coefficient
# is at the bound; the residual check sends any product off by 1/4 or more
# to the exact path.
_FFT_MAX = 1 << 50
# Products whose shorter operand has fewer terms than this take the exact
# path: below it, the int64 conversions and the FFT cost more than packing.
_FFT_MIN_LEN = 32
_DEC_CHUNK = 512  # slots per digit string when packing and unpacking

# every arithmetic step in this context is exact or raises (Inexact,
# Rounded); only the floor in `_dec_unpack` rounds, on purpose
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow],
)
_DEC_ONE = decimal.Decimal(1)


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


def _int_product(a, b, n_out: int, bound: int) -> list[int]:
    # slots of 8*nb bits, read back with a bias so the buffer is nonnegative
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


def _dec_pack(coeffs, d: int) -> decimal.Decimal:
    """Evaluate a vector with |c| < 10**d / 2 at 10**d, exactly.

    Slots are carry-normalised to digits in [0, 10**d) from the bottom up
    (a negative slot borrows one from the next), so one digit string per
    chunk of slots suffices; a final borrow subtracts 10**(d*len).
    """
    base = 10**d
    acc = decimal.Decimal(0)
    borrow = 0
    for lo in range(0, len(coeffs), _DEC_CHUNK):
        digits = []
        for c in coeffs[lo : lo + _DEC_CHUNK]:
            c -= borrow
            borrow = c < 0
            digits.append(c + base if borrow else c)
        chunk = decimal.Decimal("".join([f"{x:0{d}d}" for x in reversed(digits)]))
        acc = _EXACT.add(acc, chunk.scaleb(lo * d, _EXACT))
    if borrow:
        acc = _EXACT.subtract(acc, _DEC_ONE.scaleb(len(coeffs) * d, _EXACT))
    return acc


def _dec_unpack(z: decimal.Decimal, d: int, n_out: int) -> list[int]:
    """The low n_out slots of z = sum c_k 10**(d*k) with |c_k| < 10**d / 2.

    Floor division by 10**(d*chunk) peels off nonnegative digit strings
    from the bottom; a digit at or above 10**d / 2 is the slot minus
    10**d, and the borrow it hides is carried into the next slot.
    """
    base = 10**d
    half = base // 2
    out = []
    carry = 0
    rest = z
    for lo in range(0, n_out, _DEC_CHUNK):
        width = min(_DEC_CHUNK, n_out - lo) * d
        # floor division by 10**width (to_integral_value never signals
        # Inexact or Rounded); the remainder below is exact
        high = rest.scaleb(-width, _EXACT).to_integral_value(decimal.ROUND_FLOOR, _EXACT)
        text = str(_EXACT.subtract(rest, high.scaleb(width, _EXACT))).zfill(width)
        for i in range(width, 0, -d):
            x = int(text[i - d : i]) + carry
            carry = x >= half
            out.append(x - base if carry else x)
        rest = high
    return out


def _convolve(a, b, n_out: int) -> list[int]:
    """Truncated integer convolution by Kronecker substitution.

    Packs both vectors into one number each, with slots wide enough that
    no product coefficient can reach a neighbouring slot, multiplies once
    and reads the slots back. Small products pack in binary and multiply
    as ints; from _DEC_MIN_BITS on they pack in base 10**d and multiply
    as decimals, whose number-theoretic transform beats int's Karatsuba
    on large operands. Both are exact for any signed coefficients.
    """
    max_a = max(abs(c) for c in a)
    max_b = max(abs(c) for c in b)
    if max_a == 0 or max_b == 0:
        return [0] * n_out
    bound = min(len(a), len(b)) * max_a * max_b
    if min(len(a), len(b)) * bound.bit_length() < _DEC_MIN_BITS:
        return _int_product(a, b, n_out, bound)
    # 10**d > 2 * bound (30103 / 10**5 > log10(2)), so every slot is balanced
    d = -(-(2 * bound).bit_length() * 30103 // 10**5)
    # slots convert through str and int, which refuse more digits than this
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and d > limit:
        return _int_product(a, b, n_out, bound)
    pa = _dec_pack(a, d)
    return _dec_unpack(_EXACT.multiply(pa, pa if b is a else _dec_pack(b, d)), d, n_out)


def _fft_product(a: np.ndarray, b: np.ndarray, n_out: int) -> np.ndarray | None:
    """The first n_out terms of the convolution of two int64 vectors by one
    float64 rfft, as int64, or None when some coefficient lies 1/4 or more
    from an integer."""
    size = 1 << (len(a) + len(b) - 2).bit_length()
    fa = np.fft.rfft(a, size)
    fa *= fa if b is a else np.fft.rfft(b, size)
    x = np.fft.irfft(fa, size)[:n_out]
    del fa  # freed before the rounding temporaries: a lower peak RSS
    r = np.rint(x)
    x -= r
    if np.abs(x, out=x).max() >= 0.25:
        return None
    return r.astype(np.int64)


def _max_abs(x: np.ndarray) -> int:
    # as Python ints: np.abs wraps -2^63 to itself
    return max(int(x.max()), -int(x.min()))


def _fft_fits(n: int, top_a: int, top_b: int) -> bool:
    # the one FFT gate: n * max|a| * max|b| bounds every product coefficient
    return n * top_a * top_b < _FFT_MAX


def _multiply(a, b, n_out: int, m: int | None) -> list[int]:
    """The one product of coefficient vectors (sequences of ints or integer
    arrays): exact over ZZ (m is None), reduced into [0, m) over Z/m.

    Every product coefficient is at most min(len) * max|a| * max|b|. When
    both operands convert to int64 and that bound is below _FFT_MAX, the
    float FFT runs; an unreduced Z/m operand just gives a larger bound. Any
    product the FFT does not vouch for, short products and moduli from
    _FFT_MAX on take the exact path.
    """
    n = min(len(a), len(b))
    if n >= _FFT_MIN_LEN and (m is None or m < _FFT_MAX):
        try:
            xa = np.asarray(a, dtype=np.int64)
            xb = xa if b is a else np.asarray(b, dtype=np.int64)
        except OverflowError:
            pass
        else:
            if _fft_fits(n, _max_abs(xa), _max_abs(xb)):
                out = _fft_product(xa, xb, n_out)
                if out is not None:
                    return (out if m is None else np.remainder(out, m, out=out)).tolist()
    # the exact path packs Python ints
    a, b = (x.tolist() if isinstance(x, np.ndarray) else x for x in (a, b))
    out = _convolve(a, b, n_out)
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
    def make(cls, ring: RingSpec, precision: int, coeff_fn: Callable[[int], int]) -> "Series":
        if precision < 1:
            raise ValueError("precision must be at least 1")
        return cls.of(ring, (coeff_fn(n) for n in range(precision)))

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

    def scale_q(self, m: int) -> "Series":
        """Substitute q -> q^m; the result carries precision * m coefficients."""
        if m < 1:
            raise ValueError("scale factor must be at least 1")
        if m == 1:
            return self
        out = [0] * (self.precision * m)
        for i, c in enumerate(self.coeffs):
            out[i * m] = c
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
