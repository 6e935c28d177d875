"""Truncated power series with explicit precision over Z or Z/mZ.

A Series holds exactly `precision` coefficients, indexed from q^0. Every
operation states the precision of its result; nothing is ever extended
silently. Coefficients over a residue ring are kept reduced to [0, m) by
`Series.of`, which builds every computed result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


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
    """Truncated integer convolution by Kronecker substitution.

    Packs both vectors into big integers with slots wide enough that no
    product coefficient can reach a neighbouring slot, multiplies once,
    and reads the slots back out (with a bias so the buffer is
    nonnegative). Exact for arbitrary signed integer coefficients.
    """
    max_a = max(abs(c) for c in a)
    max_b = max(abs(c) for c in b)
    if max_a == 0 or max_b == 0:
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
        return Series.of(self.ring, _convolve(self.coeffs[:n], other.coeffs[:n], n))

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
        n = self.precision
        x = Series(self.ring, (x0,))
        while x.precision < n:
            p = min(2 * x.precision, n)
            t = [-c for c in _convolve(self.coeffs[:p], x.coeffs, p)]
            t[0] += 2
            x = Series.of(self.ring, _convolve(x.coeffs, t, p))
        return x

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
