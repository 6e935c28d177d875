import math
import random
import sys

import numpy as np
import pytest

from qdissect import series
from qdissect.eta import expand_eta
from qdissect.series import Series, ZZ, mod_ring, _schoolbook


def geometric(precision):
    # 1/(1-q), handy unit with known inverse
    return Series.of(ZZ, [1] * precision)


def test_make_and_indexing():
    s = Series.make(ZZ, 5, lambda n: n * n)
    assert s.coeffs == (0, 1, 4, 9, 16)
    assert s.precision == 5
    assert s[3] == 9


def test_zero_and_one():
    assert Series.zero(ZZ, 3).coeffs == (0, 0, 0)
    assert Series.one(ZZ, 3).coeffs == (1, 0, 0)


def test_add_min_precision():
    a = Series.of(ZZ, [1, 2, 3, 4])
    b = Series.of(ZZ, [5, 6])
    assert (a + b).coeffs == (6, 8)
    assert (b + a).coeffs == (6, 8)


def test_sub_and_neg():
    a = Series.of(ZZ, [3, 1])
    b = Series.of(ZZ, [1, 5])
    assert (a - b).coeffs == (2, -4)
    assert (-a).coeffs == (-3, -1)


def test_scalar_mul_both_sides():
    a = Series.of(ZZ, [1, 2, 3])
    assert (3 * a).coeffs == (3, 6, 9)
    assert (a * -1).coeffs == (-1, -2, -3)


def test_mul_truncates_to_min_precision():
    a = Series.of(ZZ, [1, 1, 1, 1])
    b = Series.of(ZZ, [1, 1])
    prod = a * b
    assert prod.precision == 2
    assert prod.coeffs == (1, 2)


def test_mul_known_product():
    # (1 - q) * (1 + q + q^2 + ...) == 1
    one_minus_q = Series.of(ZZ, [1, -1, 0, 0, 0, 0])
    assert (one_minus_q * geometric(6)).coeffs == (1, 0, 0, 0, 0, 0)


def test_mul_negative_coefficients():
    a = Series.of(ZZ, [1, -2, 3])
    b = Series.of(ZZ, [-1, 4, 5])
    # (-1) + (4+2)q + (5-8-3)q^2
    assert (a * b).coeffs == (-1, 6, -6)


def test_inv_geometric():
    inv = Series.of(ZZ, [1, -1, 0, 0]).inv()
    assert inv.coeffs == (1, 1, 1, 1)


def test_inv_of_one():
    assert Series.one(ZZ, 4).inv().coeffs == (1, 0, 0, 0)


def test_inv_requires_unit_constant_term():
    with pytest.raises(ValueError):
        Series.of(ZZ, [2, 1]).inv()
    with pytest.raises(ValueError):
        Series.of(ZZ, [0, 1]).inv()


def test_inv_unit_minus_one():
    f = Series.of(ZZ, [-1, 1, 0, 0, 0])
    assert (f * f.inv()).coeffs == (1, 0, 0, 0, 0)


def test_inv_mod_ring_unit():
    ring = mod_ring(9)
    f = Series.of(ring, [2, 3, 1, 0])
    assert (f * f.inv()).coeffs == (1, 0, 0, 0)


def test_inv_mod_ring_nonunit_rejected():
    ring = mod_ring(9)
    with pytest.raises(ValueError):
        Series.of(ring, [3, 1]).inv()


def test_pow_matches_repeated_mul():
    for ring in (ZZ, mod_ring(16)):
        f = Series.of(ring, [1, 1, 2, 0, 1, -3, 5])
        power = Series.one(ring, f.precision)
        for e in range(34):
            assert (f ** e).coeffs == power.coeffs, (ring, e)
            power = power * f


def test_pow_negative_inverts():
    f = Series.of(ZZ, [1, -1, 0, 0])
    assert (f ** -1).coeffs == (1, 1, 1, 1)
    assert (f ** -2).coeffs == ((f.inv()) ** 2).coeffs


def test_scale_q_stretches_precision():
    f = Series.of(ZZ, [1, 2, 3])
    g = f.scale_q(2)
    assert g.precision == 6
    assert g.coeffs == (1, 0, 2, 0, 3, 0)


def test_mul_qpow_shifts():
    f = Series.of(ZZ, [1, 2])
    g = f.mul_qpow(3)
    assert g.precision == 5
    assert g.coeffs == (0, 0, 0, 1, 2)
    assert f.mul_qpow(0).coeffs == f.coeffs


def test_mul_qpow_rejects_negative():
    with pytest.raises(ValueError):
        Series.of(ZZ, [1]).mul_qpow(-1)


def test_truncate():
    f = Series.of(ZZ, [1, 2, 3, 4])
    assert f.truncate(2).coeffs == (1, 2)
    assert f.truncate(4).coeffs == f.coeffs
    with pytest.raises(ValueError):
        f.truncate(5)


def test_reduce_mod():
    f = Series.of(ZZ, [10, -3, 16])
    g = f.reduce_mod(8)
    assert g.coeffs == (2, 5, 0)
    assert g.ring.modulus == 8


def test_reduce_mod_divisor_compatibility():
    f = Series.of(mod_ring(16), [9, 15])
    assert f.reduce_mod(8).coeffs == (1, 7)
    with pytest.raises(ValueError):
        f.reduce_mod(3)


def test_reduce_mod_own_modulus_is_identity():
    s = Series.of(mod_ring(16), [9, 15, 3])
    assert s.reduce_mod(s.ring.modulus) is s


def test_mod_ring_normalizes_on_construction():
    assert Series.of(mod_ring(5), [7, -1]).coeffs == (2, 4)


def test_equal_series_compare_equal():
    a = Series.of(ZZ, [1, 2])
    b = Series.of(ZZ, [1, 2])
    assert a == b
    assert a != Series.of(ZZ, [1, 3])


# -- the multiply paths: int and decimal Kronecker, and the float FFT that
# both rings take when the exact coefficient bound allows it


def _spy(monkeypatch, name):
    """Count the calls of a series-module function, still running it."""
    calls = []
    fn = getattr(series, name)
    monkeypatch.setattr(series, name, lambda *a: calls.append(1) or fn(*a))
    return calls


def _int_path(a, b, n_out, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(series, "_DEC_MIN_BITS", float("inf"))
        return series._convolve(a, b, n_out)


def _signed(rng, n, bits):
    return [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]


@pytest.mark.parametrize(
    "len_a, len_b, bits, n_out",
    [
        (2_000, 2_000, 400, 2_000),
        (10_000, 10_000, 100, 10_000),
        (3_000, 2_000, 200, 2_000),  # unequal lengths
        (2_000, 3_000, 150, 2_000),
        (2_000, 2_000, 300, 1_500),  # fewer slots out than in
        (4_000, 2_100, 120, 4_000),  # reads slots past the shorter operand
    ],
)
def test_decimal_product_matches_int_path(monkeypatch, len_a, len_b, bits, n_out):
    rng = random.Random(len_a * bits + n_out)
    a, b = _signed(rng, len_a, bits), _signed(rng, len_b, bits)
    dec = _spy(monkeypatch, "_dec_pack")
    got = series._convolve(a, b, n_out)
    assert dec, "the product is above the crossover"
    assert got == _int_path(a, b, n_out, monkeypatch)


def test_decimal_path_squares_with_one_packing(monkeypatch):
    a = _signed(random.Random(7), 2_000, 200)
    dec = _spy(monkeypatch, "_dec_pack")
    f = Series.of(ZZ, a)
    assert (f * f).coeffs == tuple(_int_path(a, a, 2_000, monkeypatch))
    assert len(dec) == 1


def test_decimal_product_with_zero_operand(monkeypatch):
    monkeypatch.setattr(series, "_DEC_MIN_BITS", 0)
    big = Series.of(ZZ, _signed(random.Random(3), 2_000, 300))
    assert (big * Series.zero(ZZ, 2_000)).coeffs == (0,) * 2_000
    assert (Series.zero(ZZ, 2_000) * big).coeffs == (0,) * 2_000


def test_inverse_on_the_decimal_path(monkeypatch):
    # 1/f2^3 to 4,000 terms: its Newton steps reach the decimal path
    f = expand_eta(2, 4_000) ** 3
    dec = _spy(monkeypatch, "_dec_pack")
    got = f.inv()
    assert dec
    assert (f * got) == Series.one(ZZ, 4_000)
    with monkeypatch.context() as mp:
        mp.setattr(series, "_DEC_MIN_BITS", float("inf"))
        assert got == f.inv()


@pytest.mark.parametrize("d", [1, 2, 40])
def test_decimal_slots_at_the_extremes_across_chunk_edges(d):
    # slots of +-(10^d/2 - 1) are the widest a d-digit slot holds; runs of
    # them around the 512-slot chunk edges make the borrows and carries cross
    extreme = 10**d // 2 - 1
    rng = random.Random(d)
    chunk = series._DEC_CHUNK
    n = 2 * chunk + 40
    edges = set(range(chunk - 6, chunk + 6)) | set(range(2 * chunk - 6, 2 * chunk + 6))
    c = [rng.choice((-extreme, extreme)) if k in edges else rng.randint(-extreme, extreme) for k in range(n)]
    vectors = [c, [-extreme] * n, [extreme] * n, [-extreme] + [0] * (n - 1)]
    for v in vectors:
        packed = series._dec_pack(v, d)
        assert series._dec_unpack(packed, d, n) == v
        for b, want in (([1], v), ([-1], [-x for x in v]), ([0, 1], [0] + v[:-1])):
            z = series._EXACT.multiply(packed, series._dec_pack(b, d))
            assert series._dec_unpack(z, d, n) == want


@pytest.mark.parametrize("m", [2, 3, 16, 256])
def test_fft_product_mod_m_matches_exact_path(monkeypatch, m):
    rng = random.Random(m)
    a = Series.of(mod_ring(m), [rng.randrange(m) for _ in range(2_000)])
    b = Series.of(mod_ring(m), [rng.randrange(m) for _ in range(2_000)])
    fft = _spy(monkeypatch, "_fft_product")
    got = a * b
    assert fft
    assert got.coeffs == tuple(c % m for c in series._convolve(a.coeffs, b.coeffs, 2_000))


def _with_maxima(rng, n, top, signed):
    # n coefficients below `top` in size, one of them at -top (signed) or top
    lo = -top if signed else 0
    c = [rng.randint(lo, top) for _ in range(n)]
    c[rng.randrange(n)] = lo if signed else top
    return c


# n * max|a| * max|b| right at the bound: 33 * (2^25 - 1) * 1,016,801 is
# 2^50 - 1 (33 * 1,016,801 = 2^25 + 1), and 32 * 2^24 * 2^21 is 2^50
_EDGES = [(33, (1 << 25) - 1, 1_016_801), (32, 1 << 24, 1 << 21)]


@pytest.mark.parametrize("side", [0, 1])
def test_fft_gate_on_each_side_of_the_bound(monkeypatch, side):
    n, top_a, top_b = _EDGES[side]
    assert n * top_a * top_b == series._FFT_MAX - 1 + side
    rng = random.Random(side)
    fft = _spy(monkeypatch, "_fft_product")
    for ring, signed in ((ZZ, True), (mod_ring(1 << 26), False)):
        a, b = _with_maxima(rng, n, top_a, signed), _with_maxima(rng, n, top_b, signed)
        got = Series.of(ring, a) * Series.of(ring, b)
        assert got == Series.of(ring, _schoolbook(a, b, n))
    # long operands with every term at the maximum, n * top^2 just below
    # the bound (side 0) or at or above it: here the FFT's own rounding
    # error, not a faked one, meets the residual check. Coefficient k of
    # the product is (k + 1) * top^2, times (-1)^k for the alternating pair
    n = 2_000
    top = math.isqrt((series._FFT_MAX - 1) // n) + side
    assert (n * top * top < series._FFT_MAX) == (side == 0)
    for ring, sign in ((ZZ, 1), (ZZ, -1), (mod_ring(top + 1), 1)):
        a = [top * sign**i for i in range(n)]
        got = Series.of(ring, a) * Series.of(ring, a)
        assert got == Series.of(ring, [(k + 1) * top * top * sign**k for k in range(n)])
    assert len(fft) == (5 if side == 0 else 0)


@pytest.mark.parametrize("ring", [ZZ, mod_ring(16)], ids=repr)
def test_short_products_take_the_exact_path(monkeypatch, ring):
    # the shorter operand decides: one term below the constant the FFT is
    # never tried, at it the FFT answers
    k = series._FFT_MIN_LEN
    rng = random.Random(k)
    a = [rng.randrange(16) for _ in range(2 * k)]
    b = [rng.randrange(16) for _ in range(k)]
    for short, calls in ((k - 1, 0), (k, 1)):
        fft = _spy(monkeypatch, "_fft_product")
        exact = _spy(monkeypatch, "_convolve")
        got = series._multiply(a, b[:short], 2 * k, ring.modulus)
        assert Series.of(ring, got) == Series.of(ring, _schoolbook(a, b[:short], 2 * k))
        assert (len(fft), len(exact)) == (calls, 1 - calls)


@pytest.mark.parametrize("shift, accepted", [(0.3, False), (0.2, True)])
def test_fft_residual_check(monkeypatch, shift, accepted):
    # a product that lands `shift` away from an integer: from 1/4 on the
    # FFT result is refused and the exact path answers
    m, n = 16, 500
    rng = random.Random(1)
    a, b = ([rng.randrange(m) for _ in range(n)] for _ in range(2))
    want = tuple(c % m for c in series._convolve(a, b, n))
    irfft = np.fft.irfft

    def skewed(*args):
        out = irfft(*args)
        out[n // 2] += shift
        return out

    monkeypatch.setattr(np.fft, "irfft", skewed)
    xa, xb = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert (series._fft_product(xa, xb, n) is not None) == accepted
    exact = _spy(monkeypatch, "_convolve")
    assert (Series.of(mod_ring(m), a) * Series.of(mod_ring(m), b)).coeffs == want
    assert len(exact) == (0 if accepted else 1)


@pytest.mark.parametrize("bad", [-1, 16, 2**60 + 3, 10**400])
def test_fft_path_refuses_unreduced_operands(monkeypatch, bad):
    # the constructor does not reduce; the product is still reduced. -1 and
    # 16 only raise the bound and may take the FFT, while 2^60 + 3 puts it
    # past _FFT_MAX and 10^400 does not fit int64: both take the exact path
    a = Series(mod_ring(16), (bad, 3) * 50)
    want = tuple(c % 16 for c in _schoolbook(a.coeffs, a.coeffs, 100))
    fft = _spy(monkeypatch, "_fft_product")
    exact = _spy(monkeypatch, "_convolve")
    assert (a * a).coeffs == want
    assert bool(exact) == (bad > 16)
    assert bool(fft) == (bad <= 16)


@pytest.mark.parametrize(
    "extreme", [-(2**63), 2**63 - 1, 2**63], ids=["int64-min", "int64-max", "past-int64"]
)
def test_int64_extremes_take_the_exact_path(monkeypatch, extreme):
    # np.abs(-2^63) is -2^63 in int64, and 2^63 does not convert at all;
    # the bound must see both as huge and leave them to the exact path
    rng = random.Random(5)
    a = [rng.randint(-9, 9) for _ in range(40)]
    a[7] = extreme
    b = [rng.randint(-9, 9) for _ in range(40)]
    fft = _spy(monkeypatch, "_fft_product")
    for m in (None, 16):
        got = series._multiply(a, b, 40, m)
        want = _schoolbook(a, b, 40)
        assert got == (want if m is None else [c % m for c in want])
    assert series._multiply(a, a, 40, None) == _schoolbook(a, a, 40)
    assert not fft


def test_modulus_from_the_fft_bound_on_takes_the_exact_path(monkeypatch):
    # an FFT result is reduced in int64, which cannot hold this modulus;
    # the operands are tiny (and one unreduced), so only m keeps the FFT out
    m = 2**64 + 13
    a = Series(mod_ring(m), (-1, 2, 3) * 20)
    fft = _spy(monkeypatch, "_fft_product")
    assert (a * a).coeffs == tuple(c % m for c in _schoolbook(a.coeffs, a.coeffs, 60))
    assert not fft


def test_inverse_mod_m_on_the_fft_path(monkeypatch):
    m = 256
    rng = random.Random(2)
    f = Series.of(mod_ring(m), [1] + [rng.randrange(m) for _ in range(1_999)])
    fft = _spy(monkeypatch, "_fft_product")
    assert (f * f.inv()) == Series.one(mod_ring(m), 2_000)
    assert fft


def test_decimal_digit_limit_gate(monkeypatch):
    # 20 terms of about 20,000 bits: above the crossover, with slots of
    # about 12,000 digits, past the default int/str limit of 4,300
    rng = random.Random(4)
    a, b = _signed(rng, 20, 20_000), _signed(rng, 20, 20_000)
    want = _int_path(a, b, 20, monkeypatch)
    dec = _spy(monkeypatch, "_dec_pack")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    assert series._convolve(a, b, 20) == want
    assert bool(dec) == (limit == 0)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(640)
        try:
            assert series._convolve(a, b, 20) == want
        finally:
            sys.set_int_max_str_digits(limit)
        assert bool(dec) == (limit == 0)
        sys.set_int_max_str_digits(0)
        try:
            assert series._convolve(a, b, 20) == want
        finally:
            sys.set_int_max_str_digits(limit)
        assert dec
