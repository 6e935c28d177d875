import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from qdissect import series
from qdissect.eta import expand_eta
from qdissect.series import Series, ZZ, mod_ring, _schoolbook


def geometric(precision):
    # 1/(1-q), handy unit with known inverse
    return Series.of(ZZ, [1] * precision)


def test_make_and_indexing():
    s = Series.of(ZZ, (n * n for n in range(5)))
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


def _unit_first(rng, ring, n, bits):
    # n coefficients of up to `bits` bits, the first a unit of the ring
    m = ring.modulus
    c = [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]
    c[0] = rng.choice((1, -1)) if m is None else 0
    while math.gcd(c[0], m or 1) != 1:
        c[0] = rng.randrange(m)
    return Series.of(ring, c)


@seed(23)
@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from((ZZ, mod_ring(9), mod_ring(16), mod_ring(2**61 - 1))),
    st.integers(1, 300),
    st.one_of(st.none(), st.integers(1, 300)),
    st.sampled_from((1, 30, 200)),
    st.sampled_from((1, 4, 16)),
    st.randoms(use_true_random=False),
)
def test_division_matches_multiplying_by_the_inverse(ring, na, nb, a_bits, b_bits, rng):
    # equal precisions when nb is None, odd n included; the quotient's
    # correction step reaches the limb form on wide operands
    a = Series.of(ring, [rng.randint(-(1 << a_bits), 1 << a_bits) for _ in range(na)])
    b = _unit_first(rng, ring, na if nb is None else nb, b_bits)
    got = a / b
    assert got.ring == ring and got.precision == min(a.precision, b.precision)
    assert got == a * b.inv()


@pytest.mark.parametrize(
    "ring, c0", [(ZZ, 2), (ZZ, 0), (mod_ring(9), 3), (mod_ring(16), 4)], ids=str
)
def test_division_by_a_non_unit_raises_as_inv(ring, c0):
    a = Series.of(ring, range(1, 8))
    b = Series.of(ring, [c0, 1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError) as inv_error:
        b.inv()
    with pytest.raises(ValueError) as div_error:
        a / b
    assert str(div_error.value) == str(inv_error.value)


def test_division_across_rings_raises_as_mul():
    a, b = Series.of(ZZ, [1, 2, 3]), Series.of(mod_ring(9), [1, 2, 3])
    with pytest.raises(ValueError) as mul_error:
        a * b
    with pytest.raises(ValueError) as div_error:
        a / b
    assert str(div_error.value) == str(mul_error.value)


def test_pow_matches_repeated_mul(monkeypatch):
    calls = _spy(monkeypatch, "_multiply")
    for ring in (ZZ, mod_ring(16)):
        f = Series.of(ring, [1, 1, 2, 0, 1, -3, 5])
        power = Series.one(ring, f.precision)
        for e in range(34):
            calls.clear()
            assert (f ** e).coeffs == power.coeffs, (ring, e)
            # square-and-multiply from f itself, never from the unit
            assert len(calls) == max(0, e.bit_length() + bin(e).count("1") - 2)
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


def test_scale_q_to_a_precision_reads_only_the_terms_it_needs():
    f = Series.of(ZZ, [1, 2, 3])
    for n in range(1, 10):
        assert f.scale_q(3, n) == f.scale_q(3).truncate(n)
    assert f.scale_q(1, 2) == f.truncate(2)
    # 7 terms in q^2 need 4 terms of f, and 0 terms are no series
    for m, n in ((2, 7), (3, 0)):
        with pytest.raises(ValueError):
            f.scale_q(m, n)


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


# -- the multiply paths: the float FFT, directly on int64 operands or on
# limbs of larger coefficients, and binary Kronecker as the exact path


def _spy(monkeypatch, name):
    """Count the calls of a series-module function, still running it."""
    calls = []
    fn = getattr(series, name)
    monkeypatch.setattr(series, name, lambda *a: calls.append(1) or fn(*a))
    return calls


def _signed(rng, n, bits):
    return [rng.randint(-(1 << bits), 1 << bits) for _ in range(n)]


@pytest.mark.parametrize(
    "len_a, len_b, bits, n_out",
    [
        (2_000, 2_000, 400, 2_000),
        (10_000, 10_000, 100, 10_000),
        (3_000, 2_000, 200, 2_000),  # unequal lengths
        (2_000, 3_000, 150, 2_000),
        (2_000, 2_000, 300, 1_500),  # fewer rows out than in
        (4_000, 2_100, 120, 4_000),  # reads rows past the shorter operand
    ],
)
def test_limb_product_matches_exact_path(monkeypatch, len_a, len_b, bits, n_out):
    rng = random.Random(len_a * bits + n_out)
    a, b = _signed(rng, len_a, bits), _signed(rng, len_b, bits)
    limb = _spy(monkeypatch, "_limb_product")
    exact = _spy(monkeypatch, "_convolve")
    got = series._multiply(a, b, n_out, None)
    assert (len(limb), len(exact)) == (1, 0)
    assert got == series._convolve(a, b, n_out)


def test_limb_path_squares_with_one_split(monkeypatch):
    a = _signed(random.Random(7), 2_000, 200)
    split = _spy(monkeypatch, "_limbs")
    f = Series.of(ZZ, a)
    assert (f * f).coeffs == tuple(series._convolve(a, a, 2_000))
    assert len(split) == 1


def test_limb_product_with_zero_operand(monkeypatch):
    big = Series.of(ZZ, _signed(random.Random(3), 2_000, 300))
    limb = _spy(monkeypatch, "_limb_product")
    assert (big * Series.zero(ZZ, 2_000)).coeffs == (0,) * 2_000
    assert (Series.zero(ZZ, 2_000) * big).coeffs == (0,) * 2_000
    assert len(limb) == 2
    # the exact path too: slots sized by a zero bound could not hold big
    assert series._convolve(big.coeffs[:20], (0,) * 20, 39) == [0] * 39


def test_inverse_on_the_limb_path(monkeypatch):
    # 1/f2^3 to 4,000 terms: its Newton steps reach the limb form
    f = expand_eta(2, 4_000) ** 3
    limb = _spy(monkeypatch, "_limb_product")
    got = f.inv()
    assert limb
    assert (f * got) == Series.one(ZZ, 4_000)
    with monkeypatch.context() as mp:
        mp.setattr(series, "_limb_product", lambda *a: None)
        assert got == f.inv()


@pytest.mark.parametrize("w", range(1, 8))
def test_limbs_at_the_extremes(w):
    # k limbs of w bytes hold [-2^(8wk-1), 2^(8wk-1)); +-(2^(8wk) - 1) need
    # a limb more, and int64's ends several. Each row must sum back to its
    # coefficient, with the low limbs unsigned and the top one signed
    bits = 8 * w
    for k in (1, 2, 3):
        edge = 1 << (bits * k)
        for values, kk in (
            ([edge // 2 - 1, -(edge // 2), 0, 1, -1], k),
            ([edge - 1, -(edge - 1), edge // 2, -(edge // 2) - 1], k + 1),
            ([-(2**63), 2**64, 2**63 - 1, -(2**64)], -(-66 // bits)),
        ):
            rows = series._limbs(values, kk, w, kk + 1)
            # the values that fit int64 split by shifts into the same rows
            fit = [i for i, v in enumerate(values) if -(2**63) <= v < 2**63]
            shifted = series._limbs(np.array([values[i] for i in fit], np.int64), kk, w, kk + 1)
            assert shifted.dtype == np.int64 and shifted.tolist() == rows[fit].tolist()
            low, top = rows[:, : kk - 1], rows[:, kk - 1]
            assert not rows[:, kk:].any()
            assert low.size == 0 or (low.min() >= 0 and low.max() < 1 << bits)
            assert -(1 << (bits - 1)) <= top.min() <= top.max() < 1 << (bits - 1)
            assert [sum(int(x) << (bits * s) for s, x in enumerate(r)) for r in rows] == values


@pytest.mark.parametrize("budget", [64, series._LIMB_BUDGET])
def test_limb_products_at_the_extremes_across_block_edges(monkeypatch, budget):
    # runs of -2^63, 2^64 and +-(2^(8k) - 1) make the carries cross limbs
    # and, at budget 64, row blocks; products by +-1, by q, by a small
    # series and the square choose different limb widths
    monkeypatch.setattr(series, "_LIMB_BUDGET", budget)
    rng = random.Random(budget)
    extremes = [-(2**63), 2**64] + [s * ((1 << (8 * k)) - 1) for k in (1, 2, 3, 8, 16) for s in (1, -1)]
    n = 200
    a = [rng.choice(extremes) if k % 37 < 6 else rng.randint(-(2**64), 2**64) for k in range(n)]
    small = [rng.randint(-9, 9) for _ in range(n)]
    for b in ([1], [-1], [0, 1], small, a):
        n_out = n if len(b) == 1 else len(b) + 1
        assert series._limb_product(a, b, n_out) == _schoolbook(a, b, n_out)


def test_blocked_limb_product_equals_unblocked(monkeypatch):
    # with the budget lowered, the same products run as sums of row blocks
    rng = random.Random(11)
    a, b = _signed(rng, 300, 500), _signed(rng, 250, 90)
    want = [series._limb_product(x, y, 300) for x, y in ((a, b), (a, a))]
    assert want == [_schoolbook(a, b, 300), _schoolbook(a, a, 300)]
    fft = _spy(monkeypatch, "_fft_product")
    assert [series._limb_product(x, y, 300) for x, y in ((a, b), (a, a))] == want
    unblocked = len(fft)
    monkeypatch.setattr(series, "_LIMB_BUDGET", 1 << 9)
    assert [series._limb_product(x, y, 300) for x, y in ((a, b), (a, a))] == want
    assert unblocked == 2 and len(fft) > unblocked + 20


def test_limb_rows_rebuild_with_signed_tops(monkeypatch):
    # each output row reads back as one two's complement number: rows whose
    # top limb is negative, zero or of 53 bits and more, the last only
    # reached by summing many row blocks, so the budget is lowered
    monkeypatch.setattr(series, "_LIMB_BUDGET", 64)
    split = []
    limbs = series._limbs
    monkeypatch.setattr(
        series, "_limbs", lambda x, k, w, stride: split.append((w, stride)) or limbs(x, k, w, stride)
    )
    n, top, small = 512, (1 << 95) - 1, (1 << 14) - 1
    tops = []
    for a, b in (
        ([-top] * n, [small] * n),
        ([top] * n, [small] * n),
        ([top] * n, [small, -small] * (n // 2)),
        ([-top - 1, 0, top] * (n // 3), [-small, 3, small, 0] * (n // 4)),
    ):
        want = _schoolbook(a, b, n)
        assert series._limb_product(a, b, n) == want
        w, stride = split[-1]
        tops += [c >> (8 * w * (stride - 1)) for c in want]
    assert min(tops) < -(1 << 53) and 0 in tops and max(tops) >= 1 << 53


@pytest.mark.parametrize("n", [384, 767, 768, 769, 1023, 1024, 1025, 12287, 12288, 12289])
def test_products_at_the_fft_length_edges(monkeypatch, n):
    # a product of n terms runs at 3 * 2^(k-2) points when that holds it and
    # 2^k >= 1024, else at 2^k (so 384 terms at 512); over Z/m with one limb
    # per coefficient the FFT sees n itself, over ZZ the limb vectors of
    # 90-bit coefficients
    sizes = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, size: sizes.append(size) or rfft(x, size))
    rng = random.Random(n)
    m = 1000
    a = [rng.randrange(m) for _ in range(n - 39)]
    b = [rng.randrange(m) for _ in range(40)]
    assert list(series._multiply(a, b, n, m)) == [c % m for c in _schoolbook(a, b, n)]
    want = {384: 512, 767: 768, 768: 768, 769: 1024, 1023: 1024, 1024: 1024, 1025: 1536}
    want.update({12287: 12288, 12288: 12288, 12289: 16384})
    assert sizes == [want[n]] * 2
    split = _spy(monkeypatch, "_limbs")
    a, b = _signed(rng, n - 39, 90), _signed(rng, 40, 90)
    assert series._multiply(a, b, n, None) == _schoolbook(a, b, n)
    assert len(split) == 2


def test_limb_residual_failure_reaches_the_exact_path(monkeypatch):
    rng = random.Random(12)
    a, b = _signed(rng, 100, 200), _signed(rng, 100, 200)
    want = series._convolve(a, b, 100)
    irfft = np.fft.irfft

    def skewed(*args):
        out = irfft(*args)
        out[5] += 0.3
        return out

    monkeypatch.setattr(np.fft, "irfft", skewed)
    limb = _spy(monkeypatch, "_limb_product")
    exact = _spy(monkeypatch, "_convolve")
    assert series._multiply(a, b, 100, None) == want
    assert (len(limb), len(exact)) == (1, 1)


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
    # below the bound the FFT runs on one limb per coefficient, the
    # operands themselves; from it on the operands are split into limbs
    n, top_a, top_b = _EDGES[side]
    assert n * top_a * top_b == series._FFT_MAX - 1 + side
    rng = random.Random(side)
    fft = _spy(monkeypatch, "_fft_product")
    limb = _spy(monkeypatch, "_limb_product")
    split = _spy(monkeypatch, "_limbs")
    exact = _spy(monkeypatch, "_convolve")
    for ring, signed in ((ZZ, True), (mod_ring(1 << 26), False)):
        a, b = _with_maxima(rng, n, top_a, signed), _with_maxima(rng, n, top_b, signed)
        got = Series.of(ring, a) * Series.of(ring, b)
        assert got == Series.of(ring, _schoolbook(a, b, n))
    assert (len(fft), len(limb), len(split), len(exact)) == (2, 2, 4 * side, 0)
    # long operands with every term at the maximum, n * top^2 just below
    # the bound (side 0) or at or above it: here the FFT's own rounding
    # error, not a faked one, meets the residual check, which refuses the
    # one-limb products; limbs of 16 bits keep it far away. Coefficient k of
    # the product is (k + 1) * top^2, times (-1)^k for the alternating pair
    n = 2_000
    top = math.isqrt((series._FFT_MAX - 1) // n) + side
    assert (n * top * top < series._FFT_MAX) == (side == 0)
    for ring, sign in ((ZZ, 1), (ZZ, -1), (mod_ring(top + 1), 1)):
        a = [top * sign**i for i in range(n)]
        got = Series.of(ring, a) * Series.of(ring, a)
        assert got == Series.of(ring, [(k + 1) * top * top * sign**k for k in range(n)])
    # two operands split per product at side 1, none at side 0
    assert (len(fft), len(limb), len(split), len(exact)) == (5, 5, 10 * side, 3 - 3 * side)


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


@pytest.mark.parametrize(
    "bad", [-1, 16, 2**60 + 3, 10**400], ids=["-1", "16", "2^60+3", "10^400"]
)
def test_unreduced_operands_still_give_reduced_products(monkeypatch, bad):
    # the constructor does not reduce; the product is still reduced. -1 and
    # 16 only raise the bound and keep one limb per coefficient, while
    # 2^60 + 3 puts it past _FFT_MAX and 10^400 does not fit int64: both
    # are split into limbs
    a = Series(mod_ring(16), (bad, 3) * 50)
    want = tuple(c % 16 for c in _schoolbook(a.coeffs, a.coeffs, 100))
    fft = _spy(monkeypatch, "_fft_product")
    limb = _spy(monkeypatch, "_limb_product")
    split = _spy(monkeypatch, "_limbs")
    exact = _spy(monkeypatch, "_convolve")
    assert (a * a).coeffs == want
    assert (len(fft), len(limb), len(split), len(exact)) == (1, 1, int(bad > 16), 0)


@pytest.mark.parametrize(
    "extreme", [-(2**63), 2**63 - 1, 2**63], ids=["int64-min", "int64-max", "past-int64"]
)
def test_int64_extremes_take_the_limb_path(monkeypatch, extreme):
    # np.abs(-2^63) is -2^63 in int64, and 2^63 does not convert at all;
    # the bound must see each as huge and split a into several limbs (and
    # b with it: both share the stride), by shifts once a fits int64
    rng = random.Random(5)
    a = [rng.randint(-9, 9) for _ in range(40)]
    a[7] = extreme
    b = [rng.randint(-9, 9) for _ in range(40)]
    limb = _spy(monkeypatch, "_limb_product")
    split = _spy(monkeypatch, "_limbs")
    exact = _spy(monkeypatch, "_convolve")
    for m in (None, 16):
        got = series._multiply(a, b, 40, m)
        want = _schoolbook(a, b, 40)
        assert got == (want if m is None else [c % m for c in want])
    assert series._multiply(a, a, 40, None) == _schoolbook(a, a, 40)
    assert (len(limb), len(split), len(exact)) == (3, 5, 0)


def test_modulus_from_the_fft_bound_on_takes_the_limb_path(monkeypatch):
    # a one-limb product is reduced in int64 only below _FFT_MAX; int64
    # cannot hold this modulus, so the tiny operands (one unreduced) keep
    # one limb each and their product is reduced as Python ints
    m = 2**64 + 13
    a = Series(mod_ring(m), (-1, 2, 3) * 20)
    limb = _spy(monkeypatch, "_limb_product")
    split = _spy(monkeypatch, "_limbs")
    exact = _spy(monkeypatch, "_convolve")
    assert (a * a).coeffs == tuple(c % m for c in _schoolbook(a.coeffs, a.coeffs, 60))
    assert (len(limb), len(split), len(exact)) == (1, 0, 0)


def test_inverse_mod_m_on_the_fft_path(monkeypatch):
    m = 256
    rng = random.Random(2)
    f = Series.of(mod_ring(m), [1] + [rng.randrange(m) for _ in range(1_999)])
    fft = _spy(monkeypatch, "_fft_product")
    assert (f * f.inv()) == Series.one(mod_ring(m), 2_000)
    assert fft


def test_long_coefficients_under_the_lowest_str_digit_limit():
    # 40 terms of about 20,000 bits (over 6,000 digits) on the limb form:
    # no multiply step may convert through str, whose limit refuses them
    rng = random.Random(4)
    a, b = _signed(rng, 40, 20_000), _signed(rng, 40, 20_000)
    want = _schoolbook(a, b, 40)
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:  # Python before 3.11 has no limit
        assert series._multiply(a, b, 40, None) == want
        return
    saved = limit()
    sys.set_int_max_str_digits(640)
    try:
        assert series._multiply(a, b, 40, None) == want
        assert series._multiply(a[:20], b[:20], 20, None) == want[:20]
        assert series._multiply(a, b, 40, 2**61 - 1) == [c % (2**61 - 1) for c in want]
    finally:
        sys.set_int_max_str_digits(saved)
