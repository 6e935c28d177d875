"""Randomized invariants for the arithmetic core.

Every suite here runs at least 1000 cases with precision capped at 64,
which keeps a full run in the tens of seconds while still exercising
the carry, sign and truncation paths thoroughly.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from qdissect import dissect, schur, series
from qdissect.dissect import extract
from qdissect.eta import expand_expression, parse
from qdissect.series import Series, ZZ, mod_ring, _schoolbook

MAX_PRECISION = 64

precisions = st.integers(min_value=1, max_value=MAX_PRECISION)
coefficients = st.integers(min_value=-(10 ** 9), max_value=10 ** 9)
moduli = st.integers(min_value=2, max_value=64)


def zz_series(n):
    # one draw per series, not per coefficient: per-coefficient draws took
    # most of the suites' time
    return st.lists(coefficients, min_size=n, max_size=n).map(lambda c: Series.of(ZZ, c))


@st.composite
def series_triples(draw):
    n = draw(precisions)
    pick = lambda: draw(zz_series(n))
    return pick(), pick(), pick()


@st.composite
def series_pairs(draw):
    n = draw(precisions)
    pick = lambda: draw(zz_series(n))
    return pick(), pick()


@settings(max_examples=1000, deadline=None)
@given(series_triples())
def test_ring_laws(triple):
    a, b, c = triple
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a + b).coeffs == (b + a).coeffs
    assert (a * b).coeffs == (b * a).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a - a).coeffs == Series.zero(ZZ, a.precision).coeffs
    assert (a * Series.one(ZZ, a.precision)).coeffs == a.coeffs


@st.composite
def fft_pairs(draw):
    # at least _FFT_MIN_LEN terms of at most 20 bits: the exact bound is
    # below 64 * 2^40 = 2^46, so every such ZZ product takes the float FFT.
    # A drawn seed fills them: drawing each coefficient would double the
    # suite's time
    n = draw(st.integers(min_value=series._FFT_MIN_LEN, max_value=MAX_PRECISION))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    pick = lambda: [rng.randint(-(1 << 20), 1 << 20) for _ in range(n)]
    return pick(), pick()


@settings(max_examples=1000, deadline=None)
@given(series_pairs(), moduli, fft_pairs())
def test_fast_multiply_matches_schoolbook(pair, m, small):
    # from _FFT_MIN_LEN terms on, the ZZ pair's products whose bound
    # passes 2^50 (most, at coefficients up to 10^9) are split into several
    # limbs and the others keep one limb per coefficient; shorter ones take
    # the exact path. The small ZZ pair keeps one limb, and the Z/m pair
    # does from _FFT_MIN_LEN terms on and takes the exact path below
    a, b = pair
    n = min(a.precision, b.precision)
    assert list((a * b).coeffs) == _schoolbook(a.coeffs, b.coeffs, n)
    ra, rb = a.reduce_mod(m), b.reduce_mod(m)
    want = [c % m for c in _schoolbook(ra.coeffs, rb.coeffs, n)]
    assert list((ra * rb).coeffs) == want
    sa, sb = small
    assert list((Series.of(ZZ, sa) * Series.of(ZZ, sb)).coeffs) == _schoolbook(sa, sb, len(sa))


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(min_value=1, max_value=MAX_PRECISION),
    st.lists(coefficients, min_size=0, max_size=MAX_PRECISION - 1),
    st.sampled_from([1, -1]),
)
def test_inversion(n, tail, unit):
    f = Series.of(ZZ, ([unit] + tail)[:n])
    prod = f * f.inv()
    assert prod.coeffs == Series.one(ZZ, prod.precision).coeffs


@settings(max_examples=1000, deadline=None)
@given(series_pairs(), moduli)
def test_inversion_mod_ring(pair, m):
    f_raw, _ = pair
    ring = mod_ring(m)
    # force a unit constant term: any residue coprime to m
    unit = next(u for u in range(1, m + 1) if math.gcd(u, m) == 1)
    f = Series.of(ring, (unit,) + f_raw.coeffs[1:])
    prod = f * f.inv()
    assert prod.coeffs == Series.one(ring, prod.precision).coeffs


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_recombination(data):
    m = data.draw(st.integers(min_value=2, max_value=8))
    n = data.draw(st.integers(min_value=m, max_value=MAX_PRECISION))
    f = data.draw(zz_series(n))
    total = Series.zero(ZZ, n)
    for r in range(m):
        piece = extract(f, m, r).scale_q(m).mul_qpow(r)
        total = total + piece.truncate(n)
    assert total.coeffs == f.coeffs


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_extraction_linearity(data):
    m = data.draw(st.integers(min_value=2, max_value=8))
    r = data.draw(st.integers(min_value=0, max_value=m - 1))
    n = data.draw(st.integers(min_value=m, max_value=MAX_PRECISION))
    a = data.draw(zz_series(n))
    b = data.draw(zz_series(n))
    c = data.draw(coefficients)
    assert extract(a + b, m, r).coeffs == (extract(a, m, r) + extract(b, m, r)).coeffs
    assert extract(c * a, m, r).coeffs == (c * extract(a, m, r)).coeffs


@settings(max_examples=1000, deadline=None)
@given(series_pairs(), moduli)
def test_reduce_mod_is_a_ring_homomorphism(pair, m):
    a, b = pair
    assert (a * b).reduce_mod(m).coeffs == (a.reduce_mod(m) * b.reduce_mod(m)).coeffs
    assert (a + b).reduce_mod(m).coeffs == (a.reduce_mod(m) + b.reduce_mod(m)).coeffs
    assert (-a).reduce_mod(m).coeffs == (-(a.reduce_mod(m))).coeffs


@settings(max_examples=1000, deadline=None)
@given(st.integers(min_value=0, max_value=62))
def test_count_sequence_is_monotone(n):
    table = schur.s_series(MAX_PRECISION)
    assert table[n] <= table[n + 1]
    assert table[0] == 1


# the one-limb int64 path (m < 2^50), the limb path (2^61 - 1) and a
# modulus past int64 (2^64 + 13), over which no count table exists
LEAK_RINGS = (ZZ, mod_ring(2), mod_ring(16), mod_ring(9), mod_ring(2**61 - 1), mod_ring(2**64 + 13))
LEAK_EXPRESSIONS = ("f2*f3/(f1*f6^2)", "f1^3*f2^2 - 3*q*f4^5/f2 + 2*q^2*f1", "f1^12 + 7*q*f3")


@settings(max_examples=1000, deadline=None)
@given(
    st.sampled_from(LEAK_RINGS),
    st.integers(min_value=1, max_value=MAX_PRECISION),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from((4, 20, 70)),
    st.integers(min_value=0, max_value=5),
    st.sampled_from(LEAK_EXPRESSIONS),
    st.lists(
        st.integers(2, 4).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1))),
        max_size=2,
    ),
)
def test_no_numpy_integer_leaks_out(ring, n, seed, bits, e, text, steps):
    # every coefficient that leaves the library is a Python int: numpy
    # integers wrap silently and json.dumps refuses them. A drawn seed
    # fills the operands, which take the int64 FFT from _FFT_MIN_LEN terms
    rng = random.Random(seed)
    m = ring.modulus
    pick = lambda k: [rng.randint(-(1 << bits), 1 << bits) for _ in range(k)]
    a = Series.of(ring, pick(n))
    b = Series.of(ring, [1] + pick(n - 1))
    expr = parse(text)
    root = "negq" if m is not None and m >= 1 << 62 else "S"
    results = [
        a * b,
        a ** e,
        b.inv(),
        a / b,
        expand_expression(expr, n, ring),
        dissect.lhs_series(expr, ring, n, tuple(steps)),
        dissect.lhs_series(dissect.RootRecipe(root, tuple(steps)), ring, n),
    ]
    if m is None:
        results.append(schur.s_series(n))
    elif m < 1 << 62:
        results.append(schur.residue_table(n, m))
    for s in results:
        assert all(type(c) is int for c in s.coeffs), s
