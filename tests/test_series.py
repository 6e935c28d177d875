import pytest

from qdissect.series import Series, ZZ, mod_ring


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
