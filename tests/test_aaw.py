import dataclasses

import pytest

from qdissect import aaw, eta
from qdissect.aaw import (
    ParamPair,
    compute_L,
    compute_params,
    phi,
    verify_L_identity,
    verify_param_identities,
)
from qdissect.dissect import Mismatch, get_record
from qdissect.series import Series, ZZ


def test_phi_is_theta_series():
    assert phi(10).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2)
    assert phi(1).coeffs == (1,)


def test_params_leading_coefficients():
    pair = compute_params(6)
    assert pair.s.coeffs == (1, -2, 4, -2, 2, 0)
    assert pair.t.coeffs == (1, 1, -1, -3, -2, 3)


def test_params_defining_identities():
    n = 64
    pair = compute_params(n)
    ph = phi(n)
    ph3_series = phi((n + 2) // 3).scale_q(3, n)
    # s * phi(q) == phi(q^3)^3
    assert (pair.s * ph).coeffs == (ph3_series ** 3).coeffs
    # 4 q t phi(q^3)^2 == phi(q)^2 - phi(q^3)^2
    lhs = (4 * pair.t * (ph3_series ** 2)).mul_qpow(1).truncate(n)
    rhs = (ph ** 2 - ph3_series ** 2).truncate(n)
    assert lhs.coeffs == rhs.coeffs


def test_compute_params_requires_room():
    with pytest.raises(ValueError):
        compute_params(1)


def test_param_pair_rejects_wrong_leading_terms():
    good = compute_params(8)
    with pytest.raises(ValueError):
        ParamPair(s=good.s.mul_qpow(1).truncate(8), t=good.t)


def test_all_relations_pass():
    n = 64
    reports = verify_param_identities(compute_params(n), n)
    assert [r.name for r in reports] == [
        "f1-parameterization", "f2-parameterization", "f3-parameterization",
        "f4-parameterization", "f6-parameterization", "f12-parameterization",
    ]
    assert all(r.passed for r in reports)


def test_perturbed_t_breaks_first_relation():
    pair = compute_params(32)
    q = Series.zero(ZZ, 32) + Series.one(ZZ, 32).mul_qpow(1).truncate(32)
    bad = ParamPair(s=pair.s, t=pair.t + q)
    reports = verify_param_identities(bad, 32)
    f1_report = reports[0]
    assert not f1_report.passed
    assert f1_report.mismatch.degree == 1


def test_obstruction_series_divisible_by_16():
    L = compute_L(128)
    assert L[0] == 0
    assert all(c % 16 == 0 for c in L.coeffs)


def test_product_identity():
    rep = verify_L_identity(64)
    assert rep.passed
    assert rep.name == "l-product-form"


@pytest.mark.parametrize(
    "edit, mismatch",
    [
        (lambda text: text.replace("8*q*", "9*q*"), Mismatch(degree=1, lhs=17, rhs=16)),
        # still 0 mod 16, so the divisibility record alone would pass it
        (lambda text: text + " + 16*q^40", Mismatch(degree=40, lhs=123952, rhs=123936)),
    ],
    ids=["coefficient", "multiple-of-16"],
)
def test_product_identity_rejects_a_perturbed_L(monkeypatch, edit, mismatch):
    record = get_record("l-obstruction-mod16")
    bad = dataclasses.replace(record, lhs=eta.parse(edit(eta.render(record.lhs))))
    monkeypatch.setattr(aaw, "get_record", lambda name: bad)
    rep = verify_L_identity(64)
    assert not rep.passed
    assert rep.mismatch == mismatch


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def test_product_identity_costs_three_inverses(monkeypatch):
    # one for L * f4^2 f6 / f3^2 over its common denominator, one each for s and t
    calls = _count_calls(monkeypatch, Series, "inv")
    assert verify_L_identity(300).passed
    assert len(calls) == 3


def test_param_identities_build_each_power_once(monkeypatch):
    # the six relations share their powers of s, t and the linear forms: no
    # product, squarings inside a power included, is computed twice
    pair = compute_params(200)
    products = []
    mul = Series.__mul__

    def spy(self, other):
        if isinstance(other, Series):
            products.append(frozenset((self.coeffs, other.coeffs)))
        return mul(self, other)

    monkeypatch.setattr(Series, "__mul__", spy)
    monkeypatch.setattr(Series, "__rmul__", spy)
    reports = verify_param_identities(pair, 200)
    assert all(r.passed for r in reports)
    assert len(products) == len(set(products))


def test_params_build_each_theta_series_once(monkeypatch):
    calls = _count_calls(monkeypatch, aaw, "phi")
    compute_params(300)
    assert len(calls) == 2


def test_params_agree_across_the_ceiling_edge():
    # n + 1 runs over every residue mod 3, where phi(q^3) needs a new term
    for n in range(2, 41):
        short, longer = compute_params(n), compute_params(n + 1)
        assert longer.s.truncate(n).coeffs == short.s.coeffs
        assert longer.t.truncate(n).coeffs == short.t.coeffs
