import pytest
from hypothesis import given, seed, settings, strategies as st

from qdissect import dissect, eta
from qdissect.eta import (
    EtaExpression,
    EtaQuotient,
    ParseError,
    PochhammerFactor,
    expand_eta,
    expand_expression,
    expand_pochhammer,
    expand_quotient,
    parse,
    render,
)
from qdissect.series import Series, ZZ, mod_ring


# ---- oracle: multiply the product (1 - q^(j + m k)) out directly ----

def slow_pochhammer(offset, step, precision):
    coeffs = [0] * precision
    coeffs[0] = 1
    e = offset
    while e < precision:
        nxt = list(coeffs)
        for n in range(e, precision):
            nxt[n] -= coeffs[n - e]
        coeffs = nxt
        e += step
    return tuple(coeffs)


def slow_eta(r, precision):
    return slow_pochhammer(r, r, precision)


def test_expand_eta_matches_product_oracle():
    for r in (1, 2, 3, 6):
        assert expand_eta(r, 40).coeffs == slow_eta(r, 40)


def test_expand_eta_pentagonal_signs():
    # f1 = 1 - q - q^2 + q^5 + q^7 - q^12 - q^15 + ...
    f1 = expand_eta(1, 16)
    assert f1.coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1)


def test_expand_eta_rejects_bad_args():
    with pytest.raises(ValueError):
        expand_eta(0, 10)
    with pytest.raises(ValueError):
        expand_eta(1, 0)


def test_expand_pochhammer_matches_oracle():
    for offset, step in ((1, 6), (5, 6), (6, 6), (2, 3)):
        got = expand_pochhammer(PochhammerFactor(offset, step), 50)
        assert got.coeffs == slow_pochhammer(offset, step, 50)


def test_pochhammer_factor_validation():
    with pytest.raises(ValueError):
        PochhammerFactor(0, 6)
    with pytest.raises(ValueError):
        PochhammerFactor(1, 0)


def test_parse_single_quotient():
    expr = parse("f2*f3/(f1*f6^2)")
    assert len(expr.terms) == 1
    t = expr.terms[0]
    assert t.coeff == 1
    assert t.qpow == 0
    assert t.quotient.as_dict() == {1: -1, 2: 1, 3: 1, 6: -2}


def test_parse_sum_with_q_powers():
    expr = parse("2*q^3*f1^2 - f2/f4 + q*f1")
    assert len(expr.terms) == 3
    coeffs = sorted((t.coeff, t.qpow) for t in expr.terms)
    assert coeffs == [(-1, 0), (1, 1), (2, 3)]


def test_parse_negative_leading_term():
    expr = parse("-f1 + f2")
    assert sorted(t.coeff for t in expr.terms) == [-1, 1]


def test_parse_division_by_parenthesized_product():
    a = parse("f3^3*f4*f6^2/(f1*f2^2*f12)")
    t = a.terms[0]
    assert t.quotient.as_dict() == {1: -1, 2: -2, 3: 3, 4: 1, 6: 2, 12: -1}


def test_parse_rejects_garbage():
    for text in ("f", "f0", "q^", "f1**2", "f1*", "(f1", "f1)", "f1 f2", "2q*f1"):
        with pytest.raises(ParseError):
            parse(text)


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as info:
        parse("f1*(f2")
    assert info.value.offset == 6


def test_parse_nesting_bound():
    depth = eta.MAX_NESTING
    assert parse("(" * depth + "f1" + ")" * depth) == parse("f1")
    with pytest.raises(ParseError) as info:
        parse("(" * (depth + 1) + "f1" + ")" * (depth + 1))
    assert info.value.offset == depth


@seed(20231)
@settings(max_examples=1500, deadline=None, database=None)
@given(st.text(alphabet="fq0123456789^*/+-() \t", max_size=40))
def test_parse_fuzz_raises_only_value_errors(text):
    # ParseError is a ValueError; anything else escaping is a parser bug
    try:
        parse(text)
    except ValueError:
        pass


def test_render_round_trip():
    for text in (
        "f2*f3/(f1*f6^2)",
        "2*q^3*f1^2 - f2/f4 + q*f1",
        "8*q^2*f2*f6^3*f24^2/f12 + 8*f2^4",
    ):
        expr = parse(text)
        assert parse(render(expr)) == expr


def test_expand_expression_generating_function_prefix():
    # counts of partitions into parts == 0, 1, 5 mod 6 (frozen from the
    # enumeration oracle in schur)
    got = expand_expression(parse("f2*f3/(f1*f6^2)"), 8, ZZ)
    assert got.coeffs == (1, 1, 1, 1, 1, 2, 3, 4)


def test_expand_expression_cancellation():
    assert expand_expression(parse("f1*f1 - f1^2"), 12, ZZ).coeffs == (0,) * 12


def test_expand_expression_q_shift_and_coeff():
    got = expand_expression(parse("3*q^2*f1"), 6, ZZ)
    f1 = expand_eta(1, 6)
    assert got.coeffs == (0, 0, 3, 3 * f1[1], 3 * f1[2], 3 * f1[3])


def test_expand_expression_mod_ring():
    ring = mod_ring(5)
    exact = expand_expression(parse("f1^3/f3"), 30, ZZ)
    reduced = expand_expression(parse("f1^3/f3"), 30, ring)
    assert reduced.coeffs == exact.reduce_mod(5).coeffs


def test_quotient_algebra():
    a = EtaQuotient.of({1: 2, 3: -1})
    b = EtaQuotient.of({3: 1, 6: 4})
    assert (a * b).as_dict() == {1: 2, 6: 4}
    assert (a ** 2).as_dict() == {1: 4, 3: -2}


def test_quotient_drops_zero_exponents():
    assert EtaQuotient.of({2: 0, 5: 1}).as_dict() == {5: 1}


def test_generating_function_three_ways():
    n = 80
    quotient = expand_expression(parse("f2*f3/(f1*f6^2)"), n, ZZ)
    prod = (
        expand_pochhammer(PochhammerFactor(1, 6), n)
        * expand_pochhammer(PochhammerFactor(5, 6), n)
        * expand_pochhammer(PochhammerFactor(6, 6), n)
    )
    assert quotient.coeffs == prod.inv().coeffs


def _is_unit(x):
    return isinstance(x, Series) and x.coeffs[0] == 1 and not any(x.coeffs[1:])


def test_expansion_never_multiplies_by_the_unit(monkeypatch):
    calls = []
    mul = Series.__mul__

    def spy(self, other):
        calls.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(Series, "__mul__", spy)
    monkeypatch.setattr(Series, "__rmul__", spy)
    n = 40
    for rec in dissect.load_catalog():
        ring = ZZ if rec.exact else mod_ring(rec.modulus)
        expand_expression(rec.rhs, n, ring)
        if isinstance(rec.lhs, EtaExpression):
            expand_expression(rec.lhs, n, ring)
    shapes = (EtaQuotient(), EtaQuotient.of({1: -3}), EtaQuotient.of({2: 5}))
    rings = (ZZ, mod_ring(16))
    got = {(q, ring): expand_quotient(q, n, ring) for q in shapes for ring in rings}
    assert calls
    assert not [c for c in calls if _is_unit(c[0]) or _is_unit(c[1])]

    for ring in rings:
        f1 = expand_eta(1, n, ring)
        f2 = expand_eta(2, n, ring)
        assert got[shapes[0], ring] == Series.one(ring, n)
        assert got[shapes[1], ring] == (f1 * f1 * f1).inv()
        assert got[shapes[2], ring] == f2 * f2 * f2 * f2 * f2


def test_shifted_term_past_precision_builds_nothing_longer(monkeypatch):
    # q^8000000 * f1 vanishes below q^10: no Series longer than the
    # precision is built, not even a shifted one that would be truncated
    lengths = []
    monkeypatch.setattr(Series, "__post_init__", lambda self: lengths.append(self.precision))
    # and f7 is f1 on two terms spread to stride 7, built at 10 terms, not 14
    expr = parse("*".join(["q^1000000"] * 8) + "*f1 + f1 + f7")
    assert expand_expression(expr, 10) == expand_eta(1, 10) + expand_eta(7, 10)
    assert lengths and max(lengths) == 10


RINGS = (ZZ, mod_ring(16), mod_ring(9), mod_ring(2**61 - 1))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_scaled_powers_at_the_ceiling_edge(ring):
    # f_r^e is f_1^e on ceil(n/r) terms spread to stride r: at n = k*r + 1
    # the last coefficient needs term k of f_1^e, which floor(n/r) drops
    k = 3
    for r in (2, 3, 5, 7, 12, 48):
        for n in (k * r - 1, k * r, k * r + 1, r + 1):
            f = expand_eta(r, n, ring)
            for e in (*range(-5, 0), *range(1, 6)):
                assert expand_quotient(EtaQuotient.of({r: e}), n, ring) == f ** e, (r, n, e)


L_LHS = dissect.get_record("l-obstruction-mod16").lhs
NUMERATORS = parse("f1^3*f2 - 5*q^2*f4^2*f6 + q*f12")


@pytest.mark.parametrize(
    "expr, n, ring, inverses",
    [
        (L_LHS, 3000, ZZ, 1),
        (L_LHS, 2000, mod_ring(16), 1),
        (NUMERATORS, 500, ZZ, 0),
        (NUMERATORS, 500, mod_ring(16), 0),
    ],
    ids=["L-ZZ", "L-Z/16", "numerators-ZZ", "numerators-Z/16"],
)
def test_one_inverse_per_expression(monkeypatch, expr, n, ring, inverses):
    calls = []
    inv = Series.inv

    def spy(self):
        calls.append(self.precision)
        return inv(self)

    monkeypatch.setattr(Series, "inv", spy)
    expand_expression(expr, n, ring)
    # the numerator is divided by D: 1/D is needed to ceil(n/2) terms
    assert calls == [(n + 1) // 2] * inverses


def _reference_expansion(terms, n, ring):
    # term by term: plain powers of each f_r and one inverse per term
    total = Series.zero(ring, n)
    for c, a, factors in terms:
        if a >= n:
            continue
        num = den = Series.one(ring, n - a)
        for r, e in factors.items():
            piece = expand_eta(r, n - a, ring) ** abs(e)
            if e > 0:
                num = num * piece
            elif e < 0:
                den = den * piece
        total = total + (c * (num * den.inv())).mul_qpow(a)
    return total


# (coefficient, q-power, {r: e}) triples, the terms of a random expression
TERMS = st.lists(
    st.tuples(
        st.integers(-20, 20).filter(bool),
        st.integers(0, 5),
        st.dictionaries(st.integers(1, 12), st.integers(-4, 4), max_size=4),
    ),
    min_size=1,
    max_size=4,
)


def _expression(terms):
    return EtaExpression.from_terms(
        eta.EtaTerm(c, a, EtaQuotient.of(factors)) for c, a, factors in terms
    )


@seed(20)
@settings(max_examples=300, deadline=None, database=None)
@given(TERMS, st.integers(1, 60), st.sampled_from((None, 2, 9, 16, 256, 2**61 - 1)))
def test_common_denominator_matches_term_by_term(terms, n, m):
    ring = ZZ if m is None else mod_ring(m)
    expr = _expression(terms)
    assert expand_expression(expr, n, ring) == _reference_expansion(terms, n, ring)


def test_each_f1_power_built_once(monkeypatch):
    # L over f1^6 f4^4 f6 f12^2: its four numerators and D read the powers
    # 1, 2, 4, 5, 6, 8, 9, 10 of f1, each built once, from one f1
    powers, etas = [], []
    power, expand = Series.__pow__, eta.expand_eta

    def pow_spy(self, e):
        powers.append(e)
        return power(self, e)

    def eta_spy(r, n, ring=ZZ):
        etas.append(r)
        return expand(r, n, ring)

    monkeypatch.setattr(Series, "__pow__", pow_spy)
    monkeypatch.setattr(eta, "expand_eta", eta_spy)
    expand_expression(L_LHS, 3000, ZZ)
    assert sorted(powers) == [1, 2, 4, 5, 6, 8, 9, 10]
    assert etas == [1]


@seed(22)
@settings(max_examples=300, deadline=None, database=None)
@given(
    TERMS,
    TERMS,
    TERMS,
    st.sampled_from(
        [r for r in dissect.load_catalog() if r.exact and isinstance(r.lhs, EtaExpression)]
    ),
    st.booleans(),
    st.integers(1, 60),
    st.sampled_from((None, 9, 16, 2**61 - 1)),
)
def test_numerator_check_matches_full_expansion(
    full_expansion_report, lhs, rhs, x, identity, equal, n, m
):
    # random pairs mostly differ; with `equal`, the right side is the left
    # plus x times (A - B) for an exact catalog identity A = B, equal as
    # series but not term by term
    left = _expression(lhs)
    if equal:
        right = left + _expression(x) * (identity.lhs - identity.rhs)
    else:
        right = _expression(rhs)
    record = dissect.IdentityRecord("random", left, right, m, "")
    got = dissect.verify_identity(record, n)
    want = full_expansion_report(record, n)
    assert (got.passed, got.mismatch) == (want.passed, want.mismatch)
    assert got.passed or not equal
