"""Theta-function parameterization of the small eta powers.

phi is the classical theta series 1 + 2*sum q^(n^2). From phi(q) and
phi(q^3) we build two unit series s and t; each of f1, f2, f3, f4, f6,
f12 raised to the 24th power is then an integer monomial in s, t and the
linear forms 1-2qt, 1+qt, 1+2qt, 1+4qt, which keeps every exponent
integral and all arithmetic over ZZ. The same s and t give a closed
product form for the four-term obstruction combination L whose
coefficients are all divisible by 16.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import eta
from .dissect import VerificationReport, compare_series, get_record
from .series import Series, ZZ


def phi(precision: int) -> Series:
    """1 + 2q + 2q^4 + 2q^9 + ... truncated to `precision` terms."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    coeffs = [0] * precision
    coeffs[0] = 1
    n = 1
    while n * n < precision:
        coeffs[n * n] = 2
        n += 1
    return Series(ZZ, tuple(coeffs))


@dataclass(frozen=True)
class ParamPair:
    s: Series
    t: Series

    def __post_init__(self) -> None:
        if self.s[0] != 1 or self.t[0] != 1:
            raise ValueError("s and t must both have constant term 1")


def compute_params(precision: int) -> ParamPair:
    """The unit series s and t at the given precision.

    s multiplies phi(q) back to phi(q^3)^3. t is built from
    phi(q)^2 - phi(q^3)^2: the difference must vanish at q^0 and be
    divisible by 4 coefficientwise, and both conditions are hard errors
    because a violation means the theta arithmetic itself is broken.
    """
    if precision < 2:
        raise ValueError("precision must be at least 2")
    # phi(q) and phi(q^3) once each, one term past `precision` for t
    ph = phi(precision + 1)
    ph3 = phi((precision + 3) // 3).scale_q(3, precision + 1)
    sq3 = ph3 ** 2
    s = ph3.truncate(precision) ** 3 / ph.truncate(precision)

    num = ph ** 2 - sq3
    if num[0] != 0:
        raise ValueError("theta squares differ at q^0; cannot divide by q")
    for k, c in enumerate(num.coeffs[1:], start=1):
        if c % 4:
            raise ValueError(f"coefficient of q^{k} in the theta difference is not divisible by 4")
    quarter = Series(ZZ, tuple(c // 4 for c in num.coeffs[1:]))
    t = quarter / sq3.truncate(precision)
    return ParamPair(s, t)


# f_r^24 = s^12 * t^e0 * (1-2qt)^e1 * (1+qt)^e2 * (1+2qt)^e3 * (1+4qt)^e4
_RELATION_EXPONENTS: dict[int, tuple[int, int, int, int, int]] = {
    1: (1, 12, 3, 4, 3),
    2: (2, 6, 6, 2, 6),
    3: (3, 4, 1, 12, 1),
    4: (4, 3, 12, 1, 3),
    6: (6, 2, 2, 6, 2),
    12: (12, 1, 4, 3, 1),
}


def _linear_forms(t: Series, precision: int):
    one = Series.one(ZZ, precision)
    qt = t.truncate(precision).mul_qpow(1).truncate(precision)
    return one - 2 * qt, one + qt, one + 2 * qt, one + 4 * qt


def verify_param_identities(p: ParamPair, precision: int) -> list[VerificationReport]:
    """Check the six 24th-power relations; one report per eta factor."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    if p.s.precision < precision or p.t.precision < precision:
        raise ValueError("parameter pair carries fewer terms than requested")
    s = p.s.truncate(precision)
    t = p.t.truncate(precision)
    bases = (s, t, *_linear_forms(t, precision))
    # (base, exponent) -> power, each built once from a smaller one: x^2e
    # is (x^e)^2 and x^(e+1) is x^e * x
    powers = {(i, 1): x for i, x in enumerate(bases)}

    def power(i: int, e: int) -> Series:
        if (i, e) not in powers:
            if e % 2:
                powers[i, e] = power(i, e - 1) * bases[i]
            else:
                half = power(i, e // 2)
                powers[i, e] = half * half
        return powers[i, e]

    # f_r^24 is f1^24 with q -> q^r: one power serves all six left sides
    f24 = eta.expand_eta(1, precision) ** 24
    reports = []
    for r, exponents in _RELATION_EXPONENTS.items():
        rhs = power(0, 12)
        for i, e in enumerate(exponents, start=1):
            rhs = rhs * power(i, e)
        mm = compare_series(f24.scale_q(r, precision), rhs)
        reports.append(
            VerificationReport(f"f{r}-parameterization", mm is None, precision, None, None, mm)
        )
    return reports


def compute_L(precision: int) -> Series:
    """The obstruction combination, exactly over ZZ.

    L is the left side of the catalog record "l-obstruction-mod16".
    """
    if precision < 2:
        raise ValueError("precision must be at least 2")
    return eta.expand_expression(get_record("l-obstruction-mod16").lhs, precision, ZZ)


def verify_L_identity(precision: int) -> VerificationReport:
    """L * f4^2*f6/f3^2 == 16q * s^4 t^2 (1+qt)^3 (1+2qt) (1+4qt), over ZZ."""
    if precision < 2:
        raise ValueError("precision must be at least 2")
    # one expression over one denominator, f1^6 f3^2 f4^2 f12^2: one inverse
    lhs_expr = get_record("l-obstruction-mod16").lhs * eta.parse("f4^2*f6/f3^2")
    lhs = eta.expand_expression(lhs_expr, precision, ZZ)
    pair = compute_params(precision)
    s = pair.s
    t = pair.t
    _, p1, p2, p4 = _linear_forms(t, precision)
    product = s ** 4 * t ** 2 * p1 ** 3 * p2 * p4
    rhs = (16 * product).mul_qpow(1).truncate(precision)
    mm = compare_series(lhs, rhs)
    return VerificationReport("l-product-form", mm is None, precision, None, None, mm)
