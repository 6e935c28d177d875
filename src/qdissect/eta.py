"""Eta-quotient expressions: a tiny language and its series expansion.

The surface syntax covers sums of monomials in q and the Euler products
f_r = (q^r; q^r)_inf, e.g. "f4^3*f6^2/(f2^2*f12) + q*f12^3/f4". The
grammar, deliberately small:

    expr   := term (('+'|'-') term)*
    term   := sign? factor (('*'|'/') factor)*
    factor := 'q' ('^' uint)? | 'f' uint ('^' sint)? | uint | '(' expr ')'

Parsing evaluates directly into a normalized EtaExpression (terms merged
and sorted), so parse(render(e)) == e.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .series import Series, RingSpec, ZZ

MAX_EXPONENT = 10**6
# deepest parenthesis nesting the parser accepts; each level costs three
# Python frames, so the bound keeps deep input far from the recursion limit
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or evaluation error, carrying the byte offset of the cause."""

    def __init__(self, message: str, text: str, pos: int):
        self.offset = len(text[:pos].encode())
        super().__init__(f"{message} at offset {self.offset}")


@dataclass(frozen=True)
class EtaQuotient:
    """Finite product prod_r f_r^{e_r}, stored as sorted (r, e) pairs."""

    factors: tuple[tuple[int, int], ...] = ()

    @classmethod
    def of(cls, exponents: dict[int, int]) -> "EtaQuotient":
        for r in exponents:
            if r < 1:
                raise ValueError("f subscripts must be positive")
        items = tuple(sorted((r, e) for r, e in exponents.items() if e != 0))
        return cls(items)

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)

    def __mul__(self, other: "EtaQuotient") -> "EtaQuotient":
        merged = self.as_dict()
        for r, e in other.factors:
            merged[r] = merged.get(r, 0) + e
        return EtaQuotient.of(merged)

    def __pow__(self, e: int) -> "EtaQuotient":
        return EtaQuotient.of({r: x * e for r, x in self.factors})


@dataclass(frozen=True)
class EtaTerm:
    """One monomial: coeff * q^qpow * quotient."""

    coeff: int
    qpow: int
    quotient: EtaQuotient


@dataclass(frozen=True)
class EtaExpression:
    """Normalized sum of EtaTerms: no zero terms, keys merged and sorted."""

    terms: tuple[EtaTerm, ...] = ()

    @classmethod
    def from_terms(cls, terms) -> "EtaExpression":
        acc: dict[tuple[int, tuple], int] = {}
        for t in terms:
            key = (t.qpow, t.quotient.factors)
            acc[key] = acc.get(key, 0) + t.coeff
        out = [
            EtaTerm(c, qpow, EtaQuotient(factors))
            for (qpow, factors), c in sorted(acc.items())
            if c != 0
        ]
        return cls(tuple(out))

    @classmethod
    def constant(cls, c: int) -> "EtaExpression":
        return cls.from_terms([EtaTerm(c, 0, EtaQuotient())])

    def __add__(self, other: "EtaExpression") -> "EtaExpression":
        return EtaExpression.from_terms(self.terms + other.terms)

    def __neg__(self) -> "EtaExpression":
        return EtaExpression(
            tuple(EtaTerm(-t.coeff, t.qpow, t.quotient) for t in self.terms)
        )

    def __sub__(self, other: "EtaExpression") -> "EtaExpression":
        return self + (-other)

    def __mul__(self, other: "EtaExpression") -> "EtaExpression":
        prods = [
            EtaTerm(a.coeff * b.coeff, a.qpow + b.qpow, a.quotient * b.quotient)
            for a in self.terms
            for b in other.terms
        ]
        return EtaExpression.from_terms(prods)


@dataclass(frozen=True)
class PochhammerFactor:
    """(q^offset; q^step)_inf, the product over (1 - q^(offset + k*step))."""

    offset: int
    step: int

    def __post_init__(self) -> None:
        if self.offset < 1 or self.step < 1:
            raise ValueError("Pochhammer offset and step must be positive")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str, pos: int | None = None):
        raise ParseError(message, self.text, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_uint(self, what: str) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error(f"expected {what}", start)
        return int(self.text[start : self.pos])

    def take_exponent(self, signed: bool) -> int:
        start = self.pos
        sign = 1
        if signed and self.peek() == "-":
            sign = -1
            self.pos += 1
        n = self.take_uint("an exponent")
        if n > MAX_EXPONENT:
            self.error("exponent overflow", start)
        return sign * n

    def parse(self) -> EtaExpression:
        e = self.expr()
        self.skip_ws()
        if self.pos < len(self.text):
            self.error(f"unexpected {self.text[self.pos]!r}")
        return e

    def expr(self) -> EtaExpression:
        acc = self.term()
        while True:
            self.skip_ws()
            op = self.peek()
            if op == "+":
                self.pos += 1
                acc = acc + self.term()
            elif op == "-":
                self.pos += 1
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> EtaExpression:
        self.skip_ws()
        negate = False
        if self.peek() == "-":
            negate = True
            self.pos += 1
        acc = self.factor()
        while True:
            self.skip_ws()
            op = self.peek()
            if op == "*":
                self.pos += 1
                acc = acc * self.factor()
            elif op == "/":
                self.pos += 1
                at = self.pos
                acc = self._divide(acc, self.factor(), at)
            else:
                break
        return -acc if negate else acc

    def _divide(self, num: EtaExpression, den: EtaExpression, at: int) -> EtaExpression:
        if len(den.terms) != 1:
            self.error("divisor must reduce to a single term", at)
        d = den.terms[0]
        if d.coeff not in (1, -1):
            self.error("divisor coefficient must be 1 or -1", at)
        inv_q = d.quotient ** -1
        out = []
        for t in num.terms:
            qpow = t.qpow - d.qpow
            if qpow < 0:
                self.error("division would need a negative q-power", at)
            out.append(EtaTerm(t.coeff * d.coeff, qpow, t.quotient * inv_q))
        return EtaExpression.from_terms(out)

    def factor(self) -> EtaExpression:
        self.skip_ws()
        ch = self.peek()
        if ch == "q":
            self.pos += 1
            k = 1
            if self.peek() == "^":
                self.pos += 1
                k = self.take_exponent(signed=False)
            return EtaExpression.from_terms([EtaTerm(1, k, EtaQuotient())])
        if ch == "f":
            at = self.pos
            self.pos += 1
            r = self.take_uint("an f subscript")
            if r == 0:
                self.error("zero modulus subscript", at)
            e = 1
            if self.peek() == "^":
                self.pos += 1
                e = self.take_exponent(signed=True)
            return EtaExpression.from_terms(
                [EtaTerm(1, 0, EtaQuotient.of({r: e}))]
            )
        if ch.isdigit():
            return EtaExpression.constant(self.take_uint("a number"))
        if ch == "(":
            if self.depth == MAX_NESTING:
                self.error(f"parentheses nested deeper than {MAX_NESTING}")
            self.depth += 1
            self.pos += 1
            inner = self.expr()
            self.skip_ws()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return inner
        self.error("expected a factor")


def parse(text: str) -> EtaExpression:
    """Parse the DSL into a normalized EtaExpression."""
    return _Parser(text).parse()


def _render_term(t: EtaTerm) -> str:
    num = []
    den = []
    if abs(t.coeff) != 1:
        num.append(str(abs(t.coeff)))
    if t.qpow == 1:
        num.append("q")
    elif t.qpow > 1:
        num.append(f"q^{t.qpow}")
    for r, e in t.quotient.factors:
        target = num if e > 0 else den
        a = abs(e)
        target.append(f"f{r}" if a == 1 else f"f{r}^{a}")
    body = "*".join(num) if num else "1"
    if den:
        body += "/(" + "*".join(den) + ")"
    return body


def render(expr: EtaExpression) -> str:
    """Canonical text for an expression; parse(render(e)) == e."""
    if not expr.terms:
        return "0"
    pieces = []
    for i, t in enumerate(expr.terms):
        if i == 0:
            sign = "-" if t.coeff < 0 else ""
        else:
            sign = " - " if t.coeff < 0 else " + "
        pieces.append(sign + _render_term(t))
    return "".join(pieces)


def expand_eta(r: int, precision: int, ring: RingSpec = ZZ) -> Series:
    """Expand f_r = (q^r; q^r)_inf by the pentagonal number theorem;
    uncached, as one pass costs far less than any product it feeds."""
    if r < 1:
        raise ValueError("f subscripts must be positive")
    if precision < 1:
        raise ValueError("precision must be at least 1")
    coeffs = [0] * precision
    coeffs[0] = 1
    for j in count(1):
        g1 = r * (j * (3 * j - 1) // 2)
        if g1 >= precision:
            break
        sign = -1 if j % 2 else 1
        coeffs[g1] = sign
        g2 = r * (j * (3 * j + 1) // 2)
        if g2 < precision:
            coeffs[g2] = sign
    return Series.of(ring, coeffs)


def expand_pochhammer(factor: PochhammerFactor, precision: int, ring: RingSpec = ZZ) -> Series:
    """Expand (q^j; q^m)_inf by multiplying out the factors one by one."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    out = Series.one(ring, precision)
    for e in range(factor.offset, precision, factor.step):
        # multiply by (1 - q^e): one shifted subtraction, no cascading
        out = out - out.mul_qpow(e).truncate(precision)
    return out


def expand_quotient(quotient: EtaQuotient, precision: int, ring: RingSpec = ZZ) -> Series:
    """Expand prod_r f_r^{e_r}, the expression of one term: f_r with
    r >= precision is 1 to that precision and is skipped, and the
    denominator, if any, is inverted once."""
    return expand_expression(EtaExpression((EtaTerm(1, 0, quotient),)), precision, ring)


def _numerator(
    expr: EtaExpression, precision: int, ring: RingSpec = ZZ
) -> tuple[Series, Series | None]:
    """The expression over its common denominator, to `precision` terms.

    Returns (N, D). The terms below q^precision share the denominator
    D = prod f_r^{d_r}, d_r the largest denominator exponent of f_r among
    them; D is None when no term has one. N is their sum times D: each
    term times D is a pure product, so N costs no inverse. f_r^e is f_1^e
    on ceil(n/r) terms with q -> q^r, and each f_1^e is built once, at
    the longest length any product reads: truncated products agree on
    their common prefix, so every shorter use is a truncation of it.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    live = [t for t in expr.terms if t.qpow < precision]
    d: dict[int, int] = {}
    for t in live:
        for r, e in t.quotient.factors:
            if e < 0 and r < precision:
                d[r] = max(d.get(r, 0), -e)
    den = EtaQuotient.of(d)
    # q^qpow * quotient needs only precision - qpow terms of the quotient,
    # and times den it has no denominator below that
    jobs = [(t.quotient * den, precision - t.qpow) for t in live]
    length: dict[int, int] = {}
    for q, n in jobs + [(den, precision)]:
        for r, e in q.factors:
            if r < n:
                length[e] = max(length.get(e, 0), -(-n // r))
    f1 = expand_eta(1, max(length.values(), default=1), ring)
    powers = {e: f1.truncate(k) ** e for e, k in length.items()}

    def product(q: EtaQuotient, n: int) -> Series:
        out = None
        for r, e in q.factors:
            if r < n:
                piece = powers[e].scale_q(r, n)
                out = piece if out is None else out * piece
        return Series.one(ring, n) if out is None else out

    total = [0] * precision
    for t, (q, n) in zip(live, jobs):
        for i, c in enumerate(product(q, n).coeffs, t.qpow):
            total[i] += t.coeff * c
    return Series.of(ring, total), (product(den, precision) if den.factors else None)


def expand_expression(expr: EtaExpression, precision: int, ring: RingSpec = ZZ) -> Series:
    """Expand a full expression to exactly `precision` coefficients: the
    numerator N of `_numerator` divided by D, so an expression costs at
    most one inverse, of ceil(precision/2) terms unless N is 1."""
    total, den = _numerator(expr, precision, ring)
    if den is None:
        return total
    return den.inv() if total == Series.one(ring, precision) else total / den
