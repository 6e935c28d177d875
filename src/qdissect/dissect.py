"""Dissection operators and the identity catalog verifier.

An IdentityRecord claims that a left side (an eta expression, or a named
root series with extraction steps applied) equals a right side, exactly
or modulo m. Verification checks the difference of the two sides, over
a common denominator, on a common precision; a failing record reports
its first mismatch: its degree and the two coefficients there. The
precision the root series must be computed to is derived from the recipe
up front and never truncated silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from . import eta, schur
from .series import Series, RingSpec, ZZ, mod_ring


def _check_step(m: int, r: int) -> None:
    if m < 2:
        raise ValueError("extraction modulus must be at least 2")
    if not 0 <= r < m:
        raise ValueError(f"extraction residue must lie in [0, {m})")


def extract(a: Series, m: int, r: int) -> Series:
    """The series of coefficients a[m*n + r] (one dissection component)."""
    _check_step(m, r)
    picked = a.coeffs[r::m]
    if not picked:
        raise ValueError(
            f"precision {a.precision} too small to extract residue {r} mod {m}"
        )
    return Series(a.ring, picked)


def _progression(steps) -> tuple[int, int]:
    """(start, stride) of the one progression that `steps`, applied left to
    right by `extract`, pick from a series: (m1, r1) then (m2, r2) keeps
    a[m1*(m2*n + r2) + r1], so start = r1 + m1*r2 + m1*m2*r3 + ... and
    stride = m1*m2*..."""
    start, stride = 0, 1
    for m, r in steps:
        _check_step(m, r)
        start += stride * r
        stride *= m
    return start, stride


@dataclass(frozen=True)
class RootRecipe:
    """A named root series plus extraction steps applied left to right."""

    root: str
    steps: tuple[tuple[int, int], ...] = ()


def required_root_precision(steps, precision: int) -> int:
    """Precision the root must carry so every step keeps `precision` terms."""
    p = precision
    for m, r in reversed(tuple(steps)):
        p = m * p + r
    return p


@dataclass(frozen=True)
class IdentityRecord:
    name: str
    lhs: "eta.EtaExpression | RootRecipe"
    rhs: eta.EtaExpression
    modulus: int | None
    anchor: str

    @property
    def exact(self) -> bool:
        return self.modulus is None


@dataclass(frozen=True)
class Mismatch:
    degree: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class VerificationReport:
    name: str
    passed: bool
    precision: int
    modulus: int | None = None
    required_root_precision: int | None = None
    mismatch: Mismatch | None = None

    def describe(self) -> str:
        ring = "exact" if self.modulus is None else f"mod {self.modulus}"
        if self.passed:
            return f"PASS {self.name} ({ring}, precision {self.precision})"
        mm = self.mismatch
        return (
            f"FAIL {self.name} ({ring}, precision {self.precision}): "
            f"first mismatch at q^{mm.degree}, lhs={mm.lhs}, rhs={mm.rhs}"
        )

    def as_json(self) -> str:
        """The report's fields in order, the mismatch's nested as a plain
        dict, as JSON; built from the fields directly, since
        `dataclasses.asdict` deep-copies them."""
        mm = self.mismatch
        return json.dumps({**vars(self), "mismatch": None if mm is None else vars(mm)})


def compare_series(a: Series, b: Series) -> Mismatch | None:
    """First differing coefficient over the common precision."""
    for k in range(min(a.precision, b.precision)):
        if a.coeffs[k] != b.coeffs[k]:
            return Mismatch(k, a.coeffs[k], b.coeffs[k])
    return None


def root_series(name: str, ring: RingSpec, precision: int) -> Series:
    """The named root series to `precision` terms over `ring`, as a Series
    of Python ints.

    "S" is the overpartition count series, read from `schur`'s count
    tables, whose arrays become the Series tuple in one step: `schur`
    keeps the exact table and the mod-256 table, which serves every
    divisor of 256, so for those requests in any order builds no term
    twice; any other modulus is built fresh on each request. "negq" is
    the alternating-sign Euler product, a sign flip of the f1 expansion.
    """
    return _root_terms(name, ring, precision, 0, 1)


def _root_terms(name: str, ring: RingSpec, stop: int, start: int, stride: int) -> Series:
    # the root's terms start, start + stride, ... below `stop`; for "S" the
    # progression is sliced from the count table's array, so the Series
    # tuple holds only the terms picked
    if name == "S":
        if stop < 1:
            raise ValueError("precision must be at least 1")
        return Series(ring, schur._table_terms(stop, ring.modulus, start, stride))
    if name == "negq":
        f1 = eta.expand_eta(1, stop, ring).coeffs
        return Series.of(ring, (-f1[i] if i % 2 else f1[i] for i in range(start, stop, stride)))
    raise ValueError(f"unknown root series {name!r}")


def lhs_series(lhs, ring: RingSpec, precision: int, steps=()) -> Series:
    """A left side with `steps` applied, to `precision` terms over `ring`.

    `lhs` is an eta expression or a RootRecipe, whose own steps run
    before `steps`. The steps pick one progression start + stride*n of
    the expression or root, which is expanded to
    `required_root_precision` = start + stride*precision terms, so the
    progression carries `precision` terms. A root's progression is sliced
    from its count table before any Python int is built; the returned
    Series is the one tuple made.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    if isinstance(lhs, RootRecipe):
        steps = lhs.steps + tuple(steps)
    start, stride = _progression(steps)
    stop = start + stride * precision
    if isinstance(lhs, RootRecipe):
        return _root_terms(lhs.root, ring, stop, start, stride)
    series = eta.expand_expression(lhs, stop, ring)
    return Series(ring, series.coeffs[start::stride])


def parse_steps(texts) -> tuple[tuple[int, int], ...]:
    """Extraction steps from "m:r" strings, each with m >= 2 and 0 <= r < m."""
    steps = []
    for item in texts:
        m, _, r = item.partition(":")
        try:
            step = (int(m), int(r))
        except ValueError:
            raise ValueError(f"extraction step {item!r} is not of the form m:r") from None
        if step[0] < 2 or not 0 <= step[1] < step[0]:
            raise ValueError(f"extraction step {item!r} needs m >= 2 and 0 <= r < m")
        steps.append(step)
    return tuple(steps)


def parse_lhs(text: str) -> "eta.EtaExpression | RootRecipe":
    """A left side: "@root m:r ..." as a RootRecipe, else an eta expression."""
    if not text.lstrip().startswith("@"):
        return eta.parse(text)
    root, *steps = text.split()
    return RootRecipe(root[1:], parse_steps(steps))


@lru_cache(maxsize=1)
def load_catalog() -> tuple[IdentityRecord, ...]:
    """All shipped identity records, in file order."""
    text = resources.files("qdissect").joinpath("data/identities.txt").read_text()
    records = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 5:
            raise ValueError(f"identities.txt:{lineno}: expected 5 fields")
        name, lhs_text, rhs_text, mod_text, anchor = fields
        if name in seen:
            raise ValueError(f"identities.txt:{lineno}: duplicate id {name!r}")
        seen.add(name)
        records.append(
            IdentityRecord(
                name=name,
                lhs=parse_lhs(lhs_text),
                rhs=eta.parse(rhs_text),
                modulus=int(mod_text) if mod_text else None,
                anchor=anchor,
            )
        )
    return tuple(records)


def get_record(name: str) -> IdentityRecord:
    for rec in load_catalog():
        if rec.name == name:
            return rec
    raise KeyError(f"no catalog record named {name!r}")


DEFAULT_EXACT_PRECISION = 500
DEFAULT_MOD_PRECISION = 2000


def _precision(record: IdentityRecord, precision: int | None) -> int:
    if precision is not None:
        return precision
    return DEFAULT_EXACT_PRECISION if record.exact else DEFAULT_MOD_PRECISION


def verify_dissection_theorem(
    record: IdentityRecord, precision: int | None = None
) -> VerificationReport:
    """Verify a record whose left side extracts from a root series."""
    if not isinstance(record.lhs, RootRecipe):
        raise ValueError(f"record {record.name!r} has no extraction recipe")
    return verify_identity(record, precision)


def verify_identity(
    record: IdentityRecord, precision: int | None = None
) -> VerificationReport:
    """Verify one record, whichever shape its left side has.

    Both sides are compared to `precision` terms (None: 500 for exact
    records, 2000 mod m); for a root recipe the report also carries the
    precision of the root.

    The check clears denominators and inverts nothing. With E = LHS - RHS
    and D = prod f_r^{d_r} a common denominator, D has constant term 1,
    so it is a unit in ZZ[[q]] and in every (Z/m)[[q]]: E*D vanishes to n
    terms iff E does, and its first nonzero coefficient sits at E's first
    nonzero degree k. For an eta left side, E*D is the numerator of
    `record.lhs - record.rhs` over its own denominator; for a root recipe
    it is T*D - N, with T the table component from `lhs_series` and (N, D)
    the right side's numerator and denominator. On failure both sides are
    expanded to k + 1 terms and `compare_series` reports the mismatch.
    """
    prec = _precision(record, precision)
    ring = ZZ if record.exact else mod_ring(record.modulus)
    need = None
    if isinstance(record.lhs, RootRecipe):
        need = required_root_precision(record.lhs.steps, prec)
        table = lhs_series(record.lhs, ring, prec)
        num, den = eta._numerator(record.rhs, prec, ring)
        diff = (table if den is None else table * den) - num
    else:
        diff, _ = eta._numerator(record.lhs - record.rhs, prec, ring)
    k = next((k for k, c in enumerate(diff.coeffs) if c), None)
    mm = None
    if k is not None:
        lhs = lhs_series(record.lhs, ring, k + 1)
        mm = compare_series(lhs, eta.expand_expression(record.rhs, k + 1, ring))
    return VerificationReport(record.name, mm is None, prec, record.modulus, need, mm)


def verify_catalog(records=None, precision: int | None = None) -> list[VerificationReport]:
    """Verify records (default: whole catalog), reporting in catalog order."""
    if records is None:
        records = load_catalog()
    return [verify_identity(rec, precision) for rec in records]
