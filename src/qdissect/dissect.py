"""Dissection operators and the identity catalog verifier.

An IdentityRecord claims that a left side (an eta expression, or a named
root series with extraction steps applied) equals a right side, exactly
or modulo m. Verification expands both sides to a common precision and
compares coefficients, reporting the first mismatch with a small window
of context. The precision the root series must be computed to is derived
from the recipe up front and never truncated silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from . import eta, schur
from .series import Series, RingSpec, ZZ, mod_ring


def extract(a: Series, m: int, r: int) -> Series:
    """The series of coefficients a[m*n + r] (one dissection component)."""
    if m < 2:
        raise ValueError("extraction modulus must be at least 2")
    if not 0 <= r < m:
        raise ValueError(f"extraction residue must lie in [0, {m})")
    picked = a.coeffs[r::m]
    if not picked:
        raise ValueError(
            f"precision {a.precision} too small to extract residue {r} mod {m}"
        )
    return Series(a.ring, picked)


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
    context: tuple[tuple[int, int, int], ...]


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


def compare_series(a: Series, b: Series) -> Mismatch | None:
    """First differing coefficient over the common precision, with context."""
    n = min(a.precision, b.precision)
    for k in range(n):
        if a.coeffs[k] != b.coeffs[k]:
            lo = max(0, k - 1)
            window = tuple(
                (d, a.coeffs[d], b.coeffs[d]) for d in range(lo, min(n, lo + 3))
            )
            return Mismatch(k, a.coeffs[k], b.coeffs[k], window)
    return None


class RootProvider:
    """Serves named root series.

    "S" is the overpartition count series: exact requests are prefixes
    of the `schur.s_series` table, which the provider keeps and grows as
    needed; residue requests are `schur.residue_table` results, which
    serve every divisor of 256 (all catalog moduli) from one cached
    mod-256 table. "negq" is the alternating-sign Euler product, a sign
    flip of the f1 expansion.
    """

    def __init__(self) -> None:
        self._exact: Series | None = None

    def series(self, name: str, ring: RingSpec, precision: int) -> Series:
        if name == "S":
            if not ring.exact:
                return schur.residue_table(precision, ring.modulus)
            if self._exact is None or self._exact.precision < precision:
                self._exact = schur.s_series(precision)
            return self._exact.truncate(precision)
        if name == "negq":
            base = eta.expand_eta(1, precision, ring)
            norm = ring.normalize
            return Series(
                ring,
                tuple(norm(-c) if i % 2 else c for i, c in enumerate(base.coeffs)),
            )
        raise ValueError(f"unknown root series {name!r}")


_shared_provider = RootProvider()

_ROOT_LHS = re.compile(r"^@(\w+)((?:\s+\d+:\d+)*)\s*$")


def _parse_lhs(text: str) -> "eta.EtaExpression | RootRecipe":
    m = _ROOT_LHS.match(text)
    if not m:
        return eta.parse(text)
    steps = tuple(
        (int(a), int(b))
        for a, b in (s.split(":") for s in m.group(2).split())
    )
    for mod, res in steps:
        if mod < 2 or not 0 <= res < mod:
            raise ValueError(f"bad extraction step {mod}:{res} in {text!r}")
    return RootRecipe(m.group(1), steps)


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
                lhs=_parse_lhs(lhs_text),
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


def _default_precision(record: IdentityRecord) -> int:
    return DEFAULT_EXACT_PRECISION if record.exact else DEFAULT_MOD_PRECISION


def verify_dissection_theorem(
    record: IdentityRecord,
    precision: int | None = None,
    provider: RootProvider | None = None,
) -> VerificationReport:
    """Verify a record whose left side extracts from a root series."""
    if not isinstance(record.lhs, RootRecipe):
        raise ValueError(f"record {record.name!r} has no extraction recipe")
    prec = precision or _default_precision(record)
    provider = provider or _shared_provider
    ring = ZZ if record.modulus is None else mod_ring(record.modulus)
    need = required_root_precision(record.lhs.steps, prec)
    current = provider.series(record.lhs.root, ring, need)
    if current.precision < need:
        raise ValueError(
            f"root {record.lhs.root!r} provided at precision {current.precision}, "
            f"need {need}"
        )
    for m, r in record.lhs.steps:
        current = extract(current, m, r)
    lhs = current.truncate(prec)
    rhs = eta.expand_expression(record.rhs, prec, ring)
    mm = compare_series(lhs, rhs)
    return VerificationReport(
        record.name, mm is None, prec, record.modulus, need, mm
    )


def verify_identity(
    record: IdentityRecord,
    precision: int | None = None,
    provider: RootProvider | None = None,
) -> VerificationReport:
    """Verify one record, whichever shape its left side has."""
    if isinstance(record.lhs, RootRecipe):
        return verify_dissection_theorem(record, precision, provider)
    prec = precision or _default_precision(record)
    ring = ZZ if record.modulus is None else mod_ring(record.modulus)
    lhs = eta.expand_expression(record.lhs, prec, ring)
    rhs = eta.expand_expression(record.rhs, prec, ring)
    mm = compare_series(lhs, rhs)
    return VerificationReport(record.name, mm is None, prec, record.modulus, None, mm)


def verify_catalog(
    records=None,
    precision: int | None = None,
    provider: RootProvider | None = None,
) -> list[VerificationReport]:
    """Verify records (default: whole catalog), reporting in catalog order."""
    if records is None:
        records = load_catalog()
    provider = provider or _shared_provider
    # Build each root table once at the largest size any record needs, so
    # smaller needs are served by slicing instead of by rebuilding.
    warm_exact = 0
    warm_residue = 0
    for rec in records:
        if isinstance(rec.lhs, RootRecipe) and rec.lhs.root == "S":
            need = required_root_precision(
                rec.lhs.steps, precision or _default_precision(rec)
            )
            if rec.exact:
                warm_exact = max(warm_exact, need)
            else:
                warm_residue = max(warm_residue, need)
    if warm_exact:
        provider.series("S", ZZ, warm_exact)
    if warm_residue:
        provider.series("S", mod_ring(256), warm_residue)
    return [verify_identity(rec, precision, provider) for rec in records]
