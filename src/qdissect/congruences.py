"""Arithmetic-progression congruences of the overpartition counts.

A CongruenceTriple (A, B, M) claims S(A*n + B) == 0 (mod M) for every n;
an InternalCongruence (a, b, c, d, M) claims S(a*N + b) == S(c*N + d)
(mod M). Both are checked against a finite table, so a passing check
only ever means "holds so far" up to the largest testable index; a
failing one pins the exact index of the counterexample.

The scanner reproduces the search protocol at desk scale: it reduces the
table mod the lcm of the requested moduli once into a bit mask (bit j
set where the j-th modulus divides the count), then tests all offsets
of each step A and every modulus in one vectorised pass over the first
rows, reads the remaining rows only for offsets still alive, and keeps
every progression with enough testable terms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import lcm

import numpy as np

from .series import Series

HOLDS = "holds-so-far"

# Minimum number of testable indices before a scan survivor is worth
# reporting; progressions with fewer hits near the table end are noise.
MIN_SUPPORT_FLOOR = 20

# Rows of each step's grid that the scanner reads for every column; the
# rest is read only for columns still alive after them. On 300,000 terms
# mod 32 (moduli 8, 16, 32, steps to 3,072), 5,230 columns in 145 steps
# outlive 32 rows (5,369 after 16, 5,185 after 64). That scan plus one
# of 25,000 terms mod 9 took, as medians of 11 runs on 2 cores, 0.41 s
# with a full pass per modulus, 0.13 s with a full pass of the bit mask,
# and 0.058 / 0.063 / 0.087 s with 16 / 32 / 64 head rows.
_SCAN_HEAD_ROWS = 32


class _Ledger:
    """The test ledger of both result types, read from the subclass's fields
    tested_to and refuted_at; _KEYS names the fields that lead its JSON."""

    _KEYS: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.refuted_at is None

    @property
    def support(self) -> int:
        """Number of indices actually tested."""
        return self.tested_to + 1

    @property
    def status(self) -> str:
        return HOLDS if self.holds else f"refuted-at({self.refuted_at})"

    def as_json(self) -> str:
        ledger = {"tested_to": self.tested_to, "support": self.support, "status": self.status}
        return json.dumps({**{key: getattr(self, key) for key in self._KEYS}, **ledger})


@dataclass(frozen=True)
class CongruenceTriple(_Ledger):
    """S(A*n + B) == 0 (mod M), with its test ledger."""

    _KEYS = ("A", "B", "M")

    A: int
    B: int
    M: int
    tested_to: int = -1
    refuted_at: int | None = None

    def __post_init__(self) -> None:
        if self.A < 1:
            raise ValueError("progression step A must be positive")
        if not 0 <= self.B < self.A:
            raise ValueError(f"offset B must lie in [0, {self.A})")
        if self.M < 2:
            raise ValueError("modulus must be at least 2")


@dataclass(frozen=True)
class InternalCongruence(_Ledger):
    """S(a*N + b) == S(c*N + d) (mod M) for every tested N.

    Entries flagged `conjectural` are numerical observations; a passing
    check reports them as "empirical" rather than as settled facts.
    """

    _KEYS = ("a", "b", "c", "d", "M")

    a: int
    b: int
    c: int
    d: int
    M: int
    conjectural: bool = False
    tested_to: int = -1
    refuted_at: int | None = None

    def __post_init__(self) -> None:
        if not self.a > self.c >= 1:
            raise ValueError("need a > c >= 1")
        if not 0 <= self.b < self.a:
            raise ValueError(f"offset b must lie in [0, {self.a})")
        if not 0 <= self.d < self.c:
            raise ValueError(f"offset d must lie in [0, {self.c})")
        if self.M < 2:
            raise ValueError("modulus must be at least 2")

    @property
    def status(self) -> str:
        return "empirical" if self.holds and self.conjectural else super().status

    def describe(self) -> str:
        return (
            f"S({self.a}N+{self.b}) == S({self.c}N+{self.d}) (mod {self.M}): "
            f"{self.status}, tested_to={self.tested_to}"
        )


# Internal congruences with proofs behind them, and the four mod-32
# observations that only have numerical support.
INTERNAL_PROVED: tuple[InternalCongruence, ...] = (
    InternalCongruence(256, 171, 64, 43, 16),
    InternalCongruence(64, 43, 16, 11, 8),
    InternalCongruence(64, 59, 16, 15, 8),
)

INTERNAL_CONJECTURED: tuple[InternalCongruence, ...] = (
    InternalCongruence(256, 123, 64, 31, 32, conjectural=True),
    InternalCongruence(256, 171, 64, 43, 32, conjectural=True),
    InternalCongruence(256, 235, 64, 59, 32, conjectural=True),
    InternalCongruence(256, 251, 64, 63, 32, conjectural=True),
)


def _progression_mod(table: Series, start: int, step: int, m: int) -> tuple[int, ...]:
    """table[start], table[start + step], ... reduced mod m (which must
    divide the modulus of a residue table)."""
    return Series(table.ring, table.coeffs[start::step]).reduce_mod(m).coeffs


def check_triple(t: CongruenceTriple, table: Series) -> CongruenceTriple:
    """Test t against every index the table covers.

    `table` is a count table over ZZ or over Z/m (M must divide m).
    Returns a copy with tested_to set to the largest testable n and
    refuted_at set to the first failing n, if any.
    """
    if t.B >= table.precision:
        raise ValueError(
            f"table of {table.precision} terms cannot test ({t.A}, {t.B}, {t.M}) even at n=0"
        )
    picked = _progression_mod(table, t.B, t.A, t.M)
    bad = (n for n, c in enumerate(picked) if c)
    return replace(t, tested_to=len(picked) - 1, refuted_at=next(bad, None))


def check_internal(ic: InternalCongruence, table: Series) -> InternalCongruence:
    """Test an internal congruence for every N both progressions cover."""
    if ic.b >= table.precision or ic.d >= table.precision:
        raise ValueError(f"table of {table.precision} terms cannot test even N=0")
    left = _progression_mod(table, ic.b, ic.a, ic.M)
    right = _progression_mod(table, ic.d, ic.c, ic.M)
    bad = (n for n, (x, y) in enumerate(zip(left, right)) if x != y)
    return replace(ic, tested_to=min(len(left), len(right)) - 1, refuted_at=next(bad, None))


@dataclass(frozen=True)
class FamilySpec:
    """Member alpha of the infinite mod-16 progression family."""

    alpha: int

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    @property
    def A(self) -> int:
        return 1 << (5 + 2 * self.alpha)

    @property
    def B(self) -> int:
        # 4^(alpha+1) - 1 is a sum of powers of 4, hence divisible by 3
        return self.A - ((1 << (2 + 2 * self.alpha)) - 1) // 3

    def triple(self) -> CongruenceTriple:
        return CongruenceTriple(self.A, self.B, 16)


def family_progression(alpha: int) -> tuple[int, int]:
    """(A, B) of family member alpha: (32, 31), (128, 123), (512, 491), ..."""
    spec = FamilySpec(alpha)
    return spec.A, spec.B


@dataclass(frozen=True)
class FamilyCheck:
    alpha: int
    A: int
    B: int
    testable: bool
    result: CongruenceTriple | None

    def describe(self) -> str:
        head = f"alpha={self.alpha} ({self.A}n+{self.B}) mod 16"
        if not self.testable:
            return f"{head}: untestable on this table"
        return f"{head}: {self.result.status}, tested_to={self.result.tested_to}"

    def as_json(self) -> str:
        r = self.result
        return json.dumps(
            {
                "alpha": self.alpha, "A": self.A, "B": self.B,
                "testable": self.testable,
                "status": r.status if self.testable else None,
                "tested_to": r.tested_to if self.testable else None,
            }
        )


def verify_family(alpha_max: int, table: Series) -> list[FamilyCheck]:
    """check_triple each family member the table can reach."""
    if alpha_max < 0:
        raise ValueError("alpha_max must be nonnegative")
    out = []
    for alpha in range(alpha_max + 1):
        spec = FamilySpec(alpha)
        testable = spec.B < table.precision
        result = check_triple(spec.triple(), table) if testable else None
        out.append(FamilyCheck(alpha, spec.A, spec.B, testable, result))
    return out


def check_scan_args(max_a: int, moduli, min_support: int) -> list[int]:
    """The sorted distinct moduli of a scan, once every argument is valid;
    raises ValueError before any table is needed."""
    mods = sorted({int(m) for m in moduli})
    if not mods:
        raise ValueError("at least one modulus is required")
    if any(m < 2 for m in mods):
        raise ValueError("moduli must be at least 2")
    if min_support < MIN_SUPPORT_FLOOR:
        raise ValueError(f"min_support must be at least {MIN_SUPPORT_FLOOR}")
    if max_a < 1:
        raise ValueError("max_a must be positive")
    return mods


def scan(
    max_a: int,
    moduli,
    table: Series,
    min_support: int = MIN_SUPPORT_FLOOR,
) -> list[CongruenceTriple]:
    """Every (A, B, M) with A <= max_a holding throughout the table.

    Only progressions with at least min_support testable indices are
    reported. Results come in (M descending, A, B) order.
    """
    mods = check_scan_args(max_a, moduli, min_support)
    # the dtype must hold the modulus itself: NumPy rejects `uint8 % 256`
    modulus = lcm(*mods)
    base = np.array(table.reduce_mod(modulus).coeffs, dtype=np.min_scalar_type(modulus))
    n = len(base)
    # bit j of bits[i] is set when group[j] divides S(i), eight moduli a byte
    groups = []
    for g in range(0, len(mods), 8):
        group = mods[g : g + 8]
        bits = np.zeros(n, dtype=np.uint8)
        for j, m in enumerate(group):
            bits |= (base % m == 0).view(np.uint8) << j
        groups.append((group, bits))
    # one list per modulus, filled in (A, B) order and read in descending M
    found = {m: [] for m in mods}
    # past step (n - 1) // (min_support - 1) no column has min_support indices
    for a in range(1, min(max_a, (n - 1) // (min_support - 1)) + 1):
        # column b of the k-by-a grid holds indices b, b+a, ...; the
        # first rem columns have one more index in the tail
        k, rem = divmod(n, a)
        for group, bits in groups:
            grid = bits[: k * a].reshape(k, a)
            alive = np.bitwise_and.reduce(grid[:_SCAN_HEAD_ROWS], axis=0)
            alive[:rem] &= bits[k * a :]
            if k < min_support:
                # the step bound keeps k >= min_support - 1, so only the
                # first rem columns reach min_support indices
                alive[rem:] = 0
            live = np.flatnonzero(alive)
            if not live.size:
                continue
            if k > _SCAN_HEAD_ROWS:
                alive[live] &= np.bitwise_and.reduce(grid[_SCAN_HEAD_ROWS:, live], axis=0)
            for j, m in enumerate(group):
                found[m].extend(
                    CongruenceTriple(a, b, m, tested_to=k - 1 + (b < rem))
                    for b in np.flatnonzero(alive & (1 << j)).tolist()
                )
    return [t for m in reversed(mods) for t in found[m]]


def scan_to_json(results) -> str:
    """One JSON object per line, in the scan's deterministic order."""
    return "\n".join(t.as_json() for t in results)
