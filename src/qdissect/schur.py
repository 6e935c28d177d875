"""Exact and residue tables of the overpartition counts S(n).

S(n) counts partitions of n into parts congruent to 0, 1 or 5 mod 6
(equivalently, the Schur-type overpartitions counted by the gap-matrix
oracle below). The primary computation is the Euler product prefix-sum
update, run once per admissible part size; slices and itertools keep the
inner loops at C speed. The same update in fixed-width numpy integers
produces residue tables for congruence work at large lengths; tables
for divisors of 256 are slices of one cached mod-256 table. Every table
is a `Series`: exact tables over ZZ, residue tables over Z/m.
"""

from __future__ import annotations

import os
import struct
import tempfile
from functools import lru_cache
from itertools import accumulate
from math import isqrt
from operator import add

import numpy as np

from .series import Series, ZZ, mod_ring

_PART_RESIDUES = (0, 1, 5)

CACHE_MAGIC = b"SCHS1"
CACHE_ENV = "QDISSECT_CACHE"


def _is_part(j: int) -> bool:
    return j % 6 in _PART_RESIDUES


def _euler_exact(n: int) -> list[int]:
    v = [0] * n
    v[0] = 1
    for j in range(1, n):
        if not _is_part(j):
            continue
        if 2 * j >= n:
            v[j:] = list(map(add, v[j:], v[: n - j]))
        elif j * j >= n:
            for s in range(j, n, j):
                e = min(s + j, n)
                v[s:e] = list(map(add, v[s:e], v[s - j : e - j]))
        else:
            for r in range(j):
                v[r::j] = accumulate(v[r::j])
    return v


def s_series(precision: int, cache_path: str | None = None) -> Series:
    """Exact S(0..precision-1); reads/writes the cache file when given one."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    if cache_path is None:
        cache_path = os.environ.get(CACHE_ENV) or None
    if cache_path and os.path.exists(cache_path):
        cached = load_table(cache_path)
        if cached.precision >= precision:
            return cached.truncate(precision)
    table = Series(ZZ, tuple(_euler_exact(precision)))
    if cache_path:
        save_table(cache_path, table)
    return table


def _euler_residues(precision: int, m: int) -> np.ndarray:
    """S(n) mod m by the Euler prefix-sum update in fixed-width integers.

    For m == 256 the update runs in uint8, whose wraparound is exact
    arithmetic mod 256. Any other modulus runs in uint64 and reduces
    after every step: `%= m` after a strided cumsum, and a conditional
    subtract after a block add, whose two terms are both below m.
    """
    wrap = m == 256
    dtype = np.uint8 if wrap else np.uint64
    mm = np.uint64(m)
    v = np.zeros(precision, dtype=dtype)
    v[0] = 1
    split = isqrt(precision)
    for j in range(1, precision):
        if not _is_part(j):
            continue
        # a strided column holds at most precision // j + 1 terms below m,
        # so its running sum must fit in 64 bits
        if j <= split and (wrap or (precision // j + 1) * (m - 1) < 1 << 64):
            for r in range(j):
                w = v[r::j]
                np.cumsum(w, dtype=dtype, out=w)
                if not wrap:
                    w %= mm
        else:
            for s in range(j, precision, j):
                e = min(s + j, precision)
                w = v[s:e]
                np.add(w, v[s - j : e - j], out=w)
                if not wrap:
                    np.minimum(w, w - mm, out=w)
    return v


# S(n) mod 256, grown on demand and never written in place; every request
# for a divisor of 256 is served by slicing it
_byte_cache = np.zeros(0, dtype=np.uint8)


def residue_table(precision: int, m: int) -> Series:
    """S(n) mod m for n < precision, without big-integer arithmetic."""
    global _byte_cache
    if precision < 1:
        raise ValueError("precision must be at least 1")
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if 256 % m == 0:
        if len(_byte_cache) < precision:
            _byte_cache = _euler_residues(precision, 256)
            _byte_cache.setflags(write=False)
        vals = _byte_cache[:precision]
        if m < 256:  # np.uint8 cannot hold 256
            vals = vals % np.uint8(m)
    elif m >= 1 << 62:
        raise ValueError("residue tables support moduli below 2^62")
    else:
        vals = _euler_residues(precision, m)
    return Series(mod_ring(m), tuple(vals.tolist()))


def save_table(path: str, table: Series) -> None:
    """Little-endian cache: magic, u64 count, then u32 length + magnitude + sign.
    Written to a temp file renamed over `path`: a failed write keeps the old file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(struct.pack("<Q", table.precision))
            for v in table.coeffs:
                mag = abs(v)
                raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "little")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(b"\x01" if v < 0 else b"\x00")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path: str) -> Series:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise ValueError(f"{path}: not a table cache (bad magic)")
    off = len(CACHE_MAGIC)
    values = []
    try:
        (count,) = struct.unpack_from("<Q", data, off)
        off += 8
        for _ in range(count):
            (n,) = struct.unpack_from("<I", data, off)
            off += 4
            mag = int.from_bytes(data[off : off + n], "little")
            off += n
            sign = data[off]
            off += 1
            values.append(-mag if sign else mag)
    except (struct.error, IndexError):
        raise ValueError(f"{path}: truncated table cache") from None
    if off != len(data):
        raise ValueError(f"{path}: trailing bytes in table cache")
    if not values:
        raise ValueError(f"{path}: empty table cache")
    return Series(ZZ, tuple(values))


def oracle_part_count(n: int) -> int:
    """Brute-force count of partitions of n into parts == 0, 1, 5 mod 6."""
    if not 0 <= n <= 80:
        raise ValueError("part-count oracle is limited to 0 <= n <= 80")
    parts = [j for j in range(1, n + 1) if _is_part(j)]

    @lru_cache(maxsize=None)
    def ways(remaining: int, idx: int) -> int:
        if remaining == 0:
            return 1
        if idx == len(parts) or parts[idx] > remaining:
            return 0
        return ways(remaining - parts[idx], idx) + ways(remaining, idx + 1)

    return ways(n, 0)


# Gap matrix for the overpartition oracle. Row = class of the larger part,
# column = class of the smaller; parts not divisible by 3 are always
# overlined, parts divisible by 3 come overlined ("3bar") or plain ("3").
DIFFERENCE_MATRIX: dict[tuple[str, str], int] = {
    ("1bar", "1bar"): 3, ("1bar", "2bar"): 2, ("1bar", "3bar"): 4, ("1bar", "3"): 1,
    ("2bar", "1bar"): 4, ("2bar", "2bar"): 3, ("2bar", "3bar"): 5, ("2bar", "3"): 2,
    ("3bar", "1bar"): 5, ("3bar", "2bar"): 4, ("3bar", "3bar"): 6, ("3bar", "3"): 3,
    ("3", "1bar"): 2, ("3", "2bar"): 1, ("3", "3bar"): 3, ("3", "3"): 0,
}

_CLASSES = ("1bar", "2bar", "3bar", "3")


def _smallest_part_classes(w: int):
    if w % 3 == 1:
        if w % 6 == 1:
            yield "1bar"
    elif w % 3 == 2:
        if w % 6 == 2:
            yield "2bar"
    else:
        if w % 6 == 3:
            yield "3bar"
        if w % 6 == 0:
            yield "3"


def oracle_schur_overpartitions(n: int) -> int:
    """Count the gap-condition overpartitions of n directly.

    Smallest part: overlined with residue 1, 2 or 3 mod 6, or plain with
    residue 0 mod 6. Going upward, each new part exceeds the previous one
    by at least the matrix entry for the pair of classes, with the excess
    a multiple of 6. Plain parts must be divisible by 3.
    """
    if not 0 <= n <= 40:
        raise ValueError("overpartition oracle is limited to 0 <= n <= 40")
    if n == 0:
        return 1

    @lru_cache(maxsize=None)
    def extend(remaining: int, prev: int, prev_class: str) -> int:
        total = 1 if remaining == 0 else 0
        if remaining < prev:
            return total
        for u in _CLASSES:
            first = prev + DIFFERENCE_MATRIX[(u, prev_class)]
            for part in range(first, remaining + 1, 6):
                total += extend(remaining - part, part, u)
        return total

    total = 0
    for w in range(1, n + 1):
        for cls in _smallest_part_classes(w):
            total += extend(n - w, w, cls)
    return total


def oracle_mismatches(limit: int) -> list[int]:
    """n <= limit where the combinatorial oracle disagrees with s_series."""
    table = s_series(limit + 1)
    return [
        n for n in range(limit + 1) if oracle_schur_overpartitions(n) != table[n]
    ]
