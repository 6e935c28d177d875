"""Exact and residue tables of the overpartition counts S(n).

S(n) counts partitions of n into parts congruent to 0, 1 or 5 mod 6
(equivalently, the Schur-type overpartitions counted by the gap-matrix
oracle below). By Jacobi's triple product (q -> q^3, z = -q^-2),
prod_{j = 0,1,5 mod 6} (1 - q^j) = sum_k (-1)^k q^(3k^2-2k) =: theta, so
one builder serves every table by solving theta * S = 1, over ZZ or
Z/m. This module keeps every count-table decision: one read-only table
per root ring (exact, and mod 256 for every divisor of 256), each
extended from where it ends when a request outgrows it, so no term is
built twice. Every table is a `Series`; the disk cache is used only
when a caller passes its path.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from functools import lru_cache
from itertools import accumulate
from math import isqrt
from operator import add

import numpy as np

from .series import Series, ZZ, mod_ring, _fft_fits, _multiply

_PART_RESIDUES = (0, 1, 5)
# `_theta_table` doubles its blocks up to the second cap when a block's
# product fits the float FFT, where longer blocks amortise the per-block
# slice-adds, else up to the first: on the exact path a product costs more
# than linear time, and one 2^14 cap for every table measured slower on the
# exact 40,000-term table (1.34 -> 1.77 s) and on 300,000 terms mod
# 2^61 - 1 (4.50 -> 4.89 s), medians of 5 runs (BENCH_9.json)
_BLOCK_CAP = 1 << 11
_FFT_BLOCK_CAP = 1 << 14

CACHE_MAGIC = b"SCHS2"
_DIGEST_SIZE = 32  # SHA-256 of the payload, after it


def _is_part(j: int) -> bool:
    return j % 6 in _PART_RESIDUES


def _euler_exact(n: int) -> list[int]:
    # reference only: the Euler prefix sum, independent of the triple product
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


def _theta_table(n: int, m: int | None, known=(1,)) -> np.ndarray:
    """S(0..n-1), mod m unless m is None, from theta * S = 1 in blocks.

    The build resumes after `known`, a prefix of the same table. Given S
    on [0, h), the block [h, h+b) with b <= h is -S[:b] * r truncated to
    b terms, where r[i] sums the terms theta_e S[h+i-e] with e > i, which
    reach below h; both factors go to the multiply as arrays. Residues are
    stored in uint8 when m <= 256, else int64 (never uint64, which mixed
    with int64 gives float64), and accumulate in int64: |r[i]| <
    len(terms) * m when that is below 2^63, else r is folded into [0, m)
    after each theta term, so |r +- v| < 2m < 2^63. Exact tables
    accumulate in Python ints.
    """
    terms = [  # (e, ±) for theta's terms below q^n after theta_0, increasing
        (e, np.subtract if k % 2 else np.add)
        for k in range(1, isqrt(n) + 1)
        for e in (3 * k * k - 2 * k, 3 * k * k + 2 * k)
        if e < n
    ]
    fft = m is not None and _fft_fits(_FFT_BLOCK_CAP, m - 1, m - 1)
    cap = _FFT_BLOCK_CAP if fft else _BLOCK_CAP
    acc = object if m is None else np.int64
    fold = m is not None and len(terms) * m >= 1 << 63
    store = object if m is None else np.uint8 if m <= 256 else np.int64
    v = np.zeros(n, dtype=store)
    h = len(known)
    v[:h] = known
    while h < n:
        b = min(h, cap, n - h)
        r = np.zeros(b, dtype=acc)
        for e, op in terms:
            if e >= h + b:
                break
            lo, hi = max(0, e - h), min(b, e)
            op(r[lo:hi], v[h + lo - e : h + hi - e], out=r[lo:hi])
            if fold:
                np.remainder(r[lo:hi], m, out=r[lo:hi])
        np.negative(r, out=r)
        if m is not None:
            np.remainder(r, m, out=r)
        v[h : h + b] = _multiply(v[:b], r, b, m)
        h += b
    return v


# S(n) per root ring, exact (None) and mod 256, read-only; a request past
# the end extends the table from where it ends
_tables: dict[int | None, np.ndarray] = {}


def _root_table(n: int, m: int | None) -> np.ndarray:
    v = _tables.get(m)
    if v is None or len(v) < n:
        v = _tables[m] = _theta_table(n, m, (1,) if v is None else v)
        v.setflags(write=False)
    return v[:n]


def s_series(precision: int, cache_path: str | None = None) -> Series:
    """Exact S(0..precision-1). Given a cache file, reads it first and
    rebuilds and rewrites it only when it is shorter than `precision`."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    if cache_path and os.path.exists(cache_path):
        cached = load_table(cache_path)
        if cached.precision >= precision:
            return cached.truncate(precision)
    table = Series(ZZ, tuple(_root_table(precision, None).tolist()))
    if cache_path:
        save_table(cache_path, table)
    return table


def residue_table(precision: int, m: int) -> Series:
    """S(n) mod m for n < precision, by the same builder over Z/m; a
    divisor of 256 is served from the mod-256 table."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    if m < 2:
        raise ValueError("modulus must be at least 2")
    if 256 % m == 0:
        vals = _root_table(precision, 256)
        if m < 256:  # np.uint8 cannot hold 256
            vals = vals % np.uint8(m)
    elif m >= 1 << 62:
        raise ValueError("residue tables support moduli below 2^62")
    else:
        vals = _theta_table(precision, m)
    return Series(mod_ring(m), tuple(vals.tolist()))


def save_table(path: str, table: Series) -> None:
    """Little-endian cache: magic, then a payload of u64 count and per value
    u32 length + magnitude + sign, then the payload's SHA-256. Written to a
    temp file renamed over `path`: a failed write keeps the old file, and
    its OSError names `path`, not the temp file."""
    parts = [struct.pack("<Q", table.precision)]
    for v in table.coeffs:
        mag = abs(v)
        raw = mag.to_bytes((mag.bit_length() + 7) // 8 or 1, "little")
        parts += (struct.pack("<I", len(raw)), raw, b"\x01" if v < 0 else b"\x00")
    payload = b"".join(parts)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(CACHE_MAGIC)
            fh.write(payload)
            fh.write(hashlib.sha256(payload).digest())
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def load_table(path: str) -> Series:
    with open(path, "rb") as fh:
        data = fh.read()
    if data.startswith(b"SCHS1"):
        raise ValueError(f"{path}: old table cache format SCHS1; delete the file to rebuild it")
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
    if not values:
        raise ValueError(f"{path}: empty table cache")
    digest = data[off:]
    if len(digest) < _DIGEST_SIZE:
        raise ValueError(f"{path}: truncated table cache")
    if len(digest) > _DIGEST_SIZE:
        raise ValueError(f"{path}: trailing bytes in table cache")
    if hashlib.sha256(data[len(CACHE_MAGIC) : off]).digest() != digest:
        raise ValueError(f"{path}: table cache checksum mismatch")
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
