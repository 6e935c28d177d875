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
from math import isqrt

import numpy as np

from .series import Series, ZZ, mod_ring, _fft_fits, _multiply

_PART_RESIDUES = (0, 1, 5)
# `_theta_table` doubles its blocks up to the second cap when a block's
# product takes one limb per coefficient, where longer blocks amortise the
# per-block slice-adds, else up to the first: split into more limbs, a long
# product of wide coefficients is cut into row blocks, so its cost grows
# faster than linearly. One 2^13 cap for every table measured slower on
# the exact 40,000-term table (0.64 -> 0.84 s) and on 300,000 terms mod 256
# (0.16 -> 0.19 s), and 2.33 -> 2.07 s, within the spread of runs, on
# 300,000 terms mod 2^61 - 1; medians of 5 runs on 2 cores
_BLOCK_CAP = 1 << 11
_FFT_BLOCK_CAP = 1 << 14

CACHE_MAGIC = b"SCHS3"
CACHE_HEADER = struct.Struct("<QI")  # value count, bytes per value
_DIGEST_SIZE = 32  # SHA-256 of the payload, after it


def _is_part(j: int) -> bool:
    return j % 6 in _PART_RESIDUES


def _euler_exact(n: int) -> list[int]:
    # reference only, for the tests: Euler's prefix sum v[s] += v[s - j]
    # over each part j, independent of the triple product. Each block of j
    # terms reads the finished block before it; the last one stops at n
    v = np.zeros(n, dtype=object)
    v[0] = 1
    for j in range(1, n):
        if _is_part(j):
            for s in range(j, n, j):
                v[s : s + j] += v[s - j : min(s, n - j)]
    return v.tolist()


def _theta_table(n: int, m: int | None, known=(1,)) -> np.ndarray:
    """S(0..n-1), mod m unless m is None, from theta * S = 1 in blocks.

    The build resumes after `known`, a prefix of the same table. Given S
    on [0, h), the block [h, h+b) with b <= h is S[:b] * r truncated to b
    terms, where r[i] = -sum theta_e S[h+i-e] over the terms e > i, which
    reach below h. Residues are stored in uint8 when m <= 256, else int64
    (never uint64, which mixed with int64 gives float64). When m divides
    256, r sums them in uint8, whose wraparound is reduction mod 256, so it
    is never folded: its period, over 2^54 terms, is never reached, and the
    block product reduces r mod m. Otherwise r sums them in int64 and is
    folded into [0, m) after every period-th theta term and once at the
    end, so |r| < (period + 1) * m <= 2^63 - 1. A modulus with no period,
    m >= 2^62, is refused before any allocation. Exact tables sum Python
    ints; their period, n, is never reached.
    """
    period = n if m is None else ((1 << 63) - 1) // m - 1
    if period < 1:
        raise ValueError("residue tables support moduli below 2^62")
    # allocate first: a size too large fails here, before theta's terms
    store = object if m is None else np.uint8 if m <= 256 else np.int64
    v = np.zeros(n, dtype=store)
    terms = [  # (e, ∓) for -theta's terms below q^n after theta_0, increasing
        (e, np.add if k % 2 else np.subtract)
        for k in range(1, isqrt(n) + 1)
        for e in (3 * k * k - 2 * k, 3 * k * k + 2 * k)
        if e < n
    ]
    fft = m is not None and _fft_fits(_FFT_BLOCK_CAP, m - 1, m - 1)
    cap = _FFT_BLOCK_CAP if fft else _BLOCK_CAP
    acc = object if m is None else np.uint8 if 256 % m == 0 else np.int64
    h = len(known)
    v[:h] = known
    while h < n:
        b = min(h, cap, n - h)
        r = np.zeros(b, dtype=acc)
        for j, (e, op) in enumerate(terms, 1):
            if e >= h + b:
                break
            lo, hi = max(0, e - h), min(b, e)
            op(r[lo:hi], v[h + lo - e : h + hi - e], out=r[lo:hi])
            if j % period == 0:
                np.remainder(r, m, out=r)
        if acc is np.int64:
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
    """Exact S(0..precision-1). Given a cache file, reads its prefix first
    and rebuilds and rewrites it only when it is shorter than `precision`."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    if cache_path and os.path.exists(cache_path):
        cached = load_table(cache_path, precision)
        if cached.precision == precision:
            return cached
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
    else:
        vals = _theta_table(precision, m)
    # a uint8 table reads as Python ints from its bytes, without a list copy
    return Series(mod_ring(m), tuple(vals.tobytes() if vals.dtype == np.uint8 else vals.tolist()))


def save_table(path: str, table: Series) -> None:
    """Little-endian cache: magic, then a payload of u64 count, u32 width
    and each value as `width` bytes of two's complement, then the payload's
    SHA-256. Written to a temp file renamed over `path`: a failed write
    keeps the old file, and its OSError names `path`, not the temp file."""
    coeffs = table.coeffs
    width = max(map(int.bit_length, coeffs)) // 8 + 1  # room for the sign bit
    payload = CACHE_HEADER.pack(len(coeffs), width) + b"".join(
        int.to_bytes(v, width, "little", signed=True) for v in coeffs
    )
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


def load_table(path: str, precision: int | None = None) -> Series:
    """The cached table, or only its first `precision` values when it holds
    more; the checksum covers the whole payload either way. The file's size
    must match its header exactly, so a bad count allocates nothing."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[: len(CACHE_MAGIC)]
    if magic in (b"SCHS1", b"SCHS2"):
        raise ValueError(
            f"{path}: old table cache format {magic.decode()}; delete the file to rebuild it"
        )
    if magic != CACHE_MAGIC:
        raise ValueError(f"{path}: not a table cache (bad magic)")
    start = len(CACHE_MAGIC) + CACHE_HEADER.size
    if len(data) < start:
        raise ValueError(f"{path}: truncated table cache")
    count, width = CACHE_HEADER.unpack_from(data, len(CACHE_MAGIC))
    if not count or not width:  # zero-width values would pass any count
        raise ValueError(f"{path}: empty table cache")
    end = start + count * width
    if len(data) < end + _DIGEST_SIZE:
        raise ValueError(f"{path}: truncated table cache")
    if len(data) > end + _DIGEST_SIZE:
        raise ValueError(f"{path}: trailing bytes in table cache")
    view = memoryview(data)
    if hashlib.sha256(view[len(CACHE_MAGIC) : end]).digest() != data[end:]:
        raise ValueError(f"{path}: table cache checksum mismatch")
    stop = end if precision is None else min(end, start + precision * width)
    return Series(ZZ, tuple(
        int.from_bytes(view[i : i + width], "little", signed=True)
        for i in range(start, stop, width)
    ))


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


# the class of a smallest part w by w mod 6; residues 4 and 5 admit none
_SMALLEST_PART_CLASS = ("3", "1bar", "2bar", "3bar", None, None)


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
        cls = _SMALLEST_PART_CLASS[w % 6]
        if cls:
            total += extend(n - w, w, cls)
    return total
