import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import qdissect
from qdissect import schur, series
from qdissect.eta import parse, expand_expression
from qdissect.series import Series, ZZ, mod_ring


# first values, frozen from the enumeration oracles
FIRST_21 = [1, 1, 1, 1, 1, 2, 3, 4, 4, 4, 5, 7, 10, 12, 13, 14, 16, 21, 27, 32, 35]


def test_s_series_prefix():
    t = schur.s_series(21)
    assert [t[n] for n in range(21)] == FIRST_21


def test_s_series_one_term():
    assert schur.s_series(1)[0] == 1


def test_s_series_monotone_prefix():
    t = schur.s_series(500)
    for n in range(499):
        assert t[n] <= t[n + 1]


def test_s_series_matches_eta_expansion():
    n = 400
    t = schur.s_series(n)
    series = expand_expression(parse("f2*f3/(f1*f6^2)"), n, ZZ)
    assert tuple(t[k] for k in range(n)) == series.coeffs


def test_part_count_oracle_values():
    assert schur.oracle_part_count(0) == 1
    assert schur.oracle_part_count(6) == 3  # 6; 5+1; 1^6
    assert [schur.oracle_part_count(n) for n in range(21)] == FIRST_21


def test_part_count_oracle_range():
    schur.oracle_part_count(80)
    with pytest.raises(ValueError):
        schur.oracle_part_count(81)
    with pytest.raises(ValueError):
        schur.oracle_part_count(-1)


def test_overpartition_oracle_values():
    assert [schur.oracle_schur_overpartitions(n) for n in range(21)] == FIRST_21


def test_overpartition_oracle_range():
    with pytest.raises(ValueError):
        schur.oracle_schur_overpartitions(41)
    with pytest.raises(ValueError):
        schur.oracle_schur_overpartitions(-1)


def test_oracle_mismatches_empty():
    table = schur.s_series(41)
    assert [
        n for n in range(41) if schur.oracle_schur_overpartitions(n) != table[n]
    ] == []


def test_tables_are_series():
    exact = schur.s_series(50)
    residues = schur.residue_table(50, 16)
    assert isinstance(exact, Series) and exact.ring == ZZ
    assert isinstance(residues, Series) and residues.ring == mod_ring(16)
    assert exact.reduce_mod(16) == residues
    assert list(exact.reduce_mod(16).coeffs[:8]) == [v % 16 for v in FIRST_21[:8]]


@pytest.mark.parametrize(
    "m", [2, 3, 9, 16, 48, 256, 2**61 - 1, 2**62 - 57, 10**12 + 39]
)
def test_residue_table_matches_exact_table(exact5k, m):
    # divisors of 256 sum in uint8 and never fold; the others fold their
    # int64 accumulator after every period-th term, period = floor((2^63 -
    # 1) / m) - 1: 3 for 2^61 - 1, 1 for 2^62 - 57; 3, 9 and 48 never reach it
    got = schur.residue_table(5000, m)
    assert got.ring == mod_ring(m)
    assert got.coeffs == tuple(exact5k[n] % m for n in range(5000))


@pytest.mark.parametrize("m", [2**62, 2**62 + 1, 2**64], ids=["2^62", "2^62+1", "2^64"])
def test_residue_table_refuses_moduli_from_2_62_before_allocating(m):
    # a table of 10^15 terms cannot be allocated, so a ValueError (not a
    # MemoryError) shows the refusal comes first
    with pytest.raises(ValueError, match=r"^residue tables support moduli below 2\^62$"):
        schur.residue_table(10**15, m)


def test_theta_table_allocates_before_deriving_theta(monkeypatch):
    # a table too large to allocate fails before theta's term list is built
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    calls = []
    monkeypatch.setattr(schur.np, "zeros", out_of_memory)
    monkeypatch.setattr(schur, "isqrt", lambda n: calls.append(n) or 0)
    with pytest.raises(MemoryError):
        schur._theta_table(10**15, 16)
    assert calls == []


@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_residue_table_at_each_period_boundary(period):
    # m is the largest modulus with this period (2^62 - 1 for period 1);
    # m + 1 has period - 1, refused when that is 0. A period one too long
    # lets two same-sign theta terms overflow the accumulator at period 1
    want = schur._euler_exact(3000)
    m = ((1 << 63) - 1) // (period + 1)
    for modulus in (m, m + 1):
        if modulus >= 1 << 62:
            with pytest.raises(ValueError):
                schur.residue_table(3000, modulus)
        else:
            assert schur.residue_table(3000, modulus).coeffs == tuple(v % modulus for v in want)


def test_residue_table_slices_cached_byte_table(monkeypatch):
    monkeypatch.setattr(schur, "_tables", {})
    big = schur.residue_table(3000, 256)
    small = schur.residue_table(1000, 16)
    exact = schur.s_series(100)
    byte = schur._tables[256]
    assert (len(byte), byte.dtype) == (3000, np.uint8)
    assert schur._tables[None].dtype == object
    assert not byte.flags.writeable and not schur._tables[None].flags.writeable
    fresh = schur._euler_exact(1000)
    assert exact.coeffs == tuple(fresh[:100])
    assert big.coeffs[:1000] == tuple(v % 256 for v in fresh)
    assert small.coeffs == tuple(v % 16 for v in fresh)


CAP = schur._BLOCK_CAP


@pytest.mark.parametrize("n", [1, 2, 3, 8_000, CAP - 1, CAP, CAP + 1, 2 * CAP + 1])
def test_theta_table_matches_euler_reference(n):
    # the precisions around the block cap put the last block at each edge
    assert schur._theta_table(n, None).tolist() == schur._euler_exact(n)


def test_euler_exact_matches_part_count_oracle():
    # the reference against brute-force enumeration of its definition
    assert schur._euler_exact(81) == [schur.oracle_part_count(k) for k in range(81)]


def test_euler_exact_prefixes():
    # every length cuts the last block of some part j at n - j
    full = schur._euler_exact(300)
    for n in range(1, 300):
        assert schur._euler_exact(n) == full[:n]


@pytest.fixture(scope="module")
def euler6k():
    return schur._euler_exact(6_000)


@pytest.mark.parametrize("m", [None, 256, 9, 2**61 - 1])
@pytest.mark.parametrize("k", [1, 2, 3, CAP - 1, CAP, CAP + 1, 5_000])
def test_theta_table_resumes_after_known_prefix(euler6k, m, k):
    # a build that resumes after k reference terms matches the reference
    # past the block edges around the cap of exact and large-modulus blocks
    want = euler6k if m is None else [v % m for v in euler6k]
    assert schur._theta_table(6_000, m, tuple(want[:k])).tolist() == want


@pytest.fixture(scope="module")
def exact40k():
    return schur.s_series(40_000)


@pytest.mark.parametrize("m", [3, 16, 256, 2**61 - 1])
def test_residue_table_matches_exact_table_at_40k(exact40k, m):
    # 2^61 - 1 (about 230 theta terms, period 3) folds its int64
    # accumulator and 3 never reaches its period; 16 and 256 sum in uint8,
    # whose wraparound is the reduction
    got = schur.residue_table(40_000, m)
    assert got == exact40k.reduce_mod(m)


@pytest.mark.parametrize(
    "n, m", [(20_000, None), (70_000, 256), (70_000, 9), (40_000, 2**61 - 1)]
)
def test_tables_match_eta_quotient_at_depth(n, m):
    # the eta quotient's pentagonal expansions and Newton inverse never call
    # the table builder. Past the doubling blocks: eight full exact blocks
    # at the 2^11 cap and a cut one; from 16,384 on, three full 2^14 blocks
    # and a cut one, summed in uint8 (256) and in int64 (9); and the folded
    # int64 accumulator of 2^61 - 1
    ring = ZZ if m is None else mod_ring(m)
    got = schur.s_series(n) if m is None else schur.residue_table(n, m)
    assert got == expand_expression(parse("f2*f3/(f1*f6^2)"), n, ring)


FFT_CAP = schur._FFT_BLOCK_CAP


def _block_sizes(monkeypatch):
    sizes = []
    multiply = schur._multiply
    monkeypatch.setattr(schur, "_multiply", lambda a, b, n, m: sizes.append(n) or multiply(a, b, n, m))
    return sizes


@pytest.mark.parametrize("m, cap", [(None, CAP), (2**61 - 1, CAP), (9, FFT_CAP), (256, FFT_CAP)])
def test_block_cap_per_ring(monkeypatch, m, cap):
    # blocks whose product fits the float FFT double up to the larger cap;
    # exact and large-modulus blocks stop at the smaller one. Past 2 * cap
    # terms an uncapped block would double once more
    sizes = _block_sizes(monkeypatch)
    schur._theta_table(4 * cap + 1, m)
    assert max(sizes) == cap and sizes.count(cap) == 3 and sum(sizes) == 4 * cap


@pytest.mark.parametrize(
    "m, acc", [(2, np.uint8), (16, np.uint8), (256, np.uint8), (9, np.int64),
               (255, np.int64), (257, np.int64), (2**61 - 1, np.int64)]
)
def test_theta_table_accumulator_per_modulus(monkeypatch, m, acc):
    # uint8 wraparound is reduction mod 256, so only the divisors of 256
    # sum theta's terms in bytes; a signed byte would wrap the same way
    # but hand the product negative operands
    seen = []
    multiply = schur._multiply
    monkeypatch.setattr(schur, "_multiply", lambda a, b, n, m: seen.append(b.dtype) or multiply(a, b, n, m))
    schur._theta_table(3_000, m)
    assert seen and set(seen) == {np.dtype(acc)}


@pytest.mark.parametrize("m", [2, 16, 128])
def test_byte_accumulator_matches_exact_references(euler6k, exact40k, m):
    # the Euler prefix sums cover the doubling blocks; at 40,000 terms
    # (blocks of 2^14 from 16,384 on) the exact builder, whose Python-int
    # accumulator never wraps, is the reference: the Euler sums would take
    # about 18 s on 2 cores
    assert schur._theta_table(6_000, m).tolist() == [v % m for v in euler6k]
    assert schur._theta_table(40_000, m).tolist() == [v % m for v in exact40k.coeffs]


@pytest.mark.parametrize("m", [256, 9])
@pytest.mark.parametrize("n", [FFT_CAP, FFT_CAP + 1, 2 * FFT_CAP + 1])
def test_theta_table_at_the_fft_block_cap(exact40k, m, n):
    # these precisions put the last block at each edge of the FFT cap
    want = [v % m for v in exact40k.coeffs[:n]]
    assert schur._theta_table(n, m).tolist() == want


@pytest.mark.parametrize("m", [256, 9])
@pytest.mark.parametrize("k", [FFT_CAP - 1, FFT_CAP, FFT_CAP + 1])
def test_theta_table_resumes_around_the_fft_block_cap(exact40k, m, k):
    want = [v % m for v in exact40k.coeffs]
    assert schur._theta_table(40_000, m, tuple(want[:k])).tolist() == want


def test_residue_table_byte_path_vs_int64_path():
    # 16 divides 256 so it takes the byte route; 48 forces the general one
    byte16 = schur.residue_table(600, 16)
    wide48 = schur.residue_table(600, 48)
    assert byte16 == wide48.reduce_mod(16)


def test_residue_table_exactness():
    t = schur.s_series(300)
    r = schur.residue_table(300, 8)
    assert r.coeffs == tuple(t[n] % 8 for n in range(300))


def test_residue_table_validation():
    with pytest.raises(ValueError):
        schur.residue_table(100, 1)
    with pytest.raises(ValueError):
        schur.residue_table(0, 8)


def test_load_table_rejects_truncated_cache(tmp_path):
    path = str(tmp_path / "table.bin")
    schur.save_table(path, schur.s_series(120))
    with open(path, "rb") as fh:
        data = fh.read()
    for cut in (len(schur.CACHE_MAGIC) + 3, 50, len(data) - 1):
        with open(path, "wb") as fh:
            fh.write(data[:cut])
        with pytest.raises(ValueError, match="truncated table cache"):
            schur.load_table(path)


def test_load_table_rejects_empty_cache(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(schur.CACHE_MAGIC + bytes(schur.CACHE_HEADER.size))
    with pytest.raises(ValueError, match="empty table cache"):
        schur.load_table(str(path))
    # zero-width values: a huge count that fits the size check, checksum intact
    header = schur.CACHE_HEADER.pack(2**64 - 1, 0)
    path.write_bytes(schur.CACHE_MAGIC + header + hashlib.sha256(header).digest())
    with pytest.raises(ValueError, match="empty table cache"):
        schur.load_table(str(path))


def test_load_table_rejects_flipped_byte(tmp_path):
    path = str(tmp_path / "table.bin")
    schur.save_table(path, schur.s_series(120))
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(schur.CACHE_MAGIC) + schur.CACHE_HEADER.size] ^= 1  # low byte of S(0)
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(ValueError, match="table cache checksum mismatch"):
        schur.load_table(path)


def test_load_table_refuses_old_format(tmp_path):
    path = tmp_path / "old.bin"
    for magic in (b"SCHS1", b"SCHS2"):
        path.write_bytes(magic + (1).to_bytes(8, "little") + bytes([1, 0, 0, 0, 1, 0]))
        want = f"old table cache format {magic.decode()}; delete the file"
        with pytest.raises(ValueError, match=want):
            schur.load_table(str(path))


@pytest.fixture(scope="module")
def saved_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "table.bin"
    table = schur.s_series(60)
    schur.save_table(str(path), table)
    return path.read_bytes(), table, str(path.with_name("variant.bin"))


def _cache_variants(data: bytes):
    """Truncations, one flipped byte, trailing bytes, random bytes after the
    magic and random bytes, of the saved cache `data`."""
    n = len(data)
    flip = st.tuples(st.integers(0, n - 1), st.integers(1, 255))
    return st.one_of(
        st.integers(0, n - 1).map(lambda k: data[:k]),
        flip.map(lambda p: data[: p[0]] + bytes([data[p[0]] ^ p[1]]) + data[p[0] + 1 :]),
        st.binary(min_size=1, max_size=64).map(lambda tail: data + tail),
        st.binary(max_size=2 * n).map(lambda body: schur.CACHE_MAGIC + body),
        st.binary(max_size=2 * n),
    )


@seed(20232)
@settings(max_examples=500, deadline=None, database=None)
@given(st.data())
def test_load_table_fuzz_refuses_or_returns_the_saved_table(saved_cache, data):
    good, table, path = saved_cache
    with open(path, "wb") as fh:
        fh.write(data.draw(_cache_variants(good)))
    try:
        got = schur.load_table(path)
    except ValueError:
        return
    assert got == table


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "table.bin")
    t = schur.s_series(120)
    schur.save_table(path, t)
    back = schur.load_table(path)
    assert back.precision == 120
    assert back == t


def test_cache_round_trip_past_the_int_str_limit(tmp_path):
    # values are never converted through str: 2^16000 - 1 has 4,817 digits,
    # past the default int/str limit and the CI run's 640; its bit length is
    # a multiple of 8, so the width needs its extra byte for the sign bit
    path = str(tmp_path / "big.bin")
    big = Series(ZZ, (2**16_000 - 1, -(10**700), 0, -1, 255, -256))
    schur.save_table(path, big)
    assert schur.load_table(path) == big


def test_load_table_reads_a_prefix(tmp_path):
    path = tmp_path / "table.bin"
    t = schur.s_series(120)
    schur.save_table(str(path), t)
    for k in (1, 7, 119, 120):
        assert schur.load_table(str(path), k) == t.truncate(k)
    assert schur.load_table(str(path), 500) == t
    # the checksum still covers the values past the prefix
    data = bytearray(path.read_bytes())
    data[-schur._DIGEST_SIZE - 1] ^= 1
    path.write_bytes(data)
    with pytest.raises(ValueError, match="checksum mismatch"):
        schur.load_table(str(path), 7)


def test_failed_save_keeps_previous_cache(tmp_path):
    path = str(tmp_path / "table.bin")
    schur.save_table(path, schur.s_series(120))
    with open(path, "rb") as fh:
        before = fh.read()
    # abs("x") raises while the payload is built, before any file is opened
    with pytest.raises(TypeError):
        schur.save_table(path, Series(ZZ, (1, 2, "x")))
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["table.bin"]


def test_s_series_uses_cache_prefix(tmp_path):
    # a longer cache serves its prefix and is left as it is
    path = tmp_path / "table.bin"
    fake = Series(ZZ, tuple(range(100, 200)))
    schur.save_table(str(path), fake)
    before = path.read_bytes()
    assert schur.s_series(60, cache_path=str(path)) == fake.truncate(60)
    assert path.read_bytes() == before


def test_s_series_reads_cache_file_before_memo(tmp_path):
    # the file wins even when the in-memory table already holds the terms
    schur.s_series(80)
    assert len(schur._tables[None]) >= 80
    path = str(tmp_path / "fake.bin")
    fake = Series(ZZ, tuple(range(100, 180)))
    schur.save_table(path, fake)
    assert schur.s_series(80, path) == fake


def test_s_series_writes_cache_when_missing(tmp_path):
    path = str(tmp_path / "fresh.bin")
    schur.s_series(40, cache_path=path)
    assert schur.load_table(path).precision >= 40


def test_public_names_resolve():
    assert all(hasattr(qdissect, name) for name in qdissect.__all__)


@pytest.mark.parametrize("m", [16, 9, 2**61 - 1], ids=["16", "9", "2^61-1"])
def test_residue_table_holds_python_ints(m):
    # numpy scalars compare equal to ints, but json.dumps refuses them
    assert all(type(c) is int for c in schur.residue_table(500, m).coeffs)


def test_wide_modulus_blocks_reach_the_split_as_int64(monkeypatch):
    # the mod 2^61 - 1 table's blocks are split by shifts as int64 arrays,
    # never through Python ints
    kinds = []
    limbs = series._limbs
    monkeypatch.setattr(series, "_limbs", lambda x, *a: kinds.append(getattr(x, "dtype", None)) or limbs(x, *a))
    m = 2**61 - 1
    assert schur._theta_table(3000, m).tolist() == [v % m for v in schur._euler_exact(3000)]
    assert kinds and set(kinds) == {np.dtype(np.int64)}
