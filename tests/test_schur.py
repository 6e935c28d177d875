import os

import numpy as np
import pytest

import qdissect
from qdissect import cli, schur
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
    assert schur.oracle_mismatches(40) == []


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
    # the builder's int64 accumulator needs no fold while len(terms) * m
    # < 2^63; the large moduli cross that bound and fold after each term
    got = schur.residue_table(5000, m)
    assert got.ring == mod_ring(m)
    assert got.coeffs == tuple(exact5k[n] % m for n in range(5000))


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
    # 2^61 - 1 (about 230 theta terms) folds its accumulator, the others
    # never need to
    got = schur.residue_table(40_000, m)
    assert got == exact40k.reduce_mod(m)


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


def test_residue_table_byte_path_vs_uint64_path():
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
    path = str(tmp_path / "empty.bin")
    with open(path, "wb") as fh:
        fh.write(schur.CACHE_MAGIC + bytes(8))
    with pytest.raises(ValueError, match="empty table cache"):
        schur.load_table(path)


def test_load_table_rejects_flipped_byte(tmp_path):
    path = str(tmp_path / "table.bin")
    schur.save_table(path, schur.s_series(120))
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(schur.CACHE_MAGIC) + 8 + 4] ^= 1  # magnitude byte of S(0)
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(ValueError, match="table cache checksum mismatch"):
        schur.load_table(path)


def test_load_table_refuses_old_format(tmp_path):
    path = str(tmp_path / "old.bin")
    with open(path, "wb") as fh:
        fh.write(b"SCHS1" + (1).to_bytes(8, "little") + bytes([1, 0, 0, 0, 1, 0]))
    with pytest.raises(ValueError, match="SCHS1; delete the file"):
        schur.load_table(path)


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "table.bin")
    t = schur.s_series(120)
    schur.save_table(path, t)
    back = schur.load_table(path)
    assert back.precision == 120
    assert back == t


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
    path = str(tmp_path / "table.bin")
    schur.save_table(path, schur.s_series(100))
    t = schur.s_series(60, cache_path=path)
    assert t == schur.load_table(path).truncate(60)
    assert [t[n] for n in range(21)] == FIRST_21


def test_s_series_ignores_cache_env(tmp_path, monkeypatch):
    # only the command line reads QDISSECT_CACHE; the library neither reads
    # nor writes the file it names
    path = tmp_path / "env_table.bin"
    schur.save_table(str(path), Series(ZZ, (7,) * 64))
    before = path.read_bytes()
    monkeypatch.setenv(cli.CACHE_ENV, str(path))
    t = schur.s_series(50)
    assert [t[n] for n in range(21)] == FIRST_21
    assert schur.s_series(100).precision == 100
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
