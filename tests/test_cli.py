import json
import sys

import pytest

from qdissect import congruences, eta, schur
from qdissect.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_default_precision_and_table_size(capsys):
    code, out, _ = run(capsys, "expand", "f1")
    assert code == 0
    assert len(out.split()) == 500
    code, out, _ = run(capsys, "dump-table", "--mod", "2")
    assert code == 0
    assert len(out.splitlines()) == 40_000


def test_dump_table_zero_table_size_exits_2(capsys):
    code, out, err = run(capsys, "dump-table", "--table-size", "0")
    assert (code, out, err) == (2, "", "error: table size must be positive\n")


def test_dump_table_modulus_from_2_62_exits_2(capsys):
    code, out, err = run(capsys, "dump-table", "--mod", str(2**62))
    assert (code, out, err) == (2, "", "error: residue tables support moduli below 2^62\n")


def test_expand_example(capsys):
    code, out, _ = run(capsys, "expand", "f2*f3/(f1*f6^2)", "--precision", "8")
    assert code == 0
    assert out.strip() == "1 1 1 1 1 2 3 4"


def test_expand_json_and_mod(capsys):
    code, out, _ = run(capsys, "expand", "f1", "--precision", "8", "--mod", "3", "--json")
    assert code == 0
    assert json.loads(out) == [1, 2, 2, 0, 0, 1, 0, 1]


def test_expand_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "expand", "f2*(f3", "--precision", "8")
    assert code == 2
    assert "error:" in err


def test_expand_low_precision_exits_2(capsys):
    code, _, err = run(capsys, "expand", "f1", "--precision", "4")
    assert code == 2
    assert "at least 8" in err


@pytest.mark.parametrize("args", [
    ["f2*f3/(f1*f6^2)", "--precision", "60"],
    ["f2*f3/(f1*f6^2)", "--precision", "60", "--mod", "16", "--json"],
    ["8*q^2*f2*f6^3/f12 + 8*f2^4", "--mod", "7"],
    ["f1^-3"],
    ["q^-1"],
    ["f1", "--precision", "4"],
], ids=["zz", "mod-json", "sum-mod", "default", "parse-error", "low-precision"])
def test_expand_is_dissect_without_steps(capsys, args):
    assert run(capsys, "expand", *args) == run(capsys, "dissect", *args)


def test_expand_accepts_a_root(capsys):
    code, out, err = run(capsys, "expand", "@S 2:1", "--precision", "10")
    assert (code, out, err) == (0, "1 1 2 4 4 7 12 14 21 32\n", "")


def test_aaw_check_l_precision_defaults_to_the_record(capsys):
    code, out, _ = run(capsys, "aaw-check")
    assert code == 0
    assert out.splitlines()[-1] == "PASS l-divisible-by-16 (mod 16, precision 2000)"


def test_aaw_check_low_l_precision_exits_2(capsys):
    code, out, err = run(capsys, "aaw-check", "--l-precision", "3")
    assert (code, out, err) == (2, "", "error: l-precision must be at least 8\n")


def test_dissect_root_progression(capsys):
    code, out, _ = run(capsys, "dissect", "@S", "2:1", "--precision", "10")
    assert code == 0
    assert out.strip() == "1 1 2 4 4 7 12 14 21 32"


def test_dissect_expression_with_steps(capsys):
    code, out, _ = run(capsys, "dissect", "f1", "2:0", "--precision", "8")
    assert code == 0
    # even part of the pentagonal series: exponents 0, 2, 12, 22 survive
    assert out.strip() == "1 -1 0 0 0 0 -1 0"


def test_dissect_inline_and_trailing_steps_compose(capsys):
    code_a, out_a, _ = run(capsys, "dissect", "@S 2:1", "2:1", "--precision", "8")
    code_b, out_b, _ = run(capsys, "dissect", "@S", "2:1", "2:1", "--precision", "8")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_dissect_bad_step_exits_2(capsys):
    code, _, err = run(capsys, "dissect", "@S", "2-1", "--precision", "8")
    assert code == 2
    assert "m:r" in err


def test_verify_named_records(capsys):
    code, out, _ = run(capsys, "verify", "f1f3-2diss", "s-2diss-0", "--precision", "60")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("PASS f1f3-2diss")
    assert lines[1].startswith("PASS s-2diss-0")


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "unit-quotient-mod2", "--precision", "40", "--json")
    assert code == 0
    decoded = json.loads(out.strip())
    assert decoded["name"] == "unit-quotient-mod2"
    assert decoded["passed"] is True
    assert decoded["modulus"] == 2
    assert decoded["mismatch"] is None


def test_verify_unknown_record_exits_2(capsys):
    code, _, err = run(capsys, "verify", "missing-record")
    assert code == 2
    assert "missing-record" in err


def test_verify_requires_ids_or_all(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    code, _, err = run(capsys, "verify", "f1f3-2diss", "--all")
    assert code == 2


def test_scan_json_lines_and_determinism(capsys):
    args = ("scan", "--max-a", "32", "--moduli", "8,16",
            "--table-size", "4000", "--min-support", "50")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    rows = [json.loads(line) for line in out1.strip().splitlines()]
    assert {"A": 32, "B": 31, "M": 16, "tested_to": 124, "support": 125,
            "status": "holds-so-far"} in rows


def test_scan_rejects_low_support(capsys):
    code, _, err = run(capsys, "scan", "--max-a", "8", "--moduli", "8",
                       "--table-size", "4000", "--min-support", "5")
    assert code == 2
    assert "at least 20" in err


def _no_table(*args, **kwargs):
    raise AssertionError("a count table was built")


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(["--max-a", "0"], id="max-a-0"),
        pytest.param(["--min-support", "5"], id="min-support-5"),
        pytest.param(["--moduli", "-8"], id="negative-modulus"),
        pytest.param(["--moduli", ","], id="no-modulus"),
    ],
)
def test_scan_checks_arguments_before_building_the_table(capsys, monkeypatch, flags):
    monkeypatch.setattr(schur, "residue_table", _no_table)
    code, out, err = run(capsys, "scan", "--table-size", "3000000", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_family_text(capsys):
    code, out, _ = run(capsys, "family", "--alpha-max", "2", "--table-size", "4000")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "alpha=0" in lines[0] and "tested_to=124" in lines[0]


def test_family_json_marks_untestable(capsys):
    code, out, _ = run(capsys, "family", "--alpha-max", "4",
                       "--table-size", "4000", "--json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[4]["testable"] is False
    assert rows[4]["status"] is None


def test_internal_text_reports_empirical(capsys):
    code, out, _ = run(capsys, "internal", "--table-size", "4000")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert sum("empirical" in line for line in lines) == 4


def test_internal_short_table_exits_2_before_any_output(capsys):
    code, out, err = run(capsys, "internal", "--table-size", "200")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: table of 200 terms cannot test even N=0"]


def test_internal_refutation_exits_1(capsys, monkeypatch):
    bogus = congruences.InternalCongruence(2, 1, 1, 0, 16)
    monkeypatch.setattr(congruences, "INTERNAL_PROVED", (bogus,))
    monkeypatch.setattr(congruences, "INTERNAL_CONJECTURED", ())
    code, out, _ = run(capsys, "internal", "--table-size", "4000")
    assert code == 1
    assert "refuted-at" in out


def test_aaw_check(capsys):
    code, out, _ = run(capsys, "aaw-check", "--precision", "48", "--l-precision", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)
    assert lines[-1].startswith("PASS l-divisible-by-16")


def test_oracle_agreement(capsys):
    code, out, _ = run(capsys, "oracle", "--limit", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert lines[5] == "n=5 oracle=2 table=2 ok"
    # the oracle's whole range agrees with the table
    code, out, _ = run(capsys, "oracle", "--limit", "40")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 41
    assert all(line.endswith(" ok") for line in lines)


def test_oracle_limit_cap(capsys):
    code, _, err = run(capsys, "oracle", "--limit", "41")
    assert code == 2
    assert "between 0 and 40" in err


def test_dump_table_prefix(capsys):
    code, out, _ = run(capsys, "dump-table", "--table-size", "64", "--count", "6")
    assert code == 0
    assert out.strip().splitlines() == ["0 1", "1 1", "2 1", "3 1", "4 1", "5 2"]


def test_dump_table_mod(capsys):
    code, out, _ = run(capsys, "dump-table", "--table-size", "64",
                       "--count", "12", "--mod", "4")
    assert code == 0
    assert out.strip().splitlines()[11] == "11 3"


def test_dump_table_save_round_trip(capsys, tmp_path):
    # --cache is the one writer: a missing file is built and written
    path = str(tmp_path / "t.bin")
    code, out, _ = run(capsys, "dump-table", "--table-size", "32", "--cache", path, "--count", "0")
    assert (code, out) == (0, "")
    assert schur.load_table(path) == schur.s_series(32)


def test_dump_table_save_rejects_mod(capsys, tmp_path):
    # a cache holds exact values only, so --cache with --mod is refused
    # before the file is read or written
    path = tmp_path / "t.bin"
    code, out, err = run(capsys, "dump-table", "--table-size", "32", "--mod", "8",
                         "--cache", str(path))
    assert (code, out, err) == (2, "", "error: --cache holds exact values; drop --mod\n")
    assert not path.exists()


def test_dump_table_save_flag_is_gone(capsys, tmp_path):
    code, out, err = run(capsys, "dump-table", "--save", str(tmp_path / "t.bin"))
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --save" in err
    assert not (tmp_path / "t.bin").exists()


def test_dump_table_truncated_cache_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.bin"
    schur.save_table(str(path), schur.s_series(40))
    whole = path.read_bytes()
    head = len(schur.CACHE_MAGIC)
    _, width = schur.CACHE_HEADER.unpack_from(whole, head)
    body = whole[head + schur.CACHE_HEADER.size :]
    huge_count = schur.CACHE_MAGIC + schur.CACHE_HEADER.pack(2**64 - 1, width) + body
    for payload in (whole[:50], huge_count):
        path.write_bytes(payload)
        code, out, err = run(capsys, "dump-table", "--table-size", "30", "--cache", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: truncated table cache\n")


def test_dump_table_empty_cache_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(schur.CACHE_MAGIC + schur.CACHE_HEADER.pack(0, 1))
    code, out, err = run(capsys, "dump-table", "--table-size", "30", "--cache", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: empty table cache\n")


def _flip_first_value(data: bytes) -> bytes:
    at = len(schur.CACHE_MAGIC) + schur.CACHE_HEADER.size
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1 :]


@pytest.mark.parametrize("corrupt, message", [
    pytest.param(lambda data: data + b"\0", "trailing bytes in table cache", id="trailing"),
    pytest.param(_flip_first_value, "table cache checksum mismatch", id="flipped"),
    pytest.param(lambda data: b"SCHS1" + data[len(schur.CACHE_MAGIC) :],
                 "old table cache format SCHS1; delete the file to rebuild it", id="schs1"),
    pytest.param(lambda data: b"SCHS2" + data[len(schur.CACHE_MAGIC) :],
                 "old table cache format SCHS2; delete the file to rebuild it", id="schs2"),
])
def test_dump_table_bad_cache_exits_2(capsys, tmp_path, corrupt, message):
    # the file is refused and left as it is: dump-table neither rebuilds nor
    # rewrites a cache it cannot read
    path = tmp_path / "bad.bin"
    schur.save_table(str(path), schur.s_series(200))
    bad = corrupt(path.read_bytes())
    path.write_bytes(bad)
    code, out, err = run(capsys, "dump-table", "--table-size", "30", "--cache", str(path))
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")
    assert path.read_bytes() == bad


def test_family_unprintable_member_exits_2_before_any_output(capsys):
    # A = 2^(5+2*alpha) has more than 4300 digits from alpha = 7140 on
    code, out, err = run(capsys, "family", "--alpha-max", "7200", "--table-size", "100")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_family_huge_alpha_max_refused_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(schur, "residue_table", lambda *a: pytest.fail("table built"))
    code, out, err = run(capsys, "family", "--alpha-max", str(10**12))
    assert (code, out) == (2, "")
    assert err.startswith("error: --alpha-max") and err.count("\n") == 1


def test_family_alpha_ceiling_follows_int_str_limit(capsys):
    # under a 640-digit limit, 2^(5+2*1060) has 640 digits and 2^2127 has 641
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "family", "--alpha-max", "1060", "--table-size", "100")
        assert (code, err, len(out.splitlines())) == (0, "", 1061)
        code, out, err = run(capsys, "family", "--alpha-max", "1061", "--table-size", "100")
        assert (code, out) == (2, "") and err.count("\n") == 1
    finally:
        sys.set_int_max_str_digits(old)


def test_failed_save_names_the_target_path(capsys, tmp_path):
    target = str(tmp_path / "missing" / "x.bin")
    argv = ("dump-table", "--table-size", "10", "--cache", target)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and repr(target) in err
    assert run(capsys, *argv) == (code, out, err)


def test_dump_table_negative_count_exits_2(capsys):
    code, out, err = run(capsys, "dump-table", "--table-size", "30", "--count", "-5")
    assert (code, out, err) == (2, "", "error: --count must be nonnegative\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--moduli", "256"],
        ["scan", "--moduli", "2,256", "--max-a", "8", "--table-size", "3000"],
    ],
)
def test_scan_mod_256_exits_0(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert (code, err) == (0, "")


def test_deeply_nested_expression_exits_2(capsys):
    deep = "(" * 3000 + "f1" + ")" * 3000
    code, out, err = run(capsys, "expand", deep, "--precision", "8")
    assert (code, out) == (2, "")
    assert err == f"error: parentheses nested deeper than {eta.MAX_NESTING} at offset {eta.MAX_NESTING}\n"


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize(
    "target, argv",
    [
        ((schur, "residue_table"), ["dump-table", "--mod", "16", "--table-size", "10"]),
        ((eta, "expand_expression"), ["expand", "f1", "--precision", "8"]),
    ],
)
def test_memory_error_exits_2(capsys, monkeypatch, target, argv):
    monkeypatch.setattr(*target, _out_of_memory)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# 10^20 is past the index range (2^63), so each size fails before any
# allocation; the last four cases exited 2 already, through numpy
HUGE = str(10**20)


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "f1", "--precision", HUGE],
        ["verify", "--all", "--precision", HUGE],
        ["aaw-check", "--precision", HUGE],
        ["aaw-check", "--precision", "8", "--l-precision", HUGE],
        ["dissect", "f1", f"{HUGE}:1", "--precision", "8"],
        ["dissect", "@S", f"{HUGE}:1", "--precision", "8"],
        ["verify", "s-2diss-0", "--precision", HUGE],
        ["scan", "--table-size", HUGE],
        ["dump-table", "--table-size", HUGE],
    ],
    ids=["expand", "verify-all", "aaw-precision", "aaw-l-precision", "dissect-step",
         "dissect-root-step", "verify-root", "scan", "dump-table"],
)
def test_size_past_the_index_range_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exits_2(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
