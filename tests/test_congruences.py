import json

import pytest

from qdissect import congruences as cong
from qdissect.congruences import (
    MIN_SUPPORT_FLOOR,
    CongruenceTriple,
    FamilySpec,
    InternalCongruence,
    check_internal,
    check_triple,
    family_progression,
    scan,
    scan_to_json,
    verify_family,
)
from qdissect.schur import residue_table
from qdissect.series import Series, mod_ring


def test_triple_validation():
    with pytest.raises(ValueError):
        CongruenceTriple(0, 0, 16)
    with pytest.raises(ValueError):
        CongruenceTriple(4, 4, 16)
    with pytest.raises(ValueError):
        CongruenceTriple(4, -1, 16)
    with pytest.raises(ValueError):
        CongruenceTriple(4, 1, 1)


def test_triple_status_and_support():
    held = CongruenceTriple(32, 31, 16, tested_to=124)
    assert held.holds
    assert held.support == 125
    assert held.status == "holds-so-far"

    dead = CongruenceTriple(1, 0, 2, tested_to=99, refuted_at=7)
    assert not dead.holds
    assert dead.status == "refuted-at(7)"


def test_check_triple_known_congruence(residues4k):
    got = check_triple(CongruenceTriple(32, 31, 16), residues4k)
    assert got.tested_to == 124
    assert got.refuted_at is None


def test_check_triple_refutation(residues4k):
    got = check_triple(CongruenceTriple(1, 0, 2), residues4k)
    assert got.refuted_at == 0
    assert got.tested_to == 3999
    assert got.status == "refuted-at(0)"


def test_triple_as_json_round_trips():
    t = CongruenceTriple(32, 31, 16, tested_to=124)
    decoded = json.loads(t.as_json())
    assert decoded == {
        "A": 32, "B": 31, "M": 16,
        "tested_to": 124, "support": 125, "status": "holds-so-far",
    }
    # dict equality ignores order; the report prints keys in this order
    assert list(decoded) == ["A", "B", "M", "tested_to", "support", "status"]


def test_internal_as_json_keeps_key_order():
    ic = InternalCongruence(256, 123, 64, 31, 32, conjectural=True, tested_to=14)
    decoded = json.loads(ic.as_json())
    assert decoded == {
        "a": 256, "b": 123, "c": 64, "d": 31, "M": 32,
        "tested_to": 14, "support": 15, "status": "empirical",
    }
    assert list(decoded) == ["a", "b", "c", "d", "M", "tested_to", "support", "status"]


def test_internal_validation():
    with pytest.raises(ValueError):
        InternalCongruence(16, 11, 64, 43, 8)  # a must exceed c
    with pytest.raises(ValueError):
        InternalCongruence(64, 64, 16, 11, 8)
    with pytest.raises(ValueError):
        InternalCongruence(64, 43, 16, 16, 8)


def test_check_internal_proved_entries(residues4k):
    expected = {(256, 171, 64, 43, 16): 14, (64, 43, 16, 11, 8): 61, (64, 59, 16, 15, 8): 61}
    for ic in cong.INTERNAL_PROVED:
        got = check_internal(ic, residues4k)
        assert got.refuted_at is None
        assert got.tested_to == expected[(ic.a, ic.b, ic.c, ic.d, ic.M)]
        assert got.status == "holds-so-far"


def test_check_internal_conjectured_report_empirical(residues4k):
    for ic in cong.INTERNAL_CONJECTURED:
        got = check_internal(ic, residues4k)
        assert got.conjectural
        assert got.status == "empirical"
    # a refutation outranks the conjectural flag
    bogus = check_internal(InternalCongruence(2, 1, 1, 0, 16, conjectural=True), residues4k)
    assert bogus.status == f"refuted-at({bogus.refuted_at})"
    assert "refuted-at" in bogus.describe()


def test_check_internal_negative_control(residues4k):
    bogus = InternalCongruence(2, 1, 1, 0, 16)
    got = check_internal(bogus, residues4k)
    assert got.refuted_at is not None


def test_family_progressions():
    assert [family_progression(a) for a in range(5)] == [
        (32, 31), (128, 123), (512, 491), (2048, 1963), (8192, 7851),
    ]


def test_family_recurrence():
    for alpha in range(8):
        a0, b0 = family_progression(alpha)
        a1, b1 = family_progression(alpha + 1)
        assert a1 == 4 * a0
        assert b1 == 4 * b0 - 1


def test_family_spec_triple():
    spec = FamilySpec(1)
    t = spec.triple()
    assert (t.A, t.B, t.M) == (128, 123, 16)


def test_verify_family_small_table(residues4k):
    checks = verify_family(4, residues4k)
    assert [c.alpha for c in checks] == [0, 1, 2, 3, 4]
    testable = [c for c in checks if c.testable]
    assert [c.result.tested_to for c in testable] == [124, 30, 6, 0]
    assert all(c.result.holds for c in testable)
    assert not checks[4].testable
    assert "untestable" in checks[4].describe()


def test_scan_finds_known_survivors(residues4k):
    got = scan(32, [8, 16], residues4k, min_support=50)
    assert [(t.A, t.B, t.M, t.tested_to) for t in got] == [
        (32, 31, 16, 124),
        (32, 31, 8, 124),
    ]


def test_scan_orders_by_modulus_then_progression(residues4k):
    got = scan(64, [8, 16], residues4k, min_support=30)
    keys = [(-t.M, t.A, t.B) for t in got]
    assert keys == sorted(keys)
    assert (64, 31, 16) in {(t.A, t.B, t.M) for t in got}


def test_scan_support_threshold_excludes_short_progressions(residues4k):
    wide = scan(128, [16], residues4k, min_support=20)
    by_key = {(t.A, t.B, t.M): t for t in wide}
    assert by_key[(128, 123, 16)].support == 31  # all points on this table
    narrow = scan(128, [16], residues4k, min_support=32)
    dropped = {(t.A, t.B, t.M) for t in wide} - {(t.A, t.B, t.M) for t in narrow}
    assert (128, 123, 16) in dropped
    assert all(t.support >= 32 for t in narrow)


def test_scan_validation(residues4k):
    with pytest.raises(ValueError):
        scan(32, [], residues4k)
    with pytest.raises(ValueError):
        scan(32, [1], residues4k)
    with pytest.raises(ValueError):
        scan(32, [8], residues4k, min_support=19)
    with pytest.raises(ValueError):
        scan(0, [8], residues4k)


def _triples_that_hold(max_a, moduli, table, min_support):
    # the definition of a scan: every triple check_triple passes with
    # enough support, in (M descending, A, B) order
    found = []
    for m in sorted(moduli, reverse=True):
        for a in range(1, max_a + 1):
            for b in range(min(a, table.precision)):
                t = check_triple(CongruenceTriple(a, b, m), table)
                if t.holds and t.support >= min_support:
                    found.append(t)
    return found


def _zeros(n, nonzero_at=None):
    coeffs = [0] * n
    if nonzero_at is not None:
        coeffs[nonzero_at] = 1
    return Series(mod_ring(2), tuple(coeffs))


@pytest.mark.parametrize(
    "table, max_a, moduli, min_support",
    [
        pytest.param("residues4k", 48, [8, 16], 30, id="residues4k"),
        # ten moduli fill two bytes of bits and do not form a divisor chain
        pytest.param("exact5k", 40, [2, 3, 4, 5, 6, 7, 8, 9, 12, 16], 20, id="exact5k-ten-moduli"),
        # every column survives the first rows
        pytest.param(_zeros(3000), 60, [2], 20, id="zeros"),
        # index 5 + 70*13 is row 70 of column 5 at step 13, so only the rows
        # read after the first ones refute (13, 5, 2)
        pytest.param(_zeros(3000, 5 + 70 * 13), 60, [2], 20, id="one-late-nonzero"),
    ],
)
def test_scan_matches_check_triple(request, table, max_a, moduli, min_support):
    if isinstance(table, str):
        table = request.getfixturevalue(table)
    got = scan(max_a, moduli, table, min_support)
    assert got == _triples_that_hold(max_a, moduli, table, min_support)


def test_scan_tests_the_last_partial_row():
    # only the final index is nonzero, so every progression through it fails
    table = Series(mod_ring(2), (0,) * 99 + (1,))
    got = scan(8, [2], table)
    assert got == _triples_that_hold(8, [2], table, MIN_SUPPORT_FLOOR)
    assert (3, 0, 2) not in {(t.A, t.B, t.M) for t in got}


def test_scan_stops_at_the_last_reportable_step(monkeypatch):
    # 2,000 zeros: step A has a column of min_support indices only while
    # A <= 1999 // (min_support - 1), i.e. A <= 105 at the floor of 20
    table = Series(mod_ring(2), (0,) * 2000)
    steps = []

    def counting_divmod(n, a):
        steps.append(a)
        return divmod(n, a)

    monkeypatch.setattr(cong, "divmod", counting_divmod, raising=False)
    got = scan(1000, [2], table)
    assert steps == list(range(1, 106))
    assert max(t.A for t in got) == 105
    assert [t.B for t in got if t.A == 105] == [0, 1, 2, 3, 4]
    assert got == _triples_that_hold(105, [2], table, MIN_SUPPORT_FLOOR)
    assert scan(10**6, [2], table) == got
    wide = scan(1000, [2], table, min_support=100)
    assert max(t.A for t in wide) == 1999 // 99 == 20


def test_scan_to_json_lines(residues4k):
    got = scan(32, [16], residues4k, min_support=50)
    text = scan_to_json(got)
    lines = text.splitlines()
    assert len(lines) == len(got)
    assert json.loads(lines[0])["A"] == 32


def test_check_triple_rejects_non_divisor_modulus():
    with pytest.raises(ValueError):
        check_triple(CongruenceTriple(2, 1, 3), residue_table(100, 16))


def test_check_triple_mod_256():
    got = check_triple(CongruenceTriple(2, 1, 256), residue_table(100, 256))
    assert got.status == "refuted-at(0)"
    assert got.tested_to == 49


def test_scan_mod_256_matches_exact_table(exact5k):
    got = scan(64, [2, 256], residue_table(5000, 256))
    assert got == scan(64, [2, 256], exact5k)
    assert len(got) == 245


def test_exact_and_residue_tables_give_equal_verdicts(exact5k):
    residues = residue_table(5000, 32)
    assert scan(96, [8, 16, 32], exact5k) == scan(96, [8, 16, 32], residues)
    assert verify_family(3, exact5k) == verify_family(3, residues)
    for ic in cong.INTERNAL_PROVED + cong.INTERNAL_CONJECTURED:
        assert check_internal(ic, exact5k) == check_internal(ic, residues)
