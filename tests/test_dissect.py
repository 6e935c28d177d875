import json

import pytest
from hypothesis import given, settings, strategies as st

from qdissect import dissect, eta, schur
from qdissect.dissect import (
    IdentityRecord,
    RootRecipe,
    extract,
    get_record,
    load_catalog,
    required_root_precision,
    verify_catalog,
    verify_dissection_theorem,
    verify_identity,
)
from qdissect.series import Series, ZZ, mod_ring


def test_extract_slices_progression():
    f = Series.of(ZZ, list(range(10)))
    assert extract(f, 3, 1).coeffs == (1, 4, 7)
    assert extract(f, 3, 0).coeffs == (0, 3, 6, 9)
    assert extract(f, 2, 1).coeffs == (1, 3, 5, 7, 9)


def test_extract_needs_at_least_one_term():
    f = Series.of(ZZ, [5, 6])
    with pytest.raises(ValueError):
        extract(f, 4, 3)


def test_extract_validation():
    f = Series.of(ZZ, [1, 2, 3])
    with pytest.raises(ValueError):
        extract(f, 1, 0)
    with pytest.raises(ValueError):
        extract(f, 3, 3)
    with pytest.raises(ValueError):
        extract(f, 3, -1)


def test_recombination_small():
    f = Series.of(ZZ, list(range(1, 13)))
    total = Series.zero(ZZ, 12)
    for r in range(3):
        piece = extract(f, 3, r).scale_q(3).mul_qpow(r)
        total = total + piece.truncate(12)
    assert total.coeffs == f.coeffs


def test_required_root_precision_single_step():
    assert required_root_precision([(2, 1)], 10) == 21
    assert required_root_precision([], 10) == 10


def test_required_root_precision_composes_outside_in():
    # applying 2:1 then 4:3 to the result needs (4*p+3) then doubled+1
    assert required_root_precision([(2, 1), (4, 3)], 5) == 2 * (4 * 5 + 3) + 1


def test_catalog_loads_all_records():
    records = load_catalog()
    assert len(records) == 62
    names = [r.name for r in records]
    assert len(set(names)) == len(names)
    assert all(r.anchor for r in records)


def test_catalog_record_shapes():
    rec = get_record("s-2diss-1")
    assert isinstance(rec.lhs, RootRecipe)
    assert rec.lhs.root == "S"
    assert rec.lhs.steps == ((2, 1),)
    assert rec.modulus is None

    lemma = get_record("f1f3-2diss")
    assert isinstance(lemma.lhs, eta.EtaExpression)

    modrec = get_record("s16n11-mod16")
    assert modrec.modulus == 16
    assert modrec.lhs.steps == ((16, 11),)


def test_get_record_unknown_name():
    with pytest.raises(KeyError):
        get_record("no-such-record")


def test_verify_identity_reports_pass():
    rep = verify_identity(get_record("f1f3-2diss"), precision=80)
    assert rep.passed
    assert rep.precision == 80
    assert rep.modulus is None
    assert rep.mismatch is None
    assert rep.describe().startswith("PASS f1f3-2diss")


def test_verify_identity_dissection_tracks_root_precision():
    rep = verify_identity(get_record("s-2diss-0"), precision=40)
    assert rep.passed
    assert rep.required_root_precision == 80


def test_verify_identity_catches_wrong_rhs():
    bad = IdentityRecord(
        name="bogus",
        lhs=eta.parse("f1"),
        rhs=eta.parse("f2"),
        modulus=None,
        anchor="negative control",
    )
    rep = verify_identity(bad, precision=20)
    assert not rep.passed
    assert rep.mismatch is not None
    assert rep.mismatch.degree == 1
    assert "FAIL" in rep.describe()
    assert "mismatch at q^1" in rep.describe()
    assert json.loads(rep.as_json())["mismatch"] == {"degree": 1, "lhs": -1, "rhs": 0}


def test_verify_identity_modular_negative_control():
    bad = IdentityRecord(
        name="bogus-mod",
        lhs=eta.parse("f1^2"),
        rhs=eta.parse("f2"),
        modulus=4,
        anchor="negative control",
    )
    rep = verify_identity(bad, precision=20)
    assert not rep.passed
    assert rep.modulus == 4


def test_negq_root_is_sign_flipped_f1():
    rec = get_record("negq-eta-quotient")
    rep = verify_identity(rec, precision=100)
    assert rep.passed
    # the root itself: (-q; -q) expansion equals f2^3/(f1*f4)
    lhs = dissect.root_series("negq", ZZ, 50)
    rhs = eta.expand_expression(eta.parse("f2^3/(f1*f4)"), 50, ZZ)
    assert lhs.coeffs == rhs.coeffs


def test_verify_identity_precision():
    rec = get_record("f1f3-2diss")
    with pytest.raises(ValueError):
        verify_identity(rec, 0)
    assert verify_identity(rec).precision == 500
    assert verify_identity(get_record("unit-quotient-mod2")).precision == 2000


def test_verify_dissection_theorem_needs_a_recipe():
    assert verify_dissection_theorem(get_record("s-2diss-0"), 40).passed
    with pytest.raises(ValueError):
        verify_dissection_theorem(get_record("f1f3-2diss"), 40)


def test_lhs_series_runs_recipe_steps_first():
    # inline recipe steps run before the extra steps
    inline = dissect.lhs_series(dissect.parse_lhs("@S 2:1"), ZZ, 8, ((2, 1),))
    chained = dissect.lhs_series(dissect.parse_lhs("@S 2:1 2:1"), ZZ, 8)
    assert inline == chained
    table = schur.s_series(4 * 8 + 3)
    assert inline.coeffs == table.coeffs[3::4]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((None, 16, 9)),
    st.sampled_from(("S", "negq")),
    st.lists(
        st.integers(2, 9).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1))),
        min_size=1,
        max_size=3,
    ),
    st.integers(1, 12),
)
def test_root_progression_matches_stepwise_extraction(m, root, steps, n):
    # the steps' one progression, sliced from the root's array, is extract
    # applied one step at a time to the whole root: the exact table, mod 16
    # (served from the mod-256 table) and mod 9 (a fresh table)
    ring = ZZ if m is None else mod_ring(m)
    need = required_root_precision(steps, n)
    if root == "negq":
        want = dissect.root_series(root, ring, need)
    else:
        want = schur.s_series(need) if m is None else schur.residue_table(need, m)
    for step in steps:
        want = extract(want, *step)
    assert dissect.lhs_series(RootRecipe(root, tuple(steps)), ring, n) == want


@pytest.mark.parametrize("step", [(1, 0), (3, 3), (2, -1)])
def test_lhs_series_refuses_a_bad_step_as_extract(step):
    f = Series.of(ZZ, range(10))
    with pytest.raises(ValueError) as extract_error:
        extract(f, *step)
    for lhs in (RootRecipe("S", (step,)), eta.parse("f1")):
        with pytest.raises(ValueError) as lhs_error:
            dissect.lhs_series(lhs, ZZ, 5, () if isinstance(lhs, RootRecipe) else (step,))
        assert str(lhs_error.value) == str(extract_error.value)


def test_parse_steps_validation():
    assert dissect.parse_steps(["2:1", "16:11"]) == ((2, 1), (16, 11))
    for bad in ("2-1", "2:", "1:0", "4:4", "4:-1"):
        with pytest.raises(ValueError):
            dissect.parse_steps([bad])
    with pytest.raises(ValueError):
        dissect.parse_lhs("@S 2:2")


def test_verify_catalog_computes_no_term_twice(monkeypatch):
    """Records ask for growing root tables in catalog order; `schur`
    extends each ring's table from where it ends, so the terms built per
    ring total the largest need minus the seed term S(0)."""
    monkeypatch.setattr(schur, "_tables", {})
    built = {}
    build = schur._theta_table

    def counting(n, m, known=(1,)):
        built[m] = built.get(m, 0) + n - len(known)
        return build(n, m, known)

    monkeypatch.setattr(schur, "_theta_table", counting)
    records = [
        r for r in load_catalog() if isinstance(r.lhs, RootRecipe) and r.lhs.root == "S"
    ]
    reports = verify_catalog(records, precision=40)
    assert all(r.passed for r in reports)
    need = {}
    for rec in records:
        ring = None if rec.exact else 256
        need[ring] = max(need.get(ring, 0), required_root_precision(rec.lhs.steps, 40))
    assert built == {ring: n - 1 for ring, n in need.items()} == {None: 326, 256: 10_474}


def test_verify_catalog_inverts_nothing(monkeypatch):
    # a passing record is a numerator identity: no Newton inverse at all
    calls = []
    inv = Series.inv

    def spy(self):
        calls.append(self.precision)
        return inv(self)

    monkeypatch.setattr(Series, "inv", spy)
    assert all(r.passed for r in verify_catalog())
    assert calls == []


@pytest.mark.parametrize(
    "index, record", list(enumerate(load_catalog())), ids=[r.name for r in load_catalog()]
)
def test_failure_reports_match_full_expansion(index, record, full_expansion_report):
    # c*q^k added to the right side, and q^7*f2 to an eta left side: the
    # numerator check's reports, first mismatch included, are byte for
    # byte those of expanding both sides in full; multiples of m still pass
    lefts = [record.lhs]
    if isinstance(record.lhs, eta.EtaExpression):
        lefts.append(record.lhs + eta.parse("q^7*f2"))
    cs = (1, -1, 2, 8) + (() if record.exact else (record.modulus,))
    for j, c in enumerate(cs):
        for k in (0, 1, 2, 40):
            n = (k + 1, k + 5, 80)[(index + j + k) % 3]
            shift = eta.EtaExpression.from_terms([eta.EtaTerm(c, k, eta.EtaQuotient())])
            rhs = record.rhs + shift
            for lhs in lefts:
                bad = IdentityRecord(record.name, lhs, rhs, record.modulus, record.anchor)
                got = verify_identity(bad, n)
                assert got.as_json() == full_expansion_report(bad, n).as_json(), (c, k, n)
                if lhs is record.lhs:
                    holds = record.modulus is not None and c % record.modulus == 0
                    assert got.passed == holds
                    assert holds or got.mismatch.degree == k


def test_verify_catalog_precision_override_and_order():
    records = load_catalog()[:6]
    reports = verify_catalog(records, precision=30)
    assert [r.name for r in reports] == [r.name for r in records]
    assert all(r.passed and r.precision == 30 for r in reports)


def test_verify_catalog_repeat_is_identical():
    records = load_catalog()[:12]
    first = verify_catalog(records, precision=40)
    second = verify_catalog(records, precision=40)
    assert first == second


def test_full_catalog_fast_gate():
    """Every shipped identity holds at a reduced precision; the deep run
    happens in the acceptance suite."""
    reports = verify_catalog(precision=60)
    failed = [r.name for r in reports if not r.passed]
    assert failed == []
