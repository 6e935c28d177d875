"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ACCEPTANCE line so a log scan shows the
verdicts at a glance; the pytest pass/fail status carries the same
information.
"""

import json

from qdissect import aaw, congruences as cong, schur
from qdissect.dissect import get_record, load_catalog, verify_catalog
from qdissect.eta import PochhammerFactor, expand_expression, expand_pochhammer, parse
from qdissect.series import ZZ

LEMMA_IDS = [
    "f1-sq-2diss", "f1-sq-inv-2diss", "f1-quartic-inv-2diss", "f1-octic-inv-2diss",
    "f3-over-f1-2diss", "f3-cubed-over-f1-2diss", "f1-over-f3-cubed-2diss",
    "f1f3-inv-2diss", "f1f3-2diss", "negq-eta-quotient",
]

DISSECTION_IDS = (
    ["s-2diss-0", "s-2diss-1"]
    + [f"s-4diss-{r}" for r in range(4)]
    + [f"s-8diss-{r}" for r in range(8)]
)


def _criterion(num, failures):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {num}: {status}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_generating_function_equivalence(exact5k):
    failures = []
    n = 5000
    eta_form = expand_expression(parse("f2*f3/(f1*f6^2)"), n, ZZ)
    product = (
        expand_pochhammer(PochhammerFactor(1, 6), n)
        * expand_pochhammer(PochhammerFactor(5, 6), n)
        * expand_pochhammer(PochhammerFactor(6, 6), n)
    ).inv()
    table = tuple(exact5k[k] for k in range(n))
    if eta_form.coeffs != table:
        failures.append("eta form disagrees with the prefix-sum table")
    if product.coeffs != table:
        failures.append("Pochhammer product disagrees with the prefix-sum table")
    brute = [schur.oracle_part_count(k) for k in range(61)]
    if brute != list(table[:61]):
        failures.append("enumeration oracle disagrees on the first 61 values")
    _criterion(1, failures)


def test_criterion_02_lemma_catalog():
    reports = verify_catalog([get_record(i) for i in LEMMA_IDS], precision=500)
    failures = [r.name for r in reports if not r.passed]
    assert all(r.modulus is None for r in reports)
    _criterion(2, failures)


def test_criterion_03_dissection_theorems():
    reports = verify_catalog([get_record(i) for i in DISSECTION_IDS], precision=500)
    failures = [r.name for r in reports if not r.passed]
    assert len(reports) == 14
    _criterion(3, failures)


def test_criterion_04_proof_internal_congruence_records():
    modular = [r for r in load_catalog() if r.modulus is not None]
    reports = verify_catalog(modular, precision=2000)
    failures = [r.name for r in reports if not r.passed]
    _criterion(4, failures)


def test_criterion_05_theorem_congruences(residues40k):
    expected = {(32, 31): 1249, (128, 123): 311, (512, 491): 77}
    failures = []
    for (a, b), depth in expected.items():
        got = cong.check_triple(cong.CongruenceTriple(a, b, 16), residues40k)
        if got.refuted_at is not None:
            failures.append(f"({a}n+{b}) refuted at {got.refuted_at}")
        if got.tested_to != depth:
            failures.append(f"({a}n+{b}) tested to {got.tested_to}, wanted {depth}")
    _criterion(5, failures)


def test_criterion_06_infinite_family(residues40k):
    failures = []
    checks = cong.verify_family(4, residues40k)
    wanted = [(32, 31), (128, 123), (512, 491), (2048, 1963), (8192, 7851)]
    got_ab = [(c.A, c.B) for c in checks]
    if got_ab != wanted:
        failures.append(f"progressions {got_ab}")
    for c in checks:
        if c.testable and not c.result.holds:
            failures.append(f"alpha={c.alpha} refuted")
    # the closed form must agree with the recurrence for the deep members
    for alpha in (3, 4):
        a_prev, b_prev = cong.family_progression(alpha - 1)
        if cong.family_progression(alpha) != (4 * a_prev, 4 * b_prev - 1):
            failures.append(f"recurrence mismatch at alpha={alpha}")
    _criterion(6, failures)


def test_criterion_07_internal_congruences(residues40k):
    failures = []
    for ic in cong.INTERNAL_PROVED:
        got = cong.check_internal(ic, residues40k)
        if not got.holds:
            failures.append(f"proved {ic.a},{ic.b},{ic.c},{ic.d} mod {ic.M} refuted")
        if got.status != "holds-so-far":
            failures.append(f"proved entry reports {got.status}")
    for ic in cong.INTERNAL_CONJECTURED:
        got = cong.check_internal(ic, residues40k)
        if not got.holds:
            failures.append(f"conjectured {ic.a},{ic.b} mod {ic.M} refuted")
        if got.status != "empirical":
            failures.append(f"conjectured entry reports {got.status}")
    _criterion(7, failures)


def test_criterion_08_parameterization_suite():
    failures = []
    reports = aaw.verify_param_identities(aaw.compute_params(300), 300)
    failures += [r.name for r in reports if not r.passed]
    if not aaw.verify_L_identity(300).passed:
        failures.append("product identity")
    bad = [n for n, c in enumerate(aaw.compute_L(2000).coeffs) if c % 16]
    if bad:
        failures.append(f"obstruction coefficient at q^{bad[0]} not divisible by 16")
    _criterion(8, failures)


def test_criterion_09_scan_reproduction(residues40k):
    failures = []
    first = cong.scan(128, [8, 16, 32], residues40k, min_support=50)
    second = cong.scan(128, [8, 16, 32], residues40k, min_support=50)
    if cong.scan_to_json(first) != cong.scan_to_json(second):
        failures.append("a repeated scan changed the output bytes")
    found = {(t.A, t.B, t.M) for t in first}
    for key in ((32, 31, 16), (128, 123, 16)):
        if key not in found:
            failures.append(f"missing {key}")
    rows = [json.loads(line) for line in cong.scan_to_json(first).splitlines()]
    if len(rows) != len(first):
        failures.append("JSON line count mismatch")
    _criterion(9, failures)


def test_criterion_10_property_suites():
    import test_properties as props

    failures = []
    suites = [
        getattr(props, name)
        for name in dir(props)
        if name.startswith("test_") and callable(getattr(props, name))
    ]
    if len(suites) < 6:
        failures.append(f"only {len(suites)} randomized suites")
    for fn in suites:
        configured = getattr(fn, "_hypothesis_internal_use_settings", None)
        if configured is None:
            failures.append(f"{fn.__name__} is not hypothesis-driven")
        elif configured.max_examples < 1000:
            failures.append(f"{fn.__name__} runs {configured.max_examples} cases")
    if props.MAX_PRECISION > 64:
        failures.append("precision cap exceeds 64")
    covered = " ".join(fn.__name__ for fn in suites)
    for topic in ("ring_laws", "inversion", "recombination", "linearity",
                  "reduce_mod", "monotone"):
        if topic not in covered:
            failures.append(f"no suite covers {topic}")
    _criterion(10, failures)
