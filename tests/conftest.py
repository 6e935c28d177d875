import pytest

from qdissect import dissect, eta, schur
from qdissect.series import ZZ, mod_ring


@pytest.fixture(scope="session")
def residues40k():
    """Residues mod 32 of the first 40,000 counts; serves mod 8/16/32 checks."""
    return schur.residue_table(40_000, 32)


@pytest.fixture(scope="session")
def residues4k():
    """Smaller table for unit tests that do not need theorem-scale depth."""
    return schur.residue_table(4_000, 32)


@pytest.fixture(scope="session")
def exact5k():
    return schur.s_series(5_000)


def _full_expansion_report(record, precision):
    # verification by quotients: both sides expanded, inverses and all, to
    # the full precision and compared coefficient by coefficient
    ring = ZZ if record.exact else mod_ring(record.modulus)
    lhs = dissect.lhs_series(record.lhs, ring, precision)
    rhs = eta.expand_expression(record.rhs, precision, ring)
    mm = dissect.compare_series(lhs, rhs)
    need = None
    if isinstance(record.lhs, dissect.RootRecipe):
        need = dissect.required_root_precision(record.lhs.steps, precision)
    return dissect.VerificationReport(record.name, mm is None, precision, record.modulus, need, mm)


@pytest.fixture(scope="session")
def full_expansion_report():
    """The reference verifier: (record, precision) -> VerificationReport."""
    return _full_expansion_report
