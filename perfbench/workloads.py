"""The benchmark's three workloads and their correctness checks.

Each workload is a `run_*` function, which holds every timed call into
qdissect, and a `check_*` function, which verifies the returned values
outside the timed region. The work done by `run_*` depends only on the
size profile; the seed chooses the canary mutations and spot-check
indices used by `check_*`.

The program is reached only through qdissect's exports, `cli.main` and
the module functions the benchmark names, and results are read through
`passed`, indexing, `.precision`, the JSON `passed` field and the
(A, B, M) / `holds` fields of congruence results. No call passes
`threads`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

import qdissect
from qdissect import cli

# Sizes per profile. "full" is what the benchmark measures; "smoke" is a
# seconds-long version of the same calls for the benchmark's own tests.
PROFILES = {
    "full": {
        "catalog_argv": ["verify", "--all", "--json"],
        "canaries": 4,
        "canary_max_degree": 300,
        "gf_terms": 10_000,
        "s_terms": 10_000,
        "L_terms": 3_000,
        "aaw_terms": 300,
        "pow2_terms": 300_000,
        "pow2_max_a": 3_072,
        "other_terms": 25_000,
        "other_max_a": 512,
        "spot_ref_terms": 5_000,
        "spot_checks": 64,
    },
    "smoke": {
        "catalog_argv": ["verify", "--all", "--json", "--precision", "40"],
        "canaries": 2,
        "canary_max_degree": 30,
        "gf_terms": 300,
        "s_terms": 300,
        "L_terms": 200,
        "aaw_terms": 40,
        "pow2_terms": 20_000,
        "pow2_max_a": 256,
        "other_terms": 2_000,
        "other_max_a": 64,
        "spot_ref_terms": 1_000,
        "spot_checks": 16,
    },
}

CATALOG_RECORDS = 62
GENERATING_FUNCTION = "f2*f3/(f1*f6^2)"
POW2_MODULI = (8, 16, 32)
OTHER_MODULI = (3, 9)
FAMILY_ALPHA_MAX = 4
FAMILY_HEAD = (32, 31, 16)

_EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def survivor_digest(triples) -> dict:
    """Count and sha256 of a survivor set, order-independent."""
    keys = sorted({(t.A, t.B, t.M) for t in triples})
    text = "\n".join(f"{a} {b} {m}" for a, b, m in keys)
    return {"count": len(keys), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _expected(profile_name: str) -> dict:
    with open(_EXPECTED_PATH) as fh:
        return json.load(fh)[profile_name]


# -- catalog ---------------------------------------------------------------


def run_catalog(p: dict, workdir: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(p["catalog_argv"]))
    return code, buf.getvalue()


def make_canaries(seed: int, count: int, max_degree: int):
    """False identities: a catalog record with +-q^k added to its right side.

    The catalog record holds on every term, so the canary must agree on
    degrees below k and differ at degree k.
    """
    rng = random.Random(seed)
    records = qdissect.load_catalog()
    out = []
    for rec in rng.sample(list(records), count):
        k = rng.randint(8, max_degree)
        sign = rng.choice("+-")
        rhs = qdissect.parse(f"{qdissect.render(rec.rhs)} {sign} q^{k}")
        canary = qdissect.IdentityRecord(
            name=f"canary-{rec.name}-q{k}",
            lhs=rec.lhs,
            rhs=rhs,
            modulus=rec.modulus,
            anchor="benchmark canary",
        )
        out.append((canary, k))
    return out


def check_canaries(seed: int, p: dict) -> list[tuple[str, bool]]:
    checks = []
    for canary, k in make_canaries(seed, p["canaries"], p["canary_max_degree"]):
        # agreement below k and a failure at k+1 pin the first mismatch to q^k
        below = qdissect.verify_identity(canary, k)
        at = qdissect.verify_identity(canary, k + 1)
        checks.append((f"{canary.name} agrees below q^{k}", below.passed is True))
        checks.append((f"{canary.name} fails at q^{k}", at.passed is False))
    return checks


def check_catalog(result, p: dict, seed: int, profile_name: str) -> list[tuple[str, bool]]:
    code, out = result
    reports = [json.loads(line) for line in out.splitlines() if line.strip()]
    checks = [("cli exit code 0", code == 0), (f"{CATALOG_RECORDS} reports", len(reports) == CATALOG_RECORDS)]
    checks += [(f"report {i} passed", r.get("passed") is True) for i, r in enumerate(reports)]
    return checks + check_canaries(seed, p)


# -- exact -----------------------------------------------------------------


def run_exact(p: dict, workdir: str):
    gf = qdissect.expand_expression(qdissect.parse(GENERATING_FUNCTION), p["gf_terms"], qdissect.ZZ)
    cache = os.path.join(workdir, "s_table.bin")
    fresh = qdissect.s_series(p["s_terms"], cache)
    reloaded = qdissect.s_series(p["s_terms"], cache)
    L = qdissect.compute_L(p["L_terms"])
    pair = qdissect.compute_params(p["aaw_terms"])
    reports = list(qdissect.verify_param_identities(pair, p["aaw_terms"]))
    reports.append(qdissect.verify_L_identity(p["aaw_terms"]))
    return {"gf": gf, "fresh": fresh, "reloaded": reloaded, "cache": cache, "L": L, "reports": reports}


def check_exact(result, p: dict, seed: int, profile_name: str) -> list[tuple[str, bool]]:
    gf, fresh, reloaded, L = result["gf"], result["fresh"], result["reloaded"], result["L"]
    n = p["s_terms"]
    checks = [
        ("generating function precision", gf.precision == p["gf_terms"]),
        ("fresh table precision", fresh.precision == n),
        ("reloaded table precision", reloaded.precision == n),
        ("cache file written", os.path.getsize(result["cache"]) > 0),
        ("generating function equals fresh table", all(gf[i] == fresh[i] for i in range(n))),
        ("reloaded table equals fresh table", all(reloaded[i] == fresh[i] for i in range(n))),
        ("L precision", L.precision == p["L_terms"]),
        ("L divisible by 16", all(L[i] % 16 == 0 for i in range(L.precision))),
    ]
    checks += [(f"aaw report {i} passed", r.passed is True) for i, r in enumerate(result["reports"])]
    return checks


# -- hunt ------------------------------------------------------------------


def run_hunt(p: dict, workdir: str):
    pow2 = qdissect.residue_table(p["pow2_terms"], max(POW2_MODULI))
    pow2_survivors = qdissect.scan(p["pow2_max_a"], list(POW2_MODULI), pow2)
    family = qdissect.verify_family(FAMILY_ALPHA_MAX, pow2)
    internal = [
        qdissect.check_internal(ic, pow2)
        for ic in qdissect.INTERNAL_PROVED + qdissect.INTERNAL_CONJECTURED
    ]
    other = qdissect.residue_table(p["other_terms"], max(OTHER_MODULI))
    other_survivors = qdissect.scan(p["other_max_a"], list(OTHER_MODULI), other)
    return {
        "pow2": pow2,
        "pow2_survivors": pow2_survivors,
        "family": family,
        "internal": internal,
        "other": other,
        "other_survivors": other_survivors,
    }


def check_hunt(result, p: dict, seed: int, profile_name: str) -> list[tuple[str, bool]]:
    expected = _expected(profile_name)
    ref = qdissect.s_series(p["spot_ref_terms"])
    idx = random.Random(seed).sample(range(p["spot_ref_terms"]), p["spot_checks"])
    pow2, other = result["pow2"], result["other"]
    mp, mo = max(POW2_MODULI), max(OTHER_MODULI)
    checks = [
        ("pow2 table precision", pow2.precision == p["pow2_terms"]),
        ("other table precision", other.precision == p["other_terms"]),
        ("pow2 table spot checks", all(pow2[i] == ref[i] % mp for i in idx)),
        ("other table spot checks", all(other[i] == ref[i] % mo for i in idx)),
    ]
    checks += [
        (f"family alpha={f.alpha} holds", f.testable and f.result.holds)
        for f in result["family"]
    ]
    checks += [
        (f"internal ({ic.a},{ic.b},{ic.c},{ic.d},{ic.M}) holds", ic.holds)
        for ic in result["internal"]
    ]
    checks += [
        (f"{FAMILY_HEAD} among survivors", FAMILY_HEAD in {(t.A, t.B, t.M) for t in result["pow2_survivors"]}),
        ("pow2 survivor set as recorded", survivor_digest(result["pow2_survivors"]) == expected["pow2_survivors"]),
        ("other survivor set as recorded", survivor_digest(result["other_survivors"]) == expected["other_survivors"]),
    ]
    return checks


WORKLOADS = {
    "catalog": (run_catalog, check_catalog),
    "exact": (run_exact, check_exact),
    "hunt": (run_hunt, check_hunt),
}
