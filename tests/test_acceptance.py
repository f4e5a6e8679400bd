"""Acceptance criteria, one test per criterion.

The default suite (four presets plus twenty seeded random Hermitian
polynomial charts, dimensions alternating between 1 and 2, degree 3,
perturbation 0.1, jet order 10) is computed once; each criterion filters
the results it owns, holds them to its stated tolerance and prints a
single PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines.
"""

import hashlib

import pytest

from kahlerstar.geometry import build_chart, curvature
from kahlerstar.operators import c3, c3_tilde
from kahlerstar.verify import run_suite

TRIALS = 20
SEED = 0
ORDER = 10


@pytest.fixture(scope="module")
def suite():
    return run_suite(trials=TRIALS, seed=SEED, order=ORDER)


def _criterion(suite, number, description, prefixes, tolerance):
    matching = [r for r in suite if any(r.name.startswith(p) for p in prefixes)]
    assert matching, f"no checks matched {prefixes}"
    worst = max(matching, key=lambda r: r.residual)
    ok = all(r.residual <= tolerance for r in matching)
    print(
        f"{'PASS' if ok else 'FAIL'} criterion {number}: {description} "
        f"({len(matching)} checks, worst residual {worst.residual:.3e} <= {tolerance:.1e})"
    )
    assert ok, f"criterion {number} violated by {worst}"


def test_criterion_1_oracle_equivalence(suite):
    _criterion(
        suite,
        1,
        "covariant formulas match the recursion oracle for r=1..3",
        ["oracle_agreement_r"],
        1e-8,
    )


def test_criterion_2_associativity(suite):
    _criterion(
        suite,
        2,
        "associativity at formal orders 0..3, both variants",
        ["associativity_standard_", "associativity_modified_"],
        1e-8,
    )


def test_criterion_3_separation(suite):
    _criterion(
        suite,
        3,
        "separation of variables at formal orders 1..3",
        ["separation_hol_", "separation_anti_"],
        1e-10,
    )


def test_criterion_4_proof_identities(suite):
    _criterion(
        suite,
        4,
        "proof identities componentwise and S equals S-tilde",
        ["prop1_"],
        1e-10,
    )
    flat = [r for r in suite if r.name == "flat_qrss_vanish"]
    assert flat, "flat charts must assert exact vanishing"
    ok = all(r.residual == 0.0 for r in flat)
    print(
        f"{'PASS' if ok else 'FAIL'} criterion 4b: Q, R, S, S-tilde vanish exactly on flat "
        f"charts ({len(flat)} checks)"
    )
    assert ok


def test_criterion_5_structural_identities(suite):
    for prefix, tol, what in [
        ("c3_decomposition", 1e-11, "C3 = P/6 - Q/4"),
        ("c2_expanded_equals_covariant", 1e-10, "expanded vs covariant C2"),
        ("curvature_raising_consistency", 1e-10, "curvature index raising"),
        ("jacobi_identity", 1e-10, "Jacobi identity"),
    ]:
        matching = [r for r in suite if r.name == prefix]
        assert matching
        worst = max(r.residual for r in matching)
        ok = worst <= tol
        print(
            f"{'PASS' if ok else 'FAIL'} criterion 5 ({what}): worst residual "
            f"{worst:.3e} <= {tol:.1e}"
        )
        assert ok


def test_criterion_6_gauge_invariance(suite):
    _criterion(
        suite,
        6,
        "oracle values unchanged under potential gauge shifts",
        ["gauge_invariance"],
        1e-8,
    )


def test_criterion_7_coordinate_covariance(suite):
    _criterion(
        suite,
        7,
        "operator values invariant under the Moebius coordinate change",
        ["covariance_moebius_map"],
        1e-7,
    )


def test_criterion_8_spot_values():
    fs0 = build_chart("log(1+z1*zb1)", (0.0,), order=ORDER)
    flat = build_chart("z1*zb1", (0.0,), order=ORDER)
    spots = [
        ("curvature component on the unit-curvature chart", curvature(fs0).r_up[0][0][0][0], 2.0),
        ("C3(zb1^2, z1^2) at the origin", c3("zb1^2", "z1^2", fs0), 2.0),
        ("modified C3(zb1, z1) at the origin", c3_tilde("zb1", "z1", fs0), 1.0 / 3.0),
        ("flat C3(zb1^3, z1^3)", c3("zb1^3", "z1^3", flat), 6.0),
    ]
    worst = max(abs(value - expected) for _, value, expected in spots)
    ok = worst <= 1e-10
    print(f"{'PASS' if ok else 'FAIL'} criterion 8: spot values (worst deviation {worst:.3e} <= 1e-10)")
    for what, value, expected in spots:
        assert value == pytest.approx(expected, abs=1e-10), what
    assert ok


def test_criterion_9_jet_finite_differences(suite):
    _criterion(
        suite,
        9,
        "first-order jet derivatives vs central finite differences",
        ["jet_finite_differences"],
        1e-6,
    )


def test_the_seed_0_report_keeps_its_residual_bits(suite):
    # every row of the report: name, context and the residual's exact bits
    rows = "".join(f"{r.name}|{r.context}|{float(r.residual).hex()}\n" for r in suite)
    assert len(suite) == 657
    assert hashlib.sha256(rows.encode()).hexdigest() == (
        "97925d1474dea13f00ba109b32901d473a1762f70cd0e1592b9f1b9f976a6cf3"
    )
