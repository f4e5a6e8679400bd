"""Which suite checks catch which wrong term.

One table of mutants, each a small error in one term of the covariant route or the
recursion, with the exact set of check names it fails when
``verify._chart_checks`` runs on one random n=1 and one random n=2 chart, each
with a fresh memo.  A set that grows or shrinks shows a check that started or
stopped guarding its term.

The unmutated suite's residuals on those charts are pinned to the bit: each
residual's ``float.hex`` must equal the entry of the same name in ``RESIDUALS``,
captured at commit 4860714, except the n=2 ``c2_expanded_equals_covariant`` entry,
recaptured when ``c2_expanded`` was rewritten through the Poisson tensor.  A change
that moves a last bit fails here: it updates the entry and records the move in
``CHANGES.md``.
"""

import dataclasses
import random

import pytest

from kahlerstar import operators, oracle, verify
from kahlerstar.verify import RandomChartSpec, random_chart
from tests.test_operators import _patch_everywhere


def _scaled(factor):
    def wrap(original):
        return lambda *args: original(*args) * factor

    return wrap


def _tensors_scaled(factor):
    def wrap(original):
        return lambda *args: [None if t is None else t * factor for t in original(*args)]

    return wrap


def _associativity(*orders):
    return {f"associativity_{v}_order{r}" for v in ("standard", "modified") for r in orders}


#: (mutated function, its module, wrapper, check names that must fail)
CAUGHT = [
    pytest.param(
        "c2_jet", operators, _scaled(1 + 1e-6),
        {*_associativity(2, 3), "c2_expanded_equals_covariant", "oracle_agreement_r2"},
        id="c2_jet",
    ),
    pytest.param(
        "_curvature_term", operators, _scaled(1 + 1e-6),
        {*_associativity(3), "oracle_agreement_r3"},
        id="_curvature_term",
    ),
    pytest.param(
        "_triple", operators, _scaled(1 + 1e-6),
        {*_associativity(3), "c3_decomposition", "oracle_agreement_r3"},
        id="_triple",
    ),
    pytest.param(
        "c2_expanded", operators, _scaled(1 + 1e-6),
        {"c2_expanded_equals_covariant"},
        id="c2_expanded",
    ),
    pytest.param(
        "c1_jet", operators, _scaled(1 + 1e-6),
        {*_associativity(2, 3), "oracle_agreement_r1"},
        id="c1_jet",
    ),
    pytest.param(
        "_solve_level", oracle, _tensors_scaled(1 + 1e-3),
        {f"oracle_agreement_r{r}" for r in (1, 2, 3)},
        id="_solve_level",
    ),
]


@pytest.fixture(scope="module", params=[1, 2], ids=["n1", "n2"])
def chart(request):
    n = request.param
    potential, ctx, rng = random_chart(RandomChartSpec(n=n, seed=n))
    return potential, ctx, rng.getstate()


def _results(chart) -> list:
    potential, ctx, state = chart
    rng = random.Random()
    rng.setstate(state)
    return verify._chart_checks(potential, dataclasses.replace(ctx, _cache={}), rng, "")


def _failing(chart) -> set:
    return {r.name for r in _results(chart) if not r.passed}


def test_the_unmutated_suite_passes(chart):
    assert _failing(chart) == set()


#: n -> {check name: float.hex of its residual}
RESIDUALS = {
    1: {
        "oracle_agreement_r1": "0x1.5cc876905ab08p-55",
        "oracle_agreement_r2": "0x1.00d847233d085p-53",
        "oracle_agreement_r3": "0x1.115a7870f12d0p-53",
        "associativity_standard_order0": "0x0.0p+0",
        "associativity_standard_order1": "0x1.8000000000000p-54",
        "associativity_standard_order2": "0x1.4000000000000p-50",
        "associativity_standard_order3": "0x1.2000000000000p-47",
        "associativity_modified_order0": "0x0.0p+0",
        "associativity_modified_order1": "0x1.8000000000000p-54",
        "associativity_modified_order2": "0x1.4000000000000p-50",
        "associativity_modified_order3": "0x1.0000000000000p-47",
        "separation_hol_order1": "0x0.0p+0",
        "separation_anti_order1": "0x0.0p+0",
        "separation_hol_order2": "0x0.0p+0",
        "separation_anti_order2": "0x0.0p+0",
        "separation_hol_order3": "0x0.0p+0",
        "separation_anti_order3": "0x0.0p+0",
        "separation_hol_order3_modified": "0x0.0p+0",
        "separation_anti_order3_modified": "0x0.0p+0",
        "prop1_first_identity": "0x1.1eed72faed6bcp-56",
        "prop1_second_identity": "0x1.1eed72faed6bcp-56",
        "prop1_s_equals_stilde": "0x1.94c583ada5b53p-60",
        "c3_decomposition": "0x1.6000000000000p-51",
        "c2_expanded_equals_covariant": "0x1.0000000000000p-51",
        "curvature_raising_consistency": "0x1.007a1e4f5f895p-54",
        "jacobi_identity": "0x0.0p+0",
        "gauge_invariance": "0x0.0p+0",
    },
    2: {
        "oracle_agreement_r1": "0x0.0p+0",
        "oracle_agreement_r2": "0x1.711f363050c9dp-55",
        "oracle_agreement_r3": "0x1.709dda3cc0e55p-54",
        "associativity_standard_order0": "0x0.0p+0",
        "associativity_standard_order1": "0x1.8000000000000p-52",
        "associativity_standard_order2": "0x0.0p+0",
        "associativity_standard_order3": "0x1.65c55827df1d2p-47",
        "associativity_modified_order0": "0x0.0p+0",
        "associativity_modified_order1": "0x1.8000000000000p-52",
        "associativity_modified_order2": "0x0.0p+0",
        "associativity_modified_order3": "0x1.4975cd5768088p-47",
        "separation_hol_order1": "0x0.0p+0",
        "separation_anti_order1": "0x0.0p+0",
        "separation_hol_order2": "0x0.0p+0",
        "separation_anti_order2": "0x0.0p+0",
        "separation_hol_order3": "0x0.0p+0",
        "separation_anti_order3": "0x0.0p+0",
        "separation_hol_order3_modified": "0x0.0p+0",
        "separation_anti_order3_modified": "0x0.0p+0",
        "prop1_first_identity": "0x1.854bfb363dc39p-56",
        "prop1_second_identity": "0x1.854bfb363dc39p-55",
        "prop1_s_equals_stilde": "0x1.465655f122ff6p-55",
        "c3_decomposition": "0x1.6a09e667f3bcdp-52",
        "c2_expanded_equals_covariant": "0x0.0p+0",
        "curvature_raising_consistency": "0x1.01fe03f61bad0p-52",
        "jacobi_identity": "0x1.1e3779b97f4a8p-55",
        "gauge_invariance": "0x0.0p+0",
    },
}


def test_the_unmutated_suite_keeps_its_residual_bits(chart):
    n = chart[1].n
    assert {r.name: float(r.residual).hex() for r in _results(chart)} == RESIDUALS[n]


@pytest.mark.parametrize("name, module, wrap, expected", CAUGHT)
def test_each_mutant_fails_exactly_its_checks(monkeypatch, chart, name, module, wrap, expected):
    _patch_everywhere(monkeypatch, name, wrap(getattr(module, name)), module)
    assert _failing(chart) == expected


@pytest.mark.xfail(strict=True, reason="no suite check sees the normalisation of R")
@pytest.mark.parametrize("factor", [1 + 1e-6, 2.0, 0.0])
def test_a_wrong_r_operator_fails_some_check(monkeypatch, chart, factor):
    mutant = _scaled(factor)(operators.r_operator_jet)
    _patch_everywhere(monkeypatch, "r_operator_jet", mutant, operators)
    assert _failing(chart)
