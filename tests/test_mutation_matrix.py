"""Which suite checks catch which wrong term.

One table of mutants, each a small error in one term of the covariant route or the
recursion, with the exact set of check names it fails when
``verify._chart_checks`` runs on one random n=1 and one random n=2 chart, each
with a fresh memo.  A set that grows or shrinks shows a check that started or
stopped guarding its term.
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


def _failing(chart) -> set:
    potential, ctx, state = chart
    rng = random.Random()
    rng.setstate(state)
    results = verify._chart_checks(potential, dataclasses.replace(ctx, _cache={}), rng, "")
    return {r.name for r in results if not r.passed}


def test_the_unmutated_suite_passes(chart):
    assert _failing(chart) == set()


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
