"""Verification-suite machinery tests (small, fast configurations)."""

import dataclasses
import math
import random

import pytest

from kahlerstar import geometry, operators, verify
from kahlerstar.expressions import eval_value, parse, to_source
from kahlerstar.geometry import build_chart, jacobi_residual, metric_derivative_values, worst_abs
from kahlerstar.jets import iter_multi_indices_upto
from kahlerstar.operators import OperatorBreakdown, StarVariant, star_product
from kahlerstar.verify import (
    CheckResult,
    RandomChartSpec,
    check_associativity,
    check_covariance,
    check_finite_differences,
    check_flat_vanishing,
    check_gauge,
    check_prop1,
    check_separation,
    check_structural,
    random_chart,
    random_polynomial,
    random_potential,
)

FS = "log(1+z1*zb1)"


def test_check_result_pass_rule():
    assert CheckResult("x", 1e-9, 1e-8, "").passed
    assert not CheckResult("x", 2e-8, 1e-8, "").passed
    assert CheckResult("x", 0.0, 0.0, "").passed


def test_random_potential_epsilon_zero_is_flat():
    spec = RandomChartSpec(n=2, epsilon=0.0, seed=5)
    potential = random_potential(spec)
    flat = parse("z1*zb1+z2*zb2", 2)
    # every perturbation term carries a zero coefficient; values agree exactly
    rng = random.Random(1)
    for _ in range(5):
        z = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        zb = [v.conjugate() for v in z]
        assert eval_value(potential, z, zb) == eval_value(flat, z, zb)


def test_random_potential_deterministic():
    spec = RandomChartSpec(n=1, degree=3, epsilon=0.1, seed=42)
    assert random_potential(spec) == random_potential(spec)
    assert to_source(random_potential(spec)) == to_source(random_potential(spec))


def test_random_potential_seed42_metric_bound():
    spec = RandomChartSpec(n=1, degree=3, epsilon=0.1, seed=42)
    _, ctx, _ = random_chart(spec)
    g00 = ctx.g_dn_array[0, 0, 0]
    assert 0.5 <= abs(g00) <= 1.5


def test_random_potential_is_real_on_diagonal():
    spec = RandomChartSpec(n=2, degree=2, epsilon=0.2, seed=9)
    potential = random_potential(spec)
    rng = random.Random(2)
    for _ in range(5):
        z = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(2)]
        zb = [v.conjugate() for v in z]
        value = eval_value(potential, z, zb)
        assert abs(value.imag) < 1e-14


def _random_polynomial_reference(rng, n, degree=3, kind="mixed"):
    """``random_polynomial`` as it was written first: the multi-index generator re-run
    for every alpha."""
    zero = (0,) * n
    if kind == "mixed":
        return [
            (verify._disk_coefficient(rng), alpha + beta)
            for alpha in iter_multi_indices_upto(n, degree)
            for beta in iter_multi_indices_upto(n, degree)
        ]
    barred = kind == "antiholomorphic"
    return [
        (verify._disk_coefficient(rng), zero + alpha if barred else alpha + zero)
        for alpha in iter_multi_indices_upto(n, degree)
        if sum(alpha)
    ]


@pytest.mark.parametrize("kind", ["mixed", "holomorphic", "antiholomorphic"])
@pytest.mark.parametrize("n", [1, 2])
def test_random_polynomial_draws_the_reference_terms(n, kind):
    for seed in range(10):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        for _ in range(2):  # and leaves the stream where the reference leaves it
            terms = random_polynomial(rng, n, kind=kind).terms
            assert terms == tuple(_random_polynomial_reference(reference_rng, n, kind=kind))


def test_associativity_on_presets():
    ctx = build_chart(FS, (0.3 + 0.1j,), order=10)
    rng = random.Random(3)
    f = random_polynomial(rng, 1, 2)
    g = random_polynomial(rng, 1, 2)
    h = random_polynomial(rng, 1, 2)
    for variant in StarVariant:
        for result in check_associativity(ctx, variant, f, g, h):
            assert result.passed, result


def test_associativity_needs_jet_order():
    # the least chart order is enough: the inner products read nothing deeper
    with pytest.raises(ValueError, match="at least 6"):
        build_chart(FS, (0.0,), order=5)
    ctx = build_chart(FS, (0.0,), order=6)
    results = check_associativity(ctx, StarVariant.STANDARD, "zb1", "z1*zb1", "z1")
    assert len(results) == 4 and all(r.passed for r in results)


@pytest.mark.parametrize("term", ["_curvature_term"])
def test_associativity_catches_a_third_order_coefficient_error(monkeypatch, term):
    # the inner C3 is carried at the base point only: still enough to see a relative
    # error of 1e-6 in its curvature term (the _triple term is a mutation-matrix row)
    original = getattr(operators, term)
    monkeypatch.setattr(operators, term, lambda fj, gj, ctx: original(fj, gj, ctx) * (1 + 1e-6))
    for n in (1, 2):
        _, ctx, rng = random_chart(RandomChartSpec(n=n, seed=1))
        f, g, h = (random_polynomial(rng, n) for _ in range(3))
        results = [
            r for variant in StarVariant for r in check_associativity(ctx, variant, f, g, h)
        ]
        assert not all(r.passed for r in results), (term, n)


@pytest.mark.xfail(
    strict=True,
    reason="the absolute bounds 1e-11 and 1e-10 are below the roundoff of large operator values",
)
@pytest.mark.parametrize(
    "seed, name",
    [
        (684880721, "c3_decomposition"),
        (340304798, "c3_decomposition"),
        (312861499, "c3_decomposition"),
        (312861499, "prop1_s_equals_stilde"),
        (880910718, "c3_decomposition"),
    ],
)
def test_c3_decomposition_passes_on_charts_with_large_operator_values(seed, name):
    # random n=2 charts of the benchmark's verify-n2 streams (seeds 5002 and 23105,
    # seed 3001's 736th chart and seed 30001's 709th); f and g are drawn as
    # _chart_checks draws them, and the residuals read 2.30e-11, 2.21e-11, 2.60e-10,
    # 8.65e-10 and 6.51e-11
    _, ctx, rng = random_chart(RandomChartSpec(n=2, seed=seed))
    f, g = random_polynomial(rng, 2), random_polynomial(rng, 2)
    check = check_prop1 if name.startswith("prop1") else check_structural
    result = next(r for r in check(ctx, f, g) if r.name == name)
    assert result.passed, result.residual


def test_separation_checks_pass():
    ctx = build_chart(FS, (0.4,), order=10)
    rng = random.Random(4)
    results = check_separation(
        ctx,
        random_polynomial(rng, 1, kind="holomorphic"),
        random_polynomial(rng, 1),
        random_polynomial(rng, 1, kind="antiholomorphic"),
    )
    assert len(results) == 8
    for result in results:
        assert result.residual == 0.0


def test_separation_reads_each_product_once(monkeypatch):
    # mixed a and b, so that every residual is the nonzero |C_r| of a product
    ctx = random_chart(RandomChartSpec(n=2, seed=5))[1]
    rng = random.Random(3)
    a, f, b = (random_polynomial(rng, 2) for _ in range(3))
    fresh = dataclasses.replace(ctx, _cache={})
    products = {
        variant: (star_product(a, f, fresh, variant), star_product(f, b, fresh, variant))
        for variant in StarVariant
    }
    left, right = products[StarVariant.STANDARD]
    expected = [abs(p[r]) for r in range(1, 4) for p in (left, right)]
    expected += [abs(p[3]) for p in products[StarVariant.MODIFIED]]
    calls = []

    def counted(*args):
        calls.append(args[3])
        return star_product(*args)

    monkeypatch.setattr(verify, "star_product", counted)
    results = check_separation(ctx, a, f, b)
    assert calls == [StarVariant.STANDARD, StarVariant.STANDARD]
    assert [r.residual for r in results] == expected
    assert min(expected) > 0.0


def test_prop1_structural_flat_exact():
    ctx = build_chart("z1*zb1+z2*zb2", (0.2, -0.3 + 0.1j), order=10)
    rng = random.Random(6)
    f = random_polynomial(rng, 2, 2)
    g = random_polynomial(rng, 2, 2)
    for result in check_prop1(ctx, f, g):
        assert result.residual == 0.0
    flat = check_flat_vanishing(ctx, f, g)
    assert flat.residual == 0.0 and flat.tolerance == 0.0
    for result in check_structural(ctx, f, g):
        assert result.passed, result


def test_prop1_fubini_study():
    ctx = build_chart(FS, (0.7,), order=10)
    for result in check_prop1(ctx, "zb1^2+z1*zb1", "z1^3"):
        assert result.residual <= 1e-10, result


def test_gauge_check():
    ctx = build_chart(FS, (0.2,), order=10)
    result = check_gauge(
        parse(FS, 1), parse("z1^3", 1), parse("zb1^3", 1), ctx, "zb1^2", "z1^2+z1*zb1"
    )
    assert result.passed, result
    with pytest.raises(ValueError):
        check_gauge(parse(FS, 1), parse("zb1", 1), parse("zb1", 1), ctx, "zb1", "z1")


def test_covariance_identity_and_affine():
    identity = check_covariance("z1*zb1", ["z1"], ["z1"], (0.4,), "zb1^2", "z1^2")
    assert identity.residual <= 1e-12
    affine = check_covariance("z1*zb1", ["2*z1"], ["0.5*z1"], (0.4,), "zb1^2", "z1^2")
    assert affine.residual <= 1e-10


def test_covariance_moebius():
    result = check_covariance(
        FS, ["z1/(1-z1)"], ["z1/(1+z1)"], (0.3,), "zb1^2+z1*zb1", "z1^2+z1"
    )
    assert result.residual <= 1e-7, result


def test_covariance_under_a_shear_that_mixes_two_variables():
    # the n=1 maps above never mix variables; this one moves z1 along z2^2.  Degree 2
    # keeps the pulled-back trees small: degree 3 costs three to four times as much
    z0 = (0.1 - 0.05j, 0.12 + 0.08j)
    potential = random_potential(RandomChartSpec(n=2, degree=2, seed=3), at=z0)
    rng = random.Random(5)
    f, g = random_polynomial(rng, 2, degree=2), random_polynomial(rng, 2, degree=2)
    result = check_covariance(
        potential, ["z1+0.3*z2^2", "z2"], ["z1-0.3*z2^2", "z2"], z0, f, g, order=6
    )
    assert result.passed and result.residual <= 1e-12, result


def test_covariance_rejects_non_inverse():
    with pytest.raises(ValueError):
        check_covariance("z1*zb1", ["2*z1"], ["z1"], (0.4,), "zb1", "z1")


def test_oracle_agreement_trials():
    results = []
    for seed in (11, 12):
        _, ctx, rng = random_chart(RandomChartSpec(n=1, seed=seed))
        f, g = random_polynomial(rng, 1), random_polynomial(rng, 1)
        results += verify.oracle_agreement_checks(ctx, f, g)
    assert len(results) == 6
    for result in results:
        assert result.passed, result


def test_finite_differences_on_presets():
    for potential, point in [("z1*zb1", (0.5,)), (FS, (0.3 + 0.2j,)), ("-(log(1-z1*zb1))", (0.2,))]:
        result = check_finite_differences(potential, point)
        assert result.passed, result


# -- residuals that are not numbers must fail -----------------------------------


def test_worst_abs_treats_nonfinite_as_infinite():
    assert worst_abs([]) == 0.0
    assert worst_abs([0.5, -2.0 + 0j, 1e-3j]) == 2.0
    assert worst_abs([0.0, math.nan, 1.0]) == math.inf
    assert worst_abs([complex(1.0, math.inf)]) == math.inf
    assert max(0.0, math.nan) == 0.0  # why a plain running max is not used


def test_nan_breakdown_fails_flat_vanishing(monkeypatch):
    ctx = build_chart("z1*zb1", (0.3,), order=10)
    poisoned = OperatorBreakdown(p=0.0, q=0.0, r=complex(math.nan, 0.0), s=0.0, s_tilde=0.0)
    monkeypatch.setattr(verify, "operator_breakdown", lambda f, g, ctx: poisoned)
    result = check_flat_vanishing(ctx, "zb1^2", "z1^2")
    assert result.residual == math.inf
    assert not result.passed


def test_nan_metric_derivative_fails_jacobi(monkeypatch):
    ctx = build_chart("z1*zb1+z2*zb2", (0.2, -0.1j), order=10)
    dgu, dgu_bar = metric_derivative_values(ctx)
    dgu[1, 1, 0] = complex(math.nan, 0.0)
    monkeypatch.setattr(geometry, "metric_derivative_values", lambda ctx: (dgu, dgu_bar))
    assert jacobi_residual(ctx) == math.inf
    structural = {r.name: r for r in check_structural(ctx, "zb1*zb2", "z1^2")}
    assert not structural["jacobi_identity"].passed


def test_dimension_three_chart_passes_every_check():
    # reaches the oracle's redundant cross-check over three axes and the
    # O(n^8) loops of the prop1 identities and of S, which n <= 2 never run
    potential, ctx, rng = random_chart(RandomChartSpec(n=3, seed=5))
    results = verify._chart_checks(potential, ctx, rng, "random seed=5 n=3")
    assert len(results) == 27
    assert [r.name for r in results if not r.passed] == []
