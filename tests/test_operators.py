"""Bidifferential operator tests against hand-computed values.

Hand oracles (all dimension 1 unless noted): on the flat chart every
Christoffel symbol and curvature component vanishes, so operators reduce
to weighted derivative pairings; on the Fubini-Study chart at the origin
the inverse metric is 1, Christoffel symbols vanish and the only curvature
component equals 2.
"""

import random

import pytest

from kahlerstar import geometry
from kahlerstar.expressions import parse
from kahlerstar.geometry import as_chart_jet, build_chart
from kahlerstar.operators import (
    NuPolynomial,
    StarVariant,
    _p_jet,
    _q_jet,
    c1,
    c1_jet,
    c2,
    c2_expanded,
    c2_jet,
    c3,
    c3_jet,
    c3_tilde,
    c3_tilde_jet,
    operator_breakdown,
    poisson_antisymmetry,
    r_operator,
    r_operator_jet,
    star_product,
)
from kahlerstar.oracle import build_left_mult
from kahlerstar.verify import RandomChartSpec, random_chart

FS = "log(1+z1*zb1)"


@pytest.fixture(scope="module")
def flat1():
    return build_chart("z1*zb1", (0.5 - 0.2j,), order=10)


@pytest.fixture(scope="module")
def fs0():
    return build_chart(FS, (0.0,), order=10)


@pytest.fixture(scope="module")
def fs1():
    return build_chart(FS, (1.0,), order=10)


def test_c1_flat(flat1):
    assert c1("zb1", "z1", flat1) == pytest.approx(1.0)


def test_c1_flat_quadratic():
    ctx = build_chart("z1*zb1", (1.0,), order=10)
    assert c1("zb1^2", "z1^2", ctx) == pytest.approx(4.0)


def test_c1_fubini_study_at_one(fs1):
    assert c1("zb1", "z1", fs1) == pytest.approx(4.0, abs=1e-12)


def test_c1_flat_n2():
    ctx = build_chart("z1*zb1+z2*zb2", (0.5, -0.3), order=10)
    assert c1("zb1*zb2", "z1*z2+z1^2", ctx) == pytest.approx(0.04, abs=1e-12)


def test_c2_flat(flat1):
    assert c2("zb1^2", "z1^2", flat1) == pytest.approx(2.0)


def test_c2_holomorphic_first_argument_vanishes(fs1):
    assert abs(c2("z1^2+1", "z1^2*zb1", fs1)) == 0.0


def test_c2_fubini_study_origin(fs0):
    assert c2("zb1^2", "z1^2", fs0) == pytest.approx(2.0, abs=1e-12)


def test_c2_expanded_matches_covariant(fs1):
    rng = random.Random(53)
    for _ in range(5):
        f = f"zb1^2+({rng.uniform(-1,1):.4f})*z1*zb1+zb1^3"
        g = f"z1^2+({rng.uniform(-1,1):.4f})*z1^3+z1*zb1"
        assert c2_expanded(f, g, fs1) == pytest.approx(c2(f, g, fs1), abs=1e-10)


def test_c3_flat_cubic(flat1):
    assert c3("zb1^3", "z1^3", flat1) == pytest.approx(6.0, abs=1e-11)


def test_c3_fubini_study_origin(fs0):
    assert c3("zb1^2", "z1^2", fs0) == pytest.approx(2.0, abs=1e-11)


def test_c3_first_order_arguments_at_origin(fs0):
    # Christoffel symbols vanish at the origin, so every covariant
    # derivative of zb1 beyond the first does too.
    assert abs(c3("zb1", "z1", fs0)) <= 1e-13


def test_c3_first_order_arguments_at_one(fs1):
    # Hand value at z=1: f_/2 = g_/2 = 1, f_/3 = g_/3 = 3/2, gu = 4,
    # r_raised = 16 * 2, so C3 = (1/6)*64*(9/4) + (1/4)*32 = 24 + 8.
    # Cross-validated against the recursion oracle in test_oracle.py.
    assert c3("zb1", "z1", fs1) == pytest.approx(32.0, abs=1e-10)


def test_breakdown_flat(flat1):
    bd = operator_breakdown("zb1^3+zb1^2", "z1^3+z1*zb1", flat1)
    assert bd.q == 0.0
    assert bd.r == 0.0
    assert bd.s == 0.0
    assert bd.s_tilde == 0.0
    assert bd.p == pytest.approx(6.0 * c3("zb1^3+zb1^2", "z1^3+z1*zb1", flat1), abs=1e-10)


def test_breakdown_fubini_study_origin(fs0):
    bd = operator_breakdown("zb1", "z1", fs0)
    assert bd.r == pytest.approx(4.0, abs=1e-12)
    assert bd.s == 0.0
    assert bd.s_tilde == 0.0


def test_s_equals_s_tilde(fs1):
    rng = random.Random(59)
    for _ in range(4):
        f = f"zb1^2+({rng.uniform(-1,1):.4f})*z1*zb1"
        g = f"z1^3+({rng.uniform(-1,1):.4f})*z1*zb1"
        bd = operator_breakdown(f, g, fs1)
        assert bd.s == pytest.approx(bd.s_tilde, abs=1e-10)


def test_c3_decomposition(fs1):
    f, g = "zb1^3+z1*zb1^2", "z1^3+z1^2*zb1"
    bd = operator_breakdown(f, g, fs1)
    assert c3(f, g, fs1) == pytest.approx(bd.p / 6.0 - bd.q / 4.0, abs=1e-11)


def test_c3_tilde_flat_equals_c3(flat1):
    f, g = "zb1^3+zb1", "z1^3+z1"
    assert c3_tilde(f, g, flat1) == c3(f, g, flat1)


def test_c3_tilde_fubini_study_origin(fs0):
    assert c3_tilde("zb1", "z1", fs0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_c3_tilde_constant_argument(fs1):
    assert c3_tilde("3", "z1^2", fs1) == 0.0
    assert r_operator("zb1^2", "2", fs1) == 0.0


def test_star_product_unit(fs1):
    out = star_product("1", "z1^2+zb1", fs1)
    assert out[0] == pytest.approx(2.0)  # value of g at z=zb=1
    assert out[1] == out[2] == out[3] == 0.0


def test_star_product_flat():
    ctx = build_chart("z1*zb1", (0.0,), order=10)
    out = star_product("zb1", "z1", ctx)
    assert out.c == (0j, 1 + 0j, 0j, 0j)


def test_star_product_fubini_study_modified(fs0):
    out = star_product("zb1", "z1", fs0, StarVariant.MODIFIED)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(1.0)
    assert out[2] == 0.0
    assert out[3] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_separation_of_variables(fs1):
    for variant in StarVariant:
        left = star_product("z1^2+2*z1", "z1*zb1^2+zb1", fs1, variant)
        for r in range(1, 4):
            assert abs(left[r]) <= 1e-10
        right = star_product("z1*zb1^2+zb1", "zb1^3-zb1", fs1, variant)
        for r in range(1, 4):
            assert abs(right[r]) <= 1e-10


def test_poisson_antisymmetry(fs1):
    chk = poisson_antisymmetry("zb1^2+z1", "z1^2+zb1", fs1)
    assert chk.antisymmetrized == pytest.approx(chk.bracket, abs=1e-12)
    flat = build_chart("z1*zb1", (0.0,), order=10)
    assert poisson_antisymmetry("zb1", "z1", flat).antisymmetrized == pytest.approx(1.0)
    same = poisson_antisymmetry("z1*zb1", "z1*zb1", fs1)
    assert abs(same.antisymmetrized) <= 1e-14
    hol = poisson_antisymmetry("z1^2", "z1", fs1)
    assert abs(hol.antisymmetrized) == 0.0


def test_nu_polynomial_truncating_product():
    a = NuPolynomial((1, 1, 0, 0))
    b = NuPolynomial((1, -1, 1, 0))
    assert (a * b).c == (1 + 0j, 0j, 0j, 1 + 0j)
    assert (a + b).c == (2 + 0j, 0j, 1 + 0j, 0j)
    with pytest.raises(ValueError):
        NuPolynomial((1, 2, 3))


def test_each_function_is_evaluated_once_per_chart(monkeypatch):
    ctx = build_chart(FS, (0.3 - 0.1j,), order=10)
    other = build_chart(FS, (0.2j,), order=10)
    evaluated = []
    real_eval_jet = geometry.eval_jet

    def counting_eval_jet(expr, *args):
        evaluated.append(expr)
        return real_eval_jet(expr, *args)

    monkeypatch.setattr(geometry, "eval_jet", counting_eval_jet)
    f_src, g_src = "zb1^2 + z1*zb1^3", "z1^3 - 2*z1*zb1"
    for f, g in ((f_src, g_src), (parse(f_src, 1), parse(g_src, 1))):
        star_product(f, g, ctx, StarVariant.MODIFIED)
        for op in (c1, c2, c3, c3_tilde, operator_breakdown):
            op(f, g, ctx)
        build_left_mult(f, ctx)[3].apply(g, ctx)
    assert evaluated == [parse(f_src, 1), parse(g_src, 1)]

    c3(f_src, g_src, other)
    assert len(evaluated) == 4
    for chart in (ctx, other):
        for src in (f_src, g_src):
            fresh = real_eval_jet(parse(src, 1), chart.z0, chart.zb0, chart.order)
            assert as_chart_jet(src, chart) == fresh


@pytest.fixture(scope="module")
def random_n2():
    return random_chart(RandomChartSpec(n=2, seed=3))[1]


@pytest.mark.parametrize(
    "op", [c1_jet, c2_jet, c3_jet, c3_tilde_jet, r_operator_jet, _p_jet, _q_jet],
    ids=lambda op: op.__name__,
)
def test_operator_truncation_coherence(random_n2, op):
    f, g = "zb1^2*z2 + zb2^3 + z1*zb1*zb2", "z1^3*zb2 + z2^2*z1 + z1*zb1"
    full = op(f, g, random_n2, 4)
    for t in range(5):
        expected = full.truncated(t)
        scale = expected.max_abs()
        assert scale > 0
        assert (op(f, g, random_n2, t) - expected).max_abs() <= 1e-12 * scale
