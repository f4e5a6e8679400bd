"""Recursion-oracle tests and the central covariant-vs-recursion cross check.

Flat-chart closed forms: A_1 = (dbar f) d, A_2 = (dbar^2 f / 2) d^2,
A_3 = (dbar^3 f / 6) d^3, obtained by running the commutator recursion
with a constant metric by hand.
"""

import dataclasses
import inspect
import math
import random

import numpy as np
import pytest

from kahlerstar import operators, oracle, verify
from kahlerstar.geometry import build_chart
from kahlerstar.jets import Jet, _tables
from kahlerstar.operators import c1, c2, c3
from kahlerstar.oracle import OracleConsistencyError, _require_agreement, build_left_mult, oracle_cr
from kahlerstar.verify import RandomChartSpec, random_chart

FS = "log(1+z1*zb1)"


@pytest.fixture(scope="module")
def flat1():
    return build_chart("z1*zb1", (0.7 + 0.2j,), order=10)


@pytest.fixture(scope="module")
def fs0():
    return build_chart(FS, (0.0,), order=10)


@pytest.fixture(scope="module")
def fs1():
    return build_chart(FS, (1.0,), order=10)


def test_flat_closed_forms(flat1):
    f = "zb1^3+z1*zb1"
    ops = build_left_mult(f, flat1)
    zb = flat1.zb0[0]
    z = flat1.z0[0]
    # dbar f = 3 zb^2 + z, dbar^2 f = 6 zb, dbar^3 f = 6; the coefficient of
    # d^j is T_j[0..0] / j!
    assert ops[1].tensors[1][0, 0] == pytest.approx(3 * zb**2 + z, abs=1e-12)
    assert ops[2].tensors[2][0, 0, 0] / 2 == pytest.approx(3 * zb, abs=1e-12)
    assert ops[3].tensors[3][0, 0, 0, 0] / 6 == pytest.approx(1.0, abs=1e-12)
    # no lower-order terms appear on a flat chart for this f
    assert np.abs(ops[2].tensors[1]).max() < 1e-14
    assert np.abs(ops[3].tensors[1]).max() < 1e-14


def test_apply_order_zero(fs1):
    ops = build_left_mult("z1", fs1)
    assert ops[0].apply("zb1", fs1) == pytest.approx(1.0)


def test_flat_first_order(flat1):
    ops = build_left_mult("zb1", flat1)
    assert ops[1].apply("z1", flat1) == pytest.approx(1.0)


def test_zero_operator(flat1):
    ops = build_left_mult("z1^2", flat1)  # holomorphic: A_r = 0 for r >= 1
    for r in range(1, 4):
        assert all(t is None or np.abs(t).max() == 0.0 for t in ops[r].tensors)
        assert ops[r].apply("z1*zb1^3", flat1) == 0.0


def test_annihilates_constants(fs1):
    ops = build_left_mult("zb1^2+z1*zb1", fs1)
    for r in range(1, 4):
        assert ops[r].tensors[0] is None
        assert ops[r].apply("1", fs1) == 0.0


def test_fubini_study_third_order_spot(fs0):
    assert oracle_cr("zb1^2", "z1^2", fs0, 3) == pytest.approx(2.0, abs=1e-11)


def test_oracle_confirms_covariant_values_at_curved_point(fs1):
    # the hand values asserted in test_operators.py
    assert oracle_cr("zb1", "z1", fs1, 2) == pytest.approx(8.0, abs=1e-10)
    assert oracle_cr("zb1", "z1", fs1, 3) == pytest.approx(32.0, abs=1e-10)


def test_oracle_values_of_every_order_share_one_recursion(monkeypatch):
    ctx = build_chart(FS, (0.3 - 0.1j,), order=10)
    f, g = "zb1^3*z1 + zb1^2 + z1*zb1", "z1^3*zb1 + z1^2"
    runs = []
    recursion = oracle._recursion

    def counting(*args):
        runs.append(args)
        return recursion(*args)

    monkeypatch.setattr(oracle, "_recursion", counting)
    values = [oracle_cr(f, g, ctx, r) for r in (1, 2, 3)]
    assert len(runs) == 1 and all(values)
    # a negative order would otherwise wrap to A_3
    for r in (-1, 4):
        with pytest.raises(ValueError, match="between 0 and 3"):
            oracle_cr(f, g, ctx, r)


def test_low_order_charts_give_the_same_operators():
    # the recursion reads Phi to order 4 and g_dn to 2, so the least chart order
    # serves it
    f, g, point = "zb1^3*z1 + zb1^2 + z1*zb1", "z1^3*zb1 + z1^2", (0.3 - 0.1j,)
    low, high = build_chart(FS, point, order=6), build_chart(FS, point, order=10)
    for r in (1, 2, 3):
        values = [build_left_mult(f, ctx)[r].apply(g, ctx) for ctx in (low, high)]
        assert values[0] == values[1] != 0


def _random_poly(rng, n, dmax=3):
    terms = []
    for _ in range(6):
        za = "*".join(f"z{rng.randint(1, n)}" for _ in range(rng.randint(0, dmax)))
        zb = "*".join(f"zb{rng.randint(1, n)}" for _ in range(rng.randint(0, dmax)))
        mono = "*".join(x for x in (za, zb) if x) or "1"
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        sign = "+" if c.imag >= 0 else "-"
        terms.append(f"({c.real:.5f}{sign}{abs(c.imag):.5f}i)*{mono}")
    return "+".join(terms)


def _random_hermitian_chart(rng, n, order=10):
    from tests.test_geometry import _random_real_potential

    potential = _random_real_potential(rng, n, eps=0.1)
    point = [complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)) for _ in range(n)]
    return build_chart(potential, point, order=order)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_covariant_formulas_match_oracle(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        ctx = _random_hermitian_chart(rng, n)
        f = _random_poly(rng, n)
        g = _random_poly(rng, n)
        ops = build_left_mult(f, ctx)
        for r, covariant in ((1, c1), (2, c2), (3, c3)):
            via_oracle = ops[r].apply(g, ctx)
            via_formula = covariant(f, g, ctx)
            scale = 1.0 + abs(via_oracle)
            assert abs(via_formula - via_oracle) / scale < 1e-9, (n, r, f, g)


def test_gauge_invariance_flat():
    base = build_chart("z1*zb1", (0.4,), order=10)
    shifted = build_chart("z1*zb1+z1^3+zb1^3", (0.4,), order=10)
    f, g = "zb1^2+z1*zb1", "z1^2+z1*zb1^2"
    for r in range(1, 4):
        a = oracle_cr(f, g, base, r)
        b = oracle_cr(f, g, shifted, r)
        assert abs(a - b) < 1e-9


def test_gauge_invariance_random_n2():
    rng = random.Random(71)
    from tests.test_geometry import _random_real_potential

    potential = _random_real_potential(rng, 2, eps=0.1)
    point = (0.1 - 0.05j, 0.12 + 0.08j)
    base = build_chart(potential, point, order=10)
    shifted = build_chart(potential + "+0.3*z1^3-0.2*z2^2*z1+0.3*zb1^3-0.2*zb2^2*zb1", point, order=10)
    f, g = "zb1^2*z2+zb2^3", "z1^2+z2*z1*zb1"
    for r in range(1, 4):
        assert abs(oracle_cr(f, g, base, r) - oracle_cr(f, g, shifted, r)) < 1e-8


def test_oracle_never_reads_the_covariant_route(monkeypatch):
    from tests.test_operators import _patch_everywhere, _Refused

    ctx = random_chart(RandomChartSpec(n=2, seed=6))[1]
    f, g = "zb1^2*z2 + zb2^3 + z1*zb1*zb2 + zb1", "z1^3*zb2 + z2^2*z1 + z1*zb1 + z2"
    expected = [oracle_cr(f, g, ctx, r) for r in (1, 2, 3)]
    for name in ("covariant_derivative_jets", "curvature_jets", "curvature", "metric_derivative_values"):
        _patch_everywhere(monkeypatch, name, _Refused()._refuse)
    for name, value in vars(operators).items():
        if inspect.isfunction(value) and value.__module__ == operators.__name__:
            _patch_everywhere(monkeypatch, name, _Refused()._refuse, operators)
    # g_up and the Christoffel symbols, public or internal, are read through the memo
    _patch_everywhere(monkeypatch, "chart_tensors", _Refused()._refuse)
    chart = dataclasses.replace(ctx, _cache={})
    assert [oracle_cr(f, g, chart, r) for r in (1, 2, 3)] == expected
    with pytest.raises(AssertionError):
        verify.c1(f, g, chart)


def test_corrupted_metric_is_caught_in_a_build():
    ctx = build_chart(
        "z1*zb1+z2*zb2+0.2*z1^2*zb1*zb2+0.2*z1*z2*zb1^2", (0.1 - 0.05j, 0.12 + 0.08j), order=10
    )
    f, trunc = "zb1^2*z2+zb2^3", ctx.order - 2
    build_left_mult(f, ctx)
    # dbar_2 g_dn[0][0] no longer equals dbar_1 g_dn[0][1], which the level-2
    # coefficient of d_1 d_2 is solved from as well
    g_dn = np.array(ctx.g_dn_array)
    g_dn[_tables(2, trunc).index[(0, 0, 0, 1)], 0, 0] += 1e-6
    corrupted = dataclasses.replace(ctx, g_dn_array=g_dn, _cache={})
    with pytest.raises(OracleConsistencyError, match=r"coefficient \(1, 1\) of level 2"):
        build_left_mult(f, corrupted)


def test_nonfinite_gap_is_inconsistent():
    # rank-1 jet tensors of dimension 1 at order 3: the coefficient (1,)
    ok = Jet(1, 3, {(0, 0): 1.0, (1, 0): 0.5})._vec[:, None]
    bad = Jet(1, 3, {(0, 0): 1.0, (1, 0): math.nan})._vec[:, None]
    for first, second in ((ok, bad), (bad, ok), (bad, bad)):
        with pytest.raises(OracleConsistencyError, match=r"coefficient \(1,\) of level 2"):
            _require_agreement(first, second, 2)
    _require_agreement(ok, ok, 2)


@pytest.mark.parametrize("f", ["zb1^2*z2+zb2^3", "zb1*zb2"])
def test_corrupted_holomorphic_metric_derivative_is_caught(f):
    # the levels' cross-check sees dbar g_dn only; a change of the dz2 coefficient of
    # g_dn[0][0] is caught by holding g_dn to the potential's mixed derivatives
    ctx = build_chart(
        "z1*zb1+z2*zb2+0.2*z1^2*zb1*zb2+0.2*z1*z2*zb1^2", (0.1 - 0.05j, 0.12 + 0.08j), order=10
    )
    trunc = ctx.order - 2
    build_left_mult(f, ctx)
    g_dn = np.array(ctx.g_dn_array)
    g_dn[_tables(2, trunc).index[(0, 1, 0, 0)], 0, 0] += 1e-6
    corrupted = dataclasses.replace(ctx, g_dn_array=g_dn, _cache={})
    with pytest.raises(OracleConsistencyError, match=r"metric component g_dn\[0\]\[0\]"):
        build_left_mult(f, corrupted)
