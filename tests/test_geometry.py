"""Metric, Christoffel, curvature and covariant-derivative tests.

Closed forms used as oracles (dimension 1):
  Fubini-Study  potential log(1+z*zb):   g = (1+z*zb)^-2,
      Gamma = -2*zb/(1+z*zb),  r_up component = 2 identically.
  Poincare disk potential -log(1-z*zb):  g = (1-z*zb)^-2,
      Gamma = +2*zb/(1-z*zb),  r_up component = -2 identically.
"""

import random

import numpy as np
import pytest

from kahlerstar.expressions import parse
from kahlerstar.geometry import (
    SingularMetricError,
    as_chart_jet,
    build_chart,
    covariant_derivatives,
    curvature,
    jacobi_residual,
)
from kahlerstar.jets import Jet, iter_multi_indices_upto

FS = "log(1+z1*zb1)"
DISK = "-(log(1-z1*zb1))"


def test_flat_chart_is_trivial():
    ctx = build_chart("z1*zb1", (0.37 - 0.4j,), order=8)
    assert ctx.g_dn[0][0] == Jet.constant(1.0, 1, 6)
    assert ctx.g_up[0][0] == Jet.constant(1.0, 1, 6)
    assert ctx.gamma_hol == (((0j,),),)
    assert ctx.gamma_anti == (((0j,),),)


def test_fubini_study_at_origin():
    ctx = build_chart(FS, (0.0,), order=8)
    assert ctx.g_dn[0][0].value() == pytest.approx(1.0)
    assert ctx.g_dn[0][0].coeff((1,), (1,)) == pytest.approx(-2.0)
    assert ctx.g_up[0][0].coeff((1,), (1,)) == pytest.approx(2.0)
    assert ctx.gamma_hol[0][0][0] == pytest.approx(0.0)


def test_fubini_study_christoffel_at_one():
    ctx = build_chart(FS, (1.0,), order=8)
    assert ctx.gamma_hol[0][0][0] == pytest.approx(-1.0, abs=1e-12)
    # barred symbol is the conjugate picture at a real point
    assert ctx.gamma_anti[0][0][0] == pytest.approx(-1.0, abs=1e-12)


def test_poincare_christoffel():
    ctx = build_chart(DISK, (0.3,), order=8)
    assert ctx.gamma_hol[0][0][0] == pytest.approx(0.6 / 0.91, abs=1e-12)


def test_metric_inverse_duality():
    rng = random.Random(41)
    for n, potential in [(1, FS), (2, "z1*zb1+z2*zb2+0.2*z1^2*zb2^2")]:
        point = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for _ in range(n)]
        ctx = build_chart(potential, point, order=8)
        for k in range(n):
            for m in range(n):
                prod = sum(
                    (ctx.g_dn[k][l] * ctx.g_up[l][m] for l in range(n)),
                    Jet.zero(n, ctx.order - 2),
                )
                target = 1.0 if k == m else 0.0
                assert (prod - target).max_abs() < 1e-11


def test_hermiticity_on_real_potential():
    ctx = build_chart("z1*zb1+z2*zb2+0.1*(z1^2*zb2+z2*zb1^2)", (0.2 + 0.1j, -0.1 + 0.3j), order=8)
    m = ctx.metric_values()
    assert np.max(np.abs(m - m.conj().T)) < 1e-12


def test_singular_metric_rejected():
    with pytest.raises(SingularMetricError):
        build_chart("z1*zb2", (0.0, 0.0), n=2, order=8)
    with pytest.raises(SingularMetricError):
        build_chart("-(z1*zb1)", (0.1,), order=8)  # negative definite


def test_insufficient_order_rejected():
    with pytest.raises(ValueError):
        build_chart(FS, (0.0,), order=4)


def test_curvature_flat_vanishes_exactly():
    ctx = build_chart("z1*zb1+z2*zb2", (0.3, -0.2 + 0.1j), order=8)
    data = curvature(ctx)
    for tensor in (data.r_dn, data.r_up, data.r_raised):
        flat = np.array(tensor)
        assert np.max(np.abs(flat)) == 0.0


@pytest.mark.parametrize("point", [0.0, 1.0, 0.4 - 0.3j])
def test_fubini_study_curvature_is_two(point):
    ctx = build_chart(FS, (point,), order=8)
    data = curvature(ctx)
    assert data.r_up[0][0][0][0] == pytest.approx(2.0, abs=1e-11)


def test_fubini_study_r_dn_at_origin():
    data = curvature(build_chart(FS, (0.0,), order=8))
    assert data.r_dn[0][0][0][0] == pytest.approx(2.0, abs=1e-12)


def test_poincare_curvature_is_minus_two():
    data = curvature(build_chart(DISK, (0.25 + 0.1j,), order=8))
    assert data.r_up[0][0][0][0] == pytest.approx(-2.0, abs=1e-11)


def _fmt(c: complex) -> str:
    sign = "+" if c.imag >= 0 else "-"
    return f"({c.real:.6f}{sign}{abs(c.imag):.6f}i)"


def _random_real_potential(rng, n, eps=0.12):
    terms = [f"z{k}*zb{k}" for k in range(1, n + 1)]
    alphas = [a for a in iter_multi_indices_upto(n, 2) if sum(a) >= 1]
    for a in alphas:
        for b in alphas:
            c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * eps
            za = "*".join(f"z{i+1}^{e}" for i, e in enumerate(a) if e) or "1"
            zb = "*".join(f"zb{i+1}^{e}" for i, e in enumerate(b) if e) or "1"
            zc = "*".join(f"z{i+1}^{e}" for i, e in enumerate(b) if e) or "1"
            zd = "*".join(f"zb{i+1}^{e}" for i, e in enumerate(a) if e) or "1"
            terms.append(f"{_fmt(c)}*{za}*{zb}")
            terms.append(f"{_fmt(c.conjugate())}*{zc}*{zd}")
    return "+".join(terms)


def test_curvature_symmetries_and_raising():
    rng = random.Random(43)
    n = 2
    potential = _random_real_potential(rng, n)
    point = [complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2)) for _ in range(n)]
    ctx = build_chart(potential, point, order=8)
    data = curvature(ctx)
    gu0 = ctx.inverse_metric_values()
    for p in range(n):
        for q in range(n):
            for k in range(n):
                for l in range(n):
                    assert data.r_dn[p][q][k][l] == pytest.approx(data.r_dn[k][q][p][l], abs=1e-10)
                    assert data.r_dn[p][q][k][l] == pytest.approx(data.r_dn[p][l][k][q], abs=1e-10)
                    raised = sum(
                        gu0[q][c] * gu0[b][p] * data.r_dn[c][b][k][l]
                        for c in range(n)
                        for b in range(n)
                    )
                    assert data.r_up[q][p][k][l] == pytest.approx(raised, abs=1e-10)


def test_covariant_derivatives_flat():
    ctx = build_chart("z1*zb1", (0.4 + 0.2j,), order=8)
    table = covariant_derivatives("z1^3", ctx)
    assert table.hol3[0][0][0] == pytest.approx(6.0)
    assert table.anti1[0] == 0.0


def test_covariant_derivatives_fubini_study_origin():
    ctx = build_chart(FS, (0.0,), order=8)
    table = covariant_derivatives("z1^2", ctx)
    assert table.hol2[0][0] == pytest.approx(2.0, abs=1e-12)


def test_covariant_derivatives_fubini_study_at_one():
    ctx = build_chart(FS, (1.0,), order=8)
    table = covariant_derivatives("z1", ctx)
    assert table.hol2[0][0] == pytest.approx(1.0, abs=1e-12)
    # f = z1^2:  d2 f - Gamma * d1 f = 2 - (-1) * 2 = 4 at z=1
    table2 = covariant_derivatives("z1^2", ctx)
    assert table2.hol2[0][0] == pytest.approx(4.0, abs=1e-12)


def test_covariant_tensors_symmetric():
    rng = random.Random(47)
    n = 2
    ctx = build_chart(_random_real_potential(rng, n), (0.15 - 0.05j, 0.1 + 0.2j), order=10)
    table = covariant_derivatives("z1^2*zb2+z2^3*zb1^2+z1*z2*zb1", ctx)
    for k in range(n):
        for p in range(n):
            assert table.hol2[k][p] == pytest.approx(table.hol2[p][k], abs=1e-10)
            assert table.anti2[k][p] == pytest.approx(table.anti2[p][k], abs=1e-10)
            for s in range(n):
                vals = {
                    table.hol3[k][p][s],
                    table.hol3[p][k][s],
                    table.hol3[s][p][k],
                    table.hol3[k][s][p],
                }
                ref = table.hol3[k][p][s]
                for v in vals:
                    assert v == pytest.approx(ref, abs=1e-10)
                ref_a = table.anti3[k][p][s]
                assert table.anti3[p][k][s] == pytest.approx(ref_a, abs=1e-10)
                assert table.anti3[k][s][p] == pytest.approx(ref_a, abs=1e-10)


@pytest.mark.parametrize(
    "potential,point",
    [("z1*zb1", 0.5), (FS, 0.5), (FS, 0.3 + 0.4j), (DISK, 0.2 - 0.3j)],
)
def test_jacobi_residual_vanishes(potential, point):
    ctx = build_chart(potential, (point,), order=8)
    assert jacobi_residual(ctx) <= 1e-12


def test_chart_jets_are_shared_and_read_only():
    ctx = build_chart(FS, (0.4 - 0.3j,), order=8)
    jet = as_chart_jet("z1*zb1^2", ctx)
    assert as_chart_jet(parse("z1*zb1^2", 1), ctx) is jet
    with pytest.raises(ValueError):
        jet._vec[0] = 1.0
