"""Metric, Christoffel, curvature and covariant-derivative tests.

Closed forms used as oracles (dimension 1):
  Fubini-Study  potential log(1+z*zb):   g = (1+z*zb)^-2,
      Gamma = -2*zb/(1+z*zb),  r_up component = 2 identically.
  Poincare disk potential -log(1-z*zb):  g = (1-z*zb)^-2,
      Gamma = +2*zb/(1-z*zb),  r_up component = -2 identically.
"""

import dataclasses
import random

import numpy as np
import pytest

from kahlerstar import geometry, jets, verify
from kahlerstar.expressions import parse
from kahlerstar.geometry import (
    SingularMetricError,
    as_chart_jet,
    build_chart,
    chart_tensors,
    covariant_derivative_jets,
    curvature,
    jacobi_residual,
)
from kahlerstar.jets import Jet, iter_multi_indices_upto, truncate
from kahlerstar.verify import (
    RandomChartSpec,
    check_gauge,
    random_chart,
    random_polynomial,
    random_potential,
)

FS = "log(1+z1*zb1)"
DISK = "-(log(1-z1*zb1))"


def _metric_jet(ctx, k, l):
    """The jet of ``g_dn[k][l]``, read from the chart's metric array."""
    return Jet._of(ctx.n, ctx.order - 2, ctx.g_dn_array[:, k, l])


def test_flat_chart_is_trivial():
    ctx = build_chart("z1*zb1", (0.37 - 0.4j,), order=8)
    assert _metric_jet(ctx, 0, 0) == Jet.constant(1.0, 1, 6)
    assert ctx.g_up[0][0] == Jet.constant(1.0, 1, 6)
    tensors = chart_tensors(ctx, ctx.order - 2)
    assert tensors.gamma_hol[0].tolist() == [[[0j]]]
    assert tensors.gamma_anti[0].tolist() == [[[0j]]]


def test_fubini_study_at_origin():
    ctx = build_chart(FS, (0.0,), order=8)
    assert _metric_jet(ctx, 0, 0).value() == pytest.approx(1.0)
    assert _metric_jet(ctx, 0, 0).coeff((1,), (1,)) == pytest.approx(-2.0)
    assert ctx.g_up[0][0].coeff((1,), (1,)) == pytest.approx(2.0)
    assert chart_tensors(ctx, ctx.order - 2).gamma_hol[0, 0, 0, 0] == pytest.approx(0.0)


def test_fubini_study_christoffel_at_one():
    ctx = build_chart(FS, (1.0,), order=8)
    tensors = chart_tensors(ctx, ctx.order - 2)
    assert tensors.gamma_hol[0, 0, 0, 0] == pytest.approx(-1.0, abs=1e-12)
    # barred symbol is the conjugate picture at a real point
    assert tensors.gamma_anti[0, 0, 0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_poincare_christoffel():
    ctx = build_chart(DISK, (0.3,), order=8)
    gamma_hol = chart_tensors(ctx, ctx.order - 2).gamma_hol
    assert gamma_hol[0, 0, 0, 0] == pytest.approx(0.6 / 0.91, abs=1e-12)


def test_metric_inverse_duality():
    rng = random.Random(41)
    for n, potential in [(1, FS), (2, "z1*zb1+z2*zb2+0.2*z1^2*zb2^2")]:
        point = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for _ in range(n)]
        ctx = build_chart(potential, point, order=8)
        for k in range(n):
            for m in range(n):
                prod = sum(
                    (_metric_jet(ctx, k, l) * ctx.g_up[l][m] for l in range(n)),
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


def test_formal_points_need_only_an_invertible_metric():
    # at zb0 = 1j, not the conjugate of z0 = 1, the metric 1 + 4j is not Hermitian,
    # also when it is large
    for scale in ("1", "10000000000"):
        ctx = build_chart(f"{scale}*(z1*zb1+z1^2*zb1^2)", (1.0,), (1j,), order=6)
        assert ctx.metric_values()[0, 0] == float(scale) * (1 + 4j)


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
    gu0 = chart_tensors(ctx, 0).g_up[0]
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


def _covariant_values(f, ctx, barred):
    """Base-point values of the covariant derivatives of ``f``, indexed by order 1..3."""
    jets = covariant_derivative_jets(as_chart_jet(f, ctx), ctx, barred=barred)
    return [None] + [tensor[0] for tensor in jets[1:]]


def test_covariant_derivatives_flat():
    ctx = build_chart("z1*zb1", (0.4 + 0.2j,), order=8)
    assert _covariant_values("z1^3", ctx, False)[3][0][0][0] == pytest.approx(6.0)
    assert _covariant_values("z1^3", ctx, True)[1][0] == 0.0


def test_covariant_derivatives_fubini_study_origin():
    ctx = build_chart(FS, (0.0,), order=8)
    assert _covariant_values("z1^2", ctx, False)[2][0][0] == pytest.approx(2.0, abs=1e-12)


def test_covariant_derivatives_fubini_study_at_one():
    ctx = build_chart(FS, (1.0,), order=8)
    assert _covariant_values("z1", ctx, False)[2][0][0] == pytest.approx(1.0, abs=1e-12)
    # f = z1^2:  d2 f - Gamma * d1 f = 2 - (-1) * 2 = 4 at z=1
    assert _covariant_values("z1^2", ctx, False)[2][0][0] == pytest.approx(4.0, abs=1e-12)


def test_covariant_tensors_symmetric():
    rng = random.Random(47)
    n = 2
    ctx = build_chart(_random_real_potential(rng, n), (0.15 - 0.05j, 0.1 + 0.2j), order=10)
    f = "z1^2*zb2+z2^3*zb1^2+z1*z2*zb1"
    hol2, hol3 = _covariant_values(f, ctx, False)[2:]
    anti2, anti3 = _covariant_values(f, ctx, True)[2:]
    for k in range(n):
        for p in range(n):
            assert hol2[k][p] == pytest.approx(hol2[p][k], abs=1e-10)
            assert anti2[k][p] == pytest.approx(anti2[p][k], abs=1e-10)
            for s in range(n):
                vals = {
                    hol3[k][p][s],
                    hol3[p][k][s],
                    hol3[s][p][k],
                    hol3[k][s][p],
                }
                ref = hol3[k][p][s]
                for v in vals:
                    assert v == pytest.approx(ref, abs=1e-10)
                ref_a = anti3[k][p][s]
                assert anti3[p][k][s] == pytest.approx(ref_a, abs=1e-10)
                assert anti3[k][s][p] == pytest.approx(ref_a, abs=1e-10)


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


def test_flat_metric_jets_are_exact():
    # the binomial theorem leaves every non-constant coefficient exactly zero,
    # which the flat_qrss_vanish check's exact 0.0 bound relies on
    ctx = build_chart("z1*zb1+z2*zb2", (0.37 - 0.4j, -0.2 + 0.5j), order=10)
    for matrix in (ctx.g_dn_array, chart_tensors(ctx, ctx.order - 2).g_up):
        for k in range(2):
            for l in range(2):
                vec = matrix[:, k, l]
                assert np.all(vec[1:] == 0.0)
                assert vec[0] == (1.0 if k == l else 0.0)


def test_chart_tensors_are_read_only_views_and_charts_compare_by_value():
    ctx = build_chart(FS, (0.4 - 0.3j,), order=8)
    tensors = chart_tensors(ctx, ctx.order - 2)
    assert np.shares_memory(ctx.g_up[0][0]._vec, tensors.g_up)
    data, f = curvature(ctx), as_chart_jet("z1^3*zb1^2", ctx)
    covariant = [covariant_derivative_jets(f, ctx, barred=barred)[1:] for barred in (False, True)]
    for array in (ctx.g_dn_array, *tensors, data.r_dn, data.r_up, data.r_raised,
                  *covariant[0], *covariant[1]):
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert ctx == build_chart(FS, (0.4 - 0.3j,), order=8)
    assert ctx != build_chart(FS, (0.3 - 0.3j,), order=8)


# -- chart tensors on first read ------------------------------------------------


def _tensor_bytes(tensors, trunc, n=2):
    g_up, gamma_hol, gamma_anti = tensors
    return (truncate(g_up, n, trunc).tobytes(), truncate(gamma_hol, n, trunc - 1).tobytes(),
            truncate(gamma_anti, n, trunc - 1).tobytes())


def test_chart_tensors_are_prefixes_whatever_the_order_of_reads():
    ctx = random_chart(RandomChartSpec(n=2, seed=4))[1]
    up = dataclasses.replace(ctx, _cache={})
    low_first = chart_tensors(up, 2)
    assert up._cache["chart_tensors"][0] == 2  # built no deeper than asked
    high_after = chart_tensors(up, 6)
    down = dataclasses.replace(ctx, _cache={})
    high_first = chart_tensors(down, 6)
    low_after = chart_tensors(down, 2)
    full = chart_tensors(dataclasses.replace(ctx, _cache={}), ctx.order - 2)
    assert len(full[0]) == len(truncate(full[0], 2, ctx.order - 2))
    assert len(full[1]) == len(truncate(full[1], 2, ctx.order - 3))
    for t in (2, 6):
        expected = _tensor_bytes(full, t)
        for got in (high_after, high_first) + ((low_first, low_after) if t == 2 else ()):
            assert _tensor_bytes(got, t) == expected
    assert np.shares_memory(low_after.g_up, high_first.g_up)  # a prefix of the one entry
    with pytest.raises(ValueError, match="from 0 to 8"):
        chart_tensors(ctx, ctx.order - 1)


def test_christoffel_symbols_at_zero_from_a_read_at_zero_are_a_prefix():
    # a read at 0 builds the memo at 1, the least depth holding a Christoffel symbol
    ctx = random_chart(RandomChartSpec(n=2, seed=7))[1]
    shallow, deep = dataclasses.replace(ctx, _cache={}), dataclasses.replace(ctx, _cache={})
    chart_tensors(shallow, 0)
    assert shallow._cache["chart_tensors"][0] == 1
    got, full = chart_tensors(shallow, 1), chart_tensors(deep, 6)
    assert len(got.gamma_hol) == 1
    assert _tensor_bytes(got, 1) == _tensor_bytes(full, 1)


def test_a_chart_build_inverts_nothing(monkeypatch):
    from tests.test_operators import _patch_everywhere

    inverses = []
    original = jets.jet_matrix_inverse

    def counted(matrix, n, trunc):
        inverses.append(trunc)
        return original(matrix, n, trunc)

    _patch_everywhere(monkeypatch, "jet_matrix_inverse", counted, jets)
    random_potential(RandomChartSpec(n=2, seed=4))
    assert inverses == []  # every acceptance attempt checks the metric only
    potential, ctx, rng = random_chart(RandomChartSpec(n=2, seed=4))
    assert inverses == []
    f, g = random_polynomial(rng, 2), random_polynomial(rng, 2)
    gauge_h = random_polynomial(rng, 2, kind="holomorphic")
    gauge_k = random_polynomial(rng, 2, kind="antiholomorphic")
    assert check_gauge(potential, gauge_h, gauge_k, ctx, f, g).passed
    # one inverse of g_dn^T per oracle build, for the chart and the shifted chart
    assert inverses == [2, 2]
    assert "chart_tensors" not in ctx._cache


def test_suite_checks_read_chart_tensors_no_deeper_than_they_need(monkeypatch):
    from tests.test_operators import _patch_everywhere

    reads = []
    original = geometry.chart_tensors

    def recorded(ctx, trunc):
        reads.append(trunc)
        return original(ctx, trunc)

    _patch_everywhere(monkeypatch, "chart_tensors", recorded)
    inverses = []  # the chart's own, not the recursion's
    inverse = geometry.jet_matrix_inverse

    def counted(matrix, n, trunc):
        inverses.append(trunc)
        return inverse(matrix, n, trunc)

    monkeypatch.setattr(geometry, "jet_matrix_inverse", counted)
    # curvature at the base point reads g_up at 2, and a derivative bundle at
    # truncation t is at most 3 - t deep, so it reads the Christoffel symbols at 1
    # at most: the depth does not follow the jet order, and the metric is inverted once
    for order in (6, 10, 12):
        reads.clear()
        inverses.clear()
        potential, ctx, rng = random_chart(RandomChartSpec(n=2, seed=4), order=order)
        results = verify._chart_checks(potential, ctx, rng, "")
        assert all(r.passed for r in results)
        assert max(reads) == 2
        assert ctx._cache["chart_tensors"][0] == 2
        assert inverses == [2]
