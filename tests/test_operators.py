"""Bidifferential operator tests against hand-computed values.

Hand oracles (all dimension 1 unless noted): on the flat chart every
Christoffel symbol and curvature component vanishes, so operators reduce
to weighted derivative pairings; on the Fubini-Study chart at the origin
the inverse metric is 1, Christoffel symbols vanish and the only curvature
component equals 2.
"""

import collections
import dataclasses
import itertools
import random
import sys

import numpy as np
import pytest

from kahlerstar import geometry, operators, oracle, verify
from kahlerstar.expressions import parse
from kahlerstar.geometry import as_chart_jet, build_chart, chart_tensors
from kahlerstar.jets import Jet, derivative_values, unit_index
from kahlerstar.operators import (
    StarVariant,
    _p_jet,
    _q_jet,
    _s_values,
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
    r_operator,
    r_operator_jet,
    star_product,
    star_product_jets,
)
from kahlerstar.oracle import FormalOperator, build_left_mult, oracle_cr
from kahlerstar.verify import (
    RandomChartSpec,
    check_separation,
    check_structural,
    oracle_agreement_checks,
    random_chart,
    random_polynomial,
)

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
    assert out == (0j, 1 + 0j, 0j, 0j)


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


def test_c1_antisymmetrized_is_the_poisson_bracket(fs1):
    flat = build_chart("z1*zb1", (0.0,), order=10)
    assert c1("zb1", "z1", flat) == pytest.approx(1.0)
    # a holomorphic first argument has no antiholomorphic derivative
    assert c1("z1^2", "z1", fs1) == 0.0
    assert c1("z1", "z1^2", fs1) == 0.0
    # {f, g} = g_up[l, k] (dbar_l f d_k g - dbar_l g d_k f)
    f, g = "zb1^2+z1", "z1^2+zb1"
    fj, gj = as_chart_jet(f, fs1), as_chart_jet(g, fs1)
    gu0 = chart_tensors(fs1).g_up[0]

    def pairing(a, b):
        a_bar, b_hol = derivative_values(a._vec, 1, 0, 1), derivative_values(b._vec, 1, 1, 0)
        return np.einsum("lk,l,k->", gu0, a_bar, b_hol)

    bracket = pairing(fj, gj) - pairing(gj, fj)
    assert c1(f, g, fs1) - c1(g, f, fs1) == pytest.approx(bracket, abs=1e-12)
    assert abs(bracket) > 0.1


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
    # an argument is read to degree 3 whatever the chart's order
    for chart in (ctx, other):
        for src in (f_src, g_src):
            fresh = real_eval_jet(parse(src, 1), chart.z0, chart.zb0, 3)
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
    if op in (c1_jet, c2_jet):
        # C_r reads its arguments to degree 3, so it is a jet of truncation 3 - r, and
        # its prefix of degree t is C_r of the arguments cut to degree t + r
        r = 1 if op is c1_jet else 2
        full = op(f, g, random_n2)
        assert full.trunc == 3 - r
        fj, gj = as_chart_jet(f, random_n2), as_chart_jet(g, random_n2)
        for t in range(full.trunc + 1):
            expected = full.truncated(t)
            scale = expected.max_abs()
            assert scale > 0
            got = op(fj.truncated(t + r), gj.truncated(t + r), random_n2)
            assert got.trunc == t
            assert (got - expected).max_abs() <= 1e-12 * scale
        return
    # a third-order operator is a jet of truncation 0 only, and its value does not
    # depend on the chart's memo having been read deeper first
    deep_first = dataclasses.replace(random_n2, _cache={})
    c2_jet(f, g, deep_first)
    got = op(f, g, deep_first)
    assert got.trunc == 0 and got.value() != 0
    assert got._vec.tobytes() == op(f, g, dataclasses.replace(random_n2, _cache={}))._vec.tobytes()


def test_nested_operator_jets_follow_the_product_depth(random_n2):
    # the coefficient of nu^j of a product is a jet of degree 3 - j, and an outer C_r
    # of it one of degree 3 - j - r
    f, g, h = "zb1^2*z2 + zb2^3 + z1*zb1*zb2", "z1^3*zb2 + z2^2*z1 + z1*zb1", "z1*z2^2 + zb1*z2"
    fg = star_product_jets(f, g, random_n2)
    assert [jet.trunc for jet in fg] == [3, 2, 1, 0]
    for j in (0, 1, 2):
        assert c1_jet(fg[j], h, random_n2).trunc == 2 - j
    for j in (0, 1):
        assert c2_jet(fg[j], h, random_n2).trunc == 1 - j


@pytest.mark.parametrize("variant", list(StarVariant), ids=lambda v: v.value)
def test_product_values_read_the_product_jets(variant):
    # one memo entry per value and argument pair: the product's values and C1, C2 read
    # the jets that star_product_jets built as deep as their arguments allow
    ctx = random_chart(RandomChartSpec(n=2, seed=5))[1]
    f, g = "zb1^2*z2 + zb2^3 + z1*zb1*zb2", "z1^3*zb2 + z2^2*z1 + z1*zb1"
    jets = star_product_jets(f, g, ctx, variant)
    assert [jet.trunc for jet in jets] == [3, 2, 1, 0]
    held = dict(ctx._cache)
    values = star_product(f, g, ctx, variant)
    assert (c1(f, g, ctx), c2(f, g, ctx)) == values[1:3]
    assert values == tuple(jet.value() for jet in jets)
    assert ctx._cache.keys() == held.keys()


# -- covariant-derivative bundles and the independence of the checks -------------


def _patch_everywhere(monkeypatch, name, replacement, module=geometry):
    """Replace ``module.<name>`` in every kahlerstar namespace that holds it."""
    original = getattr(module, name)
    for module_name, module in list(sys.modules.items()):
        if module_name == "kahlerstar" or module_name.startswith("kahlerstar."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_derivative_bundles_are_built_once(monkeypatch):
    ctx = random_chart(RandomChartSpec(n=2, seed=4))[1]
    f, g = "zb1^2*z2 + zb2^3 + z1*zb1*zb2", "z1^3*zb2 + z2^2*z1 + z1*zb1"
    built = []
    original = geometry.covariant_derivative_jets

    def counting(jet, *args, **kwargs):
        built.append((kwargs["barred"], jet.trunc))
        return original(jet, *args, **kwargs)

    _patch_everywhere(monkeypatch, "covariant_derivative_jets", counting)
    star_product_jets(f, g, ctx, StarVariant.MODIFIED)
    operator_breakdown(f, g, ctx)
    # one bundle per (function, side), built from the function's jet at degree 3:
    # C1 at truncation 2, C2 at 1 and C3~ and P/Q/R at 0 read its prefixes
    assert sorted(built) == [(False, 3), (True, 3)]
    star_product_jets(f, g, ctx, StarVariant.STANDARD)
    for op in (c1, c2, c3, c3_tilde, r_operator):
        op(f, g, ctx)
    assert len(built) == 2


def test_each_value_is_built_once_per_suite_chart(monkeypatch):
    counts = collections.Counter()
    for module, name in (
        (operators, "_triple"),
        (operators, "_raised_pairing"),
        (operators, "_p_jet"),
        (operators, "_q_jet"),
        (operators, "_s_values"),
        (geometry, "covariant_derivative_jets"),
        (oracle, "_solve_level"),
        (geometry, "eval_jet"),
    ):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        _patch_everywhere(monkeypatch, name, counting, module)
    polynomial = Jet.polynomial

    def counting_polynomial(cls, *args, **kwargs):
        counts["Jet.polynomial"] += 1
        return polynomial(*args, **kwargs)

    monkeypatch.setattr(Jet, "polynomial", classmethod(counting_polynomial))
    for seed in (1, 2):
        potential, ctx, rng = random_chart(RandomChartSpec(n=2, seed=seed))
        counts.clear()
        verify._chart_checks(potential, ctx, rng, "")
        # C3 once per argument pair: (f, g), (g, h), (f*g, h), (f, g*h), (a, f), (f, b);
        # C1, C2, C3's triple term and R pair through one routine, each once per pair;
        # the second routes P, Q, S and S~ once, for the check that reports them;
        # one bundle per argument jet and side, the nested products' shared by both
        # variants; one recursion on each of the chart and the gauge-shifted chart, 3
        # levels each; f, g, h, a, b on the chart and the shifted potential, each one
        # polynomial jet
        assert counts == {
            "_triple": 6, "_raised_pairing": 30, "_p_jet": 1, "_q_jet": 1, "_s_values": 1,
            "covariant_derivative_jets": 13, "_solve_level": 6, "eval_jet": 6,
            "Jet.polynomial": 6,
        }


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, Jet):
        yield value._vec
    elif isinstance(value, FormalOperator):
        yield from _arrays(value.tensors)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)


def test_memoised_values_are_read_only_and_keyed_by_their_argument_objects():
    potential, ctx, rng = random_chart(RandomChartSpec(n=2, seed=2))
    verify._chart_checks(potential, ctx, rng, "")
    held = list(_arrays(list(ctx._cache.values())))
    assert len(held) > 100 and not any(a.flags.writeable for a in held)

    f = as_chart_jet("zb1^2*z2 + zb2^3 + z1*zb1*zb2", ctx)
    g = as_chart_jet("z1^3*zb2 + z2*z1", ctx)
    twin = Jet._of(f.n, f.trunc, f._vec.copy())  # equal to f, but another object
    builders = (
        lambda a: c1_jet(a, g, ctx),
        lambda a: c2_jet(a, g, ctx),
        lambda a: c3_jet(a, g, ctx),
        lambda a: r_operator_jet(a, g, ctx),
        lambda a: star_product_jets(a, g, ctx, StarVariant.STANDARD)[0],
        lambda a: build_left_mult(a, ctx),
    )
    for build in builders:
        first = build(f)
        assert build(f) is first
        second = build(twin)
        assert second is not first and build(twin) is second
        assert list(map(bytes, _arrays(second))) == list(map(bytes, _arrays(first)))


@pytest.mark.parametrize("op, r", [(c1_jet, 1), (c2_jet, 2), (c3_jet, 3)])
def test_an_operator_refuses_an_argument_too_shallow_for_its_order(op, r):
    ctx = build_chart(FS, (0.3 - 0.1j,), order=6)
    f = as_chart_jet("z1^2*zb1^3 + zb1", ctx)
    g = as_chart_jet("z1^3 + z1*zb1", ctx)
    message = f"C{r} needs argument jets of degree {r} or more, not {r - 1}"
    with pytest.raises(ValueError, match=message):
        op(f.truncated(r - 1), g, ctx)
    with pytest.raises(ValueError, match=message):
        op(f, g.truncated(r - 1), ctx)
    assert op(f.truncated(r), g, ctx).trunc == 0


def test_derivative_bundles_are_read_only():
    ctx = build_chart(FS, (0.3 - 0.1j,), order=10)
    for barred in (False, True):
        bundle = geometry.covariant_derivative_jets(as_chart_jet("z1^3*zb1^2", ctx), ctx, barred=barred)
        for tensor in bundle[1:]:
            assert not tensor.flags.writeable
            with pytest.raises(ValueError):
                tensor[0] = 1.0


@pytest.mark.parametrize("same_id", [False, True], ids=["real-id", "every-id-recycled"])
def test_dropped_jets_never_share_a_bundle(monkeypatch, same_id):
    sources = [f"zb1^{1 + i % 4} + {i}*z1*zb1^2" for i in range(40)]
    fresh = build_chart(FS, (0.3 - 0.1j,), order=10)
    g = as_chart_jet("z1^3 + z1*zb1", fresh)
    expected = [c3_tilde_jet(as_chart_jet(src, fresh) * (1.0 + i), g, fresh)
                for i, src in enumerate(sources)]
    if same_id:
        # the worst case of id reuse: every jet the memo sees has the same id
        monkeypatch.setattr(geometry, "id", lambda obj: 0, raising=False)
    ctx = build_chart(FS, (0.3 - 0.1j,), order=10)
    g = as_chart_jet("z1^3 + z1*zb1", ctx)
    for i, src in enumerate(sources):
        scaled = as_chart_jet(src, ctx) * (1.0 + i)  # dropped below, so its id is free again
        assert c3_tilde_jet(scaled, g, ctx) == expected[i]
        del scaled


class _Refused:
    """Stands in for a chart field that the independent checks must never read."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("an independent check read the covariant route")

    __getattr__ = __getitem__ = __iter__ = __len__ = __array__ = _refuse


def test_checks_do_not_use_the_covariant_route(monkeypatch):
    ctx = random_chart(RandomChartSpec(n=2, seed=6))[1]
    f, g = "zb1^2*z2 + zb2^3 + z1*zb1*zb2 + zb1", "z1^3*zb2 + z2^2*z1 + z1*zb1 + z2"

    def run(chart):
        return c2_expanded(f, g, chart), _s_values(f, g, chart), [oracle_cr(f, g, chart, r) for r in (1, 2, 3)]

    expected = run(ctx)
    for name in ("covariant_derivative_jets", "curvature_jets", "curvature"):
        _patch_everywhere(monkeypatch, name, _Refused()._refuse)
    # the Christoffel symbols, public or internal, are read through the memo
    tensors = geometry.chart_tensors
    _patch_everywhere(
        monkeypatch,
        "chart_tensors",
        lambda *args: tensors(*args)._replace(gamma_hol=_Refused(), gamma_anti=_Refused()),
    )
    assert run(dataclasses.replace(ctx, _cache={})) == expected
    with pytest.raises(AssertionError):
        c2(f, g, dataclasses.replace(ctx, _cache={}))


def _s_reference(f, g, ctx):
    """S and S-tilde by the eight-deep index loops of their definitions, read through
    ``Jet.derivative_at`` one component at a time."""
    n, fj, gj = ctx.n, as_chart_jet(f, ctx), as_chart_jet(g, ctx)
    zero, idx = (0,) * n, range(n)
    gd0 = [[complex(ctx.g_dn_array[0, k, l]) for l in idx] for k in idx]
    dgu = [[[ctx.g_up[l][k].derivative_at(unit_index(n, p), zero) for k in idx] for l in idx] for p in idx]
    dgu_bar = [[[ctx.g_up[l][k].derivative_at(zero, unit_index(n, q)) for k in idx] for l in idx] for q in idx]
    f1 = [fj.derivative_at(zero, unit_index(n, l)) for l in idx]
    g1 = [gj.derivative_at(unit_index(n, k), zero) for k in idx]
    s = s_tilde = 0j
    for m, nn, q, l, ss, p, t, k in itertools.product(idx, repeat=8):
        s += gd0[m][nn] * dgu_bar[q][l][ss] * dgu[ss][nn][p] * dgu_bar[t][q][m] * dgu[p][t][k] * f1[l] * g1[k]
        s_tilde += dgu_bar[q][l][m] * dgu[m][nn][p] * dgu_bar[nn][q][ss] * dgu[p][t][k] * gd0[ss][t] * f1[l] * g1[k]
    return s, s_tilde


@pytest.mark.parametrize("n,seed", [(2, 6), (3, 5)])
def test_s_values_match_the_index_loops(n, seed):
    # S == S-tilde alone would pass with the same index slip in both einsum forms
    _, ctx, rng = random_chart(RandomChartSpec(n=n, seed=seed))
    f, g = random_polynomial(rng, n), random_polynomial(rng, n)
    for got, want in zip(_s_values(f, g, ctx), _s_reference(f, g, ctx)):
        assert want != 0
        assert abs(got - want) <= 1e-13 * abs(want)


def test_c3_decomposition_catches_an_error_in_the_triple_contraction(monkeypatch):
    # P is contracted from the holomorphic side, so a slip in C3's own triple
    # contraction no longer cancels out of the decomposition
    _, ctx, rng = random_chart(RandomChartSpec(n=2, seed=6))
    f, g = random_polynomial(rng, 2), random_polynomial(rng, 2)

    def decomposition(chart):
        return {r.name: r for r in check_structural(chart, f, g)}["c3_decomposition"]

    assert decomposition(ctx).passed
    triple = operators._triple
    monkeypatch.setattr(operators, "_triple", lambda *args: triple(*args) * (1.0 + 1e-6))
    # a fresh memo: the chart's own would serve the C3 built before the mutation
    assert not decomposition(dataclasses.replace(ctx, _cache={})).passed


@pytest.mark.parametrize("mutant", ["scaled", "transposed"])
def test_checks_catch_an_error_in_the_shared_pairing(monkeypatch, mutant):
    # C1, C2, C3's triple term and R share one pairing routine: a slip in it must show
    # against the recursion, the raw-derivative C2 and P's own chain.  At n=1 the
    # raisers are 1x1, so a transposed raiser would change nothing
    _, ctx, rng = random_chart(RandomChartSpec(n=2, seed=1))
    f, g = random_polynomial(rng, 2), random_polynomial(rng, 2)
    names = ("oracle_agreement_r1", "c2_expanded_equals_covariant", "c3_decomposition")

    def results(chart):
        checks = oracle_agreement_checks(chart, f, g) + check_structural(chart, f, g)
        return {r.name: r for r in checks if r.name in names}

    assert all(r.passed for r in results(ctx).values())
    pairing = operators._raised_pairing
    if mutant == "scaled":
        mutated = lambda raisers, *args: pairing(raisers, *args) * (1.0 + 1e-6)
    else:
        mutated = lambda raisers, *args: pairing([r.transpose(0, 2, 1) for r in raisers], *args)
    monkeypatch.setattr(operators, "_raised_pairing", mutated)
    failed = results(dataclasses.replace(ctx, _cache={}))
    assert sorted(failed) == sorted(names)
    assert not any(r.passed for r in failed.values())


def test_checks_catch_derivative_bundles_built_on_the_wrong_side(monkeypatch):
    # each argument is differentiated on one side only: a bundle of the other side
    # must show in every separation check and against the recursion
    _, ctx, rng = random_chart(RandomChartSpec(n=2, seed=1))
    f, g = random_polynomial(rng, 2), random_polynomial(rng, 2)
    a, b = (random_polynomial(rng, 2, kind=kind) for kind in ("holomorphic", "antiholomorphic"))

    def results(chart):
        return check_separation(chart, a, f, b) + oracle_agreement_checks(chart, f, g)

    assert all(r.passed for r in results(ctx))
    derivs = operators._derivs
    monkeypatch.setattr(operators, "_derivs", lambda jet, chart, barred: derivs(jet, chart, not barred))
    failed = results(dataclasses.replace(ctx, _cache={}))
    assert len(failed) == 11
    assert not any(r.passed for r in failed), [r.name for r in failed if r.passed]
