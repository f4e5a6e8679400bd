"""Bidifferential operators of the star-product with separation of variables.

Every operator differentiates its first argument only antiholomorphically
and its second only holomorphically.  Operators are evaluated pointwise;
the ``*_jet`` variants return the jet of the resulting function around the
base point so that operators can be nested (needed for associativity
checks).  In compact notation, with ``gu`` the inverse metric and ``f_/``
covariant derivatives::

    C1(f, g) = gu[l][k] f_/l̄ g_/k
    C2(f, g) = 1/2 gu[l][k] gu[q][p] f_/l̄q̄ g_/kp
    C3(f, g) = 1/6 gu[l][k] gu[q][p] gu[t][s] f_/l̄q̄t̄ g_/kps
               + 1/4 r_raised[l][k][q][p] f_/l̄q̄ g_/kp

The modified third-order operator adds one twelfth of the curvature-square
one-differentiable operator ``R``, which makes the whole product
expressible through the inverse metric alone.  The product is carried to
the third order only, so an argument is read to degree 3 and no outer
operator differentiates a third-order value: ``C_r(f, g)`` is a jet of degree
``min(3, deg f, deg g) - r`` (:func:`_depth`), so ``C3``, ``C3~``, ``P``, ``Q``
and ``R`` exist at the base point only, as jets of truncation 0.

Every contraction is a chain of :func:`kahlerstar.jets.contract` calls on
the chart's jet-tensor arrays; C1, C2, C3's triple term and R pair through
:func:`_raised_pairing`, and P keeps its own chain as a second route.  The
derivative bundles (per side), C1, C2, C3, R and the product's ``f g`` are
built once per chart and argument jets, through
:func:`kahlerstar.geometry._memo`; the second routes P, Q, S, S-tilde and
:func:`c2_expanded` are computed afresh on each call.  The raw-derivative
forms (``c2_expanded``, S and S-tilde) are one
:func:`numpy.einsum` per term over :func:`kahlerstar.jets.derivative_values`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import (
    PRODUCT_ORDER,
    ChartContext,
    _derivs,
    _memo,
    _r1_jets,
    as_chart_jet,
    chart_tensors,
    curvature_jets,
    metric_derivative_values,
)
from .jets import Jet, contract, derivative_values

__all__ = [
    "StarVariant",
    "OperatorBreakdown",
    "c1",
    "c2",
    "c2_expanded",
    "c3",
    "c3_tilde",
    "c1_jet",
    "c2_jet",
    "c3_jet",
    "c3_tilde_jet",
    "r_operator",
    "operator_breakdown",
    "star_product",
    "star_product_jets",
]


class StarVariant(enum.Enum):
    """Which third-order operator the product uses."""

    STANDARD = "standard"
    MODIFIED = "modified"


@dataclass(frozen=True)
class OperatorBreakdown:
    """Values of the auxiliary bidifferential operators at the base point."""

    p: complex
    q: complex
    r: complex
    s: complex
    s_tilde: complex


# -- contraction helpers -------------------------------------------------------


def _pair_jets(f, g, ctx: ChartContext) -> tuple[Jet, Jet]:
    return as_chart_jet(f, ctx), as_chart_jet(g, ctx)


def _raised_pairing(raisers, f_tensor, g_tensor, n: int, trunc: int) -> Jet:
    """``raisers[0][a, x] raisers[1][b, y] ... f[a, b, ...] g[x, y, ...]`` as a jet of order
    ``trunc``: f's antiholomorphic index ``i`` is contracted with the first index of
    ``raisers[i]``, whose second index takes its place, then all are paired with ``g``."""
    old, new = "abc"[: len(raisers)], "xyz"[: len(raisers)]
    raised = f_tensor
    for i, raiser in enumerate(raisers):
        spec = f"{old[i]}{new[i]},{new[:i]}{old[i:]}->{new[: i + 1]}{old[i + 1 :]}"
        raised = contract(spec, raiser, raised, n, trunc)
    return Jet._of(n, trunc, contract(f"{new},{new}->", raised, g_tensor, n, trunc))


# -- first and second order ------------------------------------------------------


def _depth(fj: Jet, gj: Jet, r: int) -> int:
    """Degree to which ``C_r(f, g)`` (``f g`` for ``r = 0``) is exact: ``C_r`` differentiates
    each argument ``r`` times, and no argument is read past ``PRODUCT_ORDER``, 3."""
    depth = min(PRODUCT_ORDER, fj.trunc, gj.trunc) - r
    if depth < 0:
        raise ValueError(f"C{r} needs argument jets of degree {r} or more, not {depth + r}")
    return depth


def c1_jet(f, g, ctx: ChartContext) -> Jet:
    fj, gj = _pair_jets(f, g, ctx)

    def build():
        t = _depth(fj, gj, 1)
        f1, g1 = _derivs(fj, ctx, True)[1], _derivs(gj, ctx, False)[1]
        return _raised_pairing([chart_tensors(ctx).g_up], f1, g1, ctx.n, t)

    return _memo(ctx, "c1", (fj, gj), build)


def c1(f, g, ctx: ChartContext) -> complex:
    """First-order operator: inverse metric contracted with first derivatives."""
    return c1_jet(f, g, ctx).value()


def c2_jet(f, g, ctx: ChartContext) -> Jet:
    fj, gj = _pair_jets(f, g, ctx)

    def build():
        t = _depth(fj, gj, 2)
        f2, g2 = _derivs(fj, ctx, True)[2], _derivs(gj, ctx, False)[2]
        return _raised_pairing([chart_tensors(ctx).g_up] * 2, f2, g2, ctx.n, t) * 0.5

    return _memo(ctx, "c2", (fj, gj), build)


def c2(f, g, ctx: ChartContext) -> complex:
    """Second-order operator, covariant form."""
    return c2_jet(f, g, ctx).value()


def c2_expanded(f, g, ctx: ChartContext) -> complex:
    """Second-order operator in raw-derivative form.

    Written entirely in partial derivatives of the inverse metric and of
    the arguments; must agree with :func:`c2` and serves as its
    consistency check.
    """
    fj, gj = _pair_jets(f, g, ctx)
    n, gu0 = ctx.n, chart_tensors(ctx).g_up[0]
    dgu, dgu_bar = metric_derivative_values(ctx)
    f1, f2 = (derivative_values(fj._vec, n, 0, r) for r in (1, 2))
    g1, g2 = (derivative_values(gj._vec, n, r, 0) for r in (1, 2))
    total = (
        np.einsum("qp,lk,lq,kp->", gu0, gu0, f2, g2)
        + np.einsum("qp,lkp,lq,k->", gu0, dgu, f2, g1)
        + np.einsum("qpl,lk,q,kp->", dgu_bar, gu0, f1, g2)
        + np.einsum("qpl,lkp,q,k->", dgu_bar, dgu, f1, g1)
    )
    return 0.5 * complex(total)


# -- third order ------------------------------------------------------------------


def _triple(fj: Jet, gj: Jet, ctx: ChartContext) -> Jet:
    """``g_up[l, k] g_up[q, p] g_up[t, s] f_/l̄q̄t̄ g_/kps``: the operator P, and six
    times the first term of C3."""
    f3 = _derivs(fj, ctx, True)[3]
    g3 = _derivs(gj, ctx, False)[3]
    return _raised_pairing([chart_tensors(ctx).g_up] * 3, f3, g3, ctx.n, 0)


def _curvature_term(fj: Jet, gj: Jet, ctx: ChartContext) -> Jet:
    """``r_raised[l, k, q, p] f_/l̄q̄ g_/kp``: minus the operator Q, and four times the
    second term of C3."""
    n = ctx.n
    f2 = _derivs(fj, ctx, True)[2]
    g2 = _derivs(gj, ctx, False)[2]
    _, r_raised = curvature_jets(ctx)
    inner = contract("lkqp,lq->kp", r_raised, f2, n, 0)
    return Jet._of(n, 0, contract("kp,kp->", inner, g2, n, 0))


def c3_jet(f, g, ctx: ChartContext) -> Jet:
    fj, gj = _pair_jets(f, g, ctx)
    _depth(fj, gj, 3)
    return _memo(
        ctx, "c3", (fj, gj),
        lambda: _triple(fj, gj, ctx) * (1.0 / 6.0) + _curvature_term(fj, gj, ctx) * 0.25,
    )


def c3(f, g, ctx: ChartContext) -> complex:
    """Third-order operator of the standard product (needs the metric)."""
    return c3_jet(f, g, ctx).value()


def _p_jet(f, g, ctx: ChartContext) -> Jet:
    """The operator P by a second route: the holomorphic indices of ``g_/kps`` are
    raised first, so that comparing P with :func:`_triple` through C3 tests both."""
    fj, gj = _pair_jets(f, g, ctx)
    n, gu = ctx.n, chart_tensors(ctx).g_up
    f3 = _derivs(fj, ctx, True)[3]
    g3 = _derivs(gj, ctx, False)[3]
    raised = contract("lk,kps->lps", gu, g3, n, 0)
    raised = contract("qp,lps->lqs", gu, raised, n, 0)
    raised = contract("ts,lqs->lqt", gu, raised, n, 0)
    return Jet._of(n, 0, contract("lqt,lqt->", raised, f3, n, 0))


def _q_jet(f, g, ctx: ChartContext) -> Jet:
    return -_curvature_term(*_pair_jets(f, g, ctx), ctx)


def r_operator_jet(f, g, ctx: ChartContext) -> Jet:
    """One-differentiable curvature-square operator."""
    fj, gj = _pair_jets(f, g, ctx)

    def build():
        f1, g1 = _derivs(fj, ctx, True)[1], _derivs(gj, ctx, False)[1]
        return _raised_pairing([_r1_jets(ctx)], f1, g1, ctx.n, 0)

    return _memo(ctx, "r", (fj, gj), build)


def r_operator(f, g, ctx: ChartContext) -> complex:
    return r_operator_jet(f, g, ctx).value()


def _s_values(f, g, ctx: ChartContext) -> tuple[complex, complex]:
    """Values of the locally defined operator S and of its rewriting S-tilde."""
    fj, gj = _pair_jets(f, g, ctx)
    n, gd0 = ctx.n, ctx.g_dn_array[0]
    dgu, dgu_bar = metric_derivative_values(ctx)
    f1 = derivative_values(fj._vec, n, 0, 1)
    g1 = derivative_values(gj._vec, n, 1, 0)
    s = np.einsum("mn,lsq,nps,qmt,tkp,l,k->", gd0, dgu_bar, dgu, dgu_bar, dgu, f1, g1)
    s_tilde = np.einsum("lmq,npm,qsn,tkp,st,l,k->", dgu_bar, dgu, dgu_bar, dgu, gd0, f1, g1)
    return complex(s), complex(s_tilde)


def operator_breakdown(f, g, ctx: ChartContext) -> OperatorBreakdown:
    """Values of P, Q, R, S and S-tilde at the base point."""
    s, s_tilde = _s_values(f, g, ctx)
    return OperatorBreakdown(
        p=_p_jet(f, g, ctx).value(),
        q=_q_jet(f, g, ctx).value(),
        r=r_operator(f, g, ctx),
        s=s,
        s_tilde=s_tilde,
    )


def c3_tilde_jet(f, g, ctx: ChartContext) -> Jet:
    return c3_jet(f, g, ctx) + r_operator_jet(f, g, ctx) * (1.0 / 12.0)


def c3_tilde(f, g, ctx: ChartContext) -> complex:
    """Modified third-order operator, regular in the inverse metric."""
    return c3_tilde_jet(f, g, ctx).value()


# -- the product -------------------------------------------------------------------


def star_product_jets(
    f, g, ctx: ChartContext, variant: StarVariant = StarVariant.STANDARD
) -> tuple[Jet, Jet, Jet, Jet]:
    """Jets of the four coefficient functions of ``f * g``, that of ``nu^r`` to degree
    ``3 - r`` or less for shallower arguments (:func:`_depth`): an outer operator of
    order ``i <= 3 - r`` meets it in a nested product's coefficient of ``nu^(i + r)``."""
    fj, gj = _pair_jets(f, g, ctx)
    t = _depth(fj, gj, 0)
    order3 = c3_tilde_jet if variant is StarVariant.MODIFIED else c3_jet
    return (
        _memo(ctx, "product", (fj, gj), lambda: fj.truncated(t) * gj.truncated(t)),
        c1_jet(fj, gj, ctx),
        c2_jet(fj, gj, ctx),
        order3(fj, gj, ctx),
    )


def star_product(
    f, g, ctx: ChartContext, variant: StarVariant = StarVariant.STANDARD
) -> tuple[complex, complex, complex, complex]:
    """Star product of ``f`` and ``g`` at the base point: its coefficients of ``nu^0..nu^3``."""
    return tuple(j.value() for j in star_product_jets(f, g, ctx, variant))

