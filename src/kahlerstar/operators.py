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
expressible through the inverse metric alone.

Every contraction is a chain of :func:`kahlerstar.jets.contract` calls on
the chart's jet-tensor arrays.  The covariant derivatives of a function are
built once per chart, side and truncation and kept in the chart's memo
(:mod:`kahlerstar.geometry` alone knows its keys).
The raw-derivative forms (:func:`c2_expanded`, S and S-tilde, the Poisson
bracket) are one :func:`numpy.einsum` per term over base-point partial
derivatives read by :func:`kahlerstar.jets.derivative_values`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ChartContext,
    _derivs,
    _r1_jets,
    as_chart_jet,
    chart_tensors,
    curvature_jets,
    metric_derivative_values,
)
from .jets import Jet, contract, derivative_values

__all__ = [
    "StarVariant",
    "NuPolynomial",
    "OperatorBreakdown",
    "PoissonCheck",
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
    "poisson_antisymmetry",
]


class StarVariant(enum.Enum):
    """Which third-order operator the product uses."""

    STANDARD = "standard"
    MODIFIED = "modified"


@dataclass(frozen=True)
class NuPolynomial:
    """Degree-3 truncated polynomial in the formal parameter; nu^4 == 0."""

    c: tuple

    def __post_init__(self):
        if len(self.c) != 4:
            raise ValueError("a NuPolynomial has exactly four coefficients")
        object.__setattr__(self, "c", tuple(complex(v) for v in self.c))

    def __getitem__(self, r: int) -> complex:
        return self.c[r]


@dataclass(frozen=True)
class OperatorBreakdown:
    """Values of the auxiliary bidifferential operators at the base point."""

    p: complex
    q: complex
    r: complex
    s: complex
    s_tilde: complex


@dataclass(frozen=True)
class PoissonCheck:
    """Antisymmetrized first-order operator against the Poisson bracket."""

    antisymmetrized: complex
    bracket: complex


# -- contraction helpers -------------------------------------------------------


def _pair_jets(f, g, ctx: ChartContext) -> tuple[Jet, Jet]:
    return as_chart_jet(f, ctx), as_chart_jet(g, ctx)


def _pairing(tensor, f_tensor, g_tensor, ctx: ChartContext, trunc: int) -> Jet:
    """``tensor[l, k] f[l] g[k]`` as a jet of order ``trunc``."""
    n = ctx.n
    half = contract("lk,l->k", tensor, f_tensor, n, trunc)
    return Jet._of(n, trunc, contract("k,k->", half, g_tensor, n, trunc))


# -- first and second order ------------------------------------------------------


def c1_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    fj, gj = _pair_jets(f, g, ctx)
    f1 = _derivs(fj, ctx, True, 1, trunc)[1]
    g1 = _derivs(gj, ctx, False, 1, trunc)[1]
    return _pairing(chart_tensors(ctx, trunc).g_up, f1, g1, ctx, trunc)


def c1(f, g, ctx: ChartContext) -> complex:
    """First-order operator: inverse metric contracted with first derivatives."""
    return c1_jet(f, g, ctx, 0).value()


def c2_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    fj, gj = _pair_jets(f, g, ctx)
    n, gu = ctx.n, chart_tensors(ctx, trunc).g_up
    f2 = _derivs(fj, ctx, True, 2, trunc)[2]
    g2 = _derivs(gj, ctx, False, 2, trunc)[2]
    # raise the two antiholomorphic indices of f2 one at a time
    raised = contract("lk,lq->kq", gu, f2, n, trunc)
    raised = contract("qp,kq->kp", gu, raised, n, trunc)
    return Jet._of(n, trunc, contract("kp,kp->", raised, g2, n, trunc)) * 0.5


def c2(f, g, ctx: ChartContext) -> complex:
    """Second-order operator, covariant form."""
    return c2_jet(f, g, ctx, 0).value()


def c2_expanded(f, g, ctx: ChartContext) -> complex:
    """Second-order operator in raw-derivative form.

    Written entirely in partial derivatives of the inverse metric and of
    the arguments; must agree with :func:`c2` and serves as its
    consistency check.
    """
    fj, gj = _pair_jets(f, g, ctx)
    n, gu0 = ctx.n, chart_tensors(ctx, 0).g_up[0]
    dgu, dgu_bar = metric_derivative_values(ctx)
    f1, f2 = (derivative_values(fj._vec, n, 0, r) for r in (1, 2))
    g1, g2 = (derivative_values(gj._vec, n, r, 0) for r in (1, 2))
    total = (
        np.einsum("qp,lk,lq,kp->", gu0, gu0, f2, g2)
        + np.einsum("qp,plk,lq,k->", gu0, dgu, f2, g1)
        + np.einsum("lqp,lk,q,kp->", dgu_bar, gu0, f1, g2)
        + np.einsum("lqp,plk,q,k->", dgu_bar, dgu, f1, g1)
    )
    return 0.5 * complex(total)


# -- third order ------------------------------------------------------------------


def _triple(fj: Jet, gj: Jet, ctx: ChartContext, trunc: int) -> Jet:
    """``g_up[l, k] g_up[q, p] g_up[t, s] f_/l̄q̄t̄ g_/kps``: the operator P, and six
    times the first term of C3."""
    n, gu = ctx.n, chart_tensors(ctx, trunc).g_up
    f3 = _derivs(fj, ctx, True, 3, trunc)[3]
    g3 = _derivs(gj, ctx, False, 3, trunc)[3]
    # raise the three antiholomorphic indices of f3 successively
    raised = contract("lk,lqt->kqt", gu, f3, n, trunc)
    raised = contract("qp,kqt->kpt", gu, raised, n, trunc)
    raised = contract("ts,kpt->kps", gu, raised, n, trunc)
    return Jet._of(n, trunc, contract("kps,kps->", raised, g3, n, trunc))


def _curvature_term(fj: Jet, gj: Jet, ctx: ChartContext, trunc: int) -> Jet:
    """``r_raised[l, k, q, p] f_/l̄q̄ g_/kp``: minus the operator Q, and four times the
    second term of C3."""
    n = ctx.n
    f2 = _derivs(fj, ctx, True, 2, trunc)[2]
    g2 = _derivs(gj, ctx, False, 2, trunc)[2]
    _, r_raised = curvature_jets(ctx, trunc)
    inner = contract("lkqp,lq->kp", r_raised, f2, n, trunc)
    return Jet._of(n, trunc, contract("kp,kp->", inner, g2, n, trunc))


def c3_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    fj, gj = _pair_jets(f, g, ctx)
    triple = _triple(fj, gj, ctx, trunc)
    return triple * (1.0 / 6.0) + _curvature_term(fj, gj, ctx, trunc) * 0.25


def c3(f, g, ctx: ChartContext) -> complex:
    """Third-order operator of the standard product (needs the metric)."""
    return c3_jet(f, g, ctx, 0).value()


def _p_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    """The operator P by a second route: the holomorphic indices of ``g_/kps`` are
    raised first, so that comparing P with :func:`_triple` through C3 tests both."""
    fj, gj = _pair_jets(f, g, ctx)
    n, gu = ctx.n, chart_tensors(ctx, trunc).g_up
    f3 = _derivs(fj, ctx, True, 3, trunc)[3]
    g3 = _derivs(gj, ctx, False, 3, trunc)[3]
    raised = contract("lk,kps->lps", gu, g3, n, trunc)
    raised = contract("qp,lps->lqs", gu, raised, n, trunc)
    raised = contract("ts,lqs->lqt", gu, raised, n, trunc)
    return Jet._of(n, trunc, contract("lqt,lqt->", raised, f3, n, trunc))


def _q_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    return -_curvature_term(*_pair_jets(f, g, ctx), ctx, trunc)


def r_operator_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    """One-differentiable curvature-square operator."""
    fj, gj = _pair_jets(f, g, ctx)
    f1 = _derivs(fj, ctx, True, 1, trunc)[1]
    g1 = _derivs(gj, ctx, False, 1, trunc)[1]
    return _pairing(_r1_jets(ctx, trunc), f1, g1, ctx, trunc)


def r_operator(f, g, ctx: ChartContext) -> complex:
    return r_operator_jet(f, g, ctx, 0).value()


def _s_values(f, g, ctx: ChartContext) -> tuple[complex, complex]:
    """Values of the locally defined operator S and of its rewriting S-tilde."""
    fj, gj = _pair_jets(f, g, ctx)
    n, gd0 = ctx.n, ctx.g_dn_array[0]
    dgu, dgu_bar = metric_derivative_values(ctx)
    f1 = derivative_values(fj._vec, n, 0, 1)
    g1 = derivative_values(gj._vec, n, 1, 0)
    s = np.einsum("mn,qls,snp,tqm,ptk,l,k->", gd0, dgu_bar, dgu, dgu_bar, dgu, f1, g1)
    s_tilde = np.einsum("qlm,mnp,nqs,ptk,st,l,k->", dgu_bar, dgu, dgu_bar, dgu, gd0, f1, g1)
    return complex(s), complex(s_tilde)


def operator_breakdown(f, g, ctx: ChartContext) -> OperatorBreakdown:
    """Values of P, Q, R, S and S-tilde at the base point."""
    s, s_tilde = _s_values(f, g, ctx)
    return OperatorBreakdown(
        p=_p_jet(f, g, ctx, 0).value(),
        q=_q_jet(f, g, ctx, 0).value(),
        r=r_operator(f, g, ctx),
        s=s,
        s_tilde=s_tilde,
    )


def c3_tilde_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    return c3_jet(f, g, ctx, trunc) + r_operator_jet(f, g, ctx, trunc) * (1.0 / 12.0)


def c3_tilde(f, g, ctx: ChartContext) -> complex:
    """Modified third-order operator, regular in the inverse metric."""
    return c3_tilde_jet(f, g, ctx, 0).value()


# -- the product -------------------------------------------------------------------


def star_product_jets(
    f, g, ctx: ChartContext, variant: StarVariant = StarVariant.STANDARD, trunc: int = 0
) -> tuple[Jet, Jet, Jet, Jet]:
    """Jets of the four coefficient functions of ``f * g``."""
    fj, gj = _pair_jets(f, g, ctx)
    order3 = c3_tilde_jet if variant is StarVariant.MODIFIED else c3_jet
    return (
        fj.truncated(trunc) * gj.truncated(trunc),
        c1_jet(fj, gj, ctx, trunc),
        c2_jet(fj, gj, ctx, trunc),
        order3(fj, gj, ctx, trunc),
    )


def star_product(
    f, g, ctx: ChartContext, variant: StarVariant = StarVariant.STANDARD
) -> NuPolynomial:
    """Star product of ``f`` and ``g`` at the base point, truncated at order 3."""
    jets = star_product_jets(f, g, ctx, variant, 0)
    return NuPolynomial(tuple(j.value() for j in jets))


def poisson_antisymmetry(f, g, ctx: ChartContext) -> PoissonCheck:
    """Antisymmetrized first-order operator next to the Poisson bracket.

    The two numbers are the same contraction arranged differently; no
    convention for the imaginary prefactor of the bracket is asserted.
    """
    fj, gj = _pair_jets(f, g, ctx)
    n, gu0 = ctx.n, chart_tensors(ctx, 0).g_up[0]
    anti = c1(fj, gj, ctx) - c1(gj, fj, ctx)
    f_bar, f_hol = derivative_values(fj._vec, n, 0, 1), derivative_values(fj._vec, n, 1, 0)
    g_bar, g_hol = derivative_values(gj._vec, n, 0, 1), derivative_values(gj._vec, n, 1, 0)
    bracket = np.einsum("lk,l,k->", gu0, f_bar, g_hol) - np.einsum("lk,l,k->", gu0, g_bar, f_hol)
    return PoissonCheck(antisymmetrized=anti, bracket=complex(bracket))
