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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .geometry import (
    ChartContext,
    as_chart_jet,
    covariant_derivative_jets,
    curvature_jets,
    metric_derivative_values,
    truncated_product,
)
from .jets import Jet, unit_index

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

    def __add__(self, other: "NuPolynomial") -> "NuPolynomial":
        return NuPolynomial(tuple(a + b for a, b in zip(self.c, other.c)))

    def __sub__(self, other: "NuPolynomial") -> "NuPolynomial":
        return NuPolynomial(tuple(a - b for a, b in zip(self.c, other.c)))

    def __mul__(self, other: "NuPolynomial") -> "NuPolynomial":
        out = [0j] * 4
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                if i + j < 4:
                    out[i + j] += a * b
        return NuPolynomial(tuple(out))

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


def _anti_derivs(f_jet: Jet, ctx: ChartContext, up_to: int, trunc: int):
    """Antiholomorphic covariant derivatives of orders 1..up_to, exact to degree ``trunc``:
    they read ``f_jet`` only up to degree ``trunc + up_to``, so the rest is cut off first."""
    f_jet = f_jet.truncated(min(trunc + up_to, f_jet.trunc))
    return covariant_derivative_jets(f_jet, ctx, barred=True, up_to=up_to)


def _hol_derivs(g_jet: Jet, ctx: ChartContext, up_to: int, trunc: int):
    """Holomorphic counterpart of :func:`_anti_derivs`."""
    g_jet = g_jet.truncated(min(trunc + up_to, g_jet.trunc))
    return covariant_derivative_jets(g_jet, ctx, barred=False, up_to=up_to)


def _r1_jets(ctx: ChartContext, trunc: int):
    """Curvature-square tensor ``r1[l][k]`` contracting the one-differentiable
    operator; cached per context and truncation."""
    key = ("r1_jets", trunc)
    if key in ctx._cache:
        return ctx._cache[key]
    n = ctx.n
    r_up, _ = curvature_jets(ctx, trunc)
    gu = ctx.g_up
    r1 = tuple(
        tuple(
            sum(
                (
                    truncated_product(trunc, gu[nn][m], r_up[l][p][m][q], r_up[q][k][p][nn])
                    for m in range(n)
                    for nn in range(n)
                    for p in range(n)
                    for q in range(n)
                ),
                Jet.zero(n, trunc),
            )
            for k in range(n)
        )
        for l in range(n)
    )
    ctx._cache[key] = r1
    return r1


# -- first and second order ------------------------------------------------------


def c1_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    fj, gj = _pair_jets(f, g, ctx)
    n = ctx.n
    f1 = _anti_derivs(fj, ctx, 1, trunc)[1]
    g1 = _hol_derivs(gj, ctx, 1, trunc)[1]
    return sum(
        (truncated_product(trunc, ctx.g_up[l][k], f1[l], g1[k]) for l in range(n) for k in range(n)),
        Jet.zero(n, trunc),
    )


def c1(f, g, ctx: ChartContext) -> complex:
    """First-order operator: inverse metric contracted with first derivatives."""
    return c1_jet(f, g, ctx, 0).value()


def c2_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    fj, gj = _pair_jets(f, g, ctx)
    n = ctx.n
    f2 = _anti_derivs(fj, ctx, 2, trunc)[2]
    g2 = _hol_derivs(gj, ctx, 2, trunc)[2]
    gu = ctx.g_up
    zero = Jet.zero(n, trunc)
    # raise the two antiholomorphic indices of f2 one at a time
    t1 = [
        [
            sum((truncated_product(trunc, gu[l][k], f2[l][q]) for l in range(n)), zero)
            for q in range(n)
        ]
        for k in range(n)
    ]
    acc = zero
    for k in range(n):
        for p in range(n):
            up = sum((truncated_product(trunc, gu[q][p], t1[k][q]) for q in range(n)), zero)
            acc = acc + truncated_product(trunc, up, g2[k][p])
    return acc * 0.5


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
    n = ctx.n

    zero = (0,) * n
    gu0 = [[ctx.g_up[l][k].value() for k in range(n)] for l in range(n)]
    dgu, dgu_bar = metric_derivative_values(ctx)
    f1 = [fj.derivative_at(zero, unit_index(n, l)) for l in range(n)]
    g1 = [gj.derivative_at(unit_index(n, k), zero) for k in range(n)]
    f2 = [[fj.derivative_at(zero, unit_index(n, l, q)) for q in range(n)] for l in range(n)]
    g2 = [[gj.derivative_at(unit_index(n, k, p), zero) for p in range(n)] for k in range(n)]

    total = 0j
    for l in range(n):
        for k in range(n):
            for q in range(n):
                for p in range(n):
                    total += gu0[q][p] * gu0[l][k] * f2[l][q] * g2[k][p]
                    total += gu0[q][p] * dgu[p][l][k] * f2[l][q] * g1[k]
                    total += dgu_bar[l][q][p] * gu0[l][k] * f1[q] * g2[k][p]
                    total += dgu_bar[l][q][p] * dgu[p][l][k] * f1[q] * g1[k]
    return 0.5 * total


# -- third order ------------------------------------------------------------------


def c3_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    fj, gj = _pair_jets(f, g, ctx)
    n = ctx.n
    f_derivs = _anti_derivs(fj, ctx, 3, trunc)
    g_derivs = _hol_derivs(gj, ctx, 3, trunc)
    f2, f3 = f_derivs[2], f_derivs[3]
    g2, g3 = g_derivs[2], g_derivs[3]
    gu = ctx.g_up
    _, r_raised = curvature_jets(ctx, max(trunc, 0))

    zero = Jet.zero(n, trunc)
    # triple term: raise the three antiholomorphic indices of f3 successively
    t1 = [
        [
            [
                sum((truncated_product(trunc, gu[l][k], f3[l][q][t]) for l in range(n)), zero)
                for t in range(n)
            ]
            for q in range(n)
        ]
        for k in range(n)
    ]
    t2 = [
        [
            [
                sum((truncated_product(trunc, gu[q][p], t1[k][q][t]) for q in range(n)), zero)
                for t in range(n)
            ]
            for p in range(n)
        ]
        for k in range(n)
    ]
    triple = zero
    for k in range(n):
        for p in range(n):
            for s in range(n):
                raised = sum(
                    (truncated_product(trunc, gu[t][s], t2[k][p][t]) for t in range(n)), zero
                )
                triple = triple + truncated_product(trunc, raised, g3[k][p][s])

    curv = zero
    for k in range(n):
        for p in range(n):
            inner = sum(
                (
                    truncated_product(trunc, r_raised[l][k][q][p], f2[l][q])
                    for l in range(n)
                    for q in range(n)
                ),
                zero,
            )
            curv = curv + truncated_product(trunc, inner, g2[k][p])

    return triple * (1.0 / 6.0) + curv * 0.25


def c3(f, g, ctx: ChartContext) -> complex:
    """Third-order operator of the standard product (needs the metric)."""
    return c3_jet(f, g, ctx, 0).value()


def _p_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    fj, gj = _pair_jets(f, g, ctx)
    n = ctx.n
    f3 = _anti_derivs(fj, ctx, 3, trunc)[3]
    g3 = _hol_derivs(gj, ctx, 3, trunc)[3]
    gu = ctx.g_up
    acc = Jet.zero(n, trunc)
    for l in range(n):
        for k in range(n):
            for q in range(n):
                for p in range(n):
                    for t in range(n):
                        for s in range(n):
                            acc = acc + truncated_product(
                                trunc, gu[l][k], gu[q][p], gu[t][s], f3[l][q][t], g3[k][p][s]
                            )
    return acc


def _q_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    fj, gj = _pair_jets(f, g, ctx)
    n = ctx.n
    f2 = _anti_derivs(fj, ctx, 2, trunc)[2]
    g2 = _hol_derivs(gj, ctx, 2, trunc)[2]
    _, r_raised = curvature_jets(ctx, trunc)
    acc = Jet.zero(n, trunc)
    for l in range(n):
        for k in range(n):
            for q in range(n):
                for p in range(n):
                    acc = acc + truncated_product(
                        trunc, r_raised[l][k][q][p], f2[l][q], g2[k][p]
                    )
    return -acc


def r_operator_jet(f, g, ctx: ChartContext, trunc: int = 0) -> Jet:
    """One-differentiable curvature-square operator."""
    fj, gj = _pair_jets(f, g, ctx)
    n = ctx.n
    f1 = _anti_derivs(fj, ctx, 1, trunc)[1]
    g1 = _hol_derivs(gj, ctx, 1, trunc)[1]
    r1 = _r1_jets(ctx, trunc)
    return sum(
        (truncated_product(trunc, r1[l][k], f1[l], g1[k]) for l in range(n) for k in range(n)),
        Jet.zero(n, trunc),
    )


def r_operator(f, g, ctx: ChartContext) -> complex:
    return r_operator_jet(f, g, ctx, 0).value()


def _s_values(f, g, ctx: ChartContext) -> tuple[complex, complex]:
    """Values of the locally defined operator S and of its rewriting S-tilde."""
    fj, gj = _pair_jets(f, g, ctx)
    n = ctx.n

    zero = (0,) * n
    gd0 = [[ctx.g_dn[k][l].value() for l in range(n)] for k in range(n)]
    dgu, dgu_bar = metric_derivative_values(ctx)
    f1 = [fj.derivative_at(zero, unit_index(n, l)) for l in range(n)]
    g1 = [gj.derivative_at(unit_index(n, k), zero) for k in range(n)]

    s = 0j
    s_tilde = 0j
    idx = range(n)
    for m in idx:
        for nn in idx:
            for q in idx:
                for l in idx:
                    for ss in idx:
                        for p in idx:
                            for t in idx:
                                for k in idx:
                                    s += (
                                        gd0[m][nn]
                                        * dgu_bar[q][l][ss]
                                        * dgu[ss][nn][p]
                                        * dgu_bar[t][q][m]
                                        * dgu[p][t][k]
                                        * f1[l]
                                        * g1[k]
                                    )
                                    s_tilde += (
                                        dgu_bar[q][l][m]
                                        * dgu[m][nn][p]
                                        * dgu_bar[nn][q][ss]
                                        * dgu[p][t][k]
                                        * gd0[ss][t]
                                        * f1[l]
                                        * g1[k]
                                    )
    return s, s_tilde


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
        truncated_product(trunc, fj, gj),
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
    n = ctx.n
    anti = c1(fj, gj, ctx) - c1(gj, fj, ctx)

    zero = (0,) * n
    gu0 = [[ctx.g_up[l][k].value() for k in range(n)] for l in range(n)]
    bracket = 0j
    for l in range(n):
        for k in range(n):
            bracket += gu0[l][k] * (
                fj.derivative_at(zero, unit_index(n, l)) * gj.derivative_at(unit_index(n, k), zero)
                - gj.derivative_at(zero, unit_index(n, l)) * fj.derivative_at(unit_index(n, k), zero)
            )
    return PoissonCheck(antisymmetrized=anti, bracket=bracket)
