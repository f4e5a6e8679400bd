"""Recursive construction of left-multiplication operators.

For the standard product with separation of variables, left multiplication
by a function ``f`` is a formal differential operator
``A = A_0 + nu*A_1 + nu^2*A_2 + ...`` containing only holomorphic partial
derivatives.  ``A_0`` is multiplication by ``f`` and the higher components
solve the commutator recursion

    [A_r, m(dbar_l Phi)] = [dbar_l, A_{r-1}]        for every l,

where ``m(u)`` denotes multiplication by ``u``.  Writing
``A_r = sum_alpha a_alpha d^alpha`` and matching coefficients of
``d^beta`` turns the recursion into triangular linear systems over the jet
ring: for every ``beta`` and ``l``

    sum_k (beta_k + 1) * a_{beta+e_k} * g_dn[k][l]
        = dbar_l a'_beta
          - sum_{|alpha| >= |beta|+2} binom(alpha, beta)
            * (d^{alpha-beta} dbar_l Phi) * a_alpha,

solved for decreasing coefficient degree.  For dimension two and higher
the same coefficient is pinned by several ``beta``; the constructions must
agree, and a disagreement is reported as an error rather than averaged
away.

The coefficient values of ``A_r`` applied to a second function reproduce
the bidifferential operators of the product, which is what makes this an
oracle for the covariant formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import ChartContext, as_chart_jet
from .jets import (
    Jet,
    MultiIndex,
    iter_multi_indices,
    multi_binomial,
    solve_linear_system,
)

__all__ = [
    "OracleConsistencyError",
    "FormalOperator",
    "build_left_mult",
    "oracle_cr",
]

#: relative tolerance for agreement between redundant coefficient determinations
CONSISTENCY_TOL = 1e-8


def min_oracle_order(r_max: int) -> int:
    """Jet order required for a recursion of depth ``r_max``, with margin."""
    return 2 * r_max + 4


class OracleConsistencyError(RuntimeError):
    """Redundant determinations of an operator coefficient disagree."""


@dataclass(frozen=True)
class FormalOperator:
    """One component ``A_r`` of a left-multiplication operator.

    ``terms`` maps holomorphic multi-indices to jet coefficients; the
    degree-zero key appears only for ``r = 0`` (multiplication by the
    function itself), so ``A_r * 1 = 0`` for ``r >= 1``.
    """

    n: int
    order: int
    terms: dict

    def apply(self, g, ctx: ChartContext) -> complex:
        """Value of ``A_r g`` at the base point."""
        g_jet = as_chart_jet(g, ctx)
        total = 0j
        zero = (0,) * self.n
        for alpha, coeff in self.terms.items():
            total += coeff.value() * g_jet.derivative_at(alpha, zero)
        return total


def build_left_mult(f, ctx: ChartContext, r_max: int = 3) -> list[FormalOperator]:
    """Components ``A_0 .. A_r_max`` of left multiplication by ``f``.

    Coefficients at level ``r`` are carried as jets of order
    ``r_max - r``: level ``r+1`` consumes one antiholomorphic derivative of
    them and only base-point values are ever read off the top level.
    """
    if not 0 <= r_max <= 3:
        raise ValueError("recursion depth must be between 0 and 3")
    if ctx.order < min_oracle_order(r_max):
        raise ValueError(
            f"jet order {ctx.order} too small for recursion depth {r_max}; "
            f"need at least {min_oracle_order(r_max)}"
        )
    n = ctx.n
    f_jet = as_chart_jet(f, ctx)

    levels: list[dict[MultiIndex, Jet]] = [{(0,) * n: f_jet.truncated(r_max)}]
    for r in range(1, r_max + 1):
        levels.append(_solve_level(levels[r - 1], ctx, r, trunc=r_max - r))

    return [FormalOperator(n=n, order=r, terms=levels[r]) for r in range(r_max + 1)]


def _phi_mixed_deriv(ctx: ChartContext, delta: MultiIndex, l: int, trunc: int) -> Jet:
    """Jet of ``d^delta dbar_l Phi`` truncated to ``trunc``."""
    jet = ctx.phi.deriv_bar(l)
    for axis, count in enumerate(delta):
        for _ in range(count):
            jet = jet.deriv(axis)
    return jet.truncated(trunc)


def _solve_level(
    prev: dict[MultiIndex, Jet], ctx: ChartContext, r: int, trunc: int
) -> dict[MultiIndex, Jet]:
    n = ctx.n
    zero_jet = Jet.zero(n, trunc)
    g_dn_t = [[ctx.g_dn[k][l].truncated(trunc) for l in range(n)] for k in range(n)]
    current: dict[MultiIndex, Jet] = {}

    for m in range(r, 0, -1):
        stage: dict[MultiIndex, Jet] = {}
        for beta in iter_multi_indices(n, m - 1):
            rhs = []
            for l in range(n):
                base = prev.get(beta)
                acc = base.deriv_bar(l).truncated(trunc) if base is not None else zero_jet
                # already-determined higher-degree coefficients feed back in
                for alpha, a_jet in current.items():
                    if any(a < b for a, b in zip(alpha, beta)):
                        continue
                    delta = tuple(a - b for a, b in zip(alpha, beta))
                    factor = multi_binomial(alpha, beta)
                    acc = acc - (
                        _phi_mixed_deriv(ctx, delta, l, trunc) * a_jet
                    ) * factor
                rhs.append(acc)
            matrix = [
                [g_dn_t[k][l] * (beta[k] + 1) for k in range(n)] for l in range(n)
            ]
            solution = solve_linear_system(matrix, rhs)
            for k in range(n):
                gamma = beta[:k] + (beta[k] + 1,) + beta[k + 1 :]
                if gamma in stage:
                    _require_agreement(stage[gamma], solution[k], gamma, r)
                else:
                    stage[gamma] = solution[k]
        current.update(stage)

    return current


def _require_agreement(first: Jet, second: Jet, gamma: MultiIndex, r: int) -> None:
    scale = 1.0 + first.max_abs()
    gap = (first - second).max_abs()
    # max_abs is inf for a non-finite coefficient, and inf <= tol * inf holds
    if not (gap <= CONSISTENCY_TOL * scale and math.isfinite(scale)):
        raise OracleConsistencyError(
            f"coefficient {gamma} of level {r} determined inconsistently "
            f"(relative gap {gap / scale:.3e}); the recursion admits a unique "
            f"solution, so this indicates corrupted input data or a bug"
        )


def oracle_cr(f, g, ctx: ChartContext, r: int) -> complex:
    """Value of the order-``r`` bidifferential operator via the recursion."""
    operators = build_left_mult(f, ctx, r_max=r)
    return operators[r].apply(g, ctx)
