"""Recursive construction of left-multiplication operators.

For the standard product with separation of variables (Karabegov, CMP 180,
1996), left multiplication by ``f`` is a formal operator
``A = A_0 + nu*A_1 + ...`` with only holomorphic derivatives: ``A_0`` is
multiplication by ``f`` and ``[A_r, m(dbar_l Phi)] = [dbar_l, A_{r-1}]`` for
every ``l``, with ``m(u)`` multiplication by ``u``.  Writing
``A_r = sum_j T_j[k1..kj] d_k1...d_kj / j!`` with symmetric jet tensors
``T_j`` (the coefficient of ``d^alpha`` is ``T_j[K(alpha)] / alpha!``) gives
one equation per stage ``d = r-1, ..., 0``:

    T_{d+1}[k, K] g_dn[k, l]
        = dbar_l T'_d[K] - sum_{j=d+2..r} T_j[I, K] d_I dbar_l Phi / (j-d)!,

with ``T'`` the level ``r-1``, ``K`` of ``d`` indices and ``I`` of ``j-d``.
Every stage has the matrix ``g_dn^T``, inverted once per build, so each
solve and each term of the sum is one :func:`kahlerstar.jets.contract`.
For ``n >= 2``, ``T_{d+1}[k, K]`` is pinned again by the equation with ``k``
swapped into ``K``; the copies must agree per coefficient, and a disagreement
is an error rather than averaged away.  That constrains ``dbar g_dn`` only, so the
``g_dn`` read is held the same way to ``d_k dbar_l Phi`` from the potential's jet.
The oracle reads only the potential's jet and ``g_dn``, never what the covariant
formulas it checks are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PRODUCT_ORDER, ChartContext, _memo, as_chart_jet
from .jets import contract, derivative_values, gradient, jet_matrix_inverse, unit_index

__all__ = [
    "OracleConsistencyError",
    "FormalOperator",
    "build_left_mult",
    "oracle_cr",
]

#: relative tolerance for agreement between redundant coefficient determinations
CONSISTENCY_TOL = 1e-8


class OracleConsistencyError(RuntimeError):
    """Redundant determinations of an operator coefficient disagree."""


@dataclass(frozen=True, eq=False)
class FormalOperator:
    """One component ``A_r = sum_j T_j[K] d_K / j!`` of a left-multiplication operator.

    ``tensors[j]`` is the symmetric jet tensor ``T_j`` of rank ``j``, or ``None``
    where it vanishes: ``T_0`` (multiplication by the function itself) appears
    only for ``r = 0``, so ``A_r * 1 = 0`` for ``r >= 1``.  Arrays have no truth
    value, so operators compare by identity.
    """

    n: int
    order: int
    tensors: list

    def apply(self, g, ctx: ChartContext) -> complex:
        """Value of ``A_r g`` at the base point."""
        g_vec = as_chart_jet(g, ctx)._vec
        return complex(sum(
            (t[0] * derivative_values(g_vec, self.n, j, 0)).sum() / math.factorial(j)
            for j, t in enumerate(self.tensors) if t is not None
        ))


def build_left_mult(f, ctx: ChartContext) -> list[FormalOperator]:
    """Components ``A_0 .. A_3`` of left multiplication by ``f``.

    Tensors at level ``r`` are carried as jets of order ``3 - r``: level ``r+1``
    consumes one antiholomorphic derivative of them and only base-point values are
    ever read off the top level.  So the build reads the potential's jet to order 4,
    ``g_dn`` to 2 and ``f`` to 3, which every chart holds.  The chart's memo keeps
    one build per jet of ``f``, its tensors read-only.
    """
    fj = as_chart_jet(f, ctx)
    return _memo(ctx, "left_mult", (fj,), lambda: _recursion(fj, ctx))


def _recursion(fj, ctx: ChartContext) -> list[FormalOperator]:
    n, top = ctx.n, PRODUCT_ORDER
    # g_inv solves g_dn^T y = rhs; phi_mixed[m][:, l, i1..im] = d_i1..d_im dbar_l Phi,
    # read at truncation top - m, the highest any level needs
    phi_mixed = [gradient(ctx.phi._vec, n, top + 1, barred=True)]
    for m in range(1, top + 1):
        phi_mixed.append(gradient(phi_mixed[-1], n, top + 1 - m))
    g_dn = ctx.g_dn_array
    g_inv = jet_matrix_inverse(g_dn.transpose(0, 2, 1), n, top - 1)
    levels = [[fj._vec]]
    for r in range(1, top + 1):
        levels.append(_solve_level(levels[-1], g_inv, phi_mixed, n, r, top - r))
    # the levels' cross-check constrains dbar g_dn only: the g_dn read must also be
    # the potential's d_k dbar_l Phi
    _require_agreement(
        g_dn, phi_mixed[1].transpose(0, 2, 1),
        name=lambda axes: f"metric component g_dn[{axes[0]}][{axes[1]}]",
    )
    return [FormalOperator(n=n, order=r, tensors=t) for r, t in enumerate(levels)]


def _solve_level(prev: list, g_inv, phi_mixed: list, n: int, r: int, trunc: int) -> list:
    """Tensors ``T_0..T_r`` of level ``r`` at order ``trunc`` from those of level ``r-1``."""
    tensors = [None] * (r + 1)
    for d in range(r - 1, -1, -1):
        ks = "abc"[:d]  # rhs[:, K, l]; the indices I are "uvw"
        rhs = 0.0 if prev[d] is None else gradient(prev[d], n, trunc + 1, barred=True)
        for j in range(d + 2, r + 1):
            ins = "uvw"[: j - d]
            term = contract(f"{ins}{ks},l{ins}->{ks}l", tensors[j], phi_mixed[j - d], n, trunc)
            rhs = rhs - term / math.factorial(j - d)
        y = contract(f"kl,{ks}l->k{ks}", g_inv, rhs, n, trunc)
        if n > 1:  # in one dimension no coefficient is pinned twice
            for axis in range(2, d + 2):
                _require_agreement(y, y.swapaxes(1, axis), r)
        y.flags.writeable = False
        tensors[d + 1] = y
    return tensors


def _require_agreement(first: np.ndarray, second: np.ndarray, r: int = 0, name=None) -> None:
    """Raise unless each component of the jet tensors ``first`` and ``second`` agrees,
    relative to ``1 +`` the largest coefficient of ``first``'s jet of that component.
    ``name(axes)`` names a component; by default it is the operator coefficient of
    level ``r`` whose multi-index counts the axes."""
    scale = 1.0 + np.abs(first).max(axis=0)
    gap = np.abs(first - second).max(axis=0)
    # a non-finite coefficient makes gap or scale NaN or inf, and inf <= tol * inf holds
    bad = ~((gap <= CONSISTENCY_TOL * scale) & np.isfinite(scale))
    if bad.any():
        axes = tuple(np.argwhere(bad)[0].tolist())
        what = (
            name(axes) if name else f"coefficient {unit_index(first.shape[1], *axes)} of level {r}"
        )
        raise OracleConsistencyError(
            f"{what} determined inconsistently (relative gap {gap[axes] / scale[axes]:.3e}); "
            f"each has a unique value, so this indicates corrupted input data or a bug"
        )


def oracle_cr(f, g, ctx: ChartContext, r: int) -> complex:
    """Value of the order-``r`` bidifferential operator via the recursion: ``A_r g``."""
    if not 0 <= r <= PRODUCT_ORDER:
        raise ValueError("recursion depth must be between 0 and 3")
    return build_left_mult(f, ctx)[r].apply(g, ctx)
