"""Chart geometry derived from a Kähler potential.

All tensors are produced from the jet of the potential at a single base
point.  Index conventions used throughout (axes are 0-based):

- ``g_dn[k][l]``  is the metric component with holomorphic index ``k`` and
  antiholomorphic index ``l`` (the mixed second derivative of the
  potential).
- ``g_up[l][k]``  is the inverse, contracting so that
  ``sum_l g_dn[k][l] * g_up[l][m] = delta_km``.
- ``gamma_hol[k][p][s]`` is the holomorphic Christoffel symbol with lower
  indices ``k, p`` (symmetric) and upper index ``s``; ``gamma_anti`` is
  the barred counterpart.
- ``r_up[q][p][k][l]`` is the curvature tensor with upper antiholomorphic
  index ``q``, upper holomorphic ``p``, lower holomorphic ``k`` and lower
  antiholomorphic ``l``.
- ``r_dn[p][q][k][l]`` is the all-lower tensor (holomorphic ``p, k``,
  antiholomorphic ``q, l``); ``r_raised[l][k][q][p]`` has all four raised,
  ordered (antiholomorphic, holomorphic, antiholomorphic, holomorphic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expressions import Expr, eval_jet, parse
from .jets import Jet, jet_matrix_inverse, unit_index

__all__ = [
    "SingularMetricError",
    "ChartContext",
    "CurvatureData",
    "CovDerivTable",
    "build_chart",
    "curvature",
    "covariant_derivatives",
    "jacobi_residual",
    "as_chart_jet",
    "worst_abs",
]

#: smallest admissible metric eigenvalue (or singular value) at the base point
EIGENVALUE_FLOOR = 1e-8

#: minimum jet order accepted by :func:`build_chart`; third-order operators
#: need third covariant derivatives plus curvature, which consume six degrees
MIN_CHART_ORDER = 6


def worst_abs(values) -> float:
    """Largest magnitude among ``values``: ``inf`` if one is not finite, ``0.0`` if none.

    Every check residual that reduces several values goes through here: a
    running ``max`` drops NaN (``max(0.0, nan) == 0.0``), which would let a
    residual that is not a number pass its check.
    """
    worst = 0.0
    for value in values:
        mag = float(abs(value))  # a numpy scalar would leak into the JSON report
        if not math.isfinite(mag):
            return math.inf
        worst = max(worst, mag)
    return worst


class SingularMetricError(ArithmeticError):
    """The metric at the base point is singular or not positive definite."""


@dataclass(frozen=True)
class ChartContext:
    """Geometric state of one chart at one base point.

    Jets are carried at their maximal exact order: the potential at
    ``order``, the metric and its inverse at ``order - 2``, Christoffel
    symbols at ``order - 3``.  ``gamma_hol``/``gamma_anti`` hold the symbol
    values at the base point; the ``*_jets`` fields keep the full jets for
    downstream differentiation.  ``_cache`` holds jets derived on demand,
    among them one read-only jet per distinct function passed to
    :func:`as_chart_jet`, kept until the chart is dropped.
    """

    n: int
    z0: tuple
    zb0: tuple
    order: int
    potential: Expr
    phi: Jet
    g_dn: tuple
    g_up: tuple
    gamma_hol: tuple
    gamma_anti: tuple
    gamma_hol_jets: tuple
    gamma_anti_jets: tuple
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def metric_values(self) -> np.ndarray:
        """Metric matrix at the base point, rows holomorphic."""
        return np.array(
            [[self.g_dn[k][l].value() for l in range(self.n)] for k in range(self.n)]
        )

    def inverse_metric_values(self) -> np.ndarray:
        return np.array(
            [[self.g_up[l][k].value() for k in range(self.n)] for l in range(self.n)]
        )


@dataclass(frozen=True)
class CurvatureData:
    """Curvature components at the base point (index order as module docs)."""

    r_dn: tuple
    r_up: tuple
    r_raised: tuple


@dataclass(frozen=True)
class CovDerivTable:
    """Covariant derivatives of one function at the base point.

    ``hol1[k] = ∇_k f`` up to ``hol3[k][p][s] = ∇_s∇_p∇_k f`` and the
    barred counterparts; each tensor is fully symmetric.  Orders beyond the
    requested one are ``None``.
    """

    hol1: tuple
    hol2: tuple | None
    hol3: tuple | None
    anti1: tuple
    anti2: tuple | None
    anti3: tuple | None


def build_chart(
    potential: Expr | str,
    z0: Sequence[complex],
    zb0: Sequence[complex] | None = None,
    *,
    order: int = 10,
    n: int | None = None,
) -> ChartContext:
    """Assemble the geometric data of a chart at a base point.

    ``zb0`` defaults to the componentwise conjugate of ``z0``, which is the
    diagonal of a real-analytic chart.  Requires ``order >= 6`` so that all
    third-order operator ingredients stay exact.
    """
    if n is None:
        n = len(z0)
    if len(z0) != n:
        raise ValueError("base point dimension does not match the chart dimension")
    if order < MIN_CHART_ORDER:
        raise ValueError(f"jet order {order} too small; need at least {MIN_CHART_ORDER}")
    if isinstance(potential, str):
        potential = parse(potential, n)
    z0 = tuple(complex(v) for v in z0)
    zb0 = tuple(v.conjugate() for v in z0) if zb0 is None else tuple(complex(v) for v in zb0)

    phi = eval_jet(potential, z0, zb0, order)

    g_dn = [[phi.deriv(k).deriv_bar(l) for l in range(n)] for k in range(n)]
    _require_admissible_metric(g_dn, n)
    g_up = jet_matrix_inverse(g_dn)

    tg = order - 3
    phi3_hol = [
        [[phi.deriv(k).deriv(p).deriv_bar(t) for t in range(n)] for p in range(n)]
        for k in range(n)
    ]
    phi3_anti = [
        [[phi.deriv(s).deriv_bar(q).deriv_bar(l) for l in range(n)] for q in range(n)]
        for s in range(n)
    ]
    gamma_hol_jets = [
        [
            [
                sum(
                    (phi3_hol[k][p][t] * g_up[t][s].truncated(tg) for t in range(n)),
                    Jet.zero(n, tg),
                )
                for s in range(n)
            ]
            for p in range(n)
        ]
        for k in range(n)
    ]
    gamma_anti_jets = [
        [
            [
                sum(
                    (g_up[t][s].truncated(tg) * phi3_anti[s][q][l] for s in range(n)),
                    Jet.zero(n, tg),
                )
                for t in range(n)
            ]
            for q in range(n)
        ]
        for l in range(n)
    ]

    return ChartContext(
        n=n,
        z0=z0,
        zb0=zb0,
        order=order,
        potential=potential,
        phi=phi,
        g_dn=_freeze(g_dn),
        g_up=_freeze(g_up),
        gamma_hol=_freeze_values(gamma_hol_jets),
        gamma_anti=_freeze_values(gamma_anti_jets),
        gamma_hol_jets=_freeze(gamma_hol_jets),
        gamma_anti_jets=_freeze(gamma_anti_jets),
    )


def _freeze(nested):
    if isinstance(nested, list):
        return tuple(_freeze(x) for x in nested)
    return nested


def _freeze_values(nested):
    if isinstance(nested, list):
        return tuple(_freeze_values(x) for x in nested)
    return nested.value()


def _require_admissible_metric(g_dn, n) -> None:
    m = np.array([[g_dn[k][l].value() for l in range(n)] for k in range(n)])
    hermitian_defect = np.max(np.abs(m - m.conj().T)) if n else 0.0
    if hermitian_defect < 1e-9:
        smallest = np.min(np.linalg.eigvalsh((m + m.conj().T) / 2.0))
        if smallest < EIGENVALUE_FLOOR:
            raise SingularMetricError(
                f"metric at the base point is not positive definite "
                f"(smallest eigenvalue {smallest:.3e})"
            )
    else:
        # formal base point (zb0 not conjugate to z0): only require invertibility
        smallest = np.min(np.linalg.svd(m, compute_uv=False))
        if smallest < EIGENVALUE_FLOOR:
            raise SingularMetricError(
                f"metric at the base point is singular (smallest singular value {smallest:.3e})"
            )


def truncated_product(trunc: int, *jets: Jet) -> Jet:
    """Product of ``jets``, each first truncated at ``trunc`` (none may be shorter)."""
    out = jets[0].truncated(trunc)
    for j in jets[1:]:
        out = out * j.truncated(trunc)
    return out


# -- curvature -----------------------------------------------------------------


def curvature_jets(ctx: ChartContext, trunc: int) -> tuple:
    """Jets of ``r_up`` and ``r_raised`` at truncation ``trunc`` (cached).

    ``r_up`` follows the inverse-metric formula: the mixed second
    derivative of ``g_up`` minus the metric-contracted product of its first
    derivatives.
    """
    key = ("curvature_jets", trunc)
    if key in ctx._cache:
        return ctx._cache[key]
    n = ctx.n
    if trunc > ctx.order - 4:
        raise ValueError("jet order too small for curvature jets at this truncation")
    gu = ctx.g_up
    gd = ctx.g_dn
    dgu = [[[gu[l][k].deriv(p) for k in range(n)] for l in range(n)] for p in range(n)]
    dgu_bar = [[[gu[l][k].deriv_bar(q) for k in range(n)] for l in range(n)] for q in range(n)]
    r_up = [
        [
            [
                [
                    gu[q][p].deriv(k).deriv_bar(l).truncated(trunc)
                    - sum(
                        (
                            truncated_product(trunc, dgu_bar[l][q][m], dgu[k][nn][p], gd[m][nn])
                            for m in range(n)
                            for nn in range(n)
                        ),
                        Jet.zero(n, trunc),
                    )
                    for l in range(n)
                ]
                for k in range(n)
            ]
            for p in range(n)
        ]
        for q in range(n)
    ]
    r_raised = [
        [
            [
                [
                    sum(
                        (
                            truncated_product(trunc, gu[q][a], gu[b][p], r_up[l][k][a][b])
                            for a in range(n)
                            for b in range(n)
                        ),
                        Jet.zero(n, trunc),
                    )
                    for p in range(n)
                ]
                for q in range(n)
            ]
            for k in range(n)
        ]
        for l in range(n)
    ]
    result = (_freeze(r_up), _freeze(r_raised))
    ctx._cache[key] = result
    return result


def curvature(ctx: ChartContext) -> CurvatureData:
    """Curvature tensors at the base point.

    ``r_dn`` comes straight from potential derivatives; ``r_up`` from the
    inverse-metric jets.  Their mutual consistency under index raising is a
    verifiable property, not an identity of the construction.
    """
    n = ctx.n
    phi = ctx.phi
    gu0 = [[ctx.g_up[l][k].value() for k in range(n)] for l in range(n)]

    r_dn = [
        [
            [
                [
                    sum(
                        gu0[nn][m]
                        * phi.derivative_at(unit_index(n, m), unit_index(n, q, l))
                        * phi.derivative_at(unit_index(n, p, k), unit_index(n, nn))
                        for m in range(n)
                        for nn in range(n)
                    )
                    - phi.derivative_at(unit_index(n, p, k), unit_index(n, q, l))
                    for l in range(n)
                ]
                for k in range(n)
            ]
            for q in range(n)
        ]
        for p in range(n)
    ]
    r_up_jets, r_raised_jets = curvature_jets(ctx, 0)
    r_up = _freeze_values([[[[r_up_jets[q][p][k][l] for l in range(n)] for k in range(n)] for p in range(n)] for q in range(n)])
    r_raised = _freeze_values([[[[r_raised_jets[l][k][q][p] for p in range(n)] for q in range(n)] for k in range(n)] for l in range(n)])
    return CurvatureData(r_dn=_freeze(r_dn), r_up=r_up, r_raised=r_raised)


# -- covariant derivatives -------------------------------------------------------


def covariant_derivative_jets(f_jet: Jet, ctx: ChartContext, *, barred: bool, up_to: int = 3):
    """Jets of the pure covariant derivatives of a function, orders 1..up_to.

    Returns a list indexed by order; entry ``r`` is the rank-``r`` nested
    tuple of jets.  Each differentiation consumes one jet degree; the
    Christoffel corrections cap intermediate orders at the Christoffel jet
    order.
    """
    if not 1 <= up_to <= 3:
        raise ValueError("covariant derivative order must be between 1 and 3")
    n = ctx.n
    gamma = ctx.gamma_anti_jets if barred else ctx.gamma_hol_jets
    d = Jet.deriv_bar if barred else Jet.deriv

    t1 = f_jet.trunc - 1
    if t1 < 0:
        raise ValueError("jet order too small for covariant derivatives")
    d1 = [d(f_jet, k) for k in range(n)]
    out = [None, tuple(d1)]
    if up_to == 1:
        return out

    t2 = min(t1 - 1, ctx.order - 3)
    if t2 < 0:
        raise ValueError("jet order too small for second covariant derivatives")

    d2 = [
        [
            d(d1[k], p).truncated(t2)
            - sum(
                (truncated_product(t2, gamma[k][p][s], d1[s]) for s in range(n)), Jet.zero(n, t2)
            )
            for p in range(n)
        ]
        for k in range(n)
    ]
    out.append(_freeze(d2))
    if up_to == 2:
        return out

    t3 = t2 - 1
    if t3 < 0:
        raise ValueError("jet order too small for third covariant derivatives")
    d3 = [
        [
            [
                d(d2[k][p], s).truncated(t3)
                - sum(
                    (truncated_product(t3, gamma[k][s][a], d2[a][p]) for a in range(n)),
                    Jet.zero(n, t3),
                )
                - sum(
                    (truncated_product(t3, gamma[p][s][a], d2[k][a]) for a in range(n)),
                    Jet.zero(n, t3),
                )
                for s in range(n)
            ]
            for p in range(n)
        ]
        for k in range(n)
    ]
    out.append(_freeze(d3))
    return out


def covariant_derivatives(f: Expr | str | Jet, ctx: ChartContext, up_to: int = 3) -> CovDerivTable:
    """Covariant derivative tensors of ``f`` at the base point."""
    f_jet = as_chart_jet(f, ctx)
    hol = covariant_derivative_jets(f_jet, ctx, barred=False, up_to=up_to)
    anti = covariant_derivative_jets(f_jet, ctx, barred=True, up_to=up_to)

    def val(level):
        if level is None:
            return None
        if isinstance(level, Jet):
            return level.value()
        return tuple(val(x) for x in level)

    return CovDerivTable(
        hol1=val(hol[1]),
        hol2=val(hol[2]) if up_to >= 2 else None,
        hol3=val(hol[3]) if up_to >= 3 else None,
        anti1=val(anti[1]),
        anti2=val(anti[2]) if up_to >= 2 else None,
        anti3=val(anti[3]) if up_to >= 3 else None,
    )


def as_chart_jet(f, ctx: ChartContext) -> Jet:
    """Coerce an expression, source string or jet to a jet at the chart point.

    An expression is evaluated once per chart: its jet is kept, read-only,
    in the chart's cache under the (parsed) expression, so every operator
    applied to the same function shares one jet.
    """
    if isinstance(f, Jet):
        if f.n != ctx.n:
            raise ValueError("jet dimension does not match the chart")
        return f
    if isinstance(f, str):
        f = parse(f, ctx.n)
    key = ("jet", f)
    jet = ctx._cache.get(key)
    if jet is None:
        jet = eval_jet(f, ctx.z0, ctx.zb0, ctx.order)
        jet._vec.flags.writeable = False
        ctx._cache[key] = jet
    return jet


# -- scalar identities -----------------------------------------------------------


def metric_derivative_values(ctx: ChartContext):
    """Base-point values of first derivatives of the inverse metric (cached).

    Returns ``(dgu, dgu_bar)`` with ``dgu[p][l][k]`` the holomorphic
    derivative along ``p`` of ``g_up[l][k]`` and ``dgu_bar`` the barred one.
    """
    key = "metric_derivative_values"
    if key in ctx._cache:
        return ctx._cache[key]
    n = ctx.n

    zero = (0,) * n
    dgu = tuple(
        tuple(tuple(ctx.g_up[l][k].derivative_at(unit_index(n, p), zero) for k in range(n)) for l in range(n))
        for p in range(n)
    )
    dgu_bar = tuple(
        tuple(tuple(ctx.g_up[l][k].derivative_at(zero, unit_index(n, q)) for k in range(n)) for l in range(n))
        for q in range(n)
    )
    ctx._cache[key] = (dgu, dgu_bar)
    return dgu, dgu_bar


def jacobi_residual(ctx: ChartContext) -> float:
    """Largest violation of the Poisson-tensor Jacobi identity at the point.

    Both the holomorphic and the antiholomorphic contraction identities are
    scanned over all free indices; for a metric derived from a potential
    the exact value is zero, so this measures roundoff only.
    """
    n = ctx.n
    gu0 = ctx.inverse_metric_values()
    dgu, dgu_bar = metric_derivative_values(ctx)
    gaps = []
    for l in range(n):
        for nn in range(n):
            for m in range(n):
                hol = sum(gu0[l][k] * dgu[k][nn][m] - gu0[nn][k] * dgu[k][l][m] for k in range(n))
                gaps.append(hol)
    for k in range(n):
        for nn in range(n):
            for m in range(n):
                anti = sum(gu0[l][k] * dgu_bar[l][nn][m] - gu0[l][m] * dgu_bar[l][nn][k] for l in range(n))
                gaps.append(anti)
    return worst_abs(gaps)
