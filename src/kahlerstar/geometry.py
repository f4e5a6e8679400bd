"""Chart geometry derived from a Kähler potential.

All tensors are produced from the jet of the potential at a single base
point.  Index conventions used throughout (axes are 0-based):

- ``g_dn[k][l]``  is the metric component with holomorphic index ``k`` and
  antiholomorphic index ``l`` (the mixed second derivative of the
  potential).
- ``g_up[l][k]``  is the inverse, contracting so that
  ``sum_l g_dn[k][l] * g_up[l][m] = delta_km``.
- ``gamma_hol[:, k, p, s]`` is the jet of the holomorphic Christoffel
  symbol with lower indices ``k, p`` (symmetric) and upper index ``s``;
  ``gamma_anti`` is the barred counterpart.
- ``r_up[q][p][k][l]`` is the curvature tensor with upper antiholomorphic
  index ``q``, upper holomorphic ``p``, lower holomorphic ``k`` and lower
  antiholomorphic ``l``.
- ``r_dn[p][q][k][l]`` is the all-lower tensor (holomorphic ``p, k``,
  antiholomorphic ``q, l``); ``r_raised[l][k][q][p]`` has all four raised,
  ordered (antiholomorphic, holomorphic, antiholomorphic, holomorphic).

Every jet tensor is one complex array, the coefficient axis first and the
indices above after it (``chart_tensors(ctx).g_up[:, l, k]`` is the jet of
``g_up[l][k]``).
A chart holds ``g_dn`` and ``g_up`` to degree :data:`CHART_DEGREE` = 2 and the
Christoffel symbols to 1, whatever its order; ``g_up`` and the Christoffel symbols
are built once, on first read, through :func:`chart_tensors`.
Derivatives are :func:`kahlerstar.jets.gradient` gathers and every product is
a :func:`kahlerstar.jets.contract` call; no tensor is assembled component by
component.  The identities at the base point (``r_dn``, the Jacobi identity)
are one :func:`numpy.einsum` per term over the arrays of base-point partial
derivatives that :func:`kahlerstar.jets.derivative_values` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .expressions import EvaluationError, Expr, eval_jet, parse, to_source
from .jets import Jet, contract, derivative_values, gradient, jet_matrix_inverse

__all__ = [
    "SingularMetricError",
    "ChartContext",
    "ChartTensors",
    "CurvatureData",
    "build_chart",
    "chart_tensors",
    "require_dimension",
    "curvature",
    "covariant_derivative_jets",
    "jacobi_residual",
    "as_chart_jet",
    "worst_abs",
]

#: smallest admissible metric eigenvalue (or singular value) at the base point
EIGENVALUE_FLOOR = 1e-8

#: order of ``nu`` the product is carried to, and so the degree every argument is read
#: to: ``C_r`` differentiates an argument ``r`` times, the recursion reads ``f`` to ``A_3``
PRODUCT_ORDER = 3

#: degree ``g_dn`` and ``g_up`` are held to, one less for the Christoffel symbols: C1 of
#: a degree-3 argument is a degree-2 jet, and curvature takes two derivatives of ``g_up``
#: at the base point only
CHART_DEGREE = PRODUCT_ORDER - 1

#: minimum jet order accepted by :func:`build_chart`, and so by every command and
#: the suite.  The order sizes the potential's jet only, which the metric and the
#: recursion read to order 4; the floor is kept at 6 as the least ``--jet-order``
#: every command accepts
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


def require_dimension(n: int) -> int:
    """``n`` if it is a chart dimension, that is at least 1; ``ValueError`` otherwise."""
    if n < 1:
        raise ValueError("chart dimension must be at least 1")
    return n


class SingularMetricError(ArithmeticError):
    """The metric at the base point is singular, not positive definite or not finite."""


@dataclass(frozen=True)
class ChartContext:
    """Geometric state of one chart at one base point.

    The potential's jet is carried at ``order`` and the metric at
    :data:`CHART_DEGREE`, both built with the chart, which refuses a metric that is
    not admissible at the base point.  Each tensor is one read-only jet-tensor array
    (coefficient axis first, then the indices in the order of the module docs; ``[0]``
    is the value at the base point): ``g_dn_array`` is the metric, and the public
    ``g_up`` nests tuples of jets viewing :func:`chart_tensors`' inverse.
    ``_cache`` holds what is derived on demand until the chart is dropped, written only
    by :func:`_memo`: the chart tensors, curvature, one jet per distinct function passed
    to :func:`as_chart_jet`, and one value per builder and argument objects (derivative
    bundles, operator jets, left-multiplication builds of ``A_0..A_3``).
    """

    n: int
    z0: tuple
    zb0: tuple
    order: int
    potential: Expr
    phi: Jet
    # read from phi, which charts compare by; arrays have no truth value
    g_dn_array: np.ndarray = field(compare=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def g_up(self) -> tuple:
        return _memo(self, "g_up_views", (), lambda: _views(chart_tensors(self).g_up, self.n))

    def metric_values(self) -> np.ndarray:
        """Metric matrix at the base point, rows holomorphic."""
        return self.g_dn_array[0].copy()


class ChartTensors(NamedTuple):
    """``g_up`` at :data:`CHART_DEGREE` and the Christoffel symbols, which take one more
    derivative of the metric, at one less."""

    g_up: np.ndarray
    gamma_hol: np.ndarray
    gamma_anti: np.ndarray


@dataclass(frozen=True)
class CurvatureData:
    """Curvature components at the base point as read-only arrays (index order as module docs)."""

    r_dn: np.ndarray
    r_up: np.ndarray
    r_raised: np.ndarray


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
    third-order operator ingredients stay exact.  Builds the potential's jet
    and the metric and checks the metric at the point; the inverse metric
    and the Christoffel symbols wait for their first read (:func:`chart_tensors`).
    """
    n = require_dimension(len(z0) if n is None else n)
    if len(z0) != n:
        raise ValueError("base point dimension does not match the chart dimension")
    if order < MIN_CHART_ORDER:
        raise ValueError(f"jet order {order} too small; need at least {MIN_CHART_ORDER}")
    if isinstance(potential, str):
        potential = parse(potential, n)
    z0 = tuple(complex(v) for v in z0)
    zb0 = tuple(v.conjugate() for v in z0) if zb0 is None else tuple(complex(v) for v in zb0)

    phi = eval_jet(potential, z0, zb0, order)
    top = CHART_DEGREE + 2  # the metric takes two derivatives of the potential
    g_dn = _read_only(gradient(gradient(phi._vec, n, top), n, top - 1, barred=True))
    _require_admissible_metric(g_dn[0])
    return ChartContext(
        n=n,
        z0=z0,
        zb0=zb0,
        order=order,
        potential=potential,
        phi=phi,
        g_dn_array=g_dn,
    )


def chart_tensors(ctx: ChartContext) -> ChartTensors:
    """The inverse metric at :data:`CHART_DEGREE` and the Christoffel symbols at one
    less, read-only, built on first read and kept in the chart's memo.  Each reader
    contracts or differentiates the prefix it needs."""

    def build():
        n, t, g_dn = ctx.n, CHART_DEGREE, ctx.g_dn_array
        g_up = _read_only(jet_matrix_inverse(g_dn, n, t))
        # gamma_hol[k,p,s] = d_k d_p dbar_t phi g_up[t,s]
        # gamma_anti[l,q,t] = g_up[t,s] d_s dbar_q dbar_l phi
        gamma_hol = contract("ktp,ts->kps", gradient(g_dn, n, t), g_up, n, t - 1)
        gamma_anti = contract("ts,sql->lqt", g_up, gradient(g_dn, n, t, True), n, t - 1)
        return ChartTensors(g_up, _read_only(gamma_hol), _read_only(gamma_anti))

    return _memo(ctx, "chart_tensors", (), build)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _views(a: np.ndarray, n: int):
    """Nested tuples of jets viewing the components of the jet tensor ``a``."""
    if a.ndim == 1:
        return Jet._of(n, CHART_DEGREE, a)
    return tuple(_views(a[:, i], n) for i in range(a.shape[1]))


def _require_admissible_metric(m: np.ndarray) -> None:
    if not np.all(np.isfinite(m)):
        raise SingularMetricError("metric at the base point is not finite")
    # relative to the metric's size: the roundoff of a large metric at a real point
    # must not make it a formal point, whose metric need only be invertible
    hermitian_defect = np.max(np.abs(m - m.conj().T))
    if hermitian_defect < 1e-9 * max(1.0, np.max(np.abs(m))):
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


# -- curvature -----------------------------------------------------------------


def curvature_jets(ctx: ChartContext) -> tuple:
    """Jet tensors ``r_up`` and ``r_raised`` at truncation 0 (memoised, read-only): only
    third-order operators read curvature, and only at the base point.

    ``r_up`` follows the inverse-metric formula: the mixed second
    derivative of ``g_up`` minus the metric-contracted product of its first
    derivatives.
    """

    def build():
        n = ctx.n
        gu = chart_tensors(ctx).g_up
        dgu = gradient(gu, n, 2)  # [a, b, k] = d_k g_up[a, b]
        dgu_bar = gradient(gu, n, 2, barred=True)  # [a, b, l] = dbar_l g_up[a, b]
        ddgu = gradient(dgu, n, 1, barred=True)  # [q, p, k, l]
        # r_up[q,p,k,l] = d_k dbar_l g_up[q,p] - dbar_l g_up[q,m] g_dn[m,nn] d_k g_up[nn,p]
        lowered = contract("qml,mn->qnl", dgu_bar, ctx.g_dn_array, n, 0)
        r_up = ddgu - contract("qnl,npk->qpkl", lowered, dgu, n, 0)
        # r_raised[l,k,q,p] = g_up[q,a] g_up[b,p] r_up[l,k,a,b]
        half = contract("lkab,bp->lkap", r_up, gu, n, 0)
        r_raised = contract("qa,lkap->lkqp", gu, half, n, 0)
        return _read_only(r_up), _read_only(r_raised)

    return _memo(ctx, "curvature_jets", (), build)


def _r1_jets(ctx: ChartContext):
    """Curvature-square tensor ``r1[l, k] = g_up[nn, m] r_up[l, p, m, q] r_up[q, k, p, nn]``
    contracting the one-differentiable operator, at truncation 0 (memoised, read-only)."""

    def build():
        n = ctx.n
        r_up, _ = curvature_jets(ctx)
        half = contract("nm,lpmq->nlpq", chart_tensors(ctx).g_up, r_up, n, 0)
        return _read_only(contract("nlpq,qkpn->lk", half, r_up, n, 0))

    return _memo(ctx, "r1_jets", (), build)


def curvature(ctx: ChartContext) -> CurvatureData:
    """Curvature tensors at the base point.

    ``r_dn`` comes straight from potential derivatives; ``r_up`` from the
    inverse-metric jets.  Their mutual consistency under index raising is a
    verifiable property, not an identity of the construction.
    """
    n, phi = ctx.n, ctx.phi._vec
    # r_dn[p,q,k,l] = g_up[nn,m] d_m dbar_q dbar_l phi d_p d_k dbar_nn phi
    #                 - d_p d_k dbar_q dbar_l phi
    r_dn = np.einsum(
        "nm,mql,pkn->pqkl",
        chart_tensors(ctx).g_up[0],
        derivative_values(phi, n, 1, 2),
        derivative_values(phi, n, 2, 1),
    ) - derivative_values(phi, n, 2, 2).transpose(0, 2, 1, 3)
    r_up, r_raised = curvature_jets(ctx)
    return CurvatureData(r_dn=_read_only(r_dn), r_up=r_up[0], r_raised=r_raised[0])


# -- covariant derivatives -------------------------------------------------------


def covariant_derivative_jets(f_jet: Jet, ctx: ChartContext, *, barred: bool):
    """Jet tensors of the pure covariant derivatives of a function, orders 1..d with
    ``d = min(3, f_jet.trunc)``: the product reads no argument deeper, so a deeper jet
    (no caller passes one) gets entries exact to degree ``3 - r`` only.

    Returns a list indexed by order; entry ``r`` is the read-only rank-``r`` tensor with
    ``[k, p, s] = ∇_s∇_p∇_k f``, exact to degree ``d - r``; its ``[0]`` is the value at the
    base point.  Each differentiation, a gather on the coefficient axis, consumes one degree.
    """
    n, d = ctx.n, min(PRODUCT_ORDER, f_jet.trunc)
    d1 = _read_only(gradient(f_jet._vec, n, d, barred))
    out = [None, d1]
    if d >= 2:
        tensors = chart_tensors(ctx)
        gamma = tensors.gamma_anti if barred else tensors.gamma_hol
        d2 = _read_only(gradient(d1, n, d - 1, barred) - contract("kps,s->kp", gamma, d1, n, d - 2))
        out.append(d2)
    if d == 3:
        d3 = (
            gradient(d2, n, 1, barred)
            - contract("ksa,ap->kps", gamma, d2, n, 0)
            - contract("psa,ka->kps", gamma, d2, n, 0)
        )
        out.append(_read_only(d3))
    return out


def _memo(ctx: ChartContext, key, args: tuple, build):
    """``build()``, once per chart for ``key`` and the argument objects ``args``: the entry
    keeps them, so a recycled ``id`` cannot alias and an equal but distinct argument gets
    its own entry.  A jet it holds is read-only."""
    full = (key, *map(id, args))
    entry = ctx._cache.get(full)
    if entry is None or any(a is not b for a, b in zip(entry[0], args)):
        value = build()
        if isinstance(value, Jet):
            value._vec.flags.writeable = False
        entry = ctx._cache[full] = (args, value)
    return entry[1]


def _derivs(jet: Jet, ctx: ChartContext, barred: bool) -> list:
    """:func:`covariant_derivative_jets` of ``jet`` on one side, entry ``r`` exact to
    degree ``min(3, jet.trunc) - r``; each reader contracts the prefix it needs.  One
    bundle per (jet, side) is built per chart (:func:`_memo`, which keeps the jet with
    it)."""
    return _memo(
        ctx, ("cov", barred), (jet,), lambda: covariant_derivative_jets(jet, ctx, barred=barred)
    )


def as_chart_jet(f, ctx: ChartContext) -> Jet:
    """Coerce an expression, source string or jet to a jet at the chart point.

    An expression is evaluated once per chart, to degree :data:`PRODUCT_ORDER`: its
    jet is kept, read-only, in the chart's memo under the (parsed) expression's value,
    so every operator applied to the same function shares one jet.  A jet with a
    coefficient that is not finite raises :class:`EvaluationError`.
    """
    if isinstance(f, Jet):
        if f.n != ctx.n:
            raise ValueError("jet dimension does not match the chart")
        return f
    if isinstance(f, str):
        f = parse(f, ctx.n)

    def build():
        jet = eval_jet(f, ctx.z0, ctx.zb0, PRODUCT_ORDER)
        if not np.isfinite(jet._vec).all():
            raise EvaluationError(f"the jet of '{to_source(f)}' is not finite at the base point")
        return jet

    return _memo(ctx, ("jet", f), (), build)


# -- scalar identities -----------------------------------------------------------


def metric_derivative_values(ctx: ChartContext):
    """First derivatives ``(dgu, dgu_bar)`` of the inverse metric at the base point, in the
    layout of :func:`kahlerstar.jets.derivative_values`: ``dgu[l, k, p]`` is
    ``∂_p g_up[l][k]`` and ``dgu_bar[l, k, q]`` is ``∂̄_q g_up[l][k]``."""
    n, gu = ctx.n, chart_tensors(ctx).g_up
    return derivative_values(gu, n, 1, 0), derivative_values(gu, n, 0, 1)


def jacobi_residual(ctx: ChartContext) -> float:
    """Largest violation of the Poisson-tensor Jacobi identity at the point.

    For a type-(1,1) bivector ``π = g_up`` the identity says that
    ``π[l,k] ∂_k π[nn,m]`` is symmetric in ``(l, nn)`` and that
    ``π[l,k] ∂̄_l π[nn,m]`` is symmetric in ``(k, m)``; both are scanned over
    all free indices.  For an inverse metric both hold exactly, because
    ``∂_k π = -π (∂_k g_dn) π`` and ``∂_k g_dn[p, l] = ∂_k ∂_p ∂̄_l φ`` is
    symmetric in ``(k, p)`` (and likewise on the barred side), so this
    measures roundoff only.
    """
    gu0 = chart_tensors(ctx).g_up[0]
    dgu, dgu_bar = metric_derivative_values(ctx)
    # hol[l,nn,m] = g_up[l,k] d_k g_up[nn,m], to be symmetric in (l, nn)
    hol = np.einsum("lk,nmk->lnm", gu0, dgu)
    # anti[k,nn,m] = g_up[l,k] dbar_l g_up[nn,m], to be symmetric in (k, m)
    anti = np.einsum("lk,nml->knm", gu0, dgu_bar)
    gaps = (hol - hol.transpose(1, 0, 2), anti - anti.transpose(2, 1, 0))
    return worst_abs(np.concatenate(gaps, axis=None))
