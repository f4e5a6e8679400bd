"""Property suite: every checkable identity of the construction, with residuals.

Each check returns :class:`CheckResult` records carrying the measured
residual, the tolerance it is held to and a context descriptor (preset or
seed, point, jet order).  :func:`run_suite` assembles the default suite
over the built-in presets and seeded random Hermitian polynomial charts.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from dataclasses import dataclass, replace

import numpy as np

from .expressions import (
    Add,
    Expr,
    HolomorphyClass,
    Polynomial,
    classify,
    eval_jet,
    eval_value,
    formal_conjugate,
    parse,
    substitute,
)
from .geometry import (
    MIN_CHART_ORDER,
    ChartContext,
    SingularMetricError,
    as_chart_jet,
    build_chart,
    chart_tensors,
    curvature,
    jacobi_residual,
    metric_derivative_values,
    worst_abs,
)
from .jets import derivative_values, iter_multi_indices_upto, unit_index
from .operators import (
    StarVariant,
    _p_jet,
    _q_jet,
    _s_values,
    c1,
    c2,
    c2_expanded,
    c3,
    c3_tilde,
    operator_breakdown,
    star_product,
    star_product_jets,
)
from .oracle import build_left_mult

__all__ = [
    "DEFAULT_TOLERANCES",
    "CheckResult",
    "RandomChartSpec",
    "random_polynomial",
    "random_potential",
    "random_chart",
    "check_associativity",
    "check_separation",
    "check_prop1",
    "check_structural",
    "check_flat_vanishing",
    "check_gauge",
    "check_covariance",
    "check_finite_differences",
    "run_suite",
    "preset_charts",
]

DEFAULT_TOLERANCES = {
    "oracle_agreement": 1e-8,
    "associativity": 1e-8,
    "separation": 1e-10,
    "prop1": 1e-10,
    "c3_decomposition": 1e-11,
    "c2_forms": 1e-10,
    "curvature_raising": 1e-10,
    "jacobi": 1e-10,
    "flat_vanishing": 0.0,
    "gauge": 1e-8,
    "covariance": 1e-7,
    "finite_differences": 1e-6,
}

#: preset configurations of the default suite: name, dimension, base point
SUITE_PRESETS = (
    ("flat", 1, (0.4 - 0.2j,)),
    ("flat", 2, (0.3 + 0.1j, -0.1 + 0.2j)),
    ("fubini-study", 1, (0.3 + 0.1j,)),
    ("poincare-disk", 1, (0.2 - 0.1j,)),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    context: str

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "context": self.context,
        }


@dataclass(frozen=True)
class RandomChartSpec:
    """Seeded recipe for a random Hermitian polynomial chart.

    The potential is the flat one plus an ``epsilon``-sized Hermitian
    perturbation with monomial bidegrees between 1 and ``degree``; the
    metric is required to be positive definite at the evaluation point.
    """

    n: int
    degree: int = 3
    epsilon: float = 0.1
    seed: int = 0


def _disk_coefficient(rng: random.Random) -> complex:
    return cmath.rect(math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi))


def random_polynomial(
    rng: random.Random, n: int, degree: int = 3, kind: str = "mixed"
) -> Polynomial:
    """Random polynomial with unit-disk coefficients.

    ``kind`` restricts the variables: ``mixed`` uses bidegrees up to
    ``degree`` in each group, ``holomorphic``/``antiholomorphic`` use one
    group only (and no constant term, so the result is never degenerate).
    """
    zero, indices = (0,) * n, list(iter_multi_indices_upto(n, degree))
    if kind == "mixed":
        terms = [(_disk_coefficient(rng), alpha + beta) for alpha in indices for beta in indices]
    elif kind in ("holomorphic", "antiholomorphic"):
        barred = kind == "antiholomorphic"
        terms = [
            (_disk_coefficient(rng), zero + alpha if barred else alpha + zero)
            for alpha in indices
            if sum(alpha)
        ]
    else:
        raise ValueError(f"unknown polynomial kind {kind!r}")
    return Polynomial(tuple(terms))


def random_potential(spec: RandomChartSpec, at=None) -> Polynomial:
    """Random Hermitian polynomial potential, deterministic in the seed.

    Resamples (up to 100 times) until the metric is positive definite at
    ``at`` (the origin when omitted).  The flat part ``z_k*zb_k`` comes first,
    with coefficient ``1.0``; each perturbation term is followed by its
    formal conjugate.
    """
    rng = random.Random(spec.seed)
    n = spec.n
    at = tuple(0j for _ in range(n)) if at is None else tuple(at)
    flat_terms = [(1.0, unit_index(2 * n, k, n + k)) for k in range(n)]
    indices = [a for a in iter_multi_indices_upto(n, spec.degree) if sum(a) >= 1]
    for _ in range(100):
        terms = list(flat_terms)
        for alpha in indices:
            for beta in indices:
                c = _disk_coefficient(rng) * spec.epsilon
                terms += [(c, alpha + beta), (c.conjugate(), beta + alpha)]
        candidate = Polynomial(tuple(terms))
        try:
            # only the metric is checked here: the chart's tensors are built on first read
            build_chart(candidate, at, order=MIN_CHART_ORDER, n=n)
        except SingularMetricError:
            continue
        return candidate
    raise SingularMetricError(
        "no positive-definite random potential found within the resample limit (100)"
    )


def random_chart(spec: RandomChartSpec, order: int = 10):
    """Chart for a :class:`RandomChartSpec`: ``(potential, context, rng)``.

    The base point is drawn from a seed-derived stream inside the square of
    half-width 0.3; the returned ``rng`` continues that stream and is meant
    for drawing test functions.
    """
    rng = random.Random(f"{spec.seed}:chart")
    point = tuple(
        complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)) for _ in range(spec.n)
    )
    potential = random_potential(spec, at=point)
    ctx = build_chart(potential, point, order=order, n=spec.n)
    return potential, ctx, rng


def _fmt_point(z0) -> str:
    return "(" + ", ".join(f"{z:.4g}" for z in z0) + ")"


# -- individual checks -----------------------------------------------------------


def check_associativity(
    ctx: ChartContext,
    variant: StarVariant,
    f,
    g,
    h,
    label: str = "",
) -> list[CheckResult]:
    """Associativity residual per formal order 0..3.

    The inner products' coefficient of ``nu^j`` is a jet of degree ``3 - j``, as deep
    as the outer operators of the orders up to 3 differentiate it, and each outer
    operator's jet is as deep as that degree allows.
    """
    tol = DEFAULT_TOLERANCES["associativity"]
    fj, gj, hj = (as_chart_jet(x, ctx) for x in (f, g, h))
    fg = star_product_jets(fj, gj, ctx, variant)
    gh = star_product_jets(gj, hj, ctx, variant)
    order3 = c3_tilde if variant is StarVariant.MODIFIED else c3
    ops = (
        lambda a, b: a.value() * b.value(),
        lambda a, b: c1(a, b, ctx),
        lambda a, b: c2(a, b, ctx),
        lambda a, b: order3(a, b, ctx),
    )
    results = []
    for r in range(4):
        total = 0j
        for i in range(r + 1):
            j = r - i
            total += ops[i](fg[j], hj) - ops[i](fj, gh[j])
        results.append(
            CheckResult(
                name=f"associativity_{variant.value}_order{r}",
                residual=abs(total),
                tolerance=tol,
                context=label,
            )
        )
    return results


def check_separation(
    ctx: ChartContext,
    a,
    f,
    b,
    label: str = "",
) -> list[CheckResult]:
    """``a * f = af`` for holomorphic ``a`` and ``f * b = bf`` for
    antiholomorphic ``b``, at every formal order 1..3 and for both
    third-order variants."""
    tol = DEFAULT_TOLERANCES["separation"]
    results = []
    left_std = star_product(a, f, ctx, StarVariant.STANDARD)
    right_std = star_product(f, b, ctx, StarVariant.STANDARD)
    for r in range(1, 4):
        results.append(
            CheckResult(f"separation_hol_order{r}", abs(left_std[r]), tol, label)
        )
        results.append(
            CheckResult(f"separation_anti_order{r}", abs(right_std[r]), tol, label)
        )
    # orders 0-2 do not depend on the variant: only C3~ is read again
    left_mod, right_mod = c3_tilde(a, f, ctx), c3_tilde(f, b, ctx)
    results.append(CheckResult("separation_hol_order3_modified", abs(left_mod), tol, label))
    results.append(CheckResult("separation_anti_order3_modified", abs(right_mod), tol, label))
    return results


def check_prop1(
    ctx: ChartContext,
    f,
    g,
    label: str = "",
) -> list[CheckResult]:
    """The two contracted metric-derivative identities behind the proof that
    the auxiliary operators agree up to regular terms, plus ``S == S~``."""
    tol = DEFAULT_TOLERANCES["prop1"]
    gu0, gd0 = chart_tensors(ctx).g_up[0], ctx.g_dn_array[0]
    dgu, dgu_bar = metric_derivative_values(ctx)
    first = np.einsum("nm,laq,bpm,ab->lqnp", gu0, dgu_bar, dgu, gd0)
    first -= np.einsum("lmq,npm->lqnp", dgu_bar, dgu)
    second = np.einsum("nm,qsn,tkp,st->mqpk", gu0, dgu_bar, dgu, gd0)
    second -= np.einsum("qmn,nkp->mqpk", dgu_bar, dgu)

    s, s_tilde = _s_values(f, g, ctx)
    return [
        CheckResult("prop1_first_identity", worst_abs(first.ravel()), tol, label),
        CheckResult("prop1_second_identity", worst_abs(second.ravel()), tol, label),
        CheckResult("prop1_s_equals_stilde", abs(s - s_tilde), tol, label),
    ]


def check_structural(ctx: ChartContext, f, g, label: str = "") -> list[CheckResult]:
    """Decomposition of the third-order operator, the two second-order
    forms, curvature index raising and the Jacobi identity."""
    tols = DEFAULT_TOLERANCES
    p, q = _p_jet(f, g, ctx).value(), _q_jet(f, g, ctx).value()
    decomposition = abs(c3(f, g, ctx) - (p / 6.0 - q / 4.0))
    forms = abs(c2(f, g, ctx) - c2_expanded(f, g, ctx))
    data = curvature(ctx)
    gu0 = chart_tensors(ctx).g_up[0]
    raising = worst_abs((data.r_up - np.einsum("qc,bp,cbkl->qpkl", gu0, gu0, data.r_dn)).ravel())
    return [
        CheckResult("c3_decomposition", decomposition, tols["c3_decomposition"], label),
        CheckResult("c2_expanded_equals_covariant", forms, tols["c2_forms"], label),
        CheckResult(
            "curvature_raising_consistency", raising, tols["curvature_raising"], label
        ),
        CheckResult("jacobi_identity", jacobi_residual(ctx), tols["jacobi"], label),
    ]


def check_flat_vanishing(
    ctx: ChartContext,
    f,
    g,
    label: str = "",
) -> CheckResult:
    """On a flat chart the operators Q, R, S, S~ vanish exactly: every one
    of their terms carries a derivative of the constant inverse metric."""
    bd = operator_breakdown(f, g, ctx)
    residual = worst_abs((bd.q, bd.r, bd.s, bd.s_tilde))
    return CheckResult("flat_qrss_vanish", residual, DEFAULT_TOLERANCES["flat_vanishing"], label)


def check_gauge(
    potential: Expr,
    h: Expr,
    k: Expr,
    ctx: ChartContext,
    f,
    g,
    label: str = "",
) -> CheckResult:
    """Recursion values are unchanged under a potential gauge shift.

    ``h`` must be holomorphic and ``k`` antiholomorphic.  The recursion reads only ``g_dn`` and
    ``∂^m ∂̄Φ`` (``m >= 1``), which ``Φ + h + k`` leaves bit for bit: this guards that it reads
    no gauge-dependent part of ``Φ``, and cannot catch an error inside the recursion.
    """
    if classify(h) not in (HolomorphyClass.HOLOMORPHIC, HolomorphyClass.CONSTANT):
        raise ValueError("gauge term h must be holomorphic")
    if classify(k) not in (HolomorphyClass.ANTIHOLOMORPHIC, HolomorphyClass.CONSTANT):
        raise ValueError("gauge term k must be antiholomorphic")
    shifted = build_chart(Add(Add(potential, h), k), ctx.z0, ctx.zb0, order=ctx.order, n=ctx.n)
    # both charts share the base point, so they evaluate f and g to the same bits
    fj, gj = as_chart_jet(f, ctx), as_chart_jet(g, ctx)
    base_ops = build_left_mult(fj, ctx)
    shifted_ops = build_left_mult(fj, shifted)
    residual = worst_abs(
        base_ops[r].apply(gj, ctx) - shifted_ops[r].apply(gj, shifted) for r in (1, 2, 3)
    )
    return CheckResult("gauge_invariance", residual, DEFAULT_TOLERANCES["gauge"], label)


def check_covariance(
    potential,
    forward,
    inverse,
    z0,
    f,
    g,
    order: int = 10,
    label: str = "",
) -> CheckResult:
    """Operator values agree across a holomorphic change of coordinates.

    ``forward`` maps the chart coordinates to the new ones and ``inverse``
    maps back; both are lists of ``n`` holomorphic expressions (the barred
    halves are derived as formal conjugates).  The potential and the test
    functions are pulled back syntactically and everything is re-evaluated
    in the new chart at the image point.
    """
    n = len(z0)
    potential = parse(potential, n) if isinstance(potential, str) else potential
    forward = [parse(e, n) if isinstance(e, str) else e for e in forward]
    inverse = [parse(e, n) if isinstance(e, str) else e for e in inverse]
    f = parse(f, n) if isinstance(f, str) else f
    g = parse(g, n) if isinstance(g, str) else g
    for e in (*forward, *inverse):
        if classify(e) not in (HolomorphyClass.HOLOMORPHIC, HolomorphyClass.CONSTANT):
            raise ValueError("coordinate maps must be holomorphic expressions")

    z0 = tuple(complex(v) for v in z0)
    zb0 = tuple(v.conjugate() for v in z0)
    w0 = tuple(eval_value(e, z0, zb0) for e in forward)
    wb0 = tuple(eval_value(formal_conjugate(e), z0, zb0) for e in forward)
    back = tuple(eval_value(e, w0, wb0) for e in inverse)
    if worst_abs(a - b for a, b in zip(back, z0)) > 1e-10:
        raise ValueError("inverse(forward(z0)) does not return to the base point")
    jacobian = np.array([derivative_values(eval_jet(e, z0, zb0, 1)._vec, n, 1, 0) for e in forward])
    det = np.linalg.det(jacobian)
    if abs(det) < 1e-10:
        raise ValueError("coordinate map is not biholomorphic near the point (singular Jacobian)")

    replacements = list(inverse) + [formal_conjugate(e) for e in inverse]
    ctx_z = build_chart(potential, z0, order=order, n=n)
    ctx_w = build_chart(substitute(potential, replacements), w0, wb0, order=order, n=n)
    f_w = substitute(f, replacements)
    g_w = substitute(g, replacements)

    residual = worst_abs(op(f, g, ctx_z) - op(f_w, g_w, ctx_w) for op in (c1, c2, c3, c3_tilde))
    return CheckResult("covariance", residual, DEFAULT_TOLERANCES["covariance"], label)


def covariant_and_recursion(ctx: ChartContext, f, g):
    """Yield ``(r, a, b, |a - b| / (1 + |b|))`` for r = 1..3: the covariant C_r as ``a``
    against the recursion's value ``b``, from one left-multiplication build."""
    ops = build_left_mult(f, ctx)
    for r, formula in ((1, c1), (2, c2), (3, c3)):
        a, b = formula(f, g, ctx), ops[r].apply(g, ctx)
        yield r, a, b, abs(a - b) / (1.0 + abs(b))


def oracle_agreement_checks(
    ctx: ChartContext,
    f,
    g,
    label: str = "",
) -> list[CheckResult]:
    """Covariant formulas against the recursion, relative residual per order."""
    tol = DEFAULT_TOLERANCES["oracle_agreement"]
    return [
        CheckResult(f"oracle_agreement_r{r}", rel, tol, label)
        for r, _, _, rel in covariant_and_recursion(ctx, f, g)
    ]


def check_finite_differences(potential, z0, order: int = 10, label: str = "") -> CheckResult:
    """First-order jet derivatives against central finite differences of step 1e-5."""
    n, step = len(z0), 1e-5
    potential = parse(potential, n) if isinstance(potential, str) else potential
    z0 = tuple(complex(v) for v in z0)
    zb0 = tuple(v.conjugate() for v in z0)
    jet = eval_jet(potential, z0, zb0, order)
    gradients = [derivative_values(jet._vec, n, *sides).tolist() for sides in ((1, 0), (0, 1))]
    errors = []
    for k in range(n):
        for side, analytic in enumerate(gradients):
            values = []
            for move in (operator.add, operator.sub):
                point = [z0, zb0]
                point[side] = tuple(
                    move(z, step if i == k else 0) for i, z in enumerate(point[side])
                )
                values.append(eval_value(potential, *point))
            numeric = (values[0] - values[1]) / (2 * step)
            errors.append(abs(analytic[k] - numeric) / (1.0 + abs(analytic[k])))
    return CheckResult(
        "jet_finite_differences", worst_abs(errors), DEFAULT_TOLERANCES["finite_differences"], label
    )


# -- the default suite --------------------------------------------------------------


def preset_charts(order: int = 10):
    """Contexts for the suite presets: ``(name, potential, ctx, label)``."""
    from .presets import preset_potential

    charts = []
    for name, n, point in SUITE_PRESETS:
        potential = preset_potential(name, n)
        ctx = build_chart(potential, point, order=order, n=n)
        label = f"preset={name} n={n} point={_fmt_point(point)} J={order}"
        charts.append((name, potential, ctx, label))
    return charts


def _chart_checks(potential, ctx, rng, label, flat=False) -> list[CheckResult]:
    n = ctx.n
    f = random_polynomial(rng, n)
    g = random_polynomial(rng, n)
    h = random_polynomial(rng, n)
    a = random_polynomial(rng, n, kind="holomorphic")
    b = random_polynomial(rng, n, kind="antiholomorphic")
    gauge_h = random_polynomial(rng, n, kind="holomorphic")
    gauge_k = random_polynomial(rng, n, kind="antiholomorphic")

    results = []
    results.extend(oracle_agreement_checks(ctx, f, g, label=label))
    for variant in StarVariant:
        results.extend(check_associativity(ctx, variant, f, g, h, label=label))
    results.extend(check_separation(ctx, a, f, b, label=label))
    results.extend(check_prop1(ctx, f, g, label=label))
    results.extend(check_structural(ctx, f, g, label=label))
    if flat:
        results.append(check_flat_vanishing(ctx, f, g, label=label))
    results.append(check_gauge(potential, gauge_h, gauge_k, ctx, f, g, label=label))
    return results


def _covariance_cases(order: int) -> list[CheckResult]:
    f, g = "zb1^2+z1*zb1", "z1^2+z1"
    cases = [
        ("identity_map", "z1*zb1", ["z1"], ["z1"], (0.4 - 0.2j,)),
        ("affine_map", "z1*zb1", ["2*z1"], ["0.5*z1"], (0.4 - 0.2j,)),
        ("moebius_map", "log(1+z1*zb1)", ["z1/(1-z1)"], ["z1/(1+z1)"], (0.3,)),
    ]
    results = []
    for tag, potential, fwd, inv, z0 in cases:
        label = f"map={tag} point={_fmt_point(z0)} J={order}"
        check = check_covariance(potential, fwd, inv, z0, f, g, order=order, label=label)
        results.append(replace(check, name=f"covariance_{tag}"))
    return results


def run_suite(
    trials: int = 20,
    seed: int = 0,
    order: int = 10,
    epsilon: float = 0.1,
    degree: int = 3,
    tol: float | None = None,
) -> list[CheckResult]:
    """The full default suite on presets plus ``trials`` random charts.

    A non-``None`` ``tol`` overrides every tolerance, which deliberately
    allows forcing failures (for example below double precision).  Results
    are sorted by name and context; identical inputs give identical output.
    """
    results: list[CheckResult] = []

    for name, potential, ctx, label in preset_charts(order):
        rng = random.Random(f"{seed}:{name}:{ctx.n}")
        results.extend(_chart_checks(potential, ctx, rng, label, flat=(name == "flat")))
        results.append(
            check_finite_differences(potential, ctx.z0, order=order, label=label)
        )

    for i in range(trials):
        spec = RandomChartSpec(n=1 + i % 2, degree=degree, epsilon=epsilon, seed=seed + i)
        potential, ctx, rng = random_chart(spec, order)
        label = (
            f"random seed={spec.seed} n={spec.n} eps={epsilon} d={degree} "
            f"point={_fmt_point(ctx.z0)} J={order}"
        )
        results.extend(_chart_checks(potential, ctx, rng, label))

    results.extend(_covariance_cases(order))

    if tol is not None:
        results = [replace(r, tolerance=tol) for r in results]
    results.sort(key=lambda r: (r.name, r.context))
    return results
