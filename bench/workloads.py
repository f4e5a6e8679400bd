"""Seeded inputs, replays and correctness gates of the three workloads.

``verify-n1`` and ``verify-n2`` replay the default suite chart by chart:
cycle ``c`` of a workload is the dimension-``n`` part of
``run_suite(trials=20, seed=base + 20*c)``, where ``base`` is drawn from
the workload seed, so consecutive cycles never share a random chart.  Each
chart runs the suite's per-chart check sequence through ``verify``'s
public check functions with the same rng streams as ``run_suite``.

``eval-n1`` is one client issuing in-process ``cli.main`` requests, each
on a fresh chart: two ``eval --json`` (one per variant), then one
``compare --json``, on seeded random Hermitian polynomial potentials and
on the two ``log`` presets at seeded in-domain points.

Every kahlerstar function is looked up through its module at call time,
so the timing wrappers of :mod:`tracer` see the calls this module makes.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, replace

from kahlerstar import cli, expressions, geometry, oracle, presets, verify

ORDER = 10
DEGREE = 3
EPSILON = 0.1
SUITE_TRIALS = 20

#: the covariance cases of the default suite: tag, potential, forward map,
#: inverse map, base point; test functions shared by all three
COVARIANCE_CASES = (
    ("identity_map", "z1*zb1", ["z1"], ["z1"], (0.4 - 0.2j,)),
    ("affine_map", "z1*zb1", ["2*z1"], ["0.5*z1"], (0.4 - 0.2j,)),
    ("moebius_map", "log(1+z1*zb1)", ["z1/(1-z1)"], ["z1/(1+z1)"], (0.3,)),
)
COVARIANCE_F, COVARIANCE_G = "zb1^2+z1*zb1", "z1^2+z1"

#: check names every suite chart must yield, written out independently of
#: ``verify`` so that a dropped or renamed check shows as a failure
CHART_CHECK_NAMES = (
    *(f"oracle_agreement_r{r}" for r in (1, 2, 3)),
    *(f"associativity_{v}_order{r}" for v in ("standard", "modified") for r in range(4)),
    *(f"separation_{side}_order{r}" for side in ("hol", "anti") for r in (1, 2, 3)),
    "separation_hol_order3_modified",
    "separation_anti_order3_modified",
    "prop1_first_identity",
    "prop1_second_identity",
    "prop1_s_equals_stilde",
    "c3_decomposition",
    "c2_expanded_equals_covariant",
    "curvature_raising_consistency",
    "jacobi_identity",
    "gauge_invariance",
)

STRUCTURAL_CHECKS = {
    "c3_decomposition",
    "c2_expanded_equals_covariant",
    "curvature_raising_consistency",
    "jacobi_identity",
}


def check_family(name: str) -> str:
    """The check family a suite check name belongs to."""
    if name in STRUCTURAL_CHECKS:
        return "structural"
    for prefix, family in (
        ("oracle_agreement_", "oracle_agreement"),
        ("associativity_", "associativity"),
        ("separation_", "separation"),
        ("prop1_", "prop1"),
        ("covariance_", "covariance"),
        ("flat_qrss_vanish", "flat_vanishing"),
        ("gauge_invariance", "gauge"),
        ("jet_finite_differences", "finite_differences"),
    ):
        if name.startswith(prefix):
            return family
    raise ValueError(f"unknown check name {name!r}")


def margin(residual: float, tolerance: float) -> float:
    """Residual over tolerance; 1 is the edge of failing, NaN counts as +inf."""
    if not math.isfinite(residual):
        return math.inf
    if residual == 0:
        return 0.0
    return residual / tolerance if tolerance > 0 else math.inf


def fmt_point(z0) -> str:
    return "(" + ", ".join(f"{z:.4g}" for z in z0) + ")"


# -- verify workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """One chart of the default suite.

    ``kind`` is ``preset``, ``random`` or ``covariance``; ``seed`` is the
    suite seed for a preset and the chart seed for a random chart; ``name``
    is the preset name or the covariance tag.
    """

    kind: str
    n: int
    seed: int = 0
    name: str = ""

    def expected_names(self) -> Counter:
        if self.kind == "covariance":
            return Counter([f"covariance_{self.name}"])
        names = Counter(CHART_CHECK_NAMES)
        if self.kind == "preset":
            names["jet_finite_differences"] += 1
            if self.name == "flat":
                names["flat_qrss_vanish"] += 1
        return names


def suite_charts(trials: int, seed: int) -> list[Chart]:
    """The charts of ``run_suite(trials, seed)``, in the suite's order."""
    charts = [Chart("preset", n, seed, name) for name, n, _ in verify.SUITE_PRESETS]
    charts += [Chart("random", 1 + i % 2, seed + i) for i in range(trials)]
    charts += [Chart("covariance", 1, 0, case[0]) for case in COVARIANCE_CASES]
    return charts


def chart_sequence(n: int, seed: int):
    """Endless seeded sequence of the suite's dimension-``n`` charts."""
    base = random.Random(seed).randrange(10**9)
    cycle = 0
    while True:
        suite_seed = base + SUITE_TRIALS * cycle
        yield from (c for c in suite_charts(SUITE_TRIALS, suite_seed) if c.n == n)
        cycle += 1


def check_steps(potential, ctx, rng, label, results, flat=False):
    """The suite's per-chart check sequence through the public checks,
    appending to ``results`` and pausing after each call."""
    n = ctx.n
    f = verify.random_polynomial(rng, n)
    g = verify.random_polynomial(rng, n)
    h = verify.random_polynomial(rng, n)
    a = verify.random_polynomial(rng, n, kind="holomorphic")
    b = verify.random_polynomial(rng, n, kind="antiholomorphic")
    gauge_h = verify.random_polynomial(rng, n, kind="holomorphic")
    gauge_k = verify.random_polynomial(rng, n, kind="antiholomorphic")

    results += verify.oracle_agreement_checks(ctx, f, g, label=label)
    yield
    for variant in verify.StarVariant:
        results += verify.check_associativity(ctx, variant, f, g, h, label=label)
        yield
    results += verify.check_separation(ctx, a, f, b, label=label)
    yield
    results += verify.check_prop1(ctx, f, g, label=label)
    yield
    results += verify.check_structural(ctx, f, g, label=label)
    yield
    if flat:
        results.append(verify.check_flat_vanishing(ctx, f, g, label=label))
        yield
    results.append(verify.check_gauge(potential, gauge_h, gauge_k, ctx, f, g, label=label))


def chart_steps(chart: Chart):
    """Run one suite chart, pausing after each public call.

    A generator: each ``next`` runs one step, and the value it finally
    returns is ``(check results, chart context or None)``.
    """
    results: list = []
    if chart.kind == "covariance":
        tag, potential, forward, inverse, z0 = next(
            case for case in COVARIANCE_CASES if case[0] == chart.name
        )
        label = f"map={tag} point={fmt_point(z0)} J={ORDER}"
        check = verify.check_covariance(
            potential, forward, inverse, z0, COVARIANCE_F, COVARIANCE_G, order=ORDER, label=label
        )
        return [replace(check, name=f"covariance_{tag}")], None
    if chart.kind == "preset":
        point = next(p for name, n, p in verify.SUITE_PRESETS if (name, n) == (chart.name, chart.n))
        potential = presets.preset_potential(chart.name, chart.n)
        ctx = geometry.build_chart(potential, point, order=ORDER, n=chart.n)
        label = f"preset={chart.name} n={chart.n} point={fmt_point(point)} J={ORDER}"
        rng = random.Random(f"{chart.seed}:{chart.name}:{chart.n}")
        yield
        yield from check_steps(potential, ctx, rng, label, results, flat=chart.name == "flat")
        yield
        results.append(verify.check_finite_differences(potential, ctx.z0, order=ORDER, label=label))
        return results, ctx
    spec = verify.RandomChartSpec(n=chart.n, degree=DEGREE, epsilon=EPSILON, seed=chart.seed)
    potential, ctx, rng = verify.random_chart(spec, ORDER)
    label = (
        f"random seed={spec.seed} n={spec.n} eps={EPSILON} d={DEGREE} "
        f"point={fmt_point(ctx.z0)} J={ORDER}"
    )
    yield
    yield from check_steps(potential, ctx, rng, label, results)
    return results, ctx


def finish(steps):
    """Run a step generator to the end and return its value."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def replay(chart: Chart):
    """Run one suite chart: ``(check results, chart context or None)``."""
    return finish(chart_steps(chart))


def gate_chart(chart: Chart, results) -> tuple[int, int, dict]:
    """Correctness gate of one chart: ``(attempted, failed, worst margin per family)``.

    A check fails unless its residual is finite and within its tolerance;
    the flat-chart check must read exactly ``0.0`` against a ``0.0`` bound.
    A missing or an unexpected check name counts as one failed check.
    """
    remaining = chart.expected_names()
    failed = 0
    worst: dict[str, float] = {}
    for r in results:
        ok = remaining[r.name] > 0 and math.isfinite(r.residual) and r.residual <= r.tolerance
        if r.name == "flat_qrss_vanish":
            ok = ok and r.residual == 0.0 and r.tolerance == 0.0
        remaining[r.name] -= 1
        failed += not ok
        family = check_family(r.name)
        worst[family] = max(worst.get(family, 0.0), margin(r.residual, r.tolerance))
    missing = sum(c for c in remaining.values() if c > 0)
    return len(results) + missing, failed + missing, worst


# -- eval workload -----------------------------------------------------------------

EVAL_KINDS = ("random", "fubini-study", "poincare-disk")
#: request pattern: a compare after every two evals, whose variants
#: alternate.  A compare takes about half as long as an eval; with equal
#: shares the median request would fall in the gap between the two.
EVAL_COMMANDS = (("eval", "standard"), ("eval", "modified"), ("compare", None))


def point_source(z: complex) -> str:
    """Source text of a base point, rounded to three decimals.

    Written as ``0±re±im i`` so that it never starts with ``-``, which the
    argument parser would take for an option.
    """
    re_sign = "-" if z.real < 0 else "+"
    im_sign = "-" if z.imag < 0 else "+"
    return f"0{re_sign}{abs(z.real):.3f}{im_sign}{abs(z.imag):.3f}i"


@dataclass(frozen=True)
class Request:
    """One CLI request and what the correctness gate needs to check it."""

    command: str
    kind: str
    potential: str  # potential source, or the preset name
    point: str
    f: str
    g: str
    variant: str | None

    def argv(self) -> list[str]:
        chart = (
            ["--potential", self.potential, "--n", "1"]
            if self.kind == "random"
            else ["--preset", self.potential]
        )
        argv = [self.command, *chart, "--point", self.point, "--f", self.f, "--g", self.g]
        if self.variant:
            argv += ["--variant", self.variant]
        return argv + ["--json"]

    def chart(self):
        """The request's chart, built again from the same source text."""
        potential = (
            expressions.parse(self.potential, 1)
            if self.kind == "random"
            else presets.preset_potential(self.potential, 1)
        )
        point = (expressions.parse_complex(self.point),)
        return geometry.build_chart(potential, point, order=ORDER, n=1)


def make_request(seed: int, i: int) -> Request:
    """The ``i``-th request of the ``eval-n1`` stream of workload ``seed``."""
    rng = random.Random(f"{seed}:eval:{i}")
    command, variant = EVAL_COMMANDS[i % len(EVAL_COMMANDS)]
    kind = EVAL_KINDS[i // len(EVAL_COMMANDS) % len(EVAL_KINDS)]
    if kind == "random":
        point = point_source(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)))
        chart_seed = rng.randrange(2**31)
        spec = verify.RandomChartSpec(n=1, degree=DEGREE, epsilon=EPSILON, seed=chart_seed)
        at = (expressions.parse_complex(point),)
        potential = expressions.to_source(verify.random_potential(spec, at=at))
    else:
        # uniform in the disk of radius 0.7, inside both presets' domains
        z = cmath.rect(math.sqrt(rng.uniform(0.0, 0.49)), rng.uniform(0.0, 2.0 * math.pi))
        point = point_source(z)
        potential = kind
    f = expressions.to_source(verify.random_polynomial(rng, 1))
    g = expressions.to_source(verify.random_polynomial(rng, 1))
    return Request(command, kind, potential, point, f, g, variant)


def request_steps(request: Request):
    """One request as a single step; returns ``(exit code, stdout)``."""
    output = run_request(request)
    yield
    return output


def run_request(request: Request) -> tuple[int, str]:
    """Send one request to ``cli.main`` in-process: ``(exit code, stdout)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(request.argv())
    return code, out.getvalue()


def gate_response(request: Request, code: int, stdout: str) -> tuple[int, dict | None, float]:
    """``(failed, values, worst compare margin)`` of one response.

    A request fails on a non-zero exit, unparsable output, a non-finite
    value or a failed comparison.
    """
    if code != 0:
        return 1, None, math.inf
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return 1, None, math.inf
    values = payload["values"]
    numbers = list(_floats(list(values.values())))
    worst = max((margin(c["residual"], c["tolerance"]) for c in payload["checks"]), default=0.0)
    expected_checks = 3 if request.command == "compare" else 0
    ok = (
        all(math.isfinite(x) for x in numbers)
        and len(payload["checks"]) == expected_checks
        and all(c["pass"] for c in payload["checks"])
    )
    return (0 if ok else 1), values, worst


def _floats(node):
    if isinstance(node, list):
        for item in node:
            yield from _floats(item)
    else:
        yield node


def cross_check(request: Request, values: dict):
    """``(worst margin of the eval values C1..C3 against oracle_cr, chart)``."""
    ctx = request.chart()
    tol = verify.DEFAULT_TOLERANCES["oracle_agreement"]
    worst = 0.0
    for r in (1, 2, 3):
        via_eval = complex(*values[f"C{r}"])
        via_oracle = oracle.oracle_cr(request.f, request.g, ctx, r)
        rel = abs(via_eval - via_oracle) / (1.0 + abs(via_oracle))
        worst = max(worst, margin(rel, tol))
    return worst, ctx
