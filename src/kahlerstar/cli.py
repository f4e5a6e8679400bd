"""Command-line interface: evaluate products, verify identities, compare oracles.

Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 numerical
precondition failure (singular or non-finite metric, pole or branch violation
at the base point).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from .expressions import EvaluationError, parse, parse_complex
from .geometry import SingularMetricError, build_chart, require_dimension
from .operators import StarVariant, c3, c3_tilde, operator_breakdown, star_product
from .oracle import OracleConsistencyError
from .presets import PRESET_NAMES, preset_dimension, preset_potential
from .verify import (
    DEFAULT_TOLERANCES,
    CheckResult,
    covariant_and_recursion,
    random_polynomial,
    run_suite,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

COMPARE_TOL = DEFAULT_TOLERANCES["oracle_agreement"]


#: every setting of a request with its default: each command's parser takes them all, so
#: the parsed arguments are the run's settings, and those that are not None its ``config``
_DEFAULTS = dict(
    preset=None, potential=None, n=1, point=(), f=None, g=None, variant="standard",
    jet_order=10, seed=0, trials=20, epsilon=0.1, degree=3, tol=None, json_output=False,
)


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _fmt(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}i"


def _config_dict(cfg: argparse.Namespace) -> dict:
    out = {key: value for key, value in vars(cfg).items() if value is not None}
    out["point"] = [_complex_pair(z) for z in cfg.point]
    return out


def _build_config(cfg: argparse.Namespace) -> argparse.Namespace:
    cfg.point = tuple(parse_complex(text) for text in cfg.point)
    # a tolerance of inf would pass a residual that worst_abs turned from NaN into inf
    if cfg.tol is not None and not 0.0 <= cfg.tol < math.inf:
        raise ValueError(f"{cfg.command} requires a finite --tol of at least 0")
    return cfg


def _resolve_chart(cfg: argparse.Namespace):
    if cfg.preset and cfg.potential:
        raise ValueError("give either --preset or --potential, not both")
    if cfg.preset:
        n = preset_dimension(cfg.preset, cfg.n)
        potential = preset_potential(cfg.preset, n)
    elif cfg.potential:
        n = require_dimension(cfg.n)
        potential = parse(cfg.potential, n)
    else:
        raise ValueError("one of --preset or --potential is required")
    point = cfg.point or tuple(0j for _ in range(n))
    if len(point) != n:
        raise ValueError(f"--point must supply {n} complex value(s)")
    cfg.n = n
    cfg.point = point
    return build_chart(potential, point, order=cfg.jet_order, n=n)


def _emit(cfg: argparse.Namespace, checks: list, values: dict, text_lines: list[str]) -> None:
    if cfg.json_output:
        payload = {
            "config": _config_dict(cfg),
            "checks": [c.as_dict() for c in checks],
            "values": values,
            "seed": cfg.seed,
            "jet_order": cfg.jet_order,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_eval(cfg: argparse.Namespace) -> int:
    if not cfg.f or not cfg.g:
        raise ValueError("eval requires --f and --g")
    ctx = _resolve_chart(cfg)
    f, g = parse(cfg.f, cfg.n), parse(cfg.g, cfg.n)
    variant = StarVariant(cfg.variant)
    product = star_product(f, g, ctx, variant)
    order3 = {"C3": c3(f, g, ctx), "C3tilde": c3_tilde(f, g, ctx)}
    values_c = {"C1": product[1], "C2": product[2], **order3}
    bd = operator_breakdown(f, g, ctx)

    values = {
        "star": [_complex_pair(z) for z in product],
        **{key: _complex_pair(z) for key, z in values_c.items()},
        "P": _complex_pair(bd.p),
        "Q": _complex_pair(bd.q),
        "R": _complex_pair(bd.r),
        "S": _complex_pair(bd.s),
    }
    lines = [
        f"star ({variant.value}): " + "  ".join(f"c{r}={_fmt(product[r])}" for r in range(4)),
        "  ".join(f"{key}={_fmt(z)}" for key, z in values_c.items()),
        f"P={_fmt(bd.p)}  Q={_fmt(bd.q)}  R={_fmt(bd.r)}  S={_fmt(bd.s)}  Stilde={_fmt(bd.s_tilde)}",
    ]
    _emit(cfg, [], values, lines)
    return EXIT_OK


def _cmd_verify(cfg: argparse.Namespace) -> int:
    if cfg.trials < 0:
        raise ValueError("verify requires --trials of at least 0")
    if not math.isfinite(cfg.epsilon):
        raise ValueError("verify requires a finite --epsilon")
    if cfg.degree < 1:
        raise ValueError("verify requires --degree of at least 1")
    results = run_suite(
        trials=cfg.trials,
        seed=cfg.seed,
        order=cfg.jet_order,
        epsilon=cfg.epsilon,
        degree=cfg.degree,
        tol=cfg.tol,
    )
    failed = [r for r in results if not r.passed]
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name:40s} residual={r.residual:.3e} "
        f"tol={r.tolerance:.1e} [{r.context}]"
        for r in results
    ]
    lines.append(
        f"summary: {len(results)} checks, {len(results) - len(failed)} passed, "
        f"{len(failed)} failed (trials={cfg.trials}, seed={cfg.seed}, J={cfg.jet_order})"
    )
    _emit(cfg, results, {}, lines)
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


def _cmd_compare(cfg: argparse.Namespace) -> int:
    ctx = _resolve_chart(cfg)
    rng = random.Random(f"{cfg.seed}:compare")
    f = parse(cfg.f, cfg.n) if cfg.f else random_polynomial(rng, cfg.n)
    g = parse(cfg.g, cfg.n) if cfg.g else random_polynomial(rng, cfg.n)
    checks = []
    values = {}
    lines = [f"{'r':>2} {'covariant':>28} {'oracle':>28} {'residual':>12}"]
    tol = cfg.tol if cfg.tol is not None else COMPARE_TOL
    for r, via_formula, via_oracle, residual in covariant_and_recursion(ctx, f, g):
        checks.append(CheckResult(f"compare_r{r}", residual, tol, f"J={cfg.jet_order}"))
        values[f"C{r}_covariant"] = _complex_pair(via_formula)
        values[f"C{r}_oracle"] = _complex_pair(via_oracle)
        lines.append(f"{r:>2} {_fmt(via_formula):>28} {_fmt(via_oracle):>28} {residual:>12.3e}")
    failed = [c for c in checks if not c.passed]
    lines.append("all oracle comparisons within tolerance" if not failed else "MISMATCH detected")
    _emit(cfg, checks, values, lines)
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


class _CommandParser(argparse.ArgumentParser):
    """Reads a token that starts with one ``-``, such as the point ``-0.2+0.1i`` or the
    expression ``-(z1*zb1)``, as a value unless it names an option (only ``-h`` does)."""

    def _parse_optional(self, arg_string):
        if arg_string[:2] != "--" and arg_string not in self._option_string_actions:
            return None  # argparse alone takes only a plain negative number for a value
        return super()._parse_optional(arg_string)


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahlerstar",
        description=(
            "Star products with separation of variables on a Kähler chart, "
            "truncated at third order in the formal parameter."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def add_chart_flags(p):
        p.add_argument("--preset", choices=PRESET_NAMES, help="built-in potential")
        p.add_argument("--potential", help="potential expression over z1..zn, zb1..zbn")
        p.add_argument("--n", type=int, help="chart dimension (default %(default)s)")
        p.add_argument(
            "--point",
            nargs="+",
            metavar="Z",
            help="base point, complex values like 0.3+0.2i (default origin); "
            "note the grammar's loosest-binding unary minus: -0.5+0.2i means -(0.5+0.2i)",
        )
        p.add_argument("--f", help="first argument expression")
        p.add_argument("--g", help="second argument expression")
        p.add_argument("--jet-order", dest="jet_order", type=int, help="jet truncation order")
        p.add_argument("--json", dest="json_output", action="store_true", help="emit a JSON report")
        p.add_argument("--seed", type=int, help="seed for randomized pieces")

    p_eval = sub.add_parser("eval", help="evaluate a star product at a point")
    add_chart_flags(p_eval)
    p_eval.add_argument(
        "--variant",
        choices=[v.value for v in StarVariant],
        help="third-order operator choice (default %(default)s)",
    )

    p_verify = sub.add_parser("verify", help="run the full identity suite")
    p_verify.add_argument("--trials", type=int, help="number of random charts (default %(default)s)")
    p_verify.add_argument("--seed", type=int, help="base seed (default %(default)s)")
    p_verify.add_argument("--jet-order", dest="jet_order", type=int)
    p_verify.add_argument("--epsilon", type=float, help="perturbation size (default %(default)s)")
    p_verify.add_argument("--degree", type=int, help="perturbation degree (default %(default)s)")
    p_verify.add_argument("--tol", type=float, help="override every tolerance")
    p_verify.add_argument("--json", dest="json_output", action="store_true")

    p_compare = sub.add_parser("compare", help="covariant formulas vs the recursion")
    add_chart_flags(p_compare)
    p_compare.add_argument("--tol", type=float, help="comparison tolerance")
    for p in (p_eval, p_verify, p_compare):
        p.set_defaults(**_DEFAULTS)

    return parser


#: built once: parse_args keeps no state between calls
_PARSER = _make_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        cfg = _build_config(args)
        if args.command == "eval":
            return _cmd_eval(cfg)
        if args.command == "verify":
            return _cmd_verify(cfg)
        return _cmd_compare(cfg)
    except ValueError as exc:  # an ExpressionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EvaluationError, SingularMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OracleConsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
