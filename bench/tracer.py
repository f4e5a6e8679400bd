"""Outside-in layer tracing: timing wrappers around kahlerstar's entry points.

:meth:`Tracer.install` replaces each entry point below by a wrapper that
records one span per outermost call: its count, inclusive time and self
time (inclusive minus the time of the spans it encloses).  A function is
replaced in every ``kahlerstar`` module namespace that holds it, because
modules import each other's names with ``from .x import ...``; methods are
replaced on their class.  No source file of the program changes.

A call that enters the span it is already in (``c1`` calling ``c1_jet``,
``__pow__`` calling ``reciprocal``) is not a new span.  Everything runs on
one thread, so no layer ever waits on another and no wait time exists to
record.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

from kahlerstar import jets

#: (module, attribute, span); ``Class.method`` names a method
ENTRY_POINTS = (
    ("jets", "Jet.__mul__", "jets.mul"),
    ("jets", "Jet.reciprocal", "jets.analytic"),
    ("jets", "Jet.log", "jets.analytic"),
    ("jets", "Jet.exp", "jets.analytic"),
    ("jets", "Jet.__pow__", "jets.analytic"),
    ("jets", "solve_linear_system", "jets.solve"),
    ("jets", "jet_matrix_inverse", "jets.solve"),
    ("expressions", "eval_jet", "expressions.eval_jet"),
    ("expressions", "parse", "expressions.parse"),
    ("geometry", "covariant_derivative_jets", "geometry.cov_jets"),
    ("geometry", "build_chart", "geometry.build_chart"),
    ("geometry", "curvature", "geometry.curvature"),
    ("geometry", "curvature_jets", "geometry.curvature"),
    ("operators", "c1", "operators.c1"),
    ("operators", "c1_jet", "operators.c1"),
    ("operators", "c2", "operators.c2"),
    ("operators", "c2_jet", "operators.c2"),
    ("operators", "c3", "operators.c3"),
    ("operators", "c3_jet", "operators.c3"),
    ("operators", "c3_tilde", "operators.c3"),
    ("operators", "c3_tilde_jet", "operators.c3"),
    ("operators", "r_operator", "operators.r"),
    ("operators", "r_operator_jet", "operators.r"),
    ("operators", "operator_breakdown", "operators.breakdown"),
    ("oracle", "build_left_mult", "oracle.build_left_mult"),
    ("oracle", "FormalOperator.apply", "oracle.apply"),
    ("verify", "random_chart", "verify.random_chart"),
    ("verify", "random_potential", "verify.random_potential"),
    ("verify", "oracle_agreement_checks", "verify.oracle_agreement"),
    ("verify", "check_associativity", "verify.associativity"),
    ("verify", "check_separation", "verify.separation"),
    ("verify", "check_prop1", "verify.prop1"),
    ("verify", "check_structural", "verify.structural"),
    ("verify", "check_flat_vanishing", "verify.flat_vanishing"),
    ("verify", "check_gauge", "verify.gauge"),
    ("verify", "check_covariance", "verify.covariance"),
    ("verify", "check_finite_differences", "verify.finite_differences"),
    ("cli", "main", "cli.main"),
)

#: spans reported with their call count and self time
LAYER_SPANS = (
    "jets.mul",
    "jets.analytic",
    "jets.solve",
    "expressions.eval_jet",
    "expressions.parse",
    "geometry.cov_jets",
    "geometry.build_chart",
    "geometry.curvature",
    "operators.c1",
    "operators.c2",
    "operators.c3",
    "operators.r",
    "operators.breakdown",
    "oracle.build_left_mult",
    "oracle.apply",
    "cli.main",
)

#: verify spans reported with their inclusive time
VERIFY_FAMILIES = (
    "oracle_agreement",
    "associativity",
    "separation",
    "prop1",
    "structural",
    "flat_vanishing",
    "gauge",
    "covariance",
    "finite_differences",
    "random_chart",
)


@functools.lru_cache(maxsize=None)
def dense_pairs(n: int, trunc: int) -> int:
    """Coefficient pairs a dense product of two ``(n, trunc)`` jets visits.

    Pairs of monomials in ``2n`` variables of total degree at most
    ``trunc`` are monomials in ``4n`` variables, so the count depends on
    ``(n, trunc)`` only, not on how a jet stores its coefficients.
    """
    return math.comb(trunc + 4 * n, 4 * n)


class Tracer:
    """Span and counter records of one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Counter = Counter()
        self.incl_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.dense_pairs = 0
        self.potential_attempts = 0
        self.potential_accepts = 0
        self._stack: list[list] = []  # open spans: [name, seconds of enclosed spans]
        self._in_potential = 0
        self._replaced: list[tuple[object, str, object]] = []

    def _timed(self, span: str, fn):
        stack = self._stack

        def timed(*args, **kwargs):
            if not self.active or (stack and stack[-1][0] == span):
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[span] += 1
                self.incl_s[span] += elapsed
                self.self_s[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return functools.wraps(fn)(timed)

    def _wrapper(self, attribute: str, span: str, fn):
        timed = self._timed(span, fn)
        if attribute == "Jet.__mul__":

            def mul(a, b):
                if isinstance(b, jets.Jet):
                    if self.active:
                        self.dense_pairs += dense_pairs(a.n, a.trunc)
                    return timed(a, b)
                return fn(a, b)

            return functools.wraps(fn)(mul)
        if attribute == "random_potential":

            def potential(*args, **kwargs):
                self._in_potential += 1
                try:
                    result = timed(*args, **kwargs)
                finally:
                    self._in_potential -= 1
                self.potential_accepts += 1
                return result

            return functools.wraps(fn)(potential)
        if attribute == "build_chart":

            def chart(*args, **kwargs):
                self.potential_attempts += self._in_potential > 0
                return timed(*args, **kwargs)

            return functools.wraps(fn)(chart)
        return timed

    def install(self) -> None:
        """Replace every entry point in every namespace that holds it."""
        namespaces = [
            module
            for name, module in sys.modules.items()
            if name == "kahlerstar" or name.startswith("kahlerstar.")
        ]
        for module_name, attribute, span in ENTRY_POINTS:
            module = sys.modules[f"kahlerstar.{module_name}"]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._replace(owner, method, self._wrapper(attribute, span, original))
                continue
            original = getattr(module, attribute)
            wrapped = self._wrapper(attribute, span, original)
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        self._replace(namespace, name, wrapped)

    def _replace(self, owner, name: str, value) -> None:
        self._replaced.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put every original entry point back."""
        while self._replaced:
            owner, name, original = self._replaced.pop()
            setattr(owner, name, original)

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer records; ``bench.client_self_s`` is the part of
        ``wall_s`` inside no span, so all self times add up to ``wall_s``."""
        metrics = {}
        for span in LAYER_SPANS:
            metrics[f"{span}.calls"] = (self.calls[span], "count")
            metrics[f"{span}.self_s"] = (self.self_s[span], "s")
        metrics["jets.mul.dense_pairs"] = (self.dense_pairs, "count")
        for family in VERIFY_FAMILIES:
            metrics[f"verify.{family}.incl_s"] = (self.incl_s[f"verify.{family}"], "s")
        verify_self = sum((s for span, s in self.self_s.items() if span.startswith("verify.")), 0.0)
        metrics["verify.self_s"] = (verify_self, "s")
        metrics["verify.random_potential.accept_ratio"] = (
            self.potential_accepts / self.potential_attempts if self.potential_attempts else 0.0,
            "ratio",
        )
        metrics["bench.client_self_s"] = (wall_s - sum(self.self_s.values()), "s")
        return metrics
