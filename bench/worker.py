"""One fresh interpreter of the benchmark: set-up, a timed loop or a traced batch.

    python3 bench/worker.py setup
    python3 bench/worker.py run   --workload W --seed S --seconds T
    python3 bench/worker.py trace --workload W --seed S

``setup`` imports the program, makes one warm-up request and prints
``ready``.  ``run`` then runs the workload's closed loop until its timed
steps add up to ``--seconds`` and prints its end-to-end record as one JSON
line.  ``trace``
runs the workload's fixed trace batch twice, untraced and then with the
layer wrappers installed, and prints the per-layer record.  ``run.py``
starts these processes; the program is imported from ``src/`` of the same
checkout and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import kahlerstar  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: seconds of timed steps between two timings of the calibration kernel
CALIBRATE_EVERY_S = 0.25


def warm_up() -> None:
    """One small request, after which the program counts as set up."""
    if Path(kahlerstar.__file__).resolve().parent != SRC / "kahlerstar":
        raise SystemExit(f"kahlerstar imported from {kahlerstar.__file__}, not from {SRC}")
    request = workloads.Request("eval", "flat", "flat", "0", "zb1", "z1", "standard")
    code, _ = workloads.run_request(request)
    if code != 0:
        raise SystemExit(f"warm-up request exited with {code}")


def raise_margin(margins: dict, key: str, value: float) -> None:
    margins[key] = max(margins.get(key, 0.0), value)


class Diagnostics:
    """Conditioning of the charts a run used, worst case over the run."""

    def __init__(self):
        self.smallest_eigenvalue = math.inf
        self.condition = 0.0
        self.g_up_coeff = 0.0

    def add(self, ctx) -> None:
        m = ctx.metric_values()
        hermitian = (m + m.conj().T) / 2.0
        smallest = float(min(np.linalg.eigvalsh(hermitian)))
        self.smallest_eigenvalue = min(self.smallest_eigenvalue, smallest)
        self.condition = max(self.condition, float(np.linalg.cond(m)))
        self.g_up_coeff = max(self.g_up_coeff, *(jet.max_abs() for row in ctx.g_up for jet in row))

    def metrics(self) -> dict:
        return {
            "chart.min_metric_eigenvalue": (self.smallest_eigenvalue, "1"),
            "chart.max_metric_condition": (self.condition, "1"),
            "chart.max_g_up_coeff": (self.g_up_coeff, "1"),
        }


class VerifyWorkload:
    """Charts of the default suite of one dimension, each with all its checks."""

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed
        # one cycle of the suite's n=1 charts; the flat and one random n=2 chart
        self.trace_batch = 16 if n == 1 else 2
        self.margins: dict[str, float] = {}
        self.diagnostics = Diagnostics()

    def inputs(self):
        return workloads.chart_sequence(self.n, self.seed)

    def steps(self, chart):
        return workloads.chart_steps(chart)

    def gate(self, chart, output) -> tuple[int, int]:
        if output is None:
            expected = sum(chart.expected_names().values())
            return expected, expected
        results, ctx = output
        attempted, failed, worst = workloads.gate_chart(chart, results)
        for family, m in worst.items():
            raise_margin(self.margins, f"verify.{family}", m)
        if ctx is not None:
            self.diagnostics.add(ctx)
        return attempted, failed

    def finish(self) -> tuple[int, int]:
        return 0, 0


class EvalWorkload:
    """In-process CLI requests, each on a fresh chart."""

    trace_batch = 120
    #: every ``keep_every``-th eval response is kept for the cross-check,
    #: of which ``cross_checks`` evenly spaced ones are checked
    keep_every = 10
    cross_checks = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.margins: dict[str, float] = {}
        self.diagnostics = Diagnostics()
        self.evals = 0
        self.kept = []

    def inputs(self):
        i = 0
        while True:
            yield workloads.make_request(self.seed, i)
            i += 1

    def steps(self, request):
        return workloads.request_steps(request)

    def gate(self, request, output) -> tuple[int, int]:
        if output is None:
            return 1, 1
        failed, values, worst = workloads.gate_response(request, *output)
        if request.command == "compare":
            raise_margin(self.margins, "cli.compare", worst)
        elif values is not None:
            if self.evals % self.keep_every == 0:
                self.kept.append((request, values))
            self.evals += 1
        return 1, failed

    def finish(self) -> tuple[int, int]:
        """Cross-check evenly spaced ``eval`` responses against ``oracle_cr``."""
        step = max(1, len(self.kept) // self.cross_checks)
        sample = self.kept[::step][: self.cross_checks]
        failed = 0
        for request, values in sample:
            try:
                m, ctx = workloads.cross_check(request, values)
                self.diagnostics.add(ctx)
            except Exception:
                traceback.print_exc()
                m = math.inf
            raise_margin(self.margins, "cli.eval_vs_oracle", m)
            failed += not m <= 1.0
        return len(sample), failed


def make_workload(name: str, seed: int):
    if name == "verify-n1":
        return VerifyWorkload(1, seed)
    if name == "verify-n2":
        return VerifyWorkload(2, seed)
    if name == "eval-n1":
        return EvalWorkload(seed)
    raise SystemExit(f"unknown workload {name!r}")


@dataclass
class Loop:
    """Outcome of a closed loop: one duration per input, and gate counts."""

    durations: list = field(default_factory=list)
    #: durations rescaled to the nominal machine speed (see calibration.py)
    scaled: list = field(default_factory=list)
    kernel_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def closed_loop(workload, inputs, seconds: float | None = None, calibrate: bool = False) -> Loop:
    """Send one input after another.

    Only the steps of a call into the program are timed: making the input
    and gating the output are the client's work.  With ``seconds``, no new
    input is sent once the timed steps add up to that many seconds.  With
    ``calibrate``, the calibration kernel is timed before the first step
    and then between steps every ``CALIBRATE_EVERY_S`` of steps; each step
    is scaled by the mean of the kernel times just before and after it.
    """
    loop = Loop()
    steps_of = []  # (input index, seconds, index of the kernel time before it)
    if calibrate:
        loop.kernel_s.append(calibration.sample())
    since = busy = 0.0
    for i, item in enumerate(inputs):
        steps = workload.steps(item)
        output = None
        while True:
            t0 = perf_counter()
            try:
                next(steps)
            except StopIteration as stop:
                output = stop.value
                break
            except Exception:
                traceback.print_exc()
                break
            finally:
                elapsed = perf_counter() - t0
                steps_of.append((i, elapsed, len(loop.kernel_s) - 1))
                since += elapsed
                busy += elapsed
            if calibrate and since >= CALIBRATE_EVERY_S:
                loop.kernel_s.append(calibration.sample())
                since = 0.0
        a, f = workload.gate(item, output)
        loop.attempted += a
        loop.failed += f
        if seconds is not None and busy >= seconds:
            break
    if calibrate:
        loop.kernel_s.append(calibration.sample())
    k = loop.kernel_s
    loop.durations = [0.0] * (steps_of[-1][0] + 1)
    loop.scaled = [0.0] * len(loop.durations)
    for i, elapsed, mark in steps_of:
        loop.durations[i] += elapsed
        if calibrate:
            loop.scaled[i] += elapsed * calibration.NOMINAL_S / ((k[mark] + k[mark + 1]) / 2.0)
    return loop


def window_rates(durations, windows: int = 6) -> list[float]:
    """Charts finished per second in each of ``windows`` equal slices of the
    durations laid end to end.

    A chart counts in each slice by the share of its time that falls there,
    so a rate does not jump with the number of charts that fit, which
    matters when one chart takes seconds.  Their median ignores a slice
    that holds a chart much cheaper than the rest.
    """
    width = sum(durations) / windows
    done = [0.0] * windows
    start = 0.0
    for d in durations:
        end = start + d
        for w in range(int(start // width), min(windows, int(end // width) + 1)):
            overlap = min(end, (w + 1) * width) - max(start, w * width)
            if overlap > 0:
                done[w] += overlap / d
        start = end
    return [c / width for c in done]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p50_p90_ms(durations) -> tuple[float, float]:
    ms = [d * 1000.0 for d in durations]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90


def run(name: str, seed: int, seconds: float) -> dict:
    workload = make_workload(name, seed)
    loop = closed_loop(workload, workload.inputs(), seconds, calibrate=True)
    a, f = workload.finish()
    p50, p90 = p50_p90_ms(loop.scaled)
    return {
        "attempted": loop.attempted + a,
        "failed": loop.failed + f,
        "items": len(loop.durations),
        "busy_s": sum(loop.durations),
        "raw_p50_ms": p50_p90_ms(loop.durations)[0],
        "kernel_ms": statistics.median(loop.kernel_s) * 1000.0,
        "metrics": {
            "charts_per_s": (statistics.median(window_rates(loop.scaled)), "1/s"),
            "chart_p50_ms": (p50, "ms"),
            "chart_p90_ms": (p90, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
    }


def src_nonblank_lines() -> int:
    return sum(
        1
        for path in SRC.rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


MARGIN_KEYS = (
    *(f"verify.{family}" for family in (
        "oracle_agreement", "associativity", "separation", "prop1", "structural",
        "flat_vanishing", "gauge", "covariance", "finite_differences",
    )),
    "cli.compare",
    "cli.eval_vs_oracle",
)


def trace(name: str, seed: int) -> dict:
    workload = make_workload(name, seed)
    tracer = tracing.Tracer()
    # inputs are made with the wrappers in place, so that random potentials
    # drawn by the client count towards the accept ratio, but record no span
    tracer.install()
    batch = list(islice(workload.inputs(), workload.trace_batch))
    tracer.uninstall()
    plain = closed_loop(make_workload(name, seed), batch).durations

    # the gates read results only, so the traced time is all program time
    tracer.install()
    tracer.active = True
    traced = closed_loop(workload, batch)
    tracer.active = False
    tracer.uninstall()
    a, f = workload.finish()

    untraced_s, traced_s = sum(plain), sum(traced.durations)
    metrics = tracer.layer_metrics(traced_s)
    for key in MARGIN_KEYS:
        # a failed check's margin is inf, which JSON cannot carry
        margin = min(workload.margins.get(key, 0.0), sys.float_info.max)
        metrics[f"{key}.worst_margin"] = (margin, "ratio")
    metrics.update(workload.diagnostics.metrics())
    metrics.update(
        {
            "bench.untraced_wall_s": (untraced_s, "s"),
            "bench.traced_wall_s": (traced_s, "s"),
            "bench.trace_overhead_ratio": ((traced_s - untraced_s) / untraced_s, "ratio"),
            "src.nonblank_lines": (src_nonblank_lines(), "count"),
        }
    )
    return {"attempted": traced.attempted + a, "failed": traced.failed + f, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    warm_up()
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    if args.mode == "run":
        record = run(args.workload, args.seed, args.seconds)
    else:
        record = trace(args.workload, args.seed)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}
    print(json.dumps(record, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
