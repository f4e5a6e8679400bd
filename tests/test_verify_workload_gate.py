"""The ``verify-n1`` and ``verify-n2`` benchmarks replay suite charts through
``bench/workloads.py`` and gate each with ``gate_chart``, then read each chart's
metric for the run's diagnostics.  Here one preset and one random n=2 chart go
through the same replay, gate and reads."""

import math

import numpy as np
import pytest


@pytest.mark.parametrize("args", [("preset", 2, 0, "flat"), ("random", 2, 4)], ids=["flat", "n2"])
def test_verify_charts_pass_the_benchmark_gate(workloads, args):
    chart = workloads.Chart(*args)
    results, ctx = workloads.replay(chart)
    attempted, failed, _ = workloads.gate_chart(chart, results)
    assert failed == 0 and attempted == len(results)
    # what the benchmark's chart diagnostics read
    m = ctx.metric_values()
    assert np.linalg.eigvalsh((m + m.conj().T) / 2.0).min() > 0
    assert math.isfinite(np.linalg.cond(m))
    assert all(math.isfinite(jet.max_abs()) for row in ctx.g_up for jet in row)
    assert ctx.g_up[0][0].trunc == 2  # the depth the checks read
