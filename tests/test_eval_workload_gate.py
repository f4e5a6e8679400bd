"""The ``eval-n1`` benchmark gates its responses with ``bench/workloads.py``:
``gate_response`` on each response, then ``cross_check`` of sampled ``eval`` values
against ``oracle.oracle_cr`` and a read of each chart's metric.  The benchmark's own
tests replay only ``verify`` charts, so these reads are exercised here, on one random
and one preset request of the eval stream."""

import math

import numpy as np
import pytest


@pytest.mark.parametrize("i,kind", [(0, "random"), (4, "fubini-study")])
def test_eval_responses_pass_the_benchmark_gate(workloads, i, kind):
    request = workloads.make_request(7, i)
    assert (request.command, request.kind) == ("eval", kind)
    code, stdout = workloads.run_request(request)
    failed, values, worst = workloads.gate_response(request, code, stdout)
    assert failed == 0 and worst <= 1.0
    margin, ctx = workloads.cross_check(request, values)
    assert margin <= 1.0
    # what the benchmark's chart diagnostics read
    m = ctx.metric_values()
    assert np.linalg.eigvalsh((m + m.conj().T) / 2.0).min() > 0
    assert math.isfinite(np.linalg.cond(m))
    assert all(math.isfinite(jet.max_abs()) for row in ctx.g_up for jet in row)
