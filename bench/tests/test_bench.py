"""Self-tests of the benchmark: it replays the real suite, and traced counts repeat.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import subprocess
import sys

import workloads
from kahlerstar.jets import iter_multi_indices_upto
from kahlerstar.verify import run_suite
from tracer import dense_pairs
from worker import ROOT


def test_replay_reproduces_run_suite():
    seed = 5
    per_chart = [(chart, workloads.replay(chart)[0]) for chart in workloads.suite_charts(4, seed)]
    replayed = [r for _, results in per_chart for r in results]
    replayed.sort(key=lambda r: (r.name, r.context))
    assert replayed == run_suite(trials=4, seed=seed)
    for chart, results in per_chart:
        expected = sum(chart.expected_names().values())
        assert workloads.gate_chart(chart, results)[:2] == (expected, 0)


def test_dense_pairs_counts_monomial_pairs():
    for n, trunc in ((1, 4), (2, 3)):
        monomials = [sum(m) for m in iter_multi_indices_upto(2 * n, trunc)]
        pairs = sum(1 for a in monomials for b in monomials if a + b <= trunc)
        assert dense_pairs(n, trunc) == pairs


def _trace(seed):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-n1", "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_traced_counts_repeat_and_cover_the_declared_metrics():
    first, second = _trace(3), _trace(3)
    assert first["correct"] and second["correct"]
    counts = {k: v for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts["jets.mul.calls"]["value"] > 0
    assert counts == {k: v for k, v in second["metrics"].items() if v["unit"] == "count"}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(first["metrics"]) == {m["name"] for m in declared}
