"""kahlerstar benchmark: seeded closed-loop workloads, end to end or per layer.

    python3 bench/run.py --workload verify-n2 --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

- ``verify-n1``: the default suite's dimension-1 charts, each with its full
  check sequence, plus the three covariance cases;
- ``verify-n2``: the default suite's dimension-2 charts, the same way;
- ``eval-n1``: in-process ``kahlerstar eval``/``compare`` requests, each on
  a fresh dimension-1 chart.

With ``--trace 0`` the run times set-up in fresh interpreters, then runs the
workload's closed loop in one more fresh interpreter for ``--seconds`` and
prints the end-to-end metrics, with times scaled to a nominal machine speed
(see ``calibration.py``).  With ``--trace 1`` it runs the workload's
fixed trace batch once untraced and once with layer wrappers, and prints
per-layer metrics whose counts repeat exactly for a given seed.  Every run
gates correctness; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero, and no result is printed, when any run fails to complete.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("verify-n1", "verify-n2", "eval-n1")

#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_RUNS = 9
#: wall-time budget of one benchmark run, kept under the 180 s a run may take
BUDGET_S = 170.0

#: one thread everywhere, and a fixed hash seed so that traced counts repeat
CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def time_setup(env: dict, deadline: float) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it reports ``ready``,
    as measured and as scaled to the nominal machine speed."""
    kernel_before = calibration.sample()
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), "setup"], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf_counter()))
        line = proc.stdout.readline() if ready else ""
        elapsed = perf_counter() - start
        proc.wait(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed (exit {proc.returncode})")
    kernel = (kernel_before + calibration.sample()) / 2.0
    return elapsed, elapsed * calibration.NOMINAL_S / kernel


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker interpreter to completion and return its JSON record."""
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("workload did not finish within the time budget") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"workload interpreter failed (exit {done.returncode})")
    return json.loads(lines[-1])


def describe(workload: str, seed: int, record: dict) -> str:
    ratio = record["failed"] / record["attempted"]
    parts = [f"{workload} seed={seed}:"]
    if "items" in record:
        parts.append(
            f"{record['items']} charts in {record['busy_s']:.2f} s of calls; as measured, "
            f"chart p50 {record['raw_p50_ms']:.4g} ms and set-up {record['raw_setup_s']:.4g} s; "
            f"calibration kernel {record['kernel_ms']:.4g} ms (nominal "
            f"{calibration.NOMINAL_S * 1000:g} ms);"
        )
    parts.append(f"failed_ratio={ratio:g} ({record['failed']}/{record['attempted']})")
    return " ".join(parts)


def trace_table(metrics: dict) -> list[str]:
    wall = metrics["bench.traced_wall_s"]["value"]
    selfs = sorted(
        ((k[: -len(".self_s")], v["value"]) for k, v in metrics.items() if k.endswith(".self_s")),
        key=lambda kv: -kv[1],
    )
    selfs.append(("bench.client", metrics["bench.client_self_s"]["value"]))
    lines = [f"{'span':28s} {'calls':>9s} {'self_s':>10s} {'share':>7s}"]
    for span, seconds in selfs:
        calls = metrics.get(f"{span}.calls", {}).get("value", "")
        lines.append(f"{span:28s} {calls!s:>9s} {seconds:10.4f} {seconds / wall:7.1%}")
    lines.append(
        f"traced wall {wall:.4f} s, untraced {metrics['bench.untraced_wall_s']['value']:.4f} s "
        f"(overhead {metrics['bench.trace_overhead_ratio']['value']:.1%}); "
        "wait time: none, every layer runs on the one client thread"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kahlerstar" / "__init__.py").is_file():
        print(f"error: no kahlerstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + BUDGET_S
    env = {**os.environ, **CHILD_ENV}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            record = run_worker(["trace", *common], env, deadline)
            summary = trace_table(record["metrics"])
        else:
            setup = [time_setup(env, deadline) for _ in range(SETUP_RUNS)]
            record = run_worker(["run", *common, "--seconds", str(args.seconds)], env, deadline)
            record["raw_setup_s"] = statistics.median(raw for raw, _ in setup)
            record["metrics"]["setup_s"] = {
                "value": statistics.median(scaled for _, scaled in setup),
                "unit": "s",
            }
            summary = [
                f"{name} = {m['value']:.6g} {m['unit']}" for name, m in record["metrics"].items()
            ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(describe(args.workload, args.seed, record))
    print("\n".join(summary))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
