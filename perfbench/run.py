"""groversim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the benchmark imports groversim from its
src/ directory and exits with code 2 if there is none. Workloads:
sv-single-marked, sv-many-marked, trajectory-queries (see README.md).

With --trace 0 it prints the end-to-end metrics: setup_s, the median time
from starting a fresh interpreter to ready over SETUP_SAMPLES processes, and
ops_per_s, op_p50_ms, op_p90_ms and peak_rss_mib of one process that runs
the workload for --seconds. With --trace 1 it prints the per-layer metrics
and the tracing overhead of one traced process instead. Each metric is printed as
"name value unit", and the last line is one JSON object with the keys
correct, attempted, failed and metrics. A wrong output exits nonzero
without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("sv-single-marked", "sv-many-marked", "trajectory-queries")
# setup_s is the median over this many fresh processes: the measured one and
# SETUP_SAMPLES - 1 that exit once they are ready.
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
# OpenBLAS runs numpy's dot product in the StateVector norm check. With two
# threads on a 2-core machine, any load on the second core stalls those dot
# products by orders of magnitude (README.md), so it is held to one thread.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerError(RuntimeError):
    pass


def start_worker(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Run one worker process; return its set-up time and its output."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env={**os.environ, **WORKER_ENV}, stdout=subprocess.PIPE, text=True
    )
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise WorkerError(f"worker exited with code {code} ({'after' if ready else 'before'} set-up)")
    return setup_s, rest


def end_to_end(run, setup_samples):
    """The end-to-end metrics from the measured process's raw results."""
    latencies, round_s = run["latencies_s"], run["round_s"]
    completed_per_round = len(latencies) / len(round_s)
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        # Completed operations per round over the median round: a slow round
        # on a shared machine moves the median less than the mean.
        "ops_per_s": (completed_per_round / statistics.median(round_s), "op/s"),
        "op_p50_ms": (1e3 * deciles[4], "ms"),
        "op_p90_ms": (1e3 * deciles[8], "ms"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "groversim" / "__init__.py").is_file():
        print(f"run.py: no groversim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    setup_samples = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(start_worker(args, True, deadline)[0])
        setup_s, output = start_worker(args, False, deadline)
    except WorkerError as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(setup_s)
    run = json.loads(output.strip().splitlines()[-1])
    attempted, failed = run["attempted"], run["failed"]
    raw = run["metrics"] if args.trace else end_to_end(run, setup_samples)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()}

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}: "
          f"{run['rounds']} rounds, {attempted} operations attempted, {failed} failed")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    if args.trace:
        print(f"tracing overhead {metrics['trace.overhead_pct']['value']:.1f}% "
              f"(traced minus untraced rounds); spans in {run['spans']}")
    result = {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
