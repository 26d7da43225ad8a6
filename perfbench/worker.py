"""One benchmark process: set up a workload, run it for a fixed time, report.

run.py starts this script in a fresh interpreter from the root of a checkout:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up imports groversim from the checkout's src/, makes the workload's round
of operations from the seed and runs the round's first operation once as a
warm-up; then the script prints READY, the point at which run.py stops its
set-up clock. With --setup-only it exits there.

Otherwise it repeats the round until --seconds have passed, timing each
operation alone and checking its output between operations against
correctness.py, and prints one JSON line with the raw results: the latency
of every completed operation, the time each round spent inside operations,
and the process's peak resident memory. With
--trace 1 untraced and traced rounds alternate, and the traced ones give the
per-layer metrics and the tracing overhead. A failed check exits with code
3; an operation that raises counts as failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
KNOWN_FAULT_MESSAGE = "amplitudes are not normalised"


def load_groversim():
    sys.path.insert(0, str(ROOT / "src"))
    import groversim
    from groversim import cli, params, statevector, twolevel

    source = Path(groversim.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"groversim was imported from {source}, not from {ROOT / 'src'}")
    return groversim, SimpleNamespace(cli=cli, params=params, statevector=statevector, twolevel=twolevel)


def run_rounds(ops, gs, seconds, cx, table, tracer):
    """Whole rounds until ``seconds`` have passed (and, when tracing, until
    as many traced rounds as untraced ones have run)."""
    attempted = failed = 0
    latencies = []
    round_s = {False: [], True: []}
    start = time.perf_counter()
    round_index = 0
    while True:
        traced = tracer is not None and round_index % 2 == 1
        first = round_index == 0
        if traced:
            tracer.install()
        spent = 0.0
        for op in ops:
            if traced:
                tracer.op = attempted
            attempted += 1
            began = time.perf_counter()
            try:
                output = op.run(gs)
            except Exception as exc:  # noqa: BLE001  (counted, reported once)
                spent += time.perf_counter() - began
                failed += 1
                if first:
                    expected = op.known_fault and isinstance(exc, ValueError) and KNOWN_FAULT_MESSAGE in str(exc)
                    kind = "known fault" if expected else "UNEXPECTED failure"
                    print(f"{kind}: {op.describe()}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - began
            spent += elapsed
            if not traced:
                latencies.append(elapsed)
            op.check(output, gs, cx, table, first)
            del output  # so the next operation does not run beside this one's state
        if traced:
            tracer.uninstall()
        round_s[traced].append(spent)
        round_index += 1
        if time.perf_counter() - start >= seconds and (tracer is None or round_index % 2 == 0):
            break
    return attempted, failed, latencies, round_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    groversim, gs = load_groversim()
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    ops[0].run(gs)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    import correctness as cx
    import tracing

    tracer = tracing.Tracer(groversim) if args.trace else None
    try:
        attempted, failed, latencies, round_s = run_rounds(
            ops, gs, args.seconds, cx, cx.TrajectoryTable(), tracer
        )
    except cx.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3

    result = {"attempted": attempted, "failed": failed, "rounds": len(round_s[False]) + len(round_s[True])}
    if tracer is None:
        result["latencies_s"] = latencies
        result["round_s"] = round_s[False]
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        traced_rounds = len(round_s[True])
        metrics = tracer.metrics(traced_rounds * len(ops))
        untraced = statistics.fmean(round_s[False])
        metrics["trace.overhead_pct"] = (100.0 * (statistics.fmean(round_s[True]) / untraced - 1.0), "%")
        result["metrics"] = metrics
        RESULTS.mkdir(parents=True, exist_ok=True)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write_spans(spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
