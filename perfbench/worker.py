"""One workload in one process: set up, warm up, run the timed loop, check.

Started by run.py; prints one JSON object as its last line of output. The
process is a closed loop with one op in flight. Modes:
  setup    set up and warm up, report when the first timed op could start
  measure  setup, then timed ops for --seconds (or exactly --ops ops)
  trace    setup, half the time untraced, half traced (each at most
           TRACED_OPS ops), then the layer probes
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_OPS = 200  # cap per half of the traced run, which bounds the spans kept


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many ops instead")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument(
        "--blas-threads", choices=("1", "default"), default="1",
        help="one BLAS thread, or 'default' to leave the library's own choice",
    )
    return parser.parse_args(argv)


def timed_loop(workload, seconds: float, max_ops: int = 0, before_op=None) -> dict:
    """Run whole ops until `seconds` of op time have passed or `max_ops` ran.

    Only the op is timed; its output check runs between ops, untimed. A
    failed op is one that raised or whose output failed its check.
    """
    latencies, problems = [], []
    attempted = failed = 0
    busy = 0.0
    while busy < seconds and not (max_ops and attempted >= max_ops):
        if before_op is not None:
            before_op()
        attempted += 1
        t0 = time.perf_counter()
        try:
            result = workload.op()
        except Exception as exc:  # an op that raises is counted, not fatal
            busy += time.perf_counter() - t0
            op_problems = [f"{type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - t0
            busy += elapsed
            op_problems = workload.check(result)
            if not op_problems:
                latencies.append(elapsed * 1e3)
        if op_problems:
            failed += 1
            problems += op_problems[:3]
    return {
        "latencies_ms": latencies,
        "busy_s": busy,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.blas_threads != "default":
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = args.blas_threads
    sys.path.insert(0, str(ROOT / "src"))
    import bmc

    if Path(bmc.__file__).resolve().parent != ROOT / "src" / "bmc":
        print(f"bmc was imported from {bmc.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    args.out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out_dir) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        warm_up = timed_loop(workload, math.inf, 1)
        report = {
            "ready_at": time.clock_gettime(time.CLOCK_MONOTONIC),
            "warm_up_problems": warm_up["problems"],
        }
        if args.mode == "measure":
            seconds = math.inf if args.ops else args.seconds
            report["run"] = timed_loop(workload, seconds, args.ops)
        elif args.mode == "trace":
            report.update(_trace(workload, args))
        if args.mode != "setup":
            report["final_problems"] = workload.final_check()
    report["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


def _trace(workload, args) -> dict:
    import probes
    import tracing

    half = args.seconds / 2.0
    untraced = timed_loop(workload, half, TRACED_OPS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = timed_loop(workload, half, TRACED_OPS, before_op=tracer.next_op)
    finally:
        tracer.uninstall()
    tracer.write(args.out_dir / f"trace_{args.workload}.npz")
    return {
        "untraced": untraced,
        "traced": traced,
        "layers": tracing.layer_metrics(tracer, traced["attempted"]),
        "probes": probes.run_probes(),
    }


if __name__ == "__main__":
    sys.exit(main())
