"""Benchmark of bmc: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload oracle_validate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Each workload runs in its own worker process (worker.py) with BLAS pinned
to one thread. With --trace 0 the last line of output is a JSON object with
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run. --smoke runs every workload for a few ops with every
check on. See README.md in this directory for what each workload does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("oracle_validate", "holevo_quadrature", "design_sweep")
# Tail percentile per workload, fixed so that runs compare: at least ten ops
# lie beyond it in a slow 30 s run, and on design_sweep it stays below p99,
# whose spread across runs reached the metric's bound (see README.md).
TAIL_PERCENTILE = {"oracle_validate": 85, "holevo_quadrature": 85, "design_sweep": 95}
# Set-up is measured in this many fresh processes and the median reported;
# one sample costs about as much as one op of the dense workloads plus the
# imports, under 1.5 s.
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170.0
SMOKE_OPS = 2


def _percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _worker(workload, seed, mode, seconds=0.0, ops=0, blas_threads="1"):
    """Run worker.py once; return its report and the set-up time it took."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--seconds", repr(seconds), "--ops", str(ops),
        "--out-dir", str(OUT_DIR), "--blas-threads", blas_threads,
    ]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["ready_at"] - started


def _run_problems(report) -> list[str]:
    return report["warm_up_problems"] + report.get("final_problems", [])


def _end_to_end(args) -> dict:
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        _, seconds = _worker(args.workload, args.seed, "setup", blas_threads=args.blas_threads)
        setup.append(seconds)
    report, seconds = _worker(
        args.workload, args.seed, "measure", args.seconds, blas_threads=args.blas_threads
    )
    setup.append(seconds)
    return end_to_end_result(args.workload, report, setup)


def end_to_end_result(workload, report, setup) -> dict:
    """The end-to-end metrics of one measure report and its set-up samples.

    Latencies are those of ops that passed their check; when none did, the
    latency metrics are left out and the result says the run is not correct.
    """
    run = report["run"]
    lat = run["latencies_ms"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / run["busy_s"], "1/s"),
    }
    if lat:
        metrics["op_p50_ms"] = (statistics.median(lat), "ms")
        metrics["op_tail_ms"] = (_percentile(lat, TAIL_PERCENTILE[workload]), "ms")
    metrics["peak_rss_mb"] = (report["max_rss_kb"] / 1024.0, "MB")
    problems = _run_problems(report) + run["problems"]
    return _result(run["attempted"], run["failed"], problems, metrics)


def _traced(args) -> dict:
    report, _ = _worker(
        args.workload, args.seed, "trace", args.seconds, blas_threads=args.blas_threads
    )
    return traced_result(report)


def traced_result(report) -> dict:
    """The per-layer metrics of one trace report, and the tracing overhead."""
    untraced, traced = report["untraced"], report["traced"]
    metrics = {
        name: (value, "calls/op" if name.endswith(".calls") else "ms/op")
        for name, value in report["layers"].items()
    }
    metrics.update({name: (value, name.rsplit("_", 1)[1]) for name, value in report["probes"].items()})
    if untraced["latencies_ms"] and traced["latencies_ms"]:
        traced_p50 = statistics.median(traced["latencies_ms"])
        metrics["trace.op_p50_ms"] = (traced_p50, "ms")
        metrics["trace.overhead_ms"] = (traced_p50 - statistics.median(untraced["latencies_ms"]), "ms")
    problems = _run_problems(report) + untraced["problems"] + traced["problems"]
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    return _result(attempted, failed, problems, metrics)


def _result(attempted, failed, problems, metrics) -> dict:
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _smoke(args) -> int:
    ok = True
    for workload in WORKLOADS:
        report, setup_s = _worker(workload, args.seed, "measure", ops=SMOKE_OPS)
        run = report["run"]
        problems = _run_problems(report) + run["problems"]
        ok = ok and not problems and run["failed"] == 0
        print(
            f"{workload}: {run['attempted']} ops, {run['failed']} failed, "
            f"{len(problems)} check problems, set-up {setup_s:.2f} s"
        )
        for problem in problems:
            print(f"  {problem}")
    print("smoke PASSED" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="few ops of every workload, all checks on")
    parser.add_argument(
        "--blas-threads", choices=("1", "default"), default="1",
        help="BLAS threads per worker; 'default' leaves the library's choice (for comparison only)",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bmc" / "__init__.py").is_file():
        print(f"no bmc sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.smoke:
        return _smoke(args)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = _traced(args) if args.trace else _end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
