"""qpcrkin benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload convergence --seed 1 --seconds 20 --trace 0

Each run starts fresh worker processes (worker.py) with one-thread math
libraries: several that only set up, to time set-up, then one that runs
the workload's ops for --seconds.  With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run.  A table
goes first; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# set-up is timed this many times per run and reported as the median
SETUP_RUNS = 7
# a run must end well inside the 180 s a caller allows it
DEADLINE_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env.pop("PYTHONPATH", None)  # the worker imports the checkout's own src
    return env


def start_worker(args, workload: str, setup_only: bool) -> tuple:
    """Start a worker and wait for its ready line; returns (process, set-up s)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker for {workload} did not start (exit {proc.returncode})")
    return proc, setup


def stop(proc, timeout: float = 10.0) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=timeout)
    proc.stdout.close()


def tail_rank(n: int) -> int:
    """1-based rank of op_p90_s: p90, or lower so that 10 ops lie beyond it,
    but never below the median."""
    return max(n // 2 + 1, min(math.ceil(0.9 * n), n - 10))


def probe_setup(args, workload: str, scaler) -> float:
    """Set-up time of a worker that only sets up, scaled to a quiet host."""
    proc, setup = start_worker(args, workload, setup_only=True)
    try:
        proc.wait(timeout=30)
    finally:
        stop(proc)
    return scaler.scale(setup)


def run_workload(args, workload: str, started: float) -> dict:
    # set-up probes before and after the measuring worker, so that one
    # burst of host load does not hit all of them
    scaler = reference.Scaler()
    before = SETUP_RUNS // 2
    setups = [probe_setup(args, workload, scaler) for _ in range(before)]
    proc, _ = start_worker(args, workload, setup_only=False)
    try:
        left = DEADLINE_S - (time.perf_counter() - started)
        out, _ = proc.communicate(timeout=max(1.0, left))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {DEADLINE_S} s") from None
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker for {workload} exited {proc.returncode}")
    scaler = reference.Scaler()
    setups += [probe_setup(args, workload, scaler)
               for _ in range(SETUP_RUNS - before)]
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = statistics.median(setups)
    return report


def end_to_end(report: dict) -> dict:
    kinds = report["kinds"]
    if not kinds:
        raise BenchError("no op succeeded")
    # every timed op at its kind's median time
    times = sorted(t for k in kinds for t in [k["seconds"]] * k["ops"])
    metrics = {
        "setup_s": (report["setup_s"], "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p90_s": (times[tail_rank(len(times)) - 1], "s"),
        # one op of each kind, at its kind's median time
        "units_per_s": (sum(k["units"] for k in kinds)
                        / sum(k["seconds"] for k in kinds), "units/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }
    return {name: {"value": value, "unit": unit_}
            for name, (value, unit_) in metrics.items()}


def per_layer(report: dict) -> dict:
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: {"value": report["layers"][m["name"]], "unit": m["unit"]}
            for m in units}


def table(workload: str, report: dict, metrics: dict, unit: str) -> str:
    n = sum(k["ops"] for k in report["kinds"])
    lines = [f"# {workload}: {report['attempted']} op runs, {report['failed']} "
             f"failed; {n} ops timed, op_p90_s is rank {tail_rank(n) if n else 0}; "
             f"units are {unit}"]
    rate = report["failed"] / report["attempted"]
    rows = dict(metrics, error_rate={"value": rate, "unit": "ratio"})
    for name, m in rows.items():
        lines.append(f"{workload:17s} {name:36s} {m['value']:14.6g} {m['unit']}")
    if report.get("wall_p50_s") is not None:
        lines.append(f"{workload:17s} {'(unscaled op wall time, median)':36s} "
                     f"{report['wall_p50_s']:14.6g} s")
    lines.extend(f"{workload:17s} error: {e}" for e in report["errors"])
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "qpcrkin").is_dir():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run still stops its worker on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            report = run_workload(args, name, time.perf_counter())
            unit = WORKLOADS[name].unit
            metrics = per_layer(report) if args.trace else end_to_end(report)
            print(table(name, report, metrics, unit), flush=True)
            prefix = f"{name}." if len(names) > 1 else ""
            result["metrics"].update({prefix + k: v for k, v in metrics.items()})
            result["attempted"] += report["attempted"]
            result["failed"] += report["failed"]
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(ROOT / ".perfbench_work")
        except OSError:
            pass
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
