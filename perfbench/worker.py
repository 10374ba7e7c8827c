"""One benchmark worker process: set up one workload, run its ops, report.

Started by run.py, one fresh process per workload run.  It prints
"ready" once the package is imported and the first op's inputs exist,
then (unless --setup-only) runs ops for the requested seconds and prints
one JSON line with the raw op timings, failures and, when traced, the
per-layer metrics.  Nothing else goes to standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, bound_wrappers  # noqa: E402

PACKAGE = "qpcrkin"


def import_package():
    """Import the package from this checkout's sources, never an installed copy."""
    import qpcrkin
    import qpcrkin.cli  # noqa: F401 - the CLI workloads call through it

    where = Path(qpcrkin.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"qpcrkin imported from {where}, not from {SRC}")


def run_phase(workload, seed, seconds, out, tracers=(None,), scaler=None):
    """Run ops 0, 1, ... in whole periods for about seconds.

    Each op runs once per entry of tracers, in turn (None: untraced); the
    results come in that order.  With a scaler, each op's time is scaled
    to a quiet host (reference.py).  Op inputs repeat their mix every
    workload.period ops, so whole periods give every run the same mix.
    Another period starts only if, at the mean period time so far, it
    would end less than half a period after the deadline.
    """
    clock = time.perf_counter
    results = []
    begin = clock()
    index = 0
    while True:
        for _ in range(workload.period):
            op = workload.make_op(seed, index, out)
            for tracer in tracers:
                result = workloads.run_op(workload, op, out, clock, tracer)
                if scaler is not None:
                    result.wall_seconds = result.seconds
                    result.seconds = scaler.scale(result.seconds)
                results.append(result)
            index += 1
        elapsed = clock() - begin
        periods = index // workload.period
        if elapsed + 0.5 * elapsed / periods > seconds:
            return results


def summarize(results):
    """Raw report of op results.

    Each op kind keeps the median time of its ops: one op slowed by a
    burst of host load that the scaling missed moves it little, nor does
    the spread of cost between the inputs of one kind, while kinds that
    cost more stay apart.
    """
    kinds = {}
    for r in results:
        if r.ok:
            kinds.setdefault(r.kind, (r.units, []))[1].append(r.seconds)
    walls = [r.wall_seconds for r in results if r.ok and r.wall_seconds is not None]
    return {
        "kinds": [{"units": units, "ops": len(times),
                   "seconds": statistics.median(times)}
                  for _, (units, times) in sorted(kinds.items())],
        "wall_p50_s": statistics.median(walls) if walls else None,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "errors": [f"op {r.index}: {r.error}" for r in results if not r.ok][:5],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_package()
    workload = workloads.WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
    try:
        out = str(work / "out.json")
        workload.make_op(args.seed, 0, out)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        if not args.trace:
            report = summarize(run_phase(workload, args.seed, args.seconds, out,
                                         scaler=reference.Scaler()))
        else:
            # every op runs untraced and then traced, back to back, so the
            # overhead is a paired comparison that host load drifts spare
            tracer = Tracer()
            try:
                tracer.install(layers.TARGETS, PACKAGE)
                results = run_phase(workload, args.seed, args.seconds, out,
                                    tracers=(None, tracer))
            finally:
                tracer.uninstall()
            left = bound_wrappers(PACKAGE)
            if left:
                raise RuntimeError(f"wrappers still bound after tracing: {left}")
            plain, traced = results[0::2], results[1::2]
            report = summarize(results)
            report["layers"] = layers.layer_metrics(tracer, plain, traced)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    os.makedirs(ROOT / ".perfbench_work", exist_ok=True)
    sys.exit(main())
