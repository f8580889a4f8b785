"""One round of one workload, in a fresh interpreter; prints one JSON line.

    python3 perfbench/round.py --workload NAME --seed N --workdir DIR
        [--trace-file PATH]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src`` and measures set-up from the spawn to ``first_op_at``, a
``time.monotonic`` reading (CLOCK_MONOTONIC, shared by all processes on
Linux).  Set-up is interpreter start, importing posetlex, generating the
inputs and writing the input files.  The timed phase runs every operation
of the round once, with a calibration reading (``calibration.py``) before
each and after the last; the output checks follow it.  With ``--trace-file``
the public functions are wrapped before the timed phase and the traced
round's per-layer metrics are added to the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
import traceback

import posetlex
import posetlex.cli

import calibration
import tracing
import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir, posetlex)
    tracer = None
    if args.trace_file:
        tracer = tracing.Tracer()
        tracer.install()

    outputs, latencies, cpu_times, readings, errors = [], [], [], [], []
    first_op_at = time.monotonic()
    for op in ops:
        readings.append(calibration.reading())
        start, cpu = time.perf_counter(), time.process_time()
        try:
            outputs.append(op.run())
        except Exception:  # a failed operation is counted, not fatal
            outputs.append(None)
            errors.append(f"{op.name}: {traceback.format_exc(limit=-1).strip()}")
        latencies.append(time.perf_counter() - start)
        cpu_times.append(time.process_time() - cpu)
    readings.append(calibration.reading())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    for op, out in zip(ops, outputs):
        if out is not None:
            problems += [f"{op.name}: {p}" for p in op.check(out)]
    result = {
        "first_op_at": first_op_at,
        "items": sum(op.items for op, out in zip(ops, outputs) if out is not None),
        "latencies_s": latencies,
        "cpu_times_s": cpu_times,
        "calibration_s": readings,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.dump(args.trace_file)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
