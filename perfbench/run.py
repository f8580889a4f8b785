"""posetlex benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload {sweep,analytics,lexsum} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  Each round of the workload runs in a
fresh single-threaded interpreter (``round.py``), one after another, for
about ``--seconds`` seconds and at least three rounds.  Every round of a
run does the same operations on the same seeded inputs.  Every time is
scaled to a reference machine speed (``calibration.py``), and an
operation's latency is the median of its scaled times over the rounds.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one traced round runs instead
and the object holds the per-layer metrics.  Exit code 0 means every
round ran; a missing source tree or a crashed round exits non-zero
without a result.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOADS = ("sweep", "analytics", "lexsum")

MIN_ROUNDS = 3
#: A run starts no round that could end after this many seconds.
DEADLINE_S = 160
#: op_tail_ms is the latency with exactly this many operations above it.
TAIL_BEYOND = 10
#: Fewer operations per round than this give no tail; op_tail_ms = op_p50_ms.
TAIL_MIN_OPS = 40


def child_env():
    """Environment of every child: the checkout's source, fixed hashing,
    and byte code cached under the benchmark's work directory."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def compile_sources():
    """Byte-compile posetlex and the benchmark once, before any round.

    Rounds then import from cached byte code, as an installed package
    does, and set-up time does not depend on which round ran first.
    """
    subprocess.run(
        [sys.executable, "-S", "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        env=child_env(), check=True, capture_output=True, timeout=120,
    )


def run_round(args, timeout, trace_file=None):
    """Run one round in a fresh interpreter and return its parsed result."""
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    command = [
        sys.executable,
        "-S",  # posetlex needs no site-packages; skip their start-up hooks
        str(HERE / "round.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--workdir", workdir,
    ]
    if trace_file:
        command += ["--trace-file", str(trace_file)]
    try:
        before = calibration.reading()
        spawned_at = time.monotonic()
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"round exited with code {done.returncode}")
    result = json.loads(done.stdout.splitlines()[-1])
    # From the start of the workload process to its first timed operation.
    result["setup_s"] = result["first_op_at"] - spawned_at
    result["setup_scale"] = calibration.scale(before, result["calibration_s"][0])
    return result


def scaled_ops(result, key):
    """A round's per-operation times, each scaled by the calibration
    readings taken just before and just after it."""
    readings = result["calibration_s"]
    return [
        t * calibration.scale(readings[k], readings[k + 1])
        for k, t in enumerate(result[key])
    ]


def quality(rounds):
    problems = [p for r in rounds for p in r["problems"]]
    errors = [e for r in rounds for e in r["errors"]]
    for line in problems + errors:
        print(f"# {line}")
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }


def end_to_end(args):
    started = time.monotonic()
    rounds, longest = [], 0.0
    while True:
        elapsed = time.monotonic() - started
        if len(rounds) >= MIN_ROUNDS and elapsed + longest > args.seconds:
            break
        if rounds and elapsed + 2 * longest > DEADLINE_S:
            break
        rounds.append(run_round(args, timeout=max(DEADLINE_S - elapsed, 10)))
        longest = max(longest, time.monotonic() - started - elapsed)
    # An operation's latency and CPU time are medians over the rounds.
    latencies = [scaled_ops(r, "latencies_s") for r in rounds]
    cpu_times = [scaled_ops(r, "cpu_times_s") for r in rounds]
    per_op = [statistics.median(column) for column in zip(*latencies)]
    per_op_cpu = [statistics.median(column) for column in zip(*cpu_times)]
    ops = len(per_op)
    ranked = sorted(per_op)
    p50 = statistics.median(ranked)
    tail = ranked[ops - 1 - TAIL_BEYOND] if ops >= TAIL_MIN_OPS else p50
    wall = sum(per_op)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] * r["setup_scale"] for r in rounds), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(per_op_cpu), "s"),
        "items_per_s": (rounds[0]["items"] / wall, "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    tail_note = (
        f"op_tail_ms is p{100 * (ops - TAIL_BEYOND) / ops:.1f}"
        if ops >= TAIL_MIN_OPS
        else "too few for a tail, op_tail_ms repeats op_p50_ms"
    )
    print(f"# {args.workload} seed {args.seed}: {len(rounds)} rounds of {ops} operations; {tail_note}")
    unscaled = statistics.median(sum(r["latencies_s"]) for r in rounds)
    reading = statistics.median(c for r in rounds for c in r["calibration_s"])
    print(
        f"# unscaled: operations {unscaled:.3f} s per round, calibration reading "
        f"{1e3 * reading:.3f} ms against {1e3 * calibration.REFERENCE_S:.3f} ms (medians)"
    )
    return quality(rounds), metrics


def traced(args):
    trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
    result = run_round(args, timeout=DEADLINE_S, trace_file=trace_file)
    metrics = {name: tuple(pair) for name, pair in result["layers"].items()}
    metrics["traced_wall_s"] = (sum(scaled_ops(result, "latencies_s")), "s")
    print(f"# spans written to {trace_file.relative_to(ROOT)}")
    return quality([result]), metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "posetlex" / "__init__.py").is_file():
        raise SystemExit(f"no posetlex source tree under {ROOT / 'src'}")
    WORK.mkdir(exist_ok=True)
    compile_sources()
    summary, metrics = traced(args) if args.trace else end_to_end(args)
    summary["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
