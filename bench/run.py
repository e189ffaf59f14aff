"""Benchmark of boxchrom: one workload, one seed, checked outputs, named metrics.

    python3 bench/run.py --workload {sweep,exact,certify} --seed N --seconds S --trace {0,1}

Every repetition runs in a fresh interpreter (bench/worker.py), so each one
pays the cold spectrum and graph-generation caches that a CLI invocation pays.
Repetitions run one at a time, with numpy's BLAS held to one thread, and
repeat until the next one would end after S seconds; at least one always
runs.  With --trace 0 the run reports the end-to-end metrics, scaled to a
host of fixed speed.  The hosts are shared, and their speed halves for
seconds or minutes at a time.  So between operations every worker times a
fixed reference computation (bench/gauge.py), and each operation's time is
multiplied by gauge.NOMINAL_S over the mean of the two gauges around it
(an operation made of parts is gauged between its parts as well).
Each operation then counts with its median over the repetitions.  The
unscaled medians are printed above the result line.  With --trace 1 the run
reports the per-layer metrics of traced repetitions, their times scaled by
each repetition's median gauge.  The last stdout line is one JSON object;
the exit code is non-zero when any operation failed or any check did not
hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import NOMINAL_S
from spans import unit

NOMINAL_MS = NOMINAL_S * 1e3
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOAD_NAMES = ("sweep", "exact", "certify")
SETUP_SAMPLES = 8  # half before the repetitions, half after
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# One process at a time on a 2-core shared host: a BLAS thread pool would
# measure the scheduler.
WORKER_ENV = os.environ | {name: "1" for name in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END_UNITS = {"wall_s": "s", "op_ms_p50": "ms", "op_ms_p95": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    """A repetition crashed or overran: the run cannot produce a result."""


def spawn(workload: str, seed: int, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns its set-up seconds and its last JSON line."""
    start = time.monotonic()
    optimize = ["-O"] * sys.flags.optimize  # `python3 -O bench/run.py` runs -O workers
    proc = subprocess.Popen([sys.executable, *optimize, str(WORKER), workload, str(seed), mode],
                            stdout=subprocess.PIPE, text=True, env=WORKER_ENV)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} repetition of {workload} overran the run limit") from None
    finally:
        if proc.poll() is None:  # overran or interrupted: end the worker before leaving
            proc.kill()
            proc.communicate()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} repetition of {workload} exited with {proc.returncode}")
    setup = json.loads(lines[0])["ready"] - start
    return setup, json.loads(lines[-1])


def repeat(workload: str, seed: int, modes: tuple[str, ...], seconds: float,
           deadline: float) -> list[dict]:
    """Repetitions cycling through `modes` until the next one would end after
    `seconds`; every mode runs at least once."""
    start = time.monotonic()
    reps: list[dict] = []
    last = 0.0
    while len(reps) < len(modes) or (time.monotonic() - start + last <= seconds
                                      and time.monotonic() + last < deadline):
        mode = modes[len(reps) % len(modes)]
        t0 = time.monotonic()
        reps.append(spawn(workload, seed, mode, deadline)[1] | {"mode": mode})
        last = time.monotonic() - t0
    return reps


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def scaled_wall(reps: list[dict]) -> tuple[list[float], float]:
    """Each operation's scaled time, as its median over `reps`; and the wall
    time these sum to with the scaled time between operations."""
    op_ms = [statistics.median(times) * NOMINAL_MS for times in zip(*(r["op_gauges"] for r in reps))]
    between_s = statistics.median(r["between_gauges"] for r in reps) * NOMINAL_S
    return op_ms, sum(op_ms) / 1e3 + between_s


def scaled_layer(rep: dict, name: str) -> float:
    """A per-layer metric of a traced repetition; times and rates are scaled
    by the repetition's median gauge."""
    value = rep["layers"][name]
    speed = statistics.median(rep["gauges_ms"]) / NOMINAL_MS
    return {"s": value / speed, "1/s": value * speed}.get(unit(name), value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        if args.trace:
            # untraced repetitions interleave with traced ones to measure the overhead
            reps = repeat(args.workload, args.seed, ("trace", "run"), args.seconds, deadline)
        else:
            setups = [spawn(args.workload, args.seed, "setup", deadline)
                      for _ in range(SETUP_SAMPLES // 2)]
            reps = repeat(args.workload, args.seed, ("run",), args.seconds, deadline)
            setups += [spawn(args.workload, args.seed, "setup", deadline)
                       for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.trace:
        traced = [r for r in reps if r["mode"] == "trace"]
        untraced = [r for r in reps if r["mode"] == "run"]
        metrics = {name: {"value": statistics.median(scaled_layer(r, name) for r in traced),
                          "unit": unit(name)}
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = {
            "value": scaled_wall(traced)[1] - scaled_wall(untraced)[1], "unit": "s"}
    else:
        op_ms, wall_s = scaled_wall(reps)
        values = {
            "wall_s": wall_s,
            "op_ms_p50": percentile(op_ms, 0.50),
            "op_ms_p95": percentile(op_ms, 0.95),
            "setup_s": statistics.median(setup * NOMINAL_MS / statistics.mean(out["gauges_ms"])
                                         for setup, out in setups),
        }
        gauges = [g for out in [out for _, out in setups] + reps for g in out["gauges_ms"]]
        print(f"gauge median {statistics.median(gauges):.4g} ms, nominal {NOMINAL_MS:.4g} ms; "
              f"unscaled median wall_s = {statistics.median(r['wall_s'] for r in reps):.6g}, "
              f"setup_s = {statistics.median(setup for setup, _ in setups):.6g}")
        values["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in reps)
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    digests = {r["digest"] for r in reps}
    for r in reps:
        for label, message in r["failures"][:20]:
            print(f"FAILED {label}: {message}")
    if len(digests) > 1:
        print("FAILED: repetitions of the same inputs computed different values")
    correct = failed == 0 and len(digests) == 1

    ops = len(reps[-1]["latencies_ms"])
    print(f"{args.workload} seed={args.seed}: {len(reps)} repetitions of {ops} operations, "
          f"{failed} of {attempted} attempted operations failed")
    print(f"digest {args.workload} seed={args.seed} sha256={reps[-1]['digest']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
