"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED MODE

MODE is `setup` (build the inputs, then stop), `run` (also run the timed
section) or `trace` (run it with span tracing on).  boxchrom is imported from
the `src` directory next to this one, never from an installed copy.  The first
stdout line reports the monotonic clock when set-up ended.  The last is one
JSON object: with `setup` the times of SETUP_GAUGES passes of the host-speed
gauge (bench/gauge.py) run right after set-up, otherwise the repetition's
result, which has gauge times of its own.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SETUP_GAUGES = 2


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    if not (SRC / "boxchrom" / "__init__.py").is_file():
        print(f"error: no boxchrom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    make_inputs, make_ops = workloads.WORKLOADS[workload]
    inputs = make_inputs(seed)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    from gauge import gauge  # after `ready`: set-up never pays for the gauge's inputs
    if mode == "setup":
        print(json.dumps({"gauges_ms": [gauge() * 1e3 for _ in range(SETUP_GAUGES)]}), flush=True)
        return 0
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install(workloads)
    try:
        result = workloads.run_ops(make_ops(inputs), gauge)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
