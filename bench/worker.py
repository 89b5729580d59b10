"""The process that runs the program: one caller, a closed loop of CLI calls.

    python3 bench/worker.py --import-only
    python3 bench/worker.py --plan PLAN.json --seconds S --trace 0|1 --result OUT.json

It imports clm_sim (timing the import), then repeats whole rounds of the
plan's ``clm_sim.cli.main`` calls for S seconds (at least one round), each call
with its standard output and error captured. With --trace 1 it alternates
untraced and traced rounds and keeps the layer metrics of each traced one.
Peak resident memory is read right after the loop, before anything else is
loaded. The parent (run.py) checks the outputs; this process does not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def peak_rss_kb() -> float:
    """This process's peak resident set, in KiB.

    VmHWM belongs to the address space made at exec, whereas Linux carries
    ru_maxrss over from the parent across fork and exec, so it would report
    the larger of the benchmark's own footprint and the program's.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def run_round(cli, calls: list[dict]) -> list[dict]:
    """Run each call once; report exit status and failed lanes, keep the output."""
    out = []
    for call in calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                status = cli.main(call["argv"])
                error = None
            except Exception as exc:  # the CLI let an error escape: count it failed
                status = 1
                error = f"{type(exc).__name__}: {exc}"
        err_text = stderr.getvalue()
        if status == 0:
            failed = 0
        elif error is None and call["lanes"] > 1:
            failed = sum(line.startswith("error:") for line in err_text.splitlines())
        else:
            failed = call["lanes"]
        out.append({"status": status, "failed": failed, "error": error,
                    "stdout": stdout.getvalue(), "stderr": err_text})
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--plan")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--result")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import clm_sim.cli as cli
    import_s = time.perf_counter() - t0
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    with open(args.plan) as fh:
        calls = json.load(fh)["calls"]
    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Tracer
        tracer = Tracer()

    walls, traced_walls, layers = [], [], []
    attempted = failed = 0
    last = None
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            last = run_round(cli, calls)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(wall)
            layers.append(tracer.metrics())
        else:
            walls.append(wall)
        attempted += sum(c["lanes"] for c in calls)
        failed += sum(r["failed"] for r in last)
        # Stop before a round that would end past the deadline.
        done = time.perf_counter() + wall > deadline
        if done and (tracer is None or traced_walls):
            break
    peak_rss_mb = peak_rss_kb() / 1024.0

    with open(args.result, "w") as fh:
        json.dump({"import_s": import_s, "walls": walls, "traced_walls": traced_walls,
                   "layers": layers, "attempted": attempted, "failed": failed,
                   "peak_rss_mb": peak_rss_mb, "last_round": last}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
