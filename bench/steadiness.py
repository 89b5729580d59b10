"""Do two sets of benchmark runs of one commit agree?

    python3 bench/steadiness.py [--runs 10]

Runs the benchmark command of BENCHMARK.json, with its run_seconds, `--runs`
times on every workload in each of two sets, every run with its own seed
(set 1 uses seeds FIRST_SEED .., set 2 the next `--runs` seeds), workloads
interleaved so slow drift of the host reaches all of them alike. For every workload and end-to-end metric it
prints each set's median and quartiles, the spread (quartile distance over
the median, as ``statistics.quantiles(values, n=4)`` gives the quartiles),
whether that spread is within the metric's bound, and whether the second
median is within the bound of the first in either direction;
also whether the share of failed operations is the same in both sets. The
full report goes to bench/.work/steadiness.json. Exit status 1 if any
check does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIRST_SEED = 101


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]

    results = {w: [[], []] for w in names}
    for s in range(2):
        for i in range(args.runs):
            seed = FIRST_SEED + s * args.runs + i
            for w in names:
                t0 = time.perf_counter()
                out = run_once(spec["command"], w, seed, spec["run_seconds"])
                results[w][s].append(out)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in out["metrics"].items())
                print(f"set {s + 1} {w} seed {seed} ({time.perf_counter() - t0:.0f} s): "
                      f"correct={out['correct']} {out['failed']}/{out['attempted']} {vals}",
                      flush=True)

    ok = True
    report = {}
    for w in names:
        sets = results[w]
        shares = [{Fraction(r["failed"], r["attempted"]) for r in runs} for runs in sets]
        same_share = len(shares[0] | shares[1]) == 1
        correct = all(r["correct"] for runs in sets for r in runs)
        ok &= same_share and correct
        print(f"\n{w}: all correct {correct}; failed share "
              f"{[str(x) for x in sorted(shares[0] | shares[1])]} "
              f"{'same' if same_share else 'DIFFERS'} in both sets")
        print(f"  {'metric':12s} {'bound':>6s} {'median 1':>11s} {'q1..q3':>23s} {'spread 1':>8s}"
              f" {'median 2':>11s} {'spread 2':>8s} {'2 vs 1':>7s}")
        report[w] = {"correct": correct, "same_failed_share": same_share, "metrics": {}}
        for m in spec["end_to_end"]:
            a, b = (summarise([r["metrics"][m["name"]]["value"] for r in runs]) for runs in sets)
            change = (b["median"] - a["median"]) / a["median"]
            spread_ok = m["name"] == "setup_s" or max(a["spread"], b["spread"]) <= m["bound"]
            agree = abs(change) <= m["bound"]
            ok &= spread_ok and agree
            report[w]["metrics"][m["name"]] = {"set1": a, "set2": b, "change": change,
                                               "spread_ok": spread_ok, "medians_agree": agree}
            print(f"  {m['name']:12s} {m['bound']:6.2f} {a['median']:11.4g} "
                  f"{a['q1']:11.4g}..{a['q3']:<11.4g} {a['spread']:8.3f} {b['median']:11.4g} "
                  f"{b['spread']:8.3f} {change:+7.3f}"
                  f"{'' if spread_ok else '  SPREAD'}{'' if agree else '  DISAGREE'}")
    (BENCH / ".work").mkdir(exist_ok=True)
    with open(BENCH / ".work" / "steadiness.json", "w") as fh:
        json.dump({"args": vars(args), "report": report, "runs": results}, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
