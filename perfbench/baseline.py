"""Measure the benchmark's baseline and write perfbench/baseline.json.

Run from the repository root:

  python3 perfbench/baseline.py [--seeds 10] [--workloads scan,certify]

For each workload: one untraced run per seed (1..N), then two pairs of
runs of seed 1, untraced then traced.  It records, per end-to-end metric,
the median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, with the sample counts the runs print.  It records the
per-layer values of the first traced run, checks that every exact counter
is identical in both traced runs, and records the tracing overhead (traced
minus untraced wall_s, mean over the pairs) and the machine.  Runs go one
after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)\s+\[(.*)\]$")


def run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    samples = {m.group(1): m.group(4) for m in map(LINE.match, lines) if m}
    return json.loads(lines[-1]), samples


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in ("count", "ratio")]
    secs = spec["run_seconds"]
    out = {"machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                       "python": platform.python_version(),
                       "numpy": np.__version__, "run_seconds": secs},
           "exact_counters": exact, "workloads": {}}
    for w in names:
        values: dict[str, list] = {}
        samples = {}
        attempted = failed = 0
        for seed in range(1, args.seeds + 1):
            res, samp = run(w, seed, secs, 0)
            attempted += res["attempted"]
            failed += res["failed"]
            samples = samp
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(w, seed, {k: round(v["value"], 4)
                            for k, v in res["metrics"].items()}, flush=True)
        e2e = {}
        for k, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            e2e[k] = {"median": med, "q1": q1, "q3": q3,
                      "spread": (q3 - q1) / med, "bound": bounds[k],
                      "runs": len(vals), "samples_per_run": samples.get(k),
                      "values": vals}
            print(f"  {k:14s} median {med:12.5g} spread {(q3 - q1) / med:.4f}"
                  f" (bound {bounds[k]})", flush=True)
        # tracing overhead from back-to-back pairs (untraced, traced) of
        # seed 1, so that a drift of machine speed between the ten seeds and
        # the traced runs does not enter the difference
        traced, paired = [], []
        for _ in range(2):
            paired.append(run(w, 1, secs, 0)[0]["metrics"]["wall_s"]["value"])
            traced.append(run(w, 1, secs, 1)[0])
        mismatched = [k for k in exact if traced[0]["metrics"][k]["value"] !=
                      traced[1]["metrics"][k]["value"]]
        layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        out["workloads"][w] = {
            "end_to_end": e2e,
            "fail_rate": failed / attempted, "attempted": attempted,
            "per_layer_seed1": layers,
            "exact_counters_repeat": not mismatched,
            "exact_counters_mismatched": mismatched,
            "tracing_overhead_s": statistics.mean(
                t["metrics"]["trace.wall_s"]["value"] - u
                for t, u in zip(traced, paired)),
            "untraced_wall_s_paired": paired,
        }
        print(f"  fail_rate {failed / attempted}  exact counters repeat: "
              f"{not mismatched} {mismatched}", flush=True)
    path = os.path.join(HERE, "baseline.json")
    if os.path.exists(path) and args.workloads:
        with open(path) as fh:
            old = json.load(fh)
        old["workloads"].update(out["workloads"])
        old["machine"] = out["machine"]
        out = old
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
