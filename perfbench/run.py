"""The residuap benchmark: one workload, one seed, one run.

Usage, from the repository root:

  python3 perfbench/run.py --workload scan|certify|filtrations|search \
      --seed N --seconds S --trace 0|1

BENCHMARK.json lists scan, certify and filtrations; search runs the same
way but is outside the set the benchmark's time budget allows.

The workload runs in its own single-threaded process (worker.py) as a closed
loop with one client.  Set-up is measured in three more processes that only
set up, and reported as the median of the four.  With --trace 0 the
end-to-end metrics of BENCHMARK.json are printed; with --trace 1 the
per-layer metrics, from spans recorded around every public function of the
program.  Every answer is checked; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROCESSES = 3
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "PYTHONPYCACHEPREFIX": os.path.join(WORK, "pycache"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def run_child(args, mode: str, deadline: float) -> tuple[float, dict]:
    """Start worker.py, wait for it, return (spawn time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode]
    t_spawn = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - t_spawn))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker --mode {mode} exited {proc.returncode}")
    return t_spawn, json.loads(proc.stdout.strip().splitlines()[-1])


def nearest_rank(sorted_vals: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    k = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[k - 1], len(sorted_vals) - k


def harrell_davis(sorted_vals: list[float], q: float) -> float:
    """Harrell-Davis quantile: the mean of the order statistics weighted by
    the Beta((n+1)q, (n+1)(1-q)) distribution.  Unlike the nearest rank it
    does not jump from one sample to the next where the latencies have gaps,
    which op mixes of very different cost do."""
    n = len(sorted_vals)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    if a < 1 or b < 1:
        return nearest_rank(sorted_vals, q)[0]
    grid = np.linspace(0.0, 1.0, 20001)
    mid = (grid[1:] + grid[:-1]) / 2
    log_mass = (a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
    mass = np.exp(log_mass - log_mass.max())     # no underflow for large n
    cdf = np.concatenate([[0.0], np.cumsum(mass)])
    weights = np.diff(np.interp(np.linspace(0.0, 1.0, n + 1), grid,
                                cdf / cdf[-1]))
    return float(np.dot(weights, sorted_vals))


def end_to_end(setups: list[float], res: dict) -> tuple[dict, dict]:
    lat = sorted(x * 1000.0 for x in res["latencies"])
    rank50, _ = nearest_rank(lat, 0.5)
    rank90, beyond90 = nearest_rank(lat, 0.9)
    v = res["verdicts"]
    decisions = v["yes"] + v["no"] + v["unknown"]
    values = {
        "setup_s": statistics.median(setups),
        # the mean, not the median, over batches: the machine's speed
        # switches between a fast and a slow state every 10-20 s, and the
        # median of one run lands on either state, where the mean weighs
        # the time spent in each
        "wall_s": statistics.mean(res["walls"]),
        "op_p50_ms": harrell_davis(lat, 0.5),
        "op_p90_ms": harrell_davis(lat, 0.9),
        "peak_rss_mib": res["peak_rss_mib"],
        "decided_share": (v["yes"] + v["no"]) / decisions if decisions else 1.0,
    }
    samples = {
        "setup_s": f"{len(setups)} processes",
        "wall_s": f"mean of {len(res['walls'])} batches",
        "op_p50_ms": f"{len(lat)} ops; nearest rank {rank50:.4g}",
        "op_p90_ms": f"{len(lat)} ops, {beyond90} beyond; nearest rank "
                     f"{rank90:.4g}",
        "peak_rss_mib": "1 process",
        "decided_share": f"{decisions} decisions ({v['yes']} yes, "
                         f"{v['no']} no, {v['unknown']} unknown)",
    }
    return values, samples


def per_layer(name: str, unit: str, res: dict) -> float:
    """Counters cover batch 0; times are means per batch."""
    layers = res["layers"]
    counts, crossover = layers["counts"], layers["crossover"]
    if name in counts:
        return counts[name]
    if unit == "count":
        return 0
    if name in crossover:
        return crossover[name]
    if name == "trace.wall_s":
        return statistics.mean(res["walls"])
    if name.endswith(".busy_s"):
        return layers["busy_s"].get(name[:-len(".busy_s")], 0.0)
    if name.endswith(".self_s"):
        return layers["self_s"].get(name[:-len(".self_s")], 0.0)
    raise KeyError(f"no source for per-layer metric {name}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "residuap", "__init__.py")):
        print("error: no residuap source under src/ next to perfbench/",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        setups = []
        for _ in range(SETUP_PROCESSES):
            t_spawn, out = run_child(args, "setup", deadline)
            setups.append(out["ready"] - t_spawn)
        t_spawn, res = run_child(args, "run", deadline)
        setups.append(res["ready"] - t_spawn)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(WORK, "certify"), ignore_errors=True)

    for err in res["errors"]:
        sys.stderr.write(err + "\n")
    attempted, failed = res["attempted"], res["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"batches {len(res['walls'])}  fail_rate {failed / attempted:.4f} "
          f"({failed}/{attempted} ops)")
    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": per_layer(m["name"], m["unit"], res),
                                  "unit": m["unit"]}
            print(f"  {m['name']:44s} {metrics[m['name']]['value']:>14.6g} "
                  f"{m['unit']}")
    else:
        values, samples = end_to_end(setups, res)
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:16s} {values[m['name']]:>12.6g} "
                  f"{m['unit']:6s} [{samples[m['name']]}]")
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        print("error: a metric is not a finite number", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
