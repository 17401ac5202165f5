"""One workload in one single-threaded process (started by run.py).

  --mode setup   import, build the seeded inputs of batch 0, print the time
                 the first op would start, and exit;
  --mode run     the same set-up, then a closed loop with one client: whole
                 batches, each op starting when the previous one has ended,
                 for about --seconds; every answer is checked.  A batch
                 starts only if, at the length of the last one, it would end
                 less than half a batch past --seconds, so a run overshoots
                 by at most half a batch.

The last line of stdout is one JSON object for run.py.  Times are
time.perf_counter() readings (CLOCK_MONOTONIC, shared by parent and child).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def crossover() -> dict:
    """Time closure and validate_table through each backend at one table
    order per bucket (the cyclic group; closure of <1, n-1>).  The
    le4096 bucket is timed at order 1024, which keeps the pure-Python table
    near 40 MiB."""
    import numpy as np
    from residuap.kernels import npbackend, pybackend
    from spans import BUCKETS
    out = {}
    for b, n in zip(BUCKETS, (16, 64, 256, 1024)):
        idx = np.arange(n)
        t = (idx[:, None] + idx[None, :]) % n
        tl = t.tolist()
        inv_np = npbackend.inverse_table(t)
        inv_py = pybackend.inverse_table(tl)
        gens = [1, n - 1]
        calls = (("closure", "np", lambda: npbackend.closure(t, inv_np, gens)),
                 ("closure", "py", lambda: pybackend.closure(tl, inv_py, gens)),
                 ("validate_table", "np", lambda: npbackend.validate_table(t)),
                 ("validate_table", "py", lambda: pybackend.validate_table(tl)))
        for kernel, side, fn in calls:
            # the median of up to 25 calls, within about 0.2 s per kernel
            times = []
            while len(times) < 25 and sum(times) < 0.2:
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            times.sort()
            out[f"kernels.{kernel}.{side}_us.le{b}"] = times[len(times) // 2] * 1e6
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--mode", choices=["setup", "run"], required=True)
    args = ap.parse_args()

    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload](args.seed)
    ops = wl.prepare(0)
    ready = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    latencies: list[float] = []
    walls: list[float] = []
    verdicts = {"yes": 0, "no": 0, "unknown": 0}
    attempted = failed = 0
    errors: list[str] = []
    counts = None
    b = 0
    start = last = time.perf_counter()
    while True:
        busy = 0.0
        for op in ops:
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception:
                dt = time.perf_counter() - t0
                failed += 1
                errors.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
            else:
                dt = time.perf_counter() - t0
                try:
                    verdict = op.check(result)
                except Exception:
                    failed += 1
                    errors.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
                else:
                    if verdict is not None:
                        verdicts[verdict] += 1
            latencies.append(dt)
            busy += dt
        walls.append(busy)
        if tracer is not None and b == 0:
            # the exact counters cover batch 0 only, whatever the run length
            tracer.counting = False
            counts = tracer.snapshot()
        now = time.perf_counter()
        if now - start + 0.5 * (now - last) >= args.seconds:
            break
        last = now
        b += 1
        if tracer is not None:
            tracer.paused = True
        ops = wl.prepare(b)
        if tracer is not None:
            tracer.paused = False
    result = {"ready": ready, "latencies": latencies, "walls": walls,
              "verdicts": verdicts, "attempted": attempted, "failed": failed,
              "errors": errors[:5],
              "peak_rss_mib": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        nb = len(walls)
        result["layers"] = {
            "counts": counts,
            "busy_s": {k: v / nb for k, v in tracer.busy.items()},
            "self_s": {k: v / nb for k, v in tracer.self_time.items()},
            "crossover": crossover(),
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
