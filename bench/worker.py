"""One workload in a fresh process: set up, run whole rounds, check, report.

Started by run.py, never by hand.  BENCH_SPAWN_T in the environment is the
monotonic clock reading at the moment run.py started this process, so the
set-up interval covers interpreter start, imports and input generation.
The last line of standard output is a JSON object for run.py, with the
set-up and round intervals on the monotonic clock.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = wl.inputs(args.seed, out)
    setup = (float(os.environ["BENCH_SPAWN_T"]), time.monotonic())
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    rounds, summaries = [], []
    while True:
        output = None  # drop the previous round's output before the next peaks
        t0 = time.monotonic()
        output = wl.run(inputs)
        rounds.append((t0, time.monotonic()))
        summaries.append(wl.summary(output))
        if rounds[-1][1] - rounds[0][0] >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics(len(rounds))
        metrics["trace.wall_s"] = (statistics.median(t1 - t0 for t0, t1 in rounds), "s")
        tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl")

    attempted, failed, problems = wl.check(inputs, output)
    if any(s != summaries[-1] for s in summaries):
        problems.append("rounds gave different outputs")
    shutil.rmtree(out, ignore_errors=True)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted * len(rounds),
        "failed": failed * len(rounds),
        "setup": setup,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
