#!/usr/bin/env python3
"""fracgelfand benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload lambda_star_grid --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
process (bench/worker.py) with one BLAS thread and FRAC_GELFAND_CACHE unset;
with --trace 0 two more processes only set up, so that setup_s is a median
of three.  Untraced times are scaled to the host's quiet speed by the probe
in bench/probe.py, which runs on a second CPU meanwhile.  Prints one line
per metric, then, as the last line, a JSON object with the keys correct,
attempted, failed and metrics.  Exits non-zero, without that line, if the
checkout has no fracgelfand sources or a worker fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("lambda_star_grid", "envelope_n20", "verify_n3")
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 150


def _env():
    env = dict(os.environ)
    env.pop("FRAC_GELFAND_CACHE", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class HostSpeed:
    """Samples of bench/probe.py, collected by a thread while it runs."""

    def __init__(self, cpu):
        self.samples = []
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py"), str(cpu)],
                                     env=_env(), stdout=subprocess.PIPE, text=True)
        self.proc.stdout.readline()  # the first sample: the probe is running
        self.thread = threading.Thread(target=self._read)
        self.thread.start()

    def _read(self):
        for line in self.proc.stdout:
            end, seconds = map(float, line.split())
            self.samples.append((end, seconds))

    def stop(self):
        self.proc.terminate()
        self.proc.wait()
        self.thread.join()

    def slowdown(self, t0, t1):
        """Median probe sample overlapping [t0, t1], relative to a quiet host."""
        inside = [s for end, s in self.samples if end >= t0 and end - s <= t1]
        return statistics.median(inside) / probe.REF_S


def _worker(args, extra):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    env = _env()
    env["BENCH_SPAWN_T"] = repr(time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"worker {' '.join(extra)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _untraced(args):
    """Run the workload and the set-up probes beside the host-speed probe."""
    cpus = sorted(os.sched_getaffinity(0))
    host = HostSpeed(cpus[-1]) if len(cpus) > 1 else None
    try:
        if host is not None:
            os.sched_setaffinity(0, {cpus[0]})  # the workers inherit it
        res = _worker(args, ["--seconds", str(args.seconds), "--trace", "0"])
        setups = [res["setup"]] + [
            _worker(args, ["--setup-only"])["setup"] for _ in range(SETUP_PROBES)
        ]
    finally:
        if host is not None:
            host.stop()

    def scaled(t0, t1):
        return (t1 - t0) / (host.slowdown(t0, t1) if host is not None else 1.0)

    raw = statistics.median(t1 - t0 for t0, t1 in res["rounds"])
    print(f"  raw round time {raw:.6g} s")
    metrics = {
        "setup_s": {"value": statistics.median(scaled(*w) for w in setups), "unit": "s"},
        "wall_s": {"value": statistics.median(scaled(*w) for w in res["rounds"]),
                   "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    return res, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "fracgelfand" / "__init__.py").is_file():
        sys.exit(f"no fracgelfand sources under {ROOT / 'src'}")

    if args.trace:
        res = _worker(args, ["--seconds", str(args.seconds), "--trace", "1"])
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in res["metrics"].items()}
    else:
        res, metrics = _untraced(args)
    print(f"{args.workload} seed={args.seed} rounds={len(res['rounds'])} "
          f"attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
