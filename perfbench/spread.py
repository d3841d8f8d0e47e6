"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py --workload fleet-waves --runs 10

Runs ``run.py`` once per seed (``--first-seed``, +1, ...), one process at
a time, and prints for every end-to-end metric its median and the
distance between the first and third quartile of the values as a share
of the median, beside the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "0"]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=False)
        wall = time.perf_counter() - start
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode or not result["correct"]:
            print(done.stdout + done.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} ({wall:.0f} s): " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    ok = True
    for metric in spec["end_to_end"]:
        name = metric["name"]
        vals = values[name]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        if name == "setup_s":
            flag = "(exempt)"
        else:
            ok = ok and spread < metric["bound"] / 3
        print(f"{name:<18} median {median:<12.6g} spread {spread:.4f} "
              f"bound {metric['bound']} {flag}")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
