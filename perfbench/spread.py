"""Run one workload under several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload remote_mixed --seeds 1-10 [--trace 0]

The spread of a metric is the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a
share of their median; it is printed beside the metric's bound from
``BENCHMARK.json``.  Runs are sequential, so they never compete for
the processor.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            spec["command"]
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
        )
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        if len(values) < 2 or not median:
            print(f"{name:<40} median {median:.6g}")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        bound = bounds.get(name)
        print(f"{name:<40} median {median:12.6g}  spread {(q3 - q1) / median:7.3f}"
              + (f"  bound {bound}" if bound is not None else "")
              + "  [" + " ".join(f"{v:.4g}" for v in values) + "]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
