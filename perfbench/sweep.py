"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1 2 3 --seconds 25 [--trace 1]

Each run is ``run.py`` in a fresh process, one after another.  For every
workload and metric it prints the median, the quartiles (``statistics.quantiles``
with n=4) and the quartile spread as a share of the median, and each seed's
output digest, then the same table as one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    table: dict = {}
    ok = True
    for workload in run.WORKLOADS:
        lines, digests = [], {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True,
                text=True,
            )
            print(proc.stdout, end="")
            if proc.returncode != 0:
                print(proc.stderr, end="", file=sys.stderr)
                return proc.returncode
            lines.append(json.loads(proc.stdout.splitlines()[-1]))
            digest = next(line.split()[2] for line in proc.stdout.splitlines() if line.startswith("  output digest "))
            digests[seed] = digest.rstrip(",")
        ok = ok and all(line["correct"] for line in lines)
        table[workload] = {
            "metrics": {
                name: dict(summary([line["metrics"][name]["value"] for line in lines]), unit=unit)
                for name, unit in ((n, m["unit"]) for n, m in lines[0]["metrics"].items())
            },
            "failed": sum(line["failed"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "digests": digests,
        }
    print(f"\n{'workload':<11} {'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for workload, w in table.items():
        for name, s in w["metrics"].items():
            print(f"{workload:<11} {name:<42} {s['median']:12.6f} {s['q1']:12.6f} {s['q3']:12.6f} {s['spread']:8.4f} {s['unit']}")
        print(f"{workload:<11} failed {w['failed']} of {w['attempted']} calls")
        for seed, digest in w["digests"].items():
            print(f"{workload:<11} seed {seed} output digest {digest}")
    print(json.dumps({"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace, "workloads": table}))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
