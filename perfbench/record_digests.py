"""Record every workload's per-call output digests in ``baseline.json``.

    python3 perfbench/record_digests.py --seeds 0 1 2 3

For each workload and seed it runs one round (``run.measure`` with no time
budget) and stores the first ``run.DIGEST_CHARS`` hex digits of each call's
output digest, space-separated, under ``digests.<workload>.<seed>``.
``run.py`` then fails every call whose output differs from its record, so a
library change that alters a workload's instances cannot pass unnoticed.
A seed's old record is dropped before it is measured again; a run whose
reports fail their checks is not recorded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import run


def _save(baseline: dict) -> None:
    # One line per list of numbers, as the rest of the file is written.
    text = re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", json.dumps(baseline, indent=1))
    with open(run.BASELINE, "w") as handle:
        handle.write(text + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(run.BASELINE) as handle:
        baseline = json.load(handle)
    digests = baseline.setdefault("digests", {})
    for workload in run.WORKLOADS:
        for seed in args.seeds:
            digests.setdefault(workload, {}).pop(str(seed), None)
    _save(baseline)
    for workload in run.WORKLOADS:
        for seed in args.seeds:
            r = run.measure(workload, seed, 0, False)
            if r["failed"]:
                print("\n".join(r["failures"]), file=sys.stderr)
                return 1
            digests[workload][str(seed)] = " ".join(r["call_digests"])
            _save(baseline)
            print(f"{workload} seed {seed}: {len(r['call_digests'])} calls recorded", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
