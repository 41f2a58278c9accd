"""Benchmark of the gammacomplex CLI, one workload per run.

    python3 perfbench/run.py --workload long-seq --seed 1 --seconds 25 --trace 0

Run it from the repository root.  It builds the workload's inputs from the
seed (``inputs.py``), then starts fresh worker processes (``worker.py``) that
import ``gammacomplex`` from ``src/``.  The first few only time their set-up
and quit; the last runs the workload as a closed loop with one client: each
round calls ``gammacomplex.cli.main(argv)`` for the workload's argument lists
in order, the next call starting when the previous one returns, and rounds
repeat while another one fits in ``--seconds``.  Every call's report is
checked against the workload's oracles, and its bytes against the first
round and against the digest recorded for this seed in ``baseline.json``
(``record_digests.py`` writes them).  ``--trace 1`` runs as many rounds again
in another fresh worker whose public functions record spans
(``tracing.py``) and prints the per-layer metrics, taken from its first
round, instead of the end-to-end ones.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end times are in reference seconds (``reference.py``): each round is
scaled by the speed of a fixed kernel timed just before and after it, and
set-up by the kernel timed around the worker starts, so that the host's
drift does not read as a change in the program.  Raw times are printed too.
Per-layer self times are raw.

No threads or process pools: the workers run one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

import inputs
import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

SETUP_STARTS = 15  # workers started per run; setup_s is the median of their set-up times
DEADLINE_S = 170.0  # a run gives up (exit 1, no result) after this long
BASELINE = os.path.join(HERE, "baseline.json")  # holds the recorded output digests
DIGEST_CHARS = 12  # hex digits of each call's output digest that are recorded

# Workload sizes, fixed so that every run and the baseline measure the same work.
LONG_SEQ_K = 200
WIDE_D_INSTANCES, WIDE_D_K = 12, 16
DEEP_SWEEP_INSTANCES = 40
NESTO_RANDOMS, NESTO_ADDITIONS = 8, 40

DEEP_SUITES = (
    "increment_identity",
    "k_recursion",
    "w_recursion",
    "link_recursion",
    "phi_image",
    "gamma_restriction",
    "oracle_equivalence",
)


def _write_json(name: str, obj) -> str:
    path = os.path.join(OUT, name)
    with open(path, "w") as handle:
        json.dump(obj, handle)
    return path


def _verify(d: int, k: int, seed: int, deep: bool = False) -> dict:
    argv = ["verify", "--random", str(d), str(k), str(seed), "1"]
    return {
        "argv": argv + ["--deep"] if deep else argv,
        "expect": {"kind": "verify", "d": d, "k": k, "deep": deep},
    }


# Each workload maps the seeded generator to the invocations of one round and
# the input files the worker loads.  Why each exists is recorded in BENCHMARK.json.


def long_seq(rng: random.Random) -> tuple[list, list]:
    """Long history, few cliques.

    Isolates ``subdivision.extend``, ``complexes.subdivide_edge`` and
    ``FlagComplex.edges``, which re-sorts the whole edge list twice per step
    on the ``random_sequence`` path and once per step on the file replay.
    The sequence file comes from the edge-adjacency simulation, so set-up
    does no library work.
    """
    d, k = 5, LONG_SEQ_K
    steps, adj = inputs.random_subdivision_steps(d, k, rng)
    path = _write_json("long-seq.sequence.json", {"d": d, "steps": [{"edge": list(e)} for e in steps]})
    invocations = [_verify(d, k, rng.randrange(1, 10**6)) for _ in range(2)]
    invocations.append(
        {"argv": ["gamma", path], "expect": {"kind": "gamma", "d": d, "k": k, "f": inputs.clique_counts(adj)}}
    )
    return invocations, [path]


def wide_d(rng: random.Random) -> tuple[list, list]:
    """Short history, large d.

    Clique counting in ``polynomials.f_poly`` and
    ``FlagComplex.clique_count_by_size`` dominates; ``extend`` costs little.
    The clique count of one final complex varies by about 11% (one standard
    deviation) from seed to seed, so a round averages twelve of them.
    """
    return [_verify(10, WIDE_D_K, rng.randrange(1, 10**6)) for _ in range(WIDE_D_INSTANCES)], []


def deep_sweep(rng: random.Random, instances: int = DEEP_SWEEP_INSTANCES) -> tuple[list, list]:
    """Many tiny instances through all seven ``--deep`` suites, consecutive seeds.

    The ``checks`` suites, ``induced_sequence``, ``faces()`` and the
    ``FaceComplex`` oracle do most of the work.  It reads ``complexes[j]`` and
    ``k_tables[j]`` at every step and makes thousands of tiny ``gamma_of``
    calls, so a change that wins ``long-seq`` or ``wide-d`` by making history
    lazy, or by adding per-call memo set-up, shows any loss here.
    ``instances`` is lowered only by the benchmark's own test.
    """
    base = rng.randrange(1, 10**6)
    return [_verify(4, 6, base + i, deep=True) for i in range(instances)], []


def nesto(rng: random.Random) -> tuple[list, list]:
    """The only workload that runs ``nestohedra``.

    The power set (n=7) loads ``ordering_to_sequence`` and the U/V sets; the
    intervals (n=9) load ``nested_set_faces``, the ``FaceComplex`` build and
    ``is_flag``.  Random flag building sets (n=7) get a fixed number of
    additions so that their size, and so the round's work, varies little
    with the seed.  Both closed forms are independent of the bridge.
    """
    sets = [
        ("power7", 7, inputs.power_set(7), inputs.permutohedron_gamma(7)),
        ("interval9", 9, inputs.intervals(9), inputs.associahedron_gamma(9)),
    ]
    for i in range(NESTO_RANDOMS):
        sets.append((f"random{i}", 7, inputs.random_flag_building_set(7, NESTO_ADDITIONS, rng), None))
    invocations, paths = [], []
    for name, n, elements, gamma in sets:
        path = _write_json(f"nesto.{name}.json", {"n": n, "elements": elements})
        paths.append(path)
        expect = {"kind": "nesto", "n": n, "k": len(elements) - (2 * n - 1), "gamma": gamma}
        invocations.append({"argv": ["nestohedron", path], "expect": expect})
    return invocations, paths


WORKLOADS = {"long-seq": long_seq, "wide-d": wide_d, "deep-sweep": deep_sweep, "nesto": nesto}


def gate(expect: dict, code: int, out: str) -> str | None:
    """Why one call's report is wrong, or None when every check passes."""
    try:
        return _gate(expect, code, out)
    except (KeyError, IndexError, TypeError):
        return "report lacks a field the checks need"


def _gate(expect: dict, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    try:
        reports = [json.loads(line) for line in out.splitlines()]
    except ValueError:
        return "report is not JSON lines"
    if len(reports) != 1:
        return f"{len(reports)} report lines, expected 1"
    r = reports[0]
    false = sorted(key for key, value in r.items() if value is False)
    if false:
        return f"false in report: {', '.join(false)}"
    kind = expect["kind"]
    if kind == "verify":
        if (r.get("d"), r.get("k")) != (expect["d"], expect["k"]):
            return f"report is for d={r.get('d')} k={r.get('k')}"
        if expect["deep"] and any(r.get(s) is not True for s in DEEP_SUITES):
            return "a deep suite is missing from the report"
    elif kind == "gamma":
        if r.get("f") != expect["f"]:
            return f"f={r.get('f')}, the edge simulation counts {expect['f']}"
        if r.get("symmetric") is not True or r["gamma"][1] != expect["k"]:
            return f"gamma={r.get('gamma')} is not the gamma of a {expect['k']}-step sequence"
    elif kind == "nesto":
        if (r.get("n"), r.get("k")) != (expect["n"], expect["k"]) or r["f_gamma"][1] != expect["k"]:
            return f"report is for n={r.get('n')} k={r.get('k')}, expected k={expect['k']}"
        if expect["gamma"] is not None and r["gamma_theta"] != expect["gamma"]:
            return f"gamma={r['gamma_theta']}, the closed form gives {expect['gamma']}"
    return None


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process, timed from spawn until it reports ready."""

    def __init__(self, plan_path: str, trace: bool):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-I", os.path.join(HERE, "worker.py"), ROOT, plan_path, "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if line != "ready\n":
            self.finish("quit\n", 30)
            raise WorkerError("worker quit before it was ready")

    def finish(self, command: str, timeout: float) -> str:
        try:
            out, err = self.proc.communicate(command, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise WorkerError("worker ran past the deadline") from None
        if self.proc.returncode != 0:
            raise WorkerError(f"worker exited with {self.proc.returncode}:\n{err.strip()}")
        return out

    def run(self, seconds: float, max_rounds: int, deadline: float) -> dict:
        out = self.finish(f"run {seconds} {max_rounds}\n", max(1.0, deadline - time.perf_counter()))
        try:
            return json.loads(out)
        except ValueError:
            raise WorkerError("worker wrote no result") from None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def start_worker(plan_path: str, trace: bool, workers: list) -> Worker:
    worker = Worker(plan_path, trace)
    workers.append(worker)
    return worker


def round_scales(timed: dict) -> list[float]:
    """Reference seconds per second for each timed interval ("rounds"), from
    the kernel times ("refs") measured just before and just after it."""
    refs = timed["refs"]
    return [2 * reference.NOMINAL_S / (refs[i] + refs[i + 1]) for i in range(len(timed["rounds"]))]


def recorded_digests(workload: str, seed: int) -> list[str] | None:
    """The per-call output digests recorded for this workload and seed, if any."""
    with open(BASELINE) as handle:
        recorded = json.load(handle).get("digests", {}).get(workload, {}).get(str(seed))
    return recorded.split() if recorded is not None else None


def measure(workload: str, seed: int, seconds: float, trace: bool, instances: int | None = None) -> dict:
    """Run one workload; returns its metrics, call counts, digests and failures.

    ``instances`` shrinks ``deep-sweep``; the outputs of such a run are not
    compared with the recorded digests, which hold for the full size only.
    """
    deadline = time.perf_counter() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    build = WORKLOADS[workload]
    invocations, input_paths = build(random.Random(seed)) if instances is None else build(random.Random(seed), instances)
    recorded = recorded_digests(workload, seed) if instances is None else None
    plan_path = _write_json(
        f"{workload}.plan.json",
        {
            "invocations": invocations,
            "inputs": input_paths,
            "spans_path": os.path.join(OUT, f"{workload}.spans.csv"),
        },
    )
    workers: list[Worker] = []
    try:
        setup = {"rounds": [], "refs": [reference.kernel_time()]}
        for i in range(SETUP_STARTS):
            worker = start_worker(plan_path, False, workers)
            setup["rounds"].append(worker.setup_s)
            if i < SETUP_STARTS - 1:
                worker.finish("quit\n", 30)
            setup["refs"].append(reference.kernel_time())
        timed = worker.run(seconds, 10**6, deadline)
        traced = None
        if trace:
            # As many rounds as the untraced worker ran, so that the overhead
            # compares two medians of the same number of rounds.
            traced = start_worker(plan_path, True, workers).run(float("inf"), len(timed["rounds"]), deadline)
    finally:
        for worker in workers:
            worker.kill()

    failures = []
    first = {}
    for c, out in zip(timed["calls"], timed["outputs"]):
        problem = gate(invocations[c["index"]]["expect"], c["code"], out)
        if problem is None and recorded is not None:
            if len(recorded) != len(invocations) or c["digest"][:DIGEST_CHARS] != recorded[c["index"]]:
                problem = f"output differs from the one recorded in baseline.json for seed {seed}"
        first[c["index"]] = (c["digest"], problem)
    calls = timed["calls"] + (traced["calls"] if traced else [])
    for c in calls:
        digest, problem = first[c["index"]]
        if problem is None and c["code"] != 0:
            problem = f"exit code {c['code']}"
        if problem is None and c["digest"] != digest:
            problem = "output differs from the first round"
        if problem is not None:
            failures.append(f"call {c['index']} {invocations[c['index']]['argv']}: {problem} {c['stderr']}")

    scale = round_scales(timed)
    latencies = [c["seconds"] * scale[c["round"]] for c in timed["calls"]]
    wall_s = statistics.median(t * f for t, f in zip(timed["rounds"], scale))
    result = {
        "attempted": len(calls),
        "failed": len(failures),
        "failures": failures,
        "rounds": timed["rounds"],
        "raw": {
            "setup_s": statistics.median(setup["rounds"]),
            "wall_s": statistics.median(timed["rounds"]),
            "instance_p50_s": statistics.median(c["seconds"] for c in timed["calls"]),
        },
        "speed": statistics.median(scale),
        "calls": len(latencies),
        "call_digests": [first[i][0][:DIGEST_CHARS] for i in sorted(first)],
        "digest": hashlib.sha256("".join(first[i][0] for i in sorted(first)).encode()).hexdigest(),
        "recorded": recorded is not None,
        "end_to_end": {
            "setup_s": statistics.median(t * f for t, f in zip(setup["rounds"], round_scales(setup))),
            "wall_s": wall_s,
            "instance_p50_s": statistics.median(latencies),
            "peak_rss_mb": timed["ru_maxrss_kb"] / 1024,
        },
    }
    # The tail is reported only where at least ten samples lie beyond it.
    if len(latencies) >= 100:
        result["instance_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    if traced:
        traced_wall_s = statistics.median(t * f for t, f in zip(traced["rounds"], round_scales(traced)))
        result["per_layer"] = dict(traced["layers"], **{"trace.overhead_s": traced_wall_s - wall_s})
        result["spans"] = traced["spans"]
        result["traced_rounds"] = len(traced["rounds"])
    return result


UNITS = {"setup_s": "s", "wall_s": "s", "instance_p50_s": "s", "peak_rss_mb": "MB"}


def report(workload: str, seed: int, trace: bool, r: dict) -> dict:
    """Print the metrics by name with their units; return the result line."""
    rounds = " ".join(f"{t:.3f}" for t in r["rounds"])
    print(f"workload {workload}  seed {seed}  calls {r['calls']}  rounds {rounds} s")
    raw = r["raw"]
    print(f"  times in reference seconds; machine speed {r['speed']:.3f} x reference")
    notes = {
        "setup_s": f"median of {SETUP_STARTS} worker starts, raw {raw['setup_s']:.6f} s",
        "wall_s": f"median of {len(r['rounds'])} rounds, raw {raw['wall_s']:.6f} s",
        "instance_p50_s": f"median of {r['calls']} calls, raw {raw['instance_p50_s']:.6f} s",
        "peak_rss_mb": "worker ru_maxrss",
    }
    for name, value in r["end_to_end"].items():
        print(f"  {name:<16} {value:12.6f} {UNITS[name]:<5} {notes[name]}")
    if "instance_p90_s" in r:
        print(f"  {'instance_p90_s':<16} {r['instance_p90_s']:12.6f} s     90th percentile of {r['calls']} calls")
    print(f"  {'failed_ratio':<16} {r['failed'] / r['attempted']:12.6f} ratio {r['failed']} of {r['attempted']} calls")
    if r["recorded"]:
        print(f"  output digest {r['digest']}, each call checked against the record for seed {seed}")
    else:
        print(f"  output digest {r['digest']}, no digests recorded for seed {seed}")
    for failure in r["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        print(f"  traced worker: {r['traced_rounds']} rounds, {r['spans']} spans in the first, which gives the counts and self times")
        for name, unit in tracing.METRICS:
            print(f"  {name:<40} {r['per_layer'][name]:14.6f} {unit}")
        metrics = {name: {"value": r["per_layer"][name], "unit": unit} for name, unit in tracing.METRICS}
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in r["end_to_end"].items()}
    return {"correct": r["failed"] == 0, "attempted": r["attempted"], "failed": r["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gammacomplex", "cli.py")):
        print(f"error: no gammacomplex sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        r = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = report(args.workload, args.seed, bool(args.trace), r)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
