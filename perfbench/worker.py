"""One workload's worker process: a closed loop over ``gammacomplex.cli.main``.

Started by ``run.py`` as ``python3 -I worker.py ROOT PLAN TRACE``.  It imports
the package from ``ROOT/src``, loads the plan and its input files, and writes
``ready`` on stdout: that is the end of set-up.  It then reads one command
from stdin, either ``quit`` or ``run SECONDS MAX_ROUNDS``, runs rounds (each
round invokes the plan's argument lists in order, one after another) and
writes one JSON line with per-call times, exit codes and output digests.
With TRACE 1 the line also holds the per-layer metrics of the first round.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter


def call(main, argv: list[str]) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call, never a verdict
        code = -1
        err.write(traceback.format_exc())
    return perf_counter() - start, code, out.getvalue(), err.getvalue()


def run_rounds(cli, plan: dict, seconds: float, max_rounds: int, after_round=None) -> dict:
    """Rounds until ``max_rounds``, or until another round would end past ``seconds``.

    The reference kernel is timed before the first round and after each one;
    then ``after_round(index)``, if given, is called outside the timing.
    """
    import reference  # here, so that set-up does not include it

    rounds, calls, first_outputs = [], [], []
    start = perf_counter()
    refs = [reference.kernel_time()]
    while len(rounds) < max_rounds:
        if rounds and perf_counter() - start + statistics.median(rounds) > seconds:
            break
        round_start = perf_counter()
        for index, inv in enumerate(plan["invocations"]):
            elapsed, code, out, err = call(cli.main, inv["argv"])
            calls.append(
                {
                    "round": len(rounds),
                    "index": index,
                    "seconds": elapsed,
                    "code": code,
                    "digest": hashlib.sha256(out.encode()).hexdigest(),
                    "stderr": err[-2000:],
                }
            )
            if not rounds:
                first_outputs.append(out)
        rounds.append(perf_counter() - round_start)
        refs.append(reference.kernel_time())
        if after_round is not None:
            after_round(len(rounds) - 1)
    return {
        "rounds": rounds,
        "refs": refs,
        "calls": calls,
        "outputs": first_outputs,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> int:
    root, plan_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from gammacomplex import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"gammacomplex imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    with open(plan_path) as handle:
        plan = json.load(handle)
    for path in plan["inputs"]:
        with open(path) as handle:
            json.load(handle)
    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()

    command = sys.stdin.readline().split()
    if not command or command[0] != "run":
        return 0
    first_round = {}

    def keep_first_round(index: int) -> None:
        # The first round's spans give the per-layer metrics; later rounds
        # start from an empty log, so that each round records the same spans.
        if index == 0:
            first_round["layers"] = tracing.layer_metrics(tracer)
            first_round["spans"] = len(tracer.spans)
            tracing.write_spans(tracer, plan["spans_path"])
        tracer.reset()

    result = run_rounds(cli, plan, float(command[1]), int(command[2]), keep_first_round if tracer else None)
    result.update(first_round)
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
