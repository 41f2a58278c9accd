"""Command-line surface: construction, verification sweeps, and JSON reports.

Exit codes: 0 when every requested check passes, 1 when a mathematical
identity fails (an alarm, since it would falsify a proven statement),
2 for malformed or invalid input, 3 for an internal error (a broken
invariant or any other exception inside the library, never a verdict).
Sweep reports are JSON lines, one object per instance, and identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback
from itertools import islice

from .checks import deep_report
from .complexes import FaceComplex, FlagComplex
from .nestohedra import BuildingSet, FlagOrdering, nestohedron_report
from .polynomials import f_from_counts, report_from_f
from .subdivision import (
    SubdivisionSequence,
    extend,
    gamma_complex,
    new_sequence,
    random_sequence,
    verify_f_equals_gamma,
)

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# The built-in worked example: three subdivisions of the 3-sphere
# cross-polytope boundary (ids 0..7), chosen so that the gamma complex
# is one edge plus an isolated vertex.
EXAMPLE_D = 4
EXAMPLE_STEPS = ((0, 2), (4, 6), (0, 9))


def example_vertex_name(d: int, v: int) -> str:
    if v < 2 * d:
        sign = "+" if v % 2 == 0 else "-"
        return f"{sign}e{v // 2 + 1}"
    return f"w{v - 2 * d + 1}"


def build_example_sequence() -> SubdivisionSequence:
    return extend(new_sequence(EXAMPLE_D), *EXAMPLE_STEPS)


class _Output:
    """Report lines to stdout, or to a file opened at the first line.

    Every handler reads all its inputs before its first line, so the file
    may be one of them, and a run that fails before its first line leaves
    the file as it was.  From then on each line reaches the file as soon as
    it is emitted: a run that ends in an error leaves exactly the reports it
    finished, never stale ones.
    """

    def __init__(self, path: str | None):
        self.path = path
        self._handle = None

    def emit(self, line: str) -> None:
        if self.path is None:
            print(line)
            return
        if self._handle is None:
            self._handle = open(self.path, "w")
        self._handle.write(f"{line}\n")
        self._handle.flush()

    def __enter__(self) -> "_Output":
        return self

    def __exit__(self, *exc) -> None:
        if self._handle is not None:
            self._handle.close()


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _table_row(report: dict) -> str:
    keys = sorted(report)
    return "  ".join(f"{key}={report[key]}" for key in keys)


def cmd_example(args, out: _Output) -> int:
    seq = build_example_sequence()
    names = lambda v: example_vertex_name(seq.d, v)
    for j, state in enumerate(islice(seq.states(), 1, None), start=1):
        out.emit(f"K after step {j}:")
        table = state.k_table
        for v in sorted(table):
            ks = ", ".join(names(x) for x in sorted(table[v]))
            out.emit(f"  K({names(v)}) = {{{ks}}}")
    edges = ", ".join(f"{{{names(a)}, {names(b)}}}" for a, b in gamma_complex(seq).edges())
    out.emit(f"gamma complex edges: {edges or '(none)'}")
    report = verify_f_equals_gamma(seq)
    out.emit(_dumps(report) if args.format == "json" else _table_row(report))
    return EXIT_OK if report["equal"] else EXIT_FALSIFIED


def _read_json(path: str, build):
    """``build`` applied to the JSON value in the file at ``path``.

    A KeyError or TypeError while building means a missing field or a value
    of the wrong type in the file, and is reported as invalid input; raised
    anywhere else, they are internal errors.
    """
    with open(path) as handle:
        obj = json.load(handle)
    try:
        return build(obj)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: value of the wrong type ({exc})") from None


def _verify_instances(args):
    if args.random is not None:
        d, k, seed, trials = args.random
        for i in range(trials):
            yield i, seed + i, random_sequence(d, k, seed + i)
    else:
        yield 0, None, _read_json(args.seq_file, SubdivisionSequence.from_json_obj)


def cmd_verify(args, out: _Output) -> int:
    if args.random is None and args.seq_file is None:
        raise ValueError("provide a sequence file or --random D K SEED TRIALS")
    if args.random is not None and args.seq_file is not None:
        raise ValueError("provide a sequence file or --random D K SEED TRIALS, not both")
    if args.random is not None and args.random[3] < 1:
        raise ValueError(f"TRIALS must be at least 1, got {args.random[3]}")
    all_ok = True
    for index, seed, seq in _verify_instances(args):
        report = verify_f_equals_gamma(seq)
        report["instance"] = index
        if seed is not None:
            report["seed"] = seed
        if args.deep:
            report.update(deep_report(seq))
        ok = all(v for v in report.values() if isinstance(v, bool))
        all_ok = all_ok and ok
        out.emit(_dumps(report) if args.format == "json" else _table_row(report))
    return EXIT_OK if all_ok else EXIT_FALSIFIED


def cmd_nestohedron(args, out: _Output) -> int:
    if args.ordering is not None and args.seed is not None:
        raise ValueError("--seed applies only when no ordering is given")
    bs = _read_json(args.building_set, BuildingSet.from_json_obj)
    ordering = None
    if args.ordering is not None:
        ordering = _read_json(args.ordering, lambda obj: FlagOrdering.from_json_obj(bs, obj))
    rng = None if args.seed is None else random.Random(args.seed)
    report = nestohedron_report(bs, ordering, rng)
    out.emit(_dumps(report) if args.format == "json" else _table_row(report))
    ok = report["equal"] and report["isomorphic"] and report["uv_match"] and report["bridge"]
    return EXIT_OK if ok else EXIT_FALSIFIED


def _gamma_source(obj):
    if "steps" in obj:
        return SubdivisionSequence.from_json_obj(obj)
    if "facets" in obj:
        return FaceComplex.from_json_obj(obj)
    if "edges" in obj:
        return FlagComplex.from_json_obj(obj)
    raise ValueError("file is neither a sequence, a facet list, nor an edge list")


def cmd_gamma(args, out: _Output) -> int:
    source = _read_json(args.file, _gamma_source)
    d = args.d
    if isinstance(source, SubdivisionSequence):
        d = source.d if d is None else d
        source = source.final
    if isinstance(source, FaceComplex):
        counts, kind = source.f_counts(), "face"
    else:
        counts, kind = source.clique_count_by_size(), "clique"
    d = max(counts) if d is None else d
    if max(counts) > d:
        raise ValueError(f"found a {kind} of {max(counts)} vertices but d={d}")
    report = report_from_f(f_from_counts(counts), d)
    out.emit(_dumps(report.to_json_obj()) if args.format == "json" else _table_row(report.to_json_obj()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gammacomplex",
        description="Edge subdivisions of cross-polytope boundaries, gamma vectors, "
        "gamma complexes, and nestohedron orderings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p_example = sub.add_parser("example", help="replay the built-in three-step worked example")
    common(p_example)

    p_verify = sub.add_parser("verify", help="check f(gamma complex) == gamma(final complex)")
    p_verify.add_argument("seq_file", nargs="?", help="JSON subdivision sequence")
    p_verify.add_argument(
        "--random",
        nargs=4,
        type=int,
        metavar=("D", "K", "SEED", "TRIALS"),
        help="verify TRIALS (at least 1) random sequences with seeds SEED, SEED+1, ...",
    )
    p_verify.add_argument(
        "--deep",
        action="store_true",
        help="also run the K/W recursion, link, phi, restriction, increment and oracle suites",
    )
    common(p_verify)

    p_nesto = sub.add_parser("nestohedron", help="check a flag building set's two gamma complexes agree")
    p_nesto.add_argument("building_set", help="JSON building set")
    p_nesto.add_argument("ordering", nargs="?", help="JSON flag ordering (found automatically if omitted)")
    p_nesto.add_argument("--seed", type=int, help="randomize the ordering search with this seed")
    common(p_nesto)

    p_gamma = sub.add_parser("gamma", help="f, h and gamma of a complex or sequence file")
    p_gamma.add_argument("file", help="JSON complex (edges or facets) or sequence")
    p_gamma.add_argument("--d", type=int, help="dimension parameter (default: inferred)")
    common(p_gamma)

    return parser


# Built once, at import: every ``parse_args`` returns a fresh namespace, so
# calls in one process share no option.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {
        "example": cmd_example,
        "verify": cmd_verify,
        "nestohedron": cmd_nestohedron,
        "gamma": cmd_gamma,
    }
    try:
        with _Output(getattr(args, "output", None)) as out:
            return handlers[args.command](args, out)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
