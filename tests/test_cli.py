"""Command-line surface: subcommands, exit codes, determinism, error paths."""

import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations

import pytest

from gammacomplex import cli
from gammacomplex.cli import main


# ``verify --deep --random 4 6 1000 3``, captured from the one-sweep-per-suite
# checks (``deep_report`` over the seven ``*_failures`` functions); the shared
# clique walk must print the same bytes.
DEEP_GOLDEN = {
    "json": (
        '{"d": 4, "equal": true, "f_gamma": [1, 6, 2], "gamma_restriction": true, "gamma_theta": [1, 6, 2], "increment_identity": true, "instance": '
        '0, "k": 6, "k_recursion": true, "link_recursion": true, "oracle_equivalence": true, "phi_image": true, "seed": 1000, "w_recursion": true}\n'
        '{"d": 4, "equal": true, "f_gamma": [1, 6, 2], "gamma_restriction": true, "gamma_theta": [1, 6, 2], "increment_identity": true, "instance": '
        '1, "k": 6, "k_recursion": true, "link_recursion": true, "oracle_equivalence": true, "phi_image": true, "seed": 1001, "w_recursion": true}\n'
        '{"d": 4, "equal": true, "f_gamma": [1, 6, 2], "gamma_restriction": true, "gamma_theta": [1, 6, 2], "increment_identity": true, "instance": '
        '2, "k": 6, "k_recursion": true, "link_recursion": true, "oracle_equivalence": true, "phi_image": true, "seed": 1002, "w_recursion": true}\n'
    ),
    "table": (
        'd=4  equal=True  f_gamma=[1, 6, 2]  gamma_restriction=True  gamma_theta=[1, 6, 2]  increment_identity=True  instance=0 '
        ' k=6  k_recursion=True  link_recursion=True  oracle_equivalence=True  phi_image=True  seed=1000  w_recursion=True\n'
        'd=4  equal=True  f_gamma=[1, 6, 2]  gamma_restriction=True  gamma_theta=[1, 6, 2]  increment_identity=True  instance=1 '
        ' k=6  k_recursion=True  link_recursion=True  oracle_equivalence=True  phi_image=True  seed=1001  w_recursion=True\n'
        'd=4  equal=True  f_gamma=[1, 6, 2]  gamma_restriction=True  gamma_theta=[1, 6, 2]  increment_identity=True  instance=2 '
        ' k=6  k_recursion=True  link_recursion=True  oracle_equivalence=True  phi_image=True  seed=1002  w_recursion=True\n'
    ),
}

# ``verify --deep --random 5 8 1 2``, captured before the phi image was
# checked on single link vertices and before the case rules and the face-set
# suite stopped re-validating: 783 faces in the first final complex, so the
# singleton path carries real weight here.
DEEP_GOLDEN_D5 = (
    '{"d": 5, "equal": true, "f_gamma": [1, 8, 9], "gamma_restriction": true, "gamma_theta": [1, 8, 9], "increment_identity": true, "instance": 0'
    ', "k": 8, "k_recursion": true, "link_recursion": true, "oracle_equivalence": true, "phi_image": true, "seed": 1, "w_recursion": true}\n'
    '{"d": 5, "equal": true, "f_gamma": [1, 8, 6], "gamma_restriction": true, "gamma_theta": [1, 8, 6], "increment_identity": true, "instance": 1'
    ', "k": 8, "k_recursion": true, "link_recursion": true, "oracle_equivalence": true, "phi_image": true, "seed": 2, "w_recursion": true}\n'
)

# ``verify --deep --random D 0 1 1`` for D = 1 and 2, captured before the
# shared walks stopped building failure strings.
DEEP_GOLDEN_NO_STEPS = (
    '{{"d": {d}, "equal": true, "f_gamma": [1], "gamma_restriction": true, "gamma_theta": [1], "increment_identity": true, "instance": 0'
    ', "k": 0, "k_recursion": true, "link_recursion": true, "oracle_equivalence": true, "phi_image": true, "seed": 1, "w_recursion": true}}\n'
)


# sha256 of the stdout of each command, captured before the --deep forward
# pass stopped replaying history (the d=5, k=300 run, whose long recipes
# take renames through their steps, before renames were rewritten);
# "<example file>" is the worked example's sequence file, as in the CI
# smoke test.
REPORT_DIGESTS = {
    ("verify", "--deep", "--random", "4", "6", "1", "3"): "7903d008988dd88dfc4c646e47c2322295a3c6a8b3cb9c9b5d627719339cd835",
    ("verify", "--deep", "--random", "5", "80", "1", "2"): "c26a411d1a7e4a5daf26033e50e76a449ff05ba50d3b8c27246d148a5ad58184",
    ("verify", "--deep", "--random", "7", "30", "1", "1"): "a11338f9439f7393a05a73d6e7a44fc1f3d56ca0a8bc72a811c9a13ea64047d6",
    ("verify", "--deep", "--random", "5", "300", "1", "1"): "d2bb990b2fa312b7ba4ed3b678044b85d2dc3816cbfcbbc92e5847186b1a660c",
    ("example",): "a070e4137224e0941bcbaf87fd2a9268771d0e9c16e6830126830e87dadc0e4b",
    ("verify", "--deep", "<example file>"): "ab119524b95e74bcd6f67749312a8c4dff4fd0d9026ec0241dc7742e10294207",
}
EXAMPLE_SEQUENCE = {"d": 4, "steps": [{"edge": [0, 2]}, {"edge": [4, 6]}, {"edge": [0, 9]}]}

# The building set and ordering file of the CI smoke test: the intervals of
# {1..4}, and an ordering of them.
INTERVALS4 = {"n": 4, "elements": [[1], [2], [3], [4], [1, 2], [2, 3], [3, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4]]}
INTERVALS4_ORDERING = {
    "decomposition": [[1], [2], [3], [4], [1, 2], [1, 2, 3], [1, 2, 3, 4]],
    "order": [[3, 4], [2, 3, 4], [2, 3]],
}

# ``nestohedron`` reports, captured before the building-set check moved into
# one private policy in ``nestohedra``: case -> {format: bytes}.
NESTO_GOLDEN = {
    "power set n=4": {
        "json": '{"bridge": true, "d": 3, "equal": true, "f_gamma": [1, 8], "gamma_theta": [1, 8], '
        '"isomorphic": true, "k": 8, "n": 4, "uv_match": true}\n',
        "table": "bridge=True  d=3  equal=True  f_gamma=[1, 8]  gamma_theta=[1, 8]  isomorphic=True  k=8  n=4  uv_match=True\n",
    },
    "intervals n=5": {
        "json": '{"bridge": true, "d": 4, "equal": true, "f_gamma": [1, 6, 2], "gamma_theta": [1, 6, 2], '
        '"isomorphic": true, "k": 6, "n": 5, "uv_match": true}\n',
        "table": "bridge=True  d=4  equal=True  f_gamma=[1, 6, 2]  gamma_theta=[1, 6, 2]  isomorphic=True  k=6  n=5  "
        "uv_match=True\n",
    },
    "power set n=4 --seed 3": {
        "json": '{"bridge": true, "d": 3, "equal": true, "f_gamma": [1, 8], "gamma_theta": [1, 8], '
        '"isomorphic": true, "k": 8, "n": 4, "uv_match": true}\n',
        "table": "bridge=True  d=3  equal=True  f_gamma=[1, 8]  gamma_theta=[1, 8]  isomorphic=True  k=8  n=4  uv_match=True\n",
    },
    "intervals n=4 with an ordering file": {
        "json": '{"bridge": true, "d": 3, "equal": true, "f_gamma": [1, 3], "gamma_theta": [1, 3], '
        '"isomorphic": true, "k": 3, "n": 4, "uv_match": true}\n',
        "table": "bridge=True  d=3  equal=True  f_gamma=[1, 3]  gamma_theta=[1, 3]  isomorphic=True  k=3  n=4  uv_match=True\n",
    },
}


# ``example``, captured while ``cmd_example`` still filtered each K-table by
# vertex id: the K lines and the gamma edges, then the report in each format.
EXAMPLE_K_LINES = (
    "K after step 1:\n"
    "  K(+e1) = {}\n  K(-e1) = {}\n  K(+e2) = {}\n  K(-e2) = {}\n"
    "  K(+e3) = {w1}\n  K(-e3) = {w1}\n  K(+e4) = {w1}\n  K(-e4) = {w1}\n"
    "  K(w1) = {}\n"
    "K after step 2:\n"
    "  K(+e1) = {w2}\n  K(-e1) = {w2}\n  K(+e2) = {w2}\n  K(-e2) = {w2}\n"
    "  K(+e3) = {w1}\n  K(-e3) = {w1}\n  K(+e4) = {w1}\n  K(-e4) = {w1}\n"
    "  K(w1) = {w2}\n  K(w2) = {w1}\n"
    "K after step 3:\n"
    "  K(+e1) = {w2}\n  K(-e1) = {w2}\n  K(+e2) = {w2}\n  K(-e2) = {w2, w3}\n"
    "  K(+e3) = {w1, w3}\n  K(-e3) = {w1}\n  K(+e4) = {w1, w3}\n  K(-e4) = {w1}\n"
    "  K(w1) = {w2, w3}\n  K(w2) = {w1}\n  K(w3) = {}\n"
    "gamma complex edges: {w1, w2}\n"
)
EXAMPLE_GOLDEN = {
    "json": EXAMPLE_K_LINES + '{"d": 4, "equal": true, "f_gamma": [1, 3, 1], "gamma_theta": [1, 3, 1], "k": 3}\n',
    "table": EXAMPLE_K_LINES + "d=4  equal=True  f_gamma=[1, 3, 1]  gamma_theta=[1, 3, 1]  k=3\n",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestExample:
    def test_replay_prints_k_sets_and_verdict(self, capsys):
        code, out, _ = run(capsys, "example")
        assert code == 0
        assert "K(+e3) = {w1}" in out
        assert "K(+e2) = {w2}" in out.split("K after step 3:")[1]
        assert "K(-e2) = {w2, w3}" in out
        assert "K(w3) = {}" in out
        assert "gamma complex edges: {w1, w2}" in out
        verdict = json.loads(out.strip().splitlines()[-1])
        assert verdict["equal"] is True
        assert verdict["f_gamma"] == [1, 3, 1] and verdict["gamma_theta"] == [1, 3, 1]

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_golden_bytes(self, capsys, fmt):
        assert run(capsys, "example", "--format", fmt) == (0, EXAMPLE_GOLDEN[fmt], "")


class TestVerify:
    def test_random_sweep_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "4", "5", "1", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 20
        for line in lines:
            report = json.loads(line)
            assert report["equal"] is True
            assert set(report) >= {"d", "k", "f_gamma", "gamma_theta", "equal", "instance", "seed"}

    def test_calls_in_one_process_print_what_fresh_processes_print(self, capsys, tmp_path):
        # the parser is built once, at import, so no call may see the
        # subcommand or the options of the one before
        path = write(tmp_path, "seq.json", {"d": 4, "steps": [{"edge": [0, 2]}, {"edge": [4, 6]}, {"edge": [0, 9]}]})
        calls = [
            ["verify", "--deep", "--random", "4", "6", "1", "2", "--format", "table"],
            ["gamma", path],
            ["verify", "--deep", path],
        ]
        in_process = [run(capsys, *argv)[:2] for argv in calls]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        fresh = []
        for argv in calls:
            done = subprocess.run(
                [sys.executable, "-m", "gammacomplex.cli", *argv], capture_output=True, text=True, env=env
            )
            fresh.append((done.returncode, done.stdout))
        assert in_process == fresh
        assert [code for code, _ in fresh] == [0, 0, 0]

    def test_identical_invocations_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "verify", "--random", "3", "4", "7", "10")
        _, second, _ = run(capsys, "verify", "--random", "3", "4", "7", "10")
        assert first == second

    def test_sequence_file_report(self, capsys, tmp_path):
        path = write(tmp_path, "seq.json", {"d": 4, "steps": [{"edge": [0, 2]}, {"edge": [4, 6]}, {"edge": [0, 9]}]})
        code, out, _ = run(capsys, "verify", path)
        assert code == 0
        report = json.loads(out)
        assert report["f_gamma"] == [1, 3, 1] and report["gamma_theta"] == [1, 3, 1]

    def test_deep_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--deep", "--random", "3", "3", "1", "3")
        assert code == 0
        for line in out.strip().splitlines():
            report = json.loads(line)
            for key in (
                "increment_identity",
                "k_recursion",
                "w_recursion",
                "link_recursion",
                "phi_image",
                "gamma_restriction",
                "oracle_equivalence",
            ):
                assert report[key] is True

    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_deep_sweep_bytes_are_pinned(self, capsys, fmt):
        code, out, _ = run(capsys, "verify", "--deep", "--random", "4", "6", "1000", "3", "--format", fmt)
        assert code == 0
        assert out == DEEP_GOLDEN[fmt]

    @pytest.mark.parametrize("d", ["1", "2"])
    def test_deep_sweep_without_steps_is_pinned(self, capsys, d):
        # no step to walk: every case-rule premise holds over an empty range
        code, out, _ = run(capsys, "verify", "--deep", "--random", d, "0", "1", "1")
        assert code == 0
        assert out == DEEP_GOLDEN_NO_STEPS.format(d=d)

    def test_deep_sweep_bytes_at_d5_are_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--deep", "--random", "5", "8", "1", "2")
        assert code == 0
        assert out == DEEP_GOLDEN_D5

    @pytest.mark.parametrize("argv", list(REPORT_DIGESTS), ids=" ".join)
    def test_report_digests_are_pinned(self, capsys, tmp_path, argv):
        path = write(tmp_path, "example.json", EXAMPLE_SEQUENCE)
        code, out, err = run(capsys, *(path if arg == "<example file>" else arg for arg in argv))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[argv]

    def test_invalid_step_names_the_step(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", {"d": 2, "steps": [{"edge": [0, 1]}]})
        code, _, err = run(capsys, "verify", path)
        assert code == 2
        assert "step 1" in err

    def test_a_deep_run_on_a_step_off_an_edge_exits_2(self, capsys, tmp_path):
        # the sequence of the CI smoke test: step 2 subdivides an antipodal pair
        path = write(tmp_path, "off-edge.json", {"d": 4, "steps": [{"edge": [0, 2]}, {"edge": [0, 1]}]})
        assert run(capsys, "verify", "--deep", path) == (
            2,
            "",
            "error: step 2: (0, 1) is not an edge of the current complex\n",
        )

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 2,\n  "steps": oops}')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "line 2" in err

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2
        assert "sequence file" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        code, out, _ = run(capsys, "verify", "--random", "2", "2", "1", "4", "--output", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 4 and all(json.loads(line)["equal"] for line in lines)

    def test_output_file_keeps_the_reports_finished_before_an_error(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "report.jsonl"
        target.write_text("stale line from an earlier run\n" * 9)
        real = cli.deep_report
        calls = []

        def failing_third(seq):
            calls.append(seq)
            if len(calls) == 3:
                raise RuntimeError("internal inconsistency: injected")
            return real(seq)

        monkeypatch.setattr(cli, "deep_report", failing_third)
        code, out, err = run(capsys, "verify", "--deep", "--random", "3", "3", "1", "5", "--output", str(target))
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: RuntimeError")
        lines = target.read_text().splitlines()
        assert [json.loads(line)["seed"] for line in lines] == [1, 2]

    def test_output_file_may_be_the_input_file(self, capsys, tmp_path):
        path = write(tmp_path, "seq.json", {"d": 4, "steps": [{"edge": [0, 2]}, {"edge": [4, 6]}, {"edge": [0, 9]}]})
        code, out, err = run(capsys, "verify", path, "--output", path)
        assert (code, out, err) == (0, "", "")
        report = json.loads(open(path).read())
        assert report["f_gamma"] == [1, 3, 1] and report["gamma_theta"] == [1, 3, 1]

    def test_run_failing_before_its_first_report_leaves_the_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.jsonl"
        target.write_text("report of an earlier run\n")
        code, out, err = run(capsys, "verify", str(tmp_path / "typo.json"), "--output", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert target.read_text() == "report of an earlier run\n"

    def test_unwritable_output_is_invalid_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--random", "2", "2", "1", "1", "--output", str(tmp_path / "no" / "such.jsonl"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_rejected(self, capsys, trials):
        code, out, err = run(capsys, "verify", "--random", "4", "5", "1", trials)
        assert code == 2
        assert out == ""
        assert "TRIALS must be at least 1" in err

    @pytest.mark.parametrize("exists", [False, True])
    def test_a_file_with_random_rejected(self, capsys, tmp_path, exists):
        path = str(tmp_path / "seq.json")
        if exists:
            path = write(tmp_path, "seq.json", {"d": 3, "steps": []})
        code, out, err = run(capsys, "verify", path, "--random", "3", "2", "1", "1")
        assert code == 2
        assert out == ""
        assert err == "error: provide a sequence file or --random D K SEED TRIALS, not both\n"

    def test_negative_step_count_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "--random", "4", "-5", "1", "1")
        assert code == 2
        assert out == ""
        assert "k must be at least 0, got -5" in err

    def test_boolean_d_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "seq.json", {"d": True, "steps": []})
        code, out, err = run(capsys, "verify", path)
        assert code == 2
        assert out == ""
        assert "d must be an integer" in err

    def test_boolean_vertex_rejected(self, capsys, tmp_path):
        # true would otherwise be read as vertex 1, and {1, 2} is an edge
        path = write(tmp_path, "seq.json", {"d": 2, "steps": [{"edge": [True, 2]}]})
        code, _, err = run(capsys, "verify", path)
        assert code == 2
        assert "step 1" in err and "vertex id" in err

    def test_internal_error_has_its_own_exit_code(self, capsys, monkeypatch):
        def broken(seq):
            raise RuntimeError("internal inconsistency: injected")

        monkeypatch.setattr(cli, "verify_f_equals_gamma", broken)
        code, out, err = run(capsys, "verify", "--random", "3", "2", "1", "1")
        assert code == cli.EXIT_INTERNAL == 3
        assert out == ""
        assert err.startswith("internal error:")

    def test_missing_steps_field_is_invalid_input(self, capsys, tmp_path):
        path = write(tmp_path, "seq.json", {"d": 4})
        code, out, err = run(capsys, "verify", path)
        assert code == 2
        assert out == ""
        assert "missing field 'steps'" in err

    def test_edge_of_three_vertices_is_invalid_input(self, capsys, tmp_path):
        path = write(tmp_path, "seq.json", {"d": 4, "steps": [{"edge": [0, 2, 4]}]})
        code, out, err = run(capsys, "verify", path)
        assert (code, out) == (2, "")
        assert err == "error: step 1: an edge needs 2 vertex ids, [0, 2, 4] has 3\n"

    @pytest.mark.parametrize("command", ["verify", "gamma"])
    @pytest.mark.parametrize(
        "steps, message",
        [
            # an object of steps read as no step at all, or failed on its keys
            ({}, "steps must be an array, got {}"),
            ({"edge": [0, 2]}, 'steps must be an array, got {"edge": [0, 2]}'),
            ("[0, 2]", 'steps must be an array, got "[0, 2]"'),
            ([{"edge": [0, 2]}, [4, 6]], "step 2 must be an object, got [4, 6]"),
        ],
    )
    def test_steps_of_the_wrong_type_are_invalid_input(self, capsys, tmp_path, command, steps, message):
        path = write(tmp_path, "seq.json", {"d": 3, "steps": steps})
        code, out, err = run(capsys, command, path)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_wrongly_typed_field_is_invalid_input(self, capsys, tmp_path):
        path = write(tmp_path, "seq.json", {"d": 4, "steps": [{"edge": 7}]})
        code, _, err = run(capsys, "verify", path)
        assert code == 2
        assert "wrong type" in err

    @pytest.mark.parametrize("error", [KeyError, TypeError])
    def test_library_key_and_type_errors_are_internal(self, capsys, monkeypatch, error):
        def broken(seq):
            raise error("injected")

        monkeypatch.setattr(cli, "verify_f_equals_gamma", broken)
        code, out, err = run(capsys, "verify", "--random", "3", "2", "1", "1")
        assert code == cli.EXIT_INTERNAL == 3
        assert out == ""
        assert err.startswith(f"internal error: {error.__name__}: ")
        assert "Traceback" in err

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--random", "2", "1", "1", "1", "--format", "table")
        assert code == 0
        assert "equal=True" in out


class TestNestohedron:
    def test_interval_building_set(self, capsys, tmp_path):
        path = write(tmp_path, "bs.json", {"n": 3, "elements": [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]})
        code, out, _ = run(capsys, "nestohedron", path)
        assert code == 0
        report = json.loads(out)
        assert report["gamma_theta"] == [1, 1]
        assert report["equal"] and report["isomorphic"] and report["uv_match"] and report["bridge"]

    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize("case", sorted(NESTO_GOLDEN))
    def test_report_bytes_are_pinned(self, capsys, tmp_path, case, fmt):
        power4 = {"n": 4, "elements": [list(c) for r in range(1, 5) for c in combinations(range(1, 5), r)]}
        intervals5 = {"n": 5, "elements": [list(range(i, j + 1)) for i in range(1, 6) for j in range(i, 6)]}
        building_set, extra = {
            "power set n=4": (power4, []),
            "intervals n=5": (intervals5, []),
            "power set n=4 --seed 3": (power4, ["--seed", "3"]),
            "intervals n=4 with an ordering file": (INTERVALS4, [write(tmp_path, "ordering.json", INTERVALS4_ORDERING)]),
        }[case]
        argv = [write(tmp_path, "bs.json", building_set), *extra]
        assert run(capsys, "nestohedron", *argv, "--format", fmt) == (0, NESTO_GOLDEN[case][fmt], "")

    def test_power_set(self, capsys, tmp_path):
        elements = [[1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]
        path = write(tmp_path, "bs.json", {"n": 3, "elements": elements})
        code, out, _ = run(capsys, "nestohedron", path)
        assert code == 0
        assert json.loads(out)["gamma_theta"] == [1, 2]

    def test_non_flag_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "bs.json", {"n": 3, "elements": [[1], [2], [3], [1, 2, 3]]})
        code, _, err = run(capsys, "nestohedron", path)
        assert code == 2
        assert "not a flag building set" in err

    def test_non_integer_n_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "bs.json", {"n": "3", "elements": [[1], [2], [3], [1, 2, 3]]})
        code, _, err = run(capsys, "nestohedron", path)
        assert code == 2
        assert "n must be an integer" in err

    @pytest.mark.parametrize("member_id", [True, 1.0])
    def test_non_integer_member_id_rejected(self, capsys, tmp_path, member_id):
        # true and 1.0 would otherwise be read as element 1
        elements = [[member_id], [2], [3], [member_id, 2], [1, 2, 3]]
        path = write(tmp_path, "bs.json", {"n": 3, "elements": elements})
        code, out, err = run(capsys, "nestohedron", path)
        assert code == 2
        assert out == ""
        assert "member id must be an integer" in err

    def test_boolean_member_id_in_ordering_file_rejected(self, capsys, tmp_path):
        bs = write(tmp_path, "bs.json", {"n": 3, "elements": [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]})
        ordering = write(
            tmp_path,
            "ordering.json",
            {"decomposition": [[True], [2], [3], [1, 2], [1, 2, 3]], "order": [[2, 3]]},
        )
        code, out, err = run(capsys, "nestohedron", bs, ordering)
        assert code == 2
        assert out == ""
        assert "member id must be an integer, got true" in err

    @pytest.mark.parametrize(
        "elements, message",
        [
            ({"a": 1}, 'elements must be an array of members, got {"a": 1}'),
            ([1, 2], "each member in elements must be an array of ids, got 1"),
            ([[1], [2], {"1": 2}], 'each member in elements must be an array of ids, got {"1": 2}'),
            ([[1], [2], [1, 2, 2]], "member [1, 2, 2] in elements repeats an id"),
            ([[1], [2], [1, 2], [1, 2]], "member [1, 2] in elements is listed twice"),
            ([[1], [2], [1, 2], [2, 1]], "member [2, 1] in elements is listed twice"),
        ],
    )
    def test_malformed_elements_rejected(self, capsys, tmp_path, elements, message):
        path = write(tmp_path, "bs.json", {"n": 2, "elements": elements})
        assert run(capsys, "nestohedron", path) == (2, "", f"error: {message}\n")

    def test_a_member_listed_twice_is_not_collapsed(self, capsys, tmp_path):
        # read as a set, the repeat collapsed into one member, and the run
        # reported the building set without it, k=0, with exit status 0
        elements = [[1], [2], [3], [1, 2], [1, 2, 3], [1, 2]]
        path = write(tmp_path, "bs.json", {"n": 3, "elements": elements})
        assert run(capsys, "nestohedron", path) == (2, "", "error: member [1, 2] in elements is listed twice\n")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("decomposition", {"a": 1}, 'decomposition must be an array of members, got {"a": 1}'),
            ("decomposition", [[1], [2], [3], 12], "each member in decomposition must be an array of ids, got 12"),
            ("decomposition", [[1], [2], [3], [1, 2, 3, 3]], "member [1, 2, 3, 3] in decomposition repeats an id"),
            (
                "decomposition",
                [[1], [2], [3], [1, 2], [1, 2, 3], [2, 1]],
                "member [2, 1] in decomposition is listed twice",
            ),
            ("order", [2, 3], "each member in order must be an array of ids, got 2"),
            ("order", [[2, 3, 2]], "member [2, 3, 2] in order repeats an id"),
        ],
    )
    def test_malformed_ordering_members_rejected(self, capsys, tmp_path, field, value, message):
        bs = write(tmp_path, "bs.json", {"n": 3, "elements": [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]})
        obj = {"decomposition": [[1], [2], [3], [1, 2], [1, 2, 3]], "order": [[2, 3]]}
        obj[field] = value
        ordering = write(tmp_path, "ordering.json", obj)
        assert run(capsys, "nestohedron", bs, ordering) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("member_id", [-1, 0, 4])
    def test_member_id_out_of_range_is_no_building_set(self, capsys, tmp_path, member_id):
        elements = [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3], [member_id]]
        path = write(tmp_path, "bs.json", {"n": 3, "elements": elements})
        assert run(capsys, "nestohedron", path) == (2, "", "error: input is not a building set\n")

    def test_negative_id_in_ordering_file_rejected(self, capsys, tmp_path):
        bs = write(tmp_path, "bs.json", {"n": 3, "elements": [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]})
        ordering = write(
            tmp_path,
            "ordering.json",
            {"decomposition": [[1], [2], [3], [-1, 2], [1, 2, 3]], "order": [[2, 3]]},
        )
        code, out, err = run(capsys, "nestohedron", bs, ordering)
        assert (code, out, err) == (2, "", "error: decomposition is not a connected flag building set\n")

    def test_invalid_building_set_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "bs.json", {"n": 3, "elements": [[1], [2], [1, 2]]})
        code, _, err = run(capsys, "nestohedron", path)
        assert code == 2

    @staticmethod
    def count_checks(monkeypatch):
        """The sizes of the families that the axioms and the split rule see, in call order."""
        from gammacomplex import nestohedra

        calls = {"axioms": [], "split rule": []}
        validate, splits = nestohedra.validate_building_set, nestohedra._every_member_splits

        def counted_validate(b):
            calls["axioms"].append(len(b.elements))
            return validate(b)

        def counted_splits(members):
            calls["split rule"].append(len(members))
            return splits(members)

        monkeypatch.setattr(nestohedra, "validate_building_set", counted_validate)
        monkeypatch.setattr(nestohedra, "_every_member_splits", counted_splits)
        return calls

    @pytest.mark.parametrize(
        "elements, code, message, splits",
        [
            (INTERVALS4["elements"], 0, "", [10]),
            ([[1], [2], [3], [4], [1, 2, 3, 4]], 2, "error: not a flag building set\n", [5]),
            ([[1], [2], [3], [4], [1, 2], [3, 4]], 2, "error: building set is not connected\n", []),
            ([[1], [2], [3], [1, 2], [2, 3]], 2, "error: input is not a building set\n", []),
        ],
    )
    def test_building_set_is_validated_once(self, capsys, monkeypatch, tmp_path, elements, code, message, splits):
        # the input is checked once, and the decomposition found for it never
        calls = self.count_checks(monkeypatch)
        path = write(tmp_path, "bs.json", {"n": 4, "elements": elements})
        got, out, err = run(capsys, "nestohedron", path)
        assert (got, err) == (code, message)
        assert (out != "") == (code == 0)
        assert calls == {"axioms": [len(elements)], "split rule": splits}

    def test_decomposition_from_a_file_is_validated_once(self, capsys, monkeypatch, tmp_path):
        calls = self.count_checks(monkeypatch)
        bs = write(tmp_path, "bs.json", INTERVALS4)
        ordering = write(tmp_path, "ordering.json", INTERVALS4_ORDERING)
        assert run(capsys, "nestohedron", bs, ordering)[0] == 0
        assert calls == {"axioms": [10, 7], "split rule": [10, 7]}

    def test_cli_imports_no_private_name(self):
        # the building-set policy lives in ``nestohedra``; the CLI only reads files and calls it
        import ast
        import inspect

        tree = ast.parse(inspect.getsource(cli))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
        assert "nestohedron_report" in names
        assert [name for name in names if name.startswith("_")] == []

    def test_huge_ground_set_is_rejected_before_it_is_built(self, tmp_path):
        # the ground set of n = 10**12 does not fit under the limit: a check
        # that builds it first ends in MemoryError, an internal error (exit 3)
        import resource

        path = write(tmp_path, "bs.json", {"n": 10**12, "elements": [[1], [2], [1, 2]]})
        limit = 512 * 1024 * 1024

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
        done = subprocess.run(
            [sys.executable, "-m", "gammacomplex.cli", "nestohedron", path],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=cap_address_space,
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: input is not a building set\n")

    def test_explicit_ordering_file(self, capsys, tmp_path):
        bs = write(tmp_path, "bs.json", {"n": 3, "elements": [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]})
        ordering = write(
            tmp_path,
            "ordering.json",
            {"decomposition": [[1], [2], [3], [1, 2], [1, 2, 3]], "order": [[2, 3]]},
        )
        code, out, _ = run(capsys, "nestohedron", bs, ordering)
        assert code == 0
        assert json.loads(out)["isomorphic"] is True

    def test_output_file_may_be_the_ordering_file(self, capsys, tmp_path):
        bs = write(tmp_path, "bs.json", {"n": 3, "elements": [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]})
        ordering = write(
            tmp_path,
            "ordering.json",
            {"decomposition": [[1], [2], [3], [1, 2], [1, 2, 3]], "order": [[2, 3]]},
        )
        code, out, err = run(capsys, "nestohedron", bs, ordering, "--output", ordering)
        assert (code, out, err) == (0, "", "")
        assert json.loads(open(ordering).read())["isomorphic"] is True

    def test_bad_ordering_file_rejected(self, capsys, tmp_path):
        bs = write(tmp_path, "bs.json", {"n": 3, "elements": [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]})
        ordering = write(
            tmp_path,
            "ordering.json",
            {"decomposition": [[1], [2], [3], [1, 2], [1, 2, 3]], "order": []},
        )
        code, _, err = run(capsys, "nestohedron", bs, ordering)
        assert code == 2

    def test_ordering_file_with_a_prefix_that_is_not_flag_rejected(self, capsys, tmp_path):
        bs = write(tmp_path, "bs.json", INTERVALS4)
        ordering = write(
            tmp_path,
            "ordering.json",
            {"decomposition": INTERVALS4_ORDERING["decomposition"], "order": [[2, 3, 4], [3, 4], [2, 3]]},
        )
        assert run(capsys, "nestohedron", bs, ordering) == (
            2,
            "",
            "error: ordering prefix 1 is not a flag building set\n",
        )

    def test_seeded_search(self, capsys, tmp_path):
        elements = [[1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]
        path = write(tmp_path, "bs.json", {"n": 3, "elements": elements})
        code, out, _ = run(capsys, "nestohedron", path, "--seed", "3")
        assert code == 0
        _, out2, _ = run(capsys, "nestohedron", path, "--seed", "3")
        assert out == out2

    def test_seed_with_an_ordering_file_rejected(self, capsys, tmp_path):
        bs = write(tmp_path, "bs.json", {"n": 3, "elements": [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]})
        ordering = write(
            tmp_path,
            "ordering.json",
            {"decomposition": [[1], [2], [3], [1, 2], [1, 2, 3]], "order": [[2, 3]]},
        )
        code, out, err = run(capsys, "nestohedron", bs, ordering, "--seed", "7")
        assert code == 2
        assert out == ""
        assert err == "error: --seed applies only when no ordering is given\n"


class TestGamma:
    def test_facet_file(self, capsys, tmp_path):
        from gammacomplex import cross_polytope

        fc = cross_polytope(4).to_face_complex()
        path = write(tmp_path, "sigma3.json", json.loads(fc.to_json()))
        code, out, _ = run(capsys, "gamma", path)
        assert code == 0
        report = json.loads(out)
        assert report["gamma"] == [1] and report["d"] == 4 and report["symmetric"]

    def test_edge_file(self, capsys, tmp_path):
        pentagon = {"vertices": [0, 1, 2, 3, 4], "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}
        path = write(tmp_path, "pentagon.json", pentagon)
        code, out, _ = run(capsys, "gamma", path)
        assert code == 0
        report = json.loads(out)
        assert report["f"] == [1, 5, 5] and report["gamma"] == [1, 1]

    def test_edge_file_counts_cliques_once(self, capsys, tmp_path, monkeypatch):
        from gammacomplex.complexes import FlagComplex

        calls = []
        count = FlagComplex.clique_count_by_size

        def counted(self):
            calls.append(1)
            return count(self)

        monkeypatch.setattr(FlagComplex, "clique_count_by_size", counted)
        pentagon = {"vertices": [0, 1, 2, 3, 4], "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]}
        code, out, _ = run(capsys, "gamma", write(tmp_path, "pentagon.json", pentagon))
        assert code == 0 and json.loads(out)["d"] == 2
        assert len(calls) == 1

    def test_edge_file_clique_above_d_rejected(self, capsys, tmp_path):
        triangle = {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2], [0, 2]]}
        code, out, err = run(capsys, "gamma", write(tmp_path, "triangle.json", triangle), "--d", "2")
        assert code == 2
        assert out == ""
        assert "found a clique of 3 vertices but d=2" in err

    def test_sequence_file(self, capsys, tmp_path):
        path = write(tmp_path, "seq.json", {"d": 4, "steps": [{"edge": [0, 2]}]})
        code, out, _ = run(capsys, "gamma", path)
        assert code == 0
        assert json.loads(out)["gamma"] == [1, 1]

    def test_output_file_may_be_the_input_file(self, capsys, tmp_path):
        path = write(tmp_path, "seq.json", {"d": 4, "steps": [{"edge": [0, 2]}]})
        code, out, err = run(capsys, "gamma", path, "--output", path)
        assert (code, out, err) == (0, "", "")
        assert json.loads(open(path).read())["gamma"] == [1, 1]

    def test_asymmetric_h_names_the_symmetry(self, capsys, tmp_path):
        path = write(tmp_path, "triangle.json", {"vertices": [1, 2, 3], "facets": [[1, 2, 3]]})
        code, _, err = run(capsys, "gamma", path)
        assert code == 2
        assert "not symmetric" in err

    def test_boolean_vertex_in_edge_file_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", {"vertices": [True, 2], "edges": [[True, 2]]})
        code, out, err = run(capsys, "gamma", path)
        assert code == 2
        assert out == ""
        assert "vertex id" in err

    def test_edge_of_three_vertices_in_edge_file_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", {"vertices": [0, 1, 2], "edges": [[0, 1], [0, 1, 2]]})
        code, out, err = run(capsys, "gamma", path)
        assert (code, out) == (2, "")
        assert err == "error: an edge needs 2 vertex ids, [0, 1, 2] has 3\n"

    def test_boolean_d_in_sequence_file_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "seq.json", {"d": True, "steps": []})
        code, _, err = run(capsys, "gamma", path)
        assert code == 2
        assert "d must be an integer" in err

    def test_unrecognized_shape(self, capsys, tmp_path):
        path = write(tmp_path, "odd.json", {"something": 1})
        code, _, err = run(capsys, "gamma", path)
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "gamma", "/nonexistent/path.json")
        assert code == 2
