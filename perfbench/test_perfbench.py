"""Checks of the benchmark itself; run with ``python -m pytest perfbench``."""

import json
import random

import inputs
import run
import tracing

# The per-layer metrics the traced run must report.
NAMED = [
    "complexes.edges_s",
    "complexes.edges_calls",
    "complexes.edges_per_step",
    "complexes.subdivide_edge_s",
    "complexes.clique_count_s",
    "complexes.cliques_counted",
    "complexes.faces_yielded",
    "complexes.face_oracle_s",
    "polynomials.f_poly_s",
    "polynomials.gamma_of_calls",
    "polynomials.transform_s",
    "subdivision.extend_s",
    "subdivision.extend_calls",
    "subdivision.random_sequence_s",
    "subdivision.from_json_s",
    "subdivision.verify_f_equals_gamma_s",
    "subdivision.induced_sequence_s",
    "subdivision.induced_sequence_calls",
    "subdivision.k_w_phi_s",
    "checks.increment_identity_s",
    "checks.k_rule_s",
    "checks.w_rule_s",
    "checks.link_recursion_s",
    "checks.phi_image_s",
    "checks.gamma_restriction_s",
    "checks.oracle_s",
    "nestohedra.find_flag_ordering_s",
    "nestohedra.ordering_to_sequence_s",
    "nestohedra.nested_set_faces_s",
    "nestohedra.nested_faces",
    "nestohedra.uv_gamma_complex_s",
    "nestohedra.verify_ordering_equivalence_s",
    "cli.self_s",
    "cli.invocations",
    "trace.overhead_s",
]


def test_traced_deep_sweep_repeats_its_counts():
    runs = [run.measure("deep-sweep", 5, 0, True, instances=3) for _ in range(2)]
    for r in runs:
        assert r["failed"] == 0, r["failures"]
        assert set(NAMED) <= set(r["per_layer"])
    assert runs[0]["digest"] == runs[1]["digest"]
    counts = [name for name, unit in tracing.METRICS if unit != "s"]
    assert counts
    assert {n: runs[0]["per_layer"][n] for n in counts} == {n: runs[1]["per_layer"][n] for n in counts}
    assert runs[0]["per_layer"]["cli.invocations"] == 3
    assert runs[0]["per_layer"]["checks.phi_image_s"] > 0


def test_closed_forms():
    assert inputs.associahedron_gamma(9) == [1, 28, 140, 140, 14]
    assert inputs.permutohedron_gamma(6) == [1, 52, 136]
    # The cross-polytope boundary for d = 3 is the octahedron.
    _, adj = inputs.random_subdivision_steps(3, 0, None)
    assert inputs.clique_counts(adj) == [1, 6, 12, 8]


def test_gate_rejects_wrong_reports():
    ok = {"d": 4, "k": 6, "equal": True, "f_gamma": [1, 6], "gamma_theta": [1, 6]}
    expect = {"kind": "verify", "d": 4, "k": 6, "deep": False}
    assert run.gate(expect, 0, json.dumps(ok) + "\n") is None
    assert run.gate(expect, 1, json.dumps(ok) + "\n") == "exit code 1"
    assert "equal" in run.gate(expect, 0, json.dumps(dict(ok, equal=False)) + "\n")
    assert run.gate(dict(expect, deep=True), 0, json.dumps(ok) + "\n") is not None
    nesto = {"n": 9, "k": 28, "f_gamma": [1, 28, 140, 140, 14], "gamma_theta": [1, 28, 140, 140, 13]}
    expect = {"kind": "nesto", "n": 9, "k": 28, "gamma": inputs.associahedron_gamma(9)}
    assert "closed form" in run.gate(expect, 0, json.dumps(nesto) + "\n")


def test_recorded_digests_cover_every_call():
    with open(run.BASELINE) as handle:
        digests = json.load(handle)["digests"]
    assert set(digests) == set(run.WORKLOADS)
    for workload, seeds in digests.items():
        assert "1" in seeds
        for seed in seeds:
            invocations, _ = run.WORKLOADS[workload](random.Random(int(seed)))
            recorded = run.recorded_digests(workload, int(seed))
            assert len(recorded) == len(invocations)
            assert all(len(d) == run.DIGEST_CHARS for d in recorded)
