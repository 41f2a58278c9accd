"""Subdivision sequences: K-tables, face classes, induced sequences, gamma complex.

The worked three-step example on the d=4 cross polytope pins down the
expected values: ids 0..7 are the antipodal pairs (0,1), (2,3), (4,5),
(6,7) and the steps subdivide {0,2}, {4,6}, {0,9}, creating 8, 9, 10.
"""

import hashlib
import sys
from bisect import bisect_left, insort
from collections import Counter
from random import Random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammacomplex import (
    FaceClass,
    FaceComplex,
    FlagComplex,
    classify_face,
    cross_polytope,
    extend,
    gamma_complex,
    induced_sequence,
    is_flag,
    k_set,
    link,
    new_sequence,
    phi,
    random_sequence,
    subdivide_edge,
    subdivide_face_general,
    verify_f_equals_gamma,
    w_set,
)
from gammacomplex import checks, subdivision
from gammacomplex.polynomials import f_from_counts, gamma_of, report_from_f
from gammacomplex.checks import (
    deep_failures,
    deep_report,
    gamma_restriction_failures,
    increment_identity_failures,
    k_rule_failures,
    link_recursion_failures,
    oracle_failures,
    phi_image_failures,
    w_rule_failures,
)
from gammacomplex.subdivision import (
    SubdivisionSequence,
    SubdivisionStep,
    _link_seq,
    _rename,
    _start_layer,
    _start_recipe,
    k_set_at,
    w_set_at,
)
from helpers import (
    KeptHistory,
    RecipesReplaced,
    final_k_entry_moved,
    is_update,
    read_replaced_recipes,
    rename_by_closure,
    replaying_forward_pass,
    sequence_from_edges,
    shape_tables,
    stored,
    subdivides,
)

EXAMPLE_STEPS = [(0, 2), (4, 6), (0, 9)]

# The one-sweep-per-suite oracles behind ``deep_failures``, under its keys.
SUITES = {
    "increment_identity": increment_identity_failures,
    "k_recursion": k_rule_failures,
    "w_recursion": w_rule_failures,
    "link_recursion": link_recursion_failures,
    "phi_image": phi_image_failures,
    "gamma_restriction": gamma_restriction_failures,
    "oracle_equivalence": oracle_failures,
}

K_AFTER_STEP_1 = {0: [], 1: [], 2: [], 3: [], 4: [8], 5: [8], 6: [8], 7: [8], 8: []}
K_AFTER_STEP_2 = {
    0: [9], 1: [9], 2: [9], 3: [9],
    4: [8], 5: [8], 6: [8], 7: [8],
    8: [9], 9: [8],
}
K_AFTER_STEP_3 = {
    0: [9], 1: [9],
    2: [9], 3: [9, 10],
    4: [8, 10], 5: [8],
    6: [8, 10], 7: [8],
    8: [9, 10], 9: [8], 10: [],
}


def gamma_complex_from_k_tables(seq):
    """Gamma complex recomputed from each step's pre-step endpoint K-sets."""
    edges = set()
    for j, step in enumerate(seq.steps, start=1):
        a, b = step.edge
        before = seq.prefix(j - 1).k_table
        edges.update((x, step.new_vertex) for x in before[a] & before[b])
    return FlagComplex(seq.w_ids(), edges)


def reference_random_sequence(d, k, seed):
    """The rebuild-every-step loop that ``random_sequence`` must reproduce.

    Each edge is drawn from the complex that ``subdivision.extend`` built
    so far, so under a patched graph rule the draws follow the patched
    complex, as ``random_sequence``'s, drawn on a graph of its own, do not.
    """
    rng = Random(seed)
    seq = new_sequence(d)
    for _ in range(k):
        seq = subdivision.extend(seq, rng.choice(seq.final.edges()))
    return seq


def reference_draws(d, k, rng):
    """The sorted-list loop that ``subdivision._draws`` must reproduce draw for draw.

    Each step draws from the current edge list, kept sorted in place: the
    subdivided edge leaves it and every (v, w) to the new vertex w is
    inserted at its place.
    """
    start = cross_polytope(d)
    adj = {v: set(ns) for v, ns in start.adjacency().items()}
    edges = start.edges()
    drawn = []
    for w in range(2 * d, 2 * d + k):
        edge = a, b = rng.choice(edges)
        drawn.append(edge)
        del edges[bisect_left(edges, edge)]
        common = adj[a] & adj[b]
        for v in common:
            adj[v].add(w)
        for u, v in ((a, b), (b, a)):
            adj[u].remove(v)
            adj[u].add(w)
        adj[w] = near = common | {a, b}
        for v in near:
            insort(edges, (v, w))
    return drawn


@pytest.fixture(scope="module")
def example():
    return sequence_from_edges(4, EXAMPLE_STEPS)


class TestNewSequence:
    def test_d4_start(self):
        seq = new_sequence(4)
        assert seq.k == 0
        assert seq.final == cross_polytope(4)
        assert all(ks == frozenset() for ks in seq.k_table.values())
        assert gamma_complex(seq).vertices == frozenset()

    def test_sequences_share_the_start_complex_not_the_k_table(self):
        # the corrupted fixtures below write into a prefix's K-table
        one, two = new_sequence(4), new_sequence(4)
        assert one.final is two.final
        assert one.k_table == two.k_table and one.k_table is not two.k_table

    def test_d1_has_no_edges(self):
        seq = new_sequence(1)
        assert seq.final.edges() == []

    def test_d0_rejected(self):
        with pytest.raises(ValueError):
            new_sequence(0)


class TestExtend:
    def test_k_tables_of_the_example(self, example):
        for step_index, expected in ((1, K_AFTER_STEP_1), (2, K_AFTER_STEP_2), (3, K_AFTER_STEP_3)):
            table = example.prefix(step_index).k_table
            assert {v: sorted(ks) for v, ks in table.items()} == expected

    def test_snapshots_hold_pre_step_endpoint_values(self, example):
        pre_step = [
            {v: example.prefix(j - 1).k_table[v] for v in step.edge}
            for j, step in enumerate(example.steps, start=1)
        ]
        assert pre_step[0] == {0: frozenset(), 2: frozenset()}
        assert pre_step[1] == {4: frozenset([8]), 6: frozenset([8])}
        assert pre_step[2] == {0: frozenset([9]), 9: frozenset([8])}

    def test_gamma_edges_of_the_example(self, example):
        assert example.gamma_edges == {(8, 9)}
        gc = gamma_complex(example)
        assert gc.vertices == {8, 9, 10}
        assert gc.edges() == [(8, 9)]

    def test_non_edge_rejected(self):
        seq = new_sequence(2)
        with pytest.raises(ValueError):
            extend(seq, (0, 1))

    def test_an_edge_of_three_vertices_is_named(self):
        with pytest.raises(ValueError, match=r"^an edge needs 2 vertices, \[0, 2, 4\] has 3$"):
            extend(new_sequence(3), (0, 2, 4))

    def test_a_non_edge_is_named_by_its_step_in_the_result(self):
        prefix = extend(new_sequence(2), (0, 2))
        with pytest.raises(ValueError, match=r"^step 3: \(0, 2\) is not an edge of the current complex$"):
            extend(prefix, (0, 3), (0, 2))

    def test_a_new_vertex_already_present_is_named_by_its_step(self):
        # a hand-built sequence whose complex already holds the id 2d + k
        start = new_sequence(2)
        square = start.final
        crowded = SubdivisionSequence(
            2, (), FlagComplex(range(5), square.edges() + [(0, 4)]), {**start.k_table, 4: frozenset()}, frozenset(), ()
        )
        with pytest.raises(ValueError, match=r"^step 1: subdivision vertex 4 already present$"):
            extend(crowded, (0, 2))

    @given(st.integers(2, 6), st.integers(0, 30), st.integers(0, 10**6), st.floats(0, 1))
    @settings(max_examples=40, deadline=None)
    def test_a_batch_is_the_fold_of_single_steps(self, d, k, seed, at):
        # extend(prefix, *rest), at any split and on a prefix that is itself
        # a batch, gives field by field what one edge per call gives; each
        # state's complex is subdivide_edge of the one before, an oracle
        # that extend does not call
        edges = [step.edge for step in random_sequence(d, k, seed).steps]
        split = round(at * k)
        folded = [new_sequence(d)]
        for edge in edges:
            folded.append(extend(folded[-1], edge))
        for before, after in zip(folded, folded[1:]):
            (a, b), w = after.steps[-1]
            assert after.final == subdivide_edge(before.final, (a, b), w)
        prefix = extend(new_sequence(d), *edges[:split])
        slots = {slot: getattr(prefix, slot) for slot in SubdivisionSequence.__slots__}
        entries = dict(prefix.final.adjacency()), dict(prefix.k_table)
        batch = extend(prefix, *edges[split:])
        for got in (prefix, batch):
            expected = folded[got.k]
            for slot in SubdivisionSequence.__slots__:
                assert getattr(got, slot) == getattr(expected, slot), slot
            assert type(got.steps) is type(got.w_neighbors) is tuple
            assert type(got.gamma_edges) is frozenset
            for entry in (*got.final.adjacency().values(), *got.k_table.values(), *got.w_neighbors):
                assert type(entry) is frozenset
        # the batch read the prefix and changed none of its slots or entries
        assert all(getattr(prefix, slot) is value for slot, value in slots.items())
        assert (dict(prefix.final.adjacency()), dict(prefix.k_table)) == entries

    def test_later_k_growth_adds_no_gamma_edges(self, example):
        # K(w1) ends as {9, 10} but the only gamma edge is the one recorded
        # when w2 was created
        assert example.k_table[8] == frozenset([9, 10])
        assert gamma_complex(example).neighbors(10) == frozenset()


class TestPrefix:
    @given(st.integers(2, 6), st.integers(0, 40), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_fold_of_extend(self, d, k, seed):
        seq = random_sequence(d, k, seed)
        states = list(seq.states())
        assert len(states) == k + 1 and states[-1] is seq
        expected = new_sequence(d)
        for j in range(k + 1):
            if j:
                expected = extend(expected, seq.steps[j - 1].edge)
                w = seq.steps[j - 1].new_vertex
                assert seq.w_neighbors[j - 1] == states[j].final.neighbors(w)
            for got in (seq.prefix(j), states[j]):
                assert got.steps == expected.steps == seq.steps[:j]
                assert got.final == expected.final
                assert got.k_table == expected.k_table
                assert got.gamma_edges == expected.gamma_edges
                assert got.w_neighbors == seq.w_neighbors[:j]

    def test_full_length_is_the_sequence_itself(self, example):
        assert example.prefix(example.k) is example
        start = new_sequence(3)
        assert start.prefix(0) is start

    @pytest.mark.parametrize("j", [-1, 4])
    def test_out_of_range_rejected(self, example, j):
        with pytest.raises(ValueError, match="out of range 0..3"):
            example.prefix(j)

    def test_out_of_range_step_index_rejected(self, example):
        with pytest.raises(ValueError):
            k_set_at(example, -1, frozenset())


class TestKSet:
    def test_example_values(self, example):
        assert k_set(example, {4}) == (8, 10)
        assert k_set(example, {0}) == (9,)
        assert k_set(example, {5}) == (8,)
        assert k_set(example, frozenset()) == (8, 9, 10)

    def test_intersection_of_vertex_sets(self, example):
        assert k_set(example, {4, 8}) == (10,)
        assert k_set(example, {3, 4}) == (10,)
        assert k_set(example, {8, 9}) == ()

    def test_non_face_rejected(self, example):
        with pytest.raises(ValueError):
            k_set(example, {0, 2})

    def test_prefix_values(self, example):
        assert k_set_at(example, 1, {4}) == (8,)
        assert k_set_at(example, 0, {4}) == ()
        assert k_set_at(example, 2, frozenset()) == (8, 9)


class TestClassifyFace:
    def test_example_classes(self, example):
        assert classify_face(example, {0}) is FaceClass.F1
        assert classify_face(example, {0, 10}) is FaceClass.F2
        assert classify_face(example, {10}) is FaceClass.F3
        assert classify_face(example, {3}) is FaceClass.F4
        assert classify_face(example, {1}) is FaceClass.F5
        assert classify_face(example, frozenset()) is FaceClass.F4

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            classify_face(new_sequence(3), {0})

    def test_non_face_rejected(self, example):
        with pytest.raises(ValueError):
            classify_face(example, {0, 2})


class TestInducedSequence:
    def test_empty_face_gives_the_sequence_itself(self, example):
        ind = induced_sequence(example, frozenset())
        assert ind.base.steps == example.steps
        assert ind.w_labels == (8, 9, 10)
        assert ind.result() == example.final

    def test_new_vertex_link_is_a_zero_step_suspension(self, example):
        ind = induced_sequence(example, {10})
        assert ind.step_count == 0
        assert ind.result() == link(example.final, {10})
        assert ind.base.final == cross_polytope(3)

    def test_endpoint_face(self, example):
        ind = induced_sequence(example, {0})
        assert ind.w_labels == (10,)
        assert ind.result() == link(example.final, {0})

    def test_every_face_reproduces_its_link(self, example):
        for face in example.final.faces():
            assert induced_sequence(example, face).result() == link(example.final, face)

    def test_facet_links_are_empty(self, example):
        facet = next(f for f in example.final.faces() if len(f) == 4)
        ind = induced_sequence(example, facet)
        assert ind.base is None
        assert ind.w_labels == ()
        assert ind.result() == FlagComplex()


class TestWSetAndPhi:
    def test_example_values(self, example):
        assert w_set(example, {0}) == (10,)
        assert w_set(example, frozenset()) == (8, 9, 10)
        assert w_set(example, {10}) == ()
        assert w_set(example, {2}) == (9,)

    def test_sizes_match_k_sets_everywhere(self, example):
        for face in example.final.faces():
            assert len(w_set(example, face)) == len(k_set(example, face))

    def test_phi_is_identity_on_the_empty_face(self, example):
        assert phi(example, frozenset()) == {8: 8, 9: 9, 10: 10}

    def test_phi_on_an_endpoint(self, example):
        assert phi(example, {0}) == {9: 10}

    def test_phi_on_empty_k_set(self, example):
        assert phi(example, {10}) == {}


class TestRandomSequence:
    def test_same_seed_same_sequence(self):
        a = random_sequence(4, 6, 17)
        b = random_sequence(4, 6, 17)
        assert a.steps == b.steps

    def test_cycle_stays_a_cycle(self):
        seq = random_sequence(2, 3, 1)
        c = seq.final
        assert len(c.vertices) == 7
        assert all(len(c.neighbors(v)) == 2 for v in c.vertices)

    def test_zero_steps(self):
        assert random_sequence(4, 0, 3).final == cross_polytope(4)

    def test_d1_with_steps_rejected(self):
        with pytest.raises(ValueError):
            random_sequence(1, 1, 0)

    def test_negative_step_count_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 0"):
            random_sequence(4, -5, 1)

    @given(st.integers(2, 6), st.integers(0, 40), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_rebuild_every_step_loop(self, d, k, seed):
        assert random_sequence(d, k, seed).steps == reference_random_sequence(d, k, seed).steps

    def test_matches_the_rebuild_every_step_loop_long(self):
        assert random_sequence(5, 200, 3).steps == reference_random_sequence(5, 200, 3).steps

    @pytest.mark.parametrize("d", range(2, 9))
    def test_the_draws_are_the_sorted_list_loops(self, d):
        # k = 300 at d = 2 gives ids up to 303, across five 64-id blocks
        for k, seed in ((1, 0), (40, 1), (130, 2), (300, 3), (300, 4)):
            assert subdivision._draws(d, k, Random(seed)) == reference_draws(d, k, Random(seed))

    def test_the_index_lists_the_edges_at_every_step(self):
        seq = random_sequence(3, 400, 5)
        index = subdivision._Edges(cross_polytope(3))
        states = seq.states()
        next(states)
        for step, state in zip(seq.steps, states):
            index.subdivide(*step.edge, step.new_vertex)
            assert len(index) == len(state.final.edges())
            assert [index[i] for i in range(len(index))] == state.final.edges()
        with pytest.raises(IndexError):
            index[len(index)]

    @pytest.mark.parametrize(
        "d, k, seed, digest",
        [
            (4, 6, 0, "d71b0c5f88c93891da95cbd243e7de5c8e5cf871fb1dab1d9dbc5f9627fb97d4"),
            (4, 6, 1, "cf7e2226ec00f388778f3bcef1be3ce188d344e34fc53669a2f1cf44f64ab375"),
            (4, 6, 2, "d134217ac4597552c3eece42145d84e8360b9af16c9aeb1c857c724d532f27e1"),
            (5, 200, 1, "743d925bf9f22e487652c7c6b2a2a2d157e12300d7bee24d2524678d048d5769"),
            (5, 200, 2, "8454b5a8329321ebfb489aa4803496e179b627fb475af5daa27c579eee4e6921"),
            (5, 2000, 1, "202884cb655187edd3ead9a3e014ac2505d67dbe164ebee9c6028c0443c98a1c"),
            (2, 400, 1, "a919de46e3aa463a90e06927085ef974a1db96cf1cbdcc0afc76b5c73e347f33"),
            (10, 16, 1, "9e361cdc5226123e8f3b0d7c09a0c924060d879035c01f5d1e2ef7777ebef85f"),
            (10, 16, 3, "80791f67b132b8066ebc2bba4b07471aa53a185043ffa520cbc2e3cb8c237a2d"),
        ],
    )
    def test_the_draws_are_pinned(self, d, k, seed, digest):
        # the same draws for every seed: a change to how the edges are drawn
        # or kept changes these bytes, and with them every seeded report
        assert hashlib.sha256(random_sequence(d, k, seed).to_json().encode()).hexdigest() == digest


class TestGammaComplex:
    def test_snapshot_recomputation_matches(self, example):
        assert gamma_complex_from_k_tables(example) == gamma_complex(example)

    def test_disjoint_edge_subdivisions_of_the_octahedron(self):
        # the second edge shares no endpoint with the first and its
        # endpoints never saw w1, so the gamma complex has no edge
        seq = sequence_from_edges(3, [(0, 2), (1, 3)])
        assert seq.k_table[7] == frozenset()
        assert gamma_complex(seq).edges() == []
        assert gamma_complex_from_k_tables(seq) == gamma_complex(seq)

    @given(st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_snapshot_recomputation_matches_random(self, seed):
        seq = random_sequence(2 + seed % 4, seed % 8, seed)
        assert gamma_complex_from_k_tables(seq) == gamma_complex(seq)

    @given(st.integers(0, 5_000))
    @settings(max_examples=30, deadline=None)
    def test_prefixes_restrict_the_gamma_complex(self, seed):
        seq = random_sequence(2 + seed % 4, seed % 8, seed)
        prefix = new_sequence(seq.d)
        for j, step in enumerate(seq.steps, start=1):
            prefix = extend(prefix, step.edge)
            restricted = gamma_complex(seq).induced(seq.w_ids()[:j])
            assert gamma_complex(prefix) == restricted


class TestVerify:
    def test_example_verdict(self, example):
        report = verify_f_equals_gamma(example)
        assert report == {
            "d": 4,
            "k": 3,
            "f_gamma": [1, 3, 1],
            "gamma_theta": [1, 3, 1],
            "equal": True,
        }

    def test_zero_step_sequences(self):
        for d in (1, 2, 5):
            report = verify_f_equals_gamma(new_sequence(d))
            assert report["f_gamma"] == [1] and report["gamma_theta"] == [1]
            assert report["equal"]

    def test_json_round_trip(self, example):
        from gammacomplex import SubdivisionSequence

        again = SubdivisionSequence.from_json(example.to_json())
        assert again.steps == example.steps
        assert again.final == example.final

    def test_bad_step_names_its_index(self):
        from gammacomplex import SubdivisionSequence

        with pytest.raises(ValueError) as got:
            SubdivisionSequence.from_json('{"d": 2, "steps": [{"edge": [0, 2]}, {"edge": [0, 2]}]}')
        assert str(got.value) == "step 2: (0, 2) is not an edge of the current complex"

    def test_every_step_is_read_before_any_is_subdivided(self):
        # step 1 is no edge, but the malformed step 2 is what is reported
        from gammacomplex import SubdivisionSequence

        with pytest.raises(ValueError) as got:
            SubdivisionSequence.from_json('{"d": 2, "steps": [{"edge": [0, 1]}, {"edge": [0]}]}')
        assert str(got.value) == "step 2: an edge needs 2 vertex ids, [0] has 1"


@pytest.mark.parametrize(
    "make",
    [lambda: sequence_from_edges(4, EXAMPLE_STEPS), lambda: random_sequence(4, 6, 3)],
    ids=["example", "random"],
)
def test_readers_leave_the_sequence_unchanged(make):
    # a sequence holds its state in its slots alone, and no reader writes one
    seq, fresh = make(), make()
    assert not hasattr(seq, "__dict__")
    kept = {name: getattr(seq, name) for name in SubdivisionSequence.__slots__}
    deep_report(seq)
    for j, state in enumerate(seq.states()):
        for fs in state.final.faces():
            w_set_at(seq, j, fs)
    for fs in seq.final.faces():
        w_set(seq, fs)
        induced_sequence(seq, fs)
        phi(seq, fs)
    verify_f_equals_gamma(seq)
    for name, value in kept.items():
        assert getattr(seq, name) is value and value == getattr(fresh, name), name


class TestDeepChecks:
    def test_example_passes_all_suites(self, example):
        report = deep_report(example)
        assert all(report.values()), report

    @pytest.mark.parametrize("seed", [1, 2, 7, 11])
    def test_random_instances_pass_all_suites(self, seed):
        seq = random_sequence(2 + seed % 4, 2 + seed % 4, seed)
        report = deep_report(seq)
        assert all(report.values()), report


def pendant_at_the_start():
    """prefix(0) gains a vertex hanging off +e1: gamma stays defined, the increment breaks."""
    seq = KeptHistory(sequence_from_edges(2, [(0, 2), (0, 4)]))
    start = seq.prefix(0)
    start.final = FlagComplex(list(start.final.vertices) + [99], start.final.edges() + [(0, 99)])
    return seq


def k_entry_dropped():
    """K(+e3) after step 1 should be {w1}."""
    seq = KeptHistory(sequence_from_edges(4, EXAMPLE_STEPS))
    seq.prefix(1).k_table[4] = frozenset()
    return seq


def commuting_steps_reversed():
    """The empty face's recipe replays the two disjoint subdivisions in the other order.

    Its result is still the final complex, but W(empty face) becomes (w2, w1).
    """
    seq = sequence_from_edges(3, [(0, 2), (1, 3)])
    steps = tuple((s.edge, s.new_vertex) for s in reversed(seq.steps))
    return RecipesReplaced(seq, {(2, frozenset()): (((0, 1), (2, 3), (4, 5)), steps)})


def commuting_steps_reversed_at_a_vertex():
    """The recipe of {+e4} replays its two commuting subdivisions, of {+e1, +e2} and {-e1, +e3}, in the other order.

    Its result is still the link of +e4, and K(+e4) = {w1, w2}, but phi now
    sends w1 to the vertex that subdivides {-e1, +e3}, so the image fails
    on the single vertices +e2, -e2, +e3 and -e3, and only at {+e4}.
    """
    seq = sequence_from_edges(4, [(0, 2), (1, 4)])
    pairs, steps = _link_seq(seq, 2, frozenset({6}), {})
    return RecipesReplaced(seq, {(2, frozenset({6})): (pairs, steps[::-1])})


def link_pair_dropped():
    """The recipe of {w3} loses one antipodal pair, so its result is a proper part of the link."""
    seq = sequence_from_edges(4, EXAMPLE_STEPS)
    key = (3, frozenset({10}))
    pairs, steps = _link_seq(seq, *key, {})
    return RecipesReplaced(seq, {key: (pairs[:-1], steps)})


def pendant_added_at_step_2():
    """prefix(2) gains the vertex 99 and the edge (0, 99), neither of them in prefix(1)."""
    seq = KeptHistory(sequence_from_edges(4, EXAMPLE_STEPS))
    after = seq.prefix(2)
    after.final = FlagComplex(list(after.final.vertices) + [99], after.final.edges() + [(0, 99)])
    after.k_table[99] = frozenset()
    return seq


def pendant_moved_at_step_1():
    """The pendant 99 hangs off +e2 in prefix(0) and off +e1 in prefix(1).

    Every vertex of prefix(1) but w1 is one of prefix(0); the edge (0, 99) is not.
    """
    seq = KeptHistory(sequence_from_edges(4, EXAMPLE_STEPS))
    for j, v in ((0, 2), (1, 0)):
        state = seq.prefix(j)
        state.final = FlagComplex(list(state.final.vertices) + [99], state.final.edges() + [(v, 99)])
        state.k_table[99] = frozenset()
    return seq


def endpoint_swapped_at_step_1():
    """prefix(1) with +e1 and -e1 swapped: isomorphic, and no edge away from w1 is new.

    But {-e1, +e3, +e4, w1} is now an F3 face whose transformed face is not in prefix(0).
    """
    seq = KeptHistory(sequence_from_edges(4, EXAMPLE_STEPS))
    state = seq.prefix(1)
    state.final = state.final.relabel({v: {0: 1, 1: 0}.get(v, v) for v in state.final.vertices})
    return seq


def step_2_logged_as(step):
    """The worked example's genuine replayed states, kept, under a step log whose step 2 reads ``step``."""
    genuine = KeptHistory(sequence_from_edges(4, EXAMPLE_STEPS))
    steps = list(genuine.steps)
    steps[1] = SubdivisionStep(*step)
    seq = SubdivisionSequence(
        4, tuple(steps), genuine.final, genuine.k_table, genuine.gamma_edges, genuine.w_neighbors
    )
    return KeptHistory(seq, genuine.history)


def non_edge_logged_at_step_2():
    """Step 2 is logged as subdividing {+e1, -e1}, an antipodal pair and so no edge of prefix(1)."""
    return step_2_logged_as(((0, 1), 9))


def existing_id_logged_at_step_2():
    """Step 2 is logged as creating 8, which is w1, already a vertex of prefix(1)."""
    return step_2_logged_as(((4, 6), 8))


def gamma_edge_added():
    seq = sequence_from_edges(4, EXAMPLE_STEPS)
    return SubdivisionSequence(
        seq.d, seq.steps, seq.final, seq.k_table, seq.gamma_edges | {(9, 10)}, seq.w_neighbors
    )


def final_k_entry_off_the_gamma_complex():
    """K(+e1) in the final table reads {-e3}, a vertex of the cross polytope, instead of {w2}."""
    seq = sequence_from_edges(4, EXAMPLE_STEPS)
    table = dict(seq.k_table)
    table[0] = frozenset({5})
    return SubdivisionSequence(seq.d, seq.steps, seq.final, table, seq.gamma_edges, seq.w_neighbors)


def final_k_entry_off_with_a_gamma_edge_toggled():
    """K(-e1) in the final table reads {+e1}, and the gamma edge (w1, w2) is toggled."""
    seq = random_sequence(3, 3, 0)
    table = dict(seq.k_table)
    assert len(table[1]) == 1
    table[1] = frozenset({0})
    return SubdivisionSequence(
        seq.d, seq.steps, seq.final, table, seq.gamma_edges ^ {(6, 7)}, seq.w_neighbors
    )


def final_k_entry_emptied():
    """K(+e2) in the final table is empty, so |K| != |W| on {-e1, +e2}."""
    seq = sequence_from_edges(4, EXAMPLE_STEPS)
    table = dict(seq.k_table)
    table[2] = frozenset()
    return SubdivisionSequence(seq.d, seq.steps, seq.final, table, seq.gamma_edges, seq.w_neighbors)


def link_vertex_off_the_link():
    """In the 6-cycle 0-5-4-2-1-3, the recipe of {w2} names 1 in place of 0.

    Like 0, vertex 1 has no neighbor in the link {0, 4}, so only membership tells them apart.
    """
    seq = sequence_from_edges(2, [(0, 2), (0, 4)])
    assert _link_seq(seq, 2, frozenset({5}), {}) == (((0, 4),), ())
    return RecipesReplaced(seq, {(2, frozenset({5})): (((1, 4),), ())})


def w_label_repeated_then_k_entry_emptied():
    """``w_label_repeated`` applied to ``final_k_entry_emptied``."""
    return w_label_repeated(final_k_entry_emptied())


def link_vertex_renamed_then_k_entry_emptied():
    """``final_k_entry_emptied``, and the recipe of {+e1} names -e1 in place of w1."""
    seq = final_k_entry_emptied()
    pairs, steps = _link_seq(seq, 3, frozenset({0}), {})
    assert pairs[0] == (8, 3)
    return RecipesReplaced(seq, {(3, frozenset({0})): (((1, 3),) + pairs[1:], steps)})


def w_in_a_start_k_entry():
    """K_0(-e1) and K_1(-e1) both hold w1.

    -e1 is no neighbor of w1 and keeps its K, K(w1) = K_0(+e1) & K_0(+e2) and
    every common neighbor gains w1, so only "w1 is in no K_0 entry" fails.
    """
    seq = KeptHistory(sequence_from_edges(4, [(0, 2)]))
    seq.prefix(0).k_table[1] = seq.k_table[1] = frozenset({8})
    return seq


def new_vertex_off_its_id():
    """The one step of d=3 creates 7, not 2d = 6; the complex and every K-set agree with 7.

    So K of the empty face, the w ids (6,), does not gain the new vertex.
    """
    start = new_sequence(3).final
    table = {v: frozenset({7} if v in (4, 5) else ()) for v in range(6)}
    table[7] = frozenset()
    steps = (SubdivisionStep((0, 2), 7),)
    final = subdivide_edge(start, (0, 2), 7)
    return SubdivisionSequence(3, steps, final, table, frozenset(), (final.neighbors(7),))


def new_vertex_k_entry_emptied():
    """K(w2) reads empty, not K_1(+e3) & K_1(+e4) = {w1}, from step 2 on; w3's K agrees."""
    seq = KeptHistory(sequence_from_edges(4, EXAMPLE_STEPS))
    seq.prefix(2).k_table[9] = seq.k_table[9] = frozenset()
    return seq


def k_entry_missing():
    """The starting table has no entry for +e3."""
    seq = KeptHistory(sequence_from_edges(4, EXAMPLE_STEPS))
    del seq.prefix(0).k_table[4]
    return seq


def w_label_repeated(seq=None):
    """The empty face's recipe names w1 as the vertex of its third step too."""
    seq = seq or sequence_from_edges(4, EXAMPLE_STEPS)
    pairs, steps = _link_seq(seq, 3, frozenset(), {})
    return RecipesReplaced(seq, {(3, frozenset()): (pairs, steps[:-1] + (((0, 9), 8),))})


def step_off_an_edge():
    """The empty face's recipe subdivides its first antipodal pair, which is no edge, at its first step."""
    seq = sequence_from_edges(4, EXAMPLE_STEPS)
    pairs, steps = _link_seq(seq, 3, frozenset(), {})
    return RecipesReplaced(seq, {(3, frozenset()): (pairs, ((pairs[0], steps[0][1]),) + steps[1:])})


def final_edge_toggled():
    """The final complex of the worked example with the edge {+e1, +e2}, which step 1 subdivided, put back."""
    seq = sequence_from_edges(4, EXAMPLE_STEPS)
    final = FlagComplex(seq.final.vertices, seq.final.edges() + [(0, 2)])
    return SubdivisionSequence(seq.d, seq.steps, final, seq.k_table, seq.gamma_edges, seq.w_neighbors)


def w_neighbors_entry_changed():
    """N_2(w2) is recorded without +e1, a common neighbor of +e3 and +e4 that w2 is joined to."""
    seq = sequence_from_edges(4, EXAMPLE_STEPS)
    near = list(seq.w_neighbors)
    near[1] = near[1] - {0}
    return SubdivisionSequence(seq.d, seq.steps, seq.final, seq.k_table, seq.gamma_edges, tuple(near))


def non_edge_logged_at_step_2_unkept():
    """``non_edge_logged_at_step_2`` with no kept history: the suites replay the step log, and ``extend`` refuses step 2."""
    return stored(non_edge_logged_at_step_2())


def new_vertices_numbered_out_of_order():
    """Steps {+e1, +e2} and {+e3, +e4} create 9 and then 8; the final complex, N_j(w_j) and every K-set agree with that.

    The replayed history, which the suites read, numbers them 8 and 9.
    """
    genuine = sequence_from_edges(4, [(0, 2), (4, 6)])
    swap = {8: 9, 9: 8}.get
    one = subdivide_edge(new_sequence(4).final, (0, 2), 9)
    two = subdivide_edge(one, (4, 6), 8)
    table = {swap(v, v): frozenset(swap(x, x) for x in ks) for v, ks in genuine.k_table.items()}
    gamma = frozenset((swap(x, x), swap(w, w)) for x, w in genuine.gamma_edges)
    steps = (SubdivisionStep((0, 2), 9), SubdivisionStep((4, 6), 8))
    return SubdivisionSequence(4, steps, two, table, gamma, (one.neighbors(9), two.neighbors(8)))


def final_k_entries_deleted(vertices):
    """The worked example with the final table's entries of ``vertices`` deleted."""
    seq = sequence_from_edges(4, EXAMPLE_STEPS)
    table = {v: ks for v, ks in seq.k_table.items() if v not in vertices}
    return SubdivisionSequence(seq.d, seq.steps, seq.final, table, seq.gamma_edges, seq.w_neighbors)


def final_k_entry_missing():
    """The final table has no entry for +e3."""
    return final_k_entries_deleted({4})


def deep_failures_or_error(seq):
    """``deep_failures(seq)``, or the type and the message of the error it raises."""
    try:
        return deep_failures(seq)
    except (KeyError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


def assert_read_as_stored(seq):
    """``deep_failures`` gives on ``seq`` what it gives on the sequence of its stored fields, or raises alike.

    ``--deep`` decides on what a sequence stores, never on a replayed
    history, so a ``KeptHistory`` whose kept states alone are corrupted
    reads as the genuine sequence it stores.
    """
    assert deep_failures_or_error(seq) == deep_failures_or_error(stored(seq))


def replayed_verdicts(seq):
    """The two verdicts of ``helpers.replaying_forward_pass``, which reads the replayed history; None where it carries no layer."""
    carried = replaying_forward_pass(seq)
    return carried and tuple(carried[:2])


# Ways to replace a recipe: by the one ``_link_seq`` builds, or by one off by one change.
CORRUPTIONS = [
    lambda r: r,
    lambda r: (r[0][:-1], r[1]),
    lambda r: (r[0], r[1][::-1]),
    lambda r: (r[0], r[1][:-1]),
    lambda r: (tuple((v, u) for u, v in r[0]), r[1]),
]


@pytest.fixture
def replaced_recipes(monkeypatch):
    """Every reader of recipes reads those that a ``RecipesReplaced`` sequence names."""
    read_replaced_recipes(monkeypatch)


def suite_failures(seq):
    """The seven suites' lists, as ``deep_failures`` must give them.

    Where recipes are replaced, and so off the W rule, the W list is [] all
    the same: ``deep_failures`` takes the W rules from the memo lemma.
    """
    out = {name: suite(seq) for name, suite in SUITES.items()}
    if isinstance(seq, RecipesReplaced):
        out["w_recursion"] = []
    return out


def walk_key(seq, fs):
    """K(F) and N(F) of a face of the final complex, as sets: the key the final walk holds as masks."""
    return frozenset(k_set(seq, fs)), seq.final.common_neighbors(fs)


class TestDeepFailures:
    """``deep_failures`` against the seven one-sweep suite functions."""

    @staticmethod
    def assert_same_as_the_suites(seq):
        got = deep_failures(seq)
        assert list(got) == list(SUITES) == list(deep_report(seq))
        assert got == suite_failures(seq)

    @given(st.integers(2, 6), st.integers(0, 8), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_matches_the_suites_on_random_sequences(self, d, k, seed):
        self.assert_same_as_the_suites(random_sequence(d, k, seed))

    def test_matches_the_suites_on_the_worked_example(self):
        self.assert_same_as_the_suites(sequence_from_edges(4, EXAMPLE_STEPS))

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("k_recursion", final_k_entry_moved),
            ("link_recursion", link_pair_dropped),
            ("phi_image", final_k_entry_moved),
            ("phi_image", commuting_steps_reversed_at_a_vertex),
            ("gamma_restriction", gamma_edge_added),
        ],
    )
    def test_a_corrupted_sequence_fails_alike(self, name, corrupt, replaced_recipes):
        seq = corrupt()
        assert SUITES[name](seq)
        self.assert_same_as_the_suites(seq)
        assert deep_report(seq)[name] is False

    @pytest.mark.parametrize(
        "name, corrupt, replayed",
        [
            ("increment_identity", pendant_at_the_start, None),
            ("k_recursion", k_entry_dropped, (True, False)),
            ("oracle_equivalence", pendant_at_the_start, None),
        ],
    )
    def test_a_corrupted_history_fails_the_suite_and_the_replaying_pass(self, name, corrupt, replayed):
        # only the kept history is corrupted: the suite and the replaying
        # pass, which read it, catch that, and deep_failures, which decides
        # on what the sequence stores, reads the genuine stored sequence
        seq = corrupt()
        assert SUITES[name](seq)
        assert replayed_verdicts(seq) == replayed
        assert_read_as_stored(seq)
        assert deep_failures(seq) == dict.fromkeys(SUITES, [])

    @pytest.mark.parametrize(
        "corrupt, error, message",
        [
            (final_edge_toggled, ValueError, "found a clique of 5 vertices but d=4"),
            (w_neighbors_entry_changed, RuntimeError, "internal inconsistency: |K|=1 but |W|=0 for {0}"),
            (non_edge_logged_at_step_2_unkept, ValueError, "step 2: (0, 1) is not an edge of the current complex"),
            (new_vertices_numbered_out_of_order, ValueError, "{0, 8, 4, 6} is not a face of complex 0"),
        ],
    )
    def test_a_corrupted_stored_field_fails_or_raises_alike(self, corrupt, error, message):
        # the forward pass finds each at its step, or at the end, and carries
        # no layer, so every suite runs; the replaying pass carries none
        # either, or raises extend's error in its replay.  A step before
        # the last that logs a w off its id carries no layer, as the
        # history the suites read numbers it otherwise
        seq = corrupt()
        assert checks._forward_pass(seq) is None
        with pytest.raises(error) as got:
            deep_failures(seq)
        assert str(got.value) == message
        self.assert_same_or_raised_alike(seq)

    def test_the_w_suite_catches_a_recursion_off_the_w_rule(self, replaced_recipes):
        # deep_failures takes the W rules from the memo lemma, which holds for
        # the recipes _link_seq builds; a replaced recipe breaks it, and only
        # the W suite, the oracle of the recursion, compares it with the rule
        seq = commuting_steps_reversed()
        assert w_rule_failures(seq) == ["step 2, face [], class F4: W=[7, 6] expected [6, 7]"]
        got = deep_failures(seq)
        assert got == suite_failures(seq)
        assert not any(got.values())

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (pendant_added_at_step_2, "{0, 99} is not a face of complex 1"),
            (pendant_moved_at_step_1, "{0, 99} is not a face of complex 0"),
            (endpoint_swapped_at_step_1, "{0, 1, 2, 4, 6} is not a face of complex 0"),
        ],
    )
    def test_a_transformed_face_off_the_previous_complex_raises_in_the_k_suite(self, corrupt, message):
        # each breaks the subdivision premise at its step of the kept
        # history, so the K suite, which validates every transformed face of
        # that history, raises, and the replaying pass carries no layer;
        # deep_failures reads the genuine stored sequence
        with pytest.raises(ValueError) as expected:
            k_rule_failures(corrupt())
        assert str(expected.value) == message
        assert replaying_forward_pass(corrupt()) is None
        assert_read_as_stored(corrupt())
        assert deep_failures(corrupt()) == dict.fromkeys(SUITES, [])

    @given(
        st.integers(2, 5),
        st.integers(0, 6),
        st.integers(0, 10**6),
        st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.sampled_from(CORRUPTIONS)), max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_suites_with_replaced_recipes(self, d, k, seed, seeds):
        # recipes replaced at any layer, honest or corrupted, are read alike
        # by deep_failures and the suites; the result, or the error, is that
        # of the suites, but for the W list, [] by construction
        seq = random_sequence(d, k, seed)
        replaced = {}
        for at, pick, corruption in seeds:
            j = round(at * k)
            faces = sorted(seq.prefix(j).final.faces(), key=sorted)
            fs = faces[int(pick * (len(faces) - 1))]
            replaced[j, fs] = corruption(_link_seq(seq, j, fs, {}))
        with pytest.MonkeyPatch.context() as mp:
            read_replaced_recipes(mp)
            self.assert_same_or_raised_alike(RecipesReplaced(seq, replaced))

    @pytest.mark.parametrize(
        "edges, face, corrupt, failing",
        [
            ([(0, 2), (1, 4)], {7}, lambda r: (r[0], r[1][::-1]), "phi_image"),
            (EXAMPLE_STEPS, {0, 4, 8}, lambda r: (r[0][:-1], r[1]), "link_recursion"),
        ],
        ids=["steps reversed at -e4", "pair dropped at a ridge"],
    )
    def test_the_walk_checks_the_recipe_of_a_repeated_pair(self, edges, face, corrupt, failing, replaced_recipes):
        # a face takes the verdicts of an earlier face with its K(F) and N(F)
        # only where its recipe is that face's too (the verdict lemma); here
        # the replaced recipe fails one suite at ``face`` alone, and the
        # earlier face with its masks passes.  A verdict of the walk is True
        # only where its suite gives []
        seq = sequence_from_edges(4, edges)
        fs = frozenset(face)
        assert next(gs for gs in seq.final.faces() if walk_key(seq, gs) == walk_key(seq, fs)) != fs
        replaced = RecipesReplaced(seq, {(seq.k, fs): corrupt(_link_seq(seq, seq.k, fs, {}))})
        expected = suite_failures(replaced)
        verdicts = checks._final_verdicts(replaced, checks._forward_pass(replaced)[2])
        assert expected[failing]
        walked = ("link_recursion", "phi_image", "gamma_restriction")
        assert not any(ok and expected[key] for ok, key in zip(verdicts, walked))
        self.assert_same_or_raised_alike(replaced)

    @staticmethod
    def assert_same_or_raised_alike(seq):
        """The result of ``deep_failures`` is the suites', or the error it raises is one a suite raises."""
        try:
            got = deep_failures(seq)
        except (KeyError, RuntimeError, ValueError) as exc:
            raised = []
            for suite in SUITES.values():
                try:
                    suite(seq)
                except (KeyError, RuntimeError, ValueError) as other:
                    raised.append((type(other), str(other)))
            assert (type(exc), str(exc)) in raised
        else:
            assert got == suite_failures(seq)

    @given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10**6), st.floats(0, 1), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_suites_with_a_recorded_neighborhood_changed(self, d, k, seed, at, pick):
        # one N_j(w_j) loses or gains a vertex of step j's complex, so the
        # recorded neighborhoods and the replayed complexes disagree there
        seq = random_sequence(d, k, seed)
        j = round(at * (k - 1))
        w = seq.steps[j].new_vertex
        vertices = sorted(seq.prefix(j + 1).final.vertices - {w})
        v = vertices[pick % len(vertices)]
        near = list(seq.w_neighbors)
        near[j] = near[j] ^ {v}
        changed = SubdivisionSequence(d, seq.steps, seq.final, seq.k_table, seq.gamma_edges, tuple(near))
        self.assert_same_or_raised_alike(changed)

    @pytest.mark.parametrize("moved", [False, True], ids=["dropped", "moved"])
    def test_a_base_one_edge_off_the_link_fails_alike(self, moved, monkeypatch):
        # every base with an edge loses its last edge, or has it moved to its
        # first antipodal pair: a face's induced result then has N(F) as its
        # vertices, under distinct labels, and either only edges of the link,
        # one too few, or as many edges as the link, one of them no edge of
        # it; so of the mask link check only the edge count, or only the
        # edge map, tells it from the link.  The final walk's tables and the
        # suites' bases lose the same edge
        build, tables = subdivision._build_base, checks._Shape

        def one_edge_off(edges):
            return edges[:-1] + [(0, 1)] * moved if edges else edges

        def base_off(shape):
            base = build(shape)
            base.final = FlagComplex(base.final.vertices, one_edge_off(base.final.edges()))
            return base

        def tables_off(shape):
            out = tables(shape)
            edges = one_edge_off(sorted(zip(out.ends, out.other_ends)))
            out.ends, out.other_ends = [x for x, _ in edges], [y for _, y in edges]
            return out

        monkeypatch.setattr(subdivision, "_build_base", base_off)
        monkeypatch.setattr(checks, "_Shape", tables_off)
        seq = random_sequence(4, 3, 1)
        failing = [fs for fs in seq.final.faces() if link(seq.final, fs).edges()]
        for fs in failing:
            got, expected = induced_sequence(seq, fs).result(), link(seq.final, fs)
            assert got.vertices == expected.vertices
            assert len(got.edges()) == len(expected.edges()) - (not moved)
            assert (set(got.edges()) <= set(expected.edges())) is not moved
        assert link_recursion_failures(seq) == [
            f"face {sorted(fs)}: induced result differs from link" for fs in failing
        ]
        if moved:
            # the moved edge makes a face of the result that is no face of
            # the complex, on which the phi suite raises
            self.assert_same_or_raised_alike(seq)
        else:
            self.assert_same_as_the_suites(seq)

    def test_a_label_given_twice_raises_alike(self, monkeypatch):
        # the link of a ridge is two points; its base gains an isolated third
        # vertex, labeled as the first: the labels then cover N(F), the base
        # has no edge and the link none, so of the mask link check only the
        # bijection condition tells them apart, and relabeling raises.  The
        # final walk translates and tables the same way as the suites
        translate, build, tables = subdivision._translate, subdivision._build_base, checks._Shape

        def twice(recipe):
            shape, labels = translate(recipe)
            return shape, labels + labels[:1] if shape == (1, ()) else labels

        def isolated(shape):
            base = build(shape)
            if shape == (1, ()):
                base.final = FlagComplex([0, 1, 2])
            return base

        def isolated_tables(shape):
            out = tables(shape)
            if shape == (1, ()):
                out.k_ranks.append([])
            return out

        monkeypatch.setattr(subdivision, "_translate", twice)
        monkeypatch.setattr(checks, "_translate", twice)
        monkeypatch.setattr(subdivision, "_build_base", isolated)
        monkeypatch.setattr(checks, "_Shape", isolated_tables)
        seq = sequence_from_edges(4, EXAMPLE_STEPS)
        ridge = next(fs for fs in seq.final.faces() if len(fs) == 3)
        labels = twice(_link_seq(seq, 3, ridge, {}))[1]
        assert set(labels) == link(seq.final, ridge).vertices and len(labels) == 3
        with pytest.raises(ValueError) as expected:
            link_recursion_failures(seq)
        with pytest.raises(ValueError) as got:
            deep_failures(seq)
        assert str(got.value) == str(expected.value) == "relabel mapping is not a bijection on the vertex set"
        self.assert_same_or_raised_alike(seq)

    def test_pinned_failure_strings(self, replaced_recipes):
        assert deep_failures(final_k_entry_moved())["k_recursion"] == [
            "step 4, face [2], class F5: K=[9] expected [6]"
        ]
        assert deep_failures(link_pair_dropped())["link_recursion"] == [
            "face [10]: induced result differs from link"
        ]
        assert deep_failures(final_k_entry_moved())["phi_image"] == [
            "F=[], G=[2]: phi image [9] != link K-set [6]"
        ]
        assert deep_failures(gamma_edge_added())["gamma_restriction"] == [
            f"face {face}: restricted gamma complex mismatch" for face in ([], [3], [8])
        ]
        # corruptions of a kept history alone: the suites give the strings,
        # and deep_failures reads the genuine stored sequence
        assert k_rule_failures(k_entry_dropped())[:4] == [
            "step 1, face [4], class F4: K=[] expected [8]",
            "step 1, face [4, 6], class F4: K=[] expected [8]",
            "step 1, face [4, 7], class F4: K=[] expected [8]",
            "step 2, face [4], class F1: K=[8] expected []",
        ]
        assert increment_identity_failures(pendant_at_the_start()) == ["step 1: gamma increment [] != t*[1]"]
        for corrupt in (k_entry_dropped, pendant_at_the_start):
            assert deep_failures(corrupt()) == deep_failures(stored(corrupt())) == dict.fromkeys(SUITES, [])


# The five suites whose verdicts come from the shared walks of ``deep_failures``.
WALK_FED = ("k_recursion", "w_recursion", "link_recursion", "phi_image", "gamma_restriction")


def deep_failures_spied(seq, called, refuse=False):
    """``deep_failures(seq)``, appending to ``called`` the walk-fed suite functions it calls.

    With ``refuse`` each of them raises instead of running.
    """
    with pytest.MonkeyPatch.context() as mp:
        for name in WALK_FED:
            suite = SUITES[name]

            def spy(arg, name=name, suite=suite):
                called.append(name)
                if refuse:
                    raise AssertionError(f"{name} ran on a sequence its walk should pass")
                return suite(arg)

            mp.setattr(checks, suite.__name__, spy)
        return deep_failures(seq)


class TestDeepWalksDecide:
    """The shared walks decide; a walk-fed suite function runs only where it must."""

    @given(st.integers(2, 6), st.integers(0, 8), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_valid_sequences_call_no_suite(self, d, k, seed):
        deep_failures_spied(random_sequence(d, k, seed), [], refuse=True)

    def test_a_larger_valid_sequence_calls_no_suite(self):
        deep_failures_spied(random_sequence(5, 8, 1), [], refuse=True)

    @pytest.mark.parametrize(
        "corrupt, expected",
        [
            # only the kept history is corrupted, which the forward pass
            # does not read: it carries the layer and passes every check
            (pendant_at_the_start, []),
            (k_entry_dropped, []),
            # the W rules hold by construction, and the replaced recipe keeps
            # the link, phi and the gamma restriction
            (commuting_steps_reversed, []),
            # the induced result of {w3} is not its link, which the singleton
            # lemma needs, so the phi image comes from its suite, which passes
            (link_pair_dropped, ["link_recursion", "phi_image"]),
            (final_k_entry_moved, ["k_recursion", "phi_image"]),
            (gamma_edge_added, ["gamma_restriction"]),
        ],
    )
    def test_a_corrupted_sequence_calls_the_failing_suites(self, corrupt, expected, replaced_recipes):
        called = []
        deep_failures_spied(corrupt(), called)
        assert called == expected

    @pytest.mark.parametrize(
        "corrupt", [pendant_added_at_step_2, pendant_moved_at_step_1, endpoint_swapped_at_step_1]
    )
    def test_a_premise_broken_in_a_kept_history_alone_calls_no_suite(self, corrupt):
        # the K suite, which reads the kept history, raises on it; the
        # forward pass decides on the genuine stored sequence and passes it
        with pytest.raises(ValueError, match="is not a face of complex"):
            k_rule_failures(corrupt())
        called = []
        assert deep_failures_spied(corrupt(), called) == deep_failures(stored(corrupt()))
        assert called == []


    # the forward pass fails the K rules, so the K suite gives its list; the
    # final K-table then breaks phi, so the phi suite runs next and raises
    @pytest.mark.parametrize(
        "corrupt, first_k_failure, error, message",
        [
            (
                w_in_a_start_k_entry,
                "step 1, face [1, 4], class F5: K=[8] expected []",
                RuntimeError,
                "internal inconsistency: |K|=1 but |W|=0 for {1}",
            ),
            (new_vertex_off_its_id, "step 1, face [], class F4: K=[6] expected [7]", KeyError, "7"),
            (
                new_vertex_k_entry_emptied,
                "step 2, face [4, 9], class F2: K=[] expected [8]",
                RuntimeError,
                "internal inconsistency: |K|=0 but |W|=1 for {9, 4}",
            ),
        ],
    )
    def test_a_broken_k_update_is_caught_before_the_final_walk(
        self, corrupt, first_k_failure, error, message
    ):
        assert k_rule_failures(corrupt())[0] == first_k_failure
        called = []
        with pytest.raises(error) as expected:
            phi_image_failures(corrupt())
        with pytest.raises(error) as got:
            deep_failures_spied(corrupt(), called)
        assert str(got.value) == str(expected.value) == message
        assert called == ["k_recursion", "phi_image"]
        assert_read_as_stored(corrupt())

    def test_a_missing_k_entry_raises_from_the_k_suite(self):
        # where only the kept start table lacks the entry, the K suite and
        # the replaying pass read it, and deep_failures reads the stored
        # sequence, which has it; where the final table lacks it,
        # deep_failures raises as the K suite does
        with pytest.raises(KeyError) as got:
            k_rule_failures(k_entry_missing())
        assert str(got.value) == "4"
        assert replayed_verdicts(k_entry_missing()) == (True, False)
        called = []
        assert deep_failures_spied(k_entry_missing(), called) == deep_failures(stored(k_entry_missing()))
        assert called == []
        with pytest.raises(KeyError) as expected:
            k_rule_failures(final_k_entry_missing())
        with pytest.raises(KeyError) as got:
            deep_failures(final_k_entry_missing())
        assert str(got.value) == str(expected.value) == "4"

    @pytest.mark.parametrize("seed", range(10))
    def test_an_extend_that_skips_a_common_neighbor_is_caught(self, seed, monkeypatch):
        real = subdivision.extend

        def faulty(seq, *edges):
            # the real extend one edge at a time, so that every step, not
            # only a batch's last, skips; only steps whose edge has a common
            # neighbor: the base of a link on two pairs is a square, whose
            # edges have none
            for edge in edges:
                out = real(seq, edge)
                common = seq.final.common_neighbors(tuple(edge))
                if common:
                    out.k_table[min(common)] = seq.k_table[min(common)]
                seq = out
            return seq

        monkeypatch.setattr(subdivision, "extend", faulty)
        seq = random_sequence(4, 5, seed)
        assert k_rule_failures(seq)
        called = []
        with pytest.raises(RuntimeError, match="internal inconsistency"):
            deep_failures_spied(seq, called)
        # the K suite gives its list, and the phi suite raises
        assert called == ["k_recursion", "phi_image"]


class TestForwardPass:
    """The recipes and the face set that ``checks._forward_pass`` carries from step to step."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_the_start_layer_is_the_walk_over_the_cross_polytope(self, d):
        walked = {checks._mask(fs): _start_recipe(d, fs) for fs in cross_polytope(d).faces()}
        assert _start_layer(d) == walked

    @given(st.integers(2, 6), st.integers(0, 12), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_every_warmed_recipe_is_the_recursions(self, d, k, seed):
        # the returned layer holds one plain-tuple recipe per face of the
        # final complex, the recursion's
        seq = random_sequence(d, k, seed)
        *verdicts, layer = checks._forward_pass(seq)
        assert verdicts == [True, True]
        fresh = random_sequence(d, k, seed)
        faces = list(seq.final.faces())
        assert sorted(layer) == sorted(checks._mask(fs) for fs in faces)
        for fs in faces:
            recipe = layer[checks._mask(fs)]
            assert type(recipe) is tuple and recipe == _link_seq(fresh, k, fs, {}), sorted(fs)

    @given(st.integers(2, 6), st.integers(0, 8), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_the_final_walk_builds_no_recipe(self, d, k, seed):
        # the walk reads every recipe from the layer
        seq = random_sequence(d, k, seed)
        layer = checks._forward_pass(seq)[2]
        built = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subdivision, "_link_seq", lambda *args: built.append(args[2]) or _link_seq(*args))
            assert checks._final_verdicts(seq, layer) == (True, True, True)
        assert built == []

    @pytest.mark.parametrize(
        "corrupt, expected",
        [
            (link_pair_dropped, (False, False, True)),
            (commuting_steps_reversed_at_a_vertex, (True, False, True)),
            (gamma_edge_added, (True, True, False)),
        ],
    )
    def test_a_corrupted_layer_gives_the_verdicts_of_the_built_recipes(self, corrupt, expected, replaced_recipes):
        seq = corrupt()
        layer = checks._forward_pass(seq)[2]
        assert checks._final_verdicts(seq, layer) == expected

    @given(st.integers(2, 6), st.integers(0, 8), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_valid_sequences_never_call_the_face_set_oracle(self, d, k, seed):
        called = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "oracle_failures", lambda seq: called.append(seq) or [])
            assert deep_failures(random_sequence(d, k, seed))["oracle_equivalence"] == []
        assert called == []

    def test_a_face_set_diverging_in_a_kept_history_alone_is_the_oracles_to_find(self, monkeypatch):
        # the face-set oracle replays the kept history and finds the
        # pendant; deep_failures decides on the genuine stored sequence, so
        # it passes the face sets by the edge-subdivision lemma and calls
        # no oracle, and the replaying pass carries no layer
        assert oracle_failures(pendant_at_the_start()) == [
            f"step {j}: face sets diverge from graph subdivision" for j in (1, 2)
        ]
        assert replaying_forward_pass(pendant_at_the_start()) is None
        called, real = [], checks.oracle_failures
        monkeypatch.setattr(checks, "oracle_failures", lambda seq: called.append(seq) or real(seq))
        assert deep_failures(pendant_at_the_start())["oracle_equivalence"] == []
        assert called == []

    @staticmethod
    def patch_graph_rule(monkeypatch, drop):
        """Make ``subdivision.extend`` drop the edge ``drop(c, edge, w)`` at every step, c the complex before it.

        The real ``extend`` runs one edge at a time, so every step of a
        batch, not only its last, drops its edge, and the next step reads
        the complex with the edge dropped; N_j(w) is read from that complex
        too.  ``checks`` binds no ``extend`` of its own, so the patch
        reaches every replay and every base the suite functions build; the
        forward pass applies the edge-subdivision rule to a state of its
        own and calls no ``extend``, so it sees each dropped edge in the
        recorded N_j(w) or in the final complex.  A sequence to test is
        drawn by ``reference_random_sequence``, from each patched complex in
        turn.
        """
        real = subdivision.extend

        def faulty(seq, *edges):
            for edge in edges:
                out = real(seq, edge)
                (a, b), w = out.steps[-1]
                gone = drop(seq.final, (a, b), w)
                final = FlagComplex(out.final.vertices, [e for e in out.final.edges() if e != gone])
                seq = SubdivisionSequence(
                    out.d, out.steps, final, out.k_table, out.gamma_edges, seq.w_neighbors + (final.neighbors(w),)
                )
            return seq

        assert not hasattr(checks, "extend")
        monkeypatch.setattr(subdivision, "extend", faulty)

    def test_a_graph_rule_that_drops_a_common_neighbor_is_caught(self, monkeypatch):
        # every step of the sequence comes from the faulty rule; the rule
        # check finds that, and the face set, replayed without it, diverges
        self.patch_graph_rule(monkeypatch, lambda c, edge, s: (min(c.common_neighbors(edge)), s))
        seq = reference_random_sequence(4, 5, 1)
        assert checks._forward_pass(seq) is None
        assert oracle_failures(seq)[0] == "step 1: face sets diverge from graph subdivision"

    @pytest.mark.parametrize(
        "drop",
        [
            # w1 misses +e2, a common neighbor of the edge: an entry the rule sets differs
            lambda c, edge, s: (min(c.common_neighbors(edge)), s),
            # -e1 and -e4 part, away from the edge: entries the rule keeps differ
            lambda c, edge, s: (1, 7),
        ],
        ids=["coned", "dropped"],
    )
    def test_each_delta_is_compared(self, drop, monkeypatch):
        self.patch_graph_rule(monkeypatch, drop)
        seq = reference_random_sequence(4, 1, 1)
        assert seq.steps[0] == ((0, 6), 8)
        assert not seq.final.has_edge(*drop(seq.prefix(0).final, (0, 6), 8))
        # where the step breaks the rule, the face sets diverge, and the pass
        # carries no layer and decides nothing
        assert checks._forward_pass(seq) is None

    def test_a_start_off_the_cross_polytope_carries_no_layer(self):
        # every complex carries the pendant 99 at +e1, so each step is an
        # edge subdivision; but the start recipe of {+e1, 99} holds +e2 although
        # {+e1, +e2, 99} is no face, and step 1 renames it
        seq = KeptHistory(sequence_from_edges(2, [(0, 2)]))
        square = seq.prefix(0).final
        start = FlagComplex(list(square.vertices) + [99], square.edges() + [(0, 99)])
        seq.prefix(0).final = start
        seq.prefix(0).k_table[99] = frozenset()
        (a, b), w = seq.steps[0]
        final = subdivide_edge(start, (a, b), w)
        moved = KeptHistory(
            SubdivisionSequence(
                2, seq.steps, final, {**seq.k_table, 99: frozenset()}, seq.gamma_edges, seq.w_neighbors
            ),
            seq.history,
        )
        assert checks._forward_pass(moved) is None
        assert increment_identity_failures(moved) == []
        assert _link_seq(moved, 1, frozenset({0, 99}), {})[0] == ((4, 3),)


def stored_field_corrupted(seq, field, at, pick):
    """The plain sequence of ``seq``'s stored fields with one of them changed, chosen by ``field``, ``at`` and ``pick``.

    "final" joins or parts one pair of final vertices; "w_neighbors" adds or
    drops one vertex of one recorded N_j(w_j); "k_table" adds or drops one w
    id in one final K entry; "new vertex" gives one step another w, an old
    id or a new one; "edge" gives one step another pair of ids.
    """
    d, k = seq.d, seq.k
    steps, near, table, final = list(seq.steps), list(seq.w_neighbors), dict(seq.k_table), seq.final
    vertices = sorted(final.vertices)
    j = round(at * (k - 1))
    if field == "final":
        final = toggled(final, at, pick)
    elif field == "w_neighbors":
        near[j] = near[j] ^ {vertices[pick % len(vertices)]}
    elif field == "k_table":
        v = vertices[int(at * (len(vertices) - 1))]
        table[v] = table[v] ^ {seq.w_id(pick % k + 1)}
    elif field == "new vertex":
        steps[j] = SubdivisionStep(steps[j].edge, pick % (2 * d + k + 2))
    else:
        edge = vertices[pick % len(vertices)], vertices[(pick // 7) % len(vertices)]
        steps[j] = SubdivisionStep(edge, steps[j].new_vertex)
    return SubdivisionSequence(d, tuple(steps), final, table, seq.gamma_edges, tuple(near))


class TestPassOnItsOwnState:
    """``checks._forward_pass``, on a state of its own, against ``helpers.replaying_forward_pass``, which replays history.

    On a sequence with no kept history the two give the same verdicts and
    an equal layer, or both carry none, or the replay raises ``extend``'s
    error on a logged step off an edge where the pass carries no layer.
    """

    @staticmethod
    def assert_same_as_the_replay(seq):
        got = checks._forward_pass(seq)
        try:
            expected = replaying_forward_pass(seq)
        except ValueError as exc:
            assert "is not an edge of the current complex" in str(exc)
            assert got is None
        else:
            assert got == expected
        return got

    @given(st.integers(2, 7), st.integers(0, 12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_sequences(self, d, k, seed):
        seq = random_sequence(d, k, seed)
        got = self.assert_same_as_the_replay(seq)
        assert got[:2] == (True, True) and len(got[2]) == len(list(seq.final.faces()))

    @pytest.mark.parametrize(
        "corrupt",
        [
            final_edge_toggled,
            w_neighbors_entry_changed,
            non_edge_logged_at_step_2_unkept,
            new_vertices_numbered_out_of_order,
            final_k_entry_missing,
            final_k_entry_moved,
            final_k_entry_emptied,
            final_k_entry_off_the_gamma_complex,
            final_k_entry_off_with_a_gamma_edge_toggled,
            new_vertex_off_its_id,
            gamma_edge_added,
            lambda: stored(existing_id_logged_at_step_2()),
            lambda: stored(w_in_a_start_k_entry()),
            lambda: stored(new_vertex_k_entry_emptied()),
        ],
    )
    def test_corrupted_stored_fields(self, corrupt):
        self.assert_same_as_the_replay(corrupt())

    @given(
        st.integers(2, 6),
        st.integers(1, 10),
        st.integers(0, 10**6),
        st.sampled_from(["final", "w_neighbors", "k_table", "new vertex", "edge"]),
        st.floats(0, 1),
        st.integers(0, 60),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_corrupted_stored_field(self, d, k, seed, field, at, pick):
        self.assert_same_as_the_replay(stored_field_corrupted(random_sequence(d, k, seed), field, at, pick))

    def test_the_pass_replays_nothing(self, monkeypatch):
        # it reads what the sequence stores: no state is replayed and no
        # extend called
        seq = random_sequence(5, 8, 1)

        def refuse(*args):
            raise AssertionError("the forward pass read a replayed history")

        monkeypatch.setattr(SubdivisionSequence, "states", refuse)
        monkeypatch.setattr(SubdivisionSequence, "prefix", refuse)
        monkeypatch.setattr(subdivision, "extend", refuse)
        assert checks._forward_pass(seq)[:2] == (True, True)


def toggled(c, at, pick):
    """``c`` with one pair of its vertices, chosen by ``at`` and ``pick``, joined or parted."""
    vertices = sorted(c.vertices)
    u = vertices[int(at * (len(vertices) - 1))]
    v = [x for x in vertices if x != u][pick % (len(vertices) - 1)]
    edges = set(c.edges())
    edges ^= {tuple(sorted((u, v)))}
    return FlagComplex(vertices, edges)


class TestIncrementVerdict:
    """The increment identity as ``checks._forward_pass`` decides it, against its suite."""

    @given(
        st.integers(2, 6),
        st.integers(0, 12),
        st.integers(0, 10**6),
        st.sampled_from(["none", "history", "final", "graph_rule"]),
        st.floats(0, 1),
        st.floats(0, 1),
        st.integers(0, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_verdict_holds_exactly_where_the_suite_passes(self, d, k, seed, corrupt, step, at, pick):
        # the pass leaves every suite to its function where the premise
        # fails, and returns None; elsewhere its verdict is True exactly
        # where the suite returns []
        with pytest.MonkeyPatch.context() as mp:
            if corrupt == "graph_rule":
                TestForwardPass.patch_graph_rule(
                    mp, lambda c, edge, s: (min(c.common_neighbors(edge), default=edge[0]), s)
                )
                seq = reference_random_sequence(d, k, seed)
            else:
                seq = random_sequence(d, k, seed)
            if corrupt == "history" and k:
                seq = KeptHistory(seq)
                state = seq.history[int(step * (k - 1))]
                state.final = toggled(state.final, at, pick)
            elif corrupt == "final":
                seq = SubdivisionSequence(
                    d, seq.steps, toggled(seq.final, at, pick), seq.k_table, seq.gamma_edges, seq.w_neighbors
                )
            # the forward pass decides on what the sequence stores, the
            # replaying pass on the history the suite reads
            carried, replayed = checks._forward_pass(seq), replaying_forward_pass(seq)
            if carried is not None:
                assert carried[0] == self.suite_passes(stored(seq))
            if replayed is not None:
                assert replayed[0] == self.suite_passes(seq)
            if corrupt == "none":
                assert carried is not None and carried[0]
            if isinstance(seq, KeptHistory):
                assert_read_as_stored(seq)
            else:
                TestDeepFailures.assert_same_or_raised_alike(seq)

    @staticmethod
    def suite_passes(seq):
        """Whether ``increment_identity_failures`` gives [], False where it raises."""
        try:
            return increment_identity_failures(seq) == []
        except ValueError:
            return False

    def test_a_failing_step_of_a_kept_history_is_left_to_the_suite(self):
        # the suite and the replaying pass read the pendant in the kept
        # start; the forward pass reads the genuine stored sequence
        seq = pendant_at_the_start()
        assert replaying_forward_pass(seq) is None
        assert increment_identity_failures(seq) != []
        assert checks._forward_pass(seq)[:2] == (True, True)
        assert_read_as_stored(seq)


def carried_increment_verdict(start, d, losts):
    """The increment verdict as the forward pass once decided it: f and gamma carried from ``start``, step by step.

    ``losts`` lists, per step, the cliques through ab that the step loses,
    as masks.  Each lost clique of size s gives way to one clique of each
    of the sizes s - 1 and s, so f of a step is f of the step before plus
    those; f(lk ab) is the lost cliques' size count less 2.  The verdict is
    False from the first step where a transform raises or the gamma
    increment is not t * gamma(lk ab).  The oracle of ``_link_has_gamma``.
    """
    report = gamma_of(start, d)
    f, gamma = Counter(dict(enumerate(report.f.coeffs))), report.gamma
    for lost in losts:
        sizes = Counter(m.bit_count() for m in lost)
        f.update(sizes)
        f.update({size - 1: n for size, n in sizes.items()})
        try:
            after = report_from_f(f_from_counts(f), d).gamma
            link_gamma = report_from_f(f_from_counts({size - 2: n for size, n in sizes.items()}), d - 2).gamma
        except ValueError:
            return False
        if after - gamma != link_gamma.shift(1):
            return False
        gamma = after
    return True


def lost_cliques(seq):
    """Per step, the faces of the complex before it that hold both ends of its edge, as masks; a filter, not a walk through ab."""
    states = seq.states()
    before = next(states).final
    losts = []
    for ((a, b), _), after in zip(seq.steps, states):
        losts.append([checks._mask(fs) for fs in before.faces() if a in fs and b in fs])
        before = after.final
    return losts


# Lost cliques of one step at d=4, with ab = {0, 1}: F = f(lk ab) and whether lk(ab) has a gamma at d - 2.
SQUARE_LINK = [0b11, 0b111, 0b1011, 0b10011, 0b100011, 0b1111, 0b11011, 0b110011, 0b100111]  # F = 1 + 4t + 4t^2
ASYMMETRIC_LINK = [0b11, 0b111]  # F = 1 + t, h = 1 - t
OVER_DEGREE_LINK = [0b1111111]  # F = t^5


class TestIncrementByLinearity:
    """The per-step increment verdict, ``_link_has_gamma`` of each step, against carrying f and gamma."""

    @given(st.integers(2, 7), st.integers(0, 12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_random_sequences(self, d, k, seed):
        seq = random_sequence(d, k, seed)
        assert checks._forward_pass(seq)[0] is carried_increment_verdict(cross_polytope(d), d, lost_cliques(seq)) is True

    @pytest.mark.parametrize(
        "corrupt",
        [
            pendant_at_the_start,
            k_entry_dropped,
            pendant_added_at_step_2,
            pendant_moved_at_step_1,
            endpoint_swapped_at_step_1,
            w_in_a_start_k_entry,
            new_vertex_off_its_id,
            new_vertex_k_entry_emptied,
            k_entry_missing,
            non_edge_logged_at_step_2,
            existing_id_logged_at_step_2,
            link_pair_dropped,
            commuting_steps_reversed_at_a_vertex,
            gamma_edge_added,
            final_k_entry_moved,
        ],
    )
    def test_corrupted_fixtures(self, corrupt, replaced_recipes):
        # each start has a gamma, so the carried comparison and the per-step
        # check agree on every history, whether or not a pass carries it:
        # the replaying pass reads the history that ``states`` gives, and
        # the forward pass the stored sequence's
        seq = corrupt()
        losts = lost_cliques(seq)
        expected = carried_increment_verdict(next(seq.states()).final, seq.d, losts)
        assert all(checks._link_has_gamma(lost, seq.d) for lost in losts) == expected
        replayed = replaying_forward_pass(seq)
        if replayed is not None:
            assert replayed[0] == expected
        carried = checks._forward_pass(seq)
        if carried is not None:
            losts = lost_cliques(stored(seq))
            assert carried[0] == carried_increment_verdict(cross_polytope(seq.d), seq.d, losts)

    @pytest.mark.parametrize(
        "losts, expected",
        [
            ([SQUARE_LINK], True),
            ([SQUARE_LINK, SQUARE_LINK], True),
            ([ASYMMETRIC_LINK], False),
            ([OVER_DEGREE_LINK], False),
            ([SQUARE_LINK, ASYMMETRIC_LINK], False),
            ([OVER_DEGREE_LINK, SQUARE_LINK], False),
        ],
        ids=["square", "two squares", "asymmetric", "over degree", "asymmetric second", "over degree first"],
    )
    def test_synthetic_lost_cliques(self, losts, expected):
        # lost cliques that no valid step loses, fed to both verdicts
        assert carried_increment_verdict(cross_polytope(4), 4, losts) is expected
        assert all(checks._link_has_gamma(lost, 4) for lost in losts) is expected

    @pytest.mark.parametrize("bad", [1, 2, 3])
    def test_one_step_without_a_link_gamma_fails_the_pass(self, bad):
        # the pass reads ASYMMETRIC_LINK in place of the cliques step ``bad``
        # of the worked example loses; the other steps pass, before or after
        seq = sequence_from_edges(4, EXAMPLE_STEPS)
        real, seen = checks._link_has_gamma, []

        def replaced(lost, d):
            seen.append(lost)
            return real(ASYMMETRIC_LINK if len(seen) == bad else lost, d)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "_link_has_gamma", replaced)
            assert checks._forward_pass(seq)[0] is False


def subdivides_graphs(before, step, after):
    """``helpers.subdivides``, the replaying pass's rule check, on the adjacencies of two complexes."""
    return subdivides(before.adjacency(), after.adjacency(), step)


def changed_vertex(c, added, rng):
    """``c`` with one vertex dropped, or with the new vertex 99 joined to a random set of its vertices."""
    vertices = sorted(c.vertices)
    if not added:
        gone = rng.choice(vertices)
        return FlagComplex([v for v in vertices if v != gone], [e for e in c.edges() if gone not in e])
    return FlagComplex(vertices + [99], c.edges() + [(v, 99) for v in vertices if rng.random() < 0.5])


class TestPremiseFromDeltas:
    """Where ab is an edge and w is new, the rule check holds exactly where the step is ``subdivide_edge``.

    The replaying pass of ``helpers``, the forward pass's oracle, compares
    no step with ``subdivide_edge``: it checks the edge-subdivision rule as
    entries set on the adjacency before the step (``is_update``).  The
    comparison with ``subdivide_edge`` is the oracle here.
    """

    @staticmethod
    def assert_premise_follows(before, step, after):
        (a, b), w = step
        if before.has_edge(a, b) and w not in before.vertices:
            assert subdivides_graphs(before, step, after) == (after == subdivide_edge(before, (a, b), w))

    @pytest.mark.parametrize(
        "corrupt",
        [
            pendant_at_the_start,
            k_entry_dropped,
            pendant_added_at_step_2,
            pendant_moved_at_step_1,
            endpoint_swapped_at_step_1,
            w_in_a_start_k_entry,
            new_vertex_off_its_id,
            new_vertex_k_entry_emptied,
            k_entry_missing,
            non_edge_logged_at_step_2,
            existing_id_logged_at_step_2,
        ],
    )
    def test_corrupted_histories(self, corrupt):
        seq = corrupt()
        states = [state.final for state in seq.states()]
        for before, step, after in zip(states, seq.steps, states[1:]):
            self.assert_premise_follows(before, step, after)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (non_edge_logged_at_step_2, "{0, 1} is not a face of the complex"),
            (existing_id_logged_at_step_2, "{0, 9, 3, 4} is not a face of complex 1"),
        ],
    )
    def test_a_step_off_an_edge_or_onto_an_old_id_breaks_the_premise(self, corrupt, message):
        # the states are genuine, so only the logged step 2 is wrong: its ab
        # is no edge of prefix(1), or its w is already a vertex there; the
        # rule check refuses it before comparing any entry, the pass carries
        # no layer, and deep_failures raises as the first suite that raises
        seq = corrupt()
        states = [state.final for state in seq.states()]
        assert [subdivides_graphs(*triple) for triple in zip(states, seq.steps, states[1:])] == [True, False, True]
        assert checks._forward_pass(seq) is None
        assert replaying_forward_pass(seq) is None
        with pytest.raises(ValueError) as got:
            deep_failures(seq)
        raised = []
        for suite in SUITES.values():
            try:
                suite(seq)
            except (KeyError, RuntimeError, ValueError) as exc:
                raised.append((type(exc), str(exc)))
        assert (ValueError, str(got.value)) == raised[0] == (ValueError, message)

    @given(
        st.integers(2, 5),
        st.integers(1, 8),
        st.integers(0, 10**6),
        st.floats(0, 1),
        st.sampled_from(["before", "after"]),
        st.sampled_from(["edge", "vertex dropped", "vertex added", "step skipped"]),
        st.floats(0, 1),
        st.integers(0, 30),
    )
    @settings(max_examples=150, deadline=None)
    def test_single_corruptions_of_real_steps(self, d, k, seed, at, side, kind, where, pick):
        seq = random_sequence(d, k, seed)
        j = round(at * (k - 1))
        states = [state.final for state in seq.states()]
        pair = {"before": states[j], "after": states[j + 1]}
        c = pair[side]
        if kind == "edge":
            pair[side] = toggled(c, where, pick)
        elif kind == "step skipped":
            pair["after"] = pair["before"]
        else:
            pair[side] = changed_vertex(c, kind == "vertex added", Random(pick))
        self.assert_premise_follows(pair["before"], seq.steps[j], pair["after"])
        # the real step passes both
        self.assert_premise_follows(states[j], seq.steps[j], states[j + 1])
        assert subdivides_graphs(states[j], seq.steps[j], states[j + 1])


class TestIsUpdate:
    """``helpers.is_update``, the replaying pass's one rule check, against ``dict(after) == {**before, **new}``."""

    @given(
        st.dictionaries(st.integers(0, 5), st.frozensets(st.integers(0, 3)), max_size=5),
        st.dictionaries(st.integers(0, 7), st.frozensets(st.integers(0, 3)), max_size=3),
        st.lists(st.sampled_from(["shared", "equal", "changed", "missing"]), min_size=8, max_size=8),
        st.dictionaries(st.integers(6, 9), st.frozensets(st.integers(0, 3)), max_size=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_merged_mapping(self, before, new, kinds, extra):
        # each entry of the merged mapping is in ``after`` as the same
        # object, as an equal but distinct one, changed, or not at all;
        # ``extra`` adds keys that neither mapping has
        merged = {**before, **new}
        after = {}
        for (v, x), kind in zip(merged.items(), kinds):
            if kind == "shared":
                after[v] = x
            elif kind == "equal":
                after[v] = frozenset(list(x))
            elif kind == "changed":
                after[v] = x ^ {9}
        after.update((v, x) for v, x in extra.items() if v not in merged)
        expected = dict(after) == merged
        assert is_update(before, after, new) == expected
        # the replaying pass passes adjacencies as read-only proxies
        assert is_update(MappingProxyType(before), MappingProxyType(after), new) == expected


def k_update_by_vertex(seq, j, before, after):
    """The vertex lemma at step j, vertex by vertex, as the forward pass once checked it.

    The oracle of the replaying pass's one ``is_update`` of the K-table.
    """
    (a, b), w = seq.steps[j - 1]
    kb, ka = before.k_table, after.k_table
    common = before.final.common_neighbors((a, b))
    return (
        w == seq.w_id(j)
        and kb.keys() >= before.final.vertices
        and ka.get(w) == kb[a] & kb[b]
        and all(
            w not in kb[v] and ka.get(v) == (kb[v] | {w} if v in common else kb[v])
            for v in before.final.vertices
        )
    )


def k_rules_by_vertex(seq):
    """Whether ``k_update_by_vertex`` holds at every step."""
    states = list(seq.states())
    return all(k_update_by_vertex(seq, j, states[j - 1], states[j]) for j in range(1, seq.k + 1))


class TestKVerdictByVertex:
    """The K verdict of the replaying pass of ``helpers``, the forward pass's oracle, against the vertex-by-vertex loop.

    The two agree wherever each table's keys are its complex's vertices.  A
    key off the vertices fails only the table check, which is stricter; the
    report is the same, as ``k_rule_failures`` then decides.  Both read the
    replayed history; the forward pass reads only the stored K-table.
    """

    @given(st.integers(2, 6), st.integers(0, 10), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_real_steps(self, d, k, seed):
        seq = random_sequence(d, k, seed)
        assert checks._forward_pass(seq)[1] is replaying_forward_pass(seq)[1] is True
        assert k_rules_by_vertex(seq)

    @pytest.mark.parametrize(
        "corrupt, stored_ok",
        [
            (k_entry_dropped, True),
            (w_in_a_start_k_entry, False),
            (new_vertex_off_its_id, False),
            (new_vertex_k_entry_emptied, False),
            (k_entry_missing, True),
        ],
    )
    def test_corrupted_k_updates(self, corrupt, stored_ok):
        # where the stored K-table is genuine, and only the kept history's
        # is corrupted, the forward pass passes the K rules
        seq = corrupt()
        assert replaying_forward_pass(seq)[1] is False
        assert not k_rules_by_vertex(seq)
        assert checks._forward_pass(seq)[1] is stored_ok

    @given(
        st.integers(2, 5),
        st.integers(1, 6),
        st.integers(0, 10**6),
        st.floats(0, 1),
        st.sampled_from(["emptied", "gains the next w", "dropped", "off the vertices"]),
        st.integers(0, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_corrupted_entry(self, d, k, seed, at, kind, pick):
        seq = KeptHistory(random_sequence(d, k, seed))
        j = round(at * (k - 1))
        state = seq.history[j]
        table, vertices = state.k_table, sorted(state.final.vertices)
        v = vertices[pick % len(vertices)]
        if kind == "emptied":
            table[v] = frozenset()
        elif kind == "gains the next w":
            table[v] = table[v] | {seq.w_id(j + 1)}
        elif kind == "dropped":
            del table[v]
        else:
            table[99] = frozenset()
        k_ok, by_vertex = replaying_forward_pass(seq)[1], k_rules_by_vertex(seq)
        if kind == "off the vertices":
            assert by_vertex and not k_ok
        else:
            assert k_ok == by_vertex
        # only a kept state is corrupted, never the last, which is the
        # sequence itself
        assert checks._forward_pass(seq)[:2] == (True, True)
        assert_read_as_stored(seq)
        assert deep_failures(seq) == dict.fromkeys(SUITES, [])


def induced_reference(seq, fs):
    """(base, w_labels, label_of, canonical_of) of a face of the final complex, built as before bases were shared.

    One ``extend`` per recipe step from a fresh cross polytope, each new
    vertex's canonical id read off the base.
    """
    pairs, steps = _link_seq(seq, seq.k, fs, {})
    if not pairs:
        return None, (), {}, {}
    canonical_of = {}
    for i, (u, v) in enumerate(pairs):
        canonical_of[u], canonical_of[v] = 2 * i, 2 * i + 1
    base = new_sequence(len(pairs))
    for (u, v), w in steps:
        base = extend(base, (canonical_of[u], canonical_of[v]))
        canonical_of[w] = base.steps[-1].new_vertex
    label_of = {c: amb for amb, c in canonical_of.items()}
    return base, tuple(w for _, w in steps), label_of, canonical_of


class TestSharedBases:
    """The final walk builds one set of tables per shape, and its induced sequences are ``induced_sequence``'s."""

    @staticmethod
    def decided_faces(seq):
        """The faces the final walk decides, with their recipes, by the verdict lemma.

        A face is decided where no earlier face has its K(F) and N(F), or
        where the first that has them has another recipe.
        """
        first, decided = {}, []
        for fs in seq.final.faces():
            recipe = _link_seq(seq, seq.k, fs, {})
            key = walk_key(seq, fs)
            if key not in first:
                first[key] = recipe
            elif first[key] == recipe:
                continue
            decided.append((fs, recipe))
        return decided

    @given(st.integers(2, 6), st.integers(0, 12), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_every_face_gets_the_induced_sequence(self, d, k, seed):
        # the walk reads the labels and the shape's tables of each face it
        # decides, the first to show each (K(F), N(F), recipe); with the base
        # they are the face's induced sequence, and the tables, built once
        # per shape from the shape alone, are the base's edges, K-table and
        # gamma adjacency in ranks
        seq = random_sequence(d, k, seed)
        walked, tables = [], {}
        translate, tables_of = checks._translate, checks._Shape

        def translating(recipe):
            shape, labels = translate(recipe)
            walked.append((recipe, shape, labels))
            return shape, labels

        def tabling(shape):
            assert shape not in tables
            tables[shape] = tables_of(shape)
            return tables[shape]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "_translate", translating)
            mp.setattr(checks, "_Shape", tabling)
            assert all(deep_report(seq).values())
        assert set(tables) == {shape for _, shape, _ in walked}
        decided = self.decided_faces(seq)
        assert [recipe for recipe, _, _ in walked] == [recipe for _, recipe in decided]
        for (fs, recipe), (_, shape, labels) in zip(decided, walked):
            got = subdivision._labeled(shape and subdivision._build_base(shape), labels)
            expected = induced_sequence(seq, fs)
            reference = induced_reference(seq, fs)
            for ind in (got, expected):
                assert (ind.w_labels, ind.label_of, ind.canonical_of) == reference[1:]
                if reference[0] is None:
                    assert ind.base is None
                    continue
                for field in ("d", "steps", "final", "k_table", "gamma_edges", "w_neighbors"):
                    assert getattr(ind.base, field) == getattr(reference[0], field), (sorted(fs), field)
            entry = tables[shape]
            assert (entry.ends, entry.other_ends, entry.k_ranks, entry.gamma_ranks) == shape_tables(got.base)
            if got.base is None:
                continue
            base, low = got.base, 2 * got.base.d
            assert sorted(zip(entry.ends, entry.other_ends)) == base.final.edges()
            assert [{low + r for r in ranks} for ranks in entry.k_ranks] == [
                base.k_table[c] for c in range(low + base.k)
            ]
            gamma = gamma_complex(base)
            assert [{low + r for r in ranks} for ranks in entry.gamma_ranks] == [
                gamma.neighbors(w) for w in base.w_ids()
            ]

    def test_faces_of_one_shape_share_their_base(self):
        seq = random_sequence(5, 8, 1)
        bases, memo = {}, {}
        got = [subdivision._induced(seq, seq.k, fs, bases, memo) for fs in seq.final.faces()]
        assert len(got) == 783 and len(bases) == 67
        assert len({id(ind.base) for ind in got if ind.base is not None}) == 67


LABELS = st.integers(0, 9)


class TestRename:
    """``subdivision._rename`` against ``helpers.rename_by_closure``, the closure-and-generator body it replaced."""

    @given(
        st.lists(st.tuples(LABELS, LABELS), max_size=5),
        st.lists(st.tuples(st.tuples(LABELS, LABELS), LABELS), max_size=4),
        st.sampled_from(["pair", "step edge", "new vertex", "nowhere"]),
        st.integers(0, 100),
        LABELS,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_closure_body(self, pairs, steps, where, at, new):
        # the renamed label sits in a pair, in a step's edge, as a step's
        # new vertex, or nowhere; step-free recipes are drawn too
        if where == "pair":
            pairs = pairs or [(at % 10, 9 - at % 10)]
            old = pairs[at % len(pairs)][at % 2]
        elif where == "nowhere":
            old = 10
        else:
            steps = steps or [((at % 10, 9 - at % 10), at % 7)]
            edge, w = steps[at % len(steps)]
            old = edge[at % 2] if where == "step edge" else w
        recipe = tuple(pairs), tuple(steps)
        got = _rename(recipe, old, new)
        assert got == rename_by_closure(recipe, old, new)
        # what does not hold old is kept, object for object
        assert all(g is p for g, p in zip(got[0], recipe[0]) if old not in p)
        assert all(g is s for g, s in zip(got[1], recipe[1]) if old not in s[0] and old != s[1])
        if not steps:
            assert got[1] is recipe[1]

    def test_the_steps_of_a_worked_rename(self):
        recipe = ((0, 2), (4, 5)), (((0, 4), 8), ((2, 6), 9), ((1, 7), 4))
        assert _rename(recipe, 4, 10) == (((0, 2), (10, 5)), (((0, 10), 8), ((2, 6), 9), ((1, 7), 10)))
        assert _rename(recipe, 3, 10) == recipe


class TestShapeTables:
    """``checks._Shape`` reads a shape's tables off the shape, as ``helpers.shape_tables`` reads them off its built base."""

    @given(st.integers(2, 7), st.integers(0, 12), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_the_tables_are_the_built_bases(self, d, k, seed):
        # every shape the final walk meets, the empty link's included
        seq = random_sequence(d, k, seed)
        met, tables_of = [], checks._Shape
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "_Shape", lambda shape: met.append(shape) or tables_of(shape))
            assert all(deep_report(seq).values())
        assert None in met
        for shape in met:
            got = checks._Shape(shape)
            base = shape and subdivision._build_base(shape)
            assert (got.ends, got.other_ends, got.k_ranks, got.gamma_ranks) == shape_tables(base), shape

    @pytest.mark.parametrize(
        "shape",
        [(1, ((0, 1),)), (2, ((0, 1),)), (2, ((0, 2), (0, 2))), (2, ((0, 2), (4, 4))), (3, ((0, 2), (4, 5), (6, 1)))],
        ids=["antipodes, one pair", "antipodes", "an edge subdivided twice", "a loop at w", "antipodes at step 2"],
    )
    def test_a_step_off_an_edge_has_no_tables(self, shape):
        # where extend raises, there is no base, and the tables say so
        with pytest.raises(ValueError, match="is not an edge of the current complex"):
            subdivision._build_base(shape)
        assert checks._Shape(shape).ends is None

    def test_a_face_with_a_step_off_an_edge_fails_the_walked_suites(self, replaced_recipes):
        seq = step_off_an_edge()
        assert checks._final_verdicts(seq, checks._forward_pass(seq)[2]) == (False, False, False)

    @given(st.integers(2, 7), st.integers(0, 12), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_a_passing_report_calls_no_extend(self, d, k, seed):
        # the forward pass applies each step to a state of its own and
        # replays no history, and the final walk builds no base
        seq = random_sequence(d, k, seed)
        calls, at_return = [], []
        real_extend, real_pass = subdivision.extend, checks._forward_pass

        def forward_pass(s):
            out = real_pass(s)
            at_return.append(len(calls))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subdivision, "extend", lambda *args: calls.append(args) or real_extend(*args))
            mp.setattr(checks, "_forward_pass", forward_pass)
            assert all(deep_report(seq).values())
        assert at_return == [len(calls)] == [0]


class TestFinalWalkRaisesAlike:
    """Where suite functions raise, ``deep_failures`` raises the error of the first in report order."""

    @pytest.mark.parametrize(
        "corrupt, suite, error, message",
        [
            # the gamma suite would raise too, but the phi suite comes first
            (final_k_entry_off_the_gamma_complex, phi_image_failures, KeyError, "5"),
            (
                final_k_entry_emptied,
                phi_image_failures,
                RuntimeError,
                "internal inconsistency: |K|=0 but |W|=1 for {1, 2}",
            ),
            (
                w_label_repeated,
                link_recursion_failures,
                ValueError,
                "relabel mapping is not a bijection on the vertex set",
            ),
            # the walk's tables of the shape say it has no base; the suites
            # build it and raise
            (
                step_off_an_edge,
                link_recursion_failures,
                ValueError,
                "step 1: (0, 1) is not an edge of the current complex",
            ),
            # the link's sizes and adjacency match, but one vertex is off the link
            (link_vertex_off_the_link, phi_image_failures, ValueError, "{1, 5} is not a face of complex 2"),
            # K(-e1) = {+e1} lies outside phi's domain
            (final_k_entry_off_with_a_gamma_edge_toggled, phi_image_failures, KeyError, "0"),
        ],
    )
    def test_a_corrupted_sequence_raises_the_suite_error(self, corrupt, suite, error, message, replaced_recipes):
        with pytest.raises(error) as expected:
            suite(corrupt())
        with pytest.raises(error) as got:
            deep_failures(corrupt())
        assert str(got.value) == str(expected.value) == message

    @pytest.mark.parametrize(
        "corrupt, suite, error, message",
        [
            # the link suite gives its list; the phi suite stops at the
            # renamed link of {+e1}, before the face with |K| != |W|
            (
                link_vertex_renamed_then_k_entry_emptied,
                phi_image_failures,
                ValueError,
                "{0, 1} is not a face of complex 3",
            ),
            # the link suite raises before the phi suite meets |K| != |W|
            (
                w_label_repeated_then_k_entry_emptied,
                link_recursion_failures,
                ValueError,
                "relabel mapping is not a bijection on the vertex set",
            ),
        ],
    )
    def test_the_first_raising_suite_in_report_order_raises(self, corrupt, suite, error, message, replaced_recipes):
        with pytest.raises(error) as expected:
            suite(corrupt())
        with pytest.raises(error) as got:
            deep_failures(corrupt())
        assert str(got.value) == str(expected.value) == message

    @pytest.mark.parametrize("vertices", [{1, 10}, {1}, {10}, {0, 3}, {8, 9}], ids=str)
    def test_a_final_k_table_missing_entries_raises_as_the_suites(self, vertices):
        # the walk reads the final table vertex by vertex, in its own
        # order; the K suite, which runs first, reads it in another
        seq = final_k_entries_deleted(vertices)
        try:
            expected = suite_failures(seq)
        except KeyError as exc:
            expected = KeyError, str(exc)
        assert deep_failures_or_error(seq) == expected


def oracle_failures_reference(seq):
    """The face-set suite as it was before it skipped ``to_face_complex`` and ``is_flag``."""
    failures = []
    fc = seq.prefix(0).final.to_face_complex()
    for j, step in enumerate(seq.steps, start=1):
        fc = subdivide_face_general(fc, step.edge, step.new_vertex)
        if fc != seq.prefix(j).final.to_face_complex():
            failures.append(f"step {j}: face sets diverge from graph subdivision")
        if not is_flag(fc):
            failures.append(f"step {j}: face set is not flag")
    return failures


class TestOracleFailures:
    """``oracle_failures`` against the body that rebuilt and re-checked every step."""

    @given(st.integers(2, 5), st.integers(0, 7), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_matches_the_reference_on_random_sequences(self, d, k, seed):
        seq = random_sequence(d, k, seed)
        assert oracle_failures(seq) == oracle_failures_reference(seq) == []

    def test_divergent_flag_face_sets(self):
        # the pendant survives every step, so the face sets diverge but stay flag
        expected = [f"step {j}: face sets diverge from graph subdivision" for j in (1, 2)]
        assert oracle_failures(pendant_at_the_start()) == expected
        assert oracle_failures_reference(pendant_at_the_start()) == expected

    def test_a_hollow_triangle_diverges_and_is_not_flag(self, monkeypatch):
        def hollow(fc, edge, s):
            return FaceComplex.from_facets([(0, 1), (1, 2), (0, 2)])

        monkeypatch.setattr(checks, "subdivide_face_general", hollow)
        monkeypatch.setattr(sys.modules[__name__], "subdivide_face_general", hollow)
        seq = random_sequence(3, 2, 5)
        expected = [
            f"step {j}: {what}"
            for j in (1, 2)
            for what in ("face sets diverge from graph subdivision", "face set is not flag")
        ]
        assert oracle_failures(seq) == expected
        assert oracle_failures_reference(seq) == expected
