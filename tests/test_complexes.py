"""Complex representations: constructors, links, joins, subdivision, oracle twin."""

import gc
import json
from collections import Counter, deque
from itertools import combinations, islice
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammacomplex import (
    FaceComplex,
    FlagComplex,
    antipode,
    cross_polytope,
    f_poly,
    gamma_complex,
    is_flag,
    is_isomorphic_under,
    join,
    link,
    random_sequence,
    subdivide_edge,
    subdivide_face_general,
)
from gammacomplex.complexes import _count_order, _vkey
from gammacomplex.nestohedra import (
    interval_building_set,
    nested_set_complex,
    power_set_building_set,
    random_flag_building_set,
)
from helpers import (
    all_bijections,
    brute_force_f,
    brute_force_face_counts,
    random_flag_graph,
    sequence_from_edges,
)


def is_cycle(c: FlagComplex, length: int) -> bool:
    if len(c.vertices) != length or len(c.edges()) != length:
        return False
    if any(len(c.neighbors(v)) != 2 for v in c.vertices):
        return False
    seen = {min(c.vertices)}
    cur = min(c.vertices)
    while True:
        nxt = [u for u in c.neighbors(cur) if u not in seen]
        if not nxt:
            break
        cur = nxt[0]
        seen.add(cur)
    return len(seen) == length


def rebuild_subdivide_edge(c: FlagComplex, edge, s) -> FlagComplex:
    """Edge subdivision by rebuilding the whole graph from its edge list."""
    a, b = edge
    star = c.common_neighbors(edge) | {a, b}
    edges = [e for e in c.edges() if set(e) != {a, b}] + [(v, s) for v in star]
    return FlagComplex(c.vertices | {s}, edges)


class TestCrossPolytope:
    def test_smallest_case_is_two_isolated_points(self):
        c = cross_polytope(1)
        assert c.vertices == {0, 1}
        assert c.edges() == []

    def test_four_cycle(self):
        c = cross_polytope(2)
        assert brute_force_face_counts(c) == {0: 1, 1: 4, 2: 4}
        assert is_cycle(c, 4)

    def test_d4_face_counts(self):
        c = cross_polytope(4)
        expected = {0: 1}
        expected.update({i: comb(4, i) * 2**i for i in range(1, 5)})
        assert brute_force_face_counts(c) == expected
        assert dict(c.clique_count_by_size()) == expected

    def test_facet_count_and_antipodes(self):
        for d in range(1, 6):
            c = cross_polytope(d)
            assert len(c.vertices) == 2 * d
            for v in c.vertices:
                assert c.neighbors(v) == c.vertices - {v, antipode(v)}
            assert c.clique_count_by_size()[d] == 2**d

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            cross_polytope(0)

    def test_one_shared_complex_per_dimension_stays_intact(self):
        # every sequence and every induced sequence starts from the shared
        # complex, so nothing built from it may change it
        c = cross_polytope(4)
        assert cross_polytope(4) is c
        random_sequence(4, 6, 1)
        subdivide_edge(c, (0, 2), 8)
        fresh = FlagComplex(range(8), [(a, b) for a, b in combinations(range(8), 2) if b != a ^ 1])
        assert c.adjacency() == fresh.adjacency()


def sampled_graph(seed: int) -> FlagComplex:
    """Up to 14 vertices drawn from ids 0..99, with a random edge density."""
    rng = Random(seed)
    n = rng.randint(0, 14)
    density = rng.random()
    vs = rng.sample(range(100), n)
    edges = [(a, b) for a, b in combinations(vs, 2) if rng.random() < density]
    return FlagComplex(vs, edges)


class TestCliqueCount:
    """``clique_count_by_size`` against the face walk and the face-set twin."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_face_walk_on_random_graphs(self, seed):
        c = sampled_graph(seed)
        counts = dict(c.clique_count_by_size())
        assert counts == dict(Counter(len(f) for f in c.faces()))
        assert counts == dict(c.to_face_complex().f_counts())

    def test_empty_graph_and_isolated_vertices(self):
        assert dict(FlagComplex().clique_count_by_size()) == {0: 1}
        assert dict(FlagComplex(range(5)).clique_count_by_size()) == {0: 1, 1: 5}

    def test_complete_graphs_fill_every_field(self):
        # K_n has 2**n cliques in all: the largest total for n vertices
        for n in range(13):
            counts = FlagComplex(range(n), combinations(range(n), 2)).clique_count_by_size()
            assert dict(counts) == {i: comb(n, i) for i in range(n + 1)}
            assert sum(counts.values()) == 2**n

    def test_frozenset_labels(self):
        vs = [frozenset(s) for s in ({1}, {2}, {3}, {1, 2}, {2, 3}, {1, 2, 3})]
        edges = [(a, b) for a, b in combinations(vs, 2) if a <= b or b <= a]
        c = FlagComplex(vs, edges)
        counts = dict(c.clique_count_by_size())
        assert counts == dict(Counter(len(f) for f in c.faces()))
        assert counts == brute_force_face_counts(c)
        renamed = c.relabel({v: i for i, v in enumerate(vs)})
        assert dict(renamed.clique_count_by_size()) == counts

    def test_leaves_no_reference_cycle(self):
        # garbage left for the cyclic collector would hold the memo, or a
        # walk's carried values, until the collector happens to run
        c = random_sequence(10, 16, 100).final
        small = random_sequence(6, 20, 1).final

        def count(n, v):
            return n + 1

        runs = {
            "clique_count_by_size": c.clique_count_by_size,
            "faces, exhausted": lambda: deque(small.faces(), maxlen=0),
            "faces, abandoned": lambda: next(islice(small.faces(), 5, None)),
            "faces_with, exhausted": lambda: deque(small.faces_with(0, count), maxlen=0),
            "faces_with, abandoned": lambda: next(islice(small.faces_with(0, count), 5, None)),
        }
        gc.collect()
        gc.disable()
        try:
            for name, run in runs.items():
                run()
                assert gc.collect() == 0, name
        finally:
            gc.enable()

    def test_pinned_counts_at_d12_k30(self):
        # the final complex has 13.9M cliques; these counts were taken
        # with a one-by-one clique enumeration
        seq = random_sequence(12, 30, 1)
        gc = gamma_complex(seq).clique_count_by_size()
        assert [gc[i] for i in range(len(gc))] == [1, 30, 225, 563, 475, 103, 2]
        final = seq.final.clique_count_by_size()
        assert [final[i] for i in range(len(final))] == [
            1, 54, 1119, 12373, 83665, 371284, 1123286,
            2356966, 3429511, 3394595, 2180001, 818772, 136462,
        ]


def clique_count_without_suffix_exit(c: FlagComplex) -> Counter:
    """``clique_count_by_size`` with no suffix exit: every bit of every mask is walked."""
    order = _count_order(c.adjacency())
    bits = {v: 1 << i for i, v in enumerate(order)}
    nbr = [sum(map(bits.__getitem__, c.neighbors(v))) for v in order]
    bound = 1 + sum(1 << (m >> (i + 1)).bit_count() for i, m in enumerate(nbr))
    width = bound.bit_length()
    memo: dict = {}

    def f(mask):
        acc = 0
        while mask:
            low = mask & -mask
            mask ^= low
            sub = mask & nbr[low.bit_length() - 1]
            if sub:
                val = memo.get(sub)
                if val is None:
                    val = memo[sub] = f(sub)
                acc += val
            else:
                acc += 1
        return 1 + (acc << width)

    packed = f((1 << len(order)) - 1)
    counts: Counter = Counter()
    size = 0
    while packed:
        counts[size] = packed & ((1 << width) - 1)
        packed >>= width
        size += 1
    return counts


def clique_count_without_joins(c: FlagComplex) -> Counter:
    """``clique_count_by_size`` that expands every mask vertex by vertex, never splitting it at a join."""
    order = _count_order(c.adjacency())
    bits = {v: 1 << i for i, v in enumerate(order)}
    nbr = [sum(map(bits.__getitem__, c.neighbors(v))) for v in order]
    bound = 1 + sum(1 << (m >> (i + 1)).bit_count() for i, m in enumerate(nbr))
    width = bound.bit_length()
    memo: dict = {}

    def f(mask):
        acc = 0
        while mask:
            low = mask & -mask
            mask ^= low
            sub = mask & nbr[low.bit_length() - 1]
            if sub:
                val = memo.get(sub)
                if val is None:
                    val = memo[sub] = f(sub)
                acc += val
            else:
                acc += 1
            if mask:
                rest = memo.get(mask)
                if rest is not None:  # the suffix exit
                    return rest + (acc << width)
        return 1 + (acc << width)

    packed = f((1 << len(order)) - 1)
    counts: Counter = Counter()
    size = 0
    while packed:
        counts[size] = packed & ((1 << width) - 1)
        packed >>= width
        size += 1
    return counts


def edges_by_sorted_pairs(c: FlagComplex) -> list:
    """``edges()`` by brute force: a set of sorted pairs, then a sort of the whole set."""
    out = set()
    for v in c.vertices:
        for u in c.neighbors(v):
            out.add(tuple(sorted((u, v), key=_vkey)))
    return sorted(out, key=lambda e: (_vkey(e[0]), _vkey(e[1])))


class TestAgainstThePreviousLoops:
    """The suffix exit and the one-pass edge list against their brute-force twins."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_random_graphs(self, seed):
        c = sampled_graph(seed)
        assert c.clique_count_by_size() == clique_count_without_suffix_exit(c)
        assert c.edges() == edges_by_sorted_pairs(c)

    @pytest.mark.parametrize("d", range(3, 9))
    def test_random_sequences(self, d):
        for seed in range(4):
            c = random_sequence(d, 3 * d, seed).final
            assert c.clique_count_by_size() == clique_count_without_suffix_exit(c)
            assert c.edges() == edges_by_sorted_pairs(c)

    @pytest.mark.parametrize("n", range(3, 8))
    def test_nested_set_complexes(self, n):
        for seed in range(4):
            c = nested_set_complex(random_flag_building_set(n, seed))
            assert c.clique_count_by_size() == clique_count_without_suffix_exit(c)
            assert c.edges() == edges_by_sorted_pairs(c)

    def test_pinned_counts_at_d16_k60(self):
        # 6.65G cliques, counted before the suffix exit existed
        counts = random_sequence(16, 60, 1).final.clique_count_by_size()
        assert [counts[i] for i in range(len(counts))] == [
            1, 92, 3157, 57680, 653325, 4985737, 26962998, 106674625, 314821895,
            700162560, 1175887585, 1482064709, 1379192760, 918822275, 414315145,
            113221928, 14152741,
        ]

    def test_pinned_counts_at_d20_k60(self):
        # 1.16T cliques in 21 fields, counted before the count split masks at their joins
        counts = random_sequence(20, 60, 1).final.clique_count_by_size()
        assert [counts[i] for i in range(len(counts))] == [
            1, 100, 4134, 96918, 1474891, 15708287, 122762225, 726641240, 3329246254,
            11983909338, 34218001350, 77909584874, 141623661080, 204941880904,
            234303667568, 208782962452, 141849726011, 70928122863, 24588972947,
            5276232760, 527623276,
        ]

    def test_repr_counts_each_edge_once(self):
        assert repr(cross_polytope(3)) == "FlagComplex(6 vertices, 12 edges)"
        assert repr(FlagComplex(range(3))) == "FlagComplex(3 vertices, 0 edges)"


def product_of_counts(*factors: dict) -> dict:
    """Clique counts by size of a join: the product of its factors' clique polynomials."""
    out = {0: 1}
    for counts in factors:
        nxt: Counter = Counter()
        for i, a in out.items():
            for j, b in counts.items():
                nxt[i + j] += a * b
        out = dict(nxt)
    return out


def complete_multipartite(sizes) -> FlagComplex:
    """K_{m1..mr}: parts of the given sizes, no edge inside a part and every edge between two."""
    parts, start = [], 0
    for m in sizes:
        parts.append(range(start, start + m))
        start += m
    edges = [(a, b) for p, q in combinations(parts, 2) for a in p for b in q]
    return FlagComplex(range(start), edges)


class TestSplitAtJoins:
    """The count that splits masks at joins against the kernel that never does, and closed forms of joins."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_sampled_graphs(self, seed):
        c = sampled_graph(seed)
        assert c.clique_count_by_size() == clique_count_without_joins(c)

    @given(st.lists(st.integers(0, 10_000), min_size=2, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_joins_of_sampled_graphs(self, seeds):
        factors = [sampled_graph(s) for s in seeds]
        factors = [c.relabel({v: 100 * i + v for v in c.vertices}) for i, c in enumerate(factors)]
        joined = factors[0]
        for c in factors[1:]:
            joined = join(joined, c)
        counts = joined.clique_count_by_size()
        assert counts == clique_count_without_joins(joined)
        assert dict(counts) == product_of_counts(*(dict(c.clique_count_by_size()) for c in factors))

    @given(st.integers(3, 9), st.integers(0, 40), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_sequences_and_their_gamma_complexes(self, d, k, seed):
        seq = random_sequence(d, k, seed)
        for c in (seq.final, gamma_complex(seq)):
            assert c.clique_count_by_size() == clique_count_without_joins(c)

    @given(st.integers(3, 8), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_nested_set_complexes(self, n, seed):
        c = nested_set_complex(random_flag_building_set(n, seed))
        assert c.clique_count_by_size() == clique_count_without_joins(c)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_intervals_and_power_sets(self, n):
        # the link of a nested set is a join of a restriction and a contraction
        sets = [interval_building_set(n)] + ([power_set_building_set(n)] if n <= 7 else [])
        for b in sets:
            c = nested_set_complex(b)
            assert c.clique_count_by_size() == clique_count_without_joins(c)

    def test_cross_polytopes_are_iterated_suspensions(self):
        for d in range(1, 61):
            counts = cross_polytope(d).clique_count_by_size()
            assert dict(counts) == {i: comb(d, i) * 2**i for i in range(d + 1)}

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_complete_multipartite_graphs(self, sizes):
        c = complete_multipartite(sizes)
        counts = c.clique_count_by_size()
        assert dict(counts) == product_of_counts(*({0: 1, 1: m} for m in sizes))
        assert counts == clique_count_without_joins(c)

    def test_a_complete_multipartite_graph_of_24_parts(self):
        sizes = list(range(1, 7)) * 4
        counts = complete_multipartite(sizes).clique_count_by_size()
        assert dict(counts) == product_of_counts(*({0: 1, 1: m} for m in sizes))


def largest_degree_last(c: FlagComplex) -> list:
    """The numbering ``_count_order`` promises, by a plain search for each removal."""
    remaining = set(c.vertices)
    removed = []
    while remaining:
        v = max(remaining, key=lambda u: (len(c.neighbors(u) & remaining), _vkey(u)))
        remaining.remove(v)
        removed.append(v)
    return removed[::-1]


class TestCountOrder:
    """The clique count numbers the vertices by the graph, and its counts stay exact."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_a_permutation_taken_from_the_graph(self, seed):
        rng = Random(seed)
        vs = rng.sample(range(100), rng.randint(0, 16))
        density = rng.random()
        edges = [(a, b) for a, b in combinations(vs, 2) if rng.random() < density]
        order = _count_order(FlagComplex(vs, edges).adjacency())
        assert len(order) == len(vs) and set(order) == set(vs)
        assert order == largest_degree_last(FlagComplex(vs, edges))
        rng.shuffle(vs)
        rng.shuffle(edges)
        flipped = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
        assert _count_order(FlagComplex(vs, flipped).adjacency()) == order

    @pytest.mark.parametrize("d, k, seed", [(3, 200, 1), (4, 250, 2), (6, 220, 3)])
    def test_long_sequences_and_their_gamma_complexes(self, d, k, seed):
        # hundreds of vertices and few distinct degrees: ties decide most removals
        seq = random_sequence(d, k, seed)
        for c in (seq.final, gamma_complex(seq)):
            assert len(c.vertices) >= 200
            assert _count_order(c.adjacency()) == largest_degree_last(c)

    def test_isolated_vertices_and_the_empty_graph(self):
        assert _count_order(FlagComplex().adjacency()) == []
        assert _count_order(FlagComplex([5, 2, 9]).adjacency()) == [2, 5, 9]
        c = FlagComplex([0, 1, 2, 3, 4, 7], [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert _count_order(c.adjacency()) == largest_degree_last(c)

    def test_frozenset_labels_follow_the_same_rule(self):
        b = random_flag_building_set(6, 3)
        c = nested_set_complex(b)
        assert _count_order(c.adjacency()) == largest_degree_last(c)

    @pytest.mark.parametrize("d", range(3, 8))
    def test_counts_on_random_sequences(self, d):
        for seed in range(4):
            c = random_sequence(d, 2 * d, seed).final
            assert dict(c.clique_count_by_size()) == dict(Counter(len(f) for f in c.faces()))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_counts_on_nested_set_complexes(self, n):
        for seed in range(6):
            c = nested_set_complex(random_flag_building_set(n, seed))
            assert all(isinstance(v, frozenset) for v in c.vertices)
            assert dict(c.clique_count_by_size()) == dict(Counter(len(f) for f in c.faces()))


def faces_depth_first(c):
    """Every clique of ``c``, depth first with its vertices in ``_vkey`` order: the order of ``faces``."""
    order = sorted(c.vertices, key=_vkey)
    out = [frozenset()]

    def grow(clique, candidates):
        for i, v in enumerate(candidates):
            out.append(clique | {v})
            grow(clique | {v}, [u for u in candidates[i + 1 :] if c.has_edge(u, v)])

    grow(frozenset(), order)
    return out


class TestFacesWith:
    """The folded walk visits ``faces()`` in its order and folds each value once."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_order_and_running_intersection(self, seed):
        rng = Random(seed)
        c = random_flag_graph(rng, max_vertices=9)
        if rng.random() < 0.5:
            c = random_sequence(2 + seed % 4, seed % 9, seed).final
        walked = list(c.faces_with(None, lambda acc, v: c.neighbors(v) if acc is None else acc & c.neighbors(v)))
        faces = list(c.faces())
        assert faces == faces_depth_first(c)
        assert walked == [None if not fs else c.common_neighbors(fs) for fs in faces]

    def test_each_value_extends_its_parent(self):
        c = cross_polytope(3)
        walked = list(c.faces_with((), lambda acc, v: acc + (v,)))
        assert len(walked) == 27
        assert walked == [tuple(sorted(fs)) for fs in c.faces()]

    def test_empty_complex(self):
        assert list(FlagComplex().faces_with("start", None)) == ["start"]
        assert list(FlagComplex().faces()) == [frozenset()]


class TestLink:
    def test_edge_link_in_sigma3_is_four_cycle(self):
        c = cross_polytope(4)
        lk = link(c, {0, 2})
        assert lk.vertices == {4, 5, 6, 7}
        assert is_isomorphic_under(lk, cross_polytope(2), {4: 0, 5: 1, 6: 2, 7: 3})

    def test_empty_face_returns_complex(self):
        c = cross_polytope(3)
        assert link(c, frozenset()) == c

    def test_non_face_rejected(self):
        c = cross_polytope(2)
        with pytest.raises(ValueError):
            link(c, {0, 1})

    def test_link_in_twice_subdivided_complex(self):
        # after subdividing {0,2} and {4,6} in the d=4 cross polytope,
        # {0,9} is an edge whose link is the 4-cycle 3-4-8-6-3
        seq = sequence_from_edges(4, [(0, 2), (4, 6)])
        lk = link(seq.final, {0, 9})
        assert lk.vertices == {3, 4, 6, 8}
        assert sorted(lk.edges()) == [(3, 4), (3, 6), (4, 8), (6, 8)]


class TestJoin:
    def test_two_points_make_an_edge(self):
        c = join(FlagComplex([0]), FlagComplex([1]))
        assert brute_force_f(c).to_list() == [1, 2, 1]

    def test_f_multiplies_on_known_case(self):
        sigma0 = cross_polytope(1)
        five_cycle = FlagComplex(range(10, 15), [(10, 11), (11, 12), (12, 13), (13, 14), (14, 10)])
        joined = join(sigma0, five_cycle)
        assert brute_force_f(joined) == brute_force_f(sigma0) * brute_force_f(five_cycle)
        assert brute_force_f(joined).to_list() == [1, 7, 15, 10]

    def test_empty_complex_is_identity(self):
        c = cross_polytope(2)
        assert join(c, FlagComplex()) == c
        assert join(FlagComplex(), c) == c

    def test_overlapping_vertices_rejected(self):
        with pytest.raises(ValueError):
            join(cross_polytope(1), cross_polytope(2))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_f_multiplies_on_random_pairs(self, seed):
        rng = Random(seed)
        a = random_flag_graph(rng)
        b = random_flag_graph(rng)
        if a.vertices & b.vertices:
            return
        assert brute_force_f(join(a, b)) == brute_force_f(a) * brute_force_f(b)


class TestSubdivideEdge:
    def test_four_cycle_becomes_five_cycle(self):
        c = subdivide_edge(cross_polytope(2), (0, 2), 4)
        assert is_cycle(c, 5)

    def test_sigma3_subdivision_adjacency(self):
        c = subdivide_edge(cross_polytope(4), (0, 2), 8)
        assert c.neighbors(8) == {0, 2, 4, 5, 6, 7}
        assert not c.has_edge(0, 2)

    def test_errors(self):
        c = cross_polytope(2)
        with pytest.raises(ValueError):
            subdivide_edge(c, (0, 1), 4)  # antipodes, not an edge
        with pytest.raises(ValueError):
            subdivide_edge(c, (0, 2), 3)  # vertex already present

    def test_an_edge_of_three_vertices_is_named(self):
        with pytest.raises(ValueError, match=r"^an edge needs 2 vertices, \[0, 2, 4\] has 3$"):
            subdivide_edge(cross_polytope(3), (0, 2, 4), 9)

    def test_f_change_is_link_f_times_t_one_plus_t(self):
        from gammacomplex import IntPolynomial

        for d, edge in ((2, (0, 2)), (3, (0, 2)), (4, (2, 5))):
            c = cross_polytope(d)
            c2 = subdivide_edge(c, edge, 2 * d)
            lk = brute_force_f(link(c, edge))
            assert brute_force_f(c2) - brute_force_f(c) == lk * IntPolynomial([0, 1, 1])

    def test_link_of_new_vertex_is_suspension_of_edge_link(self):
        c = cross_polytope(4)
        edge = (0, 2)
        c2 = subdivide_edge(c, edge, 8)
        endpoints = FlagComplex(edge)
        assert link(c2, {8}) == join(endpoints, link(c, edge))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_new_vertex_link_identity_on_random_sequences(self, seed):
        rng = Random(seed)
        seq = sequence_from_edges(rng.randint(2, 5), [])
        from gammacomplex import extend

        for _ in range(rng.randint(1, 6)):
            edge = rng.choice(seq.final.edges())
            before = seq.final
            seq = extend(seq, edge)
            s = seq.steps[-1].new_vertex
            assert link(seq.final, {s}) == join(FlagComplex(edge), link(before, edge))

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_rebuild_on_random_graphs(self, seed):
        rng = Random(seed)
        c = random_flag_graph(rng, max_vertices=9)
        for _ in range(rng.randint(1, 8)):
            if not c.edges():
                return
            edge = rng.choice(c.edges())
            s = max(c.vertices) + 1
            before = c.edges()
            fast = subdivide_edge(c, edge, s)
            slow = rebuild_subdivide_edge(c, edge, s)
            assert fast == slow
            assert fast.edges() == slow.edges()
            assert c.edges() == before  # the parent shares sets but is not changed
            c = fast


class TestRelabel:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_rebuild_on_random_graphs(self, seed):
        rng = Random(seed)
        c = random_flag_graph(rng, max_vertices=9)
        vs = sorted(c.vertices)
        mapping = dict(zip(vs, rng.sample(range(1000), len(vs))))
        rebuilt = FlagComplex(
            (mapping[v] for v in vs), ((mapping[a], mapping[b]) for a, b in c.edges())
        )
        assert c.relabel(mapping) == rebuilt

    def test_non_bijection_rejected(self):
        c = cross_polytope(2)
        with pytest.raises(ValueError):
            c.relabel({0: 0, 1: 0, 2: 2, 3: 3})
        with pytest.raises(ValueError):
            c.relabel({0: 0, 1: 1, 2: 2})


class TestFaceComplexOracle:
    def test_subdividing_a_triangle_in_its_2_face(self):
        triangle = FaceComplex.from_facets([[1, 2, 3]])
        out = subdivide_face_general(triangle, {1, 2, 3}, 4)
        assert dict(out.f_counts()) == {0: 1, 1: 4, 2: 6, 3: 3}

    def test_edge_route_matches_graph_route(self):
        c = cross_polytope(3)
        via_graph = subdivide_edge(c, (0, 2), 6).to_face_complex()
        via_faces = subdivide_face_general(c.to_face_complex(), {0, 2}, 6)
        assert via_graph == via_faces

    def test_singleton_subdivision_renames_the_vertex(self):
        c = cross_polytope(2).to_face_complex()
        out = subdivide_face_general(c, {0}, 9)
        assert out.vertices == {1, 2, 3, 9}
        back = FaceComplex(c.vertices, [frozenset(0 if v == 9 else v for v in f) for f in out.faces])
        assert back == c

    def test_errors(self):
        c = cross_polytope(2).to_face_complex()
        with pytest.raises(ValueError):
            subdivide_face_general(c, {0, 1}, 9)  # not a face
        with pytest.raises(ValueError):
            subdivide_face_general(c, {0, 2}, 1)  # vertex in use
        with pytest.raises(ValueError):
            subdivide_face_general(c, frozenset(), 9)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_oracle_equivalence_on_random_sequences(self, seed):
        rng = Random(seed)
        d = rng.randint(2, 5)
        k = rng.randint(0, 8)
        seq = sequence_from_edges(d, [])
        fc = seq.final.to_face_complex()
        for _ in range(k):
            edge = rng.choice(seq.final.edges())
            from gammacomplex import extend

            seq = extend(seq, edge)
            fc = subdivide_face_general(fc, edge, seq.steps[-1].new_vertex)
            assert fc == seq.final.to_face_complex()
            assert is_flag(fc)


class TestIsFlag:
    def test_hollow_triangle_is_not_flag(self):
        c = FaceComplex.from_facets([[1, 2], [2, 3], [1, 3]])
        assert not is_flag(c)

    def test_cross_polytopes_are_flag(self):
        for d in range(1, 5):
            assert is_flag(cross_polytope(d).to_face_complex())


class TestIsIsomorphicUnder:
    def test_identity_map(self):
        c = cross_polytope(3)
        assert is_isomorphic_under(c, c, {v: v for v in c.vertices})

    def test_four_cycle_rotation(self):
        square = FlagComplex(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        rotation = {0: 1, 1: 2, 2: 3, 3: 0}
        assert is_isomorphic_under(square, square, rotation)

    def test_cycle_vs_path_fails_for_every_bijection(self):
        square = FlagComplex(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        path = FlagComplex(range(4), [(0, 1), (1, 2), (2, 3)])
        for mapping in all_bijections(square.vertices, path.vertices):
            assert not is_isomorphic_under(square, path, mapping)

    def test_non_bijection_rejected(self):
        c = cross_polytope(2)
        with pytest.raises(ValueError):
            is_isomorphic_under(c, c, {0: 0, 1: 0, 2: 2, 3: 3})
        with pytest.raises(ValueError):
            is_isomorphic_under(c, cross_polytope(1), {0: 0, 1: 1, 2: 0, 3: 1})


class TestValidationAndJson:
    def test_face_complex_must_be_downward_closed(self):
        with pytest.raises(ValueError):
            FaceComplex([1, 2, 3], [[1], [2], [3], [1, 2, 3]])

    def test_face_complex_needs_singletons(self):
        with pytest.raises(ValueError):
            FaceComplex([1, 2], [[1]])

    def test_flag_complex_rejects_unknown_vertices_and_loops(self):
        with pytest.raises(ValueError):
            FlagComplex([0, 1], [(0, 2)])
        with pytest.raises(ValueError):
            FlagComplex([0, 1], [(0, 0)])

    def test_flag_complex_names_an_edge_of_three_vertices(self):
        with pytest.raises(ValueError, match=r"^an edge needs 2 vertices, \[0, 1, 2\] has 3$"):
            FlagComplex([0, 1, 2], [(0, 1, 2)])
        with pytest.raises(ValueError, match=r"^an edge needs 2 vertices, \[0\] has 1$"):
            FlagComplex([0, 1], [(0, 1), (0,)])

    def test_flag_complex_json_round_trip(self):
        c = cross_polytope(3)
        again = FlagComplex.from_json(c.to_json())
        assert again == c
        obj = json.loads(c.to_json())
        assert set(obj) == {"vertices", "edges"}

    def test_json_bools_are_not_vertex_ids(self):
        with pytest.raises(ValueError, match="vertex id"):
            FlagComplex.from_json('{"vertices": [true, 2], "edges": []}')
        with pytest.raises(ValueError, match="vertex id"):
            FlagComplex.from_json('{"vertices": [1, 2], "edges": [[true, 2]]}')
        with pytest.raises(ValueError, match="vertex id"):
            FaceComplex.from_json('{"vertices": [1, 2], "facets": [[true, 2]]}')

    def test_face_complex_json_round_trip(self):
        c = cross_polytope(2).to_face_complex()
        again = FaceComplex.from_json(c.to_json())
        assert again == c
        obj = json.loads(c.to_json())
        assert set(obj) == {"vertices", "facets"}
        assert obj["facets"] == [[0, 2], [0, 3], [1, 2], [1, 3]]

    def test_f_poly_rejects_oversized_cliques(self):
        triangle = FlagComplex(range(3), combinations(range(3), 2))
        with pytest.raises(ValueError):
            f_poly(triangle, 2)
