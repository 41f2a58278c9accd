"""Building sets, flag orderings, nested-set complexes, and the sequence bridge."""

import inspect
import sys
from collections import Counter
from itertools import combinations, permutations
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammacomplex import (
    BuildingSet,
    FlagOrdering,
    cross_polytope,
    find_decomposition,
    find_flag_ordering,
    gamma_complex_of_ordering,
    gamma_of,
    graphical_building_set,
    interval_building_set,
    is_flag_building_set,
    is_isomorphic_under,
    nested_set_complex,
    nestohedron_report,
    ordering_to_sequence,
    power_set_building_set,
    random_flag_building_set,
    u_set,
    v_set,
    validate_building_set,
    validate_ordering,
    verify_ordering_equivalence,
)
from gammacomplex import nestohedra
from gammacomplex.complexes import FlagComplex, is_flag
from gammacomplex.nestohedra import decomposition_vertex_ids, nested_set_faces
from gammacomplex.polynomials import f_from_counts


def fs(*items):
    return frozenset(frozenset(x) for x in items)


LEX_GREEDY_D3 = fs([1], [2], [3], [1, 2], [1, 2, 3])
INTERVALS4_DECOMPOSITION = fs([1], [2], [3], [4], [1, 2], [1, 2, 3], [1, 2, 3, 4])


def union_closure_building_set(n, rng):
    """Connected building set, flag or not: the singletons, the ground set
    and a few random subsets, closed under unions of intersecting members."""
    ground = frozenset(range(1, n + 1))
    elements = {frozenset((i,)) for i in ground} | {ground}
    subsets = [frozenset(c) for r in range(2, n) for c in combinations(sorted(ground), r)]
    elements |= set(rng.sample(subsets, min(rng.randint(0, 8), len(subsets))))
    grown = True
    while grown:
        grown = False
        for x, y in combinations(list(elements), 2):
            if x & y and (x | y) not in elements:
                elements.add(x | y)
                grown = True
    return BuildingSet(n, frozenset(elements))


def random_connected_graph(n, rng):
    """A random spanning tree on [n] plus a few random extra edges."""
    edges = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    edges |= set(rng.sample(list(combinations(range(1, n + 1), 2)), rng.randint(0, n)))
    return sorted(edges)


def ordering_oracle_inputs():
    """Power sets, intervals, random flag building sets and graphical ones
    (cycles, stars, random connected graphs), all with n <= 6."""
    sets = [power_set_building_set(n) for n in range(2, 7)]
    sets += [interval_building_set(n) for n in range(2, 7)]
    sets += [random_flag_building_set(n, seed) for n in range(3, 7) for seed in range(6)]
    for n in range(3, 7):
        path = [(v, v + 1) for v in range(1, n)]
        sets += [
            graphical_building_set(n, path + [(1, n)]),
            graphical_building_set(n, [(1, v) for v in range(2, n + 1)]),
        ]
    rng = Random(11)
    sets += [graphical_building_set(n, random_connected_graph(n, rng)) for n in (4, 5, 6) for _ in range(4)]
    return sets


def can_append_sets(current, new):
    """The flag test on frozenset members that ``nestohedra._can_append`` ran before bitmasks, kept as the oracle."""
    if not any(part < new and (new - part) in current for part in current):
        return False
    for other in current:
        if new & other and not (new <= other or other <= new):
            if (new | other) not in current:
                return False
    return True


def frozenset_flag_ordering(b, decomposition, rng):
    """``find_flag_ordering`` as it ran on frozenset members, kept as the oracle: its order."""
    current = set(decomposition)
    left = sorted(b.elements - decomposition, key=nestohedra._skey)
    order = []
    while left:
        candidates = list(left)
        if rng is not None:
            rng.shuffle(candidates)
        member = next((x for x in candidates if can_append_sets(current, x)), None)
        if member is None:
            raise ValueError("no flag ordering exists: input is not a connected flag building set")
        current.add(member)
        left.remove(member)
        order.append(member)
    return tuple(order)


def backtracking_flag_ordering(b, decomposition, rng):
    """Order the members outside the decomposition by a full backtracking
    search, candidates smallest first or shuffled per level by ``rng``."""

    def search(current, left):
        if not left:
            return []
        candidates = list(left)
        if rng is not None:
            rng.shuffle(candidates)
        for cand in candidates:
            if can_append_sets(current, cand):
                rest = search(current | {cand}, [x for x in left if x != cand])
                if rest is not None:
                    return [cand] + rest
        return None

    return search(set(decomposition), sorted(b.elements - decomposition, key=nestohedra._skey))


def prefix_u_set(o, j):
    """U_j with the prefix family rebuilt for every earlier index."""
    ij = o.order[j - 1]
    out = []
    for i in range(1, j):
        ii = o.order[i - 1]
        if ii <= ij:
            continue
        family = o.prefix_elements(i - 1)
        if not any(x - ij == ii - ij for x in family):
            out.append(i)
    return tuple(out)


def prefix_v_set(o, j):
    """V_j with the prefix family rebuilt for every earlier index."""
    ij = o.order[j - 1]
    out = []
    for i in range(1, j):
        ii = o.order[i - 1]
        if not ii <= ij:
            continue
        family = o.prefix_elements(i - 1)
        if any(ii < x < ij for x in family):
            out.append(i)
    return tuple(out)


def validate_building_set_sets(b):
    """``validate_building_set`` as it ran on frozenset members, kept as the oracle."""
    ground = b.ground
    if any(not e or not e <= ground for e in b.elements):
        return False
    if any(frozenset((i,)) not in b.elements for i in ground):
        return False
    return all((x | y) in b.elements for x, y in combinations(b.elements, 2) if x & y)


def splits_sets(target, elements):
    """``nestohedra._splits`` as it ran on frozenset members, kept as the oracle."""
    skey = nestohedra._skey
    return [
        (part, target - part)
        for part in elements
        if part < target and (target - part) in elements and skey(part) < skey(target - part)
    ]


def every_member_splits_sets(b):
    """``nestohedra._every_member_splits`` on frozenset members, kept as the oracle."""
    return all(len(e) == 1 or splits_sets(e, b.elements) for e in b.elements)


def _has_compatible_partition(u: int, parts: list[int], members: set[int]) -> bool:
    """Is the bitmask ``u`` a disjoint union of some of ``parts``, no two of
    which have their union in ``members``?

    Depth-first over partial partitions: the next part is one that holds
    the lowest element not yet covered, so each partition is reached once.
    """
    stack = [(0, ())]
    while stack:
        covered, chosen = stack.pop()
        if covered == u:
            return True
        rest = u & ~covered
        low = rest & -rest
        for p in parts:
            if p & low and not p & covered and all((p | q) not in members for q in chosen):
                stack.append((covered | p, chosen + (p,)))
    return False


def partition_search_flag(b):
    """The flag verdict ``nested_set_complex`` reached before the split rule,
    kept as the oracle: no member is a disjoint union of pairwise compatible
    proper members (``_has_compatible_partition``)."""
    members = set(map(nestohedra._mask, b.elements))
    return not any(
        _has_compatible_partition(u, [p for p in members if p & u == p and p != u], members) for u in members
    )


def connected_building_sets(n):
    """Every connected building set on [n]: the singletons, the ground set
    and any family of the other subsets that is closed under unions of
    intersecting members."""
    ground = frozenset(range(1, n + 1))
    base = {frozenset((i,)) for i in ground} | {ground}
    others = [frozenset(c) for r in range(2, n) for c in combinations(sorted(ground), r)]
    out = []
    for chosen in range(1 << len(others)):
        elements = base | {s for i, s in enumerate(others) if chosen >> i & 1}
        if all(x | y in elements for x, y in combinations(elements, 2) if x & y):
            out.append(BuildingSet(n, frozenset(elements)))
    return out


def find_decomposition_sets(b):
    """``find_decomposition`` as it ran on frozenset members, kept as the oracle."""
    if not b.is_connected():
        raise ValueError("building set is not connected (ground set missing)")
    out = set()

    def split(target):
        out.add(target)
        if len(target) == 1:
            return
        options = splits_sets(target, b.elements)
        if not options:
            raise ValueError(f"{sorted(target)} has no two-part split: building set is not flag")
        small, big = min(options, key=lambda p: (len(p[0]), tuple(sorted(p[1])), tuple(sorted(p[0]))))
        split(small)
        split(big)

    split(b.ground)
    return frozenset(out)


def uv_sets_sets(o, j):
    """U_j and V_j as ``nestohedra._uv_sets`` computed them on frozenset members, kept as the oracle."""
    ij = o.order[j - 1]
    residues = {x - ij for x in o.decomposition}
    inside = [x for x in o.decomposition if x < ij]
    u, v = [], []
    for i, ii in enumerate(o.order[: j - 1], start=1):
        if not ii <= ij and ii - ij not in residues:
            u.append(i)
        if ii < ij:
            if any(ii < x for x in inside):
                v.append(i)
            inside.append(ii)
        residues.add(ii - ij)
    return tuple(u), tuple(v)


def sequence_steps_sets(o):
    """The edges ``ordering_to_sequence`` subdivides and its member-to-vertex
    map, from the split lookup on frozenset members, kept as the oracle."""
    pairs = [splits_sets(t, o.decomposition)[0] for t in o.decomposition if len(t) > 1]
    pairs.sort(key=lambda p: nestohedra._skey(p[0] | p[1]))
    ids = {}
    for i, (small, big) in enumerate(pairs):
        ids[small], ids[big] = 2 * i, 2 * i + 1
    edges = []
    for w, member in enumerate(o.order, start=2 * (o.building_set.n - 1)):
        options = splits_sets(member, ids)
        if len(options) != 1:
            raise ValueError(
                f"member {sorted(member)} has {len(options)} two-part splits "
                f"in its prefix; expected exactly one"
            )
        small, big = options[0]
        edges.append((ids[small], ids[big]))
        ids[member] = w
    return edges, ids


def outcome(f, *args):
    """``f(*args)``, or the message of the ``ValueError`` it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# (n, members) of families that are no building set
INVALID_FAMILIES = {
    "missing singleton": (3, [[1], [2], [1, 2], [1, 2, 3]]),
    "missing union": (4, [[1], [2], [3], [4], [1, 2], [2, 3], [1, 2, 3, 4]]),
    "empty member": (3, [[], [1], [2], [3], [1, 2], [1, 2, 3]]),
    "id 0": (3, [[0], [1], [2], [3], [0, 1], [1, 2], [1, 2, 3]]),
    "id n+1": (3, [[1], [2], [3], [4], [3, 4], [1, 2], [1, 2, 3]]),
    "id -1": (3, [[-1], [1], [2], [3], [-1, 1], [1, 2], [1, 2, 3]]),
}


# Families on {1..4} that each public entry must reject on its own: the three
# that ``nestohedron`` rejects (tests/test_cli.py), and a connected building
# set of 2n - 1 members in which {2, 3, 4} does not split.
REJECTED_FAMILIES = {
    "not flag": (4, [[1], [2], [3], [4], [1, 2, 3, 4]]),
    "not connected": (4, [[1], [2], [3], [4], [1, 2], [3, 4]]),
    "not a building set": (4, [[1], [2], [3], [1, 2], [2, 3]]),
    "decomposition not flag": (4, [[1], [2], [3], [4], [1, 2], [2, 3, 4], [1, 2, 3, 4]]),
}


def associahedron_gamma(n):
    """gamma_i = C(n-1, 2i) * Catalan(i) (Postnikov-Reiner-Williams)."""
    return [comb(n - 1, 2 * i) * comb(2 * i, i) // (i + 1) for i in range((n - 1) // 2 + 1)]


def cyclohedron_gamma(n):
    """gamma_i = C(n-1, i) * C(n-1-i, i) (Postnikov-Reiner-Williams)."""
    return [comb(n - 1, i) * comb(n - 1 - i, i) for i in range((n - 1) // 2 + 1)]


# gamma of the stellohedron, the graph associahedron of the star on n vertices
# (Postnikov-Reiner-Williams, section 10)
STELLOHEDRON_GAMMA = {
    3: [1, 1],
    4: [1, 4],
    5: [1, 11, 5],
    6: [1, 26, 43],
    7: [1, 57, 230, 61],
    8: [1, 120, 990, 906],
}


def permutohedron_gamma(n):
    """gamma_i counts the permutations of [n] with i descents, no double
    descent and no final descent (Postnikov-Reiner-Williams)."""
    counts = Counter()
    for w in permutations(range(n)):
        descents = {i for i in range(n - 1) if w[i] > w[i + 1]}
        if n - 2 not in descents and not any(i + 1 in descents for i in descents):
            counts[len(descents)] += 1
    return [counts[i] for i in range(max(counts) + 1)]


class TestValidation:
    def test_power_set_is_a_building_set(self):
        assert validate_building_set(power_set_building_set(3))

    def test_interval_family_is_a_building_set(self):
        b = BuildingSet.of(3, [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]])
        assert validate_building_set(b)
        assert b.elements == interval_building_set(3).elements

    def test_missing_singleton(self):
        assert not validate_building_set(BuildingSet.of(3, [[1], [2], [1, 2], [2, 3]]))

    def test_missing_union(self):
        assert not validate_building_set(BuildingSet.of(3, [[1], [2], [3], [1, 2], [2, 3]]))

    def test_flagness(self):
        assert is_flag_building_set(power_set_building_set(3))
        assert is_flag_building_set(interval_building_set(3))
        assert not is_flag_building_set(BuildingSet.of(3, [[1], [2], [3], [1, 2, 3]]))

    def test_flagness_requires_a_valid_building_set(self):
        with pytest.raises(ValueError):
            is_flag_building_set(BuildingSet.of(2, [[1], [1, 2]]))


class TestFindDecomposition:
    def test_power_set_on_three(self):
        assert find_decomposition(power_set_building_set(3)) == LEX_GREEDY_D3

    def test_interval_set_on_three(self):
        assert find_decomposition(interval_building_set(3)) == LEX_GREEDY_D3

    def test_decomposition_of_a_decomposition_is_itself(self):
        b = BuildingSet(3, LEX_GREEDY_D3)
        assert find_decomposition(b) == LEX_GREEDY_D3

    def test_size_is_2n_minus_1(self):
        for n in (2, 3, 4, 5):
            assert len(find_decomposition(power_set_building_set(n))) == 2 * n - 1

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            find_decomposition(BuildingSet.of(2, [[1], [2]]))

    def test_non_flag_rejected(self):
        with pytest.raises(ValueError):
            find_decomposition(BuildingSet.of(3, [[1], [2], [3], [1, 2, 3]]))


class TestFindFlagOrdering:
    def test_interval_on_three_has_one_remaining_member(self):
        o = find_flag_ordering(interval_building_set(3))
        assert o.decomposition == LEX_GREEDY_D3
        assert o.order == (frozenset({2, 3}),)

    def test_power_set_on_three(self):
        o = find_flag_ordering(power_set_building_set(3))
        assert set(o.order) == {frozenset({1, 3}), frozenset({2, 3})}

    def test_trivial_ordering(self):
        b = BuildingSet(3, LEX_GREEDY_D3)
        assert find_flag_ordering(b).order == ()

    def test_every_prefix_is_a_flag_building_set(self):
        for b in (power_set_building_set(4), interval_building_set(4)):
            o = find_flag_ordering(b)
            for j in range(o.k + 1):
                prefix = o.prefix_building_set(j)
                assert validate_building_set(prefix)
                assert is_flag_building_set(prefix)

    def test_validate_ordering_accepts_found_orderings(self):
        o = find_flag_ordering(power_set_building_set(4))
        validate_ordering(o)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_matches_the_backtracking_search(self, seed):
        for b in ordering_oracle_inputs():
            dec = find_decomposition(b)
            o = find_flag_ordering(b, dec, None if seed is None else Random(seed))
            expected = backtracking_flag_ordering(b, dec, None if seed is None else Random(seed))
            assert o.order == tuple(expected)
            validate_ordering(o)

    @given(st.integers(2, 7), st.integers(0, 10**6), st.one_of(st.none(), st.integers(0, 10**6)))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_frozenset_implementation(self, n, seed, shuffle):
        # the same order, smallest first or per-step shuffled, and the same
        # verdict on every member outside each prefix family
        b = random_flag_building_set(n, seed)
        dec = find_decomposition(b)
        o = find_flag_ordering(b, dec, None if shuffle is None else Random(shuffle))
        assert o.order == frozenset_flag_ordering(b, dec, None if shuffle is None else Random(shuffle))
        for j in range(o.k + 1):
            family = o.prefix_elements(j)
            masks = {nestohedra._mask(x) for x in family}
            for x in b.elements - family:
                assert nestohedra._can_append(masks, nestohedra._mask(x)) == can_append_sets(family, x)

    def test_graphical_building_sets_are_flag(self):
        assert graphical_building_set(3, [(1, 2), (2, 3)]).elements == interval_building_set(3).elements
        assert graphical_building_set(4, combinations(range(1, 5), 2)) == power_set_building_set(4)
        for b in ordering_oracle_inputs():
            assert validate_building_set(b) and b.is_connected() and is_flag_building_set(b)

    @pytest.mark.parametrize("edges", [[(1, 1)], [(0, 1)], [(1, 4)]])
    def test_graphical_building_set_rejects_a_bad_edge(self, edges):
        with pytest.raises(ValueError, match="is not an edge between two of the vertices 1..3"):
            graphical_building_set(3, edges)

    def test_no_recursion_per_member(self):
        # the ordering has 190 members; the stack allows 60 more frames
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            o = find_flag_ordering(interval_building_set(21))
        finally:
            sys.setrecursionlimit(limit)
        assert o.k == 190

    def test_member_with_no_split_raises(self):
        dec = fs([1], [2], [3], [4], [5], [1, 2], [3, 4, 5], [4, 5], [1, 2, 3, 4, 5])
        b = BuildingSet(5, dec | fs([1, 3, 4], [1, 2, 3, 4], [1, 3, 4, 5]))
        assert validate_building_set(b) and not is_flag_building_set(b)
        with pytest.raises(ValueError, match="no flag ordering"):
            find_flag_ordering(b, dec)

    def test_validate_ordering_rejects_bad_prefix(self):
        b = power_set_building_set(3)
        bad = FlagOrdering(
            building_set=b,
            decomposition=LEX_GREEDY_D3,
            order=(frozenset({1, 3}), frozenset({1, 3})),
        )
        with pytest.raises(ValueError):
            validate_ordering(bad)

    def test_validate_ordering_rejects_a_prefix_that_is_not_flag(self):
        # {2, 3, 4} has no two-part split in the decomposition, so the first
        # prefix is no flag building set
        o = FlagOrdering(
            building_set=interval_building_set(4),
            decomposition=INTERVALS4_DECOMPOSITION,
            order=(frozenset({2, 3, 4}), frozenset({3, 4}), frozenset({2, 3})),
        )
        with pytest.raises(ValueError, match=r"^ordering prefix 1 is not a flag building set$"):
            validate_ordering(o)

    def test_a_member_with_two_splits_is_an_internal_inconsistency(self):
        # {1, 2, 3} is in the decomposition already; ordered after {2, 3} it
        # splits as {1} + {2, 3} and as {1, 2} + {3}.  No validated or found
        # ordering has such a member, so only an unvalidated one gets here
        o = FlagOrdering(
            building_set=interval_building_set(4),
            decomposition=INTERVALS4_DECOMPOSITION,
            order=(frozenset({2, 3}), frozenset({1, 2, 3})),
        )
        with pytest.raises(ValueError, match="ordering does not enumerate"):
            validate_ordering(o)
        with pytest.raises(
            RuntimeError, match=r"^internal inconsistency: member \[1, 2, 3\] has 2 two-part splits in its prefix"
        ):
            nestohedra._sequence(o, nestohedra._by_mask(o.decomposition))


class TestUVSets:
    def test_power_set_on_three(self):
        b = power_set_building_set(3)
        o = FlagOrdering(
            building_set=b,
            decomposition=LEX_GREEDY_D3,
            order=(frozenset({1, 3}), frozenset({2, 3})),
        )
        validate_ordering(o)
        assert u_set(o, 2) == ()
        assert v_set(o, 2) == ()
        gc = gamma_complex_of_ordering(o)
        assert f_from_counts(gc.clique_count_by_size()).to_list() == [1, 2]

    def test_first_index_has_empty_sets(self):
        o = find_flag_ordering(power_set_building_set(3))
        assert u_set(o, 1) == () and v_set(o, 1) == ()

    def test_index_out_of_range(self):
        o = find_flag_ordering(power_set_building_set(3))
        with pytest.raises(ValueError):
            u_set(o, 3)

    @pytest.mark.parametrize("seed", [None, 4])
    def test_match_the_prefix_rebuilding_definitions(self, seed):
        for b in ordering_oracle_inputs():
            o = find_flag_ordering(b, rng=None if seed is None else Random(seed))
            edges = []
            for j in range(1, o.k + 1):
                u, v = prefix_u_set(o, j), prefix_v_set(o, j)
                assert (u_set(o, j), v_set(o, j)) == (u, v)
                edges += [(i, j) for i in u + v]
            assert gamma_complex_of_ordering(o) == FlagComplex(range(1, o.k + 1), edges)

    def n5_ordering(self):
        b = BuildingSet.of(
            5,
            [[1], [2], [3], [4], [5], [4, 5], [3, 4, 5], [1, 2], [1, 2, 3, 4, 5],
             [3, 4], [2, 3, 4, 5]],
        )
        return FlagOrdering(
            building_set=b,
            decomposition=fs([1], [2], [3], [4], [5], [4, 5], [3, 4, 5], [1, 2], [1, 2, 3, 4, 5]),
            order=(frozenset({3, 4}), frozenset({2, 3, 4, 5})),
        )

    def test_sandwiched_member_lands_in_v(self):
        o = self.n5_ordering()
        validate_ordering(o)
        assert u_set(o, 2) == ()
        assert v_set(o, 2) == (1,)
        gc = gamma_complex_of_ordering(o)
        assert f_from_counts(gc.clique_count_by_size()).to_list() == [1, 2, 1]

    def test_n5_bridge_steps_subdivide_the_unique_splits(self):
        o = self.n5_ordering()
        seq, ids = ordering_to_sequence(o)
        assert seq.steps[0].edge == (ids[frozenset({3})], ids[frozenset({4})])
        assert seq.steps[1].edge == (ids[frozenset({2})], ids[frozenset({3, 4, 5})])
        report = verify_ordering_equivalence(o)
        assert report["equal"] and report["isomorphic"] and report["uv_match"] and report["bridge"]
        assert report["f_gamma"] == [1, 2, 1]


class TestNestedSetComplex:
    def test_decomposition_gives_a_four_cycle(self):
        b = BuildingSet(3, LEX_GREEDY_D3)
        c = nested_set_complex(b)
        sibling_map = {
            frozenset({1}): 0,
            frozenset({2}): 1,
            frozenset({3}): 2,
            frozenset({1, 2}): 3,
        }
        assert is_isomorphic_under(c, cross_polytope(2), sibling_map)

    def test_interval_set_gives_a_pentagon(self):
        c = nested_set_complex(interval_building_set(3))
        assert len(c.vertices) == 5
        assert all(len(c.neighbors(v)) == 2 for v in c.vertices)
        assert gamma_of(c, 2).gamma.to_list() == [1, 1]

    def test_power_set_gives_a_hexagon(self):
        c = nested_set_complex(power_set_building_set(3))
        assert len(c.vertices) == 6
        assert all(len(c.neighbors(v)) == 2 for v in c.vertices)
        assert gamma_of(c, 2).gamma.to_list() == [1, 2]

    def test_binary_decompositions_give_cross_polytopes(self):
        for n in (2, 3, 4, 5):
            dec = find_decomposition(power_set_building_set(n))
            b = BuildingSet(n, dec)
            ids = decomposition_vertex_ids(dec)
            assert is_isomorphic_under(nested_set_complex(b), cross_polytope(n - 1), ids)

    def test_member_with_no_split_in_the_decomposition_raises(self):
        with pytest.raises(ValueError, match="no split"):
            decomposition_vertex_ids(fs([1], [2], [3], [1, 2, 3]))

    def test_faces_are_the_cliques_for_flag_inputs(self):
        for b in (power_set_building_set(4), interval_building_set(4)):
            assert is_flag(nested_set_faces(b))

    def test_non_flag_input_rejected(self):
        with pytest.raises(ValueError):
            nested_set_complex(BuildingSet.of(3, [[1], [2], [3], [1, 2, 3]]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_explicit_face_set(self, seed):
        # the flag check and the graph against the enumerated nested sets
        rng = Random(seed)
        b = union_closure_building_set(rng.randint(2, 6), rng)
        faces = nested_set_faces(b)
        if is_flag(faces):
            assert nested_set_complex(b) == faces.one_skeleton()
        else:
            with pytest.raises(ValueError, match="not flag"):
                nested_set_complex(b)

    def test_every_small_connected_building_set(self):
        # the split rule against the nested sets themselves and against the
        # partition search it replaced, on every connected building set, n <= 4
        sets = {n: connected_building_sets(n) for n in (2, 3, 4)}
        assert [len(sets[n]) for n in (2, 3, 4)] == [1, 8, 378]
        flag = 0
        for b in (b for n in (2, 3, 4) for b in sets[n]):
            assert partition_search_flag(b) == is_flag_building_set(b)
            faces = nested_set_faces(b)
            if is_flag(faces):
                assert nested_set_complex(b) == faces.one_skeleton()
                flag += 1
            else:
                with pytest.raises(ValueError, match="not flag"):
                    nested_set_complex(b)
        assert flag == 240

    def test_disconnected_input_rejected(self):
        b = BuildingSet.of(3, [[1], [2], [3], [1, 2]])
        with pytest.raises(ValueError, match="connected"):
            nested_set_faces(b)
        with pytest.raises(ValueError, match="connected"):
            nested_set_complex(b)

    def test_enumerates_no_nested_sets(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("nested sets enumerated")

        monkeypatch.setattr(nestohedra, "nested_set_faces", forbidden)
        monkeypatch.setattr(nestohedra, "FaceComplex", forbidden)
        c = nested_set_complex(power_set_building_set(4))
        assert len(c.vertices) == 14


class TestBridge:
    def test_interval_on_three(self):
        o = find_flag_ordering(interval_building_set(3))
        seq, ids = ordering_to_sequence(o)
        assert seq.d == 2 and seq.k == 1
        assert seq.steps[0].edge == (ids[frozenset({2})], ids[frozenset({3})])
        final = nested_set_complex(interval_building_set(3)).relabel(
            {e: ids[e] for e in interval_building_set(3).elements - {frozenset({1, 2, 3})}}
        )
        assert seq.final == final

    def test_empty_order_gives_zero_steps(self):
        b = BuildingSet(3, LEX_GREEDY_D3)
        seq, _ = ordering_to_sequence(find_flag_ordering(b))
        assert seq.k == 0 and seq.final == cross_polytope(2)

    def test_ground_set_of_one_rejected(self):
        b = BuildingSet.of(1, [[1]])
        o = FlagOrdering(building_set=b, decomposition=frozenset(b.elements), order=())
        with pytest.raises(ValueError):
            ordering_to_sequence(o)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generators_verify_end_to_end(self, n):
        for b in (power_set_building_set(n), interval_building_set(n)):
            report = verify_ordering_equivalence(find_flag_ordering(b))
            assert report["equal"] and report["isomorphic"], report
            assert report["uv_match"] and report["bridge"], report

    def test_power_set_on_four_pipelines_agree(self):
        report = verify_ordering_equivalence(find_flag_ordering(power_set_building_set(4)))
        assert report["f_gamma"] == report["gamma_theta"]
        assert report["k"] == 8

    def test_larger_ground_sets(self):
        cases = [
            (interval_building_set(5), [1, 6, 2]),
            (power_set_building_set(5), [1, 22, 16]),
            (interval_building_set(6), [1, 10, 10]),
        ]
        cases += [(random_flag_building_set(6, seed), None) for seed in (1, 2, 3)]
        for b, expected_gamma in cases:
            report = verify_ordering_equivalence(find_flag_ordering(b))
            assert report["equal"] and report["isomorphic"], report
            assert report["uv_match"] and report["bridge"], report
            if expected_gamma is not None:
                assert report["gamma_theta"] == expected_gamma

    def test_seeded_ordering_search_is_deterministic_and_valid(self):
        import random

        b = power_set_building_set(4)
        dec = find_decomposition(b)
        o1 = find_flag_ordering(b, dec, random.Random(5))
        o2 = find_flag_ordering(b, dec, random.Random(5))
        assert o1.order == o2.order
        validate_ordering(o1)
        report = verify_ordering_equivalence(o1)
        assert report["equal"] and report["isomorphic"]

    def test_uv_match_and_isomorphic_fail_together(self, monkeypatch):
        # U_j | V_j are j's neighbours below j, so one lost index breaks both
        uv_sets = nestohedra._uv_sets
        dropped = []

        def drop_one(decomposition, order, j):
            u, v = uv_sets(decomposition, order, j)
            if dropped or not u + v:
                return u, v
            dropped.append(j)
            return (u[1:], v) if u else (u, v[1:])

        monkeypatch.setattr(nestohedra, "_uv_sets", drop_one)
        report = verify_ordering_equivalence(find_flag_ordering(interval_building_set(5)))
        assert dropped
        assert report["uv_match"] is False and report["isomorphic"] is False
        assert report["equal"] and report["bridge"]


class TestNestohedronReport:
    def test_is_the_report_of_the_public_pipeline(self):
        for b in (power_set_building_set(4), interval_building_set(5), random_flag_building_set(6, 1)):
            assert nestohedron_report(b) == verify_ordering_equivalence(find_flag_ordering(b))
            o = find_flag_ordering(b, rng=Random(3))
            assert nestohedron_report(b, rng=Random(3)) == verify_ordering_equivalence(o)
            assert nestohedron_report(b, o) == verify_ordering_equivalence(o)

    def test_a_given_ordering_is_validated(self):
        b = power_set_building_set(3)
        twice = FlagOrdering(building_set=b, decomposition=LEX_GREEDY_D3, order=(frozenset({1, 3}),) * 2)
        with pytest.raises(ValueError, match="exactly once"):
            nestohedron_report(b, twice)
        other = find_flag_ordering(interval_building_set(3))
        with pytest.raises(ValueError, match="another building set"):
            nestohedron_report(b, other)

    def test_ground_set_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2 elements"):
            nestohedron_report(BuildingSet.of(1, [[1]]))


class TestPublicChecks:
    """Every public entry checks the families it reads, whoever calls it."""

    @pytest.mark.parametrize("name", sorted(REJECTED_FAMILIES))
    def test_each_entry_rejects_the_family(self, name):
        family = BuildingSet.of(*REJECTED_FAMILIES[name])
        as_decomposition = FlagOrdering(building_set=power_set_building_set(4), decomposition=family.elements, order=())
        binary = find_decomposition(power_set_building_set(4))
        as_building_set = FlagOrdering(building_set=family, decomposition=binary, order=())
        calls = [
            (nested_set_complex, family),
            (ordering_to_sequence, as_decomposition),
            (verify_ordering_equivalence, as_decomposition),
            (verify_ordering_equivalence, as_building_set),
        ]
        for call, arg in calls:
            with pytest.raises(ValueError):
                call(arg)

    def test_a_decomposition_that_is_not_minimal_is_rejected(self):
        # the power set of {1, 2, 3} is a connected flag building set of 7
        # members, not the 2n - 1 = 5 of a binary decomposition
        b = power_set_building_set(3)
        o = FlagOrdering(building_set=b, decomposition=b.elements, order=())
        for call in (validate_ordering, ordering_to_sequence, verify_ordering_equivalence):
            with pytest.raises(ValueError, match="decomposition is not minimal"):
                call(o)

    def test_an_ordering_that_leaves_members_out_is_rejected(self):
        b = interval_building_set(4)
        o = FlagOrdering(building_set=b, decomposition=find_decomposition(b), order=())
        for call in (validate_ordering, ordering_to_sequence, verify_ordering_equivalence):
            with pytest.raises(ValueError, match="exactly once"):
                call(o)

class TestClosedForms:
    """Bridge gamma vectors against counts that share no code with it."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_associahedra(self, n):
        report = verify_ordering_equivalence(find_flag_ordering(interval_building_set(n)))
        assert report["equal"] and report["isomorphic"], report
        assert report["uv_match"] and report["bridge"], report
        assert report["gamma_theta"] == associahedron_gamma(n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_permutohedra(self, n):
        report = verify_ordering_equivalence(find_flag_ordering(power_set_building_set(n)))
        assert report["equal"] and report["isomorphic"], report
        assert report["uv_match"] and report["bridge"], report
        assert report["gamma_theta"] == permutohedron_gamma(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cyclohedra(self, n):
        cycle = [(v, v + 1) for v in range(1, n)] + [(1, n)]
        report = verify_ordering_equivalence(find_flag_ordering(graphical_building_set(n, cycle)))
        assert report["equal"] and report["isomorphic"], report
        assert report["uv_match"] and report["bridge"], report
        assert report["gamma_theta"] == cyclohedron_gamma(n)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_stellohedra(self, n):
        star = [(1, v) for v in range(2, n + 1)]
        report = verify_ordering_equivalence(find_flag_ordering(graphical_building_set(n, star)))
        assert report["equal"] and report["isomorphic"], report
        assert report["uv_match"] and report["bridge"], report
        assert report["gamma_theta"] == STELLOHEDRON_GAMMA[n]

    def test_closed_forms_at_small_n(self):
        assert associahedron_gamma(6) == [1, 10, 10]
        assert permutohedron_gamma(3) == [1, 2]
        assert permutohedron_gamma(5) == [1, 22, 16]
        # the cycle on three vertices is the complete graph
        assert cyclohedron_gamma(3) == permutohedron_gamma(3)
        assert cyclohedron_gamma(5) == [1, 12, 6]


class TestMaskPath:
    """The bitmask code against the frozenset code it replaced (the oracles above)."""

    def check_family(self, b):
        assert validate_building_set(b) == validate_building_set_sets(b)
        masks = set(map(nestohedra._mask, b.elements))
        assert nestohedra._every_member_splits(masks) == every_member_splits_sets(b)
        dec = outcome(find_decomposition, b)
        assert dec == outcome(find_decomposition_sets, b)
        return dec

    def check_ordering(self, o):
        for j in range(1, o.k + 1):
            assert (u_set(o, j), v_set(o, j)) == uv_sets_sets(o, j)
        got = outcome(ordering_to_sequence, o)
        if not isinstance(got, str):
            seq, ids = got
            got = ([step.edge for step in seq.steps], ids)
        assert got == outcome(sequence_steps_sets, o)

    @pytest.mark.parametrize("seed", [None, 2])
    def test_flag_inputs(self, seed):
        for b in ordering_oracle_inputs():
            dec = self.check_family(b)
            o = find_flag_ordering(b, dec, None if seed is None else Random(seed))
            assert o.order == frozenset_flag_ordering(b, dec, None if seed is None else Random(seed))
            self.check_ordering(o)

    @given(st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_union_closures(self, seed):
        # flag or not; orderings are compared wherever a decomposition exists
        rng = Random(seed)
        b = union_closure_building_set(rng.randint(2, 6), rng)
        dec = self.check_family(b)
        if isinstance(dec, str):
            return
        o = outcome(find_flag_ordering, b, dec)
        assert (o if isinstance(o, str) else o.order) == outcome(frozenset_flag_ordering, b, dec, None)
        if not isinstance(o, str):
            self.check_ordering(o)

    @pytest.mark.parametrize("name", sorted(INVALID_FAMILIES))
    def test_invalid_families(self, name):
        n, members = INVALID_FAMILIES[name]
        b = BuildingSet.of(n, members)
        assert not validate_building_set(b) and not validate_building_set_sets(b)
        with pytest.raises(ValueError):
            nested_set_complex(b)
        # bitmasks need ids of at least 0, which only a valid building set promises
        if name != "id -1":
            self.check_family(b)

    def test_skey_picks_are_not_mask_order(self):
        # {2, 3} = 0b1100 < {1, 4} = 0b10010 as masks, but _skey puts {1, 4} first
        assert nestohedra._mask(frozenset({2, 3})) < nestohedra._mask(frozenset({1, 4}))
        assert nestohedra._skey(frozenset({1, 4})) < nestohedra._skey(frozenset({2, 3}))
        # the ground set splits as {1, 4} + {2, 3, 5} and as {2, 3} + {1, 4, 5}:
        # equally small small parts, and _skey puts the big part {1, 4, 5} first
        b = BuildingSet.of(5, [[1], [2], [3], [4], [5], [1, 4], [2, 3], [2, 3, 5], [1, 4, 5], [1, 2, 3, 4, 5]])
        dec = find_decomposition(b)
        assert dec == find_decomposition_sets(b)
        assert frozenset({1, 4, 5}) in dec and frozenset({2, 3, 5}) not in dec
        o = find_flag_ordering(power_set_building_set(4))
        assert o.order == frozenset_flag_ordering(o.building_set, o.decomposition, None)


class TestRandomBuildingSets:
    def test_deterministic(self):
        assert random_flag_building_set(4, 9).elements == random_flag_building_set(4, 9).elements

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_always_connected_flag_building_sets(self, n):
        for seed in range(12):
            b = random_flag_building_set(n, seed)
            assert validate_building_set(b)
            assert b.is_connected()
            assert is_flag_building_set(b)

    def test_seeds_vary_the_output(self):
        outputs = {random_flag_building_set(4, seed).elements for seed in range(20)}
        assert len(outputs) > 1


class TestJson:
    def test_building_set_round_trip(self):
        b = interval_building_set(3)
        assert BuildingSet.from_json(b.to_json()) == b

    def test_ordering_round_trip(self):
        import json

        b = power_set_building_set(3)
        o = find_flag_ordering(b)
        again = FlagOrdering.from_json_obj(b, json.loads(o.to_json()))
        assert again == o
