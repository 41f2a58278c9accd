"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's clique-enumeration and transform
code paths: face counts come from enumerating every vertex subset, and
the h-transform comes from expanding sum_i f_i t^i (1-t)^(d-i) with
plain polynomial arithmetic.
"""

from collections import Counter
from itertools import combinations, permutations
from random import Random

from gammacomplex import (
    FlagComplex,
    IntPolynomial,
    SubdivisionSequence,
    checks,
    cross_polytope,
    extend,
    new_sequence,
    random_sequence,
    subdivision,
)
from gammacomplex.polynomials import f_from_counts, h_from_f, is_symmetric


def brute_force_face_counts(c: FlagComplex) -> dict[int, int]:
    """Count cliques of each size by checking every vertex subset."""
    vs = sorted(c.vertices, key=repr)
    counts = {0: 1}
    for r in range(1, len(vs) + 1):
        n = 0
        for sub in combinations(vs, r):
            if all(c.has_edge(a, b) for a, b in combinations(sub, 2)):
                n += 1
        if n:
            counts[r] = n
    return counts


def brute_force_f(c: FlagComplex) -> IntPolynomial:
    counts = brute_force_face_counts(c)
    return IntPolynomial(counts.get(i, 0) for i in range(max(counts) + 1))


def h_by_expansion(f: IntPolynomial, d: int) -> IntPolynomial:
    """sum_i f_i t^i (1-t)^(d-i), multiplied out exactly."""
    one_minus_t = IntPolynomial([1, -1])
    total = IntPolynomial()
    for i in range(f.degree + 1):
        term = IntPolynomial([f.coeff(i)]).shift(i)
        for _ in range(d - i):
            term = term * one_minus_t
        total = total + term
    return total


def random_flag_graph(rng: Random, max_vertices: int = 5) -> FlagComplex:
    """Random graph on a random small vertex set (labels offset to allow joins)."""
    n = rng.randint(0, max_vertices)
    offset = rng.randint(0, 50) * 100
    vs = [offset + i for i in range(n)]
    edges = [(a, b) for a, b in combinations(vs, 2) if rng.random() < 0.5]
    return FlagComplex(vs, edges)


def sequence_from_edges(d: int, edges) -> "SubdivisionSequence":
    return extend(new_sequence(d), *edges)


def all_bijections(src, dst):
    src = sorted(src)
    for perm in permutations(sorted(dst, key=repr)):
        yield dict(zip(src, perm))


def final_k_entry_moved():
    """K(2) in the final table reads {w4} instead of {w1}; every |K(F)| keeps its size."""
    seq = random_sequence(3, 4, 0)
    table = dict(seq.k_table)
    assert table[2] == frozenset({6})
    table[2] = frozenset({9})
    return SubdivisionSequence(seq.d, seq.steps, seq.final, table, seq.gamma_edges, seq.w_neighbors)


def rename_by_closure(recipe: tuple, old: int, new: int) -> tuple:
    """``subdivision._rename`` as it was written with an inner closure and generators: the oracle of the renames.

    Both tiers of ``--deep`` call ``_rename``, the forward pass through
    ``_advance_recipes`` and the W suite through ``_w_rule``, so neither
    can catch a fault in it.
    """

    def sub(x):
        return new if x == old else x

    pairs, steps = recipe
    return (
        tuple(p if old not in p else (sub(p[0]), sub(p[1])) for p in pairs),
        tuple(
            s if old not in s[0] and old != s[1] else ((sub(s[0][0]), sub(s[0][1])), sub(s[1]))
            for s in steps
        ),
    )


def shape_tables(base) -> tuple[list, list, list, list]:
    """The tables of a built base that ``checks._Shape`` reads off its shape: (ends, other_ends, k_ranks, gamma_ranks).

    The reference the final walk's tables are tested against, each list in
    increasing order.  A new vertex's rank is its id less 2n; the edges are
    the pairs ``zip(ends, other_ends)``, ``k_ranks[c]`` the ranks in K(c)
    for every id c, and ``gamma_ranks[r]`` the ranks of the gamma neighbors
    of rank r.  ``base`` None, the empty link, has empty tables.
    """
    if base is None:
        return [], [], [], []
    low = 2 * base.d
    edges = sorted((x, y) for x, ns in base.final.adjacency().items() for y in ns if x < y)
    gamma_ranks = [[] for _ in range(base.k)]
    for x, w in base.gamma_edges:
        gamma_ranks[x - low].append(w - low)
        gamma_ranks[w - low].append(x - low)
    return (
        [x for x, _ in edges],
        [y for _, y in edges],
        [sorted(x - low for x in base.k_table[c]) for c in range(low + base.k)],
        [sorted(ranks) for ranks in gamma_ranks],
    )


class KeptHistory(SubdivisionSequence):
    """``seq`` with its states 0..k-1 replayed once and kept, so that a test can corrupt them.

    ``history`` is that list; ``states``, and so every reader of history
    (the suite functions and ``replaying_forward_pass``), yields it and
    then the sequence itself.  ``checks._forward_pass`` reads no history,
    so ``deep_failures`` decides on a ``KeptHistory`` as on the sequence
    it stores (``stored``).
    """

    __slots__ = ("history",)

    def __init__(self, seq, history=None):
        super().__init__(seq.d, seq.steps, seq.final, seq.k_table, seq.gamma_edges, seq.w_neighbors)
        self.history = list(seq.states())[:-1] if history is None else history

    def states(self):
        yield from self.history
        yield self


class RecipesReplaced(SubdivisionSequence):
    """``seq`` with the recipes of some faces replaced, as ``read_replaced_recipes`` lets every reader see them.

    ``replaced`` maps (j, face) to the recipe of that face of the j-th complex.
    """

    __slots__ = ("replaced",)

    def __init__(self, seq, replaced):
        super().__init__(seq.d, seq.steps, seq.final, seq.k_table, seq.gamma_edges, seq.w_neighbors)
        self.replaced = replaced


def read_replaced_recipes(monkeypatch):
    """Make ``_link_seq``, and the final layer of ``checks._forward_pass``, read a ``RecipesReplaced``'s recipes.

    ``_link_seq`` returns a replaced recipe as it is and builds the others
    on them, and the layer holds what ``_link_seq`` then gives each face of
    the final complex, so the suite functions and ``deep_failures`` read
    the same recipes.  Other sequences read their own.
    """
    real_link_seq, real_pass = subdivision._link_seq, checks._forward_pass

    def link_seq(seq, j, fs, memo):
        replaced = getattr(seq, "replaced", {})
        if (j, fs) in replaced:
            return replaced[j, fs]
        return real_link_seq(seq, j, fs, memo)

    def forward_pass(seq):
        carried = real_pass(seq)
        if carried is None or not getattr(seq, "replaced", None):
            return carried
        increment_ok, k_ok, _ = carried
        memo = {}
        layer = {checks._mask(fs): link_seq(seq, seq.k, fs, memo) for fs in seq.final.faces()}
        return increment_ok, k_ok, layer

    monkeypatch.setattr(subdivision, "_link_seq", link_seq)
    monkeypatch.setattr(checks, "_forward_pass", forward_pass)


def is_update(before, after, new) -> bool:
    """Whether the mapping ``after`` is ``before`` with the entries of ``new`` set and no other entry changed.

    That is ``dict(after) == {**before, **new}``.  Each entry is compared
    by identity first and by value only where that fails, so an entry that
    ``after`` shares with ``before`` costs no set comparison.
    """
    if len(after) != len(before) + len(new.keys() - before.keys()):
        return False
    missing = object()
    for v, x in after.items():
        y = new[v] if v in new else before.get(v, missing)
        if x is not y and x != y:
            return False
    return True


def subdivides(prev, cur, step) -> bool:
    """Whether the graph ``cur`` is ``prev`` with the edge ab subdivided by w, ``step`` being ((a, b), w).

    Both graphs are adjacency mappings.  This is the edge-subdivision rule:
    ab is an edge of ``prev`` and w is not one of its vertices; a and b
    swap each other for w, every common neighbor of a and b gains w, w gets
    those common neighbors and a and b, and no other entry changes.
    """
    (a, b), w = step
    if b not in prev.get(a, ()) or w in prev:
        return False
    common = prev[a] & prev[b]
    new = {c: prev[c] | {w} for c in common}
    new.update({a: prev[a] - {b} | {w}, b: prev[b] - {a} | {w}, w: common | {a, b}})
    return is_update(prev, cur, new)


def link_has_gamma_by_polynomials(lost, d) -> bool:
    """``checks._link_has_gamma`` through ``IntPolynomial``: f(lk ab), the size count of ``lost`` less 2, has degree at most d - 2 and a symmetric h_{d-2}."""
    link_f = f_from_counts(Counter(m.bit_count() - 2 for m in lost))
    return link_f.degree <= d - 2 and is_symmetric(h_from_f(link_f, d - 2), d - 2)


def replaying_forward_pass(seq) -> tuple | None:
    """``checks._forward_pass`` as it was when it replayed history: the oracle of the pass on its own state.

    It walks consecutive pairs of ``seq.states()`` and checks each step
    with ``subdivides`` on the two states' adjacencies, and the K rules
    with one ``is_update`` of the two K-tables, so it reads a corrupted
    replayed history (``KeptHistory``) that the pass on its own state
    never sees.  It returns None where the start is not the cross
    polytope or the premise fails at some step; a step off an edge
    before the last raises ``extend``'s error from the replay.  That no
    K entry held w before a step is one check of the start table, that no
    K_0 entry holds a w id of the sequence.
    """
    d = seq.d
    states = seq.states()
    before = next(states)
    if before.final != cross_polytope(d):
        return None
    layer = subdivision._start_layer(d)
    ws = set(seq.w_ids())
    k_ok = all(ws.isdisjoint(ks) for ks in before.k_table.values())
    increment_ok = True
    for j, (step, after) in enumerate(zip(seq.steps, states), start=1):
        (a, b), w = step
        prev, cur = before.final.adjacency(), after.final.adjacency()
        if not (subdivides(prev, cur, step) and seq.w_neighbors[j - 1] == cur[w]):
            return None
        kb, common = before.k_table, prev[a] & prev[b]
        k_ok = k_ok and (
            w == seq.w_id(j)
            and kb.keys() >= prev.keys()
            and is_update(kb, after.k_table, {w: kb[a] & kb[b], **{c: kb[c] | {w} for c in common}})
        )
        lost = checks._cliques_through(prev, (a, b))
        increment_ok = increment_ok and link_has_gamma_by_polynomials(lost, d)
        subdivision._advance_recipes(layer, lost, step, (1 << a, 1 << b, 1 << w))
        before = after
    return increment_ok, k_ok, layer


def stored(seq) -> SubdivisionSequence:
    """The plain sequence of what ``seq`` stores (step log, final complex, K-table, gamma edges, ``w_neighbors``), with no kept history."""
    return SubdivisionSequence(seq.d, seq.steps, seq.final, seq.k_table, seq.gamma_edges, seq.w_neighbors)
