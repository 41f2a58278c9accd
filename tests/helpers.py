"""Independent brute-force oracles shared by the test modules.

These deliberately avoid the library's clique-enumeration and transform
code paths: face counts come from enumerating every vertex subset, and
the h-transform comes from expanding sum_i f_i t^i (1-t)^(d-i) with
plain polynomial arithmetic.
"""

from itertools import combinations, permutations
from random import Random

from gammacomplex import (
    FlagComplex,
    IntPolynomial,
    SubdivisionSequence,
    checks,
    extend,
    new_sequence,
    random_sequence,
    subdivision,
)


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

    ``history`` is that list; ``states``, and so every reader of history,
    yields it and then the sequence itself.
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
