"""Subdivision sequences, their K- and W-sets, and the gamma complex.

A subdivision sequence starts from a cross-polytope boundary and applies
edge subdivisions one at a time.  Alongside the complex it maintains,
for every vertex v, the set K(v) of subdivision vertices whose creating
edge had both endpoints adjacent to v at creation time.  The gamma
complex is the graph on the subdivision vertices w_1..w_k where w_a ~ w_b
(a < b) exactly when w_a was in K(w_b) at the moment w_b was created; its
f-polynomial equals the gamma-polynomial of the final complex, which
``verify_f_equals_gamma`` checks instance by instance.

Every face F of the final complex also carries an induced sequence of
edge subdivisions of a smaller cross-polytope whose result is the link of
F, labeled by ambient vertices.  Its new vertices are the W-set of F, and
``phi`` is the order-preserving bijection K(F) -> W(F).  Its recipe is the
plain tuple (pairs, steps) of its antipodal pairs and its steps ((a, b), w),
in ambient labels: the garbage collector stops tracking such tuples.
"""

from __future__ import annotations

import enum
import json
import random
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from typing import Iterable, Iterator, Mapping, NamedTuple

from .complexes import (
    FlagComplex,
    cross_polytope,
    edge_arity_error,
    json_edge,
    json_int,
    link,
)
from .polynomials import f_from_counts, gamma_of

__all__ = [
    "FaceClass",
    "SubdivisionStep",
    "SubdivisionSequence",
    "InducedSequence",
    "new_sequence",
    "extend",
    "random_sequence",
    "k_set",
    "classify_face",
    "induced_sequence",
    "w_set",
    "phi",
    "gamma_complex",
    "verify_f_equals_gamma",
]


class FaceClass(enum.Enum):
    """Position of a face relative to the most recent subdivision step."""

    F1 = "F1"  # contains an endpoint of the subdivided edge, not the new vertex
    F2 = "F2"  # contains an endpoint and the new vertex
    F3 = "F3"  # contains the new vertex only
    F4 = "F4"  # avoids all three but lies in the new vertex's link
    F5 = "F5"  # avoids all three and is not in the new vertex's link


class SubdivisionStep(NamedTuple):
    edge: tuple[int, int]
    new_vertex: int


def _rename(recipe: tuple, old: int, new: int) -> tuple:
    """A recipe with ``old`` renamed to ``new`` in its pairs and its steps.

    Each pair and step that does not hold ``old`` is kept as the same
    object, and an empty ``steps`` is returned as it is.
    """
    pairs, steps = recipe
    pairs = tuple(
        [p if old not in p else (new if x == old else x, new if y == old else y) for p in pairs for x, y in (p,)]
    )
    if steps:
        steps = tuple(
            [
                s if old not in e and old != w else ((new if a == old else a, new if b == old else b), new if w == old else w)
                for s in steps
                for e, w in (s,)
                for a, b in (e,)
            ]
        )
    return pairs, steps


class SubdivisionSequence:
    """Cross-polytope boundary plus an ordered list of edge subdivisions.

    Instances are immutable; ``extend`` returns a new sequence.  Only the
    step log, the last state (complex, K-table, gamma edges) and each new
    vertex's neighbors at its creation, N_j(w_j) in ``w_neighbors``, are
    stored.  History is replayed, never kept: ``states`` rebuilds the
    states after steps 0..k-1 by ``extend``, one at a time.
    """

    __slots__ = ("d", "steps", "final", "k_table", "gamma_edges", "w_neighbors")

    def __init__(self, d, steps, final, k_table, gamma_edges, w_neighbors):
        self.d = d
        self.steps = steps
        self.final = final
        self.k_table = k_table
        self.gamma_edges = gamma_edges
        self.w_neighbors = w_neighbors

    @property
    def k(self) -> int:
        return len(self.steps)

    def states(self) -> Iterator["SubdivisionSequence"]:
        """The sequences of the first 0, 1, .., k steps, replayed by ``extend`` and then ``self``.

        Nothing is kept: each state is built from the one before, so a
        reader that walks consecutive pairs holds two states at a time.
        Each is one ``extend`` call of one edge, so consecutive states share
        every neighbor set and K entry the step leaves alone.  The readers
        are the ``*_failures`` suite functions of ``checks``, ``prefix`` and
        the CLI's ``example``; the ``--deep`` forward pass applies the steps
        to a state of its own and reads none.
        """
        if self.steps:
            state = new_sequence(self.d)
            yield state
            for step in self.steps[:-1]:
                state = extend(state, step.edge)
                yield state
        yield self

    def prefix(self, j: int) -> "SubdivisionSequence":
        """Sequence of the first j steps: ``self`` when j == k, else state j of ``states``."""
        k = len(self.steps)
        if j == k:
            return self
        if not 0 <= j < k:
            raise ValueError(f"prefix length {j} out of range 0..{k}")
        return next(islice(self.states(), j, None))

    def w_id(self, i: int) -> int:
        """Vertex id of the i-th subdivision vertex, i starting at 1."""
        if not 1 <= i <= self.k:
            raise ValueError(f"subdivision index {i} out of range 1..{self.k}")
        return 2 * self.d + i - 1

    def w_ids(self) -> tuple[int, ...]:
        return tuple(2 * self.d + i for i in range(self.k))

    def to_json(self) -> str:
        return json.dumps({"d": self.d, "steps": [{"edge": list(s.edge)} for s in self.steps]})

    @classmethod
    def from_json_obj(cls, obj) -> "SubdivisionSequence":
        """The sequence a JSON object gives: every step's JSON is checked, then ``extend`` subdivides all of them."""
        seq = new_sequence(json_int(obj["d"], "d"))
        steps = obj["steps"]
        if not isinstance(steps, list):
            raise ValueError(f"steps must be an array, got {json.dumps(steps)}")
        edges = []
        for i, step in enumerate(steps, start=1):
            if not isinstance(step, dict):
                raise ValueError(f"step {i} must be an object, got {json.dumps(step)}")
            try:
                edges.append(json_edge(step["edge"]))
            except ValueError as exc:
                raise ValueError(f"step {i}: {exc}") from None
        return extend(seq, *edges)

    @classmethod
    def from_json(cls, text: str) -> "SubdivisionSequence":
        return cls.from_json_obj(json.loads(text))


def new_sequence(d: int) -> SubdivisionSequence:
    """Zero-step sequence on the cross-polytope boundary of dimension parameter d."""
    start = cross_polytope(d)
    table = {v: frozenset() for v in start.vertices}
    return SubdivisionSequence(
        d=d,
        steps=(),
        final=start,
        k_table=table,
        gamma_edges=frozenset(),
        w_neighbors=(),
    )


def _thawed(entries: dict, own: set, v) -> set:
    """``entries[v]`` as a set this call may change: thawed into one the first time, and ``v`` added to ``own``."""
    if v in own:
        return entries[v]
    own.add(v)
    ns = entries[v] = set(entries[v])
    return ns


def extend(seq: SubdivisionSequence, *edges: Iterable[int]) -> SubdivisionSequence:
    """Subdivide ``edges`` in order, one step each, updating the K-table and the gamma edges.

    At each step, K is unchanged for the two endpoints and for vertices not
    adjacent to the new vertex; every common neighbor of the endpoints
    gains the new vertex; the new vertex starts with the intersection of
    the endpoints' pre-step K-sets, and that frozen intersection is what
    contributes gamma edges; afterwards it is the set of gamma-complex
    neighbors of w below w.

    ``seq`` is not changed.  The steps share one private state: the
    adjacency and the K-table are copied once, and every entry no step
    changes stays shared with ``seq``.  The first change to an entry thaws
    it into a set (``_thawed``), later steps change that set in place, and
    every thawed entry is frozen once at the end.  So a call copies an
    entry at most twice, and k steps cost two dict copies and
    O(k * degree) set work, where k one-edge calls copy both dicts k times
    and a growing entry at every change.  An edge that is not an edge of
    the current complex is named by its step, numbered as in the result.
    """
    adj, table = seq.final.adjacency().copy(), dict(seq.k_table)
    own_adj, own_k = set(), set()
    steps, w_neighbors, gamma = [], [], []
    first = 2 * seq.d
    for w, edge in enumerate(edges, start=first + seq.k):
        ends = tuple(edge)
        try:
            a, b = ends
        except ValueError:
            raise edge_arity_error(ends) from None
        if b not in adj.get(a, ()):
            raise ValueError(f"step {w - first + 1}: ({a}, {b}) is not an edge of the current complex")
        if w in adj:
            raise ValueError(f"step {w - first + 1}: subdivision vertex {w} already present")
        common = adj[a] & adj[b]
        table[w] = kw = frozenset(table[a] & table[b])
        for v in common:
            _thawed(adj, own_adj, v).add(w)
            _thawed(table, own_k, v).add(w)
        for u, x in ((a, b), (b, a)):
            ns = _thawed(adj, own_adj, u)
            ns.remove(x)
            ns.add(w)
        adj[w] = near = frozenset((a, b, *common))
        steps.append(SubdivisionStep((a, b), w))
        w_neighbors.append(near)
        gamma.extend((x, w) for x in kw)
    for entries, own in ((adj, own_adj), (table, own_k)):
        for v in own:
            entries[v] = frozenset(entries[v])
    return SubdivisionSequence(
        d=seq.d,
        steps=seq.steps + tuple(steps),
        final=FlagComplex._from_adj(adj),
        k_table=table,
        gamma_edges=seq.gamma_edges.union(gamma),
        w_neighbors=seq.w_neighbors + tuple(w_neighbors),
    )


def random_sequence(d: int, k: int, seed: int) -> SubdivisionSequence:
    """k uniformly chosen valid edge subdivisions, deterministic in the seed.

    The edges are drawn first (``_draws``); one ``extend`` call then builds
    the sequence and checks every drawn edge.
    """
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    if d < 2 and k > 0:
        raise ValueError(f"d={d} has no edges to subdivide")
    return extend(new_sequence(d), *_draws(d, k, random.Random(seed)))


class _Edges:
    """The edges of a complex on ids 0..n-1, as a sequence in ``edges()`` order, kept up to date under edge subdivisions.

    ``later[u]`` holds u's larger neighbours in increasing order,
    ``counts[u]`` their number, and ``sums[i]`` the counts of the block of
    ids 64i..64i+63.  Edge i is found by one ``accumulate`` and ``bisect``
    over the block sums and one over the counts of a block, so a lookup
    costs O(n / 64 + 64) and each count change O(1).  The neighbour sets
    ``adj`` are this object's own.
    """

    __slots__ = ("adj", "later", "counts", "sums", "size")

    def __init__(self, start: FlagComplex):
        self.adj = {v: set(ns) for v, ns in start.adjacency().items()}
        n = len(self.adj)
        self.later = [[] for _ in range(n)]
        for u, v in start.edges():
            self.later[u].append(v)
        self.counts = [len(vs) for vs in self.later]
        self.sums = [sum(self.counts[i : i + 64]) for i in range(0, n, 64)]
        self.size = sum(self.sums)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self.size:
            raise IndexError(i)
        upto = list(accumulate(self.sums, initial=0))
        block = bisect_right(upto, i) - 1
        i -= upto[block]
        first = block << 6
        upto = list(accumulate(self.counts[first : first + 64], initial=0))
        u = bisect_right(upto, i) - 1
        return first + u, self.later[first + u][i - upto[u]]

    def subdivide(self, a: int, b: int, w: int) -> None:
        """Subdivide the edge ab, a < b, by the new vertex w, the next id."""
        adj, later, counts, sums = self.adj, self.later, self.counts, self.sums
        ends = later[a]
        del ends[bisect_left(ends, b)]
        counts[a] -= 1
        sums[a >> 6] -= 1
        common = adj[a] & adj[b]
        for v in common:
            adj[v].add(w)
        for u, v in ((a, b), (b, a)):
            adj[u].remove(v)
            adj[u].add(w)
        adj[w] = near = common | {a, b}
        later.append([])
        counts.append(0)
        if not w & 63:
            sums.append(0)
        for v in near:
            later[v].append(w)
            counts[v] += 1
            sums[v >> 6] += 1
        self.size += len(near) - 1


def _draws(d: int, k: int, rng: random.Random) -> list[tuple[int, int]]:
    """The edges of k steps from the cross polytope, each drawn uniformly from the complex the steps before built.

    Each step draws from the current complex's ``edges()`` list through
    ``_Edges``, which the draw's subdivision then updates in place: the
    subdivided edge leaves it and the edges (v, w) to the new vertex w join
    it.  ``rng.choice`` takes the same index from it as from the list, so
    the draws are those of a list rebuilt every step.  A draw costs
    O(n / 64 + 64) and an update O(degree), so k draws cost O(k * k / 64)
    where keeping the list sorted cost O(k * m), m edges.
    """
    edges = _Edges(cross_polytope(d))
    drawn = []
    for w in range(2 * d, 2 * d + k):
        edge = rng.choice(edges)
        drawn.append(edge)
        edges.subdivide(*edge, w)
    return drawn


def k_set_at(seq: SubdivisionSequence, j: int, face: Iterable[int]) -> tuple[int, ...]:
    """K of a face of the j-th complex, ordered by subdivision index."""
    return k_set(seq.prefix(j), face)


def k_set(seq: SubdivisionSequence, face: Iterable[int]) -> tuple[int, ...]:
    """K of a face of the final complex: intersection of the vertex K-sets."""
    fs = frozenset(face)
    if not seq.final.is_face(fs):
        raise ValueError(f"{set(fs)!r} is not a face of complex {seq.k}")
    if not fs:
        return seq.w_ids()
    table = seq.k_table
    it = iter(fs)
    out = set(table[next(it)])
    for v in it:
        out &= table[v]
    return tuple(sorted(out))


def _face_class(fs: frozenset[int], a: int, b: int, w: int, near_w: frozenset[int]) -> FaceClass:
    """Position of ``fs`` relative to the step that subdivided ab by w, with neighbors ``near_w``."""
    if a in fs or b in fs:
        return FaceClass.F2 if w in fs else FaceClass.F1
    if w in fs:
        return FaceClass.F3
    return FaceClass.F4 if fs <= near_w else FaceClass.F5


def _transformed(fs: frozenset[int], cls: FaceClass, a: int, b: int, w: int) -> frozenset[int]:
    """The face of the previous complex that the case rules read for ``fs``, of class ``cls``."""
    if cls is FaceClass.F2:
        return fs - {w} | {b if a in fs else a}
    if cls is FaceClass.F3:
        return fs - {w} | {a, b}
    return fs


def _w_rule(recipe: tuple, cls: FaceClass, fs: frozenset[int], a: int, b: int, w: int) -> tuple:
    """The recipe of ``fs``, of class ``cls``, from ``recipe``, that of its transformed face.

    F1 renames the endpoint that ``fs`` lacks to w, F3 adds the pair
    (a, b), F4 appends the step ((a, b), w), and F2 and F5 copy.
    """
    if cls is FaceClass.F1:
        return _rename(recipe, b if a in fs else a, w)
    if cls is FaceClass.F3:
        return recipe[0] + ((a, b),), recipe[1]
    if cls is FaceClass.F4:
        return recipe[0], recipe[1] + (((a, b), w),)
    return recipe


def classify_face(seq: SubdivisionSequence, face: Iterable[int]) -> FaceClass:
    """One of the five positions of a face relative to the last step."""
    if seq.k == 0:
        raise ValueError("classification needs at least one subdivision step")
    fs = frozenset(face)
    if not seq.final.is_face(fs):
        raise ValueError(f"{set(fs)!r} is not a face of the final complex")
    (a, b), w = seq.steps[-1]
    return _face_class(fs, a, b, w, seq.w_neighbors[-1])


def _start_recipe(d: int, fs: frozenset[int]) -> tuple:
    """Recipe of a face of the cross polytope on d pairs, as a plain tuple: the pairs that avoid it, and no step."""
    return tuple((2 * i, 2 * i + 1) for i in range(d) if 2 * i not in fs and 2 * i + 1 not in fs), ()


def _start_layer(d: int) -> dict[int, tuple]:
    """``_start_recipe`` of every face of the cross polytope on d pairs, under the face's mask.

    Built one antipodal pair at a time rather than by walking the 3^d
    faces: a face holds neither vertex of pair i, and the pair stays in
    its recipe, or holds 2i or 2i + 1, and the pair is dropped.  Faces
    that keep the same pairs share one recipe.
    """
    groups = [((), [0])]  # (pairs kept, masks of the faces that keep exactly those pairs)
    for i in range(d):
        a, b = 1 << 2 * i, 2 << 2 * i
        groups = [
            group
            for kept, masks in groups
            for group in (
                (kept + ((2 * i, 2 * i + 1),), masks),
                (kept, [m | a for m in masks] + [m | b for m in masks]),
            )
        ]
    return {m: recipe for kept, masks in groups for recipe in [(kept, ())] for m in masks}


def _advance_recipes(layer: dict, spanned: Iterable[int], step, bits: tuple[int, int, int]) -> None:
    """Turn the recipes of step j-1's faces into step j's, in place; ``step`` subdivides ab by w.

    Faces are int masks over some numbering of the vertices, and ``bits``
    are the masks of a, b and w.  ``layer`` maps every face of step j-1 to
    the recipe ``_link_seq`` gives it;
    ``spanned`` are the faces that hold a and b: tau + a + b for each
    clique tau of lk(ab).  The W rule (``_w_rule``) changes only the
    faces built on some tau.  tau + a + b is dropped; tau + a + w and
    tau + b + w copy its recipe (F2), and tau + w copies it with the pair
    (a, b) added (F3); tau gains the step ((a, b), w) (F4); tau + a
    renames b to w and tau + b renames a to w (F1).  Every other face
    keeps its recipe: an F5 face copies it, and an F1 face with a that is
    not tau + a has no b in its recipe, by the rename lemma of ``checks``.
    """
    (a, b), w = step
    ba, bb, bw = bits
    pair, appended = ((a, b),), (((a, b), w),)
    for g in spanned:
        recipe = layer.pop(g)
        ga, gb = g ^ bb, g ^ ba
        tau = ga ^ ba
        layer[ga | bw] = layer[gb | bw] = recipe
        layer[tau | bw] = (recipe[0] + pair, recipe[1])
        kept = layer[tau]
        layer[tau] = (kept[0], kept[1] + appended)
        layer[ga] = _rename(layer[ga], b, w)
        layer[gb] = _rename(layer[gb], a, w)


def _link_seq(seq: SubdivisionSequence, j: int, fs: frozenset[int], memo: dict) -> tuple:
    """Recipe of a face of the j-th complex, memoized in the caller's ``memo``: by recursion on j,
    ``_w_rule`` applied to the recipe of its transformed face at j-1, classified against N_j(w_j)."""
    key = (j, fs)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if j == 0:
        out = _start_recipe(seq.d, fs)
    else:
        (a, b), w = seq.steps[j - 1]
        cls = _face_class(fs, a, b, w, seq.w_neighbors[j - 1])
        out = _w_rule(_link_seq(seq, j - 1, _transformed(fs, cls, a, b, w), memo), cls, fs, a, b, w)
    memo[key] = out
    return out


class InducedSequence(NamedTuple):
    """Subdivision sequence of a face's link, with ambient vertex labels.

    ``base`` is the sequence in canonical ids (None when the link is the
    empty complex), ``label_of`` translates canonical ids back to ambient
    vertices, and ``w_labels`` are the link's subdivision vertices in
    creation order: the W-set of the face.  As a NamedTuple it is also
    ``==`` to a plain tuple of the same field values.
    """

    base: SubdivisionSequence | None
    w_labels: tuple[int, ...]
    label_of: Mapping[int, int]
    canonical_of: Mapping[int, int]

    @property
    def step_count(self) -> int:
        return len(self.w_labels)

    def result(self) -> FlagComplex:
        """Final complex of the induced sequence, in ambient labels."""
        if self.base is None:
            return FlagComplex()
        return self.base.final.relabel(self.label_of)

    def k_set_ambient(self, face: Iterable[int]) -> tuple[int, ...]:
        """K-set of a face of the link, translated to ambient labels."""
        fs = frozenset(face)
        if self.base is None:
            if fs:
                raise ValueError(f"{set(fs)!r} is not a face of the empty link")
            return ()
        canon = frozenset(self.canonical_of[v] for v in fs)
        return tuple(self.label_of[c] for c in k_set(self.base, canon))

    def gamma_complex_ambient(self) -> FlagComplex:
        if self.base is None:
            return FlagComplex()
        return gamma_complex(self.base).relabel(
            {c: self.label_of[c] for c in self.base.w_ids()}
        )


def _translate(recipe: tuple) -> tuple:
    """A recipe in canonical ids: (shape, labels), with ``labels[c]`` the ambient vertex of canonical id c.

    The base is the cross polytope on the recipe's pairs, the i-th pair
    numbered 2i and 2i + 1, subdivided along the recipe's steps; the new
    vertex of step i gets 2n + i, the id ``extend`` gives it.  The shape,
    (n, the steps' edges in canonical ids), is None for the empty link;
    ``extend`` is deterministic, so the shape fixes the base.  A step's
    edge is read with the ids its ends hold at that step, the last id a
    repeated label was given.
    """
    pairs, steps = recipe
    if not pairs:
        if steps:
            raise RuntimeError("internal inconsistency: steps recorded on an empty link")
        return None, []
    labels = []
    for u, v in pairs:
        labels += (u, v)
    if not steps:
        return (len(pairs), ()), labels
    canonical_of = {amb: c for c, amb in enumerate(labels)}
    edges = []
    for (u, v), w in steps:
        edges.append((canonical_of[u], canonical_of[v]))
        canonical_of[w] = len(labels)
        labels.append(w)
    return (len(pairs), tuple(edges)), labels


def _build_base(shape: tuple) -> SubdivisionSequence:
    """The base sequence of a shape from ``_translate``; ``checks._Shape`` reads its tables off the shape without it."""
    n, edges = shape
    return extend(new_sequence(n), *edges)


def _labeled(base: SubdivisionSequence | None, labels) -> InducedSequence:
    """The induced sequence of a base and the labels ``_translate`` gives its canonical ids."""
    canonical_of = {amb: c for c, amb in enumerate(labels)}
    label_of = {c: amb for amb, c in canonical_of.items()}
    w_labels = tuple(labels[2 * base.d :]) if base else ()
    return InducedSequence(base=base, w_labels=w_labels, label_of=label_of, canonical_of=canonical_of)


def _induced(seq: SubdivisionSequence, j: int, fs: frozenset[int], bases: dict, memo: dict) -> InducedSequence:
    """Induced sequence for a face of the j-th complex, taken to be one, its recipe read through ``memo``.

    ``bases`` maps shapes to their built bases: a shape it holds is not
    built again, and one it lacks is built and added.  The empty link has
    no base.
    """
    shape, labels = _translate(_link_seq(seq, j, fs, memo))
    if shape is not None and shape not in bases:
        bases[shape] = _build_base(shape)
    return _labeled(bases.get(shape), labels)


def induced_sequence(seq: SubdivisionSequence, face: Iterable[int]) -> InducedSequence:
    """Induced sequence for a face of the final complex."""
    fs = frozenset(face)
    if not seq.final.is_face(fs):
        raise ValueError(f"{set(fs)!r} is not a face of complex {seq.k}")
    return _induced(seq, seq.k, fs, {}, {})


def w_set_at(seq: SubdivisionSequence, j: int, face: Iterable[int]) -> tuple[int, ...]:
    return _w_set_of(seq, j, seq.prefix(j), frozenset(face), {})


def _recipe_at(seq, j, state, fs, memo) -> tuple:
    """Recipe of a face of ``state``, which is ``seq.prefix(j)``, read through ``memo``; raises where it is no face."""
    if not state.final.is_face(fs):
        raise ValueError(f"{set(fs)!r} is not a face of complex {j}")
    return _link_seq(seq, j, fs, memo)


def _w_set_of(seq, j, state, fs, memo) -> tuple[int, ...]:
    """W of a face of ``state``, which is ``seq.prefix(j)``, its recipe read through ``memo``."""
    return tuple(w for _, w in _recipe_at(seq, j, state, fs, memo)[1])


def w_set(seq: SubdivisionSequence, face: Iterable[int]) -> tuple[int, ...]:
    """New vertices of the face's induced sequence, in creation order."""
    return w_set_at(seq, seq.k, face)


def phi(seq: SubdivisionSequence, face: Iterable[int]) -> dict[int, int]:
    """Order-preserving bijection from the K-set onto the W-set of a face."""
    return _phi(seq, frozenset(face), {})


def _phi(seq: SubdivisionSequence, fs: frozenset[int], memo: dict) -> dict[int, int]:
    """``phi`` of a face of the final complex, its recipe read through ``memo``."""
    ks = k_set(seq, fs)
    ws = _w_set_of(seq, seq.k, seq, fs, memo)
    if len(ks) != len(ws):
        raise RuntimeError(
            f"internal inconsistency: |K|={len(ks)} but |W|={len(ws)} for {set(fs)!r}"
        )
    return dict(zip(ks, ws))


def gamma_complex(seq: SubdivisionSequence) -> FlagComplex:
    """Flag complex on the subdivision vertices with the accumulated edges."""
    return FlagComplex(seq.w_ids(), seq.gamma_edges)


def verify_f_equals_gamma(seq: SubdivisionSequence) -> dict:
    """Compare f of the gamma complex with gamma of the final complex, exactly.

    Inequality is reported, never raised; the f side is computed without a
    degree cap so that a too-large clique in the gamma complex would surface
    as a report mismatch.
    """
    f_gamma = f_from_counts(gamma_complex(seq).clique_count_by_size())
    gamma_theta = gamma_of(seq.final, seq.d).gamma
    return {
        "d": seq.d,
        "k": seq.k,
        "f_gamma": f_gamma.to_list(),
        "gamma_theta": gamma_theta.to_list(),
        "equal": f_gamma == gamma_theta,
    }
