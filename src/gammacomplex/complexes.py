"""Graph-backed and face-set-backed simplicial complexes.

A flag complex is determined by its underlying graph: the faces are
exactly the cliques, so ``FlagComplex`` stores adjacency only and all
face information is derived.  ``FaceComplex`` stores every face
explicitly; it is deliberately naive and serves as the brute-force
oracle against which the graph operations are cross-checked.

Canonical vertex ids: a cross-polytope boundary on dimension parameter
``d`` uses ids ``0 .. 2d-1`` with ``antipode(i) == i ^ 1``; vertices
added by edge subdivisions continue at ``2d``.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cache
from itertools import combinations
from types import MappingProxyType
from typing import Hashable, Iterable, Iterator, Mapping

__all__ = [
    "FlagComplex",
    "FaceComplex",
    "antipode",
    "cross_polytope",
    "link",
    "join",
    "subdivide_edge",
    "subdivide_face_general",
    "is_flag",
    "is_isomorphic_under",
]

Vertex = Hashable


def _vkey(v):
    """Total order for the vertex kinds used here: ints and frozensets of ints."""
    if isinstance(v, frozenset):
        return (1, len(v), tuple(sorted(v)))
    return (0, v)


def _mask(ids: Iterable[int]) -> int:
    """The int with bit v set for each of ``ids``, distinct ints of at least 0."""
    return sum([1 << v for v in ids])


def _count_order(adj: Mapping) -> list:
    """The vertex numbering of ``clique_count_by_size``, taken from the graph.

    Repeatedly removes a vertex of largest degree in the remaining graph,
    the largest in ``_vkey`` order among ties, and numbers the vertices in
    the reverse of that removal order, so the first removed comes last.  It
    depends on the graph alone, not on how it was built.

    Degree buckets are int bitmasks over the ``_vkey`` positions, filed
    lazily: a vertex stays in the bucket of a degree it once had, and is
    moved down to its current degree only when it reaches the top bucket.
    A vertex whose current degree is the top one is a largest, since no
    degree exceeds its bucket, and scanning the top bucket from its high
    bit finds the largest of them.  The current degrees are counters: a
    removal takes one from each neighbour's, and a removed vertex is in no
    bucket, so its counter is never read again.  Every pop removes a
    vertex or moves one down by at least one lost neighbour, so after the
    sort the cost is O(n + m) counter steps and bucket operations, and the
    buckets are the only n-bit ints it builds.
    """
    vs = sorted(adj, key=_vkey)
    degree = {v: len(adj[v]) for v in vs}
    buckets = [0] * len(vs)
    for i, v in enumerate(vs):
        buckets[degree[v]] |= 1 << i
    top = len(vs) - 1
    removed = []
    while len(removed) < len(vs):
        while not buckets[top]:
            top -= 1
        i = buckets[top].bit_length() - 1
        bit = 1 << i
        buckets[top] ^= bit
        v = vs[i]
        if degree[v] < top:
            buckets[degree[v]] |= bit
        else:
            removed.append(v)
            for u in adj[v]:
                degree[u] -= 1
    removed.reverse()
    return removed


class FlagComplex:
    """Immutable undirected graph whose cliques (including the empty set) are the faces."""

    __slots__ = ("_adj",)

    def __init__(self, vertices: Iterable[Vertex] = (), edges: Iterable = ()):
        adj: dict = {v: set() for v in vertices}
        for edge in edges:
            try:
                a, b = edge
            except ValueError:
                raise edge_arity_error(edge) from None
            if a == b:
                raise ValueError(f"loop edge at vertex {a!r}")
            if a not in adj or b not in adj:
                raise ValueError(f"edge ({a!r}, {b!r}) uses a vertex not in the complex")
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}

    @classmethod
    def _from_adj(cls, adj: dict) -> "FlagComplex":
        """Wrap an already symmetric, loop-free adjacency dict of frozensets."""
        c = cls.__new__(cls)
        c._adj = adj
        return c

    @property
    def vertices(self) -> frozenset:
        return frozenset(self._adj)

    def neighbors(self, v) -> frozenset:
        return self._adj[v]

    def adjacency(self) -> Mapping:
        """Read-only view of the graph: every vertex with its neighbor set."""
        return MappingProxyType(self._adj)

    def has_edge(self, a, b) -> bool:
        return a in self._adj and b in self._adj[a]

    def edges(self) -> list[tuple]:
        """All edges, each as a pair sorted by ``_vkey``, in ``_vkey`` order of the pairs.

        One sort of the vertices ranks them; each vertex is then paired with
        its later-ranked neighbours in rank order, so no pair is built twice
        and the list needs no sort of its own.
        """
        adj = self._adj
        vs = sorted(adj, key=_vkey)
        rank = {v: i for i, v in enumerate(vs)}
        return [
            (v, vs[j]) for i, v in enumerate(vs) for j in sorted(map(rank.__getitem__, adj[v])) if j > i
        ]

    def is_face(self, face: Iterable[Vertex]) -> bool:
        fs = frozenset(face)
        adj = self._adj
        return adj.keys() >= fs and all(b in adj[a] for a, b in combinations(fs, 2))

    def common_neighbors(self, face: Iterable[Vertex]) -> frozenset:
        fs = frozenset(face)
        if not fs:
            return self.vertices
        it = iter(fs)
        out = set(self._adj[next(it)])
        for v in it:
            out &= self._adj[v]
        return frozenset(out)

    def faces(self) -> Iterator[frozenset]:
        """Every clique, the empty one included, each exactly once: the ``faces_with`` fold that grows the clique."""
        return self.faces_with(frozenset(), lambda face, v: face | {v})

    def faces_with(self, start, step) -> Iterator:
        """The value folded along a walk over every clique, depth first with vertices in ``_vkey`` order.

        The empty face carries ``start``; a clique F + v, where v comes after
        every vertex of F, carries ``step(value of F, v)``.  Each value is
        computed once, from the value of the clique it extends, so a running
        intersection such as K(F + v) = K(F) & K(v) costs one step per face;
        ``faces()`` is the fold that grows the clique itself.
        """
        adj = self._adj
        yield start

        def grow(value, candidates):
            for i, v in enumerate(candidates):
                val = step(value, v)
                yield val
                nbrs = adj[v]
                nxt = [u for u in candidates[i + 1 :] if u in nbrs]
                if nxt:
                    yield from grow(val, nxt)

        try:
            yield from grow(start, sorted(adj, key=_vkey))
        finally:
            del grow  # grow refers to itself through its closure cell: break that cycle

    def clique_count_by_size(self) -> Counter:
        """Number of cliques of each size, without visiting the cliques one by one.

        With the vertices numbered in ``_count_order`` and every vertex set
        held as an int bitmask, the clique polynomial of an induced subgraph
        M is f(M) = 1 + t * sum over v in M of f(M_{>v} & N(v)), where M_{>v}
        is the part of M after v.  f is memoized on the mask, so a
        neighbourhood reached from many cliques is counted once; the
        recursion only steps into neighbourhoods, so its depth is at most
        the clique number.

        The count is exact in any numbering, because every clique has
        exactly one first vertex v and is v plus a clique of v's later
        neighbours; the numbering only decides which masks the memo meets.
        ``_count_order`` numbers vertices of large degree last, so the
        later neighbourhoods, and with them the masks, stay small: at d=16,
        k=30 the memo holds 19,692 masks instead of the 308,426 that the
        ``_vkey`` numbering, cross-polytope ids first, gives.  The order
        is found on degree counters, so the neighbourhood masks are built
        once, here, in the numbering the kernel uses.

        A polynomial is one packed int with coefficient i in bits
        [i*width, (i+1)*width): adding is ``+`` and multiplying by t is
        ``<< width``.  By the same first-vertex argument no coefficient
        exceeds 1 + sum_v 2**|later neighbours of v| (2**n for K_n), taken
        over the numbering in use, and a field of that bound's bit length
        never carries into the next.

        Suffix exit.  Let M's vertices be v_1 < ... < v_m.  For j > i the
        part of M after v_j is also the part of M_{>v_i} after v_j, so the
        terms of f(M) for v_{i+1}, ..., v_m are the terms of f(M_{>v_i}),
        and f(M) = f(M_{>v_i}) + t * (the terms for v_1, ..., v_i).  Once
        the suffix left after v_i is non-zero and in the memo, f(M) is its
        value plus the sum so far shifted, and the loop ends there.  The
        memo is read there and never written, and it ends with the same
        masks as without the exit: when a mask enters the memo, every mask
        its full loop would meet is already in it, because the steps it ran
        put theirs in and the suffix it stopped at entered earlier
        (induction on the order of entry).  So the memory stays as it was,
        and the recursion still only steps into neighbourhoods.
        """
        order = _count_order(self._adj)
        bits = {v: 1 << i for i, v in enumerate(order)}
        nbr = [sum(map(bits.__getitem__, self._adj[v])) for v in order]
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
        del f  # f refers to itself through its closure cell: break that cycle
        counts: Counter = Counter()
        field = (1 << width) - 1
        size = 0
        while packed:
            counts[size] = packed & field
            packed >>= width
            size += 1
        return counts

    def induced(self, vertices: Iterable[Vertex]) -> "FlagComplex":
        vs = frozenset(vertices)
        if not vs <= self.vertices:
            raise ValueError("induced subgraph on vertices outside the complex")
        edges = [(a, b) for a, b in combinations(vs, 2) if b in self._adj[a]]
        return FlagComplex(vs, edges)

    def relabel(self, mapping: Mapping) -> "FlagComplex":
        """Rename vertices through a bijective mapping covering all of them."""
        if set(mapping) != self.vertices or len(set(mapping.values())) != len(self._adj):
            raise ValueError("relabel mapping is not a bijection on the vertex set")
        return FlagComplex._from_adj(
            {mapping[v]: frozenset(mapping[u] for u in ns) for v, ns in self._adj.items()}
        )

    def to_face_complex(self) -> "FaceComplex":
        return FaceComplex(self.vertices, self.faces())

    def __eq__(self, other) -> bool:
        return isinstance(other, FlagComplex) and self._adj == other._adj

    def __hash__(self):
        return hash(frozenset((v, ns) for v, ns in self._adj.items()))

    def __repr__(self):
        edges = sum(map(len, self._adj.values())) // 2  # every edge is in two neighbour sets
        return f"FlagComplex({len(self._adj)} vertices, {edges} edges)"

    def to_json(self) -> str:
        vs = sorted(self._adj)
        if not all(isinstance(v, int) for v in vs):
            raise ValueError("JSON form requires integer vertex ids")
        return json.dumps({"vertices": vs, "edges": [list(e) for e in self.edges()]})

    @classmethod
    def from_json_obj(cls, obj) -> "FlagComplex":
        vertices = [json_int(v, "vertex id") for v in obj["vertices"]]
        edges = [json_edge(e) for e in obj["edges"]]
        return cls(vertices, edges)

    @classmethod
    def from_json(cls, text: str) -> "FlagComplex":
        return cls.from_json_obj(json.loads(text))


class FaceComplex:
    """Explicit downward-closed face set; the slow oracle twin of FlagComplex."""

    __slots__ = ("vertices", "faces")

    def __init__(self, vertices: Iterable[Vertex], faces: Iterable[Iterable[Vertex]]):
        self.vertices = frozenset(vertices)
        self.faces = frozenset(frozenset(f) for f in faces) | {frozenset()}
        for v in self.vertices:
            if frozenset((v,)) not in self.faces:
                raise ValueError(f"singleton {v!r} missing from the face set")
        for f in self.faces:
            if not f <= self.vertices:
                raise ValueError(f"face {set(f)!r} uses a vertex not in the complex")
            for v in f:
                if f - {v} not in self.faces:
                    raise ValueError(f"face set not downward closed at {set(f)!r}")

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable[Vertex]], vertices: Iterable[Vertex] = ()) -> "FaceComplex":
        """Downward closure of the given maximal faces (extra isolated vertices allowed)."""
        faces = {frozenset()}
        vs = set(vertices)
        for facet in facets:
            fs = frozenset(facet)
            vs |= fs
            for r in range(1, len(fs) + 1):
                faces.update(frozenset(c) for c in combinations(fs, r))
        faces.update(frozenset((v,)) for v in vs)
        return cls(vs, faces)

    def facets(self) -> list[frozenset]:
        out = [f for f in self.faces if not any(f < g for g in self.faces)]
        return sorted(out, key=lambda f: (len(f), tuple(sorted(f, key=_vkey))))

    def f_counts(self) -> Counter:
        return Counter(len(f) for f in self.faces)

    def one_skeleton(self) -> FlagComplex:
        return FlagComplex(self.vertices, (tuple(f) for f in self.faces if len(f) == 2))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FaceComplex)
            and self.vertices == other.vertices
            and self.faces == other.faces
        )

    def __hash__(self):
        return hash((self.vertices, self.faces))

    def __repr__(self):
        return f"FaceComplex({len(self.vertices)} vertices, {len(self.faces)} faces)"

    def to_json(self) -> str:
        vs = sorted(self.vertices)
        if not all(isinstance(v, int) for v in vs):
            raise ValueError("JSON form requires integer vertex ids")
        return json.dumps({"vertices": vs, "facets": [sorted(f) for f in self.facets()]})

    @classmethod
    def from_json_obj(cls, obj) -> "FaceComplex":
        vertices = [json_int(v, "vertex id") for v in obj["vertices"]]
        facets = [[json_int(v, "vertex id") for v in f] for f in obj["facets"]]
        return cls.from_facets(facets, vertices)

    @classmethod
    def from_json(cls, text: str) -> "FaceComplex":
        return cls.from_json_obj(json.loads(text))


def json_int(value, what: str) -> int:
    """An integer read from JSON; bools are rejected although Python counts them as ints."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def json_edge(value) -> tuple[int, int]:
    """An edge read from JSON: exactly two integer vertex ids."""
    ids = tuple(json_int(v, "vertex id") for v in value)
    if len(ids) != 2:
        raise ValueError(f"an edge needs 2 vertex ids, {json.dumps(value)} has {len(ids)}")
    return ids


def edge_arity_error(edge) -> ValueError:
    """The error for an edge given with other than 2 vertices, naming what it got."""
    ends = list(edge)
    return ValueError(f"an edge needs 2 vertices, {ends} has {len(ends)}")


def antipode(v: int) -> int:
    """Antipodal partner under the canonical cross-polytope id scheme."""
    return v ^ 1


@cache
def cross_polytope(d: int) -> FlagComplex:
    """Boundary complex of the d-dimensional cross polytope, on ids 0 .. 2d-1.

    Vertex ``i`` is adjacent to every vertex except ``antipode(i)``.  Built
    once per d and shared: a ``FlagComplex`` is immutable, and every induced
    sequence of ``--deep`` starts from one.
    """
    if d < 1:
        raise ValueError(f"cross polytope dimension must be >= 1, got {d}")
    vs = range(2 * d)
    edges = [(a, b) for a, b in combinations(vs, 2) if b != antipode(a)]
    return FlagComplex(vs, edges)


def link(c: FlagComplex, face: Iterable[Vertex]) -> FlagComplex:
    """Induced subcomplex on the common neighbors of a face; link of the empty face is c."""
    fs = frozenset(face)
    if not c.is_face(fs):
        raise ValueError(f"{set(fs)!r} is not a face of the complex")
    if not fs:
        return c
    return c.induced(c.common_neighbors(fs))


def join(c1: FlagComplex, c2: FlagComplex) -> FlagComplex:
    """Disjoint union of the graphs plus every edge between the two sides."""
    if c1.vertices & c2.vertices:
        raise ValueError("join requires disjoint vertex sets")
    edges = c1.edges() + c2.edges() + [(a, b) for a in c1.vertices for b in c2.vertices]
    return FlagComplex(c1.vertices | c2.vertices, edges)


def subdivide_edge(c: FlagComplex, edge: Iterable[Vertex], s: Vertex) -> FlagComplex:
    """Stellar subdivision in an edge.

    The edge is removed and the fresh vertex ``s`` becomes adjacent to both
    endpoints and to every common neighbor of the endpoints.  The result is
    again flag.

    Costs O(degree) set work plus one shallow copy of the adjacency dict:
    only the entries of a, b, their common neighbors and s are replaced,
    and every other neighbor set is shared with ``c``.
    """
    ends = tuple(edge)
    try:
        a, b = ends
    except ValueError:
        raise edge_arity_error(ends) from None
    if not c.has_edge(a, b):
        raise ValueError(f"({a!r}, {b!r}) is not an edge of the complex")
    if s in c._adj:
        raise ValueError(f"subdivision vertex {s!r} already present")
    adj = dict(c._adj)
    common = adj[a] & adj[b]
    adj[a] = adj[a] - {b} | {s}
    adj[b] = adj[b] - {a} | {s}
    for v in common:
        adj[v] = adj[v] | {s}
    adj[s] = common | {a, b}
    return FlagComplex._from_adj(adj)


def subdivide_face_general(c: FaceComplex, face: Iterable[Vertex], s: Vertex) -> FaceComplex:
    """Stellar subdivision of an arbitrary nonempty face, on the explicit face set.

    Keeps the faces not containing ``face``, and adds ``tau | {s}`` for every
    ``tau`` that does not contain ``face`` but spans a face together with it.
    Subdividing a singleton is a degenerate rename of that vertex to ``s``.
    """
    fs = frozenset(face)
    if not fs:
        raise ValueError("cannot subdivide the empty face")
    if fs not in c.faces:
        raise ValueError(f"{set(fs)!r} is not a face of the complex")
    if s in c.vertices:
        raise ValueError(f"subdivision vertex {s!r} already present")
    kept = {f for f in c.faces if not fs <= f}
    coned = {f | {s} for f in c.faces if not fs <= f and (f | fs) in c.faces}
    faces = kept | coned
    vertices = {v for f in faces for v in f}
    return FaceComplex(vertices, faces)


def is_flag(c: FaceComplex) -> bool:
    """True iff every clique of the 1-skeleton is a face."""
    return set(c.one_skeleton().faces()) == set(c.faces)


def is_isomorphic_under(c1: FlagComplex, c2: FlagComplex, mapping: Mapping) -> bool:
    """Check a GIVEN vertex bijection for being an isomorphism (no search).

    Flag complexes are determined by their graphs, so preserving adjacency in
    both directions is exactly an inclusion-preserving bijection on faces:
    the first graph renamed through the bijection is the second.
    """
    if set(mapping) != c1.vertices:
        raise ValueError("mapping keys do not cover the first complex's vertices")
    if set(mapping.values()) != c2.vertices or len(set(mapping.values())) != len(mapping):
        raise ValueError("mapping is not a bijection onto the second complex's vertices")
    return c1.relabel(mapping) == c2
