"""Flag building sets, flag orderings, and their gamma complexes.

A building set on [n] is a family of nonempty subsets containing all
singletons and closed under union of intersecting members; it is flag
when every non-singleton member splits as a disjoint union of two
members.  Adding the members outside a binary decomposition one at a
time, with every prefix again a flag building set, corresponds step for
step to subdividing edges of the dual nested-set complex, and
``ordering_to_sequence`` realizes that correspondence on canonical
cross-polytope ids.  Finding an ordering, reading its U/V-sets and
translating it are each forward passes over one growing family.
``verify_ordering_equivalence`` checks that the sequence ends at the
building set's nested-set complex, and that the gamma complex of the
sequence and the one read off the U/V-sets agree, vertex for vertex.
``nested_set_complex`` builds the nested-set complex from the
compatibility graph of the members, without enumerating nested sets, and
proves it flag exactly when the split rule holds, the module's one flag
test (``_can_append`` is its one-step form); ``nested_set_faces``
enumerates the nested sets and is its oracle.

``BuildingSet`` and ``FlagOrdering`` hold frozensets, and every public
function takes and returns them, but works on int bitmasks inside
(``_mask``, bit x is the ground element x): x ⊆ y is ``x & y == x``
and x − y is ``x & ~y``.  Mask order is not the (size, sorted ids) order
of ``_skey`` ({2, 3} = 12 < {1, 4} = 18), so where ``_skey`` picks, the
members are sorted by it before they are converted.  ``_checked`` is the
one input policy: the axioms (``validate_building_set`` range-checks ids
first, as masks need ids of at least 0), connectedness and the split
rule.  Public functions check what they read, then run private cores on
the masks it returns; ``nestohedron_report`` checks its input once.
"""

from __future__ import annotations

import json
import random
from itertools import combinations
from typing import Callable, Collection, Hashable, Iterable, NamedTuple

from .complexes import (
    FaceComplex,
    FlagComplex,
    _mask,
    cross_polytope,
    is_isomorphic_under,
    json_int,
)
from .subdivision import (
    SubdivisionSequence,
    extend,
    gamma_complex,
    new_sequence,
    verify_f_equals_gamma,
)

__all__ = [
    "BuildingSet",
    "FlagOrdering",
    "validate_building_set",
    "is_flag_building_set",
    "find_decomposition",
    "find_flag_ordering",
    "validate_ordering",
    "u_set",
    "v_set",
    "gamma_complex_of_ordering",
    "nested_set_faces",
    "nested_set_complex",
    "ordering_to_sequence",
    "verify_ordering_equivalence",
    "nestohedron_report",
    "power_set_building_set",
    "interval_building_set",
    "graphical_building_set",
    "random_flag_building_set",
]

Subset = frozenset


def _skey(s: frozenset) -> tuple:
    return (len(s), tuple(sorted(s)))


def _json_members(rows, field: str, distinct: bool = True) -> list[Subset]:
    """The members in the JSON value ``rows`` of ``field``: an array of
    arrays of integer ids, no id twice within one member and, where
    ``distinct``, no member twice, whatever the order of its ids."""
    if not isinstance(rows, list):
        raise ValueError(f"{field} must be an array of members, got {json.dumps(rows)}")
    members, seen = [], set()
    for row in rows:
        if not isinstance(row, list):
            raise ValueError(f"each member in {field} must be an array of ids, got {json.dumps(row)}")
        member = frozenset(json_int(x, "member id") for x in row)
        if len(member) != len(row):
            raise ValueError(f"member {json.dumps(row)} in {field} repeats an id")
        if distinct and member in seen:
            raise ValueError(f"member {json.dumps(row)} in {field} is listed twice")
        seen.add(member)
        members.append(member)
    return members


class BuildingSet(NamedTuple):
    """Family of nonempty subsets of the ground set {1, ..., n}.

    As a NamedTuple it is also ``==`` to a plain tuple of the same field values.
    """

    n: int
    elements: frozenset[Subset]

    @classmethod
    def of(cls, n: int, elements: Iterable[Iterable[int]]) -> "BuildingSet":
        return cls(n, frozenset(frozenset(e) for e in elements))

    @property
    def ground(self) -> Subset:
        return frozenset(range(1, self.n + 1))

    def is_connected(self) -> bool:
        return self.ground in self.elements

    def sorted_elements(self) -> list[Subset]:
        return sorted(self.elements, key=_skey)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "elements": [sorted(e) for e in self.sorted_elements()]})

    @classmethod
    def from_json_obj(cls, obj) -> "BuildingSet":
        return cls(json_int(obj["n"], "n"), frozenset(_json_members(obj["elements"], "elements")))

    @classmethod
    def from_json(cls, text: str) -> "BuildingSet":
        return cls.from_json_obj(json.loads(text))


def _by_mask(members: Iterable[Subset]) -> dict[int, Subset]:
    """Each member under its bitmask, in the order given."""
    return {_mask(e): e for e in members}


def validate_building_set(b: BuildingSet) -> bool:
    """Both axioms: all singletons present, unions of intersecting pairs present."""
    # nothing is sized by n before these two checks bound it by the member count
    if any(not e or min(e) < 1 or max(e) > b.n for e in b.elements):
        return False
    if sum(len(e) == 1 for e in b.elements) != b.n:
        return False
    members = set(map(_mask, b.elements))
    return all(x | y in members for x, y in combinations(members, 2) if x & y)


def _splits(target: int, members: Collection[int]) -> list[tuple[int, int]]:
    """Two-part splits (small, big) of the bitmask ``target`` inside ``members``,
    each listed once, in the order of ``members``.

    The small part comes first in ``_skey`` order: for disjoint parts that
    is the one with fewer elements, or with as many and the least element,
    which is the least element of ``target``.
    """
    low = target & -target
    out = []
    for part in members:
        rest = target & ~part
        if part & target == part and rest and rest in members:
            size, other = part.bit_count(), rest.bit_count()
            if size < other or (size == other and part & low):
                out.append((part, rest))
    return out


def is_flag_building_set(b: BuildingSet) -> bool:
    """Every non-singleton member is a disjoint union of two members: N(B) is flag."""
    if not validate_building_set(b):
        raise ValueError("not a valid building set")
    return _every_member_splits(set(map(_mask, b.elements)))


def _every_member_splits(members: Collection[int]) -> bool:
    """The split rule on bitmasks: every non-singleton member is a disjoint union of two."""
    return all(
        m.bit_count() == 1 or any(p & m == p != m and m & ~p in members for p in members)
        for m in members
    )


_NESTED_ERRORS = (
    "nested set complex needs a valid building set",
    "nested set complex needs a connected building set",
    "nested sets are not the cliques of their 1-skeleton: building set is not flag",
)


def _checked(b: BuildingSet, errors: tuple[str, str, str]) -> dict[int, Subset]:
    """``b``'s members under their bitmasks, in ``_skey`` order, once ``b`` passes the axioms,
    connectedness and the split rule; the first that fails raises its entry of ``errors``."""
    if not validate_building_set(b):
        raise ValueError(errors[0])
    if not b.is_connected():
        raise ValueError(errors[1])
    by_mask = _by_mask(b.sorted_elements())
    if not _every_member_splits(by_mask):
        raise ValueError(errors[2])
    return by_mask


def find_decomposition(b: BuildingSet) -> frozenset[Subset]:
    """Deterministic minimal connected flag building set inside ``b``.

    Recursively splits the ground set; among the available splits the one
    whose parts are (smallest small part, lexicographically least large
    part) wins, which keeps the result stable across runs.  The parts of
    one target with equally small small parts have equally large large
    parts, so the large part's rank in ``_skey`` order breaks the tie.
    """
    if not b.is_connected():
        raise ValueError("building set is not connected (ground set missing)")
    by_mask = _by_mask(b.sorted_elements())
    rank = {m: r for r, m in enumerate(by_mask)}
    out: list[Subset] = []

    def split(target: int) -> None:
        out.append(by_mask[target])
        if target.bit_count() == 1:
            return
        options = _splits(target, by_mask)
        if not options:
            raise ValueError(f"{sorted(by_mask[target])} has no two-part split: building set is not flag")
        small, big = min(options, key=lambda p: (p[0].bit_count(), rank[p[1]]))
        split(small)
        split(big)

    split(_mask(b.ground))
    return frozenset(out)


class FlagOrdering(NamedTuple):
    """Binary decomposition plus an order on the remaining members.

    Every prefix (decomposition plus the first j ordered members) is again
    a flag building set.  As a NamedTuple it is also ``==`` to a plain
    tuple of the same field values.
    """

    building_set: BuildingSet
    decomposition: frozenset[Subset]
    order: tuple[Subset, ...]

    @property
    def k(self) -> int:
        return len(self.order)

    def prefix_elements(self, j: int) -> frozenset[Subset]:
        """Members of the j-th prefix family (j = 0 is the decomposition alone)."""
        return self.decomposition | frozenset(self.order[:j])

    def prefix_building_set(self, j: int) -> BuildingSet:
        return BuildingSet(self.building_set.n, self.prefix_elements(j))

    def to_json(self) -> str:
        return json.dumps(
            {
                "decomposition": [sorted(e) for e in sorted(self.decomposition, key=_skey)],
                "order": [sorted(e) for e in self.order],
            }
        )

    @classmethod
    def from_json_obj(cls, b: BuildingSet, obj) -> "FlagOrdering":
        return cls(
            building_set=b,
            decomposition=frozenset(_json_members(obj["decomposition"], "decomposition")),
            # a member repeated in the order is left to validate_ordering
            order=tuple(_json_members(obj["order"], "order", distinct=False)),
        )


def _can_append(current: set[int], new: int) -> bool:
    """Would the family stay a flag building set after adding ``new``?

    Members are int bitmasks (``_mask``).  ``new`` must split as a
    disjoint union of two members, and its union with every member it
    meets without either holding the other must be a member.
    """
    splits = False
    for other in current:
        meet = new & other
        if meet == other:
            splits = splits or (other != new and new ^ other in current)
        elif meet and meet != new and new | other not in current:
            return False
    return splits


def find_flag_ordering(
    b: BuildingSet,
    decomposition: frozenset[Subset] | None = None,
    rng: random.Random | None = None,
) -> FlagOrdering:
    """Order the members outside the decomposition with every prefix flag.

    One forward pass: each step appends the first remaining member, taken
    smallest first (or in a fresh shuffle per step when ``rng`` is given),
    that passes ``_can_append``.  No step needs undoing.  Lemma: let B be a
    flag building set, D a binary decomposition of B (it holds every
    singleton; ``find_decomposition`` returns one), and C a flag building
    set with D ⊆ C ⊊ B; then some X in B - C passes ``_can_append(C, X)``.
    Proof sketch: (1) an inclusion-minimal X in B - C splits inside C, as
    B is flag; (2) if X = A ⊔ A' fails the union condition against some Y
    in C, then X ∪ Y is in B - C; (3) Y meets just one of A and A', say A,
    else C would hold (A ∪ Y) ∪ (A' ∪ Y) = X ∪ Y, so X ∪ Y splits inside
    C as (A ∪ Y) ⊔ A'; (4) members grow strictly, so repeating (2) and (3)
    ends at a member that passes.  So this returns the order a backtracking
    search over the same candidates would.  For a decomposition outside
    these hypotheses, a dead end raises the same ``ValueError`` as an input
    that is not a connected flag building set.
    """
    decomposition = decomposition if decomposition is not None else find_decomposition(b)
    current = set(map(_mask, decomposition))
    by_mask = _by_mask(sorted(b.elements - decomposition, key=_skey))
    left = list(by_mask)
    order = []
    while left:
        candidates = list(left)
        if rng is not None:
            rng.shuffle(candidates)
        member = next((x for x in candidates if _can_append(current, x)), None)
        if member is None:
            raise ValueError("no flag ordering exists: input is not a connected flag building set")
        current.add(member)
        left.remove(member)
        order.append(by_mask[member])
    return FlagOrdering(building_set=b, decomposition=decomposition, order=tuple(order))


def validate_ordering(o: FlagOrdering) -> None:
    """Raise unless the ordering enumerates the building set with flag prefixes.

    The building set is then a connected flag building set too: it is the
    decomposition, one, grown by members that ``_can_append`` keeps one.
    """
    b = o.building_set
    family = set(_checked(o.prefix_building_set(0), ("decomposition is not a connected flag building set",) * 3))
    if len(family) != 2 * b.n - 1:
        raise ValueError("decomposition is not minimal")
    if len(set(o.order)) != len(o.order) or o.decomposition | frozenset(o.order) != b.elements:
        raise ValueError("ordering does not enumerate the building set members exactly once")
    for j, member in enumerate(map(_mask, o.order), start=1):
        if member in family or not _can_append(family, member):
            raise ValueError(f"ordering prefix {j} is not a flag building set")
        family.add(member)


def _uv_sets(
    decomposition: list[int], order: list[int], j: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """U_j and V_j of an ordering given as bitmasks, in one pass over the
    family as it grows towards I_j: the residues x - I_j of the family so
    far make the U test a set lookup, and its members strictly inside I_j
    serve the V test."""
    ij = order[j - 1]
    residues = {x & ~ij for x in decomposition}
    inside = [x for x in decomposition if x & ij == x != ij]
    u, v = [], []
    for i, ii in enumerate(order[: j - 1], start=1):
        if ii & ij != ii:
            if ii & ~ij not in residues:
                u.append(i)
        elif ii != ij:
            if any(x & ii == ii != x for x in inside):
                v.append(i)
            inside.append(ii)
        residues.add(ii & ~ij)
    return tuple(u), tuple(v)


def _ordering_uv_sets(o: FlagOrdering, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not 1 <= j <= o.k:
        raise ValueError(f"ordering index {j} out of range 1..{o.k}")
    return _uv_sets(list(map(_mask, o.decomposition)), list(map(_mask, o.order)), j)


def u_set(o: FlagOrdering, j: int) -> tuple[int, ...]:
    """Earlier indices whose member leaves a residue no earlier member matched.

    i < j qualifies when I_i is not inside I_j and no member of the family
    before I_i has the same difference with I_j as I_i does.
    """
    return _ordering_uv_sets(o, j)[0]


def v_set(o: FlagOrdering, j: int) -> tuple[int, ...]:
    """Earlier indices i with I_i strictly sandwiched inside I_j by a yet earlier member."""
    return _ordering_uv_sets(o, j)[1]


def gamma_complex_of_ordering(o: FlagOrdering) -> FlagComplex:
    """Graph on vertex indices 1..k; i ~ j exactly when i is in U_j or V_j."""
    decomposition = list(map(_mask, o.decomposition))
    order = list(map(_mask, o.order))
    edges = [(i, j) for j in range(1, o.k + 1) for uv in _uv_sets(decomposition, order, j) for i in uv]
    return FlagComplex(range(1, o.k + 1), edges)


def nested_set_faces(b: BuildingSet) -> FaceComplex:
    """Explicit complex of nested sets of a connected building set.

    A nested set is a family of members (the ground set excluded) that is
    pairwise comparable-or-disjoint and in which no two or more pairwise
    disjoint members union to a member.  Every nested set is enumerated,
    so the cost grows with the number of faces; ``nested_set_complex``
    never calls this, and the tests use it, with ``is_flag``, as the
    oracle for that function's graph and for its flag theorem.
    """
    if not b.is_connected():
        raise ValueError("nested set complex needs a connected building set")
    verts = sorted(b.elements - {b.ground}, key=_skey)
    compatible = {
        (x, y)
        for x, y in combinations(verts, 2)
        if x <= y or y <= x or (not (x & y) and (x | y) not in b.elements)
    }
    compatible |= {(y, x) for x, y in compatible}

    faces: list[frozenset] = [frozenset()]

    def blocked(clique: tuple, new: Subset) -> bool:
        disjoint = [x for x in clique if not (x & new)]
        for r in range(1, len(disjoint) + 1):
            for group in combinations(disjoint, r):
                if all(not (x & y) for x, y in combinations(group, 2)):
                    union = new.union(*group)
                    if union in b.elements:
                        return True
        return False

    def grow(clique: tuple, candidates: list) -> None:
        for idx, v in enumerate(candidates):
            if blocked(clique, v):
                continue
            cur = clique + (v,)
            faces.append(frozenset(cur))
            nxt = [u for u in candidates[idx + 1 :] if (v, u) in compatible]
            if nxt:
                grow(cur, nxt)

    grow((), verts)
    return FaceComplex(verts, faces)


def nested_set_complex(b: BuildingSet) -> FlagComplex:
    """1-skeleton of the nested-set complex, valid for flag building sets only.

    Built from the compatibility graph alone, with no face enumerated: the
    vertices are the members other than the ground set, and x ~ y (a
    2-element nested set) when they are comparable, or disjoint with x | y
    not a member.  So a clique is no nested set exactly when k >= 3 of its
    members are pairwise disjoint with their union in B.  The input is
    rejected unless it is a building set, connected, and every member
    splits, which is flagness by the theorem below, so no face is lost;
    ``nested_set_faces`` with ``is_flag`` is the test oracle for both.

    Theorem: for a building set B, N(B) is flag exactly when every
    non-singleton member is a disjoint union of two members.  Cutting a set
    T into the maximal members inside it partitions T (singletons are
    members, and two that meet unite inside T); no two pieces unite in B.

    (<=) Claim, by induction on |U|: if U in B is a disjoint union of
    members y_1..y_k, k >= 2, some y_i | y_j is in B; for k = 2 it is U.
    Else split U = A | A' in B; let S hold the i with y_i meeting A.  The
    A | y_i with i in S meet in A, so their union, the union of the y_i
    over S (it covers A), is in B: if 2 <= |S| < k, use the claim on it.
    If |S| = 1, say S = {1}, use it on A' if A = y_1, else on A' with
    y_1 - A cut.  If |S| = k, do the same with A' for A; left is A and A'
    both meeting every y_i: use the claim on A with each y_i & A cut.
    It finds no two pieces of one cut, and pieces c of y_i, c' of y_j with
    c | c' in B put (c | c') | y_i = y_i | c', then y_i | y_j, in B.  So no
    clique unites pairwise disjoint members to a member: each is a face.

    (=>) If a non-singleton member m does not split, take x maximal among
    the members strictly inside m, and cut m - x into z_1..z_r.  Then
    r >= 2, else m splits; no x | z_i is in B, as it lies strictly between
    x and m; and no z_i | z_j is.  So x, z_1..z_r is a clique of N(B)'s
    graph, of at least three vertices, whose union m is in B: no face.
    """
    return _nested_graph(_checked(b, _NESTED_ERRORS), lambda e: e)


def _nested_graph(members: dict[int, Subset], name: Callable[[Subset], Hashable]) -> FlagComplex:
    """``nested_set_complex`` of checked ``members`` under their bitmasks, vertex e named ``name(e)``."""
    ground = max(members)  # the union of all members
    names = {x: name(e) for x, e in members.items() if x != ground}
    edges = []
    for x, y in combinations(names, 2):
        common = x & y
        if common == x or common == y or (not common and x | y not in members):
            edges.append((names[x], names[y]))
    return FlagComplex(names.values(), edges)


def decomposition_vertex_ids(decomposition: frozenset[Subset]) -> dict[Subset, int]:
    """Canonical cross-polytope ids: the i-th child pair of the decomposition
    tree, in (size, lex) order of their union, becomes (2i, 2i+1)."""
    by_mask = _by_mask(decomposition)
    pairs = []
    for t, member in by_mask.items():
        if t.bit_count() > 1:
            options = _splits(t, by_mask)
            if not options:
                raise ValueError(f"{sorted(member)} has no split inside the decomposition")
            small, big = options[0]
            pairs.append((member, by_mask[small], by_mask[big]))
    ids: dict[Subset, int] = {}
    for i, (_, small, big) in enumerate(sorted(pairs, key=lambda p: _skey(p[0]))):
        ids[small], ids[big] = 2 * i, 2 * i + 1
    return ids


def ordering_to_sequence(o: FlagOrdering) -> tuple[SubdivisionSequence, dict[Subset, int]]:
    """Translate a flag ordering into an edge-subdivision sequence.

    The decomposition's nested-set complex, labeled by canonical ids, is
    the starting cross-polytope; adding I_j subdivides the edge between
    its unique two-part split in the previous prefix, and the new vertex
    stands for I_j.  Returns the sequence and the member-to-vertex map.
    """
    validate_ordering(o)
    return _sequence(o, _by_mask(o.decomposition))


def _sequence(o: FlagOrdering, decomposition: dict[int, Subset]) -> tuple[SubdivisionSequence, dict[Subset, int]]:
    """``ordering_to_sequence`` once the decomposition, given under its bitmasks, is checked."""
    b = o.building_set
    if b.n < 2:
        raise ValueError("ground set must have at least 2 elements")
    ids = decomposition_vertex_ids(o.decomposition)
    d = b.n - 1
    if _nested_graph(decomposition, ids.__getitem__) != cross_polytope(d):
        raise RuntimeError("internal inconsistency: decomposition complex is not a cross polytope")
    # every member of the prefix but the ground set, which no split uses, by mask
    vertex = {_mask(e): v for e, v in ids.items()}
    edges = []
    # the j-th member added becomes the j-th new vertex, 2d + j - 1
    for w, member in enumerate(o.order, start=2 * d):
        mask = _mask(member)
        options = _splits(mask, vertex)
        # The prefix C is a building set lacking X = member, and X splits in
        # it (``validate_ordering`` and ``find_flag_ordering`` both keep to
        # ``_can_append``).  Two splits A + A' = B + B' of X would put X in C.
        # Say A meets B (else swap B and B'), and A != B (else the splits are
        # one).  If A is inside B, B meets A' and B | A' = X; if B is inside
        # A, A meets B' and A | B' = X; else B meets A', and A | B and A' | B
        # meet in B, so their union X is in C.
        if len(options) != 1:
            raise RuntimeError(
                f"internal inconsistency: member {sorted(member)} has {len(options)} "
                f"two-part splits in its prefix; expected exactly one"
            )
        small, big = options[0]
        edges.append((vertex[small], vertex[big]))
        vertex[mask] = ids[member] = w
    return extend(new_sequence(d), *edges), ids


def verify_ordering_equivalence(o: FlagOrdering) -> dict:
    """Check the two gamma-complex constructions against each other.

    Verifies, exactly: the sequence's final complex is the building set's
    nested-set complex under the accumulated vertex map; the two gamma
    complexes are isomorphic under w_j -> j, which is every new vertex's
    frozen K-set matching its U/V prediction (see ``_report``); and f of
    the gamma complex equals gamma of the final complex.
    """
    validate_ordering(o)
    return _report(o, _by_mask(o.decomposition), _by_mask(o.building_set.elements))


def nestohedron_report(b: BuildingSet, ordering: FlagOrdering | None = None, rng: random.Random | None = None) -> dict:
    """``verify_ordering_equivalence`` of ``ordering``, or of a found one (shuffled by ``rng``): ``b`` is
    checked once, and a decomposition only when given, as a found one is flag by construction."""
    members = _checked(b, ("input is not a building set", "building set is not connected", "not a flag building set"))
    if ordering is None:
        ordering = find_flag_ordering(b, rng=rng)
    elif ordering.building_set != b:
        raise ValueError("the ordering is of another building set")
    else:
        validate_ordering(ordering)
    return _report(ordering, _by_mask(ordering.decomposition), members)


def _report(o: FlagOrdering, decomposition: dict[int, Subset], members: dict[int, Subset]) -> dict:
    """``verify_ordering_equivalence`` of a checked decomposition and building set, under their bitmasks."""
    seq, ids = _sequence(o, decomposition)
    bridge = seq.final == _nested_graph(members, ids.__getitem__)

    # ``uv_match`` (w_j's frozen K-set, its neighbours below it in the
    # sequence's gamma complex, is U_j | V_j under w_i -> i, for every j) is
    # ``isomorphic`` (w_j -> j maps that complex onto the ordering's): the
    # ordering's complex joins i < j exactly when i is in U_j | V_j, the map
    # keeps order, and each edge {i < j} of either graph lies in one lower
    # neighbour set, j's.  So the sets agree exactly when the edge sets do.
    isomorphic = is_isomorphic_under(
        gamma_complex(seq), gamma_complex_of_ordering(o), {seq.w_id(j): j for j in range(1, seq.k + 1)}
    )

    report = verify_f_equals_gamma(seq)
    report.update(n=o.building_set.n, isomorphic=isomorphic, uv_match=isomorphic, bridge=bridge)
    return report


def power_set_building_set(n: int) -> BuildingSet:
    """All nonempty subsets of the ground set."""
    if n < 1:
        raise ValueError("ground set must be nonempty")
    ground = list(range(1, n + 1))
    elements = [c for r in range(1, n + 1) for c in combinations(ground, r)]
    return BuildingSet.of(n, elements)


def interval_building_set(n: int) -> BuildingSet:
    """All intervals {i, i+1, ..., j} of the ground set."""
    if n < 1:
        raise ValueError("ground set must be nonempty")
    elements = [range(i, j + 1) for i in range(1, n + 1) for j in range(i, n + 1)]
    return BuildingSet.of(n, elements)


def graphical_building_set(n: int, edges: Iterable[tuple[int, int]]) -> BuildingSet:
    """The connected vertex subsets of the graph on the ground set with these edges.

    A flag building set (a spanning tree of a connected subset has a leaf,
    which splits it off), connected when the graph is; its nested-set
    complex is dual to the graph associahedron (Postnikov-Reiner-Williams):
    the path gives the associahedron, the complete graph the permutohedron,
    the cycle the cyclohedron and the star the stellohedron.
    """
    if n < 1:
        raise ValueError("ground set must be nonempty")
    adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        if a == b or a not in adj or b not in adj:
            raise ValueError(f"({a}, {b}) is not an edge between two of the vertices 1..{n}")
        adj[a].add(b)
        adj[b].add(a)

    def connected(s: Subset) -> bool:
        seen, stack = set(), [min(s)]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v] & s)
        return len(seen) == len(s)

    subsets = (frozenset(c) for r in range(1, n + 1) for c in combinations(range(1, n + 1), r))
    return BuildingSet(n, frozenset(s for s in subsets if connected(s)))


def random_flag_building_set(n: int, seed: int) -> BuildingSet:
    """Random connected flag building set, grown from a random decomposition.

    Every intermediate family is itself a connected flag building set, so
    the result always validates; deterministic in the seed.
    """
    if n < 2:
        raise ValueError("need a ground set of at least 2 elements")
    rng = random.Random(seed)
    elements: set[Subset] = set()

    def split(target: Subset) -> None:
        elements.add(target)
        if len(target) == 1:
            return
        members = sorted(target)
        cut = rng.randint(1, len(members) - 1)
        chosen = frozenset(rng.sample(members, cut))
        split(chosen)
        split(target - chosen)

    split(frozenset(range(1, n + 1)))
    ground = frozenset(range(1, n + 1))
    all_subsets = [
        frozenset(c)
        for r in range(2, n)
        for c in combinations(sorted(ground), r)
    ]
    additions = rng.randint(0, len(all_subsets))
    for _ in range(additions):
        masks = set(map(_mask, elements))
        candidates = sorted(
            (s for s in all_subsets if s not in elements and _can_append(masks, _mask(s))),
            key=_skey,
        )
        if not candidates:
            break
        elements.add(rng.choice(candidates))
    return BuildingSet(n, frozenset(elements))
