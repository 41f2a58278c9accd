"""Exhaustive per-sequence consistency checks.

Each ``*_failures`` function sweeps one identity over all faces (or steps)
of a sequence and returns a list of failure descriptions, empty when the
identity holds everywhere; all comparisons are exact.

History is read forward: every per-step suite function walks
consecutive pairs of ``seq.states()``, which replays the steps and keeps
nothing, so two states are alive at a time.  Faces are classified
against N_j(w_j), the neighbors that ``extend`` recorded for the new
vertex of step j, as ``_link_seq`` classifies them.

``deep_failures``, behind the CLI's --deep flag, returns the same seven
lists, in two tiers: fast checks decide which suites hold, and only the
suite functions explain.  The checks decide on what a sequence stores,
its step log, ``w_neighbors``, final complex, K-table and gamma edges,
never on a replayed history.  One forward pass over the steps carries
the induced-sequence recipe of every face from the cross polytope to the
final complex, and decides the increment identity and the K case rules
on the way; where it carries that layer to the end, the W case rules
and the face-set oracle hold by the lemmas below.  Step j changes only
the faces around the subdivided edge ab, built on the cliques tau of
lk(ab) in step j-1's complex, so the pass touches those faces and no
other, by the lemmas below.  It applies each logged step's
edge-subdivision rule to an adjacency and a K-table of its own, started
from the cross polytope, checks the step and its recorded N_j(w) on
that state, and compares the state with the stored final complex and
K-table once, at the end.  It reads f(lk ab) off the cliques through ab
that the step loses in its own state; by the linearity of the
edge-subdivision lemma the increment identity holds exactly where each
such f has a gamma, so no state's cliques are counted, no f or gamma is
carried from step to step, no gained clique is listed and no link is
built.  The other three suites are decided by
one depth-first clique walk over the final complex, in ``faces()``
order, carrying K(F + v) = K(F) & K(v) and N(F), the common neighbors
of F, as running intersections of int masks, bit v standing for vertex
v (the ids ``extend`` gives).  It reads each face's recipe from the final layer
that the forward pass returns, and decides each distinct triple of
K(F), N(F) and recipe once (the verdict lemma below); every other face
takes the verdicts of the first face with its triple.  To decide a face,
it translates the recipe into one label list, ``labels[c]`` the ambient
vertex of canonical id c.  The translation's shape (the number of pairs
and the steps' edges in those ids) fixes the base sequence, so the walk
reads, once per shape, the tables the three suites read: the base's
edges, and its K-table and gamma adjacency over the ranks of its new
vertices (id - 2n, their creation order).  It builds no base for them:
``_Shape`` applies each step's edge-subdivision rule to the cross
polytope on int masks, and a shape with a step off an edge, which has no
base, fails the three suites.  For each face it decides, the walk
compares masks with those tables, and rebuilds nothing:

- lk(F), the subgraph induced on N(F), is the induced result exactly
  when the labels are distinct with N(F) as their mask, every edge of
  the base goes to an edge, and the subgraph has as many edges as the
  base: the labels are then a bijection onto N(F) that sends the base's
  edges into the link's, one to one, and onto them by their count;
- phi sends K(F), in increasing order, to the link's new vertices in
  creation order, so the r-th element of K(F) goes to rank r, and a set
  of ranks goes to the sum of the matching bits of K(F).  Once
  |K(F)| = |W(F)| the image holds on G empty, and on a vertex g of the
  link with canonical id c exactly when K(F + g) = K(F) & K(g) is the
  image of the ranks in the base's K(c);
- the gamma restriction holds exactly when K(F) lies in the gamma
  complex and, for each rank r, the gamma neighbors of the r-th element
  of K(F), within K(F), are the image of r's gamma neighbors in the base.

A check only says whether its suites hold.  A suite that fails gets its
list, or its error, from its own ``*_failures`` function, which also
names the failing step and face; where the forward pass carries no
layer (the subdivision premise fails at some step), every suite
function runs.
Those functions share no walk with ``deep_failures`` and are the oracle
it is tested against.

Eight lemmas let the checks skip work without sampling anything; each
skipped check is implied by the ones that run:

- Singleton lemma (phi image).  For a nonempty face G of F's link,
  K(F + G) is the intersection of the K(F + g) and the link's K(G) is the
  intersection of its K(g), over the vertices g of G.  An injective phi maps
  an intersection onto the intersection of the images, so if phi is
  injective and the image holds for G empty and for every single vertex
  of the link, it holds for every G.  phi is injective wherever the
  induced result is F's link, because the link's labels are then distinct.
- Subdivision premise (case rules).  Let step j's complex be step j-1's
  complex C with the edge ab subdivided by w.  A face avoiding w uses only
  vertices and edges of C, so it is a face of C, its own transformed face.
  An F2 face, say with a, lacks b, and its other vertices but w are
  neighbors of w, so common neighbors of a and b in C: F - w + b is a face
  of C.  In an F3 face every vertex but w is such a common neighbor, so
  F - w + a + b is a face of C.  So no transformed face needs validation
  once the premise holds at the step.  The forward pass checks it by
  applying the rule to a state of its own, started from the cross
  polytope: where ab is an edge of C and w is not a vertex of it, a and
  b swap each other for w, every common neighbor of a and b gains w, w
  gets those and a and b, and no other entry changes, so each of its
  states is its predecessor subdivided by construction, and its last
  must be the stored final complex.  No complex is built to compare
  with.  The premise also asks that the recorded N_j(w) be w's neighbors
  in step j's complex, the common neighbors of a and b with a and b, so
  that a face's class is the same read from either.
- Vertex lemma (K rules).  Given the premise at step j, suppose that
  w = 2d + j - 1, so that K of the empty face, the w ids, gains exactly
  w; that w is in no K_{j-1}(v); that K_j(w) = K_{j-1}(a) & K_{j-1}(b);
  and that every other vertex v of step j-1 keeps K_{j-1}(v), plus w
  exactly when v is a common neighbor of a and b.  As K(F) is the
  intersection of the K(v) over the vertices v of F, and K_j(w) stands in
  for the a and b that F's transformed face adds, K_j(F) and K_{j-1} of
  the transformed face agree up to w.  The rules want w in K_j(F) exactly
  for F4, and so it is.  F1: K(a) did not gain w.  F2 and F3: K(w) lacks
  w.  F4: every vertex gained w.  F5: some vertex did not gain w.
- Memo lemma (W rules).  ``_link_seq`` builds the recipe of (j, F) from
  the recipe of F's transformed face at j-1 by ``subdivision._w_rule``,
  the W rule written once, classifying F against the same recorded
  N_j(w): F1 renames the endpoint F lacks to w, F3 adds the pair (a, b),
  F4 appends the step, and F2 and F5 copy.  Recipes are values: each
  reader builds them afresh, through a memo of its own, so every recipe
  satisfies the W rule by construction.  ``w_rule_failures`` compares
  each recipe of each step with ``_w_rule`` applied to that of the
  transformed face, so it returns [] or raises, and it raises only where
  a transformed face is no face of the previous complex, which the
  subdivision premise rules out.  So the W rules hold wherever the
  premise does, and are not compared; ``w_rule_failures`` is the
  exhaustive test oracle of the recursion.  The forward pass builds the
  recipes of step j from those of step j-1 by the same rule
  (``subdivision._advance_recipes``), on the faces built on a clique tau
  of lk(ab), and by the rename lemma the rule copies every other recipe.
  Where the start complex is the cross polytope and the premise holds at
  every step, the final layer it carries is the one the recursion of
  ``_link_seq`` builds, and the final walk reads it; elsewhere the pass
  carries none.
- Rename lemma (recipes).  Where every step subdivides an edge of the
  previous complex, from the cross polytope on, the vertices of the recipe of a face F of step j,
  its pairs' and its steps' new vertices, are the vertices of F's link,
  N_j(F).  By induction on j.  At j = 0 the pairs avoiding F are the
  vertices off F and off F's antipodes, N_0(F).  At step j: an F5 face
  keeps its recipe and its neighbors, as only a and b lose a neighbor and
  w is not one.  An F4 face tau gains w in both.  An F1 face F with a
  loses b and gains w as a neighbor exactly when F - a lies in N(a) & N(b),
  that is when F = tau + a, which is the rename of b to w; otherwise b is
  not in N_{j-1}(F) and the rename changes nothing.  An F2 face tau + a + w
  has the neighbors of tau + a + b, the common neighbors of a and b that
  are joined to tau.  An F3 face tau + w has those and a and b, the pair
  that F3 adds.  So the W rule changes only the recipes of the faces
  built on some tau.
- Edge-subdivision lemma (face sets).  Let the graph G_j be G_{j-1} with
  the edge ab subdivided by w, and let the face set S_{j-1} be the clique
  set of G_{j-1}.  Then S_j is the clique set of G_j.  Subdividing ab in
  S_{j-1} drops the faces tau + a + b, for the cliques tau of lk(ab), and
  adds tau + w, tau + a + w and tau + b + w for each.  The cliques of G_j
  avoiding w are those of G_{j-1} that do not hold both a and b, as ab is
  the only edge lost; those holding w hold at most one of a and b, and
  their other vertices are common neighbors of a and b, which make a
  clique tau of lk(ab) in G_{j-1}: they are the three cones.  Step 0's
  face set is the clique set of G_0 by construction, so where the premise
  holds at every step, the face sets equal the graphs' cliques
  throughout, which is all ``oracle_failures`` checks.  The same split
  gives the f-vectors: each tau + a + b lost, of size s, gives way to one
  clique of size s - 1 and two of size s, so with F = f(lk ab), the size
  count of the lost cliques shifted down by 2, f(G_j) = f(G_{j-1}) +
  t(1 + t)F.  The f -> h -> gamma transforms are linear, and
  h_d(t(1 + t)F) = t h_{d-2}(F) term by term, as t^(i+1) (1 - t)^(d-i-1) +
  t^(i+2) (1 - t)^(d-i-2) = t^(i+1) (1 - t)^(d-i-2): the shift.  F has
  degree at most d - 2 exactly when f(G_j) has degree at most d, given
  f(G_{j-1}) does, as no count is negative: the degree.  And t h_{d-2}(F)
  is symmetric at d exactly when h_{d-2}(F) is at d - 2, so h_d(f(G_j)) is
  symmetric exactly when h_d(f(G_{j-1})) and h_{d-2}(F) are: the
  symmetry.  As gamma_d(t h) = t gamma_{d-2}(h) on symmetric h, gamma(G_j)
  - gamma(G_{j-1}) = t gamma(lk ab) wherever both sides are defined.  By
  induction from the cross polytope, whose h = (1 + t)^d is symmetric, the
  increment identity holds at every step exactly where every step's F
  has degree at most d - 2 and a symmetric h_{d-2}(F), which is all the
  forward pass checks of it.
- Flag by equality (face sets).  A face set equal to the clique set of a
  graph is flag, so ``is_flag`` runs only where the replayed face set and
  the graph's cliques diverge.
- Verdict lemma (final walk).  The three verdicts of a face read its
  recipe, through its labels and its shape's tables, K(F) and N(F), and
  besides them only what is fixed for the whole walk: the neighbor masks
  of the final complex, its K-table and gamma adjacency as masks, and the
  tables of each shape, which the shape alone fixes.  So they are a
  function of the recipe, K(F) and N(F), and two faces that agree on all
  three get the same verdicts.  The walk keeps, for each pair (K(F), N(F))
  it meets, the first recipe met with it and that face's verdicts; a later
  face takes them only where its recipe is that one (by identity, else by
  equality), and is otherwise decided in full.  Every face still gets its
  verdicts, none sampled.  On the valid sequences measured, from d=4,
  k=6 to d=10, k=30, each pair carried one recipe, and from about half of
  the faces (d=4, k=6) down to 15% (d=10, k=30) met a new pair.
"""

from __future__ import annotations

from .complexes import (
    _mask,
    cross_polytope,
    is_flag,
    is_isomorphic_under,
    link,
    subdivide_face_general,
)
from .polynomials import _h_rows, gamma_of
from .subdivision import (
    FaceClass,
    SubdivisionSequence,
    _advance_recipes,
    _face_class,
    _induced,
    _phi,
    _recipe_at,
    _start_layer,
    _transformed,
    _translate,
    _w_rule,
    _w_set_of,
    gamma_complex,
    k_set,
)

__all__ = [
    "increment_identity_failures",
    "k_rule_failures",
    "w_rule_failures",
    "link_recursion_failures",
    "phi_image_failures",
    "gamma_restriction_failures",
    "oracle_failures",
    "deep_failures",
    "deep_report",
]


def increment_identity_failures(seq: SubdivisionSequence) -> list[str]:
    """gamma(step j) - gamma(step j-1) == t * gamma(link of the subdivided edge)."""
    failures = []
    states = seq.states()
    before = next(states)
    gamma_after = gamma_of(before.final, seq.d).gamma
    for j, (step, after) in enumerate(zip(seq.steps, states), start=1):
        gamma_before, gamma_after = gamma_after, gamma_of(after.final, seq.d).gamma
        lk = gamma_of(link(before.final, step.edge), seq.d - 2).gamma
        increment = gamma_after - gamma_before
        if increment != lk.shift(1):
            failures.append(f"step {j}: gamma increment {increment.to_list()} != t*{lk.to_list()}")
        before = after
    return failures


def k_rule_failures(seq: SubdivisionSequence) -> list[str]:
    """The five case rules for K of every face of every complex in the sequence."""
    failures = []
    states = seq.states()
    before = next(states)
    for j, (((a, b), w), after) in enumerate(zip(seq.steps, states), start=1):
        for fs in after.final.faces():
            cls = _face_class(fs, a, b, w, seq.w_neighbors[j - 1])
            prev = set(k_set(before, _transformed(fs, cls, a, b, w)))
            expected = prev | {w} if cls is FaceClass.F4 else prev
            actual = set(k_set(after, fs))
            if actual != expected:
                failures.append(
                    f"step {j}, face {sorted(fs)}, class {cls.value}: "
                    f"K={sorted(actual)} expected {sorted(expected)}"
                )
        before = after
    return failures


def w_rule_failures(seq: SubdivisionSequence) -> list[str]:
    """The five case rules for W (with orderings) of every face of every complex.

    Each face's W is compared with that of the W rule applied to the recipe
    of its transformed face at step j-1, which must be a face there.
    """
    failures, memo = [], {}
    states = seq.states()
    before = next(states)
    for j, (((a, b), w), after) in enumerate(zip(seq.steps, states), start=1):
        for fs in after.final.faces():
            cls = _face_class(fs, a, b, w, seq.w_neighbors[j - 1])
            prev = _recipe_at(seq, j - 1, before, _transformed(fs, cls, a, b, w), memo)
            expected = tuple(x for _, x in _w_rule(prev, cls, fs, a, b, w)[1])
            actual = _w_set_of(seq, j, after, fs, memo)
            if actual != expected:
                failures.append(
                    f"step {j}, face {sorted(fs)}, class {cls.value}: "
                    f"W={list(actual)} expected {list(expected)}"
                )
        before = after
    return failures


def link_recursion_failures(seq: SubdivisionSequence) -> list[str]:
    """Result of every face's induced sequence equals its link, label for label."""
    failures, memo = [], {}
    final = seq.final
    for fs in final.faces():
        got = _induced(seq, seq.k, fs, {}, memo).result()
        expected = link(final, fs)
        if got != expected:
            failures.append(f"face {sorted(fs)}: induced result differs from link")
    return failures


def phi_image_failures(seq: SubdivisionSequence) -> list[str]:
    """phi maps K(F united G) onto the K-set of G inside the link of F, for all F, G."""
    failures, memo = [], {}
    final = seq.final
    for fs in final.faces():
        ind = _induced(seq, seq.k, fs, {}, memo)
        phi_f = _phi(seq, fs, memo)
        for gs in ind.result().faces():
            image = {phi_f[x] for x in k_set(seq, fs | gs)}
            expected = set(ind.k_set_ambient(gs))
            if image != expected:
                failures.append(
                    f"F={sorted(fs)}, G={sorted(gs)}: phi image {sorted(image)} "
                    f"!= link K-set {sorted(expected)}"
                )
    return failures


def gamma_restriction_failures(seq: SubdivisionSequence) -> list[str]:
    """Gamma complex restricted to K(F) is the link's gamma complex, under phi."""
    failures, memo = [], {}
    gc = gamma_complex(seq)
    for fs in seq.final.faces():
        ind = _induced(seq, seq.k, fs, {}, memo)
        restriction = gc.induced(k_set(seq, fs))
        target = ind.gamma_complex_ambient()
        if not is_isomorphic_under(restriction, target, _phi(seq, fs, memo)):
            failures.append(f"face {sorted(fs)}: restricted gamma complex mismatch")
    return failures


def oracle_failures(seq: SubdivisionSequence) -> list[str]:
    """Replay the sequence on explicit face sets and compare step by step.

    Also asserts flagness of every intermediate face set, which the graph
    representation takes for granted.  A face set equal to the clique set
    of a graph is flag (its 1-skeleton is that graph), so ``is_flag`` runs
    only at a step where the two diverge.
    """
    failures = []
    states = seq.states()
    fc = next(states).final.to_face_complex()
    for j, (step, state) in enumerate(zip(seq.steps, states), start=1):
        fc = subdivide_face_general(fc, step.edge, step.new_vertex)
        graph = state.final
        if fc.vertices != graph.vertices or fc.faces != frozenset(graph.faces()):
            failures.append(f"step {j}: face sets diverge from graph subdivision")
            if not is_flag(fc):
                failures.append(f"step {j}: face set is not flag")
    return failures


def _cliques_through(adj, base) -> list[int]:
    """Every clique of the graph ``adj`` that holds the nonempty clique ``base``, once each, as masks."""
    it = iter(base)
    cand = set(adj[next(it)])
    for v in it:
        cand &= adj[v]
    nbr = {1 << v: _mask(adj[v] & cand) for v in cand}
    out, todo = [], [(_mask(base), _mask(cand))]
    while todo:
        clique, rest = todo.pop()
        out.append(clique)
        while rest:
            low = rest & -rest
            rest ^= low
            todo.append((clique | low, rest & nbr[low]))
    return out


def _link_has_gamma(lost, d) -> bool:
    """Whether lk(ab) has a gamma at d - 2, its f read off ``lost``, the cliques tau + a + b through ab as masks.

    That is, f(lk ab), the size count of ``lost`` less 2, as a plain list,
    has degree at most d - 2 and a symmetric h_{d-2}, each h_i the sum of
    the counts weighted by the cached row i of ``polynomials._h_rows``.

    It cannot be False on the state of ``_forward_pass``: that state is an
    edge subdivision of the cross polytope, a flag sphere, whose edge
    links are flag (d - 3)-spheres with symmetric h by Dehn-Sommerville.
    It stays an exhaustive check by choice, not a lemma taken on trust;
    only ``test_one_step_without_a_link_gamma_fails_the_pass``, which
    patches it, reaches its False path.
    """
    f = [0] * (d - 1)
    for m in lost:
        size = m.bit_count() - 2
        if size > d - 2:
            return False
        f[size] += 1
    h = [sum(map(int.__mul__, row, f)) for row in _h_rows(d - 2)]
    return h == h[::-1]


def _forward_pass(seq) -> tuple | None:
    """The verdicts of the increment identity and the K case rules, and the final layer; None where no layer is carried.

    The pass applies each logged step to an adjacency and a K-table of its
    own, started from the cross polytope as ``extend`` starts a sequence,
    and reads nothing of any other state: no history is replayed, and
    only the last state is compared whole.  At step j it checks the
    subdivision premise of the module docstring on its own state: ab is
    an edge and w is not a vertex, and the recorded N_j(w) is the N(w)
    the rule gives, the common neighbors of a and b with a and b.  It
    then takes the cliques the step loses, those through ab, from its own
    state, and applies the rule.  At the end its adjacency must be that
    of the final complex.  The pass returns None, and so leaves every
    suite to its own function, where any of these fails, or where a step
    before the last logs a w other than 2d + j - 1.  That is the id the
    history the suite functions read, ``seq.states()``, gives step j's
    new vertex at every step but the last, whose state is the sequence
    itself.  The layer maps the mask of every face to its recipe, a plain
    tuple.  It starts as the cross polytope's, built without a walk by
    ``_start_layer``, and is carried by the W rule on the changed faces
    only (``_advance_recipes``); by the rename lemma those are the
    recipes ``_link_seq`` would build.  Where it carries the layer to the
    final complex, the W rules hold by the memo lemma and the face-set
    oracle by the edge-subdivision lemma, so only two verdicts are left
    to return.

    The K rules are read off the vertex lemma: the pass's own table
    applies it at each step (K(w) = K(a) & K(b), the common neighbors of
    a and b gain w, no other entry changes), so the K verdict is True
    where the last step's w is 2d + k - 1, as every earlier one is where
    a layer is carried, and the own table is the stored K-table.  With no
    step it is True, as ``k_rule_failures`` has no step to check.

    The increment identity is decided by the linearity lemma, within the
    edge-subdivision lemma of the module docstring: f(G_j) - f(G_{j-1}) is
    t(1 + t)F, F = f(lk ab), and h_d(t(1 + t)F) = t h_{d-2}(F) (the shift),
    F has degree at most d - 2 exactly when f(G_j) has at most d (the
    degree), and h_d(f(G_j)) is symmetric exactly when h_{d-2}(F) is, given
    that h_d(f(G_{j-1})) is (the symmetry).  From the cross polytope on,
    gamma(G_j) - gamma(G_{j-1}) = t gamma(lk ab) then holds at every step
    exactly where each step's lk(ab) has a gamma, which ``_link_has_gamma``
    reads off the cliques the step loses; so no f or gamma is carried.
    Where it is False, ``increment_identity_failures`` decides.  On the
    pass's own state it cannot be False, as each lk(ab) there is a flag
    sphere (Dehn-Sommerville); the check is kept as an exhaustive one by
    choice, and only a test that patches ``_link_has_gamma`` reaches its
    False path.
    """
    d, steps, near = seq.d, seq.steps, seq.w_neighbors
    adj = {v: set(ns) for v, ns in cross_polytope(d).adjacency().items()}
    table = {v: set() for v in adj}
    layer = _start_layer(d)
    increment_ok, last = True, len(steps)
    for j, step in enumerate(steps, start=1):
        (a, b), w = step
        if b not in adj.get(a, ()) or w in adj or (j < last and w != 2 * d + j - 1):
            return None
        common = adj[a] & adj[b]
        near_w = common | {a, b}
        if near[j - 1] != near_w:
            return None
        # the cliques lost are the faces that held a and b
        lost = _cliques_through(adj, (a, b))
        increment_ok = increment_ok and _link_has_gamma(lost, d)
        _advance_recipes(layer, lost, step, (1 << a, 1 << b, 1 << w))
        table[w] = table[a] & table[b]
        for c in common:
            adj[c].add(w)
            table[c].add(w)
        for u, x in ((a, b), (b, a)):
            adj[u].remove(x)
            adj[u].add(w)
        adj[w] = near_w
    if adj != seq.final.adjacency():
        return None
    k_ok = not steps or (steps[-1][1] == 2 * d + last - 1 and table == seq.k_table)
    return increment_ok, k_ok, layer


def _bits(m: int) -> list[int]:
    """The positions of the bits set in ``m``, in increasing order."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


class _Shape:
    """The tables a shape fixes, built once per shape and final walk: its base's edges, K-table and gamma adjacency.

    ``shape`` is (n, edges) from ``_translate``, None for the empty link,
    whose base is the cross polytope on no pair.  No base is built: the
    tables follow the edge-subdivision rule that ``extend`` applies, on
    int masks.  Start from the cross polytope on n pairs in canonical ids,
    where v is joined to every id but v and v ^ 1, and K is empty.  The
    step of rank r subdivides ab by w = 2n + r: w gets the common
    neighbors of a and b, and a and b, which swap each other for w; the
    common neighbors gain w, and r in K; K(w) = K(a) & K(b), and each
    rank in K(w) is a gamma neighbor of r.  A new vertex's rank is its id
    less 2n, its place in creation order, so phi sends the r-th element
    of K(F), in increasing order, to the new vertex of rank r.

    The base's edges are the pairs ``zip(ends, other_ends)``;
    ``k_ranks[c]`` are the ranks in K(c), for every canonical id c, and
    ``gamma_ranks[r]`` those of the gamma neighbors of rank r, as many as
    the base has steps; all in increasing order.  Where a step's edge is
    no edge of the base so far, ``extend`` raises and there is no base:
    ``ends`` is then None, and every face of the shape fails the three
    suites, whose functions raise ``extend``'s error.  Lists, not the base,
    are kept, one entry per shape; not tuples, as a walk frees them all at
    its end, and so many small tuples would stay in CPython's free lists
    until a full collection.
    """

    __slots__ = ("ends", "other_ends", "k_ranks", "gamma_ranks")

    def __init__(self, shape):
        n, steps = shape or (0, ())
        low = 2 * n
        every = (1 << low) - 1
        adj = [every ^ 3 << (v & ~1) for v in range(low)]
        k, below = [0] * low, []  # K in ranks; each step's K(w) as made, its gamma neighbors below it
        for r, (a, b) in enumerate(steps):
            if not adj[a] >> b & 1:
                self.ends = None
                return
            bw, br, common = 1 << low + r, 1 << r, adj[a] & adj[b]
            rest = common
            while rest:
                bc = rest & -rest
                rest ^= bc
                c = bc.bit_length() - 1
                adj[c] |= bw
                k[c] |= br
            adj[a] ^= 1 << b | bw
            adj[b] ^= 1 << a | bw
            adj.append(common | 1 << a | 1 << b)
            k.append(k[a] & k[b])
            below.append(k[-1])
        self.ends, self.other_ends = ends, other_ends = [], []
        for x, ns in enumerate(adj):
            ns >>= x + 1  # bit y is x's neighbor x + 1 + y
            while ns:
                by = ns & -ns
                ns ^= by
                ends.append(x)
                other_ends.append(x + by.bit_length())
        self.k_ranks = [_bits(ks) if ks else [] for ks in k]
        self.gamma_ranks = [_bits(ks) if ks else [] for ks in below]
        for r, ks in enumerate(below):
            if ks:
                for x in _bits(ks):
                    self.gamma_ranks[x].append(r)


def _is_link(shape, labels, nf, nbr) -> bool:
    """Whether ``labels`` send the base's final complex onto the subgraph induced on ``nf``.

    ``nf`` is N(F), the common neighbors of a face F as a mask, so that
    subgraph is F's link, and ``nbr`` sends each vertex of the final
    complex to its neighbors as a mask.  The labels' bits sum to ``nf``,
    and are as many as its bits, exactly when the labels are distinct with
    mask ``nf`` (a repeat would carry, leaving fewer bits than labels): a
    bijection onto N(F).  It sends the base's edges to edges of the link
    exactly when each goes to an edge, and onto them exactly when the link
    then has no more edges than the base.
    """
    if len(labels) != nf.bit_count() or _mask(labels) != nf:
        return False
    return all(nbr[labels[y]] >> labels[x] & 1 for x, y in zip(shape.ends, shape.other_ends)) and (
        sum([(nbr[v] & nf).bit_count() for v in labels]) == 2 * len(shape.ends)
    )


def _phi_holds(kf, dep, labels, shape, kmask) -> bool:
    """Whether phi sends K(F + G) onto the link's K(G), for G empty and each single vertex g of F's link.

    ``dep`` are the bits of K(F) in increasing order, as many as the base
    has steps, so phi sends K(F) onto the link's K of the empty face, all
    its new vertices, and sends a rank set to the sum of those bits.  ``kf``
    is K(F) as the final walk carries it, -1 for the empty face, whose
    K(g) is read whole; ``kmask`` is the final K-table as masks.  F's link
    must be the induced result, through ``labels``, so that g is the label
    of its canonical id c.  A set within K(F) is the image of a rank set
    exactly when its ranks are those, and a K(g) outside K(F) is the image
    of none, so the image holds on g exactly when K(F + g) is the sum of
    the bits of the ranks in the base's K(c).
    """
    if not kf:
        return True  # K(F) is empty, and so is every K of a base with no steps
    return [kf & kmask[g] for g in labels] == [
        sum(map(dep.__getitem__, ranks)) for ranks in shape.k_ranks
    ]


def _gamma_holds(ks, dep, shape, gamma_nbr, every_k) -> bool:
    """Whether the gamma complex restricted to K(F) is the link's, under phi.

    ``ks`` is K(F) as a mask, ``dep`` its bits in increasing order and
    ``gamma_nbr`` sends the bit of each gamma vertex to its neighbors as a
    mask.  phi sends the r-th element of K(F) to the new vertex of rank r,
    so the restriction is the link's exactly when K(F) lies in the gamma
    complex and, for each rank r, the neighbors of the r-th element within
    K(F) are the sum of the bits of the ranks of r's neighbors in the base.
    """
    return ks | every_k == every_k and [gamma_nbr[x] & ks for x in dep] == [
        sum(map(dep.__getitem__, ranks)) for ranks in shape.gamma_ranks
    ]


def _final_verdicts(seq, layer) -> tuple[bool, bool, bool]:
    """Whether the link recursion, the phi image and the gamma restriction hold on every face.

    One walk over the final complex carries K(F) and N(F) as masks (bit v
    is vertex v), by running intersections, and F's own mask by a running
    union, at which it reads each face's recipe from ``layer``, the final
    layer of ``_forward_pass``.  By the verdict lemma a face's three
    verdicts are those of an earlier face with the same K(F), N(F) and
    recipe, so ``seen`` maps each pair (K(F), N(F)) met to the first recipe
    met with it and that face's verdicts, as bits; a later face reuses them
    only where its masks match and its recipe equals that one, and every
    other face is decided in full.  ``seen`` is local to the walk, and so
    is ``shapes``, which maps each shape met, the empty link's None
    included, to its ``_Shape``, its base's tables read off the shape the
    first time.  A shape with a step off an edge has no base and no
    tables, so each face with it fails all three suites, whose functions
    then raise the error ``extend`` raises on that step.

    To decide a face, the walk translates its recipe into one label list,
    ``labels[c]`` the ambient vertex of canonical id c, and reads the three
    suites with masks from the labels and its shape's tables, as the module
    docstring says, with nothing rebuilt or re-validated per face.  The
    walk starts from -1 for both masks, every bit set, so a singleton's K
    and N are its entries' own; the empty face reads K(F) as the w ids and
    N(F) as every vertex, and phi reads its K(g) whole.  The phi image is
    decided by the singleton lemma, so it is also False where the induced
    result is not F's link.  A face with |K(F)| != |W(F)| has no phi, so it
    sets the phi image and the gamma restriction False, and
    ``phi_image_failures`` raises ``phi``'s ``RuntimeError`` there.

    The walk reads the final K entry of every vertex.  Where the stored
    K-table lacks one, there is no walk and the three suites are False, so
    their functions run in report order and the error raised is the first
    raising one's, not the walk's.
    """
    final = seq.final
    if not seq.k_table.keys() >= final.vertices:
        return False, False, False
    nbr = {v: _mask(ns) for v, ns in final.adjacency().items()}
    kmask = {v: _mask(ks) for v, ks in seq.k_table.items()}
    gamma_nbr = {1 << x: _mask(ns) for x, ns in gamma_complex(seq).adjacency().items()}
    every_k, every_v = _mask(seq.w_ids()), _mask(final.vertices)
    shapes = {}

    def decide(recipe, kf, nf) -> int:
        """The face's verdicts as bits: 1 the link recursion, 2 the phi image, 4 the gamma restriction."""
        key, labels = _translate(recipe)
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = _Shape(key)
        if shape.ends is None:
            return 0
        ks, nf = (every_k, every_v) if kf < 0 else (kf, nf)
        dep, rest = [], ks
        while rest:
            low = rest & -rest
            dep.append(low)
            rest ^= low
        same_link = _is_link(shape, labels, nf, nbr)
        if len(dep) != len(shape.gamma_ranks):
            return same_link
        phi = same_link and _phi_holds(kf, dep, labels, shape, kmask)
        return same_link | phi << 1 | _gamma_holds(ks, dep, shape, gamma_nbr, every_k) << 2

    walk = final.faces_with(
        (-1, -1, 0), lambda acc, v: (acc[0] & kmask[v], acc[1] & nbr[v], acc[2] | 1 << v)
    )
    seen, ok = {}, 7
    for kf, nf, m in walk:
        recipe = layer[m]
        hit = seen.get((kf, nf))
        if hit is not None and (hit[0] is recipe or hit[0] == recipe):
            ok &= hit[1]
            continue
        verdicts = decide(recipe, kf, nf)
        if hit is None:
            seen[kf, nf] = recipe, verdicts
        ok &= verdicts
    return bool(ok & 1), bool(ok & 2), bool(ok & 4)


# Report key -> name of the suite function that gives its list, in report
# order.  Names, looked up when ``deep_failures`` runs, so that a function
# rebound on this module is the one called.
_SUITES = {
    "increment_identity": "increment_identity_failures",
    "k_recursion": "k_rule_failures",
    "w_recursion": "w_rule_failures",
    "link_recursion": "link_recursion_failures",
    "phi_image": "phi_image_failures",
    "gamma_restriction": "gamma_restriction_failures",
    "oracle_equivalence": "oracle_failures",
}


def deep_failures(seq: SubdivisionSequence) -> dict[str, list[str]]:
    """The seven suites' failure lists, keyed as in ``deep_report``.

    Two tiers.  The checks of the module docstring only decide which suites
    hold, and a suite they do not pass gets its list from its own function,
    in report order, so each list equals, string for string and in order,
    the list of the matching ``*_failures`` function, because it is that
    list, and an error raised is the first such function's.  The checks
    cover every face of every step and every pair (F, G), directly or
    through a lemma, never by sampling, and the final walk streams faces
    rather than collect them.

    Where ``_forward_pass`` carries the final layer, it decides the
    increment identity and the K rules, the W rules and the face-set oracle
    hold by the memo and edge-subdivision lemmas, and ``_final_verdicts``
    decides the other three suites from the layer.  So the W list is [] by
    construction there; ``w_rule_failures``, which compares recipes with
    the W rule, is the exhaustive test oracle of ``_link_seq``.  Where the
    pass carries no layer, every suite function runs.  Nothing is kept on
    ``seq``.  On a valid sequence no history is replayed: the forward pass
    applies the logged steps to a state of its own; a suite function that
    runs replays the history.
    """
    carried = _forward_pass(seq)
    if carried is None:
        verdicts = [False] * len(_SUITES)
    else:
        increment_ok, k_ok, layer = carried
        verdicts = [increment_ok, k_ok, True, *_final_verdicts(seq, layer), True]
    return {
        key: [] if ok else globals()[name](seq) for (key, name), ok in zip(_SUITES.items(), verdicts)
    }


def deep_report(seq: SubdivisionSequence) -> dict[str, bool]:
    """One boolean per identity family, for machine-readable reports.

    ``deep_failures`` reduced to ``{name: not failures}``: every suite is
    exhaustive, and the verdicts are those of the seven ``*_failures``
    oracles.  The W verdict holds by construction wherever the forward
    pass carries the final layer (the memo lemma).
    """
    return {name: not failures for name, failures in deep_failures(seq).items()}
