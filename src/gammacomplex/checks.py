"""Exhaustive per-sequence consistency checks.

Each ``*_failures`` function sweeps one identity over all faces (or steps)
of a sequence and returns a list of failure descriptions, empty when the
identity holds everywhere; all comparisons are exact.

``deep_failures``, behind the CLI's --deep flag, returns the same seven
lists.  The increment and oracle suites are their ``*_failures``
functions.  The K and W case rules are decided per step, with no face
visited, by the vertex and memo lemmas below.  The other three suites are
decided by one depth-first clique walk over the final complex, in
``faces()`` order, carrying K(F + v) = K(F) & K(v) and N(F), the common
neighbors of F, as running intersections.  It builds one induced
sequence per face, from which it reads the three suites with nothing
rebuilt:

- lk(F) is the subgraph induced on N(F), compared with the induced
  result through its labels;
- phi sends K(F), in increasing order, to the link's new vertices in
  creation order, which the link's base numbers upwards, so phi into the
  base's ids is order-preserving: a pair a < b of K(F) goes to a pair
  that the base stores as (earlier, later) if it is a gamma edge, and the
  gamma restriction is one membership test per pair.

A check only says whether its suites hold.  A suite that fails, or whose
premise does not hold, gets its list from its own ``*_failures``
function, which also names the failing step and face.  Those five
functions share no walk with ``deep_failures`` and are the oracle it is
tested against.

Five lemmas let the checks skip work without sampling anything; each
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
  once the premise is checked, once per step.
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
  the recipe of F's transformed face at j-1 by the W rule itself,
  classifying F against the same N(w): F1 renames ``other`` to w, F4
  appends w, and the other classes copy.  So every recipe it computes
  satisfies the W rule, and the rule can fail only at an entry that was
  in the memo before the check began.  Only those are checked, and only
  where j >= 1 and F is a face of step j's complex, the entries that
  ``w_rule_failures`` visits.
- Flag by equality (face sets).  A face set equal to the clique set of a
  graph is flag, so ``is_flag`` runs only where the replayed face set and
  the graph's cliques diverge.
"""

from __future__ import annotations

from itertools import combinations

from .complexes import (
    is_flag,
    is_isomorphic_under,
    link,
    subdivide_edge,
    subdivide_face_general,
)
from .polynomials import gamma_of
from .subdivision import (
    FaceClass,
    SubdivisionSequence,
    classify_at,
    gamma_complex,
    induced_sequence,
    k_set,
    phi,
    w_set_at,
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
    after = gamma_of(seq.prefix(0).final, seq.d).gamma
    for j, step in enumerate(seq.steps, start=1):
        before, after = after, gamma_of(seq.prefix(j).final, seq.d).gamma
        lk = gamma_of(link(seq.prefix(j - 1).final, step.edge), seq.d - 2).gamma
        if after - before != lk.shift(1):
            failures.append(
                f"step {j}: gamma increment {(after - before).to_list()} != "
                f"t*{lk.to_list()}"
            )
    return failures


def _transformed(fs, cls, a, b, w):
    """Face of the previous complex that the case rules compare against."""
    if cls is FaceClass.F2:
        return fs - {w} | {b if a in fs else a}
    if cls is FaceClass.F3:
        return fs - {w} | {a, b}
    return fs


def k_rule_failures(seq: SubdivisionSequence) -> list[str]:
    """The five case rules for K of every face of every complex in the sequence."""
    failures = []
    for j in range(1, seq.k + 1):
        (a, b), w = seq.steps[j - 1]
        before, after = seq.prefix(j - 1), seq.prefix(j)
        for fs in after.final.faces():
            cls = classify_at(seq, j, fs)
            prev = set(k_set(before, _transformed(fs, cls, a, b, w)))
            expected = prev | {w} if cls is FaceClass.F4 else prev
            actual = set(k_set(after, fs))
            if actual != expected:
                failures.append(
                    f"step {j}, face {sorted(fs)}, class {cls.value}: "
                    f"K={sorted(actual)} expected {sorted(expected)}"
                )
    return failures


def _expected_w(seq, j, fs):
    """Class of a face of ``prefix(j).final`` and the W-set the W case rule of step j gives it.

    F1 renames ``other`` to w in W of the transformed face, F4 appends w,
    and the other classes copy it.
    """
    (a, b), w = seq.steps[j - 1]
    cls = classify_at(seq, j, fs)
    prev = w_set_at(seq, j - 1, _transformed(fs, cls, a, b, w))
    if cls is FaceClass.F1:
        other = b if a in fs else a
        return cls, tuple(w if x == other else x for x in prev)
    if cls is FaceClass.F4:
        return cls, prev + (w,)
    return cls, prev


def w_rule_failures(seq: SubdivisionSequence) -> list[str]:
    """The five case rules for W (with orderings) of every face of every complex."""
    failures = []
    for j in range(1, seq.k + 1):
        for fs in seq.prefix(j).final.faces():
            cls, expected = _expected_w(seq, j, fs)
            actual = w_set_at(seq, j, fs)
            if actual != expected:
                failures.append(
                    f"step {j}, face {sorted(fs)}, class {cls.value}: "
                    f"W={list(actual)} expected {list(expected)}"
                )
    return failures


def link_recursion_failures(seq: SubdivisionSequence) -> list[str]:
    """Result of every face's induced sequence equals its link, label for label."""
    failures = []
    final = seq.final
    for fs in final.faces():
        got = induced_sequence(seq, fs).result()
        expected = link(final, fs)
        if got != expected:
            failures.append(f"face {sorted(fs)}: induced result differs from link")
    return failures


def phi_image_failures(seq: SubdivisionSequence) -> list[str]:
    """phi maps K(F united G) onto the K-set of G inside the link of F, for all F, G."""
    failures = []
    final = seq.final
    for fs in final.faces():
        ind = induced_sequence(seq, fs)
        phi_f = phi(seq, fs)
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
    failures = []
    gc = gamma_complex(seq)
    for fs in seq.final.faces():
        ind = induced_sequence(seq, fs)
        restriction = gc.induced(k_set(seq, fs))
        target = ind.gamma_complex_ambient()
        if not is_isomorphic_under(restriction, target, phi(seq, fs)):
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
    fc = seq.prefix(0).final.to_face_complex()
    for j, step in enumerate(seq.steps, start=1):
        fc = subdivide_face_general(fc, step.edge, step.new_vertex)
        graph = seq.prefix(j).final
        if fc.vertices != graph.vertices or fc.faces != frozenset(graph.faces()):
            failures.append(f"step {j}: face sets diverge from graph subdivision")
            if not is_flag(fc):
                failures.append(f"step {j}: face set is not flag")
    return failures


def _meet(table):
    """Step of a running intersection such as K(F + v) = K(F) & table[v]; None is the empty face's."""
    return lambda acc, v: table[v] if acc is None else acc & table[v]


def _case_rule_verdicts(seq, seeded) -> tuple[bool, bool]:
    """Whether the K and the W case rules hold, by the vertex and memo lemmas, with no face walked.

    Both are False where the subdivision premise of the module docstring
    fails at some step.  The K rules are read off each step's K-table
    update, one comparison per vertex; a missing entry counts as a failure,
    so that ``k_rule_failures`` raises its own ``KeyError``.  The W rules
    are checked only on the entries of ``seeded``, the recipe memo as
    ``deep_failures`` found it, that ``w_rule_failures`` visits.
    """
    k_ok = True
    for j, ((a, b), w) in enumerate(seq.steps, start=1):
        before, after = seq.prefix(j - 1), seq.prefix(j)
        if not (
            before.final.has_edge(a, b)
            and w not in before.final.vertices
            and after.final == subdivide_edge(before.final, (a, b), w)
        ):
            return False, False
        kb, ka = before.k_table, after.k_table
        common = before.final.common_neighbors((a, b))
        k_ok = k_ok and (
            w == seq.w_id(j)
            and kb.keys() >= before.final.vertices
            and ka.get(w) == kb[a] & kb[b]
            and all(
                w not in kb[v] and ka.get(v) == (kb[v] | {w} if v in common else kb[v])
                for v in before.final.vertices
            )
        )
    w_ok = all(
        w_set_at(seq, j, fs) == _expected_w(seq, j, fs)[1]
        for j, fs in seeded
        if 1 <= j <= seq.k and seq.prefix(j).final.is_face(fs)
    )
    return k_ok, w_ok


def _is_link(ind, nf, adj) -> bool:
    """Whether the induced result, read through ``label_of``, is the subgraph induced on ``nf``.

    ``adj`` is the final complex's adjacency and ``nf`` the common neighbors
    of a face, so that subgraph is the face's link.  Equal sizes make
    ``label_of`` a bijection from the base's vertices onto ``nf``.
    """
    if ind.base is None:
        return not nf
    base_adj, label = ind.base.final.adjacency(), ind.label_of
    if not len(base_adj) == len(label) == len(nf):
        return False
    for c, ns in base_adj.items():
        u = label[c]
        if u not in nf or adj[u] & nf != {label[x] for x in ns}:
            return False
    return True


def _phi_singletons(seq, kf, ind):
    """(G, K(F + G), the link's K(G)) for G empty and each single vertex g of F's link.

    ``kf`` is K(F) as the final walk carries it, None for the empty face.
    K(F + g) is read from the final K-table in ambient labels, the link's
    K(G) from the base's table in its canonical ids.  F's link must be the
    induced result.  K(F + G) may hold an entry outside phi's domain; the
    caller counts that as a failure, so that ``phi_image_failures`` raises
    its own ``KeyError``.
    """
    base = ind.base
    yield frozenset(), seq.w_ids() if kf is None else kf, frozenset(base.w_ids() if base else ())
    if base is None:
        return
    table, link_table = seq.k_table, base.k_table
    for c, g in ind.label_of.items():
        yield frozenset((g,)), table[g] if kf is None else kf & table[g], link_table[c]


def _same_restriction(gamma_adj, to_base, link_edges) -> bool:
    """Whether the gamma complex restricted to K(F) is the link's, under phi.

    ``to_base`` sends K(F), in increasing order, to the canonical ids of
    their phi images, and ``link_edges`` are the link's gamma edges in
    those ids.  phi is order-preserving and the base numbers its new
    vertices upwards in creation order, so a < b in K(F) go to canonical
    ids in the same order, and the base stores each gamma edge as
    (earlier, later).  False where K(F) leaves the gamma complex's vertices.
    """
    return gamma_adj.keys() >= to_base.keys() and all(
        (b in gamma_adj[a]) == ((ca, cb) in link_edges)
        for (a, ca), (b, cb) in combinations(to_base.items(), 2)
    )


def _final_verdicts(seq) -> tuple[bool, bool, bool]:
    """Whether the link recursion, the phi image and the gamma restriction hold on every face.

    One walk over the final complex carries K(F) and N(F) as running
    intersections and builds one induced sequence per face; the module
    docstring says how the three suites are read from it, with nothing
    else rebuilt or re-validated per face.  The phi image is decided by
    the singleton lemma, so it is also False where the induced result is
    not F's link.

    Where a fast comparison fails, the face is compared as the suite
    functions compare it (``result`` with ``link``, ``is_isomorphic_under``),
    so an invalid sequence raises what they raise, at the first face that
    raises; a face with |K| != |W| raises ``phi``'s ``RuntimeError``.
    """
    final = seq.final
    adj = final.adjacency()
    gc = gamma_complex(seq)
    gamma_adj = gc.adjacency()
    meet_k, meet_n = _meet(seq.k_table), _meet(adj)
    walk = final.faces_with((None, None), lambda acc, v: (meet_k(acc[0], v), meet_n(acc[1], v)))
    every_w, every_v = seq.w_ids(), final.vertices
    link_ok = phi_ok = gamma_ok = True
    for fs, (kf, nf) in walk:
        ind = induced_sequence(seq, fs)
        same_link = _is_link(ind, every_v if nf is None else nf, adj) or (
            ind.result() == link(final, fs)
        )
        ks = every_w if kf is None else sorted(kf)
        if len(ks) != ind.step_count:
            phi(seq, fs)  # raises, naming both sizes
        base = ind.base
        to_base = dict(zip(ks, base.w_ids())) if base else {}
        link_ok = link_ok and same_link
        phi_ok = (
            phi_ok
            and same_link
            and all(
                {to_base.get(x) for x in kfg} == kg
                for _, kfg, kg in _phi_singletons(seq, kf, ind)
            )
        )
        if gamma_ok and not _same_restriction(gamma_adj, to_base, base.gamma_edges if base else ()):
            phi_f = dict(zip(ks, ind.w_labels))
            gamma_ok = is_isomorphic_under(gc.induced(phi_f), ind.gamma_complex_ambient(), phi_f)
    return link_ok, phi_ok, gamma_ok


def deep_failures(seq: SubdivisionSequence) -> dict[str, list[str]]:
    """The seven suites' failure lists, keyed as in ``deep_report``.

    Each list equals, string for string and in order, the list of the
    matching ``*_failures`` function, because it is that list: the checks
    of the module docstring only decide which suites hold, and a suite they
    do not pass gets its list from its own function.  They cover every face
    of every step and every pair (F, G), directly or through a lemma, never
    by sampling, and the final walk streams faces rather than collect them.

    The K and W lists are settled before the final walk, so a transformed
    face off the previous complex raises the ``ValueError`` of
    ``k_rule_failures``; the final walk would fail first, with a
    ``KeyError`` from ``induced_sequence``.

    Every prefix is replayed, and the final walk fills ``seq``'s recipe
    memo with the recipes that the final complex's faces reach.  Both are
    dropped on return, leaving the memos as they were found, so their
    memory does not outlive the call.  The W rules are checked on the memo
    as it was found.
    """
    cache, prefixes = seq._cache, seq._prefixes
    seq._cache = dict(cache)
    try:
        increment = increment_identity_failures(seq)
        k_ok, w_ok = _case_rule_verdicts(seq, cache)
        k_failures = [] if k_ok else k_rule_failures(seq)
        w_failures = [] if w_ok else w_rule_failures(seq)
        link_ok, phi_ok, gamma_ok = _final_verdicts(seq)
        return {
            "increment_identity": increment,
            "k_recursion": k_failures,
            "w_recursion": w_failures,
            "link_recursion": [] if link_ok else link_recursion_failures(seq),
            "phi_image": [] if phi_ok else phi_image_failures(seq),
            "gamma_restriction": [] if gamma_ok else gamma_restriction_failures(seq),
            "oracle_equivalence": oracle_failures(seq),
        }
    finally:
        seq._cache, seq._prefixes = cache, prefixes


def deep_report(seq: SubdivisionSequence) -> dict[str, bool]:
    """One boolean per identity family, for machine-readable reports.

    ``deep_failures`` reduced to ``{name: not failures}``: every suite is
    exhaustive, and the verdicts are those of the seven ``*_failures``
    oracles.
    """
    return {name: not failures for name, failures in deep_failures(seq).items()}
