"""Exhaustive per-sequence consistency checks.

Each ``*_failures`` function sweeps one identity over all faces (or steps)
of a sequence and returns a list of failure descriptions, empty when the
identity holds everywhere; all comparisons are exact.

``deep_failures``, behind the CLI's --deep flag, returns the same seven
lists from shared work.  It makes one depth-first clique walk per prefix
of the sequence, in ``faces()`` order, carrying K(F + v) = K(F) & K(v) as a
running intersection: the walk of step j feeds both the K and the W case
rules, and the walk of the final complex builds one induced sequence per
face for the link recursion, the phi image and the gamma restriction.  The
increment and oracle suites are their ``*_failures`` functions.  The other
five ``*_failures`` functions sweep one suite each, share no walk with
``deep_failures``, and are the oracle it is tested against.

Three lemmas let the shared walk skip work without sampling anything;
each skipped check is implied by the ones that run:

- Singleton lemma (phi image).  For a nonempty face G of F's link,
  K(F + G) is the intersection of the K(F + g) and the link's K(G) is the
  intersection of its K(g), over the vertices g of G.  An injective phi maps
  an intersection onto the intersection of the images, so if phi is
  injective and the image holds for G empty and for every single vertex
  of the link, it holds for every G.  Where it fails, the all-pairs walk
  runs for that F alone, so the failure strings are the oracle's.
- Edge inclusion (case rules).  If every vertex and edge of step j's
  complex that avoids w_j is one of step j-1's, every face avoiding w_j is
  a face of step j-1, so its transformed face (itself) needs no check.
  This is checked once per step; where it fails, every transformed face is
  validated as the oracle validates it.
- Flag by equality (face sets).  A face set equal to the clique set of a
  graph is flag, so ``is_flag`` runs only where the replayed face set and
  the graph's cliques diverge.
"""

from __future__ import annotations

from .complexes import (
    is_flag,
    is_isomorphic_under,
    link,
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
    _link_seq,
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


def w_rule_failures(seq: SubdivisionSequence) -> list[str]:
    """The five case rules for W (with orderings) of every face of every complex."""
    failures = []
    for j in range(1, seq.k + 1):
        (a, b), w = seq.steps[j - 1]
        for fs in seq.prefix(j).final.faces():
            cls = classify_at(seq, j, fs)
            prev = w_set_at(seq, j - 1, _transformed(fs, cls, a, b, w))
            if cls is FaceClass.F1:
                other = b if a in fs else a
                expected = tuple(w if x == other else x for x in prev)
            elif cls is FaceClass.F4:
                expected = prev + (w,)
            else:
                expected = prev
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
    """Step of the running intersection K(F + v) = K(F) & table[v]; None is the empty face's."""
    return lambda acc, v: table[v] if acc is None else acc & table[v]


def _kept_away_from(before, after, w) -> bool:
    """Every vertex and edge of ``after`` that avoids w is one of ``before``.

    Then every face of ``after`` avoiding w is a face of ``before``: a clique
    whose vertices and edges are all in ``before`` is one of its cliques.
    """
    old = before.vertices
    return all(
        v in old and after.neighbors(v) - {w} <= before.neighbors(v)
        for v in after.vertices
        if v != w
    )


def _case_rule_failures(seq, j, k_failures, w_failures):
    """The K and W case rules at step j, from one walk over ``prefix(j).final``.

    The walk carries K(F) over the table of step j and K(F - w) over the
    table of step j-1.  w is the largest vertex, so the walk adds it last,
    and the transformed face of F2 and F3 is F - w plus ``other`` or a, b,
    folded in afterwards.  Transformed faces are validated once per step
    where the lemma of ``_kept_away_from`` applies and per face otherwise.
    """
    (a, b), w = seq.steps[j - 1]
    before, after = seq.prefix(j - 1), seq.prefix(j)
    kept = _kept_away_from(before.final, after.final, w)
    meet_after, meet_before = _meet(after.k_table), _meet(before.k_table)
    # K(F - w) over step j-1 is carried only where every face avoiding w is a face there
    walk = after.final.faces_with(
        (None, None),
        lambda acc, v: (
            meet_after(acc[0], v),
            acc[1] if v == w or not kept else meet_before(acc[1], v),
        ),
    )
    every_w, every_w_before = frozenset(after.w_ids()), frozenset(before.w_ids())
    for fs, (kf, kb) in walk:
        cls = classify_at(seq, j, fs)
        prev_face = _transformed(fs, cls, a, b, w)
        if not kept:
            kb = frozenset(k_set(before, prev_face))
        elif w in fs:
            if not before.final.is_face(prev_face):
                k_set(before, prev_face)  # raises k_set's own ValueError
            for x in prev_face - fs:
                kb = meet_before(kb, x)
        prev = every_w_before if kb is None else kb
        expected = prev | {w} if cls is FaceClass.F4 else prev
        actual = every_w if kf is None else kf
        if actual != expected:
            k_failures.append(
                f"step {j}, face {sorted(fs)}, class {cls.value}: "
                f"K={sorted(actual)} expected {sorted(expected)}"
            )
        prev = tuple(w for _, w in _link_seq(seq, j - 1, prev_face).steps)
        if cls is FaceClass.F1:
            other = b if a in fs else a
            expected = tuple(w if x == other else x for x in prev)
        elif cls is FaceClass.F4:
            expected = prev + (w,)
        else:
            expected = prev
        actual = tuple(w for _, w in _link_seq(seq, j, fs).steps)
        if actual != expected:
            w_failures.append(
                f"step {j}, face {sorted(fs)}, class {cls.value}: "
                f"W={list(actual)} expected {list(expected)}"
            )


def _link_k_table(ind):
    """The K-table of an induced sequence's base, in ambient labels."""
    if ind.base is None:
        return {}
    label = ind.label_of
    return {label[c]: frozenset(label[x] for x in ks) for c, ks in ind.base.k_table.items()}


def _phi_singletons(seq, fs, ind, phi_f):
    """(G, K(F + G), K(G) in the link) for G empty and each single vertex of F's link.

    F's link must be the induced ``result`` (``link_ok``).  Vertices come in
    ``faces()`` order, so a K-entry outside phi's domain raises the same
    ``KeyError`` as the all-pairs walk.
    """
    yield frozenset(), frozenset(phi_f), ind.w_labels
    link_table = _link_k_table(ind)
    meet_final = _meet(seq.k_table)
    kf = frozenset(phi_f) if fs else None
    for g in sorted(link_table):
        yield frozenset((g,)), meet_final(kf, g), link_table[g]


def _phi_pairs(seq, fs, ind, result, phi_f, link_ok):
    """(G, K(F + G), K(G) in the link) for every face G of F's induced ``result``."""
    if not link_ok:
        # G need not be a face of the link of F: validate as phi_image_failures does
        for gs in result.faces():
            yield gs, k_set(seq, fs | gs), ind.k_set_ambient(gs)
        return
    meet_final, meet_link = _meet(seq.k_table), _meet(_link_k_table(ind))
    start = (frozenset(phi_f) if fs else None, None)
    walk = result.faces_with(start, lambda acc, g: (meet_final(acc[0], g), meet_link(acc[1], g)))
    for gs, (kfg, kg) in walk:
        yield gs, phi_f if kfg is None else kfg, ind.w_labels if kg is None else kg


def _final_failures(seq, link_failures, phi_failures, gamma_failures):
    """Link recursion, phi image and gamma restriction from one induced sequence per face.

    The phi image of F is first checked on ``_phi_singletons``; the
    all-pairs walk runs only for a face where that check fails, where phi
    is not injective, or where the induced result is not the link.
    """
    final = seq.final
    gc = gamma_complex(seq)
    for fs in final.faces():
        ind = induced_sequence(seq, fs)
        result = ind.result()
        link_ok = result == link(final, fs)
        if not link_ok:
            link_failures.append(f"face {sorted(fs)}: induced result differs from link")
        phi_f = phi(seq, fs)
        if not (
            link_ok
            and len(set(phi_f.values())) == len(phi_f)
            and all(
                {phi_f[x] for x in kfg} == set(kg)
                for _, kfg, kg in _phi_singletons(seq, fs, ind, phi_f)
            )
        ):
            for gs, kfg, kg in _phi_pairs(seq, fs, ind, result, phi_f, link_ok):
                image = {phi_f[x] for x in kfg}
                expected = set(kg)
                if image != expected:
                    phi_failures.append(
                        f"F={sorted(fs)}, G={sorted(gs)}: phi image {sorted(image)} "
                        f"!= link K-set {sorted(expected)}"
                    )
        target = ind.gamma_complex_ambient()
        if not is_isomorphic_under(gc.induced(phi_f), target, phi_f):
            gamma_failures.append(f"face {sorted(fs)}: restricted gamma complex mismatch")


def deep_failures(seq: SubdivisionSequence) -> dict[str, list[str]]:
    """The seven suites' failure lists, keyed as in ``deep_report``, from shared walks.

    Each list equals, string for string and in order, the list of the
    matching ``*_failures`` function, and a transformed face off the
    previous complex raises the same ``ValueError``.  The increment and
    oracle suites are those functions themselves; the other five come from
    one clique walk per prefix.  The walks check every face and every
    pair (F, G) either directly or through the singleton and
    edge-inclusion lemmas of the module docstring, never by sampling.
    Faces are streamed, never collected.
    """
    k_failures: list[str] = []
    w_failures: list[str] = []
    link_failures: list[str] = []
    phi_failures: list[str] = []
    gamma_failures: list[str] = []
    increment = increment_identity_failures(seq)
    for j in range(1, seq.k + 1):
        _case_rule_failures(seq, j, k_failures, w_failures)
    _final_failures(seq, link_failures, phi_failures, gamma_failures)
    return {
        "increment_identity": increment,
        "k_recursion": k_failures,
        "w_recursion": w_failures,
        "link_recursion": link_failures,
        "phi_image": phi_failures,
        "gamma_restriction": gamma_failures,
        "oracle_equivalence": oracle_failures(seq),
    }


def deep_report(seq: SubdivisionSequence) -> dict[str, bool]:
    """One boolean per identity family, for machine-readable reports.

    ``deep_failures`` reduced to ``{name: not failures}``: every suite is
    exhaustive, and the verdicts are those of the seven ``*_failures``
    oracles.
    """
    return {name: not failures for name, failures in deep_failures(seq).items()}
