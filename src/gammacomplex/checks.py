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
phi image checks every pair (F, G), walking the cliques G of F's link
with K(F + G) and the link's K(G) as two more running intersections.  The
increment and oracle suites are their ``*_failures`` functions.  The other
five ``*_failures`` functions sweep one suite each, share no walk with
``deep_failures``, and are the oracle it is tested against.
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
    representation takes for granted.
    """
    failures = []
    fc = seq.prefix(0).final.to_face_complex()
    for j, step in enumerate(seq.steps, start=1):
        fc = subdivide_face_general(fc, step.edge, step.new_vertex)
        if fc != seq.prefix(j).final.to_face_complex():
            failures.append(f"step {j}: face sets diverge from graph subdivision")
        if not is_flag(fc):
            failures.append(f"step {j}: face set is not flag")
    return failures


def _meet(table):
    """Step of the running intersection K(F + v) = K(F) & table[v]; None is the empty face's."""
    return lambda acc, v: table[v] if acc is None else acc & table[v]


def _case_rule_failures(seq, j, k_failures, w_failures):
    """The K and W case rules at step j, from one walk over ``prefix(j).final``."""
    (a, b), w = seq.steps[j - 1]
    before, after = seq.prefix(j - 1), seq.prefix(j)
    every_w = frozenset(after.w_ids())
    for fs, kf in after.final.faces_with(None, _meet(after.k_table)):
        cls = classify_at(seq, j, fs)
        prev_face = _transformed(fs, cls, a, b, w)
        prev = set(k_set(before, prev_face))
        expected = prev | {w} if cls is FaceClass.F4 else prev
        actual = every_w if kf is None else kf
        if actual != expected:
            k_failures.append(
                f"step {j}, face {sorted(fs)}, class {cls.value}: "
                f"K={sorted(actual)} expected {sorted(expected)}"
            )
        prev = w_set_at(seq, j - 1, prev_face)
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


def _phi_pairs(seq, fs, ind, result, phi_f, link_ok):
    """(G, K(F + G), K(G) in the link) for every face G of F's induced ``result``."""
    if not link_ok:
        # G need not be a face of the link of F: validate as phi_image_failures does
        for gs in result.faces():
            yield gs, k_set(seq, fs | gs), ind.k_set_ambient(gs)
        return
    label = ind.label_of
    link_table = {} if ind.base is None else {
        label[c]: frozenset(label[x] for x in ks) for c, ks in ind.base.k_table.items()
    }
    meet_final, meet_link = _meet(seq.k_table), _meet(link_table)
    start = (frozenset(phi_f) if fs else None, None)
    walk = result.faces_with(start, lambda acc, g: (meet_final(acc[0], g), meet_link(acc[1], g)))
    for gs, (kfg, kg) in walk:
        yield gs, phi_f if kfg is None else kfg, ind.w_labels if kg is None else kg


def _final_failures(seq, link_failures, phi_failures, gamma_failures):
    """Link recursion, phi image and gamma restriction from one induced sequence per face."""
    final = seq.final
    gc = gamma_complex(seq)
    for fs in final.faces():
        ind = induced_sequence(seq, fs)
        result = ind.result()
        link_ok = result == link(final, fs)
        if not link_ok:
            link_failures.append(f"face {sorted(fs)}: induced result differs from link")
        phi_f = phi(seq, fs)
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
    matching ``*_failures`` function.  The increment and oracle suites are
    those functions themselves; the other five come from one clique walk
    per prefix (see the module docstring).  Faces are streamed, never
    collected.
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
