"""Exhaustive per-sequence consistency checks.

Each function sweeps one identity over all faces (or steps) of a sequence
and returns a list of failure descriptions, empty when the identity holds
everywhere.  They are the machinery behind the CLI's --deep flag and the
verification test suites; all comparisons are exact.
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


def deep_report(seq: SubdivisionSequence) -> dict[str, bool]:
    """One boolean per identity family, for machine-readable reports."""
    return {
        "increment_identity": not increment_identity_failures(seq),
        "k_recursion": not k_rule_failures(seq),
        "w_recursion": not w_rule_failures(seq),
        "link_recursion": not link_recursion_failures(seq),
        "phi_image": not phi_image_failures(seq),
        "gamma_restriction": not gamma_restriction_failures(seq),
        "oracle_equivalence": not oracle_failures(seq),
    }
