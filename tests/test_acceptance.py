"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and enforces the criterion's runtime budget.  All comparisons are
exact integer equality; there are no numeric tolerances anywhere.

Every gamma vector computed by the sweeps is collected and the final
criterion asserts coefficientwise nonnegativity over the whole pool.
The scale guards before it bound the time and the memory of one long
subdivision sequence, the time of one complex at d=12 with 13.9M faces
and of one at d=16 with 1.5G faces, the time of the bridge on the power
set n=8 and of the nestohedron report on the intervals n=18, the induced
sequences and the bases that the deep suites build, the (F, G) pairs
that the phi image examines, the clique walks of the case rules and the
per-face calls of the deep walks on a valid sequence, the face-set
replays and the prefix recipes of the deep forward pass, the clique
counts, links and history replays of the increment identity, the memory
``deep_report`` and four history reads leave behind, the peak of
``deep_report`` and its time on one long sequence and on one complex
with many faces, so a return to per-step rebuilding of the graph, to
keeping a copy of every step's state, to counting faces one by one, to
numbering the vertices by id for the clique count, to expanding every
clique-count mask that is a join, to enumerating every nested set, to
one face walk per deep suite, to one clique walk per prefix for the case
rules, to checking phi on every pair (F, G), to rebuilding each face's
link, phi or restricted Γ, to one base per face, to keeping the deep
memos or the replayed prefixes, to rebuilding each step's face set, to a
recipe for every face of every prefix, to counting every state's cliques
for the increment identity or to enumerating the cliques a step gains,
fails here.
"""

import time
import tracemalloc
from gc import collect
from math import comb

from gammacomplex import (
    FlagComplex,
    find_flag_ordering,
    gamma_complex,
    gamma_of,
    interval_building_set,
    link,
    nestohedron_report,
    power_set_building_set,
    random_flag_building_set,
    random_sequence,
    verify_f_equals_gamma,
    verify_ordering_equivalence,
)
from gammacomplex import checks, subdivision
from gammacomplex.checks import (
    deep_report,
    gamma_restriction_failures,
    k_rule_failures,
    link_recursion_failures,
    oracle_failures,
    phi_image_failures,
    w_rule_failures,
)
from helpers import final_k_entry_moved, sequence_from_edges

_GAMMAS: list[list[int]] = []


def _collect(gamma_poly):
    _GAMMAS.append(gamma_poly.to_list())


def _report(name, ok, elapsed, budget, detail):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} [{elapsed:.2f}s, budget {budget:g}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget:g}s"


def test_criterion_1_worked_example_reproduction():
    start = time.perf_counter()
    seq = sequence_from_edges(4, [(0, 2), (4, 6), (0, 9)])

    # the final K-table, one entry per vertex of the third complex; the
    # ledger records the one entry that deviates from the published listing
    expected_final_k = {
        0: [9], 1: [9],
        2: [9], 3: [9, 10],
        4: [8, 10], 5: [8],
        6: [8, 10], 7: [8],
        8: [9, 10], 9: [8], 10: [],
    }
    table = {v: sorted(ks) for v, ks in seq.k_table.items()}
    ok = table == expected_final_k
    ok &= len(table) == 11

    # earlier snapshots of the table are pinned too
    ok &= {v: sorted(ks) for v, ks in seq.prefix(1).k_table.items()} == {
        0: [], 1: [], 2: [], 3: [], 4: [8], 5: [8], 6: [8], 7: [8], 8: [],
    }
    ok &= {v: sorted(ks) for v, ks in seq.prefix(2).k_table.items()} == {
        0: [9], 1: [9], 2: [9], 3: [9],
        4: [8], 5: [8], 6: [8], 7: [8], 8: [9], 9: [8],
    }

    gc = gamma_complex(seq)
    ok &= gc.vertices == {8, 9, 10} and gc.edges() == [(8, 9)]

    report = verify_f_equals_gamma(seq)
    ok &= report["equal"] and report["f_gamma"] == [1, 3, 1] and report["gamma_theta"] == [1, 3, 1]
    _collect(gamma_of(seq.final, 4).gamma)

    _report(
        "criterion 1 (worked example, exact)",
        ok,
        time.perf_counter() - start,
        1.0,
        f"K-table entries={len(table)}, gamma edges={gc.edges()}, both vectors {report['f_gamma']}",
    )


def test_criterion_2_main_identity_sweep():
    start = time.perf_counter()
    failures = 0
    for seed in range(1, 1001):
        d = 2 + (seed - 1) % 5
        k = (seed - 1) % 9
        seq = random_sequence(d, k, seed)
        report = verify_f_equals_gamma(seq)
        _collect(gamma_of(seq.final, d).gamma)
        if not report["equal"]:
            failures += 1
    _report(
        "criterion 2 (f(gamma complex) == gamma, 1000 seeds, d 2..6, k 0..8)",
        failures == 0,
        time.perf_counter() - start,
        60.0,
        f"{failures} mismatches in 1000 instances",
    )


def test_criterion_3_increment_identity_sweep():
    start = time.perf_counter()
    bad = []
    for seed in range(1, 201):
        d = 2 + (seed - 1) % 5
        k = (seed - 1) % 9
        seq = random_sequence(d, k, seed)
        for j, step in enumerate(seq.steps, start=1):
            before = gamma_of(seq.prefix(j - 1).final, d).gamma
            after = gamma_of(seq.prefix(j).final, d).gamma
            lk = gamma_of(link(seq.prefix(j - 1).final, step.edge), d - 2).gamma
            _collect(after)
            _collect(lk)
            if after - before != lk.shift(1):
                bad.append((seed, j))
    _report(
        "criterion 3 (gamma increment equals t * link gamma, 200 seeds, every step)",
        not bad,
        time.perf_counter() - start,
        30.0,
        f"{len(bad)} failing steps",
    )


def test_criterion_4_recursion_rule_suites():
    start = time.perf_counter()
    bad = []
    for seed in range(1, 51):
        d = 2 + (seed - 1) % 4
        k = (seed - 1) % 7
        seq = random_sequence(d, k, seed)
        for suite in (
            k_rule_failures,
            w_rule_failures,
            link_recursion_failures,
            phi_image_failures,
            gamma_restriction_failures,
        ):
            failures = suite(seq)
            if failures:
                bad.append((seed, suite.__name__, failures[:3]))
    _report(
        "criterion 4 (K/W case rules, link recursion, phi image, gamma restriction; 50 seeds, d <= 5, k <= 6)",
        not bad,
        time.perf_counter() - start,
        120.0,
        f"{len(bad)} failing suites" + (f", first: {bad[0]}" if bad else ""),
    )


def test_criterion_5_oracle_equivalence_sweep():
    start = time.perf_counter()
    bad = []
    for seed in range(1, 101):
        d = 2 + (seed - 1) % 3
        k = (seed - 1) % 7
        failures = oracle_failures(random_sequence(d, k, seed))
        if failures:
            bad.append((seed, failures[:3]))
    _report(
        "criterion 5 (graph vs face-set subdivision and flagness; 100 seeds, d <= 4, k <= 6)",
        not bad,
        time.perf_counter() - start,
        60.0,
        f"{len(bad)} diverging instances",
    )


def test_criterion_6_building_set_bridge():
    start = time.perf_counter()
    bad = []
    spot = {}
    for n in (2, 3, 4):
        building_sets = [power_set_building_set(n), interval_building_set(n)]
        building_sets += [random_flag_building_set(n, seed) for seed in range(1, 51)]
        for b in building_sets:
            report = verify_ordering_equivalence(find_flag_ordering(b))
            _GAMMAS.append(report["gamma_theta"])
            if not (report["equal"] and report["isomorphic"] and report["uv_match"] and report["bridge"]):
                bad.append((n, sorted(map(sorted, b.elements)), report))
    spot["pentagon"] = verify_ordering_equivalence(find_flag_ordering(interval_building_set(3)))["gamma_theta"]
    spot["hexagon"] = verify_ordering_equivalence(find_flag_ordering(power_set_building_set(3)))["gamma_theta"]
    ok = not bad and spot["pentagon"] == [1, 1] and spot["hexagon"] == [1, 2]
    _report(
        "criterion 6 (ordering/sequence bridge on all generated building sets, n <= 4)",
        ok,
        time.perf_counter() - start,
        120.0,
        f"{len(bad)} failures; pentagon gamma={spot['pentagon']}, hexagon gamma={spot['hexagon']}",
    )


def test_scale_guard_long_sequence():
    start = time.perf_counter()
    seq = random_sequence(5, 800, 1)
    report = verify_f_equals_gamma(seq)
    _collect(gamma_of(seq.final, 5).gamma)
    _report(
        "scale guard (f(gamma complex) == gamma on one sequence, d=5, k=800)",
        report["equal"],
        time.perf_counter() - start,
        10.0,
        f"f_gamma={report['f_gamma']}, gamma_theta={report['gamma_theta']}",
    )


def test_scale_guard_long_sequence_memory():
    # one state per sequence: a per-step copy of the complex and K-table
    # would make the peak grow quadratically in k (about 52 MB here)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        report = verify_f_equals_gamma(random_sequence(5, 800, 1))
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    _report(
        "scale guard (traced peak memory of one sequence, d=5, k=800)",
        report["equal"] and peak_mb < 16.0,
        time.perf_counter() - start,
        20.0,
        f"peak {peak_mb:.1f} MB, limit 16 MB",
    )


def test_scale_guard_wide_d():
    start = time.perf_counter()
    seq = random_sequence(12, 30, 1)
    report = verify_f_equals_gamma(seq)
    _GAMMAS.append(report["gamma_theta"])
    _report(
        "scale guard (f(gamma complex) == gamma on one sequence, d=12, k=30)",
        report["equal"],
        time.perf_counter() - start,
        10.0,
        f"f_gamma={report['f_gamma']}, gamma_theta={report['gamma_theta']}",
    )


def test_scale_guard_wide_d_numbering():
    # the clique count numbers the vertices by the graph, high degree last;
    # numbered by id, cross-polytope ids first, this took 2.3-2.7 s, and the
    # counts below were taken that way
    final = random_sequence(16, 30, 1).final
    start = time.perf_counter()
    report = gamma_of(final, 16)
    elapsed = time.perf_counter() - start
    _GAMMAS.append(report.gamma.to_list())
    _report(
        "scale guard (clique count of one final complex, d=16, k=30)",
        report.f.to_list() == [
            1, 62, 1614, 24008, 232047, 1562756, 7649488, 27939267, 77342122,
            163466647, 263773515, 322406317, 293287685, 192320709, 85872707,
            23359328, 2919916,
        ]
        and report.gamma.to_list() == [1, 30, 264, 904, 1223, 640, 110, 3],
        elapsed,
        1.2,
        f"f has {sum(report.f.coeffs):,} faces, gamma={report.gamma.to_list()}",
    )


def test_scale_guard_power_set_bridge():
    # the nested-set complex is read off the compatibility graph; built
    # from every nested set, this took about 19 s
    start = time.perf_counter()
    report = verify_ordering_equivalence(find_flag_ordering(power_set_building_set(8)))
    _GAMMAS.append(report["gamma_theta"])
    ok = report["equal"] and report["isomorphic"] and report["uv_match"] and report["bridge"]
    _report(
        "scale guard (ordering/sequence bridge on the power set, n=8)",
        ok and report["gamma_theta"] == [1, 240, 3072, 3968],
        time.perf_counter() - start,
        10.0,
        f"gamma_theta={report['gamma_theta']}, f_gamma={report['f_gamma']}",
    )


def test_scale_guard_intervals_nestohedron():
    # the links of a nested-set complex are joins, and the clique count
    # splits its masks there; expanding every mask, this took 6.7 s
    start = time.perf_counter()
    report = nestohedron_report(interval_building_set(18))
    _GAMMAS.append(report["gamma_theta"])
    associahedron = [comb(17, 2 * i) * comb(2 * i, i) // (i + 1) for i in range(9)]
    ok = report["equal"] and report["isomorphic"] and report["uv_match"] and report["bridge"]
    _report(
        "scale guard (nestohedron report on the intervals, n=18)",
        ok and report["gamma_theta"] == associahedron,
        time.perf_counter() - start,
        2.0,
        f"gamma_theta={report['gamma_theta']}",
    )


def _count_shapes(monkeypatch):
    """Record, in ``checks``, the shape of each recipe the final walk translates, and each shape it builds tables for."""
    shapes, tables = [], []
    translate, shape_tables = checks._translate, checks._Shape

    def counting_translate(recipe):
        out = translate(recipe)
        shapes.append(out[0])
        return out

    def counting_tables(shape):
        tables.append(shape)
        return shape_tables(shape)

    monkeypatch.setattr(checks, "_translate", counting_translate)
    monkeypatch.setattr(checks, "_Shape", counting_tables)
    return shapes, tables


def test_scale_guard_deep_suites(monkeypatch):
    # a count, not a time: one recipe translation per distinct (K(F), N(F),
    # recipe) of the final complex, 323 of its 783 faces, shared by the
    # link, phi and restriction suites (one sweep per suite built three per
    # face), and one set of tables per distinct shape, the empty link's
    # included, read off the shape with no base built (one base per face
    # built 783 here)
    start = time.perf_counter()
    shapes, tables = _count_shapes(monkeypatch)
    seq = random_sequence(5, 8, 1)
    faces = sum(seq.final.clique_count_by_size().values())
    report = deep_report(seq)
    distinct = {shape for shape in shapes if shape is not None}
    built = [shape for shape in tables if shape is not None]
    monkeypatch.undo()
    big_start = time.perf_counter()
    big = deep_report(random_sequence(6, 20, 1))
    big_s = time.perf_counter() - big_start
    ok = all(report.values()) and all(big.values()) and (len(shapes), faces) == (323, 783)
    ok &= sorted(built) == sorted(distinct) and len(tables) == len(set(tables)) and set(tables) == set(shapes)
    _report(
        "scale guard (induced sequences built by the deep suites, d=5, k=8)",
        ok,
        time.perf_counter() - start,
        60.0,
        f"{len(shapes)} translations for {faces} faces, {len(built)} tables for "
        f"{len(distinct)} shapes; d=6, k=20 took {big_s:.2f}s",
    )


def test_scale_guard_phi_singletons(monkeypatch):
    # a count, not a time: for every face F the walk decides, the first with
    # its (K(F), N(F), recipe), the phi image is checked on G empty and on
    # the single vertices of F's link, 2,074 pairs on the 323 faces decided
    # of this complex's 783, not all 10,745 pairs (F, G), and the all-pairs
    # suite runs only on a corrupted table, where it names the failing pair;
    # the pairs are counted as the calls of the singleton check cover them
    start = time.perf_counter()
    examined, suite_calls = [0], [0]
    singletons, suite = checks._phi_holds, checks.phi_image_failures

    def counting_singletons(kf, dep, labels, *rest):
        examined[0] += 1 + len(labels)
        return singletons(kf, dep, labels, *rest)

    def counting_suite(seq):
        suite_calls[0] += 1
        return suite(seq)

    monkeypatch.setattr(checks, "_phi_holds", counting_singletons)
    monkeypatch.setattr(checks, "phi_image_failures", counting_suite)
    seq = random_sequence(5, 8, 1)
    faces = list(seq.final.faces())
    all_pairs = sum(2 ** len(fs) for fs in faces)
    ok = all(deep_report(seq).values()) and suite_calls[0] == 0
    ok &= (len(faces), all_pairs, examined[0]) == (783, 10745, 2074)
    singles, valid_calls = examined[0], suite_calls[0]
    failures = checks.deep_failures(final_k_entry_moved())["phi_image"]
    ok &= failures == ["F=[], G=[2]: phi image [9] != link K-set [6]"]
    _report(
        "scale guard (phi image pairs examined, d=5, k=8)",
        ok,
        time.perf_counter() - start,
        60.0,
        f"{singles} pairs of {all_pairs} for {len(faces)} faces; "
        f"phi_image_failures called {valid_calls} times on the valid sequence",
    )


def test_scale_guard_final_walk(monkeypatch):
    # counts, not times: the final walk carries K(F) and the common
    # neighbours of F, and reads the link, phi and the restricted gamma
    # complex off one recipe translation per distinct (K(F), N(F), recipe),
    # 323 of the 783 faces, and the tables of its shape, 67 shapes, so a
    # passing run makes no per-face link, phi or isomorphism call and
    # builds no induced sequence; the increment identity is decided in the
    # forward pass, which calls no link either (the increment suite made 8,
    # one per step)
    start = time.perf_counter()
    shapes, tables = _count_shapes(monkeypatch)
    calls = dict.fromkeys(["link", "_phi", "is_isomorphic_under", "_induced"], 0)
    for name in calls:
        real = getattr(checks, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(checks, name, counting)
    ok = all(deep_report(random_sequence(5, 8, 1)).values())
    built = [shape for shape in tables if shape is not None]
    calls.update(translations=len(shapes), tables=len(built))
    ok &= calls == {
        "link": 0,
        "_phi": 0,
        "is_isomorphic_under": 0,
        "_induced": 0,
        "translations": 323,
        "tables": 67,
    }
    ok &= len(built) == len({shape for shape in shapes if shape is not None})
    _report(
        "scale guard (per-face rebuilds in the deep walks, d=5, k=8)",
        ok,
        time.perf_counter() - start,
        60.0,
        ", ".join(f"{name} {n}" for name, n in calls.items()),
    )


def test_scale_guard_increment_in_forward_pass(monkeypatch):
    # counts, not times: the forward pass reads f(lk ab) off the cliques
    # each step loses, those through ab, and by the linearity lemma checks
    # only that it has a gamma, so a passing run counts the cliques of no
    # state, builds no link of ab, lists the cliques through ab once per
    # step and none that a step gains, and replays no history, as it
    # applies each step to a state of its own (the increment suite counted
    # all 9 states, built 8 links and replayed history; the pass replayed
    # it once before it kept a state of its own)
    start = time.perf_counter()
    names = ["increment_identity_failures", "link", "gamma_of", "_cliques_through"]
    calls = dict.fromkeys([*names, "states"], 0)

    def counting(real, name):
        def count(*args):
            calls[name] += 1
            return real(*args)

        return count

    for name in names:
        monkeypatch.setattr(checks, name, counting(getattr(checks, name), name))
    monkeypatch.setattr(subdivision, "gamma_of", counting(subdivision.gamma_of, "gamma_of"))
    monkeypatch.setattr(
        subdivision.SubdivisionSequence,
        "states",
        counting(subdivision.SubdivisionSequence.states, "states"),
    )
    ok = all(deep_report(random_sequence(5, 8, 1)).values())
    ok &= calls == {
        "increment_identity_failures": 0,
        "link": 0,
        "gamma_of": 0,
        "_cliques_through": 8,
        "states": 0,
    }
    _report(
        "scale guard (increment identity in the forward pass, d=5, k=8)",
        ok,
        time.perf_counter() - start,
        60.0,
        ", ".join(f"{name} {n}" for name, n in calls.items()),
    )


def test_scale_guard_case_rules_walk_no_prefix(monkeypatch):
    # a count, not a time: the K case rules are read off each step's K-table
    # update and the W case rules hold by the memo lemma, so a passing run
    # walks the cliques of the final complex once, for the final walk, and
    # of no prefix; the start complex's recipes are built without a walk
    # (``faces`` walks through ``faces_with``, so a walk by either is counted)
    start = time.perf_counter()
    walked, real = [], FlagComplex.faces_with

    def counting(c, *args):
        walked.append(c)
        return real(c, *args)

    monkeypatch.setattr(FlagComplex, "faces_with", counting)
    seq = random_sequence(5, 8, 1)
    ok = all(deep_report(seq).values()) and walked == [seq.final]
    _report(
        "scale guard (clique walks of the deep case rules, d=5, k=8)",
        ok,
        time.perf_counter() - start,
        60.0,
        f"faces_with called {len(walked)} times",
    )


def test_scale_guard_deep_memos_released():
    # the forward pass returns the final complex's recipes, and each walk
    # keeps its own memo; deep_report must leave none of them behind
    start = time.perf_counter()
    seq = random_sequence(5, 12, 1)
    tracemalloc.start()
    try:
        ok = all(deep_report(seq).values())
        collect()
        retained_mb = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    _report(
        "scale guard (memory deep_report leaves behind, d=5, k=12)",
        ok and retained_mb < 1.0,
        time.perf_counter() - start,
        30.0,
        f"retained {retained_mb:.2f} MB, limit 1 MB",
    )


def test_scale_guard_history_reads_memory():
    # history is replayed, never kept, and recipes are memoized per call:
    # four reads of it leave nothing on the sequence (25.0 MB live when the
    # first read kept every prefix)
    start = time.perf_counter()
    seq = random_sequence(5, 400, 1)
    tracemalloc.start()
    try:
        lengths = seq.prefix(0).k, seq.prefix(200).k
        ks = subdivision.k_set_at(seq, 100, ())
        ws = subdivision.w_set_at(seq, 300, ())
        collect()
        live_mb = tracemalloc.get_traced_memory()[0] / 2**20
    finally:
        tracemalloc.stop()
    ok = lengths == (0, 200) and ks == seq.w_ids()[:100] and ws == seq.w_ids()[:300]
    _report(
        "scale guard (memory four history reads leave behind, d=5, k=400)",
        ok and live_mb < 2.0,
        time.perf_counter() - start,
        30.0,
        f"live {live_mb:.2f} MB, limit 2 MB",
    )


def test_scale_guard_deep_forward_pass(monkeypatch):
    # counts, not times: the face sets and the recipes are carried from step
    # to step, so a passing run replays no face set and builds no recipe by
    # the recursion; the final walk reads each of the 783 faces' recipes
    # from the layer the forward pass returns (783 calls, all at the last
    # layer, when it read them from the sequence's memo)
    start = time.perf_counter()
    calls = dict.fromkeys(["oracle_failures", "subdivide_face_general"], 0)
    for name in calls:
        real = getattr(checks, name)

        def counting(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(checks, name, counting)
    seq = random_sequence(5, 8, 1)
    layers, read = [], []
    real_link_seq, real_walk = subdivision._link_seq, checks._final_verdicts

    def counting_link_seq(s, j, fs, memo):
        layers.append(j)
        return real_link_seq(s, j, fs, memo)

    def walk(s, recipes):
        read.append(recipes and len(recipes))
        return real_walk(s, recipes)

    monkeypatch.setattr(subdivision, "_link_seq", counting_link_seq)
    monkeypatch.setattr(checks, "_final_verdicts", walk)
    ok = all(deep_report(seq).values())
    ok &= calls == {"oracle_failures": 0, "subdivide_face_general": 0}
    ok &= layers == [] and read == [783]
    _report(
        "scale guard (face sets and recipes carried per step, d=5, k=8)",
        ok,
        time.perf_counter() - start,
        60.0,
        f"{calls}; _link_seq called {len(layers)} times; "
        f"the final walk read a layer of {read[0]} recipes",
    )


def test_scale_guard_deep_forward_pass_memory():
    # the forward pass carries one layer of recipes, not every face of every
    # prefix (25.1 MB before the forward pass)
    start = time.perf_counter()
    seq = random_sequence(5, 60, 1)
    tracemalloc.start()
    try:
        ok = all(deep_report(seq).values())
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    _report(
        "scale guard (traced peak memory of deep_report, d=5, k=60)",
        ok and peak_mb < 12.0,
        time.perf_counter() - start,
        60.0,
        f"peak {peak_mb:.1f} MB, limit 12 MB",
    )


def test_scale_guard_deep_long_sequence():
    # one forward pass, O(lk(ab)) per step; rebuilding every prefix's face
    # set and recipes took 12 s
    start = time.perf_counter()
    seq = random_sequence(5, 150, 1)
    report = deep_report(seq)
    _report(
        "scale guard (deep_report on one long sequence, d=5, k=150)",
        all(report.values()),
        time.perf_counter() - start,
        6.0,
        f"{sum(report.values())} of {len(report)} suites hold",
    )


def test_scale_guard_deep_many_faces():
    # the final walk reads per-shape tables through int masks for each of
    # the 31,287 faces, and the forward pass keeps no face set: 1.2-1.4 s
    # on a 2-vCPU host (2.1-2.8 s with frozensets per face and the face set
    # kept with its vertex index)
    start = time.perf_counter()
    seq = random_sequence(7, 30, 1)
    report = deep_report(seq)
    _report(
        "scale guard (deep_report on one complex with many faces, d=7, k=30)",
        all(report.values()),
        time.perf_counter() - start,
        8.0,
        f"{sum(report.values())} of {len(report)} suites hold",
    )


def test_criterion_7_gamma_nonnegativity():
    start = time.perf_counter()
    negative = [g for g in _GAMMAS if any(c < 0 for c in g)]
    ok = not negative and len(_GAMMAS) > 1000
    _report(
        "criterion 7 (every computed gamma vector is coefficientwise >= 0)",
        ok,
        time.perf_counter() - start,
        60.0,
        f"{len(_GAMMAS)} gamma vectors collected, {len(negative)} with a negative entry",
    )
