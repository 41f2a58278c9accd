"""The four frozen records, FHGammaReport, InducedSequence, BuildingSet and FlagOrdering: their value
semantics, and a start-up that does not load ``dataclasses``."""

import subprocess
import sys
from pathlib import Path

import pytest

from gammacomplex import (
    BuildingSet,
    FHGammaReport,
    InducedSequence,
    cross_polytope,
    find_flag_ordering,
    gamma_of,
    induced_sequence,
    interval_building_set,
    nestohedron_report,
    power_set_building_set,
)
from helpers import sequence_from_edges

EXAMPLE = sequence_from_edges(4, [(0, 2), (4, 6), (0, 9)])


def _report(d=2):
    return gamma_of(cross_polytope(d), d)


def _induced(base=EXAMPLE.prefix(1)):
    return InducedSequence(base=base, w_labels=(8,), label_of={0: 0, 8: 8}, canonical_of={0: 0, 8: 8})


def _building_set():
    return BuildingSet.of(3, [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]])


def _ordering():
    return find_flag_ordering(power_set_building_set(3))


# (make a record, one of its fields, make a record unequal to it)
RECORDS = {
    "FHGammaReport": (_report, "gamma", lambda: _report(3)),
    "InducedSequence": (_induced, "w_labels", lambda: _induced(EXAMPLE.prefix(2))),
    "BuildingSet": (_building_set, "elements", lambda: BuildingSet.of(3, [[1], [2], [3], [1, 2, 3], [1, 2]])),
    "FlagOrdering": (_ordering, "order", lambda: find_flag_ordering(interval_building_set(3))),
}
FIELDS = {
    "FHGammaReport": ("f", "h", "gamma", "d", "symmetric"),
    "InducedSequence": ("base", "w_labels", "label_of", "canonical_of"),
    "BuildingSet": ("n", "elements"),
    "FlagOrdering": ("building_set", "decomposition", "order"),
}


@pytest.mark.parametrize("name", RECORDS)
class TestValueSemantics:
    def test_equal_by_value(self, name):
        make, _, other = RECORDS[name]
        one, two = make(), make()
        assert one is not two
        assert one == two
        assert not one != two
        assert one != other()

    def test_hash_by_value(self, name):
        make, _, _ = RECORDS[name]
        if name == "InducedSequence":
            # its label maps are dicts, so it has no hash
            with pytest.raises(TypeError):
                hash(make())
            return
        assert hash(make()) == hash(make())
        assert len({make(), make()}) == 1

    def test_fields_are_read_only(self, name):
        make, field, _ = RECORDS[name]
        record = make()
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is before

    def test_repr_names_every_field(self, name):
        record = RECORDS[name][0]()
        body = ", ".join(f"{field}={getattr(record, field)!r}" for field in FIELDS[name])
        assert repr(record) == f"{name}({body})"


def test_report_keyword_constructor_and_json():
    report = _report(2)
    rebuilt = FHGammaReport(f=report.f, h=report.h, gamma=report.gamma, d=2, symmetric=True)
    assert rebuilt == report
    assert rebuilt.to_json_obj() == {"d": 2, "f": [1, 4, 4], "h": [1, 2, 1], "gamma": [1], "symmetric": True}


def test_step_count_counts_the_w_labels():
    assert induced_sequence(EXAMPLE, frozenset()).step_count == 3
    assert induced_sequence(EXAMPLE, {0}).step_count == 1
    assert induced_sequence(EXAMPLE, {10}).step_count == 0
    assert InducedSequence(base=None, w_labels=(), label_of={}, canonical_of={}).step_count == 0


def test_building_set_json_round_trip():
    b = _building_set()
    assert b.elements == frozenset(map(frozenset, [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]))
    assert b.to_json() == '{"n": 3, "elements": [[1], [2], [3], [1, 2], [2, 3], [1, 2, 3]]}'
    again = BuildingSet.from_json(b.to_json())
    assert again == b
    assert again.to_json() == b.to_json()
    assert BuildingSet(3, b.elements) == b


def test_ordering_of_another_building_set_is_rejected():
    b = power_set_building_set(3)
    # an equal building set built apart is the same building set
    assert nestohedron_report(BuildingSet.from_json(b.to_json()), find_flag_ordering(b))["isomorphic"]
    other = find_flag_ordering(interval_building_set(3))
    assert other.building_set.n == b.n
    with pytest.raises(ValueError, match="another building set"):
        nestohedron_report(b, other)


def test_importing_the_cli_loads_no_dataclasses():
    # ``python -I`` as the benchmark's workers start; the modules are compared
    # before and after the import, so a ``site`` that loads them does not count
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); import gammacomplex.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    added = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True).stdout.split()
    assert "gammacomplex.cli" in added
    assert "dataclasses" not in added, added
