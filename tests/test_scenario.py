import json
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import assume, given, settings, strategies as st

import orthobox
from orthobox.scenario import (
    MarginalVector,
    OrthoScenario,
    ScenarioError,
    cliques,
    find_all_minimal_non_specker,
    load_scenario_file,
    orthogonality_graph,
)

TRIANGLE_SETS = [["A", "B"], ["B", "C"], ["C", "A"]]


def minimal_non_specker(scenario):
    return find_all_minimal_non_specker(scenario, orthogonality_graph(scenario))


def specker_triple():
    """The bundled scenario ``check specker_triple`` loads: three boxes, any
    two orthogonal, no joint triple, every marginal 1/2."""
    return load_scenario_file(Path(orthobox.__file__).parent / "data" / "scenarios" / "specker_triple.json")


def five_set_scenario():
    labels = ["A1", "A2", "A3", "A4", "A5"]
    quads = [[l for l in labels if l != skip] for skip in labels]
    return OrthoScenario.from_sets(labels, quads)


def coarse_grain_to_three(scenario: OrthoScenario, minimal_set: Sequence[str]) -> tuple[OrthoScenario, str]:
    """Merge all but the first two members of a minimal non-Specker set.

    The merged proposition stands for the disjunction of the merged ones; a
    subset containing it is jointly orthogonal iff the expanded subset was.
    Returns the new scenario and the merged label.  The paper's lemma: the
    image of the minimal set is again a three-element minimal non-Specker set.
    """
    m = tuple(sorted(minimal_set))
    if len(m) < 3:
        raise ScenarioError(f"need at least 3 propositions to coarse-grain, got {len(m)}")
    if m not in minimal_non_specker(scenario):
        raise ScenarioError(f"{list(m)} is not a minimal non-Specker set of this scenario")
    if len(m) == 3:
        return scenario, m[2]

    merged = frozenset(m[2:])
    merged_label = "|".join(m[2:])
    if merged_label in scenario.propositions:
        raise ScenarioError(f"merged label {merged_label!r} collides with an existing proposition")
    new_props = tuple(p for p in scenario.propositions if p not in merged) + (merged_label,)

    new_sets: list[frozenset[str]] = []
    for ms in scenario.maximal_joint_sets:
        if merged <= ms:
            new_sets.append(frozenset(ms - merged) | {merged_label})
        new_sets.append(frozenset(ms - merged))
    result = OrthoScenario.from_sets(new_props, [s for s in new_sets if s])
    return result, merged_label


def coarse_grain_marginals(mv: MarginalVector, minimal_set: Sequence[str], merged_label: str) -> MarginalVector:
    """The merged proposition gets the sum of the merged entries (disjunction)."""
    m = tuple(sorted(minimal_set))
    merged = set(m[2:])
    if len(m) == 3:
        return mv
    new_values = {k: v for k, v in mv.values.items() if k not in merged}
    new_values[merged_label] = sum((mv.values[k] for k in merged), Fraction(0))
    return MarginalVector(new_values)


def edge_count(graph) -> int:
    return sum(map(len, graph.values())) // 2


class TestOrthogonalityGraph:
    def test_triangle(self):
        s, _ = specker_triple()
        g = orthogonality_graph(s)
        assert set(g) == {"A", "B", "C"}
        assert edge_count(g) == 3

    def test_single_proposition(self):
        s = OrthoScenario.from_sets(["A"], [])
        g = orthogonality_graph(s)
        assert list(g) == ["A"]
        assert edge_count(g) == 0

    def test_full_complex_is_complete_graph(self):
        s = OrthoScenario.from_sets("ABCD", [["A", "B", "C", "D"]])
        g = orthogonality_graph(s)
        assert edge_count(g) == 6

    def test_maps_each_proposition_to_its_partners(self):
        s = OrthoScenario.from_sets("ABCD", [["A", "B"], ["B", "C"]])
        assert orthogonality_graph(s) == {
            "A": frozenset("B"),
            "B": frozenset("AC"),
            "C": frozenset("B"),
            "D": frozenset(),
        }


class TestCliques:
    def test_every_clique_once_in_lexicographic_order(self):
        s = OrthoScenario.from_sets("ABCD", [["A", "B", "C"], ["C", "D"]])
        assert list(cliques(orthogonality_graph(s))) == [
            (),
            ("A",),
            ("A", "B"),
            ("A", "B", "C"),
            ("A", "C"),
            ("B",),
            ("B", "C"),
            ("C",),
            ("C", "D"),
            ("D",),
        ]

    def test_empty_graph_has_only_the_empty_clique(self):
        assert list(cliques({})) == [()]


class TestIsSpecker:
    def test_triangle_is_not(self):
        s, _ = specker_triple()
        assert minimal_non_specker(s) != []

    def test_full_power_set(self):
        s = OrthoScenario.from_sets("ABC", [["A", "B", "C"]])
        assert minimal_non_specker(s) == []

    def test_four_cycle(self):
        # C4 has no triangles, so pairs alone already form the clique complex.
        s = OrthoScenario.from_sets("ABCD", [["A", "B"], ["B", "C"], ["C", "D"], ["D", "A"]])
        assert minimal_non_specker(s) == []


class TestMinimalNonSpecker:
    def test_triangle(self):
        s, _ = specker_triple()
        assert minimal_non_specker(s) == [("A", "B", "C")]

    def test_full_power_set_none(self):
        s = OrthoScenario.from_sets("ABC", [["A", "B", "C"]])
        assert minimal_non_specker(s) == []

    def test_five_set(self):
        s = five_set_scenario()
        assert minimal_non_specker(s) == [("A1", "A2", "A3", "A4", "A5")]

    def test_tie_break_smallest_then_lexicographic(self):
        # Two disjoint triangles; DEF's triple also missing, ABC wins the tie.
        s = OrthoScenario.from_sets(
            "ABCDEF",
            [["A", "B"], ["B", "C"], ["C", "A"], ["D", "E"], ["E", "F"], ["F", "D"]],
        )
        found = minimal_non_specker(s)
        assert found == [("A", "B", "C"), ("D", "E", "F")]


class TestCoarseGrain:
    def test_identity_for_three(self):
        s, _ = specker_triple()
        out, merged = coarse_grain_to_three(s, ("A", "B", "C"))
        assert out == s
        assert merged == "C"

    def test_five_set_coarse_grains_to_minimal_triple(self):
        s = five_set_scenario()
        out, merged = coarse_grain_to_three(s, ("A1", "A2", "A3", "A4", "A5"))
        assert out.propositions == ("A1", "A2", merged)
        assert minimal_non_specker(out) == [("A1", "A2", merged)]

    def test_marginals_merge_additively(self):
        mv = MarginalVector(
            {"A1": Fraction(1, 4), "A2": Fraction(1, 4), "A3": Fraction(1, 4),
             "A4": Fraction(1, 8), "A5": Fraction(1, 8)}
        )
        merged = coarse_grain_marginals(mv, ("A1", "A2", "A3", "A4", "A5"), "A3|A4|A5")
        assert merged["A3|A4|A5"] == Fraction(1, 2)
        assert merged["A1"] == Fraction(1, 4)

    def test_rejects_non_minimal_input(self):
        s, _ = specker_triple()
        with pytest.raises(ScenarioError):
            coarse_grain_to_three(s, ("A", "B"))
        s_full = OrthoScenario.from_sets("ABC", [["A", "B", "C"]])
        with pytest.raises(ScenarioError):
            coarse_grain_to_three(s_full, ("A", "B", "C"))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=3, max_value=7))
    def test_preserves_minimal_non_specker_status(self, n):
        labels = [f"P{i}" for i in range(n)]
        subsets = [[l for l in labels if l != skip] for skip in labels]
        s = OrthoScenario.from_sets(labels, subsets)
        [m] = minimal_non_specker(s)
        assert m == tuple(labels)
        out, merged = coarse_grain_to_three(s, m)
        assert minimal_non_specker(out) == [tuple(sorted(["P0", "P1", merged]))]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_large_minimal_set_grains_to_a_minimal_triple(self, data):
        # A planted core whose proper subsets are all joint, plus random joint
        # sets that may create further minimal non-Specker sets but leave the
        # core itself not joint.
        labels = [f"P{i}" for i in range(data.draw(st.integers(4, 8), label="n"))]
        core = data.draw(st.lists(st.sampled_from(labels), min_size=4, unique=True), label="core")
        extra = data.draw(st.lists(st.sets(st.sampled_from(labels), min_size=2), max_size=4), label="extra")
        assume(not any(set(core) <= e for e in extra))
        s = OrthoScenario.from_sets(labels, [[l for l in core if l != skip] for skip in core] + extra)
        found = minimal_non_specker(s)
        assert tuple(sorted(core)) in found
        for m in found:
            if len(m) >= 4:
                out, merged = coarse_grain_to_three(s, m)
                assert tuple(sorted((m[0], m[1], merged))) in minimal_non_specker(out)


class TestValidation:
    def test_downward_closure_is_automatic(self):
        s = OrthoScenario.from_sets("ABC", [["A", "B", "C"]])
        assert s.is_joint(("A", "B"))
        assert s.is_joint(("A",))
        assert s.is_joint(())

    def test_unknown_label_rejected(self):
        with pytest.raises(ScenarioError):
            OrthoScenario.from_sets("AB", [["A", "Z"]])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ScenarioError):
            OrthoScenario.from_sets(["A", "A"], [])

    def test_marginal_pair_bound(self):
        s, _ = specker_triple()
        bad = MarginalVector({"A": Fraction(3, 4), "B": Fraction(1, 2), "C": Fraction(1, 4)})
        with pytest.raises(ScenarioError):
            bad.validate_for(s)

    def test_marginal_range(self):
        with pytest.raises(ValueError):
            MarginalVector({"A": Fraction(5, 4)})

    def test_marginal_range_message(self):
        with pytest.raises(ValueError, match=r"^marginal of B -1/3 outside \[0, 1\]$"):
            MarginalVector({"A": Fraction(1, 2), "B": Fraction(-1, 3)})
        assert MarginalVector({"A": "1/2"})["A"] == Fraction(1, 2)


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        s, m = specker_triple()
        path = tmp_path / "triple.json"
        data = {"propositions": ["A", "B", "C"], "joint_sets": TRIANGLE_SETS, "marginals": ["1/2"] * 3}
        path.write_text(json.dumps(data))
        s2, m2 = load_scenario_file(path)
        assert s2 == s
        assert m2.values == m.values

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "propositions": [,]\n}')
        with pytest.raises(ScenarioError, match=r"bad\.json:2"):
            load_scenario_file(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"propositions": ["A"]}')
        with pytest.raises(ScenarioError, match="joint_sets"):
            load_scenario_file(path)

    def test_empty_propositions_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"propositions": [], "joint_sets": []}')
        with pytest.raises(ScenarioError):
            load_scenario_file(path)

    def test_invalid_marginals_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"propositions": ["A", "B"], "joint_sets": [["A", "B"]],'
            ' "marginals": ["3/4", "3/4"]}'
        )
        with pytest.raises(ScenarioError):
            load_scenario_file(path)
