"""Proposition sets with joint-orthogonality structure.

A scenario is a finite set of propositions together with the family of
subsets that are jointly orthogonal (simultaneously decidable and mutually
exclusive).  The family is downward closed, so it is stored as the antichain
of its maximal sets; membership of any subset reduces to a containment test.

A scenario is *orthocoherent* when every pairwise orthogonal set is jointly
orthogonal, i.e. when the family equals the clique complex of its
orthogonality graph.  Scenarios violating this contain a minimal
counterexample; that it coarse-grains down to three elements is checked by
the property tests in ``tests/test_scenario.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .rational import check_probability, format_rational, parse_rational

Label = str
# Each proposition mapped to its orthogonal partners; read only by iteration and ``graph[v]``.
Graph = Mapping[Label, Collection[Label]]


class ScenarioError(ValueError):
    """Invalid scenario structure or marginals."""


@dataclass(frozen=True)
class OrthoScenario:
    """Propositions plus the family of jointly orthogonal subsets.

    ``maximal_joint_sets`` is the antichain of maximal members; singletons and
    the empty set are always members even if not listed.  Immutable, safe to
    share between threads.
    """

    propositions: tuple[Label, ...]
    maximal_joint_sets: tuple[frozenset[Label], ...]

    @staticmethod
    def from_sets(propositions: Sequence[Label], joint_sets: Iterable[Iterable[Label]]) -> "OrthoScenario":
        props = tuple(propositions)
        if len(props) != len(set(props)):
            raise ScenarioError("duplicate proposition labels")
        if not props:
            raise ScenarioError("empty propositions list")
        known = set(props)
        sets = []
        for raw in joint_sets:
            s = frozenset(raw)
            unknown = s - known
            if unknown:
                raise ScenarioError(f"joint set {sorted(s)} mentions unknown propositions {sorted(unknown)}")
            sets.append(s)
        # Singletons are always jointly orthogonal with themselves.
        for p in props:
            sets.append(frozenset([p]))
        maximal = [s for s in sets if not any(s < t for t in sets)]
        # Deduplicate, keep a deterministic order.
        uniq = sorted(set(maximal), key=lambda s: (len(s), sorted(s)))
        return OrthoScenario(props, tuple(uniq))

    def is_joint(self, subset: Iterable[Label]) -> bool:
        s = frozenset(subset)
        if len(s) <= 1:
            return True
        return any(s <= m for m in self.maximal_joint_sets)


def orthogonality_graph(scenario: OrthoScenario) -> dict[Label, frozenset[Label]]:
    """Each proposition mapped to its orthogonal partners (the family's 1-skeleton)."""
    props = scenario.propositions
    return {a: frozenset(b for b in props if b != a and scenario.is_joint((a, b))) for a in props}


def cliques(graph: Graph) -> Iterator[tuple[Label, ...]]:
    """Every clique of ``graph`` as a sorted tuple, the empty one first, each
    extended depth first by its larger common neighbours (lexicographic order)."""

    def extend(clique: tuple[Label, ...], candidates: list[Label]):
        yield clique
        for i, v in enumerate(candidates):
            yield from extend(clique + (v,), [u for u in candidates[i + 1 :] if u in graph[v]])

    yield from extend((), sorted(graph))


def find_all_minimal_non_specker(scenario: OrthoScenario) -> list[tuple[Label, ...]]:
    """All pairwise orthogonal sets that are not joint but whose proper subsets are.

    Exhaustive over subsets; fine at desk scale (a dozen propositions or so).
    Results sorted by cardinality then lexicographically.
    """
    found = []
    for clique in cliques(orthogonality_graph(scenario)):
        if len(clique) < 3 or scenario.is_joint(clique):
            continue
        # Proper subsets of a clique are cliques; only the maximal proper
        # subsets need checking thanks to downward closure.
        if all(scenario.is_joint(set(clique) - {p}) for p in clique):
            found.append(clique)
    found.sort(key=lambda s: (len(s), s))
    return found


@dataclass(frozen=True)
class MarginalVector:
    """Per-proposition probabilities, exact rationals in [0, 1]."""

    values: Mapping[Label, Fraction]

    def __post_init__(self):
        frozen = {k: check_probability(Fraction(v), f"marginal of {k}") for k, v in self.values.items()}
        object.__setattr__(self, "values", frozen)

    def __getitem__(self, label: Label) -> Fraction:
        return self.values[label]

    def validate_for(self, scenario: OrthoScenario) -> None:
        """Check coverage and the pairwise bound p_i + p_j <= 1 on orthogonal pairs."""
        missing = set(scenario.propositions) - set(self.values)
        if missing:
            raise ScenarioError(f"marginals missing for propositions {sorted(missing)}")
        for a, b in combinations(scenario.propositions, 2):
            if scenario.is_joint((a, b)) and self[a] + self[b] > 1:
                raise ScenarioError(
                    f"orthogonal pair ({a}, {b}) has marginals summing to "
                    f"{format_rational(self[a] + self[b])} > 1"
                )


def load_scenario_file(path: str | Path) -> tuple[OrthoScenario, MarginalVector | None]:
    """Load a scenario from JSON with keys ``propositions``, ``joint_sets``, optional ``marginals``.

    Joint sets list only the maximal members.  Marginals are "num/den" strings
    aligned with the propositions list.  Malformed input raises
    :class:`ScenarioError` with the offending line where available.
    """
    path = Path(path)
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path.name}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path.name}: expected a JSON object at top level")
    try:
        props = data["propositions"]
        joint_sets = data["joint_sets"]
    except KeyError as exc:
        raise ScenarioError(f"{path.name}: missing key {exc.args[0]!r}") from exc
    if not isinstance(props, list) or not all(isinstance(p, str) for p in props):
        raise ScenarioError(f"{path.name}: 'propositions' must be a list of strings")
    if not isinstance(joint_sets, list) or not all(
        isinstance(s, list) and all(isinstance(p, str) for p in s) for s in joint_sets
    ):
        raise ScenarioError(f"{path.name}: 'joint_sets' must be a list of lists of strings")
    scenario = OrthoScenario.from_sets(props, joint_sets)

    marginals = None
    if "marginals" in data:
        raw = data["marginals"]
        if not isinstance(raw, list) or len(raw) != len(props):
            raise ScenarioError(f"{path.name}: 'marginals' must align with 'propositions'")
        try:
            values = {p: parse_rational(str(r)) for p, r in zip(props, raw)}
        except ValueError as exc:
            raise ScenarioError(f"{path.name}: {exc}") from exc
        marginals = MarginalVector(values)
        marginals.validate_for(scenario)
    return scenario, marginals
