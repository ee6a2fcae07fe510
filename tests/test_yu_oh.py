"""The Yu-Oh 13-ray set (Yu & Oh, PRL 108, 030402, 2012): a Specker scenario
whose quantum marginals have no joint distribution.

Thirteen rays in R^3 with integer coordinates; two are orthogonal when their
dot product is 0.  The orthogonal triangles are the only jointly orthogonal
triples, so every pairwise orthogonal set is joint and the scenario has no
minimal non-Specker set.  Yet the maximally mixed state gives every ray
probability 1/3, which respects exclusivity and still lies outside the
stable-set polytope: the Yu-Oh inequality, sum of the nine z and y rays plus
2/3 of the four h rays at most 11/3, separates it.
"""

from fractions import Fraction
from itertools import combinations

from orthobox.behavior import check_exclusivity, joint_feasibility
from orthobox.scenario import MarginalVector, OrthoScenario, find_all_minimal_non_specker, orthogonality_graph

from test_vertex_transitive import independent_sets

RAYS = {
    "z1": (1, 0, 0), "z2": (0, 1, 0), "z3": (0, 0, 1),
    "y1+": (0, 1, 1), "y1-": (0, 1, -1),
    "y2+": (1, 0, 1), "y2-": (1, 0, -1),
    "y3+": (1, 1, 0), "y3-": (1, -1, 0),
    "h0": (1, 1, 1), "h1": (-1, 1, 1), "h2": (1, -1, 1), "h3": (1, 1, -1),
}


def orthogonal(*labels: str) -> bool:
    return all(sum(x * y for x, y in zip(RAYS[a], RAYS[b])) == 0 for a, b in combinations(labels, 2))


def yu_oh() -> OrthoScenario:
    """The 4 orthogonal triangles and all 24 orthogonal pairs as joint sets."""
    triangles = [t for t in combinations(RAYS, 3) if orthogonal(*t)]
    pairs = [p for p in combinations(RAYS, 2) if orthogonal(*p)]
    assert len(triangles) == 4 and len(pairs) == 24
    return OrthoScenario.from_sets(list(RAYS), triangles + pairs)


def uniform(p: Fraction) -> MarginalVector:
    return MarginalVector({v: p for v in RAYS})


def test_specker_with_independence_number_five():
    scenario = yu_oh()
    assert find_all_minimal_non_specker(scenario, orthogonality_graph(scenario)) == []
    assert max(map(len, independent_sets(orthogonality_graph(scenario)))) == 5


def test_maximally_mixed_state_is_exclusive_but_infeasible():
    graph = orthogonality_graph(yu_oh())
    marginals = uniform(Fraction(1, 3))
    assert check_exclusivity(marginals, graph).ok
    cert = joint_feasibility(graph, marginals)
    assert not cert.feasible
    coeffs, const = cert.farkas
    assert coeffs == {v: Fraction(2, 3) if v.startswith("h") else Fraction(1) for v in RAYS}
    assert const == Fraction(-11, 3)
    assert sum(coeffs[v] * marginals[v] for v in RAYS) + const == Fraction(2, 9)
    assert all(sum((coeffs[v] for v in s), const) <= 0 for s in independent_sets(graph))


def test_uniform_threshold_is_eleven_over_thirty_five():
    graph = orthogonality_graph(yu_oh())
    assert joint_feasibility(graph, uniform(Fraction(11, 35))).feasible
    assert not joint_feasibility(graph, uniform(Fraction(11, 35) + Fraction(1, 10**6))).feasible
