"""Exact feasibility against two families whose verdicts are known in closed form.

Perfect graphs: the stable-set polytope of a perfect graph is cut out by its
clique inequalities (Chvatal, J. Combin. Theory B 18, 1975; Grotschel, Lovasz
& Schrijver, Geometric Algorithms and Combinatorial Optimization, 1988,
ch. 9).  So on a perfect orthogonality graph ``joint_feasibility`` is
feasible exactly when ``check_exclusivity`` passes.  Interval and bipartite
graphs are perfect, and so are their complements (Lovasz's weak perfect
graph theorem, 1972).

Kochen-Specker sets: the 18 rays of Cabello, Estebaranz & Garcia-Alcaine
(PLA 212, 183, 1996) and Peres's 24 rays (J. Phys. A 24, L175, 1991), with
the maximal cliques of their exact orthogonality graphs as the joint sets.
Every pairwise orthogonal set is then joint, so Specker's principle holds.
Yet any marginals under which every basis sums to 1 are infeasible: each
assignment in a witness's support would have to make exactly one ray of
each basis true, a Kochen-Specker colouring, and none exists.

Each certificate is checked here again, over independent sets enumerated by
this file's own search.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from orthobox.behavior import check_exclusivity, joint_feasibility
from orthobox.scenario import MarginalVector, OrthoScenario, find_all_minimal_non_specker, orthogonality_graph

from test_vertex_transitive import independent_sets, label

GRAPHS_PER_FAMILY = 40
# The heaviest clique's total under each scaling of the marginals.
SCALES = (Fraction(99, 100), Fraction(1), Fraction(101, 100))


def complement(graph):
    return {v: {u for u in graph if u != v and u not in graph[v]} for v in graph}


def interval_graph(rng: random.Random, n: int):
    """Closed integer intervals, adjacent when they overlap."""
    spans = []
    for _ in range(n):
        start = rng.randrange(20)
        spans.append((start, start + rng.randrange(1, 8)))
    return {
        label(i): {label(j) for j, (s, e) in enumerate(spans) if j != i and s <= spans[i][1] and spans[i][0] <= e}
        for i in range(n)
    }


def bipartite_graph(rng: random.Random, n: int):
    """Two sides split at a random point, each cross pair an edge with probability 1/2."""
    cut = rng.randrange(1, n)
    side = [i < cut for i in range(n)]
    edges = {(i, j) for i, j in combinations(range(n), 2) if side[i] != side[j] and rng.random() < 0.5}
    return {label(i): {label(j) for j in range(n) if (min(i, j), max(i, j)) in edges} for i in range(n)}


FAMILIES = {
    "interval": interval_graph,
    "bipartite": bipartite_graph,
    "co-interval": lambda rng, n: complement(interval_graph(rng, n)),
    "co-bipartite": lambda rng, n: complement(bipartite_graph(rng, n)),
}


def assert_certificate(graph, marginals: MarginalVector, cert, stable) -> None:
    """The witness reproduces the marginals on independent sets; the functional
    is positive at the marginals and at most 0 on every independent set."""
    if cert.feasible:
        assert sum(cert.witness.values()) == 1 and all(w > 0 for w in cert.witness.values())
        assert all(not any(b in graph[a] for a, b in combinations(s, 2)) for s in cert.witness)
        for v in graph:
            assert sum(w for s, w in cert.witness.items() if v in s) == marginals[v]
    else:
        coeffs, const = cert.farkas
        assert sum(coeffs[v] * marginals[v] for v in graph) + const > 0
        assert all(sum((coeffs[v] for v in s), const) <= 0 for s in stable)


@pytest.mark.parametrize("family", FAMILIES)
def test_perfect_graphs_exclusivity_is_feasibility(family):
    rng = random.Random(f"perfect-{family}")
    verdicts = []
    for _ in range(GRAPHS_PER_FAMILY):
        graph = FAMILIES[family](rng, rng.randrange(4, 10))
        stable = independent_sets(graph)
        weights = {v: rng.randrange(1, 10) for v in graph}
        heaviest = max(sum(weights[v] for v in clique) for clique in independent_sets(complement(graph)))
        for scale in SCALES:
            values = {v: weights[v] * scale / heaviest for v in graph}
            if max(values.values()) > 1:
                continue  # the heaviest clique is one vertex, which no probability can scale above 1
            marginals = MarginalVector(values)
            exclusive = check_exclusivity(marginals, graph).ok
            cert = joint_feasibility(graph, marginals)
            assert exclusive == (scale <= 1)
            assert cert.feasible == exclusive
            assert_certificate(graph, marginals, cert, stable)
            verdicts.append(cert.feasible)
    assert verdicts.count(True) >= GRAPHS_PER_FAMILY and verdicts.count(False) >= GRAPHS_PER_FAMILY // 2


def ray_name(ray: tuple[int, ...]) -> str:
    return "".join({1: "+", -1: "-", 0: "0"}[x] for x in ray)


# Cabello, Estebaranz & Garcia-Alcaine: 9 bases, each of the 18 rays in two.
CEG_BASES = (
    ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)),
    ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)),
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)),
    ((1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)),
    ((1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)),
    ((1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)),
    ((1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)),
)


def ceg_rays() -> list[tuple[int, ...]]:
    return sorted({ray for basis in CEG_BASES for ray in basis})


def peres_rays() -> list[tuple[int, ...]]:
    """Every ray of {0, +-1}^4 with 1, 2 or 4 nonzero entries, its first nonzero entry +1."""
    rays = set()
    for support in [(i,) for i in range(4)] + list(combinations(range(4), 2)) + [tuple(range(4))]:
        for signs in range(2 ** (len(support) - 1)):
            ray = [0] * 4
            for k, i in enumerate(support):
                ray[i] = -1 if k and signs >> (k - 1) & 1 else 1
            rays.add(tuple(ray))
    return sorted(rays)


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


# name: (rays, edges, bases, independent sets, independence number)
KS_SETS = {"ceg18": (ceg_rays(), 63, 9, 307, 4), "peres24": (peres_rays(), 108, 24, 1041, 5)}
STATES = ((1, 2, 3, 5), (1, 1, 0, 2), (2, -1, 1, 3))


def ks_scenario(rays):
    """The scenario whose joint sets are the maximal cliques of the rays'
    exact orthogonality graph, that graph, and its bases (4-cliques)."""
    names = [ray_name(r) for r in rays]
    graph = {ray_name(r): {ray_name(s) for s in rays if s != r and dot(r, s) == 0} for r in rays}
    cliques = [set(c) for c in independent_sets(complement(graph))]
    maximal = [c for c in cliques if not any(c < d for d in cliques)]
    bases = [c for c in cliques if len(c) == 4]
    return OrthoScenario.from_sets(names, maximal), graph, bases


def born(rays, psi) -> MarginalVector:
    """|<v|psi>|^2 / (|v|^2 |psi|^2) per ray v."""
    return MarginalVector({ray_name(r): Fraction(dot(r, psi) ** 2, dot(r, r) * dot(psi, psi)) for r in rays})


@pytest.mark.parametrize("name", KS_SETS)
def test_ks_set_is_specker(name):
    rays, edges, n_bases, n_stable, alpha = KS_SETS[name]
    scenario, graph, bases = ks_scenario(rays)
    assert orthogonality_graph(scenario) == graph
    assert sum(map(len, graph.values())) == 2 * edges
    assert len(bases) == n_bases
    stable = independent_sets(graph)
    assert len(stable) == n_stable and max(map(len, stable)) == alpha
    assert find_all_minimal_non_specker(scenario, graph) == []


@pytest.mark.parametrize("name", KS_SETS)
def test_ks_set_uniform_quarter_is_exclusive_but_infeasible(name):
    rays, _, _, _, alpha = KS_SETS[name]
    _, graph, bases = ks_scenario(rays)
    marginals = MarginalVector({v: Fraction(1, 4) for v in graph})
    assert all(sum(marginals[v] for v in basis) == 1 for basis in bases)
    assert check_exclusivity(marginals, graph).ok
    cert = joint_feasibility(graph, marginals)
    assert not cert.feasible
    assert_certificate(graph, marginals, cert, independent_sets(graph))
    # Cabello's state-independent inequality (PRL 101, 210401, 2008): the
    # rays' probabilities sum to at most alpha; uniform 1/4 sums to n/4.
    assert cert.farkas == ({v: Fraction(1) for v in graph}, Fraction(-alpha))


@pytest.mark.parametrize("psi", STATES, ids=map(str, STATES))
@pytest.mark.parametrize("name", KS_SETS)
def test_ks_set_born_marginals_are_exclusive_but_infeasible(name, psi):
    rays = KS_SETS[name][0]
    _, graph, bases = ks_scenario(rays)
    marginals = born(rays, psi)
    assert all(sum(marginals[v] for v in basis) == 1 for basis in bases)
    assert check_exclusivity(marginals, graph).ok
    cert = joint_feasibility(graph, marginals)
    assert not cert.feasible
    assert_certificate(graph, marginals, cert, independent_sets(graph))
