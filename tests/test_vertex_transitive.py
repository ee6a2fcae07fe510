"""Exact feasibility against a closed-form oracle: vertex-transitive graphs.

For a vertex-transitive graph on n vertices, the uniform marginal vector p
lies in the stable-set polytope exactly when p <= alpha(G)/n (Cabello,
Severini & Winter, PRL 112, 040401, 2014): averaging a maximum independent
set over the automorphism group gives the uniform alpha/n, and every
admissible assignment makes at most alpha propositions true.  So the verdict
at alpha/n must be feasible and the one just above it infeasible, with no
brute-force search for a support.

The families and their independence numbers: odd cycles, (n-1)/2; odd
antiholes, 2; Kneser graphs K(m, 2), m-1 by Erdos-Ko-Rado; Paley graphs,
alpha from the brute force below.  Each certificate is checked here again,
over independent sets enumerated by this file's own search.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from orthobox.behavior import joint_feasibility
from orthobox.scenario import MarginalVector


def label(i: int) -> str:
    return f"v{i:02d}"


def odd_cycle(n: int) -> dict[str, set[str]]:
    return {label(i): {label((i - 1) % n), label((i + 1) % n)} for i in range(n)}


def odd_antihole(n: int) -> dict[str, set[str]]:
    """The complement of the n-cycle."""
    return {label(i): {label(j) for j in range(n) if (i - j) % n not in (0, 1, n - 1)} for i in range(n)}


def kneser(m: int) -> dict[str, set[str]]:
    """K(m, 2): the 2-subsets of m points, adjacent when disjoint."""
    pairs = list(combinations(range(m), 2))
    names = {pair: "".join(map(str, pair)) for pair in pairs}
    return {names[a]: {names[b] for b in pairs if not set(a) & set(b)} for a in pairs}


def paley(q: int) -> dict[str, set[str]]:
    """Z_q, adjacent when the difference is a nonzero square (q prime, q = 1 mod 4)."""
    squares = {i * i % q for i in range(1, q)}
    return {label(i): {label(j) for j in range(q) if (i - j) % q in squares} for i in range(q)}


def independent_sets(graph) -> list[tuple[str, ...]]:
    """Every independent set, grown one vertex at a time in label order."""
    nodes = sorted(graph)

    def grow(chosen: tuple[str, ...], start: int):
        yield chosen
        for i in range(start, len(nodes)):
            if not any(nodes[i] in graph[u] for u in chosen):
                yield from grow(chosen + (nodes[i],), i + 1)

    return list(grow((), 0))


GRAPHS = (
    [(f"C{n}", odd_cycle(n), (n - 1) // 2) for n in (5, 7, 9, 11, 13)]
    + [(f"antihole{n}", odd_antihole(n), 2) for n in (7, 9, 11)]
    + [(f"K({m},2)", kneser(m), m - 1) for m in (5, 6, 7)]
    + [(f"P{q}", paley(q), None) for q in (5, 13, 17)]
)


@pytest.mark.parametrize("graph, alpha", [case[1:] for case in GRAPHS], ids=[case[0] for case in GRAPHS])
def test_uniform_threshold_is_alpha_over_n(graph, alpha):
    n = len(graph)
    assert all(v not in graph[v] and all(v in graph[u] for u in graph[v]) for v in graph)
    assert len({len(neighbours) for neighbours in graph.values()}) == 1
    stable = independent_sets(graph)
    brute_alpha = max(map(len, stable))
    assert alpha in (None, brute_alpha)

    at = Fraction(brute_alpha, n)
    cert = joint_feasibility(graph, MarginalVector({v: at for v in graph}))
    assert cert.feasible
    assert sum(cert.witness.values()) == 1
    for v in graph:
        assert sum(w for s, w in cert.witness.items() if v in s) == at
    assert all(not any(b in graph[a] for a, b in combinations(s, 2)) for s in cert.witness)

    above = at + Fraction(1, 100 * n)
    cert = joint_feasibility(graph, MarginalVector({v: above for v in graph}))
    assert not cert.feasible
    coeffs, const = cert.farkas
    assert sum(coeffs[v] * above for v in graph) + const > 0
    assert all(sum((coeffs[v] for v in s), const) <= 0 for s in stable)
