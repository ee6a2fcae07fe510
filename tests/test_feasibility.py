"""Joint-feasibility solver against an independent brute-force oracle.

The oracle decides whether the marginal vector lies in the convex hull of
the admissible assignments by enumerating candidate supports and solving
each small linear system exactly, with no pivoting logic shared with the
production solver, over its own brute-force subset filter rather than the
production clique enumerator.  The revised simplex is also held to the dense
tableau it replaced (``tests/dense_tableau.py``), given the 0/1 vectors that
the row-set columns stand for: the same Bland pivots must give the very same
witness and separating functional.
"""

from fractions import Fraction
from itertools import combinations

import pytest

import dense_tableau
from orthobox import linprog
from orthobox.behavior import CertificateError, admissible_assignments, check_exclusivity, joint_feasibility
from orthobox.cli import main
from orthobox.linprog import feasible_combination
from orthobox.rng import SplitMix64
from orthobox.scenario import MarginalVector, cliques, orthogonality_graph
from test_scenario import specker_triple


def solve_square(rows, rhs):
    """Gaussian elimination over Fractions; None if singular or inconsistent."""
    n = len(rhs)
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def brute_force_subsets(graph, adjacent: bool) -> list[frozenset]:
    """Every subset whose pairs are all adjacent (cliques) or all non-adjacent
    (independent sets), by size and then labels, filtered from all 2^n."""
    nodes = sorted(graph)
    return [
        frozenset(subset)
        for r in range(len(nodes) + 1)
        for subset in combinations(nodes, r)
        if all((b in graph[a]) == adjacent for a, b in combinations(subset, 2))
    ]


def oracle_feasible(graph, marginals) -> bool:
    """Brute force: try every support of at most |V|+1 admissible assignments.

    A clique bound short-circuits first: every admissible assignment makes at
    most one member of a clique true, so clique marginals summing past 1 rule
    out any distribution without enumerating supports.
    """
    for clique in brute_force_subsets(graph, adjacent=True):
        if sum((Fraction(marginals[v]) for v in clique), Fraction(0)) > 1:
            return False
    nodes = sorted(graph)
    assignments = brute_force_subsets(graph, adjacent=False)
    target = [Fraction(marginals[v]) for v in nodes] + [Fraction(1)]
    dim = len(target)
    for size in range(1, dim + 1):
        for support in combinations(range(len(assignments)), size):
            cols = [
                [Fraction(1) if v in assignments[j] else Fraction(0) for v in nodes] + [Fraction(1)]
                for j in support
            ]
            # Solve cols^T * x = target on a full-rank row subset, then verify
            # the solution against every row.
            rows = [list(r) for r in zip(*cols)]
            chosen_rows, chosen_idx = [], []
            for i, row in enumerate(rows):
                if matrix_rank(chosen_rows + [row]) == len(chosen_rows) + 1:
                    chosen_rows.append(row)
                    chosen_idx.append(i)
                if len(chosen_rows) == size:
                    break
            if len(chosen_rows) < size:
                continue
            sol = solve_square(chosen_rows, [target[i] for i in chosen_idx])
            if sol is None or any(x < 0 for x in sol):
                continue
            if all(
                sum(cols[j][i] * sol[j] for j in range(size)) == target[i]
                for i in range(dim)
            ):
                return True
    return False


def matrix_rank(rows) -> int:
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col]
        m[rank] = [v / inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[rank])]
        rank += 1
    return rank


def check_certificate(graph, marginals, cert):
    """Whatever the verdict, its evidence must hold exactly."""
    nodes = sorted(graph)
    if cert.feasible:
        total = sum(cert.witness.values(), Fraction(0))
        assert total == 1
        for assignment, weight in cert.witness.items():
            assert weight >= 0
            for a, b in combinations(sorted(assignment), 2):
                assert b not in graph[a]
        for v in nodes:
            mass = sum(w for s, w in cert.witness.items() if v in s)
            assert mass == marginals[v]
    else:
        coeffs, const = cert.farkas
        for assignment in brute_force_subsets(graph, adjacent=False):
            assert sum((coeffs[v] for v in assignment), Fraction(0)) + const <= 0
        value = sum((coeffs[v] * marginals[v] for v in nodes), Fraction(0)) + const
        assert value > 0


class TestTriangle:
    def test_flat_half_infeasible(self):
        s, m = specker_triple()
        g = orthogonality_graph(s)
        cert = joint_feasibility(g, m)
        assert not cert.feasible
        check_certificate(g, m, cert)
        assert not oracle_feasible(g, m)

    def test_third_feasible_with_singleton_witness(self):
        s, _ = specker_triple()
        g = orthogonality_graph(s)
        m = MarginalVector({p: Fraction(1, 3) for p in "ABC"})
        cert = joint_feasibility(g, m)
        assert cert.feasible
        assert cert.witness == {
            frozenset("A"): Fraction(1, 3),
            frozenset("B"): Fraction(1, 3),
            frozenset("C"): Fraction(1, 3),
        }

    def test_all_zero_feasible(self):
        s, _ = specker_triple()
        g = orthogonality_graph(s)
        m = MarginalVector({p: Fraction(0) for p in "ABC"})
        cert = joint_feasibility(g, m)
        assert cert.feasible
        assert cert.witness == {frozenset(): Fraction(1)}

    def test_triangle_threshold_matches_exclusivity(self):
        # For the triangle, a joint distribution exists exactly when the
        # three marginals sum to at most 1.
        s, _ = specker_triple()
        g = orthogonality_graph(s)
        for num_a in range(0, 7):
            for num_b in range(0, 7 - num_a):
                for num_c in range(0, 7):
                    m = MarginalVector(
                        {"A": Fraction(num_a, 6), "B": Fraction(num_b, 6), "C": Fraction(num_c, 6)}
                    )
                    if m["A"] + m["C"] > 1 or m["B"] + m["C"] > 1:
                        continue
                    cert = joint_feasibility(g, m)
                    expected = m["A"] + m["B"] + m["C"] <= 1
                    assert cert.feasible == expected
                    assert check_exclusivity(m, g).ok == expected
                    check_certificate(g, m, cert)


class TestPentagon:
    def pentagon(self):
        return {v: {"ABCDE"[(i - 1) % 5], "ABCDE"[(i + 1) % 5]} for i, v in enumerate("ABCDE")}

    def test_two_fifths_feasible(self):
        g = self.pentagon()
        m = MarginalVector({v: Fraction(2, 5) for v in "ABCDE"})
        cert = joint_feasibility(g, m)
        assert cert.feasible
        check_certificate(g, m, cert)

    def test_flat_half_infeasible_despite_exclusivity(self):
        # Pairwise sums are all exactly 1, yet no joint distribution exists:
        # five vertices cannot carry total weight 5/2 when independent sets
        # hold at most two of them.
        g = self.pentagon()
        m = MarginalVector({v: Fraction(1, 2) for v in "ABCDE"})
        assert check_exclusivity(m, g).ok
        cert = joint_feasibility(g, m)
        assert not cert.feasible
        check_certificate(g, m, cert)
        assert not oracle_feasible(g, m)


def random_graph_and_marginals(rng: SplitMix64, n: int):
    g = {v: set() for v in "ABCDE"[:n]}
    for a, b in combinations("ABCDE"[:n], 2):
        if rng.randrange(2):
            g[a].add(b)
            g[b].add(a)
    values = {}
    for v in sorted(g):
        den = 1 + rng.randrange(12)
        values[v] = Fraction(rng.randrange(den + 1), den)
    return g, MarginalVector(values)


class TestAgainstOracle:
    @pytest.mark.parametrize("n,cases,seed", [(3, 40, 1), (4, 30, 2), (5, 12, 3)])
    def test_random_instances(self, n, cases, seed):
        rng = SplitMix64(seed)
        for _ in range(cases):
            g, m = random_graph_and_marginals(rng, n)
            cert = joint_feasibility(g, m)
            check_certificate(g, m, cert)
            assert cert.feasible == oracle_feasible(g, m)


class TestLowLevelSolver:
    # Columns are row sets: the rows where the 0/1 column is 1.
    def test_infeasible_certificate_direction(self):
        # target outside the cone of a single column
        columns = [(0,)]
        target = (Fraction(0), Fraction(1))
        solution, farkas = feasible_combination(columns, target)
        assert solution is None
        assert sum(y * t for y, t in zip(farkas, target)) > 0
        assert farkas[0] <= 0

    def test_exact_solution(self):
        columns = [(0, 1), (0,)]
        target = (Fraction(1), Fraction(1, 3))
        solution, farkas = feasible_combination(columns, target)
        assert farkas is None
        assert solution == {0: Fraction(1, 3), 1: Fraction(2, 3)}

    def test_negative_target_entry_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            feasible_combination([(0,), (1,)], (Fraction(1, 2), Fraction(-1, 3)))


def random_graph(rng: SplitMix64, n: int) -> dict[str, set[str]]:
    """Seeded graph on the first ``n`` of A..I, edge density drawn per graph."""
    density = 1 + rng.randrange(3)
    g = {v: set() for v in "ABCDEFGHI"[:n]}
    for a, b in combinations(sorted(g), 2):
        if rng.randrange(4) < density:
            g[a].add(b)
            g[b].add(a)
    return g


class TestCliquesAgainstNetworkx:
    """The clique enumerator and its three uses against networkx and against
    the 2^n subset filter the enumerator replaced."""

    def graphs(self, nx, count: int, max_n: int, seed: int):
        rng = SplitMix64(seed)
        for _ in range(count):
            g = random_graph(rng, rng.randrange(max_n + 1))
            nxg = nx.Graph()
            nxg.add_nodes_from(g)
            nxg.add_edges_from((a, b) for a in g for b in g[a])
            yield rng, g, nxg

    def test_cliques_and_independent_sets(self):
        nx = pytest.importorskip("networkx")
        for _, g, nxg in self.graphs(nx, 200, 9, seed=31):
            expected = [()] + sorted(tuple(sorted(c)) for c in nx.enumerate_all_cliques(nxg))
            assert list(cliques(g)) == expected
            assert list(cliques(nxg)) == expected
            independent = [frozenset()] + sorted(
                (frozenset(c) for c in nx.enumerate_all_cliques(nx.complement(nxg))),
                key=lambda s: (len(s), sorted(s)),
            )
            # Order included: it fixes the simplex's columns and so its witness.
            assert admissible_assignments(g) == independent
            assert admissible_assignments(nxg) == independent
            assert brute_force_subsets(g, adjacent=False) == independent

    def test_exclusivity_reports_first_violating_maximal_clique(self):
        nx = pytest.importorskip("networkx")
        for rng, g, nxg in self.graphs(nx, 200, 9, seed=37):
            m = MarginalVector({v: Fraction(rng.randrange(5), 4) for v in g})
            violations = [
                (tuple(sorted(c)), total)
                for c in nx.find_cliques(nxg)
                if (total := sum((m[v] for v in c), Fraction(0))) > 1
            ]
            result = check_exclusivity(m, g)
            assert result.ok == (not violations)
            if violations:
                assert (result.clique, result.total) == min(violations)
            assert check_exclusivity(m, nxg) == result

    def test_networkx_graph_gives_the_same_certificate(self):
        nx = pytest.importorskip("networkx")
        for rng, g, nxg in self.graphs(nx, 20, 5, seed=41):
            m = MarginalVector({v: Fraction(rng.randrange(4), 6) for v in g})
            cert = joint_feasibility(g, m)
            check_certificate(g, m, cert)
            assert joint_feasibility(nxg, m) == cert


def odd_cycle(n: int) -> dict[str, set[str]]:
    nodes = [f"p{i}" for i in range(n)]
    return {v: {nodes[i - 1], nodes[(i + 1) % n]} for i, v in enumerate(nodes)}


def mixture_marginals(rng: SplitMix64, g) -> MarginalVector:
    """Marginals of a seeded mixture of a few independent sets: feasible by construction."""
    sets = brute_force_subsets(g, adjacent=False)
    weights = [1 + rng.randrange(6) for _ in range(1 + rng.randrange(4))]
    total = sum(weights)
    mass = {v: Fraction(0) for v in g}
    for w in weights:
        for v in sets[rng.randrange(len(sets))]:
            mass[v] += Fraction(w, total)
    return MarginalVector(mass)


def densified(columns, target):
    """The dense tableau on the 0/1 vectors that row-set columns stand for."""
    dense = [tuple(Fraction(int(i in rows)) for i in range(len(target))) for rows in columns]
    return dense_tableau.feasible_combination(dense, target)


class TestAgainstDenseTableau:
    """Identical certificates from the revised simplex and the dense tableau."""

    def both(self, monkeypatch, g, m):
        revised = joint_feasibility(g, m)
        with monkeypatch.context() as patch:
            patch.setattr(linprog, "feasible_combination", densified)
            dense = joint_feasibility(g, m)
        return revised, dense

    @pytest.mark.parametrize("n", [5, 7, 9, 11, 13])
    @pytest.mark.parametrize("boundary", [True, False])
    def test_odd_cycles(self, monkeypatch, n, boundary):
        # (n-1)/2n sits on the odd-cycle facet (feasible); 1/2 is past it.
        g = odd_cycle(n)
        m = MarginalVector({v: Fraction(n - 1, 2 * n) if boundary else Fraction(1, 2) for v in g})
        revised, dense = self.both(monkeypatch, g, m)
        assert revised == dense
        assert revised.feasible == boundary

    def test_seeded_random_graphs(self, monkeypatch):
        rng = SplitMix64(43)
        verdicts = set()
        for case in range(160):
            g = random_graph(rng, 1 + rng.randrange(8))
            if case % 2:
                m = mixture_marginals(rng, g)
            else:
                dens = {v: 1 + rng.randrange(9) for v in g}
                m = MarginalVector({v: Fraction(rng.randrange(dens[v] + 1), dens[v]) for v in g})
            revised, dense = self.both(monkeypatch, g, m)
            assert revised == dense
            verdicts.add(revised.feasible)
        assert verdicts == {True, False}

    def test_direct_calls_with_row_set_columns(self):
        # Random 0/1 columns, some empty and some repeated, against random
        # nonnegative rational targets.
        rng = SplitMix64(47)
        verdicts = set()
        empty = repeated = 0
        for _ in range(200):
            rows, cols = 1 + rng.randrange(5), rng.randrange(9)
            columns = []
            for _ in range(cols):
                if columns and rng.randrange(4) == 0:
                    columns.append(columns[rng.randrange(len(columns))])
                    repeated += 1
                else:
                    columns.append(tuple(i for i in range(rows) if rng.randrange(2)))
                    empty += not columns[-1]
            target = tuple(Fraction(rng.randrange(7), 1 + rng.randrange(4)) for _ in range(rows))
            result = feasible_combination(columns, target)
            assert result == densified(columns, target)
            verdicts.add(result[1] is None)
        assert verdicts == {True, False}
        assert empty > 20 and repeated > 50


class TestCertificateSelfCheck:
    """``joint_feasibility`` refuses a certificate that does not prove its verdict."""

    def corrupt(self, monkeypatch, change):
        def solver(columns, target):
            return change(*feasible_combination(columns, target))

        monkeypatch.setattr(linprog, "feasible_combination", solver)

    def test_shifted_witness_weight_raises(self, monkeypatch):
        s, _ = specker_triple()
        m = MarginalVector({p: Fraction(1, 3) for p in "ABC"})

        def shift(solution, farkas):
            first, second = sorted(solution)[:2]
            return {**solution, first: solution[first] + Fraction(1, 6), second: solution[second] - Fraction(1, 6)}, farkas

        self.corrupt(monkeypatch, shift)
        with pytest.raises(CertificateError, match="mass"):
            joint_feasibility(orthogonality_graph(s), m)

    def test_witness_not_summing_to_one_raises(self, monkeypatch):
        s, _ = specker_triple()
        m = MarginalVector({p: Fraction(1, 3) for p in "ABC"})
        self.corrupt(monkeypatch, lambda solution, farkas: ({j: w / 2 for j, w in solution.items()}, farkas))
        with pytest.raises(CertificateError, match="probability distribution"):
            joint_feasibility(orthogonality_graph(s), m)

    def test_functional_positive_on_an_assignment_raises(self, monkeypatch):
        # Raising the constant keeps the functional positive at the marginals
        # but makes it positive on the empty assignment too.
        s, m = specker_triple()
        self.corrupt(monkeypatch, lambda solution, y: (solution, y[:-1] + (y[-1] + 2,)))
        with pytest.raises(CertificateError, match="positive on"):
            joint_feasibility(orthogonality_graph(s), m)

    def test_functional_not_positive_at_marginals_raises(self, monkeypatch):
        s, m = specker_triple()
        self.corrupt(monkeypatch, lambda solution, y: (solution, tuple(-c for c in y)))
        with pytest.raises(CertificateError, match="not positive at the marginals"):
            joint_feasibility(orthogonality_graph(s), m)

    def test_cli_reports_a_failed_certificate_with_exit_1(self, monkeypatch, capsys):
        self.corrupt(monkeypatch, lambda solution, y: (solution, tuple(-c for c in y)))
        assert main(["check", "specker_triple"]) == 1
        assert "certificate check failed: separating functional" in capsys.readouterr().err
