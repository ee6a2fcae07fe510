"""Probability tables (boxes) and the checks that classify them.

Covers exclusivity sums over cliques, exact joint-distribution feasibility
for given marginals, no-signalling for bipartite tables, CHSH values, and
the eight extremal boxes with uniform marginals and perfect
(anti)correlations.

Outcome convention for two-valued boxes: +1 and -1, with "full"/"glow"
mapping to +1 at module boundaries.
"""

from __future__ import annotations

import io
from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Hashable, Mapping, NamedTuple

from . import CertificateError, linprog, scenario
from .rational import check_probability, format_rational

Outcome = Hashable
Setting = str
PLUS, MINUS = 1, -1


class BehaviorError(ValueError):
    """Malformed or wrongly shaped behavior table."""


class BehaviorTable(namedtuple("BehaviorTable", "settings outcomes table")):
    """Conditional outcome distributions for a two-party box.

    ``table[settings][outcomes]`` is the exact probability of the joint
    outcome tuple given the setting tuple (one entry per party in each).
    Missing outcome tuples mean probability zero.  Immutable; operations on
    tables are pure.  A table is a value: tables with the same settings,
    outcomes and nonzero entries compare and hash equal.
    """

    __slots__ = ()

    def __new__(
        cls,
        settings: tuple[tuple[Setting, ...], ...],
        outcomes: tuple[tuple[Outcome, ...], ...],
        table: Mapping[tuple[Setting, ...], Mapping[tuple[Outcome, ...], Fraction]],
    ):
        if len(settings) != 2 or len(outcomes) != 2:
            raise BehaviorError("need settings and outcomes for exactly 2 parties")
        frozen: dict[tuple[Setting, ...], dict[tuple[Outcome, ...], Fraction]] = {}
        for combo in product(*settings):
            dist = table.get(combo)
            if dist is None:
                raise BehaviorError(f"missing distribution for settings {combo}")
            clean = {}
            for outs, p in dist.items():
                if len(outs) != 2:
                    raise BehaviorError(f"outcome {outs!r} for {combo} needs one entry per party")
                for party, o in enumerate(outs):
                    if o not in outcomes[party]:
                        raise BehaviorError(f"unknown outcome {o!r} for party {party}")
                p = check_probability(Fraction(p), f"p{outs}|{combo}")
                if p != 0:
                    clean[tuple(outs)] = p
            total = sum(clean.values(), Fraction(0))
            if total != 1:
                raise BehaviorError(f"distribution for {combo} sums to {format_rational(total)}, not 1")
            frozen[combo] = clean
        return super().__new__(cls, settings, outcomes, frozen)

    def __hash__(self) -> int:
        entries = frozenset((combo, frozenset(dist.items())) for combo, dist in self.table.items())
        return hash((self.settings, self.outcomes, entries))

    def marginal(self, party: int, combo: tuple[Setting, ...]) -> dict[Outcome, Fraction]:
        dist: dict[Outcome, Fraction] = {o: Fraction(0) for o in self.outcomes[party]}
        for outs, p in self.table[combo].items():
            dist[outs[party]] += p
        return dist

    def correlator(self, combo: tuple[Setting, ...]) -> Fraction:
        """E = sum of o_a * o_b * p over joint outcomes; needs numeric +-1 outcomes."""
        return sum((Fraction(a * b) * p for (a, b), p in self.table[combo].items()), Fraction(0))


class ExclusivityResult(NamedTuple):
    ok: bool
    clique: tuple[str, ...] | None
    total: Fraction | None


def check_exclusivity(marginals: scenario.MarginalVector, graph: scenario.Graph) -> ExclusivityResult:
    """Probabilities of pairwise orthogonal propositions must sum to at most 1.

    Checks every maximal clique (sub-cliques are dominated) in integers over
    the marginals' lcm denominator; on failure reports the first violating
    one the lexicographic walk of ``scenario.cliques`` meets, the least.
    """
    den = lcm(*(p.denominator for p in marginals.values.values()))
    weights = {v: p.numerator * (den // p.denominator) for v, p in marginals.values.items()}
    for clique in scenario.cliques(graph):
        total = sum(weights[v] for v in clique)
        # Maximal: no proposition is orthogonal to every member.
        if total > den and not any(all(v in graph[u] for v in clique) for u in graph):
            return ExclusivityResult(False, clique, Fraction(total, den))
    return ExclusivityResult(True, None, None)


class FeasibilityCertificate(NamedTuple):
    feasible: bool
    # distribution over admissible 0/1 assignments (sets of true propositions)
    witness: dict[frozenset, Fraction] | None
    # separating functional: coefficients per proposition plus a constant,
    # nonpositive on every admissible assignment yet positive at the marginals
    farkas: tuple[dict[str, Fraction], Fraction] | None


def admissible_assignments(graph: scenario.Graph) -> list[frozenset]:
    """All 0/1 assignments with no two adjacent propositions true (independent
    sets, i.e. the cliques of the complement), by size and then labels."""
    complement = {v: {u for u in graph if u != v and u not in graph[v]} for v in graph}
    return [frozenset(s) for s in sorted(scenario.cliques(complement), key=lambda s: (len(s), s))]


def joint_feasibility(graph: scenario.Graph, marginals: scenario.MarginalVector) -> FeasibilityCertificate:
    """Decide whether some distribution over admissible assignments has the given marginals.

    Exact rational phase-1 simplex with one row per proposition (sorted) and
    a normalization row, one 0/1 column per admissible assignment, passed
    as its row set (its true propositions' rows and the normalization row),
    and the marginals with a trailing 1 as target.  The feasible witness
    reproduces all marginals exactly; the infeasible certificate separates
    the marginal vector from the admissible (stable-set) polytope.  Either
    certificate is checked here before it is returned: a witness must be
    nonnegative, sum to 1 and reproduce every marginal; a functional must be
    positive at the marginals and at most 0 on every admissible assignment,
    by one more pricing pass over them in integers.  A certificate that
    fails raises :class:`CertificateError`.
    """
    nodes = sorted(graph)
    assignments = admissible_assignments(graph)
    columns = [tuple(i for i, v in enumerate(nodes) if v in s) + (len(nodes),) for s in assignments]
    target = tuple(marginals[v] for v in nodes) + (Fraction(1),)
    solution, farkas = linprog.feasible_combination(columns, target)
    if farkas is None:
        witness = {assignments[j]: w for j, w in solution.items()}
        _check_witness(witness, nodes, marginals)
        return FeasibilityCertificate(True, witness, None)
    coeffs = {v: farkas[i] for i, v in enumerate(nodes)}
    _check_functional(coeffs, farkas[-1], assignments, marginals)
    return FeasibilityCertificate(False, None, (coeffs, farkas[-1]))


def _check_witness(witness: dict[frozenset, Fraction], nodes: list[str], marginals: scenario.MarginalVector) -> None:
    if any(w < 0 for w in witness.values()) or sum(witness.values(), Fraction(0)) != 1:
        raise CertificateError("witness weights do not form a probability distribution")
    for v in nodes:
        mass = sum((w for s, w in witness.items() if v in s), Fraction(0))
        if mass != marginals[v]:
            raise CertificateError(
                f"witness gives {v} mass {format_rational(mass)}, not its marginal {format_rational(marginals[v])}"
            )


def _check_functional(
    coeffs: dict[str, Fraction], const: Fraction, assignments: list[frozenset], marginals: scenario.MarginalVector
) -> None:
    if sum((c * marginals[v] for v, c in coeffs.items()), const) <= 0:
        raise CertificateError("separating functional is not positive at the marginals")
    # Scaled to integers, the functional is at most 0 on an assignment iff
    # its coefficients there sum to at most -const.
    scale = lcm(const.denominator, *(c.denominator for c in coeffs.values()))
    price = {v: c.numerator * (scale // c.denominator) for v, c in coeffs.items()}
    bound = -const.numerator * (scale // const.denominator)
    for s in assignments:
        if sum(map(price.__getitem__, s)) > bound:
            raise CertificateError(f"separating functional is positive on {{{','.join(sorted(s))}}}")


class NoSignallingResult(NamedTuple):
    ok: bool
    # (party, setting, (other_setting_1, other_setting_2), marginal_1, marginal_2)
    witness: tuple | None


def no_signalling_check(box: BehaviorTable) -> NoSignallingResult:
    """Each party's marginals must not depend on the other party's setting."""
    for party in (0, 1):
        other = 1 - party
        for setting in box.settings[party]:
            reference = None
            ref_other = None
            for other_setting in box.settings[other]:
                combo = (setting, other_setting) if party == 0 else (other_setting, setting)
                marg = box.marginal(party, combo)
                if reference is None:
                    reference, ref_other = marg, other_setting
                elif marg != reference:
                    return NoSignallingResult(
                        False, (party, setting, (ref_other, other_setting), reference, marg)
                    )
    return NoSignallingResult(True, None)


class CHSHResult(NamedTuple):
    value: Fraction
    signs: tuple[int, int, int, int]


def chsh(box: BehaviorTable) -> CHSHResult:
    """Best CHSH combination |s1 E(ab) + s2 E(ab') + s3 E(a'b) + s4 E(a'b')|.

    Maximized over the eight sign placements with an odd number of minus
    signs, so relabelled boxes score the same.  Returns the achieving
    placement alongside the value.
    """
    if any(len(s) != 2 for s in box.settings):
        raise BehaviorError("CHSH requires two settings per party")
    (a, a2), (b, b2) = box.settings
    es = [
        box.correlator((a, b)),
        box.correlator((a, b2)),
        box.correlator((a2, b)),
        box.correlator((a2, b2)),
    ]
    best = None
    for signs in product((1, -1), repeat=4):
        if signs[0] * signs[1] * signs[2] * signs[3] != -1:
            continue
        value = abs(sum((Fraction(s) * e for s, e in zip(signs, es)), Fraction(0)))
        if best is None or value > best[0]:
            best = (value, signs)
    return CHSHResult(*best)


PR_SETTINGS = (("a", "a'"), ("b", "b'"))
PR_OUTCOMES = ((PLUS, MINUS), (PLUS, MINUS))


def _xor_box(alpha: int, beta: int, gamma: int) -> BehaviorTable:
    # outcome bits satisfy oa xor ob = x*y xor alpha*x xor beta*y xor gamma
    table = {}
    for x, y in product((0, 1), repeat=2):
        combo = (PR_SETTINGS[0][x], PR_SETTINGS[1][y])
        want = (x * y) ^ (alpha * x) ^ (beta * y) ^ gamma
        dist = {}
        for bit_a, bit_b in product((0, 1), repeat=2):
            if bit_a ^ bit_b == want:
                dist[(PLUS if bit_a == 0 else MINUS, PLUS if bit_b == 0 else MINUS)] = Fraction(1, 2)
        table[combo] = dist
    return BehaviorTable(PR_SETTINGS, PR_OUTCOMES, table)


def enumerate_pr_boxes() -> list[BehaviorTable]:
    """The eight no-signalling boxes with uniform marginals saturating CHSH at 4."""
    return [_xor_box(a, b, g) for a, b, g in product((0, 1), repeat=3)]


def is_pr_box(box: BehaviorTable) -> bool:
    """Whether a 2x2-setting ±1 box is one of the eight PR boxes, whatever its
    setting labels: every setting pair is uniform over the two outcome pairs
    of one product sign, and the four signs multiply to -1."""
    if any(len(s) != 2 for s in box.settings):
        raise BehaviorError("PR-box test requires a 2x2-setting table")
    if any(set(o) != {PLUS, MINUS} for o in box.outcomes):
        return False
    sign = 1
    for combo in product(*box.settings):
        dist = box.table[combo]
        signs = {a * b for a, b in dist}
        if len(dist) != 2 or len(signs) != 1 or set(dist.values()) != {Fraction(1, 2)}:
            return False
        sign *= signs.pop()
    return sign == -1


def correlators_csv(box: BehaviorTable) -> str:
    """CSV of exact correlators, columns setting_a,setting_b,E."""
    out = io.StringIO()
    out.write("setting_a,setting_b,E\n")
    for sa in box.settings[0]:
        for sb in box.settings[1]:
            out.write(f"{sa},{sb},{format_rational(box.correlator((sa, sb)))}\n")
    return out.getvalue()
