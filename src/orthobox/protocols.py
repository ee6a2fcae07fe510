"""Protocols run against the toy models: signalling detection, the
assumption battery, the prophecy game, and box realizations.

The three assumptions probed for each model:

(a) matching measurements on the two sides agree with certainty and every
    proposition has a nontrivial marginal;
(b) every proposition is measurable on its own, and composing single
    measurements in any order reproduces the joint measurement;
(c) nothing one party does shifts the outcome distributions on the other
    side.

All verdicts come from exact enumeration over finite plan spaces: adaptive
strategies of depth at most two for (c), every interleaved realization of a
pair of contexts for (a), fresh-session order comparisons for (b).  For (c)
each (first query, follow-up, Bob target) plan is enumerated once and split
by Alice's first outcome; Bob's shift is a sum of one independent term per
first outcome, so its extremes come from the best follow-up under each
outcome, not from scoring every strategy.  Distribution comparisons are
exact rational equality throughout.  Distributions are read through
``_distribution``, while (c)'s search and (a)'s scan read each history; a
forbidden branch in a plan run on a fresh session is an
``InconsistentHistory`` naming the plan.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Hashable, NamedTuple, Sequence

from . import behavior
from .models import (
    ALICE,
    BOB,
    BOXES,
    PAIRS,
    History,
    InconsistentHistory,
    Model,
    PlanStep,
    Query,
    compile_plan,
    enumerate_histories,
    group_histories,
    make_model,
    plan_steps,
)
from .rng import SplitMix64


class AliceStrategy(namedtuple("AliceStrategy", "first branches plan")):
    """First query plus a follow-up query per observed outcome (or none);
    its one-step plan is built once, as ``plan``."""

    __slots__ = ()

    def __new__(cls, first: str, branches: tuple[tuple[str, str | None], ...] = ()):
        branch_steps = tuple((key, (PlanStep(ALICE, target),)) for key, target in branches if target)
        return super().__new__(cls, first, branches, (PlanStep(ALICE, first, branch_steps),))

    def describe(self) -> str:
        parts = [f"alice {self.first}"]
        for key, target in self.branches:
            if target:
                parts.append(f"on {key}: alice {target}")
        return "; ".join(parts)


def _describe_plan(plan: Sequence[PlanStep]) -> str:
    return "; ".join(f"{s.side} {s.target}" for s in plan_steps(plan))


def _distribution(model: Model, plan: Sequence[PlanStep], key: Callable[[History], Hashable]) -> dict:
    """Exact distribution of ``key(history)`` over a plan's histories, with
    the forbidden ones grouped under ``None``."""
    return group_histories(enumerate_histories(compile_plan(model, plan)), lambda h: None if h.forbidden else key(h))


def _fresh_distribution(model: Model, plan: Sequence[PlanStep], key: Callable[[History], Hashable]) -> dict:
    """``_distribution`` of a plan run on a fresh session, where no branch may be forbidden."""
    dist = _distribution(model, plan, key)
    if None in dist:
        raise InconsistentHistory(f"plan [{_describe_plan(plan)}] cannot be forbidden")
    return dist


def _readings(history: History, side: str, box: str) -> list[bool]:
    """The values one side read for a box, in step order."""
    return [dict(outcome)[box] for query, outcome in history.steps if query.side == side and box in query.boxes]


class BobMarginal(NamedTuple):
    """Outcome distribution of Bob's query after Alice's strategy ran."""

    distribution: dict[str, Fraction]
    forbidden_mass: Fraction


def bob_marginal(model: Model, strategy: AliceStrategy | None, bob_target: str) -> BobMarginal:
    """Exact marginal of Bob's query, marginalized over Alice's outcomes.

    Branches where a query became unanswerable are reported separately as
    ``forbidden_mass`` rather than renormalized away.
    """
    plan = (strategy.plan if strategy else ()) + (PlanStep(BOB, bob_target),)
    dist = _distribution(model, plan, lambda h: model.outcome_key(*h.steps[-1]))
    return BobMarginal(dist, dist.pop(None, Fraction(0)))


def first_outcomes(model: Model, side: str, target: str) -> tuple[str, ...]:
    """Outcome keys a fresh session can produce for one query."""
    dist = _distribution(model, (PlanStep(side, target),), lambda h: model.outcome_key(*h.steps[0]))
    return tuple(sorted(dist.keys() - {None}))


class SignallingReport(NamedTuple):
    signalling: bool
    gap: Fraction
    strategy: AliceStrategy | None
    bob_target: str | None
    outcome: str | None
    baseline: Fraction | None
    shifted: Fraction | None


def _signalling_parts(model: Model, keys: dict[str, Sequence[str]], bob_targets: Sequence[str]):
    """Bob's outcome masses per (first query, follow-up or none, Bob target)
    and first outcome k, or None where a branch through k is forbidden; and
    the first queries forbidden from some prior state.

    Each plan puts the follow-up under every first outcome, so its histories
    through k are the ones a strategy choosing that follow-up for k has."""
    parts: dict = {}
    blocked = set()
    bob_steps = [(bob_target, PlanStep(BOB, bob_target)) for bob_target in bob_targets]
    for first, follow in product(keys, (None, *model.admissible_targets(ALICE))):
        branches = tuple((key, (PlanStep(ALICE, follow),)) for key in keys[first]) if follow else ()
        alice_step = PlanStep(ALICE, first, branches)
        for bob_target, bob_step in bob_steps:
            part = parts[first, follow, bob_target] = {key: {} for key in keys[first]}
            for history in enumerate_histories(compile_plan(model, (alice_step, bob_step))):
                query, outcome = history.steps[0]
                if outcome is None:
                    blocked.add(first)
                    continue
                k = model.outcome_key(query, outcome)
                if history.forbidden:
                    part[k] = None
                elif part[k] is not None:
                    bob_key = model.outcome_key(*history.steps[-1])
                    part[k][bob_key] = part[k].get(bob_key, 0) + history.probability
    return parts, blocked


def detect_signalling(model: Model) -> SignallingReport:
    """Search every depth-two strategy for a shift in some Bob marginal.

    Strategy/query combinations with forbidden branches are skipped: they are
    not realizable protocols in the model.  Returns the largest absolute
    probability shift found, with the strategy and outcome achieving it; a
    tie goes to the first in strategy, Bob target and sorted outcome order.

    Bob's marginal after a strategy is a sum over Alice's first outcome k of
    the mass that reaches him through k and the follow-up chosen for k
    (``_signalling_parts``).  The terms are independent, so the sum is
    largest (smallest) when each term is: per first query, Bob target and
    key, the strategy picking under each k the earliest follow-up with the
    most (least) mass is the earliest one at that extreme, and only those
    two are scored, in exact Fractions.
    """
    alice_targets, bob_targets = model.admissible_targets(ALICE), model.admissible_targets(BOB)
    baselines = {}
    for bob_target in bob_targets:
        baseline = bob_marginal(model, None, bob_target)
        if baseline.forbidden_mass != 0:
            raise InconsistentHistory(f"bob's baseline query {bob_target} cannot be forbidden")
        baselines[bob_target] = baseline.distribution
    keys = {first: first_outcomes(model, ALICE, first) for first in alice_targets}
    parts, blocked = _signalling_parts(model, keys, bob_targets)
    follows = (None, *alice_targets)

    best, best_rank = SignallingReport(False, Fraction(0), None, None, None, None, None), None
    for f, first in enumerate(alice_targets):
        if first in blocked:
            continue
        for t, bob_target in enumerate(bob_targets):
            # Per first outcome, the realizable (follow-up index, masses) in follow-up order.
            options = [
                [(j, m) for j, follow in enumerate(follows) if (m := parts[first, follow, bob_target][k]) is not None]
                for k in keys[first]
            ]
            if not all(options):
                continue
            base = baselines[bob_target]
            for bob_key in sorted(set(base).union(*(m for choices in options for _, m in choices))):
                b = base.get(bob_key, Fraction(0))
                for pick in (max, min):  # each returns the earliest of tied follow-ups
                    picks = [pick(choices, key=lambda choice: choice[1].get(bob_key, 0)) for choices in options]
                    s = sum((m.get(bob_key, 0) for _, m in picks), Fraction(0))
                    rank = (-abs(s - b), f, tuple(j for j, _ in picks), t, bob_key)
                    if s != b and (best_rank is None or rank < best_rank):
                        best_rank = rank
                        strategy = AliceStrategy(first, tuple(zip(keys[first], (follows[j] for j, _ in picks))))
                        best = SignallingReport(True, abs(s - b), strategy, bob_target, bob_key, b, s)
    return best


# ---------------------------------------------------------------------------
# Assumption battery


class Witness(NamedTuple):
    claim: str
    plan: tuple[PlanStep, ...] = ()
    detail: str = ""

    def describe(self) -> str:
        if not self.plan:
            return self.claim
        text = f"{self.claim} under plan [{_describe_plan(self.plan)}]"
        return f"{text} ({self.detail})" if self.detail else text


class AssumptionVerdict(NamedTuple):
    holds: bool
    witness: Witness | None


def _interleavings(a: tuple, b: tuple):
    """Every merge of ``a`` and ``b`` keeping each one's order, earliest places for ``a`` first."""
    n = len(a) + len(b)
    for slots in combinations(range(n), len(a)):
        steps_a, steps_b = iter(a), iter(b)
        yield tuple(next(steps_a) if i in slots else next(steps_b) for i in range(n))


def _realizations(model: Model, side: str, ctx: str) -> list[tuple[PlanStep, ...]]:
    """Ways to measure a context: the joint query, then, when both its boxes
    are admissible singly, x then y and y then x."""
    joint, x, y = (PlanStep(side, t) for t in (ctx, *ctx))
    if set(ctx) <= set(model.admissible_targets(side)):
        return [(joint,), (x, y), (y, x)]
    return [(joint,)]


def test_assumption_a(model: Model) -> AssumptionVerdict:
    """Perfect cross-side correlation of matching measurements, nontrivial marginals.

    For every proposition and every pair of contexts containing it on the
    two sides, measured through any admissible realization (the joint query,
    or its boxes one at a time in either order) and any interleaving of the
    two sides' steps, both parties must read the proposition identically in
    every branch.  Branches the model itself forbids carry no weight.
    """
    for side in (ALICE, BOB):
        for target in model.admissible_targets(side):
            plan = (PlanStep(side, target),)
            outcomes = _fresh_distribution(model, plan, lambda h: h.steps[0][1])
            for box in plan[0].query.boxes:
                p = sum((q for outcome, q in outcomes.items() if dict(outcome)[box]), Fraction(0))
                if not 0 < p < 1:
                    claim = f"trivial marginal: p({box}) = {p} in context {target} on {side}"
                    return AssumptionVerdict(False, Witness(claim, plan))

    enumerated: dict = {}  # a plan holding two boxes is scanned once per box, enumerated once
    for box in BOXES:
        contexts = ([t for t in model.admissible_targets(side) if len(t) == 2 and box in t] for side in (ALICE, BOB))
        for ctx_a, ctx_b in product(*contexts):
            for real_a, real_b in product(_realizations(model, ALICE, ctx_a), _realizations(model, BOB, ctx_b)):
                for plan in _interleavings(real_a, real_b):
                    if plan not in enumerated:
                        enumerated[plan] = enumerate_histories(compile_plan(model, plan))
                    for history in enumerated[plan]:
                        if history.forbidden:
                            continue
                        a_vals = _readings(history, ALICE, box)
                        b_vals = _readings(history, BOB, box)
                        if any(av != bv for av in a_vals for bv in b_vals):
                            claim = f"sides disagree on {box} with probability {history.probability}"
                            detail = f"alice ({ctx_a}) read {a_vals}, bob ({ctx_b}) read {b_vals}"
                            return AssumptionVerdict(False, Witness(claim, plan, detail))
    return AssumptionVerdict(True, None)


def test_assumption_b(model: Model) -> AssumptionVerdict:
    """Single-proposition measurements exist and compose order-independently."""
    for side, box in product((ALICE, BOB), BOXES):
        if box not in model.admissible_targets(side):
            return AssumptionVerdict(False, Witness(f"no single-target measurement of {box} exists"))
    for side in (ALICE, BOB):
        for pair in (t for t in model.admissible_targets(side) if len(t) == 2):
            x, y = pair
            plans = _realizations(model, side, pair)
            # The first reading of a box counts as the measurement result.
            together, forward, backward = (
                _fresh_distribution(model, plan, lambda h: (_readings(h, side, x)[0], _readings(h, side, y)[0]))
                for plan in plans
            )
            if forward != backward or forward != together:
                claim = f"measuring {x} and {y} on {side} depends on how they are combined"
                detail = f"{x} then {y}: {forward}; {y} then {x}: {backward}; {pair}: {together}"
                return AssumptionVerdict(False, Witness(claim, plans[1], detail))
    return AssumptionVerdict(True, None)


def test_assumption_c(model: Model) -> AssumptionVerdict:
    report = detect_signalling(model)
    if not report.signalling:
        return AssumptionVerdict(True, None)
    strategy = report.strategy
    witness = Witness(
        f"bob's p({report.outcome}) for {report.bob_target} moves from "
        f"{report.baseline} to {report.shifted}",
        strategy.plan + (PlanStep(BOB, report.bob_target),),
        detail=strategy.describe(),
    )
    return AssumptionVerdict(False, witness)


class AssumptionReport(NamedTuple):
    a: AssumptionVerdict
    b: AssumptionVerdict
    c: AssumptionVerdict


def assumption_report(model: Model) -> AssumptionReport:
    return AssumptionReport(test_assumption_a(model), test_assumption_b(model), test_assumption_c(model))


# ---------------------------------------------------------------------------
# The prophecy game


class FableStats(NamedTuple):
    trials: int
    daniel_success: Fraction
    sandu_first_success: Fraction
    sandu_second_success: Fraction
    rows: tuple[tuple[int, bool, bool, bool], ...]


def _fable_plan(pair: str, full: str) -> tuple[PlanStep, ...]:
    """Sandu opens the leftover box, then the box of Daniel's pair whose
    forced content makes the prophecy ``full`` full come true; then Daniel
    opens his pair."""
    empty = pair.replace(full, "")
    third = next(b for b in BOXES if b not in pair)
    follow = (("full", (PlanStep(ALICE, empty),)), ("empty", (PlanStep(ALICE, full),)))
    return (PlanStep(ALICE, third, follow), PlanStep(BOB, pair))


def _fable_scores(history: History, full: str) -> tuple[bool, bool, bool]:
    """(leftover box full, second prophecy right, Daniel right) on one history."""
    if history.forbidden:
        query = history.steps[-1][0]
        raise InconsistentHistory(f"the fable's {query.side} {query.target} has no consistent answer")
    (_, third), (_, second), (_, daniel) = history.steps
    third_full = third[0][1]
    daniel_reading = dict(daniel)
    empty = next(box for box in daniel_reading if box != full)
    return third_full, second[0][1] != third_full, daniel_reading[full] and not daniel_reading[empty]


def simulate_fable(trials: int, seed: int = 0, keep_rows: bool = False) -> FableStats:
    """Daniel announces a pair and a prophecy; Sandu opens the leftover box
    first and then picks his second box so that its forced content makes
    Daniel's prophecy come true.

    Each trial draws the hidden state, then Daniel's pair, his full box and
    Sandu's first guess, then walks that (pair, full box) plan's compiled
    tree from the drawn state.  Daniel's success rate is exactly 1 for every
    seed; Sandu's first guess is a fair coin and his second follows from the
    first.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = SplitMix64(seed)
    model = make_model("seer")
    trees = [(compile_plan(model, _fable_plan(pair, full)), full) for pair in PAIRS for full in pair]
    thresholds = model.prior.thresholds
    scores: dict = {}
    daniel_ok = sandu_first_ok = sandu_second_ok = 0
    rows = []
    for trial in range(trials):
        prior = bisect_right(thresholds, rng.next_u64())
        tree, full = trees[2 * rng.randrange(3) + rng.randrange(2)]
        guess_full = rng.randrange(2) == 0
        leaf = tree.sample(rng, prior)
        score = scores.get(leaf)
        if score is None:
            score = scores[leaf] = _fable_scores(leaf.history, full)
        third_full, second_ok, this_daniel_ok = score
        first_ok = guess_full == third_full
        daniel_ok += this_daniel_ok
        sandu_first_ok += first_ok
        sandu_second_ok += second_ok
        if keep_rows:
            rows.append((trial, this_daniel_ok, first_ok, second_ok))
    return FableStats(
        trials,
        Fraction(daniel_ok, trials),
        Fraction(sandu_first_ok, trials),
        Fraction(sandu_second_ok, trials),
        tuple(rows),
    )


# ---------------------------------------------------------------------------
# Box realizations


Interpretation = tuple[
    tuple[tuple[str, str], tuple[str, str]],  # alice: (target, box) per setting
    tuple[tuple[str, str], tuple[str, str]],  # bob: (target, box) per setting
]

# Sandu reads A out of AB or B out of BC; Daniel reads A out of AB or C out of CA.
DEFAULT_PAIR_INTERPRETATION: Interpretation = (
    (("AB", "A"), ("BC", "B")),
    (("AB", "A"), ("CA", "C")),
)

# One query per side: A or B on one side against A or C on the other.
LSW_SINGLE_INTERPRETATION: Interpretation = (
    (("A", "A"), ("B", "B")),
    (("A", "A"), ("C", "C")),
)

PR_REALIZATION_SETTINGS = (("b", "b'"), ("a", "a'"))


def realize_pr_box(model: Model, interpretation: Interpretation | None = None) -> behavior.BehaviorTable:
    """Read one box out of each party's query and tabulate the +-1 outcomes.

    Full or glowing counts as +1.  The result is a full conditional table
    over the two settings per party, computed by exact enumeration.
    """
    if interpretation is None:
        interpretation = DEFAULT_PAIR_INTERPRETATION
    for party, side in enumerate((ALICE, BOB)):
        for target, box in interpretation[party]:
            # Admissibility is checked when the plans are enumerated.
            if box not in Query(side, target).boxes:
                raise ValueError(f"box {box} is not part of target {target}")

    plus, minus = behavior.PLUS, behavior.MINUS
    table: dict[tuple[str, str], dict[tuple[int, int], Fraction]] = {}
    for (s_a, (target_a, box_a)), (s_b, (target_b, box_b)) in product(
        zip(PR_REALIZATION_SETTINGS[0], interpretation[0]), zip(PR_REALIZATION_SETTINGS[1], interpretation[1])
    ):
        table[(s_a, s_b)] = _fresh_distribution(
            model,
            (PlanStep(ALICE, target_a), PlanStep(BOB, target_b)),
            lambda h: tuple(plus if dict(o)[b] else minus for (_, o), b in zip(h.steps, (box_a, box_b))),
        )
    return behavior.BehaviorTable(PR_REALIZATION_SETTINGS, ((plus, minus), (plus, minus)), table)


def sweep_pr_interpretations(model: Model) -> list[tuple[Interpretation, behavior.BehaviorTable]]:
    """All sixteen readings: each setting interpreted as either box of its query."""
    results = []
    for a1, a2, b1, b2 in product("AB", "BC", "AB", "CA"):
        interp: Interpretation = ((("AB", a1), ("BC", a2)), (("AB", b1), ("CA", b2)))
        results.append((interp, realize_pr_box(model, interp)))
    return results
