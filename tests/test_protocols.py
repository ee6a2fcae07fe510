from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from orthobox import cli, protocols
from orthobox.behavior import MINUS, PLUS, BehaviorTable, chsh, is_pr_box, no_signalling_check
from orthobox.models import (
    ALICE,
    BOB,
    FLAVORS,
    PAIRS,
    InconsistentHistory,
    Model,
    PlanStep,
    compile_plan,
    enumerate_histories,
    make_model,
)
from orthobox.protocols import (
    AliceStrategy,
    DEFAULT_PAIR_INTERPRETATION,
    LSW_SINGLE_INTERPRETATION,
    PAIR_INTERPRETATIONS,
    PR_REALIZATION_SETTINGS,
    assumption_report,
    bob_marginal,
    detect_signalling,
    first_outcomes,
    realize_pr_boxes,
    simulate_fable,
)
from orthobox.protocols import _interleavings
from orthobox.protocols import test_assumption_a as assumption_a
from orthobox.protocols import test_assumption_b as assumption_b
from orthobox.protocols import test_assumption_c as assumption_c
from reference_signalling import enumerate_strategies
from test_properties import seer_marginals

FABLE_FORCE_FULL = AliceStrategy("C", (("full", "B"), ("empty", "A")))
FABLE_FORCE_EMPTY = AliceStrategy("C", (("full", "A"), ("empty", "B")))


class ForbiddenAfter(Model):
    """Stub model: each box a fair coin, and no consistent answer to any
    query after the first ``allowed`` of a session."""

    name = "stub"

    def __init__(self, allowed: int):
        self.allowed = allowed

    def initial_states(self):
        return [(0, Fraction(1))]

    def step(self, state, query):
        if state >= self.allowed:
            raise InconsistentHistory(f"no answer after {self.allowed} queries")
        coin = lambda st, side, box, q: [(True, state + 1, Fraction(1, 2)), (False, state + 1, Fraction(1, 2))]
        return self.box_by_box(state, query, coin)


class RareBobFault(Model):
    """Stub model: each box a fair coin, but from the prior state "rare", of
    mass 2**-40, no query of Bob's has a consistent answer."""

    name = "stub"

    def initial_states(self):
        return [("common", 1 - Fraction(1, 2**40)), ("rare", Fraction(1, 2**40))]

    def step(self, state, query):
        if state == "rare" and query.side == BOB:
            raise InconsistentHistory("no answer from the rare state")
        coin = lambda st, side, box, q: [(True, st, Fraction(1, 2)), (False, st, Fraction(1, 2))]
        return self.box_by_box(state, query, coin)


class AlwaysFull(Model):
    """Stub model: every box reads full, whoever opens it and whenever."""

    name = "stub"

    def initial_states(self):
        return [(0, Fraction(1))]

    def step(self, state, query):
        return [(tuple((box, True) for box in query.boxes), state, Fraction(1))]


class FirstQueryCoins(Model):
    """Stub model: the boxes of a session's first query are fair coins and
    every box opened later reads empty, so the order of opening matters."""

    name = "stub"

    def initial_states(self):
        return [(0, Fraction(1))]

    def step(self, state, query):
        if state:
            return [(tuple((box, False) for box in query.boxes), 1, Fraction(1))]
        n = len(query.boxes)
        return [
            (tuple(zip(query.boxes, values)), 1, Fraction(1, 2**n))
            for values in product((True, False), repeat=n)
        ]


class TestBobMarginal:
    def test_baseline_is_flat(self):
        model = make_model("seer")
        result = bob_marginal(model, None, "A")
        assert result.distribution == {"full": Fraction(1, 2), "empty": Fraction(1, 2)}
        assert result.forbidden_mass == 0

    def test_fable_strategy_forces_daniels_box(self):
        model = make_model("seer")
        forced_full = bob_marginal(model, FABLE_FORCE_FULL, "AB")
        assert forced_full.distribution == {"full,empty": Fraction(1)}
        assert forced_full.forbidden_mass == 0
        forced_empty = bob_marginal(model, FABLE_FORCE_EMPTY, "AB")
        assert forced_empty.distribution == {"empty,full": Fraction(1)}

    def test_lsw_unmoved_by_any_strategy(self):
        model = make_model("lsw")
        baseline = bob_marginal(model, None, "BC")
        for strategy in (FABLE_FORCE_FULL, AliceStrategy("AB"), AliceStrategy("B", (("full", "CA"),))):
            shifted = bob_marginal(model, strategy, "BC")
            assert shifted.distribution == baseline.distribution

    def test_forbidden_mass_reported(self):
        # Alice opens her pair and then the leftover box, committing all
        # three; Bob's pair can then be forced two ways at once.
        model = make_model("seer")
        strategy = AliceStrategy("AB", (("full,empty", "C"), ("empty,full", "C")))
        result = bob_marginal(model, strategy, "CA")
        assert result.forbidden_mass == Fraction(1, 2)
        assert sum(result.distribution.values()) + result.forbidden_mass == 1


class TestDetectSignalling:
    def test_seer_signals_with_gap_half(self):
        report = detect_signalling(make_model("seer"))
        assert report.signalling
        assert report.gap == Fraction(1, 2)

    def test_firefly_mirror_does_not_signal(self):
        report = detect_signalling(make_model("firefly"))
        assert not report.signalling
        assert report.gap == 0

    def test_lsw_does_not_signal(self):
        report = detect_signalling(make_model("lsw"))
        assert not report.signalling

    def test_witness_reproducible_by_enumeration(self):
        model = make_model("seer")
        report = detect_signalling(model)
        replay = bob_marginal(model, report.strategy, report.bob_target)
        assert replay.distribution.get(report.outcome, Fraction(0)) == report.shifted
        baseline = bob_marginal(model, None, report.bob_target)
        assert baseline.distribution.get(report.outcome, Fraction(0)) == report.baseline

    def test_strategy_space_is_depth_two(self):
        model = make_model("firefly")
        strategies = enumerate_strategies(model)
        # 3 first choices, 2 outcomes each, follow-up in {none} + 3 sides
        assert len(strategies) == 3 * 4 * 4
        assert first_outcomes(model, "alice", "AB") == ("A", "B")

    def test_strategy_builds_its_plan_once(self):
        strategy = AliceStrategy("C", (("full", "B"), ("empty", None)))
        assert strategy.plan is strategy.plan
        (step,) = strategy.plan
        assert (step.side, step.target) == ("alice", "C")
        assert [(key, [(s.side, s.target) for s in sub]) for key, sub in step.branches] == [
            ("full", [("alice", "B")])
        ]
        assert strategy == AliceStrategy("C", (("full", "B"), ("empty", None)))


class TestAssumptionMatrix:
    def test_canonical_matrix(self):
        expectations = {
            "seer": (True, True, False),
            "firefly": (True, False, True),
            "lsw": (False, True, True),
        }
        for name, expected in expectations.items():
            report = assumption_report(make_model(name))
            assert tuple(v.holds for v in report) == expected, name

    def test_exactly_one_failure_per_canonical_model(self):
        for name in ("seer", "firefly", "lsw"):
            report = assumption_report(make_model(name))
            assert sum(1 for v in report if not v.holds) == 1

    def test_c_matches_signalling_detector(self):
        for name in ("seer", "firefly", "lsw"):
            model = make_model(name)
            assert assumption_c(model).holds == (not detect_signalling(model).signalling)

    def test_cut_variants(self):
        local = assumption_report(make_model("firefly", flavor="alice_cuts_bob_local"))
        assert local.c.holds
        steer = assumption_report(make_model("firefly", flavor="alice_cuts_bob_mirror"))
        assert steer.a.holds
        assert not steer.c.holds

    @pytest.mark.parametrize("name", ["seer", "firefly", "lsw"])
    def test_a_enumerates_each_plan_once(self, monkeypatch, name):
        calls = []

        def counted(model, plan):
            calls.append(tuple(plan))
            return compile_plan(model, plan)

        monkeypatch.setattr(protocols, "compile_plan", counted)
        verdict = assumption_a(make_model(name))
        assert len(calls) == len(set(calls))
        if name == "seer":
            # 468 scans over 354 distinct plans: AB-against-AB plans and the like hold two boxes.
            assert verdict.holds and len(calls) == 354

    def test_lsw_witness_is_enumerable(self):
        verdict = assumption_a(make_model("lsw"))
        assert not verdict.holds
        histories = enumerate_histories(compile_plan(make_model("lsw"), verdict.witness.plan))
        assert sum(h.probability for h in histories) == 1

    def test_firefly_b_witness_names_missing_single(self):
        verdict = assumption_b(make_model("firefly"))
        assert not verdict.holds
        assert "single-target" in verdict.witness.claim

    def test_seer_c_witness_has_depth_two_plan(self):
        verdict = assumption_c(make_model("seer"))
        assert not verdict.holds
        assert verdict.witness.plan


class TestWitnessTexts:
    """The witnesses no bundled model reaches, pinned on stub models."""

    def test_trivial_marginal(self):
        verdict = assumption_a(AlwaysFull())
        assert not verdict.holds
        assert verdict.witness.claim == "trivial marginal: p(A) = 1 in context A on alice"
        assert [(s.side, s.target) for s in verdict.witness.plan] == [("alice", "A")]
        assert verdict.witness.detail == ""
        assert verdict.witness.describe() == "trivial marginal: p(A) = 1 in context A on alice under plan [alice A]"

    def test_order_dependence(self):
        verdict = assumption_b(FirstQueryCoins())
        assert not verdict.holds
        assert verdict.witness.claim == "measuring A and B on alice depends on how they are combined"
        assert [(s.side, s.target) for s in verdict.witness.plan] == [("alice", "A"), ("alice", "B")]
        assert verdict.witness.detail == (
            "A then B: {(True, False): Fraction(1, 2), (False, False): Fraction(1, 2)}; "
            "B then A: {(False, True): Fraction(1, 2), (False, False): Fraction(1, 2)}; "
            "AB: {(True, True): Fraction(1, 4), (True, False): Fraction(1, 4), "
            "(False, True): Fraction(1, 4), (False, False): Fraction(1, 4)}"
        )

    def test_interleaving_order(self):
        assert list(_interleavings(("a1", "a2"), ("b1",))) == [
            ("a1", "a2", "b1"),
            ("a1", "b1", "a2"),
            ("b1", "a1", "a2"),
        ]
        assert list(_interleavings(("a1", "a2"), ("b1", "b2"))) == [
            ("a1", "a2", "b1", "b2"),
            ("a1", "b1", "a2", "b2"),
            ("a1", "b1", "b2", "a2"),
            ("b1", "a1", "a2", "b2"),
            ("b1", "a1", "b2", "a2"),
            ("b1", "b2", "a1", "a2"),
        ]


class TestFable:
    def test_daniel_always_succeeds(self):
        for seed in (0, 1, 17):
            stats = simulate_fable(400, seed=seed)
            assert stats.daniel_success == 1
            assert stats.sandu_second_success == 1

    def test_sandu_first_guess_is_fair(self):
        stats = simulate_fable(20000, seed=5)
        assert Fraction(49, 100) < stats.sandu_first_success < Fraction(51, 100)

    def test_single_trial(self):
        stats = simulate_fable(1, seed=0)
        assert stats.daniel_success == 1

    def test_rows_collected_on_request(self):
        stats = simulate_fable(10, seed=3, keep_rows=True)
        assert len(stats.rows) == 10
        assert all(len(row) == 4 for row in stats.rows)
        assert simulate_fable(10, seed=3).rows == ()

    def test_reproducible(self):
        a = simulate_fable(500, seed=11)
        b = simulate_fable(500, seed=11)
        assert a == b

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            simulate_fable(0)

    @pytest.mark.parametrize("trials", [1, 7500])
    def test_each_leaf_scored_once(self, monkeypatch, trials):
        model = make_model("seer")
        leaves = [
            (history, full)
            for pair in PAIRS
            for full in pair
            for history in compile_plan(model, protocols._fable_plan(pair, full)).histories
        ]
        scored = []
        score = protocols._fable_scores

        def counting(history, full):
            scored.append((history, full))
            return score(history, full)

        monkeypatch.setattr(protocols, "_fable_scores", counting)
        simulate_fable(trials, seed=3)
        assert scored == leaves

    def test_rare_forbidden_leaf_raises_for_every_seed(self, monkeypatch):
        # Its prior state has mass 2**-40, so no trial draws it.
        monkeypatch.setattr(protocols, "make_model", lambda *args, **kwargs: RareBobFault())
        for seed in range(10):
            with pytest.raises(InconsistentHistory, match="^the fable's bob AB has no consistent answer$"):
                simulate_fable(200, seed)


def realize_one(model, interpretation):
    """One reading's table the way it was built before all readings shared
    their plans: each setting pair's plan enumerated afresh and its histories
    tabulated in order."""
    table = {}
    for (s_a, (target_a, box_a)), (s_b, (target_b, box_b)) in product(
        zip(PR_REALIZATION_SETTINGS[0], interpretation[0]), zip(PR_REALIZATION_SETTINGS[1], interpretation[1])
    ):
        entry = table[s_a, s_b] = {}
        for history in enumerate_histories(compile_plan(model, (PlanStep(ALICE, target_a), PlanStep(BOB, target_b)))):
            assert not history.forbidden
            (_, outcome_a), (_, outcome_b) = history.steps
            signs = (PLUS if dict(outcome_a)[box_a] else MINUS, PLUS if dict(outcome_b)[box_b] else MINUS)
            entry[signs] = entry.get(signs, Fraction(0)) + history.probability
    return BehaviorTable(PR_REALIZATION_SETTINGS, ((PLUS, MINUS), (PLUS, MINUS)), table)


def assert_same_as_per_reading(model, interpretations):
    boxes = realize_pr_boxes(model, interpretations)
    assert len(boxes) == len(interpretations)
    for interpretation, box in zip(interpretations, boxes):
        expected = realize_one(model, interpretation)
        assert box == expected, interpretation
        # Entry order too, so nothing printed from a table can differ.
        assert [list(d.items()) for d in box.table.values()] == [list(d.items()) for d in expected.table.values()]


def counting_compiles(monkeypatch) -> list:
    """The plans ``protocols`` compiles from now on, in order."""
    compiled = []
    compile_ = protocols.compile_plan

    def counting(model, plan):
        compiled.append(tuple(plan))
        return compile_(model, plan)

    monkeypatch.setattr(protocols, "compile_plan", counting)
    return compiled


class TestRealizePrBox:
    def test_seer_default_interpretation(self):
        [box] = realize_pr_boxes(make_model("seer"), [DEFAULT_PAIR_INTERPRETATION])
        assert chsh(box).value == 4
        assert no_signalling_check(box).ok
        assert is_pr_box(box)

    def test_firefly_same_construction(self):
        [box] = realize_pr_boxes(make_model("firefly"), [DEFAULT_PAIR_INTERPRETATION])
        assert chsh(box).value == 4
        assert is_pr_box(box)

    def test_lsw_single_query_realization(self):
        [box] = realize_pr_boxes(make_model("lsw"), [LSW_SINGLE_INTERPRETATION])
        assert chsh(box).value == 4
        assert is_pr_box(box)
        assert box.correlator(("b", "a")) == 1  # both read box A

    def test_sweep_yields_each_box_twice(self):
        assert len(PAIR_INTERPRETATIONS) == len(set(PAIR_INTERPRETATIONS)) == 16
        assert DEFAULT_PAIR_INTERPRETATION in PAIR_INTERPRETATIONS
        for name in ("seer", "firefly"):
            sweep = realize_pr_boxes(make_model(name), PAIR_INTERPRETATIONS)
            assert len(sweep) == 16
            counts = Counter(sweep)
            assert len(counts) == 8
            assert sorted(counts.values()) == [2] * 8
            assert all(is_pr_box(box) for box in sweep)
            assert all(no_signalling_check(box).ok for box in sweep)

    def test_interpretation_box_must_belong_to_target(self, monkeypatch):
        compiled = counting_compiles(monkeypatch)
        bad = ((("AB", "C"), ("BC", "B")), DEFAULT_PAIR_INTERPRETATION[1])
        with pytest.raises(ValueError, match="^box C is not part of target AB$"):
            realize_pr_boxes(make_model("seer"), [DEFAULT_PAIR_INTERPRETATION, bad])
        assert compiled == []  # every reading is checked before the first plan runs

    def test_inadmissible_target_rejected(self):
        from orthobox.models import InadmissibleQuery

        with pytest.raises(InadmissibleQuery):
            realize_pr_boxes(
                make_model("firefly"),
                [((("A", "A"), ("BC", "B")), DEFAULT_PAIR_INTERPRETATION[1])],
            )

    @pytest.mark.parametrize("name", ["seer", "firefly", "lsw"])
    def test_cli_compiles_each_plan_once(self, name, monkeypatch, capsys):
        compiled = counting_compiles(monkeypatch)
        assert cli.main(["pr-boxes", "--model", name]) == 0
        assert len(compiled) == len(set(compiled)) == 4


class TestRealizationMatchesPerReading:
    """Each table read from the shared joint distributions equals the one a
    per-reading enumeration builds, entry order included."""

    def test_seer(self):
        assert_same_as_per_reading(make_model("seer"), PAIR_INTERPRETATIONS)

    @settings(max_examples=6, deadline=None)
    @given(marginals=seer_marginals())
    def test_seer_at_random_marginals(self, marginals):
        assert_same_as_per_reading(make_model("seer", marginals=marginals), PAIR_INTERPRETATIONS)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_firefly(self, flavor):
        assert_same_as_per_reading(make_model("firefly", flavor=flavor), PAIR_INTERPRETATIONS)

    def test_lsw(self):
        assert_same_as_per_reading(make_model("lsw"), [LSW_SINGLE_INTERPRETATION])


class TestForbiddenProtocolsAreTypedErrors:
    def test_single_side_plan(self):
        with pytest.raises(InconsistentHistory, match=r"plan \[alice A; alice B\] cannot be forbidden"):
            assumption_b(ForbiddenAfter(1))

    def test_fresh_query_in_a(self):
        with pytest.raises(InconsistentHistory, match=r"plan \[alice A\] cannot be forbidden"):
            assumption_a(ForbiddenAfter(0))

    def test_baseline_query(self):
        with pytest.raises(InconsistentHistory, match="baseline"):
            detect_signalling(ForbiddenAfter(0))

    def test_realization(self):
        with pytest.raises(InconsistentHistory, match=r"^plan \[alice AB; bob AB\] cannot be forbidden$"):
            realize_pr_boxes(ForbiddenAfter(1), PAIR_INTERPRETATIONS)
        with pytest.raises(InconsistentHistory, match=r"^plan \[alice A; bob A\] cannot be forbidden$"):
            realize_pr_boxes(ForbiddenAfter(1), [LSW_SINGLE_INTERPRETATION])

    def test_cli_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.models, "make_model", lambda *args, **kwargs: ForbiddenAfter(1))
        for name, plan in (("seer", "alice AB; bob AB"), ("lsw", "alice A; bob A")):
            assert cli.main(["pr-boxes", "--model", name]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"inconsistent history: plan [{plan}] cannot be forbidden\n"

    def test_cli_fable_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(protocols, "make_model", lambda *args, **kwargs: ForbiddenAfter(1))
        assert cli.main(["fable", "--trials", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("inconsistent history: the fable's alice ")

    @pytest.mark.parametrize(
        "stub, query",
        [(RareBobFault, "bob AB"), (lambda: ForbiddenAfter(0), "alice C")],
        ids=["rare-bob", "first-query"],
    )
    def test_cli_fable_reports_any_forbidden_leaf(self, monkeypatch, capsys, stub, query):
        monkeypatch.setattr(protocols, "make_model", lambda *args, **kwargs: stub())
        assert cli.main(["fable", "--trials", "200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"inconsistent history: the fable's {query} has no consistent answer\n"

    def test_cli_assumptions_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.models, "make_model", lambda *args, **kwargs: ForbiddenAfter(0))
        assert cli.main(["assumptions", "seer"]) == 1
        assert "cannot be forbidden" in capsys.readouterr().err


class TestGapConsistencyWithTheorem:
    """The adaptive protocol run on the gem boxes, compared with the
    worst-case algebra: the boxes realize outcome-independent conditionals,
    so the shift they produce can only exceed the adversarial lower bound,
    and at exhaustive pairs (flat 1/2) the two coincide.
    """

    def seer_gap(self, marginals):
        model = make_model("seer", marginals=marginals)
        # measure the leftover box C, then A on "full" and B on "empty";
        # Daniel reads A out of his AB pair
        strategy = AliceStrategy("C", (("full", "A"), ("empty", "B")))
        base = bob_marginal(model, None, "AB").distribution
        shifted = bob_marginal(model, strategy, "AB").distribution
        def p_a_full(dist):
            return sum(p for key, p in dist.items() if key.startswith("full"))
        return p_a_full(base) - p_a_full(shifted)

    def test_dominates_worst_case_bound(self):
        from orthobox.theorem import TripleMarginals, signalling_gap

        cases = [
            {"A": Fraction(1, 3), "B": Fraction(1, 3), "C": Fraction(1, 3)},
            {"A": Fraction(1, 5), "B": Fraction(3, 10), "C": Fraction(1, 4)},
            {"A": Fraction(1, 4), "B": Fraction(1, 4), "C": Fraction(1, 2)},
        ]
        for marginals in cases:
            realized = self.seer_gap(marginals)
            bound = signalling_gap(
                TripleMarginals(marginals["A"], marginals["B"], marginals["C"])
            )
            # closed form of the realized shift: p1 p3 / (1 - p2)
            assert realized == marginals["A"] * marginals["C"] / (1 - marginals["B"])
            assert realized >= bound > 0

    def test_coincides_at_flat_half(self):
        from orthobox.theorem import TripleMarginals, signalling_gap

        realized = self.seer_gap({b: Fraction(1, 2) for b in "ABC"})
        bound = signalling_gap(TripleMarginals(*( [Fraction(1, 2)] * 3 )))
        assert realized == bound == Fraction(1, 2)
