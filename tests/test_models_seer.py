from fractions import Fraction

import pytest

from orthobox.models import (
    InconsistentHistory,
    PlanStep,
    Query,
    SeerModel,
    Session,
    compile_plan,
    enumerate_histories,
    exact_distribution,
    make_model,
)
from orthobox.rng import SplitMix64

from plan_digest import linear_plan_digest
from reference_theorem import conditional_probs


def signatures(model, plan):
    return {sig: p for sig, p in exact_distribution(model, plan).items()}


class TestFlatBoxes:
    def test_both_open_same_pair_agree(self):
        model = SeerModel()
        plan = (PlanStep("alice", "AB"), PlanStep("bob", "AB"))
        dist = signatures(model, plan)
        assert dist == {
            (("alice", "AB", "full,empty"), ("bob", "AB", "full,empty")): Fraction(1, 2),
            (("alice", "AB", "empty,full"), ("bob", "AB", "empty,full")): Fraction(1, 2),
        }

    def test_shared_label_propagates_across_sides(self):
        # One side opens A and B, the other B and C: the shared B agrees,
        # and each side's pair holds exactly one gem.
        model = SeerModel()
        plan = (PlanStep("bob", "AB"), PlanStep("alice", "BC"))
        dist = signatures(model, plan)
        assert dist == {
            (("bob", "AB", "full,empty"), ("alice", "BC", "empty,full")): Fraction(1, 2),
            (("bob", "AB", "empty,full"), ("alice", "BC", "full,empty")): Fraction(1, 2),
        }

    def test_every_pair_query_has_exactly_one_gem(self):
        model = SeerModel()
        for target in ("AB", "BC", "CA"):
            for history in enumerate_histories(compile_plan(model, (PlanStep("alice", target),))):
                values = [v for _, v in history.steps[0][1]]
                assert sum(values) == 1

    def test_singles_compose_to_pair_table(self):
        model = SeerModel()
        pair = signatures(model, (PlanStep("alice", "AB"),))
        singles = exact_distribution(model, (PlanStep("alice", "A"), PlanStep("alice", "B")))
        translated = {}
        for sig, p in singles.items():
            key = ",".join(step[2] for step in sig)
            translated[key] = translated.get(key, Fraction(0)) + p
        assert translated == {
            "full,empty": Fraction(1, 2),
            "empty,full": Fraction(1, 2),
        }
        assert pair[(("alice", "AB", "full,empty"),)] == Fraction(1, 2)


class TestGrandfatherConsistency:
    FORBIDDEN_PLAN = (
        PlanStep("bob", "A"),
        PlanStep("alice", "B"),
        PlanStep("bob", "C"),
        PlanStep("alice", "C"),
    )

    def test_enumeration_flags_forbidden_branches(self):
        model = SeerModel()
        histories = enumerate_histories(compile_plan(model, self.FORBIDDEN_PLAN))
        forbidden = [h for h in histories if h.forbidden]
        allowed = [h for h in histories if not h.forbidden]
        assert sum(h.probability for h in histories) == 1
        assert sum(h.probability for h in forbidden) == Fraction(1, 2)
        # the clash: sides found A full/B empty (or the reverse), then both C
        for h in forbidden:
            first = dict(h.steps[0][1])["A"]
            second = dict(h.steps[1][1])["B"]
            assert first != second
        for h in allowed:
            assert dict(h.steps[2][1])["C"] == dict(h.steps[3][1])["C"]

    def test_session_raises(self):
        model = SeerModel()
        hit = 0
        for seed in range(40):
            session = Session(model, SplitMix64(seed))
            a = dict(session.measure(Query("bob", "A")))["A"]
            b = dict(session.measure(Query("alice", "B")))["B"]
            session.measure(Query("bob", "C"))
            if a != b:
                hit += 1
                with pytest.raises(InconsistentHistory):
                    session.measure(Query("alice", "C"))
            else:
                session.measure(Query("alice", "C"))
        assert hit > 0


class TestGeneralMarginals:
    MARGINALS = {"A": Fraction(1, 5), "B": Fraction(3, 10), "C": Fraction(1, 3)}

    def test_pair_table(self):
        model = SeerModel(self.MARGINALS)
        dist = signatures(model, (PlanStep("alice", "AB"),))
        assert dist[(("alice", "AB", "full,empty"),)] == Fraction(1, 5)
        assert dist[(("alice", "AB", "empty,full"),)] == Fraction(3, 10)
        assert dist[(("alice", "AB", "empty,empty"),)] == Fraction(1, 2)
        assert (("alice", "AB", "full,full"),) not in dist

    def test_pair_table_order_independent(self):
        model = SeerModel(self.MARGINALS)
        forward = exact_distribution(model, (PlanStep("alice", "A"), PlanStep("alice", "B")))
        backward = exact_distribution(model, (PlanStep("alice", "B"), PlanStep("alice", "A")))
        def joint(dist, first_box):
            out = {}
            for sig, p in dist.items():
                values = {s[1]: s[2] for s in sig}
                key = (values["A"], values["B"])
                out[key] = out.get(key, Fraction(0)) + p
            return out
        assert joint(forward, "A") == joint(backward, "B")

    def test_cross_side_conditional_matches_closed_form(self):
        # Bob reads the pair (A, B) after Alice committed B empty: his A
        # follows the orthogonal-pair conditional p_A / (1 - p_B).
        model = SeerModel(self.MARGINALS)
        plan = (PlanStep("alice", "B"), PlanStep("bob", "AB"))
        cond = conditional_probs(self.MARGINALS["A"], self.MARGINALS["B"])
        dist = signatures(model, plan)
        empty_b = {sig: p for sig, p in dist.items() if sig[0][2] == "empty"}
        total = sum(empty_b.values())
        a_full = sum(p for sig, p in empty_b.items() if sig[1][2].startswith("full"))
        assert total == 1 - self.MARGINALS["B"]
        assert a_full / total == cond.one_given_zero

    def test_marginals_validated(self):
        with pytest.raises(ValueError):
            SeerModel({"A": Fraction(1), "B": Fraction(1, 2), "C": Fraction(1, 2)})
        with pytest.raises(ValueError, match="sum past 1"):
            SeerModel({"A": Fraction(3, 4), "B": Fraction(3, 4), "C": Fraction(1, 10)})

    @pytest.mark.parametrize(
        "marginals",
        [
            {"A": Fraction(1, 3)},
            {"A": Fraction(1, 3), "B": Fraction(1, 3), "C": Fraction(1, 3), "D": Fraction(1, 3)},
        ],
    )
    def test_marginals_must_name_exactly_the_boxes(self, marginals):
        with pytest.raises(ValueError, match="need exactly the boxes A, B, C"):
            make_model("seer", marginals=marginals)


class TestThirdBox:
    def test_third_box_unconstrained_but_cross_consistent(self):
        # After a full pair, the third box on the same side is the father's
        # whim, but still agrees with the other side once opened there.
        model = SeerModel()
        plan = (PlanStep("alice", "AB"), PlanStep("alice", "C"), PlanStep("bob", "C"))
        for history in enumerate_histories(compile_plan(model, plan)):
            assert not history.forbidden
            assert dict(history.steps[1][1])["C"] == dict(history.steps[2][1])["C"]
        dist = signatures(model, plan)
        c_full = sum(p for sig, p in dist.items() if sig[1][2] == "full")
        assert c_full == Fraction(1, 2)


class TestOpeningOrder:
    @pytest.mark.xfail(
        strict=True,
        reason="_pair_partner pairs a side's first-opened box with a pair query's "
        "other box, not with the side's second box",
    )
    def test_order_of_the_first_two_boxes_forbids_nothing(self):
        # A and B are alice's constrained pair in either order, so opening CA
        # afterwards commits only the unconstrained C and is never forbidden.
        model = SeerModel()
        for first, second in (("A", "B"), ("B", "A")):
            plan = (PlanStep("alice", first), PlanStep("alice", second), PlanStep("alice", "CA"))
            histories = enumerate_histories(compile_plan(model, plan))
            assert sum(h.probability for h in histories if h.forbidden) == 0


class TestDifferentialDigest:
    """Pins the seer's exact and seeded behaviour on every linear plan of at
    most three queries, under three marginal sets, to a digest recorded
    before the model's box resolution was rewritten."""

    MARGINAL_SETS = (
        None,
        {"A": Fraction(1, 3), "B": Fraction(1, 4), "C": Fraction(2, 5)},
        {"A": Fraction(1, 2), "B": Fraction(1, 2), "C": Fraction(1, 3)},
    )
    DIGEST = "b10f289e46d296962c6c864ffeb9e1ce4a0f2b4349d37b2bface167b991927a5"

    def test_linear_plans_match_recorded_digest(self):
        models = [SeerModel(marginals) for marginals in self.MARGINAL_SETS]
        assert linear_plan_digest(models) == (self.DIGEST, 5652)
