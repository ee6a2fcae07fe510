from fractions import Fraction
from itertools import product

import pytest

from orthobox.models import (
    FLAVORS,
    FireflyModel,
    InadmissibleQuery,
    PlanStep,
    Query,
    compile_plan,
    enumerate_histories,
    exact_distribution,
)
from orthobox.models.firefly import (
    FireflyState,
    HALVES,
    nearest_corner,
    other_side,
)

from plan_digest import linear_plan_digest

SIDES = ("AB", "BC", "CA")

# The paper's geometry, kept here as the oracle for the glow rule: side
# length 1, perimeter coordinates A=0, B=1, C=2, and the corner of the
# approached side nearest the firefly's half-side midpoint glows.
CORNER_COORD = {"A": Fraction(0), "B": Fraction(1), "C": Fraction(2)}
PERIMETER = Fraction(3)


def half_midpoint(half):
    side, corner = half
    start = CORNER_COORD[side[0]]
    # the half adjacent to the side's first corner spans [start, start+1/2]
    return start + (Fraction(1, 4) if corner == side[0] else Fraction(3, 4))


def perimeter_distance(x, y):
    d = abs(x - y) % PERIMETER
    return min(d, PERIMETER - d)


def corner_distances(half, side):
    mid = half_midpoint(half)
    return {c: perimeter_distance(mid, CORNER_COORD[c]) for c in side}


def glow_distribution(model, plan):
    """Distribution over tuples of glowing corners along the plan."""
    dist = {}
    for sig, p in exact_distribution(model, plan).items():
        key = tuple(step[2] for step in sig)
        dist[key] = dist.get(key, Fraction(0)) + p
    return dist


class TestGeometry:
    def test_midpoints_quarter_spaced(self):
        mids = sorted(half_midpoint(h) for h in HALVES)
        assert mids == [Fraction(1, 4), Fraction(3, 4), Fraction(5, 4),
                        Fraction(7, 4), Fraction(9, 4), Fraction(11, 4)]

    def test_no_distance_ties(self):
        for half in HALVES:
            for side in SIDES:
                d1, d2 = corner_distances(half, side).values()
                assert d1 != d2, (half, side)

    @pytest.mark.parametrize("half", HALVES)
    @pytest.mark.parametrize("side", SIDES)
    def test_rule_lights_the_nearest_corner(self, half, side):
        distances = corner_distances(half, side)
        assert nearest_corner(half, side) == min(distances, key=distances.get)

    def test_c_half_of_ca_lights_a_on_ab(self):
        assert nearest_corner(("CA", "C"), "AB") == "A"

    def test_other_side(self):
        assert other_side("C", "CA") == "BC"
        assert other_side("A", "AB") == "CA"


class TestSingleBox:
    def test_uniform_glow_per_context(self):
        model = FireflyModel()
        for side in SIDES:
            dist = glow_distribution(model, (PlanStep("alice", side),))
            assert dist == {(side[0],): Fraction(1, 2), (side[1],): Fraction(1, 2)}

    def test_single_corner_queries_inadmissible(self):
        model = FireflyModel()
        with pytest.raises(InadmissibleQuery, match="approach a side"):
            model.check_admissible(Query("alice", "C"))

    def test_dark_corner_after_adjacent_approach(self):
        # Once a side has been approached the firefly sits on it, so the
        # opposite corner stays dark in the next approach, whatever it is.
        model = FireflyModel()
        for prefix in [()] + [(p,) for p in SIDES] + list(product(SIDES, repeat=2)):
            steps = tuple(PlanStep("alice", t) for t in prefix)
            for follow_up in ("AB", "BC"):
                plan = steps + (PlanStep("alice", "CA"), PlanStep("alice", follow_up))
                for sig, p in exact_distribution(model, plan).items():
                    assert sig[-1][2] != "B"
                    assert p > 0

    def test_exactly_one_corner_glows(self):
        model = FireflyModel()
        for history in enumerate_histories(compile_plan(model, (PlanStep("alice", "AB"),))):
            lit = [box for box, v in history.steps[0][1] if v]
            assert len(lit) == 1


class TestEntangledMirror:
    def test_partner_lands_on_other_adjacent_side(self):
        model = FireflyModel("mirror")
        state = FireflyState(("CA", "C"), ("CA", "C"))
        outcome, new_state, _ = model.step(state, Query("alice", "CA"))[0]
        assert dict(outcome)["C"] is True
        assert new_state.alice == ("CA", "C")
        assert new_state.bob == ("BC", "C")

    def test_ca_then_bc_share_the_c_outcome(self):
        model = FireflyModel("mirror")
        dist = glow_distribution(model, (PlanStep("alice", "CA"), PlanStep("bob", "BC")))
        assert dist == {("C", "C"): Fraction(1, 2), ("A", "B"): Fraction(1, 2)}

    def test_matching_approaches_agree_everywhere(self):
        model = FireflyModel("mirror")
        for side in SIDES:
            for order in (("alice", "bob"), ("bob", "alice")):
                plan = tuple(PlanStep(who, side) for who in order)
                for key, p in glow_distribution(model, plan).items():
                    assert key[0] == key[1]

    def test_hidden_branches_sum_to_one(self):
        model = FireflyModel("mirror")
        histories = enumerate_histories(compile_plan(model, (PlanStep("alice", "CA"), PlanStep("bob", "BC"))))
        assert len(histories) == 6
        assert sum(h.probability for h in histories) == 1


class TestFlavors:
    def test_unknown_flavor_rejected(self):
        with pytest.raises(ValueError, match="unknown firefly flavor"):
            FireflyModel("telepathic")

    def test_local_flavor_drifts_apart(self):
        # After the initial synchronization each side evolves alone, so a
        # second round of measurements can disagree on a shared corner, the
        # same way separately collapsing state vectors do.
        model = FireflyModel("alice_cuts_bob_local")
        plan = (
            PlanStep("alice", "AB"),
            PlanStep("bob", "BC"),
            PlanStep("alice", "CA"),
            PlanStep("bob", "CA"),
        )
        disagree = Fraction(0)
        for history in enumerate_histories(compile_plan(model, plan)):
            alice_c = dict(history.steps[2][1])["C"]
            bob_c = dict(history.steps[3][1])["C"]
            if alice_c != bob_c:
                disagree += history.probability
        assert disagree > 0

    def test_mirror_flavors_stay_correlated_on_second_round(self):
        for flavor in ("mirror", "alice_cuts_bob_mirror"):
            model = FireflyModel(flavor)
            plan = (
                PlanStep("alice", "CA"),
                PlanStep("bob", "CA"),
            )
            for key, _ in glow_distribution(model, plan).items():
                assert key[0] == key[1], flavor

    def test_cut_mirror_keeps_fireflies_together(self):
        model = FireflyModel("alice_cuts_bob_mirror")
        for (state, _) in model.initial_states():
            for target in SIDES:
                _, new_state, _ = model.step(state, Query("alice", target))[0]
                assert new_state.alice == new_state.bob

    def test_cut_mirror_adaptive_follow_up_steers_partner(self):
        # The steering channel: the partner keeps following, so by choosing
        # her second approach from her first outcome Alice pins Bob's firefly.
        model = FireflyModel("alice_cuts_bob_mirror")
        adaptive = (
            PlanStep("alice", "AB", (("B", (PlanStep("alice", "BC"),)),)),
            PlanStep("bob", "CA"),
        )
        plain = (PlanStep("alice", "AB"), PlanStep("bob", "CA"))
        def bob_marginal(plan):
            out = {}
            for key, p in glow_distribution(model, plan).items():
                out[key[-1]] = out.get(key[-1], Fraction(0)) + p
            return out
        assert bob_marginal(plain) == {"A": Fraction(1, 2), "C": Fraction(1, 2)}
        assert bob_marginal(adaptive) == {"A": Fraction(1)}

    def test_local_flavor_second_measurement_cannot_steer(self):
        model = FireflyModel("alice_cuts_bob_local")
        baseline = glow_distribution(model, (PlanStep("bob", "CA"),))
        for first in SIDES:
            for second in SIDES:
                plan = (PlanStep("alice", first), PlanStep("alice", second), PlanStep("bob", "CA"))
                bob = {}
                for key, p in glow_distribution(model, plan).items():
                    bob[(key[-1],)] = bob.get((key[-1],), Fraction(0)) + p
                assert bob == baseline


class TestDifferentialDigest:
    """Pins every flavor's exact and seeded behaviour on every linear plan of
    at most three side approaches to a digest recorded before plans were
    compiled into sampling trees."""

    DIGEST = "faa3a8b06af76a7d0924c322c88e96ea6031dd25f26d0d8f01425863ac262486"

    def test_linear_plans_match_recorded_digest(self):
        models = [FireflyModel(flavor) for flavor in FLAVORS]
        assert linear_plan_digest(models) == (self.DIGEST, 774)
