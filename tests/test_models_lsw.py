from fractions import Fraction

from orthobox.models import LswModel, PlanStep, compile_plan, enumerate_histories, exact_distribution

from plan_digest import linear_plan_digest


def outcome_words(model, plan):
    dist = {}
    for sig, p in exact_distribution(model, plan).items():
        key = tuple(step[2] for step in sig)
        dist[key] = dist.get(key, Fraction(0)) + p
    return dist


class TestCollapseSequence:
    def test_worked_four_step_sequence(self):
        # One box on each side, then both read the third: the two sides'
        # readings of the third box come out opposite.
        model = LswModel()
        plan = (
            PlanStep("alice", "A"),
            PlanStep("bob", "B"),
            PlanStep("alice", "C"),
            PlanStep("bob", "C"),
        )
        dist = outcome_words(model, plan)
        assert dist == {
            ("empty", "full", "full", "empty"): Fraction(1, 2),
            ("full", "empty", "empty", "full"): Fraction(1, 2),
        }

    def test_same_box_perfectly_correlated(self):
        model = LswModel()
        for box in "ABC":
            dist = outcome_words(model, (PlanStep("alice", box), PlanStep("bob", box)))
            assert dist == {
                ("full", "full"): Fraction(1, 2),
                ("empty", "empty"): Fraction(1, 2),
            }

    def test_different_boxes_opposite(self):
        model = LswModel()
        for first, second in (("A", "B"), ("B", "C"), ("C", "A")):
            dist = outcome_words(model, (PlanStep("alice", first), PlanStep("bob", second)))
            assert dist == {
                ("full", "empty"): Fraction(1, 2),
                ("empty", "full"): Fraction(1, 2),
            }


class TestSingleSide:
    def test_two_in_a_row_hold_one_gem(self):
        model = LswModel()
        for first, second in (("A", "B"), ("B", "A"), ("B", "C"), ("C", "B")):
            dist = outcome_words(model, (PlanStep("alice", first), PlanStep("alice", second)))
            assert dist == {
                ("full", "empty"): Fraction(1, 2),
                ("empty", "full"): Fraction(1, 2),
            }

    def test_flat_marginals_per_context(self):
        model = LswModel()
        for target in ("A", "B", "C", "AB", "BC", "CA"):
            for history in enumerate_histories(compile_plan(model, (PlanStep("alice", target),))):
                assert history.probability == Fraction(1, 2)

    def test_rereading_is_stable(self):
        model = LswModel()
        dist = outcome_words(model, (PlanStep("alice", "A"), PlanStep("alice", "A")))
        assert dist == {
            ("full", "full"): Fraction(1, 2),
            ("empty", "empty"): Fraction(1, 2),
        }

    def test_order_of_fresh_composition_is_irrelevant(self):
        model = LswModel()
        fwd = outcome_words(model, (PlanStep("alice", "A"), PlanStep("alice", "B")))
        rev = outcome_words(model, (PlanStep("alice", "B"), PlanStep("alice", "A")))
        pair = outcome_words(model, (PlanStep("alice", "AB"),))
        as_joint_fwd = {(a, b): p for (a, b), p in fwd.items()}
        as_joint_rev = {(a, b): p for (b, a), p in rev.items()}
        as_joint_pair = {tuple(k[0].split(",")): p for k, p in pair.items()}
        assert as_joint_fwd == as_joint_rev == as_joint_pair


class TestLocality:
    def test_other_side_untouched_by_local_recollapse(self):
        # Bob's re-reading of his own box never shifts with Alice's later
        # local measurements.
        model = LswModel()
        baseline = outcome_words(model, (PlanStep("bob", "B"),))
        plan = (PlanStep("bob", "B"), PlanStep("alice", "A"), PlanStep("alice", "C"),
                PlanStep("bob", "B"))
        dist = outcome_words(model, plan)
        first = {}
        last = {}
        for key, p in dist.items():
            first[(key[0],)] = first.get((key[0],), Fraction(0)) + p
            last[(key[-1],)] = last.get((key[-1],), Fraction(0)) + p
        assert first == baseline
        assert first == last


class TestDifferentialDigest:
    """Pins the model's exact and seeded behaviour on every linear plan of at
    most three queries to a digest recorded before plans were compiled into
    sampling trees."""

    DIGEST = "e6438c9627644ef573daa3e20829f8c8f923375c616781189ac3b0b8d968b224"

    def test_linear_plans_match_recorded_digest(self):
        assert linear_plan_digest([LswModel()]) == (self.DIGEST, 1884)
