from fractions import Fraction

import pytest

from orthobox.models import (
    InadmissibleQuery,
    PlanStep,
    Query,
    Session,
    compile_plan,
    enumerate_histories,
    exact_distribution,
    history_signature,
    make_model,
    parse_plan,
    sample_history,
)
from orthobox.rng import SplitMix64


class TestQuery:
    def test_pair_targets_normalized(self):
        assert Query("alice", "BA").target == "AB"
        assert Query("bob", "AC").target == "CA"
        for spelling, canonical in [("A", "A"), ("B", "B"), ("C", "C"), ("AB", "AB"),
                                    ("BC", "BC"), ("CB", "BC"), ("CA", "CA")]:
            assert Query("bob", spelling).target == canonical

    def test_unknown_target_rejected(self):
        for target in ("AD", "AA", "ABC", "", "a"):
            with pytest.raises(InadmissibleQuery):
                Query("alice", target)
        with pytest.raises(InadmissibleQuery):
            Query("carol", "AB")

    def test_rejection_names_side_or_target(self):
        with pytest.raises(InadmissibleQuery, match=r"^unknown side 'carol'$"):
            Query("carol", "AB")
        with pytest.raises(InadmissibleQuery, match=r"^unknown target 'AD'$"):
            Query("alice", "AD")

    def test_reversed_pair_is_the_same_query(self):
        assert Query("alice", "BA") == Query("alice", "AB")
        assert hash(Query("alice", "BA")) == hash(Query("alice", "AB"))


class TestPlanParser:
    def test_blocks_and_inline_branches(self):
        plan = parse_plan(
            """
            # a comment line
alice C
  on full: alice B
  on empty:
    alice A
bob AB
"""
        )
        assert len(plan) == 2
        first = plan[0]
        assert (first.side, first.target) == ("alice", "C")
        assert first.substeps("full") == (PlanStep("alice", "B"),)
        assert first.substeps("empty") == (PlanStep("alice", "A"),)
        assert first.substeps("unseen") == ()

    def test_error_carries_line_number(self):
        with pytest.raises(ValueError, match="plan.txt:2"):
            parse_plan("alice C\nnot a step at all", source="plan.txt")

    def test_branch_without_step_rejected(self):
        with pytest.raises(ValueError, match="branch line"):
            parse_plan("on full: alice B")
        with pytest.raises(ValueError, match="indentation"):
            parse_plan("  on full: alice B")

    def test_bad_indent_rejected(self):
        with pytest.raises(ValueError, match="indentation"):
            parse_plan("alice C\n   bob AB")

    def test_unknown_target_rejected_with_location(self):
        with pytest.raises(ValueError, match=":1"):
            parse_plan("alice Q")
        with pytest.raises(ValueError, match=":3"):
            parse_plan("alice C\n  on full: alice B\n  on empty: carol A")

    def test_step_holds_its_validated_query(self):
        step = PlanStep("alice", "BA")
        assert step.query == Query("alice", "AB")
        assert step == PlanStep("alice", "BA")
        with pytest.raises(InadmissibleQuery):
            PlanStep("carol", "A")

    def test_duplicate_branch_key_rejected(self):
        with pytest.raises(InadmissibleQuery, match="duplicate"):
            PlanStep("alice", "C", (("full", ()), ("full", ())))
        with pytest.raises(ValueError, match="plan:2: duplicate"):
            parse_plan("bob A\nalice C\n  on full: bob A\n  on full: bob B", source="plan")

    def test_duplicate_branch_key_message(self):
        with pytest.raises(InadmissibleQuery, match=r"^duplicate branch key under bob CB$"):
            PlanStep("bob", "CB", (("full,empty", ()), ("empty,empty", ()), ("full,empty", ())))


class TestEnumeration:
    def test_probabilities_sum_to_one_across_plans(self):
        cases = [
            ("seer", "alice AB\nbob BC"),
            ("seer", "alice C\n  on full: alice B\n  on empty: alice A\nbob AB"),
            ("seer", "bob A\nalice B\nbob C\nalice C"),
            ("firefly", "alice CA\nbob BC\nalice AB"),
            ("lsw", "alice A\nbob B\nalice C\nbob C"),
            ("lsw", "alice AB\nbob CA"),
        ]
        for name, text in cases:
            model = make_model(name)
            total = sum(
                (h.probability for h in enumerate_histories(compile_plan(model, parse_plan(text)))),
                Fraction(0),
            )
            assert total == 1, (name, text)

    def test_adaptive_branches_only_fire_on_their_outcome(self):
        model = make_model("seer")
        plan = parse_plan("alice C\n  on full: alice B\nbob AB")
        for history in enumerate_histories(compile_plan(model, plan)):
            words = [
                (q.side, q.target, model.outcome_key(q, o)) for q, o in history.steps
            ]
            if words[0][2] == "full":
                assert words[1][:2] == ("alice", "B")
            else:
                assert words[1][:2] == ("bob", "AB")

    def test_inadmissible_plan_rejected_up_front(self):
        model = make_model("firefly")
        with pytest.raises(InadmissibleQuery):
            enumerate_histories(compile_plan(model, parse_plan("alice A")))

    @pytest.mark.parametrize(
        "name,text",
        [
            # a typo, even under a branch no history reaches
            ("seer", "alice C\n  on empty:\n    alice B\n      on ful: bob A"),
            ("lsw", "alice AC\n  on empty,full: bob B\n  on full,emtpy: bob B"),
            # firefly keys name the glowing corner of the approached side
            ("firefly", "alice AB\n  on full,empty: bob BC"),
            ("firefly", "alice AB\n  on C: bob BC"),
            ("seer", "alice AB\n  on A: bob BC"),
        ],
    )
    def test_impossible_branch_keys_rejected(self, name, text):
        with pytest.raises(InadmissibleQuery):
            enumerate_histories(compile_plan(make_model(name), parse_plan(text)))


class TestSampling:
    def test_session_stream_reproducible(self):
        model = make_model("seer")
        runs = []
        for _ in range(2):
            session = Session(model, SplitMix64(123))
            runs.append(
                [session.measure(Query("alice", "AB")), session.measure(Query("bob", "BC"))]
            )
        assert runs[0] == runs[1]

    def test_different_seeds_vary(self):
        model = make_model("lsw")
        outcomes = {
            Session(model, SplitMix64(seed)).measure(Query("alice", "A")) for seed in range(16)
        }
        assert len(outcomes) == 2

    @pytest.mark.parametrize(
        "name,text",
        [
            ("seer", "alice C\n  on full: alice B\n  on empty: alice A\nbob AB"),
            ("firefly", "alice CA\nbob BC"),
            ("lsw", "alice A\nbob B\nalice C\nbob C"),
        ],
    )
    def test_frequencies_track_exact_probabilities(self, name, text):
        model = make_model(name)
        plan = parse_plan(text)
        exact = exact_distribution(model, plan)
        n = 4000
        rng = SplitMix64(2024)
        tree = compile_plan(model, plan)
        labels = [history_signature(h, model) for h in tree.histories]
        counts = {}
        for _ in range(n):
            sig = labels[tree.sample(rng)]
            counts[sig] = counts.get(sig, 0) + 1
        assert set(counts) <= set(exact)
        for sig, p in exact.items():
            mean = n * float(p)
            dev = (n * float(p) * (1 - float(p))) ** 0.5
            assert abs(counts.get(sig, 0) - mean) <= 4 * dev + 1e-9

    def test_sampling_checks_each_query_when_reached(self):
        # Every query is checked before the first draw, the one under the
        # branch no draw reaches too, so a failed run consumes no draw.
        model = make_model("firefly")
        plan = parse_plan("alice AB\n  on A: bob C")
        rng = SplitMix64(5)
        for _ in range(20):
            with pytest.raises(InadmissibleQuery, match="a corner cannot be observed alone"):
                sample_history(model, plan, rng)
        assert rng.next_u64() == SplitMix64(5).next_u64()

    @pytest.mark.parametrize("seed", range(8))
    def test_sampling_rejects_typod_branch_key(self, seed):
        model = make_model("seer")
        plan = parse_plan("alice AB\n  on ful,empty: bob C")
        with pytest.raises(InadmissibleQuery, match="ful,empty"):
            sample_history(model, plan, SplitMix64(seed))

    def test_forbidden_branch_sampling_is_flagged(self):
        model = make_model("seer")
        plan = parse_plan("bob A\nalice B\nbob C\nalice C")
        rng = SplitMix64(9)
        tree = compile_plan(model, plan)
        flags = [tree.histories[tree.sample(rng)].forbidden for _ in range(200)]
        rate = sum(flags) / len(flags)
        assert 0.35 < rate < 0.65  # exact forbidden mass is 1/2
