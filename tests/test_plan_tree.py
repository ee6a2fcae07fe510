"""Compiled plan trees against the recursive walker and the session-driven
fable they replaced (``reference_walker.py``): the same enumerated
histories and exact distributions, the same sampled signatures from the same
draws, and the same errors at the same trial, on random depth-4 plans that
include forbidden branches, inadmissible steps and unknown branch keys."""

import gc
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import orthobox
import reference_walker as reference
from orthobox.models import (
    History,
    InadmissibleQuery,
    PlanTree,
    Query,
    compile_plan,
    enumerate_histories,
    exact_distribution,
    group_histories,
    history_signature,
    load_plan,
    make_model,
    parse_plan,
    sample_history,
)
from orthobox.protocols import simulate_fable
from orthobox.rng import SplitMix64

from test_properties import MODELS, plans, seer_marginals

TRIALS = 40


def compiled_enumeration(model, plan):
    return enumerate_histories(compile_plan(model, plan))


def enumerated(enumerate_, signature, model, plan):
    """(histories, exact distribution), or the error's type and message."""
    try:
        histories = enumerate_(model, plan)
    except InadmissibleQuery as exc:
        return type(exc), str(exc)
    return histories, group_histories(histories, lambda h: signature(h, model))


def sampled(sample, signature, model, plan, seed):
    """Per trial (history, signature) or the error's type and message, then the next draw."""
    rng = SplitMix64(seed)
    runs = []
    for _ in range(TRIALS):
        try:
            history = sample(model, plan, rng)
        except InadmissibleQuery as exc:
            runs.append((type(exc), str(exc)))
        else:
            runs.append((history, signature(history, model)))
    return runs, rng.next_u64()


def signatures(result):
    """``sampled``'s result with each (history, signature) trial cut to its signature."""
    runs, draw = result
    return [run if isinstance(run[0], type) else run[1] for run in runs], draw


def leaf_signatures(model, plan, seed):
    """``sampled`` through each sampled index's label, the path ``simulate --trials`` runs."""
    def sample(model, plan, rng):
        tree = compile_plan(model, plan)
        return [history_signature(h, model) for h in tree.histories][tree.sample(rng)]

    return signatures(sampled(sample, lambda label, _: label, model, plan, seed))


def assert_matches_reference(build, plan, seed):
    model, ref = build(), build()
    expected = sampled(reference.sample_history, reference.signature, ref, plan, seed)
    expected_signatures = signatures(expected)
    assert leaf_signatures(model, plan, seed) == expected_signatures
    assert sampled(sample_history, history_signature, model, plan, seed) == expected
    expected_enumeration = enumerated(reference.enumerate_histories, reference.signature, ref, plan)
    assert enumerated(compiled_enumeration, history_signature, model, plan) == expected_enumeration
    if not isinstance(expected_enumeration[0], type):
        assert exact_distribution(model, plan) == expected_enumeration[1]
    # Again, with the model's transitions cached by the first pass.
    assert sampled(sample_history, history_signature, model, plan, seed) == expected
    assert leaf_signatures(model, plan, seed) == expected_signatures
    # From scratch, enumerating first.
    model = build()
    assert enumerated(compiled_enumeration, history_signature, model, plan) == expected_enumeration
    assert sampled(sample_history, history_signature, model, plan, seed) == expected


@pytest.mark.parametrize("name, flavor", MODELS, ids=[f"{n}-{f}" for n, f in MODELS])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_random_plans_match_reference(name, flavor, data, seed):
    plan = data.draw(plans(make_model(name, flavor=flavor), 4, wild=True))
    assert_matches_reference(lambda: make_model(name, flavor=flavor), plan, seed)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), marginals=seer_marginals(), seed=st.integers(0, 2**64 - 1))
def test_seer_random_marginals_match_reference(data, marginals, seed):
    plan = data.draw(plans(make_model("seer", marginals=marginals), 4, wild=True))
    assert_matches_reference(lambda: make_model("seer", marginals=marginals), plan, seed)


@pytest.mark.parametrize(
    "name, text",
    [
        # Half the runs reach an unanswerable last query.
        ("seer", "bob A\nalice B\nbob C\nalice C"),
        # Inadmissible only on the branch where C glows.
        ("firefly", "alice CA\n  on C: alice B\nbob AB"),
        # An unknown key under a step every run reaches.
        ("lsw", "alice A\n  on ful: bob C\nbob B"),
    ],
)
def test_pinned_plans_match_reference(name, text):
    assert_matches_reference(lambda: make_model(name), parse_plan(text), 7)


@pytest.mark.parametrize("seed", [0, 4, 7, 12345])
def test_fable_matches_reference(seed):
    assert simulate_fable(3000, seed=seed, keep_rows=True) == reference.fable(3000, seed=seed, keep_rows=True)


class TestTree:
    def test_built_tree_reads_no_transition(self, monkeypatch):
        model = make_model("seer")
        plan = parse_plan("bob A\nalice B\nbob C\nalice C")
        tree = compile_plan(model, plan)
        rng = SplitMix64(1)
        histories = [tree.histories[tree.sample(rng)] for _ in range(200)]
        assert {h.forbidden for h in histories} == {True, False}
        monkeypatch.setattr(model, "transition", None)  # any call would fail
        monkeypatch.setattr(model, "check_admissible", None)
        rng = SplitMix64(1)
        assert [tree.histories[tree.sample(rng)] for _ in range(200)] == histories
        # compile_plan builds every node, so a tree neither enumerated nor
        # sampled yet reads no transition either.
        fresh = make_model("seer")
        tree = compile_plan(fresh, plan)
        monkeypatch.setattr(fresh, "transition", None)
        monkeypatch.setattr(fresh, "check_admissible", None)
        assert enumerate_histories(tree) == enumerate_histories(compile_plan(make_model("seer"), plan))
        rng = SplitMix64(1)
        assert [tree.histories[tree.sample(rng)] for _ in range(200)] == histories

    @pytest.mark.parametrize(
        "name, text",
        [
            ("seer", "bob A\nalice B\nbob C\nalice C"),  # half the runs are forbidden
            ("firefly", "alice CA\n  on C: alice BC\nbob AB"),
            ("lsw", "alice B\n  on full: bob C\n  on empty: bob A"),
        ],
    )
    def test_enumerated_tree_samples_its_own_leaves(self, name, text):
        # simulate enumerates its tree, then samples the same tree.
        plan = parse_plan(text)
        tree = compile_plan(make_model(name), plan)
        histories = enumerate_histories(tree)
        assert histories is tree.histories
        rng, fresh_rng, fresh = SplitMix64(11), SplitMix64(11), compile_plan(make_model(name), plan)
        indices = [tree.sample(rng) for _ in range(500)]
        assert set(indices) <= set(range(len(histories)))
        assert [fresh.sample(fresh_rng) for _ in range(500)] == indices
        assert fresh.histories == histories
        assert rng.next_u64() == fresh_rng.next_u64()

    def test_sure_steps_advance_the_stream_without_drawing(self):
        # lsw_collapse has five levels, the prior and four steps, and only one
        # of them branches: a trial draws once and skips the other four.
        class Counting(SplitMix64):
            draws = 0

            def next_u64(self):
                self.draws += 1
                return super().next_u64()

        plan = load_plan(Path(orthobox.__file__).parent / "data" / "plans" / "lsw_collapse.plan")
        tree, rng, ref = compile_plan(make_model("lsw"), plan), Counting(9), SplitMix64(9)
        trials = 300
        for _ in range(trials):
            tree.sample(rng)
        assert rng.draws == trials
        for _ in range(5 * trials):
            ref.next_u64()
        assert rng.next_u64() == ref.next_u64()

    def test_enumeration_leaves_nothing_behind(self):
        model = make_model("seer")
        plan = parse_plan("alice C\n  on full: alice B\n  on empty: alice A\nbob AB")
        gc.collect()
        gc.disable()  # anything the call leaves alive stays visible
        try:
            histories = enumerate_histories(compile_plan(model, plan))
            nodes = [obj for obj in gc.get_objects() if type(obj) is PlanTree and obj.histories is histories]
        finally:
            gc.enable()
        assert histories and not nodes

    def test_tree_keeps_no_model_alive(self):
        plan = parse_plan("bob A\nalice B\nbob C\nalice C")
        model = make_model("seer")
        tree, alive = compile_plan(model, plan), weakref.ref(model)
        rng = SplitMix64(5)
        indices = [tree.sample(rng) for _ in range(200)]
        del model
        gc.collect()
        assert alive() is None
        rng = SplitMix64(5)
        assert [tree.sample(rng) for _ in range(200)] == indices

    def test_sampling_writes_nothing_to_the_tree(self):
        tree = compile_plan(make_model("firefly"), parse_plan("alice CA\n  on C: alice BC\nbob AB"))

        def snapshot():
            nodes, stack = [], [tree]
            while stack:
                node = stack.pop()
                nodes.append((node, node.thresholds, list(node.children)))
                stack.extend(child for child in node.children if type(child) is PlanTree)
            return nodes, list(tree.histories)

        before = snapshot()
        rng = SplitMix64(13)
        for _ in range(1000):
            tree.sample(rng)
        after = snapshot()
        assert after == before
        assert all(a is b for a, b in zip(after[1], before[1]))

    def test_sampled_history_has_weight_one(self):
        model = make_model("lsw")
        plan = parse_plan("alice A\nbob B")
        history = sample_history(model, plan, SplitMix64(3))
        assert history.probability == 1

    def test_signature_of_a_history_built_by_hand(self):
        model = make_model("firefly")
        query = Query("alice", "CA")
        history = History(((query, (("C", True), ("A", False))), (Query("bob", "AB"), None)), Fraction(1))
        assert history_signature(history, model) == (("alice", "CA", "C"), ("bob", "AB", "forbidden"))

    def test_enumeration_checks_unreachable_steps(self):
        # No draw reaches the branch; enumeration and sampling still reject it.
        model = make_model("seer")
        plan = parse_plan("alice AB\n  on full,full:\n    bob C\n      on ful: bob A\nbob B")
        assert (("alice", "AB", "full,full"),) not in exact_distribution(model, parse_plan("alice AB"))
        for run in (lambda: compiled_enumeration(model, plan), lambda: sample_history(model, plan, SplitMix64(0))):
            with pytest.raises(InadmissibleQuery, match="bob C has no outcome 'ful'"):
                run()

    def test_long_sequential_plan_memory_is_linear(self):
        # A frame of compile_plan's stack shares its pending steps and its
        # trail with its parent's:
        # copying them per node made 3,000 steps peak above 100 MB.
        plan = parse_plan("alice A\n" * 3000)

        def compile_and_sample(model):
            tree = compile_plan(model, plan)
            return [tree.histories[tree.sample(SplitMix64(seed))] for seed in range(20)]

        runs = {"enumerate": lambda model: compiled_enumeration(model, plan), "compile and sample": compile_and_sample}
        for name, run in runs.items():
            model = make_model("lsw")
            tracemalloc.start()
            try:
                histories = run(model)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert {len(history.steps) for history in histories} == {3000}
            assert peak < 10 * 2**20, name
