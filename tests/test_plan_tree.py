"""Compiled plan trees against the recursive walker and the session-driven
fable they replaced (``reference_walker.py``): the same enumerated
histories and exact distributions, the same sampled signatures from the same
draws, and the same errors at the same trial, on random depth-4 plans that
include forbidden branches, inadmissible steps and unknown branch keys."""

import gc
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    """``sampled`` through each compiled leaf's own signature, the path ``simulate --trials`` runs."""
    def sample(model, plan, rng):
        return compile_plan(model, plan).sample(rng)

    return signatures(sampled(sample, lambda leaf, _: leaf.signature, model, plan, seed))


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
    # Again, on the nodes the first pass built.
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
        histories = [tree.sample(rng).history for _ in range(200)]  # builds the nodes it draws
        assert {h.forbidden for h in histories} == {True, False}
        monkeypatch.setattr(model, "transition", None)  # any call would fail
        monkeypatch.setattr(model, "check_admissible", None)
        rng = SplitMix64(1)
        assert [tree.sample(rng).history for _ in range(200)] == histories

    @pytest.mark.parametrize(
        "name, text",
        [
            ("seer", "bob A\nalice B\nbob C\nalice C"),  # half the runs are forbidden
            ("firefly", "alice CA\n  on C: alice BC\nbob AB"),
            ("lsw", "alice B\n  on full: bob C\n  on empty: bob A"),
        ],
    )
    def test_enumerated_tree_samples_its_own_leaves(self, name, text):
        # simulate enumerates its tree, then samples the nodes enumeration built.
        plan = parse_plan(text)
        tree = compile_plan(make_model(name), plan)
        enumerated = {id(history) for history in enumerate_histories(tree)}
        rng, fresh_rng, fresh = SplitMix64(11), SplitMix64(11), compile_plan(make_model(name), plan)
        leaves = [tree.sample(rng) for _ in range(500)]
        assert all(id(leaf.history) in enumerated for leaf in leaves)
        expected = Counter(fresh.sample(fresh_rng).signature for _ in range(500))
        assert Counter(leaf.signature for leaf in leaves) == expected
        assert rng.next_u64() == fresh_rng.next_u64()

    def test_enumeration_leaves_nothing_behind(self):
        model = make_model("seer")
        plan = parse_plan("alice C\n  on full: alice B\n  on empty: alice A\nbob AB")
        gc.collect()
        gc.disable()  # anything the call leaves alive stays visible
        try:
            histories = enumerate_histories(compile_plan(model, plan))
            nodes = [obj for obj in gc.get_objects() if type(obj) is PlanTree and obj.model is model]
        finally:
            gc.enable()
        assert histories and not nodes

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
        # A node shares its pending steps and its trail with its parent:
        # copying them per node made 3,000 steps peak above 100 MB.
        plan = parse_plan("alice A\n" * 3000)

        def compile_and_sample(model):
            tree = compile_plan(model, plan)
            return [tree.sample(SplitMix64(seed)).history for seed in range(20)]

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
