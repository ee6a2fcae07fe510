"""Property tests over random plans for every model and firefly flavor."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orthobox.models import (
    FLAVORS,
    PlanStep,
    Query,
    compile_plan,
    enumerate_histories,
    exact_distribution,
    history_signature,
    make_model,
    sample_history,
)
from orthobox.models.base import SIDES, TARGETS
from orthobox.rng import SplitMix64

MODELS = [("seer", "mirror"), ("lsw", "mirror")] + [("firefly", flavor) for flavor in FLAVORS]


@st.composite
def plans(draw, model, depth, wild=False):
    """A plan with at most ``depth`` queries on any path; branch keys are
    outcomes the step's query can give.  In a ``wild`` plan about one step in
    four may take any target, admitted or not, and about one in four may also
    branch on ``ful``, which no query gives."""
    steps = []
    while depth > 0 and (not steps or draw(st.booleans())):
        side = draw(st.sampled_from(SIDES))
        any_target = wild and draw(st.integers(0, 3)) == 0
        target = draw(st.sampled_from(TARGETS if any_target else model.admissible_targets(side)))
        sub_depth = draw(st.integers(0, depth - 1))
        keys = model.outcome_keys(Query(side, target))
        if wild and draw(st.integers(0, 3)) == 0:
            keys += ("ful",)
        chosen = draw(st.lists(st.sampled_from(keys), unique=True)) if sub_depth else []
        steps.append(PlanStep(side, target, tuple((key, draw(plans(model, sub_depth, wild))) for key in chosen)))
        depth -= 1 + sub_depth
    return tuple(steps)


@st.composite
def seer_marginals(draw):
    """Rational marginals for A, B and C strictly inside (0, 1) whose pairwise
    sums are at most 1, so the seer's branch weights are not all 1/2."""
    den = draw(st.integers(3, 12))
    a = draw(st.integers(1, den - 1))
    b = draw(st.integers(1, den - a))
    c = draw(st.integers(1, den - max(a, b)))
    return dict(zip("ABC", (Fraction(n, den) for n in draw(st.permutations([a, b, c])))))


def drawn_model(data, name, flavor):
    marginals = data.draw(seer_marginals(), label="marginals") if name == "seer" else None
    return make_model(name, flavor=flavor, marginals=marginals)


@pytest.mark.parametrize("name, flavor", MODELS, ids=[f"{n}-{f}" for n, f in MODELS])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_enumeration_and_sampling_agree(name, flavor, data, seed):
    model = drawn_model(data, name, flavor)
    plan = data.draw(plans(model, 4), label="plan")

    histories = enumerate_histories(compile_plan(model, plan))
    assert sum(h.probability for h in histories) == 1
    assert all(h.probability >= 0 for h in histories)

    support = exact_distribution(model, plan)
    assert all(p > 0 for p in support.values())
    for offset in range(3):
        stream = (seed + offset) % 2**64
        sampled = sample_history(model, plan, SplitMix64(stream))
        assert history_signature(sampled, model) in support
        assert sample_history(model, plan, SplitMix64(stream)) == sampled
        assert sampled.probability == Fraction(1)


@pytest.mark.parametrize("name, flavor", MODELS, ids=[f"{n}-{f}" for n, f in MODELS])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_sampled_frequencies_match_exact(name, flavor, data, seed):
    # Every exact signature's count lies within 5 sigma (plus one count of
    # slack) of n*p, the bound the benchmark oracle applies to printed rates.
    model = drawn_model(data, name, flavor)
    plan = data.draw(plans(model, 4), label="plan")
    n, rng, tree = 1000, SplitMix64(seed), compile_plan(model, plan)
    labels = [history_signature(h, model) for h in tree.histories]
    counts = Counter(labels[tree.sample(rng)] for _ in range(n))
    for sig, p in exact_distribution(model, plan).items():
        assert abs(counts[sig] - n * p) <= 5 * math.sqrt(n * p * (1 - p)) + 1
