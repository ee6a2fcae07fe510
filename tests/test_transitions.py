"""The per-model transition cache: integer draw thresholds against the exact
``Fraction`` comparison they replace, cached branches against a fresh
``step``, unanswerable queries hit again and again, and the branch-mass
invariant checked when an entry is filled."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orthobox import cli, protocols
from orthobox.models import (
    BranchMassError,
    FLAVORS,
    InconsistentHistory,
    Model,
    Query,
    Session,
    compile_plan,
    enumerate_histories,
    make_model,
    parse_plan,
    sample_history,
)
from orthobox.models.base import SIDES
from orthobox.rng import SplitMix64

from test_properties import MODELS, seer_marginals

TWO64 = 1 << 64


def choice_weighted(u: int, options):
    """Reference draw: the first option whose cumulative weight exceeds
    ``u / 2**64``, compared in exact integers (weights must sum to 1)."""
    num, den = 0, 1
    for value, weight in options:
        num = num * weight.denominator + weight.numerator * den
        den *= weight.denominator
        if u * den < (num << 64):
            return value
    raise ValueError("weights do not sum to 1")


class FixedDraw:
    """A stand-in stream whose every draw is ``u``."""

    def __init__(self, u: int):
        self.u = u

    def next_u64(self) -> int:
        return self.u


class Weighted(Model):
    """Stub model: the prior and every step branch by the given weights; a
    step's outcome is one box reading full with the branch's index as state."""

    name = "stub"

    def __init__(self, weights, prior=None):
        self.weights = weights
        self.prior_weights = prior if prior is not None else [Fraction(1)]

    def initial_states(self):
        return list(enumerate(self.prior_weights))

    def step(self, state, query):
        return [((("A", i % 2 == 0),), i, w) for i, w in enumerate(self.weights)]


@st.composite
def rational_weights(draw):
    """Between 1 and 6 nonnegative rational weights summing to exactly 1,
    zeros included, with denominators up to about 2**70."""
    raw = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=2**35), min_size=1, max_size=6))
    if not any(raw):
        raw[-1] = Fraction(1)
    total = sum(raw)
    return [w / total for w in raw]


def edge_draws(weights):
    """0, 2**64 - 1, and each ``ceil(cum * 2**64)`` and the draw just below it."""
    draws = {0, TWO64 - 1}
    cum = Fraction(0)
    for w in weights:
        cum += w
        t = math.ceil(cum * TWO64)
        draws.update(u for u in (t - 1, t) if 0 <= u < TWO64)
    return sorted(draws)


class TestThresholdDraw:
    @settings(max_examples=200, deadline=None)
    @given(weights=rational_weights(), u=st.integers(0, TWO64 - 1))
    def test_pick_equals_fraction_oracle(self, weights, u):
        prior = Weighted([Fraction(1)], prior=weights).prior
        for draw in edge_draws(weights) + [u]:
            assert prior.draw(FixedDraw(draw))[2] == choice_weighted(draw, list(enumerate(weights)))

    @settings(max_examples=100, deadline=None)
    @given(weights=rational_weights())
    def test_thresholds_are_ceilings_of_cumulative_weights(self, weights):
        prior = Weighted([Fraction(1)], prior=weights).prior
        kept = [(i, w) for i, w in enumerate(weights) if w]
        assert [state for _, _, state, _ in prior.branches] == [i for i, _ in kept]
        cums = [sum(w for _, w in kept[: k + 1]) for k in range(len(kept))]
        assert list(prior.thresholds) == [math.ceil(c * TWO64) for c in cums]
        assert prior.thresholds[-1] == TWO64

    def test_single_branch_step_still_draws(self):
        # A sure step consumes one u64, so the stream after it is unchanged.
        model = make_model("lsw")
        rng, ref = SplitMix64(5), SplitMix64(5)
        session = Session(model, rng)
        session.measure(Query("alice", "A"))
        session.measure(Query("alice", "B"))
        for _ in range(3):
            ref.next_u64()
        assert rng.next_u64() == ref.next_u64()


def reachable(model, depth=None):
    """Every (state, admissible query) reachable from the prior through any
    sequence of admissible queries on either side, at most ``depth`` long."""
    queries = [Query(side, target) for side in SIDES for target in model.admissible_targets(side)]
    frontier = {state for state, p in model.initial_states() if p}
    seen = set(frontier)
    pairs = []
    while frontier and depth != 0:
        depth = None if depth is None else depth - 1
        found = set()
        for state in frontier:
            for query in queries:
                pairs.append((state, query))
                try:
                    found.update(next_state for _, next_state, p in model.step(state, query) if p)
                except InconsistentHistory:
                    pass
        frontier = found - seen
        seen |= frontier
    return pairs


def assert_cache_matches_step(model, depth=None):
    pairs = reachable(model, depth)
    assert pairs
    for state, query in pairs:
        try:
            fresh = model.step(state, query)
        except InconsistentHistory as exc:
            with pytest.raises(InconsistentHistory) as cached:
                model.transition(state, query)
            assert str(cached.value) == str(exc)
            continue
        entry = model.transition(state, query)
        assert model.transition(state, query) is entry
        nonzero = [branch for branch in fresh if branch[2]]
        assert [(o, s, p) for o, _, s, p in entry.branches] == nonzero
        assert [key for _, key, _, _ in entry.branches] == [model.outcome_key(query, o) for o, _, _ in nonzero]
        cums = [sum(p for _, _, p in nonzero[: k + 1]) for k in range(len(nonzero))]
        assert list(entry.thresholds) == [math.ceil(c * TWO64) for c in cums]


class TestCacheMatchesStep:
    @pytest.mark.parametrize("name, flavor", MODELS, ids=[f"{n}-{f}" for n, f in MODELS])
    def test_bundled_models(self, name, flavor):
        assert_cache_matches_step(make_model(name, flavor=flavor))

    @settings(max_examples=10, deadline=None)
    @given(marginals=seer_marginals())
    def test_seer_random_marginals(self, marginals):
        # Every (state, query) within three queries; the default marginals
        # above cover the whole reachable set.
        assert_cache_matches_step(make_model("seer", marginals=marginals), depth=3)

    def test_prior_matches_initial_states(self):
        for flavor in FLAVORS:
            model = make_model("firefly", flavor=flavor)
            assert [(s, p) for _, _, s, p in model.prior.branches] == model.initial_states()


class TestForbiddenHits:
    # Bob finds A full and Alice B empty (or the reverse), then both open C:
    # half the runs reach an unanswerable final query.
    PLAN = "bob A\nalice B\nbob C\nalice C"

    def test_forbidden_count_and_stream(self):
        model = make_model("seer")
        plan = parse_plan(self.PLAN)
        rng = SplitMix64(9)
        tree = compile_plan(model, plan)
        histories = [tree.sample(rng).history for _ in range(5000)]
        # Both figures as recorded before the cache existed: 2446 forbidden
        # runs, and the stream continuing at the same draw.
        assert sum(h.forbidden for h in histories) == 2446
        assert rng.next_u64() == 6389042908124094128
        # A fresh model per run, so every transition is a miss, agrees.
        rng = SplitMix64(9)
        fresh = [sample_history(make_model("seer"), plan, rng) for _ in range(5000)]
        assert [(h.steps, h.forbidden) for h in fresh] == [(h.steps, h.forbidden) for h in histories]

    def test_every_hit_raises_a_fresh_identical_exception(self):
        model = make_model("seer")
        queries = [Query(side, box) for side, box in (("bob", "A"), ("alice", "B"), ("bob", "C"), ("alice", "C"))]
        rng = SplitMix64(3)
        raised = []
        for _ in range(4000):
            session = Session(model, rng)
            try:
                for query in queries:
                    session.measure(query)
            except InconsistentHistory as exc:
                raised.append(exc)
        assert len(raised) > 1000
        assert len({str(exc) for exc in raised}) == 1
        assert len({id(exc) for exc in raised}) == len(raised)
        assert all(exc.__context__ is None and exc.__cause__ is None for exc in raised)
        depths = set()
        for exc in raised:
            tb, depth = exc.__traceback__, 0
            while tb is not None:
                tb, depth = tb.tb_next, depth + 1
            depths.add(depth)
        assert len(depths) == 1


PLAN = parse_plan("alice A\nbob B")
BAD_WEIGHTS = {
    "below": [Fraction(1, 2), Fraction(1, 3)],
    "above": [Fraction(1, 2), Fraction(2, 3)],
    "negative": [Fraction(3, 2), Fraction(-1, 2)],
}
MESSAGES = {"below": "sum to 5/6, not 1", "above": "sum to 7/6, not 1", "negative": "negative branch weight -1/2"}


class TestBranchMass:
    @pytest.mark.parametrize("case", BAD_WEIGHTS)
    def test_step_enumerated(self, case):
        with pytest.raises(BranchMassError, match=MESSAGES[case]):
            enumerate_histories(compile_plan(Weighted(BAD_WEIGHTS[case]), PLAN))

    @pytest.mark.parametrize("case", BAD_WEIGHTS)
    def test_step_sampled(self, case):
        for u in (0, TWO64 - 1):
            with pytest.raises(BranchMassError, match=MESSAGES[case]):
                sample_history(Weighted(BAD_WEIGHTS[case]), PLAN, FixedDraw(u))

    @pytest.mark.parametrize("case", BAD_WEIGHTS)
    def test_prior(self, case):
        model = Weighted([Fraction(1)], prior=BAD_WEIGHTS[case])
        with pytest.raises(BranchMassError, match=f"stub prior: .*{MESSAGES[case]}"):
            enumerate_histories(compile_plan(model, PLAN))
        with pytest.raises(BranchMassError, match=MESSAGES[case]):
            sample_history(model, PLAN, SplitMix64(0))

    def test_message_names_the_step(self):
        with pytest.raises(BranchMassError, match=r"^stub alice A from 0: branch weights sum to 5/6, not 1$"):
            enumerate_histories(compile_plan(Weighted(BAD_WEIGHTS["below"]), PLAN))

    @pytest.mark.parametrize("case", BAD_WEIGHTS)
    @pytest.mark.parametrize(
        "module, argv",
        [(cli.models, ["simulate", "seer", "--plan", "fable"]), (protocols, ["fable", "--trials", "3"])],
        ids=["simulate-enumerated", "fable-sampled"],
    )
    def test_cli_exit_one(self, monkeypatch, capsys, case, module, argv):
        monkeypatch.setattr(module, "make_model", lambda *args, **kwargs: Weighted(BAD_WEIGHTS[case]))
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("model fault: ") and MESSAGES[case] in captured.err
        assert captured.err.count("\n") == 1
