"""The signalling search against the per-strategy loop it replaced
(``reference_signalling.py``): the whole ``SignallingReport`` (verdict,
gap, strategy, Bob target, outcome, baseline and shifted mass) must be
equal on every bundled model and flavor, on random seer marginals, on
stub models whose forbidden branches skip some strategies and not others,
and on one whose tied follow-ups and tied gaps leave only the tie-break to
choose the winner."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

import reference_signalling as reference
from orthobox.models import ALICE, FLAVORS, InconsistentHistory, Model, make_model
from orthobox.models.base import TARGETS
from orthobox.protocols import detect_signalling
from orthobox.protocols import test_assumption_c as assumption_c
from test_properties import seer_marginals
from test_protocols import AlwaysFull, FirstQueryCoins, ForbiddenAfter


def narrowed(model):
    """The stub with Alice's targets cut to A, B and BC: every target would
    give her 7,350 strategies, which the reference takes half a minute over."""
    model.admissible_targets = lambda side: ("A", "B", "BC") if side == ALICE else TARGETS
    return model


class CountingBob(Model):
    """Stub model: every box a fair coin on either side, except that Bob reads
    each box full with probability 1/3 once Alice has made two queries, so
    a follow-up signals.  ``blocks(state, query)`` names the Alice queries
    with no consistent answer; the state is (Alice's query count, the prior
    label, the value of the first box Alice read)."""

    name = "stub"

    def __init__(self, prior=("ok",), blocks=lambda state, query: False):
        self.labels = prior
        self.blocks = blocks

    def initial_states(self):
        return [((0, label, None), Fraction(1, len(self.labels))) for label in self.labels]

    def step(self, state, query):
        count, label, first = state
        if query.side == ALICE and self.blocks(state, query):
            raise InconsistentHistory(f"alice {query.target} blocked")
        full = Fraction(1, 3) if query.side != ALICE and count >= 2 else Fraction(1, 2)
        branches = []
        for values in product((True, False), repeat=len(query.boxes)):
            p = Fraction(1)
            for value in values:
                p *= full if value else 1 - full
            if query.side == ALICE:
                after = (count + 1, label, values[0] if first is None else first)
            else:
                after = state
            branches.append((tuple(zip(query.boxes, values)), after, p))
        return branches


class SteeredBob(Model):
    """Stub model: every box a fair coin, except Bob's box A once Alice has
    read her first box full and queried again: it is then full with
    probability 2/3 if her second query was A, and 1/3 if it was B or BC.
    So under her first outcome "full" the follow-ups B and BC tie, and the
    best upward and downward shifts of Bob's A are both 1/12.  The state is
    (Alice's query count, her first box's value, her second target)."""

    name = "stub"

    def initial_states(self):
        return [((0, None, None), Fraction(1))]

    def step(self, state, query):
        count, first, second = state
        full = Fraction(1, 2)
        if query.side != ALICE and first:
            full = {"A": Fraction(2, 3), "B": Fraction(1, 3), "BC": Fraction(1, 3)}.get(second, full)
        branches = []
        for values in product((True, False), repeat=len(query.boxes)):
            p = Fraction(1)
            for box, value in zip(query.boxes, values):
                q = full if box == "A" else Fraction(1, 2)
                p *= q if value else 1 - q
            if query.side == ALICE:
                after = (count + 1, values[0] if first is None else first, query.target if count == 1 else second)
            else:
                after = state
            branches.append((tuple(zip(query.boxes, values)), after, p))
        return branches


def follow_up_blocked_after_full(state, query):
    count, _, first = state
    return count == 1 and first


def a_blocked_from_bad(state, query):
    _, label, _ = state
    return label == "bad" and "A" in query.target


STUBS = {
    "follow-up forbidden under one first outcome": lambda: narrowed(CountingBob(blocks=follow_up_blocked_after_full)),
    "first query forbidden from one prior state": lambda: narrowed(CountingBob(("ok", "bad"), a_blocked_from_bad)),
    "no forbidden branch": lambda: narrowed(CountingBob()),
    "forbidden after one query": lambda: narrowed(ForbiddenAfter(1)),
    "forbidden after two queries": lambda: narrowed(ForbiddenAfter(2)),
    "always full": lambda: narrowed(AlwaysFull()),
    "first query coins": lambda: narrowed(FirstQueryCoins()),
    "tied follow-ups and tied directions": lambda: narrowed(SteeredBob()),
}

BUNDLED = [("seer", "mirror"), ("lsw", "mirror")] + [("firefly", flavor) for flavor in FLAVORS]


def assert_same_report(make):
    report = detect_signalling(make())
    expected = reference.detect_signalling(make())
    assert report == expected
    # Field by field, so a failure names the field; str() pins the witness text.
    for field, value in zip(report._fields, report):
        assert value == getattr(expected, field), field
        assert str(value) == str(getattr(expected, field)), field
    return report


@pytest.mark.parametrize("name, flavor", BUNDLED)
def test_bundled_models(name, flavor):
    report = assert_same_report(lambda: make_model(name, flavor=flavor))
    verdict = assumption_c(make_model(name, flavor=flavor))
    assert verdict.holds == (not report.signalling)


@settings(max_examples=6, deadline=None)
@given(marginals=seer_marginals())
def test_random_seer_marginals(marginals):
    assert_same_report(lambda: make_model("seer", marginals=marginals))


@pytest.mark.parametrize("stub", STUBS, ids=list(STUBS))
def test_stub_models(stub):
    assert_same_report(STUBS[stub])


def test_stubs_reach_the_skips():
    # The forbidden follow-up skips the strategies that follow up after
    # "full" and leaves the ones that follow up after "empty" alone.
    report = detect_signalling(STUBS["follow-up forbidden under one first outcome"]())
    assert report.signalling
    assert [key for key, target in report.strategy.branches if target] == ["empty"]
    # The blocked first queries (every target holding A) are never the witness.
    report = detect_signalling(STUBS["first query forbidden from one prior state"]())
    assert report.signalling and "A" not in report.strategy.first
    assert not detect_signalling(ForbiddenAfter(1)).signalling


def test_ties_go_to_the_earliest_strategy():
    # Under "empty" every follow-up ties, and so do B and BC under "full";
    # A under "full" moves Bob's "empty" down by 1/12 and his "full" up by
    # 1/12, and B moves them the other way.  The earliest of these wins: no
    # follow-up after "empty", A after "full", and Bob's first key.
    report = detect_signalling(STUBS["tied follow-ups and tied directions"]())
    assert report.strategy.describe() == "alice A; on full: alice A"
    assert (report.bob_target, report.outcome, report.baseline, report.shifted) == (
        "A", "empty", Fraction(1, 2), Fraction(5, 12)
    )


def test_forbidden_baseline_same_error():
    with pytest.raises(InconsistentHistory) as expected:
        reference.detect_signalling(ForbiddenAfter(0))
    with pytest.raises(InconsistentHistory) as got:
        detect_signalling(ForbiddenAfter(0))
    assert str(got.value) == str(expected.value) == "bob's baseline query A cannot be forbidden"
