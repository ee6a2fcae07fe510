"""The per-strategy signalling search that ``protocols.detect_signalling``
replaced, kept as the differential reference, with the strategy space it
scores.

Every depth-two strategy is enumerated once per Bob target, as the whole
plan (Alice's strategy, then Bob's query), through ``bob_marginal``; its
shifted marginal is compared with the baseline in ``Fraction`` arithmetic,
outcome key by outcome key in sorted order, and a strictly larger gap
replaces the best so far.
"""

from fractions import Fraction
from itertools import product

from orthobox.models import ALICE, BOB, InconsistentHistory
from orthobox.protocols import AliceStrategy, SignallingReport, bob_marginal, first_outcomes


def enumerate_strategies(model) -> list[AliceStrategy]:
    """All depth-two adaptive strategies over Alice's admissible queries."""
    targets = model.admissible_targets(ALICE)
    strategies = []
    for first in targets:
        keys = first_outcomes(model, ALICE, first)
        for choices in product((None,) + tuple(targets), repeat=len(keys)):
            strategies.append(AliceStrategy(first, tuple(zip(keys, choices))))
    return strategies


def detect_signalling(model) -> SignallingReport:
    best = SignallingReport(False, Fraction(0), None, None, None, None, None)
    baselines = {}
    for bob_target in model.admissible_targets(BOB):
        baselines[bob_target] = bob_marginal(model, None, bob_target)
        if baselines[bob_target].forbidden_mass != 0:
            raise InconsistentHistory(f"bob's baseline query {bob_target} cannot be forbidden")
    for strategy in enumerate_strategies(model):
        for bob_target in model.admissible_targets(BOB):
            shifted = bob_marginal(model, strategy, bob_target)
            if shifted.forbidden_mass != 0:
                continue
            base = baselines[bob_target].distribution
            for key in sorted(set(base) | set(shifted.distribution)):
                b = base.get(key, Fraction(0))
                s = shifted.distribution.get(key, Fraction(0))
                if abs(s - b) > best.gap:
                    best = SignallingReport(True, abs(s - b), strategy, bob_target, key, b, s)
    return best
