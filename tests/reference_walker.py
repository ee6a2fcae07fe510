"""The recursive plan walker and the session-driven fable that compiled plan
trees replaced, kept as the differential reference.

``walk`` checks every step of the plan first, unreachable ones included,
then follows every nonzero branch of the prior and of each step without
``rng``, or with ``rng`` one drawn branch of each.  ``fable`` plays the
prophecy game query by query on a ``Session``.  Both read the model's cached
transitions, so they pin the tree's bookkeeping (draw order, checks,
forbidden leaves, signatures), not the transitions themselves.
"""

from fractions import Fraction

from orthobox.models import ALICE, BOB, BOXES, PAIRS, History, InconsistentHistory, Query, Session, make_model
from orthobox.models.base import check_step, plan_steps
from orthobox.protocols import FableStats
from orthobox.rng import SplitMix64


def walk(model, plan, rng=None) -> list[History]:
    plan = tuple(plan)
    for step in plan_steps(plan):
        check_step(model, step)
    results = []

    def follow(entry):
        return entry.branches if rng is None else (entry.draw(rng),)

    def visit(state, queue, prob, trail):
        if not queue:
            results.append(History(trail, prob))
            return
        step, rest = queue[0], queue[1:]
        query = step.query
        try:
            entry = model.transition(state, query)
        except InconsistentHistory:
            results.append(History(trail + ((query, None),), prob, forbidden=True))
            return
        for outcome, key, next_state, p in follow(entry):
            next_prob = prob if rng is not None else prob * p
            visit(next_state, step.substeps(key) + rest, next_prob, trail + ((query, outcome),))

    for _, _, state, prior in follow(model.prior):
        visit(state, plan, prior if rng is None else Fraction(1), ())
    return results


def enumerate_histories(model, plan) -> list[History]:
    return walk(model, plan)


def sample_history(model, plan, rng) -> History:
    return walk(model, plan, rng)[0]


def signature(history, model) -> tuple:
    return tuple(
        (query.side, query.target, "forbidden" if outcome is None else model.outcome_key(query, outcome))
        for query, outcome in history.steps
    )


def fable(trials: int, seed: int = 0, keep_rows: bool = False) -> FableStats:
    rng = SplitMix64(seed)
    daniel_ok = sandu_first_ok = sandu_second_ok = 0
    rows = []
    model = make_model("seer")
    for trial in range(trials):
        session = Session(model, rng)
        daniel_pair = PAIRS[rng.randrange(3)]
        full_box = daniel_pair[rng.randrange(2)]
        empty_box = daniel_pair.replace(full_box, "")
        third = next(b for b in BOXES if b not in daniel_pair)
        sandu_guess_full = rng.randrange(2) == 0
        third_outcome = dict(session.measure(Query(ALICE, third)))[third]
        first_ok = sandu_guess_full == third_outcome
        second_box = empty_box if third_outcome else full_box
        second_ok = dict(session.measure(Query(ALICE, second_box)))[second_box] == (not third_outcome)
        daniel_outcome = dict(session.measure(Query(BOB, daniel_pair)))
        this_daniel_ok = daniel_outcome[full_box] and not daniel_outcome[empty_box]
        daniel_ok += this_daniel_ok
        sandu_first_ok += first_ok
        sandu_second_ok += second_ok
        if keep_rows:
            rows.append((trial, this_daniel_ok, first_ok, second_ok))
    return FableStats(
        trials,
        Fraction(daniel_ok, trials),
        Fraction(sandu_first_ok, trials),
        Fraction(sandu_second_ok, trials),
        tuple(rows),
    )
