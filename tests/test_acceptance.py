"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance and budget is pinned here; nothing is deferred to later
calibration.
"""

import time
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np

from orthobox.behavior import (
    admissible_assignments,
    check_exclusivity,
    chsh,
    is_pr_box,
    joint_feasibility,
    no_signalling_check,
)
from orthobox.models import (
    InconsistentHistory,
    PlanStep,
    Query,
    Session,
    compile_plan,
    enumerate_histories,
    exact_distribution,
    make_model,
    parse_plan,
)
from orthobox.protocols import (
    assumption_report,
    realize_pr_box,
    simulate_fable,
    sweep_pr_interpretations,
)
from orthobox.quantumref import (
    SpinOneFrame,
    TOLERANCE,
    entangled_spin1_correlations,
    luders_sequence,
    povm_identity_check,
    random_density,
    random_projector_pair,
)
from orthobox.rng import SplitMix64
from orthobox.scenario import orthogonality_graph
from orthobox.theorem import TripleMarginals, signalling_gap, worst_case_params
from reference_theorem import nosig_constraint_residual, valid_grid
from test_scenario import specker_triple


def verdict(number: int, ok: bool, summary: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {summary}")
    assert ok, f"criterion {number}: {summary}"


def test_criterion_01_triple_infeasibility():
    start = time.monotonic()
    scenario, marginals = specker_triple()
    graph = orthogonality_graph(scenario)

    cert = joint_feasibility(graph, marginals)
    excl = check_exclusivity(marginals, graph)

    # Independent check over the four admissible deterministic assignments:
    # each vertex marginal must be the weight of its singleton, so the empty
    # assignment would need weight 1 - 3/2 < 0.
    assignments = admissible_assignments(graph)
    singleton_weights = {s: marginals[next(iter(s))] for s in assignments if len(s) == 1}
    residual = 1 - sum(singleton_weights.values(), Fraction(0))
    oracle_infeasible = residual < 0

    elapsed = time.monotonic() - start
    ok = (
        not cert.feasible
        and oracle_infeasible
        and len(assignments) == 4
        and not excl.ok
        and excl.total == Fraction(3, 2)
        and elapsed < 1.0
    )
    verdict(1, ok, f"flat-1/2 triple infeasible, exclusivity sum 3/2 ({elapsed:.2f}s)")


def test_criterion_02_signalling_gap_values_and_grid():
    start = time.monotonic()
    thirds = signalling_gap(TripleMarginals(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    halves = signalling_gap(TripleMarginals(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    checked = 0
    all_positive = True
    for denominator in range(2, 25):
        for t in valid_grid(denominator):
            checked += 1
            if signalling_gap(t) <= 0:
                all_positive = False
    elapsed = time.monotonic() - start
    ok = (
        thirds == Fraction(1, 12)
        and halves == Fraction(1, 2)
        and all_positive
        and checked > 3000
        and elapsed < 30.0
    )
    verdict(2, ok, f"gap(1/3)=1/12, gap(1/2)=1/2, {checked} grid points positive ({elapsed:.1f}s)")


def test_criterion_03_worst_case_consistency():
    start = time.monotonic()
    rng = SplitMix64(60)
    trials = clamped = 0
    ok = True
    while trials < 10_000:
        den = 2 + rng.randrange(96)
        p1 = Fraction(1 + rng.randrange(den - 1), den)
        den = 2 + rng.randrange(96)
        p2 = Fraction(1 + rng.randrange(den - 1), den)
        den = 2 + rng.randrange(96)
        p3 = Fraction(1 + rng.randrange(den - 1), den)
        if p1 + p2 > 1 or p1 + p3 > 1 or p2 + p3 > 1:
            continue
        trials += 1
        t = TripleMarginals(p1, p2, p3)
        wc = worst_case_params(t)
        if not (0 <= wc.alpha <= 1 and 0 <= wc.beta <= 1):
            ok = False
        if nosig_constraint_residual(wc, t) != 0:
            ok = False
        if wc.beta == 1:
            clamped += 1
    elapsed = time.monotonic() - start
    ok = ok and clamped > 0 and elapsed < 10.0
    verdict(3, ok, f"10^4 random triples: residual 0, alpha/beta in range, {clamped} clamped ({elapsed:.1f}s)")


def test_criterion_04_fable_determinism():
    start = time.monotonic()
    stats = simulate_fable(100_000, seed=0)
    elapsed = time.monotonic() - start
    others = [simulate_fable(1000, seed=s) for s in (1, 12345)]
    ok = (
        stats.daniel_success == 1
        and Fraction(49, 100) <= stats.sandu_first_success <= Fraction(51, 100)
        and stats.sandu_second_success == 1
        and all(o.daniel_success == 1 for o in others)
        and elapsed < 10.0
    )
    verdict(
        4,
        ok,
        f"10^5 trials: daniel 1.0, sandu first {float(stats.sandu_first_success):.4f} ({elapsed:.1f}s)",
    )


def test_criterion_05_assumption_matrix():
    start = time.monotonic()
    expected = {
        "seer": (True, True, False),
        "firefly": (True, False, True),
        "lsw": (False, True, True),
    }
    ok = True
    for name, want in expected.items():
        report = assumption_report(make_model(name))
        if tuple(v.holds for v in report) != want:
            ok = False
        for v in (report.a, report.b, report.c):
            if not v.holds and v.witness is None:
                ok = False
            if not v.holds and v.witness.plan:
                total = sum(
                    (h.probability for h in enumerate_histories(compile_plan(make_model(name), v.witness.plan))),
                    Fraction(0),
                )
                if total != 1:
                    ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    verdict(5, ok, f"seer/firefly/lsw fail exactly (c)/(b)/(a), witnesses enumerable ({elapsed:.1f}s)")


def test_criterion_06_firefly_disturbance():
    start = time.monotonic()
    model = make_model("firefly")
    sides = ("AB", "BC", "CA")
    ok = True
    # marginals exactly 1/2 per corner per context
    for side in sides:
        dist = exact_distribution(model, (PlanStep("alice", side),))
        glows = {sig[0][2]: p for sig, p in dist.items()}
        if glows != {side[0]: Fraction(1, 2), side[1]: Fraction(1, 2)}:
            ok = False
    # after any CA approach, B stays dark in whichever local query follows
    prefixes = [()] + [(a,) for a in sides] + list(product(sides, repeat=2))
    for prefix in prefixes:
        for follow in ("AB", "BC"):
            plan = tuple(PlanStep("alice", t) for t in prefix) + (
                PlanStep("alice", "CA"),
                PlanStep("alice", follow),
            )
            mass_b = sum(
                p for sig, p in exact_distribution(model, plan).items() if sig[-1][2] == "B"
            )
            if mass_b != 0:
                ok = False
    elapsed = time.monotonic() - start
    verdict(6, ok, f"B dark after every CA approach, per-context marginals 1/2 ({elapsed:.1f}s)")


def test_criterion_07_pr_boxes():
    start = time.monotonic()
    ok = True
    for name in ("seer", "firefly"):
        model = make_model(name)
        box = realize_pr_box(model)
        if chsh(box).value != 4 or not no_signalling_check(box).ok or not is_pr_box(box):
            ok = False
        sweep = sweep_pr_interpretations(model)
        counts = Counter(swept for _, swept in sweep)
        if len(sweep) != 16 or len(counts) != 8 or sorted(counts.values()) != [2] * 8:
            ok = False
        if not all(is_pr_box(b) and no_signalling_check(b).ok for _, b in sweep):
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    verdict(7, ok, f"S=4 boxes from seer and firefly; 16 readings hit all 8 twice ({elapsed:.1f}s)")


def test_criterion_08_quantum_reference():
    start = time.monotonic()
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        triple = [random_projector_pair(dim, rng) for _ in range(3)]
        if povm_identity_check(*triple) > TOLERANCE:
            ok = False
    frame = SpinOneFrame.canonical()
    orders = ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx")
    for _ in range(50):
        state = random_density(3, rng)
        dists = [luders_sequence(frame, order, state) for order in orders]
        for other in dists[1:]:
            for key in dists[0]:
                if abs(dists[0][key] - other[key]) > TOLERANCE:
                    ok = False
    for pairing in ("matched", "conjugate"):
        report = entangled_spin1_correlations(frame, pairing)
        if not report.perfectly_correlated:
            ok = False
        if any(abs(m - 1 / 3) > TOLERANCE for m in report.marginals):
            ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    verdict(8, ok, f"povm identity, order invariance, entangled marginals 1/3 ({elapsed:.1f}s)")


def test_criterion_09_grandfather_consistency():
    model = make_model("seer")
    raised = False
    for seed in range(200):
        session = Session(model, SplitMix64(seed))
        a = dict(session.measure(Query("bob", "A")))["A"]
        b = dict(session.measure(Query("alice", "B")))["B"]
        if a and not b:
            session.measure(Query("bob", "C"))
            try:
                session.measure(Query("alice", "C"))
            except InconsistentHistory:
                raised = True
                break
    plan = (PlanStep("bob", "A"), PlanStep("alice", "B"), PlanStep("bob", "C"), PlanStep("alice", "C"))
    histories = enumerate_histories(compile_plan(model, plan))
    forbidden_mass = sum((h.probability for h in histories if h.forbidden), Fraction(0))
    ok = raised and forbidden_mass == Fraction(1, 2)
    verdict(9, ok, "contradictory finds make the shared third box unanswerable")


DESIGNATED_PLANS = {
    "seer": "alice C\n  on full: alice B\n  on empty: alice A\nbob AB",
    "firefly": "alice CA\n  on C: alice BC\nbob AB",
    "lsw": "alice A\nbob B\nalice C\nbob C",
}

EXTRA_PLANS = {
    "seer": ("alice AB\nbob BC", "bob A\nalice B\nbob C\nalice C"),
    "firefly": ("alice AB\nbob CA", "bob BC\nalice CA"),
    "lsw": ("alice AB\nbob CA", "alice B\n  on full: bob C\n  on empty: bob A"),
}


def sampling_matches(model, plan, n, seed) -> bool:
    exact = exact_distribution(model, plan)
    tree = compile_plan(model, plan)  # the path ``simulate --trials`` samples
    rng = SplitMix64(seed)
    counts: dict[tuple, int] = {}
    for _ in range(n):
        sig = tree.sample(rng).signature
        counts[sig] = counts.get(sig, 0) + 1
    if set(counts) - set(exact):
        return False
    for sig, p in exact.items():
        mean = n * float(p)
        sigma = (n * float(p) * (1 - float(p))) ** 0.5
        if abs(counts.get(sig, 0) - mean) > 4 * sigma + 1e-9:
            return False
    return True


def test_criterion_10_oracle_equivalence():
    start = time.monotonic()
    ok = True
    for name, text in DESIGNATED_PLANS.items():
        model = make_model(name)
        if not sampling_matches(model, parse_plan(text), 100_000, seed=10):
            ok = False
    for name, texts in EXTRA_PLANS.items():
        model = make_model(name)
        for i, text in enumerate(texts):
            if not sampling_matches(model, parse_plan(text), 20_000, seed=100 + i):
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    verdict(10, ok, f"sampled frequencies within 4 sigma of exact enumeration ({elapsed:.1f}s)")
