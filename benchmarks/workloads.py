"""Seeded inputs for the three benchmark workloads.

``build(workload, seed, workdir)`` writes the generated plan and scenario
files into ``workdir`` and returns the batch: the list of CLI invocations the
workload runs, each with the facts the oracle needs to judge its output.
The same seed always gives the same files and the same batch.

Every batch has a fixed composition (which subcommands, how many trials,
which graph families and sizes); the seed only fills in the random parts.
That keeps the amount of work close to constant across seeds, so run-to-run
spread measures the program rather than the draw of inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

WORKLOADS = ("sample", "feasibility", "battery")

BOXES = ("A", "B", "C")
PAIRS = ("AB", "BC", "CA")
FLAVORS = ("mirror", "alice_cuts_bob_local", "alice_cuts_bob_mirror")
# Every model and firefly flavor, as (model, flavor or None).
MODEL_VARIANTS = (("seer", None), ("lsw", None)) + tuple(("firefly", f) for f in FLAVORS)
BUNDLED_PLANS = (("seer", "fable"), ("lsw", "lsw_collapse"), ("firefly", "firefly_ca_bc"))

# Batch sizes, tuned so one batch takes about nine seconds on two cores.
FABLE_TRIALS = 7_500
SIMULATE_TRIALS = 2_500
THEOREM_GRID = 24
QUANTUM_TRIALS = 20
# Random graphs are resampled until their LP has at most this many columns
# (independent sets), so no single scenario dominates a batch.
MAX_COLUMNS = 100


@dataclass
class Invocation:
    """One CLI call and what its output must satisfy."""

    argv: list[str]
    kind: str
    expect_exit: int = 0
    trials: int = 0
    facts: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)

    @property
    def items(self) -> int:
        """Units of work counted by ``trials_per_s``: sampled trials, else one."""
        return self.trials or 1


# ---------------------------------------------------------------------------
# Plans


def _outcome_keys(model: str, target: str) -> list[str]:
    if model == "firefly":
        return list(target)
    words = ("full", "empty")
    if len(target) == 1:
        return list(words)
    return [f"{x},{y}" for x in words for y in words]


def _targets(model: str) -> tuple[str, ...]:
    # Firefly corners cannot be observed alone, so its plans use pairs only.
    return PAIRS if model == "firefly" else BOXES + PAIRS


def _random_step(rng: random.Random, model: str, depth: int) -> dict:
    target = rng.choice(_targets(model))
    step = {"side": rng.choice(("alice", "bob")), "target": target, "branches": []}
    if depth > 1:
        for key in _outcome_keys(model, target):
            step["branches"].append((key, _random_step(rng, model, depth - 1)))
    return step


def random_plan(rng: random.Random, model: str) -> list[dict]:
    """A plan four steps deep on every path (fewer only where seer forbids a
    query): one branching tree, or a shallower tree plus a shared tail step.

    Every outcome gets a follow-up so that the work per trial, and with it
    the batch's run time, depends little on the seed.
    """
    if rng.random() < 0.5:
        return [_random_step(rng, model, 4)]
    return [_random_step(rng, model, 3), _random_step(rng, model, 1)]


def plan_text(plan: list[dict]) -> str:
    lines: list[str] = []

    def emit(step: dict, level: int) -> None:
        lines.append("  " * level + f"{step['side']} {step['target']}")
        for key, sub in step["branches"]:
            lines.append("  " * (level + 1) + f"on {key}:")
            emit(sub, level + 2)

    for step in plan:
        emit(step, 0)
    return "\n".join(lines) + "\n"


def _simulate(model: str, flavor: str | None, plan: str, trials: int, seed: int, facts: dict) -> Invocation:
    argv = ["simulate", model, "--plan", plan]
    if flavor:
        argv += ["--flavor", flavor]
    if trials:
        argv += ["--trials", str(trials), "--seed", str(seed)]
    return Invocation(argv, "simulate", trials=trials, facts=dict(facts, model=model, flavor=flavor))


def _generated_plans(rng: random.Random, workdir: Path) -> list[tuple[str, str | None, Path, list[dict]]]:
    made = []
    for model, flavor in MODEL_VARIANTS:
        plan = random_plan(rng, model)
        path = workdir / f"plan_{model}_{flavor or 'default'}.plan"
        path.write_text(plan_text(plan))
        made.append((model, flavor, path, plan))
    return made


def _bundled_plan(name: str) -> list[dict]:
    # The oracle walks outcomes through the plan, so it needs the bundled
    # plans in the same form as generated ones; these mirror src/orthobox/data.
    step = lambda side, target, branches=(): {"side": side, "target": target, "branches": list(branches)}
    if name == "fable":
        return [
            step("alice", "C", [("full", step("alice", "B")), ("empty", step("alice", "A"))]),
            step("bob", "AB"),
        ]
    if name == "lsw_collapse":
        return [step("alice", "A"), step("bob", "B"), step("alice", "C"), step("bob", "C")]
    if name == "firefly_ca_bc":
        return [step("alice", "CA"), step("bob", "BC")]
    raise KeyError(name)


def _sample_batch(rng: random.Random, workdir: Path) -> list[Invocation]:
    batch = [
        Invocation(
            ["fable", "--trials", str(FABLE_TRIALS), "--seed", str(rng.randrange(2**32))],
            "fable",
            trials=FABLE_TRIALS,
        )
    ]
    for model, name in BUNDLED_PLANS:
        flavor = rng.choice(FLAVORS) if model == "firefly" else None
        batch.append(
            _simulate(model, flavor, name, SIMULATE_TRIALS, rng.randrange(2**32), {"plan": _bundled_plan(name)})
        )
    for model, flavor, path, plan in _generated_plans(rng, workdir):
        batch.append(_simulate(model, flavor, str(path), SIMULATE_TRIALS, rng.randrange(2**32), {"plan": plan}))
    return batch


# ---------------------------------------------------------------------------
# Scenarios


def independent_sets(nodes: list[str], edges: set[frozenset]) -> list[frozenset]:
    """Every independent set, by brute force (n <= 12 here)."""
    found = []
    for r in range(len(nodes) + 1):
        for subset in combinations(nodes, r):
            if all(frozenset(pair) not in edges for pair in combinations(subset, 2)):
                found.append(frozenset(subset))
    return found


def cliques(nodes: list[str], edges: set[frozenset], min_size: int = 3) -> list[frozenset]:
    found = []
    for r in range(min_size, len(nodes) + 1):
        for subset in combinations(nodes, r):
            if all(frozenset(pair) in edges for pair in combinations(subset, 2)):
                found.append(frozenset(subset))
    return found


def _labels(n: int) -> list[str]:
    return [f"p{i}" for i in range(n)]


def _cycle(n: int) -> tuple[list[str], set[frozenset]]:
    """The n-cycle p0 - p1 - ... - p(n-1) - p0; fixed so its LP cost is the same every seed."""
    nodes = _labels(n)
    return nodes, {frozenset((nodes[i], nodes[(i + 1) % n])) for i in range(n)}


def _random_graph(rng: random.Random, n: int, p: float) -> tuple[list[str], set[frozenset]]:
    nodes = _labels(n)
    while True:
        edges = {frozenset(pair) for pair in combinations(nodes, 2) if rng.random() < p}
        if len(independent_sets(nodes, edges)) <= MAX_COLUMNS:
            return nodes, edges


def _mixture(rng: random.Random, nodes: list[str], sets: list[frozenset], k: int) -> dict[str, Fraction]:
    """Marginals of a rational mixture of k known independent sets."""
    chosen = rng.sample(sets, k)
    weights = [rng.randint(1, 6) for _ in chosen]
    total = sum(weights)
    return {v: sum((Fraction(w, total) for s, w in zip(chosen, weights) if v in s), Fraction(0)) for v in nodes}


def _scenario_file(
    workdir: Path,
    name: str,
    nodes: list[str],
    edges: set[frozenset],
    marginals: dict[str, Fraction],
    feasible: bool,
    joint_sets: list[frozenset] | None = None,
) -> Invocation:
    """Write a scenario; joint sets default to the maximal cliques (a Specker scenario)."""
    if joint_sets is None:
        all_cliques = cliques(nodes, edges, 2)
        joint_sets = [c for c in all_cliques if not any(c < d for d in all_cliques)]
    data = {
        "propositions": nodes,
        "joint_sets": [sorted(s) for s in joint_sets],
        "marginals": [f"{marginals[v].numerator}/{marginals[v].denominator}" for v in nodes],
    }
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(data, indent=1) + "\n")
    facts = {
        "name": name,
        "nodes": nodes,
        "edges": sorted(sorted(e) for e in edges),
        "joint_sets": [sorted(s) for s in joint_sets],
        "marginals": {v: str(p) for v, p in marginals.items()},
        "feasible": feasible,
    }
    return Invocation(["check", str(path), "--verbose"], "check", expect_exit=0 if feasible else 1, facts=facts)


def _feasibility_batch(rng: random.Random, workdir: Path) -> list[Invocation]:
    batch = []
    for n in (9, 11):
        nodes, edges = _cycle(n)
        # (n-1)/2n on every vertex: feasible, on the odd-cycle facet.
        flat = {v: Fraction(n - 1, 2 * n) for v in nodes}
        batch.append(_scenario_file(workdir, f"cycle{n}_boundary", nodes, edges, flat, True))
        # 1/2 everywhere meets every pairwise bound but breaks the odd-cycle inequality.
        half = {v: Fraction(1, 2) for v in nodes}
        batch.append(_scenario_file(workdir, f"cycle{n}_half", nodes, edges, half, False))
    # The seeded scenarios are kept small (7- and 9-cycles, graphs of at most
    # MAX_COLUMNS independent sets) so their LP cost, which varies with the
    # seed, stays small next to the fixed cycles above.
    for n in (7, 9):
        k = rng.randint(3, 6)
        nodes, edges = _cycle(n)
        mix = _mixture(rng, nodes, independent_sets(nodes, edges), k)
        batch.append(_scenario_file(workdir, f"cycle{n}_mixture", nodes, edges, mix, True))

    for i, n in enumerate((8, 10)):
        nodes, edges = _random_graph(rng, n, 0.4)
        mix = _mixture(rng, nodes, independent_sets(nodes, edges), rng.randint(3, 6))
        batch.append(_scenario_file(workdir, f"graph{i}_mixture", nodes, edges, mix, True))

    # Infeasible random graph: a triangle at 1/2 (sum 3/2, more than any
    # independent set reaches), everything else at most 1/2.
    while True:
        nodes, edges = _random_graph(rng, 10, 0.35)
        triangles = [c for c in cliques(nodes, edges, 3) if len(c) == 3]
        if triangles:
            break
    triangle = rng.choice(triangles)
    marg = {v: Fraction(1, 2) if v in triangle else Fraction(rng.randint(0, 4), 8) for v in nodes}
    batch.append(_scenario_file(workdir, "graph_triangle", nodes, edges, marg, False))

    # Non-Specker family: only the edges are joint, so every triangle is a
    # minimal non-Specker set; a mixture of independent sets stays feasible.
    while True:
        nodes, edges = _random_graph(rng, 9, 0.45)
        if any(len(c) == 3 for c in cliques(nodes, edges, 3)):
            break
    mix = _mixture(rng, nodes, independent_sets(nodes, edges), rng.randint(3, 6))
    batch.append(_scenario_file(workdir, "edges_only", nodes, edges, mix, True, joint_sets=list(edges)))

    # Non-Specker family around a K4 whose triangles are joint but which is
    # not: the minimal set has four members. 1/3 on the K4 is infeasible.
    nodes, edges = _random_graph(rng, 8, 0.3)
    k4 = rng.sample(nodes, 4)
    edges |= {frozenset(pair) for pair in combinations(k4, 2)}
    all_cliques = cliques(nodes, edges, 2)
    maximal = [c for c in all_cliques if not any(c < d for d in all_cliques)]
    joint = []
    for c in maximal:
        if set(k4) <= c:
            joint += [c - {v} for v in k4]
        else:
            joint.append(c)
    joint = [c for c in set(joint) if not any(c < d for d in joint)]
    marg = {v: Fraction(1, 3) if v in k4 else Fraction(rng.randint(0, 3), 9) for v in nodes}
    batch.append(_scenario_file(workdir, "k4_family", nodes, edges, marg, False, joint_sets=joint))
    return batch


# ---------------------------------------------------------------------------
# Battery


def _battery_batch(rng: random.Random, workdir: Path) -> list[Invocation]:
    csv = workdir / "theorem.csv"
    qcsv = workdir / "quantum.csv"
    batch = [
        Invocation(["assumptions", "all"], "assumptions", facts={"set": "all"}),
        Invocation(["assumptions", "firefly-variants"], "assumptions", facts={"set": "firefly-variants"}),
        Invocation(["pr-boxes"], "pr_boxes", facts={"model": None}),
    ]
    batch += [Invocation(["pr-boxes", "--model", m], "pr_boxes", facts={"model": m}) for m in ("seer", "firefly", "lsw")]
    batch.append(
        Invocation(
            ["verify-theorem", "--grid", str(THEOREM_GRID), "--csv", str(csv), "--exact"],
            "theorem",
            facts={"grid": THEOREM_GRID, "csv": str(csv)},
            outputs=[str(csv)],
        )
    )
    for model, flavor, path, plan in _generated_plans(rng, workdir):
        batch.append(_simulate(model, flavor, str(path), 0, 0, {"plan": plan}))
    batch.append(
        Invocation(
            ["quantum-ref", "--trials", str(QUANTUM_TRIALS), "--seed", str(rng.randrange(2**32)), "--csv", str(qcsv)],
            "quantum",
            facts={"trials": QUANTUM_TRIALS, "csv": str(qcsv)},
            outputs=[str(qcsv)],
        )
    )
    return batch


def build(workload: str, seed: int, workdir: Path) -> list[Invocation]:
    """Write the workload's input files under ``workdir`` and return its batch."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "sample":
        return _sample_batch(rng, workdir)
    if workload == "feasibility":
        return _feasibility_batch(rng, workdir)
    if workload == "battery":
        return _battery_batch(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
