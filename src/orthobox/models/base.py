"""Common machinery for the bipartite sequential-measurement toy models.

A model is a pure branching transition system: ``step(state, query)`` returns
every possible ``(outcome, next_state, probability)`` triple, so the same
code drives seeded sampling and exhaustive enumeration.  A query targets a
single box or a pair of boxes on one party's side; outcomes record one
boolean per queried box (True for full/glowing).  Each model instance caches
its transitions.

A plan runs as a tree of ``PlanTree`` nodes rooted at the model's prior:
``compile_plan`` is the one place a plan is checked, every step once,
unreachable ones included, and returns a fresh tree that nothing else
keeps.  The caller holds the tree and runs it either way:
``enumerate_histories(tree)`` builds every child and no signature, and
``tree.sample(rng)`` walks one drawn branch per level, exactly one u64 and
one binary search per step, even a sure one.  The tree is built lazily: a
node holds one cached transition's draw thresholds and builds each child on
the first visit; a leaf is a ``Leaf`` holding a finished or forbidden
``History``, whose signature is filled on its first sample.  So sampling a
tree that was enumerated or sampled before costs its draws and little else.

Sessions are single-threaded: queries mutate one session sequentially.
Distinct sessions are independent.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import product
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple

from ..rng import SplitMix64

ALICE, BOB = "alice", "bob"
SIDES = (ALICE, BOB)
BOXES = ("A", "B", "C")
PAIRS = ("AB", "BC", "CA")
TARGETS = BOXES + PAIRS

Outcome = tuple[tuple[str, bool], ...]


class InconsistentHistory(RuntimeError):
    """No box contents can satisfy all constraints accumulated so far."""


class InadmissibleQuery(ValueError):
    """The model does not offer this measurement."""


class BranchMassError(RuntimeError):
    """A model gave a negative branch weight, or weights not summing to 1 (a model fault)."""


# Every accepted spelling of a target, mapped to its canonical name.
_SPELLINGS = {**{t: t for t in TARGETS}, **{p[::-1]: p for p in PAIRS}}
# Outcome keys of box-content queries, by number of boxes, in target order.
_CONTENT_KEYS = {n: tuple(map(",".join, product(("full", "empty"), repeat=n))) for n in (1, 2)}


class Query(namedtuple("Query", "side target")):
    """One side's measurement of a box or a pair, its pair spelled in canonical order."""

    __slots__ = ()

    def __new__(cls, side: str, target: str):
        if side not in SIDES:
            raise InadmissibleQuery(f"unknown side {side!r}")
        if target not in _SPELLINGS:
            raise InadmissibleQuery(f"unknown target {target!r}")
        return super().__new__(cls, side, _SPELLINGS[target])

    @property
    def boxes(self) -> tuple[str, ...]:
        return tuple(self.target)

    @property
    def is_pair(self) -> bool:
        return len(self.target) == 2


class Transition(NamedTuple):
    """The nonzero branches ``(outcome, key, next_state, p)`` of a prior or a
    step, and the thresholds ``ceil(cum * 2**64)`` of their cumulative weights."""

    branches: tuple[tuple[Outcome, str | None, object, Fraction], ...]
    thresholds: tuple[int, ...]

    def draw(self, rng: SplitMix64):
        """The first branch with ``u < threshold``, i.e. ``u / 2**64 < cum``."""
        return self.branches[bisect_right(self.thresholds, rng.next_u64())]


def _transition(source: str, triples: Iterable[tuple], key: Callable) -> Transition:
    """Build from ``(outcome, next_state, p)`` triples: nonnegative, summing to exactly 1."""
    branches, thresholds, total = [], [], Fraction(0)
    for outcome, state, p in triples:
        if p < 0:
            raise BranchMassError(f"{source}: negative branch weight {p}")
        if p:
            total += p
            branches.append((outcome, key(outcome), state, p))
            thresholds.append(-((-total.numerator << 64) // total.denominator))
    if total != 1:
        raise BranchMassError(f"{source}: branch weights sum to {total}, not 1")
    return Transition(tuple(branches), tuple(thresholds))


class Model:
    """Interface each toy model implements; sampling and enumeration read ``prior`` and ``transition``."""

    name: str = "model"

    def initial_states(self) -> list[tuple[object, Fraction]]:
        """Hidden-variable prior as explicit branches (probabilities sum to 1)."""
        raise NotImplementedError

    def admissible_targets(self, side: str) -> tuple[str, ...]:
        """Targets this side may query: every box and every pair unless overridden."""
        return TARGETS

    def step(self, state, query: Query) -> list[tuple[Outcome, object, Fraction]]:
        """All branches for one admissible query, each outcome listing the
        target's boxes in target order; raises InconsistentHistory when the
        query cannot be answered consistently.  Callers check admissibility."""
        raise NotImplementedError

    @cached_property
    def prior(self) -> Transition:
        """``initial_states()`` as a Transition, computed once per model instance."""
        return _transition(f"{self.name} prior", (((), *branch) for branch in self.initial_states()), lambda _: None)

    @cached_property
    def _transitions(self) -> dict:
        return {}

    def transition(self, state, query: Query) -> Transition:
        """``step(state, query)``, called once per key; an unanswerable query's
        message is raised again as a fresh InconsistentHistory on every hit."""
        key = (state, query)
        entry = self._transitions.get(key)
        if entry is None:
            try:
                triples = self.step(state, query)
            except InconsistentHistory as exc:
                entry = str(exc)
            else:
                source = f"{self.name} {query.side} {query.target} from {state}"
                entry = _transition(source, triples, lambda outcome: self.outcome_key(query, outcome))
            self._transitions[key] = entry
        if isinstance(entry, str):
            raise InconsistentHistory(entry)
        return entry

    def outcome_key(self, query: Query, outcome: Outcome) -> str:
        """Stable text form used in plan files and reports.

        Box contents read "full"/"empty", joined by commas in target order;
        glow-based models override this to name the glowing corner.
        """
        return ",".join("full" if value else "empty" for _, value in outcome)

    def outcome_keys(self, query: Query) -> tuple[str, ...]:
        """Every key ``outcome_key`` can give for this query."""
        return _CONTENT_KEYS[len(query.target)]

    def check_admissible(self, query: Query) -> None:
        if query.target not in self.admissible_targets(query.side):
            raise InadmissibleQuery(
                f"{self.name} does not admit target {query.target!r} on side {query.side}"
            )

    def box_by_box(self, state, query: Query, resolve) -> list[tuple[Outcome, object, Fraction]]:
        """Branches of a query whose boxes commit one at a time, in target order;
        ``resolve(state, side_index, box, query)`` lists (value, state, p) per box."""
        side_index = 0 if query.side == ALICE else 1
        branches: list[tuple[Outcome, object, Fraction]] = [((), state, Fraction(1))]
        for box in query.target:
            branches = [
                (outcome + ((box, value),), next_state, prob * p)
                for outcome, st, prob in branches
                for value, next_state, p in resolve(st, side_index, box, query)
            ]
        return branches


class Session:
    """Stateful sequential-measurement run over one seeded stream."""

    def __init__(self, model: Model, rng: SplitMix64):
        self.model = model
        self.rng = rng
        _, _, self.state, _ = model.prior.draw(rng)

    def measure(self, query: Query) -> Outcome:
        self.model.check_admissible(query)
        outcome, _, self.state, _ = self.model.transition(self.state, query).draw(self.rng)
        return outcome


# ---------------------------------------------------------------------------
# Query plans: ordered steps, optionally branching on an observed outcome.

class PlanStep(namedtuple("PlanStep", "side target branches query")):
    """One query of a plan, with follow-up steps per outcome key; building it
    validates the query (kept as ``query``) and the keys' uniqueness once."""

    __slots__ = ()

    def __new__(cls, side: str, target: str, branches: tuple[tuple[str, tuple[PlanStep, ...]], ...] = ()):
        query = Query(side, target)
        if len(dict(branches)) < len(branches):
            raise InadmissibleQuery(f"duplicate branch key under {side} {target}")
        return super().__new__(cls, side, target, branches, query)

    def substeps(self, key: str) -> tuple["PlanStep", ...]:
        for k, steps in self.branches:
            if k == key:
                return steps
        return ()


Plan = tuple[PlanStep, ...]


def plan_steps(plan: Iterable[PlanStep]) -> Iterator[PlanStep]:
    """Every step of a plan tree, depth first, unreachable ones included."""
    for step in plan:
        yield step
        for _, sub in step.branches:
            yield from plan_steps(sub)


def parse_plan(text: str, source: str = "<plan>") -> Plan:
    """Parse the plan grammar: one step per line as ``side target``, with
    branch lines ``on <outcome>: ...`` indented beneath a step."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].rstrip()
        if not stripped.strip():
            continue
        indent = len(stripped) - len(stripped.lstrip())
        if indent % 2:
            raise ValueError(f"{source}:{lineno}: indentation must be a multiple of two spaces")
        rows.append((lineno, indent // 2, stripped.strip()))

    def make_step(lineno: int, side: str, target: str, branches=()) -> PlanStep:
        try:
            return PlanStep(side, target, tuple(branches))
        except InadmissibleQuery as exc:
            raise ValueError(f"{source}:{lineno}: {exc}") from exc

    def parse_steps(pos: int, level: int) -> tuple[list[PlanStep], int]:
        steps: list[PlanStep] = []
        while pos < len(rows):
            lineno, lvl, content = rows[pos]
            if lvl < level:
                break
            if lvl > level:
                raise ValueError(f"{source}:{lineno}: unexpected indentation")
            if content.startswith("on "):
                raise ValueError(f"{source}:{lineno}: branch line without a preceding step")
            parts = content.split()
            if len(parts) != 2:
                raise ValueError(f"{source}:{lineno}: expected 'side target', got {content!r}")
            side, target = parts
            pos += 1
            branches = []
            while pos < len(rows) and rows[pos][1] == level + 1 and rows[pos][2].startswith("on "):
                blineno, _, bcontent = rows[pos]
                head, _, tail = bcontent[3:].partition(":")
                key = head.strip()
                if not key:
                    raise ValueError(f"{source}:{blineno}: empty branch outcome")
                pos += 1
                if tail.strip():
                    bparts = tail.strip().split()
                    if len(bparts) != 2:
                        raise ValueError(f"{source}:{blineno}: expected 'side target' after ':'")
                    sub = [make_step(blineno, *bparts)]
                else:
                    sub, pos = parse_steps(pos, level + 2)
                branches.append((key, tuple(sub)))
            steps.append(make_step(lineno, side, target, branches))
        return steps, pos

    steps, pos = parse_steps(0, 0)
    if pos != len(rows):
        raise ValueError(f"{source}:{rows[pos][0]}: unexpected indentation")
    return tuple(steps)


def load_plan(path: str | Path) -> Plan:
    path = Path(path)
    return parse_plan(path.read_text(), source=path.name)


class History(NamedTuple):
    """One complete branch of a plan: per-step outcomes and its exact probability.

    ``forbidden`` marks branches where a query had no consistent answer; the
    recorded probability is the mass the branching process assigns up to that
    point, so a complete enumeration still sums to 1.
    """

    steps: tuple[tuple[Query, Outcome | None], ...]
    probability: Fraction
    forbidden: bool = False


class Leaf:
    """A finished or forbidden branch of a compiled plan: its ``History``,
    with its path weight, and its signature, filled on its first sample."""

    __slots__ = ("history", "signature")

    def __init__(self, history: History):
        self.history = history
        self.signature: tuple | None = None


def _linked(steps: tuple, rest: tuple | None = None) -> tuple | None:
    """``steps`` pushed in front of a queue of linked ``(step, rest)`` pairs."""
    for step in reversed(steps):
        rest = (step, rest)
    return rest


def _unlinked(trail: tuple | None) -> tuple:
    """A trail of linked ``(earlier, (query, outcome))`` pairs as a History's steps."""
    steps = []
    while trail is not None:
        trail, taken = trail
        steps.append(taken)
    return tuple(reversed(steps))


class PlanTree:
    """A plan compiled against one model, as its root or any node below: the
    prior (``step`` None) or a reached step, with one cached Transition, the
    path weight ``num/den`` so far, and per branch a child built on first
    visit from the pending plan queue; a finished or forbidden child is a Leaf.
    The queue and the trail of steps taken are linked pairs that a node
    shares with its parent, so a plan's tree grows linearly with its length."""

    __slots__ = ("model", "thresholds", "branches", "children", "step", "rest", "trail", "num", "den")

    def __init__(self, model: Model, rest: tuple | None, transition: Transition | None = None,
                 step: PlanStep | None = None, trail: tuple | None = None, num: int = 1, den: int = 1):
        self.model = model
        self.branches, self.thresholds = model.prior if transition is None else transition
        self.children: list = [None] * len(self.branches)
        self.step, self.rest, self.trail, self.num, self.den = step, rest, trail, num, den

    def child(self, i: int):
        """Branch ``i``'s node, built on the first visit."""
        node = self.children[i]
        if node is not None:
            return node
        outcome, key, state, p = self.branches[i]
        step, model = self.step, self.model
        if step is None:
            queue, trail = self.rest, self.trail
        else:
            queue, trail = _linked(step.substeps(key), self.rest), (self.trail, (step.query, outcome))
        # Integer products, reduced once per leaf: cheaper than a Fraction product per node.
        num, den = self.num * p.numerator, self.den * p.denominator
        if queue is None:
            node = Leaf(History(_unlinked(trail), Fraction(num, den)))
        else:
            step, rest = queue
            try:
                transition = model.transition(state, step.query)
            except InconsistentHistory:
                node = Leaf(History(_unlinked((trail, (step.query, None))), Fraction(num, den), forbidden=True))
            else:
                node = PlanTree(model, rest, transition, step, trail, num, den)
        self.children[i] = node
        return node

    def sample(self, rng: SplitMix64, prior: int | None = None) -> Leaf:
        """One seeded leaf, one u64 and one binary search per level, with its
        signature; ``prior`` is the index of an already drawn prior branch."""
        node = self if prior is None else self.child(prior)
        while type(node) is PlanTree:
            i = bisect_right(node.thresholds, rng.next_u64())
            node = node.children[i] or node.child(i)
        if node.signature is None:
            node.signature = history_signature(node.history, self.model)
        return node


def compile_plan(model: Model, plan: Iterable[PlanStep]) -> PlanTree:
    """A fresh tree for this plan, after checking every step, unreachable
    ones included: the model must offer its query, and each branch key must
    be an outcome the query can give.  The caller holds the tree for as
    long as it enumerates or samples the plan."""
    plan = tuple(plan)
    for step in plan_steps(plan):
        query = step.query
        model.check_admissible(query)
        for key, _ in step.branches:
            if key not in model.outcome_keys(query):
                outcomes = "; ".join(model.outcome_keys(query))
                raise InadmissibleQuery(f"{query.side} {query.target} has no outcome {key!r} ({outcomes})")
    return PlanTree(model, _linked(plan))


def enumerate_histories(root: PlanTree) -> list[History]:
    """Exhaustive branch enumeration over hidden variables and outcomes: the
    histories of the leaves below ``root``, depth first, building every node
    and no signature.  A stack of (node, next child index) stands in for
    recursion, so a plan's length is bounded by memory, not by the
    interpreter's call depth."""
    leaves: list[History] = []
    stack = [(root, 0)]
    while stack:
        node, i = stack.pop()
        if i < len(node.children):
            stack.append((node, i + 1))
            child = node.child(i)
            if type(child) is Leaf:
                leaves.append(child.history)
            else:
                stack.append((child, 0))
    return leaves


def sample_history(model: Model, plan: Iterable[PlanStep], rng: SplitMix64) -> History:
    """One seeded run of a plan, checked whole before the first draw: one
    draw for the hidden state, then one per visited step; forbidden queries
    yield a flagged history, with weight 1."""
    leaf = compile_plan(model, plan).sample(rng).history
    return History(leaf.steps, Fraction(1), leaf.forbidden)


def history_signature(history: History, model: Model) -> tuple:
    """Hashable label for grouping sampled and enumerated histories."""
    return tuple(
        (query.side, query.target, "forbidden" if outcome is None else model.outcome_key(query, outcome))
        for query, outcome in history.steps
    )


def group_histories(histories: Iterable[History], key: Callable[[History], Hashable]) -> dict:
    """``key(history)`` -> total probability of the histories giving that key."""
    dist: dict = {}
    for history in histories:
        k = key(history)
        dist[k] = dist.get(k, Fraction(0)) + history.probability
    return dist


def exact_distribution(model: Model, plan: Iterable[PlanStep]) -> dict[tuple, Fraction]:
    """Signature -> exact probability over a complete enumeration."""
    return group_histories(enumerate_histories(compile_plan(model, plan)), lambda h: history_signature(h, model))
