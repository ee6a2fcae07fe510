"""Retrocausal gem boxes: contents resolve lazily, consistent with the session.

Two tables of three boxes share their contents (same-label boxes always
agree across sides).  On each side, the first two boxes it opens form a
constrained pair distributed as P(full, empty) = p_i, P(empty, full) = p_j,
P(both empty) = 1 - p_i - p_j and never both full; a third box opened on a
side is unconstrained beyond the cross-side agreement.

Contents commit one box at a time, in query order.  A box is full with
probability q = P(full | its pair partner): its marginal p_box while the
partner is absent or uncommitted, 0 once the partner is full, and
p_box / (1 - p_partner) once it is empty.  A committed box keeps its value
unless that value has weight 0 under q (for instance committed empty through
the other side while its partner's emptiness makes q = 1); then the query
raises :class:`InconsistentHistory`: the filling that produced the earlier
outcomes could not have coexisted with this query.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .base import BOXES, InconsistentHistory, Model, PAIRS, Query


class SeerState(NamedTuple):
    # Box contents in BOXES order, shared across sides; None until committed.
    contents: tuple[bool | None, bool | None, bool | None]
    # Distinct boxes opened so far on each side, in first-opened order.
    opened: tuple[tuple[str, ...], tuple[str, ...]]


class SeerModel(Model):
    name = "seer"

    def __init__(self, marginals: Mapping[str, Fraction] | None = None):
        if marginals is None:
            marginals = {b: Fraction(1, 2) for b in BOXES}
        if set(marginals) != set(BOXES):
            raise ValueError(f"seer marginals need exactly the boxes {', '.join(BOXES)}, got {list(marginals)}")
        self.marginals = {b: Fraction(marginals[b]) for b in BOXES}
        for b, p in self.marginals.items():
            if not 0 < p < 1:
                raise ValueError(f"marginal of {b} must be strictly inside (0, 1)")
        for pair in PAIRS:
            x, y = pair
            if self.marginals[x] + self.marginals[y] > 1:
                raise ValueError(f"marginals of pair {pair} sum past 1")

    def initial_states(self):
        return [(SeerState((None, None, None), ((), ())), Fraction(1))]

    def step(self, state: SeerState, query: Query):
        return self.box_by_box(state, query, self._resolve)

    def _pair_partner(self, opened: tuple[str, ...], box: str, query: Query) -> str | None:
        """The other member of this side's constrained pair, if the box is in it."""
        if box in opened:
            position = opened.index(box)
        else:
            position = len(opened)
        if position == 1:
            return opened[0]
        if position == 0 and query.is_pair:
            other = query.target.replace(box, "")
            return other
        return None

    def _resolve(self, state: SeerState, side_index: int, box: str, query: Query):
        """Branches (value, next_state, probability) for committing one box."""
        opened = state.opened[side_index]
        partner = self._pair_partner(opened, box, query)
        q = self.marginals[box]  # P(box full) given its pair partner's content
        partner_value = None if partner is None else state.contents[BOXES.index(partner)]
        if partner_value is True:
            q = 0  # orthogonal pair, never both full
        elif partner_value is False:
            q /= 1 - self.marginals[partner]

        sides = list(state.opened)
        if box not in opened:
            sides[side_index] = opened + (box,)
        new_opened = tuple(sides)
        i = BOXES.index(box)
        existing = state.contents[i]
        if existing is not None:
            if q == (0 if existing else 1):  # the committed value has weight 0
                raise InconsistentHistory(
                    f"box {box} on side {query.side} is forced both full and empty"
                )
            return [(existing, SeerState(state.contents, new_opened), Fraction(1))]
        return [  # a zero weight is dropped, so box_by_box never resolves from an impossible state
            (value, SeerState(state.contents[:i] + (value,) + state.contents[i + 1:], new_opened), p)
            for value, p in ((True, q), (False, 1 - q))
            if p
        ]
