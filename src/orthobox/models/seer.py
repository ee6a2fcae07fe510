"""Retrocausal gem boxes: contents resolve lazily, consistent with the session.

Two tables of three boxes share their contents (same-label boxes always
agree across sides).  On each side, the first two boxes it opens form a
constrained pair distributed as P(full, empty) = p_i, P(empty, full) = p_j,
P(both empty) = 1 - p_i - p_j and never both full; a third box opened on a
side is unconstrained beyond the cross-side agreement.

Contents commit one box at a time, in query order.  A box forced two
different values at once (for instance committed empty through the other
side while its pair partner's emptiness forces it full) has no consistent
content, and the query raises :class:`InconsistentHistory`: the filling that
produced the earlier outcomes could not have coexisted with this query.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .base import BOXES, InconsistentHistory, Model, PAIRS, Query


@dataclass(frozen=True)
class SeerState:
    # Box contents are shared across sides, so commitments are per label.
    committed: tuple[tuple[str, bool], ...]
    # Distinct boxes opened so far on each side, in first-opened order.
    opened: tuple[tuple[str, ...], tuple[str, ...]]

    def value(self, box: str) -> bool | None:
        return dict(self.committed).get(box)


class SeerModel(Model):
    name = "seer"

    def __init__(self, marginals: Mapping[str, Fraction] | None = None):
        if marginals is None:
            marginals = {b: Fraction(1, 2) for b in BOXES}
        self.marginals = {b: Fraction(marginals[b]) for b in BOXES}
        for b, p in self.marginals.items():
            if not 0 < p < 1:
                raise ValueError(f"marginal of {b} must be strictly inside (0, 1)")
        for pair in PAIRS:
            x, y = pair
            if self.marginals[x] + self.marginals[y] > 1:
                raise ValueError(f"marginals of pair {pair} sum past 1")

    def initial_states(self):
        return [(SeerState((), ((), ())), Fraction(1))]

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
        p_box = self.marginals[box]

        forced: set[bool] = set()
        existing = state.value(box)
        if existing is not None:
            forced.add(existing)
        conditional = None
        if partner is not None:
            partner_value = state.value(partner)
            if partner_value is True:
                forced.add(False)  # orthogonal pair, never both full
            elif partner_value is False:
                q = p_box / (1 - self.marginals[partner])
                if q == 1:
                    forced.add(True)  # exhaustive pair: partner empty means full
                else:
                    conditional = q

        if len(forced) > 1:
            raise InconsistentHistory(
                f"box {box} on side {query.side} is forced both full and empty"
            )

        def committed_with(value: bool):
            committed = state.committed if existing is not None else state.committed + ((box, value),)
            new_opened = list(state.opened)
            if box not in opened:
                new_opened[side_index] = opened + (box,)
            return SeerState(committed, tuple(new_opened))

        if forced:
            value = forced.pop()
            return [(value, committed_with(value), Fraction(1))]
        q = conditional if conditional is not None else p_box
        return [
            (True, committed_with(True), q),
            (False, committed_with(False), 1 - q),
        ]
