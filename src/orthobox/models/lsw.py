"""Collapse boxes: the first measurement disentangles both sides at once.

Before any measurement the two triples of boxes form one entangled whole.
The first single-box reading anywhere comes out full or empty with
probability 1/2 and instantly writes the same definite content vector on
both sides: the measured box keeps its value and every other box takes the
opposite one.  From then on each side is on its own: a measurement reads the
side's current vector and then rewrites that side only, again setting all
unmeasured boxes opposite to the value just read, so any two boxes measured
in a row on one side hold exactly one gem between them.

Matching measurements on the two sides agree only until local re-collapses
drive the vectors apart, and nothing a party does after the initial collapse
touches the other side's vector.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .base import BOXES, Model, Query


class LswState(NamedTuple):
    # None until the first measurement collapses both sides.
    vectors: tuple[tuple[bool, bool, bool], tuple[bool, bool, bool]] | None


def _induced(box: str, value: bool) -> tuple[bool, bool, bool]:
    return tuple(value if b == box else not value for b in BOXES)


class LswModel(Model):
    name = "lsw"

    def initial_states(self):
        return [(LswState(None), Fraction(1))]

    def step(self, state: LswState, query: Query):
        return self.box_by_box(state, query, self._measure_one)

    def _measure_one(self, state: LswState, side_index: int, box: str, query: Query):
        if state.vectors is None:
            results = []
            for value in (True, False):
                vec = _induced(box, value)
                results.append((value, LswState((vec, vec)), Fraction(1, 2)))
            return results
        value = state.vectors[side_index][BOXES.index(box)]
        vectors = list(state.vectors)
        vectors[side_index] = _induced(box, value)
        return [(value, LswState(tuple(vectors)), Fraction(1))]
