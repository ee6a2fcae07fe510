"""Entangled firefly boxes: a hidden perimeter position decides which corner glows.

Each party owns a translucent triangular box with corners A, B, C (side
length 1, perimeter coordinates A=0, B=1, C=2).  A measurement approaches
one side, so only the two corners of that side can glow; single-corner
measurements do not exist.  The firefly occupies one of the six half-sides,
identified by (side, adjacent corner) with midpoints at 1/4, 3/4, ..., 11/4;
the corner of the approached side nearest to the firefly's current midpoint
(along the perimeter) glows.  With these midpoints no distance ties occur.

Both fireflies start on the same half-side, uniformly over the six (an
alternative with independent starting halves synchronized by the first
measurement would give the same one-measurement statistics; it is not
implemented).  A measurement settles the measuring firefly into the glowing corner's half of
the approached side; "cutting the corner" means settling into that corner's
half of its *other* side instead.  The flavors differ in who cuts and when
the partner firefly is dragged along:

* ``mirror``: measurer settles, and the session's first measurement drags
  the partner to the cut position, so matching measurements agree perfectly;
  afterwards each firefly only responds to its own side.  One party's later
  choices never touch the other's firefly, so nothing is signalled.
* ``alice_cuts_bob_mirror``: every measurement by either party moves both
  fireflies together to the cut position.  Because the partner keeps
  following later measurements, an adaptive second measurement steers the
  other side's outcomes: perfect correlation survives, no-signalling does not.
* ``alice_cuts_bob_local``: the first measurement moves both fireflies to
  the cut position; afterwards each measurement cuts the measurer's own
  firefly only.  The sides drift apart like two separately collapsing
  states: no signalling, but matching measurements can disagree once a side
  has measured twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .base import InadmissibleQuery, Model, Outcome, PAIRS, Query

FLAVORS = ("mirror", "alice_cuts_bob_local", "alice_cuts_bob_mirror")

_CORNER_COORD = {"A": Fraction(0), "B": Fraction(1), "C": Fraction(2)}
_PERIMETER = Fraction(3)

Half = tuple[str, str]  # (side, adjacent corner)

HALVES: tuple[Half, ...] = tuple((side, corner) for side in PAIRS for corner in side)


def half_midpoint(half: Half) -> Fraction:
    side, corner = half
    start = {"AB": Fraction(0), "BC": Fraction(1), "CA": Fraction(2)}[side]
    # the half adjacent to the side's first corner spans [start, start+1/2]
    return start + (Fraction(1, 4) if corner == side[0] else Fraction(3, 4))


def perimeter_distance(x: Fraction, y: Fraction) -> Fraction:
    d = abs(x - y) % _PERIMETER
    return min(d, _PERIMETER - d)


def nearest_corner(half: Half, side: str) -> str:
    """Which corner of ``side`` is closest to the firefly's half-side midpoint."""
    mid = half_midpoint(half)
    c1, c2 = side
    d1 = perimeter_distance(mid, _CORNER_COORD[c1])
    d2 = perimeter_distance(mid, _CORNER_COORD[c2])
    if d1 == d2:
        raise AssertionError(f"distance tie at {half} looking at {side}")
    return c1 if d1 < d2 else c2


def other_side(corner: str, side: str) -> str:
    """The second side adjacent to ``corner``."""
    candidates = [s for s in PAIRS if corner in s and s != side]
    return candidates[0]


@dataclass(frozen=True)
class FireflyState:
    alice: Half
    bob: Half
    measured: bool = False


class FireflyModel(Model):
    name = "firefly"

    def __init__(self, flavor: str = "mirror"):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown firefly flavor {flavor!r}; pick one of {FLAVORS}")
        self.flavor = flavor

    def initial_states(self):
        return [(FireflyState(h, h), Fraction(1, 6)) for h in HALVES]

    def admissible_targets(self, side: str):
        return PAIRS

    def outcome_key(self, query: Query, outcome: Outcome) -> str:
        glowing = [box for box, lit in outcome if lit]
        return glowing[0]

    def outcome_keys(self, query: Query) -> tuple[str, ...]:
        return tuple(query.target)

    def check_admissible(self, query: Query) -> None:
        if not query.is_pair:
            raise InadmissibleQuery(
                "a corner cannot be observed alone; approach a side (AB, BC or CA)"
            )
        super().check_admissible(query)

    def step(self, state: FireflyState, query: Query):
        mine = state.alice if query.side == "alice" else state.bob
        glow = nearest_corner(mine, query.target)
        outcome: Outcome = tuple((box, box == glow) for box in query.boxes)

        settle = (query.target, glow)
        cut = (other_side(glow, query.target), glow)
        if self.flavor == "mirror":
            moved = settle
            partner = cut if not state.measured else None
        elif self.flavor == "alice_cuts_bob_mirror":
            moved = cut
            partner = cut
        else:  # alice_cuts_bob_local
            moved = cut
            partner = cut if not state.measured else None

        alice, bob = state.alice, state.bob
        if query.side == "alice":
            alice = moved
            if partner is not None:
                bob = partner
        else:
            bob = moved
            if partner is not None:
                alice = partner
        return [(outcome, FireflyState(alice, bob, True), Fraction(1))]
