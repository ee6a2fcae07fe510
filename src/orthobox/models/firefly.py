"""Entangled firefly boxes: a hidden half-side decides which corner glows.

Each party owns a translucent triangular box with corners A, B, C.  A
measurement approaches one side, so only the two corners of that side can
glow; single-corner measurements do not exist.  The firefly occupies one of
the six half-sides, identified by (side, adjacent corner).  The glowing
corner is the half's own corner when the firefly sits on the approached
side, and otherwise the corner the firefly's side shares with the approached
one.  That rule is the paper's geometry: with side length 1 and perimeter
coordinates A=0, B=1, C=2, the halves' midpoints lie at 1/4, 3/4, ..., 11/4,
and the rule names the corner of the approached side nearest the firefly's
midpoint along the perimeter, never a tie.

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

# flavor -> (does the measurer cut the corner, does the partner follow every measurement)
_FLAVOR_RULES = {
    "mirror": (False, False),
    "alice_cuts_bob_local": (True, False),
    "alice_cuts_bob_mirror": (True, True),
}
FLAVORS = tuple(_FLAVOR_RULES)

Half = tuple[str, str]  # (side, adjacent corner)

HALVES: tuple[Half, ...] = tuple((side, corner) for side in PAIRS for corner in side)


def nearest_corner(half: Half, side: str) -> str:
    """The corner of ``side`` that glows for a firefly on ``half``."""
    on, corner = half
    if on == side:
        return corner
    return side[0] if side[0] in on else side[1]


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
        if flavor not in _FLAVOR_RULES:
            raise ValueError(f"unknown firefly flavor {flavor!r}; pick one of {FLAVORS}")
        self.flavor = flavor
        self.cuts, self.partner_follows = _FLAVOR_RULES[flavor]

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

    def step(self, state: FireflyState, query: Query):
        by_alice = query.side == "alice"
        mine, theirs = (state.alice, state.bob) if by_alice else (state.bob, state.alice)
        glow = nearest_corner(mine, query.target)
        outcome: Outcome = tuple((box, box == glow) for box in query.boxes)

        cut = (other_side(glow, query.target), glow)
        moved = cut if self.cuts else (query.target, glow)
        if self.partner_follows or not state.measured:
            theirs = cut
        alice, bob = (moved, theirs) if by_alice else (theirs, moved)
        return [(outcome, FireflyState(alice, bob, True), Fraction(1))]
