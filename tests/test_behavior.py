from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from orthobox.behavior import (
    BehaviorError,
    BehaviorTable,
    MINUS,
    PLUS,
    chsh,
    correlators_csv,
    enumerate_pr_boxes,
    is_pr_box,
    no_signalling_check,
)
from orthobox.models import make_model
from orthobox.protocols import sweep_pr_interpretations
from orthobox.rng import SplitMix64

SETTINGS = (("a", "a'"), ("b", "b'"))
OUTCOMES = ((PLUS, MINUS), (PLUS, MINUS))


def product_box(p_alice, p_bob):
    """Setting-independent product of two biased coins."""
    table = {}
    for combo in product(*SETTINGS):
        table[combo] = {
            (PLUS, PLUS): p_alice * p_bob,
            (PLUS, MINUS): p_alice * (1 - p_bob),
            (MINUS, PLUS): (1 - p_alice) * p_bob,
            (MINUS, MINUS): (1 - p_alice) * (1 - p_bob),
        }
    return BehaviorTable(SETTINGS, OUTCOMES, table)


def deterministic_box(value_a=PLUS, value_b=PLUS):
    table = {combo: {(value_a, value_b): Fraction(1)} for combo in product(*SETTINGS)}
    return BehaviorTable(SETTINGS, OUTCOMES, table)


def local_deterministic_boxes():
    """All 16 strategies: each party picks an outcome per own setting."""
    boxes = []
    for fa in product((PLUS, MINUS), repeat=2):
        for fb in product((PLUS, MINUS), repeat=2):
            table = {}
            for i, sa in enumerate(SETTINGS[0]):
                for j, sb in enumerate(SETTINGS[1]):
                    table[(sa, sb)] = {(fa[i], fb[j]): Fraction(1)}
            boxes.append(BehaviorTable(SETTINGS, OUTCOMES, table))
    return boxes


class TestBehaviorTable:
    def test_distribution_must_sum_to_one(self):
        table = {combo: {(PLUS, PLUS): Fraction(1, 2)} for combo in product(*SETTINGS)}
        with pytest.raises(BehaviorError, match="sums to"):
            BehaviorTable(SETTINGS, OUTCOMES, table)

    def test_missing_setting_combo_rejected(self):
        table = {("a", "b"): {(PLUS, PLUS): Fraction(1)}}
        with pytest.raises(BehaviorError, match="missing distribution"):
            BehaviorTable(SETTINGS, OUTCOMES, table)

    def test_unknown_outcome_rejected(self):
        table = {combo: {(0, PLUS): Fraction(1)} for combo in product(*SETTINGS)}
        with pytest.raises(BehaviorError, match="unknown outcome"):
            BehaviorTable(SETTINGS, OUTCOMES, table)

    @pytest.mark.parametrize("outs", [(PLUS,), (PLUS, PLUS, PLUS)])
    def test_outcome_needs_one_entry_per_party(self, outs):
        table = {combo: {outs: Fraction(1)} for combo in product(*SETTINGS)}
        with pytest.raises(BehaviorError, match="one entry per party"):
            BehaviorTable(SETTINGS, OUTCOMES, table)

    def test_marginals(self):
        box = product_box(Fraction(1, 4), Fraction(1, 2))
        assert box.marginal(0, ("a", "b")) == {PLUS: Fraction(1, 4), MINUS: Fraction(3, 4)}


class TestValueSemantics:
    def test_entry_order_does_not_matter(self):
        box = product_box(Fraction(1, 3), Fraction(2, 7))
        reordered = {
            combo: dict(reversed(box.table[combo].items())) for combo in reversed(list(box.table))
        }
        clone = BehaviorTable(SETTINGS, OUTCOMES, reordered)
        assert clone == box
        assert hash(clone) == hash(box)

    def test_explicit_zero_entries_do_not_matter(self):
        box = deterministic_box(PLUS, MINUS)
        padded = {
            combo: {**{outs: Fraction(0) for outs in product(*OUTCOMES)}, (PLUS, MINUS): Fraction(1)}
            for combo in product(*SETTINGS)
        }
        clone = BehaviorTable(SETTINGS, OUTCOMES, padded)
        assert clone == box
        assert hash(clone) == hash(box)
        assert len({box, clone}) == 1

    def test_one_probability_differs(self):
        assert product_box(Fraction(1, 3), Fraction(2, 7)) != product_box(Fraction(1, 3), Fraction(3, 7))
        assert len(set(local_deterministic_boxes())) == 16

    def test_setting_label_differs(self):
        box = deterministic_box()
        settings = (("a", "a2"), SETTINGS[1])
        relabelled = BehaviorTable(
            settings, OUTCOMES, {combo: {(PLUS, PLUS): Fraction(1)} for combo in product(*settings)}
        )
        assert relabelled != box

    def test_outcome_order_differs(self):
        box = product_box(Fraction(1, 3), Fraction(2, 7))
        flipped = BehaviorTable(SETTINGS, ((MINUS, PLUS), OUTCOMES[1]), box.table)
        assert flipped != box

    def test_seer_sweep_collapses_to_eight_keys(self):
        sweep = sweep_pr_interpretations(make_model("seer"))
        assert len(sweep) == 16
        assert len(set(box for _, box in sweep)) == 8


class TestNoSignalling:
    def test_pr_boxes_pass(self):
        for box in enumerate_pr_boxes():
            assert no_signalling_check(box).ok

    def test_product_coins_pass(self):
        assert no_signalling_check(product_box(Fraction(1, 2), Fraction(1, 2))).ok

    def test_constructed_violation_with_witness(self):
        # Bob's marginal under a is (1,0), under a' it is (0,1).
        table = {
            ("a", "b"): {(PLUS, PLUS): Fraction(1)},
            ("a", "b'"): {(PLUS, PLUS): Fraction(1)},
            ("a'", "b"): {(PLUS, MINUS): Fraction(1)},
            ("a'", "b'"): {(PLUS, MINUS): Fraction(1)},
        }
        box = BehaviorTable(SETTINGS, OUTCOMES, table)
        result = no_signalling_check(box)
        assert not result.ok
        party, setting, others, first, second = result.witness
        assert party == 1
        assert first != second


class TestCHSH:
    def test_pr_boxes_saturate_four(self):
        for box in enumerate_pr_boxes():
            assert chsh(box).value == 4

    def test_deterministic_gives_two(self):
        assert chsh(deterministic_box()).value == 2

    def test_uniform_gives_zero(self):
        assert chsh(product_box(Fraction(1, 2), Fraction(1, 2))).value == 0

    def test_rejects_wrong_shape(self):
        # A one-party table is rejected when built; a two-party table with a
        # single setting on one side is rejected by CHSH itself.
        with pytest.raises(BehaviorError, match="exactly 2 parties"):
            BehaviorTable((("a",),), ((PLUS, MINUS),), {("a",): {(PLUS,): Fraction(1)}})
        table = {("a", y): {(PLUS, PLUS): Fraction(1)} for y in ("b", "b'")}
        box = BehaviorTable((("a",), ("b", "b'")), OUTCOMES, table)
        with pytest.raises(BehaviorError, match="two settings per party"):
            chsh(box)

    def test_value_at_most_four_always(self):
        for box in enumerate_pr_boxes() + local_deterministic_boxes():
            assert chsh(box).value <= 4

    @settings(max_examples=40, deadline=None)
    @given(weights=st.lists(st.integers(min_value=0, max_value=8), min_size=16, max_size=16))
    def test_local_mixtures_respect_two(self, weights):
        total = sum(weights)
        if total == 0:
            weights = [1] * 16
            total = 16
        locals_ = local_deterministic_boxes()
        table = {}
        for combo in product(*SETTINGS):
            dist = {}
            for w, box in zip(weights, locals_):
                for outs, p in box.table[combo].items():
                    dist[outs] = dist.get(outs, Fraction(0)) + Fraction(w, total) * p
            table[combo] = dist
        mixture = BehaviorTable(SETTINGS, OUTCOMES, table)
        assert chsh(mixture).value <= 2
        assert no_signalling_check(mixture).ok


class TestPrBoxes:
    def test_exactly_eight_distinct(self):
        boxes = enumerate_pr_boxes()
        assert len(boxes) == 8
        assert len(set(boxes)) == 8

    def test_uniform_marginals(self):
        for box in enumerate_pr_boxes():
            for combo in product(*SETTINGS):
                for party in (0, 1):
                    assert box.marginal(party, combo) == {
                        PLUS: Fraction(1, 2),
                        MINUS: Fraction(1, 2),
                    }

    def test_odd_anticorrelation_count(self):
        for box in enumerate_pr_boxes():
            anti = sum(1 for combo in box.table if box.correlator(combo) == -1)
            assert anti in (1, 3)

    def test_membership(self):
        for box in enumerate_pr_boxes():
            assert is_pr_box(box)
        assert not is_pr_box(deterministic_box())
        assert not is_pr_box(product_box(Fraction(1, 2), Fraction(1, 2)))

    def test_membership_ignores_setting_labels(self):
        box = enumerate_pr_boxes()[0]
        left = {"a": "x1", "a'": "x2"}
        right = {"b": "y1", "b'": "y2"}
        relabeled = BehaviorTable(
            (("x1", "x2"), ("y1", "y2")),
            OUTCOMES,
            {(left[c0], right[c1]): dict(d) for (c0, c1), d in box.table.items()},
        )
        assert is_pr_box(relabeled)

    def test_lsw_one_query_box_is_pr(self):
        # Same box on the two sides agrees, different boxes disagree.
        table = {}
        corr = {("a", "b"): 1, ("a", "b'"): -1, ("a'", "b"): -1, ("a'", "b'"): -1}
        for combo, e in corr.items():
            if e == 1:
                table[combo] = {(PLUS, PLUS): Fraction(1, 2), (MINUS, MINUS): Fraction(1, 2)}
            else:
                table[combo] = {(PLUS, MINUS): Fraction(1, 2), (MINUS, PLUS): Fraction(1, 2)}
        box = BehaviorTable(SETTINGS, OUTCOMES, table)
        assert is_pr_box(box)
        assert chsh(box).value == 4


def canonical_member(box):
    """The membership test the rule replaced: relabel the settings by
    position and compare the table with each of the eight canonical boxes."""
    canonical = enumerate_pr_boxes()
    if any(set(o) != {PLUS, MINUS} for o in box.outcomes):
        return False
    labels = canonical[0].settings
    relabeled = {
        tuple(labels[p][box.settings[p].index(s)] for p, s in enumerate(combo)): dict(dist)
        for combo, dist in box.table.items()
    }
    return any(relabeled == dict(c.table) for c in canonical)


PAIRS = list(product((PLUS, MINUS), repeat=2))


class TestPrBoxRule:
    """``is_pr_box`` by rule agrees with comparing against the canonical tables."""

    def test_every_uniform_two_point_table(self):
        # Each setting pair uniform over two of the four outcome pairs: 6^4 tables.
        supports = list(combinations(PAIRS, 2))
        members = 0
        for choice in product(supports, repeat=4):
            table = {
                combo: {outs: Fraction(1, 2) for outs in support}
                for combo, support in zip(product(*SETTINGS), choice)
            }
            box = BehaviorTable(SETTINGS, OUTCOMES, table)
            assert is_pr_box(box) == canonical_member(box)
            members += is_pr_box(box)
        assert members == 8

    def test_seeded_quarter_grid_tables(self):
        # Half the setting pairs get a uniform two-point distribution, the
        # rest four quarters spread at random; labels and outcome order vary.
        rng = SplitMix64(53)
        verdicts = []
        for _ in range(2000):
            settings = tuple(s[::-1] if rng.randrange(2) else s for s in SETTINGS)
            outcomes = tuple(o[::-1] if rng.randrange(2) else o for o in OUTCOMES)
            table = {}
            for combo in product(*settings):
                dist = dict.fromkeys(PAIRS, Fraction(0))
                if rng.randrange(2):
                    sign = (PLUS, MINUS)[rng.randrange(2)]
                    for a, b in PAIRS:
                        if a * b == sign:
                            dist[(a, b)] = Fraction(1, 2)
                else:
                    for _ in range(4):
                        dist[PAIRS[rng.randrange(4)]] += Fraction(1, 4)
                table[combo] = dist
            box = BehaviorTable(settings, outcomes, table)
            assert is_pr_box(box) == canonical_member(box)
            verdicts.append(is_pr_box(box))
        assert 50 < sum(verdicts) < 1950


class TestSerialization:
    def test_correlator_csv(self):
        box = enumerate_pr_boxes()[0]
        text = correlators_csv(box)
        lines = text.strip().splitlines()
        assert lines[0] == "setting_a,setting_b,E"
        assert len(lines) == 5
        assert lines[1].split(",")[2] in ("1", "-1")

