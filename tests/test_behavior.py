from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from orthobox.behavior import (
    BehaviorError,
    BehaviorTable,
    MINUS,
    PLUS,
    box_from_json,
    box_to_json,
    chsh,
    correlators_csv,
    enumerate_pr_boxes,
    is_pr_box,
    no_signalling_check,
)

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
        assert len({box_to_json(b) for b in boxes}) == 8

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


class TestSerialization:
    def test_round_trip_exact(self):
        for box in enumerate_pr_boxes():
            clone = box_from_json(box_to_json(box))
            assert clone.table == box.table
            assert clone.settings == box.settings

    def test_round_trip_odd_rationals(self):
        box = product_box(Fraction(1, 3), Fraction(2, 7))
        clone = box_from_json(box_to_json(box))
        assert clone.table == box.table

    def test_correlator_csv(self):
        box = enumerate_pr_boxes()[0]
        text = correlators_csv(box)
        lines = text.strip().splitlines()
        assert lines[0] == "setting_a,setting_b,E"
        assert len(lines) == 5
        assert lines[1].split(",")[2] in ("1", "-1")

