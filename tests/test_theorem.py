from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orthobox import CertificateError, theorem
from orthobox.theorem import (
    AlphaBeta,
    TheoremError,
    TripleMarginals,
    signalling_gap,
    sweep_csv,
    sweep_gap,
    worst_case_params,
)
from reference_theorem import case_marginals, conditional_probs, nosig_constraint_residual, valid_grid

THIRDS = TripleMarginals(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
HALVES = TripleMarginals(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def rational_triples(max_den=60):
    def build(draw_nums):
        d1, n1, d2, n2, d3, n3 = draw_nums
        return (Fraction(n1, d1), Fraction(n2, d2), Fraction(n3, d3))

    return (
        st.tuples(
            st.integers(2, max_den), st.integers(1, max_den - 1),
            st.integers(2, max_den), st.integers(1, max_den - 1),
            st.integers(2, max_den), st.integers(1, max_den - 1),
        )
        .map(build)
        .filter(lambda t: all(0 < x < 1 for x in t))
        .filter(lambda t: t[0] + t[1] <= 1 and t[0] + t[2] <= 1 and t[1] + t[2] <= 1)
    )


class TestConditionals:
    def test_zero_marginal(self):
        c = conditional_probs(Fraction(0), Fraction(1, 2))
        assert c == (0, 1, 0, 1)

    def test_hand_computed(self):
        c = conditional_probs(Fraction(1, 5), Fraction(3, 10))
        assert c.one_given_zero == Fraction(2, 7)
        assert c.zero_given_zero == Fraction(5, 7)

    def test_exhaustive_pair(self):
        c = conditional_probs(Fraction(1, 2), Fraction(1, 2))
        assert c.one_given_zero == 1
        assert c.zero_given_zero == 0

    def test_orthogonality_forces_exclusion(self):
        c = conditional_probs(Fraction(1, 4), Fraction(1, 3))
        assert c.one_given_one == 0
        assert c.zero_given_one == 1

    def test_conditioning_on_certain_event_rejected(self):
        with pytest.raises(TheoremError):
            conditional_probs(Fraction(0), Fraction(1))


class TestConstraintResidual:
    def test_hand_checked_zero(self):
        ab = AlphaBeta(Fraction(0), Fraction(3, 4), (1, 2, 3))
        assert nosig_constraint_residual(ab, THIRDS) == 0

    def test_outcome_independent_values_always_satisfy(self):
        for t in (THIRDS, HALVES, TripleMarginals(Fraction(1, 5), Fraction(2, 5), Fraction(1, 4))):
            v = t.p1 / (1 - t.p2)
            ab = AlphaBeta(v, v, (1, 2, 3))
            assert nosig_constraint_residual(ab, t) == 0

    def test_all_zero_misses_by_half(self):
        ab = AlphaBeta(Fraction(0), Fraction(0), (1, 2, 3))
        assert nosig_constraint_residual(ab, THIRDS) == Fraction(-1, 2)

    def test_indices_validated(self):
        with pytest.raises(TheoremError):
            AlphaBeta(Fraction(0), Fraction(0), (1, 1, 3))

    def test_validation_messages(self):
        with pytest.raises(TheoremError, match=r"^indices must be a permutation of \(1, 2, 3\), got \(1, 1, 3\)$"):
            AlphaBeta(Fraction(0), Fraction(0), (1, 1, 3))
        for alpha, beta in ((Fraction(-1, 2), Fraction(0)), (Fraction(0), Fraction(3, 2))):
            with pytest.raises(TheoremError, match=r"^alpha and beta must lie in \[0, 1\]$"):
                AlphaBeta(alpha, beta, (1, 2, 3))

    def test_values_become_fractions(self):
        ab = AlphaBeta(0, "1/2", (1, 2, 3))
        assert ab == AlphaBeta(Fraction(0), Fraction(1, 2), (1, 2, 3))
        assert type(ab.alpha) is Fraction and type(ab.beta) is Fraction


class TestCaseMarginals:
    def mirror(self, t):
        v = t.p2 / (1 - t.p1)
        return AlphaBeta(v, v, (2, 1, 3))

    def test_case_one_first_marginal_always_zero(self):
        for t in (THIRDS, HALVES):
            cm = case_marginals(t, self.mirror(t), worst_case_params(t))
            assert cm.case_i[0] == 0

    def test_hand_checked_case_four(self):
        ab12 = AlphaBeta(Fraction(0), Fraction(3, 4), (1, 2, 3))
        cm = case_marginals(THIRDS, self.mirror(THIRDS), ab12)
        assert cm.case_iv[0] == Fraction(3, 8)

    def test_vanishing_factor_at_halves(self):
        ab12 = AlphaBeta(Fraction(1), Fraction(1), (1, 2, 3))
        cm = case_marginals(HALVES, self.mirror(HALVES), ab12)
        assert cm.case_iv[0] == 0

    def test_invalid_parameters_rejected(self):
        bad = AlphaBeta(Fraction(0), Fraction(0), (1, 2, 3))
        with pytest.raises(TheoremError, match="averaging constraint"):
            case_marginals(THIRDS, self.mirror(THIRDS), bad)

    def test_averaging_over_third_outcome_restores_marginal(self):
        # Choosing the first proposition in both branches is useless: the
        # weighted cases I and III average back to p1 exactly.
        for t in (THIRDS, HALVES, TripleMarginals(Fraction(1, 6), Fraction(1, 3), Fraction(2, 5))):
            cm = case_marginals(t, self.mirror(t), worst_case_params(t))
            assert t.p3 * cm.case_i[0] + (1 - t.p3) * cm.case_iii[0] == t.p1


class TestWorstCase:
    def test_thirds(self):
        wc = worst_case_params(THIRDS)
        assert (wc.alpha, wc.beta) == (0, Fraction(3, 4))

    def test_halves_clamped(self):
        wc = worst_case_params(HALVES)
        assert (wc.alpha, wc.beta) == (1, 1)

    def test_small_p1_limit(self):
        t = TripleMarginals(Fraction(1, 1000), Fraction(1, 3), Fraction(1, 3))
        wc = worst_case_params(t)
        assert wc.alpha == 0
        assert wc.beta == Fraction(1, 1000) / (Fraction(2, 3) * Fraction(2, 3))

    @settings(max_examples=300, deadline=None)
    @given(triple=rational_triples())
    def test_always_satisfies_constraint_in_range(self, triple):
        t = TripleMarginals(*triple)
        wc = worst_case_params(t)
        assert 0 <= wc.alpha <= 1
        assert 0 <= wc.beta <= 1
        assert nosig_constraint_residual(wc, t) == 0


class TestSignallingGap:
    def test_thirds_exact(self):
        assert signalling_gap(THIRDS) == Fraction(1, 12)

    def test_halves_exact(self):
        assert signalling_gap(HALVES) == Fraction(1, 2)

    def test_positive_on_grid_20(self):
        rows = sweep_gap(20)
        assert rows
        assert all(row.gap > 0 for row in rows)
        by_point = {(r.p1, r.p2, r.p3): r.gap for r in rows}
        assert by_point[(Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))] > 0

    def test_closed_form_when_unclamped(self):
        for t in (THIRDS, TripleMarginals(Fraction(1, 5), Fraction(1, 4), Fraction(1, 3))):
            expected = t.p1 - t.p1 * (1 - t.p2 - t.p3) / ((1 - t.p2) * (1 - t.p3))
            assert signalling_gap(t) == expected

    def test_inequality_chain_by_cross_multiplication(self):
        # p1 (1-p2-p3) (1-p2)(1-p3) < p1 over common denominators reduces to
        # p2 p3 > 0; checked on exact rationals across the grid.
        for t in valid_grid(12):
            lhs = t.p1 * (1 - t.p2 - t.p3) * 1
            rhs = t.p1 * (1 - t.p2) * (1 - t.p3)
            assert lhs < rhs

    def test_zero_marginal_rejected(self):
        with pytest.raises(TheoremError):
            TripleMarginals(Fraction(0), Fraction(1, 2), Fraction(1, 2))

    def test_nonpositive_gap_is_a_certificate_fault(self):
        # Valid marginals make every gap positive, so one that is not is the
        # program's fault (exit 1), not the caller's input error (exit 2).
        with pytest.raises(CertificateError, match="^signalling gap 0 is not positive$") as raised:
            theorem._worst_case(0, 1, 1, 3)
        assert not isinstance(raised.value, ValueError)

    def test_triple_validation_messages(self):
        with pytest.raises(TheoremError, match=r"^p2 = 1 not strictly inside \(0, 1\)$"):
            TripleMarginals(Fraction(1, 2), 1, "3/2")
        with pytest.raises(TheoremError, match=r"^p1\+p3 = 6/5 exceeds 1$"):
            TripleMarginals(Fraction(3, 5), Fraction(1, 5), Fraction(3, 5))
        assert tuple(TripleMarginals("1/3", 0.5, Fraction(1, 4))) == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 4))

    def test_matches_the_four_case_protocol(self):
        # Bob's p(A1=1) is p3 * 0 (case i/ii) plus (1 - p3) times case iv's
        # A1 column; the (2,1,3) slot is never read, so any valid pair fills it.
        for t in valid_grid(14):
            mirror = t.p2 / (1 - t.p1)
            cases = case_marginals(t, AlphaBeta(mirror, mirror, (2, 1, 3)), worst_case_params(t))
            assert signalling_gap(t) == t.p1 - (1 - t.p3) * cases.case_iv[0]
        # Every sweep column: the worst case meets the averaging constraint,
        # and bob_p1 and gap are what the four cases make of it.
        for row in sweep_gap(14):
            t = TripleMarginals(row.p1, row.p2, row.p3)
            worst = AlphaBeta(row.alpha_worst, row.beta_worst, (1, 2, 3))
            assert nosig_constraint_residual(worst, t) == 0
            mirror = t.p2 / (1 - t.p1)
            cases = case_marginals(t, AlphaBeta(mirror, mirror, (2, 1, 3)), worst)
            assert row.bob_p1 == (1 - t.p3) * cases.case_iv[0]
            assert row.gap == row.p1 - row.bob_p1


class TestSweep:
    def test_contains_thirds_row(self):
        rows = sweep_gap(3)
        match = [r for r in rows if (r.p1, r.p2, r.p3) == (Fraction(1, 3),) * 3]
        assert len(match) == 1
        assert match[0].gap == Fraction(1, 12)
        assert match[0].beta_worst == Fraction(3, 4)

    def test_degenerate_grid_empty(self):
        with pytest.raises(TheoremError):
            sweep_gap(1)

    def test_csv_schema_and_rendering(self):
        rows = sweep_gap(4)
        text = sweep_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "p1,p2,p3,beta_worst,alpha_worst,bob_p1,gap"
        assert len(lines) == len(rows) + 1
        exact = sweep_csv(rows, exact=True)
        assert "1/4" in exact
