"""The integer theorem sweep against the per-point ``Fraction`` path it
replaced (``reference_theorem.py``): the same rows, the same worst cases and
gaps on random rational triples, and the same error texts."""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

import reference_theorem as reference
from orthobox import theorem
from orthobox import CertificateError
from orthobox.theorem import TheoremError, TripleMarginals, signalling_gap, sweep_gap, worst_case_params
from test_theorem import rational_triples


@pytest.mark.parametrize("denominator", range(2, 31))
def test_sweep_matches_reference_row_for_row(denominator):
    rows = sweep_gap(denominator)
    expected = reference.sweep_gap(denominator)
    assert rows == expected
    # Equal values could still render differently if a field were an int.
    assert all(type(value) is Fraction for row in rows for value in row)


def test_grid_points_are_shared_values():
    rows = sweep_gap(12)
    assert len({id(row.p1) for row in rows}) == len({row.p1 for row in rows})


@settings(max_examples=100, deadline=None)
@given(triple=rational_triples())
def test_worst_case_and_gap_match_reference(triple):
    t = TripleMarginals(*triple)
    assert worst_case_params(t) == reference.worst_case_params(t)
    assert signalling_gap(t) == reference.signalling_gap(t)


@pytest.mark.parametrize("denominator", [1, 0, -4])
def test_invalid_grid_same_error(denominator):
    with pytest.raises(TheoremError) as expected:
        list(reference.valid_grid(denominator))
    with pytest.raises(TheoremError) as got:
        sweep_gap(denominator)
    assert str(got.value) == str(expected.value) == "grid denominator must be at least 2"


@pytest.mark.parametrize(
    "triple",
    [
        (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(1, 2), Fraction(1, 3)),
        (Fraction(1, 2), Fraction(2, 3), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(1, 3), Fraction(5, 6)),
    ],
)
def test_invalid_triple_same_error(triple):
    with pytest.raises(TheoremError) as got:
        signalling_gap(TripleMarginals(*triple))
    with pytest.raises(TheoremError) as expected:
        reference.signalling_gap(TripleMarginals(*triple))
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("a, b, c, n", [(0, 1, 1, 3), (0, 2, 1, 5), (0, 3, 3, 6)])
def test_nonpositive_gap_same_error(a, b, c, n):
    # Only a zero p1 reaches the check; TripleMarginals rejects it first.
    point = SimpleNamespace(p1=Fraction(a, n), p2=Fraction(b, n), p3=Fraction(c, n))
    with pytest.raises(CertificateError) as expected:
        reference.signalling_gap(point)
    with pytest.raises(CertificateError) as got:
        theorem._worst_case(a, b, c, n)
    assert str(got.value) == str(expected.value) == "signalling gap 0 is not positive"
