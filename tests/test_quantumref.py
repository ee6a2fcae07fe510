import numpy as np
import pytest

from orthobox.quantumref import (
    CorrelationReport,
    DIRECTIONS,
    ProjectorPair,
    QuantumRefError,
    SpinOneFrame,
    TOLERANCE,
    entangled_spin1_correlations,
    luders_sequence,
    povm_identity_check,
    random_density,
    random_projector_pair,
    random_unitary,
)

ORDERS = ("xyz", "xzy", "yxz", "yzx", "zxy", "zyx")


def random_frame(rng: np.random.Generator) -> SpinOneFrame:
    """The canonical frame turned by a Haar-random unitary."""
    return SpinOneFrame(SpinOneFrame.canonical().vectors @ random_unitary(3, rng).T)


class TestProjectorPair:
    def test_random_pairs_validate(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 4):
            pair = random_projector_pair(dim, rng)
            assert pair.deviation() <= TOLERANCE

    def test_effect_rejected(self):
        half = 0.5 * np.eye(3)
        with pytest.raises(QuantumRefError, match="projector"):
            ProjectorPair(half, np.eye(3) - half)

    def test_non_summing_pair_rejected(self):
        p = np.diag([1.0, 0.0, 0.0])
        with pytest.raises(QuantumRefError):
            ProjectorPair(p, p)

    def test_unitary_is_unitary(self):
        rng = np.random.default_rng(1)
        u = random_unitary(4, rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12


class TestPovmIdentity:
    def test_holds_for_random_triples(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            triple = [random_projector_pair(dim, rng) for _ in range(3)]
            assert povm_identity_check(*triple) <= TOLERANCE

    def test_trivial_split(self):
        dim = 3
        identity = ProjectorPair(np.eye(dim), np.zeros((dim, dim)))
        assert povm_identity_check(identity, identity, identity) == 0

    def test_effect_input_breaks_identity(self):
        # A non-projective middle "measurement" leaves a visible residue.
        rng = np.random.default_rng(3)
        a = random_projector_pair(3, rng)
        b = random_projector_pair(3, rng)
        half = 0.5 * np.eye(3)
        deviation = povm_identity_check(a, b, (half, np.eye(3) - half))
        assert deviation > 1e-6

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        with pytest.raises(QuantumRefError, match="dimension"):
            povm_identity_check(
                random_projector_pair(2, rng),
                random_projector_pair(3, rng),
                random_projector_pair(3, rng),
            )


class TestSpinOneFrame:
    def test_canonical_resolves_identity(self):
        frame = SpinOneFrame.canonical()
        total = sum(frame.projector(i) for i in range(3))
        assert np.max(np.abs(total - np.eye(3))) <= TOLERANCE

    def test_random_frames_orthonormal(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            frame = random_frame(rng)
            gram = frame.vectors.conj() @ frame.vectors.T
            assert np.max(np.abs(gram - np.eye(3))) <= 1e-12

    def test_non_orthogonal_rejected(self):
        bad = np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
        with pytest.raises(QuantumRefError):
            SpinOneFrame(bad)


class TestLudersSequence:
    def test_all_orders_agree_on_random_states(self):
        rng = np.random.default_rng(11)
        frame = SpinOneFrame.canonical()
        for _ in range(50):
            state = random_density(3, rng)
            dists = [luders_sequence(frame, order, state) for order in ORDERS]
            for other in dists[1:]:
                for key in dists[0]:
                    assert abs(dists[0][key] - other[key]) <= TOLERANCE

    def test_eigenstate_is_certain(self):
        frame = SpinOneFrame.canonical()
        v = frame.vectors[0]
        state = np.outer(v, v.conj())
        for order in ORDERS:
            dist = luders_sequence(frame, order, state)
            assert abs(dist["x"] - 1) <= TOLERANCE

    def test_maximally_mixed_is_uniform(self):
        frame = SpinOneFrame.canonical()
        dist = luders_sequence(frame, "zyx", np.eye(3) / 3)
        for d in ("x", "y", "z"):
            assert abs(dist[d] - 1 / 3) <= TOLERANCE
        assert dist["none"] <= TOLERANCE

    def test_residual_branch_is_empty(self):
        rng = np.random.default_rng(12)
        frame = random_frame(rng)
        dist = luders_sequence(frame, (0, 1, 2), random_density(3, rng))
        assert abs(sum(dist.values()) - 1) <= 1e-9
        assert dist["none"] <= 1e-9

    def test_bad_order_rejected(self):
        frame = SpinOneFrame.canonical()
        with pytest.raises(QuantumRefError):
            luders_sequence(frame, (0, 0, 1), np.eye(3) / 3)

    def test_unknown_direction_rejected(self):
        frame = SpinOneFrame.canonical()
        with pytest.raises(QuantumRefError, match="'xyw'"):
            luders_sequence(frame, "xyw", np.eye(3) / 3)

    def test_string_orders_name_the_directions(self):
        rng = np.random.default_rng(13)
        frame = random_frame(rng)
        state = random_density(3, rng)
        dist = luders_sequence(frame, "zxy", state)
        assert list(dist) == [*DIRECTIONS, "none"]
        assert dist == luders_sequence(frame, (2, 0, 1), state)

    def test_unnormalized_state_rejected(self):
        frame = SpinOneFrame.canonical()
        with pytest.raises(QuantumRefError, match="unit trace"):
            luders_sequence(frame, "xyz", np.eye(3))


class TestEntangledCorrelations:
    def test_marginals_and_perfect_correlation(self):
        frame = SpinOneFrame.canonical()
        for pairing in ("matched", "conjugate"):
            report = entangled_spin1_correlations(frame, pairing)
            assert isinstance(report, CorrelationReport)
            for m in report.marginals:
                assert abs(m - 1 / 3) <= TOLERANCE
            assert report.perfectly_correlated
            for e in report.correlations:
                assert abs(e - 1) <= TOLERANCE

    def test_matched_pairing_for_rotated_frames(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            frame = random_frame(rng)
            report = entangled_spin1_correlations(frame, "matched")
            assert report.perfectly_correlated
            assert abs(sum(report.marginals) - 1) <= 1e-12

    def test_joint_is_diagonal_for_matched(self):
        frame = SpinOneFrame.canonical()
        report = entangled_spin1_correlations(frame)
        off_diagonal = report.joint - np.diag(np.diag(report.joint))
        assert np.max(np.abs(off_diagonal)) <= TOLERANCE

    def test_unknown_pairing_rejected(self):
        with pytest.raises(QuantumRefError):
            entangled_spin1_correlations(SpinOneFrame.canonical(), "swapped")
