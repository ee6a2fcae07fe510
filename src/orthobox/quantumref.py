"""Small complex-matrix reference checks with plain quantum mechanics.

Grounds the two structural assumptions the toy models play with: a
resolution of the identity measured piecewise in any order gives
order-independent statistics, and the maximally entangled state of two
three-level systems perfectly correlates matching rank-one projections while
keeping each marginal at 1/3.  Also checks that a two-step sequential
procedure (project on C, then measure A or B inside the branch) assembles
into a single resolution of the identity.

This module runs on floats with one global tolerance, 1e-12 in max-entry
norm; it is a reference check, not part of the exact-rational core.
"""

from __future__ import annotations

import importlib.util
import sys
from typing import NamedTuple, Sequence


def _lazy_numpy():
    """numpy, imported on first attribute access (the stdlib ``LazyLoader``
    recipe), so importing this module does not pay for numpy; numpy itself
    when it is already loaded."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()

TOLERANCE = 1e-12
# Labels of a spin-one frame's three directions, in vector order.
DIRECTIONS = "xyz"


class QuantumRefError(ValueError):
    pass


def seeded_generator(seed: int) -> np.random.Generator:
    """numpy's default generator, which every random check here draws from."""
    return np.random.default_rng(seed)


def _max_entry(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def projector_deviation(p: np.ndarray) -> float:
    """How far a matrix is from being an orthogonal projector."""
    return max(_max_entry(p @ p - p), _max_entry(p - p.conj().T))


class ProjectorPair:
    """A two-valued observable split into its +1 and -1 eigenprojectors."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: np.ndarray, minus: np.ndarray):
        self.plus = plus = np.asarray(plus, dtype=complex)
        self.minus = minus = np.asarray(minus, dtype=complex)
        if plus.shape != minus.shape or plus.ndim != 2 or plus.shape[0] != plus.shape[1]:
            raise QuantumRefError("projector pair needs two square matrices of equal size")
        deviation = self.deviation()
        if deviation > TOLERANCE:
            raise QuantumRefError(
                f"not a projector decomposition of the identity (deviation {deviation:.3e})"
            )

    def deviation(self) -> float:
        identity = np.eye(self.plus.shape[0])
        return max(
            projector_deviation(self.plus),
            projector_deviation(self.minus),
            _max_entry(self.plus + self.minus - identity),
        )


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projector_pair(dim: int, rng: np.random.Generator) -> ProjectorPair:
    rank = int(rng.integers(1, dim))
    u = random_unitary(dim, rng)
    d = np.diag([1.0 + 0j] * rank + [0.0 + 0j] * (dim - rank))
    plus = u @ d @ u.conj().T
    return ProjectorPair(plus, np.eye(dim) - plus)


def povm_identity_check(a: ProjectorPair | np.ndarray, b, c) -> float:
    """Deviation of C+ A+ C+ + C+ A- C+ + C- B+ C- + C- B- C- from the identity.

    For genuine projector pairs this is an algebraic identity; a large value
    flags that some input is an effect rather than a projection.  Accepts
    either :class:`ProjectorPair` objects or raw (plus, minus) array pairs.
    """

    def split(x):
        if isinstance(x, ProjectorPair):
            return x.plus, x.minus
        plus, minus = x
        return np.asarray(plus, dtype=complex), np.asarray(minus, dtype=complex)

    a_plus, a_minus = split(a)
    b_plus, b_minus = split(b)
    c_plus, c_minus = split(c)
    dims = {m.shape for m in (a_plus, a_minus, b_plus, b_minus, c_plus, c_minus)}
    if len(dims) != 1:
        raise QuantumRefError("projector pairs must share one dimension")
    total = (
        c_plus @ a_plus @ c_plus
        + c_plus @ a_minus @ c_plus
        + c_minus @ b_plus @ c_minus
        + c_minus @ b_minus @ c_minus
    )
    return _max_entry(total - np.eye(a_plus.shape[0]))


# ---------------------------------------------------------------------------
# Spin-1 frame: three rank-1 projectors summing to the identity


def _canonical_directions() -> np.ndarray:
    # Zero-spin eigenstates of the squared spin components along x, y, z in
    # the standard |+1>, |0>, |-1> basis.
    s = 1 / np.sqrt(2)
    return np.array(
        [
            [s, 0, -s],  # x
            [s, 0, s],   # y
            [0, 1, 0],   # z
        ],
        dtype=complex,
    )


class SpinOneFrame:
    """Rank-1 projectors onto the spin-0 states of three orthogonal directions."""

    __slots__ = ("vectors",)  # rows are the three unit vectors, shape (3, 3)

    def __init__(self, vectors: np.ndarray):
        self.vectors = vectors = np.asarray(vectors, dtype=complex)
        if vectors.shape != (3, 3):
            raise QuantumRefError("frame needs three vectors in dimension 3")
        gram = vectors.conj() @ vectors.T
        if _max_entry(gram - np.eye(3)) > TOLERANCE:
            raise QuantumRefError("frame vectors must be orthonormal")

    def projector(self, index: int) -> np.ndarray:
        v = self.vectors[index]
        return np.outer(v, v.conj())

    @staticmethod
    def canonical() -> "SpinOneFrame":
        return SpinOneFrame(_canonical_directions())


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def luders_sequence(frame: SpinOneFrame, order: Sequence[int] | str, state: np.ndarray) -> dict[str, float]:
    """Measure the three squared-spin components one by one in the given order.

    Each step is a two-outcome measurement updating the state by projection;
    the registered direction is the one whose spin-0 branch fired.  Returns
    the distribution over which direction registered ("none" collects the
    residual branch, zero for exact projectors).
    """
    indices = tuple(DIRECTIONS.find(ch) for ch in order) if isinstance(order, str) else tuple(order)
    if sorted(indices) != [0, 1, 2]:
        raise QuantumRefError(f"order must permute the three directions, got {order!r}")
    state = np.asarray(state, dtype=complex)
    if abs(np.trace(state) - 1) > 1e-9:
        raise QuantumRefError("state must have unit trace")

    result = {label: 0.0 for label in DIRECTIONS}
    identity = np.eye(3)

    def walk(rho: np.ndarray, weight: float, remaining: tuple[int, ...]):
        if not remaining:
            result["none"] = result.get("none", 0.0) + weight
            return
        index, rest = remaining[0], remaining[1:]
        p = frame.projector(index)
        hit = float(np.trace(p @ rho).real)
        if hit > 0:
            # Once a spin-0 branch fires, later projections in the sequence
            # are orthogonal to the collapsed state and cannot fire again.
            result[DIRECTIONS[index]] += weight * hit
        q = identity - p
        rho_miss = q @ rho @ q
        miss_weight = float(np.trace(rho_miss).real)
        if miss_weight > 0:
            walk(rho_miss / miss_weight, weight * miss_weight, rest)

    walk(state, 1.0, indices)
    result.setdefault("none", 0.0)
    return result


class CorrelationReport(NamedTuple):
    pairing: str
    joint: np.ndarray          # joint[i, j] = P(left registers i, right registers j)
    marginals: tuple[float, float, float]
    correlations: tuple[float, float, float]  # per-direction +-1 correlation coefficient
    perfectly_correlated: bool


def entangled_spin1_correlations(frame: SpinOneFrame, pairing: str = "matched") -> CorrelationReport:
    """Joint statistics of matching projections on two entangled three-level systems.

    ``matched`` pairs the frame basis with itself (uniform superposition of
    |k>|k> over the frame's eigenbasis); ``conjugate`` pairs it with its
    complex conjugate.  For real frames the two coincide.  The report records
    which convention produced the correlations instead of normalizing it away.
    """
    if pairing not in ("matched", "conjugate"):
        raise QuantumRefError(f"unknown pairing {pairing!r}")
    left = frame.vectors
    right = left if pairing == "matched" else left.conj()
    psi = sum(np.kron(left[k], right[k]) for k in range(3)) / np.sqrt(3)

    joint = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            amp = np.vdot(np.kron(left[i], left[j]), psi)
            joint[i, j] = float(np.abs(amp) ** 2)

    marginals = tuple(float(joint[i, :].sum()) for i in range(3))
    correlations = []
    for i in range(3):
        p_both = joint[i, i]
        p_left = joint[i, :].sum()
        p_right = joint[:, i].sum()
        p_neither = 1 - p_left - p_right + p_both
        e = p_both + p_neither - (p_left - p_both) - (p_right - p_both)
        correlations.append(float(e))
    perfect = all(abs(e - 1) <= TOLERANCE for e in correlations)
    return CorrelationReport(pairing, joint, marginals, tuple(correlations), perfect)
