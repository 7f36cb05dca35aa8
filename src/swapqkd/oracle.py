"""Dense state-vector oracle for the symbolic Bell-pair engine.

Everything here recomputes, from raw complex amplitudes and the Born rule,
what bell.py tracks symbolically. It is deliberately independent: no
function in this module consults `swap_rule` or a PairTable label, so
agreement between the two layers is evidence, not tautology.

Index convention (the dominant source of bugs in code like this, so it is
pinned here and in the tests): amplitudes are indexed big-endian by
position in `qubit_order`. For qubit_order (1, 2, 3) the basis index
0b011 means qubit 1 in |0>, qubits 2 and 3 in |1>. `_gather` is the one
place that turns positions into flat indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bell import ALL_LABELS, BellLabel, PairTable, PauliOp
from .rng import RandomStream

MAX_QUBITS = 8

_RSQRT2 = 1.0 / np.sqrt(2.0)

# |xz> amplitudes over basis (00, 01, 10, 11) of an ordered qubit pair.
BELL_VECTORS: dict[BellLabel, np.ndarray] = {
    BellLabel(0, 0): np.array([1, 0, 0, 1], dtype=complex) * _RSQRT2,
    BellLabel(0, 1): np.array([1, 0, 0, -1], dtype=complex) * _RSQRT2,
    BellLabel(1, 0): np.array([0, 1, 1, 0], dtype=complex) * _RSQRT2,
    BellLabel(1, 1): np.array([0, 1, -1, 0], dtype=complex) * _RSQRT2,
}

# Row i is the bra <v| of ALL_LABELS[i].
_BELL_BRAS = np.array([BELL_VECTORS[label].conj() for label in ALL_LABELS])

PAULI_MATRICES: dict[PauliOp, np.ndarray] = {
    PauliOp.I: np.eye(2, dtype=complex),
    PauliOp.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliOp.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    PauliOp.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
}


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the computational basis of `qubit_order`;
    the amplitude array is made read-only."""

    amplitudes: np.ndarray
    qubit_order: tuple[int, ...]

    def __post_init__(self):
        self.amplitudes.setflags(write=False)

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_order)

    def position(self, q: int) -> int:
        try:
            return self.qubit_order.index(q)
        except ValueError:
            raise ValueError(f"qubit {q} is not in this state") from None

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def prepare(pairs: PairTable) -> StateVector:
    """Tensor product of the table's Bell states, pairs ordered by low qubit."""
    entries = pairs.pairs()
    if len(entries) > MAX_QUBITS // 2:
        raise ValueError(f"at most {MAX_QUBITS // 2} pairs ({MAX_QUBITS} qubits) supported")
    if not entries:
        raise ValueError("cannot prepare an empty table")
    order: list[int] = []
    amps = np.ones(1, dtype=complex)
    for a, b, label in entries:
        order.extend((a, b))
        amps = np.outer(amps, BELL_VECTORS[label]).reshape(-1)  # kron of two vectors
    return StateVector(amps, tuple(order))


@lru_cache(maxsize=None)
def _gather(n_qubits: int, *positions: int) -> tuple[np.ndarray, np.ndarray]:
    """(front, back): flat indices such that `amplitudes[front]` has the
    bits of `positions` leading, in that order, and `reordered[back]` undoes
    it. Both are shared by every caller, so they are read-only."""
    t = np.arange(2**n_qubits).reshape([2] * n_qubits)
    lead = range(len(positions))
    front = np.moveaxis(t, positions, lead).reshape(-1)
    back = np.moveaxis(t, lead, positions).reshape(-1)
    front.setflags(write=False)
    back.setflags(write=False)
    return front, back


def _bell_branches(state: StateVector, a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(branches, weights, back): row i of the (4, rest) `branches` is
    <v_i| on (a, b) applied to the state, for v_i = ALL_LABELS[i]; `weights`
    are the squared row norms; `back` is `_gather`'s inverse for (a, b)."""
    front, back = _gather(state.n_qubits, state.position(a), state.position(b))
    branches = _BELL_BRAS @ state.amplitudes[front].reshape(4, -1)
    parts = branches.view(float)  # real and imaginary parts side by side
    return branches, np.add.reduce(parts * parts, axis=1), back


def oracle_bsm(state: StateVector, a: int, b: int, randomness: RandomStream | None = None,
               force: BellLabel | None = None) -> tuple[BellLabel, StateVector, np.ndarray]:
    """Bell-operator measurement on (a, b) by explicit projection.

    Returns (outcome, post-measurement state, the four Born weights). The
    outcome is sampled from the weights unless `force` replays a specific
    branch; forcing a zero-probability branch is an internal error.
    """
    branches, probs, back = _bell_branches(state, a, b)
    if force is not None:
        outcome = force
    elif randomness is None:
        raise ValueError("measurement needs a random stream or a forced outcome")
    else:
        outcome = ALL_LABELS[int(randomness.choice(4, p=probs / probs.sum()))]
    p = probs[outcome.index]
    if p < 1e-12:
        raise ZeroProbabilityBranch(f"branch {outcome} on ({a},{b}) has probability {p:.3e}")
    post = np.outer(BELL_VECTORS[outcome], branches[outcome.index] / np.sqrt(p))
    return outcome, StateVector(post.reshape(-1)[back], state.qubit_order), probs


class ZeroProbabilityBranch(RuntimeError):
    """Forced measurement branch has no amplitude; indicates a logic bug."""


def bell_label_of(state: StateVector, a: int, b: int, tol: float = 1e-9) -> BellLabel | None:
    """Read back which Bell state (a, b) are in, or None if they are not.

    The reduced density matrix rho of (a, b) is compared against each Bell
    state v: <v|rho|v> is the squared norm of <v| applied to the state. A
    fidelity within `tol` of 1 identifies the label. Collapsed or
    cross-pair qubit choices give a mixed reduced state and return None.
    """
    _, fidelities, _ = _bell_branches(state, a, b)
    for label, fidelity in zip(ALL_LABELS, fidelities.tolist()):
        if fidelity >= 1.0 - tol:
            return label
    return None


def oracle_apply_pauli(state: StateVector, q: int, op: PauliOp) -> StateVector:
    """Apply a single-qubit Pauli matrix to q."""
    front, back = _gather(state.n_qubits, state.position(q))
    moved = PAULI_MATRICES[op] @ state.amplitudes[front].reshape(2, -1)
    return StateVector(moved.reshape(-1)[back], state.qubit_order)
