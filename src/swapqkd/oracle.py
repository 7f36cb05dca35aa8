"""Dense state-vector oracle for the symbolic Bell-pair engine.

Everything here recomputes, from raw complex amplitudes and the Born rule,
what bell.py tracks symbolically. It is deliberately independent: no
function in this module consults `swap_rule` or a PairTable label, so
agreement between the two layers is evidence, not tautology.

Index convention (the dominant source of bugs in code like this, so it is
pinned here and in the tests): amplitudes are indexed big-endian by
position in `qubit_order`. For qubit_order (1, 2, 3) the basis index
0b011 means qubit 1 in |0>, qubits 2 and 3 in |1>.
"""

from __future__ import annotations

from dataclasses import dataclass

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

PAULI_MATRICES: dict[PauliOp, np.ndarray] = {
    PauliOp.I: np.eye(2, dtype=complex),
    PauliOp.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliOp.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    PauliOp.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
}


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the computational basis of `qubit_order`."""

    amplitudes: np.ndarray
    qubit_order: tuple[int, ...]

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
        amps = np.kron(amps, BELL_VECTORS[label])
    return StateVector(amps, tuple(order))


def _as_tensor(state: StateVector) -> np.ndarray:
    return state.amplitudes.reshape([2] * state.n_qubits)


def _pair_front(state: StateVector, a: int, b: int) -> np.ndarray:
    """Amplitudes as a (4, rest) matrix with qubits (a, b) as the row index."""
    pa, pb = state.position(a), state.position(b)
    t = np.moveaxis(_as_tensor(state), (pa, pb), (0, 1))
    return t.reshape(4, -1)


def _pair_front_inverse(m: np.ndarray, state: StateVector, a: int, b: int) -> np.ndarray:
    """Undo `_pair_front`: rebuild the flat amplitude vector."""
    n = state.n_qubits
    pa, pb = state.position(a), state.position(b)
    t = m.reshape([2, 2] + [2] * (n - 2))
    return np.moveaxis(t, (0, 1), (pa, pb)).reshape(-1)


def oracle_bsm(
    state: StateVector,
    a: int,
    b: int,
    randomness: RandomStream | None = None,
    force: BellLabel | None = None,
) -> tuple[BellLabel, StateVector, np.ndarray]:
    """Bell-operator measurement on (a, b) by explicit projection.

    Returns (outcome, post-measurement state, the four Born weights). The
    outcome is sampled from the weights unless `force` replays a specific
    branch; forcing a zero-probability branch is an internal error.
    """
    m = _pair_front(state, a, b)
    branches = {label: BELL_VECTORS[label].conj() @ m for label in ALL_LABELS}
    probs = np.array(
        [float(np.real(np.vdot(branches[lab], branches[lab]))) for lab in ALL_LABELS]
    )
    if force is not None:
        outcome = force
    else:
        if randomness is None:
            raise ValueError("measurement needs a random stream or a forced outcome")
        outcome = ALL_LABELS[int(randomness.choice(4, p=probs / probs.sum()))]
    p = probs[outcome.index]
    if p < 1e-12:
        raise ZeroProbabilityBranch(
            f"branch {outcome} on ({a},{b}) has probability {p:.3e}"
        )
    post = np.outer(BELL_VECTORS[outcome], branches[outcome] / np.sqrt(p))
    amps = _pair_front_inverse(post, state, a, b)
    return outcome, StateVector(amps, state.qubit_order), probs


class ZeroProbabilityBranch(RuntimeError):
    """Forced measurement branch has no amplitude; indicates a logic bug."""


def bell_label_of(
    state: StateVector, a: int, b: int, tol: float = 1e-9
) -> BellLabel | None:
    """Read back which Bell state (a, b) are in, or None if they are not.

    The reduced density matrix of (a, b) is compared against each Bell
    state; a fidelity within `tol` of 1 identifies the label. Collapsed or
    cross-pair qubit choices give a mixed reduced state and return None.
    """
    m = _pair_front(state, a, b)
    rho = m @ m.conj().T
    for label in ALL_LABELS:
        v = BELL_VECTORS[label]
        fidelity = float(np.real(v.conj() @ rho @ v))
        if fidelity >= 1.0 - tol:
            return label
    return None


def oracle_apply_pauli(state: StateVector, q: int, op: PauliOp) -> StateVector:
    """Apply a single-qubit Pauli matrix to q."""
    pos = state.position(q)
    t = np.moveaxis(_as_tensor(state), pos, 0)
    t = np.tensordot(PAULI_MATRICES[op], t, axes=([1], [0]))
    amps = np.moveaxis(t, 0, pos).reshape(-1)
    return StateVector(amps, state.qubit_order)
