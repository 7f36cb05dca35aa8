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

Stacks: amplitudes of shape (k, 2**n) are k states on one shared
`qubit_order`, and every function acts on each along the leading axis.
Per-state results come back per state: weights (k, 4), `bell_label_of` a
tuple, `norm` an array. On a stack, `oracle_bsm`'s `force` and
`oracle_apply_pauli`'s `op` may be one value for every state or a sequence
of k values, one per state. Sampling (`randomness`) takes a single state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

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
_BELL_KETS = _BELL_BRAS.conj()

PAULI_MATRICES: dict[PauliOp, np.ndarray] = {
    PauliOp.I: np.eye(2, dtype=complex),
    PauliOp.X: np.array([[0, 1], [1, 0]], dtype=complex),
    PauliOp.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    PauliOp.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
}

# Row op.toggle is the transpose of op's matrix.
_PAULIS_T = np.array([PAULI_MATRICES[op].T for op in sorted(PauliOp, key=lambda op: op.toggle)])

@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the computational basis of `qubit_order`,
    shape (2**n,) or a stack (k, 2**n); the amplitude array is made read-only."""

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

    def norm(self) -> float | np.ndarray:
        norms = np.linalg.norm(self.amplitudes, axis=-1)
        return norms if norms.ndim else float(norms)


def prepare(tables: PairTable | Sequence[PairTable]) -> StateVector:
    """Tensor product of the table's Bell states, pairs ordered by low qubit;
    several tables with one pair layout give a stack, one state per table."""
    stacked = not isinstance(tables, PairTable)
    entries = [table.pairs() for table in (tables if stacked else [tables])]
    layout = [(a, b) for a, b, _ in entries[0]] if entries else []
    if len(layout) > MAX_QUBITS // 2:
        raise ValueError(f"at most {MAX_QUBITS // 2} pairs ({MAX_QUBITS} qubits) supported")
    if not layout:
        raise ValueError("cannot prepare an empty table")
    if any([(a, b) for a, b, _ in pairs] != layout for pairs in entries):
        raise ValueError("stacked tables must pair the same qubits")
    codes = [[label.index for *_, label in pairs] for pairs in entries]
    amps = np.ones((len(entries), 1), dtype=complex)
    for kets in _BELL_KETS[codes].swapaxes(0, 1):  # each pair's (k, 4) kets
        amps = (amps[:, :, None] * kets[:, None, :]).reshape(len(entries), -1)  # kron per state
    return StateVector(amps if stacked else amps[0], tuple(q for pair in layout for q in pair))


@lru_cache(maxsize=None)
def _gather(n_qubits: int, *positions: int) -> tuple[np.ndarray, np.ndarray]:
    """(take, back): flat indices such that `amplitudes[..., take]` has the
    bits of `positions` last, in that order, and `reordered[..., back]` undoes
    it. Both are shared by every caller, so they are read-only."""
    t = np.arange(2**n_qubits).reshape([2] * n_qubits)
    last = range(n_qubits - len(positions), n_qubits)
    take = np.moveaxis(t, positions, last).reshape(-1)
    back = np.moveaxis(t, last, positions).reshape(-1)
    take.setflags(write=False)
    back.setflags(write=False)
    return take, back


def _bell_branches(state: StateVector, a: int, b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(branches, weights, back): column i of each (rest, 4) state in
    `branches` is <v_i| on (a, b) applied to it, for v_i = ALL_LABELS[i];
    `weights` are the squared column norms; `back` is `_gather`'s inverse."""
    take, back = _gather(state.n_qubits, state.position(a), state.position(b))
    amps = state.amplitudes
    branches = amps.take(take, axis=-1).reshape(-1, 4) @ _BELL_BRAS.T
    branches = branches.reshape(*amps.shape[:-1], -1, 4)
    return branches, np.add.reduce((branches * branches.conj()).real, axis=-2), back


def oracle_bsm(state: StateVector, a: int, b: int, randomness: RandomStream | None = None,
               force: BellLabel | Sequence[BellLabel] | None = None
               ) -> tuple[BellLabel | Sequence[BellLabel], StateVector, np.ndarray]:
    """Bell-operator measurement on (a, b) by explicit projection.

    Returns (outcome, post-measurement state, the four Born weights). The
    outcome is sampled from the weights unless `force` replays a specific
    branch (on a stack, one for all or one per state); forcing a
    zero-probability branch is an internal error.
    """
    branches, probs, back = _bell_branches(state, a, b)
    if force is None:
        if randomness is None:
            raise ValueError("measurement needs a random stream or a forced outcome")
        force = ALL_LABELS[int(randomness.choice(4, p=probs / probs.sum()))]
    if isinstance(force, BellLabel):
        rows, codes, kets = ..., force.index, BELL_VECTORS[force]
    elif (len(force),) != probs.shape[:-1]:
        raise ValueError(f"{len(force)} forced outcomes for amplitudes {state.amplitudes.shape}")
    else:
        codes = np.array([label.index for label in force])
        rows, kets = np.arange(len(codes)), _BELL_KETS[codes][:, None]
    p = probs[rows, codes]
    if (low := p.min()) < 1e-12:
        outcome = force if isinstance(force, BellLabel) else force[int(p.argmin())]
        raise ZeroProbabilityBranch(f"branch {outcome} on ({a},{b}) has probability {low:.3e}")
    post = branches[rows, :, codes][..., None] * (kets / np.sqrt(p)[..., None, None])
    post = post.reshape(state.amplitudes.shape).take(back, axis=-1)
    return force, StateVector(post, state.qubit_order), probs


class ZeroProbabilityBranch(RuntimeError):
    """Forced measurement branch has no amplitude; indicates a logic bug."""


def bell_label_of(state: StateVector, a: int, b: int,
                  tol: float = 1e-9) -> BellLabel | None | tuple[BellLabel | None, ...]:
    """Read back which Bell state (a, b) are in, or None if they are not.

    The reduced density matrix rho of (a, b) is compared against each Bell
    state v: <v|rho|v> is the squared norm of <v| applied to the state. A
    fidelity within `tol` of 1 identifies the label. Collapsed or
    cross-pair qubit choices give a mixed reduced state and return None.
    """
    hits = _bell_branches(state, a, b)[1] >= 1.0 - tol
    labels = tuple(ALL_LABELS[row.index(True)] if True in row else None
                   for row in hits.reshape(-1, 4).tolist())
    return labels if hits.ndim > 1 else labels[0]


def oracle_apply_pauli(state: StateVector, q: int, op: PauliOp | Sequence[PauliOp]) -> StateVector:
    """Apply a single-qubit Pauli matrix to q; on a stack, one op per state or one for all."""
    take, back = _gather(state.n_qubits, state.position(q))
    amps = state.amplitudes
    if isinstance(op, PauliOp):
        matrices = _PAULIS_T[op.toggle]
    elif (len(op),) != amps.shape[:-1]:
        raise ValueError(f"{len(op)} Pauli ops for amplitudes {amps.shape}")
    else:
        matrices = _PAULIS_T[[each.toggle for each in op]]
    moved = amps.take(take, axis=-1).reshape(*amps.shape[:-1], -1, 2) @ matrices
    return StateVector(moved.reshape(amps.shape).take(back, axis=-1), state.qubit_order)
