"""Entanglement-swapping QKD simulator.

Layers:

  rng         seeded, splittable random streams and chosen draws
  bell        symbolic Bell-pair algebra (labels, swap rule, Pauli frame)
  oracle      dense state-vector cross-check of the symbolic layer
  verify      symbolic-against-dense sweeps over every swap and Pauli case
  knowledge   per-pair label-visibility ledger
  protocol    Alice/Bob round state machine, inference, key accumulation
  adversary   intercepting eavesdropper built on the same swap primitive
  analysis    eavesdropping test, detection-probability curves, rates
  transcript  transcript file emission and checked parsing, CSV projection
  cli         `swapqkd` command-line front end
"""

from .bell import ALL_LABELS, BellLabel, PairTable, PauliOp, pauli_correction, swap_rule
from .protocol import Session, SessionConfig, run_session

__version__ = "0.1.0"

__all__ = [
    "ALL_LABELS",
    "BellLabel",
    "PairTable",
    "PauliOp",
    "Session",
    "SessionConfig",
    "pauli_correction",
    "run_session",
    "swap_rule",
    "__version__",
]
