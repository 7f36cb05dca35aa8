"""Exhaustive symbolic-vs-oracle equivalence sweeps.

Used by the `verify-oracle` CLI subcommand and reused by the test suite.
Each function returns a list of discrepancy strings; empty means verified.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .bell import ALL_LABELS, BellLabel, PairTable, PauliOp, swap_rule
from . import oracle

SwapRule = Callable[[BellLabel, BellLabel, BellLabel], BellLabel]

# Closed under one swap measurement: each row lists the four-digit strings
# (pair label, pair label) whose componentwise XOR across all four digits is
# the same, and a measurement maps a left entry to exactly the entries of
# its own row. Frozen here as printed data so the sweep checks the rule
# against a fixed artifact rather than against itself.
SWAP_TABLE_ROWS: tuple[frozenset[str], ...] = (
    frozenset({"0000", "0101", "1010", "1111"}),
    frozenset({"0001", "0100", "1011", "1110"}),
    frozenset({"0010", "0111", "1000", "1101"}),
    frozenset({"0011", "0110", "1001", "1100"}),
)


_ROW_OF = {entry: row for row in SWAP_TABLE_ROWS for entry in row}


def check_swap_table(rule: SwapRule = swap_rule) -> list[str]:
    """All 16 initial label pairs reproduce their own table row, as sets: the
    four produced entries have distinct outcomes, so all in the row is the row."""
    problems = []
    for left, right in itertools.product(ALL_LABELS, repeat=2):
        expected = _ROW_OF[left.text + right.text]
        produced = [o.text + rule(left, right, o).text for o in ALL_LABELS]
        if not expected.issuperset(produced):
            problems.append(
                f"initial {left}{right}: produced {sorted(produced)}, "
                f"expected {sorted(expected)}"
            )
    return problems


def check_swap_against_oracle(rule: SwapRule = swap_rule) -> list[str]:
    """64-case sweep: forced dense measurements agree with the symbolic rule.

    For every initial label pair the four Born weights must be exactly 1/4
    (within 1e-12) and the post-measurement label of the leftover partners
    must equal the rule's prediction. The 64 cases (left, right, outcome)
    form one stack, each state forced to its own outcome; each line starts
    with its case, "(left,right,outcome)".
    """
    cases = list(itertools.product(ALL_LABELS, repeat=3))
    tables = [PairTable([(1, 2, left), (3, 4, right)]) for left, right, _ in cases[::4]]
    state = oracle.prepare(tables)
    state = oracle.StateVector(state.amplitudes.repeat(4, axis=0), state.qubit_order)
    _, post, probs = oracle.oracle_bsm(state, 1, 3, force=ALL_LABELS * 16)
    skewed = (abs(probs - 0.25).max(axis=-1) > 1e-12).tolist()
    problems = []
    for (left, right, outcome), skew, induced, weights in zip(
            cases, skewed, oracle.bell_label_of(post, 2, 4), probs):
        if skew:
            problems.append(f"({left},{right},{outcome}): weights {weights.tolist()}")
        predicted = rule(left, right, outcome)
        if induced != predicted:
            problems.append(
                f"({left},{right},{outcome}): oracle label {induced}, rule says {predicted}")
    return problems


def check_pauli_semantics() -> list[str]:
    """Label toggles match dense single-qubit action, on either qubit; the 16
    cases (label, op) form one stack, each state moved by its own op."""
    ops = list(PauliOp) * len(ALL_LABELS)
    state = oracle.prepare([PairTable([(1, 2, label)]) for label in ALL_LABELS])
    state = oracle.StateVector(state.amplitudes.repeat(4, axis=0), state.qubit_order)
    per_qubit = []
    for q in (1, 2):
        moved = oracle.oracle_apply_pauli(state, q, ops)
        per_qubit.append((q, oracle.bell_label_of(moved, 1, 2), moved.norm().tolist()))
    problems = []
    for i, (label, op) in enumerate(itertools.product(ALL_LABELS, PauliOp)):
        for q, got, norms in per_qubit:
            if got[i] != op.apply(label):
                problems.append(f"{op.name} on qubit {q} of {label}: {got[i]} != {op.apply(label)}")
            if abs(norms[i] - 1.0) > 1e-12:
                problems.append(f"{op.name} on {label}: norm {norms[i]!r}")
    return problems


def run_all(rule: SwapRule = swap_rule) -> tuple[int, int, list[str]]:
    """Full verification: (swap cases that pass their oracle check, swap
    cases checked, discrepancies)."""
    swaps = check_swap_against_oracle(rule)
    failed = {line.partition(":")[0] for line in swaps}
    return 64 - len(failed), 64, check_swap_table(rule) + swaps + check_pauli_semantics()
