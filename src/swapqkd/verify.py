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


def _row_of(entry: str) -> frozenset[str]:
    for row in SWAP_TABLE_ROWS:
        if entry in row:
            return row
    raise AssertionError(f"{entry} missing from the swap table")


def check_swap_table(rule: SwapRule = swap_rule) -> list[str]:
    """All 16 initial label pairs reproduce their own table row, as sets."""
    problems = []
    for left, right in itertools.product(ALL_LABELS, repeat=2):
        expected = _row_of(f"{left}{right}")
        produced = frozenset(f"{o}{rule(left, right, o)}" for o in ALL_LABELS)
        if produced != expected:
            problems.append(
                f"initial {left}{right}: produced {sorted(produced)}, "
                f"expected {sorted(expected)}"
            )
    return problems


def check_swap_against_oracle(rule: SwapRule = swap_rule) -> list[str]:
    """64-case sweep: forced dense measurements agree with the symbolic rule.

    For every initial label pair the four Born weights must be exactly 1/4
    (within 1e-12) and the post-measurement label of the leftover partners
    must equal the rule's prediction. The 16 initial states form one stack;
    each line starts with its case, "(left,right,outcome)".
    """
    initial = list(itertools.product(ALL_LABELS, repeat=2))
    state = oracle.prepare([PairTable([(1, 2, left), (3, 4, right)]) for left, right in initial])
    found: list[list[str]] = [[] for _ in initial]
    for outcome in ALL_LABELS:
        _, post, probs = oracle.oracle_bsm(state, 1, 3, force=outcome)
        skewed = (abs(probs - 0.25).max(axis=-1) > 1e-12).tolist()
        induced = oracle.bell_label_of(post, 2, 4)
        for i, (left, right) in enumerate(initial):
            if skewed[i]:
                found[i].append(f"({left},{right},{outcome}): weights {probs[i].tolist()}")
            predicted = rule(left, right, outcome)
            if induced[i] != predicted:
                found[i].append(
                    f"({left},{right},{outcome}): oracle label "
                    f"{induced[i]}, rule says {predicted}"
                )
    return list(itertools.chain.from_iterable(found))


def check_pauli_semantics() -> list[str]:
    """Label toggles match dense single-qubit action, on either qubit."""
    state = oracle.prepare([PairTable([(1, 2, label)]) for label in ALL_LABELS])
    found: list[list[str]] = [[] for _ in ALL_LABELS]
    for op in PauliOp:
        for q in (1, 2):
            moved = oracle.oracle_apply_pauli(state, q, op)
            each = zip(found, ALL_LABELS, oracle.bell_label_of(moved, 1, 2), moved.norm().tolist())
            for lines, label, got, norm in each:
                if got != op.apply(label):
                    lines.append(f"{op.name} on qubit {q} of {label}: {got} != {op.apply(label)}")
                if abs(norm - 1.0) > 1e-12:
                    lines.append(f"{op.name} on {label}: norm {norm!r}")
    return list(itertools.chain.from_iterable(found))


def run_all(rule: SwapRule = swap_rule) -> tuple[int, int, list[str]]:
    """Full verification: (swap cases that pass their oracle check, swap
    cases checked, discrepancies)."""
    swaps = check_swap_against_oracle(rule)
    failed = {line.partition(":")[0] for line in swaps}
    return 64 - len(failed), 64, check_swap_table(rule) + swaps + check_pauli_semantics()
