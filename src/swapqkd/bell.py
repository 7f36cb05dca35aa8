"""Symbolic Bell-pair algebra.

A Bell pair is tracked as a two-bit label (x, z): x is the bit-flip
component, z the phase component, so the four labels written "00", "01",
"10", "11" name the states

    00 : (|00> + |11>)/sqrt(2)
    01 : (|00> - |11>)/sqrt(2)
    10 : (|01> + |10>)/sqrt(2)
    11 : (|01> - |10>)/sqrt(2)

Global phase is discarded throughout; every observable in the protocol
depends only on the label. The Bell-operator measurement on one qubit from
each of two pairs (entanglement swapping) obeys a pure XOR rule that
`swap_rule` implements and the state-vector oracle cross-checks.

There are exactly four `BellLabel` objects, `ALL_LABELS`, interned and
immutable: `BellLabel(x, z)`, `from_string`, pickle and copy all return
one of them, so labels compare and hash by identity. Each carries its
`index` (x << 1) | z and its `text` "00".."11", and the label algebra is
XOR on indices: `^`, `swap_rule`, `PauliOp.apply` (each op carries the
index it toggles) and `pauli_correction` are one tuple lookup each.
"""

from __future__ import annotations

import enum

from .rng import ChosenDraws


class BellLabel:
    """Two-bit name of a Bell state: x = bit-flip part, z = phase part,
    `index` = (x << 1) | z, its position in `ALL_LABELS`, `text` = "xz"."""

    __slots__ = ("x", "z", "index", "text")

    def __new__(cls, x: int, z: int) -> "BellLabel":
        if x not in (0, 1) or z not in (0, 1):
            raise ValueError(f"label bits must be 0 or 1, got ({x}, {z})")
        return _LABELS[(int(x) << 1) | int(z)]

    def __setattr__(self, name, value):
        raise AttributeError(f"BellLabel is immutable; cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"BellLabel is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return BellLabel, (self.x, self.z)

    def __xor__(self, other: "BellLabel") -> "BellLabel":
        return _LABELS[self.index ^ other.index]

    @classmethod
    def from_string(cls, s: str) -> "BellLabel":
        if len(s) != 2 or s[0] not in "01" or s[1] not in "01":
            raise ValueError(f"expected a two-digit binary label, got {s!r}")
        return _LABELS[(int(s[0]) << 1) | int(s[1])]

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"BellLabel(x={self.x}, z={self.z})"


def _intern(x: int, z: int) -> BellLabel:
    label = object.__new__(BellLabel)
    for name, value in (("x", x), ("z", z), ("index", (x << 1) | z), ("text", f"{x}{z}")):
        object.__setattr__(label, name, value)
    return label


_LABELS = tuple(_intern(x, z) for x in (0, 1) for z in (0, 1))

ALL_LABELS = _LABELS
"""The four labels in index order: 00, 01, 10, 11."""


class PauliOp(enum.Enum):
    """Single-qubit rotation, named by which label bits (x, z) it toggles;
    `toggle` is the label index it XORs in."""

    I = (0, 0)
    X = (1, 0)
    Z = (0, 1)
    Y = (1, 1)

    __hash__ = object.__hash__  # members are singletons; enum's own hash runs in Python

    def __init__(self, dx: int, dz: int):
        self.toggle = (dx << 1) | dz

    def apply(self, label: BellLabel) -> BellLabel:
        return _LABELS[label.index ^ self.toggle]


_PAULI_BY_TOGGLE = tuple(sorted(PauliOp, key=lambda op: op.toggle))


def swap_rule(left: BellLabel, right: BellLabel, outcome: BellLabel) -> BellLabel:
    """Label of the two unmeasured qubits after a swap measurement.

    Measuring one qubit of a `left`-labelled pair together with one qubit of
    a `right`-labelled pair, and reading `outcome`, leaves the two untouched
    partners in the returned label. Componentwise XOR of all four labels in
    play is conserved, which is exactly this formula.
    """
    return _LABELS[left.index ^ right.index ^ outcome.index]


def pauli_correction(current: BellLabel, target: BellLabel) -> PauliOp:
    """The unique single-qubit rotation taking `current` to `target`."""
    return _PAULI_BY_TOGGLE[current.index ^ target.index]


class PairTable:
    """Partition of live qubits into disjoint labelled Bell pairs.

    Single-owner mutable: measurements and rotations update the table in
    place. `_partner` maps each qubit to its partner and `_cell` to its
    pair's [label, knowers] list, which both qubits share: every Bell label
    is symmetric under qubit exchange up to global phase, so only `pairs`
    orders them. The table owns the partner map and the label; the knower
    set, None in each new cell, is `knowledge.KnowledgeLedger`'s. The ledger
    and the session read both dicts directly on the round's hot path; only
    the table writes partners and labels.
    """

    def __init__(self, pairs=()):
        self._partner: dict[int, int] = {}
        self._cell: dict[int, list] = {}
        for a, b, label in pairs:
            self.add_pair(a, b, label)

    def add_pair(self, a: int, b: int, label: BellLabel) -> None:
        if a == b:
            raise ValueError(f"qubit {a} cannot pair with itself")
        for q in (a, b):
            if q in self._partner:
                raise ValueError(f"qubit {q} is already paired")
        self._partner[a] = b
        self._partner[b] = a
        self._cell[a] = self._cell[b] = [label, None]

    def partner(self, q: int) -> int:
        try:
            return self._partner[q]
        except KeyError:
            raise ValueError(f"qubit {q} is not paired") from None

    def label(self, q: int) -> BellLabel:
        return self._cell[self.partner(q)][0]

    def are_partners(self, a: int, b: int) -> bool:
        return self._partner.get(a) == b

    def qubits(self) -> set[int]:
        return set(self._partner)

    def pairs(self) -> list[tuple[int, int, BellLabel]]:
        """All pairs as (low qubit, high qubit, label), sorted by low qubit."""
        return [(a, b, self._cell[a][0]) for a, b in sorted(self._partner.items()) if a < b]

    def __len__(self) -> int:
        return len(self._partner) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, PairTable) and self.pairs() == other.pairs()

    def __repr__(self) -> str:
        body = ", ".join(f"({a},{b}):{lab}" for a, b, lab in self.pairs())
        return f"PairTable({body})"

    def copy(self) -> "PairTable":
        """Each pair, knower set included, in a new cell of its own; the
        copy is made without `__init__`, which would only start it empty."""
        table = object.__new__(PairTable)
        table._partner = self._partner.copy()
        table._cell = cells = {}
        for a, b in self._partner.items():
            if a < b:
                cells[a] = cells[b] = self._cell[a].copy()
        return table

    def bsm(self, a: int, b: int, randomness: ChosenDraws | None = None) -> BellLabel:
        """Bell-operator measurement on qubits a and b.

        If a and b are already partners this is an eigenstate readout: the
        pair's label is returned and nothing changes. Otherwise the two
        pairs containing a and b are consumed, the outcome is the label of
        index ``randomness.integers(0, 4)``, and the leftover partners of a
        and b form a new pair per `swap_rule`; each new pair gets a new cell.
        """
        partner = self._partner
        cells = self._cell
        try:
            j = partner[a]
        except KeyError:
            raise ValueError(f"qubit {a} is not paired") from None
        if j == b:
            return cells[a][0]
        try:
            l = partner[b]
        except KeyError:
            raise ValueError(f"qubit {b} is not paired") from None
        if randomness is None:
            raise ValueError("swap measurement needs a random stream")
        outcome = _LABELS[randomness.integers(0, 4)]
        induced = swap_rule(cells[a][0], cells[b][0], outcome)
        partner[a] = b
        partner[b] = a
        partner[j] = l
        partner[l] = j
        cells[a] = cells[b] = [outcome, None]
        cells[j] = cells[l] = [induced, None]
        return outcome

    def apply_pauli(self, q: int, op: PauliOp) -> None:
        """Toggle the label of q's pair by op; other pairs untouched."""
        try:
            cell = self._cell[q]
        except KeyError:
            raise ValueError(f"qubit {q} is not paired") from None
        cell[0] = _LABELS[cell[0].index ^ op.toggle]
