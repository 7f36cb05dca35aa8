"""Who knows which pair's Bell label.

Each live pair carries a visibility tag; the six tags mirror the bracket
notation of the protocol's bookkeeping: a label can be public, private to
one party, shared by Alice and Bob, or unknown to everyone (a pair created
by a swap whose inputs no single party fully knows).

The ledger updates itself from structural events only: it is told *that* a
swap, readout, announcement, or inference happened, and derives the new
tags set-algebraically. Knowing a swapped pair's label requires knowing
both consumed labels and the measurement outcome, so the induced tag is
the intersection of those knower sets. Within the life of a pair the
knower set only grows; `LedgerViolation` is raised on anything that would
shrink it, and by reset actions whose acting party does not know the label
being rotated.

Eve's *stolen* knowledge of the secret-pair labels is intentionally not
representable here (there is no Alice-and-Eve tag); it lives in her own
transcript section. Tags therefore express the honest-protocol view.
"""

from __future__ import annotations

import enum


class Party(enum.Enum):
    ALICE = "alice"
    BOB = "bob"
    EVE = "eve"


class Visibility(enum.Enum):
    PUBLIC = "public"
    ALICE_ONLY = "alice_only"
    BOB_ONLY = "bob_only"
    EVE_ONLY = "eve_only"
    ALICE_AND_BOB = "alice_and_bob"
    UNKNOWN = "unknown"


class LedgerViolation(RuntimeError):
    """An update would shrink knowledge, or an actor lacks a needed label."""


# knower sets as bitmasks
_BIT = {Party.ALICE: 1, Party.BOB: 2, Party.EVE: 4}
_WORLD = 7

_MASK_OF = {
    Visibility.UNKNOWN: 0,
    Visibility.ALICE_ONLY: 1,
    Visibility.BOB_ONLY: 2,
    Visibility.ALICE_AND_BOB: 3,
    Visibility.EVE_ONLY: 4,
    Visibility.PUBLIC: 7,
}
_TAG_OF = {mask: tag for tag, mask in _MASK_OF.items()}


def _key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class KnowledgeLedger:
    def __init__(self):
        self._mask: dict[tuple[int, int], int] = {}
        self._partner: dict[int, int] = {}

    def declare(self, a: int, b: int, visibility: Visibility) -> None:
        """Register a fresh pair with an explicitly known tag."""
        self._mask[_key(a, b)] = _MASK_OF[visibility]
        self._partner[a] = b
        self._partner[b] = a

    def tag(self, a: int, b: int) -> Visibility:
        mask = self._mask[_key(a, b)]
        try:
            return _TAG_OF[mask]
        except KeyError:
            raise LedgerViolation(f"pair ({a},{b}) reached untaggable knower set {mask}")

    def knows(self, a: int, b: int, party: Party) -> bool:
        return bool(self._mask[_key(a, b)] & _BIT[party])

    def pairs(self) -> dict[tuple[int, int], Visibility]:
        return {k: self.tag(*k) for k in self._mask}

    def record_swap(self, a: int, b: int, measurer: Party) -> None:
        """A swap measurement on (a, b): consumed pairs die, two form.

        The measured pair's label is the outcome, known only to the
        measurer; the induced partners' label is computable exactly by
        whoever knows both consumed labels and the outcome.
        """
        partner = self._partner
        try:
            j, l = partner[a], partner[b]
        except KeyError as missing:
            raise LedgerViolation(f"qubit {missing.args[0]} is in no ledgered pair") from None
        if j == b:
            raise LedgerViolation(f"({a},{b}) are partners; that is a readout, not a swap")
        bit = _BIT[measurer]
        mask = self._mask
        induced_mask = mask.pop(_key(a, j)) & mask.pop(_key(b, l)) & bit
        mask[_key(a, b)] = bit
        mask[_key(j, l)] = induced_mask
        partner[a], partner[b] = b, a
        partner[j], partner[l] = l, j

    def _pair(self, a: int, b: int) -> tuple[int, int]:
        """Key of the live pair (a, b); a LedgerViolation if a and b are not
        partners, so an update never invents a pair."""
        if self._partner.get(a) != b:
            raise LedgerViolation(f"qubits {a},{b} are not a ledgered pair")
        return (a, b) if a < b else (b, a)

    def record_readout(self, a: int, b: int, reader: Party) -> None:
        """An eigenstate measurement on partners: the reader learns the label."""
        self._mask[self._pair(a, b)] |= _BIT[reader]

    def record_announcement(self, a: int, b: int) -> None:
        """The pair's label is published; everyone, Eve included, knows it."""
        self._mask[self._pair(a, b)] = _WORLD

    def record_inference(self, a: int, b: int, party: Party) -> None:
        """`party` derives the label from announcements plus what it holds."""
        self._mask[self._pair(a, b)] |= _BIT[party]

    def require_knowledge(self, a: int, b: int, party: Party, action: str) -> None:
        if not self.knows(a, b, party):
            raise LedgerViolation(
                f"{party.value} cannot {action} pair ({a},{b}): label tag is "
                f"{self.tag(a, b).value}"
            )
