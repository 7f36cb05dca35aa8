"""Who knows which pair's Bell label.

Each live pair carries a visibility tag; the six tags mirror the bracket
notation of the protocol's bookkeeping: a label can be public, private to
one party, shared by Alice and Bob, or unknown to everyone (a pair created
by a swap whose inputs no single party fully knows).

The ledger keeps no state of its own: it is the rules that update each
pair's knower set, a bitmask in the pair's `PairTable` cell, whose partner
map and label the table owns. A pair is declared while its knower slot is
not None, so one the table forms outside `measure` is refused until
declared. Every Bell measurement is one `measure` call, which checks the
two pairs it consumes, measures once on the table and writes the knower
sets of the cells the table just made; `_pair` checks the pair a query
names. Knowing a swapped pair's label requires knowing both consumed
labels and the outcome, so the induced tag is the intersection of those
knower sets. What a round's announcement and inferences add, the
protocol writes into the slots of the pairs `measure` just left
declared. Within the life of a pair the knower set only grows;
`LedgerViolation` is raised on qubits that are not a declared pair, and
by reset actions whose acting party does not know the label being
rotated.

Eve's *stolen* knowledge of the secret-pair labels is intentionally not
representable here (there is no Alice-and-Eve tag); it lives in her own
transcript section. Tags therefore express the honest-protocol view.
"""

from __future__ import annotations

import enum

from .bell import BellLabel, PairTable
from .rng import ChosenDraws


class Party(enum.Enum):
    ALICE = "alice"
    BOB = "bob"
    EVE = "eve"

    __hash__ = object.__hash__  # members are singletons; enum's own hash runs in Python


class Visibility(enum.Enum):
    PUBLIC = "public"
    ALICE_ONLY = "alice_only"
    BOB_ONLY = "bob_only"
    EVE_ONLY = "eve_only"
    ALICE_AND_BOB = "alice_and_bob"
    UNKNOWN = "unknown"


class LedgerViolation(RuntimeError):
    """Qubits are not a declared pair, or an actor lacks a needed label."""


# the members by plain name: on CPython 3.11 `Party.EVE` goes through EnumType's __getattr__ slot
ALICE, BOB, EVE = Party.ALICE, Party.BOB, Party.EVE
# knower sets as bitmasks
KNOWER_BIT = {ALICE: 1, BOB: 2, EVE: 4}
"""Each party's bit in a pair's knower mask."""
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


class KnowledgeLedger:
    def __init__(self, table: PairTable):
        self.table = table

    def declare(self, a: int, b: int, visibility: Visibility) -> None:
        """Tag a pair the table holds with an explicitly known visibility."""
        if not self.table.are_partners(a, b):
            raise LedgerViolation(f"qubits {a},{b} are not a pair in the table")
        self.table._cell[a][1] = _MASK_OF[visibility]

    def tag(self, a: int, b: int) -> Visibility:
        mask = self._pair(a, b)[1]
        try:
            return _TAG_OF[mask]
        except KeyError:
            raise LedgerViolation(f"pair ({a},{b}) reached untaggable knower set {mask}")

    def knows(self, a: int, b: int, party: Party) -> bool:
        return bool(self._pair(a, b)[1] & KNOWER_BIT[party])

    def pairs(self) -> dict[tuple[int, int], Visibility]:
        """The tag of every declared pair."""
        cells = self.table._cell
        return {(a, b): self.tag(a, b) for a, b, _ in self.table.pairs() if cells[a][1] is not None}

    def measure(self, a: int, b: int, party: Party,
                randomness: ChosenDraws | None = None) -> BellLabel:
        """`party`'s Bell-operator measurement on a and b (`PairTable.bsm`).

        On partners it is a readout and the party learns the label.
        Otherwise the measured pair's label is the outcome, known only to
        the party, and the induced pair's label is known to whoever knew
        both consumed labels and the outcome.
        """
        table, cells, bit = self.table, self.table._cell, KNOWER_BIT[party]
        try:
            j = table._partner[a]
            left, right = cells[a], cells[b]
        except KeyError as unpaired:
            raise LedgerViolation(
                f"qubit {unpaired.args[0]} is not paired; no ledgered pair holds it") from None
        if left[1] is None or right[1] is None:
            raise LedgerViolation(f"qubit {a} or {b} is in no ledgered pair")
        outcome = table.bsm(a, b, randomness)
        if j == b:
            left[1] |= bit
            return outcome
        cells[a][1] = bit
        cells[j][1] = left[1] & right[1] & bit
        return outcome

    def _pair(self, a: int, b: int) -> list:
        """Cell of the declared pair (a, b); a LedgerViolation if a and b are
        not partners in the table or the pair is undeclared; the one check
        of a named pair, which `tag` and `knows` share."""
        if self.table._partner.get(a) != b or (cell := self.table._cell[a])[1] is None:
            raise LedgerViolation(f"qubits {a},{b} are not a ledgered pair")
        return cell

    def require_knowledge(self, a: int, b: int, party: Party, action: str) -> None:
        if not self.knows(a, b, party):
            raise LedgerViolation(
                f"{party.value} cannot {action} pair ({a},{b}): label tag is "
                f"{self.tag(a, b).value}"
            )
