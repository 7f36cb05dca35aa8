"""Intercept-and-swap eavesdropper.

Eve holds an ancilla Bell pair and attacks both transmissions of a round:
she swaps the outbound qubit onto one ancilla, reads the returning qubit
against that ancilla (an eigenstate measurement, since her first swap made
them partners), then measures her two ancillas together, which both frees
them for the next round and hands the correlation back so the legitimate
parties still see a well-formed announcement. After Alice's announcement
Eve can reconstruct both secret results exactly. The price is that her
ancilla-pair measurement re-randomizes the correlation Alice and Bob
compare, which is what the eavesdropping test detects.

This module holds only her measurements and inferences. Her ancilla pair
on `ANCILLAS` is the last of a round's agreed pairs
(`protocol.RoleMap.agreed_pairs`), so the session checks it at round start
and rotates it back to her preparation label with the others
(`protocol.closing_corrections`).

Separation of knowledge is structural: Eve's quantum access goes through a
`ChannelTap` that only reaches her ancillas and the qubit currently in
transit. A session owns one tap and re-points it at each transit: at the
qubit crossing the channel and at the round's draws, so once the return
transit begins the outbound qubit is out of her reach again. Her three
steps fill the round's `EveRoundRecord`, which the session creates, each
outcome written once; besides it they read only public values: the agreed
labels, her ancilla label and the announcement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bell import ALL_LABELS, BellLabel
from .knowledge import EVE, KnowledgeLedger
from .rng import ChosenDraws


ANCILLAS = (7, 8)
"""Eve's ancilla qubits A and B, which hold her pair."""


class AccessViolation(RuntimeError):
    """Eve touched a qubit that is neither hers nor in transit."""


class ChannelTap:
    """Eve's only handle on the quantum state.

    Wraps the session's ledger, so her measurements update the pair table
    and the tags as Eve's, but refuses measurements involving any qubit
    outside her ancillas and the single qubit currently in the channel.
    The session that owns the tap points it at each transit by setting
    `transit` and `_rng`, the round's draws, on the round's hot path.
    """

    __slots__ = ("_ledger", "_rng", "transit")

    def __init__(self, ledger: KnowledgeLedger, randomness: ChosenDraws | None, transit: int):
        self._ledger = ledger
        self._rng = randomness
        self.transit = transit

    def bsm(self, a: int, b: int) -> BellLabel:
        if (a != self.transit and a not in ANCILLAS) or (b != self.transit and b not in ANCILLAS):
            reach = sorted({*ANCILLAS, self.transit})
            raise AccessViolation(f"measurement on ({a},{b}) is outside Eve's reach {reach}")
        return self._ledger.measure(a, b, EVE, self._rng)

    def are_partners(self, a: int, b: int) -> bool:
        """Pair structure is public; Eve may query it for reachable qubits."""
        if (a != self.transit and a not in ANCILLAS) or (b != self.transit and b not in ANCILLAS):
            raise AccessViolation(f"({a},{b}) is outside Eve's reach")
        return self._ledger.table._partner.get(a) == b


@dataclass(slots=True)
class EveRoundRecord:
    """Eve's per-round outcomes and reconstructions, kept out of the
    legitimate parties' transcript fields; the session creates one per
    round and her three steps fill it."""

    outbound_outcome: BellLabel | None = None
    return_readout: BellLabel | None = None
    detach_outcome: BellLabel | None = None
    inferred_alice: BellLabel | None = None
    inferred_bob: BellLabel | None = None


def eve_intercept_outbound(record: EveRoundRecord, tap: ChannelTap) -> BellLabel:
    """Swap the outbound qubit onto ancilla B while it crosses the channel.

    Leaves (transit, ancilla B) in the measured state and silently
    entangles Alice's retained link qubit with ancilla A. The qubit then
    continues to Bob looking untouched.
    """
    if record.outbound_outcome is not None:
        raise RuntimeError("outbound transmission already intercepted this round")
    outcome = record.outbound_outcome = tap.bsm(tap.transit, ANCILLAS[1])
    return outcome


def eve_intercept_return(record: EveRoundRecord, tap: ChannelTap,
                         bob: BellLabel) -> tuple[BellLabel, BellLabel]:
    """Intercept the returning qubit; learn Bob's secret; detach ancillas.

    The returning qubit is already partnered with ancilla B (Bob's secret
    measurement induced that pair), so the first measurement is a
    deterministic readout that, combined with Eve's outbound outcome and
    Bob's agreed label `bob`, reveals Bob's result. The follow-up
    measurement on (ancilla A, ancilla B) then throws the correlation back
    onto the two qubits Alice is about to compare.
    """
    if record.outbound_outcome is None:
        raise RuntimeError("return interception requires the outbound swap first")
    if record.return_readout is not None:
        raise RuntimeError("return transmission already intercepted this round")
    ancilla_a, ancilla_b = ANCILLAS
    if not tap.are_partners(tap.transit, ancilla_b):
        # her outbound swap guarantees this pairing once Bob has measured
        raise RuntimeError("secret measurements not yet done; nothing to read out")
    record.return_readout = tap.bsm(tap.transit, ancilla_b)
    record.inferred_bob = infer_bob_secret(bob, record.outbound_outcome, record.return_readout)
    record.detach_outcome = tap.bsm(ancilla_a, ancilla_b)
    return record.return_readout, record.detach_outcome


def eve_finalize(record: EveRoundRecord, labels: tuple[BellLabel, BellLabel, BellLabel],
                 ancilla: BellLabel, announcement: BellLabel) -> BellLabel:
    """Reconstruct Alice's secret from her public announcement.

    The announcement reads out the pair Eve's detaching measurement
    created, so she can unwind it to the label that linked Alice's anchor
    qubit to ancilla A, and from there, through the agreed (link, anchor,
    bob) `labels` and her `ancilla` label, to Alice's secret result.
    """
    if record.return_readout is None or record.detach_outcome is None:
        raise RuntimeError("cannot finalize before both interceptions")
    link, anchor, _ = labels
    record.inferred_alice = infer_alice_secret(
        link, anchor, ancilla, record.outbound_outcome, record.return_readout,
        record.detach_outcome, announcement,
    )
    return record.inferred_alice


def infer_bob_secret(bob: BellLabel, outbound: BellLabel, readout: BellLabel) -> BellLabel:
    """Bob's secret result from Eve's outbound outcome and return readout.

    Her outbound swap paired the transit qubit with ancilla B in `outbound`;
    Bob's secret measurement consumed that pair and his agreed `bob` pair,
    leaving the returning qubit with ancilla B in `readout`.
    """
    return ALL_LABELS[readout.index ^ bob.index ^ outbound.index]


def infer_alice_secret(
    link: BellLabel,
    anchor: BellLabel,
    ancilla: BellLabel,
    outbound: BellLabel,
    readout: BellLabel,
    detach: BellLabel,
    announcement: BellLabel,
) -> BellLabel:
    """Alice's secret result from the announcement and Eve's three outcomes.

    The announced pair is the one her detaching measurement created, so
    unwinding it gives the label that linked Alice's anchor qubit to
    ancilla A; her outbound swap had linked Alice's retained qubit to
    ancilla A in link ^ ancilla ^ outbound, and Alice's secret is what
    joined the two.
    """
    anchor_tap = announcement.index ^ readout.index ^ detach.index
    return ALL_LABELS[anchor_tap ^ anchor.index ^ link.index ^ ancilla.index ^ outbound.index]
