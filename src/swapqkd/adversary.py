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

Separation of knowledge is structural: Eve's quantum access goes through a
`ChannelTap` that only reaches her ancillas and the qubit currently in
transit, and her inference functions receive public announcements and her
own outcomes, which she writes once into the round's `EveRoundRecord`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bell import BellLabel, pauli_correction
from .knowledge import KnowledgeLedger, Party
from .rng import RoundStream


class AccessViolation(RuntimeError):
    """Eve touched a qubit that is neither hers nor in transit."""


class ChannelTap:
    """Eve's only handle on the quantum state.

    Wraps the session's ledger, so her measurements update the pair table
    and the tags as Eve's, but refuses measurements involving any qubit
    outside her ancillas and the single qubit currently in the channel.
    """

    def __init__(self, ledger: KnowledgeLedger, randomness: RoundStream,
                 ancillas: tuple[int, int], transit: int):
        self._ledger = ledger
        self._rng = randomness
        self._allowed = frozenset((*ancillas, transit))
        self.transit = transit

    def bsm(self, a: int, b: int) -> BellLabel:
        if a not in self._allowed or b not in self._allowed:
            raise AccessViolation(
                f"measurement on ({a},{b}) is outside Eve's reach {sorted(self._allowed)}"
            )
        return self._ledger.measure(a, b, Party.EVE, self._rng)

    def are_partners(self, a: int, b: int) -> bool:
        """Pair structure is public; Eve may query it for reachable qubits."""
        if a not in self._allowed or b not in self._allowed:
            raise AccessViolation(f"({a},{b}) is outside Eve's reach")
        return self._ledger.table.are_partners(a, b)


@dataclass(slots=True)
class EveRoundRecord:
    """Eve's per-round outcomes and reconstructions, kept out of the
    legitimate parties' transcript fields; the intercept functions fill it."""

    outbound_outcome: BellLabel | None = None
    return_readout: BellLabel | None = None
    detach_outcome: BellLabel | None = None
    inferred_alice: BellLabel | None = None
    inferred_bob: BellLabel | None = None


@dataclass
class EveState:
    """Attack state across one round.

    `link_label`, `anchor_label`, `bob_label` are the publicly agreed pair
    labels of the round being attacked; `ancilla_label` is whatever Eve
    prepared her own pair in. `record` is the round's, which the session
    hands her fresh at round start and keeps as the round's eve section.
    """

    link_label: BellLabel
    anchor_label: BellLabel
    bob_label: BellLabel
    ancilla_label: BellLabel = field(default_factory=lambda: BellLabel(0, 0))
    record: EveRoundRecord = field(default_factory=EveRoundRecord)

    ancilla_a = 7
    ancilla_b = 8
    ancillas = (ancilla_a, ancilla_b)

    def tapped_link_label(self) -> BellLabel:
        """Label binding Alice's retained link qubit to ancilla A after the
        outbound swap; Eve computes it from public data plus her outcome."""
        return self.link_label ^ self.ancilla_label ^ self.record.outbound_outcome


def eve_intercept_outbound(eve: EveState, tap: ChannelTap) -> BellLabel:
    """Swap the outbound qubit onto ancilla B while it crosses the channel.

    Leaves (transit, ancilla B) in the measured state and silently
    entangles Alice's retained link qubit with ancilla A. The qubit then
    continues to Bob looking untouched.
    """
    if eve.record.outbound_outcome is not None:
        raise RuntimeError("outbound transmission already intercepted this round")
    outcome = eve.record.outbound_outcome = tap.bsm(tap.transit, eve.ancilla_b)
    return outcome


def eve_intercept_return(eve: EveState, tap: ChannelTap) -> tuple[BellLabel, BellLabel]:
    """Intercept the returning qubit; learn Bob's secret; detach ancillas.

    The returning qubit is already partnered with ancilla B (Bob's secret
    measurement induced that pair), so the first measurement is a
    deterministic readout that, combined with Eve's outbound outcome and
    the public labels, reveals Bob's result. The follow-up measurement on
    (ancilla A, ancilla B) then throws the correlation back onto the two
    qubits Alice is about to compare.
    """
    rec = eve.record
    if rec.outbound_outcome is None:
        raise RuntimeError("return interception requires the outbound swap first")
    if rec.return_readout is not None:
        raise RuntimeError("return transmission already intercepted this round")
    if not tap.are_partners(tap.transit, eve.ancilla_b):
        # her outbound swap guarantees this pairing once Bob has measured
        raise RuntimeError("secret measurements not yet done; nothing to read out")
    rec.return_readout = tap.bsm(tap.transit, eve.ancilla_b)
    rec.inferred_bob = infer_bob_secret(eve.bob_label, rec.outbound_outcome, rec.return_readout)
    rec.detach_outcome = tap.bsm(eve.ancilla_a, eve.ancilla_b)
    return rec.return_readout, rec.detach_outcome


def eve_finalize(eve: EveState, announcement: BellLabel) -> BellLabel:
    """Reconstruct Alice's secret from her public announcement.

    The announcement reads out the pair Eve's detaching measurement
    created, so she can unwind it to the label that linked Alice's anchor
    qubit to ancilla A, and from there to Alice's secret result.
    """
    rec = eve.record
    if rec.return_readout is None or rec.detach_outcome is None:
        raise RuntimeError("cannot finalize before both interceptions")
    rec.inferred_alice = infer_alice_secret(
        eve.link_label, eve.anchor_label, eve.ancilla_label,
        rec.outbound_outcome, rec.return_readout, rec.detach_outcome, announcement,
    )
    return rec.inferred_alice


def infer_bob_secret(bob: BellLabel, outbound: BellLabel, readout: BellLabel) -> BellLabel:
    """Bob's secret result from Eve's outbound outcome and return readout.

    Her outbound swap paired the transit qubit with ancilla B in `outbound`;
    Bob's secret measurement consumed that pair and his agreed `bob` pair,
    leaving the returning qubit with ancilla B in `readout`.
    """
    return readout ^ bob ^ outbound


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
    anchor_tap = announcement ^ readout ^ detach
    return anchor_tap ^ anchor ^ link ^ ancilla ^ outbound


def eve_reset(eve: EveState, ledger: KnowledgeLedger):
    """Rotate the ancilla pair back to Eve's preparation label.

    After the detaching measurement the ancillas are partners again in a
    state Eve knows, so a single-qubit correction re-arms the attack.
    """
    if eve.record.detach_outcome is None:
        raise RuntimeError("ancillas are not in a known post-round state")
    ledger.require_knowledge(eve.ancilla_a, eve.ancilla_b, Party.EVE, "rotate")
    op = pauli_correction(eve.record.detach_outcome, eve.ancilla_label)
    ledger.table.apply_pauli(eve.ancilla_a, op)
    return op
