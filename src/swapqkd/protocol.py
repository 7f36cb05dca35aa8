"""Two-party key-distribution rounds over three Bell pairs.

One round, with the six protocol qubits in their role positions:

  1. Alice sends her link partner qubit to Bob over the public channel.
  2. Alice secretly measures (link keep, anchor A); the outcome is her
     secret result and the round's two key bits.
  3. Bob secretly measures (received qubit, his keep).
  4. Bob returns his send qubit; Alice measures (anchor B, returned qubit)
     and announces the result publicly.
  5. Each party XORs the announcement with the three agreed pair labels
     and its own secret to recover the other's secret exactly.

Between rounds each holder rotates its pair back to the agreed labels and
the role map advances, so every round is identically prepared while the
same six physical qubits circulate forever. An enabled eavesdropper
(adversary module) is spliced into both channel transits.

The public announcement leaks only the XOR of the two secrets: four
(alice, bob) combinations stay equally likely to an outside observer,
which `public_posterior` enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import adversary
from .bell import ALL_LABELS, BellLabel, PairTable, PauliOp, pauli_correction
from .knowledge import KnowledgeLedger, LedgerViolation, Party, Visibility
from .rng import RoundStream, round_stream


def _label(s: str) -> BellLabel:
    return BellLabel.from_string(s)


DEFAULT_LABELS = (_label("11"), _label("10"), _label("10"))
"""Agreed (link, anchor, bob) pair labels each round starts from."""


@dataclass(frozen=True)
class RoleMap:
    """Physical qubit playing each protocol role this round.

    Alice holds `alice_keep`, `alice_send` and the two anchor qubits at
    round start; Bob holds `bob_keep` and `bob_send`. `alice_send` crosses
    to Bob in step 1 and `bob_send` comes back in step 4.
    """

    alice_keep: int
    alice_send: int
    anchor_a: int
    anchor_b: int
    bob_keep: int
    bob_send: int

    def qubits(self) -> tuple[int, ...]:
        return (
            self.alice_keep,
            self.alice_send,
            self.anchor_a,
            self.anchor_b,
            self.bob_keep,
            self.bob_send,
        )

    def __post_init__(self):
        if len(set(self.qubits())) != 6:
            raise ValueError(f"role map must name six distinct qubits: {self}")

    def agreed_pairs(self, labels) -> tuple[tuple[int, int, BellLabel, Party], ...]:
        """(qubit, partner, label, holder) of each pair at round start."""
        link, anchor, bob = labels
        return (
            (self.alice_keep, self.alice_send, link, Party.ALICE),
            (self.anchor_a, self.anchor_b, anchor, Party.ALICE),
            (self.bob_keep, self.bob_send, bob, Party.BOB),
        )

    def rotated(self) -> "RoleMap":
        """Roles for the next round.

        The secret pair (keep, anchor A) becomes the link pair, the
        announced pair (anchor B, send-back) becomes the anchor, and Bob's
        secret pair becomes his new pair; custody already matches, so no
        extra transmissions are needed.
        """
        return RoleMap(
            alice_keep=self.alice_keep,
            alice_send=self.anchor_a,
            anchor_a=self.anchor_b,
            anchor_b=self.bob_send,
            bob_keep=self.bob_keep,
            bob_send=self.alice_send,
        )


INITIAL_ROLES = RoleMap(
    alice_keep=1, alice_send=2, anchor_a=3, anchor_b=5, bob_keep=4, bob_send=6
)


ROLE_SCHEDULE = (INITIAL_ROLES,)
"""Roles of round i: ROLE_SCHEDULE[i % len(ROLE_SCHEDULE)], one cycle of `rotated`."""
while ROLE_SCHEDULE[-1].rotated() != INITIAL_ROLES:
    ROLE_SCHEDULE += (ROLE_SCHEDULE[-1].rotated(),)
TRANSFERS = tuple(((r.alice_send, "alice_to_bob"), (r.bob_send, "bob_to_alice"))
                  for r in ROLE_SCHEDULE)
"""(qubit, direction) of each channel transit of round i: TRANSFERS[i % len(TRANSFERS)]."""


@dataclass(frozen=True)
class SessionConfig:
    rounds: int
    seed: int
    eve_enabled: bool = False
    test_fraction: float = 0.0
    initial_labels: tuple[BellLabel, BellLabel, BellLabel] = DEFAULT_LABELS
    eve_ancilla: BellLabel = field(default_factory=lambda: _label("00"))

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 <= self.test_fraction <= 1.0:
            raise ValueError("test_fraction must lie in [0, 1]")
        if len(self.initial_labels) != 3:
            raise ValueError("exactly three initial labels: link, anchor, bob")


@dataclass(frozen=True)
class ForcedOutcomes:
    """Replay hooks: pin specific measurement branches of one round.

    `announcement` is honored by steering Bob's secret outcome, since by
    the time Alice measures the announced pair its value is already
    determined; it cannot be combined with `bob_secret` or an enabled
    eavesdropper.
    """

    alice_secret: BellLabel | None = None
    bob_secret: BellLabel | None = None
    announcement: BellLabel | None = None
    eve_outbound: BellLabel | None = None
    eve_detach: BellLabel | None = None


@dataclass(slots=True)
class Correction:
    party: Party
    qubit: int
    op: PauliOp


@dataclass(slots=True)
class RoundRecord:
    """What one round decided; its transits and key bits are derived."""

    index: int
    alice_secret: BellLabel
    bob_secret: BellLabel
    announcement: BellLabel
    alice_inferred_bob: BellLabel
    bob_inferred_alice: BellLabel
    eve: adversary.EveRoundRecord | None = None
    corrections: tuple[Correction, ...] = ()

    @property
    def transfers(self) -> tuple[tuple[int, str], tuple[int, str]]:
        return TRANSFERS[self.index % len(TRANSFERS)]

    @property
    def transmissions(self) -> int:
        return len(self.transfers)

    @property
    def key_bits(self) -> str:
        return str(self.alice_secret)


@dataclass
class SessionTranscript:
    """A session's config and rounds; each key is joined from the rounds."""

    config: SessionConfig
    rounds: list[RoundRecord]

    @property
    def alice_key(self) -> str:
        return "".join([rec.key_bits for rec in self.rounds])

    @property
    def bob_key(self) -> str:
        return "".join([str(rec.bob_inferred_alice) for rec in self.rounds])

    @property
    def eve_key(self) -> str | None:
        eve = self.config.eve_enabled
        return "".join([str(rec.eve.inferred_alice) for rec in self.rounds]) if eve else None


def infer_other_secret(
    link: BellLabel,
    anchor: BellLabel,
    bob: BellLabel,
    own_secret: BellLabel,
    announcement: BellLabel,
) -> BellLabel:
    """One party's reconstruction of the other's secret result.

    Composing the swap rule through both secret measurements shows the
    announcement equals the XOR of all three agreed labels with both
    secrets, so one more XOR with either secret isolates the other: Alice
    passes hers to get Bob's, Bob passes his to get Alice's.
    """
    return link ^ anchor ^ bob ^ own_secret ^ announcement


def public_posterior(
    link: BellLabel,
    anchor: BellLabel,
    bob: BellLabel,
    announcement: BellLabel,
) -> tuple[tuple[BellLabel, BellLabel], ...]:
    """All (alice_secret, bob_secret) pairs consistent with public data.

    Exactly four, one per possible Alice result, all equally likely to an
    observer who saw only the announcement and the agreed labels.
    """
    return tuple(
        (s, infer_other_secret(link, anchor, bob, s, announcement)) for s in ALL_LABELS
    )


class Session:
    """Owns the quantum state, custody map and ledger of one session; the
    roles of round i are `ROLE_SCHEDULE[i % len(ROLE_SCHEDULE)]`."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.roles = ROLE_SCHEDULE[0]
        link, anchor, bob = config.initial_labels
        pairs = self.roles.agreed_pairs(config.initial_labels)
        self.table = PairTable([(a, b, label) for a, b, label, _ in pairs])
        self.ledger = KnowledgeLedger(self.table)
        for a, b, _ in self.table.pairs():
            self.ledger.declare(a, b, Visibility.PUBLIC)
        self.custody: dict[int, Party] = {q: holder for a, b, _, holder in pairs for q in (a, b)}
        self.eve: adversary.EveState | None = None
        if config.eve_enabled:
            self.eve = adversary.EveState(
                link_label=link,
                anchor_label=anchor,
                bob_label=bob,
                ancilla_label=config.eve_ancilla,
            )
            self.table.add_pair(self.eve.ancilla_a, self.eve.ancilla_b, config.eve_ancilla)
            self.ledger.declare(self.eve.ancilla_a, self.eve.ancilla_b, Visibility.EVE_ONLY)
            self.custody[self.eve.ancilla_a] = Party.EVE
            self.custody[self.eve.ancilla_b] = Party.EVE
        self.rounds_run = 0

    # -- round execution ---------------------------------------------------

    def _check_round_preconditions(self):
        table, custody = self.table, self.custody
        for a, b, want, holder in self.roles.agreed_pairs(self.config.initial_labels):
            if not table.are_partners(a, b):
                raise ValueError(f"malformed state: qubits {a},{b} are not paired")
            if table.label(a) != want:
                raise ValueError(
                    f"malformed state: pair ({a},{b}) holds {table.label(a)}, "
                    f"agreed label is {want}"
                )
            if custody[a] is not holder or custody[b] is not holder:
                raise ValueError(f"malformed state: {holder.value} does not hold {a},{b}")

    def run_round(
        self, randomness: RoundStream, forced: ForcedOutcomes | None = None
    ) -> RoundRecord:
        forced = forced or ForcedOutcomes()
        cfg = self.config
        r = self.roles
        table, ledger = self.table, self.ledger
        self._check_round_preconditions()
        if forced.announcement is not None:
            if cfg.eve_enabled:
                raise ValueError("cannot force the announcement with the eavesdropper on")
            if forced.bob_secret is not None:
                raise ValueError("force either the announcement or Bob's secret, not both")
        eve_record = None
        if self.eve is not None:
            eve_record = self.eve.record = adversary.EveRoundRecord()

        link, anchor, bob = cfg.initial_labels

        # step 1: link partner crosses to Bob (Eve may tap it in transit)
        if self.eve is not None:
            tap = adversary.ChannelTap(ledger, randomness, self.eve.ancillas, r.alice_send)
            adversary.eve_intercept_outbound(self.eve, tap, force=forced.eve_outbound)
        self.custody[r.alice_send] = Party.BOB

        # step 2: Alice's secret measurement
        alice_secret = ledger.measure(
            r.alice_keep, r.anchor_a, Party.ALICE, randomness, force=forced.alice_secret
        )

        # step 3: Bob's secret measurement
        bob_force = forced.bob_secret
        if forced.announcement is not None:
            # the announced pair's value is fixed once Bob measures; choose
            # his branch so the readout lands on the requested label
            bob_force = (
                table.label(r.alice_send) ^ table.label(r.bob_keep) ^ forced.announcement
            )
        bob_secret = ledger.measure(
            r.alice_send, r.bob_keep, Party.BOB, randomness, force=bob_force
        )

        # step 4: return transit (tapped again), then the public readout
        if self.eve is not None:
            tap = adversary.ChannelTap(ledger, randomness, self.eve.ancillas, r.bob_send)
            adversary.eve_intercept_return(self.eve, tap, force_detach=forced.eve_detach)
        self.custody[r.bob_send] = Party.ALICE
        announcement = ledger.measure(r.anchor_b, r.bob_send, Party.ALICE, randomness)
        ledger.record_announcement(r.anchor_b, r.bob_send)

        # step 5: inference from public data
        alice_inferred_bob = infer_other_secret(link, anchor, bob, alice_secret, announcement)
        bob_inferred_alice = infer_other_secret(link, anchor, bob, bob_secret, announcement)
        ledger.record_inference(r.alice_keep, r.anchor_a, Party.BOB)
        ledger.record_inference(r.alice_send, r.bob_keep, Party.ALICE)

        if self.eve is not None:
            adversary.eve_finalize(self.eve, announcement)

        record = RoundRecord(
            index=self.rounds_run,
            alice_secret=alice_secret,
            bob_secret=bob_secret,
            announcement=announcement,
            alice_inferred_bob=alice_inferred_bob,
            bob_inferred_alice=bob_inferred_alice,
            eve=eve_record,
        )
        self.rounds_run += 1
        return record

    # -- between rounds ------------------------------------------------------

    def reset_round(self) -> tuple[Correction, ...]:
        """Advance roles, rotating each pair the round leaves (an agreed pair
        of the next roles) back to its agreed label.

        Each correcting party must know its pair's current label, which the
        ledger certifies: Alice knows her secret outcome and the announced
        value, Bob knows his secret outcome.
        """
        roles = ROLE_SCHEDULE[self.rounds_run % len(ROLE_SCHEDULE)]
        corrections = []
        for q, partner, target, party in roles.agreed_pairs(self.config.initial_labels):
            if not self.table.are_partners(q, partner):
                raise ValueError(f"malformed state: qubits {q},{partner} are not paired")
            if self.custody[q] is not party:
                raise LedgerViolation(f"{party.value} does not hold qubit {q}")
            self.ledger.require_knowledge(q, partner, party, "rotate")
            op = pauli_correction(self.table.label(q), target)
            self.table.apply_pauli(q, op)
            # the rotation targets are the public agreed labels
            self.ledger.record_announcement(q, partner)
            corrections.append(Correction(party, q, op))
        if self.eve is not None:
            op = adversary.eve_reset(self.eve, self.ledger)
            corrections.append(Correction(Party.EVE, self.eve.ancilla_a, op))
        self.roles = roles
        return tuple(corrections)

    # -- whole session -------------------------------------------------------

    def run(self) -> SessionTranscript:
        records = []
        for i in range(self.config.rounds):
            record = self.run_round(round_stream(self.config.seed, i))
            record.corrections = self.reset_round()
            records.append(record)
        return SessionTranscript(self.config, records)


def run_session(config: SessionConfig) -> SessionTranscript:
    """Run a fresh seeded session end to end."""
    return Session(config).run()


def replay_round(
    config: SessionConfig, forced: ForcedOutcomes, randomness: RoundStream | None = None
) -> tuple[RoundRecord, Session]:
    """Run a single round of a fresh session with pinned branches.

    Fully forced rounds need no random stream at all; partially forced
    ones draw the rest from `randomness`.
    """
    session = Session(config)
    if randomness is None:
        randomness = round_stream(config.seed, 0)
    record = session.run_round(randomness, forced)
    return record, session
