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
(adversary module) is spliced into both channel transits; her ancilla
pair is a fourth agreed pair, checked and rotated back with the others.

A round's only randomness is its swap outcomes, each one draw from the
round's stream, in a fixed order: Eve's outbound swap, Alice's and Bob's
secret measurements, Eve's detaching swap. A session hands each round its
row of `rng.session_draws` as chosen draws. `replay_round` pins a branch
the same way and fills each unpinned outcome from round 0's row, which
`rng.round_stream` derives by the same pass.

The public announcement leaks only the XOR of the two secrets: four
(alice, bob) combinations stay equally likely to an outside observer,
which `public_posterior` enumerates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import adversary
from .bell import ALL_LABELS, BellLabel, PairTable, PauliOp, pauli_correction
from .knowledge import (_WORLD, ALICE, BOB, EVE, KNOWER_BIT, KnowledgeLedger, LedgerViolation,
                        Party, Visibility)
from .rng import ChosenDraws, RoundStream, round_stream, session_draws


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

    def agreed_pairs(self, labels, ancilla=None) -> tuple[tuple[int, int, BellLabel, Party], ...]:
        """(qubit, partner, label, holder) of each pair at round start;
        given Eve's `ancilla` label, her ancilla pair comes last."""
        link, anchor, bob = labels
        pairs = (
            (self.alice_keep, self.alice_send, link, ALICE),
            (self.anchor_a, self.anchor_b, anchor, ALICE),
            (self.bob_keep, self.bob_send, bob, BOB),
        )
        if ancilla is None:
            return pairs
        return (*pairs, (*adversary.ANCILLAS, ancilla, EVE))

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


@functools.lru_cache(maxsize=512)
def _agreed_schedule(labels, ancilla) -> tuple[tuple[tuple[int, int, BellLabel, Party], ...], ...]:
    """`agreed_pairs(labels, ancilla)` of each ROLE_SCHEDULE entry, built
    once per configuration (at most 64 * 5 of them)."""
    return tuple(roles.agreed_pairs(labels, ancilla) for roles in ROLE_SCHEDULE)


@functools.lru_cache(maxsize=512)
def _session_start(labels, ancilla) -> tuple[PairTable, dict[int, Party]]:
    """The table, its cells' knower sets declared, and the custody every
    session under `labels` (and Eve's `ancilla` label, if she is present)
    starts from, built through `PairTable` and `KnowledgeLedger.declare`
    once per configuration; a session takes copies."""
    pairs = _agreed_schedule(labels, ancilla)[0]
    table = PairTable([(a, b, label) for a, b, label, _ in pairs])
    ledger = KnowledgeLedger(table)
    for a, b, _, holder in pairs:
        ledger.declare(a, b, Visibility.EVE_ONLY if holder is EVE else Visibility.PUBLIC)
    return table, {q: holder for a, b, _, holder in pairs for q in (a, b)}


@dataclass(frozen=True)
class SessionConfig:
    rounds: int
    seed: int
    eve_enabled: bool = False
    test_fraction: float = 0.0
    initial_labels: tuple[BellLabel, BellLabel, BellLabel] = DEFAULT_LABELS
    eve_ancilla: BellLabel = _label("00")

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
    """Outcomes to pin in one round, in the order the round draws them.

    A round's swaps draw in this order: Eve's outbound swap, Alice's and
    Bob's secret measurements, Eve's detaching swap; without Eve only the
    two secrets. `replay_round` turns the pinned outcomes into the round's
    draws.
    """

    eve_outbound: BellLabel | None = None
    alice_secret: BellLabel | None = None
    bob_secret: BellLabel | None = None
    eve_detach: BellLabel | None = None


@dataclass(frozen=True, slots=True)
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
        return self.alice_secret.text


@dataclass
class SessionTranscript:
    """A session's config and rounds; each key is joined from the rounds."""

    config: SessionConfig
    rounds: list[RoundRecord]

    @property
    def alice_key(self) -> str:
        return "".join([rec.alice_secret.text for rec in self.rounds])

    @property
    def bob_key(self) -> str:
        return "".join([rec.bob_inferred_alice.text for rec in self.rounds])

    @property
    def eve_key(self) -> str | None:
        eve = self.config.eve_enabled
        return "".join([rec.eve.inferred_alice.text for rec in self.rounds]) if eve else None


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
    return ALL_LABELS[link.index ^ anchor.index ^ bob.index ^ own_secret.index
                      ^ announcement.index]


def closing_corrections(
    config: SessionConfig,
    index: int,
    alice_secret: BellLabel,
    announcement: BellLabel,
    bob_secret: BellLabel,
    eve_detach: BellLabel | None = None,
) -> tuple[Correction, ...]:
    """The rotations that close round `index` of a session under `config`.

    The round leaves its three pairs as the agreed pairs of the next
    round's roles, holding Alice's secret, the announcement and Bob's
    secret in that order; each holder rotates its pair back to the agreed
    label. Given `eve_detach`, the outcome her ancillas are left in, Eve's
    ancilla pair is the fourth agreed pair, and she rotates it back to her
    preparation label last.
    """
    held = (alice_secret, announcement, bob_secret)
    return _closing_corrections(
        config.initial_labels, config.eve_ancilla, (index + 1) % len(ROLE_SCHEDULE),
        *(held if eve_detach is None else (*held, eve_detach)),
    )


@functools.lru_cache(maxsize=4096)
def _closing_corrections(labels, ancilla, next_roles, alice_secret, announcement, bob_secret,
                         eve_detach=None) -> tuple[Correction, ...]:
    """`closing_corrections` with the next roles as ROLE_SCHEDULE[next_roles].

    A session meets at most 4 * 4**4 distinct argument tuples, and a
    lookup costs less than deriving the corrections each round. A run and
    a parse share entries: without Eve both pass six arguments.
    """
    pairs = _agreed_schedule(labels, None if eve_detach is None else ancilla)[next_roles]
    held = (alice_secret, announcement, bob_secret, eve_detach)
    return tuple([
        Correction(party, q, pauli_correction(label, target))
        for (q, _, target, party), label in zip(pairs, held)
    ])


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
        ancilla = config.eve_ancilla if config.eve_enabled else None
        self._schedule = _agreed_schedule(config.initial_labels, ancilla)
        self._pairs = self._schedule[0]
        table, custody = _session_start(config.initial_labels, ancilla)
        self.table = table.copy()
        self.ledger = KnowledgeLedger(self.table)
        self.custody: dict[int, Party] = custody.copy()
        self.rounds_run = 0

    # -- round execution ---------------------------------------------------

    def run_round(self, randomness: RoundStream) -> RoundRecord:
        cfg = self.config
        r = self.roles
        ledger = self.ledger
        partner, cells, custody = self.table._partner, self.table._cell, self.custody
        for a, b, want, holder in self._pairs:
            if partner.get(a) != b:
                raise ValueError(f"malformed state: qubits {a},{b} are not paired")
            held = cells[a][0]
            if held is not want:
                raise ValueError(
                    f"malformed state: pair ({a},{b}) holds {held}, agreed label is {want}"
                )
            if custody[a] is not holder or custody[b] is not holder:
                raise ValueError(f"malformed state: {holder.value} does not hold {a},{b}")
        eve_record = adversary.EveRoundRecord() if cfg.eve_enabled else None

        link, anchor, bob = cfg.initial_labels

        # step 1: link partner crosses to Bob (Eve may tap it in transit)
        if eve_record is not None:
            tap = adversary.ChannelTap(ledger, randomness, r.alice_send)
            adversary.eve_intercept_outbound(eve_record, tap)
        custody[r.alice_send] = BOB

        # step 2: Alice's secret measurement
        alice_secret = ledger.measure(r.alice_keep, r.anchor_a, ALICE, randomness)

        # step 3: Bob's secret measurement
        bob_secret = ledger.measure(r.alice_send, r.bob_keep, BOB, randomness)

        # step 4: return transit (tapped again), then the public readout
        if eve_record is not None:
            tap = adversary.ChannelTap(ledger, randomness, r.bob_send)
            adversary.eve_intercept_return(eve_record, tap, bob)
        custody[r.bob_send] = ALICE
        announcement = ledger.measure(r.anchor_b, r.bob_send, ALICE, randomness)
        # `measure` leaves each pair it measures declared, and no later step
        # of the round touches these three, so their knower slots are set here
        cells[r.anchor_b][1] = _WORLD

        # step 5: inference from public data
        alice_inferred_bob = infer_other_secret(link, anchor, bob, alice_secret, announcement)
        bob_inferred_alice = infer_other_secret(link, anchor, bob, bob_secret, announcement)
        cells[r.alice_keep][1] |= KNOWER_BIT[BOB]
        cells[r.alice_send][1] |= KNOWER_BIT[ALICE]

        if eve_record is not None:
            adversary.eve_finalize(eve_record, cfg.initial_labels, cfg.eve_ancilla, announcement)

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
        of the next roles, Eve's ancilla pair last) back to its agreed label.

        Each correcting party must hold its pair and know its current
        label, which the ledger certifies: Alice knows her secret outcome
        and the announced value, Bob knows his secret outcome, Eve her
        detaching outcome. Every op `closing_corrections` returns is
        applied; the honest pairs' targets are the public agreed labels,
        so those pairs become public, while Eve's pair stays hers. Each
        pair is checked once, reading the partner map and the pair's cell
        (`require_knowledge` runs only to raise its `LedgerViolation`);
        a rotation keeps the cell, whose knower slot publishes an honest pair.
        """
        next_roles = self.rounds_run % len(ROLE_SCHEDULE)
        pairs = self._schedule[next_roles]
        table, custody, cfg = self.table, self.custody, self.config
        partner_of, cells = table._partner.get, table._cell
        held = []
        for q, partner, _, party in pairs:
            if partner_of(q) != partner:
                raise ValueError(f"malformed state: qubits {q},{partner} are not paired")
            if custody[q] is not party:
                raise LedgerViolation(f"{party.value} does not hold qubit {q}")
            label, knowers = cells[q]
            if knowers is None or not knowers & KNOWER_BIT[party]:
                self.ledger.require_knowledge(q, partner, party, "rotate")  # raises
            held.append(label)
        corrections = _closing_corrections(cfg.initial_labels, cfg.eve_ancilla, next_roles, *held)
        for (q, _, _, party), correction in zip(pairs, corrections):
            table.apply_pauli(q, correction.op)
            if party is not EVE:
                cells[q][1] = _WORLD
        self.roles = ROLE_SCHEDULE[next_roles]
        self._pairs = pairs
        return corrections

    # -- whole session -------------------------------------------------------

    def run(self, draws=None) -> SessionTranscript:
        """Run every round, round i on row i of `draws` (each round's
        draws in order; `session_draws` under the config's seed by
        default), which must hold one row per round."""
        rounds = self.config.rounds
        if draws is None:
            draws = session_draws(self.config.seed, rounds)
        records = []
        for row in draws:
            record = self.run_round(ChosenDraws(row))
            record.corrections = self.reset_round()
            records.append(record)
        if len(records) != rounds:
            raise ValueError(f"draws for {len(records)} rounds, the session has {rounds}")
        return SessionTranscript(self.config, records)


def run_session(config: SessionConfig, draws=None) -> SessionTranscript:
    """Run a fresh seeded session end to end; `draws` as in `Session.run`."""
    return Session(config).run(draws)


def replay_round(config: SessionConfig, forced: ForcedOutcomes) -> tuple[RoundRecord, Session]:
    """Run round 0 of a fresh session on the branch `forced` pins.

    The round draws each pinned outcome from a `ChosenDraws` stream; each
    unpinned one takes, in the same order, the next draw of round 0's
    stream under `config.seed`, derived only when an outcome is unpinned.
    """
    outcomes = (forced.alice_secret, forced.bob_secret)
    if config.eve_enabled:
        outcomes = (forced.eve_outbound, *outcomes, forced.eve_detach)
    if None in outcomes:
        unpinned = round_stream(config.seed, 0)
    draws = [unpinned.integers(0, 4) if o is None else o.index for o in outcomes]
    session = Session(config)
    record = session.run_round(ChosenDraws(draws))
    return record, session
