"""Round execution, inference, reset/rotation, and ledger behavior."""

import gc
import hashlib
import importlib
import itertools
import random
import sys
from collections import Counter, defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from swapqkd.analysis import _shared_full_report, estimate_detection
from swapqkd.bell import ALL_LABELS, BellLabel, PairTable, PauliOp, pauli_correction
from swapqkd.knowledge import KnowledgeLedger, LedgerViolation, Party, Visibility
from swapqkd.protocol import (
    _closing_corrections,
    _session_start,
    DEFAULT_LABELS,
    INITIAL_ROLES,
    Correction,
    RoleMap,
    Session,
    SessionConfig,
    infer_other_secret,
    run_session,
)
from swapqkd.rng import ChosenDraws, round_stream, stream
from swapqkd.transcript import TranscriptFile, emit_lines


def lab(s: str) -> BellLabel:
    return BellLabel.from_string(s)


def ledger_over(*pairs) -> KnowledgeLedger:
    """A ledger on a table holding `pairs`, each labelled 00, none tagged yet."""
    return KnowledgeLedger(PairTable([(a, b, lab("00")) for a, b in pairs]))


def three_sigma(p: float, trials: int) -> float:
    return 3 * (p * (1 - p) / trials) ** 0.5


def pinned(config: SessionConfig, *outcomes: BellLabel):
    """Round 0 of a fresh session under `config` on the branch `outcomes`
    name, in draw order: Eve's outbound swap, Alice's and Bob's secrets,
    Eve's detaching swap (only the two secrets without Eve)."""
    session = Session(config)
    return session.run_round(ChosenDraws([o.index for o in outcomes])), session


def every_branch(eve=False, labels=DEFAULT_LABELS, ancilla=lab("00")):
    """Run the session that takes every branch at every role phase: row i
    is draw code i // 4 at phase i % 4, two bits a draw, the first lowest.

    Yields (phase, draws, record, session) after each round. The caller
    resets the session before it asks for the next round."""
    count = 4 if eve else 2
    config = SessionConfig(rounds=4 * 4**count, seed=0, eve_enabled=eve, initial_labels=labels,
                           eve_ancilla=ancilla)
    session = Session(config)
    for i in range(config.rounds):
        draws = [ALL_LABELS[i // 4 >> 2 * k & 3] for k in range(count)]
        yield i % 4, draws, session.run_round(ChosenDraws([d.index for d in draws])), session


def public_cells(labels=DEFAULT_LABELS) -> dict:
    """(phase, announcement) -> the (alice, bob) secrets of every honest
    branch that announces it at that role phase."""
    cells = defaultdict(list)
    for phase, _, record, session in every_branch(labels=labels):
        cells[phase, record.announcement].append((record.alice_secret, record.bob_secret))
        session.reset_round()
    return cells


class TestInference:
    def test_walkthrough_values(self):
        assert infer_other_secret(lab("11"), lab("10"), lab("10"), lab("11"), lab("00")) == lab("00")
        assert infer_other_secret(lab("11"), lab("10"), lab("10"), lab("00"), lab("00")) == lab("11")

    def test_all_zero_inputs(self):
        zero = lab("00")
        assert infer_other_secret(zero, zero, zero, zero, zero) == zero
        assert infer_other_secret(zero, zero, zero, zero, zero) == zero

    def test_simulation_derived_case(self):
        # frozen from the forced-round sweep below
        assert infer_other_secret(lab("11"), lab("10"), lab("10"), lab("01"), lab("10")) == lab("00")

    def test_round_trip_is_involutive(self):
        for link, anchor, bob, s_a, p in itertools.product(ALL_LABELS, repeat=5):
            s_b = infer_other_secret(link, anchor, bob, s_a, p)
            assert infer_other_secret(link, anchor, bob, s_b, p) == s_a


class TestPublicPosterior:
    """What public data leaves open, read off `Session` run on every
    honest branch: the (alice, bob) secrets of the branches that share one
    announcement at one role phase."""

    def test_walkthrough_set(self):
        cells = public_cells()
        for phase in range(4):
            assert set(cells[phase, lab("00")]) == {
                (lab("00"), lab("11")),
                (lab("01"), lab("10")),
                (lab("10"), lab("01")),
                (lab("11"), lab("00")),
            }

    def test_all_zero_is_diagonal(self):
        cells = public_cells((lab("00"),) * 3)
        for phase in range(4):
            assert set(cells[phase, lab("00")]) == {(l, l) for l in ALL_LABELS}

    def test_four_candidates_with_constant_xor(self):
        """Secrecy for every label triple: each (phase, announcement) cell
        holds four branches, with four distinct Alice secrets and one
        Alice ^ Bob, the XOR of the labels and the announcement."""
        for labels in itertools.product(ALL_LABELS, repeat=3):
            cells = public_cells(labels)
            assert len(cells) == 16
            for (_, p), candidates in cells.items():
                assert len(candidates) == 4
                assert len({s_a for s_a, _ in candidates}) == 4
                xor = labels[0] ^ labels[1] ^ labels[2] ^ p
                assert all(s_a ^ s_b == xor for s_a, s_b in candidates), labels

    def test_true_secrets_always_a_candidate(self):
        cells = public_cells()
        transcript = run_session(SessionConfig(rounds=300, seed=31))
        for rec in transcript.rounds:
            assert (rec.alice_secret, rec.bob_secret) in cells[rec.index % 4, rec.announcement]


class TestForcedRound:
    def test_walkthrough_round(self):
        bob = infer_other_secret(*DEFAULT_LABELS, lab("11"), lab("00"))
        record, _ = pinned(SessionConfig(rounds=1, seed=0), lab("11"), bob)
        assert record.bob_secret == lab("00")
        assert record.bob_inferred_alice == lab("11")
        assert record.alice_inferred_bob == lab("00")
        assert record.key_bits == "11"
        assert record.announcement == lab("00")

    def test_all_forced_pairs_infer_correctly(self):
        for s_a, p in itertools.product(ALL_LABELS, repeat=2):
            bob = infer_other_secret(*DEFAULT_LABELS, s_a, p)
            record, _ = pinned(SessionConfig(rounds=1, seed=0), s_a, bob)
            assert record.announcement == p
            assert record.alice_secret == s_a
            assert record.alice_inferred_bob == record.bob_secret
            assert record.bob_inferred_alice == record.alice_secret

    def test_transmissions_always_two(self):
        record = Session(SessionConfig(rounds=1, seed=5)).run_round(round_stream(5, 0))
        assert record.transmissions == 2
        assert record.transfers == ((2, "alice_to_bob"), (6, "bob_to_alice"))


class TestEveryBranch:
    """Every branch at every role phase, 4 * 4**2 honest and 4 * 4**4 with
    Eve, through `Session.run_round` and `reset_round`: the paper's claims
    as exact counts."""

    def test_honest_inferences_hold_on_every_branch(self):
        for labels in (DEFAULT_LABELS, (lab("01"), lab("11"), lab("00"))):
            for _, (s_a, s_b), record, session in every_branch(labels=labels):
                assert (record.alice_secret, record.bob_secret) == (s_a, s_b)
                assert record.alice_inferred_bob == s_b
                assert record.bob_inferred_alice == s_a
                session.reset_round()

    @pytest.mark.parametrize("ancilla", ["00", "01", "10", "11"])
    def test_eve_exact_and_bob_disturbed_on_three_quarters(self, ancilla):
        """Claim (c) as an exact count: Bob misses Alice's secret on 192
        of the 256 codes at each phase, so n tested rounds, drawn from
        independent streams, miss Eve with probability (1/4)**n. Under
        her attack too, the announcement says nothing of Alice's secret:
        each (phase, announcement, secret) cell holds 16 codes."""
        disturbed = [0] * 4
        cells = Counter()
        for phase, draws, record, session in every_branch(eve=True, ancilla=lab(ancilla)):
            outbound, s_a, s_b, detach = draws
            eve = record.eve
            assert (eve.outbound_outcome, record.alice_secret) == (outbound, s_a)
            assert (record.bob_secret, eve.detach_outcome) == (s_b, detach)
            assert eve.inferred_alice == s_a
            assert eve.inferred_bob == s_b
            disturbed[phase] += record.bob_inferred_alice != s_a
            cells[phase, record.announcement, s_a] += 1
            # the reset rotates her ancilla pair back with the other three, last
            corrections = session.reset_round()
            assert session.table.are_partners(7, 8)
            assert session.table.label(7) == lab(ancilla)
            assert corrections[-1] == Correction(Party.EVE, 7, pauli_correction(detach, lab(ancilla)))
        assert disturbed == [192] * 4
        assert len(cells) == 64 and set(cells.values()) == {16}

    @pytest.mark.parametrize("eve", [False, True], ids=["honest", "eve"])
    def test_replaying_recorded_outcomes_reproduces_each_round(self, eve):
        config = SessionConfig(
            rounds=200, seed=41, eve_enabled=eve,
            initial_labels=(lab("01"), lab("11"), lab("00")), eve_ancilla=lab("10"),
        )
        for rec in run_session(config).rounds:
            outcomes = (rec.alice_secret, rec.bob_secret)
            if eve:
                outcomes = (rec.eve.outbound_outcome, *outcomes, rec.eve.detach_outcome)
            replayed, _ = pinned(config, *outcomes)
            assert replayed.announcement == rec.announcement
            assert replayed.alice_inferred_bob == rec.alice_inferred_bob
            assert replayed.bob_inferred_alice == rec.bob_inferred_alice
            assert replayed.eve == rec.eve


class TestRoleRotation:
    def test_initial_roles(self):
        assert INITIAL_ROLES.qubits() == (1, 2, 3, 5, 4, 6)

    def test_rotation_regroups_pairs(self):
        r = INITIAL_ROLES.rotated()
        # the secret pair becomes the link, the announced pair the anchor,
        # and Bob's secret pair stays his
        assert {r.alice_keep, r.alice_send} == {1, 3}
        assert {r.anchor_a, r.anchor_b} == {5, 6}
        assert {r.bob_keep, r.bob_send} == {2, 4}

    def test_rotation_is_a_bijection_each_round(self):
        r = INITIAL_ROLES
        for _ in range(12):
            r = r.rotated()
            assert sorted(r.qubits()) == [1, 2, 3, 4, 5, 6]

    def test_fixed_retained_qubits(self):
        # one qubit per side never changes role across any number of rounds
        r = INITIAL_ROLES
        for _ in range(8):
            r = r.rotated()
            assert r.alice_keep == 1
            assert r.bob_keep == 4

    def test_duplicate_roles_rejected(self):
        with pytest.raises(ValueError, match="six distinct"):
            RoleMap(1, 1, 3, 5, 4, 6)

    def test_transmitted_qubits_cycle(self):
        cfg = SessionConfig(rounds=8, seed=9, eve_enabled=True)
        session = Session(cfg)
        for i in range(cfg.rounds):
            before = dict(session.custody)
            record = session.run_round(round_stream(cfg.seed, i))
            # the derived transfers name exactly the custody moves of the round
            moved = {
                (q, f"{before[q].value}_to_{holder.value}")
                for q, holder in session.custody.items()
                if holder is not before[q]
            }
            assert set(record.transfers) == moved
            session.reset_round()
        transcript = run_session(SessionConfig(rounds=8, seed=9))
        outbound = [rec.transfers[0][0] for rec in transcript.rounds]
        returned = [rec.transfers[1][0] for rec in transcript.rounds]
        assert outbound == [2, 3, 5, 6, 2, 3, 5, 6]
        assert returned == [6, 2, 3, 5, 6, 2, 3, 5]


class TestReset:
    def test_correction_for_known_offset(self):
        bob = infer_other_secret(*DEFAULT_LABELS, lab("10"), lab("00"))
        record, session = pinned(SessionConfig(rounds=1, seed=0), lab("10"), bob)
        assert record.announcement == lab("00")
        corrections = session.reset_round()
        by_holder = {(c.party, c.qubit): c.op for c in corrections}
        # secret pair sits at 10 and the agreed link label is 11: phase flip
        assert by_holder[(Party.ALICE, 1)] is PauliOp.Z

    def test_identity_correction_when_already_agreed(self):
        bob = infer_other_secret(*DEFAULT_LABELS, lab("11"), lab("10"))
        record, session = pinned(SessionConfig(rounds=1, seed=0), lab("11"), bob)
        assert record.announcement == lab("10")
        corrections = session.reset_round()
        by_holder = {(c.party, c.qubit): c.op for c in corrections}
        assert by_holder[(Party.ALICE, 1)] is PauliOp.I  # already at 11
        assert by_holder[(Party.ALICE, 5)] is PauliOp.I  # announced pair already at 10

    def test_reset_restores_agreed_labels_in_new_roles(self):
        cfg = SessionConfig(rounds=1, seed=3)
        session = Session(cfg)
        session.run_round(stream(cfg.seed, 0, 0))
        session.reset_round()
        r = session.roles
        link, anchor, bob = cfg.initial_labels
        assert session.table.label(r.alice_keep) == link
        assert session.table.label(r.anchor_a) == anchor
        assert session.table.label(r.bob_keep) == bob

    def test_reset_requires_known_labels(self):
        cfg = SessionConfig(rounds=1, seed=3)
        session = Session(cfg)
        session.run_round(stream(cfg.seed, 0, 0))
        # sabotage the ledger: pretend Alice never learned her own outcome
        session.ledger.declare(1, 3, Visibility.UNKNOWN)
        with pytest.raises(LedgerViolation, match="rotate"):
            session.reset_round()

    def test_round_after_reset_behaves_like_a_fresh_one(self):
        cfg = SessionConfig(rounds=2, seed=8)
        transcript = run_session(cfg)
        for rec in transcript.rounds:
            assert rec.alice_inferred_bob == rec.bob_secret
            assert rec.bob_inferred_alice == rec.alice_secret


class TestSessionProperties:
    def test_keys_identical_without_eavesdropper(self):
        transcript = run_session(SessionConfig(rounds=400, seed=12))
        assert transcript.alice_key == transcript.bob_key
        assert len(transcript.alice_key) == 800

    def test_conservation_three_pairs_between_rounds(self):
        cfg = SessionConfig(rounds=5, seed=13)
        session = Session(cfg)
        for i in range(cfg.rounds):
            session.run_round(stream(cfg.seed, 0, i))
            session.reset_round()
            assert len(session.table) == 3
            assert session.table.qubits() == {1, 2, 3, 4, 5, 6}

    def test_secret_and_announcement_marginally_uniform(self):
        rounds = 10_000
        transcript = run_session(SessionConfig(rounds=rounds, seed=14))
        tol = three_sigma(0.25, rounds)
        for pick in (lambda r: r.alice_secret, lambda r: r.announcement):
            counts = {label: 0 for label in ALL_LABELS}
            for rec in transcript.rounds:
                counts[pick(rec)] += 1
            for label, count in counts.items():
                assert abs(count / rounds - 0.25) <= tol, f"{label}: {count / rounds}"

    def test_empty_session(self):
        transcript = run_session(SessionConfig(rounds=0, seed=1))
        assert transcript.rounds == []
        assert transcript.alice_key == ""

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            SessionConfig(rounds=1, seed=-1)

    def test_rounds_bound_is_the_64_bit_index_range(self):
        # 2**64 rounds have indices 0 to 2**64 - 1; no session is run here
        SessionConfig(rounds=2**64, seed=1)
        with pytest.raises(ValueError, match="at most 2\\*\\*64"):
            SessionConfig(rounds=2**64 + 1, seed=1)

    def test_two_initial_labels_rejected(self):
        with pytest.raises(ValueError) as caught:
            SessionConfig(rounds=1, seed=1, initial_labels=DEFAULT_LABELS[:2])
        assert str(caught.value) == "exactly three initial labels: link, anchor, bob"

    def test_malformed_state_rejected(self):
        cfg = SessionConfig(rounds=1, seed=3)
        session = Session(cfg)
        session.table.apply_pauli(1, PauliOp.X)  # break the agreed label
        with pytest.raises(ValueError, match="malformed state"):
            session.run_round(stream(cfg.seed, 0, 0))

    def test_mis_rotated_ancilla_pair_rejected(self):
        # Eve's ancilla pair is an agreed pair too: a round starts only
        # from her preparation label
        cfg = SessionConfig(rounds=2, seed=3, eve_enabled=True)
        session = Session(cfg)
        session.run_round(round_stream(cfg.seed, 0))
        session.reset_round()
        session.table.apply_pauli(7, PauliOp.X)
        with pytest.raises(ValueError, match="malformed state"):
            session.run_round(round_stream(cfg.seed, 1))


class TestSessionDraws:
    def test_given_draws_drive_the_rounds(self):
        config = SessionConfig(rounds=5, seed=17, eve_enabled=True)
        streams = [round_stream(17, i) for i in range(5)]
        draws = [[source.integers(0, 4) for _ in range(4)] for source in streams]
        assert run_session(config, draws) == run_session(config)

    @pytest.mark.parametrize("eve", [False, True], ids=["honest", "eve"])
    def test_each_round_reads_exactly_its_row(self, eve, monkeypatch):
        # `run` re-points one stream at each row: every round starts at the
        # first draw of its own row, even after the round before drew the
        # rest of its row, and a draw past the row's four raises
        config = SessionConfig(rounds=8, seed=17, eve_enabled=eve)
        pick = random.Random(5)
        rows = [tuple(pick.choices(range(4), k=4)) for _ in range(8)]
        alone = Session(config)
        want = []
        for row in rows:
            record = alone.run_round(ChosenDraws(row))
            record.corrections = alone.reset_round()
            want.append(record)
        streams, left = [], []
        run_round = Session.run_round

        def run_then_drain(session, randomness):
            record = run_round(session, randomness)
            streams.append(randomness)
            rest = []
            with pytest.raises(ValueError, match="^all 4 chosen draws are used; none is left$"):
                while True:
                    rest.append(randomness.integers(0, 4))
            left.append(rest)
            return record

        monkeypatch.setattr(Session, "run_round", run_then_drain)
        assert run_session(config, rows).rounds == want
        assert len(set(map(id, streams))) == 1
        unused = 0 if eve else 2  # an honest round draws for its two secret swaps only
        assert left == [list(row[4 - unused:]) for row in rows]

    @pytest.mark.parametrize("rows", [4, 6])
    def test_draws_for_another_round_count_rejected(self, rows):
        config = SessionConfig(rounds=5, seed=17)
        with pytest.raises(ValueError, match=f"draws for {rows} rounds, the session has 5"):
            run_session(config, [(0, 0, 0, 0)] * rows)

    def test_a_row_with_a_non_integer_draw_rejected(self):
        config = SessionConfig(rounds=2, seed=0, eve_enabled=True)
        with pytest.raises(ValueError, match=r"^chosen draw 0 is 0\.2, not an integer$"):
            run_session(config, [[0.2, 1, 2, 3], [3.9, 3, 3, 3]])


def start_by_hand(config):
    """(table pairs, ledger tags, custody) a session under `config` starts
    from, written out from INITIAL_ROLES: qubits 1-2 (link), 3-5 (anchor)
    and 4-6 (bob), public, and Eve's 7-8 hers."""
    link, anchor, bob = config.initial_labels
    pairs = [(1, 2, link, Party.ALICE), (3, 5, anchor, Party.ALICE), (4, 6, bob, Party.BOB)]
    if config.eve_enabled:
        pairs.append((7, 8, config.eve_ancilla, Party.EVE))
    tags = {(a, b): Visibility.EVE_ONLY if holder is Party.EVE else Visibility.PUBLIC
            for a, b, _, holder in pairs}
    custody = {q: holder for a, b, _, holder in pairs for q in (a, b)}
    return sorted((a, b, label) for a, b, label, _ in pairs), tags, custody


def start_of(session):
    return session.table.pairs(), session.ledger.pairs(), session.custody


class TestSessionStart:
    @pytest.mark.parametrize("eve", [False, True])
    @pytest.mark.parametrize("ancilla", ALL_LABELS, ids=str)
    def test_start_equals_a_construction_by_hand(self, eve, ancilla):
        pick = random.Random(f"{eve}{ancilla}")
        for labels in [DEFAULT_LABELS] + [tuple(pick.choices(ALL_LABELS, k=3)) for _ in range(4)]:
            config = SessionConfig(rounds=1, seed=0, eve_enabled=eve, initial_labels=labels,
                                   eve_ancilla=ancilla)
            assert start_of(Session(config)) == start_by_hand(config)

    def test_sessions_share_no_state(self):
        config = SessionConfig(rounds=3, seed=5, eve_enabled=True, eve_ancilla=lab("01"))
        first, second = Session(config), Session(config)
        for state in (lambda s: s.table._partner, lambda s: s.table._cell, lambda s: s.custody):
            assert state(first) is not state(second)
        cells = {id(cell) for cell in first.table._cell.values()}
        assert cells.isdisjoint(id(cell) for cell in second.table._cell.values())
        # each pair's two qubits share one cell, as `add_pair` makes them
        assert len(cells) == 4
        first.table.apply_pauli(1, PauliOp.X)
        first.ledger.declare(7, 8, Visibility.PUBLIC)
        first.custody[2] = Party.BOB
        assert start_of(first) != start_by_hand(config)
        assert start_of(second) == start_by_hand(config)
        assert start_of(Session(config)) == start_by_hand(config)


class TestStateCheckMessages:
    """Every round-start and reset check keeps its exception and message."""

    def started(self) -> Session:
        session = Session(SessionConfig(rounds=2, seed=3))
        session.run_round(round_stream(3, 0))
        return session  # reset pairs: (1,3) and (5,6) Alice's, (4,2) Bob's

    def test_round_start(self):
        cases = [
            (lambda s: s.table.bsm(1, 3, ChosenDraws([0])), ValueError,
             "malformed state: qubits 1,2 are not paired"),
            (lambda s: s.table.apply_pauli(1, PauliOp.X), ValueError,
             "malformed state: pair (1,2) holds 01, agreed label is 11"),
            (lambda s: s.custody.update({2: Party.BOB}), ValueError,
             "malformed state: alice does not hold 1,2"),
        ]
        for damage, error, message in cases:
            session = Session(SessionConfig(rounds=1, seed=3))
            damage(session)
            with pytest.raises(error) as caught:
                session.run_round(round_stream(3, 0))
            assert type(caught.value) is error and str(caught.value) == message

    def test_reset(self):
        cases = [
            (lambda s: s.table.bsm(1, 5, ChosenDraws([0])), ValueError,
             "malformed state: qubits 1,3 are not paired"),
            (lambda s: s.custody.update({1: Party.BOB}), LedgerViolation,
             "alice does not hold qubit 1"),
            (lambda s: s.ledger.declare(1, 3, Visibility.UNKNOWN), LedgerViolation,
             "alice cannot rotate pair (1,3): label tag is unknown"),
            (lambda s: s.ledger.declare(4, 2, Visibility.ALICE_ONLY), LedgerViolation,
             "bob cannot rotate pair (4,2): label tag is alice_only"),
        ]
        for damage, error, message in cases:
            session = self.started()
            damage(session)
            with pytest.raises(error) as caught:
                session.reset_round()
            assert type(caught.value) is error and str(caught.value) == message
            assert session.rounds_run == 1 and session.roles == INITIAL_ROLES


class TestHotPath:
    """Python-level calls of a 200-round session, transcript included, and
    of one Monte Carlo point.

    A deterministic stand-in for a timing test: the count depends only on
    the code and the seed, not on the machine's speed. Each bound allows
    a few calls over the count on CPython 3.11 with the caches of
    `protocol` and `analysis` empty and `numpy.random` loaded, so it does
    not depend on test order.
    """

    def test_python_calls_per_eve_round(self):
        config = SessionConfig(rounds=200, seed=7, eve_enabled=True, test_fraction=0.1)
        assert self.calls(lambda: emit_lines(TranscriptFile.of(run_session(config)))) <= 9_600

    def test_python_calls_per_honest_round(self):
        config = SessionConfig(rounds=200, seed=7, test_fraction=0.1,
                               initial_labels=(lab("01"), lab("11"), lab("00")))
        assert self.calls(lambda: emit_lines(TranscriptFile.of(run_session(config)))) <= 4_338

    def test_python_calls_per_monte_carlo_point(self):
        # 200 sessions of 4 fully tested Eve rounds each
        assert self.calls(lambda: estimate_detection(4, 200, 11, workers=1)) <= 36_054

    def calls(self, run) -> int:
        """Calls made by `run()`, the call of `run` itself included."""
        # numpy loads it at a process's first Generator, the transcript's
        # public coin; a test run earlier may have done so
        importlib.import_module("numpy.random")
        _closing_corrections.cache_clear()
        _session_start.cache_clear()
        _shared_full_report.cache_clear()
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        gc.collect()  # so no finalizer of earlier garbage runs inside the count
        gc.disable()
        sys.setprofile(count)
        try:
            run()
        finally:
            sys.setprofile(None)
            gc.enable()
        return calls


class TestLedgerTrace:
    """The ledger's tags, and the table's labels, after every round and
    every reset of `every_branch`'s session. Each digest pins the sha256
    of one configuration's records."""

    @pytest.mark.parametrize("eve,labels,ancilla,digest", [
        (True, "11 10 10", "00",
         "00ca5d77d713036d21bd23166784aff20c1926b2a0ddf512e5e4ce29b4eb908b"),
        (True, "01 11 00", "10",
         "42e0b51c1b213ec7108765dc7182b37bf8001e6b309db53c2817a6d37f39ad70"),
        (False, "11 10 10", "00",
         "79637431a25347f8bb4fdf9bc5fd18e977991fd1236c37d75957a948d84ccd31"),
        (False, "01 11 00", "10",
         "d81796c00a0fda1b278ba4d293c8249c8080686b0d3bb8edf439350a2ea766b8"),
    ])
    def test_every_branch_at_every_phase(self, eve, labels, ancilla, digest):
        trace = hashlib.sha256()
        branches = every_branch(eve, tuple(map(lab, labels.split())), lab(ancilla))
        for i, (_, _, _, session) in enumerate(branches):
            for step in ("round", "reset"):
                if step == "reset":
                    session.reset_round()
                tags = ",".join(f"{a}-{b}:{tag.value}"
                                for (a, b), tag in sorted(session.ledger.pairs().items()))
                held = ",".join(f"{a}-{b}:{label}" for a, b, label in session.table.pairs())
                trace.update(f"{i} {step} {tags} {held}\n".encode())
        assert trace.hexdigest() == digest


class TestLedgerThroughRound:
    def test_final_tags_without_eve(self):
        session = Session(SessionConfig(rounds=1, seed=0))
        session.run_round(round_stream(0, 0))
        tags = session.ledger.pairs()
        assert tags[(1, 3)] is Visibility.ALICE_AND_BOB
        assert tags[(2, 4)] is Visibility.ALICE_AND_BOB
        assert tags[(5, 6)] is Visibility.PUBLIC

    def test_final_tags_with_eve(self):
        session = Session(SessionConfig(rounds=1, seed=0, eve_enabled=True))
        session.run_round(round_stream(0, 0))
        tags = session.ledger.pairs()
        assert tags[(1, 3)] is Visibility.ALICE_AND_BOB
        assert tags[(2, 4)] is Visibility.ALICE_AND_BOB
        assert tags[(5, 6)] is Visibility.PUBLIC
        assert tags[(7, 8)] is Visibility.EVE_ONLY

    def test_all_public_after_reset(self):
        cfg = SessionConfig(rounds=1, seed=4)
        session = Session(cfg)
        session.run_round(stream(cfg.seed, 0, 0))
        session.reset_round()
        assert all(tag is Visibility.PUBLIC for tag in session.ledger.pairs().values())


class TestKnowledgeLedger:
    def test_swap_induced_tag_is_intersection(self):
        ledger = ledger_over((1, 2), (3, 5))
        ledger.declare(1, 2, Visibility.PUBLIC)
        ledger.declare(3, 5, Visibility.PUBLIC)
        ledger.measure(1, 3, Party.ALICE, ChosenDraws([lab("00").index]))
        assert ledger.tag(1, 3) is Visibility.ALICE_ONLY
        assert ledger.tag(2, 5) is Visibility.ALICE_ONLY

    def test_second_swap_drops_to_unknown(self):
        ledger = ledger_over((1, 2), (3, 5), (4, 6))
        ledger.declare(1, 2, Visibility.PUBLIC)
        ledger.declare(3, 5, Visibility.PUBLIC)
        ledger.declare(4, 6, Visibility.PUBLIC)
        ledger.measure(1, 3, Party.ALICE, ChosenDraws([lab("00").index]))
        ledger.measure(2, 4, Party.BOB, ChosenDraws([lab("00").index]))
        # nobody knows both the Alice-only input and Bob's outcome
        assert ledger.tag(5, 6) is Visibility.UNKNOWN

    def test_measure_on_partners_is_a_readout(self):
        ledger = ledger_over((1, 2))
        ledger.declare(1, 2, Visibility.BOB_ONLY)
        assert ledger.measure(1, 2, Party.ALICE) == lab("00")
        assert ledger.table.pairs() == [(1, 2, lab("00"))]
        assert ledger.pairs() == {(1, 2): Visibility.ALICE_AND_BOB}

    def test_unknown_qubit_rejected(self):
        ledger = ledger_over((1, 2), (3, 4))
        ledger.declare(1, 2, Visibility.PUBLIC)
        table = ledger.table.copy()
        with pytest.raises(LedgerViolation, match="no ledgered pair"):
            ledger.measure(1, 9, Party.ALICE, ChosenDraws([lab("00").index]))
        # (3, 4) is in the table but was never declared
        with pytest.raises(LedgerViolation, match="no ledgered pair"):
            ledger.measure(1, 3, Party.ALICE, ChosenDraws([lab("00").index]))
        assert ledger.table == table

    def test_updates_on_non_partners_rejected(self):
        ledger = ledger_over((1, 2), (3, 4))
        ledger.declare(1, 2, Visibility.PUBLIC)
        ledger.declare(3, 4, Visibility.ALICE_ONLY)
        before = ledger.pairs()
        with pytest.raises(LedgerViolation, match="not a ledgered pair"):
            ledger.tag(1, 3)
        with pytest.raises(LedgerViolation, match="not a ledgered pair"):
            ledger.knows(2, 4, Party.BOB)
        with pytest.raises(LedgerViolation, match="not a ledgered pair"):
            ledger.require_knowledge(1, 3, Party.ALICE, "rotate")
        with pytest.raises(LedgerViolation, match="not a pair in the table"):
            ledger.declare(1, 3, Visibility.UNKNOWN)
        assert ledger.pairs() == before

    def test_pair_formed_behind_the_ledger_rejected(self):
        ledger = ledger_over((1, 2), (5, 6))
        ledger.declare(1, 2, Visibility.PUBLIC)
        ledger.declare(5, 6, Visibility.PUBLIC)
        ledger.table.bsm(1, 5, ChosenDraws([lab("00").index]))
        for a, b in ((1, 5), (2, 6)):
            with pytest.raises(LedgerViolation, match=f"qubits {a},{b} are not a ledgered pair"):
                ledger.tag(a, b)
            with pytest.raises(LedgerViolation, match=f"qubit {a} or {b} is in no ledgered pair"):
                ledger.measure(a, b, Party.ALICE)

    def test_pairs_after_a_swap_behind_the_ledger(self):
        """The swap leaves two undeclared pairs, which `pairs` leaves out
        and `measure` refuses, until one is declared."""
        ledger = ledger_over((1, 2), (3, 4), (5, 6))
        for a, b in ((1, 2), (3, 4), (5, 6)):
            ledger.declare(a, b, Visibility.PUBLIC)
        ledger.table.bsm(1, 3, ChosenDraws([0]))
        assert ledger.pairs() == {(5, 6): Visibility.PUBLIC}
        with pytest.raises(LedgerViolation) as caught:
            ledger.measure(1, 3, Party.ALICE)
        assert str(caught.value) == "qubit 1 or 3 is in no ledgered pair"
        ledger.declare(2, 4, Visibility.ALICE_ONLY)
        assert ledger.pairs() == {(2, 4): Visibility.ALICE_ONLY, (5, 6): Visibility.PUBLIC}

    def test_check_messages(self):
        """Each rejected ledger update keeps its exception and message."""
        ledger = ledger_over((1, 2), (3, 4), (5, 6), (7, 8))
        for a, b in ((1, 2), (5, 6), (7, 8)):
            ledger.declare(a, b, Visibility.PUBLIC)
        ledger.table.bsm(5, 7, ChosenDraws([0]))  # (5,7) and (6,8) get undeclared cells
        unpaired, alice = "is not paired; no ledgered pair holds it", Party.ALICE
        cases = [
            (lambda: ledger.measure(9, 1, alice), f"qubit 9 {unpaired}"),
            (lambda: ledger.measure(1, 10, alice), f"qubit 10 {unpaired}"),
            (lambda: ledger.measure(9, 10, alice), f"qubit 9 {unpaired}"),
            (lambda: ledger.measure(1, 3, alice), "qubit 1 or 3 is in no ledgered pair"),
            (lambda: ledger.measure(3, 1, alice), "qubit 3 or 1 is in no ledgered pair"),
            (lambda: ledger.measure(3, 4, alice), "qubit 3 or 4 is in no ledgered pair"),
            (lambda: ledger.measure(1, 5, alice), "qubit 1 or 5 is in no ledgered pair"),
            (lambda: ledger.measure(5, 1, alice), "qubit 5 or 1 is in no ledgered pair"),
        ]

        def state():
            return ledger.table.pairs(), {q: cell[1] for q, cell in ledger.table._cell.items()}

        before = state()
        for update, message in cases:
            with pytest.raises(LedgerViolation) as caught:
                update()
            assert type(caught.value) is LedgerViolation and str(caught.value) == message
            assert state() == before

    def test_require_knowledge(self):
        ledger = ledger_over((1, 2))
        ledger.declare(1, 2, Visibility.BOB_ONLY)
        ledger.require_knowledge(1, 2, Party.BOB, "rotate")
        with pytest.raises(LedgerViolation, match="alice cannot rotate"):
            ledger.require_knowledge(1, 2, Party.ALICE, "rotate")

    @given(st.sampled_from(list(Visibility)), st.sampled_from(list(Visibility)))
    def test_eve_swap_tag_never_widens_to_honest_parties(self, va, vb):
        ledger = ledger_over((1, 2), (7, 8))
        ledger.declare(1, 2, va)
        ledger.declare(7, 8, vb)
        ledger.measure(2, 8, Party.EVE, ChosenDraws([lab("00").index]))
        assert ledger.tag(2, 8) is Visibility.EVE_ONLY
        assert ledger.tag(1, 7) in (Visibility.EVE_ONLY, Visibility.UNKNOWN)
