"""Eavesdropper behavior: the forced chain, exactness, and disturbance."""

import pytest

from swapqkd.adversary import (
    AccessViolation,
    ChannelTap,
    EveState,
    eve_finalize,
    eve_intercept_outbound,
    eve_intercept_return,
)
from swapqkd.bell import ALL_LABELS, BellLabel, PairTable
from swapqkd.knowledge import KnowledgeLedger, LedgerViolation, Party, Visibility
from swapqkd.protocol import ForcedOutcomes, Session, SessionConfig, replay_round, run_session
from swapqkd.rng import ChosenDraws, round_stream, stream


def lab(s: str) -> BellLabel:
    return BellLabel.from_string(s)


def draws(*texts: str) -> ChosenDraws:
    """A stream that hands out the given outcomes, in order."""
    return ChosenDraws([lab(t).index for t in texts])


def fresh_scene(ancilla="00"):
    """Round-start state with the attacker armed: protocol pairs public,
    ancillas hers."""
    table = PairTable(
        [
            (1, 2, lab("11")),
            (3, 5, lab("10")),
            (4, 6, lab("10")),
            (7, 8, lab(ancilla)),
        ]
    )
    ledger = KnowledgeLedger(table)
    for a, b, _ in table.pairs():
        ledger.declare(a, b, Visibility.PUBLIC)
    ledger.declare(7, 8, Visibility.EVE_ONLY)
    eve = EveState(
        link_label=lab("11"),
        anchor_label=lab("10"),
        bob_label=lab("10"),
        ancilla_label=lab(ancilla),
    )
    return table, ledger, eve


class TestForcedChain:
    def test_step_by_step(self):
        table, ledger, eve = fresh_scene()
        # outbound, Alice's and Bob's secrets (the walkthrough's), detach
        rng = draws("00", "11", "00", "01")

        tap = ChannelTap(ledger, rng, eve.ancillas, transit=2)
        e1 = eve_intercept_outbound(eve, tap)
        assert e1 == lab("00")
        assert table.label(1) == lab("11") and table.partner(1) == 7
        assert eve.link_label ^ eve.ancilla_label ^ e1 == table.label(1)
        assert ledger.tag(1, 7) is Visibility.EVE_ONLY

        # the legitimate secret measurements, with the walkthrough outcomes
        assert ledger.measure(1, 3, Party.ALICE, rng) == lab("11")
        assert table.label(5) == lab("10") and table.partner(5) == 7
        assert ledger.measure(2, 4, Party.BOB, rng) == lab("00")
        assert table.label(6) == lab("10") and table.partner(6) == 8

        tap = ChannelTap(ledger, rng, eve.ancillas, transit=6)
        readout, detach = eve_intercept_return(eve, tap)
        assert readout == lab("10")
        assert eve.record.inferred_bob == lab("00")
        assert detach == lab("01")
        assert table.label(5) == lab("01") and table.partner(5) == 6

        announcement = table.bsm(5, 6)
        assert announcement == lab("01")
        assert eve_finalize(eve, announcement) == lab("11")

    def test_all_zero_chain(self):
        table, ledger, eve = fresh_scene()
        # zero out the protocol pairs too
        table = PairTable([(q, p, lab("00")) for q, p, _ in table.pairs()])
        eve = EveState(
            link_label=lab("00"), anchor_label=lab("00"), bob_label=lab("00")
        )
        ledger = KnowledgeLedger(table)
        for a, b, _ in table.pairs():
            ledger.declare(a, b, Visibility.PUBLIC)
        ledger.declare(7, 8, Visibility.EVE_ONLY)

        rng = draws("00", "00", "00", "00")
        tap = ChannelTap(ledger, rng, eve.ancillas, transit=2)
        eve_intercept_outbound(eve, tap)
        assert table.label(1) == lab("00")
        ledger.measure(1, 3, Party.ALICE, rng)
        ledger.measure(2, 4, Party.BOB, rng)
        tap = ChannelTap(ledger, rng, eve.ancillas, transit=6)
        eve_intercept_return(eve, tap)
        assert eve.record.inferred_bob == lab("00")
        assert table.label(5) == lab("00")
        assert eve_finalize(eve, table.bsm(5, 6)) == lab("00")

    def test_full_round_record(self):
        record, _ = replay_round(
            SessionConfig(rounds=1, seed=0, eve_enabled=True),
            ForcedOutcomes(
                alice_secret=lab("11"),
                bob_secret=lab("00"),
                eve_outbound=lab("00"),
                eve_detach=lab("01"),
            ),
        )
        assert record.eve.outbound_outcome == lab("00")
        assert record.eve.return_readout == lab("10")
        assert record.eve.detach_outcome == lab("01")
        assert record.eve.inferred_bob == lab("00")
        assert record.eve.inferred_alice == lab("11")
        assert record.announcement == lab("01")
        # the tamper: Bob decodes 10 while Alice's key bits are 11
        assert record.bob_inferred_alice == lab("10")
        assert record.key_bits == "11"


class TestExactness:
    def test_eve_learns_both_secrets_every_round(self):
        transcript = run_session(SessionConfig(rounds=2000, seed=21, eve_enabled=True))
        for rec in transcript.rounds:
            assert rec.eve.inferred_alice == rec.alice_secret
            assert rec.eve.inferred_bob == rec.bob_secret
        assert transcript.eve_key == transcript.alice_key

    @pytest.mark.parametrize("ancilla", ["00", "01", "10", "11"])
    def test_exact_for_any_ancilla_label(self, ancilla):
        transcript = run_session(
            SessionConfig(
                rounds=400, seed=22, eve_enabled=True, eve_ancilla=lab(ancilla)
            )
        )
        for rec in transcript.rounds:
            assert rec.eve.inferred_alice == rec.alice_secret
            assert rec.eve.inferred_bob == rec.bob_secret


class TestDisturbance:
    def test_bob_matches_alice_a_quarter_of_the_time(self):
        rounds = 10_000
        transcript = run_session(SessionConfig(rounds=rounds, seed=23, eve_enabled=True))
        matches = sum(
            rec.bob_inferred_alice == rec.alice_secret for rec in transcript.rounds
        )
        tol = 3 * (0.25 * 0.75 / rounds) ** 0.5
        assert abs(matches / rounds - 0.25) <= tol

    @pytest.mark.parametrize("ancilla", ["01", "11"])
    def test_disturbance_holds_for_other_ancillas(self, ancilla):
        rounds = 4000
        transcript = run_session(
            SessionConfig(rounds=rounds, seed=24, eve_enabled=True, eve_ancilla=lab(ancilla))
        )
        matches = sum(
            rec.bob_inferred_alice == rec.alice_secret for rec in transcript.rounds
        )
        tol = 3 * (0.25 * 0.75 / rounds) ** 0.5
        assert abs(matches / rounds - 0.25) <= tol

    def test_announcement_stays_uniform_under_attack(self):
        rounds = 10_000
        transcript = run_session(SessionConfig(rounds=rounds, seed=25, eve_enabled=True))
        tol = 3 * (0.25 * 0.75 / rounds) ** 0.5
        counts = {label: 0 for label in ALL_LABELS}
        for rec in transcript.rounds:
            counts[rec.announcement] += 1
        for label, count in counts.items():
            assert abs(count / rounds - 0.25) <= tol


class TestAccessControl:
    def test_tap_rejects_out_of_reach_qubits(self):
        _, ledger, eve = fresh_scene()
        tap = ChannelTap(ledger, stream(0), eve.ancillas, transit=2)
        with pytest.raises(AccessViolation):
            tap.bsm(1, 8)  # Alice's retained qubit is not in the channel
        with pytest.raises(AccessViolation):
            tap.bsm(3, 5)

    def test_tap_allows_transit_and_ancillas_only(self):
        table, ledger, eve = fresh_scene()
        tap = ChannelTap(ledger, draws("00"), eve.ancillas, transit=2)
        assert tap.bsm(2, 8) == lab("00")

    def test_double_intercept_rejected(self):
        table, ledger, eve = fresh_scene()
        tap = ChannelTap(ledger, draws("00", "00"), eve.ancillas, transit=2)
        eve_intercept_outbound(eve, tap)
        with pytest.raises(RuntimeError, match="already intercepted"):
            eve_intercept_outbound(eve, tap)

    def test_return_before_outbound_rejected(self):
        table, ledger, eve = fresh_scene()
        tap = ChannelTap(ledger, stream(0), eve.ancillas, transit=6)
        with pytest.raises(RuntimeError, match="outbound swap first"):
            eve_intercept_return(eve, tap)

    def test_finalize_before_interceptions_rejected(self):
        _, _, eve = fresh_scene()
        with pytest.raises(RuntimeError, match="both interceptions"):
            eve_finalize(eve, lab("00"))

    def test_reset_requires_detached_ancillas(self):
        # Eve rotates her ancilla pair back only if she knows its label,
        # which her detaching measurement tells her
        session = Session(SessionConfig(rounds=1, seed=0, eve_enabled=True))
        session.run_round(round_stream(0, 0))
        session.ledger.declare(7, 8, Visibility.UNKNOWN)
        with pytest.raises(LedgerViolation, match="eve cannot rotate"):
            session.reset_round()

    def test_return_before_secret_measurements_rejected(self):
        table, ledger, eve = fresh_scene()
        tap = ChannelTap(ledger, draws("00"), eve.ancillas, transit=2)
        eve_intercept_outbound(eve, tap)
        # nobody has measured: qubit 6 is still partnered with 4, not with 8
        tap = ChannelTap(ledger, stream(0), eve.ancillas, transit=6)
        with pytest.raises(RuntimeError, match="not yet done"):
            eve_intercept_return(eve, tap)
