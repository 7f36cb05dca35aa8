"""Eavesdropper behavior: the forced chain, exactness, and disturbance."""

import pytest

from swapqkd import adversary
from swapqkd.adversary import (
    AccessViolation,
    ChannelTap,
    EveRoundRecord,
    eve_finalize,
    eve_intercept_outbound,
    eve_intercept_return,
)
from swapqkd.bell import ALL_LABELS, BellLabel, PairTable
from swapqkd.knowledge import KnowledgeLedger, LedgerViolation, Party, Visibility
from swapqkd.protocol import (
    DEFAULT_LABELS,
    ROLE_SCHEDULE,
    Session,
    SessionConfig,
    run_session,
)
from swapqkd.rng import ChosenDraws, round_stream, stream


def lab(s: str) -> BellLabel:
    return BellLabel.from_string(s)


def draws(*texts: str) -> ChosenDraws:
    """A stream that hands out the given outcomes, in order."""
    return ChosenDraws([lab(t).index for t in texts])


def fresh_scene(ancilla="00"):
    """Round-start state with the attacker armed: protocol pairs public,
    ancillas hers; Eve's record of the round is empty."""
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
    return table, ledger, EveRoundRecord()


class TestForcedChain:
    def test_step_by_step(self):
        table, ledger, eve = fresh_scene()
        link, _, bob = DEFAULT_LABELS
        ancilla = lab("00")
        # outbound, Alice's and Bob's secrets (the walkthrough's), detach
        rng = draws("00", "11", "00", "01")

        tap = ChannelTap(ledger, rng, transit=2)
        e1 = eve_intercept_outbound(eve, tap)
        assert e1 == lab("00")
        assert table.label(1) == lab("11") and table.partner(1) == 7
        assert link ^ ancilla ^ e1 == table.label(1)
        assert ledger.tag(1, 7) is Visibility.EVE_ONLY

        # the legitimate secret measurements, with the walkthrough outcomes
        assert ledger.measure(1, 3, Party.ALICE, rng) == lab("11")
        assert table.label(5) == lab("10") and table.partner(5) == 7
        assert ledger.measure(2, 4, Party.BOB, rng) == lab("00")
        assert table.label(6) == lab("10") and table.partner(6) == 8

        tap = ChannelTap(ledger, rng, transit=6)
        readout, detach = eve_intercept_return(eve, tap, bob)
        assert readout == lab("10")
        assert eve.inferred_bob == lab("00")
        assert detach == lab("01")
        assert table.label(5) == lab("01") and table.partner(5) == 6

        announcement = table.bsm(5, 6)
        assert announcement == lab("01")
        assert eve_finalize(eve, DEFAULT_LABELS, ancilla, announcement) == lab("11")

    def test_all_zero_chain(self):
        table, ledger, eve = fresh_scene()
        # zero out the protocol pairs too
        table = PairTable([(q, p, lab("00")) for q, p, _ in table.pairs()])
        zeros = (lab("00"),) * 3
        ledger = KnowledgeLedger(table)
        for a, b, _ in table.pairs():
            ledger.declare(a, b, Visibility.PUBLIC)
        ledger.declare(7, 8, Visibility.EVE_ONLY)

        rng = draws("00", "00", "00", "00")
        tap = ChannelTap(ledger, rng, transit=2)
        eve_intercept_outbound(eve, tap)
        assert table.label(1) == lab("00")
        ledger.measure(1, 3, Party.ALICE, rng)
        ledger.measure(2, 4, Party.BOB, rng)
        tap = ChannelTap(ledger, rng, transit=6)
        eve_intercept_return(eve, tap, zeros[2])
        assert eve.inferred_bob == lab("00")
        assert table.label(5) == lab("00")
        assert eve_finalize(eve, zeros, lab("00"), table.bsm(5, 6)) == lab("00")

    def test_full_round_record(self):
        # outbound, Alice's and Bob's secrets, detach
        session = Session(SessionConfig(rounds=1, seed=0, eve_enabled=True))
        record = session.run_round(draws("00", "11", "00", "01"))
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
        _, ledger, _ = fresh_scene()
        tap = ChannelTap(ledger, stream(0), transit=2)
        with pytest.raises(AccessViolation):
            tap.bsm(1, 8)  # Alice's retained qubit is not in the channel
        with pytest.raises(AccessViolation):
            tap.bsm(3, 5)

    def test_tap_allows_transit_and_ancillas_only(self):
        table, ledger, _ = fresh_scene()
        tap = ChannelTap(ledger, draws("00"), transit=2)
        assert tap.bsm(2, 8) == lab("00")

    def test_double_intercept_rejected(self):
        table, ledger, eve = fresh_scene()
        tap = ChannelTap(ledger, draws("00", "00"), transit=2)
        eve_intercept_outbound(eve, tap)
        with pytest.raises(RuntimeError, match="already intercepted"):
            eve_intercept_outbound(eve, tap)

    def test_double_return_intercept_rejected(self):
        table, ledger, eve = fresh_scene()
        rng = draws("00", "11", "00", "01")
        eve_intercept_outbound(eve, ChannelTap(ledger, rng, transit=2))
        ledger.measure(1, 3, Party.ALICE, rng)
        ledger.measure(2, 4, Party.BOB, rng)
        tap = ChannelTap(ledger, rng, transit=6)
        eve_intercept_return(eve, tap, DEFAULT_LABELS[2])
        before = table.pairs(), ledger.pairs(), repr(eve)
        with pytest.raises(RuntimeError) as caught:
            eve_intercept_return(eve, tap, DEFAULT_LABELS[2])
        assert str(caught.value) == "return transmission already intercepted this round"
        assert (table.pairs(), ledger.pairs(), repr(eve)) == before

    def test_return_before_outbound_rejected(self):
        table, ledger, eve = fresh_scene()
        tap = ChannelTap(ledger, stream(0), transit=6)
        with pytest.raises(RuntimeError, match="outbound swap first"):
            eve_intercept_return(eve, tap, DEFAULT_LABELS[2])

    def test_finalize_before_interceptions_rejected(self):
        _, _, eve = fresh_scene()
        with pytest.raises(RuntimeError, match="both interceptions"):
            eve_finalize(eve, DEFAULT_LABELS, lab("00"), lab("00"))

    def test_reset_requires_detached_ancillas(self):
        # Eve rotates her ancilla pair back only if she knows its label,
        # which her detaching measurement tells her
        session = Session(SessionConfig(rounds=1, seed=0, eve_enabled=True))
        session.run_round(round_stream(0, 0))
        session.ledger.declare(7, 8, Visibility.UNKNOWN)
        with pytest.raises(LedgerViolation, match="eve cannot rotate"):
            session.reset_round()

    @pytest.mark.parametrize("transit", [2, 4], ids=["schedule_transit", "other_transit"])
    def test_check_messages(self, transit):
        """Each refused tap call keeps its exception and message, with a
        transit of the role schedule and with any other."""
        _, ledger, _ = fresh_scene()
        tap = ChannelTap(ledger, stream(0), transit=transit)
        reach = f"outside Eve's reach [{transit}, 7, 8]"
        cases = [
            (lambda: tap.bsm(1, 8), f"measurement on (1,8) is {reach}"),
            (lambda: tap.bsm(transit, 3), f"measurement on ({transit},3) is {reach}"),
            (lambda: tap.are_partners(1, 8), "(1,8) is outside Eve's reach"),
            (lambda: tap.are_partners(7, 3), "(7,3) is outside Eve's reach"),
        ]
        for call, message in cases:
            with pytest.raises(AccessViolation) as caught:
                call()
            assert type(caught.value) is AccessViolation and str(caught.value) == message

    def test_return_before_secret_measurements_rejected(self):
        table, ledger, eve = fresh_scene()
        tap = ChannelTap(ledger, draws("00"), transit=2)
        eve_intercept_outbound(eve, tap)
        # nobody has measured: qubit 6 is still partnered with 4, not with 8
        tap = ChannelTap(ledger, stream(0), transit=6)
        with pytest.raises(RuntimeError, match="not yet done"):
            eve_intercept_return(eve, tap, DEFAULT_LABELS[2])


class TestSessionTap:
    """A session's one tap, re-pointed at each transit's qubit and draws."""

    def test_return_transit_refuses_the_outbound_qubit(self, monkeypatch):
        """At each role phase, once the return transit begins, the reused
        tap refuses the qubit it reached on the way out, with the message
        a tap built for the return transit gives."""
        session = Session(SessionConfig(rounds=4, seed=3, eve_enabled=True))
        seen = []
        intercept = adversary.eve_intercept_return

        def checked(record, tap, bob):
            roles = session.roles
            outbound, back = roles.alice_send, roles.bob_send
            assert tap.transit == back
            for call, message in [
                (lambda: tap.bsm(outbound, 8),
                 f"measurement on ({outbound},8) is outside Eve's reach {sorted({7, 8, back})}"),
                (lambda: tap.are_partners(outbound, 8), f"({outbound},8) is outside Eve's reach"),
            ]:
                with pytest.raises(AccessViolation) as caught:
                    call()
                assert type(caught.value) is AccessViolation and str(caught.value) == message
            seen.append((roles, tap))
            return intercept(record, tap, bob)

        monkeypatch.setattr(adversary, "eve_intercept_return", checked)
        refused = session.run()
        monkeypatch.undo()
        assert [roles for roles, _ in seen] == list(ROLE_SCHEDULE)
        assert len({id(tap) for _, tap in seen}) == 1
        # the refused calls changed nothing
        assert refused.rounds == run_session(session.config).rounds

    def test_interleaved_sessions_never_share_a_tap(self, monkeypatch):
        configs = [SessionConfig(rounds=6, seed=seed, eve_enabled=True) for seed in (4, 5)]
        sessions = [Session(config) for config in configs]
        taps = {0: set(), 1: set()}
        running = None
        steps = {name: getattr(adversary, name)
                 for name in ("eve_intercept_outbound", "eve_intercept_return")}

        def recorded(step):
            def call(record, tap, *rest):
                assert tap._ledger is sessions[running].ledger
                taps[running].add(id(tap))
                return step(record, tap, *rest)
            return call

        for name, step in steps.items():
            monkeypatch.setattr(adversary, name, recorded(step))
        records = [[], []]
        for i in range(6):
            for running in (0, 1):
                session = sessions[running]
                records[running].append(session.run_round(round_stream(configs[running].seed, i)))
                session.reset_round()
        monkeypatch.undo()
        assert all(len(ids) == 1 for ids in taps.values())
        assert taps[0].isdisjoint(taps[1])
        for config, interleaved in zip(configs, records):
            assert [(r.alice_secret, r.bob_inferred_alice, r.eve) for r in interleaved] == [
                (r.alice_secret, r.bob_inferred_alice, r.eve) for r in run_session(config).rounds]
