"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here: exact equality for algebraic claims,
3-sigma binomial bounds (sigma = sqrt(p(1-p)/trials)) for Monte Carlo
frequencies, and explicit wall-clock ceilings where stated.
"""

import time
from contextlib import contextmanager

from swapqkd import analysis, verify
from swapqkd.adversary import (
    ChannelTap,
    EveRoundRecord,
    eve_finalize,
    eve_intercept_outbound,
    eve_intercept_return,
)
from swapqkd.bell import ALL_LABELS, BellLabel, PairTable, swap_rule
from swapqkd.cli import main
from swapqkd.knowledge import KnowledgeLedger, Party, Visibility
from swapqkd.protocol import DEFAULT_LABELS, Session, SessionConfig, infer_other_secret, run_session
from swapqkd.rng import ChosenDraws
from test_protocol import public_cells


def lab(s: str) -> BellLabel:
    return BellLabel.from_string(s)


def three_sigma(p: float, trials: int) -> float:
    return 3 * (p * (1 - p) / trials) ** 0.5


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_swap_table_reproduction():
    with criterion(1, "swap-table reproduction, 64 cases, exact, <1s"):
        start = time.perf_counter()
        assert verify.check_swap_table() == []
        # every row regenerated as a set from each of its four left entries
        for row in verify.SWAP_TABLE_ROWS:
            for entry in row:
                left, right = lab(entry[:2]), lab(entry[2:])
                produced = {f"{o}{swap_rule(left, right, o)}" for o in ALL_LABELS}
                assert produced == set(row)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_oracle_equivalence():
    with criterion(2, "dense-oracle equivalence, 16x4 forced cases, <5s"):
        start = time.perf_counter()
        assert verify.check_swap_against_oracle() == []
        assert time.perf_counter() - start < 5.0


def test_criterion_3_worked_example_replay():
    with criterion(3, "forced-round walkthrough values, exact"):
        bob = infer_other_secret(*DEFAULT_LABELS, lab("11"), lab("00"))
        session = Session(SessionConfig(rounds=1, seed=0))
        record = session.run_round(ChosenDraws([lab("11").index, bob.index]))
        assert record.announcement == lab("00")
        assert record.bob_secret == lab("00")
        assert record.bob_inferred_alice == lab("11")
        assert record.alice_inferred_bob == lab("00")


def test_criterion_4_eavesdropper_chain_replay():
    with criterion(4, "forced eavesdropper chain, exact"):
        table = PairTable(
            [(1, 2, lab("11")), (3, 5, lab("10")), (4, 6, lab("10")), (7, 8, lab("00"))]
        )
        ledger = KnowledgeLedger(table)
        for a, b, _ in table.pairs():
            ledger.declare(a, b, Visibility.PUBLIC)
        ledger.declare(7, 8, Visibility.EVE_ONLY)
        labels, ancilla = (lab("11"), lab("10"), lab("10")), lab("00")
        eve = EveRoundRecord()

        # the round's draws: outbound 00, Alice 11, Bob 00, detach 01
        rng = ChosenDraws([lab(t).index for t in ("00", "11", "00", "01")])
        tap = ChannelTap(ledger, rng, transit=2)
        eve_intercept_outbound(eve, tap)
        assert table.partner(1) == 7 and table.label(1) == lab("11")

        ledger.measure(1, 3, Party.ALICE, rng)
        assert table.partner(5) == 7 and table.label(5) == lab("10")

        ledger.measure(2, 4, Party.BOB, rng)
        assert table.partner(6) == 8 and table.label(6) == lab("10")

        tap = ChannelTap(ledger, rng, transit=6)
        readout, _ = eve_intercept_return(eve, tap, labels[2])
        assert readout == lab("10")
        assert eve.inferred_bob == lab("00")
        assert table.partner(5) == 6 and table.label(5) == lab("01")

        announcement = table.bsm(5, 6)
        assert eve_finalize(eve, labels, ancilla, announcement) == lab("11")

        # same chain through the full round runner: Bob decodes a tampered 10
        session = Session(SessionConfig(rounds=1, seed=0, eve_enabled=True))
        record = session.run_round(ChosenDraws([lab(t).index for t in ("00", "11", "00", "01")]))
        assert record.eve.inferred_alice == lab("11")
        assert record.eve.inferred_bob == lab("00")
        assert record.bob_inferred_alice == lab("10")
        assert record.key_bits == "11"


def test_criterion_5_rate_claim():
    with criterion(5, "rate = 1 key bit per transmitted qubit, keys equal"):
        for rounds, seed in ((100, 71), (253, 72)):
            transcript = run_session(SessionConfig(rounds=rounds, seed=seed))
            report = analysis.rate_report(transcript)
            assert report.key_bits == 2 * rounds
            assert report.transmitted_qubits == 2 * rounds
            assert report.rate == 1.0
            assert transcript.bob_key == transcript.alice_key


def test_criterion_6_eavesdropper_effectiveness():
    with criterion(6, "eavesdropper recovers both secrets, 10^4 rounds, exactly"):
        transcript = run_session(SessionConfig(rounds=10_000, seed=81, eve_enabled=True))
        hits = sum(
            rec.eve.inferred_alice == rec.alice_secret
            and rec.eve.inferred_bob == rec.bob_secret
            for rec in transcript.rounds
        )
        assert hits == 10_000
        assert transcript.eve_key == transcript.alice_key


def test_criterion_7_detection_statistics():
    with criterion(7, "detection frequencies vs closed forms, 3-sigma, <10s"):
        # closed forms are exact
        assert analysis.scheme_detection_probability(2) == 0.75
        for n in range(0, 11):
            assert analysis.scheme_detection_probability(2 * n) == 1.0 - 0.5 ** (2 * n)
            assert analysis.bb84_detection_probability(n) == 1.0 - 0.75**n

        start = time.perf_counter()
        sessions = 10_000
        estimates = {
            n: analysis.estimate_detection(n, sessions, seed=100 + n, workers=2)
            for n in (1, 2, 3, 4)
        }
        elapsed = time.perf_counter() - start

        # per-tested-pair frequency: one pair per session, 10^4 sessions
        single = estimates[1]
        assert single.expected == 0.75
        assert abs(single.empirical - 0.75) <= three_sigma(0.75, sessions)

        for n, est in estimates.items():
            expected = 1.0 - 0.25**n
            assert est.expected == expected
            assert abs(est.empirical - expected) <= three_sigma(expected, sessions), (
                f"n={n}: {est.empirical} vs {expected}"
            )
        assert elapsed < 10.0, f"Monte Carlo sweep took {elapsed:.1f}s"


def test_criterion_8_secrecy_shape():
    with criterion(8, "public posterior: 4 equiprobable candidates incl. truth"):
        rounds = 10_000
        transcript = run_session(SessionConfig(rounds=rounds, seed=91))
        # the candidates: every honest branch with the round's phase and announcement
        cells = public_cells(transcript.config.initial_labels)
        counts = {label: 0 for label in ALL_LABELS}
        for rec in transcript.rounds:
            candidates = cells[rec.index % 4, rec.announcement]
            assert len(set(candidates)) == 4
            truth = (rec.alice_secret, rec.bob_secret)
            assert truth in candidates
            counts[rec.alice_secret] += 1  # which of the 4 candidates realized
        tol = three_sigma(0.25, rounds)
        for label, count in counts.items():
            assert abs(count / rounds - 0.25) <= tol, f"{label}: {count / rounds}"


def test_criterion_9_deterministic_transcripts(tmp_path, capsys):
    with criterion(9, "identical seed and config give byte-identical transcripts"):
        for variant, args in {
            "plain": ["run", "--rounds", "40", "--seed", "7"],
            "eve": [
                "run", "--rounds", "40", "--seed", "7", "--eve",
                "--test-fraction", "0.25",
            ],
        }.items():
            first = tmp_path / f"{variant}_1.jsonl"
            second = tmp_path / f"{variant}_2.jsonl"
            assert main(args + ["--out", str(first)]) == 0
            assert main(args + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes()
        capsys.readouterr()  # swallow the CLI summaries
