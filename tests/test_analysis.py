"""Detection formulas, the eavesdropping test, rates, and Monte Carlo."""

import math

import pytest

from swapqkd import analysis
from swapqkd.protocol import SessionConfig, SessionTranscript, run_session
from swapqkd.rng import BLOCK, COIN, session_seeds, stream


class TestClosedForms:
    @pytest.mark.parametrize(
        "bits,expected",
        [(0, 0.0), (2, 0.75), (4, 0.9375), (20, 1.0 - 2.0**-20)],
    )
    def test_scheme_detection(self, bits, expected):
        assert analysis.scheme_detection_probability(bits) == expected

    def test_scheme_rejects_odd_bit_counts(self):
        with pytest.raises(ValueError, match="even"):
            analysis.scheme_detection_probability(3)

    def test_scheme_rejects_negative(self):
        with pytest.raises(ValueError):
            analysis.scheme_detection_probability(-2)

    @pytest.mark.parametrize(
        "bits,expected",
        [(0, 0.0), (1, 0.25), (4, 1.0 - 81.0 / 256.0)],
    )
    def test_reference_detection(self, bits, expected):
        assert analysis.bb84_detection_probability(bits) == expected

    def test_reference_rejects_negative(self):
        with pytest.raises(ValueError):
            analysis.bb84_detection_probability(-1)

    def test_pairwise_identity(self):
        # comparing 2n bits pair-by-pair is the same as n three-quarter tests
        for n in range(0, 12):
            assert analysis.scheme_detection_probability(2 * n) == 1.0 - 0.25**n

    def test_monotone_in_bits(self):
        scheme = [analysis.scheme_detection_probability(2 * n) for n in range(10)]
        other = [analysis.bb84_detection_probability(n) for n in range(10)]
        assert scheme == sorted(scheme)
        assert other == sorted(other)
        assert all(0.0 <= p <= 1.0 for p in scheme + other)


class TestEavesdroppingTest:
    def test_clean_session_has_no_mismatches(self):
        transcript = run_session(SessionConfig(rounds=60, seed=41))
        report = analysis.eavesdropping_test(transcript, 0.25, stream(41, COIN))
        assert report.mismatches == 0
        assert not report.eve_detected
        assert report.pairs_tested == 15
        assert report.bits_tested == 30

    def test_tested_rounds_leave_the_key(self):
        transcript = run_session(SessionConfig(rounds=40, seed=42))
        report = analysis.eavesdropping_test(transcript, 0.5, stream(42, COIN))
        assert len(report.remaining_key) == 2 * (40 - report.pairs_tested)
        kept = [i for i in range(40) if i not in set(report.tested_rounds)]
        expected = "".join(transcript.rounds[i].key_bits for i in kept)
        assert report.remaining_key == expected
        assert set(report.tested_rounds).isdisjoint(kept)

    def test_zero_selection_is_degenerate(self):
        transcript = run_session(SessionConfig(rounds=10, seed=43))
        report = analysis.eavesdropping_test(transcript, 0.0, stream(43, COIN))
        assert report.degenerate
        assert not report.eve_detected
        assert report.remaining_key == transcript.alice_key

    def test_same_coin_selects_same_rounds(self):
        transcript = run_session(SessionConfig(rounds=50, seed=44))
        r1 = analysis.eavesdropping_test(transcript, 0.3, stream(44, COIN))
        r2 = analysis.eavesdropping_test(transcript, 0.3, stream(44, COIN))
        assert r1 == r2

    def test_proper_subset_requires_coin(self):
        transcript = run_session(SessionConfig(rounds=10, seed=45))
        with pytest.raises(ValueError, match="public coin"):
            analysis.eavesdropping_test(transcript, 0.5, None)

    def test_full_selection_needs_no_coin(self):
        transcript = run_session(SessionConfig(rounds=10, seed=46, eve_enabled=True))
        report = analysis.eavesdropping_test(transcript, 1.0, None)
        assert report.pairs_tested == 10
        assert report.remaining_key == ""

    @pytest.mark.parametrize("rounds,eve,fraction", [
        (12, False, 1.0), (12, True, 1.0), (0, False, 1.0), (0, True, 1.0), (0, False, 0.0),
    ])
    def test_report_when_every_round_is_tested(self, rounds, eve, fraction):
        """Testing every round (every Monte Carlo session does) leaves no
        kept round; the report equals one built from the kept rounds'
        transcript and its joined keys."""
        transcript = run_session(SessionConfig(rounds=rounds, seed=49, eve_enabled=eve))
        chosen = tuple(range(rounds))
        mismatches = sum(rec.alice_secret != rec.bob_inferred_alice for rec in transcript.rounds)
        kept = SessionTranscript(
            transcript.config, [rec for i, rec in enumerate(transcript.rounds) if i not in chosen]
        )
        expected = analysis.TestReport(
            pairs_tested=rounds, bits_tested=2 * rounds, mismatches=mismatches,
            eve_detected=mismatches > 0, remaining_key=kept.alice_key,
            remaining_key_bob=kept.bob_key, tested_rounds=chosen, degenerate=rounds == 0,
        )
        assert analysis.eavesdropping_test(transcript, fraction, None) == expected
        # 12 attacked rounds all miss with probability 4**-12
        assert expected.eve_detected is (eve and rounds > 0)

    def test_detects_the_attack(self):
        transcript = run_session(
            SessionConfig(rounds=30, seed=47, eve_enabled=True)
        )
        report = analysis.eavesdropping_test(transcript, 0.5, stream(47, COIN))
        # 15 tested pairs miss with probability 4^-15; this seed detects
        assert report.eve_detected
        assert report.mismatches > 0

    def test_bad_fraction_rejected(self):
        transcript = run_session(SessionConfig(rounds=5, seed=48))
        with pytest.raises(ValueError):
            analysis.eavesdropping_test(transcript, 1.5, stream(48, COIN))


def full_report(pairs, mismatches):
    """The report of a test of all `pairs` rounds, built field by field."""
    return analysis.TestReport(
        pairs_tested=pairs, bits_tested=2 * pairs, mismatches=mismatches,
        eve_detected=mismatches > 0, remaining_key="", remaining_key_bob="",
        tested_rounds=tuple(range(pairs)), degenerate=pairs == 0,
    )


@pytest.fixture(scope="module")
def eve_rows():
    """For each role phase, a draw row whose Eve round Bob infers right and
    one he infers wrong: (phase, misses) -> row. Rounds are independent
    (each starts from the agreed labels), so a row's outcome depends only
    on the row and the phase."""
    rows = {}
    for phase in range(4):
        for code in range(256):
            row = tuple(code >> 2 * k & 3 for k in range(4))
            config = SessionConfig(rounds=phase + 1, seed=0, eve_enabled=True)
            rec = run_session(config, [(0, 0, 0, 0)] * phase + [row]).rounds[-1]
            rows.setdefault((phase, rec.alice_secret is not rec.bob_inferred_alice), row)
            if len(rows) == 2 * (phase + 1):
                break
    return rows


class TestSharedFullReport:
    """Testing every round: one shared, immutable report per (pairs, mismatches)."""

    @pytest.mark.parametrize("eve", [False, True], ids=["honest", "eve"])
    @pytest.mark.parametrize("pairs", range(5))
    def test_equals_a_report_built_field_by_field(self, eve_rows, pairs, eve):
        for mismatches in range(pairs + 1) if eve else [0]:
            rows = [eve_rows[i % 4, i < mismatches] for i in range(pairs)]
            config = SessionConfig(rounds=pairs, seed=0, eve_enabled=eve)
            transcript = run_session(config, rows)
            for fraction in (1.0, 0.9):  # 0.9 of at most 4 rounds rounds to all of them
                report = analysis.eavesdropping_test(transcript, fraction, None)
                assert report == full_report(pairs, mismatches)
                assert report is analysis.eavesdropping_test(transcript, 1.0, None)

    def test_sessions_with_equal_counts_share_one_report(self, eve_rows):
        config = SessionConfig(rounds=3, seed=0, eve_enabled=True)
        first = run_session(config, [eve_rows[0, True], eve_rows[1, False], eve_rows[2, True]])
        second = run_session(config, [eve_rows[0, False], eve_rows[1, True], eve_rows[2, True]])
        assert first.rounds != second.rounds
        report = analysis.eavesdropping_test(first, 1.0, None)
        assert analysis.eavesdropping_test(second, 1.0, None) is report
        with pytest.raises(AttributeError):
            report.mismatches = 0

    def test_long_fully_tested_session(self):
        # 10**4 rounds is past rng.BLOCK: a report of its own, correct, not cached
        transcript = run_session(SessionConfig(rounds=10_000, seed=50, eve_enabled=True))
        mismatches = sum(rec.alice_secret != rec.bob_inferred_alice for rec in transcript.rounds)
        report = analysis.eavesdropping_test(transcript, 1.0, None)
        assert report == full_report(10_000, mismatches)
        assert 0 < mismatches < 10_000 and report.eve_detected
        assert analysis.eavesdropping_test(transcript, 1.0, None) is not report


class TestRateReport:
    def test_hundred_rounds(self):
        transcript = run_session(SessionConfig(rounds=100, seed=51))
        report = analysis.rate_report(transcript)
        assert report.key_bits == 200
        assert report.transmitted_qubits == 200
        assert report.rate == 1.0
        # the counts come from the number of rounds; they match the rounds' own
        assert report.key_bits == len(transcript.alice_key)
        assert report.transmitted_qubits == sum(r.transmissions for r in transcript.rounds)

    def test_empty_session_has_no_rate(self):
        transcript = run_session(SessionConfig(rounds=0, seed=52))
        report = analysis.rate_report(transcript)
        assert report.key_bits == 0
        assert report.transmitted_qubits == 0
        assert report.rate is None

    def test_reference_rates_reported_alongside(self):
        report = analysis.rate_report(run_session(SessionConfig(rounds=1, seed=53)))
        assert report.bb84_rate == 0.5
        assert report.e91_rate == 0.25


class TestMonteCarlo:
    def test_single_pair_estimate_within_three_sigma(self):
        est = analysis.estimate_detection(pairs_tested=1, sessions=1500, seed=61)
        assert est.expected == 0.75
        assert abs(est.empirical - est.expected) <= 3 * est.stderr

    def test_parallel_equals_serial(self):
        serial = analysis.estimate_detection(2, 300, seed=62, workers=1)
        parallel = analysis.estimate_detection(2, 300, seed=62, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("pairs_tested", [1, 2, 3, 4])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_equal_a_plain_session_loop(self, pairs_tested, workers):
        # more sessions than one pass derives, so the sweep spans chunks
        sessions = BLOCK // pairs_tested + 7
        est = analysis.estimate_detection(pairs_tested, sessions, seed=65, workers=workers)
        detections = 0
        for seed in session_seeds(65, sessions).tolist():
            config = SessionConfig(rounds=pairs_tested, seed=seed, eve_enabled=True,
                                   test_fraction=1.0)
            detections += analysis.eavesdropping_test(run_session(config), 1.0, None).eve_detected
        assert est.detections == detections

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        import multiprocessing

        sizes = []

        class FakePool:
            """Records its size and maps in this process; starts nothing."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, chunks):
                return [fn(*chunk) for chunk in chunks]

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(analysis.os, "cpu_count", lambda: 3)
        # the CPUs this process may run on, as under `taskset -c 0,1`
        monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        serial = analysis.estimate_detection(1, 40, seed=64, workers=1)
        capped = analysis.estimate_detection(1, 40, seed=64, workers=4000)
        assert analysis.estimate_detection(1, 40, seed=64, workers=2) == serial
        assert sizes == [2, 2]
        assert capped == serial
        # a platform without affinity falls back to the CPU count
        monkeypatch.delattr(analysis.os, "sched_getaffinity")
        assert analysis.estimate_detection(1, 40, seed=64, workers=4000) == serial
        assert sizes == [2, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.estimate_detection(0, 10, seed=1)
        with pytest.raises(ValueError):
            analysis.estimate_detection(1, 0, seed=1)
        with pytest.raises(ValueError, match="seed"):
            analysis.estimate_detection(1, 10, seed=-1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="at least one worker"):
            analysis.estimate_detection(1, 10, seed=1, workers=workers)

    @pytest.mark.parametrize("sessions", [1, 3, 300, 5000, 10**6])
    def test_stderr_in_miss_space(self, sessions):
        """The standard error comes from the miss probability 0.25**n: the same
        bits as from the detection probability up to n = 26, and not 0 beyond."""
        for n in range(1, 27):
            detect = analysis.scheme_detection_probability(2 * n)
            assert (analysis.binomial_sigma(0.25**n, sessions)
                    == analysis.binomial_sigma(detect, sessions))
        for n in (27, 30, 100):
            assert analysis.scheme_detection_probability(2 * n) == 1.0
            est = analysis.estimate_detection(n, sessions=3, seed=66)
            assert est.detections == 3
            assert est.stderr == analysis.binomial_sigma(0.25**n, 3) > 0
            assert est.z == pytest.approx(0.25**n / est.stderr)

    def test_z_counts_misses(self):
        est = analysis.DetectionEstimate(pairs_tested=30, bits_tested=60, sessions=4,
                                         detections=3, empirical=0.75, expected=1.0,
                                         stderr=analysis.binomial_sigma(0.25**30, 4))
        assert est.z == (0.25 - 0.25**30) / est.stderr > 1e8
        for detections, z in ((3, math.inf), (4, 0.0)):  # stderr 0: q underflowed at n = 600
            est = analysis.DetectionEstimate(600, 1200, 4, detections, detections / 4, 1.0, 0.0)
            assert est.z == z

    def test_sigma(self):
        assert analysis.binomial_sigma(0.5, 100) == pytest.approx(0.05)
        with pytest.raises(ValueError):
            analysis.binomial_sigma(0.5, 0)


class TestDetectionCurve:
    def test_closed_form_columns(self):
        curve = analysis.DetectionCurve.build(3)
        lines = curve.csv_lines()
        assert lines[0] == "N,scheme_prob,bb84_prob,empirical,stderr"
        assert lines[1].startswith("2,0.75,0.4375,")
        assert len(lines) == 4
        bits = [p.bits_tested for p in curve.points]
        assert bits == [2, 4, 6]

    def test_empirical_columns_filled_when_requested(self):
        curve = analysis.DetectionCurve.build(2, sessions=60, seed=63)
        for point in curve.points:
            assert point.empirical is not None
            assert 0.0 <= point.empirical <= 1.0
            assert point.stderr > 0
        assert "," in curve.csv_lines()[1]

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.DetectionCurve.build(0)
        with pytest.raises(ValueError, match="seed"):
            analysis.DetectionCurve.build(2, sessions=10)
        with pytest.raises(ValueError, match="seed"):
            analysis.DetectionCurve.build(2, sessions=10, seed=-1)

    def test_probabilities_monotone(self):
        curve = analysis.DetectionCurve.build(8)
        scheme = [p.scheme_prob for p in curve.points]
        other = [p.bb84_prob for p in curve.points]
        assert scheme == sorted(scheme)
        assert other == sorted(other)
