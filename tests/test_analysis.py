"""Detection formulas, the eavesdropping test, rates, and Monte Carlo."""


import pytest

from swapqkd import analysis
from swapqkd.protocol import SessionConfig, run_session
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
        serial = analysis.estimate_detection(1, 40, seed=64, workers=1)
        capped = analysis.estimate_detection(1, 40, seed=64, workers=4000)
        assert sizes == [3]
        assert capped == serial

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
