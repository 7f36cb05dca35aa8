"""Eavesdropping test, detection-probability curves, and rate accounting.

The eavesdropping test publicly compares a random subset of round pairs
(Alice's secret vs. what Bob inferred for it) selected by a shared seeded
coin, then discards them from the key. Against the implemented
intercept-and-swap attack each tested pair exposes Eve with probability
3/4, so n tested pairs (N = 2n bits) detect her with 1 - (1/2)^N; the
corresponding intercept-resend figure for BB84, 1 - (3/4)^N, is provided
for comparison. Monte Carlo estimators come with binomial standard errors
so the closed forms can be checked at 3-sigma.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

from .protocol import TRANSFERS, SessionConfig, SessionTranscript, run_session
from .rng import BLOCK, SESSIONS, child_seed, session_seeds, sessions_draws


@dataclass(frozen=True)
class TestReport:
    pairs_tested: int
    bits_tested: int
    mismatches: int
    eve_detected: bool
    remaining_key: str
    remaining_key_bob: str
    tested_rounds: tuple[int, ...]
    degenerate: bool = False


@dataclass(frozen=True)
class RateReport:
    key_bits: int
    transmitted_qubits: int
    rate: float | None

    bb84_rate = 0.5  # key bits per transmitted qubit with two alternative bases
    e91_rate = 0.25


def eavesdropping_test(
    transcript: SessionTranscript,
    test_fraction: float,
    coin: "np.random.Generator | None",
) -> TestReport:
    """Compare a public random subset of round pairs and strip them.

    The coin is a shared seeded stream, so both parties provably select
    the same rounds; it is consumed only when a proper subset must be
    drawn (selecting all rounds needs no randomness). Selecting zero
    rounds yields a flagged degenerate report rather than a vacuous pass.
    When every round is tested, as in each Monte Carlo session, the
    report depends only on the round count and the mismatches, and up to
    `rng.BLOCK` rounds it is one shared, immutable report per such pair
    from a bounded cache.
    """
    if not 0.0 <= test_fraction <= 1.0:
        raise ValueError("test_fraction must lie in [0, 1]")
    rounds = transcript.rounds
    n_test = int(math.floor(test_fraction * len(rounds) + 0.5))
    if n_test == len(rounds):
        mismatches = 0
        for rec in rounds:
            mismatches += rec.alice_secret is not rec.bob_inferred_alice
        return (_shared_full_report if n_test <= BLOCK else _report)(n_test, mismatches)
    if n_test == 0:
        chosen = []
    elif coin is None:
        raise ValueError("selecting a proper subset of rounds needs the public coin")
    else:
        chosen = sorted(int(i) for i in coin.choice(len(rounds), size=n_test, replace=False))
    mismatches = sum(
        1 for i in chosen if rounds[i].alice_secret != rounds[i].bob_inferred_alice
    )
    chosen_set = frozenset(chosen)
    kept = SessionTranscript(
        transcript.config, [rec for i, rec in enumerate(rounds) if i not in chosen_set])
    return _report(n_test, mismatches, kept.alice_key, kept.bob_key, tuple(chosen))


def _report(pairs: int, mismatches: int, remaining_key: str = "", remaining_key_bob: str = "",
            tested_rounds: tuple[int, ...] | None = None) -> TestReport:
    """The report of a test that compares the `tested_rounds`, `pairs` of
    them, and keeps the given keys; None tests every round of a session of
    `pairs` rounds, which leaves no key."""
    return TestReport(
        pairs_tested=pairs,
        bits_tested=2 * pairs,
        mismatches=mismatches,
        eve_detected=mismatches > 0,
        remaining_key=remaining_key,
        remaining_key_bob=remaining_key_bob,
        tested_rounds=tuple(range(pairs)) if tested_rounds is None else tested_rounds,
        degenerate=pairs == 0,
    )


_shared_full_report = functools.lru_cache(maxsize=64)(_report)
"""`_report` of a fully tested session, shared per (pairs, mismatches). A
Monte Carlo point of n pairs meets n + 1 keys, so the cache holds a whole
point up to n = 63; `eavesdropping_test` asks it for at most `rng.BLOCK`
pairs, so no long fully tested run pins its tuple of round indices."""


def scheme_detection_probability(bits_tested: int) -> float:
    """Detection probability after publicly comparing N bits (N even)."""
    if bits_tested < 0:
        raise ValueError("bit count must be nonnegative")
    if bits_tested % 2:
        raise ValueError("bits are compared in per-round pairs; N must be even")
    return 1.0 - 0.5**bits_tested


def bb84_detection_probability(bits_tested: int) -> float:
    """Intercept-resend detection probability in BB84 after N tested bits."""
    if bits_tested < 0:
        raise ValueError("bit count must be nonnegative")
    return 1.0 - 0.75**bits_tested


def rate_report(transcript: SessionTranscript) -> RateReport:
    """Key bits per transmitted qubit, before any test rounds are spent: each
    round keys Alice's two-bit secret and makes the schedule's two transits."""
    rounds = len(transcript.rounds)
    key_bits = 2 * rounds
    transmitted = len(TRANSFERS[0]) * rounds
    rate = key_bits / transmitted if transmitted else None
    return RateReport(key_bits=key_bits, transmitted_qubits=transmitted, rate=rate)


def binomial_sigma(p: float, trials: int) -> float:
    """Standard error of a frequency estimate of probability p."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    return math.sqrt(p * (1.0 - p) / trials)


@dataclass(frozen=True)
class DetectionEstimate:
    """A detection frequency against its closed form. `stderr` is the binomial
    standard error of the miss probability q = 0.25**n: the same bits as from
    the detection probability 1 - q up to n = 26, and not 0 beyond, where
    1 - q rounds to 1."""

    pairs_tested: int
    bits_tested: int
    sessions: int
    detections: int
    empirical: float
    expected: float
    stderr: float

    @property
    def z(self) -> float:
        """|misses/N - q| / stderr; inf where stderr is 0 and misses/N is not q."""
        gap = abs((self.sessions - self.detections) / self.sessions - 0.25**self.pairs_tested)
        return gap / self.stderr if self.stderr else math.inf if gap else 0.0


def _count_detections(pairs_tested: int, seeds) -> int:
    # each session is (rounds, seed, eve_enabled, test_fraction), every round tested
    config, run, test = SessionConfig, run_session, eavesdropping_test
    detections = 0
    for session_seed, draws in sessions_draws(seeds, pairs_tested):
        detections += test(run(config(pairs_tested, session_seed, True, 1.0), draws),
                           1.0, None).eve_detected
    return detections


def estimate_detection(
    pairs_tested: int,
    sessions: int,
    seed: int,
    workers: int = 1,
) -> DetectionEstimate:
    """Monte Carlo detection frequency with Eve attacking every round.

    Each session runs `pairs_tested` rounds, tests all of them, and counts
    as a detection if any tested pair mismatches. Session seeds derive
    from `seed` by the documented split, so the estimate is identical for
    any `workers` value; extra workers only spread the sessions across
    processes, at most one per CPU this process may run on. A worker takes
    the sessions whose `rng.BLOCK` rounds one pass derives, or an equal
    share when there are fewer such chunks than workers.
    """
    if pairs_tested < 1:
        raise ValueError("need at least one tested pair")
    if sessions < 1:
        raise ValueError("need at least one session")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workers < 1:
        raise ValueError("need at least one worker")
    seeds = session_seeds(seed, sessions)
    if workers > 1:
        cpus = (os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity")
                else range(os.cpu_count() or 1))
        workers = min(workers, len(cpus))
    if workers > 1 and sessions >= 2 * workers:
        import multiprocessing

        step = min(max(1, BLOCK // pairs_tested), -(-sessions // workers))
        chunks = ((pairs_tested, seeds[i : i + step]) for i in range(0, sessions, step))
        with multiprocessing.Pool(workers) as pool:
            detections = sum(pool.starmap(_count_detections, chunks))
    else:
        detections = _count_detections(pairs_tested, seeds)
    expected = scheme_detection_probability(2 * pairs_tested)
    return DetectionEstimate(
        pairs_tested=pairs_tested,
        bits_tested=2 * pairs_tested,
        sessions=sessions,
        detections=detections,
        empirical=detections / sessions,
        expected=expected,
        stderr=binomial_sigma(0.25**pairs_tested, sessions),
    )


@dataclass(frozen=True, slots=True)
class CurvePoint:
    bits_tested: int
    scheme_prob: float
    bb84_prob: float
    empirical: float | None = None
    stderr: float | None = None
    z: float | None = None


@dataclass(frozen=True)
class DetectionCurve:
    """Closed-form detection probabilities by tested bit count, with
    optional Monte Carlo estimates alongside."""

    points: tuple[CurvePoint, ...] = ()

    @staticmethod
    def build(
        max_pairs: int,
        sessions: int = 0,
        seed: int | None = None,
        workers: int = 1,
    ) -> "DetectionCurve":
        """Points for n = 1..max_pairs; with `sessions`, point n also estimates
        detection under `child_seed(seed, SESSIONS, n)`, the sweep's seed split."""
        if max_pairs < 1:
            raise ValueError("need at least one tested pair")
        if sessions and seed is None:
            raise ValueError("empirical columns need a seed")
        if seed is not None and seed < 0:
            raise ValueError("seed must be nonnegative")
        points = []
        for n in range(1, max_pairs + 1):
            bits = 2 * n
            empirical = stderr = z = None
            if sessions:
                est = estimate_detection(n, sessions, child_seed(seed, SESSIONS, n),
                                         workers=workers)
                empirical, stderr, z = est.empirical, est.stderr, est.z
            points.append(CurvePoint(bits, scheme_detection_probability(bits),
                                     bb84_detection_probability(bits), empirical, stderr, z))
        return DetectionCurve(points=tuple(points))

    def csv_lines(self) -> list[str]:
        lines = ["N,scheme_prob,bb84_prob,empirical,stderr"]
        for p in self.points:
            emp = "" if p.empirical is None else repr(p.empirical)
            err = "" if p.stderr is None else repr(p.stderr)
            lines.append(f"{p.bits_tested},{p.scheme_prob!r},{p.bb84_prob!r},{emp},{err}")
        return lines
