"""One benchmark workload, run in a process of its own.

    python3 perfbench/workload.py --workload NAME --seed N --tmp DIR
                                  (--setup-only | --seconds S | --trace)

The process imports swapqkd from the checkout's ``src``, runs one small
warm-up unit and prints ``ready`` with the seconds that took: the set-up
time. ``--setup-only`` stops there. ``--seconds`` then repeats
the workload's unit until the time is up, with a reference pass every
twentieth of a second, checking every unit's outputs; the session
workloads then run one long session as a memory probe.
``--trace`` runs a fixed number of units untraced, twice traced, and (for
``montecarlo``) untraced with two workers. The last stdout line is a JSON
object of results.

Every unit is driven through the package's public entry points, with
stdout and stderr of ``cli.main`` captured; all files go under ``--tmp``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import random
import re
import resource
import statistics
import sys
import time
from pathlib import Path

# Imported before set-up is timed. Its import time swings by half or more
# from minute to minute with the shared host's state, several times as
# much as swapqkd's own imports and warm-up, and no change to swapqkd
# makes it faster or slower.
import numpy  # noqa: F401
import tracer

ROOT = Path(__file__).resolve().parent.parent


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """`cli.main(argv)` with its output captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def binomial_tail(k: int, n: int, p: float) -> float:
    """Two-sided exact tail probability of k successes in n trials."""
    def pmf(i: int) -> float:
        return math.exp(
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + (i * math.log(p) if i else 0.0)
            + ((n - i) * math.log1p(-p) if n - i else 0.0)
        )
    low = sum(pmf(i) for i in range(0, k + 1))
    high = sum(pmf(i) for i in range(k, n + 1))
    return min(1.0, 2.0 * min(low, high))


class Workload:
    """A unit of work, its generated inputs and its output checks."""

    name = ""
    item = ""
    trace_units = 1

    def __init__(self, pkg, seed: int, tmp: Path):
        self.pkg = pkg
        self.seed = seed
        self.tmp = tmp

    def unit_seed(self, i: int) -> int:
        """Seed of unit i (-1 is the warm-up), derived from the run's seed."""
        return random.Random(f"{self.name}/{self.seed}/{i}").randrange(2**32)

    def warm_up(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Generate inputs; untimed."""

    def run(self, i: int):
        """The timed unit; returns what `check` and `items` read."""
        raise NotImplementedError

    def check(self, out) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def memory_probe(self) -> list[tuple[str, bool]]:
        """One long untimed unit after the timed loop, so that memory that
        grows with the session shows in the peak RSS; returns its checks."""
        return []

    def items(self, out) -> int:
        raise NotImplementedError

    def expected_counts(self, units: int) -> dict[str, int]:
        """Exact span counts a traced pass of `units` units must show."""
        raise NotImplementedError


class SessionEve(Workload):
    name = "session_eve"
    item = "round"
    rounds = 1_000
    probe_rounds = 10_000
    trace_units = 20

    def _argv(self, rounds: int, seed: int) -> list[str]:
        return ["run", "--rounds", str(rounds), "--seed", str(seed), "--eve",
                "--test-fraction", "0.1", "--out", str(self.tmp / "eve.jsonl")]

    def warm_up(self) -> None:
        run_cli(self.pkg.cli, self._argv(200, self.unit_seed(-1)))

    def run(self, i: int, rounds: int | None = None):
        rounds = rounds or self.rounds
        return rounds, run_cli(self.pkg.cli, self._argv(rounds, self.unit_seed(i)))

    def check(self, out):
        rounds, (code, stdout) = out
        lines = (self.tmp / "eve.jsonl").read_text().splitlines()
        summary = json.loads(lines[-1])
        return [
            ("exit code 0", code == 0),
            ("one line per round", len(lines) == rounds + 2),
            ("rate is 1.0", summary["rate"]["rate"] == 1.0),
            ("eve key equals alice key", summary["eve_key"] == summary["alice_key"]),
            ("test detects eve", summary["test"]["eve_detected"] is True),
            ("summary reports detection", "EVE DETECTED" in stdout),
        ]

    def items(self, out) -> int:
        return out[0]

    def memory_probe(self):
        return self.check(self.run(-2, self.probe_rounds))

    def expected_counts(self, units):
        rounds = units * self.rounds
        return {
            "protocol.run_session": units,
            "protocol.run_round": rounds,
            "bell.bsm": 6 * rounds,
            "adversary.eve_finalize": rounds,
            "transcript.emit_lines": units,
            "transcript.parse_lines": 0,
        }


class AuditHonest(Workload):
    name = "audit_honest"
    item = "round"
    rounds = 1_000
    probe_rounds = 10_000
    trace_units = 20
    default_labels = ("11", "10", "10")

    def _generate(self, path: Path, rounds: int, seed: int) -> None:
        choice = random.Random(seed)
        labels = self.default_labels
        while labels == self.default_labels:
            labels = tuple(choice.choice(("00", "01", "10", "11")) for _ in range(3))
        code, _ = run_cli(self.pkg.cli, [
            "run", "--rounds", str(rounds), "--seed", str(seed), "--labels", *labels,
            "--test-fraction", "0.1", "--out", str(path),
        ])
        if code != 0:
            raise RuntimeError(f"generating {path.name} failed with exit code {code}")

    def _audit(self, path: Path):
        transcript, protocol, analysis, rng = (
            self.pkg.transcript, self.pkg.protocol, self.pkg.analysis, self.pkg.rng)
        text = path.read_text()
        parsed = transcript.parse_lines(text.splitlines())
        cfg = parsed.transcript.config
        rerun = protocol.run_session(cfg)
        rate = analysis.rate_report(rerun)
        test = None
        if cfg.test_fraction > 0:
            test = analysis.eavesdropping_test(
                rerun, cfg.test_fraction, rng.stream(cfg.seed, rng.COIN))
        again = transcript.TranscriptFile(transcript=rerun, rate=rate, test=test)
        emitted = "\n".join(transcript.emit_lines(again)) + "\n"
        return parsed, again, emitted == text

    def warm_up(self) -> None:
        path = self.tmp / "warm.jsonl"
        self._generate(path, 100, self.unit_seed(-1))
        self._audit(path)

    def prepare(self) -> None:
        self.path = self.tmp / "honest.jsonl"
        self._generate(self.path, self.rounds, self.unit_seed(0))

    def run(self, i: int):
        return self._audit(self.path)

    def memory_probe(self):
        path = self.tmp / "long.jsonl"
        self._generate(path, self.probe_rounds, self.unit_seed(-2))
        return self.check(self._audit(path))

    def check(self, out):
        parsed, again, identical = out
        return [
            ("parsed transcript equals the re-run", parsed == again),
            ("re-emit is byte-identical", identical),
            ("bob key equals alice key", again.transcript.bob_key == again.transcript.alice_key),
            ("honest test finds no mismatch", again.test is not None and again.test.mismatches == 0),
        ]

    def items(self, out) -> int:
        return len(out[0].transcript.rounds)

    def expected_counts(self, units):
        rounds = units * self.rounds
        return {
            "protocol.run_session": units,
            "protocol.run_round": rounds,
            "bell.bsm": 3 * rounds,
            "adversary": 0,
            "transcript.emit_lines": units,
            "transcript.parse_lines": units,
        }


class MonteCarlo(Workload):
    name = "montecarlo"
    item = "session"
    sessions = 200
    max_pairs = 4
    trace_units = 10
    min_tail = 1e-9
    workers = 1
    """One worker in timed runs: with two, a neighbour on either of this
    machine's two cores slows the pool far more than the one-core
    reference pass, so the gated rate would measure the neighbour."""

    def _argv(self, sessions: int, seed: int) -> list[str]:
        return ["montecarlo", "--max-pairs", str(self.max_pairs), "--sessions", str(sessions),
                "--seed", str(seed), "--workers", str(self.workers)]

    def warm_up(self) -> None:
        run_cli(self.pkg.cli, self._argv(16, self.unit_seed(-1)))

    def run(self, i: int):
        return run_cli(self.pkg.cli, self._argv(self.sessions, self.unit_seed(i)))

    def check(self, out):
        code, stdout = out
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
        checks = [
            ("exit code 0", code == 0),
            ("one row per point", [int(r[0]) for r in rows] == list(range(1, self.max_pairs + 1))),
        ]
        for pairs, _, sessions, empirical, expected, _, _ in rows:
            n, s = int(pairs), int(sessions)
            detections = round(float(empirical) * s)
            # the exact binomial tail, not |z|: at n = 4 about 1 session in
            # 256 misses Eve, where the normal tail is far too thin
            checks += [
                (f"n={n}: sessions", s == self.sessions),
                (f"n={n}: closed form", float(expected) == 1.0 - 0.25**n),
                (f"n={n}: frequency plausible",
                 binomial_tail(detections, s, 1.0 - 0.25**n) >= self.min_tail),
            ]
        return checks

    def items(self, out) -> int:
        return self.max_pairs * self.sessions

    def expected_counts(self, units):
        sessions = units * self.max_pairs * self.sessions
        rounds = units * self.sessions * sum(range(1, self.max_pairs + 1))
        return {
            "analysis.estimate_detection": units * self.max_pairs,
            "protocol.run_session": sessions,
            "protocol.run_round": rounds,
            "bell.bsm": 6 * rounds,
            "adversary.eve_finalize": rounds,
            "analysis.eavesdropping_test": sessions,
            "transcript.parse_lines": 0,
        }


class VerifyOracle(Workload):
    name = "verify_oracle"
    item = "case"
    trace_units = 200
    _verdict = re.compile(r"(\d+)/(\d+) cases verified")

    def warm_up(self) -> None:
        run_cli(self.pkg.cli, ["verify-oracle"])

    def run(self, i: int):
        return run_cli(self.pkg.cli, ["verify-oracle"])

    def check(self, out):
        code, stdout = out
        verdict = self._verdict.fullmatch(stdout.strip())
        return [
            ("exit code 0", code == 0),
            ("no discrepancy", verdict is not None and verdict[1] == verdict[2] != "0"),
        ]

    def items(self, out) -> int:
        verdict = self._verdict.fullmatch(out[1].strip())
        return int(verdict[2]) if verdict else 0

    def expected_counts(self, units):
        return {
            "verify.run_all": units,
            "protocol.run_round": 0,
            "bell.bsm": 0,
            "adversary": 0,
            "transcript.parse_lines": 0,
        }


WORKLOADS = {w.name: w for w in (SessionEve, AuditHonest, MonteCarlo, VerifyOracle)}


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, results) -> None:
        for label, ok in results:
            self.attempted += 1
            if not ok:
                self.failed.append(label)


def run_units(w: Workload, count: int, checks: Checks, gc_clock=None):
    """Run units 0..count-1, each timed alone: (timed seconds, items).

    Collector activity is recorded only inside timed units.
    """
    wall, items = 0.0, 0
    timed = gc_clock if gc_clock is not None else contextlib.nullcontext()
    for i in range(count):
        with timed:
            t0 = time.perf_counter()
            out = w.run(i)
            wall += time.perf_counter() - t0
        items += w.items(out)
        checks.add(w.check(out))
    return wall, items


class _Node:
    __slots__ = ("key", "label", "next")


def reference_pass() -> int:
    """Fixed pure-Python work of the program's kind, timed as a yardstick.

    Small objects, dict and attribute traffic, string formatting and a
    JSON round trip over a working set of about a megabyte. It never
    changes, so its time tracks only the speed of the machine.
    """
    nodes, prev = {}, None
    for i in range(5000):
        node = _Node()
        node.key = (i * 2654435761) & 0xFFFFF
        node.label = f"{i & 3:02b}"
        node.next = prev
        nodes[node.key] = prev = node
    text = json.dumps([{"key": n.key, "label": n.label} for n in nodes.values()],
                      separators=(",", ":"))
    return len(json.loads(text))


def timed_reference() -> float:
    """Seconds one reference pass takes, with the collector held off.

    The pass leaves no garbage behind, but its allocations would trigger
    collections that walk the workload's own heap, which is not the
    machine's speed.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_pass()
        return time.perf_counter() - t0
    finally:
        gc.enable()


REFERENCE_EVERY_S = 0.05


def measure(w: Workload, seconds: float) -> dict:
    """Units until `seconds` are up, with reference passes in between.

    The shared machine's speed drifts by a fifth or more within seconds
    and minutes, so the gated rate is taken in units of the reference
    pass: each unit's rate times the time of the reference pass run just
    before it, that is, items done in the time one reference pass takes,
    and the median of that over the run. The plain median rate is
    reported beside it. After the timed loop the workload's memory probe
    runs, and then the peak RSS is read.
    """
    checks = Checks()
    rates, rates_per_ref, refs, items = [], [], [], 0
    clock = time.perf_counter
    deadline = clock() + seconds
    last_ref = -math.inf
    timed_reference()
    i = 0
    while clock() < deadline:
        if clock() - last_ref >= REFERENCE_EVERY_S:
            last_ref = clock()
            refs.append(timed_reference())
        t0 = clock()
        out = w.run(i)
        wall = clock() - t0
        done = w.items(out)
        items += done
        rates.append(done / wall)
        rates_per_ref.append(rates[-1] * refs[-1])
        checks.add(w.check(out))
        i += 1
    checks.add(w.memory_probe())
    return {
        "values": {
            "items_per_ref": statistics.median(rates_per_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "items_per_s": statistics.median(rates),
        "reference_s": statistics.median(refs),
        "units": len(rates),
        "item": w.item,
        "items_per_unit": items / len(rates),
        "attempted": checks.attempted,
        "failed": checks.failed,
    }


def _traced_pass(w: Workload, checks: Checks) -> tuple[tracer.Tracer, float]:
    t = tracer.Tracer()
    t.install(w.pkg)
    try:
        wall, _ = run_units(w, w.trace_units, checks)
    finally:
        t.uninstall()
    return t, wall


def trace(w: Workload) -> dict:
    """Per-layer metrics from a fixed number of units, with a count self-check.

    Forked pool workers would take their spans with them, so Monte Carlo
    runs with one worker here too, and then an extra untraced two-worker
    pass gives the parallel efficiency.
    """
    checks = Checks()
    two_workers = isinstance(w, MonteCarlo)
    gc_clock = tracer.GcClock()
    wall_a, items_a = run_units(w, w.trace_units, checks, gc_clock)
    first, wall_b = _traced_pass(w, checks)
    second, _ = _traced_pass(w, checks)
    efficiency = 0.0
    if two_workers:
        w.workers = 2
        wall_d, items_d = run_units(w, w.trace_units, checks)
        efficiency = (items_d / wall_d) / (2 * items_a / wall_a)

    calls, self_s, run_rounds = first.summary("protocol.run_round")
    again, _, _ = second.summary("protocol.run_round")

    def total(table, key):
        return sum(v for name, v in table.items() if name == key or name.startswith(key + "."))

    problems = [
        f"{key}: traced {total(calls, key)} calls, expected {want}"
        for key, want in w.expected_counts(w.trace_units).items()
        if total(calls, key) != want
    ]
    if calls != again or first.counts != second.counts:
        problems.append("counts differ between two traced passes of the same seed")
    if problems:
        raise SystemExit("trace self-check failed:\n  " + "\n  ".join(problems))

    counts = first.counts
    values = {
        "bell.bsm.swaps": counts["bell.bsm.swaps"],
        "bell.bsm.readouts": counts["bell.bsm.readouts"],
        "knowledge.calls": total(calls, "knowledge"),
        "knowledge.self_s": total(self_s, "knowledge"),
        "adversary.calls": total(calls, "adversary"),
        "adversary.self_s": total(self_s, "adversary"),
        "rng.streams": counts["rng.streams"],
        "rng.draws": counts["rng.draws"],
        "rng.streams_per_draw": counts["rng.streams"] / counts["rng.draws"] if counts["rng.draws"] else 0.0,
        "protocol.run_round.p50_us": tracer.percentile_us(run_rounds, 50),
        "protocol.run_round.p99_us": tracer.percentile_us(run_rounds, 99),
        "analysis.parallel_efficiency": efficiency,
        "transcript.emit_lines.bytes_per_round": (
            counts["transcript.emit_bytes"] / counts["transcript.emit_rounds"]
            if counts["transcript.emit_rounds"] else 0.0),
        "runtime.gc_s": gc_clock.seconds,
        "runtime.gc_collections": gc_clock.collections,
        "trace.wall_s": wall_b,
        "trace.untraced_wall_s": wall_a,
        "trace.overhead_share": (wall_b - wall_a) / wall_a,
        "trace.spans": len(first.start),
    }
    for name in SPAN_METRICS:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s[name]
    shares = {layer: total(self_s, layer) / wall_b for layer in tracer.LAYERS}
    values.update((f"{layer}.self_share", share) for layer, share in shares.items())
    values["trace.uncovered_share"] = 1.0 - sum(shares.values())
    return {
        "values": values,
        "units": w.trace_units,
        "attempted": checks.attempted,
        "failed": checks.failed,
    }


SPAN_METRICS = (
    "bell.bsm", "bell.apply_pauli",
    "rng.round_stream", "rng.session_seeds",
    "protocol.run_session", "protocol.session_init", "protocol.run_round", "protocol.reset_round",
    "analysis.eavesdropping_test", "analysis.rate_report", "analysis.estimate_detection",
    "transcript.emit_lines", "transcript.parse_lines",
    "cli.main",
    "oracle.prepare", "oracle.oracle_bsm", "oracle.oracle_apply_pauli", "oracle.bell_label_of",
    "verify.run_all",
)
"""Spans reported one by one; adversary and knowledge are reported per layer."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import swapqkd
    from swapqkd import analysis, cli, protocol, rng, transcript  # noqa: F401

    if not Path(swapqkd.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"swapqkd imported from {swapqkd.__file__}, not from this checkout", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload](swapqkd, args.seed, args.tmp)
    w.warm_up()
    print(f"ready {time.perf_counter() - t0!r}", flush=True)
    if args.setup_only:
        return 0
    w.prepare()
    if args.trace:
        result = trace(w)
    else:
        result = measure(w, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
