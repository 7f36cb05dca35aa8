"""Command-line front end.

Subcommands:

  run           execute a seeded session and emit its transcript
  verify-oracle exhaustive symbolic-vs-state-vector equivalence sweep
  curves        closed-form (optionally empirical) detection curves as CSV
  montecarlo    detection-frequency estimates against the closed forms

Exit codes: 0 success, 1 verification failure, 2 usage error, a size too
large to allocate, a --rounds above 2**64 (round indices are 64-bit) or a
curves --max-pairs above MAX_CURVE_PAIRS, 3 I/O error, a failed write to
stdout included.
Relative --out paths resolve under $SWAPQKD_OUTDIR when it is set.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

# analysis and transcript are imported by the commands that use them, so
# that verify-oracle does not load them
from . import verify
from .bell import BellLabel, swap_rule
from .knowledge import LedgerViolation
from .protocol import SessionConfig, run_session

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

# curves keeps every point in memory, about 300 bytes a point
MAX_CURVE_PAIRS = 10**5


def _label_arg(text: str) -> BellLabel:
    try:
        return BellLabel.from_string(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _seed_arg(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def _resolve_out(path: str | None) -> str | None:
    if path is None or path == "-":
        return None
    base = os.environ.get("SWAPQKD_OUTDIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_lines(lines, out_path: str | None) -> None:
    """Write `lines` to `out_path`, or to stdout when it is None; every
    stdout write of the commands goes through here."""
    if out_path is None:
        try:
            for line in lines:
                sys.stdout.write(f"{line}\n")
            sys.stdout.flush()
        except OSError as err:
            # the rest has nowhere to go, and the exit-time flush must not
            # fail too; a reader that stopped early (`swapqkd run ... | head`)
            # is no error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if not isinstance(err, BrokenPipeError):
                raise _IOFailure(f"cannot write standard output: {err}") from None
        return
    try:
        with open(out_path, "w") as fh:
            for line in lines:
                fh.write(f"{line}\n")
    except OSError as err:
        raise _IOFailure(f"cannot write {out_path}: {err}")


class _IOFailure(Exception):
    pass


@functools.cache  # parsing leaves the parser as built, so a process builds it once
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapqkd",
        description="Entanglement-swapping QKD simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a seeded session and emit its transcript")
    p_run.add_argument("--rounds", type=int, required=True)
    p_run.add_argument("--seed", type=_seed_arg, required=True,
                       help="mandatory; runs are replayable")
    p_run.add_argument("--eve", action="store_true", help="enable the eavesdropper")
    p_run.add_argument("--test-fraction", type=float, default=0.0,
                       help="fraction of rounds sacrificed to the eavesdropping test")
    p_run.add_argument("--labels", type=_label_arg, nargs=3, metavar=("LINK", "ANCHOR", "BOB"),
                       default=None, help="agreed pair labels, e.g. 11 10 10")
    p_run.add_argument("--ancilla", type=_label_arg, default=None,
                       help="the eavesdropper's ancilla pair label")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--out", default=None, help="output path, '-' or absent for stdout")

    p_ver = sub.add_parser("verify-oracle", help="check the swap rule against the dense oracle")
    p_ver.add_argument("--inject-fault", action="store_true",
                       help="corrupt one swap-rule entry to prove the sweep catches faults")

    p_cur = sub.add_parser("curves", help="emit detection-probability curves as CSV")
    p_cur.add_argument("--max-pairs", type=int, required=True,
                       help=f"one point per tested pair count 1..MAX_PAIRS, at most "
                            f"{MAX_CURVE_PAIRS:,}; a larger value is a usage error")
    p_cur.add_argument("--sessions", type=int, default=0,
                       help="add Monte Carlo columns from this many sessions per point")
    p_cur.add_argument("--seed", type=_seed_arg, default=None)
    p_cur.add_argument("--out", default=None)

    p_mc = sub.add_parser("montecarlo", help="estimate detection frequencies vs closed form")
    p_mc.add_argument("--max-pairs", type=int, default=4,
                      help="one point per tested pair count 1..MAX_PAIRS; the sweep runs "
                           "SESSIONS * n(n+1)/2 Eve rounds for n = MAX_PAIRS")
    p_mc.add_argument("--sessions", type=int, default=10_000)
    p_mc.add_argument("--seed", type=_seed_arg, required=True)
    p_mc.add_argument("--workers", type=int, default=1,
                      help="processes to spread sessions across, at most one per CPU this "
                           "process may run on (same result for any value)")
    return parser


def _cmd_run(args) -> int:
    try:
        config = SessionConfig(
            rounds=args.rounds,
            seed=args.seed,
            eve_enabled=args.eve,
            test_fraction=args.test_fraction,
            **({"initial_labels": tuple(args.labels)} if args.labels else {}),
            **({"eve_ancilla": args.ancilla} if args.ancilla is not None else {}),
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    from . import transcript

    record = transcript.TranscriptFile.of(run_session(config))
    result, rate, test = record.transcript, record.rate, record.test
    lines = transcript.emit_lines(record) if args.format == "json" else transcript.csv_lines(record)
    out_path = _resolve_out(args.out)
    _write_lines(lines, out_path)

    key_len = len(test.remaining_key) if test else len(result.alice_key)
    rate_text = "n/a" if rate.rate is None else f"{rate.rate}"
    summary = [f"rounds: {config.rounds}", f"key bits (after testing): {key_len}",
               f"rate: {rate_text} key bits per transmitted qubit"]
    if test is not None and test.degenerate:
        summary.append("eavesdropping test: degenerate (no rounds selected)")
    elif test is not None:
        verdict = "EVE DETECTED" if test.eve_detected else "clean"
        summary.append(f"eavesdropping test: {test.mismatches}/{test.pairs_tested} "
                       f"tested pairs mismatched -> {verdict}")
    if out_path is None:
        print(*summary, sep="\n", file=sys.stderr)
    else:
        _write_lines(summary, None)
    return EXIT_OK


def _cmd_verify_oracle(args) -> int:
    rule = swap_rule
    if args.inject_fault:
        flip = BellLabel(0, 1)

        def rule(left, right, outcome):  # noqa: F811 - deliberate fault wrapper
            honest = swap_rule(left, right, outcome)
            if (str(left), str(right), str(outcome)) == ("00", "00", "00"):
                return honest ^ flip
            return honest

    verified, cases, problems = verify.run_all(rule)
    tally = f"{verified}/{cases} cases verified"
    if problems:
        tally += f"; {len(problems)} discrepancies"
    _write_lines([*(f"DISCREPANCY {line}" for line in problems), tally], None)
    return EXIT_VERIFY_FAILED if problems else EXIT_OK


def _cmd_curves(args) -> int:
    if args.max_pairs < 1:
        print("error: --max-pairs must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.max_pairs > MAX_CURVE_PAIRS:
        print(f"error: --max-pairs must be at most {MAX_CURVE_PAIRS}, got {args.max_pairs}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.sessions < 0:
        print("error: --sessions must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    if args.sessions and args.seed is None:
        print("error: --sessions needs --seed", file=sys.stderr)
        return EXIT_USAGE
    from . import analysis

    curve = analysis.DetectionCurve.build(args.max_pairs, args.sessions, args.seed)
    _write_lines(curve.csv_lines(), _resolve_out(args.out))
    return EXIT_OK


def _cmd_montecarlo(args) -> int:
    if args.max_pairs < 1 or args.sessions < 1:
        print("error: --max-pairs and --sessions must be positive", file=sys.stderr)
        return EXIT_USAGE
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    from . import analysis

    curve = analysis.DetectionCurve.build(args.max_pairs, args.sessions, args.seed, args.workers)
    rows = ["pairs,bits,sessions,empirical,expected,stderr,z"]
    worst = 0.0
    for p in curve.points:
        worst = max(worst, p.z)
        rows.append(
            f"{p.bits_tested // 2},{p.bits_tested},{args.sessions},"
            f"{p.empirical},{p.scheme_prob},{p.stderr},{p.z:.3f}"
        )
    _write_lines(rows, None)
    print(f"max |z| = {worst:.3f} (3-sigma bound is 3.0)", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "verify-oracle": _cmd_verify_oracle,
        "curves": _cmd_curves,
        "montecarlo": _cmd_montecarlo,
    }
    try:
        return handlers[args.command](args)
    except _IOFailure as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except LedgerViolation as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except MemoryError as err:  # e.g. numpy's seed array for a huge --sessions
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
