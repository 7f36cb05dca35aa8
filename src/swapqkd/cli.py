"""Command-line front end.

Subcommands:

  run           execute a seeded session and emit its transcript
  verify-oracle exhaustive symbolic-vs-state-vector equivalence sweep
  curves        closed-form (optionally empirical) detection curves as CSV
  montecarlo    detection-frequency estimates against the closed forms

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O error.
Relative --out paths resolve under $SWAPQKD_OUTDIR when it is set.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import analysis, transcript, verify
from .bell import BellLabel, swap_rule
from .knowledge import LedgerViolation
from .protocol import SessionConfig, run_session

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


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
    if out_path is None:
        try:
            for line in lines:
                sys.stdout.write(f"{line}\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early (`swapqkd run ... | head`): the rest
            # has nowhere to go, and the exit-time flush must not fail too
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with open(out_path, "w") as fh:
            for line in lines:
                fh.write(f"{line}\n")
    except OSError as err:
        raise _IOFailure(f"cannot write {out_path}: {err}")


class _IOFailure(Exception):
    pass


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
    p_cur.add_argument("--max-pairs", type=int, required=True)
    p_cur.add_argument("--sessions", type=int, default=0,
                       help="add Monte Carlo columns from this many sessions per point")
    p_cur.add_argument("--seed", type=_seed_arg, default=None)
    p_cur.add_argument("--out", default=None)

    p_mc = sub.add_parser("montecarlo", help="estimate detection frequencies vs closed form")
    p_mc.add_argument("--max-pairs", type=int, default=4)
    p_mc.add_argument("--sessions", type=int, default=10_000)
    p_mc.add_argument("--seed", type=_seed_arg, required=True)
    p_mc.add_argument("--workers", type=int, default=1,
                      help="processes to spread sessions across, at most one per CPU "
                           "(same result for any value)")
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
    record = transcript.TranscriptFile.of(run_session(config))
    result, rate, test = record.transcript, record.rate, record.test
    lines = transcript.emit_lines(record) if args.format == "json" else transcript.csv_lines(record)
    out_path = _resolve_out(args.out)
    _write_lines(lines, out_path)

    summary_sink = sys.stderr if out_path is None else sys.stdout
    key_len = len(test.remaining_key) if test else len(result.alice_key)
    print(f"rounds: {config.rounds}", file=summary_sink)
    print(f"key bits (after testing): {key_len}", file=summary_sink)
    rate_text = "n/a" if rate.rate is None else f"{rate.rate}"
    print(f"rate: {rate_text} key bits per transmitted qubit", file=summary_sink)
    if test is not None:
        if test.degenerate:
            print("eavesdropping test: degenerate (no rounds selected)", file=summary_sink)
        else:
            verdict = "EVE DETECTED" if test.eve_detected else "clean"
            print(
                f"eavesdropping test: {test.mismatches}/{test.pairs_tested} tested "
                f"pairs mismatched -> {verdict}",
                file=summary_sink,
            )
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

    cases, problems = verify.run_all(rule)
    if problems:
        for line in problems:
            print(f"DISCREPANCY {line}")
        print(f"{cases - len(problems)}/{cases} cases verified; {len(problems)} discrepancies")
        return EXIT_VERIFY_FAILED
    print(f"{cases}/{cases} cases verified")
    return EXIT_OK


def _cmd_curves(args) -> int:
    if args.max_pairs < 1:
        print("error: --max-pairs must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.sessions < 0:
        print("error: --sessions must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    if args.sessions and args.seed is None:
        print("error: --sessions needs --seed", file=sys.stderr)
        return EXIT_USAGE
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
    curve = analysis.DetectionCurve.build(args.max_pairs, args.sessions, args.seed, args.workers)
    print("pairs,bits,sessions,empirical,expected,stderr,z")
    worst = 0.0
    for p in curve.points:
        z = abs(p.empirical - p.scheme_prob) / p.stderr if p.stderr else 0.0
        worst = max(worst, z)
        print(
            f"{p.bits_tested // 2},{p.bits_tested},{args.sessions},"
            f"{p.empirical},{p.scheme_prob},{p.stderr},{z:.3f}"
        )
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


if __name__ == "__main__":
    sys.exit(main())
