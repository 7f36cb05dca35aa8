"""Fuzz of both input surfaces: the command line and transcript files.

Every argument list gives a documented exit code and no traceback; every
one-edit mutation of a transcript file parses to a file a session writes,
or raises `TranscriptError`. Examples are derandomized, so a run repeats.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from swapqkd.cli import main
from swapqkd.protocol import SessionConfig, run_session
from swapqkd.transcript import TranscriptError, TranscriptFile, emit_lines, parse_lines

def fuzz(examples: int):
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples)


def ints(low, high, *extra):
    """A small integer half the time, else a value that is not one or is out of range."""
    junk = ["", "x", "1.5", "nan", "-inf", "0x10", "--rounds", *extra]
    return st.one_of(st.integers(low, high).map(str), st.sampled_from(junk))


LABEL = st.sampled_from(["00", "01", "10", "11", "2", "ab"])
SEED = ints(0, 40, "-1", "9" * 185)
OUT = st.sampled_from(["-", "."])  # stdout, or a directory that cannot be written

# each subcommand's flags, with the values drawn for them; None for a switch.
# Sizes stay small: a fuzzed run is at most 50 rounds, a sweep at most 3
# sessions of up to 12 pairs, and 2 workers start no pool for under 4 sessions.
FLAGS = {
    "run": {
        "--rounds": ints(-1, 50, "18446744073709551617"),
        "--seed": SEED,
        "--eve": None,
        "--test-fraction": st.sampled_from(["0", "0.1", "1", "1.5", "-0.1", "nan", "inf", "x"]),
        "--labels": st.lists(LABEL, min_size=1, max_size=4),
        "--ancilla": LABEL,
        "--format": st.sampled_from(["json", "csv", "xml"]),
        "--out": OUT,
    },
    "verify-oracle": {"--inject-fault": None},
    "curves": {
        "--max-pairs": ints(-1, 12),
        "--sessions": ints(-1, 3, "99999999999999999999"),
        "--seed": SEED,
        "--out": OUT,
    },
    "montecarlo": {
        "--max-pairs": ints(-1, 12),
        "--sessions": ints(-1, 3, "99999999999999999999"),
        "--seed": SEED,
        "--workers": ints(-1, 2),
    },
}


# valid required arguments first, which drawn flags may override; montecarlo's
# default would be 10,000 sessions
BASE = {
    "run": ["--rounds", "3", "--seed", "1"],
    "verify-oracle": [],
    "curves": ["--max-pairs", "2"],
    "montecarlo": ["--sessions", "1", "--seed", "1"],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command, *BASE[command]]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS[command])), max_size=4)):
        argv.append(flag)
        values = FLAGS[command][flag]
        if values is not None:
            value = draw(values)
            argv += value if isinstance(value, list) else [value]
    if len(argv) > 1 and draw(st.integers(0, 3)) == 0:  # drop a token: a flag without its value
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


def run_main(argv) -> tuple[int, str]:
    """`main(argv)`'s exit code, argparse's included, and its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
    return code, err.getvalue()


# huge sizes, each refused before anything is allocated
@example(["montecarlo", "--max-pairs", "1", "--sessions", "99999999999999999999", "--seed", "1"])
@example(["curves", "--max-pairs", "1", "--sessions", "99999999999999999999", "--seed", "1"])
@example(["montecarlo", "--sessions", str(10**15), "--seed", "1"])
@example(["curves", "--max-pairs", str(10**9)])
@fuzz(150)
@given(argvs())
def test_argv_gives_a_documented_exit_code(argv):
    code, err = run_main(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    if code in (2, 3):  # a usage or I/O error is reported on one line
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)


def small_file(eve: bool) -> tuple[TranscriptFile, str]:
    file = TranscriptFile.of(run_session(
        SessionConfig(rounds=3, seed=5, eve_enabled=eve, test_fraction=0.5)))
    return file, "".join(f"{line}\n" for line in emit_lines(file))


FILES = {eve: small_file(eve) for eve in (False, True)}


@fuzz(300)
@given(st.booleans(), st.data())
def test_one_edit_parses_to_a_written_file_or_raises(eve, data):
    """Delete, replace or insert one character anywhere in a 3-round file.

    A file that parses is the original, or one that the session under its
    edited header writes: its rounds and its test report do not depend on
    `test_fraction` edits that select the same rounds, nor on an honest
    file's `eve_ancilla`. The one exception is an edited header `seed`:
    `parse_lines` does not draw the rounds again from it, so a known gap
    lets such a file through with the original rounds."""
    file, text = FILES[eve]
    at = data.draw(st.integers(0, len(text)))
    char = data.draw(st.sampled_from('019"-.,:{}[] \neantx'))
    edit = data.draw(st.sampled_from(["delete", "replace", "insert"]))
    end = at + (edit != "insert")
    mutated = text[:at] + ("" if edit == "delete" else char) + text[end:]
    try:
        parsed = parse_lines(mutated.splitlines())
    except TranscriptError:
        return
    config = parsed.transcript.config
    if config.seed != file.transcript.config.seed:
        assert parsed.transcript.rounds == file.transcript.rounds
    else:
        assert parsed == TranscriptFile.of(run_session(config))
