"""Golden digests: the exact bytes the CLI writes for fixed configurations.

Each case runs one command and pins the SHA-256 of its stdout, or of the
file it writes with `--out`. A change that alters any of these bytes is a
change in behaviour, which must be intended and recorded along with the
new digest.
"""

import hashlib

import pytest

from swapqkd import transcript
from swapqkd.cli import main

GOLDEN = {
    "honest": (
        ["run", "--rounds", "200", "--seed", "7"],
        "afee74465c95dcb6dfa1473f2a9825b4c311c92e187ae3e33a8df48ae93c3e37",
    ),
    "eve": (
        ["run", "--rounds", "200", "--seed", "7", "--eve"],
        "dc1516dd73ff835b404b47f187f4a78afefcf5ad3748331fd925ad1bc19390a6",
    ),
    "eve_tested": (
        ["run", "--rounds", "200", "--seed", "7", "--eve", "--test-fraction", "0.1"],
        "8883ab854b842cb0d3ab53ed976368aa6f8669c4d2e5520092379b7ea8799561",
    ),
    "eve_tested_labels": (
        ["run", "--rounds", "200", "--seed", "23", "--eve", "--test-fraction", "0.1",
         "--labels", "01", "11", "00", "--ancilla", "10"],
        "2ba7db44983b22d7ecae1d51140971596332ca129f3d7d1ce4510d6666c79cf9",
    ),
    "eve_tested_csv": (
        ["run", "--rounds", "200", "--seed", "7", "--eve", "--test-fraction", "0.1",
         "--format", "csv"],
        "54c92770ce5908322b520637fbd490ec00716eb2fa639fb2b915a07036e97c02",
    ),
    "curves": (
        ["curves", "--max-pairs", "4", "--sessions", "200", "--seed", "11"],
        "f759d102a492beec3186b8b13e1bb07e6670103ceac8c3ecc81bef203071e610",
    ),
    "montecarlo": (
        ["montecarlo", "--max-pairs", "3", "--sessions", "300", "--seed", "5",
         "--workers", "1"],
        "f9d79bada200d78ef4e73ac401cb725a90d432312428fbe66f761e447304ac0b",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_digest(case, capsys):
    argv, digest = GOLDEN[case]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def assert_round_trips(text: str) -> None:
    """Parsing the pinned bytes and emitting them again gives the same bytes."""
    lines = text.splitlines()
    assert transcript.emit_lines(transcript.parse_lines(lines)) == lines


JSON_RUNS = sorted(case for case, (argv, _) in GOLDEN.items()
                   if argv[0] == "run" and "csv" not in argv)


@pytest.mark.parametrize("case", JSON_RUNS)
def test_run_output_round_trips(case, capsys):
    argv, _ = GOLDEN[case]
    assert main(argv) == 0
    assert_round_trips(capsys.readouterr().out)


def test_out_file_digest(tmp_path, capsys):
    path = tmp_path / "honest.jsonl"
    argv = ["run", "--rounds", "300", "--seed", "5", "--test-fraction", "0.1",
            "--labels", "00", "01", "11", "--out", str(path)]
    assert main(argv) == 0
    assert "0/30 tested pairs mismatched -> clean" in capsys.readouterr().out
    digest = "bab8a4cd7f382113dab1218924078946ab5f62eabd309d1bd283934eb7ff2bd3"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert_round_trips(path.read_text())
