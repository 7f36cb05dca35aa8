"""Golden digests: the exact bytes the CLI writes for fixed configurations.

Each case runs one command and pins the SHA-256 of its stdout. A change
that alters any of these bytes is a change in behaviour, which must be
intended and recorded along with the new digest.
"""

import hashlib

import pytest

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
    "curves": (
        ["curves", "--max-pairs", "4", "--sessions", "200", "--seed", "11"],
        "f759d102a492beec3186b8b13e1bb07e6670103ceac8c3ecc81bef203071e610",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_digest(case, capsys):
    argv, digest = GOLDEN[case]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
