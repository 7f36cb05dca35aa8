"""Command-line surface: exit codes, transcript files, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swapqkd
from swapqkd import analysis, cli, transcript
from swapqkd.bell import BellLabel
from swapqkd.cli import main
from swapqkd.knowledge import LedgerViolation
from swapqkd.protocol import SessionConfig, run_session
from swapqkd.rng import session_seeds


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_file(rounds=20, seed=7, eve=False, test_fraction=0.0, **cfg):
    return transcript.TranscriptFile.of(run_session(SessionConfig(
        rounds=rounds, seed=seed, eve_enabled=eve, test_fraction=test_fraction, **cfg)))


def labels(*texts):
    return tuple(BellLabel.from_string(t) for t in texts)


class TestTranscriptRoundTrip:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(),
            dict(eve=True),
            dict(eve=True, test_fraction=0.25),
            dict(rounds=0),
            dict(eve=True, test_fraction=0.25, initial_labels=labels("01", "11", "00"),
                 eve_ancilla=BellLabel.from_string("10")),
        ],
    )
    def test_parse_inverts_emit(self, kwargs):
        original = make_file(**kwargs)
        lines = transcript.emit_lines(original)
        parsed = transcript.parse_lines(lines)
        assert parsed.transcript == original.transcript
        assert parsed.rate == original.rate
        assert parsed.test == original.test
        assert transcript.emit_lines(parsed) == lines

    def test_header_and_summary_required(self):
        lines = transcript.emit_lines(make_file())
        with pytest.raises(ValueError, match="header"):
            transcript.parse_lines(lines[1:])
        with pytest.raises(ValueError, match="summary"):
            transcript.parse_lines(lines[:-1])

    def test_labels_serialize_as_two_digit_strings(self):
        lines = transcript.emit_lines(make_file(rounds=1))
        row = json.loads(lines[1])
        assert row["alice_secret"] in {"00", "01", "10", "11"}

    def test_csv_projection_shape(self):
        lines = transcript.csv_lines(make_file(rounds=3, eve=True))
        assert lines[0].split(",") == list(transcript.CSV_COLUMNS)
        assert len(lines) == 4
        assert all(len(line.split(",")) == len(transcript.CSV_COLUMNS) for line in lines)


class TestRunCommand:
    def test_writes_parseable_transcript(self, capsys):
        code, out, err = run_cli(capsys, "run", "--rounds", "100", "--seed", "7")
        assert code == 0
        parsed = transcript.parse_lines(out.splitlines())
        assert len(parsed.transcript.alice_key) == 200
        assert parsed.rate.rate == 1.0
        assert parsed.test is None
        assert "rate: 1.0" in err

    def test_zero_rounds_degenerate(self, capsys):
        code, out, err = run_cli(capsys, "run", "--rounds", "0", "--seed", "7")
        assert code == 0
        parsed = transcript.parse_lines(out.splitlines())
        assert parsed.transcript.rounds == []
        assert parsed.rate.rate is None
        assert "n/a" in err

    def test_eve_run_detection_summary(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--rounds", "200", "--seed", "7", "--eve",
            "--test-fraction", "0.1",
        )
        assert code == 0
        parsed = transcript.parse_lines(out.splitlines())
        assert parsed.test is not None
        assert parsed.test.eve_detected
        assert "EVE DETECTED" in err

    def test_one_round_test_is_degenerate(self, capsys):
        code, _, err = run_cli(capsys, "run", "--rounds", "1", "--seed", "7",
                               "--test-fraction", "0.1")
        assert code == 0
        assert err.splitlines()[-1] == "eavesdropping test: degenerate (no rounds selected)"

    def test_ledger_violation_is_verification_failure(self, capsys, monkeypatch):
        def refuse(config):
            raise LedgerViolation("qubits 1,3 are not a ledgered pair")

        monkeypatch.setattr(cli, "run_session", refuse)
        code, out, err = run_cli(capsys, "run", "--rounds", "1", "--seed", "7")
        assert (code, out, err) == (1, "", "error: qubits 1,3 are not a ledgered pair\n")

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = [
            "run", "--rounds", "50", "--seed", "7", "--eve",
            "--test-fraction", "0.2",
        ]
        code1, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a.jsonl"))
        code2, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b.jsonl"))
        assert code1 == code2 == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--rounds", "3", "--seed", "7", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0].startswith("index,alice_secret")

    def test_custom_labels(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--rounds", "5", "--seed", "7",
            "--labels", "00", "00", "00",
        )
        assert code == 0
        header = json.loads(out.splitlines()[0])
        assert header["config"]["initial_labels"] == ["00", "00", "00"]

    def test_bad_label_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--rounds", "1", "--seed", "7", "--labels", "0x", "10", "10"])
        assert exc.value.code == 2

    def test_bad_fraction_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--rounds", "1", "--seed", "7", "--test-fraction", "2.0"
        )
        assert code == 2
        assert "error" in err

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--rounds", "1", "--seed", "7",
            "--out", str(tmp_path / "missing" / "x.jsonl"),
        )
        assert code == 3
        assert "cannot write" in err

    def test_outdir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SWAPQKD_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "run", "--rounds", "1", "--seed", "7",
                             "--out", "nested.jsonl")
        assert code == 0
        assert (tmp_path / "nested.jsonl").exists()


class TestVerifyOracleCommand:
    def test_clean_build_verifies(self, capsys):
        code, out, _ = run_cli(capsys, "verify-oracle")
        assert code == 0
        assert out == "64/64 cases verified\n"

    def test_injected_fault_detected(self, capsys):
        # the tally counts swap cases that pass their oracle check: the fault
        # breaks one of 64, and its table row is a second discrepancy
        code, out, _ = run_cli(capsys, "verify-oracle", "--inject-fault")
        assert code == 1
        assert out == (
            "DISCREPANCY initial 0000: produced ['0001', '0101', '1010', '1111'], "
            "expected ['0000', '0101', '1010', '1111']\n"
            "DISCREPANCY (00,00,00): oracle label 00, rule says 01\n"
            "63/64 cases verified; 2 discrepancies\n"
        )


class TestCurvesCommand:
    def test_single_pair_row(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--max-pairs", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,scheme_prob,bb84_prob,empirical,stderr"
        assert lines[1] == "2,0.75,0.4375,,"

    def test_zero_pairs_rejected(self, capsys):
        code, _, err = run_cli(capsys, "curves", "--max-pairs", "0")
        assert code == 2
        assert "at least 1" in err

    @pytest.mark.parametrize("pairs", [10**5 + 1, 10**9])
    def test_pairs_past_the_bound_rejected(self, pairs, capsys, monkeypatch):
        # every point is kept in memory: a size past the bound is refused
        # before any is built, and the bound itself is built
        built = []
        monkeypatch.setattr(analysis.DetectionCurve, "build",
                            lambda *args: built.append(args) or analysis.DetectionCurve())
        assert run_cli(capsys, "curves", "--max-pairs", str(pairs)) == (
            2, "", f"error: --max-pairs must be at most 100000, got {pairs}\n")
        assert built == []
        assert run_cli(capsys, "curves", "--max-pairs", "100000")[0] == 0
        assert built == [(10**5, 0, None)]

    def test_negative_sessions_rejected(self, capsys):
        code, out, err = run_cli(capsys, "curves", "--max-pairs", "2", "--sessions", "-5",
                                 "--seed", "1")
        assert code == 2
        assert out == ""
        assert err == "error: --sessions must be nonnegative\n"

    def test_empirical_needs_seed(self, capsys):
        code, _, err = run_cli(capsys, "curves", "--max-pairs", "2", "--sessions", "10")
        assert code == 2

    def test_columns_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "curves", "--max-pairs", "6")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        scheme = [float(r[1]) for r in rows]
        other = [float(r[2]) for r in rows]
        assert scheme == sorted(scheme)
        assert other == sorted(other)


class TestMonteCarloCommand:
    def test_small_sweep(self, capsys):
        code, out, err = run_cli(
            capsys, "montecarlo", "--max-pairs", "2", "--sessions", "200", "--seed", "9"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "pairs,bits,sessions,empirical,expected,stderr,z"
        assert len(lines) == 3
        assert "max |z|" in err

    def test_same_estimates_as_curves(self, capsys):
        argv = ("--max-pairs", "3", "--sessions", "40", "--seed", "12")
        _, curves, _ = run_cli(capsys, "curves", *argv)
        _, sweep, _ = run_cli(capsys, "montecarlo", *argv)
        # curves: N,scheme_prob,bb84_prob,empirical,stderr
        # montecarlo: pairs,bits,sessions,empirical,expected,stderr,z
        curve_columns = [line.split(",")[3:5] for line in curves.splitlines()[1:]]
        sweep_columns = [line.split(",")[3:6:2] for line in sweep.splitlines()[1:]]
        assert len(curve_columns) == 3
        assert curve_columns == sweep_columns

    def test_sessions_that_never_detect_eve_fail_beyond_26_pairs(self, capsys, monkeypatch):
        # at n >= 27, 1 - 0.25**n rounds to 1: the sweep once printed stderr 0.0 and z 0.000
        monkeypatch.setattr(analysis, "_count_detections", lambda pairs_tested, seeds: 0)
        code, out, err = run_cli(capsys, "montecarlo", "--max-pairs", "30", "--sessions", "3",
                                 "--seed", "1")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == [str(n) for n in range(1, 31)]
        assert rows[-1][3:5] == ["0.0", "1.0"]
        assert float(rows[-1][5]) > 0 and float(rows[-1][6]) > 3
        assert all(float(row[6]) > 3 for row in rows[26:])
        assert float(err.split()[3]) > 3

    def test_misses_where_stderr_is_zero_print_inf(self, capsys, monkeypatch):
        # past n = 537, 0.25**n underflows to 0 and so does the standard error
        monkeypatch.setattr(analysis, "_count_detections", lambda pairs_tested, seeds: 0)
        code, out, err = run_cli(capsys, "montecarlo", "--max-pairs", "540", "--sessions", "3",
                                 "--seed", "1")
        assert code == 0
        assert out.splitlines()[-1] == "540,1080,3,0.0,1.0,0.0,inf"
        assert err == "max |z| = inf (3-sigma bound is 3.0)\n"

    def test_bad_args(self, capsys):
        code, _, _ = run_cli(capsys, "montecarlo", "--max-pairs", "0", "--seed", "9")
        assert code == 2

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, capsys, workers):
        code, out, err = run_cli(capsys, "montecarlo", "--max-pairs", "1", "--sessions", "10",
                                 "--seed", "9", "--workers", workers)
        assert code == 2
        assert out == ""
        assert err == "error: --workers must be at least 1\n"

    def test_points_share_no_session_seeds(self, capsys, monkeypatch):
        # --seed 5 at n = 2 and --seed 6 at n = 1 once ran the same sessions
        point_seeds = []
        estimate = analysis.estimate_detection

        def recording(pairs_tested, sessions, seed, **kwargs):
            point_seeds.append(seed)
            return estimate(pairs_tested, sessions, seed, **kwargs)

        monkeypatch.setattr(analysis, "estimate_detection", recording)
        for seed, max_pairs in (("5", "2"), ("6", "1")):
            code, _, _ = run_cli(capsys, "montecarlo", "--max-pairs", max_pairs,
                                 "--sessions", "50", "--seed", seed)
            assert code == 0
        five_at_2, six_at_1 = point_seeds[1], point_seeds[2]
        assert not set(session_seeds(five_at_2, 50)) & set(session_seeds(six_at_1, 50))


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--rounds", "2", "--seed", "-1"],
        ["curves", "--max-pairs", "2", "--sessions", "10", "--seed", "-1"],
        ["montecarlo", "--max-pairs", "2", "--sessions", "10", "--seed", "-1"],
    ],
    ids=["run", "curves", "montecarlo"],
)
def test_negative_seed_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --seed: seed must be nonnegative" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["montecarlo", "--sessions", str(10**15), "--seed", "1"],
        ["curves", "--max-pairs", "2", "--sessions", str(10**15), "--seed", "1"],
    ],
    ids=["montecarlo", "curves"],
)
def test_size_too_large_to_allocate_is_usage_error(argv, capsys):
    # numpy refuses the 8 PB seed array at once, so nothing is allocated
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_memory_error_without_a_message_is_named(capsys, monkeypatch):
    # Python's own MemoryError, raised when an allocation fails, carries no message
    def build(*args):
        raise MemoryError

    monkeypatch.setattr(analysis.DetectionCurve, "build", build)
    assert run_cli(capsys, "curves", "--max-pairs", "2") == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("command", ["montecarlo", "curves"])
@pytest.mark.parametrize("sessions", [2**63 - 1, 99999999999999999999])
def test_sessions_past_numpy_index_range_is_usage_error(command, sessions, capsys):
    # numpy rejects the seed array's size with a ValueError before it allocates
    code, out, err = run_cli(capsys, command, "--max-pairs", "1", "--sessions", str(sessions),
                             "--seed", "1")
    assert (code, out) == (2, "")
    assert err == f"error: cannot allocate seeds for {sessions} sessions\n"


@pytest.mark.parametrize("rounds", [2**64 + 1, 99999999999999999999])
def test_rounds_beyond_64_bit_indices_is_usage_error(rounds, capsys):
    # rejected before a round starts; 2**64 rounds would be valid, and never end
    code, out, err = run_cli(capsys, "run", "--rounds", str(rounds), "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: rounds must be at most 2**64, as round indices are 64-bit; got {rounds}\n"


def child_env() -> dict:
    """The environment for a child interpreter that imports this swapqkd."""
    src = str(Path(swapqkd.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


class TestEntryPoints:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_reader_closing_the_pipe_early(self):
        # 3,000 rounds are about 1.3 MB, far more than a pipe buffers
        with subprocess.Popen(
            [sys.executable, "-m", "swapqkd", "run", "--rounds", "3000", "--seed", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
        ) as proc:
            assert proc.stdout.read(100).startswith(b'{"kind":"header"')
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 0
        assert "Traceback" not in err
        assert "rounds: 3000" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--rounds", "50", "--seed", "1"],
            ["run", "--rounds", "5", "--seed", "1", "--out", os.devnull],
            ["curves", "--max-pairs", "3"],
            ["montecarlo", "--max-pairs", "2", "--sessions", "20", "--seed", "1"],
            ["verify-oracle"],
        ],
        ids=["run", "run-summary", "curves", "montecarlo", "verify-oracle"],
    )
    def test_failed_stdout_write_is_io_error(self, argv):
        # every write to /dev/full fails with ENOSPC
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "swapqkd", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=child_env(),
            )
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: cannot write standard output")

    def test_output_independent_of_the_process(self, tmp_path):
        # labels and enum members hash by identity, which differs from one
        # process to the next, as string hashes do under PYTHONHASHSEED
        argv = ["run", "--rounds", "300", "--seed", "7", "--eve", "--test-fraction", "0.1"]
        outputs = []
        for hash_seed in ("0", "4242"):
            out = tmp_path / f"hashseed-{hash_seed}.jsonl"
            proc = subprocess.run(
                [sys.executable, "-m", "swapqkd", *argv, "--out", str(out)],
                capture_output=True, env={**child_env(), "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") == 302

    def test_parser_reused_after_a_usage_error(self, capsys):
        # the parser is built once per process; a failed parse must not change
        # what the next call parses
        with pytest.raises(SystemExit) as exc:
            main(["run", "--rounds", "2", "--seed", "1", "--eve", "--format", "xml"])
        assert exc.value.code == 2
        capsys.readouterr()
        argv = ["run", "--rounds", "2", "--seed", "1", "--test-fraction", "0.5"]
        in_process = run_cli(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "swapqkd", *argv],
                              capture_output=True, text=True, env=child_env())
        assert in_process == (proc.returncode, proc.stdout, proc.stderr)

    @pytest.mark.parametrize("argv,want", [
        (["verify-oracle"], "0 False False False"),
        (["curves", "--max-pairs", "3"], "0 True False False"),
        (["run", "--rounds", "-1", "--seed", "1"], "2 False False False"),
        (["montecarlo", "--max-pairs", "2", "--sessions", "20", "--seed", "1"],
         "0 True False False"),
        (["curves", "--max-pairs", "2", "--sessions", "20", "--seed", "1"], "0 True False False"),
        (["run", "--rounds", "10", "--seed", "1", "--eve"], "0 True True False"),
        # the public test coin is the one Generator a command builds
        (["run", "--rounds", "10", "--seed", "1", "--test-fraction", "0.5"], "0 True True True"),
    ], ids=["verify-oracle", "curves", "usage-error", "montecarlo", "curves-sessions",
            "run-untested", "run-tested"])
    def test_commands_leave_unused_modules_unloaded(self, argv, want):
        # only the commands that use them import analysis and transcript, and
        # only a command that builds a Generator loads numpy.random, unless
        # `import numpy` loads it itself (numpy 1.x)
        script = ("import sys\n"
                  "import numpy\n"
                  "preloaded = 'numpy.random' in sys.modules\n"
                  "from swapqkd import cli\n"
                  f"code = cli.main({argv!r})\n"
                  "print(code, 'swapqkd.analysis' in sys.modules, "
                  "'swapqkd.transcript' in sys.modules, "
                  "not preloaded and 'numpy.random' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == want

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "swapqkd", "run", "--rounds", "2", "--seed", "1"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert '"kind":"header"' in proc.stdout
