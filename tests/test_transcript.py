"""Transcript lines: the round template against json.dumps, and typed
errors on malformed input."""

import json

import pytest

from swapqkd import transcript
from swapqkd.bell import BellLabel
from swapqkd.protocol import SessionConfig, closing_corrections, run_session
from swapqkd.transcript import TranscriptError


def _round_dict(rec) -> dict:
    """Reference builder: the dict whose json.dumps each round line must equal."""
    eve = None
    if rec.eve is not None:
        eve = {
            "outbound_outcome": str(rec.eve.outbound_outcome),
            "return_readout": str(rec.eve.return_readout),
            "detach_outcome": str(rec.eve.detach_outcome),
            "inferred_alice": str(rec.eve.inferred_alice),
            "inferred_bob": str(rec.eve.inferred_bob),
        }
    return {
        "kind": "round",
        "index": rec.index,
        "alice_secret": str(rec.alice_secret),
        "bob_secret": str(rec.bob_secret),
        "announcement": str(rec.announcement),
        "alice_inferred_bob": str(rec.alice_inferred_bob),
        "bob_inferred_alice": str(rec.bob_inferred_alice),
        "transfers": [[q, direction] for q, direction in rec.transfers],
        "transmissions": rec.transmissions,
        "key_bits": rec.key_bits,
        "eve": eve,
        "corrections": [[c.party.value, c.qubit, c.op.name] for c in rec.corrections],
    }


def _dumps(rec) -> str:
    return json.dumps(_round_dict(rec), separators=(",", ":"))


def make_lines(rounds=6, eve=True, test_fraction=0.5, **cfg):
    config = SessionConfig(rounds=rounds, seed=29, eve_enabled=eve,
                           test_fraction=test_fraction, **cfg)
    return transcript.emit_lines(transcript.TranscriptFile.of(run_session(config)))


def labels(*texts):
    return tuple(BellLabel.from_string(t) for t in texts)


class TestRoundTemplate:
    @pytest.mark.parametrize(
        "cfg",
        [
            dict(eve=False),
            dict(eve=True),
            dict(eve=False, initial_labels=labels("01", "11", "00")),
            dict(eve=True, initial_labels=labels("00", "00", "01"),
                 eve_ancilla=BellLabel.from_string("11")),
        ],
        ids=["honest", "eve", "honest_labels", "eve_labels_ancilla"],
    )
    def test_template_equals_json_dumps(self, cfg):
        config = SessionConfig(rounds=300, seed=31, **{
            ("eve_enabled" if k == "eve" else k): v for k, v in cfg.items()})
        result = run_session(config)
        lines = transcript.emit_lines(transcript.TranscriptFile.of(result))
        assert lines[1:-1] == [_dumps(rec) for rec in result.rounds]

class TestParse:
    def test_accepts_an_open_file(self, tmp_path):
        lines = make_lines()
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n\n")
        with path.open() as fh:
            parsed = transcript.parse_lines(fh)
        assert transcript.emit_lines(parsed) == lines

    def test_parsed_labels_are_the_canonical_objects(self):
        parsed = transcript.parse_lines(make_lines())
        rec = parsed.transcript.rounds[0]
        assert rec.alice_secret is BellLabel.from_string(str(rec.alice_secret))
        assert rec.eve.inferred_bob is BellLabel.from_string(str(rec.eve.inferred_bob))


def edit_round(change, at=2):
    """Lines of a valid transcript whose round line `at` is changed by `change`."""
    lines = make_lines()
    row = json.loads(lines[at])
    change(row)
    lines[at] = json.dumps(row)
    return lines


def rederive_round(change, eve, at=1):
    """Lines of a file whose round `at` is changed by `change` and whose
    corrections and summary are derived anew, so only what `change`
    breaks is inconsistent."""
    config = SessionConfig(rounds=6, seed=29, eve_enabled=eve, test_fraction=0.5)
    result = run_session(config)
    rec = result.rounds[at]
    change(rec)
    detach = rec.eve.detach_outcome if eve else None
    rec.corrections = closing_corrections(config, at, rec.alice_secret, rec.announcement,
                                          rec.bob_secret, detach)
    return transcript.emit_lines(transcript.TranscriptFile.of(result))


def parse_error(lines) -> TranscriptError:
    with pytest.raises(TranscriptError) as exc:
        transcript.parse_lines(lines)
    assert isinstance(exc.value, ValueError)
    return exc.value


class TestTranscriptError:
    def test_broken_json(self):
        lines = make_lines()
        lines[3] = lines[3][:-5]
        err = parse_error(lines)
        assert err.line == 4
        assert "not JSON" in str(err)

    def test_line_not_an_object(self):
        lines = make_lines()
        lines[2] = "[1, 2]"
        err = parse_error(lines)
        assert (err.line, err.field) == (3, None)

    def test_missing_round_field(self):
        err = parse_error(edit_round(lambda row: row.pop("bob_secret")))
        assert (err.line, err.field) == (3, "bob_secret")
        assert str(err) == "line 3, field 'bob_secret': missing field"

    def test_missing_eve_field(self):
        err = parse_error(edit_round(lambda row: row["eve"].pop("detach_outcome")))
        assert (err.line, err.field) == (3, "eve.detach_outcome")

    def test_config_not_an_object(self):
        lines = make_lines()
        header = json.loads(lines[0])
        header["config"] = [1, 2]
        lines[0] = json.dumps(header)
        err = parse_error(lines)
        assert (err.line, err.field) == (1, "config")

    def test_config_values_checked(self):
        lines = make_lines()
        header = json.loads(lines[0])
        header["config"]["rounds"] = -3
        lines[0] = json.dumps(header)
        err = parse_error(lines)
        assert (err.line, err.field) == (1, "config")
        assert "nonnegative" in str(err)

    @pytest.mark.parametrize("value", [None, "not-a-transcript"])
    def test_header_format(self, value):
        lines = make_lines()
        header = json.loads(lines[0])
        if value is None:
            del header["format"]
        else:
            header["format"] = value
        lines[0] = json.dumps(header)
        err = parse_error(lines)
        assert (err.line, err.field) == (1, "format")
        assert ("missing field" in str(err)) is (value is None)

    def test_header_in_the_middle(self):
        lines = make_lines()
        lines.insert(3, lines[0])
        err = parse_error(lines)
        assert (err.line, err.field) == (4, "kind")
        assert "'header'" in str(err)

    def test_line_after_summary(self):
        lines = make_lines()
        lines.append(lines[1])
        err = parse_error(lines)
        assert err.line == len(lines)
        assert "after the summary" in str(err)

    def test_empty_input(self):
        err = parse_error(["", "  "])
        assert "header" in str(err)

    @pytest.mark.parametrize(
        "field, value",
        [("index", "2"), ("index", True), ("index", 2.0), ("key_bits", 11),
         ("key_bits", None), ("alice_secret", "0x"), ("announcement", 1),
         ("index", 5), ("eve", None), ("transmissions", 3), ("transmissions", 2.0),
         ("alice_inferred_bob", "00"), ("bob_inferred_alice", "01")],
    )
    def test_round_field_types(self, field, value):
        err = parse_error(edit_round(lambda row: row.__setitem__(field, value)))
        assert (err.line, err.field) == (3, field)

    @pytest.mark.parametrize(
        "field, path, value",
        [
            ("transfers", (0, 0), "2"),
            ("transfers", (1, 0), False),
            ("transfers", (1, 1), 6),
            ("transfers", (0,), "ab"),
            ("corrections", (0, 1), "1"),
            ("corrections", (2, 1), True),
            ("corrections", (0, 0), "mallory"),
            ("corrections", (1, 2), "H"),
            ("transfers", (0, 0), 2),
            ("transfers", (0, 0), 3.0),
            ("transfers", (1, 1), "alice_to_bob"),
        ],
    )
    def test_qubits_directions_and_names(self, field, path, value):
        def change(row):
            target = row[field]
            for step in path[:-1]:
                target = target[step]
            target[path[-1]] = value

        err = parse_error(edit_round(change))
        assert (err.line, err.field) == (3, field)

    @pytest.mark.parametrize(
        "edited, field",
        [
            ("inferred_bob", "eve.inferred_bob"),
            ("inferred_alice", "eve.inferred_alice"),
            ("outbound_outcome", "eve.inferred_bob"),
            ("return_readout", "eve.inferred_bob"),
            ("detach_outcome", "eve.inferred_alice"),
        ],
    )
    def test_eve_inferences_against_her_outcomes(self, edited, field):
        # her inferences follow from her outcomes, the header and the
        # announcement; an edit to any of them breaks one of the two
        def change(row):
            flipped = BellLabel.from_string(row["eve"][edited]) ^ BellLabel.from_string("01")
            row["eve"][edited] = str(flipped)

        err = parse_error(edit_round(change))
        assert (err.line, err.field) == (3, field)

    @pytest.mark.parametrize(
        "corrections",
        [[], [["alice", 1, "Y"], ["bob", 2, "I"]], "swap_first_two", "eve_op"],
        ids=["empty", "two_edited", "swap_first_two", "eve_op"],
    )
    def test_corrections_against_the_round(self, corrections):
        def change(row):
            if corrections == "swap_first_two":
                row["corrections"][:2] = row["corrections"][1::-1]
            elif corrections == "eve_op":
                eve = row["corrections"][3]
                eve[2] = "X" if eve[2] != "X" else "Z"
            else:
                row["corrections"] = corrections

        err = parse_error(edit_round(change))
        assert (err.line, err.field) == (3, "corrections")
        assert "agreed labels" in str(err)

    @pytest.mark.parametrize(
        "eve, edited, field",
        [
            (False, ("announcement", "alice_inferred_bob", "bob_inferred_alice"),
             "announcement"),
            (True, ("eve.return_readout", "eve.inferred_bob", "eve.inferred_alice"),
             "eve.inferred_bob"),
            (True, ("eve.detach_outcome", "eve.inferred_alice"), "eve.inferred_alice"),
        ],
        ids=["honest_bob_wrong", "eve_bob_wrong", "eve_alice_wrong"],
    )
    def test_inferences_recover_the_secrets(self, eve, edited, field):
        # each edit keeps every formula and the summary consistent, but
        # leaves an inference that no session makes: Bob's of Alice's
        # secret without Eve, or Eve's of either secret
        def change(rec):
            for path in edited:
                *section, name = path.split(".")
                owner = rec.eve if section else rec
                setattr(owner, name, getattr(owner, name) ^ BellLabel.from_string("10"))

        err = parse_error(rederive_round(change, eve))
        assert (err.line, err.field) == (3, field)

    def test_summary_field(self):
        lines = make_lines()
        summary = json.loads(lines[-1])
        del summary["test"]["mismatches"]
        lines[-1] = json.dumps(summary)
        err = parse_error(lines)
        assert (err.line, err.field) == (len(lines), "test.mismatches")

    @pytest.mark.parametrize(
        "key_bits, direction",
        [
            ('0"1', "alice_to_bob"),
            ("01", 'back\\slash "quoted"'),
            ("é☃", "café \U0001f600"),
            ("\u2028\n\t\x00", "\x7f\x1f"),
            ("", ""),
        ],
    )
    def test_free_strings_rejected(self, key_bits, direction):
        # key bits and transfer directions are derived, so a file's copy
        # must equal the derived value, whatever string it holds
        err = parse_error(edit_round(lambda row: row.__setitem__("key_bits", key_bits)))
        assert (err.line, err.field) == (3, "key_bits")
        err = parse_error(edit_round(lambda row: row["transfers"][1].__setitem__(1, direction)))
        assert (err.line, err.field) == (3, "transfers")

    def test_eve_section_in_honest_file(self):
        eve_section = json.loads(make_lines()[2])["eve"]
        lines = make_lines(eve=False)
        row = json.loads(lines[2])
        row["eve"] = eve_section
        lines[2] = json.dumps(row)
        err = parse_error(lines)
        assert (err.line, err.field) == (3, "eve")
        assert "null" in str(err)

    @pytest.mark.parametrize("change", ["drop_last_round", "header_rounds"])
    def test_round_count_against_header(self, change):
        lines = make_lines()
        if change == "drop_last_round":
            del lines[-2]
        else:
            header = json.loads(lines[0])
            header["config"]["rounds"] += 1
            lines[0] = json.dumps(header)
        err = parse_error(lines)
        assert (err.line, err.field) == (1, "config.rounds")

    @pytest.mark.parametrize(
        "field, value",
        [("alice_key", "0000"), ("alice_key", ""), ("bob_key", 12 * "0"),
         ("eve_key", None), ("eve_key", "0")],
    )
    def test_summary_keys_against_rounds(self, field, value):
        lines = make_lines()
        summary = json.loads(lines[-1])
        assert summary[field] != value
        summary[field] = value
        lines[-1] = json.dumps(summary)
        err = parse_error(lines)
        assert (err.line, err.field) == (len(lines), field)

    @pytest.mark.parametrize(
        "test_fraction, edits, field",
        [
            (0.5, {"rate.key_bits": 5, "test.remaining_key": "0", "test.tested_rounds": [9]},
             "rate.key_bits"),
            (0.5, {"rate.key_bits": 5}, "rate.key_bits"),
            (0.5, {"test.remaining_key": "0"}, "test.remaining_key"),
            (0.5, {"test.tested_rounds": [9]}, "test.tested_rounds"),
            (0.5, {"rate.rate": 0.25}, "rate.rate"),
            (0.5, {"rate.bb84_rate": 0.9}, "rate.bb84_rate"),
            (0.5, {"test.eve_detected": 1}, "test.eve_detected"),
            (0.5, {"test.tested_rounds": [False, 2, 3]}, "test.tested_rounds"),
            (0.5, {"rate.key_bits": 12.0}, "rate.key_bits"),
            (0.5, {"test": None}, "test"),
            (0.0, {"test": "degenerate"}, "test"),
        ],
        ids=["found_file", "key_bits", "remaining_key", "tested_rounds", "rate", "bb84_rate",
             "eve_detected_int", "tested_rounds_bool", "key_bits_float", "test_null",
             "test_without_fraction"],
    )
    def test_summary_derived_against_rounds(self, test_fraction, edits, field):
        # the rate and the test report are derived from the header, the
        # rounds and the public coin: a copy that differs in value or JSON
        # type is rejected at its dotted field
        lines = make_lines(test_fraction=test_fraction)
        summary = json.loads(lines[-1])
        assert summary["rate"]["key_bits"] == 12
        assert summary["test"] is None or summary["test"]["tested_rounds"] == [0, 2, 3]
        for path, value in edits.items():
            *parents, name = path.split(".")
            target = summary
            for step in parents:
                target = target[step]
            if value == "degenerate":
                value = {"pairs_tested": 0, "bits_tested": 0, "mismatches": 0,
                         "eve_detected": False, "remaining_key": summary["alice_key"],
                         "remaining_key_bob": summary["bob_key"], "tested_rounds": [],
                         "degenerate": True}
            target[name] = value
        assert json.dumps(summary, separators=(",", ":")) != lines[-1]
        lines[-1] = json.dumps(summary)
        err = parse_error(lines)
        assert (err.line, err.field) == (len(lines), field)

    def test_summary_extra_keys_ignored(self):
        lines = make_lines()
        summary = json.loads(lines[-1])
        summary["note"] = "audited"
        summary["test"]["note"] = 1
        lines[-1] = json.dumps(summary)
        assert transcript.parse_lines(lines) == transcript.parse_lines(make_lines())
