"""Transcript lines: the round template against json.dumps, and typed
errors on malformed input."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapqkd import transcript
from swapqkd.bell import ALL_LABELS, BellLabel, PauliOp
from swapqkd.protocol import SessionConfig, SessionTranscript, closing_corrections, run_session
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


OTHER_LABELS = dict(initial_labels=labels("01", "11", "00"),
                    eve_ancilla=BellLabel.from_string("10"))


def branch_key(row: dict) -> tuple:
    """A round row's index mod 4 and outcomes, which fix its derivation."""
    key = (row["index"] % 4, row["alice_secret"], row["bob_secret"], row["announcement"])
    if row["eve"] is not None:
        key += tuple(row["eve"][name] for name in ("outbound_outcome", "return_readout",
                                                     "detach_outcome"))
    return key


def count_json_loads(monkeypatch) -> list:
    """The arguments of each json.loads call from now on, in call order."""
    loads, calls = json.loads, []

    def counted(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    return calls


def first_repeat(lines) -> int:
    """Position in `lines` of the first round line whose branch an
    earlier round line already had."""
    seen = set()
    for at, line in enumerate(lines[1:-1], 1):
        key = branch_key(json.loads(line))
        if key in seen:
            return at
        seen.add(key)
    pytest.fail("no branch repeats")


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

    def test_each_record_written_as_its_own_line(self):
        # emit_lines reuses a line tail only for the same branch and the very
        # same corrections tuple: records at every phase that share labels
        # but hold an equal copy of the corrections, edited corrections,
        # another Eve field or no Eve section each get their own line
        config = SessionConfig(rounds=1, seed=31, eve_enabled=True)
        base = run_session(config).rounds[0]
        flip = BellLabel.from_string("01")
        first, *rest = base.corrections
        edited = (replace(first, op=PauliOp.Y if first.op is not PauliOp.Y else PauliOp.Z),
                  *rest)
        variants = [
            {},
            dict(corrections=tuple(list(base.corrections))),
            dict(corrections=edited),
            dict(eve=replace(base.eve, inferred_alice=base.eve.inferred_alice ^ flip)),
            dict(eve=replace(base.eve, detach_outcome=base.eve.detach_outcome ^ flip)),
            dict(alice_inferred_bob=base.alice_inferred_bob ^ flip),
            dict(eve=None),
        ]
        records = [replace(base, index=at, **variants[at % len(variants)]) for at in range(56)]
        # an honest header, so that the summary has no Eve key to join
        file = transcript.TranscriptFile.of(SessionTranscript(replace(config, eve_enabled=False),
                                                              records))
        lines = transcript.emit_lines(file)[1:-1]
        assert lines == [_dumps(rec) for rec in records]


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

    @pytest.mark.parametrize("eve", [False, True], ids=["honest", "eve"])
    def test_accepts_bytes_and_crlf_lines(self, eve, tmp_path):
        lines = make_lines(eve=eve)
        canonical = transcript.parse_lines(lines)
        crlf = [line + "\r\n" for line in lines]
        assert transcript.parse_lines(crlf) == canonical
        assert transcript.parse_lines([line.encode() for line in crlf]) == canonical
        path = tmp_path / "t.jsonl"
        path.write_bytes("".join(crlf).encode())
        with path.open("rb") as fh:
            assert transcript.parse_lines(fh) == canonical

    @pytest.mark.parametrize(
        "eve, rounds, cfg",
        [(False, 6, {}), (True, 6, {}), (False, 2000, OTHER_LABELS), (True, 2000, OTHER_LABELS)],
        ids=["honest", "eve", "honest_2000_rounds_labels", "eve_2000_rounds_labels"],
    )
    def test_accepts_other_spacing_and_key_order(self, eve, rounds, cfg, monkeypatch):
        # a round line that differs from the derived one only in JSON
        # spacing or key order is walked field by field, and accepted; the
        # canonical file takes a repeated branch's lines without json.loads,
        # the walked one parses and walks every line, and loads each
        # branch's derived line once
        lines = make_lines(rounds=rounds, eve=eve, **cfg)
        rows = [json.loads(line) for line in lines[1:-1]]
        branches = {branch_key(row) for row in rows}
        walked = [lines[0], *[json.dumps(dict(reversed(row.items()))) for row in rows], lines[-1]]
        assert not set(walked[1:-1]) & set(lines)
        canonical = transcript.parse_lines(lines)
        calls = count_json_loads(monkeypatch)
        assert transcript.parse_lines(walked) == canonical
        assert len(calls) == 2 + rounds + len(branches)

    @pytest.mark.parametrize("eve", [False, True], ids=["honest", "eve"])
    def test_mixed_canonical_and_respaced_lines(self, eve, monkeypatch):
        # every other round line of each phase (rounds 0-3, 8-11, ...)
        # re-spaced by json.dumps: a canonical line is taken as text whether
        # or not a walked line of its branch came first, and a walked line
        # loads its branch's derived line once whether or not a canonical
        # twin came first
        lines = make_lines(rounds=400, eve=eve)
        walked = {at for at in range(1, len(lines) - 1) if (at - 1) // 4 % 2 == 0}
        mixed = [json.dumps(json.loads(line)) if at in walked else line
                 for at, line in enumerate(lines)]
        assert not set(mixed[at] for at in walked) & set(lines)
        keys = [branch_key(json.loads(line)) for line in lines[1:-1]]
        first_canonical = {}
        for at, key in enumerate(keys, 1):
            if at not in walked:
                first_canonical.setdefault(key, at)
        orders = {at < first_canonical[keys[at - 1]] for at in walked
                  if keys[at - 1] in first_canonical}
        assert orders == {True, False}
        canonical = transcript.parse_lines(lines)
        calls = count_json_loads(monkeypatch)
        assert transcript.parse_lines(mixed) == canonical
        assert len(calls) == 2 + len(walked) + len({keys[at - 1] for at in walked})

    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes_json_space"])
    @pytest.mark.parametrize("eve", [False, True], ids=["honest", "eve"])
    def test_json_loads_once_per_branch(self, eve, as_bytes, monkeypatch):
        # a round line that is, up to trailing JSON whitespace, the line
        # derived from the outcomes at its template positions is taken
        # without json.loads, the first of its branch too: json.loads reads
        # the header and the summary only
        lines = make_lines(rounds=2000, eve=eve)
        canonical = transcript.parse_lines(lines)
        if as_bytes:
            lines = [f"{line} \t\r\n".encode() for line in lines]
        calls = count_json_loads(monkeypatch)
        assert transcript.parse_lines(lines) == canonical
        assert len(calls) == 2


LABEL = st.sampled_from(ALL_LABELS)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.tuples(LABEL, LABEL, LABEL), LABEL, st.booleans(), st.integers(0, 2**64),
       st.integers(4, 60), st.sampled_from([0.0, 0.25, 1.0]))
def test_canonical_and_respaced_files_parse_alike(initial, ancilla, eve, seed, rounds, fraction):
    # a file as emit_lines writes it (its round lines read from the template
    # positions) and the same file re-spaced by json.dumps (every line through
    # json.loads) parse to equal objects: the file the session writes
    config = SessionConfig(rounds=rounds, seed=seed, eve_enabled=eve, test_fraction=fraction,
                           initial_labels=initial, eve_ancilla=ancilla)
    file = transcript.TranscriptFile.of(run_session(config))
    lines = transcript.emit_lines(file)
    spaced = [json.dumps(json.loads(line)) for line in lines]
    assert not set(spaced) & set(lines)
    assert transcript.parse_lines(lines) == transcript.parse_lines(spaced) == file
    assert transcript.emit_lines(transcript.parse_lines(spaced)) == lines


def edit_round(change, at=2, **cfg):
    """Lines of a valid transcript, made by `make_lines(**cfg)`, whose
    round line `at` is changed by `change`."""
    lines = make_lines(**cfg)
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

    def test_integer_past_the_digit_limit(self):
        # json.loads raises a plain ValueError for an integer of over 4,300 digits
        lines = make_lines()
        lines[3] = '{"kind":"round","index":' + "1" * 5000 + "}"
        assert parse_error(lines).line == 4

    def test_nesting_past_the_recursion_limit(self):
        # json.loads raises RecursionError for brackets nested this deep
        lines = make_lines()
        lines[3] = "[" * 100_000 + "]" * 100_000
        assert parse_error(lines).line == 4

    def test_bytes_line_not_text(self):
        lines = [line.encode() for line in make_lines()]
        lines[3] = lines[3].replace(b'"round"', b'"r\xe9und"')
        err = parse_error(lines)
        assert (err.line, err.field) == (4, None)
        assert "not utf-8 text" in str(err)

    @pytest.mark.parametrize("number", [1, 3, 8], ids=["header", "round", "summary"])
    @pytest.mark.parametrize(
        "encoding, message",
        [("utf-16", "not utf-8 text"), ("utf-16-le", "not JSON"), ("utf-32", "not utf-8 text"),
         ("utf-8-sig", "not JSON")],
        ids=["utf-16", "utf-16-le", "utf-32", "utf-8-sig"],
    )
    def test_bytes_line_in_another_encoding(self, encoding, message, number):
        # a bytes line is read as UTF-8 only; without a byte order mark an
        # ASCII line in UTF-16-LE is UTF-8 text, of NULs that are not JSON
        lines = [line.encode() for line in make_lines()]
        assert len(lines) == 8
        lines[number - 1] = lines[number - 1].decode().encode(encoding)
        err = parse_error(lines)
        assert (err.line, err.field) == (number, None)
        assert message in str(err)

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

    def test_config_rounds_beyond_64_bit_indices(self):
        lines = make_lines()
        header = json.loads(lines[0])
        header["config"]["rounds"] = 2**64 + 1
        lines[0] = json.dumps(header)
        err = parse_error(lines)
        assert (err.line, err.field) == (1, "config")
        assert "at most 2**64" in str(err)

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

    @pytest.mark.parametrize(
        "eve, edited, field",
        [
            (False, "alice_secret", "announcement"),
            (False, "bob_secret", "announcement"),
            (False, "announcement", "announcement"),
            (True, "alice_secret", "eve.inferred_alice"),
            (True, "bob_secret", "eve.inferred_bob"),
            (True, "announcement", "eve.inferred_alice"),
        ],
    )
    def test_outcomes_checked_before_their_copies(self, eve, edited, field):
        # an edited secret or announcement leaves outcomes no session
        # produces, which is reported before any copy derived from them
        def change(row):
            row[edited] = str(BellLabel.from_string(row[edited]) ^ BellLabel.from_string("01"))

        err = parse_error(edit_round(change, eve=eve))
        assert (err.line, err.field) == (3, field)

    @pytest.mark.parametrize("field", ["key_bits", "corrections"])
    def test_edit_of_a_repeated_branch(self, field):
        # rounds with the same outcomes and i mod 4 share one derivation;
        # each line is still compared with it on its own
        at = first_repeat(make_lines(rounds=200))

        def change(row):
            if field == "key_bits":
                row["key_bits"] = "00" if row["key_bits"] != "00" else "01"
            else:
                row["corrections"][1][2] = "X" if row["corrections"][1][2] != "X" else "Z"

        err = parse_error(edit_round(change, at=at, rounds=200))
        assert (err.line, err.field) == (at + 1, field)

    @pytest.mark.parametrize("as_bytes", [False, True], ids=["str", "bytes"])
    @pytest.mark.parametrize("end", ["\x0b", "\x0c", "\x1c", "\xa0"],
                             ids=["x0b", "x0c", "x1c", "xa0"])
    def test_repeated_branch_with_a_non_json_space(self, end, as_bytes):
        # str.rstrip() strips these characters and JSON does not allow
        # them: a line equal to a derived one but for such an end is not JSON
        lines = make_lines(rounds=200)
        at = first_repeat(lines)
        lines[at] += end
        if as_bytes:
            lines = [line.encode() for line in lines]
        err = parse_error(lines)
        assert (err.line, err.field) == (at + 1, None)
        assert "not JSON" in str(err)

    def test_repeated_branch_after_the_summary(self):
        # a line after the summary is rejected even when it is the next
        # round's line of a branch the file already derived
        longer = make_lines(rounds=200)
        at = first_repeat(longer)
        lines = make_lines(rounds=at - 1)
        assert lines[1:-1] == longer[1:at]
        lines.append(longer[at])
        err = parse_error(lines)
        assert (err.line, err.field) == (len(lines), None)
        assert "after the summary" in str(err)

    @pytest.mark.parametrize("at, moved", [(1, 13), (5, 53)])
    def test_round_line_at_another_position(self, at, moved):
        # round `moved`'s line starts as round `at`'s does and has its
        # index mod 4, so only the index differs
        lines = make_lines(rounds=60)
        lines[at + 1] = lines[moved + 1]
        err = parse_error(lines)
        assert (err.line, err.field) == (at + 2, "index")
        assert str(err).endswith(f"derived from the round's position; got {moved}")

    def test_repeated_branch_at_another_index(self):
        # a line whose branch and index mod 4 the file already derived is
        # taken from that derivation only at its own index
        lines = make_lines(rounds=200)
        at = first_repeat(lines)
        key = branch_key(json.loads(lines[at]))
        earlier = next(i for i in range(1, at) if branch_key(json.loads(lines[i])) == key)
        lines[at] = lines[earlier]
        err = parse_error(lines)
        assert (err.line, err.field) == (at + 1, "index")

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
