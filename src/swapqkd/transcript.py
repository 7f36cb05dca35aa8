"""Line-delimited JSON transcripts and their CSV projection.

A transcript file is one JSON object per line: a header echoing the
configuration, one record per round (with the eavesdropper's section when
she was enabled), and a trailing summary holding the keys, the rate report
and the eavesdropping-test report. The summary is derived:
`TranscriptFile.of` builds it from the header's configuration and the
rounds, the test report by drawing the tested rounds from the public coin.
Emission is deterministic: rerunning the same configuration and seed
reproduces the file byte for byte, and `parse_lines(emit_lines(...))`
returns equal objects.

Bell labels serialize as the two-character strings "00".."11". Round
lines are written from a fixed template that yields exactly what
`json.dumps` with separators (",", ":") yields; header and summary go
through `json.dumps` itself. Malformed input to `parse_lines`, or a copy of
a derived value that disagrees with the header and rounds, raises
`TranscriptError`.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass

from . import __version__
from .adversary import EveRoundRecord, infer_alice_secret, infer_bob_secret
from .analysis import RateReport, TestReport, eavesdropping_test, rate_report
from .bell import ALL_LABELS, BellLabel, PauliOp
from .knowledge import Party
from .protocol import (
    TRANSFERS,
    RoundRecord,
    SessionConfig,
    SessionTranscript,
    closing_corrections,
)
from .rng import COIN, stream

FORMAT = "swapqkd-transcript"


@dataclass
class TranscriptFile:
    """Everything a transcript file carries, in parsed form."""

    transcript: SessionTranscript
    rate: RateReport
    test: TestReport | None

    @classmethod
    def of(cls, transcript: SessionTranscript) -> "TranscriptFile":
        """The file a session writes: its rate report, and the eavesdropping
        test on the public coin when its config sets a test fraction."""
        cfg = transcript.config
        test = None
        if cfg.test_fraction > 0:
            test = eavesdropping_test(transcript, cfg.test_fraction, stream(cfg.seed, COIN))
        return cls(transcript, rate_report(transcript), test)


class TranscriptError(ValueError):
    """Malformed transcript input, located by line number and field."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        where = ", ".join(
            part for part in (line and f"line {line}", field and f"field {field!r}") if part
        )
        super().__init__(f"{where}: {message}" if where else message)


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"))


# Text tables for the round template: each entry is the JSON text
# json.dumps gives for that value.
_LABEL_TEXT = {lab: f'"{lab}"' for lab in ALL_LABELS}
_PARTY_TEXT = {party: f'"{party.value}"' for party in Party}
_PAULI_TEXT = {op: f'"{op.name}"' for op in PauliOp}
# round i's "transfers" as json.loads gives them, and as text with "transmissions"
_TRANSFERS_JSON = tuple([list(transit) for transit in t] for t in TRANSFERS)
_TRANSFERS_TEXT = tuple(f'"transfers":{_dump(t)},"transmissions":{len(t)}' for t in _TRANSFERS_JSON)

_LABEL_OF = {str(lab): lab for lab in ALL_LABELS}
_PARTY_OF = {party.value: party for party in Party}
_PAULI_OF = {op.name: op for op in PauliOp}


def _round_line(rec: RoundRecord) -> str:
    """The round's JSON line, byte for byte what json.dumps writes for it
    with separators (",", ":")."""
    eve = rec.eve
    if eve is None:
        eve_text = "null"
    else:
        eve_text = (
            f'{{"outbound_outcome":{_LABEL_TEXT[eve.outbound_outcome]},'
            f'"return_readout":{_LABEL_TEXT[eve.return_readout]},'
            f'"detach_outcome":{_LABEL_TEXT[eve.detach_outcome]},'
            f'"inferred_alice":{_LABEL_TEXT[eve.inferred_alice]},'
            f'"inferred_bob":{_LABEL_TEXT[eve.inferred_bob]}}}'
        )
    corrections = ",".join(
        [f"[{_PARTY_TEXT[c.party]},{c.qubit},{_PAULI_TEXT[c.op]}]" for c in rec.corrections]
    )
    return (
        f'{{"kind":"round","index":{rec.index},'
        f'"alice_secret":{_LABEL_TEXT[rec.alice_secret]},'
        f'"bob_secret":{_LABEL_TEXT[rec.bob_secret]},'
        f'"announcement":{_LABEL_TEXT[rec.announcement]},'
        f'"alice_inferred_bob":{_LABEL_TEXT[rec.alice_inferred_bob]},'
        f'"bob_inferred_alice":{_LABEL_TEXT[rec.bob_inferred_alice]},'
        f'{_TRANSFERS_TEXT[rec.index % len(_TRANSFERS_TEXT)]},'
        f'"key_bits":{_LABEL_TEXT[rec.alice_secret]},"eve":{eve_text},'
        f'"corrections":[{corrections}]}}'
    )


def _config_dict(cfg: SessionConfig) -> dict:
    return {
        "rounds": cfg.rounds,
        "seed": cfg.seed,
        "eve_enabled": cfg.eve_enabled,
        "test_fraction": cfg.test_fraction,
        "initial_labels": [str(lab) for lab in cfg.initial_labels],
        "eve_ancilla": str(cfg.eve_ancilla),
    }


def _summary_dict(file: TranscriptFile) -> dict:
    transcript, rate, test = file.transcript, file.rate, file.test
    test_d = None
    if test is not None:
        test_d = {
            "pairs_tested": test.pairs_tested,
            "bits_tested": test.bits_tested,
            "mismatches": test.mismatches,
            "eve_detected": test.eve_detected,
            "remaining_key": test.remaining_key,
            "remaining_key_bob": test.remaining_key_bob,
            "tested_rounds": list(test.tested_rounds),
            "degenerate": test.degenerate,
        }
    return {
        "kind": "summary",
        "alice_key": transcript.alice_key,
        "bob_key": transcript.bob_key,
        "eve_key": transcript.eve_key,
        "rate": {
            "key_bits": rate.key_bits,
            "transmitted_qubits": rate.transmitted_qubits,
            "rate": rate.rate,
            "bb84_rate": rate.bb84_rate,
            "e91_rate": rate.e91_rate,
        },
        "test": test_d,
    }


def emit_lines(file: TranscriptFile) -> list[str]:
    header = {
        "kind": "header",
        "format": FORMAT,
        "version": __version__,
        "config": _config_dict(file.transcript.config),
    }
    lines = [_dump(header)]
    lines.extend([_round_line(rec) for rec in file.transcript.rounds])
    lines.append(_dump(_summary_dict(file)))
    return lines


# -- parsing ------------------------------------------------------------------

def _is_int(v) -> bool:
    return type(v) is int  # not bool, which json.loads also gives


def _is_number(v) -> bool:
    return type(v) is int or type(v) is float


def _is_label(v) -> bool:
    return type(v) is str and v in _LABEL_OF


def _is_correction(c) -> bool:
    return (
        type(c) is list and len(c) == 3
        and type(c[0]) is str and c[0] in _PARTY_OF
        and _is_int(c[1])
        and type(c[2]) is str and c[2] in _PAULI_OF
    )


# Field checks: a predicate on the json.loads value, and what it expects.
_INT = (_is_int, "an integer")
_NUMBER = (_is_number, "a number")
_LABEL = (_is_label, "a label")
_BOOL = (lambda v: type(v) is bool, "a boolean")
_OBJECT = (lambda v: type(v) is dict, "an object")
_FORMAT = (lambda v: v == FORMAT, repr(FORMAT))
_OBJECT_OR_NULL = (lambda v: v is None or type(v) is dict, "an object or null")
_THREE_LABELS = (
    lambda v: type(v) is list and len(v) == 3 and all(map(_is_label, v)), "three labels"
)
_CORRECTIONS = (
    lambda v: type(v) is list and all(map(_is_correction, v)),
    "a list of [party, qubit, pauli] triples",
)


def _field(row: dict, name: str, check, line: int, prefix: str = ""):
    """row[name] after `check`; a TranscriptError names `prefix + name`."""
    if name not in row:
        raise TranscriptError("missing field", line, prefix + name)
    value = row[name]
    ok, want = check
    if not ok(value):
        raise TranscriptError(f"expected {want}, got {value!r}", line, prefix + name)
    return value


def _fields(row: dict, spec, line: int, prefix: str = "") -> dict:
    """{name: row[name]} for each (name, check) of `spec`, all checked."""
    return {name: _field(row, name, check, line, prefix) for name, check in spec}


_CONFIG = (
    ("rounds", _INT),
    ("seed", _INT),
    ("eve_enabled", _BOOL),
    ("test_fraction", _NUMBER),
    ("initial_labels", _THREE_LABELS),
    ("eve_ancilla", _LABEL),
)
_ROUND = (
    ("index", _INT),
    ("alice_secret", _LABEL),
    ("bob_secret", _LABEL),
    ("announcement", _LABEL),
    ("alice_inferred_bob", _LABEL),
    ("bob_inferred_alice", _LABEL),
    ("eve", _OBJECT_OR_NULL),
    ("corrections", _CORRECTIONS),
)
_EVE = tuple(
    (name, _LABEL)
    for name in ("outbound_outcome", "return_readout", "detach_outcome",
                 "inferred_alice", "inferred_bob")
)


def _config_from(row: dict, line: int) -> SessionConfig:
    _field(row, "format", _FORMAT, line)
    fields = _fields(_field(row, "config", _OBJECT, line), _CONFIG, line, "config.")
    fields["initial_labels"] = tuple(_LABEL_OF[s] for s in fields["initial_labels"])
    fields["eve_ancilla"] = _LABEL_OF[fields["eve_ancilla"]]
    try:
        return SessionConfig(**fields)
    except ValueError as err:
        raise TranscriptError(str(err), line, "config") from None


_INFERRED = "expected the XOR of the initial labels, the announcement and the %s"
_EVE_INFERRED = "expected Eve's inference from the initial labels, her ancilla and her %s"
_EVE_EXACT = "expected the %s, which Eve's inference recovers exactly"


def _round_from(row: dict, line: int, index: int, config: SessionConfig,
                agreed: BellLabel, closing: dict) -> RoundRecord:
    """Round `index` of the file as its record.

    Well-formed rows take plain lookups; a row that fails them, or holds a
    value of a type json.loads gives but the record does not take, is
    handed to `_round_error` to name the field. Its index, eve section and
    derived fields must agree with round `index` of the header's session:
    the inferences, Eve's among them, and the corrections follow from the
    secrets, the announcement and her outcomes, and the inferences
    recover the secrets: Bob's of Alice's without Eve, both of Eve's with
    her. `agreed` is the three labels' XOR, as in
    `protocol.infer_other_secret`; `closing` caches
    `protocol.closing_corrections` and their JSON form for the file, so
    its rounds share the correction tuples.
    """
    try:
        eve = row["eve"]
        if eve is not None:
            eve = EveRoundRecord(
                _LABEL_OF[eve["outbound_outcome"]],
                _LABEL_OF[eve["return_readout"]],
                _LABEL_OF[eve["detach_outcome"]],
                _LABEL_OF[eve["inferred_alice"]],
                _LABEL_OF[eve["inferred_bob"]],
            )
        record = RoundRecord(
            row["index"],
            _LABEL_OF[row["alice_secret"]],
            _LABEL_OF[row["bob_secret"]],
            _LABEL_OF[row["announcement"]],
            _LABEL_OF[row["alice_inferred_bob"]],
            _LABEL_OF[row["bob_inferred_alice"]],
            eve,
        )
    except (KeyError, TypeError, ValueError):
        raise _round_error(row, line) from None
    if type(record.index) is not int:
        raise _round_error(row, line)
    if record.index != index:
        raise TranscriptError(f"expected {index}, the round's position", line, "index")
    if (eve is None) is config.eve_enabled:
        want = "an object" if config.eve_enabled else "null"
        raise TranscriptError(f"expected {want}, as eve_enabled is {config.eve_enabled}",
                              line, "eve")
    public = agreed ^ record.announcement  # labels are canonical: `is` compares them
    if record.alice_inferred_bob is not public ^ record.alice_secret:
        raise TranscriptError(_INFERRED % "alice_secret", line, "alice_inferred_bob")
    if record.bob_inferred_alice is not public ^ record.bob_secret:
        raise TranscriptError(_INFERRED % "bob_secret", line, "bob_inferred_alice")
    if row.get("key_bits") != row["alice_secret"]:
        raise TranscriptError(f"expected {record.key_bits!r}, the alice_secret", line, "key_bits")
    want, transfers = _TRANSFERS_JSON[index % len(_TRANSFERS_JSON)], row.get("transfers")
    if transfers != want or type(transfers[0][0]) is not int or type(transfers[1][0]) is not int:
        raise TranscriptError(f"expected {want!r}, from the role schedule", line, "transfers")
    transmissions = row.get("transmissions")
    if transmissions != len(want) or type(transmissions) is not int:
        raise TranscriptError(f"expected {len(want)}, one per transfer", line, "transmissions")
    detach = None
    if eve is None:
        if record.bob_inferred_alice is not record.alice_secret:
            raise TranscriptError("expected the XOR of the initial labels and both secrets, "
                                  "as Bob infers Alice's secret without Eve", line, "announcement")
    else:
        link, anchor, bob = config.initial_labels
        outbound, readout, detach = eve.outbound_outcome, eve.return_readout, eve.detach_outcome
        if eve.inferred_bob is not infer_bob_secret(bob, outbound, readout):
            raise TranscriptError(_EVE_INFERRED % "outbound_outcome and return_readout",
                                  line, "eve.inferred_bob")
        inferred_alice = infer_alice_secret(link, anchor, config.eve_ancilla, outbound, readout,
                                            detach, record.announcement)
        if eve.inferred_alice is not inferred_alice:
            raise TranscriptError(_EVE_INFERRED % "three outcomes and the announcement",
                                  line, "eve.inferred_alice")
        if eve.inferred_bob is not record.bob_secret:
            raise TranscriptError(_EVE_EXACT % "bob_secret", line, "eve.inferred_bob")
        if eve.inferred_alice is not record.alice_secret:
            raise TranscriptError(_EVE_EXACT % "alice_secret", line, "eve.inferred_alice")
    # keyed by the row's label strings, which hash faster than labels
    key = (index % len(_TRANSFERS_JSON), row["alice_secret"], row["announcement"],
           row["bob_secret"], detach)
    if key not in closing:
        corrections = closing_corrections(config, index, record.alice_secret,
                                          record.announcement, record.bob_secret, detach)
        closing[key] = corrections, [[c.party.value, c.qubit, c.op.name] for c in corrections]
    record.corrections, want = closing[key]
    found = row.get("corrections")
    if found != want or not all([type(c[1]) is int for c in found]):
        _field(row, "corrections", _CORRECTIONS, line)
        raise TranscriptError("expected the rotations back to the agreed labels from the "
                              "secrets, the announcement and Eve's detach_outcome",
                              line, "corrections")
    return record


def _round_error(row: dict, line: int) -> TranscriptError:
    """The first malformed field of a round row, as a TranscriptError."""
    try:
        _fields(row, _ROUND, line)
        if row["eve"] is not None:
            _fields(row["eve"], _EVE, line, "eve.")
    except TranscriptError as err:
        return err
    return TranscriptError("malformed round", line)


def _check_derived(found, derived, line: int, field: str = "") -> None:
    """Raise on the first place where `found`, as json.loads gave it,
    differs from `derived` in type or value; keys `derived` lacks are ignored."""
    if type(derived) is dict and type(found) is dict:
        for name, value in derived.items():
            sub = f"{field}.{name}" if field else name
            if name not in found:
                raise TranscriptError("missing field", line, sub)
            _check_derived(found[name], value, line, sub)
    elif type(derived) is list and type(found) is list and len(found) == len(derived):
        for found_item, derived_item in zip(found, derived):
            _check_derived(found_item, derived_item, line, field)
    elif type(found) is not type(derived) or found != derived:
        raise TranscriptError(
            f"expected {reprlib.repr(derived)}, derived from the header and rounds; "
            f"got {reprlib.repr(found)}", line, field)


def parse_lines(lines) -> TranscriptFile:
    """Parse transcript lines back into the objects `emit_lines` wrote.

    `lines` is any iterable of lines, an open file included; each round
    line becomes its record as it is read, so no row outlives its line.
    Blank lines are skipped. The summary line is checked against the file
    `TranscriptFile.of` derives from the header and rounds, which is what
    is returned. Malformed or inconsistent input raises `TranscriptError`.
    """
    config = summary = None
    rounds: list[RoundRecord] = []
    closing: dict = {}
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as err:
            raise TranscriptError(f"not JSON: {err.msg} at column {err.colno}", number) from None
        if type(row) is not dict:
            raise TranscriptError("expected a JSON object", number)
        kind = row.get("kind")
        if kind == "round" and config is not None and summary is None:
            rounds.append(_round_from(row, number, len(rounds), config, agreed, closing))
        elif config is None:
            if kind != "header":
                raise TranscriptError("transcript must start with a header line", number, "kind")
            config, header_line = _config_from(row, number), number
            link, anchor, bob = config.initial_labels
            agreed = link ^ anchor ^ bob
        elif summary is not None:
            raise TranscriptError("line after the summary", number)
        elif kind == "summary":
            summary, summary_line = row, number
        else:
            raise TranscriptError(
                f"expected a round or the summary line, got kind {kind!r}", number, "kind"
            )
    if config is None:
        raise TranscriptError("transcript must start with a header line")
    if summary is None:
        raise TranscriptError("transcript must end with a summary line")
    if len(rounds) != config.rounds:
        raise TranscriptError(f"the file holds {len(rounds)} rounds, the header {config.rounds}",
                              header_line, "config.rounds")
    file = TranscriptFile.of(SessionTranscript(config, rounds))
    _check_derived(summary, _summary_dict(file), summary_line)
    return file


CSV_COLUMNS = (
    "index",
    "alice_secret",
    "bob_secret",
    "announcement",
    "alice_inferred_bob",
    "bob_inferred_alice",
    "key_bits",
    "transmissions",
    "eve_inferred_alice",
    "eve_inferred_bob",
)


def csv_lines(file: TranscriptFile) -> list[str]:
    """Flat per-round projection; drops corrections, transfers, summary."""
    lines = [",".join(CSV_COLUMNS)]
    for rec in file.transcript.rounds:
        eve_a = str(rec.eve.inferred_alice) if rec.eve else ""
        eve_b = str(rec.eve.inferred_bob) if rec.eve else ""
        lines.append(
            f"{rec.index},{rec.alice_secret},{rec.bob_secret},{rec.announcement},"
            f"{rec.alice_inferred_bob},{rec.bob_inferred_alice},{rec.key_bits},"
            f"{rec.transmissions},{eve_a},{eve_b}"
        )
    return lines
