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
through `json.dumps` itself. A round's line after its index depends only
on its outcomes and on the index mod 4 (at most 64 lines without Eve,
1,024 with her), so `emit_lines` formats each distinct one once per call.
`parse_lines` reads a round's outcomes, checks that a session produces
them, and derives the rest of its line with the functions a session uses;
every derived copy in the file, round or summary, must equal what
`emit_lines` writes. A round line that is byte for byte the line derived
from the outcomes at its template positions is taken without json.loads,
so a file `emit_lines` wrote runs json.loads on its header and summary
only; any other round line is loaded and checked field by field against
its derived line's row, loaded once per branch. Bytes lines are read as
UTF-8 only. Malformed input, or a copy that disagrees, raises
`TranscriptError`.
"""

from __future__ import annotations

import json
import re
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
    infer_other_secret,
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
_LABEL_TEXT = {lab: f'"{lab.text}"' for lab in ALL_LABELS}
_PARTY_TEXT = {party: f'"{party.value}"' for party in Party}
_PAULI_TEXT = {op: f'"{op.name}"' for op in PauliOp}
# round i's "transfers" and "transmissions" as text
_TRANSFERS_TEXT = tuple(f'"transfers":{_dump([list(transit) for transit in t])},'
                        f'"transmissions":{len(t)}' for t in TRANSFERS)
# every round line starts with this, then its index
_HEAD = '{"kind":"round","index":'
# the whitespace JSON allows; str.rstrip() would also strip characters
# such as "\x0b" and "\xa0", on which json.loads fails
_JSON_SPACE = " \t\r\n"

_LABEL_OF = {lab.text: lab for lab in ALL_LABELS}
# the outcomes of a round line's tail (the text after its index), at their
# places in the template, Eve's three unmatched when her section is null
_TEMPLATE_OUTCOMES = re.compile(
    r',"alice_secret":"([01]{2})","bob_secret":"([01]{2})","announcement":"([01]{2})",'
    r'[^{]*"eve":(?:null|\{"outbound_outcome":"([01]{2})","return_readout":"([01]{2})",'
    r'"detach_outcome":"([01]{2})")')


def _round_tail(rec: RoundRecord) -> str:
    """The round's JSON line after its index: `_HEAD`, the index and this
    are byte for byte what json.dumps writes for it with separators
    (",", ":")."""
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
        f',"alice_secret":{_LABEL_TEXT[rec.alice_secret]},'
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
        "initial_labels": [lab.text for lab in cfg.initial_labels],
        "eve_ancilla": cfg.eve_ancilla.text,
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
    keep = lines.append
    # (i mod 4, the record's labels, Eve's or None) -> (corrections, line
    # after the index); a tail is reused only for the same corrections object
    tails: dict = {}
    phases = len(TRANSFERS)
    for rec in file.transcript.rounds:
        eve = rec.eve
        key = (rec.index % phases, rec.alice_secret, rec.bob_secret, rec.announcement,
               rec.alice_inferred_bob, rec.bob_inferred_alice)
        if eve is not None:
            key += (eve.outbound_outcome, eve.return_readout, eve.detach_outcome,
                    eve.inferred_alice, eve.inferred_bob)
        known = tails.get(key)
        if known is None or known[0] is not rec.corrections:
            known = tails[key] = rec.corrections, _round_tail(rec)
        keep(f"{_HEAD}{rec.index}{known[1]}")
    keep(_dump(_summary_dict(file)))
    return lines


# -- parsing ------------------------------------------------------------------

def _is_int(v) -> bool:
    return type(v) is int  # not bool, which json.loads also gives


def _is_number(v) -> bool:
    return type(v) is int or type(v) is float


def _is_label(v) -> bool:
    return type(v) is str and v in _LABEL_OF


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
_OUTCOMES = (("alice_secret", _LABEL), ("bob_secret", _LABEL), ("announcement", _LABEL))
_EVE_OUTCOMES = tuple(
    (name, _LABEL) for name in ("outbound_outcome", "return_readout", "detach_outcome")
)
# What each derived field of a line is derived from; other fields are the summary's.
_DERIVED_FROM = {
    "index": "the round's position",
    "alice_inferred_bob": "the initial labels, the announcement and the alice_secret",
    "bob_inferred_alice": "the initial labels, the announcement and the bob_secret",
    "transfers": "the role schedule",
    "transmissions": "the transfers",
    "key_bits": "the alice_secret",
    "eve.inferred_bob": "the initial labels and Eve's outbound_outcome and return_readout",
    "eve.inferred_alice": "the initial labels, Eve's ancilla, her outcomes and the announcement",
    "corrections": "the outcomes, as the rotations back to the agreed labels",
}


def _config_from(row: dict, line: int) -> SessionConfig:
    _field(row, "format", _FORMAT, line)
    fields = _fields(_field(row, "config", _OBJECT, line), _CONFIG, line, "config.")
    fields["initial_labels"] = tuple(_LABEL_OF[s] for s in fields["initial_labels"])
    fields["eve_ancilla"] = _LABEL_OF[fields["eve_ancilla"]]
    try:
        return SessionConfig(**fields)
    except ValueError as err:
        raise TranscriptError(str(err), line, "config") from None


def _round_from(row: dict, line: int, index: int, config: SessionConfig,
                rows: dict) -> RoundRecord:
    """Round `index` of the file, from its line's json.loads `row`: only
    the outcomes are read (each a label, the eve section an object or
    null), `_derive` checks that a session produces them, and
    `_check_derived` compares `row` with the json.loads row of the line
    derived for them, naming the first field that differs and accepting
    other JSON spacing or key order. That row is loaded once per key of
    `rows`, (index mod 4, line after the index)."""
    alice, bob, announcement = [_LABEL_OF[s] for s in _fields(row, _OUTCOMES, line).values()]
    eve = _field(row, "eve", _OBJECT_OR_NULL, line)
    if eve is not None:
        eve = [_LABEL_OF[s] for s in _fields(eve, _EVE_OUTCOMES, line, "eve.").values()]
    phase = index % len(TRANSFERS)
    tail, branch = _derive(phase, config, line, alice, bob, announcement, eve)
    derived = rows.get((phase, tail))
    if derived is None:
        derived = rows[phase, tail] = json.loads(f"{_HEAD}{phase}{tail}")
    _check_derived(row, {**derived, "index": index}, line)
    return _record(index, *branch)


def _template_branch(rest: str, line: int, phase: int, config: SessionConfig,
                     tails: dict) -> tuple | None:
    """The `tails` entry, recorded there, of a round line at `phase` whose
    text after the index, trailing JSON whitespace stripped, is `rest`,
    read without json.loads; None unless `rest` is exactly the tail
    `_derive` gives for the outcomes read from it at the template's field
    positions.

    Any other line, one whose outcomes no session produces included, is
    left to json.loads and `_round_from`, which raise on it as they would
    on any line.
    """
    match = _TEMPLATE_OUTCOMES.match(rest)
    if match is None:
        return None
    alice, bob, announcement, *eve = map(_LABEL_OF.get, match.groups())
    try:
        tail, branch = _derive(phase, config, line, alice, bob, announcement,
                               None if eve[0] is None else eve)
    except TranscriptError:
        return None
    if tail != rest:
        return None
    tails[phase, tail] = branch
    return branch


def _record(index: int, labels: tuple, eve: tuple | None, corrections) -> RoundRecord:
    return RoundRecord(index, *labels, None if eve is None else EveRoundRecord(*eve),
                       corrections)


def _derive(phase: int, config: SessionConfig, line: int, alice: BellLabel, bob: BellLabel,
            announcement: BellLabel, eve: list | None) -> tuple:
    """(line after the index, (record labels, Eve's labels or None,
    corrections)) of a round at `phase` of the role schedule with these
    outcomes, Eve's three (outbound, readout, detach) or None.

    The outcomes must be ones a session produces: an eve section exactly
    when the header enables her, and recovered by the inferences (without
    Eve, Bob's of alice_secret; with her, hers of both secrets); else
    TranscriptError names `line`. The rest is derived by the functions
    `Session` uses.
    """
    if (eve is None) is config.eve_enabled:
        want = "an object" if config.eve_enabled else "null"
        raise TranscriptError(f"expected {want}, as eve_enabled is {config.eve_enabled}",
                              line, "eve")
    link, anchor, agreed_bob = config.initial_labels
    labels = (alice, bob, announcement,
              infer_other_secret(link, anchor, agreed_bob, alice, announcement),
              infer_other_secret(link, anchor, agreed_bob, bob, announcement))
    detach = None
    if eve is None:
        if labels[4] is not alice:  # labels are canonical: `is` compares them
            raise TranscriptError("expected the XOR of the initial labels and both secrets, "
                                  "as Bob infers Alice's secret without Eve", line, "announcement")
    else:
        outbound, readout, detach = eve
        inferred_bob = infer_bob_secret(agreed_bob, outbound, readout)
        inferred_alice = infer_alice_secret(link, anchor, config.eve_ancilla, *eve, announcement)
        for party, secret, got in (("bob", bob, inferred_bob), ("alice", alice, inferred_alice)):
            if got is not secret:
                raise TranscriptError(f"expected Eve's inference from her outcomes to recover "
                                      f"the {party}_secret, as in every session; it gives {got}",
                                      line, f"eve.inferred_{party}")
        eve = (*eve, inferred_alice, inferred_bob)
    corrections = closing_corrections(config, phase, alice, announcement, bob, detach)
    return _round_tail(_record(phase, labels, eve, corrections)), (labels, eve, corrections)


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
        source = _DERIVED_FROM.get(field, "the header and rounds")
        raise TranscriptError(
            f"expected {reprlib.repr(derived)}, derived from {source}; "
            f"got {reprlib.repr(found)}", line, field)


def parse_lines(lines) -> TranscriptFile:
    """Parse transcript lines back into the objects `emit_lines` wrote.

    `lines` is any iterable of lines, str or bytes, an open file included;
    a bytes line must be UTF-8. Each round line becomes its record as it
    is read, so no row outlives its line. Blank lines are skipped. Each
    round and the summary line are checked against what `emit_lines`
    derives from the header and the rounds' outcomes (see `_round_from`),
    and the file `TranscriptFile.of` derives is what is returned.
    Malformed or inconsistent input raises `TranscriptError`.

    Round line i skips json.loads when it is `{"kind":"round","index":i`
    followed, up to trailing JSON whitespace, by a tail derived for i mod
    4: one an earlier line was taken as, or the one `_template_branch`
    derives from the outcomes at their template positions. The line is
    then byte for byte one that was derived and checked, and it takes
    that round's record. In a file `emit_lines` wrote, json.loads runs
    once for the header and once for the summary. Every other line, such
    as one with other spacing or key order, or one that is wrong, goes
    through json.loads and `_round_from`, which gives every error.

    Two dicts, each keyed by (i mod 4, line after the index), serve the
    two paths: `tails` holds the branch of each tail a line was taken as
    without json.loads, and `rows` the json.loads row of each derived line
    a loaded line was checked against.
    """
    config = summary = None
    rounds: list[RoundRecord] = []
    tails: dict = {}  # (i mod 4, tail) -> (record labels, Eve's or None, corrections)
    rows: dict = {}  # (i mod 4, tail) -> json.loads row of the derived line
    for number, line in enumerate(lines, 1):
        if isinstance(line, (bytes, bytearray)):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as err:
                raise TranscriptError(f"not utf-8 text: {err.reason}", number) from None
        if not line or line.isspace():
            continue
        if config is not None and summary is None:
            index = len(rounds)
            head = f"{_HEAD}{index}"
            if line.startswith(head):
                rest = line[len(head):].rstrip(_JSON_SPACE)
                phase = index % len(TRANSFERS)
                known = (tails.get((phase, rest))
                         or _template_branch(rest, number, phase, config, tails))
                if known is not None:
                    labels, eve, corrections = known
                    rounds.append(RoundRecord(index, *labels,
                                              None if eve is None else EveRoundRecord(*eve),
                                              corrections))
                    continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as err:
            raise TranscriptError(f"not JSON: {err.msg} at column {err.colno}", number) from None
        except (ValueError, RecursionError) as err:  # an int past Python's digit limit, deep nesting
            raise TranscriptError(f"not readable JSON: {err}", number) from None
        if type(row) is not dict:
            raise TranscriptError("expected a JSON object", number)
        kind = row.get("kind")
        if kind == "round" and config is not None and summary is None:
            rounds.append(_round_from(row, number, len(rounds), config, rows))
        elif config is None:
            if kind != "header":
                raise TranscriptError("transcript must start with a header line", number, "kind")
            config, header_line = _config_from(row, number), number
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
        eve_a = rec.eve.inferred_alice.text if rec.eve else ""
        eve_b = rec.eve.inferred_bob.text if rec.eve else ""
        lines.append(
            f"{rec.index},{rec.alice_secret.text},{rec.bob_secret.text},{rec.announcement.text},"
            f"{rec.alice_inferred_bob.text},{rec.bob_inferred_alice.text},{rec.key_bits},"
            f"{rec.transmissions},{eve_a},{eve_b}"
        )
    return lines
