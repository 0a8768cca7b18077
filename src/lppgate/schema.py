"""Integer-token response schema: parsing and validation.

The classification decision is constrained to a single integer token
(0=no, 1=yes, 2=inconclusive_evidence, 3=inconclusive_definition) inside a
small JSON object, so that the emitted token lines up with the provider's
token-level log-probabilities. This module parses and normalizes those
structured responses, holds each span of a trace's token log-probabilities
(the single outcome token, and the reasoning tokens) as one TokenSpan of
arrays, which token_span builds from synth and provider tokens. A response
that fails to parse raises ParseFailure; the gateway's retry loop decides
what to do with it.

token_span builds a span from its triples, unzipped into four parallel
lists: the chosen surfaces and logprobs, and each token's candidate
surfaces and logprobs. When every logprob is at most 0 and their sum is
finite, no value needs a check of its own; otherwise each value passes
through _checked_logprob in stream order, which clamps it or raises with
every InvalidLogprob message. Then a missing chosen token is appended,
only the candidate rows not already in descending order are sorted, and
the rows are padded.

A trace file holds one JSON line per trace, and each span of a line is one
record of those four lists (see _span_record): the surfaces as JSON lists,
the chosen logprobs as the base64 text of their little-endian float64
bytes, and the candidate rows, sorted and unpadded, as one such text in row
order, which the row widths of the surfaces split. read_traces_jsonl hands
trace_from_dict _TRACE_BLOCK_LINES lines at a time, which decodes the
records of the whole block together and refuses, never mends, one not in
the form token_span leaves a span in: every value finite and at most 0,
every chosen token among its candidates, every row descending. A line
without span records, whose logprobs are not base64 text (as in the older
decimal form), or whose structured fields or attempt are not of the types
write_traces_jsonl writes, is refused too, and read_traces_jsonl names the
line and file of an error.

A response has one reader, locate_structured_fields: the JSON object at
its first ``{``, decoded by json's own scanner, which yields each field's
value and its offsets in the response together, once per response for
parse_structured_response and gateway.segment_spans to share. A later
duplicate key wins, as in json.loads, for the parsed fields and the
located spans alike.

All functions here are pure and safe to call concurrently on distinct
traces.
"""

from __future__ import annotations

import enum
import json
import math
import re
from base64 import b64decode
from binascii import b2a_base64
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import contains, itemgetter
from typing import Iterable, Mapping

import numpy as np

from .manifest import open_atomic

__all__ = [
    "OutcomeLabel",
    "ConfidenceBand",
    "Span",
    "Reason",
    "ParseFailure",
    "InvalidLogprob",
    "ReasoningStep",
    "StructuredResponse",
    "TokenSpan",
    "ResponseTrace",
    "FieldSpans",
    "normalize_outcome_token",
    "snap_confidence",
    "parse_structured_response",
    "locate_structured_fields",
    "token_span",
    "trace_to_dict",
    "trace_from_dict",
    "write_traces_jsonl",
    "read_traces_jsonl",
    "check_item_ids",
]

#: Governs trace files and synth: token_span clamps a logprob a hair above
#: zero, inside this tolerance, to 0 and rejects one beyond it. Provider
#: logprobs never reach it positive, since the gateway clamps every finite
#: positive one to 0.
LOGPROB_TOLERANCE = 1e-9

#: Retry budget: one initial attempt plus at most three deterministic retries.
#: gateway._run_one's loop spends it; ResponseTrace checks a trace's attempt
#: against it.
MAX_ATTEMPTS = 4


class OutcomeLabel(enum.IntEnum):
    NO = 0
    YES = 1
    INCONCLUSIVE_EVIDENCE = 2
    INCONCLUSIVE_DEFINITION = 3


class ConfidenceBand(str, enum.Enum):
    VL = "VL"
    L = "L"
    M = "M"
    H = "H"
    VH = "VH"


class Span(str, enum.Enum):
    OUTCOME = "outcome"
    REASONING = "reasoning"


class Reason(str, enum.Enum):
    """Why an item leaves generate with no trace, or extract with no feature
    row, to be escalated by default; a give-up names its last failure."""

    TRANSPORT = "give_up:transport"
    REJECTED = "give_up:rejected"
    MISSING_FIELD = "give_up:missing_field"
    MALFORMED_JSON = "give_up:malformed_json"
    MISSING_OUTCOME = "give_up:missing_outcome"
    INVALID_BAND = "give_up:invalid_band"
    INVALID_STEPS = "give_up:invalid_steps"
    INVALID_LOGPROB = "give_up:invalid_logprob"
    OUTCOME_TOKEN_NOT_FOUND = "give_up:outcome_token_not_found"
    NO_LOGPROBS = "no_logprobs"
    NO_LABEL_MASS = "no_label_mass"
    NON_FINITE_FEATURE = "non_finite_feature"

    @property
    def failure(self) -> str | None:
        """A give-up's failure, as generate's manifest names it; else None."""
        return self.value.partition("give_up:")[2] or None


class ParseFailure(ValueError):
    """A structured response that does not validate; a retry candidate.
    Its kind is the reason its item gives up with if no attempt parses."""

    def __init__(self, kind: Reason, message: str = ""):
        super().__init__(message or kind.value)
        self.kind = kind


#: The enum members by value, looked up rather than passed through each
#: enum's call: OutcomeLabel's by int, ConfidenceBand's by text.
_OUTCOME_LABELS = tuple(OutcomeLabel)
_BANDS = {band.value: band for band in ConfidenceBand}

_WORD_OUTCOMES = {
    "yes": OutcomeLabel.YES,
    "no": OutcomeLabel.NO,
    "inconclusive_evidence": OutcomeLabel.INCONCLUSIVE_EVIDENCE,
    "inconclusive_definition": OutcomeLabel.INCONCLUSIVE_DEFINITION,
}
_WORD_PATTERN = re.compile(r"(yes|no|inconclusive_(definition|evidence))", re.IGNORECASE)
_DIGIT_PATTERN = re.compile(r"[0-3]")


def normalize_outcome_token(surface: str) -> OutcomeLabel | None:
    """Map a token surface to an outcome label, or None when it is not one.

    Trims whitespace and quote characters, accepts the digits 0-3 and the
    case-insensitive word forms yes/no/inconclusive_evidence/
    inconclusive_definition.
    """
    s = surface.strip().strip("\"'").strip()
    if _DIGIT_PATTERN.fullmatch(s):
        return _OUTCOME_LABELS[int(s)]
    m = _WORD_PATTERN.fullmatch(s)
    if m:
        return _WORD_OUTCOMES[m.group(0).lower()]
    return None


def snap_confidence(raw: float) -> int:
    """Clamp to [0, 100] and snap to the nearest multiple of 5.

    Fractional inputs are accepted leniently; exact midpoints round half
    away from zero (upward, since the clamped domain is non-negative).
    """
    x = min(100.0, max(0.0, float(raw)))
    return int(5 * math.floor(x / 5.0 + 0.5))


@dataclass(frozen=True)
class ReasoningStep:
    step_number: int
    description: str


@dataclass(frozen=True)
class StructuredResponse:
    outcome: OutcomeLabel
    reasoning_steps: tuple[ReasoningStep, ...] = ()
    p_correct: int | None = None
    band: ConfidenceBand | None = None


@dataclass(frozen=True, eq=False)
class TokenSpan:
    """The tokens of one span as arrays, T tokens by at most W candidates.

    ``chosen`` and ``chosen_logprobs`` (shape (T,)) are the generated
    tokens; row t of ``logprobs`` (shape (T, W)) holds token t's candidate
    logprobs in descending order, padded on the right with -inf, and
    ``surfaces[t]`` their surfaces in the same order. Build one with
    token_span, which enforces those invariants.
    """

    chosen: tuple[str, ...]
    chosen_logprobs: np.ndarray
    surfaces: tuple[tuple[str, ...], ...]
    logprobs: np.ndarray


class InvalidLogprob(ValueError):
    """A token logprob that is nan, infinite or above LOGPROB_TOLERANCE."""


def _checked_logprob(surface: str, logprob: float) -> float:
    lp = float(logprob)
    if not math.isfinite(lp):
        raise InvalidLogprob(f"non-finite logprob for {surface!r}")
    if lp > LOGPROB_TOLERANCE:
        raise InvalidLogprob(f"positive logprob {lp!r} beyond tolerance")
    return 0.0 if lp > 0.0 else lp


#: Direct answers have no reasoning tokens, so they all share one empty span.
_EMPTY_SPAN = TokenSpan((), np.empty(0), (), np.empty((0, 0)))


def token_span(tokens: Iterable[tuple[str, float, Iterable[tuple[str, float]]]]) -> TokenSpan:
    """Build a TokenSpan from (surface, logprob, [(surface, logprob), ...])
    triples, one per token in stream order.

    Every logprob must be finite and at most LOGPROB_TOLERANCE; one in
    (0, tolerance] counts as 0. A chosen token missing from its candidates
    is appended to them with its own logprob, and each token's candidates
    are stably sorted by descending logprob.

    The triples are first unzipped into four parallel lists, each one-shot
    iterator of candidates read once, so a triple or candidate pair that
    does not unpack raises ValueError before any logprob is checked. When
    every logprob is then at most 0 and their math.fsum (which reads numpy
    scalars as floats, so never warns) is finite, no value needs a check of
    its own. Otherwise (nan, ±inf, an overflowing sum, a value in the clamp
    tolerance, a value that is not a number) every value goes through
    _checked_logprob in stream order, a token's own logprob and then its
    candidates', which clamps it or raises. Either way a missing chosen
    token is then appended, only the rows not already in descending order
    are stably sorted, and the rows are padded with -inf.
    """
    chosen, chosen_lps, surfaces, rows = [], [], [], []
    for surface, logprob, candidates in tokens:
        if type(candidates) is not list and type(candidates) is not tuple:
            candidates = list(candidates)
        chosen.append(surface)
        chosen_lps.append(logprob)
        surfaces.append(tuple([s for s, _ in candidates]))
        rows.append([l for _, l in candidates])
    if not chosen:
        return _EMPTY_SPAN
    try:
        flat = list(chain(chosen_lps, *rows))
        in_range = max(flat) <= 0.0 and math.isfinite(math.fsum(flat))
    except (TypeError, ValueError, ArithmeticError):  # a value that is not a number: float() decides
        in_range = False
    if not in_range:
        checked_lps, checked_rows = [], []
        for surface, logprob, srf, row in zip(chosen, chosen_lps, surfaces, rows):
            checked_lps.append(_checked_logprob(surface, logprob))
            checked_rows.append([_checked_logprob(s, l) for s, l in zip(srf, row)])
        chosen_lps, rows = checked_lps, checked_rows
    out_surfaces, out_rows = [], []
    for surface, logprob, srf, row in zip(chosen, chosen_lps, surfaces, rows):
        if surface not in srf:
            srf += (surface,)
            row = [*row, logprob]
        if len(row) > 1 and row != sorted(row, reverse=True):
            # stable, by the float values the span holds: ties keep their order
            values, srf = zip(*sorted(zip(map(float, row), srf), key=itemgetter(0), reverse=True))
            row = list(values)
        out_surfaces.append(srf)
        out_rows.append(row)
    widths = set(map(len, out_rows))
    if len(widths) == 1:
        padded = np.array(out_rows, dtype=float)
    else:
        width = max(widths)
        padded = np.array([row + [-math.inf] * (width - len(row)) for row in out_rows], dtype=float)
    return TokenSpan(tuple(chosen), np.array(chosen_lps, dtype=float), tuple(out_surfaces), padded)


@dataclass
class ResponseTrace:
    """One accepted LLM response: structured output plus the token spans of
    its outcome field (exactly one token) and its reasoning steps."""

    item_id: str
    structured: StructuredResponse
    outcome: TokenSpan
    reasoning: TokenSpan
    attempt: int = 1

    def __post_init__(self):
        if not 1 <= self.attempt <= MAX_ATTEMPTS:
            raise ValueError(f"attempt {self.attempt} outside [1, {MAX_ATTEMPTS}]")
        n_outcome = len(self.outcome.chosen)
        if n_outcome != 1:
            raise ValueError(f"trace {self.item_id!r} has {n_outcome} outcome-span tokens, want 1")


@dataclass(frozen=True)
class FieldSpans:
    """A decoded response: its top-level ``values`` (left out of equality)
    and the character spans of its schema fields inside the raw text.

    ``outcome_value`` points at the value content (inside quotes for quoted
    values) so token alignment can use the JSON field position rather than
    a surface search.
    """

    object_span: tuple[int, int]
    outcome_value: tuple[int, int] | None
    reasoning_array: tuple[int, int] | None
    values: Mapping[str, object] = field(default_factory=dict, compare=False)


_DECODER = json.JSONDecoder()
_skip_ws = json.decoder.WHITESPACE.match


def _object_fields(raw: str) -> tuple[tuple[int, int], dict[str, object], dict[str, tuple[int, int]]]:
    """Decode the JSON object at the first ``{`` of ``raw``.

    Returns the object's (start, end) span, ``{key: value}`` and ``{key:
    (start, end)}``, each value's span taken from the same decode and, for
    a string, inside its quotes; a later duplicate key replaces an earlier
    one, as in json.loads. Raises ValueError (JSONDecodeError for malformed
    text) on any decoding error, and RecursionError, from json's scanner,
    for a value nested past the interpreter's recursion limit.
    """
    start = raw.find("{")
    if start < 0:
        raise json.JSONDecodeError("Expecting '{'", raw, len(raw))
    values, spans = {}, {}
    i = _skip_ws(raw, start + 1).end()
    if raw[i : i + 1] == "}":
        return (start, i + 1), values, spans
    while True:
        if raw[i : i + 1] != '"':
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", raw, i)
        key, i = json.decoder.scanstring(raw, i + 1)
        i = _skip_ws(raw, i).end()
        if raw[i : i + 1] != ":":
            raise json.JSONDecodeError("Expecting ':' delimiter", raw, i)
        value_start = _skip_ws(raw, i + 1).end()
        values[key], i = _DECODER.raw_decode(raw, value_start)
        spans[key] = (value_start + 1, i - 1) if isinstance(values[key], str) else (value_start, i)
        i = _skip_ws(raw, i).end()
        if raw[i : i + 1] == "}":
            return (start, i + 1), values, spans
        if raw[i : i + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", raw, i)
        i = _skip_ws(raw, i + 1).end()


def locate_structured_fields(raw: str) -> FieldSpans:
    """Decode ``raw`` once: the spans of its ``outcome`` and
    ``reasoning_steps`` fields, and its values.

    Only the object's own keys are read, so an outcome digit appearing
    inside reasoning text is never mistaken for the field value. Text with
    no valid object at its first ``{``, or one nested past the recursion
    limit, raises ParseFailure(MALFORMED_JSON) with json's own message,
    whose offset counts in the whole of ``raw``.
    """
    try:
        span, values, spans = _object_fields(raw)
    except (ValueError, RecursionError) as exc:
        raise ParseFailure(Reason.MALFORMED_JSON, str(exc)) from exc
    return FieldSpans(span, spans.get("outcome"), spans.get("reasoning_steps"), values)


def parse_structured_response(response: str | FieldSpans, expect_steps: int | None = None) -> StructuredResponse:
    """Validate a decoded response under the integer-token schema.

    ``response`` is locate_structured_fields' result, or the raw text,
    which it decodes first. Normalizes the outcome token, snaps a finite
    ``p_correct`` to the nearest multiple of 5 (one that is not a number,
    or nan, infinite or past float range, counts as absent), and validates
    the confidence band and reasoning steps. ``expect_steps`` pins the
    required number of reasoning steps (3 for chain-of-thought prompts, 0
    for direct answers); None accepts any consecutive numbering.

    Raises ParseFailure with a kind describing what went wrong; every kind
    is a retry candidate.
    """
    if isinstance(response, str):
        response = locate_structured_fields(response)
    obj = response.values
    raw_outcome = obj.get("outcome")
    if raw_outcome is None:
        raise ParseFailure(Reason.MISSING_OUTCOME, "outcome field absent")
    outcome = normalize_outcome_token(str(raw_outcome))
    if outcome is None:
        raise ParseFailure(Reason.MISSING_OUTCOME, f"unrecognized outcome {raw_outcome!r}")

    steps_raw = obj.get("reasoning_steps")
    if not isinstance(steps_raw, (list, type(None))):
        raise ParseFailure(Reason.INVALID_STEPS, "reasoning_steps is not a list")
    steps = []
    for entry in steps_raw or ():
        if not isinstance(entry, dict):
            raise ParseFailure(Reason.INVALID_STEPS, "step entry is not an object")
        number = entry.get("step_number")
        description = entry.get("description", "")
        if not isinstance(number, int) or isinstance(number, bool) or number < 1:
            raise ParseFailure(Reason.INVALID_STEPS, f"bad step_number {number!r}")
        steps.append(ReasoningStep(number, str(description)))
    if [s.step_number for s in steps] != list(range(1, len(steps) + 1)):
        raise ParseFailure(Reason.INVALID_STEPS, "step numbers not consecutive from 1")
    if expect_steps is not None and len(steps) != expect_steps:
        raise ParseFailure(
            Reason.INVALID_STEPS, f"expected {expect_steps} steps, got {len(steps)}"
        )

    p_raw = obj.get("p_correct")
    p_correct = None
    if isinstance(p_raw, (int, float)) and not isinstance(p_raw, bool):
        try:
            p_float = float(p_raw)
        except OverflowError:  # an integer past float range
            p_float = math.nan
        if math.isfinite(p_float):
            p_correct = snap_confidence(p_float)

    band_raw = obj.get("band")
    band = None
    if band_raw is not None:
        if not isinstance(band_raw, str):
            raise ParseFailure(Reason.INVALID_BAND, f"band {band_raw!r} is not text")
        band = _BANDS.get(band_raw.strip().upper())
        if band is None:
            raise ParseFailure(Reason.INVALID_BAND, f"unknown band {band_raw!r}")

    return StructuredResponse(outcome, tuple(steps), p_correct, band)


# ---------------------------------------------------------------------------
# JSONL trace serialization
# ---------------------------------------------------------------------------


def _token_dicts(span: TokenSpan, name: str) -> list[dict]:
    return [
        {
            "span": name,
            "chosen": {"surface": surface, "logprob": logprob},
            "candidates": [{"surface": s, "logprob": l} for s, l in zip(srf, row)],
        }
        for surface, logprob, srf, row in zip(
            span.chosen, span.chosen_logprobs.tolist(), span.surfaces, span.logprobs.tolist()
        )
    ]


def _structured_dict(s: StructuredResponse) -> dict:
    return {
        "outcome": int(s.outcome),
        "reasoning_steps": [
            {"step_number": r.step_number, "description": r.description} for r in s.reasoning_steps
        ],
        "p_correct": s.p_correct,
        "band": s.band.value if s.band is not None else None,
    }


def trace_to_dict(trace: ResponseTrace) -> dict:
    """A trace as one dict per token, each naming its span: the form the
    benchmark builds its stub fixtures from in memory, never read back."""
    return {
        "item_id": trace.item_id,
        "attempt": trace.attempt,
        "structured": _structured_dict(trace.structured),
        # the outcome token first, then the reasoning tokens in stream order
        "tokens": _token_dicts(trace.outcome, Span.OUTCOME.value)
        + _token_dicts(trace.reasoning, Span.REASONING.value),
    }


def _float64_text(values: np.ndarray) -> str:
    """The base64 text of an array's little-endian float64 bytes (b64encode
    without its wrapper)."""
    return b2a_base64(np.asarray(values, dtype="<f8").tobytes(), newline=False).decode("ascii")


def _span_record(span: TokenSpan) -> dict:
    """A span as one record: its chosen surfaces and candidate surfaces as
    lists, its chosen logprobs as base64 float64 text, and its candidate
    rows, sorted and unpadded, joined in row order as one base64 float64
    text, which the row widths in ``surfaces`` split."""
    rows = span.logprobs
    widths = list(map(len, span.surfaces))
    if rows.size != sum(widths):  # ragged rows: leave out the -inf padding
        rows = rows[np.arange(rows.shape[1]) < np.array(widths)[:, None]]
    return {
        "chosen": span.chosen,
        "chosen_logprobs": _float64_text(span.chosen_logprobs),
        "surfaces": span.surfaces,
        "logprobs": _float64_text(rows),
    }


def _in_range(values: np.ndarray) -> bool:
    """Every value finite and at most 0."""
    return bool(((values <= 0.0) & (values > -math.inf)).all())


#: The one type of every list in a span record.
_LIST_ONLY = {list}


def _rows_descend(values: np.ndarray, row_widths: np.ndarray) -> bool:
    """Each row of the concatenated rows is in descending order. Every
    row is non-empty, as it holds its chosen token: the step from one
    row's last value to the next row's first is left out."""
    descends = values[1:] <= values[:-1]
    descends[np.cumsum(row_widths)[:-1] - 1] = True
    return bool(descends.all())


def _spans_of_records(records: list) -> list[TokenSpan]:
    """The spans of a block's span records, in order.

    A record's ``chosen`` must be a list of strings and its ``surfaces`` a
    list of such lists, as write_traces_jsonl writes them: the block's
    list types are read into one set, and each list's strings are joined
    by str.join, which raises on any other value. Each record's base64
    texts are decoded, strictly, and their byte counts checked against its
    lists: 8 per chosen token and 8 per candidate. Then every record of
    the block must be in the form _span_record writes token_span's spans
    in, one rule for each part of it: every value finite
    and at most 0, every chosen token among its candidates, and every row
    in descending order. A block that breaks one raises ValueError with
    that rule's message. Each span's arrays are views of the block's
    arrays, padded in one pass where a span's rows are ragged.
    """
    chosen = [rec["chosen"] for rec in records]
    surfaces = [rec["surfaces"] for rec in records]
    texts = [rec["chosen_logprobs"] for rec in records] + [rec["logprobs"] for rec in records]
    if not all(type(text) is str for text in texts):
        raise ValueError(
            "span record logprobs are not base64 text: lists of decimals are the older"
            " trace-file form, which this reader refuses (README says how to rewrite one)"
        )
    try:
        rows = list(chain.from_iterable(surfaces))
        if not {*map(type, chosen), *map(type, surfaces), *map(type, rows)} <= _LIST_ONLY:
            raise TypeError
        "".join(map("".join, chosen))
        "".join(map("".join, rows))
    except TypeError:
        raise ValueError("span record chosen and surfaces rows must be lists of strings") from None
    blobs = [b64decode(text, validate=True) for text in texts]
    counts = list(map(len, chosen))
    widths = [list(map(len, srf)) for srf in surfaces]
    if list(map(len, surfaces)) != counts or list(map(len, blobs)) != [8 * n for n in chain(counts, map(sum, widths))]:
        raise ValueError("span record lists differ in length")
    chosen_lps = np.frombuffer(b"".join(blobs[: len(records)]), "<f8").astype(float, copy=False)
    values = np.frombuffer(b"".join(blobs[len(records) :]), "<f8").astype(float, copy=False)
    row_widths = np.fromiter(map(len, rows), np.intp, len(rows))
    if not (_in_range(chosen_lps) and _in_range(values)):
        raise ValueError("span record logprobs must be finite and at most 0")
    if not all(map(contains, rows, chain.from_iterable(chosen))):
        raise ValueError("span record chosen tokens must be among their candidates")
    if not _rows_descend(values, row_widths):
        raise ValueError("span record candidate rows must be in descending order")
    span_widths = [max(w) if w else 0 for w in widths]
    pad = np.repeat(span_widths, counts) - row_widths
    if pad.any():
        padded = np.full(values.size + int(pad.sum()), -math.inf)
        padded[np.arange(values.size) + np.repeat(np.cumsum(pad) - pad, row_widths)] = values
        values = padded
    row_surfaces = list(map(tuple, rows))
    spans, c, v = [], 0, 0
    for ch, t, width in zip(chosen, counts, span_widths):
        if t:
            logprobs = values[v : v + t * width].reshape(t, width)
            spans.append(TokenSpan(tuple(ch), chosen_lps[c : c + t], tuple(row_surfaces[c : c + t]), logprobs))
        else:
            spans.append(_EMPTY_SPAN)
        c, v = c + t, v + t * width
    return spans


#: Each p_correct parse_structured_response leaves other than None: a
#: multiple of 5 in [0, 100].
_P_CORRECT_VALUES = frozenset(range(0, 101, 5))


def _structured_from_dict(s: dict) -> StructuredResponse:
    """The structured response of a trace line, each field of the type
    _structured_dict writes it as: the type is tested, so a bool, or a
    float equal to an int, is refused."""
    outcome, p_correct, steps = s["outcome"], s.get("p_correct"), s.get("reasoning_steps", [])
    if type(outcome) is not int or not 0 <= outcome <= 3:
        raise ValueError(f"outcome must be an int in [0, 3], got {outcome!r}")
    if p_correct is not None and not (type(p_correct) is int and p_correct in _P_CORRECT_VALUES):
        raise ValueError(f"p_correct must be null or a multiple of 5 in [0, 100], got {p_correct!r}")
    if type(steps) is not list:
        raise ValueError(f"reasoning_steps must be a list, got {steps!r}")
    for r in steps:
        if type(r) is not dict or type(r.get("step_number")) is not int or type(r.get("description")) is not str:
            raise ValueError(f"reasoning_steps must hold objects of an int step_number and a str description, got {r!r}")
    band = s.get("band")
    if band is not None:
        try:
            band = _BANDS[band]
        except (KeyError, TypeError):  # not a band's value: the enum raises its own error
            band = ConfidenceBand(band)
    steps = tuple([ReasoningStep(r["step_number"], r["description"]) for r in steps])
    return StructuredResponse(_OUTCOME_LABELS[outcome], steps, p_correct, band)


def trace_from_dict(objs: list[dict]) -> list[ResponseTrace]:
    """Read a block of trace-file lines, each decoded to a dict with its
    span records under ``"spans"``, as write_traces_jsonl writes them. A
    line that is not a JSON object or has no span records is refused, and
    so is an attempt that is not an int in [1, MAX_ATTEMPTS] or a
    structured field of another type than write_traces_jsonl writes
    (_structured_from_dict).

    The block's span records are decoded and checked together (see
    _spans_of_records), so a span's arrays may be read-only views of
    arrays the block's spans share. A record whose byte counts do not
    match its lists, or that is not in the form write_traces_jsonl writes,
    raises ValueError.
    """
    for obj in objs:
        if type(obj) is not dict:
            raise ValueError(f"a trace line holds a JSON {type(obj).__name__}, not an object")
        if "spans" not in obj:
            raise ValueError(f"trace {obj.get('item_id')!r} has no 'spans' key")
        attempt = obj.get("attempt", 1)
        if type(attempt) is not int or not 1 <= attempt <= MAX_ATTEMPTS:
            raise ValueError(f"attempt must be an int in [1, {MAX_ATTEMPTS}], got {attempt!r}")
    structured = [_structured_from_dict(obj["structured"]) for obj in objs]
    names = (Span.OUTCOME.value, Span.REASONING.value)
    spans = _spans_of_records([obj["spans"][name] for obj in objs for name in names])
    return [
        ResponseTrace(obj["item_id"], s, outcome, reasoning, obj.get("attempt", 1))
        for obj, s, outcome, reasoning in zip(objs, structured, spans[::2], spans[1::2])
    ]


#: json.dumps(obj, separators=(",", ":")) without a new encoder per line.
_LINE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def write_traces_jsonl(traces, path) -> None:
    """One line per trace, each span as one record (see _span_record),
    streamed to a temp file that replaces ``path`` once every line is
    written (manifest.open_atomic)."""
    with open_atomic(path) as fh:
        for trace in traces:
            obj = {
                "item_id": trace.item_id,
                "attempt": trace.attempt,
                "structured": _structured_dict(trace.structured),
                "spans": {
                    Span.OUTCOME.value: _span_record(trace.outcome),
                    Span.REASONING.value: _span_record(trace.reasoning),
                },
            }
            fh.write(_LINE_ENCODER.encode(obj) + "\n")


#: Lines read_traces_jsonl hands trace_from_dict at once. On a 2-core x86
#: host, reading 1000 CoT lines took 54-59 ms in blocks of 24 to 48 lines,
#: 56-62 ms in blocks of 64 and 74-78 ms in blocks of 256 (min of 5, six
#: rounds); 1000 direct lines took 14-16 ms at every one of those sizes.
_TRACE_BLOCK_LINES = 32


def _read_lines(lines: list[str], first: int, path) -> list[ResponseTrace]:
    """The traces of lines numbered from ``first``, read one at a time, so
    that an error names its line and the file."""
    traces = []
    for n, line in enumerate(lines, first):
        line = line.strip()
        if line:
            try:
                traces += trace_from_dict([json.loads(line)])
            except (ValueError, KeyError, TypeError) as err:
                raise ValueError(f"line {n} of {path}: {err}") from err
    return traces


def read_traces_jsonl(path) -> list[ResponseTrace]:
    """The traces write_traces_jsonl wrote, read _TRACE_BLOCK_LINES lines
    at a time through trace_from_dict. A block that fails is read again
    one line at a time, so a line that does not decode or read as a trace
    raises ValueError naming its number and the file."""
    traces = []
    with open(path, "r", encoding="utf-8") as fh:
        first = 1
        while lines := list(islice(fh, _TRACE_BLOCK_LINES)):
            try:
                traces += trace_from_dict([json.loads(line) for line in lines if line.strip()])
            except (ValueError, KeyError, TypeError):
                traces += _read_lines(lines, first, path)
            first += len(lines)
    return traces


def check_item_ids(item_ids: Iterable[str], where: str) -> None:
    """The id rule of every id-keyed file: raise for the first id that
    has a line break or repeats an earlier one. No such file can hold a
    line break, since its reader splits lines at a carriage return as well
    as at a newline, and an item gets one decision, so one row."""
    seen: set[str] = set()
    for item in item_ids:
        if "\n" in item or "\r" in item:
            raise ValueError(f"item_id {item!r} holds a line break")
        if item in seen:
            raise ValueError(f"item_id {item!r} appears more than once in {where}")
        seen.add(item)
