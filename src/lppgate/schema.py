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

Every span is built by one function (_span_of) over four parallel lists:
the chosen surfaces and logprobs, and each token's candidate surfaces and
logprobs. When every logprob is at most 0 and their sum is finite, no
value needs a check of its own; otherwise each value passes through
_checked_logprob in stream order, which clamps it or raises with every
InvalidLogprob message. Then a missing chosen token is appended, only the
candidate rows not already in descending order are sorted, and the rows
are padded. token_span unzips its triples into those lists, and the trace
reader hands a record's lists in as they stand.

A trace file holds one JSON line per trace, and each span of a line is one
record of those four lists, its candidate rows sorted and unpadded (see
_span_record). A line without span records is refused; read_traces_jsonl
names the line and file of an error.

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
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
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


_WORD_OUTCOMES = {
    "yes": OutcomeLabel.YES,
    "no": OutcomeLabel.NO,
    "inconclusive_evidence": OutcomeLabel.INCONCLUSIVE_EVIDENCE,
    "inconclusive_definition": OutcomeLabel.INCONCLUSIVE_DEFINITION,
}
_WORD_PATTERN = re.compile(r"(yes|no|inconclusive_(definition|evidence))", re.IGNORECASE)


def normalize_outcome_token(surface: str) -> OutcomeLabel | None:
    """Map a token surface to an outcome label, or None when it is not one.

    Trims whitespace and quote characters, accepts the digits 0-3 and the
    case-insensitive word forms yes/no/inconclusive_evidence/
    inconclusive_definition.
    """
    s = surface.strip().strip("\"'").strip()
    if re.fullmatch(r"[0-3]", s):
        return OutcomeLabel(int(s))
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

    The triples are unzipped into four parallel lists for _span_of, each
    one-shot iterator of candidates read once. A triple or candidate pair
    that does not unpack raises ValueError during the unzip, before any
    logprob is checked.
    """
    chosen, chosen_lps, surfaces, rows = [], [], [], []
    for surface, logprob, candidates in tokens:
        if type(candidates) is not list and type(candidates) is not tuple:
            candidates = list(candidates)
        chosen.append(surface)
        chosen_lps.append(logprob)
        surfaces.append(tuple([s for s, _ in candidates]))
        rows.append([l for _, l in candidates])
    return _span_of(chosen, chosen_lps, surfaces, rows)


def _span_of(chosen: list, chosen_lps: list, surfaces: list, rows: list) -> TokenSpan:
    """The span of T tokens given as four parallel lists: the chosen
    surfaces and logprobs, and each token's candidate surfaces and logprobs.

    When every logprob is at most 0 and their math.fsum (which reads numpy
    scalars as floats, so never warns) is finite, no value needs a check of
    its own. Otherwise (nan, ±inf, an overflowing sum, a value in the clamp
    tolerance, a value that is not a number) every value goes through
    _checked_logprob in stream order, a token's own logprob and then its
    candidates', which clamps it or raises. Either way a missing chosen token
    is then appended to its candidates, only the rows not already in
    descending order are stably sorted, and the rows are padded with -inf.
    The lists given are left as they are.
    """
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
        srf = tuple(srf)
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
        try:
            band = ConfidenceBand(band_raw.strip().upper())
        except ValueError:
            raise ParseFailure(Reason.INVALID_BAND, f"unknown band {band_raw!r}") from None

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


def _span_record(span: TokenSpan) -> dict:
    """A span as four parallel lists, each candidate row sorted and unpadded."""
    rows = span.logprobs.tolist()
    return {
        "chosen": span.chosen,
        "chosen_logprobs": span.chosen_logprobs.tolist(),
        "surfaces": span.surfaces,
        "logprobs": [row[: len(srf)] for row, srf in zip(rows, span.surfaces)],
    }


def _span_from_record(rec: dict) -> TokenSpan:
    """Read a span record by token_span's rule: its four lists, once their
    lengths match, go to _span_of as they stand, which clamps, appends,
    sorts or raises as it does for the gateway."""
    chosen, chosen_lps, surfaces, rows = rec["chosen"], rec["chosen_logprobs"], rec["surfaces"], rec["logprobs"]
    if not len(chosen) == len(chosen_lps) == len(surfaces) or list(map(len, surfaces)) != list(map(len, rows)):
        raise ValueError("span record lists differ in length")
    return _span_of(chosen, chosen_lps, surfaces, rows)


def trace_from_dict(obj: dict) -> ResponseTrace:
    """Read one line of a trace file: its span records under ``"spans"``,
    as write_traces_jsonl writes them. A line without them is refused."""
    if "spans" not in obj:
        raise ValueError(f"trace {obj.get('item_id')!r} has no 'spans' key")
    s = obj["structured"]
    structured = StructuredResponse(
        outcome=OutcomeLabel(int(s["outcome"])),
        reasoning_steps=tuple(
            ReasoningStep(r["step_number"], r["description"])
            for r in s.get("reasoning_steps", [])
        ),
        p_correct=s.get("p_correct"),
        band=ConfidenceBand(s["band"]) if s.get("band") is not None else None,
    )
    records = obj["spans"]
    outcome = _span_from_record(records[Span.OUTCOME.value])
    reasoning = _span_from_record(records[Span.REASONING.value])
    return ResponseTrace(obj["item_id"], structured, outcome, reasoning, obj.get("attempt", 1))


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
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def read_traces_jsonl(path) -> list[ResponseTrace]:
    """The traces write_traces_jsonl wrote. A line that does not decode or
    read as a trace raises ValueError naming its number and the file."""
    traces = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    traces.append(trace_from_dict(json.loads(line)))
                except (ValueError, KeyError, TypeError) as err:
                    raise ValueError(f"line {n} of {path}: {err}") from err
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
