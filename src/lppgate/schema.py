"""Integer-token response schema: parsing, validation, and the retry contract.

The classification decision is constrained to a single integer token
(0=no, 1=yes, 2=inconclusive_evidence, 3=inconclusive_definition) inside a
small JSON object, so that the emitted token lines up with the provider's
token-level log-probabilities. This module parses and normalizes those
structured responses, models per-token log-probability records split into
outcome and reasoning spans, and decides whether a malformed response is
retried (deterministic re-request, at most three retries) or given up on.

All functions here are pure and safe to call concurrently on distinct
traces.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, field

__all__ = [
    "OutcomeLabel",
    "ConfidenceBand",
    "Span",
    "RetryDecision",
    "FailureKind",
    "ParseFailure",
    "ReasoningStep",
    "StructuredResponse",
    "TokenCandidate",
    "TokenRecord",
    "ResponseTrace",
    "FieldSpans",
    "normalize_outcome_token",
    "snap_confidence",
    "parse_structured_response",
    "decide_retry",
    "find_balanced_object",
    "locate_structured_fields",
    "trace_to_dict",
    "trace_from_dict",
    "write_traces_jsonl",
    "read_traces_jsonl",
]

#: Providers occasionally report logprobs a hair above zero; anything inside
#: this tolerance is clamped to 0, anything beyond is rejected.
LOGPROB_TOLERANCE = 1e-9

#: Retry budget: one initial attempt plus at most three deterministic retries.
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


class RetryDecision(str, enum.Enum):
    ACCEPT = "accept"
    RETRY = "retry"
    GIVE_UP = "give_up"


class FailureKind(str, enum.Enum):
    MALFORMED_JSON = "malformed_json"
    MISSING_OUTCOME = "missing_outcome"
    INVALID_BAND = "invalid_band"
    INVALID_STEPS = "invalid_steps"


class ParseFailure(ValueError):
    """A structured response that does not validate; a retry candidate."""

    def __init__(self, kind: FailureKind, message: str = ""):
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


@dataclass(frozen=True)
class TokenCandidate:
    surface: str
    logprob: float

    def __post_init__(self):
        if not math.isfinite(self.logprob):
            raise ValueError(f"non-finite logprob for {self.surface!r}")
        if self.logprob > LOGPROB_TOLERANCE:
            raise ValueError(f"positive logprob {self.logprob!r} beyond tolerance")
        if self.logprob > 0.0:
            object.__setattr__(self, "logprob", 0.0)


@dataclass
class TokenRecord:
    """One generated token with its top-k alternatives, tagged by span.

    The chosen token is guaranteed to appear among the candidates (appended
    with its own logprob when the provider omitted it), and candidates are
    kept sorted by descending logprob.
    """

    chosen: TokenCandidate
    candidates: list[TokenCandidate] = field(default_factory=list)
    span: Span = Span.REASONING

    def __post_init__(self):
        if all(c.surface != self.chosen.surface for c in self.candidates):
            self.candidates = list(self.candidates) + [self.chosen]
        self.candidates = sorted(self.candidates, key=lambda c: -c.logprob)


@dataclass
class ResponseTrace:
    """One accepted LLM response: structured output plus token records."""

    item_id: str
    structured: StructuredResponse
    tokens: list[TokenRecord]
    attempt: int = 1

    def __post_init__(self):
        if not 1 <= self.attempt <= MAX_ATTEMPTS:
            raise ValueError(f"attempt {self.attempt} outside [1, {MAX_ATTEMPTS}]")
        n_outcome = sum(1 for t in self.tokens if t.span is Span.OUTCOME)
        if n_outcome != 1:
            raise ValueError(f"trace {self.item_id!r} has {n_outcome} outcome-span tokens, want 1")

    def outcome_record(self) -> TokenRecord:
        return next(t for t in self.tokens if t.span is Span.OUTCOME)

    def reasoning_records(self) -> list[TokenRecord]:
        return [t for t in self.tokens if t.span is Span.REASONING]

    def effective_outcome(self) -> OutcomeLabel:
        """The decision actually emitted: the outcome-span token wins over
        the structured field when the two disagree."""
        label = normalize_outcome_token(self.outcome_record().chosen.surface)
        return label if label is not None else self.structured.outcome


def _match_bracket(raw: str, i: int, end: int) -> int | None:
    """Index just past the bracket that closes ``raw[i]`` (``{`` or ``[``),
    or None when it is unbalanced before ``end``. Only the opening
    bracket's own kind is counted, and brackets inside JSON strings are
    skipped."""
    open_ = raw[i]
    close = "}" if open_ == "{" else "]"
    depth = 0
    in_string = False
    escape = False
    for j in range(i, end):
        c = raw[j]
        if in_string:
            if escape:
                escape = False
            elif c == "\\":
                escape = True
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == open_:
            depth += 1
        elif c == close:
            depth -= 1
            if depth == 0:
                return j + 1
    return None


def find_balanced_object(raw: str) -> tuple[int, int] | None:
    """Locate the first balanced top-level JSON object in ``raw``.

    Returns (start, end) character indices, or None when no balanced object
    exists. Tolerates text before and after the object.
    """
    start = raw.find("{")
    if start < 0:
        return None
    stop = _match_bracket(raw, start, len(raw))
    return None if stop is None else (start, stop)


@dataclass(frozen=True)
class FieldSpans:
    """Character spans of schema fields inside a raw response text.

    ``outcome_value`` points at the value content (inside quotes for quoted
    values) so token alignment can use the JSON field position rather than
    a surface search.
    """

    object_span: tuple[int, int]
    outcome_value: tuple[int, int] | None
    reasoning_array: tuple[int, int] | None


def _scan_value(raw: str, i: int, end: int) -> tuple[int, int, int]:
    """Scan one JSON value starting at non-ws ``i``; return (vstart, vend, next).

    For quoted strings, (vstart, vend) covers the content between the quotes.
    """
    ch = raw[i]
    if ch == '"':
        j = i + 1
        escape = False
        while j < end:
            c = raw[j]
            if escape:
                escape = False
            elif c == "\\":
                escape = True
            elif c == '"':
                return i + 1, j, j + 1
            j += 1
        return i + 1, end, end
    if ch in "{[":
        stop = _match_bracket(raw, i, end)
        return (i, end, end) if stop is None else (i, stop, stop)
    j = i
    while j < end and raw[j] not in ",}]":
        j += 1
    # trim trailing whitespace off bare scalars
    k = j
    while k > i and raw[k - 1].isspace():
        k -= 1
    return i, k, j


def locate_structured_fields(raw: str) -> FieldSpans | None:
    """Find the spans of the ``outcome`` and ``reasoning_steps`` fields.

    Walks the first balanced object at depth 1 only, so an outcome digit
    appearing inside reasoning text is never mistaken for the field value.
    """
    span = find_balanced_object(raw)
    if span is None:
        return None
    start, end = span
    outcome_span = None
    reasoning_span = None
    i = start + 1
    while i < end - 1:
        while i < end - 1 and raw[i] in ", \t\r\n":
            i += 1
        if i >= end - 1 or raw[i] != '"':
            break
        kstart, kend, i = _scan_value(raw, i, end)
        key = raw[kstart:kend]
        while i < end - 1 and raw[i] in " \t\r\n":
            i += 1
        if i >= end - 1 or raw[i] != ":":
            break
        i += 1
        while i < end - 1 and raw[i] in " \t\r\n":
            i += 1
        vstart, vend, i = _scan_value(raw, i, end)
        if key == "outcome" and outcome_span is None:
            outcome_span = (vstart, vend)
        elif key == "reasoning_steps" and reasoning_span is None:
            reasoning_span = (vstart, vend)
    return FieldSpans((start, end), outcome_span, reasoning_span)


def parse_structured_response(raw: str, expect_steps: int | None = None) -> StructuredResponse:
    """Parse and validate a raw model response under the integer-token schema.

    Extracts the first balanced JSON object (providers sometimes wrap the
    object in prose), normalizes the outcome token, snaps ``p_correct`` to
    the nearest multiple of 5, and validates the confidence band and
    reasoning steps. ``expect_steps`` pins the required number of reasoning
    steps (3 for chain-of-thought prompts, 0 for direct answers); None
    accepts any consecutive numbering.

    Raises ParseFailure with a kind describing what went wrong; every kind
    is a retry candidate.
    """
    span = find_balanced_object(raw)
    if span is None:
        raise ParseFailure(FailureKind.MALFORMED_JSON, "no balanced JSON object")
    try:
        obj = json.loads(raw[span[0] : span[1]])
    except json.JSONDecodeError as exc:
        raise ParseFailure(FailureKind.MALFORMED_JSON, str(exc)) from exc
    if not isinstance(obj, dict):
        raise ParseFailure(FailureKind.MALFORMED_JSON, "top-level value is not an object")

    raw_outcome = obj.get("outcome")
    if raw_outcome is None:
        raise ParseFailure(FailureKind.MISSING_OUTCOME, "outcome field absent")
    outcome = normalize_outcome_token(str(raw_outcome))
    if outcome is None:
        raise ParseFailure(FailureKind.MISSING_OUTCOME, f"unrecognized outcome {raw_outcome!r}")

    steps_raw = obj.get("reasoning_steps") or []
    if not isinstance(steps_raw, list):
        raise ParseFailure(FailureKind.INVALID_STEPS, "reasoning_steps is not a list")
    steps = []
    for entry in steps_raw:
        if not isinstance(entry, dict):
            raise ParseFailure(FailureKind.INVALID_STEPS, "step entry is not an object")
        number = entry.get("step_number")
        description = entry.get("description", "")
        if not isinstance(number, int) or isinstance(number, bool) or number < 1:
            raise ParseFailure(FailureKind.INVALID_STEPS, f"bad step_number {number!r}")
        steps.append(ReasoningStep(number, str(description)))
    if [s.step_number for s in steps] != list(range(1, len(steps) + 1)):
        raise ParseFailure(FailureKind.INVALID_STEPS, "step numbers not consecutive from 1")
    if expect_steps is not None and len(steps) != expect_steps:
        raise ParseFailure(
            FailureKind.INVALID_STEPS, f"expected {expect_steps} steps, got {len(steps)}"
        )

    p_raw = obj.get("p_correct")
    p_correct = None
    if isinstance(p_raw, (int, float)) and not isinstance(p_raw, bool):
        p_correct = snap_confidence(p_raw)

    band_raw = obj.get("band")
    band = None
    if band_raw is not None:
        if not isinstance(band_raw, str):
            raise ParseFailure(FailureKind.INVALID_BAND, f"band {band_raw!r} is not text")
        try:
            band = ConfidenceBand(band_raw.strip().upper())
        except ValueError:
            raise ParseFailure(FailureKind.INVALID_BAND, f"unknown band {band_raw!r}") from None

    return StructuredResponse(outcome, tuple(steps), p_correct, band)


def decide_retry(attempt: int, failure: Exception | None) -> RetryDecision:
    """Apply the deterministic retry contract to one attempt's outcome.

    Accept on success; retry a failed attempt while the three-retry budget
    remains (attempt <= 3); give up from attempt 4 onward.
    """
    if attempt < 1:
        raise ValueError("attempt counts from 1")
    if failure is None:
        return RetryDecision.ACCEPT
    if attempt <= MAX_ATTEMPTS - 1:
        return RetryDecision.RETRY
    return RetryDecision.GIVE_UP


# ---------------------------------------------------------------------------
# JSONL trace serialization
# ---------------------------------------------------------------------------


def _candidate_to_dict(c: TokenCandidate) -> dict:
    return {"surface": c.surface, "logprob": c.logprob}


def trace_to_dict(trace: ResponseTrace) -> dict:
    s = trace.structured
    return {
        "item_id": trace.item_id,
        "attempt": trace.attempt,
        "structured": {
            "outcome": int(s.outcome),
            "reasoning_steps": [
                {"step_number": r.step_number, "description": r.description}
                for r in s.reasoning_steps
            ],
            "p_correct": s.p_correct,
            "band": s.band.value if s.band is not None else None,
        },
        "tokens": [
            {
                "span": t.span.value,
                "chosen": _candidate_to_dict(t.chosen),
                "candidates": [_candidate_to_dict(c) for c in t.candidates],
            }
            for t in trace.tokens
        ],
    }


def trace_from_dict(obj: dict) -> ResponseTrace:
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
    tokens = [
        TokenRecord(
            chosen=TokenCandidate(**t["chosen"]),
            candidates=[TokenCandidate(**c) for c in t.get("candidates", [])],
            span=Span(t["span"]),
        )
        for t in obj.get("tokens", [])
    ]
    return ResponseTrace(obj["item_id"], structured, tokens, obj.get("attempt", 1))


def write_traces_jsonl(traces, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(json.dumps(trace_to_dict(trace), separators=(",", ":")) + "\n")


def read_traces_jsonl(path) -> list[ResponseTrace]:
    traces = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                traces.append(trace_from_dict(json.loads(line)))
    return traces
