"""Integer-token response schema: parsing, validation, and the retry contract.

The classification decision is constrained to a single integer token
(0=no, 1=yes, 2=inconclusive_evidence, 3=inconclusive_definition) inside a
small JSON object, so that the emitted token lines up with the provider's
token-level log-probabilities. This module parses and normalizes those
structured responses, holds each span of a trace's token log-probabilities
(the single outcome token, and the reasoning tokens) as one TokenSpan of
arrays built by token_span, and decides whether a malformed response is
retried (deterministic re-request, at most three retries) or given up on.

A response has one reader: the JSON object at its first ``{``, decoded by
json's own scanner, which yields each field's value and its offsets in the
response together. A later duplicate key wins, as in json.loads, for the
parsed fields and the located spans alike.

All functions here are pure and safe to call concurrently on distinct
traces.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "OutcomeLabel",
    "ConfidenceBand",
    "Span",
    "RetryDecision",
    "FailureKind",
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
    "decide_retry",
    "locate_structured_fields",
    "token_span",
    "trace_to_dict",
    "trace_from_dict",
    "write_traces_jsonl",
    "read_traces_jsonl",
]

#: Governs trace files and synth: token_span clamps a logprob a hair above
#: zero, inside this tolerance, to 0 and rejects one beyond it. Provider
#: logprobs never reach it positive, since the gateway clamps every finite
#: positive one to 0.
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
    """
    chosen, chosen_lps, surfaces, rows = [], [], [], []
    width = 0
    for surface, logprob, candidates in tokens:
        lp = _checked_logprob(surface, logprob)
        srf, row = [], []
        for s, l in candidates:
            srf.append(s)
            row.append(_checked_logprob(s, l))
        if surface not in srf:
            srf.append(surface)
            row.append(lp)
        order = sorted(range(len(row)), key=row.__getitem__, reverse=True)
        chosen.append(surface)
        chosen_lps.append(lp)
        surfaces.append(tuple(srf[i] for i in order))
        rows.append([row[i] for i in order])
        width = max(width, len(row))
    if not rows:
        return _EMPTY_SPAN
    padded = np.array([r + [-math.inf] * (width - len(r)) for r in rows], dtype=float)
    return TokenSpan(tuple(chosen), np.array(chosen_lps, dtype=float), tuple(surfaces), padded)


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

    def effective_outcome(self) -> OutcomeLabel:
        """The decision actually emitted: the outcome-span token wins over
        the structured field when the two disagree."""
        label = normalize_outcome_token(self.outcome.chosen[0])
        return label if label is not None else self.structured.outcome


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


_DECODER = json.JSONDecoder()
_skip_ws = json.decoder.WHITESPACE.match


def _object_fields(raw: str) -> tuple[tuple[int, int], dict[str, tuple[object, int, int]]]:
    """Decode the JSON object at the first ``{`` of ``raw``.

    Returns the object's (start, end) span and ``{key: (value, start,
    end)}``, each value's span taken from the same decode; a later
    duplicate key replaces an earlier one, as in json.loads. Raises
    ValueError (JSONDecodeError for malformed text) on any decoding error,
    and RecursionError, from json's scanner, for a value nested past the
    interpreter's recursion limit.
    """
    start = raw.find("{")
    if start < 0:
        raise json.JSONDecodeError("Expecting '{'", raw, len(raw))
    fields = {}
    i = _skip_ws(raw, start + 1).end()
    if raw[i : i + 1] == "}":
        return (start, i + 1), fields
    while True:
        if raw[i : i + 1] != '"':
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", raw, i)
        key, i = json.decoder.scanstring(raw, i + 1)
        i = _skip_ws(raw, i).end()
        if raw[i : i + 1] != ":":
            raise json.JSONDecodeError("Expecting ':' delimiter", raw, i)
        value_start = _skip_ws(raw, i + 1).end()
        value, i = _DECODER.raw_decode(raw, value_start)
        fields[key] = (value, value_start, i)
        i = _skip_ws(raw, i).end()
        if raw[i : i + 1] == "}":
            return (start, i + 1), fields
        if raw[i : i + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", raw, i)
        i = _skip_ws(raw, i + 1).end()


def locate_structured_fields(raw: str) -> FieldSpans | None:
    """Find the spans of the ``outcome`` and ``reasoning_steps`` fields, or
    None when ``raw`` holds no valid object at its first ``{``.

    Only the object's own keys are read, so an outcome digit appearing
    inside reasoning text is never mistaken for the field value.
    """
    try:
        span, fields = _object_fields(raw)
    except (ValueError, RecursionError):
        return None

    def value_span(key: str) -> tuple[int, int] | None:
        if key not in fields:
            return None
        value, start, end = fields[key]
        return (start + 1, end - 1) if isinstance(value, str) else (start, end)

    return FieldSpans(span, value_span("outcome"), value_span("reasoning_steps"))


def parse_structured_response(raw: str, expect_steps: int | None = None) -> StructuredResponse:
    """Parse and validate a raw model response under the integer-token schema.

    Decodes the JSON object at the first ``{`` (providers sometimes wrap
    the object in prose), normalizes the outcome token, snaps a finite
    ``p_correct`` to the nearest multiple of 5 (one that is not a number,
    or nan, infinite or past float range, counts as absent), and validates the
    confidence band and reasoning steps. ``expect_steps`` pins the required
    number of reasoning steps (3 for chain-of-thought prompts, 0 for direct
    answers); None accepts any consecutive numbering.

    Raises ParseFailure with a kind describing what went wrong; every kind
    is a retry candidate.
    """
    try:
        _, fields = _object_fields(raw)
    except (ValueError, RecursionError) as exc:
        raise ParseFailure(FailureKind.MALFORMED_JSON, str(exc)) from exc
    obj = {key: value for key, (value, _, _) in fields.items()}

    raw_outcome = obj.get("outcome")
    if raw_outcome is None:
        raise ParseFailure(FailureKind.MISSING_OUTCOME, "outcome field absent")
    outcome = normalize_outcome_token(str(raw_outcome))
    if outcome is None:
        raise ParseFailure(FailureKind.MISSING_OUTCOME, f"unrecognized outcome {raw_outcome!r}")

    steps_raw = obj.get("reasoning_steps")
    if not isinstance(steps_raw, (list, type(None))):
        raise ParseFailure(FailureKind.INVALID_STEPS, "reasoning_steps is not a list")
    steps = []
    for entry in steps_raw or ():
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
        # the outcome token first, then the reasoning tokens in stream order
        "tokens": _token_dicts(trace.outcome, Span.OUTCOME.value)
        + _token_dicts(trace.reasoning, Span.REASONING.value),
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
    spans: dict[Span, list] = {Span.OUTCOME: [], Span.REASONING: []}
    for t in obj.get("tokens", []):
        chosen = t["chosen"]
        candidates = [(c["surface"], c["logprob"]) for c in t.get("candidates", [])]
        spans[Span(t["span"])].append((chosen["surface"], chosen["logprob"], candidates))
    outcome, reasoning = (token_span(tokens) for tokens in spans.values())
    return ResponseTrace(obj["item_id"], structured, outcome, reasoning, obj.get("attempt", 1))


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
