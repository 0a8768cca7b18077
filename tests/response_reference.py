"""The response reader that schema._object_fields replaced: a hand-written
brace scanner that finds the object, a value scanner that locates fields
on it, and json.loads of the object's slice for the values. Kept as the
reference that parse_structured_response and locate_structured_fields are
checked against."""

from __future__ import annotations

import json

from lppgate.schema import (
    ConfidenceBand,
    FieldSpans,
    ParseFailure,
    Reason,
    ReasoningStep,
    StructuredResponse,
    normalize_outcome_token,
    snap_confidence,
)


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
        raise ParseFailure(Reason.MALFORMED_JSON, "no balanced JSON object")
    try:
        obj = json.loads(raw[span[0] : span[1]])
    except json.JSONDecodeError as exc:
        raise ParseFailure(Reason.MALFORMED_JSON, str(exc)) from exc
    if not isinstance(obj, dict):
        raise ParseFailure(Reason.MALFORMED_JSON, "top-level value is not an object")

    raw_outcome = obj.get("outcome")
    if raw_outcome is None:
        raise ParseFailure(Reason.MISSING_OUTCOME, "outcome field absent")
    outcome = normalize_outcome_token(str(raw_outcome))
    if outcome is None:
        raise ParseFailure(Reason.MISSING_OUTCOME, f"unrecognized outcome {raw_outcome!r}")

    steps_raw = obj.get("reasoning_steps") or []
    if not isinstance(steps_raw, list):
        raise ParseFailure(Reason.INVALID_STEPS, "reasoning_steps is not a list")
    steps = []
    for entry in steps_raw:
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
        p_correct = snap_confidence(p_raw)

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
