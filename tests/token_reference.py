"""The per-token classes that schema.TokenSpan replaced, kept as the
reference that token_span, the spans trace_from_dict reads from a trace
file's base64 float64 span records, and the feature kernels are checked
against; token_span as one loop that checks each value before it appends
and sorts, the reference for its span builder; the per-token loop that
gateway.segment_spans replaced; and the per-token function that
gateway._provider_tokens replaced."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from lppgate.gateway import OutcomeTokenNotFound
import numpy as np

from lppgate.schema import (
    LOGPROB_TOLERANCE,
    InvalidLogprob,
    Span,
    TokenSpan,
    locate_structured_fields,
    token_span,
)


def _checked_logprob(surface: str, logprob: float) -> float:
    lp = float(logprob)
    if not math.isfinite(lp):
        raise InvalidLogprob(f"non-finite logprob for {surface!r}")
    if lp > LOGPROB_TOLERANCE:
        raise InvalidLogprob(f"positive logprob {lp!r} beyond tolerance")
    return 0.0 if lp > 0.0 else lp


def token_span_reference(tokens) -> TokenSpan:
    """token_span as one loop that checks, clamps and sorts value by value."""
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
        return TokenSpan((), np.empty(0), (), np.empty((0, 0)))
    padded = np.array([r + [-math.inf] * (width - len(r)) for r in rows], dtype=float)
    return TokenSpan(tuple(chosen), np.array(chosen_lps, dtype=float), tuple(surfaces), padded)


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


def record(surface, logprob, candidates, span=Span.REASONING) -> TokenRecord:
    """The reference record for one token_span triple."""
    return TokenRecord(TokenCandidate(surface, logprob), [TokenCandidate(s, lp) for s, lp in candidates], span)


def token_records_from_dict(obj: dict) -> list[TokenRecord]:
    """One reference record per token of a trace_to_dict dict, in its
    order: what trace_from_dict built before TokenSpan."""
    return [
        TokenRecord(
            chosen=TokenCandidate(**t["chosen"]),
            candidates=[TokenCandidate(**c) for c in t.get("candidates", [])],
            span=Span(t["span"]),
        )
        for t in obj.get("tokens", [])
    ]


def span_view(span: TokenSpan) -> list:
    """Each token of a span as (chosen surface, chosen logprob, candidate
    surfaces, candidate logprobs), padding dropped; repr keeps -0.0 apart
    from 0.0."""
    rows = span.logprobs.tolist()
    return [
        (c, repr(lp), srf, repr(rows[t][: len(srf)]))
        for t, (c, lp, srf) in enumerate(zip(span.chosen, span.chosen_logprobs.tolist(), span.surfaces))
    ]


def records_view(records) -> list:
    """span_view's form for a list of reference records."""
    return [
        (
            r.chosen.surface,
            repr(r.chosen.logprob),
            tuple(c.surface for c in r.candidates),
            repr([c.logprob for c in r.candidates]),
        )
        for r in records
    ]


def segment_spans_reference(content: str, tokens) -> tuple[TokenSpan, TokenSpan]:
    """segment_spans as one loop over (surface, logprob, top) tokens,
    clamping each kept logprob with min(lp, 0.0), which turns +inf into 0."""
    spans = locate_structured_fields(content)
    if spans is None or spans.outcome_value is None:
        raise OutcomeTokenNotFound("no outcome field located in response text")
    outcome_pos = spans.outcome_value[0]
    reasoning_array = spans.reasoning_array

    outcome: list = []  # at most one token
    reasoning: list = []
    offset = 0
    for surface, logprob, top in tokens:
        start, end = offset, offset + len(surface)
        offset = end
        if start <= outcome_pos < end and not outcome:
            span = outcome
        elif reasoning_array is not None and start < reasoning_array[1] and end > reasoning_array[0]:
            span = reasoning
        else:
            continue
        span.append((surface, min(logprob, 0.0), [(s, min(lp, 0.0)) for s, lp in top]))
    if not outcome:
        raise OutcomeTokenNotFound("token stream does not cover the outcome field value")
    return token_span(outcome), token_span(reasoning)


def provider_token_reference(token, surface_key: str, top_key: str) -> tuple:
    """gateway._provider_tokens for one token, as the per-token function it
    was: each logprob made a float, and a finite positive one clamped to 0."""
    surface, logprob, top = token[surface_key], token["logprob"], iter(token.get(top_key, ()))
    lp = float(logprob)
    return (
        surface,
        0.0 if 0.0 < lp < math.inf else lp,
        tuple([(c[surface_key], 0.0 if 0.0 < (f := float(c["logprob"])) < math.inf else f) for c in top]),
    )
