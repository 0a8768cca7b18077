import math

import pytest

from lppgate.schema import (
    ConfidenceBand,
    OutcomeLabel,
    ReasoningStep,
    ResponseTrace,
    StructuredResponse,
    TokenSpan,
    token_span,
)


def make_outcome_span(surface_logprobs, chosen_surface=None) -> TokenSpan:
    """Build a one-token outcome span from {surface: prob-or-logprob}.

    Values <= 0 are treated as logprobs, values in (0, 1] as probabilities.
    """
    candidates = [
        (surface, value if value <= 0 else math.log(value)) for surface, value in surface_logprobs.items()
    ]
    if chosen_surface is None:
        chosen = max(candidates, key=lambda c: c[1])
    else:
        chosen = next(c for c in candidates if c[0] == chosen_surface)
    return token_span([(*chosen, candidates)])


def make_trace(
    item_id="item-1",
    outcome=OutcomeLabel.YES,
    outcome_probs=None,
    reasoning_logprobs=(),
    p_correct=85,
    band=ConfidenceBand.H,
    steps=(),
    attempt=1,
):
    if outcome_probs is None:
        outcome_probs = {str(int(outcome)): 0.7, "0" if outcome else "1": 0.2, "2": 0.1}
    outcome_span = make_outcome_span(outcome_probs, chosen_surface=str(int(outcome)))
    reasoning = token_span([(" tok", lp, [(" tok", lp), (" alt", lp - 1.0)]) for lp in reasoning_logprobs])
    structured = StructuredResponse(
        outcome=outcome,
        reasoning_steps=tuple(ReasoningStep(i + 1, s) for i, s in enumerate(steps)),
        p_correct=p_correct,
        band=band,
    )
    return ResponseTrace(item_id, structured, outcome_span, reasoning, attempt=attempt)


@pytest.fixture
def trace_factory():
    return make_trace
