"""Provider-agnostic inference gateway with token-logprob capture.

Renders prompt templates, dispatches chat-completion requests under fixed
deterministic decoding (temperature 0, top-p 1, n 1, 8096 max output
tokens, top-20 logprobs per token), decodes each response once, segments
its token stream into outcome and reasoning spans by JSON field position,
and writes response-trace JSONL.

The malformed-output retry contract is ``_run_one``'s loop: an item is
requested at most ``schema.MAX_ATTEMPTS`` times (one attempt plus three
byte-identical retries). The first attempt that parses and segments is its
trace; after the last failed one it gives up with that failure's kind.

A token has one shape from provider to trace: the ``(surface, logprob,
((surface, logprob), ...))`` triple that ``schema.token_span`` takes. Both
providers build a response's triples with ``_provider_tokens``, the one
place that clamps a finite positive provider logprob to 0; nan and ±inf
reach ``token_span``.

Transport failures retry with bounded backoff on a budget independent of
the malformed-output budget. A transport failure that outlives that
budget, or a request the provider rejects, is recorded as that item's
give-up; only an authentication failure aborts the run. Every item ends
as a trace or as one schema.Reason. A fixture-backed stub provider ships
in-repo so the whole pipeline runs with zero network access.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import os
import re
import time
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

from .schema import (
    MAX_ATTEMPTS,
    FieldSpans,
    InvalidLogprob,
    ParseFailure,
    Reason,
    ResponseTrace,
    TokenSpan,
    check_item_ids,
    locate_structured_fields,
    parse_structured_response,
    token_span,
)

__all__ = [
    "DecodingConfig",
    "DEFAULT_DECODING",
    "PromptTemplate",
    "Request",
    "ProviderResponse",
    "TransportError",
    "AuthFailure",
    "ProviderRejected",
    "ProviderNoLogprobs",
    "MissingPlaceholder",
    "OutcomeTokenNotFound",
    "StubProvider",
    "HttpProvider",
    "TEMPLATE_IDS",
    "load_template",
    "render_prompt",
    "dispatch",
    "segment_spans",
    "run_inference",
    "InferenceResult",
]

DEFAULT_API_KEY_ENV = "LPP_API_KEY"

TEMPLATE_IDS = ("text-direct", "text-cot", "multimodal-direct", "multimodal-cot")

#: Placeholder token -> item field name. The video-frames placeholder keeps
#: its literal backslash as it appears in the template files.
PLACEHOLDER_FIELDS = {
    "{{TEXT}}": "text",
    "{{TRANSCRIPT}}": "transcript",
    "{{THUMBNAIL}}": "thumbnail",
    "{{VIDEO\\FRAMES}}": "video_frames",
    "{{CONCEPT_DEFINITION}}": "concept_definition",
}
_PLACEHOLDER = re.compile("|".join(map(re.escape, PLACEHOLDER_FIELDS)))


class TransportError(RuntimeError):
    pass


class AuthFailure(RuntimeError):
    pass


class ProviderRejected(RuntimeError):
    """The provider refused the request itself (a 4xx other than 401, 403
    or 429); resending it unchanged cannot succeed, so it is not retried."""


class ProviderNoLogprobs(RuntimeError):
    """The provider cannot return token logprobs; the item is marked
    gray-box-unavailable and flagged for default escalation downstream."""


class MissingPlaceholder(ValueError):
    """An item lacks a field its template needs; that item gives up with
    Reason.MISSING_FIELD without a request being sent."""


class OutcomeTokenNotFound(ValueError):
    """No token aligns with the outcome field value; the trace is rejected
    and re-requested through the normal retry path."""


@dataclass(frozen=True)
class DecodingConfig:
    temperature: float = 0.0
    top_p: float = 1.0
    n: int = 1
    max_output_tokens: int = 8096
    top_logprobs: int = 20


DEFAULT_DECODING = DecodingConfig()


def _split_at_placeholders(text: str) -> tuple[str, ...]:
    """``text`` split at its placeholders: the literal pieces at even
    positions, each placeholder between them at the odd ones."""
    return tuple(re.split(f"({_PLACEHOLDER.pattern})", text))


@dataclass(frozen=True)
class PromptTemplate:
    """A prompt template, with its placeholders and the pieces of its two
    messages worked out once, when it is made."""

    id: str
    system: str
    user: str
    cot: bool
    _placeholders: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _pieces: tuple[tuple[str, ...], tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        body = self.system + "\n\n" + self.user
        object.__setattr__(self, "_placeholders", tuple(p for p in PLACEHOLDER_FIELDS if p in body))
        object.__setattr__(self, "_pieces", (_split_at_placeholders(self.system), _split_at_placeholders(self.user)))


@dataclass(frozen=True)
class Request:
    item_id: str
    messages: tuple[dict, dict]  # (system, user)
    decoding: DecodingConfig


@dataclass(frozen=True)
class ProviderResponse:
    content: str
    tokens: tuple[tuple, ...]  # _provider_tokens triples, in stream order


#: math.inf as one global, since _provider_tokens reads it once per logprob.
_INF = math.inf


def _provider_tokens(tokens: Iterable[Mapping], surface_key: str, top_key: str) -> tuple[tuple, ...]:
    """A provider's tokens as token_span triples, in stream order: each
    token's ``token[surface_key]``, its logprob, and one (surface, logprob)
    pair per entry of ``token[top_key]`` (none when absent). Each logprob
    is made a float, and a finite positive one is clamped to 0.

    One comprehension over the whole response, with no call per token: a
    per-token function costs more than its float() and clamp (on a 2-core
    x86 host, 33 against 29 µs per response of perfbench's route inputs,
    and a fast test that skips float() for floats only adds to that)."""
    return tuple([
        (
            t[surface_key],
            0.0 if 0.0 < (lp := float(t["logprob"])) < _INF else lp,
            tuple([(c[surface_key], 0.0 if 0.0 < (f := float(c["logprob"])) < _INF else f) for c in t.get(top_key, ())]),
        )
        for t in tokens
    ])


def load_template(template_id: str) -> PromptTemplate:
    if template_id not in TEMPLATE_IDS:
        raise ValueError(f"unknown template {template_id!r}; have {TEMPLATE_IDS}")
    data = importlib.resources.files("lppgate.templates").joinpath(f"{template_id}.json")
    obj = json.loads(data.read_text(encoding="utf-8"))
    return PromptTemplate(id=obj["id"], system=obj["system"], user=obj["user"], cot=obj["cot"])


def render_prompt(template: PromptTemplate, fields: Mapping[str, str]) -> tuple[dict, dict]:
    """Byte-deterministic placeholder substitution into the (system, user)
    chat messages.

    Every placeholder appearing in the template must have a non-None value
    in ``fields`` (media are passed as opaque URIs); otherwise
    MissingPlaceholder is raised. All placeholders are filled in one pass,
    so a value is inserted verbatim even when it contains placeholder text.
    """
    values = {}
    for placeholder in template._placeholders:
        key = PLACEHOLDER_FIELDS[placeholder]
        value = fields.get(key)
        if value is None:
            raise MissingPlaceholder(f"template {template.id!r} needs field {key!r}")
        values[placeholder] = str(value)
    system, user = (
        "".join([values[piece] if i % 2 else piece for i, piece in enumerate(pieces)]) for pieces in template._pieces
    )
    return {"role": "system", "content": system}, {"role": "user", "content": user}


class StubProvider:
    """Fixture-backed provider: scripted responses per item, consumed one
    per attempt. Fixture values may be plain payload dicts or
    {"transport_error": true} markers for transport-retry tests."""

    def __init__(self, fixtures: Mapping[str, Sequence[dict]]):
        self._queues = {item: list(responses) for item, responses in fixtures.items()}

    @classmethod
    def from_file(cls, path) -> "StubProvider":
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    def complete(self, request: Request) -> ProviderResponse:
        queue = self._queues.get(request.item_id)
        if not queue:
            raise TransportError(f"no scripted response left for {request.item_id!r}")
        # The final scripted entry keeps echoing, so a single fixture serves
        # any number of attempts.
        payload = queue.pop(0) if len(queue) > 1 else queue[0]
        if payload.get("transport_error"):
            raise TransportError("scripted transport error")
        raw_tokens = payload.get("tokens")
        if raw_tokens is None:
            raise ProviderNoLogprobs(f"no logprobs scripted for {request.item_id!r}")
        tokens = _provider_tokens(raw_tokens, "surface", "top")
        return ProviderResponse(content=payload["content"], tokens=tokens)


class HttpProvider:
    """JSON-over-HTTP chat-completion adapter with per-token logprob fields.

    Credentials come from an environment variable (LPP_API_KEY by default).
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout: float = 60.0,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout

    def complete(self, request: Request) -> ProviderResponse:
        import requests

        api_key = os.environ.get(self.api_key_env, "")
        if not api_key:
            raise AuthFailure(f"missing credentials in ${self.api_key_env}")
        d = request.decoding
        payload = {
            "model": self.model,
            "messages": list(request.messages),
            "temperature": d.temperature,
            "top_p": d.top_p,
            "n": d.n,
            "max_tokens": d.max_output_tokens,
            "logprobs": True,
            "top_logprobs": d.top_logprobs,
        }
        try:
            resp = requests.post(
                f"{self.endpoint}/chat/completions",
                json=payload,
                headers={"Authorization": f"Bearer {api_key}"},
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise TransportError(str(exc)) from exc
        if resp.status_code in (401, 403):
            raise AuthFailure(f"provider rejected credentials (HTTP {resp.status_code})")
        if resp.status_code >= 500 or resp.status_code == 429:
            raise TransportError(f"HTTP {resp.status_code}")
        if 400 <= resp.status_code < 500:
            raise ProviderRejected(f"HTTP {resp.status_code}: {resp.text[:200]}")
        if resp.status_code != 200:
            raise TransportError(f"unexpected HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            choice = resp.json()["choices"][0]
            content = choice["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"message content is {type(content).__name__}, not str")
            logprobs = (choice.get("logprobs") or {}).get("content")
            if not logprobs:
                raise ProviderNoLogprobs("provider response carries no token logprobs")
            tokens = _provider_tokens(logprobs, "token", "top_logprobs")
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            raise TransportError(f"malformed response body: {exc!r}") from exc
        return ProviderResponse(content=content, tokens=tokens)


def dispatch(
    request: Request,
    provider,
    max_transport_retries: int = 3,
    sleep: Callable[[float], None] = time.sleep,
) -> ProviderResponse:
    """Send one request, retrying transport errors with bounded backoff.

    This budget is independent of the malformed-output retry budget. Any
    other error, such as AuthFailure or ProviderRejected, propagates at once.
    """
    last: TransportError | None = None
    for attempt in range(max_transport_retries + 1):
        try:
            return provider.complete(request)
        except TransportError as exc:
            last = exc
            if attempt < max_transport_retries:
                sleep(0.25 * (2**attempt))
    raise last


def segment_spans(fields: FieldSpans, tokens: Sequence[tuple]) -> tuple[TokenSpan, TokenSpan]:
    """Split token triples into the (outcome, reasoning) spans by the JSON
    field positions that ``locate_structured_fields`` found in the text.

    Character offsets come from accumulating token surface lengths (a
    deterministic re-tokenization alignment against the raw text). The
    token covering the first character of the outcome field's value is the
    outcome span's single token; the other tokens overlapping the
    reasoning_steps array (zero-length ones strictly inside it included)
    form the reasoning span, in stream order; the rest are dropped.
    """
    if fields.outcome_value is None:
        raise OutcomeTokenNotFound("no outcome field located in response text")
    # offsets[i] and offsets[i + 1] are where token i starts and ends.
    offsets = list(accumulate((len(t[0]) for t in tokens), initial=0))
    n = len(tokens)
    o = bisect_right(offsets, fields.outcome_value[0]) - 1
    if o >= n:
        raise OutcomeTokenNotFound("token stream does not cover the outcome field value")
    outcome = token_span((tokens[o],))
    if fields.reasoning_array is None:
        return outcome, token_span(())
    start, end = fields.reasoning_array
    lo = bisect_right(offsets, start) - 1  # first token ending after start
    hi = bisect_left(offsets, end, 0, n)  # tokens from here on start at or after end
    run = tokens[lo:o] + tokens[o + 1 : hi] if lo <= o < hi else tokens[lo:hi]
    return outcome, token_span(run)


@dataclass
class InferenceResult:
    traces: list[ResponseTrace]
    reasons: dict[str, tuple[Reason, int]] = field(default_factory=dict)  # item_id -> (reason, attempts)


def _run_one(
    item: Mapping,
    template: PromptTemplate,
    provider,
    decoding: DecodingConfig,
    max_transport_retries: int,
    sleep: Callable[[float], None],
) -> ResponseTrace | tuple[Reason, int]:
    """The item's trace, or its reason and the number of attempts made."""
    item_id = str(item["item_id"])
    try:
        request = Request(item_id, render_prompt(template, item), decoding)
    except MissingPlaceholder:
        return Reason.MISSING_FIELD, 0
    expected_steps = 3 if template.cot else 0

    for attempt in range(1, MAX_ATTEMPTS + 1):
        try:
            response = dispatch(request, provider, max_transport_retries, sleep)
        except ProviderNoLogprobs:
            return Reason.NO_LOGPROBS, attempt
        except (TransportError, ProviderRejected) as exc:
            return (Reason.TRANSPORT if isinstance(exc, TransportError) else Reason.REJECTED), attempt
        try:
            fields = locate_structured_fields(response.content)
            structured = parse_structured_response(fields, expect_steps=expected_steps)
            spans = segment_spans(fields, response.tokens)
        except ParseFailure as exc:
            reason = exc.kind
        except InvalidLogprob:
            reason = Reason.INVALID_LOGPROB
        except OutcomeTokenNotFound:
            reason = Reason.OUTCOME_TOKEN_NOT_FOUND
        else:
            return ResponseTrace(item_id, structured, *spans, attempt=attempt)
    return reason, MAX_ATTEMPTS


def run_inference(
    items: Sequence[Mapping],
    template: PromptTemplate,
    provider,
    decoding: DecodingConfig = DEFAULT_DECODING,
    allow_decoding_override: bool = False,
    max_transport_retries: int = 3,
    pool_width: int = 4,
    sleep: Callable[[float], None] = time.sleep,
) -> InferenceResult:
    """Run the inference loop over items: each becomes a trace, or one
    schema.Reason with its attempt count.

    Item ids must pass schema.check_item_ids, since the result holds one
    reason per id: an id it refuses is a ValueError before any request.
    Per-item retries are sequential; items run on a bounded thread pool
    and the results are sorted by item_id, so re-running against the stub
    provider is byte-identical. The retry contract is ``_run_one``'s loop
    (see the module docstring); a response with a nan or infinite token
    logprob is a failed attempt under it. An item lacking a field the
    template needs gives up after 0 attempts. An AuthFailure aborts the
    run. Non-default decoding values require the explicit override flag
    (recorded in the run manifest by the caller).
    """
    if decoding != DEFAULT_DECODING and not allow_decoding_override:
        raise ValueError(
            "non-default decoding configuration requires allow_decoding_override"
        )
    ids = [str(item["item_id"]) for item in items]
    check_item_ids(ids, "the items")

    def work(item):
        return _run_one(item, template, provider, decoding, max_transport_retries, sleep)

    if pool_width > 1:
        with ThreadPoolExecutor(max_workers=pool_width) as pool:
            outcomes = list(pool.map(work, items))
    else:
        outcomes = [work(item) for item in items]

    result = InferenceResult(traces=[])
    for item_id, outcome in sorted(zip(ids, outcomes), key=lambda pair: pair[0]):
        if isinstance(outcome, ResponseTrace):
            result.traces.append(outcome)
        else:
            result.reasons[item_id] = outcome
    return result
