"""Provider-agnostic inference gateway with token-logprob capture.

Renders prompt templates, dispatches chat-completion requests under fixed
deterministic decoding (temperature 0, top-p 1, n 1, 8096 max output
tokens, top-20 logprobs per token), enforces the malformed-output retry
contract (byte-identical re-requests, at most three retries), segments the
returned token stream into outcome and reasoning spans by JSON field
position, and writes response-trace JSONL.

Transport failures retry with bounded backoff on a budget independent of
the malformed-output budget. A fixture-backed stub provider ships in-repo
so the whole pipeline runs with zero network access.
"""

from __future__ import annotations

import importlib.resources
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .schema import (
    FieldSpans,
    ParseFailure,
    ResponseTrace,
    RetryDecision,
    Span,
    StructuredResponse,
    TokenCandidate,
    TokenRecord,
    decide_retry,
    locate_structured_fields,
    parse_structured_response,
)

__all__ = [
    "DecodingConfig",
    "DEFAULT_DECODING",
    "PromptTemplate",
    "RenderedPrompt",
    "Request",
    "RawToken",
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


class MissingPlaceholder(KeyError):
    pass


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


@dataclass(frozen=True)
class PromptTemplate:
    id: str
    system: str
    user: str
    cot: bool

    @property
    def body(self) -> str:
        return self.system + "\n\n" + self.user

    def placeholders(self) -> list[str]:
        return [p for p in PLACEHOLDER_FIELDS if p in self.body]


@dataclass(frozen=True)
class RenderedPrompt:
    messages: tuple[dict, ...]


@dataclass(frozen=True)
class Request:
    item_id: str
    prompt: RenderedPrompt
    decoding: DecodingConfig


@dataclass(frozen=True)
class RawToken:
    surface: str
    logprob: float
    top: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True)
class ProviderResponse:
    content: str
    tokens: tuple[RawToken, ...]


def load_template(template_id: str) -> PromptTemplate:
    if template_id not in TEMPLATE_IDS:
        raise ValueError(f"unknown template {template_id!r}; have {TEMPLATE_IDS}")
    data = importlib.resources.files("lppgate.templates").joinpath(f"{template_id}.json")
    obj = json.loads(data.read_text(encoding="utf-8"))
    return PromptTemplate(id=obj["id"], system=obj["system"], user=obj["user"], cot=obj["cot"])


def render_prompt(template: PromptTemplate, fields: Mapping[str, str]) -> RenderedPrompt:
    """Byte-deterministic placeholder substitution.

    Every placeholder appearing in the template must have a non-None value
    in ``fields`` (media are passed as opaque URIs); otherwise
    MissingPlaceholder is raised.
    """
    system, user = template.system, template.user
    for placeholder in template.placeholders():
        key = PLACEHOLDER_FIELDS[placeholder]
        value = fields.get(key)
        if value is None:
            raise MissingPlaceholder(f"template {template.id!r} needs field {key!r}")
        system = system.replace(placeholder, str(value))
        user = user.replace(placeholder, str(value))
    return RenderedPrompt(
        messages=(
            {"role": "system", "content": system},
            {"role": "user", "content": user},
        )
    )


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
        tokens = tuple(
            RawToken(
                surface=t["surface"],
                logprob=float(t["logprob"]),
                top=tuple((c["surface"], float(c["logprob"])) for c in t.get("top", [])),
            )
            for t in raw_tokens
        )
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
            "messages": list(request.prompt.messages),
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
            tokens = tuple(
                RawToken(
                    surface=t["token"],
                    logprob=float(t["logprob"]),
                    top=tuple(
                        (c["token"], float(c["logprob"])) for c in t.get("top_logprobs", [])
                    ),
                )
                for t in logprobs
            )
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


def _clamped_candidate(surface: str, logprob: float) -> TokenCandidate:
    return TokenCandidate(surface, min(logprob, 0.0))


def segment_spans(
    content: str,
    tokens: Sequence[RawToken],
    spans: FieldSpans | None = None,
) -> list[TokenRecord]:
    """Tag tokens as outcome or reasoning by JSON field position.

    Character offsets come from accumulating token surface lengths (a
    deterministic re-tokenization alignment against the raw text). The
    token covering the first character of the outcome field's value is the
    single outcome record; tokens overlapping the reasoning_steps array are
    reasoning records; everything else is dropped from feature extraction.
    """
    if spans is None:
        spans = locate_structured_fields(content)
    if spans is None or spans.outcome_value is None:
        raise OutcomeTokenNotFound("no outcome field located in response text")
    outcome_pos = spans.outcome_value[0]
    reasoning = spans.reasoning_array

    records: list[TokenRecord] = []
    offset = 0
    outcome_found = False
    for tok in tokens:
        start, end = offset, offset + len(tok.surface)
        offset = end
        span = None
        if start <= outcome_pos < end and not outcome_found:
            span = Span.OUTCOME
            outcome_found = True
        elif reasoning is not None and start < reasoning[1] and end > reasoning[0]:
            span = Span.REASONING
        if span is None:
            continue
        chosen = _clamped_candidate(tok.surface, tok.logprob)
        candidates = [_clamped_candidate(s, lp) for s, lp in tok.top]
        records.append(TokenRecord(chosen=chosen, candidates=candidates, span=span))
    if not outcome_found:
        raise OutcomeTokenNotFound("token stream does not cover the outcome field value")
    return records


@dataclass
class InferenceResult:
    traces: list[ResponseTrace]
    give_ups: list[dict] = field(default_factory=list)
    no_logprobs: list[str] = field(default_factory=list)


def _run_one(
    item: Mapping,
    template: PromptTemplate,
    provider,
    decoding: DecodingConfig,
    max_transport_retries: int,
    sleep: Callable[[float], None],
) -> tuple[ResponseTrace | None, dict | None, str | None]:
    """Returns (trace, give_up record, no-logprobs item id); one is set."""
    item_id = str(item["item_id"])
    prompt = render_prompt(template, item)
    request = Request(item_id=item_id, prompt=prompt, decoding=decoding)
    expected_steps = 3 if template.cot else 0

    attempt = 0
    while True:
        attempt += 1
        try:
            response = dispatch(request, provider, max_transport_retries, sleep)
        except ProviderNoLogprobs:
            return None, None, item_id
        failure: Exception | None = None
        structured: StructuredResponse | None = None
        records: list[TokenRecord] | None = None
        try:
            structured = parse_structured_response(response.content, expect_steps=expected_steps)
            records = segment_spans(response.content, response.tokens)
        except (ParseFailure, OutcomeTokenNotFound) as exc:
            failure = exc

        decision = decide_retry(attempt, failure)
        if decision is RetryDecision.ACCEPT:
            return ResponseTrace(item_id, structured, records, attempt=attempt), None, None
        if decision is RetryDecision.GIVE_UP:
            kind = failure.kind.value if isinstance(failure, ParseFailure) else "outcome_token_not_found"
            return None, {"item_id": item_id, "attempts": attempt, "failure": kind}, None
        # RETRY: byte-identical re-request under deterministic decoding


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
    """Run the inference loop over items and collect accepted traces.

    Per-item retries are sequential; items run on a bounded thread pool and
    the results are sorted by item_id, so re-running against the stub
    provider is byte-identical. Non-default decoding values require the
    explicit override flag (recorded in the run manifest by the caller).
    """
    if decoding != DEFAULT_DECODING and not allow_decoding_override:
        raise ValueError(
            "non-default decoding configuration requires allow_decoding_override"
        )
    result = InferenceResult(traces=[])

    def work(item):
        return _run_one(item, template, provider, decoding, max_transport_retries, sleep)

    if pool_width > 1:
        with ThreadPoolExecutor(max_workers=pool_width) as pool:
            outcomes = list(pool.map(work, items))
    else:
        outcomes = [work(item) for item in items]

    for trace, give_up, no_lp in outcomes:
        if trace is not None:
            result.traces.append(trace)
        elif give_up is not None:
            result.give_ups.append(give_up)
        elif no_lp is not None:
            result.no_logprobs.append(no_lp)
    result.traces.sort(key=lambda t: t.item_id)
    result.give_ups.sort(key=lambda g: g["item_id"])
    result.no_logprobs.sort()
    return result
