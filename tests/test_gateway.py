import http.server
import json
import math
import threading

import pytest

from lppgate.gateway import (
    DEFAULT_DECODING,
    AuthFailure,
    DecodingConfig,
    HttpProvider,
    MissingPlaceholder,
    OutcomeTokenNotFound,
    ProviderNoLogprobs,
    ProviderRejected,
    Request,
    StubProvider,
    TEMPLATE_IDS,
    TransportError,
    dispatch,
    load_template,
    render_prompt,
    run_inference,
    segment_spans,
    RawToken,
)
from lppgate.schema import OutcomeLabel, Span, locate_structured_fields

NO_SLEEP = lambda _: None  # noqa: E731


def make_payload(content, outcome_top=None, reasoning_logprob=-0.3):
    """Stub payload whose tokens concatenate exactly to the content; the
    outcome digit gets its own token with the given top candidates."""
    spans = locate_structured_fields(content)
    vs = spans.outcome_value[0]
    pieces = [content[:vs], content[vs : vs + 1], content[vs + 1 :]]
    top = outcome_top or [
        {"surface": content[vs : vs + 1], "logprob": math.log(0.7)},
        {"surface": "0", "logprob": math.log(0.2)},
        {"surface": "2", "logprob": math.log(0.1)},
    ]
    tokens = []
    for i, piece in enumerate(pieces):
        if not piece:
            continue
        entry = {"surface": piece, "logprob": -0.05 if i != 1 else top[0]["logprob"]}
        if i == 1:
            entry["top"] = top
        elif spans.reasoning_array:
            entry["logprob"] = reasoning_logprob
        tokens.append(entry)
    return {"content": content, "tokens": tokens}


VALID_CONTENT = '{"outcome": "1", "p_correct": 85, "band": "H"}'


def valid_payload():
    return make_payload(VALID_CONTENT)


class TestTemplates:
    def test_all_templates_load(self):
        for template_id in TEMPLATE_IDS:
            t = load_template(template_id)
            assert t.id == template_id
            assert ("cot" in template_id) == t.cot

    def test_unknown_template(self):
        with pytest.raises(ValueError):
            load_template("nope")

    def test_text_direct_render(self):
        t = load_template("text-direct")
        r = render_prompt(t, {"text": "abc", "concept_definition": "no weapons"})
        assert "--- CONTENT START ---\nabc" in r.messages[1]["content"]
        assert "no weapons" in r.messages[0]["content"]
        assert "{{" not in r.messages[0]["content"] + r.messages[1]["content"]

    def test_multimodal_requires_all_fields(self):
        t = load_template("multimodal-direct")
        fields = {
            "text": "t",
            "thumbnail": "gs://thumb",
            "video_frames": "gs://frames",
            "concept_definition": "def",
        }
        with pytest.raises(MissingPlaceholder):
            render_prompt(t, fields)  # transcript missing
        fields["transcript"] = "hello"
        r = render_prompt(t, fields)
        assert "<TRANSCRIPT> hello </TRANSCRIPT>" in r.messages[1]["content"]

    def test_render_deterministic(self):
        t = load_template("text-cot")
        fields = {"text": "abc", "concept_definition": "def"}
        assert render_prompt(t, fields) == render_prompt(t, fields)


class TestSegmentSpans:
    def test_single_outcome_record(self):
        payload = valid_payload()
        records = segment_spans(payload["content"], [RawToken(t["surface"], t["logprob"], tuple((c["surface"], c["logprob"]) for c in t.get("top", ()))) for t in payload["tokens"]])
        outcome = [r for r in records if r.span is Span.OUTCOME]
        assert len(outcome) == 1
        assert outcome[0].chosen.surface == "1"
        assert len(outcome[0].candidates) == 3

    def test_direct_answer_has_no_reasoning_records(self):
        payload = valid_payload()
        records = segment_spans(
            payload["content"],
            [RawToken(t["surface"], t["logprob"]) for t in payload["tokens"]],
        )
        assert [r.span for r in records] == [Span.OUTCOME]

    def test_digit_inside_reasoning_not_tagged_outcome(self):
        content = (
            '{"reasoning_steps": [{"step_number": 1, "description": "maybe 1"}], "outcome": "1"}'
        )
        spans = locate_structured_fields(content)
        vs = spans.outcome_value[0]
        pieces = [content[:vs], content[vs : vs + 1], content[vs + 1 :]]
        records = segment_spans(content, [RawToken(p, -0.2) for p in pieces if p])
        assert [r.span for r in records] == [Span.REASONING, Span.OUTCOME]
        assert records[1].chosen.surface == "1"

    def test_tokens_not_covering_outcome(self):
        content = VALID_CONTENT
        with pytest.raises(OutcomeTokenNotFound):
            segment_spans(content, [RawToken(content[:3], -0.1)])


class TestStubAndDispatch:
    def test_canned_response_round_trips(self):
        provider = StubProvider({"item-1": [valid_payload()]})
        template = load_template("text-direct")
        result = run_inference(
            [{"item_id": "item-1", "text": "abc", "concept_definition": "d"}],
            template,
            provider,
            sleep=NO_SLEEP,
        )
        assert len(result.traces) == 1
        trace = result.traces[0]
        assert trace.attempt == 1
        assert trace.structured.outcome is OutcomeLabel.YES
        assert trace.structured.p_correct == 85
        assert trace.outcome_record().chosen.surface == "1"

    def test_transport_retries_do_not_consume_parse_budget(self):
        provider = StubProvider(
            {"item-1": [{"transport_error": True}, {"transport_error": True}, valid_payload()]}
        )
        template = load_template("text-direct")
        result = run_inference(
            [{"item_id": "item-1", "text": "abc", "concept_definition": "d"}],
            template,
            provider,
            sleep=NO_SLEEP,
        )
        assert result.traces[0].attempt == 1

    def test_transport_budget_exhausts(self):
        provider = StubProvider({"item-1": [{"transport_error": True}]})
        request = Request("item-1", render_prompt(load_template("text-direct"), {"text": "x", "concept_definition": "d"}), DEFAULT_DECODING)
        with pytest.raises(TransportError):
            dispatch(request, provider, max_transport_retries=2, sleep=NO_SLEEP)

    def test_three_malformed_then_valid_accepted_at_attempt_four(self):
        malformed = {"content": "not json at all", "tokens": []}
        provider = StubProvider({"item-1": [malformed, malformed, malformed, valid_payload()]})
        template = load_template("text-direct")
        result = run_inference(
            [{"item_id": "item-1", "text": "abc", "concept_definition": "d"}],
            template,
            provider,
            sleep=NO_SLEEP,
        )
        assert len(result.traces) == 1
        assert result.traces[0].attempt == 4
        assert not result.give_ups

    def test_four_malformed_gives_up(self):
        malformed = {"content": "not json at all", "tokens": []}
        provider = StubProvider({"item-1": [malformed]})
        template = load_template("text-direct")
        result = run_inference(
            [{"item_id": "item-1", "text": "abc", "concept_definition": "d"}],
            template,
            provider,
            sleep=NO_SLEEP,
        )
        assert not result.traces
        assert result.give_ups == [
            {"item_id": "item-1", "attempts": 4, "failure": "malformed_json"}
        ]

    def test_no_logprobs_flagged(self):
        provider = StubProvider({"item-1": [{"content": VALID_CONTENT, "tokens": None}]})
        template = load_template("text-direct")
        result = run_inference(
            [{"item_id": "item-1", "text": "abc", "concept_definition": "d"}],
            template,
            provider,
            sleep=NO_SLEEP,
        )
        assert result.no_logprobs == ["item-1"]
        assert not result.traces

    def test_from_file(self, tmp_path):
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps({"item-1": [valid_payload()]}))
        provider = StubProvider.from_file(path)
        template = load_template("text-direct")
        result = run_inference(
            [{"item_id": "item-1", "text": "abc", "concept_definition": "d"}],
            template,
            provider,
            sleep=NO_SLEEP,
        )
        assert len(result.traces) == 1


class TestRunInference:
    def _items(self, n):
        return [{"item_id": f"it-{i:02d}", "text": "x", "concept_definition": "d"} for i in range(n)]

    def test_rerun_byte_identical(self, tmp_path):
        from lppgate.schema import write_traces_jsonl

        fixtures = {f"it-{i:02d}": [valid_payload()] for i in range(6)}
        template = load_template("text-direct")
        paths = []
        for run in range(2):
            provider = StubProvider(fixtures)
            result = run_inference(self._items(6), template, provider, pool_width=3, sleep=NO_SLEEP)
            path = tmp_path / f"run{run}.jsonl"
            write_traces_jsonl(result.traces, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_traces_sorted_by_item_id(self):
        fixtures = {f"it-{i:02d}": [valid_payload()] for i in range(5)}
        template = load_template("text-direct")
        items = list(reversed(self._items(5)))
        result = run_inference(items, template, StubProvider(fixtures), sleep=NO_SLEEP)
        ids = [t.item_id for t in result.traces]
        assert ids == sorted(ids)

    def test_decoding_override_requires_flag(self):
        template = load_template("text-direct")
        custom = DecodingConfig(temperature=0.7)
        with pytest.raises(ValueError, match="override"):
            run_inference(self._items(1), template, StubProvider({}), decoding=custom, sleep=NO_SLEEP)

    def test_decoding_override_with_flag(self):
        fixtures = {"it-00": [valid_payload()]}
        template = load_template("text-direct")
        result = run_inference(
            self._items(1),
            template,
            StubProvider(fixtures),
            decoding=DecodingConfig(temperature=0.7),
            allow_decoding_override=True,
            sleep=NO_SLEEP,
        )
        assert len(result.traces) == 1


def _chat_body(payload):
    """Wrap a stub payload in the chat-completion wire shape."""
    logprob_content = [
        {
            "token": t["surface"],
            "logprob": t["logprob"],
            "top_logprobs": [
                {"token": c["surface"], "logprob": c["logprob"]} for c in t.get("top", [])
            ],
        }
        for t in payload["tokens"]
    ]
    return {
        "choices": [
            {
                "message": {"content": payload["content"]},
                "logprobs": {"content": logprob_content},
            }
        ]
    }


class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    script: list = []
    seen: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        type(self).seen.append((self.path, self.headers.get("Authorization"), body))
        status, response = (
            type(self).script.pop(0) if len(type(self).script) > 1 else type(self).script[0]
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        # bytes go out as they are, to script bodies that are not JSON
        self.wfile.write(response if isinstance(response, bytes) else json.dumps(response).encode())

    def log_message(self, *args):  # keep test output quiet
        pass


@pytest.fixture
def http_endpoint():
    _ScriptedHandler.script = []
    _ScriptedHandler.seen = []
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}", _ScriptedHandler
    server.shutdown()


class TestHttpProvider:
    def _request(self):
        prompt = render_prompt(
            load_template("text-direct"), {"text": "x", "concept_definition": "d"}
        )
        return Request("item-1", prompt, DEFAULT_DECODING)

    def test_happy_path_and_wire_format(self, http_endpoint, monkeypatch):
        endpoint, handler = http_endpoint
        monkeypatch.setenv("LPP_API_KEY", "secret-key")
        handler.script.append((200, _chat_body(valid_payload())))
        provider = HttpProvider(endpoint, model="test-model")
        response = provider.complete(self._request())
        assert response.content == VALID_CONTENT
        assert response.tokens[1].surface == "1"
        assert len(response.tokens[1].top) == 3

        path, auth, body = handler.seen[0]
        assert path == "/chat/completions"
        assert auth == "Bearer secret-key"
        assert body["temperature"] == 0.0 and body["top_p"] == 1.0 and body["n"] == 1
        assert body["max_tokens"] == 8096
        assert body["logprobs"] is True and body["top_logprobs"] == 20

    def test_missing_credentials(self, http_endpoint, monkeypatch):
        endpoint, _ = http_endpoint
        monkeypatch.delenv("LPP_API_KEY", raising=False)
        with pytest.raises(AuthFailure, match="LPP_API_KEY"):
            HttpProvider(endpoint, model="m").complete(self._request())

    def test_rejected_credentials(self, http_endpoint, monkeypatch):
        endpoint, handler = http_endpoint
        monkeypatch.setenv("LPP_API_KEY", "bad")
        handler.script.append((401, {}))
        with pytest.raises(AuthFailure):
            HttpProvider(endpoint, model="m").complete(self._request())

    def test_server_error_retried_by_dispatch(self, http_endpoint, monkeypatch):
        endpoint, handler = http_endpoint
        monkeypatch.setenv("LPP_API_KEY", "k")
        handler.script.extend([(500, {}), (200, _chat_body(valid_payload()))])
        provider = HttpProvider(endpoint, model="m")
        response = dispatch(self._request(), provider, max_transport_retries=2, sleep=NO_SLEEP)
        assert response.content == VALID_CONTENT

    def test_no_logprobs_raises(self, http_endpoint, monkeypatch):
        endpoint, handler = http_endpoint
        monkeypatch.setenv("LPP_API_KEY", "k")
        handler.script.append((200, {"choices": [{"message": {"content": VALID_CONTENT}}]}))
        with pytest.raises(ProviderNoLogprobs):
            HttpProvider(endpoint, model="m").complete(self._request())

    @pytest.mark.parametrize("status", [400, 404, 422])
    def test_client_error_rejected_without_retry(self, http_endpoint, monkeypatch, status):
        endpoint, handler = http_endpoint
        monkeypatch.setenv("LPP_API_KEY", "k")
        handler.script.append((status, {"error": "bad request"}))
        provider = HttpProvider(endpoint, model="m")
        with pytest.raises(ProviderRejected, match=str(status)):
            dispatch(self._request(), provider, max_transport_retries=3, sleep=NO_SLEEP)
        assert len(handler.seen) == 1

    @pytest.mark.parametrize(
        "body",
        [
            b"<html>gateway timeout</html>",
            {"error": "no choices"},
            {"choices": []},
            {"choices": [{"message": {}}]},
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": VALID_CONTENT}, "logprobs": {"content": [{}]}}]},
        ],
        ids=["not-json", "no-choices", "empty-choices", "no-content", "null-content", "bad-token"],
    )
    def test_malformed_body_is_retried_transport_error(self, http_endpoint, monkeypatch, body):
        endpoint, handler = http_endpoint
        monkeypatch.setenv("LPP_API_KEY", "k")
        handler.script.append((200, body))
        provider = HttpProvider(endpoint, model="m")
        with pytest.raises(TransportError, match="malformed response body"):
            dispatch(self._request(), provider, max_transport_retries=2, sleep=NO_SLEEP)
        assert len(handler.seen) == 2 + 1
