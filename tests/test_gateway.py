import http.server
import json
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lppgate import gateway
from lppgate.gateway import (
    DEFAULT_DECODING,
    AuthFailure,
    DecodingConfig,
    HttpProvider,
    MissingPlaceholder,
    OutcomeTokenNotFound,
    PLACEHOLDER_FIELDS,
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
)
from lppgate.schema import InvalidLogprob, OutcomeLabel, locate_structured_fields, trace_to_dict
from tests.token_reference import segment_spans_reference, span_view

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
        assert "--- CONTENT START ---\nabc" in r[1]["content"]
        assert "no weapons" in r[0]["content"]
        assert "{{" not in r[0]["content"] + r[1]["content"]

    def test_multimodal_requires_all_fields(self):
        t = load_template("multimodal-direct")
        fields = {
            "text": "t",
            "thumbnail": "gs://thumb",
            "video_frames": "gs://frames",
            "concept_definition": "def",
        }
        with pytest.raises(MissingPlaceholder) as err:
            render_prompt(t, fields)  # transcript missing
        assert str(err.value) == "template 'multimodal-direct' needs field 'transcript'"
        fields["transcript"] = "hello"
        r = render_prompt(t, fields)
        assert "<TRANSCRIPT> hello </TRANSCRIPT>" in r[1]["content"]

    @pytest.mark.parametrize("template_id", TEMPLATE_IDS)
    def test_item_text_is_sent_verbatim(self, template_id):
        # every value quotes every placeholder, and none may be filled in
        quoted = " ".join(PLACEHOLDER_FIELDS)
        fields = {key: f"<{key}: {quoted}>" for key in PLACEHOLDER_FIELDS.values()}
        t = load_template(template_id)
        expected = []
        for text in (t.system, t.user):
            for i, placeholder in enumerate(PLACEHOLDER_FIELDS):
                text = text.replace(placeholder, f"\0{i}\0")
            for i, key in enumerate(PLACEHOLDER_FIELDS.values()):
                text = text.replace(f"\0{i}\0", fields[key])
            expected.append(text)
        assert [m["content"] for m in render_prompt(t, fields)] == expected
        assert quoted in expected[1]

    def test_render_deterministic(self):
        t = load_template("text-cot")
        fields = {"text": "abc", "concept_definition": "def"}
        assert render_prompt(t, fields) == render_prompt(t, fields)


class TestSegmentSpans:
    def test_single_outcome_record(self):
        payload = valid_payload()
        outcome, reasoning = segment_spans(payload["content"], [(t["surface"], t["logprob"], tuple((c["surface"], c["logprob"]) for c in t.get("top", ()))) for t in payload["tokens"]])
        assert outcome.chosen == ("1",)
        assert len(outcome.surfaces[0]) == 3
        assert len(reasoning.chosen) == 0

    def test_direct_answer_has_no_reasoning_records(self):
        payload = valid_payload()
        outcome, reasoning = segment_spans(
            payload["content"],
            [(t["surface"], t["logprob"], ()) for t in payload["tokens"]],
        )
        assert (len(outcome.chosen), len(reasoning.chosen)) == (1, 0)

    def test_digit_inside_reasoning_not_tagged_outcome(self):
        content = (
            '{"reasoning_steps": [{"step_number": 1, "description": "maybe 1"}], "outcome": "1"}'
        )
        spans = locate_structured_fields(content)
        vs = spans.outcome_value[0]
        pieces = [content[:vs], content[vs : vs + 1], content[vs + 1 :]]
        outcome, reasoning = segment_spans(content, [(p, -0.2, ()) for p in pieces if p])
        assert reasoning.chosen == (pieces[0],)
        assert outcome.chosen == ("1",)

    def test_reasoning_before_outcome_is_written_outcome_first(self):
        steps = [{"step_number": i, "description": f"step {i} 1"} for i in (1, 2, 3)]
        content = json.dumps({"reasoning_steps": steps, "outcome": "1", "p_correct": 85})
        spans = locate_structured_fields(content)
        (rs, re_), vs = spans.reasoning_array, spans.outcome_value[0]
        mid = (rs + re_) // 2
        pieces = [content[:rs], content[rs:mid], content[mid:re_], content[re_:vs], content[vs], content[vs + 1 :]]
        digit_top = [{"surface": "0", "logprob": -2.0}, {"surface": "1", "logprob": 5e-10}]
        tokens = [{"surface": p, "logprob": -0.05} for p in pieces]
        # positive provider logprobs, even beyond the tolerance, are clamped to 0
        tokens[1]["top"] = [{"surface": "x", "logprob": 0.25}]
        tokens[4] = {"surface": "1", "logprob": 5e-10, "top": digit_top}
        provider = StubProvider({"item-1": [{"content": content, "tokens": tokens}]})
        item = {"item_id": "item-1", "text": "abc", "concept_definition": "d"}
        (trace,) = run_inference([item], load_template("text-cot"), provider, sleep=NO_SLEEP).traces
        assert trace.outcome.chosen == ("1",)
        assert trace.outcome.surfaces == (("1", "0"),)
        assert trace.outcome.logprobs.tolist() == [[0.0, -2.0]]
        assert trace.reasoning.chosen == (pieces[1], pieces[2])
        assert trace.reasoning.surfaces[0] == ("x", pieces[1])
        assert trace.reasoning.logprobs[0].tolist() == [0.0, -0.05]
        written = trace_to_dict(trace)["tokens"]
        assert [t["span"] for t in written] == ["outcome", "reasoning", "reasoning"]
        assert [t["chosen"]["surface"] for t in written] == ["1", pieces[1], pieces[2]]

    def test_tokens_not_covering_outcome(self):
        content = VALID_CONTENT
        with pytest.raises(OutcomeTokenNotFound):
            segment_spans(content, [(content[:3], -0.1, ())])


_FINITE_LOGPROBS = st.one_of(st.floats(-30.0, 0.0), st.sampled_from([0.0, -0.0, 5e-10, 0.25]))
_BAD_LOGPROBS = st.sampled_from([math.nan, -math.inf, math.inf])


@st.composite
def _cut_responses(draw):
    """A structured response cut into tokens at random points, with extra
    cuts on the edges of the outcome value and the reasoning array;
    repeated cuts make zero-length tokens, and the stream may stop early."""
    obj = {"outcome": draw(st.sampled_from(["0", "1", "2", 1])), "p_correct": 85, "band": "H"}
    steps = draw(st.lists(st.text("ab 1{}[]\",:", max_size=6), max_size=3))
    if draw(st.integers(0, 2)):  # two in three responses carry reasoning
        obj["reasoning_steps"] = [{"step_number": i + 1, "description": d} for i, d in enumerate(steps)]
    keys = draw(st.permutations(list(obj)))
    body = json.dumps({k: obj[k] for k in keys}, indent=draw(st.sampled_from([None, 1])))
    content = draw(st.sampled_from(["", "Sure: "])) + body + draw(st.sampled_from(["", " ok"]))

    spans = locate_structured_fields(content)
    edges = [spans.outcome_value[0] + d for d in (-1, 0, 1)]
    if spans.reasoning_array is not None:
        edges += [e + d for e in spans.reasoning_array for d in (-1, 0, 1)]
    edges = [e for e in edges if 0 <= e <= len(content)]
    cuts = draw(st.lists(st.integers(0, len(content)) | st.sampled_from(edges), max_size=12))
    bounds = [0, *sorted(cuts), len(content)]
    pieces = [content[i:j] for i, j in zip(bounds, bounds[1:])]
    kept = len(pieces) if draw(st.integers(0, 2)) else draw(st.integers(0, len(pieces)))

    logprobs = _FINITE_LOGPROBS | _BAD_LOGPROBS if draw(st.booleans()) else _FINITE_LOGPROBS
    top = st.lists(st.tuples(st.sampled_from(["0", "1", "x"]), logprobs), max_size=3)
    tokens = [(piece, draw(logprobs), draw(top)) for piece in pieces[:kept]]
    return content, tokens


def _spans_or_error(fn, content, tokens):
    try:
        return [span_view(span) for span in fn(content, tokens)]
    except (OutcomeTokenNotFound, InvalidLogprob) as exc:
        return type(exc), str(exc)


class TestSegmentSpansReference:
    @settings(max_examples=400, deadline=None)
    @given(_cut_responses())
    def test_slices_like_the_per_token_loop(self, response):
        content, raw = response
        tokens = tuple(gateway._provider_token(*t) for t in raw)
        # The loop's min(lp, 0.0) turned +inf into 0; the gateway now leaves
        # +inf for token_span, which rejects it as it rejects nan, with the
        # same message, so the loop is fed nan wherever the stream holds +inf.
        def nan_for_inf(lp):
            return math.nan if lp == math.inf else lp

        no_inf = [(s, nan_for_inf(lp), [(c, nan_for_inf(v)) for c, v in top]) for s, lp, top in raw]
        got = _spans_or_error(segment_spans, content, tokens)
        assert got == _spans_or_error(segment_spans_reference, content, no_inf)
        if got != _spans_or_error(segment_spans_reference, content, raw):
            assert got[0] is InvalidLogprob  # a kept +inf is the only difference


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
        assert trace.outcome.chosen == ("1",)

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

    def test_transport_give_up_is_per_item(self):
        class FlakyForOne(StubProvider):
            def __init__(self, fixtures, failing):
                super().__init__(fixtures)
                self.failing = failing
                self.calls = 0

            def complete(self, request):
                if request.item_id == self.failing:
                    self.calls += 1
                    raise TransportError("HTTP 503")
                return super().complete(request)

        fixtures = {f"it-{i:02d}": [valid_payload()] for i in range(3)}
        provider = FlakyForOne(fixtures, failing="it-01")
        result = run_inference(
            self._items(3), load_template("text-direct"), provider,
            max_transport_retries=2, pool_width=3, sleep=NO_SLEEP,
        )
        assert [t.item_id for t in result.traces] == ["it-00", "it-02"]
        assert result.give_ups == [{"item_id": "it-01", "attempts": 1, "failure": "transport"}]
        assert provider.calls == 2 + 1

    def test_auth_failure_still_aborts(self):
        class Unauthorized(StubProvider):
            def complete(self, request):
                raise AuthFailure("provider rejected the credentials (HTTP 401)")

        with pytest.raises(AuthFailure):
            run_inference(self._items(2), load_template("text-direct"), Unauthorized({}), sleep=NO_SLEEP)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf], ids=["nan", "-inf", "+inf"])
    def test_invalid_logprob_gives_up_one_item(self, bad):
        # item a's outcome token carries the bad logprob on every attempt
        top = [{"surface": "1", "logprob": bad}, {"surface": "0", "logprob": math.log(0.2)}]
        fixtures = {"a": [make_payload(VALID_CONTENT, outcome_top=top)], "b": [valid_payload()]}
        items = [{"item_id": i, "text": "x", "concept_definition": "d"} for i in ("a", "b")]
        template = load_template("text-direct")
        result = run_inference(items, template, StubProvider(fixtures), pool_width=2, sleep=NO_SLEEP)
        assert [t.item_id for t in result.traces] == ["b"]
        assert result.give_ups == [{"item_id": "a", "attempts": 4, "failure": "invalid_logprob"}]

        class UnauthorizedForB(StubProvider):
            def complete(self, request):
                if request.item_id == "b":
                    raise AuthFailure("provider rejected the credentials (HTTP 401)")
                return super().complete(request)

        with pytest.raises(AuthFailure):
            run_inference(items, template, UnauthorizedForB(fixtures), pool_width=2, sleep=NO_SLEEP)


    def test_missing_field_gives_up_one_item(self):
        items = [{"item_id": "a", "text": "x"}, *self._items(1)]
        fixtures = {"it-00": [valid_payload()]}
        result = run_inference(items, load_template("text-direct"), StubProvider(fixtures), sleep=NO_SLEEP)
        assert [t.item_id for t in result.traces] == ["it-00"]
        assert result.give_ups == [{"item_id": "a", "attempts": 0, "failure": "missing_field"}]

    def test_nesting_past_the_recursion_limit_gives_up_one_item(self):
        # json's scanner raises RecursionError on a value this deep
        content = '{"outcome": "1", "x": ' + "[" * 5000 + "]" * 5000 + "}"
        steps = [{"step_number": i, "description": f"step {i}"} for i in (1, 2, 3)]
        fixtures = {
            "a": [{"content": content, "tokens": [{"surface": content, "logprob": -0.1}]}],
            "b": [make_payload(json.dumps({"reasoning_steps": steps, "outcome": "1"}))],
        }
        items = [{"item_id": i, "text": "x", "concept_definition": "d"} for i in ("a", "b")]
        result = run_inference(items, load_template("text-cot"), StubProvider(fixtures), sleep=NO_SLEEP)
        assert [t.item_id for t in result.traces] == ["b"]
        assert result.give_ups == [{"item_id": "a", "attempts": 4, "failure": "malformed_json"}]

    def test_p_correct_past_float_range_counts_as_absent(self):
        content = '{"outcome": "1", "p_correct": 1' + "0" * 400 + "}"
        fixtures = {"a": [make_payload(content)], "b": [valid_payload()]}
        items = [{"item_id": i, "text": "x", "concept_definition": "d"} for i in ("a", "b")]
        result = run_inference(items, load_template("text-direct"), StubProvider(fixtures), sleep=NO_SLEEP)
        assert [t.item_id for t in result.traces] == ["a", "b"]
        assert [t.structured.p_correct for t in result.traces] == [None, 85]
        assert result.give_ups == []

    @staticmethod
    def _one_token_per_character(content):
        return {"content": content, "tokens": [{"surface": c, "logprob": -0.1} for c in content]}

    def test_duplicate_outcome_key_the_last_one_wins(self):
        fixtures = {"it-00": [self._one_token_per_character('{"outcome": "1", "outcome": "0"}')]}
        result = run_inference(self._items(1), load_template("text-direct"), StubProvider(fixtures), sleep=NO_SLEEP)
        (trace,) = result.traces
        assert trace.outcome.chosen == ("0",)
        assert trace.structured.outcome is trace.effective_outcome() is OutcomeLabel.NO

    def test_escaped_outcome_key_is_located(self):
        fixtures = {"it-00": [self._one_token_per_character('{"outc\\u006fme": "2", "p_correct": 85}')]}
        result = run_inference(self._items(1), load_template("text-direct"), StubProvider(fixtures), sleep=NO_SLEEP)
        (trace,) = result.traces
        assert (trace.attempt, trace.outcome.chosen) == (1, ("2",))
        assert trace.structured.outcome is OutcomeLabel.INCONCLUSIVE_EVIDENCE


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
        assert response.tokens[1][0] == "1"
        assert len(response.tokens[1][2]) == 3

        path, auth, body = handler.seen[0]
        assert path == "/chat/completions"
        assert auth == "Bearer secret-key"
        assert body["temperature"] == 0.0 and body["top_p"] == 1.0 and body["n"] == 1
        assert body["max_tokens"] == 8096
        assert body["logprobs"] is True and body["top_logprobs"] == 20

    def test_positive_wire_logprob_clamped(self, http_endpoint, monkeypatch):
        endpoint, handler = http_endpoint
        monkeypatch.setenv("LPP_API_KEY", "k")
        payload = valid_payload()
        payload["tokens"][1]["top"][1]["logprob"] = 0.25
        handler.script.append((200, _chat_body(payload)))
        response = HttpProvider(endpoint, model="m").complete(self._request())
        assert response.tokens[1][2][1] == ("0", 0.0)

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

    def test_rejected_request_is_a_give_up_after_one_request(self, http_endpoint, monkeypatch):
        endpoint, handler = http_endpoint
        monkeypatch.setenv("LPP_API_KEY", "k")
        handler.script.append((400, {"error": "bad request"}))
        item = {"item_id": "item-1", "text": "x", "concept_definition": "d"}
        result = run_inference(
            [item], load_template("text-direct"), HttpProvider(endpoint, model="m"), sleep=NO_SLEEP
        )
        assert not result.traces
        assert result.give_ups == [{"item_id": "item-1", "attempts": 1, "failure": "rejected"}]
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
