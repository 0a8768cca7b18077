import http.server
import json
import math
import random
import re
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lppgate import gateway, schema
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
from lppgate.schema import (
    MAX_ATTEMPTS,
    InvalidLogprob,
    OutcomeLabel,
    Reason,
    locate_structured_fields,
    normalize_outcome_token,
    trace_to_dict,
)
from tests.token_reference import provider_token_reference, segment_spans_reference, span_view

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
        outcome, reasoning = segment_spans(locate_structured_fields(payload["content"]), [(t["surface"], t["logprob"], tuple((c["surface"], c["logprob"]) for c in t.get("top", ()))) for t in payload["tokens"]])
        assert outcome.chosen == ("1",)
        assert len(outcome.surfaces[0]) == 3
        assert len(reasoning.chosen) == 0

    def test_direct_answer_has_no_reasoning_records(self):
        payload = valid_payload()
        outcome, reasoning = segment_spans(
            locate_structured_fields(payload["content"]),
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
        outcome, reasoning = segment_spans(spans, [(p, -0.2, ()) for p in pieces if p])
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
            segment_spans(locate_structured_fields(content), [(content[:3], -0.1, ())])


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


def _segment_text(content, tokens):
    return segment_spans(locate_structured_fields(content), tokens)


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
        wire = [{"surface": s, "logprob": lp, "top": [{"surface": c, "logprob": v} for c, v in top]} for s, lp, top in raw]
        tokens = gateway._provider_tokens(wire, "surface", "top")
        # The loop's min(lp, 0.0) turned +inf into 0; the gateway now leaves
        # +inf for token_span, which rejects it as it rejects nan, with the
        # same message, so the loop is fed nan wherever the stream holds +inf.
        def nan_for_inf(lp):
            return math.nan if lp == math.inf else lp

        no_inf = [(s, nan_for_inf(lp), [(c, nan_for_inf(v)) for c, v in top]) for s, lp, top in raw]
        got = _spans_or_error(_segment_text, content, tokens)
        assert got == _spans_or_error(segment_spans_reference, content, no_inf)
        if got != _spans_or_error(segment_spans_reference, content, raw):
            assert got[0] is InvalidLogprob  # a kept +inf is the only difference


# every kind of logprob a provider's JSON may hold: floats, -0.0, ties,
# positive values the gateway clamps, nan and ±inf, ints and numeric text
_WIRE_LOGPROBS = st.one_of(
    st.floats(min_value=-30, max_value=0),
    st.sampled_from((0.0, -0.0, -0.7, 1e-10, 0.5, math.nan, math.inf, -math.inf)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from(("-0.5", "0", "-0.0", "1e-10", " -2 ", "inf", "nan")),
)


@st.composite
def _wire_tokens(draw):
    """A provider response's keys (the stub's or the HTTP provider's) and
    its tokens as JSON objects under them, some with an empty or a missing
    candidate list."""
    surface_key, top_key = draw(st.sampled_from([("surface", "top"), ("token", "top_logprobs")]))
    tokens = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        token = {surface_key: draw(st.sampled_from(["0", "1", " a"])), "logprob": draw(_WIRE_LOGPROBS)}
        kind = draw(st.sampled_from(("list", "empty", "missing")))
        if kind != "missing":
            n = draw(st.integers(1, 4)) if kind == "list" else 0
            token[top_key] = [{surface_key: draw(st.sampled_from(["0", "1", "x"])), "logprob": draw(_WIRE_LOGPROBS)} for _ in range(n)]
        tokens.append(token)
    return surface_key, top_key, tokens


def _bits_of_triples(triples):
    """Triples with each logprob as its type and repr, which tells -0.0
    from 0.0 and an int from a float."""
    def value(lp):
        return type(lp), repr(lp)
    return [(s, value(lp), [(c, value(v)) for c, v in top]) for s, lp, top in triples]


class TestProviderTokens:
    @settings(max_examples=400, deadline=None)
    @given(_wire_tokens())
    @example(("surface", "top", [{"surface": "1", "logprob": -0.0, "top": []}, {"surface": "0", "logprob": 0}]))
    @example(("token", "top_logprobs", [{"token": "1", "logprob": "nan", "top_logprobs": [{"token": "1", "logprob": 2}]}]))
    def test_equals_the_per_token_function(self, response):
        surface_key, top_key, tokens = response
        try:
            want = [provider_token_reference(t, surface_key, top_key) for t in tokens]
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                gateway._provider_tokens(tokens, surface_key, top_key)
            return
        got = gateway._provider_tokens(tokens, surface_key, top_key)
        assert type(got) is tuple and all(type(t) is tuple and type(t[2]) is tuple for t in got)
        assert _bits_of_triples(got) == _bits_of_triples(want)


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
        assert not result.reasons

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
        assert result.reasons == {"item-1": (Reason.MALFORMED_JSON, 4)}

    def test_never_requests_past_max_attempts(self):
        class CountingProvider(StubProvider):
            requests = 0

            def complete(self, request):
                self.requests += 1
                return super().complete(request)

        malformed = {"content": "not json at all", "tokens": []}
        provider = CountingProvider({"item-1": [malformed]})
        result = run_inference(
            [{"item_id": "item-1", "text": "abc", "concept_definition": "d"}],
            load_template("text-direct"),
            provider,
            sleep=NO_SLEEP,
        )
        assert provider.requests == MAX_ATTEMPTS == 4
        assert result.reasons == {"item-1": (Reason.MALFORMED_JSON, 4)}

    def test_give_up_names_the_last_failure(self):
        malformed = {"content": "not json at all", "tokens": []}
        uncovered = {"content": VALID_CONTENT, "tokens": [{"surface": "{", "logprob": -0.1}]}
        provider = StubProvider({"item-1": [malformed, malformed, malformed, uncovered]})
        result = run_inference(
            [{"item_id": "item-1", "text": "abc", "concept_definition": "d"}],
            load_template("text-direct"),
            provider,
            sleep=NO_SLEEP,
        )
        assert result.reasons == {"item-1": (Reason.OUTCOME_TOKEN_NOT_FOUND, 4)}

    def test_no_logprobs_flagged(self):
        provider = StubProvider({"item-1": [{"content": VALID_CONTENT, "tokens": None}]})
        template = load_template("text-direct")
        result = run_inference(
            [{"item_id": "item-1", "text": "abc", "concept_definition": "d"}],
            template,
            provider,
            sleep=NO_SLEEP,
        )
        assert result.reasons == {"item-1": (Reason.NO_LOGPROBS, 1)}
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

    @pytest.mark.parametrize("pool_width", [1, 3])
    def test_repeated_id_refused_before_any_request(self, pool_width):
        # one reason per id: a repeated id would otherwise collapse two
        # failing items into one entry
        class Counting(StubProvider):
            calls = 0

            def complete(self, request):
                Counting.calls += 1
                return super().complete(request)

        fixtures = {f"it-{i:02d}": [valid_payload()] for i in range(3)}
        items = [*self._items(3), {"item_id": "it-01", "text": "y"}]
        template = load_template("text-direct")
        with pytest.raises(ValueError, match="'it-01' appears more than once"):
            run_inference(items, template, Counting(fixtures), pool_width=pool_width, sleep=NO_SLEEP)
        assert Counting.calls == 0

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
        assert result.reasons == {"it-01": (Reason.TRANSPORT, 1)}
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
        assert result.reasons == {"a": (Reason.INVALID_LOGPROB, 4)}

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
        assert result.reasons == {"a": (Reason.MISSING_FIELD, 0)}

    def test_each_attempt_decodes_its_response_once(self, monkeypatch):
        decoded = []
        decode = schema._object_fields

        def counted(raw):
            decoded.append(raw)
            return decode(raw)

        bad = '{"outcome" 1}'
        malformed = {"content": bad, "tokens": [{"surface": bad, "logprob": -0.1}]}
        fixtures = {"a": [valid_payload()], "b": [malformed, valid_payload()]}
        monkeypatch.setattr(schema, "_object_fields", counted)
        items = [{"item_id": i, "text": "x", "concept_definition": "d"} for i in ("a", "b")]
        template = load_template("text-direct")
        result = run_inference(items, template, StubProvider(fixtures), pool_width=1, sleep=NO_SLEEP)
        assert [(t.item_id, t.attempt) for t in result.traces] == [("a", 1), ("b", 2)]
        assert decoded == [VALID_CONTENT, bad, VALID_CONTENT]

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
        assert result.reasons == {"a": (Reason.MALFORMED_JSON, 4)}

    def test_p_correct_past_float_range_counts_as_absent(self):
        content = '{"outcome": "1", "p_correct": 1' + "0" * 400 + "}"
        fixtures = {"a": [make_payload(content)], "b": [valid_payload()]}
        items = [{"item_id": i, "text": "x", "concept_definition": "d"} for i in ("a", "b")]
        result = run_inference(items, load_template("text-direct"), StubProvider(fixtures), sleep=NO_SLEEP)
        assert [t.item_id for t in result.traces] == ["a", "b"]
        assert [t.structured.p_correct for t in result.traces] == [None, 85]
        assert result.reasons == {}

    @staticmethod
    def _one_token_per_character(content):
        return {"content": content, "tokens": [{"surface": c, "logprob": -0.1} for c in content]}

    def test_duplicate_outcome_key_the_last_one_wins(self):
        fixtures = {"it-00": [self._one_token_per_character('{"outcome": "1", "outcome": "0"}')]}
        result = run_inference(self._items(1), load_template("text-direct"), StubProvider(fixtures), sleep=NO_SLEEP)
        (trace,) = result.traces
        assert trace.outcome.chosen == ("0",)
        assert trace.structured.outcome is normalize_outcome_token(trace.outcome.chosen[0]) is OutcomeLabel.NO

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
        assert result.reasons == {"item-1": (Reason.REJECTED, 1)}
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


def _cot_content(n_steps=3, **fields):
    steps = [{"step_number": i, "description": f"step {i}"} for i in range(1, n_steps + 1)]
    return json.dumps({"reasoning_steps": steps, "outcome": "1", "p_correct": 80, "band": "H", **fields})


def _no_label_payload():
    """A parsing CoT response whose outcome token, and each of its
    candidates, maps to no schema label."""
    content = _cot_content()
    vs = locate_structured_fields(content).outcome_value[0]
    surface = content[vs : vs + 3]  # '1",' normalizes to no label
    tokens = [
        {"surface": content[:vs], "logprob": -0.3},
        {"surface": surface, "logprob": -0.1, "top": [{"surface": surface, "logprob": -0.1}, {"surface": "x", "logprob": -2.4}]},
        {"surface": content[vs + 3 :], "logprob": -0.05},
    ]
    return {"content": content, "tokens": tokens}


_NAN_TOP = [{"surface": "1", "logprob": math.nan}, {"surface": "0", "logprob": math.log(0.2)}]

#: Each kind of item: its stub responses (None for a rejected request), its
#: item fields, and the reason generate and then extract give it, with the
#: attempts generate records (None for an item that reaches extract).
_KINDS = {
    "valid": ([make_payload(_cot_content())], {}, None, None),
    "valid_on_retry": ([{"content": "not json", "tokens": []}, make_payload(_cot_content())], {}, None, None),
    "transport": ([{"transport_error": True}], {}, Reason.TRANSPORT, 1),
    "rejected": (None, {}, Reason.REJECTED, 1),
    "missing_field": ([make_payload(_cot_content())], {"concept_definition": None}, Reason.MISSING_FIELD, 0),
    "malformed_json": ([{"content": "not json", "tokens": []}], {}, Reason.MALFORMED_JSON, MAX_ATTEMPTS),
    "missing_outcome": ([{"content": '{"p_correct": 80}', "tokens": []}], {}, Reason.MISSING_OUTCOME, MAX_ATTEMPTS),
    "invalid_band": ([make_payload(_cot_content(band="ZZ"))], {}, Reason.INVALID_BAND, MAX_ATTEMPTS),
    "invalid_steps": ([make_payload(_cot_content(n_steps=2))], {}, Reason.INVALID_STEPS, MAX_ATTEMPTS),
    "invalid_logprob": ([make_payload(_cot_content(), outcome_top=_NAN_TOP)], {}, Reason.INVALID_LOGPROB, MAX_ATTEMPTS),
    "outcome_token_not_found": ([{"content": _cot_content(), "tokens": [{"surface": "{", "logprob": -0.1}]}], {},
                                Reason.OUTCOME_TOKEN_NOT_FOUND, MAX_ATTEMPTS),
    "no_logprobs": ([{"content": _cot_content(), "tokens": None}], {}, Reason.NO_LOGPROBS, 1),
    "no_label_mass": ([_no_label_payload()], {}, Reason.NO_LABEL_MASS, None),
    # a mean chosen logprob of -800 makes the reasoning perplexity overflow
    "non_finite_feature": ([make_payload(_cot_content(), reasoning_logprob=-800.0)], {}, Reason.NON_FINITE_FEATURE, None),
}


class _RejectsSome(StubProvider):
    def __init__(self, fixtures, rejected):
        super().__init__(fixtures)
        self.rejected = rejected

    def complete(self, request):
        if request.item_id in self.rejected:
            raise ProviderRejected("HTTP 400")
        return super().complete(request)


class TestReasonChannel:
    """Every item leaves generate as a trace or one reason, and every trace
    leaves extract as a row or one reason, all from the one vocabulary."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(sorted(_KINDS)), max_size=14),
        st.randoms(use_true_random=False),
        st.sampled_from((1, 3)),
    )
    @example(sorted(_KINDS), random.Random(0), 3)
    def test_every_item_is_a_row_or_one_reason(self, kinds, rnd, pool_width):
        from lppgate.pipeline import extract_table

        kinds = ["valid", *kinds]  # extract refuses a corpus with no valid row
        ids = [f"it-{i:02d}" for i in range(len(kinds))]
        rnd.shuffle(ids)
        fixtures, items, rejected = {}, [], set()
        for item_id, kind in zip(ids, kinds):
            responses, fields, _, _ = _KINDS[kind]
            if responses is None:
                rejected.add(item_id)
            else:
                fixtures[item_id] = responses
            item = {"item_id": item_id, "text": "x", "concept_definition": "d", **fields}
            items.append({k: v for k, v in item.items() if v is not None})
        provider = _RejectsSome(fixtures, rejected)
        result = run_inference(items, load_template("text-cot"), provider, pool_width=pool_width, sleep=NO_SLEEP)
        table = extract_table(result.traces)

        assert len(result.traces) + len(result.reasons) == len(items)
        assert len(table.item_ids) + len(table.invalid_ids) == len(result.traces)
        assert {r for r, _ in result.reasons.values()} | set(table.invalid_ids.values()) <= set(Reason)
        assert list(result.reasons) == sorted(result.reasons)
        assert list(table.invalid_ids) == sorted(table.invalid_ids)
        for item_id, kind in zip(ids, kinds):
            _, _, reason, attempts = _KINDS[kind]
            if reason is None:
                assert item_id in table.item_ids
            elif attempts is None:
                assert table.invalid_ids[item_id] is reason
            else:
                assert result.reasons[item_id] == (reason, attempts)
