import base64
import binascii
import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lppgate import schema
from lppgate.pipeline import extract_table
from lppgate.schema import (
    ConfidenceBand,
    InvalidLogprob,
    LOGPROB_TOLERANCE,
    OutcomeLabel,
    ParseFailure,
    Reason,
    ReasoningStep,
    ResponseTrace,
    Span,
    StructuredResponse,
    locate_structured_fields,
    normalize_outcome_token,
    parse_structured_response,
    read_traces_jsonl,
    snap_confidence,
    token_span,
    trace_from_dict,
    trace_to_dict,
    write_traces_jsonl,
)
from lppgate.synth import SynthConfig, generate_corpus
from tests import response_reference as reference
from tests.token_reference import record, records_view, span_view, token_records_from_dict, token_span_reference


class TestNormalizeOutcomeToken:
    @pytest.mark.parametrize(
        "surface,expected",
        [
            (" 2 ", OutcomeLabel.INCONCLUSIVE_EVIDENCE),
            ("YES", OutcomeLabel.YES),
            ("no", OutcomeLabel.NO),
            ('"1"', OutcomeLabel.YES),
            ("inconclusive_definition", OutcomeLabel.INCONCLUSIVE_DEFINITION),
            ("Inconclusive_Evidence", OutcomeLabel.INCONCLUSIVE_EVIDENCE),
            ("0", OutcomeLabel.NO),
        ],
    )
    def test_accepted_surfaces(self, surface, expected):
        assert normalize_outcome_token(surface) is expected

    @pytest.mark.parametrize("surface", ["4", "maybe", "", "10", "yes!", "in conclusive"])
    def test_rejected_surfaces(self, surface):
        assert normalize_outcome_token(surface) is None

    def test_idempotent_on_canonical_surfaces(self):
        for label in OutcomeLabel:
            assert normalize_outcome_token(str(int(label))) is label


class TestSnapConfidence:
    @pytest.mark.parametrize("raw,expected", [(87, 85), (88, 90), (100, 100), (0, 0), (2, 0), (3, 5)])
    def test_spec_examples(self, raw, expected):
        assert snap_confidence(raw) == expected

    def test_clamps_out_of_range(self):
        assert snap_confidence(140) == 100
        assert snap_confidence(-5) == 0

    def test_fractional_midpoint_rounds_up(self):
        assert snap_confidence(87.5) == 90

    @given(st.integers(min_value=-(10**6), max_value=10**6))
    def test_always_a_multiple_of_five_in_range(self, raw):
        snapped = snap_confidence(raw)
        assert snapped % 5 == 0
        assert 0 <= snapped <= 100


class TestParseStructuredResponse:
    def test_direct_mapping(self):
        s = parse_structured_response('{"outcome":"1","p_correct":85,"band":"H"}')
        assert s.outcome is OutcomeLabel.YES
        assert s.reasoning_steps == ()
        assert s.p_correct == 85
        assert s.band is ConfidenceBand.H

    def test_unrecognized_outcome(self):
        with pytest.raises(ParseFailure) as err:
            parse_structured_response('{"outcome":"maybe"}')
        assert err.value.kind is Reason.MISSING_OUTCOME

    def test_word_outcome_with_snap(self):
        s = parse_structured_response('{"outcome":"inconclusive_evidence","p_correct":87}')
        assert s.outcome is OutcomeLabel.INCONCLUSIVE_EVIDENCE
        assert s.p_correct == 85
        assert s.band is None

    def test_lenient_wrapping_text(self):
        raw = 'Sure, here you go:\n{"outcome": 1, "band": "VH"}\nHope that helps.'
        s = parse_structured_response(raw)
        assert s.outcome is OutcomeLabel.YES
        assert s.band is ConfidenceBand.VH

    def test_malformed_json(self):
        with pytest.raises(ParseFailure) as err:
            parse_structured_response('{"outcome": 1,,}')
        assert err.value.kind is Reason.MALFORMED_JSON

    def test_no_object(self):
        with pytest.raises(ParseFailure) as err:
            parse_structured_response("plain text, no json")
        assert err.value.kind is Reason.MALFORMED_JSON

    def test_missing_outcome_field(self):
        with pytest.raises(ParseFailure) as err:
            parse_structured_response('{"p_correct": 80}')
        assert err.value.kind is Reason.MISSING_OUTCOME

    def test_invalid_band(self):
        with pytest.raises(ParseFailure) as err:
            parse_structured_response('{"outcome":"1","band":"HUGE"}')
        assert err.value.kind is Reason.INVALID_BAND

    def test_band_case_insensitive(self):
        s = parse_structured_response('{"outcome":"1","band":"vh"}')
        assert s.band is ConfidenceBand.VH

    def test_steps_must_be_consecutive(self):
        raw = json.dumps(
            {
                "outcome": "1",
                "reasoning_steps": [
                    {"step_number": 1, "description": "a"},
                    {"step_number": 3, "description": "b"},
                ],
            }
        )
        with pytest.raises(ParseFailure) as err:
            parse_structured_response(raw)
        assert err.value.kind is Reason.INVALID_STEPS

    def test_cot_requires_exactly_three_steps(self):
        raw = json.dumps(
            {
                "outcome": "1",
                "reasoning_steps": [{"step_number": 1, "description": "only one"}],
            }
        )
        with pytest.raises(ParseFailure) as err:
            parse_structured_response(raw, expect_steps=3)
        assert err.value.kind is Reason.INVALID_STEPS

    def test_direct_mode_rejects_steps(self):
        raw = json.dumps(
            {
                "outcome": "1",
                "reasoning_steps": [{"step_number": 1, "description": "stray"}],
            }
        )
        with pytest.raises(ParseFailure):
            parse_structured_response(raw, expect_steps=0)

    def test_three_steps_accepted(self):
        raw = json.dumps(
            {
                "outcome": 2,
                "reasoning_steps": [
                    {"step_number": i, "description": f"s{i}"} for i in (1, 2, 3)
                ],
                "p_correct": 60,
                "band": "M",
            }
        )
        s = parse_structured_response(raw, expect_steps=3)
        assert [r.step_number for r in s.reasoning_steps] == [1, 2, 3]

    def test_non_numeric_p_correct_treated_as_absent(self):
        for value in ('"high"', "NaN", "Infinity", "-Infinity"):
            s = parse_structured_response('{"outcome":"1","p_correct":%s}' % value)
            assert s.p_correct is None, value

    @pytest.mark.parametrize("steps", ['""', "{}", "0", "false", '"abc"'])
    def test_reasoning_steps_must_be_a_list_or_null(self, steps):
        with pytest.raises(ParseFailure) as err:
            parse_structured_response('{"outcome":"1","reasoning_steps":%s}' % steps)
        assert err.value.kind is Reason.INVALID_STEPS
        assert parse_structured_response('{"outcome":"1","reasoning_steps":null}').reasoning_steps == ()

    def test_integer_past_the_digit_limit_is_malformed(self):
        # json hands the digits to int(), which raises a bare ValueError
        with pytest.raises(ParseFailure) as err:
            parse_structured_response('{"outcome":"1","p_correct":%s}' % ("1" * 5000))
        assert err.value.kind is Reason.MALFORMED_JSON

    def test_malformed_message_counts_in_the_whole_response(self):
        with pytest.raises(ParseFailure, match=r"char 23\)$") as err:
            parse_structured_response('Here it is: {"outcome" 1}')
        assert err.value.kind is Reason.MALFORMED_JSON


class TestBalancedObject:
    def test_finds_first_object(self):
        raw = 'noise {"a": {"b": 1}} trailing'
        start, end = locate_structured_fields(raw).object_span
        assert raw[start:end] == '{"a": {"b": 1}}'

    def test_braces_inside_strings_ignored(self):
        raw = '{"a": "}{", "b": 2}'
        start, end = locate_structured_fields(raw).object_span
        assert raw[start:end] == raw

    def test_unbalanced_is_malformed(self):
        with pytest.raises(ParseFailure) as err:
            locate_structured_fields('{"a": 1')
        assert err.value.kind is Reason.MALFORMED_JSON


# every character the old scanners treated specially, plus filler; the
# pairs make escaped quotes and backslashes inside strings common
_SCANNER_PIECES = st.sampled_from([*'{}[]":,\\ a1', '\\"', "\\\\", '{"', '"}', '"a":', '["', '"]'])
_WS = st.sampled_from(["", " ", "\n", "\t ", "\r\n  "])
# braces, brackets, quotes and backslashes inside string values
_TEXT = st.text(alphabet='{}[]"\\:, a1', max_size=10)
_OUTCOMES = st.one_of(
    st.sampled_from(["0", "1", "2", "3", "yes", "No", " 2 ", "maybe", ""]),
    st.integers(min_value=-1, max_value=4),
    st.sampled_from([None, True, [], {}]),
)
_STEPS = st.one_of(
    st.lists(
        st.fixed_dictionaries({"step_number": st.integers(1, 4), "description": _TEXT}), max_size=4
    ).map(lambda steps: sorted(steps, key=lambda s: s["step_number"])),
    st.integers(1, 4).map(lambda n: [{"step_number": i, "description": f"s{i}"} for i in range(1, n + 1)]),
    st.sampled_from([None, "", {}, 0, False, 0.0, "abc", [1], [{"step_number": True}]]),
)
_P_CORRECT = st.one_of(
    st.integers(-10, 200),
    st.floats(-10, 200),
    st.sampled_from([None, "high", True, math.nan, math.inf, -math.inf]),
)
_BANDS = st.sampled_from([None, "H", "vh", " m ", "HUGE", 3])


@st.composite
def _responses(draw):
    """(raw, plain, outcome text): a structured response in random key order
    and whitespace, wrapped in prose, sometimes cut short or with one
    scanner piece inserted. ``plain`` is
    False when the outcome key is repeated or written with an escape; the
    outcome text is what the last outcome key's span must hold."""
    fields = [("outcome", draw(_OUTCOMES))]
    for key, values in (("reasoning_steps", _STEPS), ("p_correct", _P_CORRECT), ("band", _BANDS), ("note", _TEXT)):
        if draw(st.booleans()):
            fields.append((key, draw(values)))
    fields = draw(st.permutations(fields))
    plain = True
    if draw(st.integers(0, 3)) == 0:
        # a second outcome key, later in the object
        fields.insert(draw(st.integers(1, len(fields))), ("outcome", draw(_OUTCOMES)))
        plain = False
    keys = [json.dumps(k) for k, _ in fields]
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.sampled_from([i for i, (k, _) in enumerate(fields) if k == "outcome"]))
        keys[at] = '"outc\\u006fme"'
        plain = False
    ws = lambda: draw(_WS)  # noqa: E731
    members = [f"{ws()}{key}{ws()}:{ws()}{json.dumps(v)}{ws()}" for key, (_, v) in zip(keys, fields)]
    prefix = draw(st.sampled_from(["", "Sure:\n", "[1] answer: "]))
    suffix = draw(st.sampled_from(["", "\nthanks", " {x} }"]))
    outcome = json.dumps([v for k, v in fields if k == "outcome"][-1])
    outcome_text = outcome[1:-1] if outcome.startswith('"') else outcome
    raw = prefix + "{" + ",".join(members) + "}" + suffix
    at, edit = draw(st.integers(0, len(raw))), draw(st.integers(0, 9))
    if edit == 0:
        raw = raw[:at]  # decodes only when the cut falls after the object
    elif edit == 1:
        raw, outcome_text = raw[:at] + draw(_SCANNER_PIECES) + raw[at:], None
    return raw, plain, outcome_text


def _parsed(parse, raw, expect_steps):
    try:
        return parse(raw, expect_steps), None
    except ParseFailure as exc:
        return None, exc.kind


def _reference_object(raw):
    span = reference.find_balanced_object(raw)
    return json.loads(raw[span[0] : span[1]])


class TestResponseReaderMatchesReference:
    @settings(max_examples=1000, deadline=None)
    @given(
        st.one_of(
            st.lists(_SCANNER_PIECES, max_size=30).map(lambda pieces: ("".join(pieces), True, None)),
            _responses(),
        ),
        st.sampled_from([None, 0, 3]),
    )
    @example(('{"a\\"}"', True, None), None)
    @example(('{"a": "\\\\"}, "outcome": 1}', True, None), None)
    @example(('{"reasoning_steps": [{"a": "]"}, "outcome": "1"}', True, None), None)
    @example(('{"outcome": "1", "outcome": "0"}', False, "0"), None)
    @example(('{"outc\\u006fme": 2}', False, "2"), None)
    @example(('{"outcome": 1,}', True, "1"), None)
    @example(('{"outcome": 1 "band": "H"}', True, "1"), None)
    def test_parse_and_locate_equal_references(self, case, expect_steps):
        raw, plain, outcome_text = case
        want, want_kind = _parsed(reference.parse_structured_response, raw, expect_steps)
        got, got_kind = _parsed(parse_structured_response, raw, expect_steps)
        decodes = want_kind is not Reason.MALFORMED_JSON
        if decodes and want_kind is not Reason.MISSING_OUTCOME:
            obj = _reference_object(raw)
            steps, p = obj.get("reasoning_steps"), obj.get("p_correct")
            # the two changes made on purpose: falsy non-list steps are
            # invalid, and a non-finite p_correct is absent
            if not isinstance(steps, (list, type(None))):
                want, want_kind = None, Reason.INVALID_STEPS
            elif want is not None and isinstance(p, float) and not math.isfinite(p):
                want = dataclasses.replace(want, p_correct=None)
        assert (got, got_kind) == (want, want_kind)

        if not decodes:
            with pytest.raises(ParseFailure) as err:
                locate_structured_fields(raw)
            assert err.value.kind is Reason.MALFORMED_JSON
            return
        spans = locate_structured_fields(raw)
        if plain:
            assert spans == reference.locate_structured_fields(raw)
        if outcome_text is not None:
            # the last outcome key, escaped or not, is the one located
            vs, ve = spans.outcome_value
            assert raw[vs:ve] == outcome_text


class TestLocateStructuredFields:
    def test_outcome_and_reasoning_spans(self):
        raw = '{"outcome": "1", "reasoning_steps": [{"step_number": 1, "description": "has a 0 in it"}]}'
        spans = locate_structured_fields(raw)
        vs, ve = spans.outcome_value
        assert raw[vs:ve] == "1"
        rs, re_ = spans.reasoning_array
        assert raw[rs] == "[" and raw[re_ - 1] == "]"

    def test_bare_integer_outcome(self):
        raw = '{"p_correct": 85, "outcome": 2}'
        spans = locate_structured_fields(raw)
        vs, ve = spans.outcome_value
        assert raw[vs:ve] == "2"

    def test_digit_inside_reasoning_not_picked(self):
        raw = '{"reasoning_steps": [{"step_number": 1, "description": "outcome 1"}], "outcome": "0"}'
        spans = locate_structured_fields(raw)
        vs, ve = spans.outcome_value
        assert raw[vs:ve] == "0"
        assert vs > spans.reasoning_array[1]

    def test_last_duplicate_and_escaped_keys_located(self):
        raw = '{"outcome": "1", "reasoning_steps": [], "outc\\u006fme": 2, "reasoning_steps": null}'
        spans = locate_structured_fields(raw)
        vs, ve = spans.outcome_value
        rs, re_ = spans.reasoning_array
        assert (raw[vs:ve], raw[rs:re_]) == ("2", "null")

    @pytest.mark.parametrize("raw", ['{"outcome": 1,,}', '{"outcome" 1}', "no object", '{"outcome": "1}'])
    def test_invalid_object_is_not_located(self, raw):
        with pytest.raises(ParseFailure) as err:
            locate_structured_fields(raw)
        assert err.value.kind is Reason.MALFORMED_JSON

    @pytest.mark.parametrize(
        "raw,message",
        [
            ('Here it is: {"outcome" 1}', r"char 23\)$"),
            ('Here: {"outcome": "1", "x": ' + "[" * 5000 + "]" * 5000 + "}", "recursion"),
        ],
        ids=["offset", "nesting"],
    )
    def test_malformed_message_counts_in_the_whole_response(self, raw, message):
        with pytest.raises(ParseFailure, match=message) as err:
            locate_structured_fields(raw)
        assert err.value.kind is Reason.MALFORMED_JSON

    def test_values_are_decoded_but_not_compared(self):
        raw = 'Sure: {"outcome": "1", "p_correct": 85, "reasoning_steps": [], "outcome": 2} ok'
        spans = locate_structured_fields(raw)
        assert spans.values == {"outcome": 2, "p_correct": 85, "reasoning_steps": []}
        assert spans == dataclasses.replace(spans, values={})
        # parsing the located fields is parsing the text
        assert parse_structured_response(spans) == parse_structured_response(raw)


class TestTraceInvariantsAndRoundTrip:
    def test_exactly_one_outcome_record(self, trace_factory):
        trace = trace_factory()
        assert len(trace.outcome.chosen) == 1
        token_label = normalize_outcome_token(trace.outcome.chosen[0])
        assert token_label is trace.structured.outcome
        for outcome in (token_span([]), token_span([("1", -0.1, []), ("0", -0.2, [])])):
            with pytest.raises(ValueError, match="outcome-span tokens, want 1"):
                ResponseTrace("x", trace.structured, outcome, trace.reasoning)

    def test_attempt_bounds(self, trace_factory):
        with pytest.raises(ValueError):
            trace_factory(attempt=5)

    def test_candidates_sorted_and_chosen_appended(self):
        span = token_span([("1", -0.5, [("0", -2.0), ("2", -1.0)]), ("a", -0.1, [("a", -0.1)])])
        assert span.surfaces == (("1", "2", "0"), ("a",))
        assert span.logprobs.tolist() == [[-0.5, -1.0, -2.0], [-0.1, -np.inf, -np.inf]]
        assert span.chosen == ("1", "a") and span.chosen_logprobs.tolist() == [-0.5, -0.1]

    def test_positive_logprob_clamped(self):
        span = token_span([("x", 5e-10, [("x", 5e-10)])])
        assert span.chosen_logprobs[0] == 0.0 and span.logprobs[0, 0] == 0.0
        with pytest.raises(ValueError):
            token_span([("x", 0.1, [])])

    def test_jsonl_round_trip(self, tmp_path, trace_factory):
        traces = [
            trace_factory(item_id="a", reasoning_logprobs=(-0.7, -0.2)),
            trace_factory(item_id="b", outcome=OutcomeLabel.INCONCLUSIVE_EVIDENCE,
                          outcome_probs={"2": 0.8, "1": 0.2}),
        ]
        path = tmp_path / "traces.jsonl"
        write_traces_jsonl(traces, path)
        loaded = read_traces_jsonl(path)
        assert [trace_to_dict(t) for t in loaded] == [trace_to_dict(t) for t in traces]

    def test_token_dicts_list_the_outcome_then_the_reasoning(self, trace_factory):
        # the order the benchmark's stub fixtures are built in
        trace = trace_factory(reasoning_logprobs=(-1.0, -0.3, -0.6))
        records = token_records_from_dict(trace_to_dict(trace))
        assert [r.span for r in records] == [Span.OUTCOME] + [Span.REASONING] * 3
        assert records_view(records[:1]) == span_view(trace.outcome)
        assert records_view(records[1:]) == span_view(trace.reasoning)

    def test_interrupted_write_keeps_the_previous_file(self, tmp_path):
        traces, _ = generate_corpus(SynthConfig(n_items=5, cot=True, seed=3))
        path = tmp_path / "traces.jsonl"
        write_traces_jsonl(traces[:2], path)
        before = path.read_bytes()

        def interrupted():
            yield traces[4]
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_traces_jsonl(interrupted(), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("cot", [False, True], ids=["direct", "cot"])
    def test_write_of_read_is_byte_identical(self, tmp_path, cot):
        traces, _ = generate_corpus(SynthConfig(n_items=300, cot=cot, seed=42))
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        write_traces_jsonl(traces, first)
        write_traces_jsonl(read_traces_jsonl(first), second)
        assert first.read_bytes() == second.read_bytes()
        # each span holds what the per-token records held
        for line in first.read_text().splitlines():
            (trace,) = trace_from_dict([json.loads(line)])
            records = token_records_from_dict(trace_to_dict(trace))
            assert span_view(trace.outcome) == records_view([r for r in records if r.span is Span.OUTCOME])
            assert span_view(trace.reasoning) == records_view([r for r in records if r.span is Span.REASONING])


_SURFACES = st.sampled_from(["0", "1", " 1", "a"])
# ties (0.0 against -0.0 included), values the tolerance clamps to 0, and
# the values both builders must reject
_TOKEN_LOGPROBS = st.one_of(
    st.floats(min_value=-30, max_value=0),
    st.sampled_from((0.0, -0.0, -0.7, -800.0)),
    st.floats(min_value=0.0, max_value=LOGPROB_TOLERANCE, exclude_min=True),
)
_BAD_LOGPROBS = st.sampled_from((float("nan"), float("inf"), float("-inf"), 2 * LOGPROB_TOLERANCE, 0.5))


@st.composite
def _token_triples(draw):
    logprobs = st.one_of(_TOKEN_LOGPROBS, _BAD_LOGPROBS) if draw(st.integers(0, 9)) == 0 else _TOKEN_LOGPROBS
    tokens = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        surface = draw(_SURFACES)
        logprob = draw(logprobs)
        candidates = draw(st.lists(st.tuples(_SURFACES, logprobs), max_size=8))
        if draw(st.booleans()):
            # the chosen token among its candidates, possibly with another logprob
            at = draw(st.integers(min_value=0, max_value=len(candidates)))
            candidates.insert(at, (surface, draw(st.sampled_from((logprob, draw(logprobs))))))
        tokens.append((surface, logprob, candidates))
    return tokens


class TestTokenSpanMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(_token_triples())
    @example([("1", 0.0, [("0", -0.0), ("1", -0.0), ("1", 5e-10)])])
    @example([("1", -0.5, []), ("a", -0.1, [("0", -3.0), ("1", -0.2)])])
    def test_chosen_and_candidate_order_equal_records(self, tokens):
        try:
            records = [record(*t) for t in tokens]
        except ValueError:
            with pytest.raises(ValueError):
                token_span(tokens)
            return
        span = token_span(tokens)
        assert span_view(span) == records_view(records)
        assert span.logprobs.shape == (len(tokens), max((len(r.candidates) for r in records), default=0))
        for row, srf in zip(span.logprobs, span.surfaces):
            assert np.all(row[len(srf):] == -np.inf)


# every kind of value a caller may hand token_span as a logprob: floats
# that pass the bulk check, ties, values in and beyond the clamp tolerance,
# non-finite ones, and numbers of other types, which only the per-value
# loop's float() reads
_ANY_LOGPROBS = st.one_of(
    st.floats(min_value=-30, max_value=0),
    st.sampled_from((0.0, -0.0, -0.7, -0.7, -1.7e308)),
    st.floats(min_value=0.0, max_value=LOGPROB_TOLERANCE, exclude_min=True),
    st.sampled_from((math.nan, math.inf, -math.inf, 2 * LOGPROB_TOLERANCE, 0.5)),
    st.integers(min_value=-3, max_value=1),
    st.sampled_from((True, False, -(10**400))),
    st.sampled_from(("-0.5", "0", "-0.0", "1e-10", " -2 ", "x")),
    st.floats(min_value=-30, max_value=1e-9).map(np.float64),
)


@st.composite
def _token_specs(draw):
    """token_span triples, each with how its candidates are held: a list,
    a tuple, or an iterator that can be read only once. Mostly floats, so
    that most spans pass the bulk check: ragged, tied, unsorted rows,
    chosen tokens absent from their candidates, empty candidate lists."""
    logprobs = _ANY_LOGPROBS if draw(st.integers(0, 3)) == 0 else _SPAN_LOGPROBS
    specs = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        surface, logprob = draw(_SURFACES), draw(logprobs)
        candidates = draw(st.lists(st.tuples(_SURFACES, logprobs), max_size=6))
        if draw(st.booleans()):
            candidates.insert(draw(st.integers(0, len(candidates))), (surface, draw(st.sampled_from((logprob, draw(logprobs))))))
        if draw(st.booleans()) and all(type(lp) is float for _, lp in candidates):
            candidates.sort(key=lambda c: c[1], reverse=True)
        specs.append((surface, logprob, candidates, draw(st.sampled_from((list, tuple, iter)))))
    return specs, draw(st.sampled_from((list, tuple, iter)))


def _tokens(specs, outer):
    """Fresh triples from _token_specs, built anew for each call, since an
    iterator is spent once read."""
    return outer([(surface, logprob, hold(candidates)) for surface, logprob, candidates, hold in specs])


def _built(build, tokens):
    """build(tokens) as a span's bits, or the type and message it raised."""
    try:
        return _bits(build(tokens))
    except (ValueError, TypeError, OverflowError) as exc:
        return type(exc), str(exc)


class TestTokenSpanBulkCheck:
    @settings(max_examples=600, deadline=None)
    @given(_token_specs())
    @example(([], list))
    @example(([("a", -0.5, [], list), ("b", -0.0, [("b", 0.0), ("c", -0.0)], tuple)], list))
    @example(([("a", -0.5, [("b", -0.1), ("a", -0.5)], list)], tuple))
    @example(([("a", 5e-10, [("a", 5e-10), ("b", -1.0)], list)], list))
    @example(([("a", -1.7e308, [("a", -1.7e308), ("b", -1.7e308)], list)], list))
    @example(([("a", -1, [("a", True)], list)], list))
    @example(([("a", "-0.5", [("b", np.float64(-0.25))], iter)], iter))
    # nan is the loop's first error; sorting the row first would raise
    # OverflowError comparing the huge int with the np.float64
    @example(([("0", math.nan, [("0", -(10**400)), ("0", np.float64(0.0))], list)], list))
    # a sum started by an np.float64 is numpy's, whose overflow warns
    @example(([("a", np.float64(-1.0), [("b", -1.7e308), ("c", -1.7e308)], list)], list))
    def test_equals_the_per_value_loop(self, spec):
        specs, outer = spec
        got = _built(token_span, _tokens(specs, outer))
        assert got == _built(token_span_reference, _tokens(specs, outer))
        if not isinstance(got[0], type):
            # the reference's dtypes, shapes and padding, not just equal values
            span = token_span(_tokens(specs, outer))
            assert span.logprobs.dtype == span.chosen_logprobs.dtype == np.float64
            assert all(type(s) is tuple for s in span.surfaces) and type(span.surfaces) is tuple


@st.composite
def _chosen_first_tokens(draw):
    """Tokens as the benchmark's stub hands them to the gateway: each row
    holds the chosen token first and then its alternatives in any order,
    so a row is often not descending; rows of 1 to 7 candidates in one
    span, and logprobs drawn from a few values, so ties are common."""
    values = st.one_of(st.sampled_from((-0.0, 0.0, -0.7, -0.7, -1.2, -3.0)), st.floats(min_value=-9, max_value=0))
    tokens = []
    for t in range(draw(st.integers(min_value=1, max_value=30))):
        chosen = (f"w{t}", draw(values))
        alternatives = [(f"v{t}_{j}", draw(values)) for j in range(draw(st.integers(0, 6)))]
        tokens.append((*chosen, (chosen, *alternatives)))
    return tokens


class TestTokenSpanChosenFirst:
    @settings(max_examples=300, deadline=None)
    @given(_chosen_first_tokens())
    @example([("a", -0.7, (("a", -0.7), ("b", -0.7), ("c", 0.0)))])
    @example([("a", -0.0, (("a", -0.0), ("b", 0.0))), ("c", -1.2, (("c", -1.2),))])
    def test_equals_the_reference_with_ties_in_stable_order(self, tokens):
        assert _bits(token_span(tokens)) == _bits(token_span_reference(tokens))


# values a written span can hold: ties (0.0 against -0.0 included), and
# one so large in magnitude that a sum over two of them overflows
_SPAN_LOGPROBS = st.one_of(
    st.floats(min_value=-30, max_value=0),
    st.sampled_from((0.0, -0.0, -0.7, -1.7e308)),
)


@st.composite
def _spans(draw, min_tokens=0, max_tokens=4):
    """A span as token_span builds it: ragged widths, and 1-token and
    empty spans among them."""
    n = draw(st.integers(min_value=min_tokens, max_value=max_tokens))
    candidates = st.lists(st.tuples(_SURFACES, _SPAN_LOGPROBS), max_size=6)
    return token_span([(draw(_SURFACES), draw(_SPAN_LOGPROBS), draw(candidates)) for _ in range(n)])


@st.composite
def _traces(draw, max_traces=3):
    traces = []
    for i in range(draw(st.integers(min_value=1, max_value=max_traces))):
        outcome = draw(st.sampled_from(list(OutcomeLabel)))
        steps = tuple(ReasoningStep(n + 1, draw(st.text(max_size=5))) for n in range(draw(st.integers(0, 3))))
        p_correct = draw(st.one_of(st.none(), st.sampled_from((0, 55, 100))))
        band = draw(st.one_of(st.none(), st.sampled_from(list(ConfidenceBand))))
        structured = StructuredResponse(outcome, steps, p_correct, band)
        attempt = draw(st.integers(min_value=1, max_value=4))
        traces.append(ResponseTrace(f"item-{i}", structured, draw(_spans(1, 1)), draw(_spans()), attempt))
    return traces


def _bits(span):
    """A span with its arrays as (dtype, shape, bytes): bytes keep -0.0
    apart from 0.0 and nan payloads apart."""
    arrays = (span.chosen_logprobs, span.logprobs)
    return (span.chosen, span.surfaces, *((a.dtype, a.shape, a.tobytes()) for a in arrays))


def _trace_bits(trace):
    return (trace.item_id, trace.attempt, trace.structured, _bits(trace.outcome), _bits(trace.reasoning))


_VALUE_RULE = "span record logprobs must be finite and at most 0"
_CHOSEN_RULE = "span record chosen tokens must be among their candidates"
_ROW_RULE = "span record candidate rows must be in descending order"

# each fault the span reader checks for, as token_span triples, with the
# message of the rule its record breaks (None: it reads as token_span's)
_FAULTY_SPANS = [
    ([("a", math.nan, [("a", -0.1)])], _VALUE_RULE),
    ([("a", -0.1, [("a", -0.1), ("b", math.inf)])], _VALUE_RULE),
    ([("a", -math.inf, [("a", -0.5)])], _VALUE_RULE),
    ([("a", -0.1, [("b", 0.25), ("a", -0.1)])], _VALUE_RULE),
    ([("a", 5e-10, [("a", 5e-10), ("b", -1.0)])], _VALUE_RULE),
    ([("a", -0.5, [("a", -0.5), ("b", -0.1)])], _ROW_RULE),
    ([("a", -0.5, [("b", -0.1)])], _CHOSEN_RULE),
    ([("a", -1.7e308, [("a", -1.7e308), ("b", -1.7e308)])], None),
    ([("a", -0.1, [("a", -0.1)]), ("b", -0.2, [("b", -0.2), ("c", -1.0), ("d", -2.0)]), ("c", -0.0, [])], _CHOSEN_RULE),
]
_RECORD_LOGPROBS = st.one_of(
    _SPAN_LOGPROBS,
    st.sampled_from((math.nan, math.inf, -math.inf, 0.25, 5e-10)),
)


@st.composite
def _record_triples(draw):
    """token_span triples as a file might hold them: mostly sorted with the
    chosen surface among its candidates, sometimes not, sometimes with a
    value token_span clamps or rejects."""
    logprobs = _RECORD_LOGPROBS if draw(st.booleans()) else _SPAN_LOGPROBS
    tokens = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        surface, logprob = draw(_SURFACES), draw(logprobs)
        candidates = draw(st.lists(st.tuples(_SURFACES, logprobs), max_size=6))
        if draw(st.integers(0, 3)):
            candidates.append((surface, draw(st.sampled_from((logprob, draw(logprobs))))))
        if draw(st.integers(0, 3)):
            candidates.sort(key=lambda c: c[1], reverse=True)
        tokens.append((surface, logprob, candidates))
    return tokens


def _float64_text(values) -> str:
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


def _record(tokens) -> dict:
    """The span record of token_span triples, with nothing checked or
    sorted: the logprobs as base64 text of their float64 bytes, each row's
    after the last."""
    return {
        "chosen": [surface for surface, _, _ in tokens],
        "chosen_logprobs": _float64_text([logprob for _, logprob, _ in tokens]),
        "surfaces": [[s for s, _ in candidates] for _, _, candidates in tokens],
        "logprobs": _float64_text([lp for _, _, candidates in tokens for _, lp in candidates]),
    }


def _read_record(tokens):
    """The reasoning span trace_from_dict reads from the record of token
    triples, after a JSON round trip."""
    outcome = _record([("1", -0.1, [("1", -0.1)])])
    obj = {"item_id": "x", "structured": {"outcome": 1}, "spans": {"outcome": outcome, "reasoning": _record(tokens)}}
    return trace_from_dict([json.loads(json.dumps(obj))])[0].reasoning


def _assert_read_follows_the_rule(tokens):
    """The record of token triples reads as token_span's span of them when
    it equals the record _span_record writes of that span; otherwise, and
    whenever token_span raises, the reader raises."""
    try:
        span = token_span(tokens)
    except ValueError:
        with pytest.raises(ValueError):
            _read_record(tokens)
        return
    # the written record holds tuples, the drawn one lists
    if json.loads(json.dumps(schema._span_record(span))) == json.loads(json.dumps(_record(tokens))):
        assert _bits(_read_record(tokens)) == _bits(span)
    else:
        with pytest.raises(ValueError, match="^span record "):
            _read_record(tokens)


class TestUnzipBeforeCheck:
    """token_span unzips every triple before it checks a logprob, so a
    triple or candidate pair that does not unpack is raised ahead of a bad
    logprob earlier in the stream, which token_span_reference, checking
    each value as it reads it, raises instead."""

    @pytest.mark.parametrize("tokens, message", [
        ([("a", math.nan, []), ("b", -1.0)], "not enough values to unpack (expected 3, got 2)"),
        ([("a", math.nan, [("a", -0.5), ("b",)])], "not enough values to unpack (expected 2, got 1)"),
        ([("a", 0.5, []), ("b", -1.0, [], "extra")], "too many values to unpack (expected 3)"),
    ], ids=["triple", "pair", "long-triple"])
    def test_unpack_error_comes_first(self, tokens, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
            token_span(tokens)
        assert not isinstance(raised.value, InvalidLogprob)
        with pytest.raises(InvalidLogprob):
            token_span_reference(tokens)

    @pytest.mark.parametrize("tokens", [
        [("a", math.nan, []), ("b", -1.0, [])],
        [("a", -0.5, []), ("b", -1.0)],
        [("a", -0.5, [("a", -0.5), ("b",)])],
    ], ids=["bad-logprob", "short-triple", "short-pair"])
    def test_a_single_fault_raises_as_before(self, tokens):
        assert _built(token_span, tokens) == _built(token_span_reference, tokens)


class TestBulkRuleOrder:
    def test_ints_that_are_one_float_keep_their_order(self):
        # the ints differ, but the span holds them as one float, a tie
        tokens = [("a", -(2**53 + 1), [("a", -(2**53 + 1)), ("b", -(2**53))])]
        assert _bits(token_span(tokens)) == _bits(token_span_reference(tokens))
        _assert_read_follows_the_rule(tokens)


class TestSpanRecords:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_traces())
    def test_written_traces_read_back_bit_equal(self, tmp_path, traces):
        path = tmp_path / "traces.jsonl"
        write_traces_jsonl(traces, path)
        assert all("spans" in json.loads(line) for line in path.read_text().splitlines())
        assert [_trace_bits(t) for t in read_traces_jsonl(path)] == [_trace_bits(t) for t in traces]
        # a file of per-token lines, as trace files were once written, is refused at its first line
        path.write_text("".join(json.dumps(trace_to_dict(t)) + "\n" for t in traces))
        with pytest.raises(ValueError, match=f"^line 1 of {re.escape(str(path))}: .* has no 'spans' key$"):
            read_traces_jsonl(path)

    @settings(max_examples=400, deadline=None)
    @given(_record_triples())
    def test_record_reads_like_token_span(self, tokens):
        _assert_read_follows_the_rule(tokens)

    @pytest.mark.parametrize("tokens, message", _FAULTY_SPANS, ids=[
        "nan", "inf", "minus-inf", "positive", "clamped", "unsorted", "chosen-missing", "sum-overflows", "ragged",
    ])
    def test_faulty_record_refused(self, tokens, message):
        if message is None:
            assert _bits(_read_record(tokens)) == _bits(token_span(tokens))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                _read_record(tokens)

    def test_line_without_spans_refused(self, trace_factory):
        obj = trace_to_dict(trace_factory(item_id="a", reasoning_logprobs=(-0.5,)))
        with pytest.raises(ValueError, match="^trace 'a' has no 'spans' key$"):
            trace_from_dict([obj])

    def test_record_lists_of_different_lengths_rejected(self):
        record = _record([("a", -0.1, [("a", -0.1), ("b", -0.2)])])
        record["logprobs"] = _float64_text([-0.1])
        obj = {"item_id": "x", "structured": {"outcome": 1},
               "spans": {"outcome": _record([("1", -0.1, [("1", -0.1)])]), "reasoning": record}}
        with pytest.raises(ValueError, match="span record lists differ in length"):
            trace_from_dict([obj])

    @pytest.mark.parametrize("field, text", [
        ("chosen_logprobs", "-0.5"),
        ("logprobs", "AAAAAAAA 4L8="),
        ("logprobs", "AAAAAAAA4L8=\n"),
        ("chosen_logprobs", "AAAAAAAA4L8=AAAAAAAA4L8="),
    ], ids=["text", "space", "line-break", "inner-padding"])
    def test_logprobs_that_are_not_base64_text_refused(self, field, text):
        # the lenient decoder would drop the space and the line break
        record = _record([("a", -0.5, [("a", -0.5)])])
        record[field] = text
        obj = {"item_id": "x", "structured": {"outcome": 1}, "spans": {"outcome": record, "reasoning": _record([])}}
        with pytest.raises(binascii.Error):
            trace_from_dict([obj])

    @pytest.mark.parametrize("field", ["chosen_logprobs", "logprobs"])
    def test_decimal_span_record_refused(self, field):
        # the older form: the logprobs as JSON numbers, the rows as lists
        record = _record([("a", -0.5, [("a", -0.5)])])
        record[field] = [-0.5] if field == "chosen_logprobs" else [[-0.5]]
        obj = {"item_id": "x", "structured": {"outcome": 1}, "spans": {"outcome": record, "reasoning": _record([])}}
        with pytest.raises(ValueError, match="^span record logprobs are not base64 text: .* older trace-file form"):
            trace_from_dict([obj])

    @pytest.mark.parametrize("cot", [False, True], ids=["direct", "cot"])
    def test_read_arrays_are_float64_and_extract(self, tmp_path, cot):
        traces, _ = generate_corpus(SynthConfig(n_items=40, cot=cot, seed=5))
        path = tmp_path / "traces.jsonl"
        write_traces_jsonl(traces, path)
        loaded = read_traces_jsonl(path)
        for trace in loaded:
            for span in (trace.outcome, trace.reasoning):
                assert span.chosen_logprobs.dtype == span.logprobs.dtype == np.float64
                assert span.chosen_logprobs.shape == (len(span.chosen),)
                assert span.logprobs.shape[0] == len(span.chosen)
        for read, written in zip(loaded, traces):
            one, expected = extract_table([read]), extract_table([written])
            assert one.names == expected.names and one.matrix.tobytes() == expected.matrix.tobytes()


class TestPCorrectRule:
    """A trace file's p_correct is what parse_structured_response leaves:
    null, or an int that is a multiple of 5 in [0, 100]."""

    @pytest.mark.parametrize("value", ["high", 250, -40, 62.5, 85.0, 7, True, False, [85]], ids=str)
    def test_any_other_value_refused_naming_its_line(self, tmp_path, value):
        traces, _ = generate_corpus(SynthConfig(n_items=10, seed=3))
        path = tmp_path / "traces.jsonl"
        write_traces_jsonl(traces, path)
        lines = path.read_text().splitlines(keepends=True)
        obj = json.loads(lines[3])
        obj["structured"]["p_correct"] = value
        lines[3] = json.dumps(obj) + "\n"
        path.write_text("".join(lines))
        message = f"line 4 of {path}: p_correct must be null or a multiple of 5 in [0, 100], got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_traces_jsonl(path)


_STEPS_RULE = "reasoning_steps must hold objects of an int step_number and a str description, got "


class TestFieldTypes:
    """A trace file's outcome, attempt and reasoning steps are of the types
    write_traces_jsonl writes them as: the outcome an int in [0, 3], the
    attempt an int in [1, MAX_ATTEMPTS], the steps a list of objects, each
    with an int step_number and a str description. A bool is no int."""

    @pytest.mark.parametrize("field, value, message", [
        ("outcome", 1.9, "outcome must be an int in [0, 3], got 1.9"),
        ("outcome", True, "outcome must be an int in [0, 3], got True"),
        ("outcome", "0", "outcome must be an int in [0, 3], got '0'"),
        ("outcome", 4, "outcome must be an int in [0, 3], got 4"),
        ("attempt", "x", "attempt must be an int in [1, 4], got 'x'"),
        ("attempt", 2.0, "attempt must be an int in [1, 4], got 2.0"),
        ("attempt", True, "attempt must be an int in [1, 4], got True"),
        ("attempt", 0, "attempt must be an int in [1, 4], got 0"),
        ("reasoning_steps", "abc", "reasoning_steps must be a list, got 'abc'"),
        ("reasoning_steps", [{"step_number": "1", "description": 5}],
         _STEPS_RULE + "{'step_number': '1', 'description': 5}"),
        ("reasoning_steps", [{"step_number": True, "description": "a"}],
         _STEPS_RULE + "{'step_number': True, 'description': 'a'}"),
        ("reasoning_steps", [[1, "a"]], _STEPS_RULE + "[1, 'a']"),
    ], ids=[
        "outcome-float", "outcome-bool", "outcome-text", "outcome-4", "attempt-text", "attempt-float",
        "attempt-bool", "attempt-0", "steps-text", "step-types", "step-number-bool", "step-list",
    ])
    def test_other_types_refused_naming_the_field(self, tmp_path, field, value, message):
        traces, _ = generate_corpus(SynthConfig(n_items=5, cot=True, seed=3))
        path = tmp_path / "traces.jsonl"
        write_traces_jsonl(traces, path)
        lines = path.read_text().splitlines(keepends=True)
        obj = json.loads(lines[2])
        (obj if field == "attempt" else obj["structured"])[field] = value
        lines[2] = json.dumps(obj) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(f'line 3 of {path}: {message}')}$"):
            read_traces_jsonl(path)

    # the text "1" in place of the list ["1"] read as that list before
    @pytest.mark.parametrize("span, key, value", [
        ("outcome", "chosen", "1"),
        ("outcome", "chosen", [1]),
        ("outcome", "chosen", [None]),
        ("outcome", "surfaces", [["0", "1", 2, "3"]]),
        ("outcome", "surfaces", ["0123"]),
        ("outcome", "surfaces", "0123"),
        ("reasoning", "chosen", ["a"] * 10 + [["b"]]),
        ("outcome", "surfaces", [5]),
        ("outcome", "surfaces", None),
        ("outcome", "surfaces", 5),
        ("reasoning", "surfaces", [{"a": 1}]),
    ], ids=[
        "chosen-text", "chosen-int", "chosen-null", "surface-int", "surfaces-row-text", "surfaces-text",
        "surfaces-row-int", "surfaces-null", "surfaces-int", "reasoning-chosen-nested", "reasoning-surfaces-object",
    ])
    def test_span_record_lists_of_other_types_refused(self, tmp_path, span, key, value):
        traces, _ = generate_corpus(SynthConfig(n_items=5, cot=True, seed=3))
        path = tmp_path / "traces.jsonl"
        write_traces_jsonl(traces, path)
        lines = path.read_text().splitlines(keepends=True)
        obj = json.loads(lines[2])
        record = obj["spans"][span]
        if key == "chosen" and span == "reasoning":
            value = value[: len(record["chosen"]) - 1] + value[-1:]
        record[key] = value
        lines[2] = json.dumps(obj) + "\n"
        path.write_text("".join(lines))
        message = "span record chosen and surfaces rows must be lists of strings"
        with pytest.raises(ValueError, match=f"^{re.escape(f'line 3 of {path}: {message}')}$"):
            read_traces_jsonl(path)


def _edited_line(line: str, fault: str) -> str:
    """A trace-file line with one fault in its outcome record."""
    obj = json.loads(line)
    record = obj["spans"]["outcome"]
    if fault == "bad-base64":
        record["chosen_logprobs"] = "*" + record["chosen_logprobs"]
    elif fault == "byte-count":
        record["chosen_logprobs"] = base64.b64encode(bytes(7)).decode("ascii")
    elif fault == "nan":
        record["chosen_logprobs"] = _float64_text([math.nan])
    elif fault == "unsorted":
        obj["spans"]["outcome"] = _record([(record["chosen"][0], -0.5, [("z", -2.0), (record["chosen"][0], -0.5)])])
    elif fault == "chosen-missing":
        obj["spans"]["outcome"] = _record([(record["chosen"][0], -0.5, [("z", -2.0)])])
    else:
        del obj["spans"]
    return json.dumps(obj) + "\n"


# the faults a line's read raises for, an unsorted row and a chosen token
# missing from its row among them: the reader mends no record
_RAISING_FAULTS = ("bad-base64", "byte-count", "nan", "no-spans", "unsorted", "chosen-missing")


class TestBlockReader:
    """read_traces_jsonl reads schema._TRACE_BLOCK_LINES lines at a time;
    no block size changes what it reads or which line an error names."""

    BLOCK_SIZES = (1, 2, 7)

    def _read_each(self, path):
        """read_traces_jsonl(path) at each block size: bits, or the message raised."""
        results = []
        for lines in self.BLOCK_SIZES:
            with mock.patch.object(schema, "_TRACE_BLOCK_LINES", lines):
                try:
                    results.append([_trace_bits(t) for t in read_traces_jsonl(path)])
                except ValueError as exc:
                    results.append(str(exc))
        return results

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_traces(max_traces=16), st.data())
    def test_every_block_size_reads_alike(self, tmp_path, traces, data):
        path = tmp_path / "traces.jsonl"
        write_traces_jsonl(traces, path)
        assert self._read_each(path) == [[_trace_bits(t) for t in traces]] * len(self.BLOCK_SIZES)
        lines = path.read_text().splitlines(keepends=True)
        k = data.draw(st.integers(min_value=1, max_value=len(lines)), label="faulty line")
        fault = data.draw(st.sampled_from(_RAISING_FAULTS), label="fault")
        lines[k - 1] = _edited_line(lines[k - 1], fault)
        if k < len(lines) and data.draw(st.booleans(), label="a later raising fault too"):
            later = data.draw(st.integers(min_value=k + 1, max_value=len(lines)), label="later line")
            lines[later - 1] = _edited_line(lines[later - 1], data.draw(st.sampled_from(_RAISING_FAULTS)))
        if data.draw(st.booleans(), label="a blank line first"):
            lines.insert(0, "\n")
            k += 1
        path.write_text("".join(lines))
        results = self._read_each(path)
        assert all(result == results[0] for result in results)
        assert isinstance(results[0], str) and results[0].startswith(f"line {k} of {path}: ")
