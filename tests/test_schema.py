import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lppgate import schema
from lppgate.schema import (
    ConfidenceBand,
    FailureKind,
    OutcomeLabel,
    ParseFailure,
    RetryDecision,
    Span,
    decide_retry,
    find_balanced_object,
    locate_structured_fields,
    normalize_outcome_token,
    parse_structured_response,
    read_traces_jsonl,
    snap_confidence,
    trace_from_dict,
    trace_to_dict,
    write_traces_jsonl,
)


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
        assert err.value.kind is FailureKind.MISSING_OUTCOME

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
        assert err.value.kind is FailureKind.MALFORMED_JSON

    def test_no_object(self):
        with pytest.raises(ParseFailure) as err:
            parse_structured_response("plain text, no json")
        assert err.value.kind is FailureKind.MALFORMED_JSON

    def test_missing_outcome_field(self):
        with pytest.raises(ParseFailure) as err:
            parse_structured_response('{"p_correct": 80}')
        assert err.value.kind is FailureKind.MISSING_OUTCOME

    def test_invalid_band(self):
        with pytest.raises(ParseFailure) as err:
            parse_structured_response('{"outcome":"1","band":"HUGE"}')
        assert err.value.kind is FailureKind.INVALID_BAND

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
        assert err.value.kind is FailureKind.INVALID_STEPS

    def test_cot_requires_exactly_three_steps(self):
        raw = json.dumps(
            {
                "outcome": "1",
                "reasoning_steps": [{"step_number": 1, "description": "only one"}],
            }
        )
        with pytest.raises(ParseFailure) as err:
            parse_structured_response(raw, expect_steps=3)
        assert err.value.kind is FailureKind.INVALID_STEPS

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
        s = parse_structured_response('{"outcome":"1","p_correct":"high"}')
        assert s.p_correct is None


class TestDecideRetry:
    def test_accept_on_success(self):
        assert decide_retry(1, None) is RetryDecision.ACCEPT

    def test_retry_within_budget(self):
        failure = ParseFailure(FailureKind.MALFORMED_JSON)
        assert decide_retry(3, failure) is RetryDecision.RETRY

    def test_give_up_when_budget_exhausted(self):
        failure = ParseFailure(FailureKind.MALFORMED_JSON)
        assert decide_retry(4, failure) is RetryDecision.GIVE_UP

    @given(st.integers(min_value=1, max_value=50))
    def test_never_retry_past_three(self, attempt):
        decision = decide_retry(attempt, ParseFailure(FailureKind.MALFORMED_JSON))
        if attempt > 3:
            assert decision is RetryDecision.GIVE_UP
        else:
            assert decision is RetryDecision.RETRY


class TestBalancedObject:
    def test_finds_first_object(self):
        raw = 'noise {"a": {"b": 1}} trailing'
        start, end = find_balanced_object(raw)
        assert raw[start:end] == '{"a": {"b": 1}}'

    def test_braces_inside_strings_ignored(self):
        raw = '{"a": "}{", "b": 2}'
        start, end = find_balanced_object(raw)
        assert raw[start:end] == raw

    def test_unbalanced_returns_none(self):
        assert find_balanced_object('{"a": 1') is None


def _find_balanced_object_reference(raw):
    """find_balanced_object before both brace scanners became one helper."""
    start = raw.find("{")
    if start < 0:
        return None
    depth = 0
    in_string = False
    escape = False
    for i in range(start, len(raw)):
        ch = raw[i]
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return start, i + 1
    return None


def _scan_value_reference(raw, i, end):
    """_scan_value before its object/array branch shared find_balanced_object's scanner."""
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
        close = "}" if ch == "{" else "]"
        open_ = ch
        depth = 0
        in_string = False
        escape = False
        j = i
        while j < end:
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
                    return i, j + 1, j + 1
            j += 1
        return i, end, end
    j = i
    while j < end and raw[j] not in ",}]":
        j += 1
    k = j
    while k > i and raw[k - 1].isspace():
        k -= 1
    return i, k, j


# every character the scanners treat specially, plus filler; the pairs make
# escaped quotes and backslashes inside strings common
_SCANNER_PIECES = st.sampled_from([*'{}[]":,\\ a1', '\\"', "\\\\", '{"', '"}', '"a":', '["', '"]'])


class TestBraceScannerMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(_SCANNER_PIECES, max_size=30).map("".join))
    @example('{"a\\"}"')
    @example('{"a": "\\\\"}, "outcome": 1}')
    # an array left open runs to the object's end
    @example('{"reasoning_steps": [{"a": "]"}, "outcome": "1"}')
    def test_find_and_locate_equal_references(self, raw):
        assert find_balanced_object(raw) == _find_balanced_object_reference(raw)
        got = locate_structured_fields(raw)
        with mock.patch.object(schema, "find_balanced_object", _find_balanced_object_reference), mock.patch.object(
            schema, "_scan_value", _scan_value_reference
        ):
            want = locate_structured_fields(raw)
        assert got == want


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


class TestTraceInvariantsAndRoundTrip:
    def test_exactly_one_outcome_record(self, trace_factory):
        trace = trace_factory()
        assert trace.outcome_record().span is Span.OUTCOME
        token_label = normalize_outcome_token(trace.outcome_record().chosen.surface)
        assert token_label is trace.structured.outcome

    def test_attempt_bounds(self, trace_factory):
        with pytest.raises(ValueError):
            trace_factory(attempt=5)

    def test_candidates_sorted_and_chosen_appended(self):
        from lppgate.schema import TokenCandidate, TokenRecord

        rec = TokenRecord(
            chosen=TokenCandidate("1", -0.5),
            candidates=[TokenCandidate("0", -2.0), TokenCandidate("2", -1.0)],
        )
        assert [c.surface for c in rec.candidates] == ["1", "2", "0"]

    def test_positive_logprob_clamped(self):
        from lppgate.schema import TokenCandidate

        assert TokenCandidate("x", 5e-10).logprob == 0.0
        with pytest.raises(ValueError):
            TokenCandidate("x", 0.1)

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

    def test_dict_round_trip_preserves_spans(self, trace_factory):
        trace = trace_factory(reasoning_logprobs=(-1.0,))
        again = trace_from_dict(trace_to_dict(trace))
        assert [t.span for t in again.tokens] == [t.span for t in trace.tokens]
