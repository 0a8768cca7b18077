import dataclasses
import hashlib
import io
import json
import re
import sys
import tempfile
import tracemalloc
import warnings
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lppgate import cli, pipeline, policy, trainer
from lppgate.dataset import ResampleConfig, SplitSpec, label_correctness, stratified_split
from lppgate.features import ALL_FAMILIES, DEFAULT_TOP_K, FeatureFamily, catalog_names, family_of
from lppgate.schema import OutcomeLabel, token_span
from lppgate.synth import SynthConfig, generate_corpus
from tests import feature_file_reference
from tests.conftest import make_outcome_span, make_trace
from tests.policy_reference import always_trust_cost

QUICK_SPACE = [
    trainer.RidgeConfig(alpha=a, class_weight=cw, calibration=c)
    for a, cw, c in product((0.1, 10.0), ("1:1", "balanced"), ("sigmoid", "isotonic"))
]


def corpus(n=900, seed=42, **kwargs):
    cfg = SynthConfig(n_items=n, seed=seed, **kwargs)
    traces, rows = generate_corpus(cfg)
    labels = {r.item_id: (r.ground_truth, OutcomeLabel(r.llm_outcome)) for r in rows}
    return traces, labels


@pytest.fixture(scope="module")
def trained_setup():
    traces, labels = corpus()
    table = pipeline.extract_table(traces)
    rows = pipeline.build_examples(table, labels)
    split = stratified_split(rows, SplitSpec(test_negative_count=45, seed=42))
    ids = dict(zip(("train", "validation", "test"), split))
    gate, report = pipeline.train_gate(table, labels, ids["train"], ResampleConfig(seed=42), QUICK_SPACE, 42)
    return traces, labels, table, ids, gate, report


class TestExtractTable:
    def test_rows_sorted_by_item_id(self):
        traces, labels = corpus(n=50)
        table = pipeline.extract_table(reversed(traces))
        assert table.item_ids == sorted(table.item_ids)
        assert table.matrix.shape == (50, 45)

    def test_invalid_rows_collected(self):
        traces, labels = corpus(n=20)
        bad = make_trace(item_id="zzz-bad")
        bad.outcome = make_outcome_span({"junk": 0.0})
        table = pipeline.extract_table(list(traces) + [bad])
        assert table.invalid_ids == ["zzz-bad"]
        assert "zzz-bad" not in table.item_ids

    def test_non_finite_feature_row_is_invalid(self):
        # mean chosen logprob -800 makes the reasoning perplexity overflow
        traces, labels = corpus(n=20)
        bad = make_trace(item_id="item-overflow", reasoning_logprobs=(-800.0,) * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = pipeline.extract_table(list(traces) + [bad])
        assert table.invalid_ids == ["item-overflow"]
        assert table.item_ids == sorted(t.item_id for t in traces)
        assert np.isfinite(table.matrix).all()

    def test_repeated_item_id_rejected(self):
        traces, _ = corpus(n=20)
        with pytest.raises(ValueError, match=repr(traces[3].item_id)):
            pipeline.extract_table(list(traces) + [traces[3]])

    def test_family_subset(self):
        traces, _ = corpus(n=10)
        include = (FeatureFamily.OUTCOME_TOPK, FeatureFamily.ATTRIBUTION)
        table = pipeline.extract_table(traces, include)
        assert table.matrix.shape == (10, 11)
        assert {family_of(name) for name in table.names} == {"outcome_topk", "attribution"}


class TestBuildExamples:
    def test_labels_meet_rows_once(self):
        traces, labels = corpus(n=60, abstention_rate=0.2)
        table = pipeline.extract_table(traces)
        rows = pipeline.build_examples(table, labels)
        assert rows.item_ids == tuple(table.item_ids)
        assert rows.X is table.matrix
        for item_id, z, abstain in zip(rows.item_ids, rows.z, rows.abstain):
            truth, outcome = labels[item_id]
            assert z == label_correctness(outcome, truth)
            assert abstain == (outcome not in (OutcomeLabel.YES, OutcomeLabel.NO))
        assert rows.abstain.any() and not rows.z[rows.abstain].any()

    def test_ids_select_rows_in_the_given_order(self):
        traces, labels = corpus(n=30)
        table = pipeline.extract_table(traces)
        ids = [table.item_ids[i] for i in (7, 2, 19)]
        rows = pipeline.build_examples(table, labels, ids)
        assert rows.item_ids == tuple(ids)
        assert rows.X.tobytes() == table.matrix[[7, 2, 19]].tobytes()
        assert rows.z.tolist() == [label_correctness(labels[i][1], labels[i][0]) for i in ids]

    def test_row_without_label_raises(self):
        traces, labels = corpus(n=10)
        table = pipeline.extract_table(traces)
        missing = table.item_ids[3]
        del labels[missing]
        with pytest.raises(KeyError, match=missing):
            pipeline.build_examples(table, labels)
        with pytest.raises(KeyError, match=missing):
            pipeline.build_examples(table, labels, [table.item_ids[0], missing])
        pipeline.build_examples(table, labels, table.item_ids[:3])


class TestFileRoundTrips:
    def test_features_csv_lossless(self, tmp_path):
        traces, _ = corpus(n=40)
        table = pipeline.extract_table(traces)
        csv_path, sidecar = tmp_path / "f.csv", tmp_path / "f.json"
        pipeline.save_features(table, csv_path, sidecar)
        loaded = pipeline.load_features(csv_path, sidecar)
        assert loaded.item_ids == table.item_ids
        assert loaded.names == table.names
        assert np.array_equal(loaded.matrix, table.matrix)
        families = {name: family_of(name) for name in table.names}
        assert {name: family_of(name) for name in loaded.names} == families
        sidecar_families = json.loads(sidecar.read_text())["families"]
        assert {name: fam for fam, names in sidecar_families.items() for name in names} == families

    def test_features_without_header_refused(self, tmp_path):
        csv_path, sidecar = tmp_path / "f.csv", tmp_path / "f.json"
        sidecar.write_text("{}")
        for text in ("", "\n"):
            csv_path.write_text(text)
            with pytest.raises(ValueError, match=f"^{re.escape(str(csv_path))} has no header line$"):
                pipeline.load_features(csv_path, sidecar)
        # a header with no rows is a table of no rows
        csv_path.write_text("item_id,a,b\n")
        table = pipeline.load_features(csv_path, sidecar)
        assert table.item_ids == [] and table.names == ["a", "b"] and table.matrix.shape == (0, 2)

    @pytest.mark.parametrize(
        "text,match",
        [("[]", "must hold a JSON object, got list"), ('{"invalid_items": "abc"}', "'invalid_items'"),
         ('{"invalid_items": ["a", 1]}', "'invalid_items'")],
        ids=["list", "string", "non-string-id"],
    )
    def test_bad_sidecar_refused(self, tmp_path, text, match):
        csv_path, sidecar = tmp_path / "f.csv", tmp_path / "f.json"
        csv_path.write_text("item_id,a\nx,1.0\n")
        sidecar.write_text(text)
        with pytest.raises(ValueError, match=match) as err:
            pipeline.load_features(csv_path, sidecar)
        assert str(sidecar) in str(err.value)

    def test_labels_round_trip(self, tmp_path):
        _, rows = generate_corpus(SynthConfig(n_items=30, seed=1))
        path = tmp_path / "labels.csv"
        pipeline.save_labels(rows, path)
        labels = pipeline.load_labels(path)
        assert len(labels) == 30
        sample = rows[0]
        assert labels[sample.item_id] == (sample.ground_truth, OutcomeLabel(sample.llm_outcome))

    def test_id_list_round_trip(self, tmp_path):
        path = tmp_path / "ids.txt"
        pipeline.write_id_list(["a", "b", "c"], path)
        assert pipeline.read_id_list(path) == ["a", "b", "c"]

    def test_id_list_keeps_spaces_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "ids.txt"
        pipeline.write_id_list([" synth-000007", "b ", "c"], path)
        assert pipeline.read_id_list(path) == [" synth-000007", "b ", "c"]
        path.write_text("a\n\n b\n")
        assert pipeline.read_id_list(path) == ["a", " b"]

    def test_repeated_label_id_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("item_id,ground_truth,llm_outcome\na,1,1\nb,1,1\na,0,1\n")
        with pytest.raises(ValueError, match="item_id 'a' appears more than once"):
            pipeline.load_labels(path)

    def test_repeated_id_in_list_rejected(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("a\nb\na\n")
        with pytest.raises(ValueError, match="item_id 'a' appears more than once"):
            pipeline.read_id_list(path)

    @pytest.mark.parametrize("truth", [2, -1])
    def test_ground_truth_outside_zero_one_rejected(self, tmp_path, truth):
        path = tmp_path / "labels.csv"
        path.write_text(f"item_id,ground_truth,llm_outcome\na,1,1\nb,{truth},0\n")
        with pytest.raises(ValueError, match=f"'b' has ground_truth {truth}"):
            pipeline.load_labels(path)

    def test_short_label_row_names_file_and_item(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("item_id,ground_truth,llm_outcome\na,1,1\nb,0\n")
        with pytest.raises(ValueError, match=re.escape(f"item 'b' in {path} has 2 fields, not 3")):
            pipeline.load_labels(path)

    @pytest.mark.parametrize("bad", ["n\nl", "r\rx"])
    def test_features_refuse_line_break_id(self, tmp_path, bad):
        traces, _ = corpus(n=10)
        table = pipeline.extract_table(traces)
        table.item_ids[3] = bad
        csv_path, sidecar = tmp_path / "f.csv", tmp_path / "f.json"
        with pytest.raises(ValueError, match=re.escape(f"item_id {bad!r} holds a line break")):
            pipeline.save_features(table, csv_path, sidecar)
        assert not csv_path.exists() and not sidecar.exists()

    @pytest.mark.parametrize("bad", ["n\nl", "r\rx"])
    def test_labels_refuse_line_break_id(self, tmp_path, bad):
        _, rows = generate_corpus(SynthConfig(n_items=10, seed=1))
        rows[2] = dataclasses.replace(rows[2], item_id=bad)
        path = tmp_path / "labels.csv"
        with pytest.raises(ValueError, match=re.escape(f"item_id {bad!r} holds a line break")):
            pipeline.save_labels(rows, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", ["n\nl", "r\rx"])
    def test_id_list_refuses_line_break_id(self, tmp_path, bad):
        path = tmp_path / "ids.txt"
        with pytest.raises(ValueError, match=re.escape(f"item_id {bad!r} holds a line break")):
            pipeline.write_id_list(["a", bad, "zz"], path)
        assert not path.exists()


class TestCheckItemIds:
    def test_distinct_ids_pass(self):
        pipeline.check_item_ids(["a", "b", " a", "", "\x85\u2028"], "x")
        pipeline.check_item_ids([], "x")

    @pytest.mark.parametrize("bad", ["n\nl", "r\rx", "\r\n", "\n"])
    def test_line_break_refused(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"item_id {bad!r} holds a line break")):
            pipeline.check_item_ids(["a", bad], "x")

    def test_repeat_refused_naming_where(self):
        with pytest.raises(ValueError, match=re.escape("item_id 'b' appears more than once in ids.txt")):
            pipeline.check_item_ids(iter(["a", "b", "c", "b"]), "ids.txt")

    @pytest.mark.parametrize(
        "ids, message",
        [
            (["a", "b\n", "a"], "'b\\n' holds a line break"),
            (["a", "a", "b\n"], "'a' appears more than once"),
            (["a\n", "a\n"], "'a\\n' holds a line break"),
            (["b", "a", "a", "b"], "'a' appears more than once"),
        ],
        ids=["break-first", "repeat-first", "repeated-break", "first-repeat-in-order"],
    )
    def test_first_failure_in_order_is_reported(self, ids, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            pipeline.check_item_ids(ids, "x")


class TestInputsNameTheItem:
    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,1,7", "item 'a' has llm_outcome 7, not one of 0-3, in {path}"),
            ("a,1,-1", "item 'a' has llm_outcome -1, not one of 0-3, in {path}"),
            ("a,1,x", "item 'a' has llm_outcome x, not one of 0-3, in {path}"),
            ("a,yes,1", "item 'a' has ground_truth yes, not 0 or 1, in {path}"),
            ("a,,1", "item 'a' has ground_truth , not 0 or 1, in {path}"),
        ],
    )
    def test_label_value_errors_name_item_and_file(self, tmp_path, row, message):
        path = tmp_path / "labels.csv"
        path.write_text(f"item_id,ground_truth,llm_outcome\nb,0,0\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(message.format(path=path))):
            pipeline.load_labels(path)

    def test_repeated_feature_row_refused(self, tmp_path):
        traces, _ = corpus(n=10)
        csv_path, sidecar = tmp_path / "f.csv", tmp_path / "f.json"
        pipeline.save_features(pipeline.extract_table(traces), csv_path, sidecar)
        lines = csv_path.read_text().splitlines(keepends=True)
        csv_path.write_text("".join(lines + lines[1:2]))
        first = lines[1].partition(",")[0]
        with pytest.raises(ValueError, match=re.escape(f"item_id {first!r} appears more than once in {csv_path}")):
            pipeline.load_features(csv_path, sidecar)

    def test_submatrix_names_an_id_without_a_row(self):
        table = pipeline.FeatureTable(["a", "b"], catalog_names()[:1], np.array([[1.0], [2.0]]), ["gone"])
        assert table.submatrix(["b", "a"]).tolist() == [[2.0], [1.0]]
        with pytest.raises(KeyError, match=re.escape("item 'no-such-item' has no feature row")) as err:
            table.submatrix(["a", "no-such-item"])
        assert "invalid" not in str(err.value)
        with pytest.raises(KeyError, match=re.escape("item 'gone' has no feature row (extract listed it as invalid)")):
            table.submatrix(["gone"])


# Characters csv writes unquoted but str.splitlines() splits at, and '#',
# loadtxt's default comment marker; ',' and '"' make csv quote the field.
_ID_CHARS = [",", '"', "#", " ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "a", "7", "-"]
_IDS = st.one_of(
    st.sampled_from(["", '""', "synth-000001"]),
    st.text(st.sampled_from(_ID_CHARS), max_size=5),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n\x00"), max_size=5),
)
if sys.version_info >= (3, 11):
    # Ids ending in NUL: check_item_ids allows them and a numpy "<U" array
    # would strip them. csv reads a NUL only from Python 3.11 on; before
    # that csv.reader refuses the line.
    _IDS = st.one_of(_IDS, st.text(st.sampled_from(_ID_CHARS), max_size=4).map(lambda i: i + "\x00"))
_SPECIAL_VALUES = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1.7e308, -1.7e308]
_VALUES = st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats())


@st.composite
def _feature_tables(draw):
    # unique: save_features and load_features refuse a repeated id
    ids = draw(st.lists(_IDS, max_size=6, unique=True))
    names = draw(st.lists(st.sampled_from(catalog_names()), min_size=1, max_size=4, unique=True))
    values = draw(st.lists(_VALUES, min_size=len(ids) * len(names), max_size=len(ids) * len(names)))
    matrix = np.array(values, dtype=float).reshape(len(ids), len(names))
    return pipeline.FeatureTable(ids, names, matrix, draw(st.lists(_IDS, max_size=2)))


def _table(ids, n_names=3):
    names = catalog_names()[:n_names]
    values = (_SPECIAL_VALUES * len(ids) * n_names)[: len(ids) * n_names]
    return pipeline.FeatureTable(ids, names, np.array(values).reshape(len(ids), n_names))


class TestFeatureFileReference:
    """save_features / load_features against the csv-module versions they
    replaced (tests/feature_file_reference.py): the same CSV bytes, the same
    sidecar bytes apart from the binary copy's record, and the same ids,
    names and matrix bits read back, through the binary copy and through
    the CSV alone."""

    @settings(max_examples=300, deadline=None)
    @given(_feature_tables())
    @example(_table(["", " a\tb ", "#x", "x#", "\x0b\x0c\x1c\x85\u2028", "synth-000001"]))
    @example(_table(['a,b', '""', 'q"', ",", "#,"]))
    @example(_table([""]))
    @example(_table([]))
    def test_matches_reference(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            new, ref = Path(tmp, "new"), Path(tmp, "ref")
            csv_path, sidecar = new.with_suffix(".csv"), new.with_suffix(".json")
            pipeline.save_features(table, csv_path, sidecar)
            feature_file_reference.save_features(table, ref.with_suffix(".csv"), ref.with_suffix(".json"))
            assert csv_path.read_bytes() == ref.with_suffix(".csv").read_bytes()
            written = sidecar.read_text()
            doc = json.loads(written)
            assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == written
            assert set(doc.pop(pipeline.BINARY_COPY_KEY)) == {"csv_sha256", "sha256"}
            assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == ref.with_suffix(".json").read_text()
            expected = feature_file_reference.load_features(ref.with_suffix(".csv"), ref.with_suffix(".json"))
            # the first read takes the binary copy, so the CSV parser must not run
            with mock.patch.object(pipeline, "_parse_csv", side_effect=AssertionError("CSV parsed")):
                from_copy = pipeline.load_features(csv_path, sidecar)
            new.with_suffix(".npy").unlink()
            from_csv = pipeline.load_features(csv_path, sidecar)
        for loaded in (from_copy, from_csv):
            assert loaded.item_ids == expected.item_ids == table.item_ids
            assert loaded.names == expected.names == table.names
            assert loaded.invalid_ids == expected.invalid_ids
            assert loaded.matrix.flags.c_contiguous and loaded.matrix.dtype == np.float64
            assert loaded.matrix.shape == (len(table.item_ids), len(table.names))
            assert loaded.matrix.tobytes() == expected.matrix.tobytes()
            assert np.array_equal(loaded.matrix, table.matrix, equal_nan=True)

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_ends_read_as_csv_reads_them(self, tmp_path, end):
        csv_path, sidecar = tmp_path / "f.csv", tmp_path / "f.json"
        lines = [b"item_id,sequence.nll,sequence.perplexity", b"a,1.0,2.0", b'"b,""",nan,-0.0', b""]
        csv_path.write_bytes(end.join(lines))
        sidecar.write_text("{}")
        loaded = pipeline.load_features(csv_path, sidecar)
        expected = feature_file_reference.load_features(csv_path, sidecar)
        assert (loaded.item_ids, loaded.names) == (expected.item_ids, expected.names)
        assert loaded.matrix.tobytes() == expected.matrix.tobytes()

    @pytest.mark.parametrize(
        "body",
        ["a,1.0,2.0\n\nb,3.0,4.0\n", "a,1.0,2.0,9.0\nb,3.0,4.0\n", "a,1.0,2.0,9.0\n\n"],
        ids=["blank line", "extra value", "blank line and extra value"],
    )
    def test_ragged_rows_rejected(self, tmp_path, body):
        csv_path, sidecar = tmp_path / "f.csv", tmp_path / "f.json"
        csv_path.write_text("item_id,sequence.nll,sequence.perplexity\n" + body)
        sidecar.write_text("{}")
        with pytest.raises(ValueError, match="must hold an item_id and 2 values"):
            pipeline.load_features(csv_path, sidecar)


def _saved_table(tmp_path, n=10):
    traces, _ = corpus(n=n)
    table = pipeline.extract_table(traces)
    csv_path, sidecar = tmp_path / "features.csv", tmp_path / "features.families.json"
    pipeline.save_features(table, csv_path, sidecar)
    return table, csv_path, sidecar


def _flip_value_byte(csv_path):
    """Change one digit of the first row's first value in place."""
    text = csv_path.read_text()
    start = text.index(",", text.index("\n")) + 1
    i = next(j for j in range(start, len(text)) if text[j].isdigit())
    csv_path.write_text(text[:i] + ("2" if text[i] == "1" else "1") + text[i + 1:])


def _forge_copy(csv_path, sidecar, item_ids, names, matrix):
    """Replace the binary copy and record its new hash, so the copy is read
    whatever it holds."""
    buf = io.BytesIO()
    header = json.dumps({"item_ids": item_ids, "names": names}).encode()
    np.save(buf, np.frombuffer(header, dtype=np.uint8))
    np.save(buf, matrix)
    copy = csv_path.with_suffix(".npy")
    copy.write_bytes(buf.getvalue())
    doc = json.loads(sidecar.read_text())
    doc[pipeline.BINARY_COPY_KEY]["sha256"] = hashlib.sha256(buf.getvalue()).hexdigest()
    sidecar.write_text(json.dumps(doc))
    return copy


class TestBinaryCopy:
    """load_features reads the binary copy only while the sidecar's record
    of it holds; otherwise it parses the CSV, which stays the source of
    truth."""

    def no_parse(self):
        return mock.patch.object(pipeline, "_parse_csv", side_effect=AssertionError("CSV parsed"))

    def counting_parse(self):
        return mock.patch.object(pipeline, "_parse_csv", wraps=pipeline._parse_csv)

    def test_copy_read_while_its_record_holds(self, tmp_path):
        table, csv_path, sidecar = _saved_table(tmp_path)
        record = json.loads(sidecar.read_text())[pipeline.BINARY_COPY_KEY]
        assert record == {
            "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
            "sha256": hashlib.sha256((tmp_path / "features.npy").read_bytes()).hexdigest(),
        }
        with self.no_parse():
            loaded = pipeline.load_features(csv_path, sidecar)
        assert (loaded.item_ids, loaded.names) == (table.item_ids, table.names)
        assert loaded.matrix.tobytes() == table.matrix.tobytes()

    def test_given_csv_hash_is_not_recomputed(self, tmp_path):
        table, csv_path, sidecar = _saved_table(tmp_path)
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        with self.no_parse(), mock.patch.object(pipeline.manifest, "sha256_file", side_effect=AssertionError("hashed")):
            loaded = pipeline.load_features(csv_path, sidecar, csv_sha256=digest)
        assert loaded.matrix.tobytes() == table.matrix.tobytes()
        with self.counting_parse() as parse:
            pipeline.load_features(csv_path, sidecar, csv_sha256="0" * 64)
        assert parse.call_count == 1

    def test_edited_csv_is_read(self, tmp_path):
        table, csv_path, sidecar = _saved_table(tmp_path)
        _flip_value_byte(csv_path)
        loaded = pipeline.load_features(csv_path, sidecar)
        expected = feature_file_reference.load_features(csv_path, sidecar)
        assert loaded.matrix.tobytes() == expected.matrix.tobytes() != table.matrix.tobytes()
        (tmp_path / "features.npy").unlink()
        assert pipeline.load_features(csv_path, sidecar).matrix.tobytes() == loaded.matrix.tobytes()

    @pytest.mark.parametrize("change", ["flip", "truncate", "delete"])
    def test_changed_copy_is_not_read(self, tmp_path, change):
        table, csv_path, sidecar = _saved_table(tmp_path)
        copy = tmp_path / "features.npy"
        data = copy.read_bytes()
        if change == "flip":
            copy.write_bytes(data[:-1] + bytes([data[-1] ^ 1]))
        elif change == "truncate":
            copy.write_bytes(data[: len(data) // 2])
        else:
            copy.unlink()
        with self.counting_parse() as parse:
            loaded = pipeline.load_features(csv_path, sidecar)
        assert parse.call_count == 1
        assert (loaded.item_ids, loaded.names) == (table.item_ids, table.names)
        assert loaded.matrix.tobytes() == table.matrix.tobytes()

    @pytest.mark.parametrize(
        "record",
        [None, "features.npy", {"sha256": ""}],
        ids=["absent", "not an object", "incomplete"],
    )
    def test_sidecar_without_a_usable_record_reads_csv(self, tmp_path, record):
        table, csv_path, sidecar = _saved_table(tmp_path)
        doc = json.loads(sidecar.read_text())
        if record is None:
            del doc[pipeline.BINARY_COPY_KEY]
        else:
            doc[pipeline.BINARY_COPY_KEY] = record
        sidecar.write_text(json.dumps(doc))
        with self.counting_parse() as parse:
            loaded = pipeline.load_features(csv_path, sidecar)
        assert parse.call_count == 1
        assert loaded.matrix.tobytes() == table.matrix.tobytes()

    def test_rows_stream_to_the_file(self, tmp_path):
        # 2000 x 45 values, about 1.7 MB of text, built before tracing starts
        rng = np.random.default_rng(0)
        table = pipeline.FeatureTable([f"item-{i}" for i in range(2000)], catalog_names(), rng.random((2000, 45)))
        csv_path = tmp_path / "features.csv"
        tracemalloc.start()
        try:
            pipeline.save_features(table, csv_path, tmp_path / "features.families.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a writer that holds the whole text, or the matrix as floats, peaks
        # above the file's size
        assert peak < csv_path.stat().st_size / 4

    def test_copy_runs_the_id_check(self, tmp_path):
        table, csv_path, sidecar = _saved_table(tmp_path)
        ids = [table.item_ids[0]] * len(table.item_ids)
        copy = _forge_copy(csv_path, sidecar, ids, table.names, table.matrix)
        message = f"item_id {ids[0]!r} appears more than once in {copy}"
        with self.no_parse(), pytest.raises(ValueError, match=re.escape(message)):
            pipeline.load_features(csv_path, sidecar)

    def test_copy_runs_the_shape_check(self, tmp_path):
        table, csv_path, sidecar = _saved_table(tmp_path)
        copy = _forge_copy(csv_path, sidecar, table.item_ids, table.names, table.matrix[:, 1:])
        message = f"{copy} must hold {len(table.item_ids)} rows of {len(table.names)} float64 values"
        with self.no_parse(), pytest.raises(ValueError, match=re.escape(message)):
            pipeline.load_features(csv_path, sidecar)

    def test_copy_runs_the_sidecar_checks(self, tmp_path):
        _, csv_path, sidecar = _saved_table(tmp_path)
        doc = json.loads(sidecar.read_text())
        doc["invalid_items"] = "zzz"
        sidecar.write_text(json.dumps(doc))
        with self.no_parse(), pytest.raises(ValueError, match="'invalid_items' in .* must be a list of item ids"):
            pipeline.load_features(csv_path, sidecar)


class TestTrainSweepEvaluate:
    def test_gate_records_feature_names(self, trained_setup):
        *_, gate, report = trained_setup
        assert gate.feature_names and gate.tau_star is None
        assert report["grid_size"] == len(QUICK_SPACE)

    def test_sweep_freezes_tau(self, trained_setup):
        traces, labels, table, ids, gate, _ = trained_setup
        result = pipeline.sweep_gate(gate, table, labels, ids["validation"], policy.CostModel(), policy.tau_grid())
        assert gate.tau_star == result.tau_star
        assert 0.35 <= result.tau_star <= 0.70

    def test_evaluate_methods_structure_and_consistency(self, trained_setup):
        traces, labels, table, ids, gate, _ = trained_setup
        cost = policy.CostModel()
        pipeline.sweep_gate(gate, table, labels, ids["validation"], cost, policy.tau_grid())
        out = pipeline.evaluate_methods(gate, table, labels, ids["validation"], ids["test"], cost, policy.tau_grid())
        assert set(out) == {"meta_model", "msp", "top2_margin", "entropy", "always_trust"}
        for method in ("meta_model", "msp", "top2_margin", "entropy"):
            entry = out[method]
            # sensitivity at r reproduces the main cost in c_mis units
            at_ratio = next(s for s in entry["sensitivity"] if s["r"] == cost.ratio)
            assert at_ratio["relative_cost"] == pytest.approx(
                entry["metrics"]["expected_cost"] / cost.c_mis, abs=1e-9
            )
        at = out["always_trust"]["metrics"]
        z_test = [label_correctness(labels[i][1], labels[i][0]) for i in ids["test"]]
        assert at["expected_cost"] == always_trust_cost(z_test, cost)

    def test_evaluate_requires_frozen_tau(self, trained_setup):
        traces, labels, table, ids, _, _ = trained_setup
        fresh_gate, _ = pipeline.train_gate(
            table, labels, ids["train"], ResampleConfig(seed=42), QUICK_SPACE[:1], 42
        )
        with pytest.raises(ValueError, match="frozen threshold"):
            pipeline.evaluate_methods(
                fresh_gate, table, labels, ids["validation"], ids["test"], policy.CostModel()
            )


def _run_ablation_reference(
    traces,
    labels,
    drop_families,
    split_spec,
    cost,
    include=ALL_FAMILIES,
    resample_cfg=None,
    space=None,
    grid=None,
    seed=42,
    k=DEFAULT_TOP_K,
):
    """The per-subset ablation that run_ablation's column masks replaced:
    extract and split the traces again for every family subset."""
    include = tuple(include)

    def end_to_end(families):
        table = pipeline.extract_table(traces, families, k=k)
        train_ids, validation_ids, test_ids = stratified_split(pipeline.build_examples(table, labels), split_spec)
        gate, _ = pipeline.train_gate(table, labels, train_ids, resample_cfg, space, seed)
        pipeline.sweep_gate(gate, table, labels, validation_ids, cost, grid)
        test, _, trust = pipeline.score_and_route(gate, table, labels, test_ids)
        return policy.expected_cost(policy.confusion(trust, test.z), cost)

    full_cost = end_to_end(include)
    rows = []
    for family in drop_families:
        if family not in include:
            raise ValueError(f"family {family.value!r} not in the included set")
        remaining = tuple(f for f in include if f is not family)
        if not remaining:
            raise ValueError("cannot drop every feature family")
        cost_without = end_to_end(remaining)
        rows.append(
            {
                "dropped_family": family.value,
                "expected_cost": cost_without,
                "delta_vs_full": cost_without - full_cost,
                "full_cost": full_cost,
            }
        )
    return rows


def _wide_outcome_corpus(n=60):
    """A CoT synth corpus whose outcome tokens carry 20 candidates: each
    token's own candidates, then junk surfaces of small mass."""
    traces, _ = corpus(n=n, cot=True)
    for t in traces:
        own = list(zip(t.outcome.surfaces[0], t.outcome.logprobs[0].tolist()))
        junk = [(f" pad{j}", -7.0 - 0.37 * j) for j in range(20 - len(own))]
        t.outcome = token_span([(t.outcome.chosen[0], float(t.outcome.chosen_logprobs[0]), own + junk)])
    return traces


class TestAblation:
    def test_signal_bearing_family_increases_cost(self):
        traces, labels = corpus(n=1200, signal={"outcome_topk": 0.9, "attribution": 1.0})
        rows = pipeline.run_ablation(
            pipeline.extract_table(traces),
            labels,
            [FeatureFamily.ATTRIBUTION],
            SplitSpec(test_negative_count=60, seed=42),
            policy.CostModel(),
            space=QUICK_SPACE,
            seed=42,
        )
        assert rows[0]["dropped_family"] == "attribution"
        assert rows[0]["delta_vs_full"] > 0

    def test_noise_family_within_band(self):
        # verbalized carries no signal here; dropping it moves cost by at
        # most a noise band of 10% of the always-trust cost
        traces, labels = corpus(n=1200, signal={"outcome_topk": 0.9, "verbalized": 0.0, "attribution": 1.0})
        z = [label_correctness(v[1], v[0]) for v in labels.values()]
        at = always_trust_cost(z, policy.CostModel())
        rows = pipeline.run_ablation(
            pipeline.extract_table(traces),
            labels,
            [FeatureFamily.VERBALIZED],
            SplitSpec(test_negative_count=60, seed=42),
            policy.CostModel(),
            space=QUICK_SPACE,
            seed=42,
        )
        # band on the test split scale: test holds ~1/3 of items
        assert abs(rows[0]["delta_vs_full"]) <= 0.10 * at

    def test_dropping_everything_rejected(self):
        traces, labels = corpus(n=100)
        with pytest.raises(ValueError, match="every feature family"):
            pipeline.run_ablation(
                pipeline.extract_table(traces, (FeatureFamily.OUTCOME_TOPK,)),
                labels,
                [FeatureFamily.OUTCOME_TOPK],
                SplitSpec(test_negative_count=5, seed=42),
                policy.CostModel(),
                space=QUICK_SPACE[:1],
                seed=42,
            )

    def test_dropping_family_not_included_rejected(self):
        traces, labels = corpus(n=100)
        with pytest.raises(ValueError, match="not in the included set"):
            pipeline.run_ablation(
                pipeline.extract_table(traces, (FeatureFamily.OUTCOME_TOPK, FeatureFamily.ATTRIBUTION)),
                labels,
                [FeatureFamily.VERBALIZED],
                SplitSpec(test_negative_count=5, seed=42),
                policy.CostModel(),
                space=QUICK_SPACE[:1],
                seed=42,
            )

    @pytest.mark.parametrize(
        "family,wide",
        [(f, False) for f in ALL_FAMILIES] + [(f, True) for f in ALL_FAMILIES],
        ids=[f.value for f in ALL_FAMILIES] + [f"wide-outcome-k10-{f.value}" for f in ALL_FAMILIES],
    )
    def test_without_equals_extraction_without_the_family(self, family, wide):
        # the wide corpus pads the filtered family's 4 label probabilities
        # to 10 columns when outcome_topk is computed alongside it, where
        # numpy sums a row in blocks; the columns must not depend on that
        traces, k = (_wide_outcome_corpus(), 10) if wide else (corpus(n=60, cot=True)[0], DEFAULT_TOP_K)
        dropped = pipeline.extract_table(traces, k=k).without(family)
        reference = pipeline.extract_table(traces, [f for f in ALL_FAMILIES if f is not family], k=k)
        assert dropped.item_ids == reference.item_ids
        assert dropped.names == reference.names
        assert dropped.matrix.tobytes() == reference.matrix.tobytes()

    def test_masks_equal_per_subset_reference(self):
        traces, labels = corpus(n=600, cot=True)
        args = (labels, ALL_FAMILIES, SplitSpec(test_negative_count=45, seed=42), policy.CostModel())
        kwargs = {"space": QUICK_SPACE[:1], "grid": policy.tau_grid(), "seed": 42}
        rows = pipeline.run_ablation(pipeline.extract_table(traces), *args, **kwargs)
        assert len(rows) == len(ALL_FAMILIES)
        assert rows == _run_ablation_reference(traces, *args, **kwargs)

    def test_ablate_extracts_and_splits_once(self, tmp_path, monkeypatch):
        calls = {"extract_table": 0, "stratified_split": 0}

        def counted(name):
            inner = getattr(pipeline, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, wrapper)

        counted("extract_table")
        counted("stratified_split")
        out = tmp_path / "run"
        assert cli.main(["synth", "--out", str(out), "--n-items", "300"]) == 0
        argv = ["ablate", "--out", str(out), "--traces", str(out / "traces.jsonl"), "--labels", str(out / "labels.csv")]
        assert cli.main(argv + ["--family", "all", "--test-negatives", "20", "--quick-grid"]) == 0
        assert len((out / "ablation.csv").read_text().splitlines()) == 1 + len(ALL_FAMILIES)
        assert calls == {"extract_table": 1, "stratified_split": 1}

    def test_overflow_row_keeps_one_split_for_every_subset(self, monkeypatch):
        # dropping sequence would make this row valid if each subset were
        # extracted on its own, and so change that subset's split
        traces, labels = corpus(n=600, cot=True)
        bad = make_trace(item_id="item-overflow", reasoning_logprobs=(-800.0,) * 4)
        labels[bad.item_id] = (1, OutcomeLabel.YES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = pipeline.extract_table(list(traces) + [bad])
        assert table.invalid_ids == [bad.item_id]

        seen = []
        train_gate = pipeline.train_gate

        def recording(t, labels, train_ids, *args):
            seen.append(list(train_ids))
            return train_gate(t, labels, train_ids, *args)

        monkeypatch.setattr(pipeline, "train_gate", recording)
        pipeline.run_ablation(
            table, labels, ALL_FAMILIES, SplitSpec(test_negative_count=45, seed=42),
            policy.CostModel(), space=QUICK_SPACE[:1], seed=42,
        )
        assert len(seen) == 1 + len(ALL_FAMILIES)
        assert all(ids == seen[0] for ids in seen)
