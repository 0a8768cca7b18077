import csv
import random
import tempfile
import tracemalloc
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lppgate.manifest import write_csv_atomic
from tests import csv_reference

_SPECIAL_FLOATS = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1.7e308, -1.7e308]
_FLOATS = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())
# text the old hand-joined rows could hold: csv quotes none of it
_PLAIN_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'), max_size=6)
# text csv must quote, read back as written
_QUOTED_TEXT = st.text(st.sampled_from([",", '"', " ", "a", "7", "#", "\t"]), max_size=6)


@st.composite
def _tables(draw, cells):
    """(header, rows): every row as wide as the header, at least two wide,
    as every lppgate table is."""
    n = draw(st.integers(2, 5))
    header = draw(st.lists(_PLAIN_TEXT, min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(cells, min_size=n, max_size=n), max_size=5))
    return header, rows


def _written(header, rows) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "t.csv")
        write_csv_atomic(path, header, rows)
        assert not list(Path(tmp).glob("*.tmp"))
        return path.read_bytes()


class TestWriteCsvAtomic:
    @settings(max_examples=300, deadline=None)
    @given(_tables(st.one_of(_FLOATS, st.integers(), st.none(), _PLAIN_TEXT)))
    def test_same_bytes_as_the_evaluation_rows(self, table):
        assert _written(*table) == csv_reference.csv_text(*table).encode()

    @settings(max_examples=200, deadline=None)
    @given(_tables(st.one_of(_FLOATS, _PLAIN_TEXT)))
    def test_same_bytes_as_the_repr_rows(self, table):
        assert _written(*table) == csv_reference.csv_text(*table, row=csv_reference.repr_row).encode()

    @settings(max_examples=200, deadline=None)
    @given(_tables(_QUOTED_TEXT))
    def test_text_with_commas_and_quotes_reads_back(self, table):
        header, rows = table
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "t.csv")
            write_csv_atomic(path, header, rows)
            with open(path, newline="", encoding="utf-8") as fh:
                assert list(csv.reader(fh)) == [header, *rows]

    def test_floats_as_repr_and_none_as_empty(self):
        rows = [["meta_model", 0.1 + 0.2, None, 3], ["x", -0.0, float("nan"), 5e-324]]
        assert _written(["a", "b", "c", "d"], rows) == b"a,b,c,d\nmeta_model,0.30000000000000004,,3\nx,-0.0,nan,5e-324\n"

    def test_rows_stream_to_the_file(self):
        # 2000 x 45 floats, about 1.75 MB of text, built before tracing starts
        rng = random.Random(0)
        header = ["item_id"] + [f"f{j}" for j in range(45)]
        rows = [[f"item-{i}"] + [rng.random() for _ in range(45)] for i in range(2000)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "t.csv")
            tracemalloc.start()
            try:
                write_csv_atomic(path, header, rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size = path.stat().st_size
        # a writer that holds the whole table peaks at about twice its size
        assert peak < size / 4
