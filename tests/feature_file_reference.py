"""A plain csv-module writer and reader of features.csv, kept as the
reference that lppgate.pipeline's save_features and load_features are
checked against: every field through csv.writer / csv.reader, every value
through repr(float(v)) / float(v)."""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from lppgate.features import family_of
from lppgate.manifest import write_json_atomic, write_text_atomic
from lppgate.pipeline import FeatureTable


def save_features(table: FeatureTable, csv_path, sidecar_path) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["item_id"] + table.names)
    for item_id, row in zip(table.item_ids, table.matrix):
        writer.writerow([item_id] + [repr(float(v)) for v in row])
    write_text_atomic(csv_path, buf.getvalue())
    families: dict[str, list[str]] = {}
    for name in table.names:
        families.setdefault(family_of(name), []).append(name)
    write_json_atomic(sidecar_path, {"families": families, "invalid_items": sorted(table.invalid_ids)})


def load_features(csv_path, sidecar_path) -> FeatureTable:
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        names = header[1:]
        item_ids, rows = [], []
        for record in reader:
            item_ids.append(record[0])
            rows.append([float(v) for v in record[1:]])
    with open(sidecar_path, encoding="utf-8") as fh:
        invalid_ids = json.load(fh).get("invalid_items", [])
    return FeatureTable(item_ids, names, np.asarray(rows, dtype=float), dict.fromkeys(invalid_ids))
