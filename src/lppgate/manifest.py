"""Run manifests and atomic artifact writes.

Every artifact-writing command emits exactly one manifest that hash-chains
the outputs to their inputs (sha256 of each input file plus the effective
configuration), so a pipeline run is auditable end to end. Artifacts are
written atomically (temp file + rename) and contain no timestamps, so
re-running with identical inputs overwrites byte-identical files; timing
lives only in the manifest.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
from typing import Iterable, Mapping, Sequence

__all__ = [
    "sha256_file",
    "sha256_obj",
    "open_atomic",
    "write_text_atomic",
    "write_json_atomic",
    "write_csv_atomic",
    "build_manifest",
    "MANIFEST_VERSION",
]

MANIFEST_VERSION = 1


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_obj(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


@contextlib.contextmanager
def open_atomic(path, mode: str = "w"):
    """A handle on a temp file that replaces ``path`` when the block ends:
    UTF-8 text for mode "w", bytes for "wb". On any exception,
    KeyboardInterrupt included, the temp file is removed and ``path`` is
    left as it was."""
    if mode not in ("w", "wb"):
        raise ValueError(f"open_atomic writes with mode 'w' or 'wb', not {mode!r}")
    path = str(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, mode, encoding="utf-8" if mode == "w" else None) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    with open_atomic(path) as fh:
        fh.write(text)


def write_json_atomic(path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_csv_atomic(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The one CSV dialect of every table artifact: csv's default, quoting
    only the fields that need it, with "\n" line ends. A float is written
    as its repr and None as an empty field."""
    with open_atomic(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def build_manifest(
    command: str,
    config: Mapping,
    inputs: Mapping[str, str],
    outputs: Sequence[str],
    timing_s: float,
    extra: Mapping | None = None,
) -> dict:
    """Inputs come hashed ({path: sha256}) as the files were before the
    command ran, even when it rewrites one of its own inputs."""
    manifest = {
        "version": MANIFEST_VERSION,
        "command": command,
        "config": dict(config),
        "config_hash": sha256_obj(config),
        "inputs": dict(inputs),
        "outputs": sorted(str(p) for p in outputs),
        "timing_s": timing_s,
    }
    if extra:
        manifest["extra"] = dict(extra)
    return manifest
