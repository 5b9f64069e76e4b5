"""Deterministic result persistence: NDJSON, CSV, and run manifests.

NDJSON is the primary format: UTF-8, one record per line, keys sorted, so a
rerun with identical config and seed produces byte-identical files (criterion
checked by checksum). CSV is a flat export with the sorted union of keys as
header; nested values are embedded as JSON strings. All writes go through a
temp file in the target directory followed by an atomic rename, so readers
never observe a half-written artifact. Result dataclasses, the manifest
included, reach JSON through ``dataclasses.asdict`` (``json_ready`` applies
it), so no result type restates its own fields in a serializer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import json
import os
import tempfile
from typing import Iterable

import numpy as np


_PLAIN = frozenset({str, int, bool, type(None)})  # JSON-ready as they are


def json_ready(obj):
    """Recursively coerce numpy scalars/arrays and dataclasses to JSON types.

    Non-finite floats become the strings "inf"/"-inf"/"nan": strict JSON has
    no literal for them, and an infeasible rate minimum (+inf) is a value
    worth persisting, not an encoding accident. A flat dict of str keys and
    plain scalars (finite floats included), such as a path record, is
    returned as it is: coercing it value by value would rebuild it unchanged.
    """
    if type(obj) is dict and all(
        type(k) is str and (type(v) in _PLAIN or (type(v) is float and math.isfinite(v)))
        for k, v in obj.items()
    ):
        return obj
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return json_ready(float(obj))
    if isinstance(obj, np.ndarray):
        return [json_ready(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(x) for x in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return json_ready(dataclasses.asdict(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# one encoder for every line: ``json.dumps`` with options builds a new one per call
_NDJSON_ENCODER = json.JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(",", ":"), allow_nan=False
)


def encode_ndjson(records: Iterable[dict]) -> bytes:
    lines = [_NDJSON_ENCODER.encode(json_ready(rec)) for rec in records]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def write_ndjson(path: str, records: Iterable[dict]) -> None:
    _atomic_write_bytes(path, encode_ndjson(records))


def read_ndjson(path: str) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def encode_csv(records: Iterable[dict]) -> bytes:
    records = [json_ready(rec) for rec in records]
    if not records:
        return b""
    header = sorted(set().union(*(rec.keys() for rec in records)))
    lines = [",".join(header)]
    for rec in records:
        cells = []
        for key in header:
            cell = _csv_cell(rec.get(key))
            if any(c in cell for c in ',"\n'):
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_csv(path: str, records: Iterable[dict]) -> None:
    _atomic_write_bytes(path, encode_csv(records))


def sha256_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(serialized_config: str) -> str:
    return sha256_bytes(serialized_config.encode("utf-8"))


@dataclasses.dataclass
class RunManifest:
    """Provenance record written atomically after a successful run.

    ``outputs`` maps each artifact filename to its checksum; a file belongs to
    exactly one manifest (the one in its directory). Wall-clock and timing
    live here, never in the data outputs, so the data stay byte-reproducible.
    ``ignored_flags`` names the run settings that had no effect on the run.
    """

    config_hash: str
    artifact_version: str
    experiment: str
    seed: int
    wall_clock_s: float
    outputs: dict
    blow_up_count: int = 0
    tolerances: dict = dataclasses.field(default_factory=dict)
    ignored_flags: list = dataclasses.field(default_factory=list)


def write_manifest(path: str, manifest: RunManifest) -> None:
    payload = json.dumps(json_ready(manifest), sort_keys=True, indent=2, allow_nan=False)
    _atomic_write_bytes(path, (payload + "\n").encode("utf-8"))


def read_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
