"""Serialization: strict JSON, byte-stable NDJSON/CSV, checksums, manifests."""

import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracldp.persist import (
    RunManifest,
    config_hash,
    encode_csv,
    encode_ndjson,
    json_ready,
    read_manifest,
    read_ndjson,
    sha256_bytes,
    sha256_file,
    write_manifest,
    write_ndjson,
)


def test_json_ready_passthrough_and_numpy():
    rec = {"a": np.float64(1.5), "b": np.int64(7), "c": np.bool_(True),
           "d": np.arange(3), "e": None, "f": "text"}
    out = json_ready(rec)
    assert out == {"a": 1.5, "b": 7, "c": True, "d": [0, 1, 2],
                   "e": None, "f": "text"}
    assert isinstance(out["a"], float) and isinstance(out["b"], int)


def test_json_ready_nonfinite_floats_become_strings():
    out = json_ready({"p": float("inf"), "q": float("-inf"),
                      "r": float("nan"), "s": np.float64("inf"),
                      "t": [np.float64("nan")]})
    assert out == {"p": "inf", "q": "-inf", "r": "nan", "s": "inf",
                   "t": ["nan"]}


def test_json_ready_dataclass_and_rejection():
    @dataclasses.dataclass
    class Row:
        x: float
        y: str

    assert json_ready(Row(2.0, "hi")) == {"x": 2.0, "y": "hi"}
    with pytest.raises(TypeError):
        json_ready({"f": object()})


def test_ndjson_sorted_keys_one_line_per_record():
    data = encode_ndjson([{"z": 1, "a": 2}, {"m": float("inf")}])
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == '{"a":2,"z":1}'
    assert lines[1] == '{"m":"inf"}'
    assert data.endswith(b"\n")
    # strict parsers must accept every line
    for line in lines:
        json.loads(line)


def test_ndjson_never_emits_bare_infinity():
    data = encode_ndjson([{"v": float("inf")}])
    assert b"Infinity" not in data


FLAT_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.sampled_from([float("inf"), float("-inf"), float("nan")]),
)


@settings(max_examples=200, deadline=None)
@given(records=st.lists(st.dictionaries(st.text(max_size=3), FLAT_VALUES, max_size=8), max_size=5))
def test_flat_records_encode_as_the_recursive_path_does(records):
    """A flat record of plain scalars skips the per-value coercion; the bytes
    must be those of coercing every value (inf and nan still become strings,
    np.float64 is still written as its float)."""
    expected = "".join(
        json.dumps({str(k): json_ready(v) for k, v in rec.items()}, sort_keys=True,
                   ensure_ascii=False, separators=(",", ":"), allow_nan=False) + "\n"
        for rec in records
    ).encode("utf-8")
    assert encode_ndjson(records) == expected


def test_flat_record_with_non_finite_floats_is_coerced():
    rec = {"a": 1.0, "b": float("-inf"), "c": np.float64("nan"), "d": None, "e": True}
    assert json_ready(rec) == {"a": 1.0, "b": "-inf", "c": "nan", "d": None, "e": True}
    assert rec["b"] == float("-inf")  # the caller's record is not modified


def test_ndjson_utf8_not_escaped():
    data = encode_ndjson([{"note": "σ-finite"}])
    assert "σ-finite".encode("utf-8") in data


def test_ndjson_round_trip(tmp_path):
    path = tmp_path / "rows.ndjson"
    rows = [{"i": i, "val": i * 0.5} for i in range(5)]
    write_ndjson(path, rows)
    assert read_ndjson(path) == rows
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]


def test_ndjson_byte_determinism(tmp_path):
    rows = [{"b": 2, "a": 1}, {"a": 3, "b": 4}]
    assert encode_ndjson(rows) == encode_ndjson([dict(reversed(list(r.items())))
                                                 for r in rows])


def test_ndjson_failed_write_leaves_target_alone(tmp_path):
    path = tmp_path / "rows.ndjson"
    write_ndjson(path, [{"ok": 1}])
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_ndjson(path, [{"ok": 1}, {"bad": object()}])
    assert path.read_bytes() == before


def test_csv_header_union_sorted_and_cells():
    data = encode_csv([{"b": 1, "a": True}, {"c": "x,y", "a": None}])
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "true,1,"
    assert lines[2] == ',,"x,y"'


def test_csv_nested_values_embedded_as_json():
    data = encode_csv([{"list": [1, 2], "obj": {"k": 3}}])
    lines = data.decode("utf-8").splitlines()
    assert lines[0] == "list,obj"
    assert lines[1] == '"[1,2]","{""k"":3}"'


def test_checksums_agree(tmp_path):
    payload = b"some bytes\n"
    path = tmp_path / "f.bin"
    path.write_bytes(payload)
    assert sha256_file(path) == sha256_bytes(payload)
    assert config_hash("abc") == sha256_bytes(b"abc")


def test_manifest_round_trip(tmp_path):
    man = RunManifest(config_hash="deadbeef", artifact_version="0.1.0",
                      experiment="simulate", seed=7, wall_clock_s=1.25,
                      outputs={"records.ndjson": "cafe"},
                      blow_up_count=2, tolerances={"epsilon": 0.1})
    path = tmp_path / "manifest.json"
    write_manifest(path, man)
    loaded = read_manifest(path)
    assert loaded == dataclasses.asdict(man)
    assert loaded["outputs"] == {"records.ndjson": "cafe"}
    # manifest bytes are deterministic too
    raw = path.read_bytes()
    write_manifest(path, man)
    assert path.read_bytes() == raw


def test_manifest_defaults_write_empty_containers(tmp_path):
    man = RunManifest(config_hash="deadbeef", artifact_version="0.1.0",
                      experiment="skeleton", seed=0, wall_clock_s=0.5, outputs={})
    path = tmp_path / "manifest.json"
    write_manifest(path, man)
    loaded = read_manifest(path)
    assert loaded["tolerances"] == {}
    assert loaded["ignored_flags"] == []
    assert loaded["blow_up_count"] == 0
