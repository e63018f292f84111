import json
import os

import numpy as np
import pytest

from modeloco import fileio


def _indented(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"a": [], "b": {}, "c": [[]], "d": [{}], "e": [[], {}]},
        {"nested": [[1.5, 2.5], [3.5, [4.5, [5.5]]], []]},
        {"dicts": [{"z": 1, "a": [0.1, 0.2]}, {"m": {"k": None}}]},
        {"floats": [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 0.1, 1e300]},
        {"scalars": float("nan"), "inf": -float("inf"), "zero": -0.0, "tiny": 5e-324},
        {"mixed": [1, True, False, None, 2.0, "s", -3]},
        {"mixed_tail": [1, 2, [3, 4], {"x": 5}], "scalar_then_dict": [0, {"y": 1}]},
        {"ünïcødé": "日本語 — ☃", "keys": {"é": 1, "e": 2, "Z": 3, "": 4}},
        {"brackets": ["[", "{", "a[1]", "}{", "]"], "text": "[{ not a list }]"},
        {"tuple": (1.0, 2.0), "tuples": [(1, 2), (3,)]},
        {"numpy": np.arange(5, dtype=float).tolist(), "f64": np.float64(0.1)},
        {"deep": {"a": {"b": {"c": {"d": [1, [2, [3, [4]]]]}}}}},
    ],
)
def test_writer_text_equals_indented_json(doc):
    assert fileio.dumps_artifact(doc) == _indented(doc)


def test_writer_text_equals_indented_json_on_random_documents():
    rng = np.random.default_rng(0)

    def value(depth):
        kind = int(rng.integers(0, 6 if depth < 4 else 3))
        if kind == 0:
            return float(rng.normal() * 10.0 ** rng.integers(-300, 300))
        if kind == 1:
            return int(rng.integers(-5, 5))
        if kind == 2:
            return [None, True, "x[", "{y"][int(rng.integers(0, 4))]
        if kind == 3:
            return [value(depth + 1) for _ in range(int(rng.integers(0, 5)))]
        if kind == 4:
            return rng.normal(size=int(rng.integers(0, 20))).tolist()
        return {f"k{int(rng.integers(0, 50))}": value(depth + 1)
                for _ in range(int(rng.integers(0, 5)))}

    for _ in range(200):
        doc = {"payload": value(0)}
        assert fileio.dumps_artifact(doc) == _indented(doc)


def test_write_artifact_writes_the_documented_bytes(tmp_path):
    payload = {"data": [0.1, -0.0, 5e-324], "shape": [3]}
    path = tmp_path / "a.json"
    fileio.write_artifact(path, "thing", payload, "abc")
    doc = {"format": "modeloco/thing", "version": fileio.TOOL_VERSION,
           "config_hash": "abc", "payload": payload}
    assert path.read_text() == _indented(doc) + "\n"
    assert fileio.read_artifact(path, "thing") == payload


def test_write_is_atomic_when_the_replace_fails(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    fileio.write_artifact(path, "thing", {"v": 1})
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        fileio.write_artifact(path, "thing", {"v": 2})
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json"]


def test_non_string_keys_are_rejected(tmp_path):
    with pytest.raises(TypeError, match="keys must be strings"):
        fileio.write_artifact(tmp_path / "a.json", "thing", {1: 2})
    assert not any(tmp_path.iterdir())
