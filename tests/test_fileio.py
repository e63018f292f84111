import json
import math
import os

import numpy as np
import pytest

from modeloco import fileio, sim


def _indented(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


def _both_float_writers(monkeypatch):
    """Yields once with the kernel loaded, so `fileio.repr_join` has the kernel
    write 1-D float64 arrays, then once with `sim._kernel` None, so it has
    `float.__repr__` write them; whichever tests ran before, a check in the
    loop covers both."""
    kernel = sim._library()
    for loaded in (kernel, None):
        monkeypatch.setattr(sim, "_kernel", loaded)
        yield loaded


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
        {"f64_item": [0.5, np.float64(0.1)], "int_first": [1, 2.5], "bool_last": [0.5, True],
         "tail_nan": [0.5, 1e16, float("nan")], "exponents": [1e-05, 123456789012345680.0, -0.0]},
    ],
)
def test_writer_text_equals_indented_json(doc, monkeypatch):
    for _ in _both_float_writers(monkeypatch):
        assert fileio.dumps_artifact(doc) == _indented(doc)


def test_writer_text_equals_indented_json_on_random_documents(monkeypatch):
    for _ in _both_float_writers(monkeypatch):
        _check_random_documents()


def test_float_arrays_are_written_as_their_lists(tmp_path, monkeypatch):
    arrays = [
        np.random.default_rng(2).normal(size=500) * 10.0 ** np.arange(-250, 250),
        np.array([]),
        np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e16, 0.1]),
        np.array([0.5, float("nan"), 1.5]),
        np.array([float("inf"), -1.0, -float("inf")]),
        np.array([[1.5, -0.0], [float("nan"), 1e16]]),
    ]
    for _ in _both_float_writers(monkeypatch):
        for a in arrays:
            payload = fileio.array_to_payload(a)
            doc = {"payload": {"x": payload, "xs": [payload, a.ravel()]}, "data": a}
            as_lists = {"payload": {"x": {"data": a.ravel().tolist(), "shape": list(a.shape)},
                                    "xs": [{"data": a.ravel().tolist(), "shape": list(a.shape)},
                                           a.ravel().tolist()]},
                        "data": a.tolist()}
            assert fileio.dumps_artifact(doc) == _indented(as_lists)

            back = fileio.array_from_payload(payload)
            assert back.shape == a.shape and back.tobytes() == a.tobytes()
            fileio.write_artifact(tmp_path / "a.json", "thing", payload)
            back = fileio.array_from_payload(fileio.read_artifact(tmp_path / "a.json", "thing"))
            assert back.shape == a.shape and back.tobytes() == a.tobytes()


def _check_random_documents():
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


def _edge_floats() -> list[float]:
    """Every power of 2 and of 10 in the double range with its two
    neighbours, subnormals included, and a few named extremes, both signs."""
    centres = [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    centres += [float(f"1e{k}") for k in range(-323, 309)]
    values = [v for c in centres for v in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf))]
    values += [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]
    return values + [-v for v in values]


def test_kernel_float_text_is_repr():
    sim._library()
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2**64, size=100_000, dtype=np.uint64).view(np.float64)
    values = [v for v in bits.tolist() if math.isfinite(v)] + _edge_floats()
    values += np.round(rng.normal(size=20_000) * 1e4, 3).tolist()
    values += rng.integers(-(2**60), 2**60, size=20_000).astype(float).tolist()
    array = np.array(values)
    assert fileio.repr_join(array, " ").split(" ") == [repr(v) for v in values]
    assert fileio.repr_join(array[:3], ",\n  ") == ",\n  ".join(map(repr, values[:3]))
    assert fileio.repr_join(np.array([]), ",") == ""


def test_kernel_float_text_is_none_for_a_non_finite_value():
    sim._library()
    for bad in (float("nan"), float("inf"), -float("inf")):
        assert fileio.repr_join(np.array([0.5, bad, 1.5]), ",") is None
        assert fileio.repr_join(np.array([bad]), ",") is None


@pytest.mark.parametrize(
    "values", [[0.5, 1.5], (0.5,), np.array([1, 2]), np.array([0.5], dtype=np.float32),
               np.zeros((2, 2)), np.float64(0.5)],
)
def test_repr_join_takes_only_a_1d_float64_array(values, monkeypatch):
    for _ in _both_float_writers(monkeypatch):
        with pytest.raises(TypeError, match="1-D float64 array"):
            fileio.repr_join(values, ",")


def test_writing_floats_with_no_kernel_loaded_builds_none(tmp_path, monkeypatch):
    monkeypatch.setattr(sim, "_kernel", None)
    data = np.random.default_rng(0).normal(size=50_000)
    fileio.write_artifact(tmp_path / "a.json", "thing", {"data": data})
    assert sim._kernel is None
    assert fileio.read_artifact(tmp_path / "a.json", "thing") == {"data": data.tolist()}


def test_a_kernel_built_without_int128_writes_floats_with_json(tmp_path, monkeypatch):
    harness = tmp_path / "no_int128.c"
    harness.write_text(f'#undef __SIZEOF_INT128__\n#include "{sim._KERNEL_SOURCE}"\n')
    kernel = sim._build_kernel(harness)
    assert not hasattr(kernel, "repr_join")
    monkeypatch.setattr(sim, "_kernel", kernel)
    doc = {"data": [0.1, 1e-05, -0.0, 1e16]}
    assert fileio.repr_join(np.array(doc["data"]), ",") == "0.1,1e-05,-0.0,1e+16"
    assert fileio.repr_join(np.array([0.5, float("nan")]), ",") is None
    assert fileio.dumps_artifact(doc) == _indented(doc)
    assert fileio.dumps_artifact({"data": np.array(doc["data"])}) == _indented(doc)


def test_write_artifact_writes_the_documented_bytes(tmp_path):
    payload = {"data": [0.1, -0.0, 5e-324], "shape": [3]}
    path = tmp_path / "a.json"
    fileio.write_artifact(path, "thing", payload, "abc")
    doc = {"format": "modeloco/thing", "version": fileio.TOOL_VERSION,
           "config_hash": "abc", "payload": payload}
    assert path.read_text() == _indented(doc) + "\n"
    assert fileio.read_artifact(path, "thing") == payload


def test_write_is_atomic_when_the_replace_fails(tmp_path, monkeypatch):
    writers = {
        "a.json": lambda path, v: fileio.write_artifact(path, "thing", {"v": v}),
        "a.csv": lambda path, v: fileio.write_table(path, ["v"], [np.array([v])]),
    }
    for name, write in writers.items():
        write(tmp_path / name, 1)
    before = {name: (tmp_path / name).read_bytes() for name in writers}

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    for name, write in writers.items():
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path / name, 2)
        assert (tmp_path / name).read_bytes() == before[name]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.json"]


def test_write_table_writes_csv_bytes(tmp_path):
    path = tmp_path / "t.csv"
    fileio.write_table(path, ["epoch", "loss"], [np.arange(2), 0.1 * np.arange(2)])
    assert path.read_bytes() == b"epoch,loss\r\n0,0.0\r\n1,0.1\r\n"


def test_a_table_is_the_text_csv_writes_for_its_rows(tmp_path, monkeypatch):
    # Columns of ints and floats, some in 2-D blocks, against csv's text for
    # the same rows of Python numbers, with and without the kernel, and with
    # and without values that are not finite.
    import csv
    import io

    rng = np.random.default_rng(3)
    finite = [-0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1, 123456789012345680.0, 2.0**53]
    header = ["a", "b,c", 'quote"d', "e", "f", "g", "h"]
    for n, specials in [(0, []), (1, finite), (9, finite), (9, [math.nan, -math.inf])]:
        ints = rng.integers(-50, 50, size=(n, 2))
        ints[:1, 0] = 2**53
        floats = rng.normal(0.0, 10.0 ** rng.integers(-8, 18, size=(n, 4)))
        if n:
            floats.flat[rng.permutation(floats.size)[: len(specials)]] = specials[: floats.size]
        flags = rng.integers(0, 2, size=n).astype(np.uint8)
        columns = [floats[:, 0], ints, floats[:, 1:], flags]
        rows = [[f[0], *i, *f[1:], c] for f, i, c in zip(floats.tolist(), ints.tolist(),
                                                          flags.tolist())]
        buf = io.StringIO()
        csv.writer(buf).writerows([header, *rows])
        for _ in _both_float_writers(monkeypatch):
            fileio.write_table(tmp_path / "t.csv", header, columns)
            assert (tmp_path / "t.csv").read_bytes() == buf.getvalue().encode(), n
    with pytest.raises(TypeError, match="float64 or integer"):
        fileio.write_table(tmp_path / "t.csv", ["x"], [np.zeros(2, dtype=np.float32)])
    with pytest.raises(ValueError, match="within 2 \\*\\* 53"):
        fileio.write_table(tmp_path / "t.csv", ["x"], [np.array([-(2**53) - 1])])


def test_non_string_keys_are_rejected(tmp_path):
    with pytest.raises(TypeError, match="keys must be strings"):
        fileio.write_artifact(tmp_path / "a.json", "thing", {1: 2})
    assert not any(tmp_path.iterdir())
