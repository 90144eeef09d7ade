"""One corruption of one input file at a time, run through `train` or
`map`: every run exits 0, or exits 2 or 3 with a message that names the
corrupted input, and none exits 1 or raises.

The inputs are the desk scene's cube and label headers and payloads, a
`--config` file and a checkpoint trained from them. A header and its
payload are one input: a payload's non-finite value is reported against
its header, and a header's size fields against the payload they no longer
fit. A header whose `data` (or a manifest whose `params_file`) now names
another file may be answered with that file's path."""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsiduo.__main__ import main
from test_cli import small_config_doc

# each input file and the other file of its pair
PARTNER = {
    "cube.json": "cube.raw", "cube.raw": "cube.json",
    "labels.json": "labels.raw", "labels.raw": "labels.json",
    "config.json": "config.json",
    "run/checkpoint.json": "run/checkpoint.bin", "run/checkpoint.bin": "run/checkpoint.json",
}

# one value of each JSON type, to stand in for a value of another type
RETYPED = [None, True, 7, "x", [], {}]


def json_type(value):
    return "number" if type(value) in (int, float) else type(value).__name__


def json_paths(doc, path=()):
    """The path of every value in doc, doc itself included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from json_paths(value, (*path, key))


def set_at(doc, path, value):
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def corrupt(draw, name, raw):
    """raw with one corruption drawn for the file name."""
    kinds = ["truncate", "flip", "insert"]
    if name.endswith(".json"):
        kinds += ["brackets", "retype"]
    if name in ("config.json", "run/checkpoint.json"):
        kinds.append("kernel")
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return raw[: draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        bit = draw(st.integers(0, 8 * len(raw) - 1))
        return raw[: bit // 8] + bytes([raw[bit // 8] ^ (1 << bit % 8)]) + raw[bit // 8 + 1 :]
    if kind == "insert":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + b"\xff" + raw[at:]
    if kind == "brackets":
        return b"[" * 10**5 + raw + b"]" * 10**5
    doc = json.loads(raw)
    if kind == "retype":
        path = draw(st.sampled_from(list(json_paths(doc))))
        old = doc
        for key in path:
            old = old[key]
        new = draw(st.sampled_from([v for v in RETYPED if json_type(v) != json_type(old)]))
        doc = set_at(doc, path, new)
    else:  # an in-range change to one kernel size of the config
        config = doc if name == "config.json" else doc["config"]
        convs = config[draw(st.sampled_from(["real_convs", "complex_convs"]))]
        kernel = convs[draw(st.integers(0, len(convs) - 1))]["kernel"]
        kernel[draw(st.integers(0, 2))] = draw(st.integers(1, 16))
    return json.dumps(doc).encode()


def named_payload(work, name, raw):
    """The file a corrupted header or manifest now names, if it names one."""
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError):
        return None
    entry = doc.get("params_file" if "checkpoint" in name else "data") if isinstance(doc, dict) else None
    return os.path.join(os.path.dirname(os.path.join(work, name)), entry) if type(entry) is str else None


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("pristine"))
    assert main(["synth", "--out", root]) == 0  # the desk scene: 3 classes, 32 x 32 x 16
    with open(os.path.join(root, "config.json"), "w") as fh:
        json.dump(small_config_doc(epochs=1), fh)
    assert main(["train", *inputs(root), "--config", os.path.join(root, "config.json"),
                 "--out", os.path.join(root, "run")]) == 0
    return root


def inputs(root):
    return ["--cube", os.path.join(root, "cube.json"), "--labels", os.path.join(root, "labels.json")]


@pytest.mark.parametrize("name", sorted(PARTNER))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_corrupted_input_exits_0_or_names_it(pristine, tmp_path_factory, name, data):
    with open(os.path.join(pristine, name), "rb") as fh:
        raw = corrupt(data.draw, name, fh.read())
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
        shutil.copytree(pristine, work, dirs_exist_ok=True)
        with open(os.path.join(work, name), "wb") as fh:
            fh.write(raw)
        if name == "config.json":
            command = "train"
        elif name.startswith("run/"):
            command = "map"
        else:
            command = data.draw(st.sampled_from(["train", "map"]))
        if command == "train":
            argv = ["train", *inputs(work), "--config", os.path.join(work, "config.json"),
                    "--out", os.path.join(work, "out")]
        else:
            argv = ["map", *inputs(work), "--checkpoint", os.path.join(work, "run", "checkpoint.json"),
                    "--out", os.path.join(work, "m.ppm")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        names = [os.path.join(work, name), os.path.join(work, PARTNER[name]), named_payload(work, name, raw)]
        assert code in (0, 2, 3), err.getvalue()
        assert code == 0 or any(n and n in err.getvalue() for n in names), err.getvalue()
