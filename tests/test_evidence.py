import importlib.util
import json
import os

from test_cli import small_config_doc

_SPEC = importlib.util.spec_from_file_location(
    "evidence", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "evidence.py"))
evidence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(evidence)

REPO = os.path.join(os.path.dirname(__file__), os.pardir)


def test_a_changed_or_missing_artifact_differs():
    parent = {"a": "1", "b": "2", "c": "3"}
    rows, summary = evidence.compare(parent, {"a": "1", "b": "9", "d": "4"})
    assert [row[3] for row in rows] == [True, False, False, False]
    assert summary == {"artifacts": 4, "identical": 1, "differ": ["b", "c", "d"]}
    assert evidence.compare(parent, dict(parent))[1]["differ"] == []


def test_this_checkout_against_itself_is_byte_identical(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(small_config_doc(epochs=1)))
    monkeypatch.setattr(evidence, "SEEDS", 1)
    monkeypatch.setattr(evidence, "SIZE", (16, 16, 8))
    monkeypatch.setattr(evidence, "CONFIG", str(config))
    assert evidence.main([REPO, REPO]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    # per noise: synth's 5 files, train's 4, trial's 2 x 4 and its report, 2 maps
    assert summary == {"artifacts": 2 * 20, "identical": 2 * 20, "differ": []}
    assert all(line.startswith("same  ") for line in lines[:-1])
    assert not any(line.endswith(evidence.SKIPPED) for line in lines)
