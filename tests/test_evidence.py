import importlib.util
import json
import os

import numpy as np

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
    monkeypatch.setattr(evidence, "CRITERIA_EPOCHS", 1)
    monkeypatch.setattr(evidence, "CRITERIA_REPEATS", 2)
    assert evidence.main([REPO, REPO]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    cases, criteria = summary.pop("cases"), summary.pop("criteria")
    # per noise: synth's 5 files, train's 4, trial's 2 x 4 and its report, 2
    # maps; the criteria runs are not artifacts
    assert summary == {"artifacts": 2 * 20, "identical": 2 * 20, "differ": []}
    artifacts, case_lines, criteria_lines = lines[:40], lines[40:-5], lines[-5:-1]
    assert all(line.startswith("same  ") for line in artifacts)
    assert not any(line.endswith(evidence.SKIPPED) for line in lines)
    # per noise: one line of moved pixels, one of train and one of trial figures
    assert sorted(cases) == ["seed0_noise0", "seed0_noise0.1"] and len(case_lines) == 2 * 3
    for case, figures in cases.items():
        assert figures["moved"] == {"map.ppm": 0, "map_full.ppm": 0}
        assert f"case  {case}  moved pixels: map.ppm 0  map_full.ppm 0" in case_lines
        for run in ("train", "trial"):
            parent, change = figures[run]["parent"], figures[run]["change"]
            assert parent == change and sorted(parent) == ["aa", "kappa", "oa"]
            assert 0 <= parent["oa"] <= 1
    # criterion 8's OA and epochs per noise, criterion 9's OA per SE arm
    assert criteria["parent"] == criteria["change"]
    figures = criteria["parent"]
    names = ["8 noise 0.1", "8 noise 0", "9 se_on", "9 se_off"]
    assert sorted(figures) == sorted(names)
    assert figures["8 noise 0"]["epochs"] == figures["8 noise 0.1"]["epochs"] == 1
    assert all(0 <= figures[arm]["oa_mean"] <= 1 and figures[arm]["oa_std"] >= 0 for arm in ("9 se_on", "9 se_off"))
    assert [line.split(":")[0] for line in criteria_lines] == [f"criterion {name}" for name in names]


def write_ppm(path, pixels):
    from hsiduo import cli

    cli.write_ppm(path, pixels)
    return open(path, "rb").read()


def test_moved_pixels_counts_the_pixels_that_differ(tmp_path):
    rgb = np.random.default_rng(0).integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    image = write_ppm(tmp_path / "a.ppm", rgb)
    assert evidence.moved_pixels(image, image) == 0
    for k in (1, 4, 35):
        moved = rgb.copy()
        pixels = moved.reshape(-1, 3)
        pixels[np.random.default_rng(k).choice(35, size=k, replace=False), k % 3] ^= 1  # one channel each
        assert evidence.moved_pixels(image, write_ppm(tmp_path / "b.ppm", moved)) == k
    assert evidence.moved_pixels(image, write_ppm(tmp_path / "c.ppm", rgb[:, :5])) is None  # another size
