"""The golden-trace gate: the CLI's trace outputs and summaries, bit for bit.

See ``golden.py`` for what is hashed, how the BLAS kernel is pinned and
how to re-bless ``golden.json``.
"""

import json
import shutil

import numpy as np
import pytest

import golden


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    reason = golden.skip_reason()
    if reason is not None:
        pytest.skip(reason)
    out = tmp_path_factory.mktemp("golden")
    golden.generate(out)
    return out


def test_trace_outputs_match_manifest(outputs):
    moved = golden.mismatches(golden.load_manifest(), golden.digests(outputs))
    assert not moved, (f"{len(moved)} trace outputs or summary fields differ from "
                       f"tests/golden.json: {moved}; re-bless with `python tests/golden.py` "
                       "if the change is intended")


def test_one_ulp_in_one_row_is_caught(outputs, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(outputs, copy)
    path = copy / "logdet" / "dcppa_n9.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    i, f, fabs = lines[5].rstrip("\n").split(",")
    bumped = np.nextafter(float(f), np.inf)
    lines[5] = ",".join([i, format(bumped, ".17g"), fabs]) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert float(lines[5].split(",")[1]) == bumped != float(f)
    assert golden.mismatches(golden.load_manifest(), golden.digests(copy)) == [
        "logdet/dcppa_n9.csv"]


def edit_summary(outputs, tmp_path, name, edit):
    """A copy of the outputs with ``edit`` applied to ``name``'s summary.json."""
    copy = tmp_path / "copy"
    shutil.copytree(outputs, copy)
    path = copy / name / golden.SUMMARY
    summary = json.loads(path.read_text(encoding="utf-8"))
    edit(summary)
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return copy


def test_a_flipped_reason_is_caught(outputs, tmp_path):
    def flip(summary):
        assert summary["dca"]["reason"] != "max iterations"
        summary["dca"]["reason"] = "max iterations"

    copy = edit_summary(outputs, tmp_path, "frechet", flip)
    assert golden.mismatches(golden.load_manifest(), golden.digests(copy)) == [
        "frechet/summary.json: dca.reason"]


def test_a_bumped_count_is_caught(outputs, tmp_path):
    def bump(summary):
        summary["results"][3]["dca_eigendecompositions"] += 1

    copy = edit_summary(outputs, tmp_path, "logdet", bump)
    assert golden.mismatches(golden.load_manifest(), golden.digests(copy)) == [
        "logdet/summary.json: results.3.dca_eigendecompositions"]


def test_seconds_are_not_gated(outputs, tmp_path):
    def slow_down(summary):
        for row in summary["results"]:
            row["dca_seconds"] += 1.0

    copy = edit_summary(outputs, tmp_path, "logdet", slow_down)
    assert golden.mismatches(golden.load_manifest(), golden.digests(copy)) == []


def stub_generate(out_dir, names=golden.GATE):
    """Stand-in outputs for ``golden.generate``: no CLI runs."""
    for name in names:
        (out_dir / name).mkdir(parents=True)
        for file in golden.COMMANDS[name][1]:
            (out_dir / name / file).write_text(f"stub {name}/{file}\n", encoding="utf-8")
        (out_dir / name / golden.SUMMARY).write_text(
            json.dumps({"experiment": name, "seconds": 1.0, "stub": True}), encoding="utf-8")


@pytest.fixture
def manifest_copy(tmp_path, monkeypatch):
    """A copy of golden.json that ``golden.main`` blesses with stubbed outputs."""
    path = tmp_path / "golden.json"
    shutil.copyfile(golden.MANIFEST, path)
    monkeypatch.setattr(golden, "MANIFEST", path)
    monkeypatch.setattr(golden, "skip_reason", lambda: None)
    monkeypatch.setattr(golden, "generate", stub_generate)
    return path


def test_blessing_one_command_keeps_every_other_entry(manifest_copy):
    before = golden.load_manifest()
    assert golden.main(["duality"]) == 0
    after = golden.load_manifest()
    assert after.keys() == before.keys()
    others = [key for key in before if not key.startswith("duality/")]
    assert len(others) == len(before) - 2
    assert all(after[key] == before[key] for key in others)
    # the kept entries are written with the same bytes
    assert ({key: json.dumps(after[key]) for key in others}
            == {key: json.dumps(before[key]) for key in others})
    assert after["duality/summary.json"] == {"experiment": "duality", "stub": True}
    assert after["duality/sandwich.csv"] != before["duality/sandwich.csv"]


def test_blessing_without_commands_regenerates_all_four(manifest_copy):
    before = golden.load_manifest()
    assert golden.main([]) == 0
    after = golden.load_manifest()
    assert after.keys() == before.keys()
    assert all(after[key] != before[key] for key in before)


def test_an_unknown_command_blesses_nothing(manifest_copy):
    text = manifest_copy.read_text(encoding="utf-8")
    assert golden.main(["dualty"]) == 2
    assert manifest_copy.read_text(encoding="utf-8") == text
