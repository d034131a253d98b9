"""The golden-trace gate: the CLI's trace outputs, bit for bit.

See ``golden.py`` for what is hashed, how the BLAS kernel is pinned and
how to re-bless ``golden.json``.
"""

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
    assert not moved, (f"{len(moved)} trace outputs differ from tests/golden.json: {moved}; "
                       "re-bless with `python tests/golden.py` if the change is intended")


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
