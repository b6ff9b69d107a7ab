"""``tools/parity.py`` on a reduced artifact set: one tiny bowl run and the
report that ``ensmbo report`` re-renders."""

import importlib.util
import json
import shutil
import struct
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

TINY = ["--m", "2", "--epochs", "1", "--steps", "2"]
REDUCED_SET = [
    ("run-bowl", ["run", "--task", "bowl", "--seed", "0", "--run-seeds", "1", *TINY, "--out", "runs"]),
    ("report-bowl", ["report", "--run-dir", "runs/bowl-s0"]),
]
RUN = "runs/bowl-s0"


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """The reduced set run twice with this checkout's package."""
    base = tmp_path_factory.mktemp("parity")
    for side in ("a", "b"):
        parity.run_set(ROOT, base / side, REDUCED_SET)
    return base / "a", base / "b"


def _row(rows, rel):
    return dict(rows)[rel]


def test_identical_trees_pass(two_runs):
    rows = parity.compare_dirs(*two_runs)
    assert not parity.differs(rows)
    assert _row(rows, f"{RUN}/timings.json")["status"] == "not compared"
    assert _row(rows, f"{RUN}/report.md")["status"] == "identical"
    assert _row(rows, "stdout/01-report-bowl.txt")["status"] == "identical"
    assert (two_runs[1] / "stdout" / "00-run-bowl.txt").read_text(encoding="utf-8").endswith("exit 0\n")
    assert "differs" not in parity.table(rows)


def test_corrupted_cells_are_reported_with_their_delta(two_runs, tmp_path):
    a, b = two_runs
    bad = tmp_path / "b"
    shutil.copytree(b, bad)

    csv_path = bad / f"{RUN}/designs_mgda_seed1.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    cells = lines[3].split(",")
    y = float(cells[-1])
    cells[-1] = repr(y + 0.25)
    lines[3] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    bin_path = bad / f"{RUN}/ensemble_seed1.bin"
    blob = bytearray(bin_path.read_bytes())
    (hlen,) = struct.unpack("<I", blob[8:12])
    at = 12 + hlen + 8 * 5
    w = struct.unpack("<d", blob[at:at + 8])[0]
    blob[at:at + 8] = struct.pack("<d", w + 1e-3)
    bin_path.write_bytes(bytes(blob))

    json_path = bad / f"{RUN}/results.json"
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    y_max = payload["y_max"]
    payload["y_max"] = y_max + 0.5
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    rows = parity.compare_dirs(a, bad)
    assert parity.differs(rows)
    row = _row(rows, f"{RUN}/designs_mgda_seed1.csv")
    assert row["status"] == "differs" and row["changed"] == "1 cells"
    assert row["max_abs"] == pytest.approx(0.25) and row["max_rel"] == pytest.approx(0.25 / abs(y))
    row = _row(rows, f"{RUN}/ensemble_seed1.bin")
    assert row["status"] == "differs" and row["changed"] == "1 cells"
    assert row["max_abs"] == pytest.approx(1e-3, rel=1e-9)
    row = _row(rows, f"{RUN}/results.json")
    assert row["status"] == "differs" and row["changed"] == "1 cells"
    assert row["max_abs"] == pytest.approx(0.5) and row["max_rel"] == pytest.approx(0.5 / abs(y_max))
    assert sum(r["status"] != "identical" for _, r in rows) == 4  # the three above and timings.json
    assert "| differs | 1 cells |" in parity.table(rows)
