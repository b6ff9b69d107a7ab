"""``tools/memstages.py`` on a tiny bowl run."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "memstages.py"
_spec = importlib.util.spec_from_file_location("memstages", SCRIPT)
memstages = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(memstages)


@pytest.mark.skipif(not memstages.STATUS.exists(), reason="reads /proc/self/status, which only Linux has")
def test_every_stage_has_a_row_and_the_high_water_mark_covers_the_resident_set(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "run", "--task", "bowl", "--m", "2", "--epochs", "1",
                           "--steps", "2", "--out", str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "| stage | VmHWM before | VmHWM after | VmRSS before | VmRSS after |"
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]
    assert {row[0] for row in rows} == set(memstages.STAGES)
    assert [row[0] for row in rows].count("ascend_batch") == 5
    readings = [(float(row[hwm]), float(row[hwm + 2])) for row in rows for hwm in (1, 2)]
    # both from one read of the status file; VmHWM itself can fall by a few hundred kB between reads
    assert all(hwm >= rss for hwm, rss in readings), readings
    assert readings[-1][0] > readings[0][0]  # the task build alone raises it
    assert "artifacts in" in proc.stderr  # the command's own output


def test_without_proc_status_it_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(memstages, "STATUS", tmp_path / "status")
    assert memstages.main(["run", "--task", "bowl"]) == 2
    assert capsys.readouterr() == ("", f"memstages.py reads {tmp_path / 'status'} and runs on Linux only\n")
