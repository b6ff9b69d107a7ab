"""Resident memory around each stage of one ``ensmbo`` command.

    python tools/memstages.py run --task ridge --seed 0 --run-seeds 1 [ensmbo arguments...]

Runs ``ensmbo.harness.cli_main`` with the given arguments in this process,
with the checkout's ``src/`` first on the path, and with ``get_task``,
``select_bottom_fraction``, ``train_ensemble``, ``ascend_batch``,
``evaluate_oracle`` and ``persist_report`` wrapped.  For each call of one
of them it prints one markdown row: the stage, and this process's
``VmHWM`` (the high-water mark of its resident memory) and ``VmRSS`` from
``/proc/self/status`` before and after the call, in MB (kB / 1024, as the
benchmark's ``peak_rss_mb``).  The command's own output goes to stderr, so
stdout holds the table alone.  Training workers are processes of their
own, and their memory is not counted.

One read of the status file gives both numbers of a reading, so VmHWM is
never below VmRSS within it.  Between two reads, VmHWM can fall by a few
hundred kB: on Linux 6.18 with 2 CPUs it fell by 0.01-0.18 MB once per
run, where ``run`` frees the task's total table, likely because the
kernel derives it from approximate per-CPU RSS counters.

Linux only: it exits 2 where ``/proc/self/status`` does not exist, and
otherwise with the command's exit code.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STATUS = Path("/proc/self/status")
STAGES = ("get_task", "select_bottom_fraction", "train_ensemble", "ascend_batch", "evaluate_oracle",
          "persist_report")


def status_mb() -> tuple[float, float]:
    """(VmHWM, VmRSS) of this process, in MB."""
    fields = dict(line.split(":", 1) for line in STATUS.read_text(encoding="ascii").splitlines())
    return int(fields["VmHWM"].split()[0]) / 1024.0, int(fields["VmRSS"].split()[0]) / 1024.0


def _probed(stage: str, fn, rows: list):
    """``fn``, appending (stage, status before, status after) to ``rows`` on each call."""
    def call(*args, **kwargs):
        before = status_mb()
        try:
            return fn(*args, **kwargs)
        finally:
            rows.append((stage, before, status_mb()))
    return call


def main(argv: list[str]) -> int:
    if not STATUS.exists():
        print(f"memstages.py reads {STATUS} and runs on Linux only", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from ensmbo import harness

    rows: list = []
    for stage in STAGES:
        setattr(harness, stage, _probed(stage, getattr(harness, stage), rows))
    with contextlib.redirect_stdout(sys.stderr):
        code = harness.cli_main(argv)
    print("| stage | VmHWM before | VmHWM after | VmRSS before | VmRSS after |")
    print("| --- | ---: | ---: | ---: | ---: |")
    for stage, (hwm0, rss0), (hwm1, rss1) in rows:
        print(f"| {stage} | {hwm0:.2f} | {hwm1:.2f} | {rss0:.2f} | {rss1:.2f} |")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
