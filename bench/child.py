"""One timed call into the program, in a process of its own.

    python bench/child.py setup <task> <task_seed>
        Imports ensmbo, builds the task and its MBO set (bottom half plus,
        for continuous tasks, its normalization statistics) and prints
        {"setup_s": ...} as its last line.

    python bench/child.py cli <result.json> <ensmbo argv...>
        Imports ensmbo, then times ``ensmbo.harness.cli_main(argv)`` alone
        and writes {"wall_s": ..., "exit_code": ..., "peak_rss_mb": ...}
        to <result.json>.

The parent (run.py) pins the BLAS thread count in the environment.
"""

import json
import sys
import time
from pathlib import Path


def setup(task_name: str, task_seed: int) -> None:
    t0 = time.perf_counter()
    from ensmbo.core import select_bottom_fraction, stats_from_designs
    from ensmbo.tasks import get_task

    task = get_task(task_name, task_seed)
    mbo = select_bottom_fraction(task.total_dataset(), 0.5)
    if not task.space.is_discrete:
        task.space.with_stats(*stats_from_designs(mbo.designs))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def cli(result_path: str, argv: list[str]) -> None:
    from ensmbo.harness import cli_main

    t0 = time.perf_counter()
    code = cli_main(argv)
    wall = time.perf_counter() - t0
    Path(result_path).write_text(json.dumps({"wall_s": wall, "exit_code": code, "peak_rss_mb": peak_rss_mb()}),
                                 encoding="utf-8")


def peak_rss_mb() -> float:
    """This process's own peak resident memory since exec.

    Not ``getrusage`` or ``wait4``: Linux carries the spawning parent's peak
    into the ``ru_maxrss`` of a child across exec, so those report the
    larger of the two processes.  ``VmHWM`` belongs to this process alone.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1] == "cli":
        cli(sys.argv[2], sys.argv[3:])
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
