"""Byte-parity check of the program's artifacts against another revision.

    python tools/parity.py --against REV [--work DIR]

Exports REV with ``git archive`` (local, and ``.git`` is left alone), runs
one fixed artifact set with REV's ``src/`` and with this checkout's, each
in its own directory at one BLAS thread and with the same relative
``--out``, and prints a markdown table: a row for each file that is not
identical, and a count of the files of each status per top-level
directory.  A row gives:

* a CSV or JSON file that differs: the changed cells, and the largest
  absolute and relative change of a numeric cell
* an ensemble ``.bin`` that differs: the changed header values and
  weights, and the largest weight change
* any other file (``report.md``, a command's stdout): the changed lines

``timings.json`` holds wall-clock seconds and is not compared.  The exit
status is 1 if any file differs or exists on one side only, else 0.

The fixed set: ``ensmbo run --seed 0`` for minibind, ridge and bowl at run
seed 1, with the ``report.md`` that ``ensmbo report`` re-renders; ``run
--seed 0`` for minibind and ridge at run seeds 101-105; ``train --seed 0``
and ``tune --seed 0`` (all five combiners) for the three tasks; and the
stdout and exit code of each command.  It takes a few minutes per tree on
two cores.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TASKS = ("minibind", "ridge", "bowl")
COMBINERS = "single,mean,min,mgda,cagrad"
UNCOMPARED = {"timings.json"}


def _fixed_set() -> list[tuple[str, list[str]]]:
    """(label, ensmbo arguments) of each command, in run order."""
    cmds = []
    for task in TASKS:
        cmds.append((f"run-{task}-seed1", ["run", "--task", task, "--seed", "0", "--run-seeds", "1",
                                           "--out", "runs/seed1"]))
        cmds.append((f"report-{task}-seed1", ["report", "--run-dir", f"runs/seed1/{task}-s0"]))
    for task in TASKS[:2]:
        cmds.append((f"run-{task}-seeds101-105", ["run", "--task", task, "--seed", "0", "--run-seeds",
                                                  "101,102,103,104,105", "--out", "runs/seeds101-105"]))
    for task in TASKS:
        cmds.append((f"train-{task}", ["train", "--task", task, "--seed", "0", "--out", "models"]))
    for task in TASKS:
        cmds.append((f"tune-{task}", ["tune", "--task", task, "--seed", "0", "--combiner", COMBINERS,
                                      "--out", "tune"]))
    return cmds


def export(rev: str, dest: Path) -> Path:
    """The committed files of ``rev``, unpacked into ``dest``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_set(tree: Path, work: Path, cmds) -> None:
    """Run ``cmds`` with ``tree``'s package in ``work``; each command's
    stdout and exit code go to ``work/stdout/<nn>-<label>.txt``."""
    env = {k: v for k, v in os.environ.items() if k != "ENSMBO_OUT"}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    (work / "stdout").mkdir(parents=True)
    for i, (label, args) in enumerate(cmds):
        proc = subprocess.run([sys.executable, "-c", "import sys; from ensmbo.harness import main; main()", *args],
                              cwd=work, env=env, stdout=subprocess.PIPE, text=True)
        (work / "stdout" / f"{i:02d}-{label}.txt").write_text(f"{proc.stdout}exit {proc.returncode}\n",
                                                                encoding="utf-8")


# ---------------------------------------------------------------------------
# Comparison: each reader turns a file into cells, (key, value) pairs
# ---------------------------------------------------------------------------

def _csv_cells(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as f:
        return {(i, j): cell for i, row in enumerate(csv.reader(f)) for j, cell in enumerate(row)}


def _json_cells(value, key=()) -> dict:
    if isinstance(value, dict):
        return {k: v for name, item in value.items() for k, v in _json_cells(item, key + (name,)).items()}
    if isinstance(value, list):
        return {k: v for i, item in enumerate(value) for k, v in _json_cells(item, key + (i,)).items()}
    return {key: value}


def _bin_cells(path: Path) -> dict:
    """Header values and weights of an ensemble file in the layout of
    ``ensmbo.nn``'s serialization comment."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen].decode("utf-8"))
    weights = np.frombuffer(blob[12 + hlen:], dtype="<f8")
    cells = {("header",) + k: v for k, v in _json_cells(header).items()}
    cells.update({("weight", i): float(w) for i, w in enumerate(weights)})
    return cells


def _text_cells(path: Path) -> dict:
    return dict(enumerate(path.read_text(encoding="utf-8").splitlines()))


def _number(v):
    """``v`` as a float; None for a bool, null or a non-numeric string."""
    if isinstance(v, bool):
        return None
    try:
        return float(v)
    except (TypeError, ValueError):
        return None


def compare_file(a: Path, b: Path) -> dict:
    """The row of ``a`` (the revision) against ``b`` (this checkout)."""
    if a.read_bytes() == b.read_bytes():
        return {"status": "identical"}
    reader = {".csv": _csv_cells, ".json": lambda p: _json_cells(json.loads(p.read_text(encoding="utf-8"))),
              ".bin": _bin_cells}.get(a.suffix, _text_cells)
    try:
        ca, cb = reader(a), reader(b)
    except (ValueError, UnicodeDecodeError, struct.error) as exc:
        return {"status": f"differs (unreadable: {exc})"}
    changed = [(ca.get(k), cb.get(k)) for k in sorted(set(ca) | set(cb), key=repr) if ca.get(k) != cb.get(k)]
    max_abs = max_rel = None
    for va, vb in changed:
        na, nb = _number(va), _number(vb)
        if na is None or nb is None:
            continue
        d = abs(nb - na)
        rel = d / abs(na) if na != 0 else (0.0 if d == 0 else math.inf)
        max_abs = d if max_abs is None else max(max_abs, d)
        max_rel = rel if max_rel is None else max(max_rel, rel)
    unit = "lines" if reader is _text_cells else "cells"
    return {"status": "differs", "changed": f"{len(changed)} {unit}", "max_abs": max_abs, "max_rel": max_rel}


def compare_dirs(a: Path, b: Path) -> list[tuple[str, dict]]:
    """(relative path, row) of every file under ``a`` or ``b``."""
    files = sorted({p.relative_to(root).as_posix() for root in (a, b) for p in root.rglob("*") if p.is_file()})
    rows = []
    for rel in files:
        if Path(rel).name in UNCOMPARED:
            rows.append((rel, {"status": "not compared"}))
        elif not (a / rel).is_file() or not (b / rel).is_file():
            rows.append((rel, {"status": "only in " + ("this checkout" if (b / rel).is_file() else "the revision")}))
        else:
            rows.append((rel, compare_file(a / rel, b / rel)))
    return rows


def differs(rows) -> bool:
    return any(row["status"] not in ("identical", "not compared") for _, row in rows)


def table(rows) -> str:
    """Markdown: a row for each file that is not identical, then the count
    of each status per top-level directory."""
    def fmt(v):
        return "" if v is None else f"{v:.3g}"

    lines = ["| file | status | changed | max abs change | max rel change |", "| --- | --- | --- | --- | --- |"]
    lines += [f"| `{rel}` | {row['status']} | {row.get('changed', '')} | {fmt(row.get('max_abs'))} | "
              f"{fmt(row.get('max_rel'))} |" for rel, row in rows if row["status"] != "identical"]
    groups = {}
    for rel, row in rows:
        groups.setdefault(rel.split("/", 1)[0] + "/", Counter())[row["status"].split(" (")[0]] += 1
    groups["all"] = sum(groups.values(), Counter())
    lines += ["", "| directory | files | statuses |", "| --- | --- | --- |"]
    lines += [f"| `{group}` | {counts.total()} | " + ", ".join(f"{n} {s}" for s, n in sorted(counts.items())) + " |"
              for group, counts in groups.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision to compare this checkout with")
    parser.add_argument("--work", help="directory for the export and both artifact sets "
                                       "(default: a temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        work = Path(args.work or tmp)
        tree = export(args.against, work / "tree")
        cmds = _fixed_set()
        run_set(tree, work / "revision", cmds)
        run_set(ROOT, work / "checkout", cmds)
        rows = compare_dirs(work / "revision", work / "checkout")
    print(table(rows))
    return 1 if differs(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
