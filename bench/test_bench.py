"""Tests of the benchmark itself.

Every correctness check must reject a deliberately corrupted artifact,
and every workload must run end to end at a reduced size (labelled
``"measurement": false``; its figures are not measurements).

    python3 -m pytest bench
"""

import csv
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from ensmbo.combine import CagradConfig, GradientSet, solve_cagrad_dual, solve_mgda_dual  # noqa: E402
from ensmbo.nn import init_mlp  # noqa: E402
from ensmbo.tasks import get_task  # noqa: E402

SEED = 3


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@functools.lru_cache(maxsize=None)
def small_run(workload: str, trace: int):
    """Result line and first round directory of a reduced-size run."""
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--small")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), run.OUT / workload / f"seed{SEED}-trace{trace}" / "round0"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_small_workload_runs_end_to_end(workload, trace):
    result, _ = small_run(workload, trace)
    assert result["measurement"] is False
    assert result["correct"] is True, result
    assert result["failed"] == 0
    assert result["attempted"] % (8 if trace else 5) == 0
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(params=list(run.WORKLOADS))
def persisted(request, tmp_path):
    """A copy of the persisted `ensmbo run` of a reduced-size run, safe to corrupt."""
    _, round_dir = small_run(request.param, 0)
    task = run.WORKLOADS[request.param]
    run_dir = shutil.copytree(round_dir / f"{task}-s{run.TASK_SEED}", tmp_path / "run")
    ref = checks.task_reference(get_task(task, run.TASK_SEED))

    def problems():
        return checks.check_run_dir(run_dir, ref, run.ALGORITHMS, SEED, run.SMALL.starts)[0]

    assert problems() == []
    return run_dir, ref, problems


def _edit_csv(path: Path, row: int, col: int, fn) -> None:
    with open(path, newline="", encoding="utf-8") as f:
        table = list(csv.reader(f))
    table[row][col] = fn(table[row][col])
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(table)


def test_changed_score_is_caught(persisted):
    run_dir, _, problems = persisted
    _edit_csv(run_dir / f"designs_mgda_seed{SEED}.csv", 3, -1, lambda y: repr(float(y) + 1e-6))
    assert any("row 3 scored" in p for p in problems())


def test_changed_design_is_caught(persisted):
    run_dir, ref, problems = persisted
    change = (lambda t: str((int(t) + 1) % ref.vocab)) if ref.discrete else (lambda x: repr(float(x) + 0.5))
    _edit_csv(run_dir / f"designs_single_seed{SEED}.csv", 2, 0, change)
    assert any("row 2 scored" in p for p in problems())


def test_changed_summary_is_caught(persisted):
    run_dir, _, problems = persisted
    path = run_dir / "results.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["summaries"][f"cagrad/seed{SEED}"]["p50_norm"] += 1e-6
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert any("cagrad p50_norm" in p for p in problems())


def test_nan_in_results_json_is_caught(persisted):
    run_dir, _, problems = persisted
    path = run_dir / "results.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["val_metrics"][str(SEED)][0][0] = float("nan")
    path.write_text(json.dumps(payload), encoding="utf-8")  # json.dumps writes a bare NaN
    assert any("NaN" in p for p in problems())


def test_oracle_accounting_is_caught(persisted):
    run_dir, _, problems = persisted
    path = run_dir / "results.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["oracle_calls"]["training_and_ascent"] = 1
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert any("oracle calls" in p for p in problems())


@pytest.mark.parametrize("name", ["minibind", "ridge"])
def test_reference_formula_reproduces_total_dataset(name):
    task = get_task(name, run.TASK_SEED)
    ref = checks.task_reference(task)
    total = task.total_dataset()
    assert np.allclose(ref.score(total.designs), total.scores, rtol=0, atol=1e-12)
    assert (ref.y_min, ref.y_max) == pytest.approx((task.y_min, task.y_max), abs=1e-12)


def test_design_off_its_ball_is_caught():
    rng = np.random.default_rng(0)
    for _ in range(20):
        grads = rng.standard_normal((6, 32))
        d = solve_cagrad_dual(GradientSet(grads=grads), CagradConfig(0.5)).d
        assert checks.cagrad_ball_problem(grads, d, 0.5) is None
        g0 = grads.mean(axis=0)
        off = g0 + (d - g0) * 1.001
        assert checks.cagrad_ball_problem(grads, off, 0.5) is not None


def test_mgda_kkt_violation_is_caught():
    rng = np.random.default_rng(1)
    for _ in range(20):
        grads = rng.standard_normal((6, 32))
        d = solve_mgda_dual(GradientSet(grads=grads)).d
        assert checks.mgda_kkt_problem(grads, d) is None
        assert checks.mgda_kkt_problem(grads, 1.01 * d) is not None


def test_step0_prediction_mismatch_is_caught(tmp_path):
    rng = np.random.default_rng(2)
    models = [init_mlp(32, (64, 64), rng) for _ in range(3)]
    x0 = rng.standard_normal((4, 32))
    preds0 = np.array([[m.forward(x) for m in models] for x in x0])
    assert checks.check_step0_predictions(preds0, models, x0) == []
    preds0[2, 1] *= 1.0 + 1e-6
    problems = checks.check_step0_predictions(preds0, models, x0)
    assert len(problems) == 1 and problems[0].startswith("trajectory 2 step 0 pred_2:")


def test_corrupted_trajectory_csv_is_caught(tmp_path):
    path = tmp_path / "trajectory_cagrad_0.csv"
    rows = [["step", "pred_1", "pred_2", "d_norm"], ["0", "0.5", "0.25", "1.0"], ["1", "0.75", "nan", "1.0"]]
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)
    _, problems = checks.read_trajectory_csv(path, m=2, steps=1)
    assert problems and "non-finite" in problems[0]
    _, problems = checks.read_trajectory_csv(path, m=2, steps=2)
    assert problems and "shape" in problems[0]


def test_strict_json_rejects_nan_and_infinity():
    assert checks.strict_json_loads('{"a": 1.5}') == {"a": 1.5}
    for bad in ('{"a": NaN}', '{"a": Infinity}', '{"a": -Infinity}'):
        with pytest.raises(ValueError):
            checks.strict_json_loads(bad)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "ridge-paper", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
