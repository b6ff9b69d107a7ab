import json
import os
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from glob import glob
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ensmbo
from ensmbo.core import (
    Dataset,
    DesignSpace,
    normalize_score,
    read_dataset_csv,
    select_bottom_fraction,
    summarize_scores,
    write_dataset_csv,
)
from ensmbo.harness import (
    ALGORITHMS,
    ExperimentConfig,
    _aggregate,
    _build_parser,
    _experiment_config,
    _prepare,
    cli_main,
    persist_report,
    report_markdown,
    run_experiment,
)
from ensmbo.nn import TrainConfig
from ensmbo.tasks import evaluate_oracle, get_task

from helpers import load_ensemble

GOLDEN = Path(__file__).parent / "data" / "minibind_golden_report.md"

FAST_TRAIN = TrainConfig(epochs=2, batch_size=256)


def fast_config(**kw):
    base = dict(
        task="bowl",
        task_seed=1,
        ensemble_size=2,
        n_candidates=8,
        steps=4,
        train=FAST_TRAIN,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_zero_steps_scores_equal_starts():
    cfg = fast_config(steps=0, algorithms=ALGORITHMS)
    report = run_experiment(cfg)
    task = get_task("bowl", 1)
    mbo = select_bottom_fraction(task.total_dataset(), 0.5)
    from ensmbo.core import select_top_n

    starts = select_top_n(mbo, 8)
    expected = np.asarray(evaluate_oracle(task, list(starts.designs)))
    for r in report.results:
        assert np.allclose(np.sort(r.scores), np.sort(expected), rtol=1e-9)


def test_identical_seeds_identical_reports(tmp_path):
    cfg = fast_config(out_dir=str(tmp_path / "a"))
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert report_markdown(r1.payload) == report_markdown(r2.payload)
    for a, b in zip(r1.results, r2.results):
        assert np.array_equal(a.scores, b.scores)


def test_baseline_row_matches_mbo_max():
    cfg = fast_config(algorithms=("mean",))
    report = run_experiment(cfg)
    task = get_task("bowl", 1)
    mbo = select_bottom_fraction(task.total_dataset(), 0.5)
    assert report.payload["baseline_norm"] == normalize_score(float(mbo.scores.max()), task.y_min, task.y_max)


def test_prepare_holds_the_mbo_set_once():
    # ridge's total is 2.56 MB of designs and its MBO set 1.28 MB: a run holds
    # neither the total nor a second MBO copy once its MBO set is drawn
    np.random.default_rng(0)  # numpy.random allocates its own tables on first use
    tracemalloc.start()
    try:
        _, mbo = _prepare(ExperimentConfig(task="ridge", task_seed=0))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mbo) == 10_000
    assert held <= 2.0e6 and peak <= 6.0e6, (held, peak)


def test_oracle_accounting():
    cfg = fast_config(algorithms=("single", "mgda"))
    report = run_experiment(cfg)
    assert report.payload["oracle_calls"]["training_and_ascent"] == 0
    assert report.payload["oracle_calls"]["evaluation"] == 8 * 2


def test_multi_seed_aggregation():
    cfg = fast_config(algorithms=("mean",), run_seeds=(1, 2))
    report = run_experiment(cfg)
    agg = _aggregate(report.payload)
    vals = [s["mean"] for s in report.payload["summaries"].values()]
    assert agg["mean"]["mean"][0] == pytest.approx(np.mean(vals))
    assert agg["mean"]["mean"][1] == pytest.approx(np.std(vals))


def test_rejects_bad_algorithms_and_sizes():
    with pytest.raises(ValueError, match="unknown algorithms"):
        ExperimentConfig(algorithms=("bogus",))
    with pytest.raises(ValueError):
        ExperimentConfig(n_candidates=0)
    cfg = fast_config(n_candidates=10_000)
    with pytest.raises(ValueError, match="exceeds"):
        run_experiment(cfg)


def test_validation_metrics_present():
    cfg = fast_config(algorithms=("mean",))
    report = run_experiment(cfg)
    pairs = report.payload["val_metrics"]["1"]
    assert len(pairs) == 2
    for rho, mse in pairs:
        assert -1.0 <= rho <= 1.0 and mse >= 0.0


# ---------------------------------------------------------------------------
# markdown report
# ---------------------------------------------------------------------------

def test_report_single_algorithm_is_best():
    cfg = fast_config(algorithms=("mean",))
    text = report_markdown(run_experiment(cfg).payload)
    assert "| dataset |" in text
    assert text.count("**") >= 2  # the single row is marked best
    assert "ties break toward the" in text


def test_report_tie_rule_marks_earlier_row():
    from ensmbo.harness import _mark

    rows = [("a", 1.0, "1.0"), ("b", 1.0, "1.0"), ("c", 0.5, "0.5")]
    marked = _mark(rows)
    assert marked[0][1] == "**1.0**"
    assert marked[1][1] == "*1.0*"
    assert marked[2][1] == "0.5"


def test_report_multi_seed_cells_and_footer():
    cfg = fast_config(algorithms=("single", "mean"), run_seeds=(1, 2))
    report = run_experiment(cfg)
    text = report_markdown(report.payload)
    agg = _aggregate(report.payload)
    tables = {"max_norm": "## Max (normalized)", "p50_norm": "## 50th percentile",
              "mean": "## Average (raw)", "mean_norm": "## Average (normalized)"}
    for metric, title in tables.items():
        table = text[text.index(title):].split("\n\n")[1].splitlines()
        for alg, label in (("single", "single model"), ("mean", "ensemble, mean")):
            mean, std = agg[alg][metric]
            (row,) = [line for line in table if line.startswith(f"| {label} |")]
            assert row.strip("|* ").endswith(f"{mean + 0.0:.6f} ± {std + 0.0:.6f}")
    assert "| dataset | " in text and " ± " not in text.split("| dataset | ")[1].splitlines()[0]
    assert text.endswith(
        "Markers: **best**, *second best* per column; ties break toward the\n"
        "earlier row. The dataset row is the normalized best score in the\n"
        "starting offline MBO dataset.\n"
        "Values are mean ± standard deviation over run seeds.\n"
    )


def test_report_tables_present():
    cfg = fast_config(algorithms=("single", "mean"))
    text = report_markdown(run_experiment(cfg).payload)
    assert "## Max (normalized)" in text
    assert "## 50th percentile (normalized)" in text
    assert "## Average (raw)" in text
    assert "## Average (normalized)" in text  # supplementary, clearly labeled
    assert "single model" in text and "ensemble, mean" in text


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_persist_and_reload_recomputes_from_csv(tmp_path):
    cfg = fast_config(algorithms=("mean", "mgda"))
    report = run_experiment(cfg)
    run_dir = tmp_path / "run"
    persist_report(report, run_dir)
    assert (run_dir / "report.md").exists()
    assert (run_dir / "results.json").exists()
    assert (run_dir / "ensemble_seed1.bin").exists()
    # report values equal recomputation from the persisted raw scores
    for r in report.results:
        ds, _ = read_dataset_csv(run_dir / f"designs_{r.algorithm}_seed{r.run_seed}.csv")
        s = summarize_scores(ds.scores, report.payload["y_min"], report.payload["y_max"])
        summary = report.payload["summaries"][f"{r.algorithm}/seed{r.run_seed}"]
        assert s.max == summary["max"]
        assert s.p50 == summary["p50"]
        assert s.mean == pytest.approx(summary["mean"], rel=1e-15)
    payload = json.loads((run_dir / "results.json").read_text())
    assert report_markdown(payload) == (run_dir / "report.md").read_text()


def test_byte_identical_artifacts_across_runs(tmp_path):
    cfg = fast_config(algorithms=("single", "cagrad"))
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    persist_report(run_experiment(cfg), d1)
    persist_report(run_experiment(cfg), d2)
    for name in ["report.md", "results.json", "ensemble_seed1.bin",
                 "designs_single_seed1.csv", "designs_cagrad_seed1.csv"]:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_golden_minibind_report(tmp_path):
    cfg = ExperimentConfig(
        task="minibind",
        task_seed=123,
        ensemble_size=3,
        n_candidates=8,
        steps=5,
        train=TrainConfig(epochs=2, batch_size=1024),
    )
    report = run_experiment(cfg)
    text = report_markdown(report.payload)
    if not GOLDEN.exists():  # pragma: no cover - snapshot bootstrap
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(text, encoding="utf-8")
        pytest.skip("golden snapshot created")
    assert text == GOLDEN.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_smoke(tmp_path, capsys):
    code = cli_main([
        "run", "--task", "bowl", "--seed", "1", "--m", "2", "--epochs", "2",
        "--steps", "3", "--n-candidates", "4", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Offline MBO report" in out
    run_dir = tmp_path / "bowl-s1"
    assert (run_dir / "report.md").exists()
    assert (run_dir / "timings.json").exists()


def test_cli_run_subset_combiner(tmp_path):
    code = cli_main([
        "run", "--task", "bowl", "--seed", "2", "--m", "2", "--epochs", "2",
        "--steps", "2", "--n-candidates", "4", "--combiner", "mean,mgda",
        "--out", str(tmp_path),
    ])
    assert code == 0
    files = {p.name for p in (tmp_path / "bowl-s2").glob("designs_*.csv")}
    assert files == {"designs_mean_seed2.csv", "designs_mgda_seed2.csv"}


def _session_members(sid):
    """Processes in session ``sid``, zombies included."""
    members = []
    for path in glob("/proc/[0-9]*/stat"):
        try:
            with open(path, encoding="ascii", errors="replace") as f:
                fields = f.read().rsplit(")", 1)[1].split()  # state ppid pgrp session ...
        except OSError:
            continue  # ended while we looked
        if int(fields[3]) == sid:
            members.append(path)
    return members


def test_cli_run_leaves_no_process_behind(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train": {"epochs": 2}}), encoding="utf-8")
    src = str(Path(ensmbo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-c", "from ensmbo.harness import main; main()", "run", "--task", "bowl",
         "--seed", "1", "--m", "3", "--steps", "3", "--n-candidates", "4", "--config", str(config),
         "--out", str(tmp_path)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # no-op once it has been waited for
        proc.wait()
    left = _session_members(proc.pid)  # a new session's id is its leader's pid
    assert proc.returncode == 0, err
    assert left == []


@pytest.mark.parametrize("code, absent", [
    ("import ensmbo.core, ensmbo.tasks",  # the task set-up path
     ["ensmbo.harness", "ensmbo.ascent", "ensmbo.combine", "ensmbo.nn", "argparse", "subprocess"]),
    ("from ensmbo.nn import _fold_worker",  # each training worker
     ["ensmbo.harness", "ensmbo.ascent", "ensmbo.combine", "ensmbo.tasks"]),
])
def test_entry_points_import_only_what_they_use(code, absent):
    src = str(Path(ensmbo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", f"{code}; import sys; print(' '.join(sys.modules))"],
                         env=env, capture_output=True, text=True, timeout=60, check=True).stdout
    assert sorted(set(absent) & set(out.split())) == []


def test_cli_tune_never_touches_oracle(tmp_path, capsys):
    code = cli_main([
        "tune", "--task", "bowl", "--seed", "1", "--m", "2", "--epochs", "2",
        "--steps", "4", "--combiner", "cagrad", "--n-trajectories", "2",
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle calls during tuning: 0" in out
    csvs = sorted(tmp_path.glob("bowl_trajectory_cagrad_seed1_*.csv"))
    assert len(csvs) == 2
    header = csvs[0].read_text().splitlines()[0]
    assert header == "step,pred_1,pred_2,d_norm"
    assert "y" not in header  # no ground-truth column anywhere in tune output


def test_cli_tune_names_outputs_by_task_and_seed(tmp_path):
    for task in ("bowl", "ridge"):
        assert cli_main([
            "tune", "--task", task, "--seed", "1", "--m", "2", "--epochs", "1",
            "--steps", "1", "--combiner", "mean", "--n-trajectories", "2", "--out", str(tmp_path),
        ]) == 0
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        f"{task}_trajectory_mean_seed1_{i}.csv" for task in ("bowl", "ridge") for i in range(2)]


def test_cli_train_prints_metrics(tmp_path, capsys):
    code = cli_main([
        "train", "--task", "bowl", "--seed", "1", "--m", "2", "--epochs", "2",
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("model ")]
    assert len(lines) == 2
    for line in lines:
        rho = float(line.split("val_spearman=")[1].split()[0])
        assert -1.0 <= rho <= 1.0
    assert list(tmp_path.glob("*_ensemble_seed1.bin"))


def test_cli_gen_task(tmp_path):
    code = cli_main(["gen-task", "--task", "bowl", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    total, meta = read_dataset_csv(tmp_path / "bowl_total.csv")
    assert len(total) == 10_000
    assert meta["kind"] == "continuous"
    mbo, _ = read_dataset_csv(tmp_path / "bowl_mbo.csv")
    assert len(mbo) == 5_000


@pytest.mark.parametrize("flag", ["--m", "--epochs"])
def test_cli_gen_task_refuses_training_flags(tmp_path, capsys, flag):
    assert cli_main(["gen-task", "--task", "bowl", flag, "3", "--out", str(tmp_path)]) == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_gen_task_from_csv_writes_under_out(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    csv_path = _csv_task(src / "data.csv", np.linspace(0.0, 1.0, 40))
    before = sorted(p.name for p in src.iterdir())
    out = tmp_path / "out"
    assert cli_main(["gen-task", "--task", str(csv_path), "--out", str(out)]) == 0
    total, _ = read_dataset_csv(out / "data_total.csv")
    mbo, _ = read_dataset_csv(out / "data_mbo.csv")
    assert (len(total), len(mbo)) == (40, 20)
    assert sorted(p.name for p in src.iterdir()) == before


def test_cli_report_rerenders(tmp_path, capsys):
    assert cli_main([
        "run", "--task", "bowl", "--seed", "3", "--m", "2", "--epochs", "2",
        "--steps", "2", "--n-candidates", "4", "--out", str(tmp_path),
    ]) == 0
    run_dir = tmp_path / "bowl-s3"
    original = (run_dir / "report.md").read_text()
    capsys.readouterr()
    assert cli_main(["report", "--run-dir", str(run_dir)]) == 0
    assert (run_dir / "report.md").read_text() == original


def test_cli_report_needs_only_results_json(tmp_path, capsys):
    assert cli_main([
        "run", "--task", "bowl", "--seed", "3", "--m", "2", "--epochs", "2", "--steps", "2",
        "--n-candidates", "4", "--run-seeds", "1,2", "--out", str(tmp_path),
    ]) == 0
    run_dir = tmp_path / "bowl-s3"
    original = (run_dir / "report.md").read_bytes()
    for path in [*run_dir.glob("designs_*"), *run_dir.glob("ensemble_*.bin"), run_dir / "report.md"]:
        path.unlink()
    assert sorted(p.name for p in run_dir.iterdir()) == ["results.json", "timings.json"]
    capsys.readouterr()
    assert cli_main(["report", "--run-dir", str(run_dir)]) == 0
    assert (run_dir / "report.md").read_bytes() == original
    assert capsys.readouterr() == (original.decode("utf-8") + "\n", "")


@pytest.mark.parametrize("key", ["summaries", "alpha"])
def test_cli_report_names_the_file_and_the_missing_key(key, tmp_path, capsys):
    run_dir = tmp_path / "run"
    persist_report(run_experiment(fast_config(algorithms=("mean",), steps=1)), run_dir)
    path = run_dir / "results.json"
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    original = (run_dir / "report.md").read_bytes()
    assert cli_main(["report", "--run-dir", str(run_dir)]) == 1
    assert capsys.readouterr() == ("", f"error: {path} has no key '{key}'\n")
    assert (run_dir / "report.md").read_bytes() == original


def test_readme_cli_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.splitlines() if line.startswith("ensmbo ")]
    assert len(lines) >= 6
    for line in lines:
        _build_parser().parse_args(shlex.split(line)[1:])  # exits 2 on a flag it does not know


def test_cli_unknown_flag_exits_2(capsys):
    assert cli_main(["run", "--nonsense"]) == 2
    assert cli_main(["frobnicate"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("seeds, piece", [("1,,2", "''"), ("1,x", "'x'")])
def test_cli_bad_run_seeds_name_the_flag_and_the_piece(seeds, piece, capsys):
    assert cli_main(["run", "--task", "bowl", "--run-seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert "--run-seeds" in err and f"{piece} in '{seeds}' is not an integer" in err


@pytest.fixture
def no_training(monkeypatch):
    """A command that trains fails: its settings must be refused first."""
    import ensmbo.harness as harness

    def train_ensemble(*args):
        raise AssertionError("trained before the settings were checked")

    monkeypatch.setattr(harness, "train_ensemble", train_ensemble)


@pytest.mark.parametrize("argv, error", [  # explicit ids: these rows keep their earlier test names
    pytest.param(["run", "--alpha", "0"], "alpha (--alpha) must be positive, got 0.0",
                 id="argv0-alpha must be positive"),
    pytest.param(["run", "--cagrad-c", "1.5"], "cagrad_c (--cagrad-c) must lie in [0, 1), got 1.5",
                 id="argv1-CAGrad c must lie in [0, 1)"),
    pytest.param(["tune", "--combiner", "cagrad", "--cagrad-c", "1.5"],
                 "cagrad_c (--cagrad-c) must lie in [0, 1), got 1.5", id="argv2-CAGrad c must lie in [0, 1)"),
    pytest.param(["tune", "--alpha", "-1"], "alpha (--alpha) must be positive, got -1.0",
                 id="argv3-alpha must be positive"),
])
def test_bad_ascent_setting_is_refused_before_training(argv, error, tmp_path, capsys, no_training):
    assert cli_main(argv + ["--task", "bowl", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, error", [
    (["--combiner", "mean,mgda,mean"], "algorithms (--combiner) repeats 'mean'; give each once"),
    (["--run-seeds", "1,2,1"], "run_seeds (--run-seeds) repeats 1; give each once"),
])
def test_repeated_algorithm_or_run_seed_is_refused_before_training(argv, error, tmp_path, capsys,
                                                                   no_training):
    assert cli_main(["run", "--task", "bowl", "--out", str(tmp_path)] + argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []


def test_config_train_seed_is_refused_before_training(tmp_path, capsys, no_training):
    # the run seeds seed the proxies; a train.seed would be recorded but unused
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"task": "bowl", "train": {"seed": 7}}))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", "error: train.seed 7 is not used: the run seeds "
                                       "(--run-seeds, default the task seed) seed the proxies\n")
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("value", ["0", "-2"])
def test_cli_bad_n_trajectories_names_the_flag(value, tmp_path, capsys, no_training):
    assert cli_main(["tune", "--task", "bowl", "--n-trajectories", value, "--out", str(tmp_path)]) == 2
    assert f"argument --n-trajectories: {value} is not a positive integer" in capsys.readouterr().err


def test_cli_error_exits_1(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    for task, error in (("nope", "unknown task 'nope' (not a registry name or CSV path)"),
                        (missing, f"task CSV '{missing}' does not exist")):
        assert cli_main(["run", "--task", task]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("sidecar, error", [
    (None, "metadata sidecar {meta} cannot be read: No such file or directory"),
    ("dir", "task CSV '{csv}' is not a file"),
    ("not json", "metadata sidecar {meta} is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1]", "metadata sidecar {meta} is not a JSON object"),
    ('{"kind": "discrete", "L": 2, "y_min_total": 0.0, "y_max_total": 1.0}', "metadata sidecar {meta} has no key 'V'"),
    ('{"kind": "discrete", "L": 2, "V": 2, "y_min_total": 1.0, "y_max_total": 1.0}',
     "metadata sidecar {meta} needs y_min_total < y_max_total, got 1.0 and 1.0"),
], ids=["missing", "csv-is-a-directory", "not-json", "list", "no-V", "constant-scores"])
def test_csv_task_sidecar_fault_names_the_sidecar(sidecar, error, tmp_path, capsys, no_training):
    csv_path, meta_path, out = tmp_path / "a.csv", tmp_path / "a.meta.json", tmp_path / "out"
    if sidecar == "dir":
        csv_path.mkdir()
    else:
        csv_path.write_text("t_0,t_1,y\n0,1,0.5\n1,0,0.25\n", encoding="utf-8")
    if sidecar not in (None, "dir"):
        meta_path.write_text(sidecar, encoding="utf-8")
    assert cli_main(["run", "--task", str(csv_path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {error.format(csv=csv_path, meta=meta_path)}\n")
    assert not out.exists()


def test_cli_config_file(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "task": "bowl", "task_seed": 4, "ensemble_size": 2, "n_candidates": 4,
        "steps": 2, "algorithms": ["mean"],
        "train": {"epochs": 2, "batch_size": 256, "learning_rate": 1e-3,
                   "weight_decay": 1e-6, "seed": 0, "patience": 10, "hidden": [64, 64]},
    }))
    code = cli_main(["run", "--task", "bowl", "--seed", "4", "--m", "2",
                     "--n-candidates", "4", "--steps", "2", "--config", str(cfg_path),
                     "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "bowl-s4" / "results.json").read_text())
    assert payload["algorithms"] == ["mean"]


SMALL_RUN_FILE = {"task": "bowl", "task_seed": 4, "k_fraction": 0.3, "ensemble_size": 2,
                  "n_candidates": 4, "steps": 2, "train": {"epochs": 1}}


def test_cli_config_file_alone_sets_every_field(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(SMALL_RUN_FILE))
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    run_dir = tmp_path / "bowl-s4"
    config = json.loads((run_dir / "results.json").read_text())["config"]
    for key in ("task", "task_seed", "k_fraction", "ensemble_size", "n_candidates", "steps"):
        assert config[key] == SMALL_RUN_FILE[key], key
    assert config["train"]["epochs"] == 1
    assert load_ensemble(run_dir / "ensemble_seed4.bin").size == 2
    csvs = sorted(run_dir.glob("designs_*.csv"))
    assert [p.name for p in csvs] == sorted(f"designs_{alg}_seed4.csv" for alg in ALGORITHMS)
    for path in csvs:
        ds, _ = read_dataset_csv(path)
        assert len(ds) == 4, path.name


def test_cli_flags_override_config_file(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(SMALL_RUN_FILE))
    assert cli_main(["run", "--config", str(cfg_path), "--seed", "0", "--n-candidates", "3",
                     "--steps", "1", "--combiner", "mean", "--out", str(tmp_path)]) == 0
    config = json.loads((tmp_path / "bowl-s0" / "results.json").read_text())["config"]
    assert (config["task_seed"], config["n_candidates"], config["steps"]) == (0, 3, 1)
    assert config["algorithms"] == ["mean"]
    # fields no flag named still come from the file
    assert (config["k_fraction"], config["ensemble_size"], config["train"]["epochs"]) == (0.3, 2, 1)


def test_experiment_config_precedence(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(dict(SMALL_RUN_FILE, task="ridge", train={"epochs": 1, "patience": 3})))

    def resolve(*argv):
        return _experiment_config(_build_parser().parse_args(list(argv)))

    assert resolve("run") == ExperimentConfig()
    for command in ("gen-task", "train", "tune"):
        assert replace(resolve(command), algorithms=ALGORITHMS) == ExperimentConfig(), command
    from_file = resolve("run", "--config", str(cfg_path))
    assert (from_file.task, from_file.task_seed, from_file.train.patience) == ("ridge", 4, 3)
    flagged = resolve("run", "--config", str(cfg_path), "--task", "bowl", "--seed", "0", "--epochs", "2")
    assert (flagged.task, flagged.task_seed) == ("bowl", 0)
    assert (flagged.train.epochs, flagged.train.patience) == (2, 3)


def test_cli_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ENSMBO_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    code = cli_main(["gen-task", "--task", "bowl", "--seed", "1"])
    assert code == 0
    assert (tmp_path / "envout" / "bowl_total.csv").exists()


def test_proxy_only_run_from_csv(tmp_path, capsys):
    # export a task, drop the oracle by ingesting, then run proxy-only
    assert cli_main(["gen-task", "--task", "bowl", "--seed", "1", "--out", str(tmp_path)]) == 0
    csv_path = tmp_path / "bowl_total.csv"
    cfg = ExperimentConfig(
        task=str(csv_path), task_seed=1, ensemble_size=2, n_candidates=4, steps=2,
        algorithms=("mean",), train=FAST_TRAIN, alpha=0.05,
    )
    report = run_experiment(cfg)
    assert report.payload["proxy_only"]
    assert report.payload["oracle_calls"]["evaluation"] == 0
    assert "UNVERIFIED" in report_markdown(report.payload)


def _strict_json(path):
    def reject(name):
        raise ValueError(f"bare {name} in {path.name}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _csv_task(path, scores, dim=4):
    rng = np.random.default_rng(0)
    scores = np.asarray(scores, dtype=np.float64)
    designs = rng.standard_normal((scores.shape[0], dim))
    ds = Dataset(space=DesignSpace.continuous(dim), designs=designs, scores=scores)
    write_dataset_csv(ds, path, float(scores.min()), float(scores.max()))
    return path


def test_cli_run_honours_epochs(tmp_path):
    assert cli_main([
        "run", "--task", "bowl", "--epochs", "1", "--m", "2", "--steps", "1",
        "--n-candidates", "4", "--out", str(tmp_path),
    ]) == 0
    payload = _strict_json(tmp_path / "bowl-s0" / "results.json")
    assert payload["config"]["train"]["epochs"] == 1


def test_constant_validation_targets_write_null_not_nan(tmp_path):
    # the bottom half of the scores is all zeros, so every validation fold is constant
    csv_path = _csv_task(tmp_path / "flat.csv", [0.0] * 1200 + [1.0] * 800)
    assert cli_main([
        "run", "--task", str(csv_path), "--epochs", "1", "--m", "2", "--steps", "1",
        "--n-candidates", "4", "--combiner", "mean", "--out", str(tmp_path),
    ]) == 0
    payload = _strict_json(tmp_path / "flat-s0" / "results.json")
    assert [rho for rho, _mse in payload["val_metrics"]["0"]] == [None, None]


def test_constant_validation_targets_save_null_in_ensemble_file(tmp_path):
    csv_path = _csv_task(tmp_path / "flat.csv", [0.0] * 1200 + [1.0] * 800)
    assert cli_main([
        "train", "--task", str(csv_path), "--epochs", "1", "--m", "2", "--out", str(tmp_path),
    ]) == 0
    path = tmp_path / "flat_ensemble_seed0.bin"
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])

    def reject(name):
        raise ValueError(f"bare {name} in {path.name}")

    header = json.loads(blob[12:12 + hlen].decode("utf-8"), parse_constant=reject)
    assert [mh["val_spearman"] for mh in header["models"]] == [None, None]
    assert all(mh["val_mse"] >= 0.0 for mh in header["models"])
    assert [m.val_spearman for m in load_ensemble(path).models] == [None, None]


def test_small_csv_names_rows_and_batch_size(tmp_path, capsys):
    csv_path = _csv_task(tmp_path / "small.csv", np.arange(600.0))
    assert cli_main([
        "run", "--task", str(csv_path), "--epochs", "1", "--steps", "1",
        "--n-candidates", "4", "--out", str(tmp_path),
    ]) == 1
    err = capsys.readouterr().err
    assert "got 250 rows" in err and "batch_size 256" in err
    assert "train.batch_size" in err and "--config" in err


@pytest.mark.parametrize("command", ["train", "tune"])
def test_train_and_tune_take_batch_size_from_config(command, tmp_path, capsys):
    # 200 rows leave 100 MBO rows: too few for the default batch_size of 256
    assert cli_main(["gen-task", "--task", "ridge", "--seed", "3", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "ridge_total.csv").read_text(encoding="utf-8").splitlines()
    csv_path = tmp_path / "head.csv"
    csv_path.write_text("\n".join(lines[:201]) + "\n", encoding="utf-8")
    (tmp_path / "head.meta.json").write_bytes((tmp_path / "ridge_total.meta.json").read_bytes())
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"train": {"batch_size": 64}}))
    argv = [command, "--task", str(csv_path), "--epochs", "1", "--out", str(tmp_path / "out")]
    if command == "tune":
        argv += ["--steps", "2"]
    assert cli_main(argv) == 1
    assert "set train.batch_size in a `--config` file" in capsys.readouterr().err
    assert cli_main(argv + ["--config", str(cfg_path)]) == 0


def _edit_csv(path, edit):
    """Apply edit(data_rows, header) to the string cells of a dataset CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    edit(rows, header)
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n", encoding="utf-8")


def _set_cell(row, column, value):
    def edit(rows, header):
        rows[row - 1][header.index(column)] = value
    return edit


def _scale_column(column, factor):
    def edit(rows, header):
        j = header.index(column)
        for r in rows:
            r[j] = repr(float(r[j]) * factor)
    return edit


@pytest.mark.parametrize("edit, fault", [
    (_set_cell(42, "y", "nan"), "row 42, column y: non-finite value nan"),
    (_set_cell(100, "x_3", "inf"), "row 100, column x_3: non-finite value inf"),
    (_scale_column("y", 1e300), "column y: values too large, their squares overflow float64"),
    (_scale_column("x_1", 1e200), "column x_1: values too large, their squares overflow float64"),
], ids=["nan-score", "inf-coordinate", "huge-scores", "huge-coordinates"])
def test_bad_csv_value_is_named_before_training(edit, fault, tmp_path, capsys, no_training):
    csv_path = _csv_task(tmp_path / "bad.csv", np.linspace(-1.0, 1.0, 2000))
    _edit_csv(csv_path, edit)
    out = tmp_path / "out"
    assert cli_main(["run", "--task", str(csv_path), "--steps", "2", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {csv_path}: {fault}\n")
    assert not out.exists()


def test_ascent_failure_names_task_and_run_seed(tmp_path, capsys, monkeypatch):
    import ensmbo.combine as combine

    monkeypatch.setattr(combine, "DUAL_TOL", -1.0)  # no MGDA solve converges
    residual = r"\(residual \d\.\d{3}e[+-]\d{2}\)"
    assert cli_main([
        "run", "--task", "bowl", "--seed", "1", "--run-seeds", "3", "--m", "2", "--epochs", "1",
        "--steps", "2", "--n-candidates", "2", "--combiner", "mgda", "--out", str(tmp_path),
    ]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: task bowl, run seed 3: trajectory 0 failed at step 0 \(mgda\): "
                        rf"MGDA dual did not converge {residual}\n", err)
    assert cli_main([
        "tune", "--task", "bowl", "--seed", "2", "--m", "2", "--epochs", "1", "--steps", "2",
        "--n-trajectories", "2", "--combiner", "mgda", "--out", str(tmp_path),
    ]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: task bowl, run seed 2: trajectory 0 failed at step 0 \(mgda\): "
                        rf"MGDA dual did not converge {residual}\n", err)


# ---------------------------------------------------------------------------
# one source per setting and per statistic
# ---------------------------------------------------------------------------

def test_every_flag_is_its_config_field():
    import argparse

    allowed = {f.name for f in fields(ExperimentConfig)} | {
        "help", "config", "epochs", "n_trajectories", "run_dir", "handler"}
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        for action in sub._actions:
            assert action.dest in allowed, (name, action.option_strings, action.dest)


TUNE_ARGV = ["tune", "--task", "bowl", "--seed", "1", "--m", "2", "--epochs", "1", "--steps", "2",
             "--n-trajectories", "2"]


def _tune_files(out):
    return sorted(p.name for p in out.glob("*.csv"))


def test_tune_takes_its_combiners_from_the_config_file(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"algorithms": ["mgda"]}))
    out = tmp_path / "out"
    assert cli_main(TUNE_ARGV + ["--config", str(cfg_path), "--out", str(out)]) == 0
    assert _tune_files(out) == [f"bowl_trajectory_mgda_seed1_{i}.csv" for i in range(2)]


def test_tune_defaults_to_mean_and_traces_every_named_combiner(tmp_path):
    assert cli_main(TUNE_ARGV + ["--out", str(tmp_path / "default")]) == 0
    assert _tune_files(tmp_path / "default") == [f"bowl_trajectory_mean_seed1_{i}.csv" for i in range(2)]
    both = tmp_path / "both"
    assert cli_main(TUNE_ARGV + ["--combiner", "mean,cagrad", "--out", str(both)]) == 0
    assert _tune_files(both) == [f"bowl_trajectory_{alg}_seed1_{i}.csv"
                                 for alg in ("cagrad", "mean") for i in range(2)]
    assert cli_main(TUNE_ARGV + ["--combiner", "cagrad", "--out", str(tmp_path / "one")]) == 0
    for single in ("default", "one"):  # one ensemble traces each combiner as a run of it alone does
        for path in (tmp_path / single).glob("*.csv"):
            assert (both / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("combiners, error", [  # explicit ids: these rows keep their earlier test names
    pytest.param("nope", f"algorithms (--combiner) has unknown algorithms ['nope']; choose from {list(ALGORITHMS)}",
                 id=f"nope-unknown algorithms ['nope']; choose from {list(ALGORITHMS)}"),
    ("mean,mean", "algorithms (--combiner) repeats 'mean'; give each once"),
    pytest.param("", "algorithms (--combiner) needs at least one algorithm, got []",
                 id="-need at least one algorithm"),
])
def test_tune_refuses_a_bad_combiner_list_before_training(combiners, error, tmp_path, capsys,
                                                          no_training):
    assert cli_main(TUNE_ARGV + ["--combiner", combiners, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["train", "tune"])
@pytest.mark.parametrize("run_seeds", [[5], [0, 1]])
def test_train_and_tune_refuse_run_seeds_before_the_task_is_built(command, run_seeds, tmp_path, capsys,
                                                                  monkeypatch, no_training):
    import ensmbo.harness as harness

    def get_task(*args):
        raise AssertionError("built the task before the settings were checked")

    monkeypatch.setattr(harness, "get_task", get_task)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"run_seeds": run_seeds}))
    out = tmp_path / "out"
    assert cli_main([command, "--task", "bowl", "--m", "2", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: run_seeds {run_seeds} is not used: train and tune seed "
                                       "the proxies with the task seed (--seed)\n")
    assert not out.exists()


@pytest.mark.parametrize("text, flags, error", [
    ("[1, 2]", [], "--config {path} is not a JSON object: [1, 2]"),
    ("not json", [], "--config {path} is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ('{"algorithms": "mgda"}', [], 'algorithms must be a JSON list, got "mgda"'),
    ('{"run_seeds": 5}', [], "run_seeds must be a JSON list, got 5"),
    ('{"train": {"hidden": 64}}', [], "train.hidden must be a JSON list, got 64"),
    ('{"train": 5}', ["--epochs", "2"], "train must be a JSON object, got 5"),
    ('{"foo": 1}', [], "--config {path} sets foo, which is not a setting"),
    ('{"train": {"sed": 3}}', ["--epochs", "2"], "--config {path} sets train.sed, which is not a setting"),
], ids=["list", "not-json", "algorithms-string", "run-seeds-int", "hidden-int", "train-int-with-epochs",
        "unknown-key", "unknown-train-key"])
def test_run_refuses_a_bad_config_file_by_name_before_the_task_is_built(text, flags, error, tmp_path,
                                                                        capsys, monkeypatch):
    import ensmbo.harness as harness

    def get_task(*args):
        raise AssertionError("built the task before the settings were checked")

    monkeypatch.setattr(harness, "get_task", get_task)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert cli_main(["run", "--task", "bowl", "--config", str(cfg_path), "--out", str(out)] + flags) == 1
    assert capsys.readouterr() == ("", f"error: {error.format(path=cfg_path)}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, error", [
    (["run", "--k", "0"], "k_fraction (--k) must be in (0, 1], got 0.0"),
    (["run", "--k", "nan"], "k_fraction (--k) must be in (0, 1], got nan"),
    (["run", "--k", "1.5"], "k_fraction (--k) must be in (0, 1], got 1.5"),
    (["gen-task", "--k", "0"], "k_fraction (--k) must be in (0, 1], got 0.0"),
    (["run", "--m", "0"], "ensemble_size (--m) must be >= 1, got 0"),
    (["tune", "--m", "0"], "ensemble_size (--m) must be >= 1, got 0"),
    (["run", "--m", "100000"], "ensemble_size (--m) 100000 exceeds the MBO dataset size 5000"),
    (["train", "--m", "100000"], "ensemble_size (--m) 100000 exceeds the MBO dataset size 5000"),
    (["tune", "--m", "100000"], "ensemble_size (--m) 100000 exceeds the MBO dataset size 5000"),
    (["train", "--k", "0.0001"], "ensemble_size (--m) 6 exceeds the MBO dataset size 1"),
    (["run", "--k", "0.0001"], "n_candidates (--n-candidates) 128 exceeds the MBO dataset size 1"),
    (["run", "--n-candidates", "6000"], "n_candidates (--n-candidates) 6000 exceeds the MBO dataset size 5000"),
    (["tune", "--n-trajectories", "999999"],
     "n_trajectories (--n-trajectories) 999999 exceeds the MBO dataset size 5000"),
    (["run", "--k", "1e-9"], "k_fraction (--k) 1e-09 selects no design of the total dataset's 10000"),
])
def test_bad_size_names_its_flag_and_value_before_training(argv, error, tmp_path, capsys, no_training):
    out = tmp_path / "out"
    assert cli_main(argv + ["--task", "bowl", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, config, error", [
    (["run"], {"steps": "5"}, 'steps must be a JSON integer, got "5"'),
    (["run"], {"train": {"epochs": "2"}}, 'train.epochs must be a JSON integer, got "2"'),
    (["run"], {"task_seed": "0"}, 'task_seed must be a JSON integer, got "0"'),
    (["run"], {"steps": 1.5}, "steps must be a JSON integer, got 1.5"),
    (["run"], {"train": {"hidden": [64, "a"]}}, 'train.hidden must be a list of JSON integers, got [64, "a"]'),
    (["run"], {"run_seeds": ["a"]}, 'run_seeds must be a list of JSON integers, got ["a"]'),
    (["run"], {"steps": True}, "steps must be a JSON integer, got true"),
    (["run"], {"k_fraction": "0.5"}, 'k_fraction must be a JSON number, got "0.5"'),
    # explicit ids: the next three rows keep their earlier test names
    pytest.param(["run", "--alpha", "nan"], None, "alpha (--alpha) must be finite, got nan",
                 id="argv8-None-alpha must be finite, got nan"),
    pytest.param(["run", "--alpha", "inf"], None, "alpha (--alpha) must be finite, got inf",
                 id="argv9-None-alpha must be finite, got inf"),
    pytest.param(["tune", "--alpha", "nan"], None, "alpha (--alpha) must be finite, got nan",
                 id="argv10-None-alpha must be finite, got nan"),
    (["run", "--run-seeds", "1,-2"], None, "run_seeds (--run-seeds) must be non-negative, got -2"),
    (["run", "--seed", "-1"], None, "task_seed (--seed) must be non-negative, got -1"),
    (["gen-task", "--seed", "-1"], None, "task_seed (--seed) must be non-negative, got -1"),
    (["train", "--seed", "-1"], None, "task_seed (--seed) must be non-negative, got -1"),
    (["tune", "--seed", "-1"], None, "task_seed (--seed) must be non-negative, got -1"),
    # explicit ids: the next four rows keep their earlier test names
    pytest.param(["run", "--combiner", "mean", "--cagrad-c", "5"], None,
                 "cagrad_c (--cagrad-c) must lie in [0, 1), got 5.0", id="argv16-None-CAGrad c must lie in [0, 1)"),
    pytest.param(["train"], {"steps": -5}, "steps (--steps) must be >= 0, got -5",
                 id="argv17-config17-steps must be >= 0"),
    pytest.param(["train"], {"alpha": -1}, "alpha (--alpha) must be positive, got -1",
                 id="argv18-config18-alpha must be positive"),
    pytest.param(["train"], {"cagrad_c": 2}, "cagrad_c (--cagrad-c) must lie in [0, 1), got 2",
                 id="argv19-config19-CAGrad c must lie in [0, 1)"),
    (["run", "--epochs", "0"], None, "train.epochs (--epochs) must be positive, got 0"),
    (["run", "--steps", "-1"], None, "steps (--steps) must be >= 0, got -1"),
    (["run", "--alpha", "-1"], None, "alpha (--alpha) must be positive, got -1.0"),
    (["run", "--cagrad-c", "2"], None, "cagrad_c (--cagrad-c) must lie in [0, 1), got 2.0"),
    (["run", "--n-candidates", "0"], None, "n_candidates (--n-candidates) must be positive, got 0"),
    (["run", "--combiner", ",,"], None, "algorithms (--combiner) needs at least one algorithm, got []"),
    (["run", "--combiner", "foo"], None,
     f"algorithms (--combiner) has unknown algorithms ['foo']; choose from {list(ALGORITHMS)}"),
    (["run"], {"train": {"learning_rate": -1}}, "train.learning_rate must be positive, got -1"),
    (["run"], {"train": {"weight_decay": -1e-3}}, "train.weight_decay must be >= 0, got -0.001"),
    (["run"], {"train": {"batch_size": 0}}, "train.batch_size must be positive, got 0"),
    (["run"], {"train": {"patience": 0}}, "train.patience must be positive, got 0"),
    (["run"], {"train": {"learning_rate": float("nan")}}, "train.learning_rate must be finite, got nan"),
    (["run"], {"train": {"learning_rate": float("inf")}}, "train.learning_rate must be finite, got inf"),
    (["run"], {"train": {"weight_decay": float("nan")}}, "train.weight_decay must be finite, got nan"),
    (["run"], {"train": {"weight_decay": float("inf")}}, "train.weight_decay must be finite, got inf"),
    (["run", "--cagrad-c", "1"], None, "cagrad_c (--cagrad-c) must lie in [0, 1), got 1.0"),
    (["run", "--cagrad-c", "-0.1"], None, "cagrad_c (--cagrad-c) must lie in [0, 1), got -0.1"),
    (["run"], {"train": {"hidden": [0]}}, "train.hidden widths must be >= 1, got [0]"),
    (["run"], {"train": {"hidden": [64, -1]}}, "train.hidden widths must be >= 1, got [64, -1]"),
])
def test_bad_setting_is_named_before_the_task_is_built(argv, config, error, tmp_path, capsys, monkeypatch,
                                                      no_training):
    import ensmbo.harness as harness

    def get_task(*args):
        raise AssertionError("built the task before the settings were checked")

    monkeypatch.setattr(harness, "get_task", get_task)
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "c.json")]
    out = tmp_path / "out"
    assert cli_main(argv + ["--task", "bowl", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


TINY_RUN = ["run", "--steps", "2", "--n-candidates", "4"]


@pytest.mark.parametrize("argv, config, error", [
    (TINY_RUN + ["--alpha=1e300"], None,
     "task bowl, run seed 0: scores must be finite for single's final designs at alpha (--alpha) 1e+300"),
    (TINY_RUN + ["--alpha=1e154", "--steps=5"], None,  # each score is finite, their mean is not
     "task bowl, run seed 0: scores must be finite for single's final designs at alpha (--alpha) 1e+154"),
    (TINY_RUN + ["--alpha=1.7e308"], None,
     "task bowl, run seed 0: trajectory 0 failed at step 0 (single): non-finite iterate at alpha (--alpha) 1.7e+308"),
    (TINY_RUN, {"train": {"learning_rate": 1e300}}, "non-finite training loss at epoch 0, batch offset 256 "
                                                   "at train.learning_rate 1e+300 and train.weight_decay 1e-06"),
    (["train"], {"train": {"learning_rate": 1e300}}, "non-finite training loss at epoch 0, batch offset 256 "
                                                    "at train.learning_rate 1e+300 and train.weight_decay 1e-06"),
], ids=["score", "score-mean", "ascent", "run-training", "train-training"])
def test_a_run_sent_beyond_float_range_names_the_setting(argv, config, error, tmp_path, capsys):
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(tmp_path / "c.json")]
    out = tmp_path / "out"
    assert cli_main(argv + ["--task", "bowl", "--m", "2", "--epochs", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_only_experiment_config_checks_a_setting_and_names_its_flag():
    from ensmbo.ascent import AscentConfig
    from ensmbo.combine import CagradConfig

    for record in (AscentConfig, TrainConfig, CagradConfig):
        assert "__post_init__" not in vars(record), record.__name__
    for path in sorted(Path(ensmbo.__file__).parent.glob("*.py")):
        assert path.name == "harness.py" or "(--" not in path.read_text(encoding="utf-8"), path.name


def test_every_setting_has_a_json_type_and_a_number_takes_an_integer():
    cfg = ExperimentConfig.from_dict({"alpha": None, "cagrad_c": None, "out_dir": None, "k_fraction": 1,
                                      "train": {"learning_rate": 1}})
    assert (cfg.alpha, cfg.cagrad_c, cfg.out_dir, cfg.k_fraction, cfg.train.learning_rate) == (None, None, None, 1, 1)


def test_persist_writes_null_for_any_nonfinite_metric(tmp_path, monkeypatch):
    from ensmbo.nn import Ensemble

    monkeypatch.setattr(Ensemble, "validation_metrics", lambda self: [(0.25, float("inf")), (float("nan"), 0.5)])
    persist_report(run_experiment(fast_config(algorithms=("mean",), steps=1)), tmp_path / "run")
    payload = _strict_json(tmp_path / "run" / "results.json")
    assert payload["val_metrics"] == {"1": [[0.25, None], [None, 0.5]]}


@pytest.mark.parametrize("source", ["ridge", "csv"])
def test_only_the_mbo_set_normalizes_a_run(source, tmp_path):
    from ensmbo.core import stats_from_designs
    from ensmbo.harness import _prepare

    if source == "ridge":
        task, space = "ridge", get_task("ridge", 0).space
    else:
        task = str(_csv_task(tmp_path / "data.csv", np.linspace(0.0, 1.0, 40)))
        space = read_dataset_csv(task)[0].space
    assert space.mean.tobytes() == np.zeros(space.dim).tobytes()
    assert space.std.tobytes() == np.ones(space.dim).tobytes()
    _, mbo = _prepare(ExperimentConfig(task=task))
    mean, std = stats_from_designs(mbo.designs)
    assert (mbo.space.mean.tobytes(), mbo.space.std.tobytes()) == (mean.tobytes(), std.tobytes())
    assert not np.array_equal(mbo.space.std, np.ones(space.dim))


# ---------------------------------------------------------------------------
# the command-line boundary, searched
# ---------------------------------------------------------------------------

HUGE = 10**12
# Each setting a fuzzed run may draw: its flag (None: only a --config file sets
# it), the type its flag parses, and the valid values a draw may take instead
# of an edge.
FUZZED = {
    "k_fraction": ("--k", float, [0.5, 1.0]),
    "ensemble_size": ("--m", int, [1, 2]),
    "train.epochs": ("--epochs", int, [1]),
    "steps": ("--steps", int, [0, 2]),
    "n_candidates": ("--n-candidates", int, [1, 4]),
    "alpha": ("--alpha", float, [0.05]),
    "cagrad_c": ("--cagrad-c", float, [0.0, 0.5]),
    "algorithms": ("--combiner", list, [["mean"], ["min", "mgda", "cagrad"]]),
    "run_seeds": ("--run-seeds", list, [[1]]),
    "train.batch_size": (None, int, [64]),
    "train.patience": (None, int, [1]),
    "train.learning_rate": (None, float, [0.01]),
    "train.weight_decay": (None, float, [0.0]),
    "train.hidden": (None, list, [[], [8]]),
}
EDGES = [0, -1, float("nan"), float("inf"), -float("inf"), 1.5, HUGE, 1e300, "empty", "repeat"]
# A huge value of these costs work before anything refuses it: it is drawn
# only beside one of REFUSED, which is refused before the task is built.
COSTLY = {"steps", "train.epochs", "train.hidden"}
REFUSED = ["--k=0", "--m=0", "--alpha=nan", "--cagrad-c=1.5", "--n-candidates=0"]


def _flag_text(kind, value):
    """The flag's text for ``value``, or None where the flag's argparse type
    refuses it (exit 2, argparse's own usage error): such a value goes to the
    config file instead."""
    if kind is list:
        ok = value and all(isinstance(v, str) or type(v) is int for v in value)
        return ",".join(map(str, value)) if ok else None
    if isinstance(value, list) or kind is int and type(value) is not int:
        return None
    return repr(value)


def _csv_task_of(draw, tmp):
    """A small CSV task: continuous or discrete, with constant, binary or spread scores."""
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    rows = draw(st.sampled_from([1, 2, 40, 600, 3000]))
    scores = {"constant": np.ones(rows), "binary": rng.integers(0, 2, rows).astype(float),
              "spread": rng.standard_normal(rows)}[draw(st.sampled_from(["constant", "binary", "spread"]))]
    if draw(st.booleans()):
        space = DesignSpace.continuous(draw(st.integers(1, 4)))
        designs = rng.standard_normal((rows, space.dim))
    else:
        space = DesignSpace.discrete(draw(st.integers(1, 3)), draw(st.integers(2, 4)))
        designs = rng.integers(0, space.vocab, (rows, space.seq_len)).astype(space.token_dtype)
    path = tmp / "task.csv"
    write_dataset_csv(Dataset(space=space, designs=designs, scores=scores), path,
                      float(scores.min()), float(scores.max()))
    return str(path)


@st.composite
def _fuzzed_run(draw, tmp):
    """argv of a tiny ``run`` with up to four settings drawn, and whether a
    huge costly value makes it one that must be refused before training."""
    task = "bowl" if draw(st.booleans()) else _csv_task_of(draw, tmp)
    argv = ["run", "--task", task, "--out", str(tmp / "out"), "--m", "2", "--epochs", "1", "--steps", "2",
            "--n-candidates", "4"]
    config: dict = {}
    costly = False
    for name in draw(st.lists(st.sampled_from(sorted(FUZZED)), unique=True, max_size=4)):
        flag, kind, valid = FUZZED[name]
        edge = draw(st.sampled_from(EDGES + ["valid"] * len(EDGES)))  # half of the draws are valid
        if kind is list:
            element = draw(st.sampled_from(valid[-1])) if name == "algorithms" else 1
            value = {"valid": draw(st.sampled_from(valid)), "empty": [], "repeat": [element, element]}.get(edge, [edge])
        else:
            value = {"valid": valid[0], "empty": [], "repeat": valid[-1]}.get(edge, edge)
        costly |= name in COSTLY and HUGE in (value if kind is list else [value])
        text = _flag_text(kind, value) if flag and draw(st.booleans()) else None
        if text is not None:  # a scalar flag repeated: the last one given counts
            argv += [f"{flag}={text}"] if edge != "repeat" or kind is list else [f"{flag}=0", f"{flag}={text}"]
        elif name.startswith("train."):
            config.setdefault("train", {})[name[len("train."):]] = value
        else:
            config[name] = value
    if config:
        (tmp / "c.json").write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(tmp / "c.json")]
    if costly:
        argv.append(draw(st.sampled_from(REFUSED)))
    return argv, costly


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_every_run_ends_in_a_report_or_in_one_named_error(data, tmp_path_factory):
    """A tiny ``run`` at any drawn settings exits 0 with strict JSON and a
    report ``ensmbo report`` renders again byte for byte, or exits 1 with one
    ``error:`` line that names a flag, a setting or a file, and writes no run
    directory."""
    import contextlib
    import io

    import ensmbo.harness as harness

    tmp = tmp_path_factory.mktemp("fuzz")
    argv, costly = data.draw(_fuzzed_run(tmp))
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        if costly:
            mp.setattr(harness, "train_ensemble", lambda *a: pytest.fail(f"{argv} trained"))
        code = cli_main(argv)
    run_dirs = sorted((tmp / "out").glob("*"))
    if code == 0:
        (run_dir,) = run_dirs
        _strict_json(run_dir / "results.json")
        report = (run_dir / "report.md").read_bytes()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["report", "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "report.md").read_bytes() == report
        return
    lines = err.getvalue().splitlines()
    assert (code, len(lines)) == (1, 1), (argv, err.getvalue())
    # a setting named bare, but for "task" and "train", which errors also use as plain words
    setting = "|".join(f.name for f in fields(ExperimentConfig) if f.name not in ("task", "train"))
    named = re.search(rf"--[a-z]|\btrain\.[a-z_]+|\b({setting})\b", lines[0]) or str(tmp) in lines[0]
    assert lines[0].startswith("error: ") and named, (argv, lines[0])
    assert run_dirs == [], argv
