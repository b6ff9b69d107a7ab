"""End-to-end experiment runner and command-line interface.

The pipeline mirrors the evaluation protocol: build the offline MBO
dataset as the bottom-K fraction of the task's total dataset, train an
ensemble of proxies on complementary folds, take the top-128 MBO inputs
as starting designs, run every configured algorithm's update loop, then
score the final designs, in raw task units, with the exact oracle and
report max / 50th-percentile / mean metrics (normalized against the
total dataset's extremes).

Every command takes its settings from one ``ExperimentConfig``, resolved
by ``_experiment_config``: each flag's ``dest`` is the field it sets, and
a field comes from its flag, else the ``--config`` file (every command
that trains), else the command's own default, else the dataclass
default. ``ExperimentConfig.ascent_config`` builds every ascent setting.
``_prepare`` builds the task and the MBO set for every command; the MBO
set's space is the only one that carries normalization statistics, the
run's, computed from the MBO designs alone. A ``RunReport`` carries the
configuration it ran, and ``results_payload`` its record: ``results.json``
holds it, and ``report.md`` is rendered from it and from it alone.

Hyperparameter tuning is offline by construction: the ``tune`` command
records proxy-prediction trajectories and never touches the oracle, and
an instrumented call counter proves it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .ascent import AscentConfig, Combiner, ascend_batch, write_trajectory_csv
from .core import (
    Dataset,
    DesignSpace,
    ScoreSummary,
    encode,
    normalize_score,
    select_bottom_fraction,
    select_top_n,
    stats_from_designs,
    summarize_scores,
    write_dataset_csv,
)
from .nn import Ensemble, TrainConfig, _metric, save_ensemble, train_ensemble
from .tasks import TASK_REGISTRY, evaluate_oracle, export_task_csv, get_task, ingest_csv

ALGORITHMS = tuple(c.value for c in Combiner)

DISPLAY_NAMES = {
    "single": "single model",
    "mean": "ensemble, mean",
    "min": "ensemble, min",
    "mgda": "ensemble, MGDA",
    "cagrad": "ensemble, CAGrad",
}

# Offline-tuned step sizes and CAGrad c per task (picked from tune-command
# trajectory plots, never from oracle scores).
TASK_DEFAULTS = {
    "minibind": {"alpha": 2.0, "cagrad_c": 0.5},
    "ridge": {"alpha": 0.05, "cagrad_c": 0.3},
    "bowl": {"alpha": 0.05, "cagrad_c": 0.3},
}

DEFAULT_OUT_ENV = "ENSMBO_OUT"

# Each setting's JSON type (its entries', for a list); alpha, cagrad_c and out_dir may be null.
_JSON_TYPES = {"task": "string", "task_seed": "integer", "k_fraction": "number", "ensemble_size": "integer",
               "n_candidates": "integer", "steps": "integer", "alpha": "number", "cagrad_c": "number",
               "algorithms": "string", "run_seeds": "integer", "out_dir": "string", "train.epochs": "integer",
               "train.batch_size": "integer", "train.learning_rate": "number", "train.weight_decay": "number",
               "train.seed": "integer", "train.patience": "integer", "train.hidden": "integer"}


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "bowl"
    task_seed: int = 0
    k_fraction: float = 0.5
    ensemble_size: int = 6
    n_candidates: int = 128
    steps: int = 200
    alpha: float | None = None  # None -> per-task default
    cagrad_c: float | None = None
    algorithms: tuple = ALGORITHMS
    run_seeds: tuple = ()  # empty -> (task_seed,)
    train: TrainConfig = field(default_factory=TrainConfig)
    out_dir: str | None = None

    def __post_init__(self):
        bad = [a for a in self.algorithms if a not in ALGORITHMS]
        if bad:
            raise ValueError(f"unknown algorithms {bad}; choose from {list(ALGORITHMS)}")
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be positive")
        for name, flag, values in (("algorithms", "--combiner", self.algorithms),
                                   ("run_seeds", "--run-seeds", self.run_seeds)):
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ValueError(f"{name} ({flag}) repeats {repeats[0]!r}; give each once")
        for name, flag, seeds in (("task_seed", "--seed", [self.task_seed]),
                                  ("run_seeds", "--run-seeds", self.run_seeds)):
            if any(s < 0 for s in seeds):
                raise ValueError(f"{name} ({flag}) must be non-negative, got {min(seeds)}")
        if self.train.seed != TrainConfig.seed:
            raise ValueError(f"train.seed {self.train.seed} is not used: the run seeds "
                             "(--run-seeds, default the task seed) seed the proxies")

    def resolved_seeds(self) -> tuple:
        return tuple(self.run_seeds) if self.run_seeds else (self.task_seed,)

    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        return TASK_DEFAULTS.get(self.task, {}).get("alpha", 0.05)

    def resolved_cagrad_c(self) -> float:
        if self.cagrad_c is not None:
            return self.cagrad_c
        return TASK_DEFAULTS.get(self.task, {}).get("cagrad_c", 0.5)

    def ascent_config(self, alg: str, record: bool = False) -> AscentConfig:
        return AscentConfig(steps=self.steps, alpha=self.resolved_alpha(), combiner=Combiner(alg),
                            cagrad_c=self.resolved_cagrad_c(), record_trajectory=record)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """The config of a JSON object, refusing a field of the wrong JSON type."""
        d = dict(d)
        train = dict(_json_field(d, "train", dict, {}))
        train["hidden"] = tuple(_json_field(train, "hidden", list, TrainConfig.hidden, "train."))
        d["algorithms"] = tuple(_json_field(d, "algorithms", list, ALGORITHMS))
        d["run_seeds"] = tuple(_json_field(d, "run_seeds", list, ()))
        for name, value in {**d, **{f"train.{k}": v for k, v in train.items()}}.items():
            kind = _JSON_TYPES.get(name)
            listed = name in ("algorithms", "run_seeds", "train.hidden")
            python = {"string": str, "number": (int, float), "integer": int}.get(kind, object)
            if kind and not all(v is None and name in ("alpha", "cagrad_c", "out_dir") or
                    isinstance(v, python) and not isinstance(v, bool) for v in (value if listed else [value])):
                what = f"a list of JSON {kind}s" if listed else f"a JSON {kind}"
                raise ValueError(f"{name} must be {what}, got {json.dumps(value)}")
        return ExperimentConfig(**dict(d, train=TrainConfig(**train)))


def _json_field(d: dict, name: str, kind: type, default, prefix: str = ""):
    """``d[name]``, or ``default`` if it is absent; ValueError naming the
    field and its JSON value unless it is a ``kind`` (a tuple is a list)."""
    value = d.get(name, default)
    if not isinstance(value, (list, tuple) if kind is list else kind):
        what = "a JSON list" if kind is list else "a JSON object"
        raise ValueError(f"{prefix}{name} must be {what}, got {json.dumps(value)}")
    return value


@dataclass(eq=False)
class AlgoResult:
    algorithm: str
    run_seed: int
    summary: ScoreSummary
    scores: np.ndarray
    finals_raw: np.ndarray  # raw task units (tokens or coordinates)
    wall_clock: float


@dataclass(eq=False)
class RunReport:
    config: ExperimentConfig
    task_name: str
    alpha: float  # resolved: config.alpha is None for the per-task default
    cagrad_c: float
    y_min: float
    y_max: float
    baseline_norm: float
    proxy_only: bool
    space: DesignSpace  # raw task units, as the design CSVs are written
    results: list
    val_metrics: dict
    oracle_calls: dict
    train_seconds: dict
    ensembles: dict = field(default_factory=dict, repr=False)

    def aggregate(self) -> dict:
        """Per-algorithm mean/std over run seeds for each metric."""
        return _aggregate(results_payload(self))


def results_payload(report: RunReport) -> dict:
    """The record of a run: ``results.json`` holds it, ``report.md`` renders it."""
    return {
        "config": asdict(report.config),
        "task_name": report.task_name,
        "y_min": report.y_min,
        "y_max": report.y_max,
        "baseline_norm": report.baseline_norm,
        "proxy_only": report.proxy_only,
        "algorithms": list(report.config.algorithms),
        "run_seeds": list(report.config.resolved_seeds()),
        "alpha": report.alpha,
        "cagrad_c": report.cagrad_c,
        "oracle_calls": report.oracle_calls,
        "val_metrics": {str(rs): [[_metric(v) for v in pair] for pair in pairs]
                        for rs, pairs in report.val_metrics.items()},
        "summaries": {f"{r.algorithm}/seed{r.run_seed}": asdict(r.summary) for r in report.results},
    }


def _aggregate(payload: dict) -> dict:
    """Per-algorithm mean/std over run seeds of each metric of ``payload``'s summaries."""
    out = {}
    for alg in payload["algorithms"]:
        rows = [payload["summaries"][f"{alg}/seed{rs}"] for rs in payload["run_seeds"]]
        vals = {f.name: np.array([s[f.name] for s in rows], dtype=np.float64) for f in fields(ScoreSummary)}
        out[alg] = {name: (float(v.mean()), float(v.std())) for name, v in vals.items()}
    return out


def _prepare(cfg: ExperimentConfig):
    """The task and its MBO set, whose space is the one the run works in.

    Continuous runs normalize with MBO-dataset statistics (offline data only).
    """
    if cfg.task in TASK_REGISTRY:
        task = get_task(cfg.task, cfg.task_seed)
    elif Path(cfg.task).suffix == ".csv" and Path(cfg.task).exists():
        task = ingest_csv(Path(cfg.task))
    else:
        raise ValueError(f"unknown task '{cfg.task}' (not a registry name or CSV path)")
    mbo = select_bottom_fraction(task.total_dataset(), cfg.k_fraction)
    if task.space.is_discrete:
        return task, mbo
    space_run = task.space.with_stats(*stats_from_designs(mbo.designs))
    return task, Dataset(space=space_run, designs=mbo.designs, scores=mbo.scores)


def _proxy_scores(finals, space, ens: Ensemble) -> np.ndarray:
    """Mean ensemble prediction of each raw final design."""
    X = encode(finals, space)
    return np.mean([model.forward_batch(X) for model in ens.models], axis=0)


def _ascend(starts, space: DesignSpace, ens, acfg: AscentConfig, task_name: str, run_seed: int):
    """``ascend_batch`` over the designs of ``starts``; its error also names
    the task and the run seed."""
    try:
        return ascend_batch(list(starts.designs), space, ens, acfg)
    except RuntimeError as exc:
        raise RuntimeError(f"task {task_name}, run seed {run_seed}: {exc}") from exc


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Full pipeline for one task over one or more run seeds."""
    # Built before the task, so a bad setting is refused at once.
    ascent_configs = {alg: cfg.ascent_config(alg) for alg in cfg.algorithms}
    task, mbo = _prepare(cfg)  # a fresh task: its oracle has no calls yet
    if cfg.n_candidates > len(mbo):
        raise ValueError("n_candidates exceeds the MBO dataset size")
    starts = select_top_n(mbo, cfg.n_candidates)
    baseline_norm = normalize_score(float(mbo.scores.max()), task.y_min, task.y_max)

    results: list[AlgoResult] = []
    val_metrics: dict = {}
    train_seconds: dict = {}
    ensembles: dict = {}
    for rs in cfg.resolved_seeds():
        t0 = time.perf_counter()
        ens = train_ensemble(mbo, cfg.ensemble_size, replace(cfg.train, seed=rs))
        train_seconds[rs] = time.perf_counter() - t0
        ensembles[rs] = ens
        val_metrics[rs] = ens.validation_metrics()
        for alg, acfg in ascent_configs.items():
            a0 = time.perf_counter()
            finals = np.array([t.final for t in _ascend(starts, mbo.space, ens, acfg, task.name, rs)])
            if task.oracle is not None:
                if task.oracle.calls != sum(r.scores.shape[0] for r in results):
                    raise RuntimeError("oracle was touched outside the evaluation stage")
                scores = np.asarray(evaluate_oracle(task, finals))
            else:
                scores = _proxy_scores(finals, mbo.space, ens)
            summary = summarize_scores(scores, task.y_min, task.y_max)
            results.append(AlgoResult(algorithm=alg, run_seed=rs, summary=summary, scores=scores,
                                      finals_raw=finals, wall_clock=time.perf_counter() - a0))

    eval_calls = task.oracle.calls if task.oracle is not None else 0
    expected = cfg.n_candidates * len(cfg.algorithms) * len(cfg.resolved_seeds())
    if task.oracle is not None and eval_calls != expected:
        raise RuntimeError(f"oracle accounting mismatch: {eval_calls} != {expected}")
    return RunReport(
        config=cfg,
        task_name=task.name,
        alpha=cfg.resolved_alpha(),
        cagrad_c=cfg.resolved_cagrad_c(),
        y_min=task.y_min,
        y_max=task.y_max,
        baseline_norm=baseline_norm,
        proxy_only=task.oracle is None,
        space=task.space,
        results=results,
        val_metrics=val_metrics,
        oracle_calls={"training_and_ascent": 0, "evaluation": eval_calls},
        train_seconds=train_seconds,
        ensembles=ensembles,
    )


# ---------------------------------------------------------------------------
# Markdown report
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v + 0.0:.6f}"  # +0.0 folds negative zero


def _fmt_pair(mean: float, std: float, multi: bool) -> str:
    if multi:
        return f"{_fmt(mean)} ± {_fmt(std)}"
    return _fmt(mean)


def _mark(rows: list) -> list:
    """Bold the best value, italicize the second best (ties to earlier rows)."""
    order = sorted(range(len(rows)), key=lambda i: (-rows[i][1], i))
    marked = []
    for i, (label, value, text) in enumerate(rows):
        if order and i == order[0]:
            text = f"**{text}**"
        elif len(order) > 1 and i == order[1]:
            text = f"*{text}*"
        marked.append((label, text))
    return marked


def _table(title: str, header: str, rows: list, extra_rows=()) -> list:
    lines = [f"## {title}", "", "| algorithm | " + header + " |", "| --- | --- |"]
    for label, text in extra_rows:
        lines.append(f"| {label} | {text} |")
    for label, text in _mark(rows):
        lines.append(f"| {label} | {text} |")
    lines.append("")
    return lines


def report_markdown(payload: dict) -> str:
    """The markdown report of a run's ``results_payload`` (or its ``results.json``)."""
    agg = _aggregate(payload)
    cfg = payload["config"]
    multi = len(payload["run_seeds"]) > 1
    lines = [
        f"# Offline MBO report: {payload['task_name']}",
        "",
        f"- task seed: {cfg['task_seed']}",
        f"- MBO dataset: bottom {_fmt(cfg['k_fraction'] * 100)}% of the total dataset",
        f"- ensemble size: {cfg['ensemble_size']}",
        f"- candidates per algorithm: {cfg['n_candidates']}",
        f"- update steps: {cfg['steps']}, step size: {_fmt(payload['alpha'])}, CAGrad c: {_fmt(payload['cagrad_c'])}",
        f"- run seeds: {', '.join(str(s) for s in payload['run_seeds'])}",
        f"- score normalization range: [{_fmt(payload['y_min'])}, {_fmt(payload['y_max'])}]",
        "",
    ]
    if payload["proxy_only"]:
        lines += [
            "**WARNING: no exact oracle for this task; scores below are",
            "proxy-predicted and UNVERIFIED.**",
            "",
        ]

    def rows_for(metric: str) -> list:
        out = []
        for alg in payload["algorithms"]:
            mean, std = agg[alg][metric]
            out.append((DISPLAY_NAMES[alg], mean, _fmt_pair(mean, std, multi)))
        return out

    baseline = [("dataset", _fmt(payload["baseline_norm"]))]
    lines += _table(
        f"Max (normalized) ground-truth score of the top {cfg['n_candidates']} designs",
        "max (normalized)", rows_for("max_norm"), extra_rows=baseline,
    )
    lines += _table(
        f"50th percentile (normalized) ground-truth score of the top {cfg['n_candidates']} designs",
        "p50 (normalized)", rows_for("p50_norm"),
    )
    lines += _table(
        f"Average (raw) ground-truth score of the top {cfg['n_candidates']} designs",
        "mean (raw)", rows_for("mean"),
    )
    lines += _table(
        "Average (normalized) ground-truth score (supplementary)",
        "mean (normalized)", rows_for("mean_norm"),
    )

    lines += [
        "Markers: **best**, *second best* per column; ties break toward the",
        "earlier row. The dataset row is the normalized best score in the",
        "starting offline MBO dataset.",
    ]
    if multi:
        lines.append("Values are mean ± standard deviation over run seeds.")
    return "\n".join(lines + [""])


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _out_dir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.out_dir or os.environ.get(DEFAULT_OUT_ENV, "runs"))


def run_dir_for(cfg: ExperimentConfig) -> Path:
    return _out_dir(cfg) / f"{Path(cfg.task).stem}-s{cfg.task_seed}"


def persist_report(report: RunReport, run_dir: Path) -> None:
    run_dir.mkdir(parents=True, exist_ok=True)
    for r in report.results:
        path = run_dir / f"designs_{r.algorithm}_seed{r.run_seed}.csv"
        ds = Dataset(space=report.space, designs=r.finals_raw, scores=r.scores)
        write_dataset_csv(ds, path, report.y_min, report.y_max)
    for rs, ens in report.ensembles.items():
        save_ensemble(ens, run_dir / f"ensemble_seed{rs}.bin")
    payload = results_payload(report)
    (run_dir / "results.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (run_dir / "report.md").write_text(report_markdown(payload), encoding="utf-8")
    timings = {"train_seconds": {str(k): v for k, v in report.train_seconds.items()},
               "algo_seconds": {f"{r.algorithm}/seed{r.run_seed}": r.wall_clock for r in report.results}}
    (run_dir / "timings.json").write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    d = ExperimentConfig
    p.add_argument("--task", help=f"task name (minibind|ridge|bowl) or dataset CSV path (default {d.task})")
    p.add_argument("--seed", dest="task_seed", type=int, help=f"task seed (default {d.task_seed})")
    p.add_argument("--k", dest="k_fraction", type=float,
                   help=f"bottom-K fraction for the MBO dataset (default {d.k_fraction})")
    p.add_argument("--out", dest="out_dir", help="output directory (default $ENSMBO_OUT or ./runs)")


def _add_training(p: argparse.ArgumentParser):
    p.add_argument("--m", dest="ensemble_size", type=int,
                   help=f"ensemble size (default {ExperimentConfig.ensemble_size})")
    p.add_argument("--epochs", type=int, help=f"training epochs (default {TrainConfig.epochs})")
    p.add_argument("--config", help="JSON config file mirroring ExperimentConfig; flags override it")


def _add_ascent(p: argparse.ArgumentParser, combiners: str):
    p.add_argument("--alpha", type=float, help="step size (default: per task)")
    p.add_argument("--steps", type=int, help=f"update steps (default {ExperimentConfig.steps})")
    p.add_argument("--cagrad-c", type=float, help="CAGrad c (default: per task)")
    p.add_argument("--combiner", dest="algorithms", help=f"comma-separated combiners (default: {combiners})",
                   type=lambda text: tuple(s.strip() for s in text.split(",") if s.strip()))


def _seed_list(text: str) -> tuple:
    """The ``--run-seeds`` value: comma-separated integers."""
    seeds = []
    for piece in text.split(","):
        try:
            seeds.append(int(piece))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{piece!r} in {text!r} is not an integer") from None
    return tuple(seeds)


def _positive_int(text: str) -> int:
    """A count flag's value: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensmbo", description="Ensemble-based offline model-based optimization"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-task", help="materialize task dataset CSVs")
    gen.set_defaults(handler=cmd_gen_task)
    _add_common(gen)

    tr = sub.add_parser("train", help="train and serialize a proxy ensemble")
    tr.set_defaults(handler=cmd_train)
    _add_common(tr)
    _add_training(tr)

    tune = sub.add_parser("tune", help="emit offline tuning trajectories (no oracle access)")
    tune.set_defaults(handler=cmd_tune)
    _add_common(tune)
    _add_training(tune)
    _add_ascent(tune, "mean")
    tune.add_argument("--n-trajectories", type=_positive_int, default=4, help="starts to trace (default 4)")

    run = sub.add_parser("run", help="full experiment")
    run.set_defaults(handler=cmd_run)
    _add_common(run)
    _add_training(run)
    _add_ascent(run, "all five")
    run.add_argument("--n-candidates", type=int,
                     help=f"designs per algorithm (default {ExperimentConfig.n_candidates})")
    run.add_argument("--run-seeds", type=_seed_list, help="comma-separated run seeds (default: the task seed)")

    rep = sub.add_parser("report", help="re-render a stored run report")
    rep.set_defaults(handler=cmd_report)
    rep.add_argument("--run-dir", required=True)
    return parser


def _experiment_config(args, **command_defaults) -> ExperimentConfig:
    """The settings of any command: each field from its flag (the one whose
    ``dest`` is its name), else the ``--config`` file, else
    ``command_defaults``, else the ExperimentConfig default. ``--epochs``
    sets ``train.epochs`` and keeps the rest of the file's ``train``."""
    d = dict(command_defaults)
    if getattr(args, "config", None):
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"--config {args.config} is not JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"--config {args.config} is not a JSON object: {json.dumps(loaded)}")
        d.update(loaded)
    d.update({f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
              if getattr(args, f.name, None) is not None})
    if getattr(args, "epochs", None) is not None:
        d["train"] = dict(_json_field(d, "train", dict, {}), epochs=args.epochs)
    return ExperimentConfig.from_dict(d)


def _task_seeded(cfg: ExperimentConfig) -> ExperimentConfig:
    """``cfg``, unless it names run seeds other than the task seed, which
    seeds the one ensemble of train and tune."""
    if cfg.resolved_seeds() != (cfg.task_seed,):
        raise ValueError(f"run_seeds {list(cfg.run_seeds)} is not used: train and tune seed "
                         "the proxies with the task seed (--seed)")
    return cfg


def cmd_gen_task(args) -> int:
    cfg = _experiment_config(args)
    task, mbo = _prepare(cfg)
    out = _out_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    name = Path(cfg.task).stem
    total_path = out / f"{name}_total.csv"
    export_task_csv(task, total_path)
    mbo_path = out / f"{name}_mbo.csv"
    write_dataset_csv(mbo, mbo_path, task.y_min, task.y_max)
    print(f"wrote {total_path} ({len(task.total_dataset())} rows) and {mbo_path} ({len(mbo)} rows)")
    return 0


def cmd_train(args) -> int:
    cfg = _task_seeded(_experiment_config(args))
    task, mbo = _prepare(cfg)
    ens = train_ensemble(mbo, cfg.ensemble_size, replace(cfg.train, seed=cfg.task_seed))
    out = _out_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{Path(cfg.task).stem}_ensemble_seed{cfg.task_seed}.bin"
    save_ensemble(ens, path)
    for i, (rho, mse) in enumerate(ens.validation_metrics()):
        print(f"model {i}: val_spearman={rho:.4f} val_mse={mse:.6f}")
    print(f"saved ensemble to {path}")
    return 0


def cmd_tune(args) -> int:
    cfg = _task_seeded(_experiment_config(args, algorithms=("mean",)))
    # Built before any training, so a bad setting is refused at once.
    ascent_configs = {alg: cfg.ascent_config(alg, record=True) for alg in cfg.algorithms}
    task, mbo = _prepare(cfg)
    calls_before = task.oracle.calls if task.oracle is not None else 0
    starts = select_top_n(mbo, min(args.n_trajectories, len(mbo)))
    ens = train_ensemble(mbo, cfg.ensemble_size, replace(cfg.train, seed=cfg.task_seed))
    trajs = {alg: _ascend(starts, mbo.space, ens, acfg, task.name, cfg.task_seed)
             for alg, acfg in ascent_configs.items()}
    out = _out_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    for alg, alg_trajs in trajs.items():
        for i, traj in enumerate(alg_trajs):
            path = out / f"{Path(cfg.task).stem}_trajectory_{alg}_seed{cfg.task_seed}_{i}.csv"
            write_trajectory_csv(traj, path)
            print(f"wrote {path}")
    calls_after = task.oracle.calls if task.oracle is not None else 0
    if calls_after != calls_before:
        raise RuntimeError("tuning touched the oracle; offline protocol violated")
    print("oracle calls during tuning: 0")
    return 0


def cmd_run(args) -> int:
    cfg = _experiment_config(args)
    report = run_experiment(cfg)
    run_dir = run_dir_for(cfg)
    persist_report(report, run_dir)
    print((run_dir / "report.md").read_text(encoding="utf-8"))
    print(f"artifacts in {run_dir}")
    return 0


def cmd_report(args) -> int:
    path = Path(args.run_dir) / "results.json"
    try:
        text = report_markdown(json.loads(path.read_text(encoding="utf-8")))
    except KeyError as exc:
        raise ValueError(f"{path} has no key {exc}") from None
    path.with_name("report.md").write_text(text, encoding="utf-8")
    print(text)
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
