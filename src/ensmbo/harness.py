"""End-to-end experiment runner and command-line interface.

The pipeline mirrors the evaluation protocol: build the offline MBO
dataset as the bottom-K fraction of the task's total dataset, train an
ensemble of proxies on complementary folds, take the top-128 MBO inputs
as starting designs, run every configured algorithm's update loop, then
score the final designs, in raw task units, with the exact oracle and
report max / 50th-percentile / mean metrics (normalized against the
total dataset's extremes).

Every command takes its settings from one ``ExperimentConfig``, resolved
by ``_experiment_config``: a flag the user gave, else the ``--config``
file (``run`` only), else the dataclass default.  ``_prepare`` builds the
task, the MBO set and its run statistics for every command, and a
``RunReport`` carries the configuration it ran.

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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .ascent import AscentConfig, Combiner, ascend_batch, write_trajectory_csv
from .core import (
    Dataset,
    DesignSpace,
    ScoreSummary,
    encode,
    normalize_score,
    read_dataset_csv,
    select_bottom_fraction,
    select_top_n,
    stats_from_designs,
    summarize_scores,
    write_dataset_csv,
)
from .nn import Ensemble, TrainConfig, mlp_forward, save_ensemble, stack_mlps, train_ensemble
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

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        d = dict(d)
        train = d.pop("train", {})
        if isinstance(train, dict):
            train = dict(train)
            train["hidden"] = tuple(train.get("hidden", TrainConfig().hidden))
            train = TrainConfig(**train)
        d["algorithms"] = tuple(d.get("algorithms", ALGORITHMS))
        d["run_seeds"] = tuple(d.get("run_seeds", ()))
        return ExperimentConfig(train=train, **d)


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

    @property
    def algorithms(self) -> tuple:
        return self.config.algorithms

    @property
    def run_seeds(self) -> tuple:
        return self.config.resolved_seeds()

    def aggregate(self) -> dict:
        """Per-algorithm mean/std over run seeds for each metric."""
        out = {}
        for alg in self.algorithms:
            rows = [r.summary for r in self.results if r.algorithm == alg]
            metrics = {}
            for name in ("max", "p50", "mean", "max_norm", "p50_norm", "mean_norm"):
                vals = np.array([getattr(s, name) for s in rows], dtype=np.float64)
                metrics[name] = (float(vals.mean()), float(vals.std()))
            out[alg] = metrics
        return out


def _prepare(cfg: ExperimentConfig):
    """The task, its MBO set and the design space the run works in.

    Continuous runs normalize with MBO-dataset statistics (offline data only).
    """
    if cfg.task in TASK_REGISTRY:
        task = get_task(cfg.task, cfg.task_seed)
    elif Path(cfg.task).suffix == ".csv" and Path(cfg.task).exists():
        task, _ = ingest_csv(Path(cfg.task))
    else:
        raise ValueError(f"unknown task '{cfg.task}' (not a registry name or CSV path)")
    mbo = select_bottom_fraction(task.total_dataset(), cfg.k_fraction)
    if task.space.is_discrete:
        return task, mbo, task.space
    space_run = task.space.with_stats(*stats_from_designs(mbo.designs))
    return task, Dataset(space=space_run, designs=mbo.designs, scores=mbo.scores), space_run


def _proxy_scores(finals, space, ens: Ensemble) -> np.ndarray:
    """Mean ensemble prediction of each raw final design."""
    out, _ = mlp_forward(*stack_mlps(ens.models), encode(finals, space))
    return out[:, :, 0].mean(axis=0)


def _ascend(starts, space: DesignSpace, ens, acfg: AscentConfig, task_name: str, run_seed: int):
    """``ascend_batch`` over the designs of ``starts``; its error also names
    the task and the run seed."""
    try:
        return ascend_batch(list(starts.designs), space, ens, acfg)
    except RuntimeError as exc:
        raise RuntimeError(f"task {task_name}, run seed {run_seed}: {exc}") from exc


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Full pipeline for one task over one or more run seeds."""
    task, mbo, space_run = _prepare(cfg)  # a fresh task: its oracle has no calls yet
    if cfg.n_candidates > len(mbo):
        raise ValueError("n_candidates exceeds the MBO dataset size")
    baseline_norm = normalize_score(float(mbo.scores.max()), task.y_min, task.y_max)
    alpha = cfg.resolved_alpha()
    cagrad_c = cfg.resolved_cagrad_c()

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
        starts = select_top_n(mbo, cfg.n_candidates)
        for alg in cfg.algorithms:
            a0 = time.perf_counter()
            acfg = AscentConfig(
                steps=cfg.steps, alpha=alpha, combiner=Combiner(alg), cagrad_c=cagrad_c
            )
            finals = np.array([t.final for t in _ascend(starts, space_run, ens, acfg, task.name, rs)])
            if task.oracle is not None:
                if task.oracle.calls != sum(r.scores.shape[0] for r in results):
                    raise RuntimeError("oracle was touched outside the evaluation stage")
                scores = np.asarray(evaluate_oracle(task, finals))
            else:
                scores = _proxy_scores(finals, space_run, ens)
            summary = summarize_scores(scores).with_normalized(task.y_min, task.y_max)
            results.append(
                AlgoResult(
                    algorithm=alg,
                    run_seed=rs,
                    summary=summary,
                    scores=scores,
                    finals_raw=finals,
                    wall_clock=time.perf_counter() - a0,
                )
            )

    eval_calls = task.oracle.calls if task.oracle is not None else 0
    expected = cfg.n_candidates * len(cfg.algorithms) * len(cfg.resolved_seeds())
    if task.oracle is not None and eval_calls != expected:
        raise RuntimeError(f"oracle accounting mismatch: {eval_calls} != {expected}")
    return RunReport(
        config=cfg,
        task_name=task.name,
        alpha=alpha,
        cagrad_c=cagrad_c,
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


def report_markdown(report: RunReport) -> str:
    agg = report.aggregate()
    cfg = report.config
    multi = len(report.run_seeds) > 1
    lines = [
        f"# Offline MBO report: {report.task_name}",
        "",
        f"- task seed: {cfg.task_seed}",
        f"- MBO dataset: bottom {_fmt(cfg.k_fraction * 100)}% of the total dataset",
        f"- ensemble size: {cfg.ensemble_size}",
        f"- candidates per algorithm: {cfg.n_candidates}",
        f"- update steps: {cfg.steps}, step size: {_fmt(report.alpha)}, CAGrad c: {_fmt(report.cagrad_c)}",
        f"- run seeds: {', '.join(str(s) for s in report.run_seeds)}",
        f"- score normalization range: [{_fmt(report.y_min)}, {_fmt(report.y_max)}]",
        "",
    ]
    if report.proxy_only:
        lines += [
            "**WARNING: no exact oracle for this task; scores below are",
            "proxy-predicted and UNVERIFIED.**",
            "",
        ]

    def rows_for(metric: str) -> list:
        out = []
        for alg in report.algorithms:
            mean, std = agg[alg][metric]
            out.append((DISPLAY_NAMES[alg], mean, _fmt_pair(mean, std, multi)))
        return out

    baseline = [("dataset", _fmt(report.baseline_norm))]
    lines += _table(
        f"Max (normalized) ground-truth score of the top {cfg.n_candidates} designs",
        "max (normalized)", rows_for("max_norm"), extra_rows=baseline,
    )
    lines += _table(
        f"50th percentile (normalized) ground-truth score of the top {cfg.n_candidates} designs",
        "p50 (normalized)", rows_for("p50_norm"),
    )
    lines += _table(
        f"Average (raw) ground-truth score of the top {cfg.n_candidates} designs",
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
        "",
    ]
    if multi:
        lines.insert(-2, "Values are mean ± standard deviation over run seeds.")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _out_dir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.out_dir or os.environ.get(DEFAULT_OUT_ENV, "runs"))


def run_dir_for(cfg: ExperimentConfig) -> Path:
    return _out_dir(cfg) / f"{Path(cfg.task).stem}-s{cfg.task_seed}"


def persist_report(report: RunReport, cfg: ExperimentConfig, run_dir: Path) -> None:
    if cfg != report.config:  # load_report finds the design CSVs through the stored config
        raise ValueError("persist_report needs the configuration the report ran")
    run_dir.mkdir(parents=True, exist_ok=True)
    for r in report.results:
        path = run_dir / f"designs_{r.algorithm}_seed{r.run_seed}.csv"
        ds = Dataset(space=report.space, designs=r.finals_raw, scores=r.scores)
        write_dataset_csv(ds, path, report.y_min, report.y_max)
    for rs, ens in report.ensembles.items():
        save_ensemble(ens, run_dir / f"ensemble_seed{rs}.bin")
    payload = {
        "config": cfg.to_dict(),
        "task_name": report.task_name,
        "y_min": report.y_min,
        "y_max": report.y_max,
        "baseline_norm": report.baseline_norm,
        "proxy_only": report.proxy_only,
        "algorithms": list(report.algorithms),
        "run_seeds": list(report.run_seeds),
        "alpha": report.alpha,
        "cagrad_c": report.cagrad_c,
        "oracle_calls": report.oracle_calls,
        "val_metrics": {
            # null, not a bare NaN, for a metric undefined on constant targets
            str(rs): [[None if v is None or np.isnan(v) else float(v) for v in pair] for pair in pairs]
            for rs, pairs in report.val_metrics.items()
        },
        "summaries": {
            f"{r.algorithm}/seed{r.run_seed}": {
                "max": r.summary.max,
                "p50": r.summary.p50,
                "mean": r.summary.mean,
                "max_norm": r.summary.max_norm,
                "p50_norm": r.summary.p50_norm,
                "mean_norm": r.summary.mean_norm,
            }
            for r in report.results
        },
    }
    (run_dir / "results.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (run_dir / "report.md").write_text(report_markdown(report), encoding="utf-8")
    timings = {"train_seconds": {str(k): v for k, v in report.train_seconds.items()},
               "algo_seconds": {f"{r.algorithm}/seed{r.run_seed}": r.wall_clock for r in report.results}}
    (run_dir / "timings.json").write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n",
                                          encoding="utf-8")


def load_report(run_dir) -> RunReport:
    """Rebuild a report from persisted raw per-design scores."""
    run_dir = Path(run_dir)
    payload = json.loads((run_dir / "results.json").read_text(encoding="utf-8"))
    cfg = ExperimentConfig.from_dict(payload["config"])
    results = []
    space = None
    for alg in cfg.algorithms:
        for rs in cfg.resolved_seeds():
            ds, _meta = read_dataset_csv(run_dir / f"designs_{alg}_seed{rs}.csv")
            space = ds.space
            summary = summarize_scores(ds.scores).with_normalized(payload["y_min"], payload["y_max"])
            results.append(
                AlgoResult(
                    algorithm=alg,
                    run_seed=rs,
                    summary=summary,
                    scores=ds.scores,
                    finals_raw=ds.designs,
                    wall_clock=0.0,
                )
            )
    return RunReport(
        config=cfg,
        task_name=payload["task_name"],
        alpha=payload["alpha"],
        cagrad_c=payload["cagrad_c"],
        y_min=payload["y_min"],
        y_max=payload["y_max"],
        baseline_norm=payload["baseline_norm"],
        proxy_only=payload["proxy_only"],
        space=space,
        results=results,
        val_metrics={int(k): v for k, v in payload["val_metrics"].items()},
        oracle_calls=payload["oracle_calls"],
        train_seconds={},
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    d = ExperimentConfig
    p.add_argument("--task", help=f"task name (minibind|ridge|bowl) or dataset CSV path (default {d.task})")
    p.add_argument("--seed", type=int, help=f"task seed (default {d.task_seed})")
    p.add_argument("--k", type=float, help=f"bottom-K fraction for the MBO dataset (default {d.k_fraction})")
    p.add_argument("--out", help="output directory (default $ENSMBO_OUT or ./runs)")
    p.add_argument("--m", type=int, help=f"ensemble size (default {d.ensemble_size})")
    p.add_argument("--epochs", type=int, help=f"training epochs (default {TrainConfig.epochs})")


def _add_ascent(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, help="step size (default: per task)")
    p.add_argument("--steps", type=int, help=f"update steps (default {ExperimentConfig.steps})")
    p.add_argument("--cagrad-c", type=float, help="CAGrad c (default: per task)")


def _seed_list(text: str) -> tuple:
    """The ``--run-seeds`` value: comma-separated integers."""
    seeds = []
    for piece in text.split(","):
        try:
            seeds.append(int(piece))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{piece!r} in {text!r} is not an integer") from None
    return tuple(seeds)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensmbo", description="Ensemble-based offline model-based optimization"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-task", help="materialize task dataset CSVs")
    _add_common(gen)

    tr = sub.add_parser("train", help="train and serialize a proxy ensemble")
    _add_common(tr)

    tune = sub.add_parser("tune", help="emit offline tuning trajectories (no oracle access)")
    _add_common(tune)
    _add_ascent(tune)
    tune.add_argument("--combiner", default="mean", choices=ALGORITHMS, help="combiner (default mean)")
    tune.add_argument("--n-trajectories", type=int, default=4, help="starts to trace (default 4)")

    run = sub.add_parser("run", help="full experiment")
    _add_common(run)
    _add_ascent(run)
    run.add_argument("--combiner", help="comma-separated algorithm subset (default: all five)")
    run.add_argument("--n-candidates", type=int,
                     help=f"designs per algorithm (default {ExperimentConfig.n_candidates})")
    run.add_argument("--run-seeds", type=_seed_list, help="comma-separated run seeds (default: the task seed)")
    run.add_argument("--config", help="JSON config file mirroring ExperimentConfig; flags override it")

    rep = sub.add_parser("report", help="re-render a stored run report")
    rep.add_argument("--run-dir", required=True)
    return parser


# flag -> the ExperimentConfig field it sets
_FLAG_FIELDS = {"task": "task", "seed": "task_seed", "k": "k_fraction", "m": "ensemble_size",
                "out": "out_dir", "alpha": "alpha", "steps": "steps", "cagrad_c": "cagrad_c",
                "n_candidates": "n_candidates"}


def _experiment_config(args) -> ExperimentConfig:
    """The settings of any command: each flag given, else the ``--config``
    file, else the ExperimentConfig default."""
    if getattr(args, "config", None):
        cfg = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text(encoding="utf-8")))
    else:
        cfg = ExperimentConfig()
    given = {name: getattr(args, flag) for flag, name in _FLAG_FIELDS.items()
             if getattr(args, flag, None) is not None}
    if getattr(args, "combiner", None):
        given["algorithms"] = tuple(s.strip() for s in args.combiner.split(",") if s.strip())
    if getattr(args, "run_seeds", None):
        given["run_seeds"] = args.run_seeds
    if args.epochs is not None:
        given["train"] = replace(cfg.train, epochs=args.epochs)
    return replace(cfg, **given)


def cmd_gen_task(args) -> int:
    cfg = _experiment_config(args)
    task, mbo, _space = _prepare(cfg)
    out = _out_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    name = Path(cfg.task).stem
    total_path = out / f"{name}_total.csv"
    export_task_csv(task, total_path)
    mbo_path = out / f"{name}_mbo.csv"
    write_dataset_csv(mbo, mbo_path, task.y_min, task.y_max)
    print(f"wrote {total_path} ({task.total_size} rows) and {mbo_path} ({len(mbo)} rows)")
    return 0


def cmd_train(args) -> int:
    cfg = _experiment_config(args)
    task, mbo, _space = _prepare(cfg)
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
    cfg = _experiment_config(args)
    (combiner,) = cfg.algorithms
    task, mbo, space_run = _prepare(cfg)
    calls_before = task.oracle.calls if task.oracle is not None else 0
    ens = train_ensemble(mbo, cfg.ensemble_size, replace(cfg.train, seed=cfg.task_seed))
    acfg = AscentConfig(
        steps=cfg.steps,
        alpha=cfg.resolved_alpha(),
        combiner=Combiner(combiner),
        cagrad_c=cfg.resolved_cagrad_c(),
        record_trajectory=True,
    )
    starts = select_top_n(mbo, min(args.n_trajectories, len(mbo)))
    trajs = _ascend(starts, space_run, ens, acfg, task.name, cfg.task_seed)
    out = _out_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    for i, traj in enumerate(trajs):
        path = out / f"trajectory_{combiner}_{i}.csv"
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
    persist_report(report, cfg, run_dir)
    print(report_markdown(report))
    print(f"artifacts in {run_dir}")
    return 0


def cmd_report(args) -> int:
    report = load_report(args.run_dir)
    text = report_markdown(report)
    (Path(args.run_dir) / "report.md").write_text(text, encoding="utf-8")
    print(text)
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code) if exc.code else 0
    handlers = {
        "gen-task": cmd_gen_task,
        "train": cmd_train,
        "tune": cmd_tune,
        "run": cmd_run,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
