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
default. ``ExperimentConfig`` alone checks the settings and names their
flags, before any task is built; the records it builds check nothing.
``_prepare`` builds the task and the MBO set for every command, and
refuses a size setting larger than that set; the MBO set's space is the
only one that carries normalization statistics, the run's, computed from
the MBO designs alone. A ``RunReport`` carries the run's record, its
``payload``: ``results.json`` holds it, and ``report.md`` is rendered
from it and from it alone.

Hyperparameter tuning is offline by construction: the ``tune`` command
records proxy-prediction trajectories and never touches the oracle, and
an instrumented call counter proves it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import typing
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

# The JSON kind of a setting's annotated type, and the Python values it takes.
_JSON_KINDS = {str: ("string", str), int: ("integer", int), float: ("number", (int, float))}


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
    algorithms: tuple[str, ...] = ALGORITHMS
    run_seeds: tuple[int, ...] = ()  # empty -> (task_seed,)
    train: TrainConfig = field(default_factory=TrainConfig)
    out_dir: str | None = None

    def __post_init__(self):
        """Refuses the first setting out of range, naming it, its flag where it has one, and
        its value. Each range test fails NaN, or leaves it to the finite test after it."""
        t, alpha, c = self.train, self.resolved_alpha(), self.resolved_cagrad_c()
        unknown = [a for a in self.algorithms if a not in ALGORITHMS]
        repeat_alg, repeat_seed = (next((v for i, v in enumerate(vs) if v in vs[:i]), None)
                                   for vs in (self.algorithms, self.run_seeds))
        low_seed = min(self.run_seeds, default=0)
        for ok, error in (
            (t.epochs > 0, f"train.epochs (--epochs) must be positive, got {t.epochs}"),
            (t.batch_size > 0, f"train.batch_size must be positive, got {t.batch_size}"),
            (t.patience > 0, f"train.patience must be positive, got {t.patience}"),
            (not t.learning_rate <= 0, f"train.learning_rate must be positive, got {t.learning_rate}"),
            (math.isfinite(t.learning_rate), f"train.learning_rate must be finite, got {t.learning_rate}"),
            (not t.weight_decay < 0, f"train.weight_decay must be >= 0, got {t.weight_decay}"),
            (math.isfinite(t.weight_decay), f"train.weight_decay must be finite, got {t.weight_decay}"),
            (all(w >= 1 for w in t.hidden), f"train.hidden widths must be >= 1, got {list(t.hidden)}"),
            (not unknown, f"algorithms (--combiner) has unknown algorithms {unknown}; choose from {list(ALGORITHMS)}"),
            (len(self.algorithms) > 0, "algorithms (--combiner) needs at least one algorithm, got []"),
            (self.n_candidates >= 1, f"n_candidates (--n-candidates) must be positive, got {self.n_candidates}"),
            (0.0 < self.k_fraction <= 1.0, f"k_fraction (--k) must be in (0, 1], got {self.k_fraction}"),
            (self.ensemble_size >= 1, f"ensemble_size (--m) must be >= 1, got {self.ensemble_size}"),
            (repeat_alg is None, f"algorithms (--combiner) repeats {repeat_alg!r}; give each once"),
            (repeat_seed is None, f"run_seeds (--run-seeds) repeats {repeat_seed!r}; give each once"),
            (self.task_seed >= 0, f"task_seed (--seed) must be non-negative, got {self.task_seed}"),
            (low_seed >= 0, f"run_seeds (--run-seeds) must be non-negative, got {low_seed}"),
            (t.seed == TrainConfig.seed, f"train.seed {t.seed} is not used: the run seeds "
                                         "(--run-seeds, default the task seed) seed the proxies"),
            (self.steps >= 0, f"steps (--steps) must be >= 0, got {self.steps}"),
            (not alpha <= 0, f"alpha (--alpha) must be positive, got {alpha}"),
            (math.isfinite(alpha), f"alpha (--alpha) must be finite, got {alpha}"),
            (0.0 <= c < 1.0, f"cagrad_c (--cagrad-c) must lie in [0, 1), got {c}"),  # every report prints c
        ):
            if not ok:
                raise ValueError(error)

    def resolved_seeds(self) -> tuple:
        return tuple(self.run_seeds) if self.run_seeds else (self.task_seed,)

    def resolved_alpha(self) -> float:
        return self.alpha if self.alpha is not None else TASK_DEFAULTS.get(self.task, {}).get("alpha", 0.05)

    def resolved_cagrad_c(self) -> float:
        return self.cagrad_c if self.cagrad_c is not None else TASK_DEFAULTS.get(self.task, {}).get("cagrad_c", 0.5)

    def ascent_config(self, alg: str, record: bool = False) -> AscentConfig:
        return AscentConfig(steps=self.steps, alpha=self.resolved_alpha(), combiner=Combiner(alg),
                            cagrad_c=self.resolved_cagrad_c(), record_trajectory=record)

    @staticmethod
    def from_dict(d: dict, source: str = "the config") -> "ExperimentConfig":
        """The config of a JSON object, refusing a key that names no setting
        (the error names ``source``) and a setting whose JSON type is not its
        annotation's (a ``tuple[X, ...]`` takes a list, an ``X | None`` null)."""
        d = dict(d)
        train = dict(_json_field(d, "train", dict, {}))
        for prefix, cls, given in (("", ExperimentConfig, d), ("train.", TrainConfig, train)):
            unknown = [key for key in given if key not in {f.name for f in fields(cls)}]
            if unknown:
                raise ValueError(f"{source} sets {prefix}{unknown[0]}, which is not a setting")
            for name, hint in typing.get_type_hints(cls).items():
                base, *rest = typing.get_args(hint) or (hint,)
                if name not in given or base not in _JSON_KINDS:
                    continue
                listed = typing.get_origin(hint) is tuple
                if listed:
                    given[name] = tuple(_json_field(given, name, list, (), prefix))
                value, (kind, python) = given[name], _JSON_KINDS[base]
                if not all(v is None and type(None) in rest or isinstance(v, python) and not isinstance(v, bool)
                           for v in (value if listed else [value])):
                    what = f"a list of JSON {kind}s" if listed else f"a JSON {kind}"
                    raise ValueError(f"{prefix}{name} must be {what}, got {json.dumps(value)}")
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
    scores: np.ndarray
    finals_raw: np.ndarray  # raw task units (tokens or coordinates)


@dataclass(eq=False)
class RunReport:
    """A run: its record ``payload`` (``results.json`` holds it, ``report.md``
    renders it) and what is written beside it."""

    payload: dict
    space: DesignSpace  # raw task units, as the design CSVs are written
    results: list
    timings: dict
    ensembles: dict = field(default_factory=dict, repr=False)


def _aggregate(payload: dict) -> dict:
    """Per-algorithm mean/std over run seeds of each metric of ``payload``'s summaries."""
    out = {}
    for alg in payload["algorithms"]:
        rows = [payload["summaries"][f"{alg}/seed{rs}"] for rs in payload["run_seeds"]]
        vals = {f.name: np.array([s[f.name] for s in rows], dtype=np.float64) for f in fields(ScoreSummary)}
        out[alg] = {name: (float(v.mean()), float(v.std())) for name, v in vals.items()}
    return out


def _prepare(cfg: ExperimentConfig, *sizes):
    """The task and its MBO set, whose space is the one the run works in.

    Each of ``sizes`` is a (field, flag, value) setting that counts designs
    drawn from the MBO set, or members that each validate on a fold of it;
    one larger than the set is refused. Continuous runs normalize with
    MBO-dataset statistics (offline data only).
    """
    path = Path(cfg.task)
    if cfg.task in TASK_REGISTRY:
        task = get_task(cfg.task, cfg.task_seed)
    elif path.suffix != ".csv":
        raise ValueError(f"unknown task '{cfg.task}' (not a registry name or CSV path)")
    elif path.is_file():
        task = ingest_csv(path)
    else:
        raise ValueError(f"task CSV '{cfg.task}' {'is not a file' if path.exists() else 'does not exist'}")
    total = task.total_dataset()
    try:
        mbo = select_bottom_fraction(total, cfg.k_fraction)
    except ValueError:  # k_fraction lies in (0, 1], so the selection is empty
        raise ValueError(f"k_fraction (--k) {cfg.k_fraction} selects no design of the total dataset's "
                         f"{len(total)}") from None
    del total  # nothing else holds the table: free it before the run's statistics are computed
    for name, flag, value in sizes:
        if value > len(mbo):
            raise ValueError(f"{name} ({flag}) {value} exceeds the MBO dataset size {len(mbo)}")
    if task.space.is_discrete:
        return task, mbo
    space_run = task.space.with_stats(*stats_from_designs(mbo.designs))
    return task, Dataset(space=space_run, designs=mbo.designs, scores=mbo.scores)


def _train(mbo: Dataset, cfg: ExperimentConfig, seed: int) -> Ensemble:
    """``cfg``'s ensemble on ``mbo`` seeded by ``seed``; a training blow-up names the optimizer settings."""
    try:
        return train_ensemble(mbo, cfg.ensemble_size, replace(cfg.train, seed=seed))
    except FloatingPointError as exc:
        raise FloatingPointError(f"{exc} at train.learning_rate {cfg.train.learning_rate} and "
                                 f"train.weight_decay {cfg.train.weight_decay}") from exc


def _ascend(starts, space: DesignSpace, ens, acfg: AscentConfig, task_name: str, run_seed: int):
    """``ascend_batch`` over the designs of ``starts``; its error also names
    the task and the run seed, and a non-finite value the step size."""
    try:
        return ascend_batch(list(starts.designs), space, ens, acfg)
    except RuntimeError as exc:
        at = f" at alpha (--alpha) {acfg.alpha}" if isinstance(exc.__cause__, FloatingPointError) else ""
        raise RuntimeError(f"task {task_name}, run seed {run_seed}: {exc}{at}") from exc


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Full pipeline for one task over one or more run seeds."""
    task, mbo = _prepare(cfg, ("n_candidates", "--n-candidates", cfg.n_candidates),
                         ("ensemble_size", "--m", cfg.ensemble_size))  # a fresh task: no oracle calls yet
    starts = select_top_n(mbo, cfg.n_candidates)
    payload = {
        "config": asdict(cfg),
        "task_name": task.name,
        "y_min": task.y_min,
        "y_max": task.y_max,
        "baseline_norm": normalize_score(float(mbo.scores.max()), task.y_min, task.y_max),
        "proxy_only": task.oracle is None,
        "algorithms": list(cfg.algorithms),
        "run_seeds": list(cfg.resolved_seeds()),
        "alpha": cfg.resolved_alpha(),  # config.alpha is None for the per-task default
        "cagrad_c": cfg.resolved_cagrad_c(),
        "val_metrics": {},
        "summaries": {},
    }
    results: list[AlgoResult] = []
    timings: dict = {"train_seconds": {}, "algo_seconds": {}}
    ensembles: dict = {}
    for rs in cfg.resolved_seeds():
        t0 = time.perf_counter()
        ens = _train(mbo, cfg, rs)
        timings["train_seconds"][str(rs)] = time.perf_counter() - t0
        ensembles[rs] = ens
        payload["val_metrics"][str(rs)] = [[_metric(v) for v in pair] for pair in ens.validation_metrics()]
        for alg in cfg.algorithms:
            a0 = time.perf_counter()
            trajs = _ascend(starts, mbo.space, ens, cfg.ascent_config(alg), task.name, rs)
            finals = np.array([t.final for t in trajs])
            if task.oracle is not None and task.oracle.calls != sum(r.scores.shape[0] for r in results):
                raise RuntimeError("oracle was touched outside the evaluation stage")
            key = f"{alg}/seed{rs}"
            try:  # a design stepped far out may score beyond float range: the error names the step size
                with np.errstate(over="ignore", invalid="ignore"):
                    if task.oracle is not None:
                        scores = np.asarray(evaluate_oracle(task, finals))
                    else:  # the members' mean prediction
                        X = encode(finals, mbo.space)
                        scores = np.mean([model.forward_batch(X) for model in ens.models], axis=0)
                    payload["summaries"][key] = asdict(summarize_scores(scores, task.y_min, task.y_max))
            except ValueError as exc:
                raise ValueError(f"task {task.name}, run seed {rs}: {exc} for {alg}'s final designs "
                                 f"at alpha (--alpha) {cfg.resolved_alpha()}") from exc
            results.append(AlgoResult(algorithm=alg, run_seed=rs, scores=scores, finals_raw=finals))
            timings["algo_seconds"][key] = time.perf_counter() - a0

    eval_calls = task.oracle.calls if task.oracle is not None else 0
    expected = cfg.n_candidates * len(cfg.algorithms) * len(cfg.resolved_seeds())
    if task.oracle is not None and eval_calls != expected:
        raise RuntimeError(f"oracle accounting mismatch: {eval_calls} != {expected}")
    payload["oracle_calls"] = {"training_and_ascent": 0, "evaluation": eval_calls}
    return RunReport(payload=payload, space=task.space, results=results, timings=timings, ensembles=ensembles)


# ---------------------------------------------------------------------------
# Markdown report
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v + 0.0:.6f}"  # +0.0 folds negative zero


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
    """The markdown report of a run's ``RunReport.payload`` (or its ``results.json``)."""
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
            out.append((DISPLAY_NAMES[alg], mean, f"{_fmt(mean)} ± {_fmt(std)}" if multi else _fmt(mean)))
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
    payload = report.payload
    for r in report.results:
        path = run_dir / f"designs_{r.algorithm}_seed{r.run_seed}.csv"
        ds = Dataset(space=report.space, designs=r.finals_raw, scores=r.scores)
        write_dataset_csv(ds, path, payload["y_min"], payload["y_max"])
    for rs, ens in report.ensembles.items():
        save_ensemble(ens, run_dir / f"ensemble_seed{rs}.bin")
    for name, record in (("results.json", payload), ("timings.json", report.timings)):
        (run_dir / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    (run_dir / "report.md").write_text(report_markdown(payload), encoding="utf-8")


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
    d, path = dict(command_defaults), getattr(args, "config", None)
    if path:
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"--config {path} is not JSON: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"--config {path} is not a JSON object: {json.dumps(loaded)}")
        d.update(loaded)
    d.update({f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
              if getattr(args, f.name, None) is not None})
    if getattr(args, "epochs", None) is not None:
        d["train"] = dict(_json_field(d, "train", dict, {}), epochs=args.epochs)
    return ExperimentConfig.from_dict(d, f"--config {path}")


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
    total = export_task_csv(task, total_path)
    mbo_path = out / f"{name}_mbo.csv"
    write_dataset_csv(mbo, mbo_path, task.y_min, task.y_max)
    print(f"wrote {total_path} ({len(total)} rows) and {mbo_path} ({len(mbo)} rows)")
    return 0


def cmd_train(args) -> int:
    cfg = _task_seeded(_experiment_config(args))
    task, mbo = _prepare(cfg, ("ensemble_size", "--m", cfg.ensemble_size))
    ens = _train(mbo, cfg, cfg.task_seed)
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
    task, mbo = _prepare(cfg, ("n_trajectories", "--n-trajectories", args.n_trajectories),
                         ("ensemble_size", "--m", cfg.ensemble_size))
    starts = select_top_n(mbo, args.n_trajectories)
    ens = _train(mbo, cfg, cfg.task_seed)
    trajs = {alg: _ascend(starts, mbo.space, ens, cfg.ascent_config(alg, record=True), task.name, cfg.task_seed)
             for alg in cfg.algorithms}
    out = _out_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    for alg, alg_trajs in trajs.items():
        for i, traj in enumerate(alg_trajs):
            path = out / f"{Path(cfg.task).stem}_trajectory_{alg}_seed{cfg.task_seed}_{i}.csv"
            write_trajectory_csv(traj, path)
            print(f"wrote {path}")
    if task.oracle is not None and task.oracle.calls:  # a fresh task's oracle starts at 0
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
