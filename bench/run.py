"""Benchmark of the ensmbo paper protocol.

One run measures one workload:

    python3 bench/run.py --workload minibind-paper --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs the program's own entry point (``ensmbo run``
through ``ensmbo.harness.cli_main``) in a child process and reports the
end-to-end metrics: set-up time, wall time, peak memory and the paper's
design-quality numbers.  With ``--trace 1`` it runs the same protocol
in-process through each layer's public functions, records spans and
reports per-layer metrics.  Every run checks the program's outputs with
the independent code in ``checks.py``.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

A run makes whole rounds; a round is the full command (or the full
traced pipeline).  Another round starts only while it is expected to end
within ``--seconds``, so a run is never shorter than one round.

    python3 bench/run.py --workload all --repeat 10 --seed 1 --trace 0

runs each workload ten times with seeds 1..10, one process per run, and
prints the median and quartiles of every metric.  ``--small`` shrinks
the protocol for the benchmark's own tests; its output is labelled
``"measurement": false`` and is not a measurement.

The workload seed is the program's run seed (ensemble initialization,
folds and batch order); the task instance is fixed at task seed 0.
"""

import os

# Pinned before numpy is imported, here and (through the environment) in
# every child: one BLAS thread per process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    # name: task.  Why each is here: see README.md.
    "minibind-paper": "minibind",
    "ridge-paper": "ridge",
}
ALGORITHMS = ("single", "mean", "min", "mgda", "cagrad")
TASK_SEED = 0
SETUP_REPEATS = 9  # set-up is timed this many times per round; the median is reported
TUNE_TRAJECTORIES = 4  # as `ensmbo tune` does by default
CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Protocol:
    starts: int
    steps: int
    epochs: int | None  # None: the program's default

    def cli_flags(self, round_dir: Path) -> list[str]:
        if self == PAPER:
            return []  # the program's defaults are the paper protocol
        # `ensmbo run` ignores --epochs (see CHANGES.md); a config file sets it.
        config = round_dir / "small-config.json"
        config.write_text(json.dumps({"train": {"epochs": self.epochs}}), encoding="utf-8")
        return ["--config", str(config), "--n-candidates", str(self.starts), "--steps", str(self.steps)]


PAPER = Protocol(starts=128, steps=200, epochs=None)
SMALL = Protocol(starts=8, steps=4, epochs=1)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
for _alg in ALGORITHMS:
    END_TO_END_UNITS[f"p50_norm.{_alg}"] = "norm"
    END_TO_END_UNITS[f"mean_norm.{_alg}"] = "norm"

PER_LAYER_UNITS = {
    "tasks.build_s": "s",
    "core.select_s": "s",
    "nn.train_s": "s",
    "nn.eval_us_per_point": "us",
    **{f"ascent.{alg}_us_per_step": "us" for alg in ALGORITHMS},
    "ascent.tune_us_per_step": "us",
    "combine.mgda_us_per_solve": "us",
    "combine.cagrad_us_per_solve": "us",
    "combine.mean_us_per_call": "us",
    "combine.replayed_solves": "count",
    "tasks.oracle_s": "s",
    "tasks.oracle_calls": "count",
    "harness.persist_s": "s",
    "harness.tune_write_s": "s",
    "trace.wall_s": "s",
    "trace.self_s": "s",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], log_path: Path) -> int:
    """Run child.py; returns its exit code, or -1 if it did not end in time."""
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            return subprocess.run([sys.executable, str(HERE / "child.py"), *args], stdout=log,
                                  stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return -1


def measure_setup(task: str) -> float:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", task, str(TASK_SEED)],
                          capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        fail(f"set-up child failed: {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Outcome:
    """Operations attempted and failed, problems found, metric samples per round."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # wrong outputs of operations that succeeded
        self.failures: list[str] = []  # operations that raised or exited non-zero
        self.samples: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def metrics(self, units: dict) -> dict:
        return {name: {"value": statistics.median(self.samples[name]), "unit": unit}
                for name, unit in units.items() if name in self.samples}


# ---------------------------------------------------------------------------
# Untraced round: the program's own entry point, in a child process
# ---------------------------------------------------------------------------

def command_argv(task: str, seed: int, proto: Protocol, round_dir: Path) -> list[str]:
    """`ensmbo run` as both rounds call it."""
    return ["run", "--task", task, "--seed", str(TASK_SEED), "--run-seeds", str(seed),
            "--out", str(round_dir), *proto.cli_flags(round_dir)]


def untraced_round(task: str, seed: int, proto: Protocol, round_dir: Path, ref, out: Outcome) -> None:
    for _ in range(SETUP_REPEATS):
        out.add("setup_s", measure_setup(task))
    argv = command_argv(task, seed, proto, round_dir)
    result_path = round_dir / "command.json"
    code = run_child(["cli", str(result_path), *argv], round_dir / "command.log")
    out.attempted += len(ALGORITHMS)
    result = json.loads(result_path.read_text(encoding="utf-8")) if result_path.is_file() else {}
    if code != 0 or result.get("exit_code") != 0:
        out.failed += len(ALGORITHMS)
        out.failures.append(f"`ensmbo {' '.join(argv)}` failed; see {round_dir / 'command.log'}")
        return
    out.add("wall_s", result["wall_s"])
    out.add("peak_rss_mb", result["peak_rss_mb"])
    problems, summaries = checks.check_run_dir(round_dir / f"{task}-s{TASK_SEED}", ref, ALGORITHMS,
                                               seed, proto.starts)
    out.problems += problems
    if not problems:
        for alg, summary in summaries.items():
            out.add(f"p50_norm.{alg}", summary["p50_norm"])
            out.add(f"mean_norm.{alg}", summary["mean_norm"])


# ---------------------------------------------------------------------------
# Traced round: the same command, with spans around the layer functions
# ---------------------------------------------------------------------------

class CountingScorer:
    """Wraps a task oracle's scoring function to count calls apart from the program."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.calls = 0

    def __call__(self, design):
        self.calls += 1
        return self.fn(design)


class LayerSpans:
    """Wraps the layer functions ``ensmbo.harness`` calls in tracer spans.

    Inside ``with LayerSpans(tr):`` every call the harness makes to one of
    these functions is recorded as a span; the oracle of every task it
    builds is counted; the trained ensemble and the MBO set the ascent
    starts from are kept for the tune and replay part.
    """

    def __init__(self, tr: Tracer) -> None:
        self.tr = tr
        self.scorers: list[CountingScorer] = []
        self.ensemble = None
        self.mbo = None  # the MBO set as the ascent sees it (run statistics for continuous tasks)
        self._stack = contextlib.ExitStack()

    def oracle_calls(self) -> int:
        return sum(s.calls for s in self.scorers)

    def _wrap(self, name, fn, keep=None):
        def wrapper(*args, **kwargs):
            with self.tr.span(name(args) if callable(name) else name):
                result = fn(*args, **kwargs)
            if keep is not None:
                keep(args, result)
            return result
        return wrapper

    def _keep_task(self, args, task) -> None:
        if task.oracle is not None:
            task.oracle.fn = CountingScorer(task.oracle.fn)
            self.scorers.append(task.oracle.fn)

    def _keep_ensemble(self, args, ens) -> None:
        self.ensemble = ens

    def _keep_mbo(self, args, starts) -> None:
        if self.mbo is None:
            self.mbo = args[0]

    def __enter__(self):
        from ensmbo import harness

        wrappers = {
            "get_task": ("tasks.build", self._keep_task),
            "select_bottom_fraction": ("core.select", None),
            "stats_from_designs": ("core.select", None),
            "select_top_n": ("core.select", self._keep_mbo),
            "train_ensemble": ("nn.train", self._keep_ensemble),
            "ascend_batch": (lambda args: f"ascent.{args[3].combiner.value}", None),
            "evaluate_oracle": ("tasks.oracle", None),
            "persist_report": ("harness.persist", None),
        }
        for attr, (name, keep) in wrappers.items():
            self._stack.enter_context(
                mock.patch.object(harness, attr, self._wrap(name, getattr(harness, attr), keep)))
        return self

    def __exit__(self, *exc) -> None:
        self._stack.close()


def traced_round(task_name: str, seed: int, proto: Protocol, round_dir: Path, ref, out: Outcome) -> None:
    from ensmbo.ascent import AscentConfig, Combiner, _ModelBank, ascend_batch, write_trajectory_csv
    from ensmbo.combine import CagradConfig, GradientSet, combine_mean, solve_cagrad_dual, solve_mgda_dual
    from ensmbo.core import select_top_n
    from ensmbo.harness import ExperimentConfig, cli_main

    tr = Tracer()
    cfg = ExperimentConfig(task=task_name)
    alpha, c = cfg.resolved_alpha(), cfg.resolved_cagrad_c()
    extra_ops = 3  # the tune ascent and the two recorded ascents below

    def ascent_config(alg: str) -> AscentConfig:
        return AscentConfig(steps=proto.steps, alpha=alpha, combiner=Combiner(alg), cagrad_c=c,
                            record_trajectory=True)

    def ascend(span: str, starts, acfg):
        try:
            with tr.span(span):
                return ascend_batch(list(starts.designs), space, ens, acfg)
        except (RuntimeError, FloatingPointError, ValueError) as exc:
            out.failed += 1
            out.failures.append(f"{span}: {exc}")
            return None

    argv = command_argv(task_name, seed, proto, round_dir)
    log_path = round_dir / "command.log"
    out.attempted += len(ALGORITHMS) + extra_ops
    with tr.span("run"):
        # `ensmbo run`, exactly as the untraced round runs it.
        with LayerSpans(tr) as layers, open(log_path, "w", encoding="utf-8") as log:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), tr.span("command"):
                code = cli_main(argv)
        if code != 0 or layers.ensemble is None or layers.mbo is None:
            out.failed += len(ALGORITHMS) + extra_ops
            out.failures.append(f"`ensmbo {' '.join(argv)}` failed; see {log_path}")
            return
        ens, mbo = layers.ensemble, layers.mbo
        space = mbo.space

        # What `ensmbo tune --combiner cagrad` does after training, on the run's ensemble.
        tune_starts = select_top_n(mbo, TUNE_TRAJECTORIES)
        before = layers.oracle_calls()
        recorded = {"cagrad": ascend("ascent.tune", tune_starts, ascent_config("cagrad"))}
        tune_dir = round_dir / "tune"
        tune_dir.mkdir()
        if recorded["cagrad"] is not None:
            with tr.span("harness.tune_write"):
                for i, traj in enumerate(recorded["cagrad"]):
                    write_trajectory_csv(traj, tune_dir / f"trajectory_cagrad_{i}.csv")
        tune_calls = layers.oracle_calls() - before

        # Replay the gradient sets met along recorded trajectories, evaluated
        # the way `ascend` evaluates them.
        for alg in ("mean", "mgda"):
            recorded[alg] = ascend(f"ascent.record.{alg}", tune_starts, ascent_config(alg))
        recorded = {alg: trajs for alg, trajs in recorded.items() if trajs is not None}
        with tr.span("nn.eval"):
            bank = _ModelBank(ens.models)
            evaluated = {alg: [[bank.value_and_grad(x) for x in traj.xs] for traj in trajs]
                         for alg, trajs in recorded.items()}
        gradient_sets = {alg: [[GradientSet(grads=grads, values=vals) for vals, grads in per_step]
                               for per_step in trajs]
                         for alg, trajs in evaluated.items()}
        solvers = {
            "mean": lambda gs, w: combine_mean(gs),
            "mgda": lambda gs, w: solve_mgda_dual(gs, w0=w),
            "cagrad": lambda gs, w: solve_cagrad_dual(gs, CagradConfig(c), w0=w),
        }
        directions = {}
        for alg, trajs in gradient_sets.items():
            directions[alg] = []
            with tr.span(f"combine.{alg}"):
                for per_step in trajs:
                    warm, ds = None, []
                    for gs in per_step:
                        result = solvers[alg](gs, warm)
                        if result.weights is not None:
                            warm = result.weights.w  # warm start, as ascend does
                        ds.append(result.d)
                    directions[alg].append(ds)

    # Checks, outside every span.
    problems = out.problems
    probs, _ = checks.check_run_dir(round_dir / f"{task_name}-s{TASK_SEED}", ref, ALGORITHMS, seed, proto.starts)
    problems += probs
    expected_calls = proto.starts * len(ALGORITHMS)
    if layers.oracle_calls() != expected_calls:
        problems.append(f"benchmark counted {layers.oracle_calls()} oracle calls, expected {expected_calls}")
    if tune_calls:
        problems.append(f"tuning made {tune_calls} oracle calls")
    if "cagrad" in recorded:
        mbo_rows, mbo_scores = ref.mbo_rows(cfg.k_fraction)
        top = np.argsort(-mbo_scores, kind="stable")[:TUNE_TRAJECTORIES]
        preds0 = []
        for i in range(TUNE_TRAJECTORIES):
            preds, bad = checks.read_trajectory_csv(tune_dir / f"trajectory_cagrad_{i}.csv", ens.size, proto.steps)
            problems += bad
            preds0.append(preds[0] if len(preds) else np.full(ens.size, np.nan))
        problems += checks.check_step0_predictions(np.array(preds0), ens.models, ref.encode(mbo_rows[top], mbo_rows))
    for alg, trajs in gradient_sets.items():
        for j, (per_step, ds, traj) in enumerate(zip(trajs, directions[alg], recorded[alg])):
            for k, (gs, d, d_norm) in enumerate(zip(per_step, ds, traj.d_norms)):
                problem = None
                if alg == "mgda":
                    problem = checks.mgda_kkt_problem(gs.grads, d)
                elif alg == "cagrad":
                    problem = checks.cagrad_ball_problem(gs.grads, d, c)
                if problem is None and not checks.close(float(np.linalg.norm(d)), float(d_norm), 1e-6):
                    problem = f"replayed ||d|| {np.linalg.norm(d)!r} != recorded {d_norm!r}"
                if problem:
                    problems.append(f"{alg} trajectory {j} step {k}: {problem}")

    points = sum(len(per_step) for trajs in gradient_sets.values() for per_step in trajs)
    solves = {alg: sum(len(per_step) for per_step in trajs) for alg, trajs in gradient_sets.items()}
    out.add("tasks.build_s", tr.median("tasks.build"))
    out.add("core.select_s", tr.total("core.select"))
    out.add("nn.train_s", tr.total("nn.train"))
    out.add("nn.eval_us_per_point", tr.total("nn.eval") / points * 1e6)
    for alg in ALGORITHMS:
        if tr.durations(f"ascent.{alg}"):
            out.add(f"ascent.{alg}_us_per_step", tr.total(f"ascent.{alg}") / (proto.starts * proto.steps) * 1e6)
    if tr.durations("ascent.tune"):
        out.add("ascent.tune_us_per_step", tr.total("ascent.tune") / (TUNE_TRAJECTORIES * proto.steps) * 1e6)
    for alg, name in (("mgda", "mgda_us_per_solve"), ("cagrad", "cagrad_us_per_solve"), ("mean", "mean_us_per_call")):
        if solves.get(alg):
            out.add(f"combine.{name}", tr.total(f"combine.{alg}") / solves[alg] * 1e6)
    out.add("combine.replayed_solves", sum(solves.values()))
    out.add("tasks.oracle_s", tr.total("tasks.oracle"))
    out.add("tasks.oracle_calls", layers.oracle_calls())
    out.add("harness.persist_s", tr.total("harness.persist"))
    if tr.durations("harness.tune_write"):
        out.add("harness.tune_write_s", tr.total("harness.tune_write"))
    out.add("trace.wall_s", tr.total("command"))
    out.add("trace.self_s", tr.self_s)
    tr.write(round_dir / "trace.json")


# ---------------------------------------------------------------------------
# One run, and the repeat mode
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool, proto: Protocol) -> dict:
    from ensmbo.tasks import get_task

    task = WORKLOADS[workload]
    run_dir = OUT / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    ref = checks.task_reference(get_task(task, TASK_SEED))
    out = Outcome()
    started = time.perf_counter()
    last = rounds = 0
    while rounds == 0 or time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        round_dir = run_dir / f"round{rounds}"
        round_dir.mkdir(parents=True)
        (traced_round if trace else untraced_round)(task, seed, proto, round_dir, ref, out)
        rounds += 1
        last = time.perf_counter() - t0
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for failure in out.failures:
        print(f"OPERATION FAILED: {failure}")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    result = {"correct": not out.problems, "attempted": out.attempted, "failed": out.failed,
              "metrics": out.metrics(units)}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing and not out.failed:
        result["correct"] = False
        print(f"CHECK FAILED: metrics not measured: {missing}")
    env = {"workload": workload, "seed": seed, "trace": int(trace), "rounds": rounds,
           "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
           "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"], "numpy": np.__version__,
           "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
           "python": sys.version.split()[0], "cpus": os.cpu_count()}
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    (run_dir / "result.json").write_text(json.dumps({**result, "environment": env}, indent=1) + "\n",
                                         encoding="utf-8")
    return result


def repeat(args) -> None:
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {}
    for workload in workloads:
        samples: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.seed, args.seed + args.repeat):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--small"] if args.small else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                fail(f"{workload} seed {seed} failed: {proc.stderr.strip()}")
            result = json.loads(lines[-1])
            if not result["correct"]:
                fail(f"{workload} seed {seed}: checks failed:\n{proc.stdout}")
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        rows = {}
        for name, values in samples.items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                          "n": len(values)}
            spread = "-" if rows[name]["spread"] is None else f"{rows[name]['spread']:.3f}"
            print(f"  {workload:15s} {name:30s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread}")
        summary[workload] = {"metrics": rows, "failed_attempted": sorted(shares)}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"repeat-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"summary written to {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run each workload this many times (seeds seed..)")
    parser.add_argument("--small", action="store_true", help="reduced protocol; not a measurement")
    args = parser.parse_args()

    if not (SRC / "ensmbo" / "__init__.py").is_file():
        fail(f"the program is missing: no {SRC / 'ensmbo'}")
    sys.path.insert(0, str(SRC))
    if args.repeat:
        repeat(args)
        return
    if args.workload == "all":
        fail("--workload all needs --repeat")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), SMALL if args.small else PAPER)
    if args.small:
        result["measurement"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
