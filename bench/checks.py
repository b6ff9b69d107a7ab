"""Correctness checks computed apart from the program.

The task formulas, score summaries, one-hot encoding, MBO selection and
MLP forward pass below are the benchmark's own code; they use nothing
from ``ensmbo`` but the task's seeded coefficients (``TaskSpec.params``)
and, for ridge, the sampled total dataset.  Every check returns a list
of problems, empty when the artifact is right.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REL_TOL = 1e-9  # scores and summaries: same formulas, summed in another order
KKT_TOL = 1e-6  # relative to the largest squared gradient norm
BALL_TOL = 1e-6  # relative slack on the CAGrad ball, as in the acceptance suite
SIGMA_FLOOR = 1e-8  # continuous normalization floor of the design space


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def strict_json_loads(text: str):
    """json.loads that rejects NaN and Infinity, as strict JSON does."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


# ---------------------------------------------------------------------------
# Task formulas
# ---------------------------------------------------------------------------

def minibind_scores(tokens: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """y(s) = sum_p A[p, s_p] + sum_{p<q} B[p, q, s_p, s_q]."""
    tokens = np.asarray(tokens, dtype=np.int64)
    positions = np.arange(a.shape[0])
    p, q = np.triu_indices(a.shape[0], k=1)
    return a[positions, tokens].sum(axis=1) + b[p, q, tokens[:, p], tokens[:, q]].sum(axis=1)


def ridge_scores(x: np.ndarray, u: np.ndarray, k: int, beta: float) -> np.ndarray:
    """y(x) = 10t/(1+|t|) - beta*||x_perp||^2 with t = <u, x[:k]>."""
    x = np.asarray(x, dtype=np.float64)
    t = x[:, :k] @ u
    return 10.0 * t / (1.0 + np.abs(t)) - beta * np.sum(x[:, k:] ** 2, axis=1)


@dataclass
class TaskReference:
    """Independent scorer and score range of one task instance."""

    name: str
    discrete: bool
    raw_dim: int
    vocab: int
    params: dict
    total_designs: np.ndarray  # raw rows of the total dataset
    total_scores: np.ndarray  # rescored by the formula above
    y_min: float
    y_max: float

    def score(self, rows: np.ndarray) -> np.ndarray:
        if self.discrete:
            return minibind_scores(rows, self.params["A"], self.params["B"])
        return ridge_scores(rows, self.params["u"], int(self.params["k"]), float(self.params["beta"]))

    def normalize(self, y: float) -> float:
        return (y - self.y_min) / (self.y_max - self.y_min)

    def mbo_rows(self, fraction: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
        """Bottom fraction of the total dataset by score, ascending, stable ties."""
        n = int(math.floor(fraction * len(self.total_scores) + 1e-9))
        order = np.argsort(self.total_scores, kind="stable")[:n]
        return self.total_designs[order], self.total_scores[order]

    def encode(self, rows: np.ndarray, mbo_rows: np.ndarray) -> np.ndarray:
        """Raw rows -> the proxies' input representation."""
        if self.discrete:
            n, length = rows.shape
            return np.eye(self.vocab)[rows.astype(np.int64)].reshape(n, length * self.vocab)
        mean, std = mbo_rows.mean(axis=0), mbo_rows.std(axis=0)
        return (rows - mean) / np.maximum(std, SIGMA_FLOOR)


def task_reference(task) -> TaskReference:
    """Build the reference from a task's coefficients; ridge also needs its sample."""
    if task.name == "minibind":
        a, b = task.params["A"], task.params["B"]
        length, vocab = a.shape
        designs = np.indices((vocab,) * length).reshape(length, -1).T
        ref_scores = minibind_scores(designs, a, b)
        discrete = True
    elif task.name == "ridge":
        designs = np.asarray(task.total_dataset().designs, dtype=np.float64)
        p = task.params
        ref_scores = ridge_scores(designs, p["u"], int(p["k"]), float(p["beta"]))
        length, vocab, discrete = designs.shape[1], 0, False
    else:
        raise ValueError(f"no reference formula for task {task.name!r}")
    return TaskReference(
        name=task.name, discrete=discrete, raw_dim=length, vocab=vocab, params=task.params,
        total_designs=designs, total_scores=ref_scores,
        y_min=float(ref_scores.min()), y_max=float(ref_scores.max()),
    )


# ---------------------------------------------------------------------------
# Persisted run artifacts (ensmbo run)
# ---------------------------------------------------------------------------

def summarize(scores: np.ndarray, ref: TaskReference) -> dict:
    """Max, nearest-rank p50 (the ceil(n/2)-th smallest) and mean, raw and normalized."""
    ordered = sorted(float(s) for s in scores)
    raw = {
        "max": ordered[-1],
        "p50": ordered[math.ceil(0.5 * len(ordered)) - 1],
        "mean": math.fsum(ordered) / len(ordered),
    }
    return {**raw, **{f"{k}_norm": ref.normalize(v) for k, v in raw.items()}}


def read_design_csv(path: Path, ref: TaskReference) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Rows and y column of a persisted design CSV, plus any format problems."""
    prefix = "t" if ref.discrete else "x"
    expected = [f"{prefix}_{i}" for i in range(ref.raw_dim)] + ["y"]
    with open(path, newline="", encoding="utf-8") as f:
        table = list(csv.reader(f))
    if not table or table[0] != expected:
        return np.empty((0, ref.raw_dim)), np.empty(0), [f"{path.name}: bad header"]
    values = np.array([[float(c) for c in row] for row in table[1:]], dtype=np.float64)
    values = values.reshape(-1, ref.raw_dim + 1)
    rows, ys = values[:, :-1], values[:, -1]
    problems = []
    if not np.all(np.isfinite(values)):
        problems.append(f"{path.name}: non-finite value")
    if ref.discrete and not (np.all(rows == np.floor(rows)) and rows.min() >= 0 and rows.max() < ref.vocab):
        problems.append(f"{path.name}: tokens are not integers in [0, {ref.vocab})")
    return rows, ys, problems


def check_run_dir(run_dir: Path, ref: TaskReference, algorithms, run_seed: int,
                  n_candidates: int) -> tuple[list[str], dict]:
    """Check results.json and the design CSVs of one ``ensmbo run``.

    Returns the problems and, per algorithm, the summary read from
    results.json (only meaningful when there are no problems).
    """
    problems: list[str] = []
    try:
        payload = strict_json_loads((run_dir / "results.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"results.json: {exc}"], {}
    expected_calls = {"evaluation": n_candidates * len(algorithms), "training_and_ascent": 0}
    if payload.get("oracle_calls") != expected_calls:
        problems.append(f"oracle calls {payload.get('oracle_calls')} != {expected_calls}")
    for key, ours in (("y_min", ref.y_min), ("y_max", ref.y_max)):
        if not close(float(payload.get(key, math.nan)), ours):
            problems.append(f"results.json {key} {payload.get(key)} != {ours}")
    summaries = {}
    for alg in algorithms:
        path = run_dir / f"designs_{alg}_seed{run_seed}.csv"
        if not path.is_file():
            problems.append(f"{path.name}: missing")
            continue
        rows, ys, bad = read_design_csv(path, ref)
        problems += bad
        if bad:
            continue
        if rows.shape[0] != n_candidates:
            problems.append(f"{path.name}: {rows.shape[0]} designs, expected {n_candidates}")
            continue
        ours = ref.score(rows)
        worst = int(np.argmax(np.abs(ours - ys)))
        if not close(float(ys[worst]), float(ours[worst])):
            problems.append(f"{path.name}: row {worst + 1} scored {ys[worst]!r}, formula gives {ours[worst]!r}")
        stored = payload.get("summaries", {}).get(f"{alg}/seed{run_seed}", {})
        for key, value in summarize(ours, ref).items():
            if type(stored.get(key)) not in (int, float) or not close(stored[key], value):
                problems.append(f"results.json {alg} {key}: {stored.get(key)!r} != {value!r}")
        summaries[alg] = stored
    return problems, summaries


# ---------------------------------------------------------------------------
# Tuning trajectories (ensmbo tune / write_trajectory_csv)
# ---------------------------------------------------------------------------

def read_trajectory_csv(path: Path, m: int, steps: int) -> tuple[np.ndarray, list[str]]:
    """Per-step predictions (steps+1, m) of a trajectory CSV, plus any problems."""
    with open(path, newline="", encoding="utf-8") as f:
        table = list(csv.reader(f))
    expected = ["step"] + [f"pred_{i + 1}" for i in range(m)] + ["d_norm"]
    if not table or table[0] != expected:
        return np.empty((0, m)), [f"{path.name}: bad header"]
    values = np.array([[float(c) for c in row] for row in table[1:]], dtype=np.float64)
    problems = []
    if values.shape != (steps + 1, m + 2):
        return np.empty((0, m)), [f"{path.name}: shape {values.shape}, expected {(steps + 1, m + 2)}"]
    if not np.array_equal(values[:, 0], np.arange(steps + 1)):
        problems.append(f"{path.name}: steps are not 0..{steps}")
    if not np.all(np.isfinite(values)) or values[:, -1].min() < 0.0:
        problems.append(f"{path.name}: non-finite value or negative d_norm")
    return values[:, 1:-1], problems


def mlp_forward(weights, biases, x: np.ndarray) -> np.ndarray:
    """ReLU hidden layers, linear scalar output, for a batch of rows."""
    a = np.asarray(x, dtype=np.float64)
    for w, b in zip(weights[:-1], biases[:-1]):
        a = np.maximum(a @ w + b, 0.0)
    return (a @ weights[-1] + biases[-1])[:, 0]


def check_step0_predictions(preds0: np.ndarray, models, x0: np.ndarray) -> list[str]:
    """Row i of ``preds0`` holds every member's prediction at start i."""
    problems = []
    for i, model in enumerate(models):
        ours = mlp_forward(model.weights, model.biases, x0)
        for j, (got, want) in enumerate(zip(preds0[:, i].tolist(), ours.tolist())):
            if not close(got, want):
                problems.append(f"trajectory {j} step 0 pred_{i + 1}: {got!r} != forward pass {want!r}")
    return problems


# ---------------------------------------------------------------------------
# Combiner properties
# ---------------------------------------------------------------------------

def mgda_kkt_problem(grads: np.ndarray, d: np.ndarray) -> str | None:
    """MGDA optimality: <g_i, d> >= ||d||^2 - tol for every member i."""
    dd = float(d @ d)
    tol = KKT_TOL * (float(np.max(np.sum(grads * grads, axis=1))) + dd)
    worst = float(np.min(grads @ d) - dd)
    if worst < -tol:
        return f"MGDA KKT violated: min_i <g_i,d> - ||d||^2 = {worst:.3e} < -{tol:.3e}"
    return None


def cagrad_ball_problem(grads: np.ndarray, d: np.ndarray, c: float) -> str | None:
    """CAGrad feasibility: ||d - g0|| <= c*||g0|| (1 + 1e-6)."""
    g0 = grads.mean(axis=0)
    dist, radius = float(np.linalg.norm(d - g0)), c * float(np.linalg.norm(g0))
    if dist > radius * (1.0 + BALL_TOL):
        return f"CAGrad step off its ball: ||d - g0|| = {dist:.6e} > c||g0|| = {radius:.6e}"
    return None
