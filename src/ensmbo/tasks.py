"""Synthetic benchmark tasks with exact oracles.

Three seeded task families stand in for large design benchmarks at desk
scale:

  * minibind - discrete 8x4 token sequences scored by per-position plus
    pairwise-interaction effects; the oracle is an exact lookup over the
    fully enumerated 65,536-sequence total dataset.
  * ridge    - continuous vectors where the signal lives on a narrow
    manifold: a saturating gain along one direction of the leading
    coordinates and a steep quadratic penalty on the remaining ones.
    Proxies trained near the manifold never see the penalty, which is the
    distribution-shift trap this package exists to study.
  * bowl     - a concave quadratic with a known optimum; sanity task.

An instrumented call counter on every oracle lets the harness prove that
training and tuning never touch ground truth.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Dataset,
    DesignSpace,
    check_designs,
    read_dataset_csv,
    stats_from_designs,
    write_dataset_csv,
)


@dataclass(eq=False)
class Oracle:
    """Deterministic ground-truth evaluator with an instrumented call counter."""

    fn: object  # raw design row -> float
    _calls: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def calls(self) -> int:
        return self._calls

    def reset_calls(self) -> None:
        with self._lock:
            self._calls = 0

    def score(self, design: np.ndarray) -> float:
        with self._lock:
            self._calls += 1
        return float(self.fn(design))


@dataclass(eq=False)
class TaskSpec:
    """A named task: design space, oracle, seed, and total-dataset extremes."""

    name: str
    space: DesignSpace
    oracle: Oracle | None
    seed: int
    y_min: float
    y_max: float
    params: dict = field(default_factory=dict)
    _total: Dataset | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.y_min < self.y_max):
            raise ValueError("task needs y_min < y_max")

    @property
    def total_size(self) -> int:
        return len(self.total_dataset())

    def total_dataset(self) -> Dataset:
        if self._total is None:
            raise ValueError(f"task '{self.name}' has no materialized total dataset")
        return self._total


def evaluate_oracle(task: TaskSpec, designs) -> list[float]:
    """Exact ground-truth scores of raw designs, checked by ``check_designs``."""
    if task.oracle is None:
        raise ValueError(f"task '{task.name}' has no oracle")
    return [task.oracle.score(d) for d in check_designs(designs, task.space)]


def _seeded_task(name: str, seed: int, designs, scores, score_one, params: dict,
                 space: DesignSpace | None = None) -> TaskSpec:
    """A task over its total dataset, scored by ``score_one``.

    Without ``space`` the designs are continuous and normalized with the
    total dataset's statistics.
    """
    if space is None:
        mean, std = stats_from_designs(designs)
        space = DesignSpace.continuous(designs.shape[1], mean=mean, std=std)
    return TaskSpec(name=name, space=space, oracle=Oracle(fn=score_one), seed=seed,
                    y_min=float(scores.min()), y_max=float(scores.max()), params=params,
                    _total=Dataset(space=space, designs=designs, scores=scores))


# ---------------------------------------------------------------------------
# MiniBind: discrete sequences, exhaustive lookup oracle
# ---------------------------------------------------------------------------

MINIBIND_L = 8
MINIBIND_V = 4


def _enumerate_tokens(L: int, V: int) -> np.ndarray:
    n = V**L
    idx = np.arange(n)
    tokens = np.empty((n, L), dtype=np.int64)
    for p in range(L):
        tokens[:, p] = (idx // V ** (L - 1 - p)) % V
    return tokens


def _minibind_scores(tokens: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    L = tokens.shape[1]
    y = np.zeros(tokens.shape[0])
    for p in range(L):
        y += a[p, tokens[:, p]]
    for p in range(L):
        for q in range(p + 1, L):
            y += b[p, q, tokens[:, p], tokens[:, q]]
    return y


def make_minibind(seed: int) -> TaskSpec:
    """Discrete task (L=8, V=4) with pairwise-interaction scores.

    Ground truth y(s) = sum_p A[p, s_p] + sum_{p<q} B[p, q, s_p, s_q] with
    seeded standard-normal coefficients scaled for roughly unit-variance
    scores.  The total dataset enumerates all 65,536 sequences and the
    oracle is an exact lookup on that enumeration.
    """
    L, V = MINIBIND_L, MINIBIND_V
    rng = np.random.default_rng(seed)
    scl = 1.0 / math.sqrt(L + L * (L - 1) / 2)
    a = rng.standard_normal((L, V)) * scl
    b = rng.standard_normal((L, L, V, V)) * scl
    space = DesignSpace.discrete(L, V)
    tokens = _enumerate_tokens(L, V)
    scores = _minibind_scores(tokens, a, b)
    powers = V ** np.arange(L - 1, -1, -1)

    def lookup(design: np.ndarray) -> float:
        return float(scores[int(design @ powers)])

    return _seeded_task("minibind", seed, tokens, scores, lookup, {"A": a, "B": b}, space)


# ---------------------------------------------------------------------------
# Ridge: continuous manifold task with an off-manifold penalty
# ---------------------------------------------------------------------------

RIDGE_BETA = 5.0
RIDGE_NOISE = 0.1
RIDGE_SIZE = 20_000


def _saturating_gain(t: np.ndarray) -> np.ndarray:
    return 10.0 * t / (1.0 + np.abs(t))


def make_ridge(seed: int, dim: int = 16) -> TaskSpec:
    """Continuous task whose valid designs lie on a narrow manifold.

    f(x) = s(<u, x_par>) - beta*||x_perp||^2 where x_par is the first
    ceil(dim/4) coordinates, u a seeded unit vector, beta = 5, and
    s(t) = 10*t/(1+|t|).  The 20,000-point total dataset samples
    x_perp ~ N(0, 0.1^2), so off-manifold excursions are punished by the
    oracle but invisible to proxies trained on the data.
    """
    if dim < 4:
        raise ValueError("ridge needs dim >= 4")
    k = math.ceil(dim / 4)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(k)
    u /= np.linalg.norm(u)

    def score_one(x: np.ndarray) -> float:
        t = float(u @ x[:k])
        return float(_saturating_gain(np.asarray(t)) - RIDGE_BETA * float(x[k:] @ x[k:]))

    x_par = rng.standard_normal((RIDGE_SIZE, k))
    x_perp = rng.standard_normal((RIDGE_SIZE, dim - k)) * RIDGE_NOISE
    designs = np.hstack([x_par, x_perp])
    scores = _saturating_gain(x_par @ u) - RIDGE_BETA * np.sum(x_perp**2, axis=1)
    return _seeded_task("ridge", seed, designs, scores, score_one, {"u": u, "k": k, "beta": RIDGE_BETA})


# ---------------------------------------------------------------------------
# Bowl: concave quadratic sanity task
# ---------------------------------------------------------------------------

BOWL_SIZE = 10_000


def make_bowl(seed: int, dim: int = 4) -> TaskSpec:
    """f(x) = -||x - x*||^2 with a seeded optimum; unique known maximum.

    Samples are Gaussian around the optimum so the peak region is covered
    and well-fit proxies can actually find it.
    """
    if dim < 1:
        raise ValueError("bowl needs dim >= 1")
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(dim)

    def score_one(x: np.ndarray) -> float:
        diff = x - x_star
        return -float(diff @ diff)

    designs = x_star + rng.standard_normal((BOWL_SIZE, dim))
    diffs = designs - x_star
    scores = -np.sum(diffs**2, axis=1)
    return _seeded_task("bowl", seed, designs, scores, score_one, {"x_star": x_star})


# ---------------------------------------------------------------------------
# Registry and external datasets
# ---------------------------------------------------------------------------

TASK_REGISTRY = {
    "minibind": make_minibind,
    "ridge": make_ridge,
    "bowl": make_bowl,
}


def get_task(name: str, seed: int) -> TaskSpec:
    if name not in TASK_REGISTRY:
        raise ValueError(f"unknown task '{name}'; choose from {sorted(TASK_REGISTRY)}")
    return TASK_REGISTRY[name](seed)


def export_task_csv(task: TaskSpec, csv_path) -> None:
    write_dataset_csv(task.total_dataset(), csv_path, task.y_min, task.y_max)


def ingest_csv(csv_path, meta_path=None) -> tuple[TaskSpec, Dataset]:
    """Load an external dataset; the resulting task carries no oracle.

    Oracle-requiring operations raise for such tasks; the harness falls
    back to proxy-predicted scores flagged as unverified.
    """
    ds, meta = read_dataset_csv(csv_path, meta_path)
    task = TaskSpec(
        name=f"external:{csv_path}",
        space=ds.space,
        oracle=None,
        seed=0,
        y_min=float(meta["y_min_total"]),
        y_max=float(meta["y_max_total"]),
        _total=ds,
    )
    return task, ds
