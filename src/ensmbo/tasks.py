"""Synthetic benchmark tasks with exact oracles.

Three seeded task families stand in for large design benchmarks at desk
scale:

  * minibind - discrete 8x4 token sequences scored by per-position plus
    pairwise-interaction effects; the oracle is an exact lookup over the
    fully enumerated 65,536-sequence total dataset, whose scores are
    summed table by table on the (4,) * 8 grid of all sequences.
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
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Dataset,
    DesignSpace,
    check_designs,
    read_dataset_csv,
    write_dataset_csv,
)


@dataclass(eq=False)
class Oracle:
    """Deterministic ground-truth evaluator with an instrumented call counter."""

    fn: object  # raw design row -> float
    _calls: int = 0

    @property
    def calls(self) -> int:
        return self._calls

    def score(self, design: np.ndarray) -> float:
        self._calls += 1
        return float(self.fn(design))


@dataclass(eq=False)
class TaskSpec:
    """A named task: design space, oracle, total dataset and its extremes.

    ``total_dataset()`` hands the table the task was built with to its first
    caller and keeps no reference to it; later calls build it again, bit for bit."""

    name: str
    space: DesignSpace
    oracle: Oracle | None
    y_min: float
    y_max: float
    _build: Callable[[], Dataset] = field(repr=False)
    params: dict = field(default_factory=dict)
    _total: Dataset | None = field(default=None, repr=False)

    def __post_init__(self):
        if not (self.y_min < self.y_max):
            raise ValueError("task needs y_min < y_max")

    def total_dataset(self) -> Dataset:
        total, self._total = self._total, None
        return self._build() if total is None else total


def evaluate_oracle(task: TaskSpec, designs) -> list[float]:
    """Exact ground-truth scores of raw designs, checked by ``check_designs``."""
    if task.oracle is None:
        raise ValueError(f"task '{task.name}' has no oracle")
    return [task.oracle.score(d) for d in check_designs(designs, task.space)]


def _seeded_task(name: str, designs, scores, score_one, params: dict, build,
                 space: DesignSpace | None = None) -> TaskSpec:
    """A task over its total dataset, scored by ``score_one`` and rebuilt by ``build``.

    Without ``space`` the designs are continuous, with the identity
    statistics: a run normalizes with its MBO set's (``harness._prepare``).
    """
    if space is None:
        space = DesignSpace.continuous(designs.shape[1])
    return TaskSpec(name=name, space=space, oracle=Oracle(fn=score_one),
                    y_min=float(scores.min()), y_max=float(scores.max()), params=params, _build=build,
                    _total=Dataset(space=space, designs=designs, scores=scores))


# ---------------------------------------------------------------------------
# MiniBind: discrete sequences, exhaustive lookup oracle
# ---------------------------------------------------------------------------

MINIBIND_L = 8
MINIBIND_V = 4


def _along(x: np.ndarray, L: int, *axes: int) -> np.ndarray:
    """``x`` as a view along ``axes`` (increasing) of an L-axis grid."""
    return np.expand_dims(x, tuple(i for i in range(L) if i not in axes))


def _enumerate_tokens(space: DesignSpace) -> np.ndarray:
    """All V**L sequences of ``space`` in lexicographic order, position 0
    most significant, in the space's token dtype."""
    L, V = space.seq_len, space.vocab
    tokens = np.empty((V**L, L), dtype=space.token_dtype)
    grid = tokens.reshape((V,) * L + (L,))  # a view: row i is grid[digits of i]
    for p in range(L):
        grid[..., p] = _along(np.arange(V, dtype=space.token_dtype), L, p)
    return tokens


def _minibind_scores(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    L, V = a.shape
    y = np.zeros((V,) * L)
    for p in range(L):
        y += _along(a[p], L, p)
    for p in range(L):
        for q in range(p + 1, L):
            y += _along(b[p, q], L, p, q)
    return y.ravel()


def make_minibind(seed: int) -> TaskSpec:
    """Discrete task (L=8, V=4) with pairwise-interaction scores.

    Ground truth y(s) = sum_p A[p, s_p] + sum_{p<q} B[p, q, s_p, s_q] with
    seeded standard-normal coefficients scaled for roughly unit-variance
    scores.  The total dataset enumerates all 65,536 sequences, and their
    scores are summed on the (V,) * L grid: each table is broadcast along
    its positions, A[0] to A[L-1] and then B[p, q] for p < q, so every
    sequence gets its additions in that one order.  The oracle is an exact
    lookup on that enumeration.
    """
    L, V = MINIBIND_L, MINIBIND_V
    rng = np.random.default_rng(seed)
    scl = 1.0 / math.sqrt(L + L * (L - 1) / 2)
    a = rng.standard_normal((L, V)) * scl
    b = rng.standard_normal((L, L, V, V)) * scl
    space = DesignSpace.discrete(L, V)
    tokens = _enumerate_tokens(space)
    scores = _minibind_scores(a, b)
    powers = V ** np.arange(L - 1, -1, -1)

    def lookup(design: np.ndarray) -> float:
        return float(scores[int(design @ powers)])

    return _seeded_task("minibind", tokens, scores, lookup, {"A": a, "B": b},
                        lambda: Dataset(space=space, designs=_enumerate_tokens(space), scores=scores), space)


# ---------------------------------------------------------------------------
# Ridge: continuous manifold task with an off-manifold penalty
# ---------------------------------------------------------------------------

RIDGE_DIM = 16
RIDGE_BETA = 5.0
RIDGE_NOISE = 0.1
RIDGE_SIZE = 20_000


def _saturating_gain(t: np.ndarray) -> np.ndarray:
    return 10.0 * t / (1.0 + np.abs(t))


def make_ridge(seed: int) -> TaskSpec:
    """Continuous 16-dim task whose valid designs lie on a narrow manifold.

    f(x) = s(<u, x_par>) - beta*||x_perp||^2 where x_par is the first
    ceil(16/4) = 4 coordinates, u a seeded unit vector, beta = 5, and
    s(t) = 10*t/(1+|t|).  The 20,000-point total dataset samples
    x_perp ~ N(0, 0.1^2), so off-manifold excursions are punished by the
    oracle but invisible to proxies trained on the data.  x_par is drawn,
    scored and copied into the table, and dropped, before x_perp is drawn.
    """
    k = math.ceil(RIDGE_DIM / 4)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(k)
    u /= np.linalg.norm(u)

    def score_one(x: np.ndarray) -> float:
        t = float(u @ x[:k])
        return float(_saturating_gain(np.asarray(t)) - RIDGE_BETA * float(x[k:] @ x[k:]))

    designs = np.empty((RIDGE_SIZE, RIDGE_DIM))
    x_par = rng.standard_normal((RIDGE_SIZE, k))
    gain = _saturating_gain(x_par @ u)
    designs[:, :k] = x_par
    del x_par
    x_perp = rng.standard_normal((RIDGE_SIZE, RIDGE_DIM - k))
    x_perp *= RIDGE_NOISE
    designs[:, k:] = x_perp
    penalty = np.sum(np.square(x_perp, out=x_perp), axis=1)
    del x_perp
    scores = gain - RIDGE_BETA * penalty
    return _seeded_task("ridge", designs, scores, score_one, {"u": u, "k": k, "beta": RIDGE_BETA},
                        lambda: make_ridge(seed).total_dataset())


# ---------------------------------------------------------------------------
# Bowl: concave quadratic sanity task
# ---------------------------------------------------------------------------

BOWL_DIM = 4
BOWL_SIZE = 10_000


def make_bowl(seed: int) -> TaskSpec:
    """f(x) = -||x - x*||^2 in 4 dims with a seeded optimum; unique known maximum.

    Samples are Gaussian around the optimum so the peak region is covered
    and well-fit proxies can actually find it.
    """
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(BOWL_DIM)

    def score_one(x: np.ndarray) -> float:
        diff = x - x_star
        return -float(diff @ diff)

    designs = x_star + rng.standard_normal((BOWL_SIZE, BOWL_DIM))
    diffs = designs - x_star
    scores = -np.sum(diffs**2, axis=1)
    return _seeded_task("bowl", designs, scores, score_one, {"x_star": x_star},
                        lambda: make_bowl(seed).total_dataset())


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


def export_task_csv(task: TaskSpec, csv_path) -> Dataset:
    """Write the task's total dataset to ``csv_path`` and return it."""
    total = task.total_dataset()
    write_dataset_csv(total, csv_path, task.y_min, task.y_max)
    return total


def ingest_csv(csv_path) -> TaskSpec:
    """Load an external dataset; the resulting task carries no oracle.

    Oracle-requiring operations raise for such tasks; the harness falls
    back to proxy-predicted scores flagged as unverified.
    """
    ds, meta = read_dataset_csv(csv_path)
    return TaskSpec(name=f"external:{csv_path}", space=ds.space, oracle=None, y_min=float(meta["y_min_total"]),
                    y_max=float(meta["y_max_total"]), _build=lambda: ds)
