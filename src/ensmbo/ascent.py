"""The design-optimization loop.

Iterates x <- x + alpha*d for a fixed number of steps, where d comes from
the configured gradient combiner.  Discrete designs are optimized in
relaxed one-hot space and hardened once by per-position argmax at the
end; continuous designs are optimized in normalized space and
de-normalized at the end.  All trajectories of a batch advance in
lockstep, and each is a pure function of its own start: it equals the
trajectory the same start takes alone, bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .combine import CagradConfig, solve_cagrad_batch, solve_mgda_batch
from .core import (
    DesignSpace,
    denormalize_design,
    is_hard_onehot,
    normalize_design,
    tokens_to_onehot,
)
from .nn import Ensemble, mlp_value_and_grad, stack_mlps


class Combiner(Enum):
    SINGLE = "single"
    MEAN = "mean"
    MIN = "min"
    MGDA = "mgda"
    CAGRAD = "cagrad"


@dataclass(frozen=True)
class AscentConfig:
    steps: int = 200
    alpha: float = 0.1
    combiner: Combiner = Combiner.MEAN
    cagrad_c: float = 0.5
    record_trajectory: bool = False

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.combiner is Combiner.CAGRAD:
            CagradConfig(self.cagrad_c)  # validate range


@dataclass(eq=False)
class Trajectory:
    """Optimization record: final design plus optional per-step telemetry.

    ``final`` is a hard one-hot vector for discrete spaces and a raw
    task-unit vector for continuous ones.  When recording is on, ``xs``,
    ``preds`` and ``d_norms`` hold steps+1 states in the optimization
    representation.
    """

    final: np.ndarray
    xs: np.ndarray | None = None
    preds: np.ndarray | None = None
    d_norms: np.ndarray | None = None


def harden_discrete(x: np.ndarray, space: DesignSpace) -> np.ndarray:
    """Per-position argmax to a hard one-hot vector; ties to the lowest token."""
    if not space.is_discrete:
        raise ValueError("harden_discrete applies to discrete spaces")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (space.flat_dim,):
        raise ValueError("relaxed vector has wrong length")
    if not np.all(np.isfinite(x)):
        raise ValueError("relaxed vector must be finite")
    blocks = x.reshape(space.seq_len, space.vocab)
    hard = np.zeros_like(blocks)
    hard[np.arange(space.seq_len), np.argmax(blocks, axis=1)] = 1.0
    return hard.reshape(-1)


class _ModelBank:
    """Evaluator for all ensemble members at one point or a batch of points.

    Same-shaped MLPs run as one stacked network.  Its weights are laid out
    (m, 1, d_in, d_out) against inputs (1, B, 1, d), so every (member, row)
    product is the (1, d) @ (d, h) product of a single point: a row gets the
    same bits in a batch as alone.  Anything else falls back to calling each
    model's ``value_and_grad``.
    """

    def __init__(self, models):
        self.models = models
        self.stacked = stack_mlps(models)
        if self.stacked is not None:
            weights, biases = self.stacked
            self._per_row = ([w[:, None] for w in weights], [b[:, None] for b in biases])

    def value_and_grad(self, x: np.ndarray):
        """Values (m,) and gradients (m, n) at a point x (n,), or values
        (B, m) and gradients (B, m, n) at the rows of x (B, n)."""
        X = np.atleast_2d(x)
        if self.stacked is None:
            vals = np.empty((X.shape[0], len(self.models)))
            grads = np.empty((X.shape[0], len(self.models), X.shape[1]))
            for r, xr in enumerate(X):
                for i, mdl in enumerate(self.models):
                    vals[r, i], grads[r, i] = mdl.value_and_grad(xr)
        else:
            out, g = mlp_value_and_grad(*self._per_row, X[None, :, None, :])
            vals = np.ascontiguousarray(out[:, :, 0, 0].T)
            grads = np.ascontiguousarray(np.swapaxes(g[:, :, 0, :], 0, 1))
        return (vals[0], grads[0]) if x.ndim == 1 else (vals, grads)


def _to_opt_repr(start: np.ndarray, space: DesignSpace) -> np.ndarray:
    start = np.asarray(start)
    if space.is_discrete:
        if start.shape == (space.seq_len,):
            return tokens_to_onehot(start, space)
        if start.shape == (space.flat_dim,):
            if not is_hard_onehot(start, space):
                raise ValueError("discrete starts must be hard designs")
            return np.asarray(start, dtype=np.float64).copy()
        raise ValueError("bad discrete start shape")
    start = start.astype(np.float64)
    if start.shape != (space.dim,) or not np.all(np.isfinite(start)):
        raise ValueError("bad continuous start")
    return normalize_design(start, space)


class _StepFailure(Exception):
    """The lowest-index row that failed at the first failing step."""

    def __init__(self, row: int, step: int, cause: Exception):
        super().__init__(f"row {row} failed at step {step}: {cause}")
        self.row, self.step, self.cause = row, step, cause


def _ascend_rows(X: np.ndarray, space: DesignSpace, ens: Ensemble, cfg: AscentConfig) -> list[Trajectory]:
    """The update loop over the rows of X (B, n), in the optimization
    representation, all rows in lockstep.

    Each step evaluates every member at every row at once and combines each
    row's gradients with the per-point combiner's arithmetic, warm-starting
    MGDA and CAGrad from the row's weights of the step before.  An
    unrecorded single-model run evaluates member 0 alone.  Raises
    _StepFailure for the first failing step.
    """
    record = cfg.record_trajectory
    only_first = cfg.combiner is Combiner.SINGLE and not record
    bank = _ModelBank(ens.models[:1] if only_first else ens.models)
    warm = np.full((X.shape[0], ens.size), np.nan)  # NaN: a cold start

    def direction(X):
        vals, grads = bank.value_and_grad(X)
        failed = {}
        finite = np.isfinite(vals).all(axis=1) & np.isfinite(grads).all(axis=(1, 2))
        for i in np.flatnonzero(~finite):
            failed[int(i)] = FloatingPointError("non-finite model output")
        rows = np.flatnonzero(finite)
        D = np.full(X.shape, np.nan)
        if cfg.combiner is Combiner.SINGLE:
            D[rows] = grads[rows, 0]
        elif cfg.combiner is Combiner.MEAN:
            D[rows] = grads[rows].mean(axis=1)
        elif cfg.combiner is Combiner.MIN:
            D[rows] = grads[rows, np.argmin(vals[rows], axis=1)]
        else:
            if cfg.combiner is Combiner.MGDA:
                out = solve_mgda_batch(grads[rows], w0=warm[rows])
            else:
                out = solve_cagrad_batch(grads[rows], CagradConfig(cfg.cagrad_c), w0=warm[rows])
            D[rows] = out.d
            solved = ~np.isnan(out.w).any(axis=1)
            warm[rows[solved]] = out.w[solved]
            failed.update({int(rows[i]): exc for i, exc in out.errors.items()})
        for i in np.flatnonzero(~np.isfinite(D).all(axis=1)):
            failed.setdefault(int(i), ValueError("combined gradient must be finite"))
        return vals, D, failed

    xs, preds, d_norms = [], [], []
    for k in range(cfg.steps + record):  # a recorded run also combines at the final state
        vals, D, failed = direction(X)
        if k < cfg.steps:
            with np.errstate(over="ignore", invalid="ignore"):
                stepped = X + cfg.alpha * D
            for i in np.flatnonzero(~np.isfinite(stepped).all(axis=1)):
                failed.setdefault(int(i), FloatingPointError("non-finite iterate"))
        if failed:
            row = min(failed)
            raise _StepFailure(row, k, failed[row])
        if record:
            xs.append(X.copy())
            preds.append(vals)
            d_norms.append(np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0]))  # one dot per row, as a 1-D norm
        if k < cfg.steps:
            X = stepped

    out = []
    for i, x in enumerate(X):
        final = harden_discrete(x, space) if space.is_discrete else denormalize_design(x, space)
        traj = Trajectory(final=final)
        if record:
            traj.xs = np.array([a[i] for a in xs])
            traj.preds = np.array([a[i] for a in preds])
            traj.d_norms = np.array([a[i] for a in d_norms])
        out.append(traj)
    return out


def _check_input_dim(space: DesignSpace, ens: Ensemble) -> None:
    if ens.input_dim != space.flat_dim:
        raise ValueError("ensemble input_dim does not match the space")


def ascend(start: np.ndarray, space: DesignSpace, ens: Ensemble, cfg: AscentConfig) -> Trajectory:
    """Run the update loop from one starting design: ``ascend_batch`` of one.

    The single-model combiner uses ensemble member 0.  A recorded run
    still evaluates every member, records all their predictions for tuning
    plots and fails on any member's non-finite output; without recording
    only member 0 is evaluated, so only member 0 can fail a ``single`` row.
    """
    _check_input_dim(space, ens)
    try:
        return _ascend_rows(_to_opt_repr(start, space)[None, :], space, ens, cfg)[0]
    except _StepFailure as f:
        if isinstance(f.cause, FloatingPointError):
            raise FloatingPointError(f"{f.cause} at step {f.step}") from f.cause
        raise f.cause


def ascend_batch(starts, space: DesignSpace, ens: Ensemble, cfg: AscentConfig) -> list[Trajectory]:
    """Independent trajectories from many starts, advanced in lockstep; order
    preserved, and each equal to its own ``ascend``."""
    starts = list(starts)
    if not starts:
        raise ValueError("no starting designs")
    rows = []
    for i, start in enumerate(starts):
        try:
            _check_input_dim(space, ens)  # fails at i = 0, before any start is read
            rows.append(_to_opt_repr(start, space))
        except ValueError as exc:
            raise RuntimeError(f"trajectory {i} failed: {exc}") from exc
    try:
        return _ascend_rows(np.array(rows), space, ens, cfg)
    except _StepFailure as f:
        raise RuntimeError(
            f"trajectory {f.row} failed at step {f.step} ({cfg.combiner.value}): {f.cause}"
        ) from f.cause


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Tuning artifact: per-step model predictions and update-vector norms."""
    if traj.preds is None:
        raise ValueError("trajectory was not recorded")
    m = traj.preds.shape[1]
    with open(Path(path), "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["step"] + [f"pred_{i + 1}" for i in range(m)] + ["d_norm"])
        for step, (p, dn) in enumerate(zip(traj.preds, traj.d_norms)):
            w.writerow([step] + [repr(float(v)) for v in p] + [repr(float(dn))])
