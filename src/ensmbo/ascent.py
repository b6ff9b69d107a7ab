"""The design-optimization loop.

Iterates x <- x + alpha*d for a fixed number of steps, where d comes from
the configured gradient combiner.  Starts and final designs are raw task
units; in between, the loop works in the representation ``core.encode``
builds (relaxed one-hot for discrete designs, normalized coordinates for
continuous ones), and ``core.decode`` turns the last iterate back into a
design.  All trajectories of a batch advance in lockstep, and each is a
pure function of its own start: it equals the trajectory the same start
takes alone, bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .combine import CagradConfig, solve_cagrad_batch, solve_mgda_batch
from .core import DesignSpace, decode, encode
from .nn import Ensemble


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
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        CagradConfig(self.cagrad_c)  # validate range, whatever the combiner: every report prints c


@dataclass(eq=False)
class Trajectory:
    """Optimization record: final design plus optional per-step telemetry.

    ``final`` is the design in raw task units: tokens in the space's
    ``token_dtype`` for discrete spaces, coordinates for continuous ones.
    When recording is on, ``xs``, ``preds`` and ``d_norms`` hold steps+1
    states, ``xs`` in the optimization representation.
    """

    final: np.ndarray
    xs: np.ndarray | None = None
    preds: np.ndarray | None = None
    d_norms: np.ndarray | None = None


class _ModelBank:
    """Evaluator for all ensemble members at one point or a batch of points.

    Each member evaluates every row with its own ``value_and_grad_rows``,
    which runs each row as a single point: a row gets the same bits in a
    batch as alone.
    """

    def __init__(self, models):
        self.models = models

    def value_and_grad(self, x: np.ndarray):
        """Values (m,) and gradients (m, n) at a point x (n,), or values
        (B, m) and gradients (B, m, n) at the rows of x (B, n)."""
        X = np.atleast_2d(x)
        vals = np.empty((X.shape[0], len(self.models)))
        grads = np.empty((X.shape[0], len(self.models), X.shape[1]))
        for i, mdl in enumerate(self.models):
            vals[:, i], grads[:, i] = mdl.value_and_grad_rows(X)
        return (vals[0], grads[0]) if x.ndim == 1 else (vals, grads)


def _ascend_rows(X: np.ndarray, space: DesignSpace, ens: Ensemble, cfg: AscentConfig) -> list[Trajectory]:
    """The update loop over the rows of X (B, n), in the optimization
    representation, all rows in lockstep.

    Each step evaluates the members at every row at once and combines each
    row's gradients with the per-point combiner's arithmetic, warm-starting
    MGDA and CAGrad from the row's weights of the step before.  The first
    failing step raises RuntimeError naming its lowest failing row, the step
    and the combiner, chained to the row's cause.
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
            cause = failed[row]
            raise RuntimeError(f"trajectory {row} failed at step {k} ({cfg.combiner.value}): {cause}") from cause
        if record:
            xs.append(X.copy())
            preds.append(vals)
            d_norms.append(np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0]))  # one dot per row, as a 1-D norm
        if k < cfg.steps:
            X = stepped

    out = []
    for i, final in enumerate(decode(X, space)):
        traj = Trajectory(final=final)
        if record:
            traj.xs = np.array([a[i] for a in xs])
            traj.preds = np.array([a[i] for a in preds])
            traj.d_norms = np.array([a[i] for a in d_norms])
        out.append(traj)
    return out


def ascend_batch(starts, space: DesignSpace, ens: Ensemble, cfg: AscentConfig) -> list[Trajectory]:
    """Independent trajectories from many raw starts, advanced in lockstep;
    order preserved, and each equal to the one its start takes alone.

    The single-model combiner uses ensemble member 0.  A recorded run
    still evaluates every member, records all their predictions for tuning
    plots and fails on any member's non-finite output; without recording
    only member 0 is evaluated, so only member 0 can fail a ``single`` row.
    Every failure raises RuntimeError chained to its cause: "trajectory i
    failed: ..." for a start that ``core.check_designs`` refuses or an
    ensemble whose input dimension does not match the space (i = 0), and
    "trajectory i failed at step k (combiner): ..." for the lowest failing
    row of the first failing step.  No starts raise ValueError."""
    starts = list(starts)
    if not starts:
        raise ValueError("no starting designs")
    rows = []
    for i, start in enumerate(starts):
        try:
            if ens.input_dim != space.flat_dim:  # fails at i = 0, before any start is read
                raise ValueError("ensemble input_dim does not match the space")
            rows.append(encode([start], space)[0])
        except ValueError as exc:
            raise RuntimeError(f"trajectory {i} failed: {exc}") from exc
    return _ascend_rows(np.array(rows), space, ens, cfg)


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
