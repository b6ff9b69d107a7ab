"""The design-optimization loop.

Iterates x <- x + alpha*d for a fixed number of steps, where d comes from the
configured gradient combiner.  Starts and final designs are raw task units; in
between, the loop works in the representation ``core.encode`` builds (relaxed
one-hot for discrete designs, normalized coordinates for continuous ones), and
``core.decode`` turns the last iterate back into a design.  All trajectories
of a batch advance in lockstep, and each is a pure function of its own start:
it equals the trajectory the same start takes alone, bit for bit.  The loop
keeps only its last iterate; a per-step observer sees every state.
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
            raise ValueError(f"steps (--steps) must be >= 0, got {self.steps}")
        if self.alpha <= 0:
            raise ValueError(f"alpha (--alpha) must be positive, got {self.alpha}")
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not 0.0 <= self.cagrad_c < 1.0:  # whatever the combiner: every report prints c
            raise ValueError(f"cagrad_c (--cagrad-c) must lie in [0, 1), got {self.cagrad_c}")


@dataclass(eq=False)
class Trajectory:
    """Optimization record: final design plus optional per-step telemetry.

    ``final`` is the design in raw task units: tokens in the space's
    ``token_dtype`` for discrete spaces, coordinates for continuous ones.
    A recorded run's ``xs`` (in the optimization representation), ``preds``
    and ``d_norms`` hold steps+1 states.
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


def _ascend_rows(X: np.ndarray, ens: Ensemble, cfg: AscentConfig, observe=None) -> np.ndarray:
    """The update loop over the rows of X (B, n), in the optimization
    representation, all rows in lockstep; returns the last iterate.

    Each step evaluates the members at every row at once and combines each
    row's gradients with the per-point combiner's arithmetic, warm-starting
    MGDA and CAGrad from the row's weights of the step before.  The first
    failing step raises RuntimeError naming its lowest failing row, the step
    and the combiner, chained to the row's cause.  ``observe(k, X, vals, D)``,
    if given, sees each state k = 0..steps once its checks pass: the iterate
    (B, n), every member's values (B, m) and the direction (B, n).  So an
    observed loop also combines at the last state.
    """
    only_first = cfg.combiner is Combiner.SINGLE and observe is None
    bank = _ModelBank(ens.models[:1] if only_first else ens.models)
    warm = np.full((X.shape[0], ens.size), np.nan)  # NaN: a cold start

    def direction(X):
        vals, grads = bank.value_and_grad(X)
        finite = np.isfinite(vals).all(axis=1) & np.isfinite(grads).all(axis=(1, 2))
        failed = {int(i): FloatingPointError("non-finite model output") for i in np.flatnonzero(~finite)}
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

    for k in range(cfg.steps + (observe is not None)):  # an observer also sees the last state
        vals, D, failed = direction(X)
        if k < cfg.steps:
            with np.errstate(over="ignore", invalid="ignore"):
                stepped = X + cfg.alpha * D
            for i in np.flatnonzero(~np.isfinite(stepped).all(axis=1)):
                failed.setdefault(int(i), FloatingPointError("non-finite iterate"))
        if failed:
            row, cause = min(failed.items())  # the lowest failing row
            raise RuntimeError(f"trajectory {row} failed at step {k} ({cfg.combiner.value}): {cause}") from cause
        if observe is not None:
            observe(k, X, vals, D)
        if k < cfg.steps:
            X = stepped
    return X


def ascend_batch(starts, space: DesignSpace, ens: Ensemble, cfg: AscentConfig) -> list[Trajectory]:
    """Independent trajectories from many raw starts, advanced in lockstep;
    order preserved, and each equal to the one its start takes alone.

    The single-model combiner uses ensemble member 0.  A recorded run
    observes the loop to keep each state's iterate, predictions and ‖d‖, so
    every member is evaluated and can fail a row; otherwise only member 0
    can fail ``single``.  Every failure raises RuntimeError chained to its
    cause: "trajectory i failed: ..." for a start that ``core.check_designs``
    refuses or an ensemble whose input dimension does not match the space
    (i = 0), and "trajectory i failed at step k (combiner): ..." for the
    lowest failing row of the first failing step.  No starts raise ValueError."""
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
    if not cfg.record_trajectory:
        return [Trajectory(final=final) for final in decode(_ascend_rows(np.array(rows), ens, cfg), space)]
    states = []

    def record(k, X, vals, D):  # ‖d‖ takes one dot per row, as a 1-D norm does
        states.append((X.copy(), vals, np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])))

    finals = decode(_ascend_rows(np.array(rows), ens, cfg, record), space)
    xs, preds, d_norms = (np.stack(a, axis=1) for a in zip(*states))
    return [Trajectory(final, xs[i], preds[i], d_norms[i]) for i, final in enumerate(finals)]


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
