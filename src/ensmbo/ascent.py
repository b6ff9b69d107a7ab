"""The design-optimization loop.

Iterates x <- x + alpha*d for a fixed number of steps, where d comes from
the configured gradient combiner.  Discrete designs are optimized in
relaxed one-hot space and hardened once by per-position argmax at the
end; continuous designs are optimized in normalized space and
de-normalized at the end.  Every trajectory is a pure function of its
arguments.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .combine import (
    CagradConfig,
    CombinedGradient,
    GradientSet,
    combine_mean,
    combine_min,
    solve_cagrad_dual,
    solve_mgda_dual,
)
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
    """Per-step evaluator for all ensemble members at one point.

    Same-shaped MLPs run as one stacked network (one numpy call per layer
    instead of one per model); anything else falls back to calling each
    model's ``value_and_grad``.
    """

    def __init__(self, models):
        self.models = models
        self.stacked = stack_mlps(models)

    def value_and_grad(self, x: np.ndarray):
        if self.stacked is None:
            vals = np.empty(len(self.models))
            grads = np.empty((len(self.models), x.shape[0]))
            for i, mdl in enumerate(self.models):
                vals[i], grads[i] = mdl.value_and_grad(x)
            return vals, grads
        out, grads = mlp_value_and_grad(*self.stacked, x[None, :])
        return out[:, 0, 0], grads[:, 0]


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


def _combine(gs: GradientSet, cfg: AscentConfig, warm: dict) -> CombinedGradient:
    if cfg.combiner is Combiner.SINGLE:
        return CombinedGradient(d=gs.grads[0].copy())
    if cfg.combiner is Combiner.MEAN:
        return combine_mean(gs)
    if cfg.combiner is Combiner.MIN:
        return combine_min(gs)
    if cfg.combiner is Combiner.MGDA:
        out = solve_mgda_dual(gs, w0=warm.get("w"))
    else:
        out = solve_cagrad_dual(gs, CagradConfig(cfg.cagrad_c), w0=warm.get("w"))
    if out.weights is not None:
        warm["w"] = out.weights.w
    return out


def ascend(start: np.ndarray, space: DesignSpace, ens: Ensemble, cfg: AscentConfig) -> Trajectory:
    """Run the update loop from one starting design.

    The single-model combiner uses ensemble member 0; all members'
    predictions are still recorded for tuning plots.
    """
    if ens.input_dim != space.flat_dim:
        raise ValueError("ensemble input_dim does not match the space")
    x = _to_opt_repr(start, space)
    bank = _ModelBank(ens.models)
    record = cfg.record_trajectory
    xs, preds, d_norms = ([], [], []) if record else (None, None, None)
    warm: dict = {}

    for k in range(cfg.steps):
        vals, grads = bank.value_and_grad(x)
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(grads))):
            raise FloatingPointError(f"non-finite model output at step {k}")
        gs = GradientSet(grads=grads, values=vals)
        d = _combine(gs, cfg, warm).d
        with np.errstate(over="ignore", invalid="ignore"):
            stepped = x + cfg.alpha * d
        if not np.all(np.isfinite(stepped)):
            raise FloatingPointError(f"non-finite iterate at step {k}")
        if record:
            xs.append(x.copy())
            preds.append(vals)
            d_norms.append(float(np.linalg.norm(d)))
        x = stepped

    if record:
        vals, grads = bank.value_and_grad(x)
        d = _combine(GradientSet(grads=grads, values=vals), cfg, warm).d
        xs.append(x.copy())
        preds.append(vals)
        d_norms.append(float(np.linalg.norm(d)))

    final = harden_discrete(x, space) if space.is_discrete else denormalize_design(x, space)
    return Trajectory(
        final=final,
        xs=np.asarray(xs) if record else None,
        preds=np.asarray(preds) if record else None,
        d_norms=np.asarray(d_norms) if record else None,
    )


def ascend_batch(starts, space: DesignSpace, ens: Ensemble, cfg: AscentConfig) -> list[Trajectory]:
    """Independent trajectories from many starts; order preserved."""
    starts = list(starts)
    if not starts:
        raise ValueError("no starting designs")
    out = []
    for i, start in enumerate(starts):
        try:
            out.append(ascend(start, space, ens, cfg))
        except Exception as exc:
            raise RuntimeError(f"trajectory {i} failed: {exc}") from exc
    return out


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
