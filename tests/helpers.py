"""Shared test utilities."""

import numpy as np

from ensmbo.nn import MlpModel


class QuadraticModel:
    """Analytic concave quadratic f(x) = -||x - t||^2 with exact gradients."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=np.float64)

    @property
    def input_dim(self):
        return self.target.shape[0]

    def forward(self, x):
        diff = np.asarray(x, dtype=np.float64) - self.target
        return -float(diff @ diff)

    def value_and_grad(self, x):
        diff = np.asarray(x, dtype=np.float64) - self.target
        return -float(diff @ diff), -2.0 * diff

    def input_gradient(self, x):
        return self.value_and_grad(x)[1]


def linear_model(w, b=0.0) -> MlpModel:
    """Single-layer MLP computing w @ x + b."""
    w = np.asarray(w, dtype=np.float64)
    return MlpModel(weights=[w.reshape(-1, 1)], biases=[np.array([float(b)])])


def random_mlp(rng, input_dim, hidden=(16, 16)) -> MlpModel:
    from ensmbo.nn import init_mlp

    return init_mlp(input_dim, hidden, rng)


def reference_ascent(start, space, ens, cfg):
    """The per-point update loop, as an oracle for the batched one: each
    member evaluated alone, each step combined by the per-point combiner
    warm-started from the step before.  Returns (final, xs, preds, d_norms)
    with the whole trajectory recorded."""
    from ensmbo.ascent import Combiner, _to_opt_repr, harden_discrete
    from ensmbo.combine import (
        CagradConfig,
        GradientSet,
        combine_mean,
        combine_min,
        solve_cagrad_dual,
        solve_mgda_dual,
    )
    from ensmbo.core import denormalize_design

    x = _to_opt_repr(start, space)
    warm = None
    xs, preds, d_norms = [], [], []
    for k in range(cfg.steps + 1):
        evals = [mdl.value_and_grad(x) for mdl in ens.models]
        gs = GradientSet(grads=np.array([g for _, g in evals]), values=np.array([v for v, _ in evals]))
        if cfg.combiner is Combiner.SINGLE:
            d = gs.grads[0].copy()
        elif cfg.combiner is Combiner.MEAN:
            d = combine_mean(gs).d
        elif cfg.combiner is Combiner.MIN:
            d = combine_min(gs).d
        else:
            if cfg.combiner is Combiner.MGDA:
                out = solve_mgda_dual(gs, w0=warm)
            else:
                out = solve_cagrad_dual(gs, CagradConfig(cfg.cagrad_c), w0=warm)
            if out.weights is not None:
                warm = out.weights.w
            d = out.d
        xs.append(x.copy())
        preds.append(gs.values)
        d_norms.append(float(np.linalg.norm(d)))
        if k < cfg.steps:
            x = x + cfg.alpha * d
    final = harden_discrete(x, space) if space.is_discrete else denormalize_design(x, space)
    return final, np.array(xs), np.array(preds), np.array(d_norms)
