"""Shared test utilities."""

import numpy as np

from ensmbo.nn import MlpModel


class PointModel:
    """Base of the analytic test models, which define ``value_and_grad`` at
    one point: their rows entry evaluates the rows one at a time."""

    def value_and_grad_rows(self, X):
        evals = [self.value_and_grad(x) for x in X]
        return np.array([v for v, _ in evals]), np.array([g for _, g in evals])


class QuadraticModel(PointModel):
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
    from ensmbo.ascent import Combiner
    from ensmbo.combine import (
        CagradConfig,
        GradientSet,
        combine_mean,
        combine_min,
        solve_cagrad_dual,
        solve_mgda_dual,
    )
    from ensmbo.core import decode, encode

    x = encode([start], space)[0]
    warm = None
    xs, preds, d_norms = [], [], []
    for k in range(cfg.steps + 1):
        evals = [mdl.value_and_grad_rows(x[None]) for mdl in ens.models]
        gs = GradientSet(grads=np.array([g[0] for _, g in evals]), values=np.array([v[0] for v, _ in evals]))
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
    final = decode(x[None], space)[0]
    return final, np.array(xs), np.array(preds), np.array(d_norms)


# ---------------------------------------------------------------------------
# Reference training: the per-parameter loop that `nn._fit` fuses,
# with its own copy of the allocating forward/backward kernel, as an oracle
# for the fused step's bits.
# ---------------------------------------------------------------------------

def _reference_forward(weights, biases, x):
    acts = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    return acts[-1] @ weights[-1] + biases[-1], acts


def _reference_backward(weights, acts, d_out):
    deltas = [d_out]
    for w, a in zip(reversed(weights[1:]), reversed(acts[1:])):
        deltas.append((deltas[-1] @ np.swapaxes(w, -1, -2)) * (a > 0.0))
    return deltas[::-1]


def _reference_mse(model, X, y):
    pred = _reference_forward(model.weights, model.biases, np.asarray(X, dtype=np.float64))[0][:, 0]
    return float(np.mean((pred - y) ** 2))


def _reference_adam_step(params, grads, m_state, v_state, t, lr):
    from ensmbo.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

    for p, g, m, v in zip(params, grads, m_state, v_state):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def reference_train_arrays(X, y, cfg, X_val=None, y_val=None) -> MlpModel:
    """One proxy's training as one Adam loop per parameter array and one
    finiteness check per array, every product allocating its result.
    Given validation arrays it is `nn._fit` seeded ``cfg.seed``; without
    them it first carves the 90/10 split of a one-member `nn.train_ensemble`."""
    from ensmbo.nn import init_mlp, spearman

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < cfg.batch_size:
        raise ValueError(
            f"need at least batch_size training rows: got {X.shape[0]} rows for batch_size "
            f"{cfg.batch_size}; set train.batch_size in a `--config` file"
        )
    rng = np.random.default_rng(cfg.seed)
    if X_val is None:
        n_val = max(1, X.shape[0] // 10)
        perm = rng.permutation(X.shape[0])
        X_val, y_val = X[perm[:n_val]], y[perm[:n_val]]
        X, y = X[perm[n_val:]], y[perm[n_val:]]

    model = init_mlp(X.shape[1], hidden=cfg.hidden, rng=rng)
    params = model.weights + model.biases
    m_state = [np.zeros_like(p) for p in params]
    v_state = [np.zeros_like(p) for p in params]
    t = 0

    best_val = np.inf
    best_weights = [w.copy() for w in model.weights]
    best_biases = [b.copy() for b in model.biases]
    stale = 0

    n = X.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = X[idx], y[idx]
            with np.errstate(over="ignore", invalid="ignore"):
                out, acts = _reference_forward(model.weights, model.biases, xb)
                pred = out[:, 0]
                loss = np.mean((pred - yb) ** 2)
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite training loss at epoch {epoch}, batch offset {start}"
                    )
                dpred = (2.0 / idx.shape[0]) * (pred - yb)
                deltas = _reference_backward(model.weights, acts, dpred[:, None])
                grads_w = [a.T @ delta for a, delta in zip(acts, deltas)]
                grads_b = [delta.sum(axis=0) for delta in deltas]
                if cfg.weight_decay:
                    for gw, w in zip(grads_w, model.weights):
                        gw += cfg.weight_decay * w
                t += 1
                _reference_adam_step(params, grads_w + grads_b, m_state, v_state, t, cfg.learning_rate)
            for p in params:
                if not np.all(np.isfinite(p)):
                    raise FloatingPointError(f"non-finite weights after epoch {epoch} update")
        val = _reference_mse(model, X_val, y_val)
        if val < best_val:
            best_val = val
            best_weights = [w.copy() for w in model.weights]
            best_biases = [b.copy() for b in model.biases]
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    model.weights = best_weights
    model.biases = best_biases
    model.val_mse = best_val
    try:
        pred = _reference_forward(model.weights, model.biases, np.asarray(X_val, dtype=np.float64))[0][:, 0]
        model.val_spearman = spearman(pred, y_val)
    except ValueError:
        model.val_spearman = float("nan")  # constant validation targets
    return model


def reference_minibind_tokens(L, V):
    """All V**L sequences, each position's column computed from the row index."""
    n = V**L
    idx = np.arange(n)
    tokens = np.empty((n, L), dtype=np.int64)
    for p in range(L):
        tokens[:, p] = (idx // V ** (L - 1 - p)) % V
    return tokens


def reference_minibind_scores(tokens, a, b):
    """Minibind scores by one fancy-index gather per table, summed in the
    order `tasks._minibind_scores` adds them."""
    L = tokens.shape[1]
    y = np.zeros(tokens.shape[0])
    for p in range(L):
        y += a[p, tokens[:, p]]
    for p in range(L):
        for q in range(p + 1, L):
            y += b[p, q, tokens[:, p], tokens[:, q]]
    return y
