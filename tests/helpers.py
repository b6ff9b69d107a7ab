"""Shared test utilities: analytic models, and the reference
implementations and oracles the suite checks the package against."""

import itertools
import json
import struct

import numpy as np

from ensmbo.combine import CagradConfig, CombinedGradient, GradientSet
from ensmbo.nn import _MAGIC, Ensemble, MlpModel


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


def combine_min(gs: GradientSet) -> CombinedGradient:
    """Gradient of the lowest-predicting model; ties go to the lowest index."""
    if gs.values is None:
        raise ValueError("min combiner needs per-model values")
    j = int(np.argmin(gs.values))
    return CombinedGradient(d=gs.grads[j].copy())


def improvement_rate(gs: GradientSet, d: np.ndarray) -> float:
    """Worst first-order predicted gain min_i <g_i, d> across the ensemble."""
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (gs.dim,) or not np.all(np.isfinite(d)):
        raise ValueError("d must be a finite vector matching the gradient dimension")
    return float(np.min(gs.grads @ d))


def reference_ascent(start, space, ens, cfg):
    """The per-point update loop, as an oracle for the batched one: each
    member evaluated alone, each step combined by the per-point combiner
    warm-started from the step before.  Returns (final, xs, preds, d_norms)
    with the whole trajectory recorded."""
    from ensmbo.ascent import Combiner
    from ensmbo.combine import combine_mean, solve_cagrad_dual, solve_mgda_dual
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


# ---------------------------------------------------------------------------
# Primal reference solvers (oracles for the dual solvers, n <= 16)
# ---------------------------------------------------------------------------
#
# Both primal problems have piecewise structure over d: at an optimum some
# active set of gradients ties on min_i <g_i, d>.  Enumerating every
# candidate active set, restricting d to its tie subspace and maximizing
# the (now smooth) objective in closed form yields an exact optimum for
# the small m used in tests; every candidate is evaluated with the true
# objective so the best one is the global maximizer.

PRIMAL_MAX_DIM = 16


def _nullspace(rows: np.ndarray, dim: int) -> np.ndarray:
    if rows.shape[0] == 0:
        return np.eye(dim)
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    cutoff = max(rows.shape) * np.finfo(np.float64).eps * s[0]
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T


def _tie_subspaces(gs: GradientSet):
    """(anchor, basis) for every candidate active set of gs, lazily: its
    first gradient, and an orthonormal basis of the d on which it ties."""
    if gs.dim > PRIMAL_MAX_DIM:
        raise ValueError(f"primal reference solver supports n <= {PRIMAL_MAX_DIM}; use the dual solver")
    g = gs.grads
    return ((g[s[0]], _nullspace(g[list(s[1:])] - g[s[0]], gs.dim))
            for k in range(1, gs.m + 1) for s in itertools.combinations(range(gs.m), k))


def solve_mgda_primal_reference(gs: GradientSet) -> CombinedGradient:
    """Direct maximization of min_i <d, g_i> - 0.5*||d||^2 over d."""

    def objective(d):
        return float(np.min(gs.grads @ d)) - 0.5 * float(d @ d)

    # a tie subspace {0} is covered by the zero candidate
    candidates = [basis @ (basis.T @ anchor) for anchor, basis in _tie_subspaces(gs) if basis.shape[1]]
    return CombinedGradient(d=max([np.zeros(gs.dim)] + candidates, key=objective))


def solve_cagrad_primal_reference(gs: GradientSet, cfg: CagradConfig) -> CombinedGradient:
    """Direct maximization of min_i <d, g_i> within ||d - g0|| <= c*||g0||."""
    subspaces = _tie_subspaces(gs)
    g0 = gs.mean_grad
    radius = cfg.c * float(np.linalg.norm(g0))
    if radius == 0.0:
        return CombinedGradient(d=g0.copy())

    def candidate(anchor, basis):
        """The best d of the tie subspace in the ball, or None if it misses the ball."""
        if basis.shape[1] == 0:
            if float(np.linalg.norm(g0)) > radius * (1.0 + 1e-12):
                return None
            d = np.zeros(gs.dim)
        else:
            q = basis.T @ g0
            off = g0 - basis @ q
            slack = radius**2 - float(off @ off)
            if slack < -1e-12 * max(radius**2, 1.0):
                return None
            rho = np.sqrt(max(slack, 0.0))
            a = basis.T @ anchor
            a_norm = float(np.linalg.norm(a))
            d = basis @ (q + rho * a / a_norm if a_norm > 0.0 else q)
        excess = float(np.linalg.norm(d - g0))  # clip fp overshoot back onto the ball
        return g0 + (d - g0) * (radius / excess) if excess > radius else d

    candidates = [d for d in (candidate(*t) for t in subspaces) if d is not None]
    return CombinedGradient(d=max([g0.copy()] + candidates, key=lambda d: float(np.min(gs.grads @ d))))


# ---------------------------------------------------------------------------
# Ensemble files: a reader of the layout `nn.save_ensemble` writes
# ---------------------------------------------------------------------------

def load_ensemble(path) -> Ensemble:
    """The ensemble of a file in the layout of ``nn``'s serialization
    comment; ValueError unless the file starts with its magic and version."""
    with open(path, "rb") as f:
        if f.read(8) != _MAGIC:
            raise ValueError("not an ensemble file")
        (hlen,) = struct.unpack("<I", f.read(4))
        header = json.loads(f.read(hlen).decode("utf-8"))
        if header.get("version") != 1:
            raise ValueError(f"unsupported version {header.get('version')}")
        models = []
        for mh in header["models"]:
            weights, biases = [], []
            for wshape, bshape in mh["layers"]:
                weights.append(np.frombuffer(f.read(8 * int(np.prod(wshape))), dtype="<f8").reshape(wshape).copy())
                biases.append(np.frombuffer(f.read(8 * int(np.prod(bshape))), dtype="<f8").reshape(bshape).copy())
            models.append(MlpModel(weights=weights, biases=biases,
                                   val_mse=mh["val_mse"], val_spearman=mh["val_spearman"]))
        if f.read(1):
            raise ValueError("trailing bytes after the last model")
    return Ensemble(models=models)
