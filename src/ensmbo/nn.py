"""Small fully-connected regression networks with exact input gradients.

The proxy models are plain numpy MLPs (ReLU hidden layers, identity
output) trained with Adam on mean squared error.  A training step is
fused: the parameters and their gradients live in flat buffers, and Adam
and the finiteness check run once per step over them.  Everything is
seeded.  Every proxy, a single model too, is an ensemble member, and the
members train in worker processes pinned to one BLAS thread each.  A
worker gets the dataset's raw rows and builds each member's design
matrices from that member's rows, so a (data, config) pair reproduces the
same weights bit for bit and no process holds the full design matrix.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import struct
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from .core import Dataset, encode

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(eq=False)
class MlpModel:
    """Feedforward regressor: ReLU hidden layers, scalar linear output.

    ``weights[l]`` has shape (fan_in, fan_out); biases are 1-D. Validation
    metrics from training (best epoch) ride along for reporting.  Input
    gradients have one entry, ``value_and_grad_rows``, which evaluates
    each row as a single point.
    """

    weights: list
    biases: list
    val_mse: float | None = None
    val_spearman: float | None = None

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def forward(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_dim,):
            raise ValueError(f"input has shape {x.shape}, model expects ({self.input_dim},)")
        if not np.all(np.isfinite(x)):
            raise ValueError("input must be finite")
        out, _ = mlp_forward(self.weights, self.biases, x)
        return float(out[0])

    def forward_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError("batch has wrong shape")
        return mlp_forward(self.weights, self.biases, X)[0][:, 0]

    def value_and_grad_rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Outputs (B,) and their exact reverse-mode gradients (B, n) wrt the
        rows of X (B, n).  The kernel runs on X (B, 1, n), so each row is the
        product of a single point and gets the same bits in any batch.

        ReLU uses subgradient 0 where the pre-activation is exactly 0.
        """
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError("batch has wrong shape")
        out, acts = mlp_forward(self.weights, self.biases, X[:, None, :])
        delta = mlp_backward(self.weights, acts, np.ones_like(out))[0]
        return out[:, 0, 0], _times_transpose(delta, self.weights[0])[:, 0]


# ---------------------------------------------------------------------------
# The forward/backward kernel
# ---------------------------------------------------------------------------
#
# Written with ``@`` and broadcasting elementwise operations only, against
# one model's weights (d_in, d_out) and biases (d_out,).  Training runs it
# on a batch (B, d), one product per layer.  Input gradients run it on
# (B, 1, d): numpy then makes one (1, d) @ (d, d_out) product per row, the
# same shapes and strides as a single point's, so a row's bits do not
# depend on the batch around it.


def mlp_forward(weights, biases, x):
    """Network output and the input of every layer (``acts[0]`` is ``x``).
    The bias add and the ReLU run in place on each layer's product."""
    acts = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        z = acts[-1] @ w
        z += b
        acts.append(np.maximum(z, 0.0, out=z))
    out = acts[-1] @ weights[-1]
    out += biases[-1]
    return out, acts


def _times_transpose(delta, w):
    """``delta @ w.T``.  Against one output column (K = 1) every entry is a
    single product, so a broadcast multiply gives the same bits at a third
    of the cost."""
    return delta * w.T if w.shape[1] == 1 else delta @ w.T


def mlp_backward(weights, acts, d_out):
    """Sensitivity of every layer's pre-activation output, given ``d_out``
    (the sensitivity of the network output)."""
    deltas = [d_out]
    for w, a in zip(reversed(weights[1:]), reversed(acts[1:])):
        delta = _times_transpose(deltas[-1], w)
        delta *= a > 0.0
        deltas.append(delta)
    return deltas[::-1]


def init_mlp(input_dim: int, hidden, rng: np.random.Generator) -> MlpModel:
    """He-initialized MLP; biases start at zero."""
    dims = [input_dim, *hidden, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 256
    learning_rate: float = 1e-3
    weight_decay: float = 1e-6
    seed: int = 0
    patience: int = 10
    hidden: tuple[int, ...] = (64, 64)

    def __post_init__(self):
        for name in ("epochs", "batch_size", "patience", "learning_rate"):  # named as a --config file sets them
            if getattr(self, name) <= 0:
                flag = " (--epochs)" if name == "epochs" else ""
                raise ValueError(f"train.{name}{flag} must be positive, got {getattr(self, name)}")
        if self.weight_decay < 0:
            raise ValueError(f"train.weight_decay must be >= 0, got {self.weight_decay}")


@dataclass(eq=False)
class Ensemble:
    """Immutable list of proxy models sharing one architecture."""

    models: list

    def __post_init__(self):
        if len(self.models) < 1:
            raise ValueError("ensemble needs at least one model")
        dims = {m.input_dim for m in self.models}
        if len(dims) != 1:
            raise ValueError("ensemble members must share input_dim")

    @property
    def size(self) -> int:
        return len(self.models)

    @property
    def input_dim(self) -> int:
        return self.models[0].input_dim

    def validation_metrics(self) -> list[tuple]:
        return [(m.val_spearman, m.val_mse) for m in self.models]


def _mse(model: MlpModel, X: np.ndarray, y: np.ndarray) -> float:
    pred = model.forward_batch(X)
    return float(np.mean((pred - y) ** 2))


def _views(flat: np.ndarray, shapes) -> list:
    """Consecutive views of a flat buffer, one per shape."""
    ends = np.cumsum([int(np.prod(shape)) for shape in shapes])
    return [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]


def _adam_step(p, g, m, v, t, lr, tmp, step):
    """One Adam update of the flat parameters ``p`` by the flat gradient
    ``g``, in place; ``tmp`` and ``step`` are scratch of the same size.
    Per element it is m_hat = m / (1 - beta1^t), v_hat = v / (1 - beta2^t),
    p -= lr * m_hat / (sqrt(v_hat) + eps), in that operation order."""
    m *= ADAM_BETA1
    m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= g
    v += tmp
    np.divide(v, 1.0 - ADAM_BETA2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
    step *= lr
    step /= tmp
    p -= step


def _fit(X, y, X_val, y_val, cfg: TrainConfig, rng: np.random.Generator) -> MlpModel:
    """The training loop of one member, on its design matrices.

    One step is fused: the weights and biases are views into one flat
    buffer, the kernel's products write the gradients into views of a flat
    gradient buffer, and Adam and the finiteness check run once over the
    flat buffers.  The weights are bitwise those of one Adam loop per
    parameter array.  Aborts with ``FloatingPointError`` if the loss or the
    weights go non-finite.
    """
    model = init_mlp(X.shape[1], hidden=cfg.hidden, rng=rng)
    n_layers = len(model.weights)
    shapes = [p.shape for p in model.weights + model.biases]
    flat = np.concatenate([p.ravel() for p in model.weights + model.biases])
    params = _views(flat, shapes)
    model.weights, model.biases = params[:n_layers], params[n_layers:]
    grad = np.empty_like(flat)
    grads = _views(grad, shapes)
    grads_w, grads_b = grads[:n_layers], grads[n_layers:]
    n_w = sum(w.size for w in model.weights)  # the weights lead the flat buffers
    m_state, v_state = np.zeros_like(flat), np.zeros_like(flat)
    tmp, step = np.empty_like(flat), np.empty_like(flat)
    t = 0

    best_val = np.inf
    best = flat.copy()
    stale = 0

    n = X.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, yb = X[idx], y[idx]
            with np.errstate(over="ignore", invalid="ignore"):
                out, acts = mlp_forward(model.weights, model.biases, xb)
                err = out[:, 0] - yb
                if not np.isfinite(np.add.reduce(err * err)):  # finite exactly when the mean is
                    raise FloatingPointError(
                        f"non-finite training loss at epoch {epoch}, batch offset {start}"
                    )
                err *= 2.0 / idx.shape[0]
                deltas = mlp_backward(model.weights, acts, err[:, None])
                for a, delta, gw, gb in zip(acts, deltas, grads_w, grads_b):
                    np.matmul(a.T, delta, out=gw)
                    np.add.reduce(delta, axis=0, out=gb)
                if cfg.weight_decay:
                    grad[:n_w] += np.multiply(flat[:n_w], cfg.weight_decay, out=tmp[:n_w])
                t += 1
                _adam_step(flat, grad, m_state, v_state, t, cfg.learning_rate, tmp, step)
            if not np.isfinite(flat).all():
                raise FloatingPointError(f"non-finite weights after epoch {epoch} update")
        val = _mse(model, X_val, y_val)
        if val < best_val:
            best_val = val
            best[:] = flat
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    params = _views(best, shapes)
    model.weights, model.biases = params[:n_layers], params[n_layers:]
    model.val_mse = best_val
    try:
        model.val_spearman = spearman(model.forward_batch(X_val), y_val)
    except ValueError:
        model.val_spearman = float("nan")  # constant validation targets
    return model


def train_ensemble(data: Dataset, m: int, cfg: TrainConfig) -> Ensemble:
    """Train m models on complementary folds of the dataset.

    A seeded shuffle splits the rows into folds; member i validates on
    fold i, trains on the rest and draws from its own generator.  For
    m >= 2 the folds are m near-equal parts and member i's generator is
    seeded ``cfg.seed + i``.  A single model has two folds, the first 10%
    of the shuffle (at least one row) and the rest, and keeps drawing from
    the shuffle's generator.  The training rows (for m = 1, all rows) are
    checked against ``batch_size`` before any member trains.

    The members train in W = min(m, usable CPUs) worker processes, each at
    one BLAS thread; worker w trains members w, w + W, w + 2W, ....  With
    W < 2 they train in this process.  Either way the models are the same
    bits and come back in member order.  A member that fails raises what
    training it in this process would raise, from the lowest failing
    member; a worker that ends without a result raises ``RuntimeError``
    naming it, its folds and its exit code.  Every worker has ended when
    this returns or raises.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = len(data)
    rng = np.random.default_rng(cfg.seed)
    if m == 1:
        perm = rng.permutation(n)
        n_val = max(1, n // 10)
        folds, members, train_rows = [perm[:n_val], perm[n_val:]], [(0, rng)], [n]
    else:
        if n < m:
            raise ValueError("fold smaller than 1 sample")
        folds = np.array_split(rng.permutation(n), m)
        members = [(i, np.random.default_rng(cfg.seed + i)) for i in range(m)]
        train_rows = [n - len(fold) for fold in folds]
    for rows in train_rows:
        if rows < cfg.batch_size:
            raise ValueError(
                f"need at least batch_size training rows: got {rows} rows for batch_size "
                f"{cfg.batch_size}; set train.batch_size in a `--config` file"
            )
    n_workers = min(m, len(os.sched_getaffinity(0)))
    if n_workers < 2:
        return Ensemble(models=[_train_fold(data, folds, i, r, cfg) for i, r in members])
    return Ensemble(models=_train_in_workers(data, folds, members, cfg, n_workers))


def _train_fold(data: Dataset, folds, i, rng: np.random.Generator, cfg: TrainConfig) -> MlpModel:
    """Member ``i``: trains on every fold but fold ``i``, validates on fold
    ``i`` and draws from ``rng``.  Its matrices, built from those rows alone,
    are the full matrix's rows bit for bit: the encoding is elementwise."""
    rows = np.concatenate([f for j, f in enumerate(folds) if j != i])
    return _fit(encode(data.designs[rows], data.space), data.scores[rows],
                encode(data.designs[folds[i]], data.space), data.scores[folds[i]], cfg, rng)


# The workers are plain interpreters started by subprocess, not a
# multiprocessing or concurrent.futures pool: those start a resource-tracker
# process that nobody waits for, and it outlives the call (and the program).
_WORKER_CODE = "from ensmbo.nn import _fold_worker; _fold_worker()"
_PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fold_worker() -> None:
    """Worker entry point: reads (dataset, folds, members, cfg) pickled on
    stdin, where members are (fold, generator) pairs, trains those members
    in order and pickles [(fold, model or the exception it raised)] on
    stdout.  It stops at its first failing member, since its later members
    cannot be the lowest failing one."""
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # stdout carries the result alone
    data, folds, members, cfg = pickle.load(sys.stdin.buffer)
    results = []
    for i, rng in members:
        try:
            results.append((i, _train_fold(data, folds, i, rng, cfg)))
        except Exception as exc:
            results.append((i, exc))
            break
    pickle.dump(results, out, protocol=pickle.HIGHEST_PROTOCOL)
    out.flush()


def _train_in_workers(data, folds, members, cfg, n_workers) -> list:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_PACKAGE_PARENT, env.get("PYTHONPATH")]))
    jobs = [members[w::n_workers] for w in range(n_workers)]
    procs = []
    try:
        for _ in jobs:
            procs.append(subprocess.Popen([sys.executable, "-c", _WORKER_CODE], env=env,
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE))
        # Every input is written before any result is read: a worker reads
        # all of its input before it writes anything.  Protocol 5 streams
        # the arrays' buffers into the pipe without copying them.
        for proc, job in zip(procs, jobs):
            try:
                with proc.stdin:
                    pickle.dump((data, folds, job, cfg), proc.stdin, protocol=5)
            except BrokenPipeError:
                pass  # the worker has ended; its exit code is reported below
        results = {}
        for w, (proc, job) in enumerate(zip(procs, jobs)):
            blob = proc.stdout.read()
            code = proc.wait()
            if code != 0 or not blob:
                ids = [i for i, _ in job]
                raise RuntimeError(f"training worker {w} (folds {ids}) exited with code {code} "
                                   "without a result")
            results.update(pickle.loads(blob))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            with contextlib.suppress(BrokenPipeError):  # unsent input of a killed worker
                proc.stdin.close()
    models = []
    for i, _ in members:
        # A member missing from the results follows a failed member of its worker.
        if isinstance(results[i], Exception):
            raise results[i]
        models.append(results[i])
    return models


# ---------------------------------------------------------------------------
# Spearman rank correlation
# ---------------------------------------------------------------------------

def _average_ranks(a: np.ndarray) -> np.ndarray:
    _, group, counts = np.unique(a, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[group]  # average of ranks end-count+1..end


def spearman(a, b) -> float:
    """Spearman rank correlation with average ranks for ties."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.shape[0] < 2:
        raise ValueError("need two equal-length lists with >= 2 entries")
    ra, rb = _average_ranks(a), _average_ranks(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra @ ra) * (rb @ rb))
    if denom == 0.0:
        raise ValueError("constant input")
    return float(np.clip((ra @ rb) / denom, -1.0, 1.0))


# ---------------------------------------------------------------------------
# Serialization (versioned, bitwise-exact)
# ---------------------------------------------------------------------------
#
# Layout: 8-byte magic, u32 header length, JSON header (version 1; per
# model its [weight shape, bias shape] layers, val_mse and val_spearman),
# then raw little-endian float64 buffers, each layer's weights and then its
# biases, in header order.  Plain bytes, no timestamps, so identical models
# serialize to identical files.  The program only writes them; the test
# suite reads them back bit for bit.

_MAGIC = b"ENSMBO01"


def _metric(v):
    """null, not a bare NaN, for a metric undefined on constant targets."""
    return None if v is None or not np.isfinite(v) else v


def _model_header(model: MlpModel) -> dict:
    return {
        "layers": [[list(w.shape), list(b.shape)] for w, b in zip(model.weights, model.biases)],
        "val_mse": _metric(model.val_mse),
        "val_spearman": _metric(model.val_spearman),
    }


def save_ensemble(ens: Ensemble, path) -> None:
    header = {"version": 1, "models": [_model_header(m) for m in ens.models]}
    blob = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for m in ens.models:
            for w, b in zip(m.weights, m.biases):
                f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
                f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
