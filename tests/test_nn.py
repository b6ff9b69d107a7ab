import glob
import os
import shutil
import sys
from dataclasses import replace

import numpy as np
import pytest

from ensmbo import nn
from ensmbo.core import Dataset, DesignSpace, encode, select_bottom_fraction
from ensmbo.nn import (
    Ensemble,
    MlpModel,
    TrainConfig,
    init_mlp,
    load_ensemble,
    save_ensemble,
    spearman,
    train,
    train_arrays,
    train_ensemble,
)
from ensmbo.tasks import make_minibind

from helpers import linear_model, reference_train_arrays


def zero_mlp(input_dim, hidden=(8,)):
    m = init_mlp(input_dim, hidden, np.random.default_rng(0))
    m.weights = [np.zeros_like(w) for w in m.weights]
    m.biases = [np.zeros_like(b) for b in m.biases]
    return m


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def test_forward_zero_net():
    m = zero_mlp(3)
    assert m.forward(np.array([1.0, -2.0, 5.0])) == 0.0


def test_forward_linear_dot_product():
    m = linear_model([1.0, 2.0])
    assert m.forward(np.array([3.0, 4.0])) == 11.0


def test_forward_matches_handrolled_chain():
    rng = np.random.default_rng(17)
    m = init_mlp(5, (7, 6), rng)
    x = rng.standard_normal(5)

    # independent re-implementation with explicit loops
    def hand_forward(x):
        a = list(x)
        for w, b in zip(m.weights[:-1], m.biases[:-1]):
            nxt = []
            for j in range(w.shape[1]):
                s = b[j]
                for i in range(w.shape[0]):
                    s += a[i] * w[i, j]
                nxt.append(max(s, 0.0))
            a = nxt
        s = m.biases[-1][0]
        for i in range(len(a)):
            s += a[i] * m.weights[-1][i, 0]
        return s

    assert m.forward(x) == pytest.approx(hand_forward(x), rel=1e-12)


def test_forward_dimension_mismatch():
    m = linear_model([1.0, 2.0])
    with pytest.raises(ValueError):
        m.forward(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        m.forward_batch(np.ones((2, 3)))


def test_forward_batch_matches_single():
    rng = np.random.default_rng(4)
    m = init_mlp(6, (12,), rng)
    X = rng.standard_normal((10, 6))
    batch = m.forward_batch(X)
    singles = np.array([m.forward(x) for x in X])
    assert np.allclose(batch, singles, rtol=1e-14)


# ---------------------------------------------------------------------------
# input gradients
# ---------------------------------------------------------------------------

def test_gradient_of_linear_model_is_w():
    w = np.array([0.5, -1.5, 2.0])
    m = linear_model(w, b=3.0)
    g = m.input_gradient(np.array([1.0, 1.0, 1.0]))
    assert np.array_equal(g, w)


def test_gradient_zero_net():
    m = zero_mlp(4)
    assert np.array_equal(m.input_gradient(np.ones(4)), np.zeros(4))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(30):
        dim = int(rng.integers(2, 9))
        m = init_mlp(dim, (10, 10), rng)
        x = rng.standard_normal(dim)
        # stay away from ReLU kinks
        a = x
        ok = True
        for w, b in zip(m.weights[:-1], m.biases[:-1]):
            z = a @ w + b
            if np.min(np.abs(z)) < 1e-4:
                ok = False
                break
            a = np.maximum(z, 0.0)
        if not ok:
            continue
        g = m.input_gradient(x)
        fd = np.empty(dim)
        for i in range(dim):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (m.forward(xp) - m.forward(xm)) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(g - fd) / denom) < 1e-4


def test_relu_kink_uses_zero_subgradient():
    # single hidden unit with pre-activation exactly 0 at x
    m = MlpModel(
        weights=[np.array([[1.0]]), np.array([[1.0]])],
        biases=[np.array([0.0]), np.array([0.0])],
    )
    assert m.input_gradient(np.array([0.0])) == np.array([0.0])
    assert m.input_gradient(np.array([1.0])) == np.array([1.0])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_recovers_linear_function():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((512, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.25
    cfg = TrainConfig(epochs=400, batch_size=128, learning_rate=1e-2,
                      weight_decay=0.0, seed=1, patience=400, hidden=())
    m = train_arrays(X, y, cfg)
    pred = m.forward_batch(X)
    assert np.mean((pred - y) ** 2) < 1e-4


def test_train_constant_targets():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((300, 3))
    y = np.full(300, 7.5)
    cfg = TrainConfig(epochs=400, batch_size=64, learning_rate=5e-2, weight_decay=0.0,
                      seed=0, patience=400, hidden=())
    m = train_arrays(X, y, cfg)
    assert m.val_mse < 1e-4
    assert np.isnan(m.val_spearman)  # rank correlation undefined on constants


def test_train_is_deterministic():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((300, 5))
    y = np.sin(X[:, 0]) + X[:, 1]
    cfg = TrainConfig(epochs=5, batch_size=64, seed=9)
    m1, m2 = train_arrays(X, y, cfg), train_arrays(X, y, cfg)
    for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
        assert np.array_equal(a, b)


def test_train_aborts_on_nonfinite_loss():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((64, 2))
    y = np.full(64, 1e200)
    cfg = TrainConfig(epochs=2, batch_size=32, seed=0)
    with pytest.raises(FloatingPointError, match="non-finite"):
        train_arrays(X, y, cfg)


def _same_model(got, want):
    for a, b in zip(got.weights + got.biases, want.weights + want.biases):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert got.val_mse == want.val_mse
    assert np.array_equal(got.val_spearman, want.val_spearman, equal_nan=True)


def _onehot_rows(rng, n, seq_len=6, vocab=4):
    return encode(rng.integers(0, vocab, (n, seq_len)), DesignSpace.discrete(seq_len, vocab))


# (matrix, rows, explicit validation rows, config, early stopping fires)
FUSED_STEP_CASES = {
    "continuous-no-decay-internal-split": (
        "continuous", 300, None,
        TrainConfig(epochs=6, batch_size=64, weight_decay=0.0, seed=3, hidden=(16, 8)), False),
    "continuous-decay-validation": (
        "continuous", 333, 70,
        TrainConfig(epochs=5, batch_size=100, weight_decay=1e-6, seed=4), False),
    "onehot-decay-early-stop": (
        "onehot", 517, 90,
        TrainConfig(epochs=60, batch_size=50, learning_rate=5e-2, weight_decay=1e-6, seed=5,
                    patience=1, hidden=(8, 8)), True),
    "onehot-no-decay-internal-split": (
        "onehot", 290, None,
        TrainConfig(epochs=4, batch_size=64, weight_decay=0.0, seed=6), False),
}


@pytest.mark.parametrize("case", sorted(FUSED_STEP_CASES))
def test_fused_step_matches_per_parameter_loop_bitwise(case, monkeypatch):
    kind, n, n_val, cfg, stops_early = FUSED_STEP_CASES[case]
    rng = np.random.default_rng(len(case))
    X = _onehot_rows(rng, n + (n_val or 0)) if kind == "onehot" else rng.standard_normal((n + (n_val or 0), 7))
    y = np.sin(X @ rng.standard_normal(X.shape[1])) + 0.1 * rng.standard_normal(X.shape[0])
    val = () if n_val is None else (X[n:], y[n:])
    train_rows = n - max(1, n // 10) if n_val is None else n
    assert train_rows % cfg.batch_size != 0  # a short last batch
    epochs, mse = [], nn._mse  # _mse runs once per epoch
    monkeypatch.setattr(nn, "_mse", lambda *a: epochs.append(1) or mse(*a))
    _same_model(train_arrays(X[:n], y[:n], cfg, *val), reference_train_arrays(X[:n], y[:n], cfg, *val))
    assert (len(epochs) < cfg.epochs) == stops_early


def test_train_aborts_on_nonfinite_weights():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((64, 2))
    y = np.full(64, 100.0)
    cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=1e308, seed=0)
    with pytest.raises(FloatingPointError) as want:
        reference_train_arrays(X, y, cfg)
    with pytest.raises(FloatingPointError) as got:
        train_arrays(X, y, cfg)
    assert str(got.value) == str(want.value) == "non-finite weights after epoch 0 update"


def test_train_needs_enough_rows():
    with pytest.raises(ValueError):
        train_arrays(np.ones((4, 2)), np.ones(4), TrainConfig(batch_size=8))


def test_train_on_dataset_wrapper():
    rng = np.random.default_rng(6)
    designs = rng.standard_normal((200, 3))
    ds = Dataset(space=DesignSpace.continuous(3), designs=designs,
                 scores=designs @ np.ones(3))
    m = train(ds, TrainConfig(epochs=3, batch_size=64, seed=0))
    assert np.isfinite(m.val_mse)


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def _toy_dataset(n=600, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    designs = rng.standard_normal((n, dim))
    return Dataset(space=DesignSpace.continuous(dim), designs=designs,
                   scores=designs @ np.arange(1.0, dim + 1.0))


def test_ensemble_folds_disjoint_and_cover():
    ds = _toy_dataset(600)
    cfg = TrainConfig(epochs=1, batch_size=64, seed=0)
    # reproduce the fold split to check sizes
    ens = train_ensemble(ds, 6, cfg)
    assert ens.size == 6
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(600)
    folds = np.array_split(perm, 6)
    assert sorted(np.concatenate(folds).tolist()) == list(range(600))
    assert all(len(f) == 100 for f in folds)
    # disjoint
    seen = set()
    for f in folds:
        fs = set(f.tolist())
        assert not (fs & seen)
        seen |= fs


def test_ensemble_same_seed_bitwise_identical():
    ds = _toy_dataset(240)
    cfg = TrainConfig(epochs=2, batch_size=32, seed=123)
    e1 = train_ensemble(ds, 3, cfg)
    e2 = train_ensemble(ds, 3, cfg)
    for m1, m2 in zip(e1.models, e2.models):
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            assert np.array_equal(a, b)


def test_ensemble_members_differ():
    ds = _toy_dataset(240)
    e = train_ensemble(ds, 3, TrainConfig(epochs=2, batch_size=32, seed=0))
    w0 = e.models[0].weights[0]
    assert not np.array_equal(w0, e.models[1].weights[0])


def test_ensemble_m1_uses_internal_split():
    ds = _toy_dataset(200)
    e = train_ensemble(ds, 1, TrainConfig(epochs=2, batch_size=32, seed=0))
    assert e.size == 1 and np.isfinite(e.models[0].val_mse)


def test_ensemble_fold_too_small():
    ds = _toy_dataset(4)
    with pytest.raises(ValueError, match="fold"):
        train_ensemble(ds, 6, TrainConfig(epochs=1, batch_size=2, seed=0))


def _serial_folds(ds, m, cfg):
    """The fold loop run in this process: the reference for the workers."""
    X, y = encode(ds.designs, ds.space), ds.scores
    folds = np.array_split(np.random.default_rng(cfg.seed).permutation(len(ds)), m)
    models = []
    for i, fold in enumerate(folds):
        train_idx = np.concatenate([f for j, f in enumerate(folds) if j != i])
        models.append(train_arrays(X[train_idx], y[train_idx], replace(cfg, seed=cfg.seed + i),
                                   X[fold], y[fold]))
    return models


def _child_pids():
    """Children of this process, zombies included."""
    pids = []
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path, encoding="ascii") as f:
            pids += f.read().split()
    return pids


@pytest.fixture
def two_cpus(monkeypatch):
    """Train in two workers whatever the machine's CPU count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.mark.parametrize("m", [2, 3, 5])
def test_ensemble_workers_match_serial_fold_training(two_cpus, m):
    ds = _toy_dataset(300)
    cfg = TrainConfig(epochs=3, batch_size=32, seed=11)
    ens = train_ensemble(ds, m, cfg)
    assert _child_pids() == []
    ref = _serial_folds(ds, m, cfg)
    assert ens.size == m
    for got, want in zip(ens.models, ref):
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)
        assert got.val_mse == want.val_mse
        assert got.val_spearman == want.val_spearman


def test_ensemble_worker_error_is_the_serial_one(two_cpus):
    # 62 rows in 5 folds of 13, 13, 12, 12, 12: folds 0 and 1 train on 49 rows.
    ds = _toy_dataset(62)
    cfg = TrainConfig(epochs=1, batch_size=50, seed=0)
    with pytest.raises(ValueError) as want:
        _serial_folds(ds, 5, cfg)
    with pytest.raises(ValueError) as got:
        train_ensemble(ds, 5, cfg)
    assert str(got.value) == str(want.value)
    assert "got 49 rows for batch_size 50" in str(got.value)
    assert _child_pids() == []


def test_ensemble_worker_nonfinite_loss_is_the_serial_one(two_cpus):
    ds = _toy_dataset(240)
    cfg = TrainConfig(epochs=2, batch_size=32, learning_rate=1e200, seed=0)
    with pytest.raises(FloatingPointError) as want:
        _serial_folds(ds, 3, cfg)
    with pytest.raises(FloatingPointError) as got:
        train_ensemble(ds, 3, cfg)
    assert str(got.value) == str(want.value)
    assert _child_pids() == []


def test_ensemble_worker_without_result_is_named(two_cpus, monkeypatch):
    monkeypatch.setattr(sys, "executable", shutil.which("false"))
    with pytest.raises(RuntimeError, match=r"worker 0 \(folds \[0, 2\]\) exited with code 1"):
        train_ensemble(_toy_dataset(240), 3, TrainConfig(epochs=1, batch_size=32, seed=0))
    assert _child_pids() == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
@pytest.mark.parametrize("m", [1, 3])
def test_no_one_builds_the_full_design_matrix(monkeypatch, cpus, m):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    rows = []
    monkeypatch.setattr(nn, "encode", lambda designs, space: rows.append(len(designs)) or encode(designs, space))
    ds = _toy_dataset(240)
    cfg = TrainConfig(epochs=2, batch_size=32, seed=2)
    ens = train_ensemble(ds, m, cfg)
    assert len(ds) not in rows
    if m == 1 or cpus == {0}:  # trained in this process: each fold built its own matrices
        assert sorted(rows) == sorted([24, 216] if m == 1 else [80] * 3 + [160] * 3)
    else:
        assert rows == []
    ref = [reference_train_arrays(encode(ds.designs, ds.space), ds.scores, cfg)] if m == 1 else _serial_folds(ds, m, cfg)
    for got, want in zip(ens.models, ref):
        _same_model(got, want)


def test_ensemble_requires_matching_dims():
    with pytest.raises(ValueError):
        Ensemble(models=[linear_model([1.0, 2.0]), linear_model([1.0])])
    with pytest.raises(ValueError):
        Ensemble(models=[])


def test_minibind_validation_spearman_floor():
    task = make_minibind(0)
    mbo = select_bottom_fraction(task.total_dataset(), 0.5)
    m = train(mbo, TrainConfig(epochs=10, batch_size=256, seed=0))
    assert m.val_spearman > 0.4


# ---------------------------------------------------------------------------
# spearman
# ---------------------------------------------------------------------------

def test_spearman_monotone_is_one():
    assert spearman([1, 2, 3], [10, 20, 40]) == 1.0


def test_spearman_reversed_is_minus_one():
    assert spearman([1, 2, 3, 4], [8, 6, 4, 2]) == -1.0


def test_spearman_hand_computed():
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)


def test_spearman_ties_use_average_ranks():
    # ranks of a: (1.5, 1.5, 3); hand-computed Pearson on ranks
    a = [5.0, 5.0, 9.0]
    b = [1.0, 2.0, 3.0]
    ra = np.array([1.5, 1.5, 3.0])
    rb = np.array([1.0, 2.0, 3.0])
    expected = np.corrcoef(ra, rb)[0, 1]
    assert spearman(a, b) == pytest.approx(expected)


def test_spearman_errors():
    with pytest.raises(ValueError, match="constant"):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman([1.0], [2.0])
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_ensemble_roundtrip_and_resave_identical(tmp_path):
    rng = np.random.default_rng(8)
    ens = Ensemble(models=[init_mlp(4, (6,), rng) for _ in range(3)])
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_ensemble(ens, p1)
    back = load_ensemble(p1)
    save_ensemble(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a model file at all")
    with pytest.raises(ValueError):
        load_ensemble(path)
