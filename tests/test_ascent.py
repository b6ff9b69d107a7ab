from dataclasses import replace

import numpy as np
import pytest

from ensmbo.ascent import (
    AscentConfig,
    Combiner,
    _ascend_rows,
    _ModelBank,
    ascend_batch,
    write_trajectory_csv,
)
from ensmbo.core import DesignSpace, decode, encode
from ensmbo.nn import Ensemble, MlpModel, init_mlp

from helpers import PointModel, QuadraticModel, linear_model, reference_ascent


def identity_space(dim):
    return DesignSpace.continuous(dim, mean=np.zeros(dim), std=np.ones(dim))


def zero_model(dim):
    return MlpModel(weights=[np.zeros((dim, 1))], biases=[np.zeros(1)])


# ---------------------------------------------------------------------------
# hardening: the final iterate of a discrete ascent is decoded to tokens
# ---------------------------------------------------------------------------

def test_harden_argmax_block():
    space = DesignSpace.discrete(1, 4)
    assert np.array_equal(decode([[0.2, 0.9, -0.1, 0.0]], space), [[1]])
    assert np.array_equal(decode([[-1.0, 0.3, -0.2, 0.1]], space), [[1]])


def test_harden_tie_goes_to_lowest_token():
    space = DesignSpace.discrete(1, 4)
    assert np.array_equal(decode([[0.5, 0.5, 0.5, 0.5]], space), [[0]])
    assert np.array_equal(decode([[0.0, 0.7, 0.2, 0.7]], space), [[1]])


def test_harden_idempotent():
    space = DesignSpace.discrete(2, 3)
    once = decode([[0.1, 2.0, 0.3, -1.0, 0.0, 4.0]], space)
    assert once.dtype == np.uint8 and np.array_equal(once, [[1, 2]])
    assert np.array_equal(decode(encode(once, space), space), once)


def test_harden_rejects_nonfinite_and_bad_shape():
    space = DesignSpace.discrete(1, 3)
    with pytest.raises(ValueError, match="finite"):
        decode([[np.nan, 0.0, 1.0]], space)
    with pytest.raises(ValueError, match=r"shape \(1, 4\)"):
        decode(np.zeros((1, 4)), space)
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        decode(np.zeros(3), space)


# ---------------------------------------------------------------------------
# ascent on continuous spaces
# ---------------------------------------------------------------------------

def test_single_step_mean_combiner_closed_form():
    space = identity_space(2)
    models = [linear_model([1.0, 0.0]), linear_model([0.0, 2.0])]
    ens = Ensemble(models=models)
    start = np.array([1.0, -1.0])
    cfg = AscentConfig(steps=1, alpha=0.5, combiner=Combiner.MEAN)
    traj = ascend_batch([start], space, ens, cfg)[0]
    assert np.array_equal(traj.final, start + 0.5 * np.array([0.5, 1.0]))


def test_zero_gradients_are_a_fixed_point():
    space = identity_space(3)
    ens = Ensemble(models=[zero_model(3), zero_model(3)])
    start = np.array([0.5, -0.25, 2.0])
    traj = ascend_batch([start], space, ens, AscentConfig(steps=5, alpha=1.0, combiner=Combiner.MGDA))[0]
    assert np.allclose(traj.final, start)


def test_zero_steps_returns_start():
    space = identity_space(2)
    ens = Ensemble(models=[linear_model([1.0, 1.0])])
    start = np.array([0.3, 0.7])
    traj = ascend_batch([start], space, ens, AscentConfig(steps=0, alpha=0.1, combiner=Combiner.MEAN))[0]
    assert np.allclose(traj.final, start)


def test_continuous_normalization_round_trip_in_ascent():
    space = DesignSpace.continuous(2, mean=[1.0, -1.0], std=[2.0, 4.0])
    # model sees normalized inputs; gradient in normalized space is w
    ens = Ensemble(models=[linear_model([1.0, 0.0])])
    start = np.array([1.0, -1.0])  # normalizes to the origin
    traj = ascend_batch([start], space, ens, AscentConfig(steps=1, alpha=1.0, combiner=Combiner.SINGLE))[0]
    # one normalized step of (1,0) de-normalizes to sigma scaling
    assert np.allclose(traj.final, [1.0 + 2.0, -1.0])


def test_gradient_normalization_flag_off_by_default():
    space = identity_space(2)
    models = [linear_model([4.0, 0.0]), linear_model([0.0, 1.0])]
    ens = Ensemble(models=models)
    start = np.zeros(2)
    plain = ascend_batch([start], space, ens, AscentConfig(steps=1, alpha=1.0, combiner=Combiner.MEAN))[0]
    assert np.array_equal(plain.final, [2.0, 0.5])  # raw mean of (4,0) and (0,1)


def test_mean_on_single_model_equals_single_combiner():
    space = identity_space(3)
    rng = np.random.default_rng(0)
    ens = Ensemble(models=[init_mlp(3, (8,), rng)])
    start = rng.standard_normal(3)
    a = ascend_batch([start], space, ens, AscentConfig(steps=7, alpha=0.1, combiner=Combiner.MEAN))[0]
    b = ascend_batch([start], space, ens, AscentConfig(steps=7, alpha=0.1, combiner=Combiner.SINGLE))[0]
    assert np.array_equal(a.final, b.final)


def test_unrecorded_single_evaluates_member_0_only():
    space = identity_space(3)
    rng = np.random.default_rng(1)
    good = init_mlp(3, (8,), rng)
    bad = MlpModel(weights=[np.full((3, 1), np.nan)], biases=[np.zeros(1)])
    start = rng.standard_normal(3)
    cfg = AscentConfig(steps=6, alpha=0.1, combiner=Combiner.SINGLE)
    want = ascend_batch([start], space, Ensemble(models=[good]), cfg)[0]
    got = ascend_batch([start], space, Ensemble(models=[good, bad]), cfg)[0]
    assert np.array_equal(got.final, want.final)
    batch = ascend_batch([start, start], space, Ensemble(models=[good, bad]), cfg)
    assert all(np.array_equal(t.final, want.final) for t in batch)
    # A recorded run evaluates every member, so member 1 fails it.
    recorded = AscentConfig(steps=6, alpha=0.1, combiner=Combiner.SINGLE, record_trajectory=True)
    with pytest.raises(RuntimeError,
                       match=r"^trajectory 0 failed at step 0 \(single\): non-finite model output$") as info:
        ascend_batch([start], space, Ensemble(models=[good, bad]), recorded)
    assert type(info.value.__cause__) is FloatingPointError


# ---------------------------------------------------------------------------
# discrete spaces
# ---------------------------------------------------------------------------

def test_discrete_ascent_produces_hard_finals():
    space = DesignSpace.discrete(4, 3)
    rng = np.random.default_rng(1)
    ens = Ensemble(models=[init_mlp(space.flat_dim, (8,), rng) for _ in range(2)])
    starts = [rng.integers(0, 3, size=4) for _ in range(6)]
    cfg = AscentConfig(steps=3, alpha=0.5, combiner=Combiner.MGDA)
    for traj in ascend_batch(starts, space, ens, cfg):
        assert traj.final.dtype == np.uint8 and traj.final.shape == (4,)
        assert np.all((traj.final >= 0) & (traj.final < 3))


def test_discrete_zero_gradient_returns_start_hardened():
    space = DesignSpace.discrete(2, 3)
    ens = Ensemble(models=[zero_model(space.flat_dim)])
    start = np.array([2, 0])
    traj = ascend_batch([start], space, ens, AscentConfig(steps=4, alpha=1.0, combiner=Combiner.MEAN))[0]
    assert traj.final.dtype == np.uint8
    assert np.array_equal(traj.final, start)


def test_discrete_refuses_onehot_start():
    space = DesignSpace.discrete(2, 2)
    ens = Ensemble(models=[zero_model(space.flat_dim)])
    cfg = AscentConfig(steps=1, alpha=1.0, combiner=Combiner.MEAN)
    with pytest.raises(RuntimeError, match=r"^trajectory 0 failed: designs have shape \(1, 4\), "
                                           r"the space expects \(N, 2\) raw tokens$") as info:
        ascend_batch([encode([[1, 0]], space)[0]], space, ens, cfg)
    assert type(info.value.__cause__) is ValueError
    with pytest.raises(RuntimeError, match="^trajectory 0 failed: .*integer tokens; harden") as info:
        ascend_batch([np.array([0.5, 1.0])], space, ens, cfg)
    assert type(info.value.__cause__) is ValueError


@pytest.mark.parametrize("start, cause", [
    ([5, 0], r"token out of range \[0, 4\)"),
    ([-1, 0], r"token out of range \[0, 4\)"),
    ([0, 4], r"token out of range \[0, 4\)"),
    ([1.7, 2], "must be integer tokens"),
])
def test_bad_start_tokens_are_refused(start, cause):
    space = DesignSpace.discrete(2, 4)
    ens = Ensemble(models=[zero_model(space.flat_dim)])
    cfg = AscentConfig(steps=0, alpha=1.0, combiner=Combiner.MEAN)
    with pytest.raises(RuntimeError, match=f"^trajectory 0 failed: .*{cause}") as info:
        ascend_batch([start], space, ens, cfg)
    assert type(info.value.__cause__) is ValueError
    with pytest.raises(RuntimeError, match=f"^trajectory 1 failed: .*{cause}"):
        ascend_batch([[0, 0], start], space, ens, cfg)


# ---------------------------------------------------------------------------
# ensemble evaluation by rows
# ---------------------------------------------------------------------------

def test_bank_rows_match_each_member_bitwise():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m, dim = int(rng.integers(1, 7)), int(rng.integers(2, 41))
        hidden = tuple(int(h) for h in rng.integers(1, 65, size=int(rng.integers(0, 3))))
        models = [init_mlp(dim, hidden, rng) for _ in range(m)]
        # one member of other hidden sizes: the members need not share a shape
        models.append(init_mlp(dim, tuple(int(h) for h in rng.integers(1, 65, size=2)), rng))
        for mdl in models:  # nonzero biases so every term of the kernel counts
            mdl.biases = [0.1 * rng.standard_normal(b.shape) for b in mdl.biases]
        bank = _ModelBank(models)
        for n_rows in (1, 5):
            X = rng.standard_normal((n_rows, dim))
            vals, grads = bank.value_and_grad(X)
            assert vals.shape == (n_rows, len(models)) and grads.shape == (n_rows, len(models), dim)
            for r, x in enumerate(X):
                for i, mdl in enumerate(models):
                    val, grad = mdl.value_and_grad_rows(x[None])
                    assert vals[r, i] == val[0]
                    assert np.array_equal(grads[r, i], grad[0])
        point_vals, point_grads = bank.value_and_grad(X[0])
        assert np.array_equal(point_vals, vals[0]) and np.array_equal(point_grads, grads[0])


# ---------------------------------------------------------------------------
# determinism and batching
# ---------------------------------------------------------------------------

def test_ascend_is_deterministic_and_batch_matches_single():
    space = identity_space(4)
    rng = np.random.default_rng(3)
    ens = Ensemble(models=[init_mlp(4, (10,), rng) for _ in range(3)])
    starts = [rng.standard_normal(4) for _ in range(4)]
    cfg = AscentConfig(steps=10, alpha=0.05, combiner=Combiner.CAGRAD, cagrad_c=0.4,
                       record_trajectory=True)
    batch = ascend_batch(starts, space, ens, cfg)
    for start, traj in zip(starts, batch):
        solo = ascend_batch([start], space, ens, cfg)[0]
        assert np.array_equal(solo.final, traj.final)
        assert np.array_equal(solo.xs, traj.xs)
        assert np.array_equal(solo.preds, traj.preds)


def test_duplicate_starts_identical_trajectories():
    space = identity_space(2)
    rng = np.random.default_rng(4)
    ens = Ensemble(models=[init_mlp(2, (6,), rng) for _ in range(2)])
    start = rng.standard_normal(2)
    t1, t2 = ascend_batch([start, start], space, ens,
                          AscentConfig(steps=5, alpha=0.1, combiner=Combiner.MIN))
    assert np.array_equal(t1.final, t2.final)


def test_batch_failure_carries_index():
    space = identity_space(2)
    ens = Ensemble(models=[linear_model([1.0, 1.0])])
    good = np.zeros(2)
    bad = np.zeros(3)
    with pytest.raises(RuntimeError, match="trajectory 1"):
        ascend_batch([good, bad], space, ens, AscentConfig(steps=1, alpha=0.1, combiner=Combiner.MEAN))


def test_input_dim_mismatch_errors():
    ens = Ensemble(models=[linear_model([1.0, 1.0, 1.0])])
    cfg = AscentConfig(steps=1, alpha=0.1, combiner=Combiner.MEAN)
    with pytest.raises(RuntimeError,
                       match=r"^trajectory 0 failed: ensemble input_dim does not match the space$") as info:
        ascend_batch([np.zeros(2)], identity_space(2), ens, cfg)
    assert type(info.value.__cause__) is ValueError
    with pytest.raises(RuntimeError, match=r"^trajectory 0 failed: ensemble input_dim does not match the space$"):
        ascend_batch([np.zeros(2), np.zeros(3)], identity_space(2), ens, cfg)


def test_batch_requires_starts():
    space = identity_space(2)
    ens = Ensemble(models=[linear_model([1.0, 1.0])])
    with pytest.raises(ValueError):
        ascend_batch([], space, ens, AscentConfig(steps=1, alpha=0.1, combiner=Combiner.MEAN))


def test_nonfinite_abort_names_step():
    space = identity_space(2)
    big = MlpModel(weights=[np.full((2, 1), 1e300)], biases=[np.zeros(1)])
    ens = Ensemble(models=[big])
    cfg = AscentConfig(steps=5, alpha=1e300, combiner=Combiner.MEAN)
    with pytest.raises((FloatingPointError, RuntimeError), match="step"):
        ascend_batch([np.array([1.0, 1.0])], space, ens, cfg)


# ---------------------------------------------------------------------------
# trajectory recording
# ---------------------------------------------------------------------------

def test_recording_has_steps_plus_one_states():
    space = identity_space(2)
    rng = np.random.default_rng(5)
    ens = Ensemble(models=[init_mlp(2, (6,), rng) for _ in range(3)])
    cfg = AscentConfig(steps=8, alpha=0.05, combiner=Combiner.MEAN, record_trajectory=True)
    traj = ascend_batch([rng.standard_normal(2)], space, ens, cfg)[0]
    assert traj.xs.shape == (9, 2)
    assert traj.preds.shape == (9, 3)
    assert traj.d_norms.shape == (9,)
    assert np.all(np.isfinite(traj.xs))


@pytest.mark.parametrize("combiner", list(Combiner))
def test_observer_sees_every_state_the_recorded_trajectory_holds(combiner):
    space = identity_space(3)
    rng = np.random.default_rng(12)
    ens = Ensemble(models=[init_mlp(3, (8,), rng) for _ in range(3)])
    starts = [rng.standard_normal(3) for _ in range(4)]
    cfg = AscentConfig(steps=7, alpha=0.1, combiner=combiner, cagrad_c=0.4)
    seen = []
    last = _ascend_rows(encode(starts, space), ens, cfg,
                        lambda k, X, vals, D: seen.append((k, X.copy(), vals.copy(), D.copy())))
    assert [k for k, *_ in seen] == list(range(cfg.steps + 1))
    assert np.array_equal(_ascend_rows(encode(starts, space), ens, cfg), last)
    assert np.array_equal(seen[-1][1], last)
    recorded = ascend_batch(starts, space, ens, replace(cfg, record_trajectory=True))
    for i, traj in enumerate(recorded):
        assert np.array_equal(traj.final, decode(last, space)[i])
        assert np.array_equal(traj.xs, [X[i] for _, X, _, _ in seen])
        assert np.array_equal(traj.preds, [vals[i] for _, _, vals, _ in seen])  # every member, even for single
        assert np.array_equal(traj.d_norms, [np.linalg.norm(D[i]) for _, _, _, D in seen])


def test_trajectory_csv_format(tmp_path):
    space = identity_space(2)
    rng = np.random.default_rng(6)
    ens = Ensemble(models=[init_mlp(2, (4,), rng) for _ in range(2)])
    cfg = AscentConfig(steps=3, alpha=0.1, combiner=Combiner.MEAN, record_trajectory=True)
    traj = ascend_batch([rng.standard_normal(2)], space, ens, cfg)[0]
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,pred_1,pred_2,d_norm"
    assert len(lines) == 5  # header + T+1 states
    unrecorded = ascend_batch([rng.standard_normal(2)], space, ens,
                              AscentConfig(steps=1, alpha=0.1, combiner=Combiner.MEAN))[0]
    with pytest.raises(ValueError):
        write_trajectory_csv(unrecorded, path)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_ascent_config_validation():
    with pytest.raises(ValueError):
        AscentConfig(steps=-1, alpha=0.1)
    with pytest.raises(ValueError):
        AscentConfig(steps=1, alpha=0.0)
    with pytest.raises(ValueError):
        AscentConfig(steps=1, alpha=0.1, combiner=Combiner.CAGRAD, cagrad_c=1.0)


# ---------------------------------------------------------------------------
# convergence on an analytic concave ensemble
# ---------------------------------------------------------------------------

def test_cagrad_converges_to_average_stationary_point():
    rng = np.random.default_rng(7)
    targets = rng.standard_normal((4, 3))
    ens = Ensemble(models=[QuadraticModel(t) for t in targets])
    space = identity_space(3)
    start = targets.mean(axis=0) + np.array([2.0, -1.5, 1.0])
    cfg = AscentConfig(steps=2000, alpha=0.05, combiner=Combiner.CAGRAD, cagrad_c=0.5)
    traj = ascend_batch([start], space, ens, cfg)[0]
    avg_grad = np.mean([m.input_gradient(traj.final) for m in ens.models], axis=0)
    assert np.linalg.norm(avg_grad) < 1e-3


def test_mgda_reaches_pareto_stationary_point():
    rng = np.random.default_rng(8)
    targets = rng.standard_normal((3, 2)) * 2.0
    ens = Ensemble(models=[QuadraticModel(t) for t in targets])
    space = identity_space(2)
    start = targets.mean(axis=0) + np.array([4.0, 3.0])
    cfg = AscentConfig(steps=2000, alpha=0.05, combiner=Combiner.MGDA, record_trajectory=True)
    traj = ascend_batch([start], space, ens, cfg)[0]
    # the recorded final d is the min-norm point of the gradient hull
    assert traj.d_norms[-1] < 1e-3


# ---------------------------------------------------------------------------
# lockstep batching
# ---------------------------------------------------------------------------

def _lockstep_case(discrete):
    rng = np.random.default_rng(12 if discrete else 13)
    space = DesignSpace.discrete(4, 3) if discrete else identity_space(5)
    models = [init_mlp(space.flat_dim, (8,), rng) for _ in range(3)]
    for mdl in models:
        mdl.biases = [0.1 * rng.standard_normal(b.shape) for b in mdl.biases]
    starts = [rng.integers(0, 3, size=4) if discrete else rng.standard_normal(5) for _ in range(9)]
    return space, Ensemble(models=models), starts


@pytest.mark.parametrize("discrete", [False, True])
@pytest.mark.parametrize("combiner", list(Combiner))
def test_batch_equals_solo_and_per_point_ascent_bitwise(combiner, discrete):
    space, ens, starts = _lockstep_case(discrete)
    cfg = AscentConfig(steps=12, alpha=0.3, combiner=combiner, cagrad_c=0.4, record_trajectory=True)
    batch = ascend_batch(starts, space, ens, cfg)
    for start, traj in zip(starts, batch):
        solo = ascend_batch([start], space, ens, cfg)[0]
        for name in ("final", "xs", "preds", "d_norms"):
            assert np.array_equal(getattr(traj, name), getattr(solo, name)), name
        final, xs, preds, d_norms = reference_ascent(start, space, ens, cfg)
        assert np.array_equal(traj.final, final)
        assert np.array_equal(traj.xs, xs)
        assert np.array_equal(traj.preds, preds)
        assert np.array_equal(traj.d_norms, d_norms)


@pytest.mark.parametrize("combiner", [Combiner.MGDA, Combiner.CAGRAD])
def test_row_result_independent_of_other_rows(combiner):
    space, ens, starts = _lockstep_case(False)
    cfg = AscentConfig(steps=10, alpha=0.3, combiner=combiner, cagrad_c=0.4, record_trajectory=True)
    full = ascend_batch(starts, space, ens, cfg)
    perm = np.random.default_rng(14).permutation(len(starts))
    for pos, traj in zip(perm, ascend_batch([starts[i] for i in perm], space, ens, cfg)):
        assert np.array_equal(traj.xs, full[pos].xs)
        assert np.array_equal(traj.d_norms, full[pos].d_norms)
    kept = [1, 4, 6]
    for pos, traj in zip(kept, ascend_batch([starts[i] for i in kept], space, ens, cfg)):
        assert np.array_equal(traj.xs, full[pos].xs)
        assert np.array_equal(traj.final, full[pos].final)


class _BlowsUp(PointModel):
    """f(x) = x[0] with gradient (1, 0), non-finite from x[0] = 5.5 on."""

    input_dim = 2

    def value_and_grad(self, x):
        return (float(x[0]) if x[0] < 5.5 else float("inf")), np.array([1.0, 0.0])


def test_batch_failure_names_lowest_row_step_and_combiner():
    ens = Ensemble(models=[_BlowsUp()])
    starts = [np.zeros(2), np.zeros(2), np.array([2.5, 0.0]), np.zeros(2)]
    cfg = AscentConfig(steps=5, alpha=1.0, combiner=Combiner.MEAN)
    with pytest.raises(RuntimeError,
                       match=r"^trajectory 2 failed at step 3 \(mean\): non-finite model output$"):
        ascend_batch(starts, identity_space(2), ens, cfg)
    with pytest.raises(RuntimeError,
                       match=r"^trajectory 0 failed at step 3 \(mean\): non-finite model output$") as info:
        ascend_batch([starts[2]], identity_space(2), ens, cfg)
    assert type(info.value.__cause__) is FloatingPointError
    assert ascend_batch([starts[0]], identity_space(2), ens, cfg)[0].final[0] == 5.0


def test_batch_solver_failure_keeps_residual(monkeypatch):
    import ensmbo.combine as combine

    monkeypatch.setattr(combine, "DUAL_TOL", -1.0)  # no iterate converges
    ens = Ensemble(models=[linear_model([1.0, 0.0]), linear_model([0.0, 2.0])])
    cfg = AscentConfig(steps=3, alpha=0.1, combiner=Combiner.MGDA)
    with pytest.raises(RuntimeError, match=r"^trajectory 0 failed at step 0 \(mgda\): "
                                           r"MGDA dual did not converge \(residual \d\.\d{3}e[+-]\d{2}\)$"):
        ascend_batch([np.zeros(2), np.ones(2)], identity_space(2), ens, cfg)
