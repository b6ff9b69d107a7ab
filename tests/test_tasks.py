import pickle
import weakref

import numpy as np
import pytest

from ensmbo.ascent import AscentConfig, Combiner, ascend_batch
from ensmbo.core import encode, select_bottom_fraction, select_top_n
from ensmbo.nn import TrainConfig, train_ensemble
from ensmbo.tasks import (
    evaluate_oracle,
    export_task_csv,
    get_task,
    ingest_csv,
    make_bowl,
    make_minibind,
    make_ridge,
)

from helpers import reference_minibind_scores, reference_minibind_tokens


# ---------------------------------------------------------------------------
# MiniBind
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def minibind():
    return make_minibind(0)


def test_minibind_enumerates_full_space(minibind):
    total = minibind.total_dataset()
    assert len(total) == 65_536
    # every sequence appears exactly once
    powers = 4 ** np.arange(7, -1, -1)
    codes = total.designs @ powers
    assert len(np.unique(codes)) == 65_536


def test_minibind_same_seed_identical(minibind):
    other = make_minibind(0)
    assert np.array_equal(minibind.total_dataset().scores, other.total_dataset().scores)
    assert np.array_equal(minibind.params["A"], other.params["A"])
    assert np.array_equal(minibind.params["B"], other.params["B"])
    different = make_minibind(1)
    assert not np.array_equal(minibind.total_dataset().scores, different.total_dataset().scores)


def test_minibind_extremes_match_enumeration(minibind):
    scores = minibind.total_dataset().scores
    assert minibind.y_min == scores.min()
    assert minibind.y_max == scores.max()


def test_minibind_oracle_matches_recomputation(minibind):
    # independent recomputation from the interaction tables with plain loops
    a, b = minibind.params["A"], minibind.params["B"]
    rng = np.random.default_rng(5)
    seqs = rng.integers(0, 4, size=(100, 8))
    got = evaluate_oracle(minibind, list(seqs))
    for seq, val in zip(seqs, got):
        expected = 0.0
        for p in range(8):
            expected += a[p, seq[p]]
        for p in range(8):
            for q in range(p + 1, 8):
                expected += b[p, q, seq[p], seq[q]]
        assert val == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_minibind_matches_gather_reference_bitwise(seed):
    task = make_minibind(seed)
    total = task.total_dataset()
    tokens = reference_minibind_tokens(8, 4)
    scores = reference_minibind_scores(tokens, task.params["A"], task.params["B"])
    assert total.designs.dtype == np.uint8 and np.array_equal(total.designs, tokens)
    assert total.scores.dtype == scores.dtype and total.scores.tobytes() == scores.tobytes()
    assert task.y_min == scores.min() and task.y_max == scores.max()


def test_minibind_bottom_half_max_below_total_max(minibind):
    total = minibind.total_dataset()
    mbo = select_bottom_fraction(total, 0.5)
    assert len(mbo) == 32_768
    assert mbo.scores.max() < total.scores.max()



def test_minibind_oracle_scores_narrow_tokens(minibind):
    assert minibind.oracle.score(np.full(8, 3, np.uint8)) == minibind.total_dataset().scores[65535]


def test_minibind_mbo_set_pickles_in_one_byte_per_token(minibind):
    # what each training worker receives: 32,768 x 8 tokens and their scores
    mbo = select_bottom_fraction(minibind.total_dataset(), 0.5)
    assert len(pickle.dumps(mbo, protocol=5)) <= 600_000

def test_minibind_oracle_refuses_onehot(minibind):
    x = encode([[0, 1, 2, 3, 0, 1, 2, 3]], minibind.space)
    calls = minibind.oracle.calls
    with pytest.raises(ValueError, match=r"shape \(1, 32\), the space expects \(N, 8\) raw tokens"):
        evaluate_oracle(minibind, x)
    assert minibind.oracle.calls == calls


def test_minibind_oracle_rejects_relaxed(minibind):
    with pytest.raises(ValueError, match=r"shape \(1, 32\)"):
        evaluate_oracle(minibind, [np.full(32, 1.0 / 4.0)])
    with pytest.raises(ValueError, match="integer tokens; harden"):
        evaluate_oracle(minibind, [np.array([0.5, 1, 2, 3, 0, 1, 2, 3])])


def test_minibind_128_trajectories_yield_valid_tokens(minibind):
    mbo = select_bottom_fraction(minibind.total_dataset(), 0.5)
    ens = train_ensemble(mbo, 2, TrainConfig(epochs=1, batch_size=1024, seed=0))
    starts = select_top_n(mbo, 128)
    cfg = AscentConfig(steps=2, alpha=2.0, combiner=Combiner.MEAN)
    trajs = ascend_batch(list(starts.designs), minibind.space, ens, cfg)
    assert len(trajs) == 128
    for traj in trajs:
        assert traj.final.dtype == np.uint8 and traj.final.shape == (8,)
        assert np.all((traj.final >= 0) & (traj.final < 4))


# ---------------------------------------------------------------------------
# Ridge
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ridge():
    return make_ridge(0)


def test_ridge_zero_input_scores_zero(ridge):
    assert evaluate_oracle(ridge, [np.zeros(16)])[0] == 0.0


def test_ridge_unit_alignment_scores_five(ridge):
    u, k = ridge.params["u"], ridge.params["k"]
    x = np.zeros(16)
    x[:k] = u  # <u, x_par> = 1, x_perp = 0
    assert evaluate_oracle(ridge, [x])[0] == pytest.approx(5.0)


def test_ridge_scores_bounded_by_ten(ridge):
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((200, 16)) * 3.0
    vals = evaluate_oracle(ridge, list(xs))
    assert max(vals) < 10.0
    assert ridge.total_dataset().scores.max() < 10.0


def test_ridge_reproducible_and_extremes(ridge):
    again = make_ridge(0)
    assert np.array_equal(ridge.total_dataset().designs, again.total_dataset().designs)
    scores = ridge.total_dataset().scores
    assert ridge.y_min == scores.min() and ridge.y_max == scores.max()
    assert len(ridge.total_dataset()) == 20_000


# ---------------------------------------------------------------------------
# Bowl
# ---------------------------------------------------------------------------

def test_bowl_optimum_and_sign():
    task = make_bowl(2)
    x_star = task.params["x_star"]
    assert evaluate_oracle(task, [x_star])[0] == 0.0
    rng = np.random.default_rng(0)
    vals = evaluate_oracle(task, list(rng.standard_normal((50, x_star.shape[0]))))
    assert all(v <= 0.0 for v in vals)
    assert task.y_max <= 0.0


def test_bowl_reference_pipeline_reaches_peak():
    # well-fit proxies + mean-gradient ascent from mid-scoring starts
    task = make_bowl(8)
    total = task.total_dataset()
    ens = train_ensemble(total, 6, TrainConfig(epochs=40, batch_size=256, seed=3))
    sel = np.argsort(np.abs(total.scores + 4.0))[:8]
    starts = total.designs[sel]
    assert np.allclose(total.scores[sel], -4.0, atol=0.1)
    cfg = AscentConfig(steps=200, alpha=0.05, combiner=Combiner.MEAN)
    trajs = ascend_batch(list(starts), total.space, ens, cfg)
    finals = evaluate_oracle(task, [t.final for t in trajs])
    assert min(finals) > -0.1


# ---------------------------------------------------------------------------
# registry / ingestion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["minibind", "ridge", "bowl"])
def test_total_dataset_is_handed_over_then_rebuilt_bit_for_bit(name, seed):
    task = get_task(name, seed)
    handed = weakref.ref(task.total_dataset())
    assert handed() is None  # the task kept no reference to the table it handed over
    built, again = task.total_dataset(), task.total_dataset()
    assert built is not again
    first = get_task(name, seed).total_dataset()  # the table a fresh task was built with
    for ds in (built, again):
        assert ds.designs.dtype == first.designs.dtype and ds.designs.tobytes() == first.designs.tobytes()
        assert ds.scores.tobytes() == first.scores.tobytes()
    assert (task.y_min, task.y_max) == (built.scores.min(), built.scores.max())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ridge_table_is_its_two_draws_side_by_side(seed):
    rng = np.random.default_rng(seed)
    rng.standard_normal(4)  # the direction u
    x_par = rng.standard_normal((20_000, 4))
    x_perp = rng.standard_normal((20_000, 12)) * 0.1
    assert make_ridge(seed).total_dataset().designs.tobytes() == np.hstack([x_par, x_perp]).tobytes()


def test_ingested_task_keeps_returning_the_dataset_it_read(tmp_path):
    path = tmp_path / "bowl.csv"
    export_task_csv(make_bowl(0), path)
    task = ingest_csv(path)
    assert task.total_dataset() is task.total_dataset()


def test_registry_lookup():
    assert get_task("bowl", 3).name == "bowl"
    with pytest.raises(ValueError, match="unknown task"):
        get_task("nope", 0)


def test_export_ingest_round_trip(tmp_path, minibind):
    path = tmp_path / "minibind.csv"
    export_task_csv(minibind, path)
    task = ingest_csv(path)
    ds = task.total_dataset()
    original = minibind.total_dataset()
    assert np.array_equal(ds.designs, original.designs)
    assert np.array_equal(ds.scores, original.scores)
    assert task.oracle is None
    assert task.y_min == minibind.y_min and task.y_max == minibind.y_max
    with pytest.raises(ValueError, match="no oracle"):
        evaluate_oracle(task, [original.designs[0]])


def test_ingest_missing_metadata(tmp_path):
    task = make_bowl(0)
    path = tmp_path / "bowl.csv"
    export_task_csv(task, path)
    from ensmbo.core import metadata_path

    meta_file = metadata_path(path)
    meta_file.write_text(meta_file.read_text().replace('"y_max_total"', '"oops"'))
    with pytest.raises(ValueError, match="y_max_total"):
        ingest_csv(path)


def test_oracle_counter_counts_and_resets(minibind):
    before = minibind.oracle.calls
    evaluate_oracle(minibind, [np.zeros(8, dtype=np.int64)] * 3)
    assert minibind.oracle.calls == before + 3
