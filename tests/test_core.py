import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensmbo.core import (
    Dataset,
    DesignSpace,
    check_designs,
    decode,
    encode,
    metadata_path,
    normalize_score,
    read_dataset_csv,
    select_bottom_fraction,
    select_top_n,
    summarize_scores,
    write_dataset_csv,
)


def make_dataset(ys, space=None):
    ys = np.asarray(ys, dtype=np.float64)
    space = space or DesignSpace.continuous(2)
    designs = np.column_stack([np.arange(len(ys), dtype=np.float64), ys])
    return Dataset(space=space, designs=designs, scores=ys)


# ---------------------------------------------------------------------------
# normalize_score
# ---------------------------------------------------------------------------

def test_normalize_endpoints_and_midpoint():
    assert normalize_score(2, 2, 10) == 0.0
    assert normalize_score(10, 2, 10) == 1.0
    assert normalize_score(6, 2, 10) == 0.5


def test_normalize_can_exceed_one():
    assert normalize_score(12, 2, 10) > 1.0


def test_normalize_degenerate_range():
    with pytest.raises(ValueError, match="degenerate score range"):
        normalize_score(1.0, 5.0, 5.0)
    with pytest.raises(ValueError, match="degenerate score range"):
        normalize_score(1.0, 6.0, 5.0)
    with pytest.raises(ValueError):
        normalize_score(float("nan"), 0.0, 1.0)


@given(
    y=st.floats(-100, 100),
    lo=st.floats(-100, 100),
    width=st.floats(0.1, 100),
    scale=st.floats(0.01, 50),
    shift=st.floats(-50, 50),
)
@settings(max_examples=100, deadline=None)
def test_normalize_affine_invariance(y, lo, width, scale, shift):
    hi = lo + width
    base = normalize_score(y, lo, hi)
    moved = normalize_score(scale * y + shift, scale * lo + shift, scale * hi + shift)
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# summarize_scores
# ---------------------------------------------------------------------------

def test_summarize_four_elements():
    s = summarize_scores([1, 2, 3, 4])
    assert s.max == 4 and s.mean == 2.5 and s.p50 == 2


def test_summarize_singleton():
    s = summarize_scores([5])
    assert (s.max, s.p50, s.mean) == (5, 5, 5)


def test_summarize_128_values():
    # order-statistic oracle: explicit sort and index
    ys = np.arange(1, 129, dtype=float)
    np.random.default_rng(0).shuffle(ys)
    expected_p50 = np.sort(ys)[int(np.ceil(0.5 * len(ys))) - 1]
    assert expected_p50 == 64
    assert summarize_scores(ys).p50 == 64


def test_summarize_empty_and_nonfinite():
    with pytest.raises(ValueError):
        summarize_scores([])
    with pytest.raises(ValueError):
        summarize_scores([1.0, float("inf")])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300))
@settings(max_examples=150, deadline=None)
def test_p50_matches_sort_and_index(ys):
    s = summarize_scores(ys)
    srt = sorted(ys)
    assert s.p50 == srt[int(np.ceil(0.5 * len(ys))) - 1]
    assert min(ys) <= s.p50 <= s.max
    assert min(ys) - 1e-9 <= s.mean <= s.max + 1e-9


def test_p50_large_list_matches_bruteforce():
    ys = np.random.default_rng(1).standard_normal(10_000)
    assert summarize_scores(ys).p50 == np.sort(ys)[4999]


def test_with_normalized():
    s = summarize_scores([0.0, 10.0]).with_normalized(0.0, 10.0)
    assert s.max_norm == 1.0 and s.mean_norm == 0.5


# ---------------------------------------------------------------------------
# selections
# ---------------------------------------------------------------------------

def test_bottom_fraction_exact_split():
    d = make_dataset(np.arange(10.0))
    out = select_bottom_fraction(d, 0.5)
    assert sorted(out.scores.tolist()) == [0, 1, 2, 3, 4]


def test_bottom_fraction_identity():
    d = make_dataset([3.0, 1.0, 2.0])
    out = select_bottom_fraction(d, 1.0)
    assert sorted(out.scores.tolist()) == [1, 2, 3]
    assert len(out) == 3


def test_bottom_fraction_errors():
    d = make_dataset(np.arange(10.0))
    with pytest.raises(ValueError):
        select_bottom_fraction(d, 0.0)
    with pytest.raises(ValueError):
        select_bottom_fraction(d, 1.5)
    with pytest.raises(ValueError, match="empty"):
        select_bottom_fraction(make_dataset([1.0, 2.0]), 0.1)


def test_top_n_examples():
    d = make_dataset(np.arange(10.0))
    assert sorted(select_top_n(d, 3).scores.tolist()) == [7, 8, 9]
    full = select_top_n(d, 10)
    assert full.scores.tolist() == sorted(d.scores.tolist(), reverse=True)
    with pytest.raises(ValueError):
        select_top_n(d, 11)
    with pytest.raises(ValueError):
        select_top_n(d, 0)


def test_selection_tie_break_is_stable():
    d = make_dataset([1.0, 1.0, 0.0, 1.0, 2.0])
    bottom = select_bottom_fraction(d, 0.6)  # 3 entries: the 0 and first two 1s
    assert bottom.designs[:, 0].tolist() == [2.0, 0.0, 1.0]
    top = select_top_n(d, 2)  # the 2 and the first 1
    assert top.designs[:, 0].tolist() == [4.0, 0.0]


def test_selection_purity():
    d = make_dataset([3.0, 1.0, 2.0])
    before = d.scores.copy(), d.designs.copy()
    select_bottom_fraction(d, 0.5)
    select_top_n(d, 2)
    assert np.array_equal(d.scores, before[0]) and np.array_equal(d.designs, before[1])


@given(st.lists(st.integers(-50, 50), min_size=2, max_size=60), st.floats(0.05, 0.95))
@settings(max_examples=100, deadline=None)
def test_bottom_and_complement_partition(ys, frac):
    ys = [float(v) for v in ys]
    d = make_dataset(ys)
    n = int(np.floor(frac * len(ys) + 1e-9))
    if n == 0:
        return
    bottom = select_bottom_fraction(d, frac)
    ids = set(bottom.designs[:, 0].tolist())
    comp = [y for i, y in enumerate(ys) if i not in ids]
    assert len(ids) == n
    assert not comp or max(bottom.scores) <= min(comp)
    combined = sorted(bottom.scores.tolist() + comp)
    assert combined == sorted(ys)


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

def test_onehot_roundtrip():
    space = DesignSpace.discrete(3, 4)
    toks = np.array([[0, 3, 2]])
    x = encode(toks, space)
    assert x.shape == (1, 12) and x.sum() == 3.0
    assert np.array_equal(x[0].reshape(3, 4), np.eye(4)[toks[0]])
    back = decode(x, space)
    assert back.dtype == np.int64 and np.array_equal(back, toks)


def test_is_hard_rejects_relaxed():
    space = DesignSpace.discrete(2, 2)
    with pytest.raises(ValueError, match=r"shape \(1, 4\), the space expects \(N, 2\) raw tokens"):
        check_designs([[0.5, 0.5, 1.0, 0.0]], space)
    with pytest.raises(ValueError, match="integer tokens; harden relaxed designs first"):
        check_designs([[0.5, 1.0]], space)


def test_batch_onehot_matches_single():
    space = DesignSpace.discrete(4, 3)
    toks = np.array([[0, 1, 2, 0], [2, 2, 1, 0]])
    batch = encode(toks, space)
    for row, t in zip(batch, toks):
        assert np.array_equal(row, encode([t], space)[0])


def test_normalize_design_roundtrip_and_floor():
    space = DesignSpace.continuous(3, mean=[1.0, -2.0, 0.0], std=[2.0, 0.5, 0.0])
    x = np.array([[3.0, -1.0, 5.0]])
    z = encode(x, space)
    assert z[0, 0] == 1.0 and z[0, 1] == 2.0
    assert z[0, 2] == 5.0 / 1e-8  # sigma floor saves the constant coordinate
    assert np.allclose(decode(z, space), x, rtol=1e-12, atol=0.0)


def test_design_matrix_both_kinds():
    dspace = DesignSpace.discrete(2, 3)
    m = encode(np.array([[0, 2], [1, 1]]), dspace)
    assert m.shape == (2, 6) and m[0, 0] == 1.0 and m[0, 5] == 1.0
    cspace = DesignSpace.continuous(2, mean=[1.0, 1.0], std=[2.0, 2.0])
    assert np.allclose(encode(np.array([[3.0, 5.0]]), cspace), [[1.0, 2.0]])


def test_check_designs_names_the_fault():
    space = DesignSpace.discrete(2, 4)
    got = check_designs([[3, 0], [1.0, 2.0]], space)
    assert got.dtype == np.int64 and np.array_equal(got, [[3, 0], [1, 2]])
    with pytest.raises(ValueError, match=r"shape \(1, 8\), the space expects \(N, 2\) raw tokens"):
        check_designs(encode([[1, 0]], space), space)
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        check_designs([1, 0], space)
    with pytest.raises(ValueError, match="integer tokens"):
        check_designs([[np.inf, 1.0]], space)
    with pytest.raises(ValueError, match=r"token out of range \[0, 4\)"):
        check_designs([[0, 4]], space)
    with pytest.raises(ValueError, match="finite"):
        check_designs([[np.nan, 1.0]], DesignSpace.continuous(2))
    with pytest.raises(ValueError, match="raw coordinates"):
        check_designs([[1.0]], DesignSpace.continuous(2))


def test_dataset_validation():
    space = DesignSpace.discrete(2, 3)
    with pytest.raises(ValueError, match="token out of range"):
        Dataset(space=space, designs=np.array([[0, 3]]), scores=np.array([1.0]))
    with pytest.raises(ValueError, match="integer"):
        Dataset(space=space, designs=np.array([[0.5, 1.0]]), scores=np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        Dataset(space=DesignSpace.continuous(1), designs=np.array([[1.0]]),
                scores=np.array([float("nan")]))


def test_space_validation():
    with pytest.raises(ValueError):
        DesignSpace.discrete(0, 4)
    with pytest.raises(ValueError):
        DesignSpace.discrete(4, 1)
    with pytest.raises(ValueError):
        DesignSpace.continuous(0)
    assert DesignSpace.discrete(8, 4).flat_dim == 32


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------

def test_csv_roundtrip_continuous(tmp_path):
    space = DesignSpace.continuous(2)
    rng = np.random.default_rng(0)
    ds = Dataset(space=space, designs=rng.standard_normal((9, 2)),
                 scores=rng.standard_normal(9))
    path = tmp_path / "c.csv"
    write_dataset_csv(ds, path, -1.5, 2.5)
    back, meta = read_dataset_csv(path)
    assert np.array_equal(back.designs, ds.designs)
    assert np.array_equal(back.scores, ds.scores)
    assert meta["kind"] == "continuous" and meta["D"] == 2
    assert meta["y_min_total"] == -1.5 and meta["y_max_total"] == 2.5


def test_csv_roundtrip_discrete(tmp_path):
    space = DesignSpace.discrete(3, 4)
    ds = Dataset(space=space, designs=np.array([[0, 1, 3], [2, 2, 0]]),
                 scores=np.array([0.25, -1.75]))
    path = tmp_path / "d.csv"
    write_dataset_csv(ds, path, -2.0, 1.0)
    back, meta = read_dataset_csv(path)
    assert np.array_equal(back.designs, ds.designs)
    assert np.array_equal(back.scores, ds.scores)
    assert meta["L"] == 3 and meta["V"] == 4


def test_csv_missing_metadata_key(tmp_path):
    space = DesignSpace.discrete(2, 2)
    ds = Dataset(space=space, designs=np.array([[0, 1]]), scores=np.array([1.0]))
    path = tmp_path / "m.csv"
    write_dataset_csv(ds, path, 0.0, 1.0)
    meta_file = metadata_path(path)
    meta = meta_file.read_text().replace('"y_min_total"', '"wrong_key"')
    meta_file.write_text(meta)
    with pytest.raises(ValueError, match="y_min_total"):
        read_dataset_csv(path)


def test_csv_bad_y_names_row(tmp_path):
    path = tmp_path / "bad.csv"
    rows = ["x_0,y"] + [f"{i}.0,{i}.5" for i in range(6)] + ["6.0,oops", "7.0,7.5"]
    path.write_text("\n".join(rows) + "\n")
    meta = '{"kind": "continuous", "D": 1, "y_min_total": 0, "y_max_total": 1}'
    metadata_path(path).write_text(meta)
    with pytest.raises(ValueError, match="row 7"):
        read_dataset_csv(path)


def test_csv_token_out_of_range_names_row(tmp_path):
    path = tmp_path / "tok.csv"
    path.write_text("t_0,t_1,y\n0,1,1.0\n0,9,2.0\n")
    metadata_path(path).write_text(
        '{"kind": "discrete", "L": 2, "V": 4, "y_min_total": 0, "y_max_total": 1}'
    )
    with pytest.raises(ValueError, match="row 2"):
        read_dataset_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n1,2\n")
    metadata_path(path).write_text(
        '{"kind": "continuous", "D": 1, "y_min_total": 0, "y_max_total": 1}'
    )
    with pytest.raises(ValueError, match="header"):
        read_dataset_csv(path)
