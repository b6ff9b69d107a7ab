import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensmbo.combine import (
    CagradConfig,
    GradientSet,
    SimplexWeights,
    SolverError,
    _project_rows,
    combine_mean,
    solve_cagrad_batch,
    solve_cagrad_dual,
    solve_mgda_batch,
    solve_mgda_dual,
)

from helpers import combine_min, improvement_rate, solve_cagrad_primal_reference, solve_mgda_primal_reference


def gset(rows, values=None):
    return GradientSet(grads=np.asarray(rows, dtype=np.float64),
                       values=None if values is None else np.asarray(values, dtype=np.float64))


def mgda_primal_value(grads, d):
    return float(np.min(grads @ d)) - 0.5 * float(d @ d)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_gradient_set_validation():
    with pytest.raises(ValueError):
        GradientSet(grads=np.array([1.0, 2.0]))  # not 2-D
    with pytest.raises(ValueError):
        gset([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        gset([[1.0, 0.0]], values=[1.0, 2.0])  # wrong length


def test_mean_grad_is_recomputed():
    gs = gset([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(gs.mean_grad, [0.5, 0.5])


def test_simplex_weights_invariants():
    w = SimplexWeights(np.array([0.5, 0.5, -1e-13]))
    assert w.w.min() == 0.0 and abs(w.w.sum() - 1.0) < 1e-10
    with pytest.raises(ValueError):
        SimplexWeights(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        SimplexWeights(np.array([1.1, -0.1]))


@pytest.mark.parametrize("residual", [1e-3, np.inf])
def test_solver_error_survives_pickling(residual):
    weights = np.random.default_rng(3).dirichlet(np.ones(4))
    exc = SolverError("MGDA dual did not converge", weights=weights, residual=residual)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is SolverError and str(back) == str(exc)
    assert back.weights.dtype == weights.dtype and back.weights.tobytes() == weights.tobytes()
    assert back.residual == residual


def test_cagrad_config_range():
    CagradConfig(0.0)
    CagradConfig(0.99)
    with pytest.raises(ValueError):
        CagradConfig(1.0)
    with pytest.raises(ValueError):
        CagradConfig(-0.1)


# ---------------------------------------------------------------------------
# mean / min combiners
# ---------------------------------------------------------------------------

def test_combine_mean_examples():
    assert np.array_equal(combine_mean(gset([[1, 0], [0, 1]])).d, [0.5, 0.5])
    assert np.array_equal(combine_mean(gset([[3.0, -1.0]])).d, [3.0, -1.0])
    assert np.array_equal(combine_mean(gset([[1, 2], [-1, -2]])).d, [0.0, 0.0])


def test_combine_min_examples():
    gs = gset([[1, 0], [0, 1]], values=[3, 5])
    assert np.array_equal(combine_min(gs).d, [1, 0])
    ties = gset([[1, 0], [0, 1]], values=[4, 4])
    assert np.array_equal(combine_min(ties).d, [1, 0])  # lowest index wins
    single = gset([[2, 2]], values=[1])
    assert np.array_equal(combine_min(single).d, [2, 2])
    with pytest.raises(ValueError, match="values"):
        combine_min(gset([[1, 0]]))


def test_improvement_rate():
    gs = gset([[1, 0], [0, 1]])
    assert improvement_rate(gs, np.zeros(2)) == 0.0
    assert improvement_rate(gs, np.array([1.0, 1.0])) == 1.0
    with pytest.raises(ValueError):
        improvement_rate(gs, np.array([1.0, np.nan]))


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------

@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_projection_lands_on_simplex(v):
    w = _project_rows(np.array([v]))[0]
    assert w.min() >= 0.0
    assert abs(w.sum() - 1.0) < 1e-9


def test_projection_fixes_simplex_points():
    w = np.array([0.2, 0.3, 0.5])
    assert np.allclose(_project_rows(w[None])[0], w)


def test_projection_is_nearest_point_m2():
    # brute force over the 1-D simplex parameterization
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(2) * 3
        grid = np.linspace(0.0, 1.0, 20001)
        pts = np.column_stack([grid, 1.0 - grid])
        best = pts[np.argmin(((pts - v) ** 2).sum(axis=1))]
        assert np.allclose(_project_rows(v[None])[0], best, atol=1e-3)


# ---------------------------------------------------------------------------
# MGDA dual
# ---------------------------------------------------------------------------

def test_mgda_identical_gradients():
    g = np.array([1.5, -2.0, 0.5])
    out = solve_mgda_dual(gset([g, g]))
    assert np.allclose(out.d, g, atol=1e-10)


def test_mgda_orthogonal_pair_vs_grid_oracle():
    g1, g2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    # independent grid brute force over w in [0,1], step 1e-3
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    norms = [np.linalg.norm(w * g1 + (1 - w) * g2) for w in grid]
    w_star = grid[int(np.argmin(norms))]
    assert w_star == pytest.approx(0.5, abs=1e-3)
    out = solve_mgda_dual(gset([g1, g2]))
    assert np.allclose(out.d, w_star * g1 + (1 - w_star) * g2, atol=1e-3)
    assert np.allclose(out.weights.w, [0.5, 0.5], atol=1e-9)


def test_mgda_hull_contains_origin():
    out = solve_mgda_dual(gset([[2.0, 0.0], [-1.0, 0.0]]))
    assert np.linalg.norm(out.d) < 1e-10
    assert np.allclose(out.weights.w, [1 / 3, 2 / 3], atol=1e-9)


def test_mgda_all_zero_gradients():
    out = solve_mgda_dual(gset([[0.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(out.d, [0.0, 0.0])


def test_mgda_nonconvergence_carries_iterate(monkeypatch):
    import ensmbo.combine as combine

    monkeypatch.setattr(combine, "DUAL_TOL", 0.0)
    gs = gset(np.random.default_rng(0).standard_normal((4, 6)))
    with pytest.raises(SolverError) as exc:
        solve_mgda_dual(gs)
    assert exc.value.weights.shape == (4,)
    assert exc.value.residual > 0.0


# ---------------------------------------------------------------------------
# CAGrad dual
# ---------------------------------------------------------------------------

def test_cagrad_c_zero_is_mean():
    gs = gset(np.random.default_rng(1).standard_normal((4, 5)))
    out = solve_cagrad_dual(gs, CagradConfig(0.0))
    assert np.array_equal(out.d, gs.mean_grad)


def test_cagrad_single_model_closed_form_and_grid_oracle():
    g = np.array([1.0, 0.0])
    out = solve_cagrad_dual(gset([g]), CagradConfig(0.5))
    assert np.allclose(out.d, [1.5, 0.0], atol=1e-6)
    # brute-force primal: max over a dense grid of the ball ||d - g|| <= 0.5
    grid = np.linspace(-0.6, 0.6, 241)
    best, best_val = None, -np.inf
    for dx in grid:
        for dy in grid:
            d = g + np.array([dx, dy])
            if dx * dx + dy * dy <= 0.25:
                val = float(d @ g)
                if val > best_val:
                    best, best_val = d, val
    # grid resolution limits the value comparison, not the solver
    assert float(out.d @ g) == pytest.approx(best_val, abs=1e-2)
    assert out.d[0] == pytest.approx(best[0], abs=1e-2)


def test_cagrad_symmetric_pair_on_ball_boundary():
    gs = gset([[1.0, 0.0], [0.0, 1.0]])
    out = solve_cagrad_dual(gs, CagradConfig(0.5))
    assert np.allclose(out.d, [0.75, 0.75], atol=1e-7)
    g0 = gs.mean_grad
    assert np.linalg.norm(out.d - g0) == pytest.approx(0.5 * np.linalg.norm(g0), rel=1e-6)


def test_cagrad_zero_mean_gradient():
    out = solve_cagrad_dual(gset([[1.0, 0.0], [-1.0, 0.0]]), CagradConfig(0.5))
    assert np.array_equal(out.d, [0.0, 0.0])


def test_cagrad_degenerate_gw_returns_mean():
    # hull contains 0 and the dual optimum sits exactly at g_w = 0
    gs = gset([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    out = solve_cagrad_dual(gs, CagradConfig(0.5))
    assert np.allclose(out.d, gs.mean_grad, atol=1e-5)


def test_cagrad_nonconvergence_error(monkeypatch):
    import ensmbo.combine as combine

    monkeypatch.setattr(combine, "DUAL_TOL", -1.0)  # unreachable threshold
    gs = gset(np.random.default_rng(2).standard_normal((3, 4)))
    with pytest.raises(SolverError) as exc:
        solve_cagrad_dual(gs, CagradConfig(0.3))
    assert exc.value.residual >= 0.0
    assert exc.value.weights.shape == (3,)


# ---------------------------------------------------------------------------
# primal reference solvers
# ---------------------------------------------------------------------------

def test_mgda_primal_examples():
    g = np.array([0.5, 1.0])
    assert np.allclose(solve_mgda_primal_reference(gset([g, g])).d, g, atol=1e-12)
    out = solve_mgda_primal_reference(gset([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(out.d, [0.5, 0.5], atol=1e-10)
    opp = solve_mgda_primal_reference(gset([[1.0, 2.0], [-1.0, -2.0]]))
    assert np.allclose(opp.d, [0.0, 0.0], atol=1e-12)


def test_cagrad_primal_examples():
    gs = gset([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(solve_cagrad_primal_reference(gs, CagradConfig(0.0)).d, gs.mean_grad)
    m1 = solve_cagrad_primal_reference(gset([[1.0, 0.0]]), CagradConfig(0.5))
    assert np.allclose(m1.d, [1.5, 0.0], atol=1e-10)
    # primal and dual achieve the same worst-case improvement
    dual = solve_cagrad_dual(gs, CagradConfig(0.5))
    primal = solve_cagrad_primal_reference(gs, CagradConfig(0.5))
    iv_dual = improvement_rate(gs, dual.d)
    iv_primal = improvement_rate(gs, primal.d)
    assert iv_dual == pytest.approx(iv_primal, abs=1e-7)


def test_primal_reference_rejects_high_dim():
    gs = gset(np.random.default_rng(3).standard_normal((2, 17)))
    with pytest.raises(ValueError, match="dual"):
        solve_mgda_primal_reference(gs)
    with pytest.raises(ValueError, match="dual"):
        solve_cagrad_primal_reference(gs, CagradConfig(0.5))


# ---------------------------------------------------------------------------
# invariants on random instances
# ---------------------------------------------------------------------------

def _random_instances(n_instances, seed=0):
    rng = np.random.default_rng(seed)
    for i in range(n_instances):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 11))
        yield i, gset(rng.standard_normal((m, n)))


def test_primal_dual_equivalence_sample():
    for i, gs in _random_instances(120):
        d_dual = solve_mgda_dual(gs).d
        d_ref = solve_mgda_primal_reference(gs).d
        assert abs(mgda_primal_value(gs.grads, d_dual) - mgda_primal_value(gs.grads, d_ref)) < 1e-4
        c = (0.2, 0.3, 0.5)[i % 3]
        dc = solve_cagrad_dual(gs, CagradConfig(c)).d
        dr = solve_cagrad_primal_reference(gs, CagradConfig(c)).d
        assert abs(improvement_rate(gs, dc) - improvement_rate(gs, dr)) < 1e-4


def test_mgda_kkt_conditions():
    for _, gs in _random_instances(150, seed=1):
        out = solve_mgda_dual(gs)
        d = out.d
        dd = float(d @ d)
        inner = gs.grads @ d
        assert np.all(inner >= dd - 1e-6 * (1.0 + dd))
        w = out.weights.w
        assert w.min() >= 0.0 and abs(w.sum() - 1.0) <= 1e-10
        # improvement rate of the returned direction meets the KKT bound
        assert improvement_rate(gs, d) >= dd - 1e-6 * (1.0 + dd)
        # active weights tie at the bound
        for i in range(gs.m):
            if w[i] > 1e-6:
                assert inner[i] == pytest.approx(dd, rel=1e-5, abs=1e-8)


def test_mgda_descent_direction_sanity():
    for _, gs in _random_instances(80, seed=2):
        d = solve_mgda_dual(gs).d
        if np.linalg.norm(d) > 1e-8:
            assert np.all(gs.grads @ d > 0.0)


def test_cagrad_feasibility():
    for i, gs in _random_instances(150, seed=3):
        c = (0.2, 0.3, 0.5)[i % 3]
        out = solve_cagrad_dual(gs, CagradConfig(c))
        g0 = gs.mean_grad
        assert np.linalg.norm(out.d - g0) <= c * np.linalg.norm(g0) * (1.0 + 1e-6)


def test_cagrad_c0_equals_mean_everywhere():
    for _, gs in _random_instances(50, seed=4):
        out = solve_cagrad_dual(gs, CagradConfig(0.0))
        assert np.allclose(out.d, combine_mean(gs).d, atol=1e-8)


@given(st.floats(0.01, 100.0))
@settings(max_examples=40, deadline=None)
def test_scale_covariance(s):
    rng = np.random.default_rng(5)
    G = rng.standard_normal((4, 6))
    d1 = solve_mgda_dual(gset(G)).d
    d2 = solve_mgda_dual(gset(s * G)).d
    assert np.allclose(d2, s * d1, rtol=1e-6, atol=1e-9 * s)
    c1 = solve_cagrad_dual(gset(G), CagradConfig(0.3)).d
    c2 = solve_cagrad_dual(gset(s * G), CagradConfig(0.3)).d
    assert np.allclose(c2, s * c1, rtol=1e-5, atol=1e-8 * s)


def test_permutation_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        G = rng.standard_normal((5, 4))
        perm = rng.permutation(5)
        out = solve_mgda_dual(gset(G))
        out_p = solve_mgda_dual(gset(G[perm]))
        assert np.allclose(out_p.d, out.d, atol=1e-8)
        assert np.allclose(out_p.weights.w, out.weights.w[perm], atol=1e-7)
        cg = solve_cagrad_dual(gset(G), CagradConfig(0.5))
        cg_p = solve_cagrad_dual(gset(G[perm]), CagradConfig(0.5))
        assert np.allclose(cg_p.d, cg.d, atol=1e-7)


def test_improvement_rate_of_mgda_meets_kkt_bound():
    gs = gset(np.random.default_rng(7).standard_normal((5, 8)))
    d = solve_mgda_dual(gs).d
    assert improvement_rate(gs, d) >= float(d @ d) - 1e-6 * (1.0 + float(d @ d))


# ---------------------------------------------------------------------------
# batched solves
# ---------------------------------------------------------------------------

def _batch_case(rng):
    """A random gradient stack with degenerate rows planted, and warm starts
    (sparse ones, and NaN rows that start cold)."""
    m = int(rng.integers(1, 7))
    n = int(rng.choice([2, 3, 4, int(rng.integers(2, 41))]))  # often m > n
    b = int(rng.integers(3, 65))
    grads = rng.standard_normal((b, m, n)) * np.exp(rng.standard_normal((b, m, 1)))
    if rng.random() < 0.5:  # correlated members, as a trained ensemble's
        grads = 0.3 * grads + rng.standard_normal((b, 1, n))
    grads[0] = 0.0  # all-zero gradients
    grads[-1] -= grads[-1].mean(axis=0)  # ||g0|| at rounding level
    if m > 1:
        grads[1, 1] = grads[1, 0]  # duplicate gradients
        grads[2] = 0.0
        grads[2, 0], grads[2, 1] = grads[1, 0], -grads[1, 0]  # ||g0|| = 0
    w0 = rng.dirichlet(np.ones(m), size=b) * (rng.random((b, m)) > 0.3)
    w0[w0.sum(axis=1) == 0.0, 0] = 1.0
    w0 /= w0.sum(axis=1)[:, None]
    w0[rng.random(b) < 0.2] = np.nan
    return grads, w0


def _assert_rows_match_one_row_solves(out, grads, w0, solve):
    for i in range(grads.shape[0]):
        warm = None if np.isnan(w0[i]).any() else w0[i]
        try:
            ref = solve(GradientSet(grads=grads[i]), warm)
        except Exception as exc:
            assert type(out.errors[i]) is type(exc)
            continue
        assert np.array_equal(out.d[i], ref.d)
        if ref.weights is None:
            assert np.all(np.isnan(out.w[i]))
        else:
            assert np.array_equal(out.w[i], ref.weights.w)


def test_mgda_batch_equals_per_point_solves_bitwise():
    rng = np.random.default_rng(21)
    solved = 0
    for _ in range(30):
        grads, w0 = _batch_case(rng)
        out = solve_mgda_batch(grads, w0=w0)
        _assert_rows_match_one_row_solves(out, grads, w0, lambda gs, w: solve_mgda_dual(gs, w0=w))
        # all-zero gradients: the closed form, d = 0 with uniform weights
        assert not out.d[0].any()
        assert np.all(out.w[0] == 1.0 / grads.shape[1])
        solved += grads.shape[0] - len(out.errors)
    assert solved > 0


def test_cagrad_batch_equals_per_point_solves_bitwise():
    rng = np.random.default_rng(22)
    solved = 0
    for trial in range(30):
        grads, w0 = _batch_case(rng)
        cfg = CagradConfig(0.0 if trial % 10 == 0 else float(rng.choice([0.3, 0.5, 0.9])))
        out = solve_cagrad_batch(grads, cfg, w0=w0)
        _assert_rows_match_one_row_solves(out, grads, w0, lambda gs, w: solve_cagrad_dual(gs, cfg, w0=w))
        zero_mean = [0, 2] if grads.shape[1] > 1 else [0]
        assert not set(zero_mean) & set(out.errors)  # closed forms
        if cfg.c == 0.0:
            assert np.array_equal(out.d, grads.mean(axis=1)) and not out.errors
        else:  # ||g0|| = 0: d = 0 without weights
            assert not out.d[zero_mean].any() and np.isnan(out.w[zero_mean]).all()
        solved += grads.shape[0] - len(out.errors)
    assert solved > 0


def test_batch_solves_without_warm_start_and_reject_bad_input():
    grads = np.random.default_rng(23).standard_normal((5, 3, 4))
    cold = np.full((5, 3), np.nan)
    out = solve_mgda_batch(grads, cold)
    _assert_rows_match_one_row_solves(out, grads, cold, lambda gs, w: solve_mgda_dual(gs, w0=w))
    with pytest.raises(ValueError):
        solve_mgda_batch(grads[0], cold[0])
    with pytest.raises(ValueError):
        solve_cagrad_batch(np.full((1, 2, 2), np.nan), CagradConfig(0.5), np.full((1, 2), np.nan))
    with pytest.raises(ValueError):
        solve_mgda_batch(grads, w0=np.ones((5, 2)))


def test_batch_reports_per_row_errors(monkeypatch):
    import ensmbo.combine as combine

    monkeypatch.setattr(combine, "DUAL_TOL", -1.0)  # no iterate converges
    grads = np.random.default_rng(24).standard_normal((4, 3, 5))
    grads[:2] = 0.0  # all-zero gradients: the closed form, no residual to check
    out = solve_mgda_batch(grads, np.full((4, 3), np.nan))
    assert sorted(out.errors) == [2, 3]
    for exc in out.errors.values():
        assert isinstance(exc, SolverError) and exc.weights.shape == (3,)
        assert re.fullmatch(r"MGDA dual did not converge \(residual \d\.\d{3}e[+-]\d{2}\)", str(exc))
    assert np.all(np.isfinite(out.d[:2])) and np.all(np.isnan(out.d[2:]))
    assert np.all(np.isnan(out.w[2:]))


def test_cagrad_scaled_mean_rounding_to_zero_is_a_zero_radius_ball():
    # ||g0|| is nonzero, but the mean of the scaled gradients rounds to zero,
    # so the ball has radius zero in the scaled problem, and d = g0
    g = np.array([[float.fromhex(v) for v in row] for row in (
        ("0x1.07682d35d1f5dp+3", "0x1.04219dbbb9de8p+2"),
        ("0x1.94bfab08fc1c6p+2", "-0x1.2b348f886d33bp+2"),
        ("0x1.afaa7e2c92ba2p+0", "0x1.6b860ea94e85ep+2"),
        ("-0x1.03dea93ff12dap+4", "-0x1.44731cdc9b30ap+2"),
    )])
    gs = gset(g)
    out = solve_cagrad_dual(gs, CagradConfig(0.5))
    g0 = gs.mean_grad
    assert np.linalg.norm(g0) > 0.0 and np.array_equal(out.d, g0)
    assert np.linalg.norm(out.d - g0) <= 0.5 * np.linalg.norm(g0) * (1.0 + 1e-6)  # criterion 3
    ref = solve_cagrad_primal_reference(gs, CagradConfig(0.5))
    max_sq = float(np.max(np.sum(g * g, axis=1)))
    assert abs(improvement_rate(gs, out.d) - improvement_rate(gs, ref.d)) <= 1e-12 * max_sq
    batch = solve_cagrad_batch(g[None], CagradConfig(0.5), np.full((1, 4), np.nan))
    assert not batch.errors and np.array_equal(batch.d[0], g0)


# ---------------------------------------------------------------------------
# rank-deficient stacks
# ---------------------------------------------------------------------------

def rank_deficient_stack(m, n, rank, seed):
    """m gradients in n dims of the given rank; with probability 0.3 each,
    one row duplicates another and one row negates another; scaled by
    10**U(-8, 8)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    for sign in (1.0, -1.0):
        if rng.random() < 0.3:
            i, j = rng.choice(m, 2, replace=False)
            g[i] = sign * g[j]
    return g * 10.0 ** rng.uniform(-8, 8)


@st.composite
def rank_deficient_stacks(draw):
    m, n = draw(st.integers(2, 8)), draw(st.integers(2, 10))
    return rank_deficient_stack(m, n, draw(st.integers(1, min(m, n) - 1)), draw(st.integers(0, 2**32 - 1)))


@given(rank_deficient_stacks())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_mgda_rank_deficient_stacks_match_primal_reference(g):
    # affinely dependent supports: Wolfe's minor cycle and the least-norm-vertex restart
    gs = gset(g)
    d = solve_mgda_dual(gs).d
    ref = solve_mgda_primal_reference(gs).d
    max_sq = float(np.max(np.sum(g * g, axis=1)))
    assert abs(mgda_primal_value(g, d) - mgda_primal_value(g, ref)) / max_sq <= 1e-4


def test_cagrad_exactly_negated_pair_converges():
    gs = gset([[1.0, 0.2], [0.3, 1.0], [-1.0, -0.2]])
    out = solve_cagrad_dual(gs, CagradConfig(0.5))
    ref = solve_cagrad_primal_reference(gs, CagradConfig(0.5))
    assert abs(improvement_rate(gs, out.d) - improvement_rate(gs, ref.d)) <= 1e-4


@given(rank_deficient_stacks(), st.sampled_from((0.2, 0.5, 0.9)))
@settings(max_examples=300, derandomize=True, deadline=None)
def test_cagrad_rank_deficient_stacks_match_primal_reference(g, c):
    # negated rows put the optimum at the g_w = 0 kink of the dual: the engine's limit update
    gs = gset(g)
    d = solve_cagrad_dual(gs, CagradConfig(c)).d
    ref = solve_cagrad_primal_reference(gs, CagradConfig(c)).d
    max_sq = float(np.max(np.sum(g * g, axis=1)))
    assert abs(improvement_rate(gs, d) - improvement_rate(gs, ref)) / max_sq <= 1e-4
    assert np.linalg.norm(d - gs.mean_grad) <= c * np.linalg.norm(gs.mean_grad) * (1.0 + 1e-6)


def sweep_stack(s):
    """Stack s of the rank-deficient sweep: m, n and the rank drawn in that
    order from default_rng(s), then rank_deficient_stack(m, n, rank, s)."""
    rng = np.random.default_rng(s)
    m = int(rng.integers(2, 9))
    n = int(rng.integers(2, 11))
    return rank_deficient_stack(m, n, int(rng.integers(1, min(m, n))), s)


@pytest.mark.parametrize("s, c", [(709, 0.5), (1407, 0.5), (1397, 0.9), (102, 0.5), (2174, 0.9),
                                  (2677, 0.9), (5398, 0.7), (3518, 0.99)])
def test_cagrad_sweep_stack_is_exact(s, c):
    # 709, 1407 and 2174 end at the g_w = 0 kink of the dual.  The optima of
    # 1397 and 102 lie off the kink, beside a negated pair whose min-norm point
    # is 0; from that pair's kink, 102 needs the face's limit subgradient.
    # 2677 and 5398 end at the kink on a face that adding the gradient of
    # least gain one by one to their negated pair does not find; the engine's
    # limit update g0 - G_S^T y of that face solves them.  On 3518 two
    # weights reach zero in one minor step; dropping both cycles the support.
    g = sweep_stack(s)
    gs = gset(g)
    d = solve_cagrad_dual(gs, CagradConfig(c)).d
    ref = solve_cagrad_primal_reference(gs, CagradConfig(c)).d
    max_sq = float(np.max(np.sum(g * g, axis=1)))
    assert abs(improvement_rate(gs, d) - improvement_rate(gs, ref)) <= 1e-12 * max_sq
    assert np.linalg.norm(d - gs.mean_grad) <= c * np.linalg.norm(gs.mean_grad) * (1.0 + 1e-6)


# Six gradients in 4 dims and two warm starts, from the 5 MGDA solves of
# `ensmbo run --task bowl --seed 0 --run-seeds 2` on which an active set that
# drops the most negative weight of the face's minimizer cycles.
BOWL_CYCLE_GRADS = [[float.fromhex(v) for v in row] for row in (
    ("-0x1.be2aca759b299p-2", "-0x1.043e27a8ede3fp+0", "0x1.1c8cec4b6c0c6p-1", "0x1.3cc3ed0ee8279p-3"),
    ("-0x1.a643cdd3289aep-4", "-0x1.22815d788360cp-2", "0x1.ea2927915afc9p-2", "0x1.5476e2e6dddb6p-2"),
    ("-0x1.5226554a41e90p-3", "-0x1.82b1c3deeb826p-4", "0x1.502bd76a78ec0p-2", "0x1.f4dc35cdca950p-6"),
    ("0x1.b102fa81e8800p-9", "0x1.0161a700f41d0p-3", "0x1.ff470ae60d40cp-4", "-0x1.e50199e5fd2aep-6"),
    ("0x1.5cdac086705cap-2", "0x1.2426ffc8e9bb8p-5", "0x1.066aac703b02fp-2", "0x1.a79b3b0aaf93ap-2"),
    ("0x1.10f0430a7878bp-3", "-0x1.73dd75261290ap-4", "-0x1.28658882268a4p-2", "-0x1.d08fdcae1fdc4p-5"),
)]
BOWL_CYCLE_WARM_STARTS = [[float.fromhex(v) for v in row] for row in (
    ("0x1.3b34644051ef0p-6", "0x0.0p+0", "0x1.6c9b0f68abcfcp-4",
     "0x1.0bce61397c713p-1", "0x0.0p+0", "0x1.7989336ed70acp-2"),
    ("0x0.0p+0", "0x0.0p+0", "0x1.1f5b787ff1b2dp-2",
     "0x1.c1d87724b7127p-2", "0x1.da943b5dc404ap-10", "0x1.1cf17c1ff976dp-2"),
)]


@pytest.mark.parametrize("w0", BOWL_CYCLE_WARM_STARTS + [[np.nan] * 6])
def test_mgda_active_set_core_does_not_cycle(w0):
    import ensmbo.combine as combine

    g = np.array(BOWL_CYCLE_GRADS)
    g_hat = g / np.max(np.linalg.norm(g, axis=1))
    w, grad_w = combine._active_set_rows(g_hat[None], combine._seeds(np.array([w0]), 6))
    assert combine._residual(w, grad_w)[0] <= combine.DUAL_TOL
    d = solve_mgda_dual(gset(g), w0=np.array(w0)).d
    ref = solve_mgda_primal_reference(gset(g)).d
    max_sq = float(np.max(np.sum(g * g, axis=1)))
    assert abs(mgda_primal_value(g, d) - mgda_primal_value(g, ref)) / max_sq <= 1e-12
