"""Gradient combination strategies for proxy-model ensembles.

Given per-model input gradients g_1..g_m, each combiner produces one
update direction d:

  * mean    - the average gradient g0
  * MGDA    - d maximizing min_i <d, g_i> - 0.5*||d||^2, equivalently the
              min-norm point of the gradients' convex hull
  * CAGrad  - d maximizing min_i <d, g_i> inside the ball
              ||d - g0|| <= c*||g0||

MGDA and CAGrad are solved through their simplex-constrained duals
(m decision variables) by one finite active-set engine that solves a
stack of gradient sets in lockstep: Wolfe's major and minor cycles, whose
face solves give MGDA's minimizer and, with one more right-hand side,
CAGrad's in closed form, at CAGrad's kink g_w = 0 included.
The per-point solvers are its one-row case.  The single and min
directions, the gradient of the first or of the lowest-predicting model,
are rows of the stack that ``ascent`` takes as they are.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

WEIGHT_FLOOR = -1e-12
WEIGHT_SUM_TOL = 1e-10
DUAL_TOL = 1e-8  # residual tolerance of the dual solvers


class SolverError(RuntimeError):
    """Raised when a dual solve fails to converge; carries the last iterate."""

    def __init__(self, message: str, weights: np.ndarray, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.message = message
        self.weights = weights
        self.residual = residual

    def __reduce__(self):  # ``args`` holds only the formatted message
        return type(self), (self.message, self.weights, self.residual)


@dataclass(frozen=True, eq=False)
class GradientSet:
    """Per-model gradients at one design point, plus optional predictions.

    ``grads`` is (m, n); ``values``, the per-model predictions, is (m,).
    The mean gradient is always recomputed from ``grads``.
    """

    grads: np.ndarray
    values: np.ndarray | None = None

    def __post_init__(self):
        grads = np.asarray(self.grads, dtype=np.float64)
        if grads.ndim != 2 or grads.shape[0] < 1:
            raise ValueError("grads must be a (m, n) array with m >= 1")
        if not np.all(np.isfinite(grads)):
            raise ValueError("gradients must be finite")
        object.__setattr__(self, "grads", grads)
        if self.values is not None:
            values = np.asarray(self.values, dtype=np.float64)
            if values.shape != (grads.shape[0],) or not np.all(np.isfinite(values)):
                raise ValueError("values must be finite with shape (m,)")
            object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return self.grads.shape[0]

    @property
    def dim(self) -> int:
        return self.grads.shape[1]

    @property
    def mean_grad(self) -> np.ndarray:
        return self.grads.mean(axis=0)


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.min(initial=0.0) < WEIGHT_FLOOR:
            raise ValueError(f"weight below {WEIGHT_FLOOR}")
        w = np.maximum(w, 0.0)
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True, eq=False)
class CombinedGradient:
    d: np.ndarray
    weights: SimplexWeights | None = None

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if not np.all(np.isfinite(d)):
            raise ValueError("combined gradient must be finite")
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class CagradConfig:
    """CAGrad's c, unchecked: ``harness.ExperimentConfig`` refuses one outside [0, 1) where it enters."""

    c: float = 0.5


# ---------------------------------------------------------------------------
# Elementary combiners
# ---------------------------------------------------------------------------

def combine_mean(gs: GradientSet) -> CombinedGradient:
    return CombinedGradient(d=gs.mean_grad)


# ---------------------------------------------------------------------------
# Simplex machinery
# ---------------------------------------------------------------------------

def _project_rows(v):
    """The Euclidean projection of each row of a (G, m) array onto the
    probability simplex (sort-based)."""
    m = v.shape[1]
    u = np.sort(v, axis=1)[:, ::-1]
    css = u.cumsum(axis=1) - 1.0
    rho = (m - 1) - (u - css / np.arange(1, m + 1) > 0.0)[:, ::-1].argmax(axis=1)  # last positive
    theta = css[np.arange(v.shape[0]), rho] / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


# ---------------------------------------------------------------------------
# The dual solver engine
# ---------------------------------------------------------------------------
#
# ``solve_mgda_batch`` and ``solve_cagrad_batch`` solve B gradient sets at
# once, every row in lockstep, with one active-set engine (Wolfe's major and
# minor cycles, ``_active_set_rows``) from each row's warm start.  Rows whose
# support has the same size k are gathered into one (G, k+1, k+1) stack of
# KKT matrices for one stacked LAPACK solve, and every other operation is
# one dot product or gemv per row, so a row's result does not depend on the
# other rows.  A CAGrad row that ends at the dual's kink g_w = 0 takes the
# face's limit update, which the engine records; a row whose residual is
# above DUAL_TOL is a SolverError.  ``solve_mgda_dual`` and
# ``solve_cagrad_dual`` are the one-row case.


@dataclass(frozen=True, eq=False)
class BatchCombined:
    """Per-row results of a batched solve.

    ``d`` is (B, n) and ``w`` (B, m); a row of ``w`` is NaN where its solve
    returned no weights or failed.  ``errors`` maps a row to the SolverError
    of its failed solve (its ``d`` row is then NaN).  The rows are not
    checked further: the engine's weights are clamped at zero and
    renormalized, or a vertex, and a caller checks d where it uses it.
    """

    d: np.ndarray
    w: np.ndarray
    errors: dict


def _rowdot(a, b):
    """<a_i, b_i> per row of two (G, k) arrays: one dot product per row."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _matvec(a, x):
    """a_i @ x_i per row of a (G, p, q) and a (G, q) array: one gemv per row."""
    return (a @ x[:, :, None])[:, :, 0]


def _rows_of(a, idx):
    """The entries a[i, idx[i]] of every row i: (G, k) of a (G, m) array."""
    return a[np.arange(idx.shape[0])[:, None], idx]


def _gather(a, idx):
    """The (G, k, k) principal submatrices of a (G, m, m) stack at idx (G, k)."""
    return a[np.arange(idx.shape[0])[:, None, None], idx[:, :, None], idx[:, None, :]]


def _by_size(rows, mask):
    """Split rows by the size k of their mask; yields (k, rows, idx) with
    idx (G, k) the sorted positions of each row's mask."""
    sub = mask[rows]
    sizes = sub.sum(axis=1)
    for k in np.flatnonzero(np.bincount(sizes)):
        sel = sizes == k
        yield int(k), rows[sel], np.nonzero(sub[sel])[1].reshape(-1, k)


def _solve_kkt(block, b_s=None):
    """Solve the stacked systems [[block, 1], [1^T, 0]] x = rhs for the
    right-hand side [0; 1], and [b_s; 0] as a second column if b_s (G, k)
    is given: x is (G, k+1, 1 or 2).  The solution of a row whose system is
    singular or solved inexactly (a residual above 1e-8) is NaN."""
    g, k = block.shape[0], block.shape[1]
    kkt = np.zeros((g, k + 1, k + 1))
    kkt[:, :k, :k] = block
    kkt[:, :k, k] = 1.0
    kkt[:, k, :k] = 1.0
    rhs = np.zeros((g, k + 1, 1 if b_s is None else 2))
    rhs[:, k, 0] = 1.0
    if b_s is not None:
        rhs[:, :k, 1] = b_s
    try:
        x = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:  # one singular row fails the whole stack
        x = np.full(rhs.shape, np.nan)
        for i in range(g):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[i] = np.linalg.solve(kkt[i], rhs[i])
    with np.errstate(over="ignore", invalid="ignore"):
        x[~(np.abs(kkt @ x - rhs).max(axis=(1, 2)) <= 1e-8)] = np.nan
    return x


def _residual(w, g):
    """The unit-step projected-gradient-mapping norm ||w - P(w - g)|| per row."""
    r = w - _project_rows(w - g)
    return np.sqrt(_rowdot(r, r))


def _seeds(w0, m):
    """Start weights: each row's projected warm start, or uniform for a cold
    row (one with a NaN or infinite entry).  Either is a finite point of the
    simplex, so some weight is at least 1/m."""
    seed = np.full(w0.shape, 1.0 / m)
    warm = np.isfinite(w0).all(axis=1)
    if warm.any():
        seed[warm] = _project_rows(w0[warm])
    return seed


def _check_batch(grads, w0):
    grads = np.ascontiguousarray(grads, dtype=np.float64)
    if grads.ndim != 3 or grads.shape[1] < 1:
        raise ValueError("grads must be a (B, m, n) array with m >= 1")
    if not np.all(np.isfinite(grads)):
        raise ValueError("gradients must be finite")
    w0 = np.asarray(w0, dtype=np.float64)
    if w0.shape != grads.shape[:2]:
        raise ValueError("w0 must have shape (B, m)")
    return grads, w0


def _finish(rows, d_rows, w_rows, res, failures, d, w) -> BatchCombined:
    """Place the solved rows into d and w, and record a SolverError for each
    failure (a position in rows and its message); a failed row's d and w
    become NaN."""
    errors = {int(rows[i]): SolverError(msg, weights=w_rows[i], residual=float(res[i]))
              for i, msg in failures.items()}
    d[rows], w[rows] = d_rows, w_rows
    failed = list(errors)
    d[failed], w[failed] = np.nan, np.nan
    return BatchCombined(d=d, w=w, errors=errors)


def _active_set_rows(g_hat, w, b=None, r=None):
    """Wolfe's active-set algorithm on each row's gradients g_hat (B, m, n)
    from the start weights w, taken as given.  Over the simplex it minimizes
    ||g_w||^2 (MGDA, b None) or the scaled CAGrad dual
    f(w) = b.w + r*||g_w|| (b (B, m), r (B,)).

    Each pass solves the face of each row's support S in closed form from
    one KKT matrix [[G_S, 1], [1^T, 0]] of the Gram matrix G.  The
    right-hand side [0; 1] gives the affine min-norm weights w_p, MGDA's
    face minimizer, with p = ||g_(w_p)||.  CAGrad adds [b_S; 0], which
    gives y and q^2 = y^T b_S.  As G_S w_p is a multiple of 1 and
    1^T y = 0, ||g_w||^2 = p^2 + t^2*q^2 at w_p - t*y, so f's face minimizer
    has t = p / sqrt(r^2 - q^2) if q^2 < r^2; otherwise f falls without
    bound along -y.  A minimizer with a negative weight, or an unbounded
    face, gets the minor cycle: a step toward the minimizer (or along -y)
    until the first weight reaches zero, dropping only the coordinate the
    ratio test picks (dropping every zero weight can cycle).  Else
    the minimizer is the new iterate, and the coordinate with the most
    violated optimality condition joins the support.  CAGrad's condition
    is on the gains <g_i, g0 + e> of its candidate update: e = r*g_w /
    ||g_w||, or -G_S^T y (the limit of the face's minimizers as p -> 0) at
    the kink ||g_w|| <= DUAL_TOL.  A singular or inexact KKT solve (an
    affinely dependent start support) restarts the row at its least-f
    vertex; a row that stalls or runs out of passes keeps its last iterate.
    Returns (w, G @ w) for MGDA.  CAGrad returns (w, e) instead, with e
    the limit update -G_S^T y of each row whose last face solve ended at
    the kink, and NaN in the other rows."""
    m = w.shape[1]
    gram = g_hat @ np.swapaxes(g_hat, 1, 2)
    cagrad = b is not None
    support = w > 1e-9
    w = np.where(support, w, 0.0)
    active = np.ones(w.shape[0], dtype=bool)
    e_kink = np.full((w.shape[0], g_hat.shape[2]), np.nan)
    for _ in range(4 * m + 8):
        if not active.any():
            break
        e_kink[active] = np.nan  # recorded anew each pass: none after a restart or minor step
        for k, grp, idx in _by_size(np.flatnonzero(active), support):
            block = _gather(gram[grp], idx)
            b_s = _rows_of(b[grp], idx) if cagrad else None
            sol = _solve_kkt(block, b_s)
            bad = np.isnan(sol).any(axis=(1, 2))
            if bad.any():  # restart at the least-f vertex
                reset = grp[bad]
                f_vertex = np.diagonal(gram[reset], axis1=1, axis2=2)
                if cagrad:
                    f_vertex = b[reset] + r[reset, None] * np.sqrt(f_vertex)
                w[reset] = np.eye(m)[np.argmin(f_vertex, axis=1)]
                support[reset] = w[reset] > 0.0
                grp, idx, sol = grp[~bad], idx[~bad], sol[~bad]
                b_s = None if b_s is None else b_s[~bad]
            x = _rows_of(w[grp], idx)
            target = sol[:, :k, 0]
            step, neg = target - x, target < -1e-12
            if cagrad:
                face = np.swapaxes(g_hat[grp[:, None], idx], 1, 2)  # (G, n, k)
                y = sol[:, :k, 1]
                g_p, g_y = _matvec(face, target), _matvec(face, y)
                slack = (r[grp] ** 2 - _rowdot(y, b_s))[:, None]
                with np.errstate(divide="ignore", invalid="ignore"):  # t is inf or NaN where unbounded
                    t = np.sqrt(_rowdot(g_p, g_p))[:, None] / np.sqrt(slack)
                    target = np.where(slack > 0.0, target - t * y, x)
                step = np.where(slack > 0.0, target - x, -y)
                neg = np.where(slack > 0.0, target < -1e-12, y > 0.0)
            minor = neg.any(axis=1)
            if minor.any():  # step toward the minimizer until a weight reaches zero
                sel, xm, st, ng = grp[minor], x[minor], step[minor], neg[minor]
                ratio = np.where(ng, xm, np.inf) / np.where(ng, -st, 1.0)
                drop = (np.arange(sel.shape[0]), ratio.argmin(axis=1))
                xm = xm + ratio.min(axis=1)[:, None] * st
                xm[drop] = 0.0
                xm = np.maximum(xm, 0.0)
                w[sel[:, None], idx[minor]] = xm / xm.sum(axis=1)[:, None]
                support[sel, idx[minor][drop]] = False  # other zero weights stay in S
            grp, idx, target = grp[~minor], idx[~minor], target[~minor]
            w_new = np.zeros((grp.shape[0], m))
            w_new[np.arange(grp.shape[0])[:, None], idx] = np.maximum(target, 0.0)
            w_new /= w_new.sum(axis=1)[:, None]
            w[grp] = w_new
            if cagrad:  # f's (sub)gradient: the gains of the candidate update
                g_w = _matvec(np.swapaxes(g_hat[grp], 1, 2), w_new)
                nrm = np.sqrt(_rowdot(g_w, g_w))[:, None]
                with np.errstate(divide="ignore", invalid="ignore"):
                    e = np.where(nrm <= DUAL_TOL, -g_y[~minor], r[grp, None] * g_w / nrm)
                e_kink[grp] = np.where(nrm <= DUAL_TOL, e, np.nan)
                grad = b[grp] + _matvec(g_hat[grp], e)
            else:
                grad = _matvec(gram[grp], w_new)  # <g_i, g_w>
            wg = _rowdot(w_new, grad)
            j = np.argmin(grad, axis=1)
            done = grad[np.arange(grp.shape[0]), j] >= wg - 1e-12 * (1.0 + np.abs(wg))
            stalled = support[grp, j]
            active[grp[done | stalled]] = False
            grow = ~(done | stalled)
            support[grp[grow], j[grow]] = True
    return (w, e_kink) if cagrad else (w, _matvec(gram, w))


def solve_mgda_batch(grads, w0) -> BatchCombined:
    """The MGDA min-norm point of each row of a (B, m, n) gradient stack.

    ``w0`` (B, m) warm-starts each row; a row with a NaN or infinite entry
    starts cold.  All-zero gradients give d = 0 with uniform weights.
    """
    grads, w0 = _check_batch(grads, w0)
    n_rows, m, n = grads.shape
    scale = np.max(np.linalg.norm(grads, axis=2), axis=1, initial=0.0)
    rows = np.flatnonzero(scale != 0.0)
    scale = scale[rows]
    g_hat = grads[rows] / scale[:, None, None]

    w, grad_w = _active_set_rows(g_hat, _seeds(w0[rows], m))
    res = _residual(w, grad_w)
    failures = dict.fromkeys(np.flatnonzero(res > DUAL_TOL).tolist(), "MGDA dual did not converge")
    d = _matvec(np.swapaxes(g_hat, 1, 2), w) * scale[:, None]
    return _finish(rows, d, w, res, failures, np.zeros((n_rows, n)), np.full((n_rows, m), 1.0 / m))


def solve_cagrad_batch(grads, cfg: CagradConfig, w0) -> BatchCombined:
    """The CAGrad update of each row of a (B, m, n) gradient stack.

    ``w0`` (B, m) warm-starts each row; a row with a NaN or infinite entry
    starts cold.  The engine minimizes the scaled dual b.w + r*||g_w|| with
    b = G g0 and r = c*||g0|| exactly, and d = g0 + e with the update
    e = r*g_w / ||g_w||, or at the kink ||g_w|| <= DUAL_TOL the engine's
    limit update -G_S^T y: g0 projected off the span of the support's
    gradients, whose gains it makes 0.  Closed forms: a zero-radius ball
    (c = 0, or a scaled mean that rounds to zero) gives d = g0 with all
    weight on the gradient of least gain along g0; ||g0|| = 0 gives d = 0
    without weights.
    """
    grads, w0 = _check_batch(grads, w0)
    n_rows, m, n = grads.shape
    g0_full = grads.mean(axis=1)
    w_ball = np.zeros((n_rows, m))
    w_ball[np.arange(n_rows), np.argmin(_matvec(grads, g0_full), axis=1)] = 1.0
    zero = (_rowdot(g0_full, g0_full) == 0.0) & (cfg.c != 0.0)  # ||g0|| = 0
    w_ball[zero] = np.nan
    d_ball = np.where(zero[:, None], 0.0, g0_full)

    rows = np.flatnonzero(~zero) if cfg.c != 0.0 else np.zeros(0, dtype=int)
    scale = np.max(np.linalg.norm(grads[rows], axis=2), axis=1, initial=0.0)
    g_hat = grads[rows] / scale[:, None, None]
    g0 = g_hat.mean(axis=1)
    r = cfg.c * np.sqrt(_rowdot(g0, g0))
    keep = r != 0.0  # else the scaled ball has radius zero
    rows, scale, g_hat, g0, r = rows[keep], scale[keep], g_hat[keep], g0[keep], r[keep]
    b = _matvec(g_hat, g0)

    w, e_kink = _active_set_rows(g_hat, _seeds(w0[rows], m), b, r)
    g_w = _matvec(np.swapaxes(g_hat, 1, 2), w)
    g_w_norm = np.sqrt(_rowdot(g_w, g_w))
    kink = g_w_norm <= DUAL_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.where(kink[:, None], e_kink, r[:, None] * g_w / g_w_norm[:, None])
        res = _residual(w, b + _matvec(g_hat, e))
    res = np.where(np.isnan(res), np.inf, res)
    failures = {i: "CAGrad dual stalled at the g_w = 0 kink" if kink[i] else "CAGrad dual did not converge"
                for i in np.flatnonzero(res > DUAL_TOL).tolist()}
    return _finish(rows, (g0 + e) * scale[:, None], w, res, failures, d_ball, w_ball)


def _one_row(batch_solve, gs: GradientSet, w0) -> CombinedGradient:
    """``batch_solve`` of the one-row stack of gs; raises the row's error."""
    out = batch_solve(gs.grads[None], np.full((1, gs.m), np.nan) if w0 is None else np.asarray(w0)[None])
    if out.errors:
        raise out.errors[0]
    w = out.w[0]
    return CombinedGradient(d=out.d[0], weights=None if np.isnan(w).all() else SimplexWeights(w))


def solve_mgda_dual(gs: GradientSet, w0: np.ndarray | None = None) -> CombinedGradient:
    """Min-norm point of the gradients' convex hull via the simplex dual:
    ``solve_mgda_batch`` of one row.

    The returned direction satisfies the KKT conditions
    <g_i, d> >= ||d||^2 (within DUAL_TOL), with equality on the support of
    w.  ``w0`` warm-starts the solve (useful along an ascent trajectory).
    """
    return _one_row(solve_mgda_batch, gs, w0)


def solve_cagrad_dual(gs: GradientSet, cfg: CagradConfig, w0: np.ndarray | None = None) -> CombinedGradient:
    """CAGrad update through its simplex dual: ``solve_cagrad_batch`` of one row.

    Minimizes <g_w, g0> + c*||g0||*||g_w|| over the simplex and returns
    d = g0 + c*||g0||*g_w / ||g_w||, or g0 plus the engine's limit update at
    the kink g_w = 0.  ``w0`` warm-starts the solve.
    """
    return _one_row(lambda grads, w0_: solve_cagrad_batch(grads, cfg, w0_), gs, w0)
