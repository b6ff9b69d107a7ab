"""Gradient combination strategies for proxy-model ensembles.

Given per-model input gradients g_1..g_m (and predictions where needed),
each combiner produces one update direction d:

  * mean    - the average gradient g0
  * min     - the gradient of the lowest-predicting model
  * MGDA    - d maximizing min_i <d, g_i> - 0.5*||d||^2, equivalently the
              min-norm point of the gradients' convex hull
  * CAGrad  - d maximizing min_i <d, g_i> inside the ball
              ||d - g0|| <= c*||g0||

MGDA and CAGrad are solved through their simplex-constrained duals
(m decision variables) with projected gradient descent plus an exact
polish step.  Batched solves replay those per-point solvers on stacks of
gradient sets, bit for bit.  Low-dimensional primal reference solvers
maximize over d directly and serve as independent oracles in the test
suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

MAX_ITER = 5000
SMOOTH_EPS = 1e-12  # smoothing of ||g_w|| in the CAGrad dual
WEIGHT_FLOOR = -1e-12
WEIGHT_SUM_TOL = 1e-10
PRIMAL_MAX_DIM = 16
DUAL_TOL = 1e-8  # residual tolerance of the dual solvers


class SolverError(RuntimeError):
    """Raised when a dual solve fails to converge; carries the best iterate."""

    def __init__(self, message: str, weights: np.ndarray, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.weights = weights
        self.residual = residual


@dataclass(frozen=True, eq=False)
class GradientSet:
    """Per-model gradients at one design point, plus optional predictions.

    ``grads`` is (m, n); ``values`` (needed by the min combiner) is (m,).
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


@dataclass(frozen=True)
class CagradInternals:
    phi: float
    lambda_star: float


@dataclass(frozen=True, eq=False)
class CombinedGradient:
    d: np.ndarray
    weights: SimplexWeights | None = None
    cagrad: CagradInternals | None = None

    def __post_init__(self):
        d = np.asarray(self.d, dtype=np.float64)
        if not np.all(np.isfinite(d)):
            raise ValueError("combined gradient must be finite")
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class CagradConfig:
    c: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.c < 1.0):
            raise ValueError("CAGrad c must lie in [0, 1)")


# ---------------------------------------------------------------------------
# Elementary combiners
# ---------------------------------------------------------------------------

def combine_mean(gs: GradientSet) -> CombinedGradient:
    return CombinedGradient(d=gs.mean_grad)


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


# ---------------------------------------------------------------------------
# Simplex machinery
# ---------------------------------------------------------------------------

def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    return _project_rows(np.asarray(v, dtype=np.float64)[None])[0]


def _project_rows(v):
    """``project_to_simplex`` of each row of a (G, m) array."""
    m = v.shape[1]
    u = np.sort(v, axis=1)[:, ::-1]
    css = u.cumsum(axis=1) - 1.0
    rho = (m - 1) - (u - css / np.arange(1, m + 1) > 0.0)[:, ::-1].argmax(axis=1)  # last positive
    theta = css[np.arange(v.shape[0]), rho] / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


def _pgd_simplex(value, grad, m, tol, max_iter, w0=None):
    """Projected gradient descent with backtracking on the simplex.

    Returns (w, residual) where residual is the unit-step
    projected-gradient-mapping norm.
    """
    if w0 is None:
        w = np.full(m, 1.0 / m)
    else:
        w = project_to_simplex(np.asarray(w0, dtype=np.float64))
    f = value(w)
    step = 1.0
    for _ in range(max_iter):
        g = grad(w)
        r = w - project_to_simplex(w - g)
        residual = float(np.sqrt(r @ r))
        if residual <= tol:
            return w, residual
        accepted = False
        for _ in range(60):
            w_new = project_to_simplex(w - step * g)
            delta = w_new - w
            quad = float(delta @ delta)
            if quad == 0.0:
                break  # stuck at a vertex the gradient cannot leave
            f_new = value(w_new)
            if f_new <= f + float(g @ delta) + 0.5 / step * quad + 1e-18:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        w, f = w_new, f_new
        step = min(step * 2.0, 1e9)
    r = w - project_to_simplex(w - grad(w))
    return w, float(np.sqrt(r @ r))


def _face_min_norm(gram: np.ndarray, support: list) -> np.ndarray:
    """Minimize w^T gram w over sum(w)=1 restricted to a support set.

    Solves the equality-KKT system; falls back to least squares when the
    restricted Gram is singular (duplicate gradients).
    """
    k = len(support)
    if k == 1:
        return np.ones(1)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = gram[np.ix_(support, support)]
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = None
    if sol is None or not np.all(np.isfinite(sol)) or float(np.abs(kkt @ sol - rhs).max()) > 1e-8:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:k]


def _mgda_active_set(gram: np.ndarray, w_start: np.ndarray) -> np.ndarray:
    """Exact min-norm-point solve for small m, seeded by a warm iterate."""
    m = gram.shape[0]

    def objective(w):
        return 0.5 * float(w @ gram @ w)

    support = [i for i in range(m) if w_start[i] > 1e-9]
    if not support:
        support = [int(np.argmin(np.diag(gram)))]
    best_w = w_start
    best_f = objective(w_start)
    for _ in range(4 * m + 8):
        w_s = _face_min_norm(gram, support)
        if w_s.min() < -1e-12:
            if len(support) == 1:
                break
            support.pop(int(np.argmin(w_s)))
            continue
        w = np.zeros(m)
        w[support] = np.maximum(w_s, 0.0)
        w /= w.sum()
        f = objective(w)
        if f < best_f:
            best_f, best_w = f, w
        inner = gram @ w  # <g_i, g_w>
        dd = float(w @ inner)
        j = int(np.argmin(inner))
        if inner[j] >= dd - 1e-12 * (1.0 + dd):
            return w
        if j in support:
            break
        support.append(j)
        support.sort()
    return best_w


def solve_mgda_dual(gs: GradientSet, tol: float = DUAL_TOL, w0: np.ndarray | None = None) -> CombinedGradient:
    """Min-norm point of the gradients' convex hull via the simplex dual.

    The returned direction satisfies the KKT conditions
    <g_i, d> >= ||d||^2 (within tol), with equality on the support of w.
    ``w0`` warm-starts the solve (useful along an ascent trajectory).
    """
    scale = float(np.max(np.linalg.norm(gs.grads, axis=1), initial=0.0))
    m = gs.m
    if scale == 0.0:
        return CombinedGradient(d=np.zeros(gs.dim), weights=SimplexWeights(np.full(m, 1.0 / m)))
    g_hat = gs.grads / scale
    gram = g_hat @ g_hat.T

    def value(w):
        return 0.5 * float(w @ gram @ w)

    def grad(w):
        return gram @ w

    def residual_at(w):
        r = w - project_to_simplex(w - grad(w))
        return float(np.sqrt(r @ r))

    # Exact active-set solve seeded by the warm start; PGD picks up the
    # rare cases the combinatorial loop stalls on.
    w_seed = project_to_simplex(np.asarray(w0, dtype=np.float64)) if w0 is not None else np.full(m, 1.0 / m)
    w = _mgda_active_set(gram, w_seed)
    residual = residual_at(w)
    if residual > tol:
        w_pgd, residual_pgd = _pgd_simplex(value, grad, m, tol, MAX_ITER, w0=w)
        w_polished = _mgda_active_set(gram, w_pgd)
        for cand in (w_polished, w_pgd):
            if residual_at(cand) <= residual:
                w, residual = cand, residual_at(cand)
    if residual > tol:
        raise SolverError("MGDA dual did not converge", weights=w, residual=residual)
    d = (g_hat.T @ w) * scale
    return CombinedGradient(d=d, weights=SimplexWeights(w))


def _face_newton_step(g, h, free, damp):
    """Equality-constrained Newton step on the working face (sum stays 1)."""
    k = len(free)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = h[np.ix_(free, free)] + damp * np.eye(k)
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[:k] = -g[free]
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    if not np.all(np.isfinite(sol)):
        return None
    return sol[:k]


def _active_set_newton(value, grad, hess, w_start, max_outer=40):
    """Active-set Newton minimization of a smooth convex function on the simplex.

    Pins coordinates at zero, runs equality-constrained Newton on the free
    face, and moves coordinates between the pinned and free sets based on
    non-negativity and multiplier signs.
    """
    m = w_start.shape[0]
    w = project_to_simplex(np.asarray(w_start, dtype=np.float64))
    free = [i for i in range(m) if w[i] > 1e-12]
    if not free:
        free = [int(np.argmin(grad(w)))]
        w = np.zeros(m)
        w[free[0]] = 1.0
    for _ in range(max_outer):
        # Newton iterations restricted to the current face
        for _ in range(60):
            if len(free) == 1:
                break
            g = grad(w)
            gf = g[free]
            rg = gf - gf.mean()
            if float(np.sqrt(rg @ rg)) <= 1e-14 * (1.0 + float(np.abs(gf).max())):
                break
            h = hess(w)
            damp = 1e-13 * (1.0 + abs(float(np.trace(h))) / m)
            p = _face_newton_step(g, h, free, damp)
            if p is None:
                break
            pnorm = float(np.sqrt(p @ p))
            if pnorm <= 1e-16:
                break
            wf = w[free]
            neg = p < 0.0
            t_max = float(np.min(wf[neg] / -p[neg])) if np.any(neg) else 1.0
            t = min(1.0, t_max)
            if t <= 0.0:
                break
            f = value(w)
            rg_norm = float(np.sqrt(rg @ rg))
            moved = False
            for _ in range(40):
                w_new = w.copy()
                w_new[free] = np.maximum(wf + t * p, 0.0)
                f_new = value(w_new)
                if f_new < f - 1e-18:
                    moved = True
                    break
                if f_new <= f + 1e-18:
                    # objective change below fp noise: fall back to the
                    # reduced-gradient norm as the merit function
                    g_new = grad(w_new)[free]
                    rg_new = g_new - g_new.mean()
                    if float(np.sqrt(rg_new @ rg_new)) < rg_norm:
                        moved = True
                        break
                t *= 0.5
            if not moved:
                break
            w = w_new
        # pin coordinates that collapsed to (numerical) zero
        new_free = [i for i in free if w[i] > 1e-15]
        if new_free and len(new_free) < len(free):
            scaled = np.zeros(m)
            scaled[new_free] = w[new_free]
            w = scaled / scaled.sum()
            free = new_free
            continue
        # multiplier check: pinned coordinates must not want to re-enter
        g = grad(w)
        nu = float(g[free].mean())
        pinned = [i for i in range(m) if i not in free]
        if not pinned:
            return w
        j = min(pinned, key=lambda i: g[i])
        if g[j] >= nu - 1e-12 * (1.0 + abs(nu)):
            return w
        free = sorted(free + [j])
    return w


def solve_cagrad_dual(gs: GradientSet, cfg: CagradConfig, tol: float = DUAL_TOL,
                      w0: np.ndarray | None = None) -> CombinedGradient:
    """CAGrad update through its simplex dual.

    Minimizes <g_w, g0> + sqrt(phi)*||g_w|| over the simplex with
    phi = c^2*||g0||^2 and reconstructs d = g0 + g_w / lambda*,
    lambda* = ||g_w|| / sqrt(phi).  Degenerate cases: c = 0 gives d = g0
    exactly; ||g0|| = 0 gives d = 0; g_w* = 0 gives d = g0.
    ``w0`` warm-starts the solve.
    """
    m = gs.m
    g0_full = gs.mean_grad
    g0_norm = float(np.linalg.norm(g0_full))
    if cfg.c == 0.0:
        j = int(np.argmin(gs.grads @ g0_full))
        w = np.zeros(m)
        w[j] = 1.0
        return CombinedGradient(d=g0_full.copy(), weights=SimplexWeights(w),
                                cagrad=CagradInternals(phi=0.0, lambda_star=float("inf")))
    if g0_norm == 0.0:
        return CombinedGradient(d=np.zeros(gs.dim),
                                cagrad=CagradInternals(phi=0.0, lambda_star=float("inf")))

    scale = float(np.max(np.linalg.norm(gs.grads, axis=1)))
    g_hat = gs.grads / scale
    g0 = g_hat.mean(axis=0)
    gram = g_hat @ g_hat.T
    b = g_hat @ g0
    sqrt_phi = cfg.c * float(np.linalg.norm(g0))

    def gw_norm_sm(w):
        return float(np.sqrt(max(w @ gram @ w, 0.0) + SMOOTH_EPS))

    def value(w):
        return float(w @ b) + sqrt_phi * gw_norm_sm(w)

    def grad(w):
        return b + sqrt_phi * (gram @ w) / gw_norm_sm(w)

    def hess(w):
        nrm = gw_norm_sm(w)
        mw = gram @ w
        return sqrt_phi * (gram / nrm - np.outer(mw, mw) / nrm**3)

    def residual_at(w):
        r = w - project_to_simplex(w - grad(w))
        return float(np.sqrt(r @ r))

    # Projected Newton from the warm start, then progressively longer PGD
    # phases (with Newton polish) for the cases it stalls on.
    w = project_to_simplex(np.asarray(w0, dtype=np.float64)) if w0 is not None else np.full(m, 1.0 / m)
    w = _active_set_newton(value, grad, hess, w)
    residual = residual_at(w)
    if residual > tol:
        for budget in (40, MAX_ITER):
            w_pgd, _ = _pgd_simplex(value, grad, m, tol, budget, w0=w)
            w_newton = _active_set_newton(value, grad, hess, w_pgd)
            for cand in (w_newton, w_pgd):
                r = residual_at(cand)
                if r <= residual:
                    w, residual = cand, r
            if residual <= tol:
                break
    if residual > tol:
        raise SolverError("CAGrad dual did not converge", weights=w, residual=residual)

    g_w = g_hat.T @ w
    g_w_norm = float(np.linalg.norm(g_w))
    lam = g_w_norm / sqrt_phi  # ||g_w|| / sqrt(phi), scale-invariant
    if g_w_norm == 0.0:
        d_hat = g0
    else:
        # smoothed norm keeps the step inside the ball by construction
        d_hat = g0 + sqrt_phi * g_w / np.sqrt(g_w_norm**2 + SMOOTH_EPS)
    phi_raw = (cfg.c * g0_norm) ** 2
    return CombinedGradient(d=d_hat * scale, weights=SimplexWeights(w),
                            cagrad=CagradInternals(phi=phi_raw, lambda_star=lam))


# ---------------------------------------------------------------------------
# Batched solves: a lockstep replay of the per-point solvers
# ---------------------------------------------------------------------------
#
# ``solve_mgda_batch`` and ``solve_cagrad_batch`` solve B gradient sets at
# once.  They run the per-point algorithms above on stacked arrays, every
# row in lockstep: rows whose support (or free set) has the same size k are
# gathered into one (G, k+1, k+1) stack of the per-point KKT matrices for one
# stacked LAPACK solve, and every other operation is computed the way the
# per-point code computes it (one dot product or gemv per row, Python's
# float power), so a row finished here carries the per-point solver's bits.
# A row that leaves that path (a stall, a singular or inexact KKT solve, a
# residual above DUAL_TOL, a degenerate input) is solved by the per-point solver
# from the same warm start.

_INNER, _OUTER, _DONE, _OUT = range(4)


@dataclass(frozen=True, eq=False)
class BatchCombined:
    """Per-row results of a batched solve.

    ``d`` is (B, n) and ``w`` (B, m); a row of ``w`` is NaN where its solve
    returned no weights or failed.  ``fallback`` marks the rows the per-point
    solver finished, and ``errors`` maps a row to the exception its solve
    raised (its ``d`` row is then NaN).
    """

    d: np.ndarray
    w: np.ndarray
    fallback: np.ndarray
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


def _solve_kkt(block, top, last):
    """Solve the stacked systems [[block, 1], [1^T, 0]] x = [top, last].

    Returns (kkt, rhs, x, singular); a singular row's x is NaN.
    """
    g, k = block.shape[0], block.shape[1]
    kkt = np.zeros((g, k + 1, k + 1))
    kkt[:, :k, :k] = block
    kkt[:, :k, k] = 1.0
    kkt[:, k, :k] = 1.0
    rhs = np.zeros((g, k + 1))
    rhs[:, :k] = top
    rhs[:, k] = last
    singular = np.zeros(g, dtype=bool)
    try:
        x = np.linalg.solve(kkt, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # one singular row fails the whole stack
        x = np.full((g, k + 1), np.nan)
        for i in range(g):
            try:
                x[i] = np.linalg.solve(kkt[i], rhs[i])
            except np.linalg.LinAlgError:
                singular[i] = True
    return kkt, rhs, x, singular


def _seeds(w0, rows, m):
    """Per-point start weights: the projected warm start, or uniform for a
    cold row (a NaN row of w0)."""
    seed = np.full((rows.shape[0], m), 1.0 / m)
    warm = ~np.isnan(w0[rows]).any(axis=1)
    if warm.any():
        seed[warm] = _project_rows(w0[rows[warm]])
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


def _finish(grads, w0, rows, d_rows, w_rows, solve) -> BatchCombined:
    """Weight checks and direction for the replayed rows, then the per-point
    solver for every other row."""
    n_rows, m, n = grads.shape
    d = np.full((n_rows, n), np.nan)
    w = np.full((n_rows, m), np.nan)
    # what SimplexWeights and CombinedGradient check
    ok = ~(w_rows.min(axis=1, initial=0.0) < WEIGHT_FLOOR)
    w_rows = np.maximum(w_rows, 0.0)
    ok &= ~(np.abs(w_rows.sum(axis=1) - 1.0) > WEIGHT_SUM_TOL)
    ok &= np.isfinite(d_rows).all(axis=1)
    d[rows[ok]], w[rows[ok]] = d_rows[ok], w_rows[ok]
    fallback = np.ones(n_rows, dtype=bool)
    fallback[rows[ok]] = False
    errors = {}
    for i in np.flatnonzero(fallback):
        warm = None if np.isnan(w0[i]).any() else w0[i]
        try:
            out = solve(GradientSet(grads=grads[i]), warm)
        except (SolverError, ValueError, ArithmeticError) as exc:  # reported per row; the caller decides
            errors[int(i)] = exc
            continue
        d[i] = out.d
        if out.weights is not None:
            w[i] = out.weights.w
    return BatchCombined(d=d, w=w, fallback=fallback, errors=errors)


def solve_mgda_batch(grads, w0) -> BatchCombined:
    """``solve_mgda_dual`` on each row of a (B, m, n) gradient stack.

    ``w0`` (B, m) warm-starts each row; a NaN row starts cold.  Every row
    equals the per-point solve from the same warm start, bit for bit.
    """
    grads, w0 = _check_batch(grads, w0)
    _, m, _ = grads.shape
    scale = np.max(np.linalg.norm(grads, axis=2), axis=1, initial=0.0)
    rows = np.flatnonzero(scale != 0.0)  # all-zero rows: the per-point path
    scale = scale[rows]
    g_hat = grads[rows] / scale[:, None, None]
    gram = g_hat @ np.swapaxes(g_hat, 1, 2)

    # _mgda_active_set, one support per row
    support = _seeds(w0, rows, m) > 1e-9
    empty = np.flatnonzero(~support.any(axis=1))
    support[empty, np.argmin(np.diagonal(gram[empty], axis1=1, axis2=2), axis=1)] = True
    state = np.full(rows.shape[0], _INNER)
    w = np.zeros((rows.shape[0], m))
    grad_w = np.zeros((rows.shape[0], m))
    for _ in range(4 * m + 8):
        if not np.any(state == _INNER):
            break
        for k, grp, idx in _by_size(np.flatnonzero(state == _INNER), support):
            if k == 1:
                w_s = np.ones((grp.shape[0], 1))
            else:  # _face_min_norm; its lstsq branch leaves the path
                kkt, rhs, sol, singular = _solve_kkt(_gather(gram[grp], idx), 0.0, 1.0)
                with np.errstate(invalid="ignore"):
                    inexact = singular | ~(np.abs(_matvec(kkt, sol) - rhs).max(axis=1) <= 1e-8)
                state[grp[inexact]] = _OUT
                grp, idx, w_s = grp[~inexact], idx[~inexact], sol[~inexact, :k]
            drop = w_s.min(axis=1) < -1e-12
            support[grp[drop], idx[drop, np.argmin(w_s[drop], axis=1)]] = False
            grp, idx, w_s = grp[~drop], idx[~drop], w_s[~drop]
            w_new = np.zeros((grp.shape[0], m))
            w_new[np.arange(grp.shape[0])[:, None], idx] = np.maximum(w_s, 0.0)
            w_new /= w_new.sum(axis=1)[:, None]
            inner = _matvec(gram[grp], w_new)
            dd = _rowdot(w_new, inner)
            j = np.argmin(inner, axis=1)
            done = inner[np.arange(grp.shape[0]), j] >= dd - 1e-12 * (1.0 + dd)
            w[grp[done]], grad_w[grp[done]] = w_new[done], inner[done]
            state[grp[done]] = _DONE
            grp, j = grp[~done], j[~done]
            stalled = support[grp, j]  # the loop's break
            state[grp[stalled]] = _OUT
            support[grp[~stalled], j[~stalled]] = True
    ok = state == _DONE

    r = w - _project_rows(w - grad_w)
    ok &= np.sqrt(_rowdot(r, r)) <= DUAL_TOL
    d = _matvec(np.swapaxes(g_hat, 1, 2), w) * scale[:, None]
    return _finish(grads, w0, rows[ok], d[ok], w[ok], lambda gs, w_: solve_mgda_dual(gs, w0=w_))


def _cagrad_terms(gram, b, sqrt_phi, w):
    """The smoothed ||g_w||, gram @ w and the dual gradient at each row's w,
    computed as the closures of ``solve_cagrad_dual`` compute them."""
    quad = ((w[:, None, :] @ gram) @ w[:, :, None])[:, 0, 0]
    nrm = np.sqrt(np.where(0.0 > quad, 0.0, quad) + SMOOTH_EPS)
    mw = _matvec(gram, w)
    return nrm, mw, b + sqrt_phi[:, None] * mw / nrm[:, None]


def _row_means(a):
    """a.mean() of each row: the same sum and division, without np.mean's
    Python-level overhead."""
    return a.sum(axis=1) / a.shape[1]


def _reduced_norm(gf):
    rg = gf - _row_means(gf)[:, None]
    return np.sqrt(_rowdot(rg, rg))


def solve_cagrad_batch(grads, cfg: CagradConfig, w0) -> BatchCombined:
    """``solve_cagrad_dual`` on each row of a (B, m, n) gradient stack.

    ``w0`` (B, m) warm-starts each row; a NaN row starts cold.  Every row
    equals the per-point solve from the same warm start, bit for bit.
    """
    grads, w0 = _check_batch(grads, w0)
    _, m, _ = grads.shape
    g0_full = grads.mean(axis=1)
    live = np.sqrt(_rowdot(g0_full, g0_full)) != 0.0  # ||g0|| = 0: the per-point path
    rows = np.flatnonzero(live if cfg.c != 0.0 else np.zeros_like(live))
    scale = np.max(np.linalg.norm(grads[rows], axis=2), axis=1, initial=0.0)
    g_hat = grads[rows] / scale[:, None, None]
    g0 = g_hat.mean(axis=1)
    gram = g_hat @ np.swapaxes(g_hat, 1, 2)
    b = _matvec(g_hat, g0)
    sqrt_phi = cfg.c * np.sqrt(_rowdot(g0, g0))

    # _active_set_newton, one free set per row
    w = _project_rows(_seeds(w0, rows, m))
    free = w > 1e-12
    state = np.where(free.any(axis=1), _INNER, _OUT)
    n_inner = np.zeros(rows.shape[0], dtype=int)
    n_outer = np.zeros(rows.shape[0], dtype=int)
    # _cagrad_terms at each row's current w, kept from the line search
    nrm_w, mw_w, grad_w = np.zeros(rows.shape[0]), np.zeros_like(w), np.zeros_like(w)
    current = np.zeros(rows.shape[0], dtype=bool)

    def refresh(grp):
        grp = grp[~current[grp]]
        if grp.size:
            nrm_w[grp], mw_w[grp], grad_w[grp] = _cagrad_terms(gram[grp], b[grp], sqrt_phi[grp], w[grp])
            current[grp] = True

    def trial(data, p, t, f, rg_norm):
        """The line search's test of the step w + t*p (on the free set) of
        each row; ``data`` holds (free, w, gram, b, sqrt_phi) of the rows."""
        free_r, w_r, gram_r, b_r, sp_r = data
        w_new = np.where(free_r, np.maximum(w_r + t[:, None] * p, 0.0), w_r)
        terms = _cagrad_terms(gram_r, b_r, sp_r, w_new)
        f_new = _rowdot(w_new, b_r) + sp_r * terms[0]
        ok = f_new < f - 1e-18
        flat = ~ok & (f_new <= f + 1e-18)
        if flat.any():  # objective change below fp noise: the reduced-gradient norm decides
            for _, sel, idx in _by_size(np.flatnonzero(flat), free_r):
                ok[sel] = _reduced_norm(_rows_of(terms[2][sel], idx)) < rg_norm[sel]
        return ok, (w_new, *terms)

    def newton_pass(grp):
        """One pass of the inner loop for each row: a face Newton step and its line search."""
        refresh(grp)
        data = (free[grp], w[grp], gram[grp], b[grp], sqrt_phi[grp])
        free_g, w_g, gram_g, _, sp_g = data
        nrm, mw, g = nrm_w[grp], mw_w[grp], grad_w[grp]
        nrm3 = np.array([v**3 for v in nrm.tolist()])  # Python's pow, as the closure
        h = sp_g[:, None, None] * (
            gram_g / nrm[:, None, None] - (mw[:, :, None] * mw[:, None, :]) / nrm3[:, None, None])
        damp = 1e-13 * (1.0 + np.abs(h.trace(axis1=1, axis2=2)) / m)
        p = np.zeros((grp.shape[0], m))
        rg_norm = np.zeros(grp.shape[0])
        step = np.zeros(grp.shape[0], dtype=bool)
        for k, sel, idx in _by_size(np.arange(grp.shape[0]), free_g):
            if k == 1:  # nothing to step on
                continue
            gf = _rows_of(g[sel], idx)
            rn = _reduced_norm(gf)
            go = ~(rn <= 1e-14 * (1.0 + np.abs(gf).max(axis=1)))
            sel, idx, gf, rn = sel[go], idx[go], gf[go], rn[go]
            block = _gather(h[sel], idx) + damp[sel, None, None] * np.eye(k)
            _, _, sol, singular = _solve_kkt(block, -gf, 0.0)
            state[grp[sel[singular]]] = _OUT  # the lstsq branch
            finite = np.isfinite(sol).all(axis=1)
            pk = np.where(finite[:, None], sol[:, :k], 0.0)
            go = finite & (np.sqrt(_rowdot(pk, pk)) > 1e-16)
            sel, idx = sel[go], idx[go]
            p[sel[:, None], idx] = pk[go]
            rg_norm[sel] = rn[go]
            step[sel] = True
        neg = p < 0.0
        ratio = np.full(p.shape, np.inf)
        ratio[neg] = w_g[neg] / -p[neg]
        t_max = np.where(neg.any(axis=1), ratio.min(axis=1), 1.0)
        t = np.where(t_max < 1.0, t_max, 1.0)
        step &= t > 0.0
        state[grp[~step & (state[grp] != _OUT)]] = _OUTER  # the loop's breaks
        grp, nrm, p, t, rg_norm = grp[step], nrm[step], p[step], t[step], rg_norm[step]
        data = tuple(a[step] for a in data)
        _, w_g, _, b_g, sp_g = data
        f = _rowdot(w_g, b_g) + sp_g * nrm
        # the first accepted of t, t/2, ..., t/2**39: the full step for every
        # row, then the 39 halvings at once for the rows that reject it
        ok, new = trial(data, p, t, f, rg_norm)
        rest = np.flatnonzero(~ok)
        if rest.size:
            halved = np.hstack([t[rest, None], np.full((rest.size, 39), 0.5)])
            halved = np.multiply.accumulate(halved, axis=1)[:, 1:].reshape(-1)  # t *= 0.5, repeated
            data_h = tuple(np.repeat(a[rest], 39, axis=0) for a in data)
            p_h, f_h, rg_h = (np.repeat(a[rest], 39, axis=0) for a in (p, f, rg_norm))
            ok_h, new_h = trial(data_h, p_h, halved, f_h, rg_h)
            ok_h = ok_h.reshape(rest.size, 39)
            first = np.arange(rest.size) * 39 + np.argmax(ok_h, axis=1)
            ok[rest] = ok_h.any(axis=1)
            for a, a_h in zip(new, new_h):
                a[rest] = a_h[first]
        moved = grp[ok]
        w[moved], nrm_w[moved], mw_w[moved], grad_w[moved] = (a[ok] for a in new)
        current[moved] = True
        n_inner[moved] += 1
        state[grp[~ok | (n_inner[grp] == 60)]] = _OUTER

    def pin_or_release(grp):
        """The end of an outer iteration: pin collapsed coordinates, or
        release the pinned coordinate whose multiplier is most negative."""
        new_free = free[grp] & (w[grp] > 1e-15)
        n_new = new_free.sum(axis=1)
        shrink = (n_new > 0) & (n_new < free[grp].sum(axis=1))
        moved = grp[shrink]
        scaled = np.where(new_free[shrink], w[moved], 0.0)
        w[moved] = scaled / scaled.sum(axis=1)[:, None]
        free[moved] = new_free[shrink]
        current[moved] = False
        grp = grp[~shrink]
        refresh(grp)
        g = grad_w[grp]
        nu = np.zeros(grp.shape[0])
        for _, sel, idx in _by_size(np.arange(grp.shape[0]), free[grp]):
            nu[sel] = _row_means(_rows_of(g[sel], idx))
        j = np.argmin(np.where(free[grp], np.inf, g), axis=1)
        g_j = g[np.arange(grp.shape[0]), j]
        release = ~free[grp].all(axis=1) & ~(g_j >= nu - 1e-12 * (1.0 + np.abs(nu)))
        finite = np.isfinite(g).all(axis=1)
        state[grp[~finite]] = _OUT
        state[grp[finite & ~release]] = _DONE
        release &= finite
        free[grp[release], j[release]] = True
        moved = np.concatenate([moved, grp[release]])
        n_outer[moved] += 1
        n_inner[moved] = 0
        state[moved] = np.where(n_outer[moved] == 40, _DONE, _INNER)

    while True:
        inner = np.flatnonzero(state == _INNER)
        if inner.size == 0:
            break
        newton_pass(inner)
        outer = np.flatnonzero(state == _OUTER)
        if outer.size:
            pin_or_release(outer)
    ok = state == _DONE

    _, _, g = _cagrad_terms(gram, b, sqrt_phi, w)
    r = w - _project_rows(w - g)
    ok &= np.sqrt(_rowdot(r, r)) <= DUAL_TOL
    g_w = _matvec(np.swapaxes(g_hat, 1, 2), w)
    g_w_norm = np.sqrt(_rowdot(g_w, g_w))
    # g_w = 0 (d = g0) and sqrt(phi) = 0 (lambda* divides by zero): the per-point path
    ok &= (g_w_norm != 0.0) & (sqrt_phi != 0.0)
    g_w_sq = np.array([v**2 for v in g_w_norm.tolist()])  # Python's pow, as the per-point code
    with np.errstate(divide="ignore", invalid="ignore"):
        d_hat = g0 + sqrt_phi[:, None] * g_w / np.sqrt(g_w_sq + SMOOTH_EPS)[:, None]
    d = d_hat * scale[:, None]
    return _finish(grads, w0, rows[ok], d[ok], w[ok], lambda gs, w_: solve_cagrad_dual(gs, cfg, w0=w_))


# ---------------------------------------------------------------------------
# Primal reference solvers (test oracles, n <= 16)
# ---------------------------------------------------------------------------
#
# Both primal problems have piecewise structure over d: at an optimum some
# active set of gradients ties on min_i <g_i, d>.  Enumerating every
# candidate active set, restricting d to its tie subspace and maximizing
# the (now smooth) objective in closed form yields an exact optimum for
# the small m used in tests; every candidate is evaluated with the true
# objective so the best one is the global maximizer.

def _nullspace(rows: np.ndarray, dim: int) -> np.ndarray:
    if rows.shape[0] == 0:
        return np.eye(dim)
    _, s, vt = np.linalg.svd(rows, full_matrices=True)
    cutoff = max(rows.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vt[rank:].T


def _check_primal_dim(gs: GradientSet):
    if gs.dim > PRIMAL_MAX_DIM:
        raise ValueError(
            f"primal reference solver supports n <= {PRIMAL_MAX_DIM}; use the dual solver"
        )


def solve_mgda_primal_reference(gs: GradientSet, tol: float = 1e-8) -> CombinedGradient:
    """Direct maximization of min_i <d, g_i> - 0.5*||d||^2 over d."""
    _check_primal_dim(gs)
    grads = gs.grads
    m, n = grads.shape

    def objective(d):
        return float(np.min(grads @ d)) - 0.5 * float(d @ d)

    best_d = np.zeros(n)
    best_val = objective(best_d)
    for k in range(1, m + 1):
        for subset in itertools.combinations(range(m), k):
            anchor = grads[subset[0]]
            rows = grads[list(subset[1:])] - anchor
            basis = _nullspace(rows, n)
            if basis.shape[1] == 0:
                continue  # tie subspace is {0}; covered by the zero candidate
            d = basis @ (basis.T @ anchor)
            val = objective(d)
            if val > best_val:
                best_val, best_d = val, d
    return CombinedGradient(d=best_d)


def solve_cagrad_primal_reference(gs: GradientSet, cfg: CagradConfig, tol: float = 1e-8) -> CombinedGradient:
    """Direct maximization of min_i <d, g_i> within ||d - g0|| <= c*||g0||."""
    _check_primal_dim(gs)
    grads = gs.grads
    m, n = grads.shape
    g0 = gs.mean_grad
    radius = cfg.c * float(np.linalg.norm(g0))

    def objective(d):
        return float(np.min(grads @ d))

    if radius == 0.0:
        return CombinedGradient(d=g0.copy())

    best_d = g0.copy()
    best_val = objective(best_d)
    for k in range(1, m + 1):
        for subset in itertools.combinations(range(m), k):
            anchor = grads[subset[0]]
            rows = grads[list(subset[1:])] - anchor
            basis = _nullspace(rows, n)
            if basis.shape[1] == 0:
                d = np.zeros(n)
                if float(np.linalg.norm(g0)) > radius * (1.0 + 1e-12):
                    continue
            else:
                q = basis.T @ g0
                off = g0 - basis @ q
                slack = radius**2 - float(off @ off)
                if slack < -1e-12 * max(radius**2, 1.0):
                    continue  # tie subspace misses the ball
                rho = np.sqrt(max(slack, 0.0))
                a = basis.T @ anchor
                a_norm = float(np.linalg.norm(a))
                u = q + rho * a / a_norm if a_norm > 0.0 else q
                d = basis @ u
            # clip fp overshoot back onto the ball
            excess = float(np.linalg.norm(d - g0))
            if excess > radius:
                d = g0 + (d - g0) * (radius / excess)
            val = objective(d)
            if val > best_val:
                best_val, best_d = val, d
    return CombinedGradient(d=best_d)
