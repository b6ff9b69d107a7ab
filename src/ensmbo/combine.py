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
polish step.  Low-dimensional primal reference solvers maximize over d
directly and serve as independent oracles in the test suite.
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
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.shape[0] + 1)
    rho = np.nonzero(u - css / idx > 0.0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


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


def solve_mgda_dual(gs: GradientSet, tol: float = 1e-8, w0: np.ndarray | None = None) -> CombinedGradient:
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


def solve_cagrad_dual(gs: GradientSet, cfg: CagradConfig, tol: float = 1e-8,
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
