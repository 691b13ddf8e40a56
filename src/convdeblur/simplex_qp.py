"""Convex quadratic minimization over the probability simplex.

Solver: primal active-set method (Nocedal & Wright, Numerical Optimization,
2nd ed., section 16.5). The working set holds the coordinates fixed at zero.
Each iteration solves the KKT system of the face it leaves free and steps
toward that face's minimizer; a coordinate that blocks the step joins the
working set, and at the minimizer the coordinate with the most negative
multiplier leaves it. The result is exact to rounding whatever the
condition number of Q, singular Q included.
"""

from dataclasses import dataclass

import numpy as np

EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class QpProblem:
    """Minimize x^T Q x + c^T x over the probability simplex."""
    q: np.ndarray
    c: np.ndarray = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("Q must be square")
        if np.max(np.abs(q - q.T)) > 1e-10 * max(1.0, np.max(np.abs(q))):
            raise ValueError("Q must be symmetric")
        object.__setattr__(self, "q", q)
        c = self.c
        c = np.zeros(q.shape[0]) if c is None else np.asarray(c, dtype=np.float64)
        if c.shape != (q.shape[0],):
            raise ValueError("c has wrong dimension")
        object.__setattr__(self, "c", c)

    @property
    def dim(self):
        return self.q.shape[0]

    def objective(self, x):
        return float(x @ self.q @ x + self.c @ x)

    def gradient(self, x):
        return 2.0 * (self.q @ x) + self.c


@dataclass(frozen=True)
class QpSolution:
    point: np.ndarray
    objective: float
    iterations: int
    kkt_residual: float
    converged: bool


def project_simplex(v):
    """Euclidean projection onto {x : x >= 0, sum(x) = 1}.

    Sort-based exact algorithm: threshold at the largest j with
    u_j + (1 - cumsum(u)_j)/j > 0 for u = sorted(v, descending).
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    u = np.sort(v)[::-1]
    cs = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (1.0 - cs) / j > 0)[0][-1]
    theta = (1.0 - cs[rho]) / (rho + 1.0)
    return np.maximum(v + theta, 0.0)


def _term_size(p, x):
    """max(2|Q||x| + |c|): the size of the terms summed into the gradient."""
    return float((2.0 * (np.abs(p.q) @ np.abs(x)) + np.abs(p.c)).max())


def _slack(p, x, g, tol):
    """tol times the gradient scale max|g|, plus the rounding error of g."""
    return tol * np.abs(g).max() + p.dim * EPS * _term_size(p, x)


def kkt_residual(p, x):
    """Frank-Wolfe gap g.x - min(g) at x on the simplex, over the size of the
    gradient's terms. Zero iff x is optimal; unchanged when Q and c are
    scaled together; at rounding level at the minimizer of any Q."""
    g = p.gradient(x)
    size = _term_size(p, x)
    return float((g @ x - g.min()) / size) if size > 0 else 0.0


def _face_step(p, x, free, tol):
    """(d, True) with x + d the minimizer on the face {x_i = 0 off free,
    sum(x) = 1}, or (d, False) with d a descent direction of zero curvature
    along which the objective falls without bound on that face."""
    idx = np.flatnonzero(free)
    q, n, d = p.q[np.ix_(idx, idx)], idx.size, np.zeros_like(x)
    try:
        pivots = np.diagonal(np.linalg.cholesky(q))
        # exact rank loss leaves squared pivots near n * eps * max(diag q)
        regular = pivots.min() ** 2 > np.sqrt(EPS) * q.diagonal().max()
    except np.linalg.LinAlgError:
        regular = False
    if regular:
        # range-space solve of 2 q z + c = nu 1, sum(z) = 1
        a, b = np.linalg.solve(q, np.stack([np.ones(n), p.c[idx]], 1)).T
        nu = (2.0 + b.sum()) / a.sum()
        d[idx] = 0.5 * (nu * a - b) - x[idx]
        return d, True
    # singular q: Newton step on the range of q restricted to sum(d) = 0;
    # the gradient left on its null space meets no curvature
    g = p.gradient(x)
    slack = _slack(p, x, g, tol)
    g = g[idx] - g[idx].mean()
    w, v = np.linalg.eigh(q - q.mean(0) - q.mean(1)[:, None] + q.mean())
    keep = w > n * EPS * np.trace(q)
    coef = v[:, keep].T @ g
    flat = g - v[:, keep] @ coef
    bounded = np.abs(flat).max() <= slack
    # centred, so that an unbounded direction has a negative entry
    d[idx] = -0.5 * (v[:, keep] @ (coef / w[keep])) if bounded else -flat
    d[idx] -= d[idx].mean()
    return d, bounded


def solve_qp(p, tol=1e-8, max_iter=10000, x0=None):
    """Primal active-set method from project_simplex(x0) (default: the
    uniform point), whose zeros are the first working set. It stops when
    every working-set multiplier g_i - nu is at least -tol times max|g|
    (less g's rounding error). iterations counts working-set changes; after
    max_iter of them the feasible point is returned flagged non-converged."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = project_simplex(np.full(p.dim, 1.0 / p.dim) if x0 is None else x0)
    free = x > EPS   # the projection lifts the zeros of a feasible x0 a bit
    x[~free] = 0.0
    changes, converged = 0, False
    while True:
        step, bounded = _face_step(p, x, free, tol)
        neg = np.flatnonzero(step < 0)
        ratios = x[neg] / -step[neg]
        full = bounded and not np.any(ratios < 1.0)
        if full:
            x = (x + step) / (x + step).sum()
            g = p.gradient(x)
            mult = np.where(free, np.inf, g - g[free].mean())
            j = int(np.argmin(mult))
            converged = bool(mult[j] >= -_slack(p, x, g, tol))
        if converged or changes >= max_iter:
            return QpSolution(x, p.objective(x), changes,
                              kkt_residual(p, x), converged)
        if full:
            free[j] = True
        else:
            j = neg[np.argmin(ratios)]
            x = np.maximum(x + ratios.min() * step, 0.0)
            x[j], free[j] = 0.0, False
            x /= x.sum()
        changes += 1
