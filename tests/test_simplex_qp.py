import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from convdeblur.blind import estimate_kernel, kstep
from convdeblur.features import make_log
from convdeblur.simplex_qp import (QpProblem, kkt_residual, project_simplex,
                                   solve_qp)
from convdeblur.spectral import conv_spectrum
from convdeblur.synth import make_kernel, make_test_image, synth_blur
from convdeblur.tensorops import Observation, central_window, conv2d_full


def random_problem(rng, d):
    m = rng.standard_normal((d, d))
    q = m @ m.T + 0.1 * np.eye(d)
    c = rng.standard_normal(d)
    return QpProblem(q, c)


def support_search(p):
    """Exact minimizer by enumeration: solve the KKT system of every support
    and keep the best feasible solution."""
    best_f, best_x = np.inf, None
    for r in range(1, p.dim + 1):
        for s in map(list, itertools.combinations(range(p.dim), r)):
            kkt = np.zeros((r + 1, r + 1))
            kkt[:r, :r] = 2.0 * p.q[np.ix_(s, s)]
            kkt[:r, r] = -1.0
            kkt[r, :r] = 1.0
            z = np.linalg.solve(kkt, np.append(-p.c[s], 1.0))[:r]
            if z.min() < -1e-12:
                continue
            x = np.zeros(p.dim)
            x[s] = z
            if p.objective(x) < best_f:
                best_f, best_x = p.objective(x), x
    return best_x


def simplex_grid(d, n):
    """All points of the simplex with coordinates that are multiples of 1/n."""
    for combo in itertools.combinations_with_replacement(range(d), n):
        x = np.zeros(d)
        for i in combo:
            x[i] += 1.0 / n
        yield x


class TestProjectSimplex:
    def test_known_example(self):
        assert np.allclose(project_simplex([0.9, -0.1, 0.3]), [0.8, 0.0, 0.2])

    def test_already_feasible_fixed(self):
        x = np.array([0.2, 0.5, 0.3])
        assert np.allclose(project_simplex(x), x)

    @given(hnp.arrays(np.float64, st.integers(1, 12),
                      elements=st.floats(-10, 10)))
    def test_output_feasible(self, v):
        x = project_simplex(v)
        assert np.all(x >= 0)
        assert np.isclose(x.sum(), 1.0, atol=1e-12)

    @given(hnp.arrays(np.float64, 5, elements=st.floats(-5, 5)))
    @settings(max_examples=30)
    def test_is_nearest_point(self, v):
        x = project_simplex(v)
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = project_simplex(rng.standard_normal(5))
            assert np.linalg.norm(v - x) <= np.linalg.norm(v - y) + 1e-9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.zeros(0))


class TestSolveQp:
    def test_identity_gives_uniform(self):
        sol = solve_qp(QpProblem(np.eye(4)))
        assert sol.converged
        assert np.allclose(sol.point, 0.25, atol=1e-7)

    def test_diag_1_10(self):
        sol = solve_qp(QpProblem(np.diag([1.0, 10.0])))
        assert np.allclose(sol.point, [10.0 / 11.0, 1.0 / 11.0], atol=1e-6)

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            p = random_problem(rng, 8)
            sol = solve_qp(p, tol=1e-9)
            assert sol.converged
            assert sol.kkt_residual <= 1e-9

    def test_beats_grid_search(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            p = random_problem(rng, 3)
            sol = solve_qp(p, tol=1e-10)
            grid_best = min(p.objective(x) for x in simplex_grid(3, 40))
            assert sol.objective <= grid_best + 1e-3

    def test_warm_start_projected(self):
        p = QpProblem(np.eye(3))
        sol = solve_qp(p, x0=np.array([5.0, -1.0, 2.0]))
        assert np.allclose(sol.point, 1.0 / 3.0, atol=1e-7)

    def test_iteration_cap_flags_nonconverged(self):
        rng = np.random.default_rng(9)
        p = random_problem(rng, 20)
        sol = solve_qp(p, tol=1e-14, max_iter=3)
        assert not sol.converged
        assert sol.iterations == 3
        assert np.all(sol.point >= 0) and np.isclose(sol.point.sum(), 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QpProblem(np.ones((2, 3)))
        with pytest.raises(ValueError):
            QpProblem(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            QpProblem(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            solve_qp(QpProblem(np.eye(2)), tol=0.0)

    def test_matches_support_search(self):
        rng = np.random.default_rng(10)
        boundary = 0
        for _ in range(60):
            d = int(rng.integers(2, 7))
            p = random_problem(rng, d)
            p = QpProblem(p.q, p.c * rng.choice([0.1, 1.0, 10.0]))
            sol = solve_qp(p)
            assert sol.converged
            assert np.allclose(sol.point, support_search(p), rtol=0, atol=1e-10)
            boundary += np.any(sol.point == 0)
        assert boundary >= 20   # the working set is exercised

    def test_warm_start_reaches_same_point(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_problem(rng, 12)
            cold = solve_qp(p)
            assert np.any(cold.point == 0)
            for _ in range(3):
                x0 = rng.uniform(size=12) * (rng.uniform(size=12) < 0.5)
                warm = solve_qp(p, x0=x0 + 1e-3)
                assert warm.converged
                assert np.allclose(warm.point, cold.point, rtol=0, atol=1e-12)
            # from the minimizer itself the working set is already right
            assert solve_qp(p, x0=cold.point).iterations == 0

    def test_scale_invariant(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            p = random_problem(rng, 10)
            big = QpProblem(1e6 * p.q, 1e6 * p.c)
            a, b = solve_qp(p), solve_qp(big)
            assert a.iterations == b.iterations
            assert np.allclose(a.point, b.point, rtol=0, atol=1e-12)
            assert abs(a.kkt_residual - b.kkt_residual) <= 1e-15
            assert np.isclose(kkt_residual(big, a.point), a.kkt_residual,
                              rtol=0, atol=1e-15)

    def test_kkt_residual_is_zero_only_at_the_minimizer(self):
        p = QpProblem(np.diag([1.0, 10.0]))
        assert kkt_residual(p, np.array([10.0, 1.0]) / 11.0) <= 1e-16
        assert kkt_residual(p, np.array([0.5, 0.5])) > 0.1


class TestSingularQ:
    """Q = 0 and Q = 11^T have no curvature on the simplex; the minimizer of
    the linear objective c.x is the vertex of the smallest c_i."""

    @pytest.mark.parametrize("q", [np.zeros((3, 3)), np.ones((3, 3))],
                             ids=["zero", "ones"])
    def test_linear_objective_reaches_vertex(self, q):
        sol = solve_qp(QpProblem(q, [3.0, 1.0, 2.0]))
        assert sol.converged
        assert np.array_equal(sol.point, [0.0, 1.0, 0.0])
        assert sol.kkt_residual == 0.0

    def test_singular_with_curvature_on_the_simplex(self):
        # Q singular, but x^T Q x is strictly convex on sum(x) = 1
        sol = solve_qp(QpProblem(np.diag([1.0, 0.0])))
        assert sol.converged
        assert np.allclose(sol.point, [0.0, 1.0], rtol=0, atol=1e-15)

    def test_kstep_without_regularizer_on_few_pixels(self):
        # a 3x3 cropped observation gives 9 equations for a 5x5 kernel: with
        # alpha = 0 the QP's Hessian has rank 9 of 25
        rng = np.random.default_rng(13)
        img, b = rng.uniform(size=(3, 3)), rng.uniform(size=(3, 3))
        hess = types.SimpleNamespace(m1=5, m2=5, matrix=np.eye(25))
        k, sol = kstep(Observation(b, (5, 5), False), img, hess, alpha=0.0)
        assert sol.converged and sol.kkt_residual <= 1e-12

        def misfit(kernel):
            pred = conv2d_full(img, kernel)
            return np.sum((b - pred[central_window(pred.shape, b.shape)]) ** 2)

        for _ in range(200):
            other = project_simplex(rng.standard_normal(25)).reshape(5, 5)
            assert misfit(k) <= misfit(other) + 1e-12


@pytest.fixture(scope="module")
def gaussian_spectrum():
    """Criterion 6's seed-0 Gaussian case: an interior minimizer of a
    regularizer Hessian with condition number about 5e11."""
    img = make_test_image("polygons", 128, seed=0)
    b, _ = synth_blur(img, make_kernel("gaussian", 9, {"sigma": 1.8}, seed=0))
    with pytest.warns(RuntimeWarning, match="sigma_min / sigma_max"):
        return conv_spectrum(b, make_log(1.0), 14, 14, method="gram")


class TestEstimateKernelExact:
    def test_matches_closed_form(self, gaussian_spectrum):
        k, hess, sol = estimate_kernel(gaussian_spectrum, 9, 9)
        w = np.linalg.eigvalsh(hess.matrix)
        assert w[-1] / w[0] >= 1e11
        closed = np.linalg.solve(hess.matrix, np.ones(81))
        closed /= closed.sum()
        assert closed.min() > 0
        assert np.abs(sol.point - closed).max() <= 1e-8 * closed.max()

    def test_interior_minimizer_needs_no_working_set_change(self,
                                                            gaussian_spectrum):
        # FISTA took 2,545 iterations here; a slide back to an iterative
        # solver shows as a count, on any machine
        _, _, sol = estimate_kernel(gaussian_spectrum, 9, 9)
        assert sol.converged
        assert sol.iterations == 0

    def test_multipliers_at_rounding_level_end_the_search(self,
                                                          gaussian_spectrum):
        # a boundary minimizer y of the same Hessian whose multipliers are
        # as small as the rounding error of the gradient: their sign there
        # is noise, and treating it as a sign freed and blocked coordinates
        # until max_iter
        _, hess, _ = estimate_kernel(gaussian_spectrum, 9, 9)
        h = hess.matrix
        rng = np.random.default_rng(0)
        y = rng.uniform(size=81) * (rng.uniform(size=81) < 0.6)
        y /= y.sum()
        mult = np.where(y == 0, 1e-15 * rng.uniform(size=81), 0.0)
        p = QpProblem(h, -2.0 * h @ y + np.abs(h).max() * (1e-14 + mult))
        for x0 in (None, y):
            sol = solve_qp(p, max_iter=500, x0=x0)
            assert sol.converged
            assert np.abs(sol.point - y).max() <= 1e-9
