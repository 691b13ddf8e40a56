import numpy as np
import pytest

from convdeblur.features import DELTA, make_log
from convdeblur.regularizer import SIGMA_CLAMP_REL, build_hessian, h_value
from convdeblur.spectral import ConvSpectrum, conv_spectrum
from convdeblur.synth import make_kernel, make_test_image, synth_blur
from convdeblur.tensorops import conv2d_full, toeplitz_gram, vectorize


def kahan_hessian(spec, m1, m2):
    """Reference: the defining sum of per-eigenvector Gram matrices, in
    index order with Kahan compensation."""
    floor = SIGMA_CLAMP_REL * spec.sigma_max
    d = m1 * m2
    h = np.zeros((d, d))
    comp = np.zeros((d, d))
    for sig, vec in zip(spec.sigmas, spec.vectors):
        sig = max(float(sig), floor)
        y = toeplitz_gram(vec, m1, m2) / (sig * sig) - comp
        t = h + y
        comp = (t - h) - y
        h = t
    return 0.5 * (h + h.T)


def h_value_direct(spec, k):
    """Reference: h(K) by its defining sum, sigmas clamped as in
    build_hessian."""
    floor = SIGMA_CLAMP_REL * spec.sigma_max
    total = 0.0
    for sig, vec in zip(spec.sigmas, spec.vectors):
        sig = max(float(sig), floor)
        total += np.sum(conv2d_full(k, vec) ** 2) / (sig * sig)
    return total


def necessary_condition_check(spec_b, sigma_min_i0, k):
    """Per-index slacks sigma_i(B)/sigma_min(I0) - ||K (x) kappa_i||_F.

    All slacks are >= 0 (up to roundoff) when K is the true kernel of a
    noiseless blur; a violation certifies K cannot be the true kernel.
    ||K (x) kappa_i||_F^2 = vec(kappa_i)^T G vec(kappa_i), G the Gram matrix
    of K's Toeplitz operator on s1 x s2 probes.
    """
    if sigma_min_i0 <= 0:
        raise ValueError("sigma_min of the sharp image must be positive")
    v = spec_b.vectors.reshape(len(spec_b.sigmas), -1)
    sq = np.einsum("ij,ij->i", v @ toeplitz_gram(k, spec_b.s1, spec_b.s2), v)
    return spec_b.sigmas / sigma_min_i0 - np.sqrt(np.clip(sq, 0.0, None))


@pytest.fixture(scope="module")
def spec():
    rng = np.random.default_rng(11)
    img = rng.uniform(size=(14, 14))
    return conv_spectrum(img, DELTA, 4, 4)


class TestHessian:
    def test_symmetric_positive_definite(self, spec):
        hess = build_hessian(spec, 3, 3)
        assert np.allclose(hess.matrix, hess.matrix.T)
        assert np.linalg.eigvalsh(hess.matrix).min() > 0

    @pytest.mark.parametrize("m1,m2", [(3, 3), (7, 5), (2, 9)])
    def test_matches_kahan_sum(self, m1, m2):
        # the blurred LoG spectrum is ill-conditioned; (7,5) and (2,9) have
        # m > s on at least one axis. Method 'svd', whose eigenpairs carry
        # errors far below the gate; for 'gram' see the next test.
        img = make_test_image("polygons", 40, seed=3)
        b, _ = synth_blur(img, make_kernel("gaussian", 5, {"sigma": 1.0}))
        spec = conv_spectrum(b, make_log(1.0), 4, 6, method="svd")
        ref = kahan_hessian(spec, m1, m2)
        h = build_hessian(spec, m1, m2).matrix
        assert np.max(np.abs(h - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("m1,m2", [(3, 3), (7, 5), (2, 9)])
    @pytest.mark.parametrize("s1,s2", [(4, 6), (3, 5), (5, 5)])
    def test_gram_matches_accurate_kahan_sum(self, s1, s2, m1, m2):
        # the Gram matrix's smallest eigenvalues carry an absolute error of
        # about eps * sigma_max^2, so H from it is accurate to a relative
        # eps * (sigma_max / sigma_min)^2 (7.6e-10 at 4 x 6), whether from
        # eigenpairs or from Cholesky factors; the reference sums the
        # accurate 'svd' eigenpairs. 3 x 5 and 5 x 5 have a middle index.
        img = make_test_image("polygons", 40, seed=3)
        b, _ = synth_blur(img, make_kernel("gaussian", 5, {"sigma": 1.0}))
        exact = conv_spectrum(b, make_log(1.0), s1, s2, method="svd")
        ref = kahan_hessian(exact, m1, m2)
        h = build_hessian(conv_spectrum(b, make_log(1.0), s1, s2,
                                        method="gram"), m1, m2).matrix
        tol = np.finfo(float).eps * (exact.sigma_max / exact.sigma_min) ** 2
        assert np.max(np.abs(h - ref)) <= tol * np.max(np.abs(ref))

    def test_clamped_spectrum_matches_kahan_sum(self, spec):
        # no Gram matrix carries sigmas this small, so the clamped ones
        # send build_hessian to the eigenvector sum
        sig = spec.sigmas.copy()
        sig[-3:] = 1e-3 * SIGMA_CLAMP_REL * sig[0]
        v = spec.vectors.reshape(len(sig), -1)
        clamped = ConvSpectrum(spec.s1, spec.s2, sig, "gram",
                               (v.T * sig ** 2) @ v)
        hess = build_hessian(clamped, 5, 5)
        assert hess.clamp_count == 3
        assert "vectors" in vars(clamped)
        ref = kahan_hessian(clamped, 5, 5)
        assert np.max(np.abs(hess.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_quadratic_form_matches_defining_sum(self, spec):
        hess = build_hessian(spec, 3, 3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            k = rng.uniform(size=(3, 3))
            assert np.isclose(h_value(hess, k), h_value_direct(spec, k),
                              rtol=1e-10)

    def test_unweighted_sum_is_scaled_identity(self, spec):
        # sum_i A(kappa_i)^T A(kappa_i) == s1*s2 * Id for any orthonormal
        # eigenvector system
        from convdeblur.tensorops import toeplitz_gram
        total = sum(toeplitz_gram(v, 3, 3) for v in spec.vectors)
        assert np.allclose(total, spec.s1 * spec.s2 * np.eye(9), atol=1e-12)

    def test_min_eigenvalue_lower_bound(self, spec):
        hess = build_hessian(spec, 3, 3)
        lam_min = np.linalg.eigvalsh(hess.matrix).min()
        bound = spec.s1 * spec.s2 / spec.sigma_max ** 2
        assert lam_min >= bound * (1 - 1e-12)

    def test_true_kernel_near_minimal(self):
        # on a noiseless blur, h at the true kernel is within the theory's
        # reach: far below h at an impulse
        img = make_test_image("polygons", 48, seed=1)
        k0 = make_kernel("gaussian", 5, {"sigma": 1.0})
        b, _ = synth_blur(img, k0)
        spec_b = conv_spectrum(b, make_log(1.0), 8, 8, method="gram")
        hess = build_hessian(spec_b, 5, 5)
        delta = np.zeros((5, 5))
        delta[2, 2] = 1.0
        assert h_value(hess, k0) < 0.01 * h_value(hess, delta)

    def test_shape_validation(self, spec):
        hess = build_hessian(spec, 3, 3)
        with pytest.raises(ValueError):
            h_value(hess, np.ones((2, 2)) / 4)
        with pytest.raises(ValueError):
            build_hessian(spec, 0, 3)


@pytest.mark.parametrize("method", ["gram", "svd"])
def test_further_blur_never_raises_h(method):
    # (G*K)*kappa_i = G*(K*kappa_i), and Young's inequality gives
    # ||G*Y||_F <= ||G||_1 ||Y||_F = ||Y||_F for a simplex G: h(G*K) <= h(K)
    # wherever G*K fits the support, so h favours the widest kernel
    rng = np.random.default_rng(17)
    m = 7
    for kind, seed in (("polygons", 1), ("polygons", 2), ("bars", 0),
                       ("checker", 0)):
        img = make_test_image(kind, 40, seed=seed)
        b, _ = synth_blur(img, make_kernel("gaussian", 5, {"sigma": 1.0}))
        hess = build_hessian(conv_spectrum(b, make_log(1.0), 11, 11,
                                           method=method), m, m)
        for _ in range(10):
            g = int(rng.integers(2, 4))
            blur = rng.dirichlet(np.ones(g * g)).reshape(g, g)
            k = np.zeros((m, m))
            k[:m - g + 1, :m - g + 1] = rng.dirichlet(
                np.ones((m - g + 1) ** 2)).reshape(m - g + 1, m - g + 1)
            wider = conv2d_full(blur, k[:m - g + 1, :m - g + 1])
            assert h_value(hess, wider) <= h_value(hess, k) * (1 + 1e-9)


class TestNecessaryCondition:
    def test_true_kernel_satisfies_all(self):
        img = make_test_image("polygons", 40, seed=2)
        k0 = make_kernel("motion-line", 5, {"angle": 30.0, "length": 4})
        b, _ = synth_blur(img, k0)
        spec_b = conv_spectrum(b, DELTA, 6, 6, method="gram")
        spec_i = conv_spectrum(img, DELTA, 6, 6, method="gram")
        slacks = necessary_condition_check(spec_b, spec_i.sigma_min, k0)
        assert slacks.min() >= -1e-9

    def test_matches_per_eigenvector_loop(self):
        img = make_test_image("polygons", 32, seed=4)
        k = make_kernel("gaussian", 5, {"sigma": 1.0})
        b, _ = synth_blur(img, k)
        spec_b = conv_spectrum(b, make_log(1.0), 5, 4)
        slacks = necessary_condition_check(spec_b, 0.3, k)
        ref = [sig / 0.3 - np.linalg.norm(conv2d_full(k, vec))
               for sig, vec in zip(spec_b.sigmas, spec_b.vectors)]
        assert np.allclose(slacks, ref, rtol=1e-10, atol=1e-12)

    def test_bad_sigma_rejected(self, spec):
        with pytest.raises(ValueError):
            necessary_condition_check(spec, 0.0, np.ones((2, 2)) / 4)
