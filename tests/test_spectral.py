import contextlib
import inspect
import tracemalloc
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from convdeblur import cli
from convdeblur.blind import DeblurConfig, estimate_kernel
from convdeblur.features import DELTA, apply_filter, make_log
from convdeblur.regularizer import SIGMA_CLAMP_REL, build_hessian
from convdeblur.spectral import GRAM_MIN_RATIO, conv_spectrum
from convdeblur.synth import make_kernel, make_test_image, synth_blur
from convdeblur.tensorops import (conv2d_full, lag_gram, toeplitz,
                                  toeplitz_gram, vectorize)


@pytest.fixture(scope="module")
def image():
    rng = np.random.default_rng(3)
    return rng.uniform(size=(16, 16))


class TestConvSpectrum:
    def test_matches_toeplitz_svd(self, image):
        spec = conv_spectrum(image, DELTA, 4, 4)
        a = toeplitz(image, 4, 4)
        ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(spec.sigmas, ref, rtol=1e-12)

    @pytest.mark.parametrize("case", ["ill-conditioned LoG", "non-square",
                                      "probe larger than image",
                                      "probe above half a QR block"])
    def test_svd_matches_explicit_toeplitz_svd(self, case):
        f = make_log(1.0)
        if case == "ill-conditioned LoG":
            img = make_test_image("polygons", 40, seed=1)
            img, _ = synth_blur(img, make_kernel("gaussian", 9, {"sigma": 2.0}))
            s1 = s2 = 10
        elif case == "non-square":
            img = np.random.default_rng(4).uniform(size=(23, 9))
            s1, s2 = 5, 7
        elif case == "probe larger than image":
            img = np.random.default_rng(5).uniform(size=(3, 4))
            f, s1, s2 = DELTA, 6, 5
        else:
            # 2 * s1 * s2 = 1058 rows per streamed QR block, not 1024
            img = np.random.default_rng(6).uniform(size=(30, 30))
            f, s1, s2 = DELTA, 23, 23
        ref = np.linalg.svd(toeplitz(apply_filter(f, img), s1, s2),
                            compute_uv=False)
        if case == "ill-conditioned LoG":
            assert ref[0] / ref[-1] > 1e6
        spec = conv_spectrum(img, f, s1, s2, method="svd")
        assert np.max(np.abs(spec.sigmas - ref) / ref) <= 1e-10

    def test_eigen_pairs_satisfy_definition(self, image):
        # ||I (x) kappa_i||_F == sigma_i for every pair
        spec = conv_spectrum(image, DELTA, 3, 3)
        for sig, vec in zip(spec.sigmas, spec.vectors):
            assert np.isclose(np.linalg.norm(conv2d_full(image, vec)), sig,
                              rtol=1e-10)

    def test_vectors_orthonormal(self, image):
        spec = conv_spectrum(image, DELTA, 3, 4)
        v = spec.vectors.reshape(12, 12)
        assert np.allclose(v @ v.T, np.eye(12), atol=1e-12)

    def test_sigmas_nonincreasing_positive(self, image):
        spec = conv_spectrum(image, make_log(1.0), 4, 4)
        assert np.all(np.diff(spec.sigmas) <= 1e-12)
        assert spec.sigma_min > 0

    def test_gram_method_agrees(self, image):
        s1 = conv_spectrum(image, make_log(1.0), 4, 4, method="svd")
        s2 = conv_spectrum(image, make_log(1.0), 4, 4, method="gram")
        assert np.allclose(s1.sigmas, s2.sigmas, rtol=1e-8, atol=1e-10)
        # eigenvectors may differ by sign; compare the quadratic forms
        for v1, v2 in zip(s1.vectors, s2.vectors):
            assert np.isclose(abs(np.sum(v1 * v2)), 1.0, atol=1e-6)

    def test_vector_signs_agree_between_methods(self, image):
        s1 = conv_spectrum(image, make_log(1.0), 4, 4, method="svd")
        s2 = conv_spectrum(image, make_log(1.0), 4, 4, method="gram")
        gaps = -np.diff(s1.sigmas) / s1.sigmas[:-1]
        assert gaps.min() > 1e-3     # well separated: vectors are unique
        assert np.allclose(s1.vectors, s2.vectors, atol=1e-8)

    def test_feature_filter_composes(self, image):
        # spectrum under LoG == spectrum of the LoG-filtered image under delta
        f = make_log(1.0)
        s1 = conv_spectrum(image, f, 3, 3)
        s2 = conv_spectrum(apply_filter(f, image), DELTA, 3, 3)
        assert np.allclose(s1.sigmas, s2.sigmas, rtol=1e-12)

    def test_blur_shrinks_smallest_eigenvalue(self, image):
        k = np.full((3, 3), 1.0 / 9.0)
        b = conv2d_full(image, k)
        assert conv_spectrum(b, DELTA, 4, 4).sigma_min \
            < conv_spectrum(image, DELTA, 4, 4).sigma_min

    def test_condition_at_least_one(self, image):
        spec = conv_spectrum(image, DELTA, 3, 3)
        assert spec.sigma_max / spec.sigma_min >= 1.0

    def test_zero_image_rejected(self):
        # every filter maps a zero image to zero, so the filtered-image
        # check is the only one needed
        for f in (DELTA, make_log()):
            with pytest.raises(ValueError, match="degenerate input"):
                conv_spectrum(np.zeros((8, 8)), f, 2, 2)

    def test_zero_filtered_image_rejected(self):
        with pytest.raises(ValueError):
            conv_spectrum(np.ones((8, 8)), np.zeros((3, 3)), 2, 2)

    def test_taps_are_coerced_like_images(self, image):
        assert np.array_equal(conv_spectrum(image, [[1.0]], 3, 3).sigmas,
                              conv_spectrum(image, DELTA, 3, 3).sigmas)

    @pytest.mark.parametrize("taps, message", [
        (np.ones(3) / 3.0, "2D array"), (np.full((3, 3), np.nan), "NaN")],
        ids=["1d", "nan"])
    def test_bad_taps_rejected(self, image, taps, message):
        with pytest.raises(ValueError, match=message):
            conv_spectrum(image, taps, 3, 3)

    def test_missing_sizes_rejected(self, image):
        with pytest.raises(TypeError):
            conv_spectrum(image, DELTA)
        with pytest.raises(ValueError):
            conv_spectrum(image, DELTA, 0, 3)

    def test_unknown_method(self, image):
        with pytest.raises(ValueError):
            conv_spectrum(image, DELTA, 2, 2, method="arnoldi")


@pytest.mark.parametrize("s1, s2", [(1, 1), (1, 2), (2, 3), (3, 3), (13, 13),
                                    (14, 14)])
class TestCentrosymmetricSplit:
    """Method 'gram' solves the Gram matrix as two half-size blocks, which
    needs it to equal its 180-degree rotation exactly."""

    @pytest.fixture
    def gram(self, image, s1, s2):
        return toeplitz_gram(apply_filter(make_log(1.0), image), s1, s2)

    def test_lag_gram_is_exactly_centrosymmetric(self, gram, s1, s2):
        assert np.array_equal(gram, gram[::-1, ::-1])
        # even for lags that are not an autocorrelation's
        lags = np.random.default_rng(7).standard_normal((2 * s1 - 1,
                                                         2 * s2 - 1))
        g = lag_gram(lags, s1, s2)
        assert np.array_equal(g, g[::-1, ::-1])

    def test_eigenvalues_match_eigh(self, image, gram, s1, s2):
        spec = conv_spectrum(image, make_log(1.0), s1, s2, method="gram")
        ref = np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)
        assert np.max(np.abs(spec.sigmas ** 2 - ref)) <= 1e-12 * ref[0]

    def test_projectors_match_eigh(self, image, gram, s1, s2):
        spec = conv_spectrum(image, make_log(1.0), s1, s2, method="gram")
        w, v = np.linalg.eigh(gram)
        w, v = w[::-1], v[:, ::-1].T
        gap = np.concatenate(([np.inf], -np.diff(w), [np.inf]))
        separated = np.minimum(gap[:-1], gap[1:]) > 1e-3 * w[0]
        assert separated.sum() >= min(s1 * s2, 5)
        got = spec.vectors.reshape(s1 * s2, -1)
        for i in np.flatnonzero(separated):
            assert np.allclose(np.outer(got[i], got[i]), np.outer(v[i], v[i]),
                               rtol=0, atol=1e-9)

    def test_inverse_matches_inv(self, image, gram, s1, s2):
        # the blocks' inverses mapped back, odd s1*s2 (middle index) too;
        # both sides carry a relative error of about eps * sigma ratio^2
        spec = conv_spectrum(image, make_log(1.0), s1, s2, method="gram")
        p = spec.gram_inverse(SIGMA_CLAMP_REL * spec.sigma_max)
        ref = np.linalg.inv(gram)
        tol = np.finfo(float).eps * (spec.sigma_max / spec.sigma_min) ** 2
        assert np.max(np.abs(p - ref)) <= tol * np.max(np.abs(ref))

    def test_vectors_are_symmetric_or_antisymmetric(self, image, s1, s2):
        spec = conv_spectrum(image, make_log(1.0), s1, s2, method="gram")
        for vec in spec.vectors:
            rot = vec[::-1, ::-1]
            assert np.array_equal(vec, rot) or np.array_equal(vec, -rot)


def test_svd_spectrum_memory_is_independent_of_operator_size():
    # the explicit 34225 x 400 Toeplitz matrix alone would take 110 MB
    img = make_test_image("polygons", 160, seed=1)
    tracemalloc.start()
    try:
        conv_spectrum(img, make_log(1.0), 20, 20, method="svd")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_gram_is_the_default():
    # the CLI's --method default is read from DeblurConfig
    assert inspect.signature(conv_spectrum).parameters["method"].default \
        == "gram"
    assert DeblurConfig(m1=3, m2=3).spectrum_method == "gram"
    for command in ("spectrum", "estimate-kernel", "deblur", "sweep"):
        r = CliRunner().invoke(cli.main, [command, "--help"])
        assert r.exit_code == 0, r.output
        assert "[default: gram]" in " ".join(r.output.split())


@pytest.fixture(scope="module")
def smooth_blur():
    """Criterion 6's noiseless seed-0 Gaussian case: its sharp and blurry
    images, whose LoG spectra on 14 x 14 probes have sigma_min / sigma_max
    of 4.1e-4 and 3.5e-8."""
    img = make_test_image("polygons", 128, seed=0)
    b, _ = synth_blur(img, make_kernel("gaussian", 9, {"sigma": 1.8}, seed=0))
    return img, b


def test_gram_warns_below_min_ratio(smooth_blur):
    with pytest.warns(RuntimeWarning,
                      match=r"sigma_min / sigma_max = \S+ is below.*"
                            r"method='svd'"):
        spec = conv_spectrum(smooth_blur[1], make_log(1.0), 14, 14,
                             method="gram")
    # method 'svd' gives 3.530e-8; the gram ratio is off by about 1%
    assert spec.sigma_min / spec.sigma_max == pytest.approx(3.530e-8,
                                                            rel=0.015)


def test_gram_is_silent_on_a_sharp_image(smooth_blur):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conv_spectrum(smooth_blur[0], make_log(1.0), 14, 14, method="gram")


def test_svd_never_warns(smooth_blur):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        conv_spectrum(smooth_blur[1], make_log(1.0), 14, 14, method="svd")


def test_gram_and_svd_kernels_agree(smooth_blur):
    # the gram sigmas are off by up to 1.3% at this ratio, the exact-QP
    # kernel is not
    with pytest.warns(RuntimeWarning):
        gram = conv_spectrum(smooth_blur[1], make_log(1.0), 14, 14,
                             method="gram")
    svd = conv_spectrum(smooth_blur[1], make_log(1.0), 14, 14, method="svd")
    k_gram = estimate_kernel(gram, 9, 9)[0]
    k_svd = estimate_kernel(svd, 9, 9)[0]
    assert np.linalg.norm(k_gram - k_svd) <= 1e-4 * np.linalg.norm(k_svd)


@pytest.mark.parametrize("method", ["gram", "svd"])
def test_hessian_floors_hold_where_gram_warns(smooth_blur, method):
    # G <= sigma_max^2 I, so G^-1 >= I / sigma_max^2 (an LU inverse of G
    # misses this by half here), and criterion 3's floor follows for H
    with (pytest.warns(RuntimeWarning, match="is below") if method == "gram"
          else contextlib.nullcontext()):
        spec = conv_spectrum(smooth_blur[1], make_log(1.0), 14, 14,
                             method=method)
    assert spec.sigma_min / spec.sigma_max < GRAM_MIN_RATIO
    p = spec.gram_inverse(SIGMA_CLAMP_REL * spec.sigma_max)
    assert np.linalg.eigvalsh(p)[0] * spec.sigma_max ** 2 >= 0.9
    lam_min = np.linalg.eigvalsh(build_hessian(spec, 9, 9).matrix)[0]
    assert lam_min >= 14 * 14 / spec.sigma_max ** 2 - 1e-6


@pytest.mark.parametrize("method", ["gram", "svd"])
def test_kernel_path_computes_no_eigenvectors(image, method):
    spec = conv_spectrum(image, make_log(1.0), 4, 4, method=method)
    estimate_kernel(spec, 3, 3)
    assert "vectors" not in vars(spec)
    assert spec.vectors.shape == (16, 4, 4)
    assert "vectors" in vars(spec)
