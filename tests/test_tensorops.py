import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import fft as sfft

from convdeblur.tensorops import (Observation, as_image, central_window,
                                  conv2d_full, devectorize, fast_len, irfft2,
                                  rfft2, toeplitz, toeplitz_apply_adjoint,
                                  toeplitz_gram, toeplitz_row_blocks,
                                  validate_kernel, vectorize)


def brute_conv_full(x, y):
    """Direct evaluation of the defining double sum."""
    l1, l2 = x.shape
    k1, k2 = y.shape
    out = np.zeros((l1 + k1 - 1, l2 + k2 - 1))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            acc = 0.0
            for u in range(k1):
                for v in range(k2):
                    a, b = i - u, j - v
                    if 0 <= a < l1 and 0 <= b < l2:
                        acc += x[a, b] * y[u, v]
            out[i, j] = acc
    return out


class TestConv2d:
    def test_impulse_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        assert np.array_equal(conv2d_full(x, np.ones((1, 1))), x)

    def test_known_2x2_example(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.ones((2, 2))
        expected = np.array([[1.0, 3.0, 2.0],
                             [4.0, 10.0, 6.0],
                             [3.0, 7.0, 4.0]])
        assert np.allclose(conv2d_full(x, y), expected)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal((4, 5))
            y = rng.standard_normal((3, 2))
            assert np.allclose(conv2d_full(x, y), brute_conv_full(x, y),
                               atol=1e-12)

    def test_commutativity(self):
        # bit-exact: either argument order iterates over the smaller operand
        rng = np.random.default_rng(1)
        for xs, ys in [((6, 4), (3, 3)), ((7, 7), (40, 31)), ((2, 9), (5, 1)),
                       ((1, 1), (4, 6)), ((12, 3), (3, 13))]:
            x, y = rng.standard_normal(xs), rng.standard_normal(ys)
            assert np.array_equal(conv2d_full(x, y), conv2d_full(y, x))

    def test_associativity(self):
        rng = np.random.default_rng(2)
        x, y, z = (rng.standard_normal((4, 4)) for _ in range(3))
        lhs = conv2d_full(conv2d_full(x, y), z)
        rhs = conv2d_full(x, conv2d_full(y, z))
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 5))
        y, z = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        a, b = 1.7, -0.3
        lhs = conv2d_full(x, a * y + b * z)
        rhs = a * conv2d_full(x, y) + b * conv2d_full(x, z)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            conv2d_full(np.zeros((0, 2)), np.ones((1, 1)))


class TestObservation:
    def test_full_and_cropped_models(self):
        full = Observation(np.ones((12, 10)), (5, 3), True)
        cropped = Observation(np.ones((12, 10)), (5, 3), False)
        assert (full.shape, full.grid) == ((8, 8), (12, 10))
        assert (cropped.shape, cropped.grid) == ((12, 10), (16, 12))

    @pytest.mark.parametrize("full", [True, False], ids=["full", "cropped"])
    def test_frame_and_embedding(self, full):
        # the frame is the grid less B's window, and the embedding is B on
        # the window and 0 on the frame; B has no zero, so neither can pass
        # by accident
        b = 1.0 + np.random.default_rng(8).random((12, 10))
        obs = Observation(b, (5, 3), full)
        assert obs.frame.shape == obs.embedded.shape == obs.grid
        assert obs.frame.sum() == obs.grid[0] * obs.grid[1] - b.size
        assert obs.frame.sum() == (0 if full else 16 * 12 - 12 * 10)
        assert not obs.frame[obs.window].any()
        assert np.array_equal(obs.embedded[obs.window], b)
        assert np.array_equal(obs.embedded != 0, ~obs.frame)

    def test_one_by_one_kernel_models_agree(self):
        b = np.random.default_rng(9).random((7, 5))
        full, cropped = (Observation(b, (1, 1), f) for f in (True, False))
        assert full.shape == cropped.shape == full.grid == cropped.grid \
            == (7, 5)
        assert full.window == cropped.window
        assert not full.frame.any() and not cropped.frame.any()
        assert np.array_equal(full.embedded, cropped.embedded)
        assert np.array_equal(full.embedded, b)

    def test_even_kernel_frame_is_asymmetric(self):
        # a 4 x 4 kernel widens the grid by 3: the central window leaves one
        # row and column of frame before it and two after it
        obs = Observation(np.ones((6, 7)), (4, 4), False)
        assert obs.grid == (9, 10)
        assert obs.window == (slice(1, 7), slice(1, 8))
        rows = obs.frame.all(axis=1)
        cols = obs.frame.all(axis=0)
        assert rows.tolist() == [True] + [False] * 6 + [True] * 2
        assert cols.tolist() == [True] + [False] * 7 + [True] * 2
        assert not Observation(np.ones((9, 10)), (4, 4), True).frame.any()

    def test_b_smaller_than_kernel(self):
        # full data needs B at least the kernel's size; a cropped B of any
        # size is a window of a larger grid
        with pytest.raises(ValueError, match="smaller than the kernel"):
            Observation(np.ones((3, 3)), (5, 5), True)
        with pytest.raises(ValueError, match="smaller than the kernel"):
            Observation(np.ones((6, 3)), (5, 4), True)
        assert Observation(np.ones((3, 3)), (5, 5), False).grid == (7, 7)
        for full in (True, False):
            with pytest.raises(ValueError, match="kernel size < 1"):
                Observation(np.ones((3, 3)), (0, 1), full)


class TestVectorize:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 7))
        assert np.array_equal(devectorize(vectorize(x), 4, 7), x)

    def test_row_major_order(self):
        assert np.array_equal(vectorize([[1.0, 2.0], [3.0, 4.0]]),
                              [1.0, 2.0, 3.0, 4.0])

    def test_devectorize_size_mismatch(self):
        with pytest.raises(ValueError):
            devectorize(np.zeros(5), 2, 3)


class TestToeplitz:
    def test_shape(self):
        a = toeplitz(np.ones((3, 3)), 2, 2)
        assert a.shape == (16, 4)

    def test_faithful_on_random_pairs(self):
        # the production rows (toeplitz_row_blocks, stacked) against
        # conv2d_full's direct sums
        rng = np.random.default_rng(7)
        for _ in range(20):
            l1, l2 = rng.integers(2, 8, 2)
            k1, k2 = rng.integers(1, 5, 2)
            x = rng.standard_normal((l1, l2))
            y = rng.standard_normal((k1, k2))
            a = toeplitz(x, k1, k2)
            lhs = a @ vectorize(y)
            rhs = vectorize(conv2d_full(x, y))
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_impulse_gives_identity(self):
        a = toeplitz(np.ones((1, 1)), 2, 2)
        assert np.array_equal(a, np.eye(4))

    def test_gram_matches_explicit(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 4))
        a = toeplitz(x, 3, 3)
        assert np.allclose(toeplitz_gram(x, 3, 3), a.T @ a, atol=1e-10)

    def test_gram_probe_larger_than_source(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3))
        a = toeplitz(x, 4, 5)
        assert np.allclose(toeplitz_gram(x, 4, 5), a.T @ a, atol=1e-12)

    def test_adjoint_apply(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 5))
        b = rng.standard_normal((7, 7))
        a = toeplitz(x, 3, 3)
        assert np.allclose(toeplitz_apply_adjoint(x, b, 3, 3),
                           a.T @ b.ravel(), atol=1e-12)


# (image shape, probe shape): a probe larger than the image, as a 9 x 9
# kernel on 14 x 14 probes; 1 x 1 probes; a 1 x n image; non-square ones;
# and l + k - 1 = 17 x 11, both prime
NO_WRAP_CASES = [((9, 9), (14, 14)), ((6, 5), (1, 1)), ((1, 9), (3, 4)),
                 ((12, 5), (4, 6)), ((3, 4), (6, 5)), ((13, 7), (5, 5))]


def rel_err(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("xs, ks", NO_WRAP_CASES)
class TestNoWrapCorrelation:
    def test_gram_matches_explicit(self, xs, ks):
        x = np.random.default_rng(11).standard_normal(xs)
        a = toeplitz(x, *ks)
        assert rel_err(toeplitz_gram(x, *ks), a.T @ a) <= 1e-12

    def test_gram_is_exactly_zero_past_the_image(self, xs, ks):
        x = np.random.default_rng(12).standard_normal(xs)
        g = toeplitz_gram(x, *ks).reshape(ks + ks)
        u, v = np.arange(ks[0]), np.arange(ks[1])
        lag1 = np.abs(u[:, None, None, None] - u[None, None, :, None])
        lag2 = np.abs(v[None, :, None, None] - v[None, None, None, :])
        past = (lag1 >= xs[0]) | (lag2 >= xs[1])
        assert np.all(g[np.broadcast_to(past, g.shape)] == 0.0)

    def test_adjoint_matches_explicit(self, xs, ks):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(xs)
        b = rng.standard_normal((xs[0] + ks[0] - 1, xs[1] + ks[1] - 1))
        ref = toeplitz(x, *ks).T @ b.ravel()
        assert rel_err(toeplitz_apply_adjoint(x, b, *ks), ref) <= 1e-12


class TestFftMatchesScipy:
    """The numpy.fft helpers return scipy.fft's results bit for bit."""

    def test_fast_len(self):
        ns = range(1, 5001)
        assert [fast_len(n) for n in ns] == [sfft.next_fast_len(n, True)
                                             for n in ns]

    def test_transforms(self):
        rng = np.random.default_rng(14)
        for n in range(1, 321):
            # one odd and one even side; s the same, both parities flipped,
            # padded to fast lengths, and cut or padded to grids whose
            # 1/(s0 s1) in double differs from pocketfft's, rounded from
            # long double
            x = rng.standard_normal((n, 321 - n))
            for s in (x.shape, (n + 1, 322 - n),
                      (fast_len(n + 4), fast_len(325 - n)), (63, 89),
                      (67, 69)):
                fx = rfft2(x, s)
                assert np.array_equal(fx, sfft.rfft2(x, s)), (x.shape, s)
                assert np.array_equal(irfft2(fx, s), sfft.irfft2(fx, s)), s


def frame_mask(grid, window):
    """True on the grid outside the central window."""
    mask = np.ones(grid, dtype=bool)
    mask[central_window(grid, window)] = False
    return mask


# (image shape, probe shape, mask builder on the output grid, block_rows):
# no mask; a central window; its frame, with an odd and an even probe;
# block_rows of one pixel, and of one, two and five grid rows; 1 x 1
# probes; non-square images; a scattered mask
ROW_BLOCK_CASES = [
    ((9, 7), (3, 2), lambda g: None, 16),
    ((9, 7), (3, 3), lambda g: ~frame_mask(g, (9, 7)), 19),
    ((9, 7), (3, 3), lambda g: frame_mask(g, (9, 7)), 9),
    ((8, 8), (4, 4), lambda g: frame_mask(g, (8, 8)), 1024),
    ((6, 5), (2, 3), lambda g: frame_mask(g, (6, 5)), 1),
    ((6, 5), (1, 1), lambda g: None, 25),
    ((5, 12), (4, 2), lambda g: np.random.default_rng(3).random(g) < 0.3, 26),
]


class TestToeplitzRowBlocks:
    @pytest.mark.parametrize("xs, ks, make_mask, block_rows", ROW_BLOCK_CASES)
    def test_stacked_blocks_are_the_masked_rows(self, xs, ks, make_mask,
                                                block_rows):
        x = np.random.default_rng(14).standard_normal(xs)
        grid = (xs[0] + ks[0] - 1, xs[1] + ks[1] - 1)
        mask = make_mask(grid)
        blocks = list(toeplitz_row_blocks(x, *ks, mask, block_rows))
        rows = toeplitz(x, *ks)
        expected = rows if mask is None else rows[mask.ravel()]
        assert np.array_equal(np.vstack(blocks), expected)
        # block_rows rounded down to whole grid rows, at least one
        step = max(1, block_rows // grid[1]) * grid[1]
        assert all(len(blk) == step for blk in blocks[:-1])
        assert 0 < len(blocks[-1]) <= step

    def test_empty_mask_yields_nothing(self):
        x = np.ones((4, 4))
        mask = frame_mask((4, 4), (4, 4))   # a 1 x 1 probe has no frame
        assert not mask.any()
        assert list(toeplitz_row_blocks(x, 1, 1, mask)) == []

    def test_mask_off_the_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            next(toeplitz_row_blocks(np.ones((4, 4)), 3, 3,
                                     np.ones((4, 4), dtype=bool)))


class TestValidation:
    def test_kernel_negative_rejected(self):
        with pytest.raises(ValueError):
            validate_kernel([[0.5, 0.6], [-0.1, 0.0]])

    def test_kernel_sum_enforced(self):
        with pytest.raises(ValueError):
            validate_kernel([[0.3, 0.3], [0.3, 0.0]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            as_image([[1.0, np.nan]])


def test_import_leaves_scipy_signal_out():
    # the package and its CLI load no scipy module: scipy.signal and then
    # scipy.fft cost most of the import; the package alone, without its
    # CLI, loads no click module either
    import convdeblur
    src = os.path.dirname(os.path.dirname(convdeblur.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for modules, banned in (("convdeblur, convdeblur.cli", "scipy"),
                            ("convdeblur", "click")):
        code = (f"import sys, {modules}; "
                f"print([m for m in sys.modules if m.split('.')[0] == "
                f"{banned!r}])")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert out.strip() == "[]", (modules, out)
