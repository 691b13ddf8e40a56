"""Synthetic blur kernels, procedural test images, and seeded blur generation.

Everything here is bit-reproducible from (seed, parameters). Test images are
generated procedurally (steps, bars, checkerboards, random polygons) so no
photographs ship with the package.
"""

import numpy as np

from .features import make_log, apply_filter
from .tensorops import as_image, conv2d_full, validate_kernel

KERNEL_FAMILIES = ("gaussian", "motion-line", "random-sparse", "curve")
IMAGE_KINDS = ("step", "bars", "checker", "polygons")


def _splat_points(grid, pts, weights=None):
    """Bilinear splat of (row, col) points onto a grid, clamped to bounds."""
    m1, m2 = grid.shape
    if weights is None:
        weights = np.ones(len(pts))
    for (r, c), w in zip(pts, weights):
        r = min(max(r, 0.0), m1 - 1.0)
        c = min(max(c, 0.0), m2 - 1.0)
        r0, c0 = int(np.floor(r)), int(np.floor(c))
        fr, fc = r - r0, c - c0
        r1, c1 = min(r0 + 1, m1 - 1), min(c0 + 1, m2 - 1)
        grid[r0, c0] += w * (1 - fr) * (1 - fc)
        grid[r0, c1] += w * (1 - fr) * fc
        grid[r1, c0] += w * fr * (1 - fc)
        grid[r1, c1] += w * fr * fc


def make_kernel(family, size, params=None, seed=0):
    """Normalized nonnegative blur kernel of one of four families.

    gaussian: isotropic, params={'sigma': s} (sigma -> 0 gives an impulse).
    motion-line: params={'angle': degrees, 'length': n}; unit-mass points at
      unit spacing along the segment, bilinear-splatted (length n at 0 deg
      gives n equal weights in one row).
    random-sparse: seeded sparse support with random positive weights,
      params={'count': n}.
    curve: seeded random-walk trajectory rasterized by bilinear splat,
      params={'steps': n}.
    """
    if size < 1:
        raise ValueError("kernel size must be >= 1")
    params = dict(params or {})
    for key in ("length", "count", "steps"):
        if not float(params.get(key, 0)).is_integer():
            raise ValueError(f"{key} must be an integer, got {params[key]!r}")
    k = np.zeros((size, size))
    center = (size - 1) / 2.0
    rng = np.random.default_rng(seed)

    if family == "gaussian":
        sigma = float(params.pop("sigma", size / 5.0))
        if not 0 <= sigma < np.inf:
            raise ValueError("sigma must be nonnegative and finite")
        if sigma < 1e-12:
            k[int(round(center)), int(round(center))] = 1.0
        else:
            y, x = np.mgrid[0:size, 0:size].astype(np.float64)
            k = np.exp(-((x - center) ** 2 + (y - center) ** 2) / (2 * sigma ** 2))
    elif family == "motion-line":
        angle = np.deg2rad(float(params.pop("angle", 0.0)))
        length = int(params.pop("length", size))
        if not np.isfinite(angle):
            raise ValueError("angle must be finite")
        if length < 1:
            raise ValueError("length must be >= 1")
        t = np.arange(length) - (length - 1) / 2.0
        pts = [(center + ti * np.sin(angle), center + ti * np.cos(angle)) for ti in t]
        _splat_points(k, pts)
    elif family == "random-sparse":
        count = int(params.pop("count", max(2, size)))
        rows = rng.integers(0, size, count)
        cols = rng.integers(0, size, count)
        vals = rng.uniform(0.2, 1.0, count)
        np.add.at(k, (rows, cols), vals)
    elif family == "curve":
        steps = int(params.pop("steps", 4 * size))
        pos = np.array([center, center])
        heading = rng.uniform(0, 2 * np.pi)
        pts = [tuple(pos)]
        for _ in range(steps):
            heading += rng.normal(0.0, 0.45)
            pos = pos + 0.5 * np.array([np.sin(heading), np.cos(heading)])
            pos = np.clip(pos, 0.5, size - 1.5)
            pts.append(tuple(pos))
        _splat_points(k, pts)
    else:
        raise ValueError(f"unknown kernel family {family!r}")
    if params:
        raise ValueError(f"unrecognized kernel params: {sorted(params)}")
    total = k.sum()
    if total <= 0:
        raise ValueError("degenerate kernel (zero mass)")
    return k / total


def make_test_image(kind, size, seed=0):
    """Procedural grayscale test image in [0, 1]."""
    rng = np.random.default_rng(seed)
    if kind == "step":
        img = np.full((size, size), 0.2)
        img[:, size // 2:] = 0.8
        img[size // 3:, :] += 0.15
        img = np.clip(img, 0.0, 1.0)
    elif kind == "bars":
        img = np.zeros((size, size))
        period = max(4, size // 12)
        for j in range(0, size, period):
            img[:, j:j + period // 2] = 0.9
        img[::period, :] = 0.1
    elif kind == "checker":
        cell = max(3, size // 16)
        y, x = np.mgrid[0:size, 0:size]
        img = (((y // cell) + (x // cell)) % 2).astype(np.float64)
        img = 0.1 + 0.8 * img
    elif kind == "polygons":
        img = rng.uniform(0.3, 0.5) * np.ones((size, size))
        y, x = np.mgrid[0:size, 0:size].astype(np.float64)
        for _ in range(12):
            cx, cy = rng.uniform(0, size, 2)
            nsides = rng.integers(3, 7)
            radius = rng.uniform(size / 10, size / 3)
            angles = np.sort(rng.uniform(0, 2 * np.pi, nsides))
            mask = np.ones((size, size), dtype=bool)
            for a in angles:  # intersection of half-planes through the center
                nx, ny = np.cos(a), np.sin(a)
                mask &= (x - cx) * nx + (y - cy) * ny <= radius
            img[mask] = rng.uniform(0.0, 1.0)
        # light deterministic texture keeps the LoG spectrum well-conditioned
        img += 0.02 * rng.standard_normal((size, size))
        img = np.clip(img, 0.0, 1.0)
    else:
        raise ValueError(f"unknown image kind {kind!r}")
    return img


def synth_blur(i0, k, eps=0.0, seed=0, f=None):
    """Blur by full convolution plus seeded noise with ||L(N)||_F = eps.

    Returns (blurry, noise). The noise is Gaussian, rescaled exactly so the
    feature-filtered noise has Frobenius norm eps (f defaults to LoG).
    """
    i0 = as_image(i0)
    k = validate_kernel(k)
    if not 0 <= eps < np.inf:
        raise ValueError("eps must be nonnegative and finite")
    b0 = conv2d_full(i0, k)
    if eps == 0.0:
        return b0, np.zeros_like(b0)
    f = f or make_log(1.0)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(b0.shape)
    scale = eps / np.linalg.norm(apply_filter(f, noise))
    noise = scale * noise
    return b0 + noise, noise


def align_kernels(k_est, k_true):
    """Pad to a common size and shift k_est by the cross-correlation peak.

    Kernel/image decompositions are shift-ambiguous; alignment makes the
    Frobenius error metric meaningful. Returns (aligned_est, padded_true).
    """
    k_est = as_image(k_est)
    k_true = as_image(k_true)
    m1 = max(k_est.shape[0], k_true.shape[0])
    m2 = max(k_est.shape[1], k_true.shape[1])

    def pad_center(k):
        p1, p2 = m1 - k.shape[0], m2 - k.shape[1]
        return np.pad(k, ((p1 // 2, p1 - p1 // 2), (p2 // 2, p2 - p2 // 2)))

    a, b = pad_center(k_est), pad_center(k_true)
    corr = conv2d_full(b, a[::-1, ::-1])
    peak = np.unravel_index(np.argmax(corr), corr.shape)
    d1, d2 = peak[0] - (m1 - 1), peak[1] - (m2 - 1)
    shifted = np.zeros_like(a)
    src = a[max(0, -d1):m1 - max(0, d1), max(0, -d2):m2 - max(0, d2)]
    shifted[max(0, d1):max(0, d1) + src.shape[0],
            max(0, d2):max(0, d2) + src.shape[1]] = src
    return shifted, b


def kernel_error(k_est, k_true):
    """Frobenius distance after integer-shift alignment."""
    a, b = align_kernels(k_est, k_true)
    return float(np.linalg.norm(a - b))
