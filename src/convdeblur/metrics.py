"""Quality metrics and the recovery-error bound formulas."""

import math

import numpy as np

from .tensorops import as_image


def psnr(img, ref, peak=1.0):
    """Peak signal-to-noise ratio in dB; inputs must have equal shape."""
    img = as_image(img)
    ref = as_image(ref)
    if img.shape != ref.shape:
        raise ValueError(f"shape mismatch {img.shape} vs {ref.shape}")
    mse = float(np.mean((img - ref) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * math.log10(peak * peak / mse)


def noiseless_error_bound(sigma_max_b, sigma_min_i0):
    """Kernel recovery bound for exact blur: sqrt(2) * sigma_max(B)/sigma_min(I0)."""
    if sigma_min_i0 <= 0:
        raise ValueError("sigma_min of the sharp image must be positive")
    return math.sqrt(2.0) * sigma_max_b / sigma_min_i0


def noisy_error_bound(sigma_max_b, sigma_min_b, sigma_min_i0, s1, s2, eps):
    """Kernel recovery bound with feature-domain noise of norm eps:
    sqrt(2) * (sigma_max(B) + ccond(B) * sqrt(s1*s2) * eps) / sigma_min(I0)."""
    if sigma_min_i0 <= 0 or sigma_min_b <= 0:
        raise ValueError("spectra must be positive")
    ccond = sigma_max_b / sigma_min_b
    return math.sqrt(2.0) * (sigma_max_b + ccond * math.sqrt(s1 * s2) * eps) / sigma_min_i0
