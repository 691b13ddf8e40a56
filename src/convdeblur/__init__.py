"""Blind image deblurring via the spectral properties of images as
convolution operators."""

from .blind import (DeblurConfig, DeblurResult, alpha_sweep, blind_deblur,
                    estimate_kernel, impulse_distance, kstep)
from .features import DELTA, apply_filter, get_filter, make_log
from .metrics import noiseless_error_bound, noisy_error_bound, psnr
from .regularizer import RegularizerHessian, build_hessian, h_value
from .simplex_qp import QpProblem, QpSolution, project_simplex, solve_qp
from .spectral import ConvSpectrum, conv_spectrum
from .synth import (align_kernels, kernel_error, make_kernel, make_test_image,
                    synth_blur)
from .tensorops import (Observation, conv2d_full, devectorize, toeplitz,
                        toeplitz_gram, validate_kernel, vectorize)
from .tv import TvSolverConfig, total_variation, tv_deconv

__version__ = "0.1.0"
