"""Bergman kernels of two Reinhardt domains and of complex ellipsoids,
evaluated by closed forms and by truncated orthonormal series, with a
verification CLI that cross-checks every identity used along the way."""

from .domains import DomainSpec, PointPair, contains, diagonal_pair, sample_interior, sample_pairs
from .errors import (BergkernError, BranchError, ConvergenceError, PoleError,
                     QuadratureError, RegionError, SamplingError, SingularityError)
from .hypergeo import (DEFAULT_POLICY, SeriesValue, TruncationPolicy, appell_fa,
                       closed_2f1_family, closed_2f1_recurrence, doubled_index_multisum,
                       fa_decomposition_rhs, fa_equal_params_closed, gauss_2f1,
                       recurrence_coefficients)
from .kernels import (KERNEL_POLICY, KernelValue, kernel_closed_d1, kernel_closed_d1_nu,
                      kernel_closed_d2, kernel_closed_d2_nu, kernel_series_d1,
                      kernel_series_d1_nu, kernel_series_d2, kernel_series_d2_nu,
                      kernel_series_ellipsoid, kernel_series_ellipsoid_nu,
                      potential_closed_d1)
from .norms import (check_index_d1, check_index_d2, d1_exponents, norm_closed, norm_d1,
                    norm_d2, norm_quadrature)
from .numerics import DualComplex, log_gamma_array, principal_pow, principal_sqrt
from .report import ReportRow, VerificationReport, error_pair, make_row
from .suites import run_identity_suite, run_kernel_suite, run_norm_suite

__version__ = "0.1.0"
