"""Computation and verification suite for Hermitian matrix models with an
external source: partition functions, gap-probability expectations,
orthogonal-polynomial data, the exact series ladder over rationals, and
machine checks of the determinant and bilinear identities tying them
together."""

from .series import (
    TruncatedSeries, LaurentSlice, FieldMismatch, WindowError, laurent_mul,
)
from .schur import NearConfluent, elementary_schur, h_series
from .weights import (
    IntervalSet, GaussianWeight, LaguerreWeight, ExpPolyWeight, DeformedWeight,
    QuadratureError, HankelNotPD, QuadResult, weight_from_spec, deform_weight,
    orthonormal_basis, OrthoBasis,
)
from .matrix_model import (
    SourceModel, ExpectationQuery, IdentityReport, partition_fn,
    expectation, normalized_expectation,
    rank_reduction_rhs, verify_main_identity, z_ratio_det_check, classify,
)
from .dkp import (
    TauConfig, NuMeasure, zhat_series, vertex_apply, nu_pair, tau_ladder_step,
    hirota_residual, fay_residual, fay_det_residual,
)
from .mc import (
    McEstimate, CrossCheck, estimate_expectation, cross_check,
)

__version__ = "0.1.0"
