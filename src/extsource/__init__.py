"""Computation and verification suite for Hermitian matrix models with an
external source: partition functions, gap-probability expectations,
orthogonal-polynomial data, the exact series ladder over rationals, and
machine checks of the determinant and bilinear identities tying them
together.

The top level holds the names of the README's library sketch; every other
name is imported from its own module."""

from .weights import GaussianWeight, IntervalSet
from .matrix_model import SourceModel, ExpectationQuery, verify_main_identity
from .dkp import TauConfig, tau_ladder_step, zhat_series

__version__ = "0.1.0"
