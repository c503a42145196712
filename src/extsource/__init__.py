"""Computation and verification suite for Hermitian matrix models with an
external source: partition functions, gap-probability expectations,
orthogonal-polynomial data, the exact series ladder over rationals, and
machine checks of the determinant and bilinear identities tying them
together.

The top level holds the names of the README's library sketch; every other
name is imported from its own module.  Each top-level name loads its module
on first access (PEP 562), so importing the package, or `extsource.cli`,
loads none of them."""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "GaussianWeight": "weights", "IntervalSet": "weights",
    "SourceModel": "matrix_model", "ExpectationQuery": "matrix_model",
    "verify_main_identity": "matrix_model",
    "TauConfig": "dkp", "tau_ladder_step": "dkp", "zhat_series": "dkp",
}


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value
