"""Streaming random-binning source coding toolkit.

Exact error-exponent formulas for sequential (delay-constrained) lossless
source coding with and without side information, executable random-binning
encoders/decoders at desk scale, and a Monte Carlo error-versus-delay
harness.

The exponents run on the standard library alone.  The encoders, decoders
and simulations run on numpy, so their names are imported on first use.
"""

import importlib

__version__ = "0.4.0"

from .info_core import (  # noqa: F401
    JointDistribution,
    conditional_entropy_x_given_y,
    conditional_entropy_y_given_x,
    entropy,
    kl_divergence,
    tilted,
    xy_tilted,
)
from .exponents import (  # noqa: F401
    ExponentResult,
    RatePair,
    e_block_lower,
    e_block_sw_x,
    e_block_sw_y,
    e_block_upper,
    e_ml_pp,
    e_ml_si,
    e_sw_x,
    e_sw_xy,
    e_sw_y,
    e_un_pp,
    e_un_si,
    e_x_gamma,
    e_y_gamma,
)

# name -> the numpy module that defines it
_LAZY = {
    "BinningSchedule": "codec",
    "CandidateSet": "codec",
    "weighted_suffix_entropy": "codec",
    "DelayErrorStats": "sim",
    "TrialConfig": "sim",
    "fit_exponent": "sim",
    "run_trials": "sim",
    "sample_source": "sim",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
