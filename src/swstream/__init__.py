"""Streaming random-binning source coding toolkit.

Exact error-exponent formulas for sequential (delay-constrained) lossless
source coding with and without side information, executable random-binning
encoders/decoders at desk scale, and a Monte Carlo error-versus-delay
harness.

The package root imports `info_core` alone.  The names of the exponents,
which run on the standard library, and of the encoders, decoders and
simulations, which run on numpy, are imported on first use: `simulate`
loads no exponent code, and the exponent commands load no numpy.
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

# name -> the module that defines it, imported on first use
_LAZY = {
    **dict.fromkeys((
        "ExponentResult", "RatePair", "e_block_lower", "e_block_sw_x",
        "e_block_sw_y", "e_block_upper", "e_ml_pp", "e_ml_si", "e_sw_x",
        "e_sw_xy", "e_sw_y", "e_un_pp", "e_un_si", "e_x_gamma", "e_y_gamma",
    ), "exponents"),
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
