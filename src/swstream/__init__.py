"""Streaming random-binning source coding toolkit.

Exact error-exponent formulas for sequential (delay-constrained) lossless
source coding with and without side information, executable random-binning
encoders/decoders at desk scale, and a Monte Carlo error-versus-delay
harness.
"""

__version__ = "0.4.0"

from .info_core import (  # noqa: F401
    JointDistribution,
    conditional_entropy_x_given_y,
    conditional_entropy_y_given_x,
    entropy,
    kl_divergence,
    tilted,
    weighted_suffix_entropy,
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
from .codec import (  # noqa: F401
    BinningSchedule,
    CandidateSet,
)
from .sim import (  # noqa: F401
    DelayErrorStats,
    TrialConfig,
    fit_exponent,
    run_trials,
    sample_source,
)
