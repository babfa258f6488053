"""Monte Carlo error-versus-delay harness.

Each trial draws an iid source realization, encodes it causally, replays the
decoder-side candidate sets, decodes once at full horizon, and scores an
error at delay D whenever any of the first n - D symbols is wrong.  Per-trial
seeds are derived from the base seed by hashing, so trials are independent,
reproducible, and may run in any order or process.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .codec import (
    BinningSchedule,
    CandidateOverflowError,
    CandidateSet,
    MAX_HORIZON_SINGLE,
    MAX_HORIZON_TWO_ENCODER,
    _PRF_BITS,
    _first_divergence,
    encode_step,
    initial_candidates,
    ml_decode,
    si_decode_ml,
    si_decode_universal,
    sw_ml_decode,
    sw_universal_decode,
    universal_decode,
    update_candidates,
)
from .info_core import JointDistribution

__all__ = [
    "TrialConfig",
    "DelayErrorStats",
    "FitResult",
    "sample_source",
    "run_trials",
    "fit_exponent",
    "derive_trial_seed",
    "wilson_interval",
    "stats_to_csv",
    "fit_to_json",
    "DECODERS",
]

DECODERS = ("ml", "universal", "si_ml", "si_universal", "sw_ml", "sw_universal")
_TWO_ENCODER = ("sw_ml", "sw_universal")


@dataclass(frozen=True)
class TrialConfig:
    source: JointDistribution
    schedule_x: BinningSchedule
    schedule_y: BinningSchedule | None
    n: int
    delays: tuple
    trials: int
    base_seed: int
    decoder: str
    candidate_cap: int = 2 ** 20

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n < 1:
            raise ValueError("horizon n must be >= 1")
        if not self.delays:
            raise ValueError("need at least one delay")
        if any(d < 0 or d > self.n for d in self.delays):
            raise ValueError("delays must lie in [0, n]")
        cap = MAX_HORIZON_TWO_ENCODER if self.decoder in _TWO_ENCODER \
            else MAX_HORIZON_SINGLE
        if self.n > cap:
            raise ValueError(
                f"horizon {self.n} exceeds the exact-decoder bound {cap} "
                f"for decoder {self.decoder!r}"
            )
        if self.decoder in _TWO_ENCODER and self.schedule_y is None:
            raise ValueError("two-encoder decoding needs schedule_y")
        for alphabet, schedule in ((self.source.alphabet_x, self.schedule_x),
                                   (self.source.alphabet_y, self.schedule_y)):
            if schedule is not None and alphabet * max(schedule.pattern) > _PRF_BITS:
                raise ValueError("alphabet size times bits per step exceeds "
                                 f"the {_PRF_BITS}-bit hash word")
        if self.decoder in ("si_ml", "si_universal", "sw_ml", "sw_universal") \
                and self.source.alphabet_y < 2:
            raise ValueError(f"decoder {self.decoder!r} needs |Y| >= 2")
        object.__setattr__(self, "delays", tuple(sorted(self.delays)))


@dataclass
class DelayErrorStats:
    delays: tuple
    trials: int
    errors_x: dict
    errors_y: dict
    errors_joint: dict
    aborted: int = 0

    def rate_x(self, delay: int) -> float:
        return self.errors_x[delay] / self.trials

    def interval_x(self, delay: int):
        return wilson_interval(self.errors_x[delay], self.trials)


@dataclass(frozen=True)
class FitResult:
    slope: float
    stderr: float
    r2: float
    points_used: int

    @property
    def ok(self) -> bool:
        return self.points_used >= 3 and math.isfinite(self.slope)


def derive_trial_seed(base_seed: int, trial_index: int) -> int:
    """Stable per-trial seed: hash of (base seed, trial index)."""
    h = hashlib.blake2b(
        b"trial:%d:%d" % (base_seed, trial_index), digest_size=8
    ).digest()
    return int.from_bytes(h, "big")


def sample_source(d: JointDistribution, n: int, seed: int):
    """n iid draws from the joint; returns (x-bytes, y-bytes), one symbol
    per byte."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(d.probs.ravel())
    cum[-1] = 1.0
    flat = np.searchsorted(cum, rng.random(n), side="right")
    x = bytes((flat // d.alphabet_y).astype(np.uint8))
    y = bytes((flat % d.alphabet_y).astype(np.uint8))
    return x, y


def _build_candidates(seed: int, stream_id: str, seq, schedule, alphabet,
                      cap) -> CandidateSet:
    cands = initial_candidates(seed, stream_id, schedule, alphabet)
    for j in range(1, len(seq) + 1):
        bits = encode_step(seed, stream_id, seq[:j], schedule)
        cands = update_candidates(cands, bits, cap=cap)
    return cands


def _run_one_trial(cfg: TrialConfig, trial_index: int):
    """Returns (first_x_error_pos, first_y_error_pos) or None when aborted."""
    seed = derive_trial_seed(cfg.base_seed, trial_index)
    x, y = sample_source(cfg.source, cfg.n, seed)
    try:
        if cfg.decoder in _TWO_ENCODER:
            cx = _build_candidates(seed, "x", x, cfg.schedule_x,
                                   cfg.source.alphabet_x, cfg.candidate_cap)
            cy = _build_candidates(seed, "y", y, cfg.schedule_y,
                                   cfg.source.alphabet_y, cfg.candidate_cap)
            if cfg.decoder == "sw_ml":
                x_hat, y_hat = sw_ml_decode(cx, cy, cfg.source, delay=0)
            else:
                x_hat, y_hat = sw_universal_decode(cx, cy, cfg.n, delay=0)
            return (_first_divergence(x_hat, x, cfg.n),
                    _first_divergence(y_hat, y, cfg.n))
        cx = _build_candidates(seed, "x", x, cfg.schedule_x,
                               cfg.source.alphabet_x, cfg.candidate_cap)
        if cfg.decoder == "ml":
            x_hat = ml_decode(cx, cfg.source, delay=0)
        elif cfg.decoder == "universal":
            x_hat = universal_decode(cx, delay=0)
        elif cfg.decoder == "si_ml":
            x_hat = si_decode_ml(cx, y, cfg.source, delay=0)
        else:
            x_hat = si_decode_universal(cx, y, delay=0)
        return _first_divergence(x_hat, x, cfg.n), cfg.n + 1
    except CandidateOverflowError:
        return None


def _run_range(cfg: TrialConfig, start: int, stop: int):
    """Error counters over a contiguous trial range (worker unit)."""
    delays = cfg.delays
    ex = dict.fromkeys(delays, 0)
    ey = dict.fromkeys(delays, 0)
    ej = dict.fromkeys(delays, 0)
    aborted = 0
    for t in range(start, stop):
        outcome = _run_one_trial(cfg, t)
        if outcome is None:
            aborted += 1
            continue
        fx, fy = outcome
        for d in delays:
            # an error at delay d is a mismatch anywhere in symbols 1..n-d;
            # the nesting of error events across delays is automatic
            x_err = fx <= cfg.n - d
            y_err = fy <= cfg.n - d
            if x_err:
                ex[d] += 1
            if y_err:
                ey[d] += 1
            if x_err or y_err:
                ej[d] += 1
    return ex, ey, ej, aborted


def run_trials(cfg: TrialConfig, threads: int = 1) -> DelayErrorStats:
    """Run all trials and aggregate per-delay error counts.

    The merge is a plain sum of counters, so the result is independent of
    thread count and chunking.
    """
    threads = max(1, threads)
    if threads == 1 or cfg.trials < 64:
        parts = [_run_range(cfg, 0, cfg.trials)]
    else:
        chunk = max(1, -(-cfg.trials // (threads * 8)))
        ranges = [(s, min(s + chunk, cfg.trials))
                  for s in range(0, cfg.trials, chunk)]
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_run_range_star,
                                  [(cfg, a, b) for a, b in ranges]))
    ex = dict.fromkeys(cfg.delays, 0)
    ey = dict.fromkeys(cfg.delays, 0)
    ej = dict.fromkeys(cfg.delays, 0)
    aborted = 0
    for pex, pey, pej, pab in parts:
        for d in cfg.delays:
            ex[d] += pex[d]
            ey[d] += pey[d]
            ej[d] += pej[d]
        aborted += pab
    completed = cfg.trials - aborted
    return DelayErrorStats(delays=cfg.delays, trials=completed,
                           errors_x=ex, errors_y=ey, errors_joint=ej,
                           aborted=aborted)


def _run_range_star(args):
    return _run_range(*args)


def wilson_interval(errors: int, trials: int, z: float = 1.959963984540054):
    """Wilson 95% score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


def fit_exponent(stats: DelayErrorStats) -> FitResult:
    """Weighted least-squares slope of -log(error rate) against delay.

    Weights come from the Wilson interval mapped to the log scale; delays with
    zero errors carry no information about the decay rate and are dropped.
    """
    xs, ys, ws = [], [], []
    for d in stats.delays:
        k = stats.errors_x[d]
        if k == 0 or stats.trials == 0:
            continue
        rate = k / stats.trials
        lo, hi = wilson_interval(k, stats.trials)
        lo = max(lo, 1e-300)
        sigma = 0.5 * (math.log(hi) - math.log(lo))
        xs.append(float(d))
        ys.append(-math.log(rate))
        ws.append(1.0 / max(sigma * sigma, 1e-12))
    if len(xs) < 3:
        return FitResult(math.nan, math.nan, math.nan, len(xs))
    x = np.asarray(xs)
    y = np.asarray(ys)
    w = np.asarray(ws)
    sw = w.sum()
    xbar = (w * x).sum() / sw
    ybar = (w * y).sum() / sw
    sxx = (w * (x - xbar) ** 2).sum()
    sxy = (w * (x - xbar) * (y - ybar)).sum()
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    ss_res = (w * resid ** 2).sum()
    ss_tot = (w * (y - ybar) ** 2).sum()
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    dof = max(len(xs) - 2, 1)
    stderr = math.sqrt(max(ss_res / dof, 0.0) / sxx)
    return FitResult(float(slope), float(stderr), float(r2), len(xs))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def stats_to_csv(stats: DelayErrorStats) -> str:
    lines = ["delta,trials,errors_x,errors_y,errors_joint,rate_x_err,lo95,hi95"]
    for d in stats.delays:
        lo, hi = stats.interval_x(d)
        rate = stats.rate_x(d) if stats.trials else 0.0
        lines.append(
            f"{d},{stats.trials},{stats.errors_x[d]},{stats.errors_y[d]},"
            f"{stats.errors_joint[d]},{_fmt(rate)},{_fmt(lo)},{_fmt(hi)}"
        )
    return "\n".join(lines) + "\n"


def fit_to_json(fit: FitResult) -> str:
    import json

    def clean(v):
        return None if not math.isfinite(v) else v

    return json.dumps(
        {
            "slope": clean(fit.slope),
            "stderr": clean(fit.stderr),
            "r2": clean(fit.r2),
            "points_used": fit.points_used,
        },
        indent=2,
    ) + "\n"
