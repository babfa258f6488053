"""Monte Carlo error-versus-delay harness.

Each trial draws an iid source realization, encodes it causally, replays the
decoder-side candidate sets, decodes once at full horizon, and scores an
error at delay D whenever any of the first n - D symbols is wrong.  Per-trial
seeds are derived from the base seed by hashing, so trials are independent,
reproducible, and may run in any order or process.

Trials run in chunks of consecutive trial indices, the one unit of work,
serially or one chunk per task of a process pool.  A chunk draws each
trial's seed and source (one `derive_trial_seed` and one `sample_source`
call per trial), replays all its bins at once with `codec.replay_bins`, and
decodes them: ML and SI-ML with one vectorized argmax per chunk
(`codec.ml_first_errors`, point-to-point ML as its |Y| = 1 case), the other
decoders one trial at a time on the trial's `CandidateSet`.  The chunk size
is `codec.chunk_trials`: a fixed lane budget over the closed-form mean bin
size, not an option; a parallel run caps it so that each worker gets at
least 8 chunks.  A chunk returns histograms of its completed trials' first
x, y and joint error positions, and the errors at delay D are the
cumulative count up to symbol n - D.  Every count is a sum over chunks, so
the counts do not depend on the chunk size or on `--threads`.  An aborted
trial is counted under the stream and step at which its bin overflowed.
"""

from __future__ import annotations

import collections
import concurrent.futures
import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .codec import (
    DEFAULT_CANDIDATE_CAP,
    BinningSchedule,
    MAX_HORIZON_SINGLE,
    MAX_HORIZON_TWO_ENCODER,
    _PRF_BITS,
    _as_int,
    _first_divergence,
    chunk_trials,
    ml_first_errors,
    replay_bins,
    si_decode_universal,
    sw_ml_decode,
    sw_universal_decode,
    universal_decode,
)
# imported only for bench/trace_layers.py, which wraps them here; ROADMAP item 3 removes this
from .codec import (  # noqa: F401
    encode_step,
    initial_candidates,
    ml_decode,
    si_decode_ml,
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


def _check_byte_alphabets(d: JointDistribution) -> None:
    if max(d.alphabet_x, d.alphabet_y) > 256:
        raise ValueError("alphabets hold at most 256 symbols: every stream "
                         "is stored one byte per symbol")


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
    candidate_cap: int = DEFAULT_CANDIDATE_CAP

    def __post_init__(self):
        for name in ("n", "trials", "base_seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name)))
        object.__setattr__(self, "delays", tuple(_as_int(d) for d in self.delays))
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
        if len(set(self.delays)) < len(self.delays):
            raise ValueError("delays must not repeat")
        cap = MAX_HORIZON_TWO_ENCODER if self.decoder in _TWO_ENCODER \
            else MAX_HORIZON_SINGLE
        if self.n > cap:
            raise ValueError(
                f"horizon {self.n} exceeds the exact-decoder bound {cap} "
                f"for decoder {self.decoder!r}"
            )
        if self.decoder in _TWO_ENCODER and self.schedule_y is None:
            raise ValueError("two-encoder decoding needs schedule_y")
        _check_byte_alphabets(self.source)
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
    # (stream id, step) -> trials whose bin of that stream overflowed there
    aborted_by_step: dict = field(default_factory=dict)

    def rate_x(self, delay: int) -> float:
        return self.errors_x[delay] / self.trials

    def rate_x_upper(self, delay: int) -> float:
        """The x-error rate over every trial, counting each aborted trial as
        an error: an upper bound on what the completed trials estimate."""
        return (self.errors_x[delay] + self.aborted) / (self.trials + self.aborted)

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
    _check_byte_alphabets(d)
    rng = np.random.default_rng(seed)
    cum = np.cumsum(d.probs.ravel())
    cum[-1] = 1.0
    flat = np.searchsorted(cum, rng.random(n), side="right")
    x = bytes((flat // d.alphabet_y).astype(np.uint8))
    y = bytes((flat % d.alphabet_y).astype(np.uint8))
    return x, y


def _run_chunk(cfg: TrialConfig, start: int, stop: int):
    """Trials start..stop-1: a 3 x (n + 2) array counting the completed ones
    by the position of their first x, y and joint error (column n + 1: no
    error), and a Counter of the aborted ones by (stream id, step)."""
    n = cfg.n
    seeds, xs, ys = [], [], []
    for t in range(start, stop):
        seed = derive_trial_seed(cfg.base_seed, t)
        x, y = sample_source(cfg.source, n, seed)
        seeds.append(seed)
        xs.append(x)
        ys.append(y)
    x_rows = np.frombuffer(b"".join(xs), np.uint8).reshape(-1, n)
    y_rows = np.frombuffer(b"".join(ys), np.uint8).reshape(-1, n)
    bins_x = replay_bins(seeds, x_rows, "x", cfg.schedule_x, cfg.source.alphabet_x,
                         cfg.candidate_cap)
    lost = [("x", int(j)) if j else None for j in bins_x.overflow]
    fx = np.full(len(seeds), n + 1)
    fy = np.full(len(seeds), n + 1)
    if cfg.decoder in ("ml", "si_ml"):
        if cfg.decoder == "ml":  # the |Y| = 1 case: y = 0^n, the x-marginal
            probs, y_rows = cfg.source.marginal_x().reshape(-1, 1), np.zeros_like(x_rows)
        else:
            probs = cfg.source.probs
        fx = ml_first_errors(bins_x, x_rows, probs, y_rows)
    else:
        if cfg.decoder in _TWO_ENCODER:
            bins_y = replay_bins(seeds, y_rows, "y", cfg.schedule_y,
                                 cfg.source.alphabet_y, cfg.candidate_cap,
                                 live=bins_x.overflow == 0)
            for i in np.flatnonzero(bins_y.overflow):
                lost[i] = ("y", int(bins_y.overflow[i]))
        for i, x in enumerate(xs):
            if lost[i]:
                continue
            cx = bins_x.candidate_set(i)
            if cfg.decoder in _TWO_ENCODER:
                cy = bins_y.candidate_set(i)
                if cfg.decoder == "sw_ml":
                    x_hat, y_hat = sw_ml_decode(cx, cy, cfg.source, delay=0)
                else:
                    x_hat, y_hat = sw_universal_decode(cx, cy, delay=0)
                fy[i] = _first_divergence(y_hat, ys[i], n)
            elif cfg.decoder == "universal":
                x_hat = universal_decode(cx, delay=0)
            else:
                x_hat = si_decode_universal(cx, ys[i], delay=0)
            fx[i] = _first_divergence(x_hat, x, n)
    done = np.array([where is None for where in lost], bool)
    first = np.stack([fx, fy, np.minimum(fx, fy)])[:, done]
    hist = np.stack([np.bincount(row, minlength=n + 2) for row in first])
    return hist, collections.Counter(filter(None, lost))


def run_trials(cfg: TrialConfig, threads: int = 1) -> DelayErrorStats:
    """Run all trials in chunks and aggregate per-delay error counts.

    The merge is a plain sum of counts, so the result is independent of
    thread count and chunking.
    """
    streams = [(cfg.source.alphabet_x, cfg.schedule_x)]
    if cfg.decoder in _TWO_ENCODER:
        streams.append((cfg.source.alphabet_y, cfg.schedule_y))
    size = chunk_trials(cfg.n, streams)
    parallel = threads > 1 and cfg.trials >= 64
    if parallel:
        size = min(size, -(-cfg.trials // (8 * threads)))
    starts = range(0, cfg.trials, size)
    stops = [min(a + size, cfg.trials) for a in starts]
    if parallel:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_run_chunk, itertools.repeat(cfg), starts, stops))
    else:
        parts = list(map(_run_chunk, itertools.repeat(cfg), starts, stops))
    hist = sum(h for h, _ in parts)
    aborted = sum((a for _, a in parts), collections.Counter())
    # an error at delay d is a first error in symbols 1..n-d; the nesting of
    # error events across delays is automatic
    ex, ey, ej = ({d: int(row[cfg.n - d]) for d in cfg.delays}
                  for row in np.cumsum(hist, axis=1))
    completed = cfg.trials - aborted.total()
    return DelayErrorStats(delays=cfg.delays, trials=completed,
                           errors_x=ex, errors_y=ey, errors_joint=ej,
                           aborted=cfg.trials - completed,
                           aborted_by_step=dict(sorted(aborted.items())))


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
