"""Monte Carlo error-versus-delay harness.

Each trial draws an iid source realization, encodes it causally, replays the
decoder-side candidate sets, decodes once at full horizon, and scores an
error at delay D whenever any of the first n - D symbols is wrong.  Per-trial
seeds are derived from the base seed by hashing, so trials are independent,
reproducible, and may run in any order or process.

Trials run in chunks of consecutive trial indices, the one unit of work,
serially or one chunk per task of a process pool.  A chunk draws each
trial's seed (one `derive_trial_seed` call per trial) and then every trial's
source at once: uniform i of a trial is the 53 high bits of
mix(k + (i + 1) * phi), with `codec._mix` and k the mixed trial seed, so a
trial's draws do not depend on its chunk, and `sample_source` is the
one-trial case.  It replays all its bins at once with `codec.replay_bins`, and
decodes them: ML and SI-ML with one vectorized argmax per chunk
(`codec.ml_first_errors`, point-to-point ML as its |Y| = 1 case), the
two-encoder universal decoder with one score pass per chunk
(`codec.sw_universal_first_errors`), the other decoders one trial at a time
on the trial's `CandidateSet`.  The chunk size
is `codec.chunk_trials`: a fixed lane budget over the closed-form mean bin
size, not an option; a parallel run caps it so that each worker gets at
least 8 chunks.  A chunk returns histograms of its completed trials' first
x, y and joint error positions, and the errors at delay D are the
cumulative count up to symbol n - D.  Every count is a sum over chunks, so
the counts do not depend on the chunk size or on `--threads`.  An aborted
trial is counted under the stream and step at which its bin overflowed.  A
chunk also sums each stream's final bin sizes (and their squares) over the
trials whose bin did not overflow, so the mean final bin size is a sum too.
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
    _GOLDEN,
    _M64,
    _PRF_BITS,
    _as_int,
    _first_divergence,
    _mix,
    chunk_trials,
    ml_first_errors,
    replay_bins,
    si_decode_universal,
    sw_ml_decode,
    sw_universal_first_errors,
    universal_decode,
)
# imported only for bench/trace_layers.py, which wraps them here; ROADMAP item 3 removes this
from .codec import (  # noqa: F401
    encode_step,
    initial_candidates,
    ml_decode,
    si_decode_ml,
    sw_universal_decode,
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
# a trial's sampling key is mix(seed ^ _SAMPLE_KEY), apart from every parity key
_SAMPLE_KEY = 0xB7E151628AED2A6A


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
    # stream id -> (bins, sum of sizes, sum of squared sizes) of the final
    # bins of the trials whose bin of that stream did not overflow
    bin_sizes: dict = field(default_factory=dict)

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


def _sample_rows(d: JointDistribution, n: int, seeds):
    """n iid draws from the joint per seed, as (x rows, y rows): two
    trials x n uint8 arrays.  A seed is taken mod 2^64."""
    _check_byte_alphabets(d)
    keys = _mix(np.array([s & _M64 for s in seeds], np.uint64) ^ _SAMPLE_KEY)
    steps = np.array([(i + 1) * _GOLDEN & _M64 for i in range(n)], np.uint64)
    u = (_mix(keys[:, None] + steps) >> 11) * 2.0 ** -53
    cum = np.cumsum(d.probs.ravel())
    cum[-1] = 1.0
    flat = np.searchsorted(cum, u, side="right")
    return (flat // d.alphabet_y).astype(np.uint8), (flat % d.alphabet_y).astype(np.uint8)


def sample_source(d: JointDistribution, n: int, seed: int):
    """n iid draws from the joint; returns (x-bytes, y-bytes), one symbol
    per byte: the one-trial case of a chunk's sampling."""
    x, y = _sample_rows(d, n, [seed])
    return x.tobytes(), y.tobytes()


def _bin_tally(bins, done):
    """(bins, sum of sizes, sum of squared sizes) of the final bins of the
    trials that `done` selects."""
    sizes = np.bincount(bins.trial, minlength=len(done))[done]
    return np.array([len(sizes), sizes.sum(), (sizes * sizes).sum()])


def _tally_chunk(cfg: TrialConfig, start: int, stop: int):
    """Trials start..stop-1: a 3 x (n + 2) array counting the completed ones
    by the position of their first x, y and joint error (column n + 1: no
    error), a Counter of the aborted ones by (stream id, step), and a dict
    of each stream's `_bin_tally`."""
    n = cfg.n
    seeds = [derive_trial_seed(cfg.base_seed, t) for t in range(start, stop)]
    x_rows, y_rows = _sample_rows(cfg.source, n, seeds)
    bins_x = replay_bins(seeds, x_rows, "x", cfg.schedule_x, cfg.source.alphabet_x,
                         cfg.candidate_cap)
    lost = [("x", int(j)) if j else None for j in bins_x.overflow]
    tally = {"x": _bin_tally(bins_x, bins_x.overflow == 0)}
    fx = np.full(len(seeds), n + 1)
    fy = np.full(len(seeds), n + 1)
    if cfg.decoder in _TWO_ENCODER:
        bins_y = replay_bins(seeds, y_rows, "y", cfg.schedule_y, cfg.source.alphabet_y,
                             cfg.candidate_cap, live=bins_x.overflow == 0)
        for i in np.flatnonzero(bins_y.overflow):
            lost[i] = ("y", int(bins_y.overflow[i]))
        tally["y"] = _bin_tally(bins_y, (bins_x.overflow == 0) & (bins_y.overflow == 0))
    if cfg.decoder in ("ml", "si_ml"):
        if cfg.decoder == "ml":  # the |Y| = 1 case: y = 0^n, the x-marginal
            probs, y_rows = cfg.source.marginal_x().reshape(-1, 1), np.zeros_like(x_rows)
        else:
            probs = cfg.source.probs
        fx = ml_first_errors(bins_x, x_rows, probs, y_rows)
    elif cfg.decoder == "sw_universal":
        fx, fy = sw_universal_first_errors(bins_x, bins_y, x_rows, y_rows)
    else:
        for i, (x, y) in enumerate(zip(map(bytes, x_rows), map(bytes, y_rows))):
            if lost[i]:
                continue
            cx = bins_x.candidate_set(i)
            if cfg.decoder == "sw_ml":
                x_hat, y_hat = sw_ml_decode(cx, bins_y.candidate_set(i), cfg.source,
                                            delay=0)
                fy[i] = _first_divergence(y_hat, y, n)
            elif cfg.decoder == "universal":
                x_hat = universal_decode(cx, delay=0)
            else:
                x_hat = si_decode_universal(cx, y, delay=0)
            fx[i] = _first_divergence(x_hat, x, n)
    done = np.array([where is None for where in lost], bool)
    first = np.stack([fx, fy, np.minimum(fx, fy)])[:, done]
    hist = np.stack([np.bincount(row, minlength=n + 2) for row in first])
    return hist, collections.Counter(filter(None, lost)), tally


def _run_chunk(cfg: TrialConfig, start: int, stop: int):
    """The error histogram and the aborts of `_tally_chunk`."""
    return _tally_chunk(cfg, start, stop)[:2]


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
            parts = list(pool.map(_tally_chunk, itertools.repeat(cfg), starts, stops))
    else:
        parts = list(map(_tally_chunk, itertools.repeat(cfg), starts, stops))
    hist = sum(h for h, _, _ in parts)
    aborted = sum((a for _, a, _ in parts), collections.Counter())
    bin_sizes = {stream: tuple(int(v) for v in sum(t[stream] for _, _, t in parts))
                 for stream in parts[0][2]}
    # an error at delay d is a first error in symbols 1..n-d; the nesting of
    # error events across delays is automatic
    ex, ey, ej = ({d: int(row[cfg.n - d]) for d in cfg.delays}
                  for row in np.cumsum(hist, axis=1))
    completed = cfg.trials - aborted.total()
    return DelayErrorStats(delays=cfg.delays, trials=completed,
                           errors_x=ex, errors_y=ey, errors_joint=ej,
                           aborted=cfg.trials - completed,
                           aborted_by_step=dict(sorted(aborted.items())),
                           bin_sizes=bin_sizes)


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
