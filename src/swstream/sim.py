"""Monte Carlo error-versus-delay harness.

Each trial draws an iid source realization, encodes it causally, replays the
decoder-side candidate sets, decodes once at full horizon, and scores an
error at delay D whenever any of the first n - D symbols is wrong.  Trial
t's seed is `codec._chain(k, t)` = mix(k + (t + 1) * phi), k the key word
(`codec._stream_word`) of "trial:<base seed>": a counter-based generator
(Salmon et al., SC 2011), so a seed is a function of (base seed, t) alone,
and trials are independent, reproducible, and may run in any order or
process.  `TrialConfig.from_json` and `to_json` define the trial config file.

Trials run in chunks of consecutive trial indices, the one unit of work,
serially or one chunk per task of a process pool.  A chunk derives all its
trials' seeds in one uint64 pass (`derive_trial_seed` is the one-trial
case) and then draws every trial's source at once: uniform i of a trial is
the 53 high bits of `_chain(k', i)`, with k' = mix(seed ^ a sampling
constant), so a trial's draws do not depend on its chunk, and
`sample_source` is the one-trial case.  It replays the bin of each stream in
`TrialConfig.streams` with one `codec.replay_bins` call, y only where x did
not overflow, and decodes them all with one `codec.first_errors` call, whose
decoder table picks the kernel; it runs no Python loop over its trials.  The
chunk size (`TrialConfig.chunk_size`) is `codec.chunk_trials` over the
stream list: the chunk lane budget over the closed-form mean bin size, not
an option; a parallel run, with at most one worker per CPU, caps it so
that each worker gets at least 8 chunks.  A chunk returns three count
arrays: a histogram of its completed trials' first x, y and joint error
positions, its aborts by stream and step, and each stream's (bins, sum of
sizes, sum of squared sizes) over the final bins of the trials whose bin did
not overflow.  The errors at delay D are the cumulative count up to symbol
n - D.  A run merges its chunks by one elementwise sum, so its counts do not
depend on the chunk size or on `--threads`, and reports them in the layout
of the `simulate` manifest (`DelayErrorStats`).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

from .codec import (
    DEFAULT_CANDIDATE_CAP,
    BinningSchedule,
    _TABLE,
    DECODERS,
    _as_int,
    _chain,
    _mix,
    _seed_words,
    _stream_word,
    chunk_trials,
    expected_bin_size,
    first_errors,
    replay_bins,
)
# imported only for bench/trace_layers.py, which wraps them here; ROADMAP item 3 removes this
from .codec import (  # noqa: F401
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

# loaded after `codec` compiles: without bytecode caches, compiling it on
# top of numpy raised a `simulate` job's peak RSS by about 0.6 MB
import numpy as np

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

# a trial's sampling key is mix(seed ^ _SAMPLE_KEY), apart from every stream key
_SAMPLE_KEY = 0xB7E151628AED2A6A
# the decoders are exact but exponential-time by design, meant for
# desk-scale horizons; the two-encoder decoders' bin products grow
# exponentially in n at rates near the joint entropy
MAX_HORIZON_SINGLE = 24
MAX_HORIZON_TWO_ENCODER = 12


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
        two = len(self.streams) == 2
        cap = MAX_HORIZON_TWO_ENCODER if two else MAX_HORIZON_SINGLE
        if self.n > cap:
            raise ValueError(
                f"horizon {self.n} exceeds the exact-decoder bound {cap} "
                f"for decoder {self.decoder!r}"
            )
        if two and self.schedule_y is None:
            raise ValueError("two-encoder decoding needs schedule_y")
        _check_byte_alphabets(self.source)
        if _TABLE[self.decoder].y != "zero" and self.source.alphabet_y < 2:
            raise ValueError(f"decoder {self.decoder!r} needs |Y| >= 2")
        object.__setattr__(self, "delays", tuple(sorted(self.delays)))

    @property
    def streams(self) -> tuple:
        """(stream id, alphabet, schedule) of each stream the decoder bins:
        x, then y for the two-encoder decoders."""
        x = ("x", self.source.alphabet_x, self.schedule_x)
        if _TABLE[self.decoder].y != "binned":  # y is known or 0^n
            return (x,)
        return x, ("y", self.source.alphabet_y, self.schedule_y)

    @property
    def chunk_size(self) -> int:
        """Trials per chunk: `codec.chunk_trials` over the streams."""
        return chunk_trials(self.n, [stream[1:] for stream in self.streams])

    @classmethod
    def from_json(cls, text: str, base_seed=None) -> "TrialConfig":
        """A trial config file's config, with `base_seed`, if given, in place
        of the file's; keys not named here are ignored."""
        obj = json.loads(text)
        return cls(
            source=JointDistribution.from_json(json.dumps(obj["source"])),
            schedule_x=BinningSchedule(tuple(obj["schedule_x"])),
            schedule_y=(BinningSchedule(tuple(obj["schedule_y"]))
                        if obj.get("schedule_y") else None),
            n=obj["n"],
            delays=tuple(obj["delays"]),
            trials=obj["trials"],
            base_seed=obj["base_seed"] if base_seed is None else base_seed,
            decoder=str(obj["decoder"]),
        )

    def to_json(self) -> str:
        """The trial config file: every field but `candidate_cap`."""
        return json.dumps({
            "source": json.loads(self.source.to_json()),
            "schedule_x": list(self.schedule_x.pattern),
            "schedule_y": list(self.schedule_y.pattern) if self.schedule_y else None,
            "n": self.n,
            "delays": list(self.delays),
            "trials": self.trials,
            "base_seed": self.base_seed,
            "decoder": self.decoder,
        })


@dataclass
class DelayErrorStats:
    delays: tuple
    trials: int
    errors_x: dict
    errors_y: dict
    errors_joint: dict
    aborted: int = 0
    # stream id -> {step: trials whose bin of that stream overflowed there},
    # over the streams and steps with aborts
    aborted_by_step: dict = field(default_factory=dict)
    # stream id -> {"bins", "mean", "stderr", "expected"}: how many trials'
    # bins of that stream did not overflow, their mean final size and its
    # standard error (None below 1 and 2 bins), and `expected_bin_size(n)`
    final_bin_size: dict = field(default_factory=dict)

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


def _trial_seeds(base_seed: int, index):
    """The seeds of trials `index`, a Python int or elementwise a uint64
    array: the chain step from k by symbol `index`, k the key word of the
    stream id "trial:<base seed>"."""
    return _chain(_stream_word(f"trial:{base_seed}"), index)


def derive_trial_seed(base_seed: int, trial_index: int) -> int:
    """Stable per-trial seed, a function of (base seed, trial index) alone:
    the one-trial case of a chunk's seeds."""
    return _trial_seeds(base_seed, int(trial_index))


def _sample_rows(d: JointDistribution, n: int, seeds):
    """n iid draws from the joint per seed, as (x rows, y rows): two
    trials x n uint8 arrays.  A seed is taken mod 2^64."""
    _check_byte_alphabets(d)
    keys = _mix(_seed_words(seeds) ^ _SAMPLE_KEY)
    u = (_chain(keys[:, None], np.arange(n, dtype=np.uint64)) >> 11) * 2.0 ** -53
    probs = np.array(d.probs).ravel()
    cum = np.cumsum(probs)
    # 1 from the last positive cell on: no uniform lands on a zero cell past it
    cum[np.flatnonzero(probs)[-1]:] = 1.0
    flat = np.searchsorted(cum, u, side="right")
    # each joint symbol's x and y, looked up rather than divided
    x_of, y_of = np.indices((d.alphabet_x, d.alphabet_y), np.uint8).reshape(2, -1)
    return np.take(x_of, flat), np.take(y_of, flat)


def sample_source(d: JointDistribution, n: int, seed: int):
    """n iid draws from the joint; returns (x-bytes, y-bytes), one symbol
    per byte: the one-trial case of a chunk's sampling."""
    x, y = _sample_rows(d, n, [seed])
    return x.tobytes(), y.tobytes()


def _tally_chunk(cfg: TrialConfig, start: int, stop: int):
    """Trials start..stop-1, as three count arrays: a 3 x (n + 2) histogram
    of the completed ones by the position of their first x, y and joint
    error (column n + 1: no error); the aborted ones by stream (a row per
    `cfg.streams` entry) and step (column j - 1: step j); and per stream
    (bins, sum of sizes, sum of squared sizes) over the final bins of the
    trials whose bins of that stream and those before it did not overflow."""
    n = cfg.n
    seeds = _trial_seeds(cfg.base_seed, np.arange(start, stop, dtype=np.uint64))
    rows = dict(zip("xy", _sample_rows(cfg.source, n, seeds)))
    done = np.ones(stop - start, bool)
    bins, aborts, sizes = {}, [], []
    # a stream is replayed only where the ones before it did not overflow,
    # so each aborted trial is counted once
    for stream, alphabet, schedule in cfg.streams:
        b = bins[stream] = replay_bins(seeds, rows[stream], stream, schedule, alphabet,
                                       cfg.candidate_cap, live=done)
        aborts.append(np.bincount(b.overflow, minlength=n + 1)[1:])
        done &= b.overflow == 0
        size = np.bincount(b.trial, minlength=len(done))[done]
        sizes.append((len(size), size.sum(), (size * size).sum()))
    fx, fy = first_errors(cfg.decoder, cfg.source, bins["x"], bins.get("y"),
                          rows["x"], rows["y"])
    first = np.stack([fx, fy, np.minimum(fx, fy)])[:, done]
    hist = np.stack([np.bincount(row, minlength=n + 2) for row in first])
    return hist, np.array(aborts), np.array(sizes)


def run_trials(cfg: TrialConfig, threads: int = 1) -> DelayErrorStats:
    """Run all trials in chunks and aggregate per-delay error counts.

    The merge is a plain sum of counts, so the result is independent of
    thread count and chunking.  A pool has at most one worker per CPU.
    """
    size = cfg.chunk_size
    workers = min(threads, os.cpu_count() or 1)
    parallel = workers > 1 and cfg.trials >= 64
    if parallel:
        size = min(size, -(-cfg.trials // (8 * workers)))
    starts = range(0, cfg.trials, size)
    stops = [min(a + size, cfg.trials) for a in starts]
    if parallel:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_tally_chunk, itertools.repeat(cfg), starts, stops))
    else:
        parts = list(map(_tally_chunk, itertools.repeat(cfg), starts, stops))
    hist, aborts, sizes = map(sum, zip(*parts))
    # an error at delay d is a first error in symbols 1..n-d; the nesting of
    # error events across delays is automatic
    ex, ey, ej = ({d: int(row[cfg.n - d]) for d in cfg.delays}
                  for row in np.cumsum(hist, axis=1))
    by_step, final = {}, {}
    for (stream, alphabet, schedule), row, (bins, total, squares) in zip(
            cfg.streams, aborts.tolist(), sizes.tolist()):
        if any(row):
            by_step[stream] = {j: c for j, c in enumerate(row, 1) if c}
        spread = bins * squares - total * total  # bins^2 times the variance
        final[stream] = {
            "bins": bins,
            "mean": total / bins if bins else None,
            "stderr": math.sqrt(spread / (bins - 1)) / bins if bins > 1 else None,
            "expected": expected_bin_size(cfg.n, alphabet, schedule),
        }
    aborted = int(aborts.sum())
    return DelayErrorStats(delays=cfg.delays, trials=cfg.trials - aborted,
                           errors_x=ex, errors_y=ey, errors_joint=ej, aborted=aborted,
                           aborted_by_step=by_step, final_bin_size=final)


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
