"""Probability and information primitives for finite joint sources.

Everything downstream (exponent formulas, decoders, simulations) works on a
finite joint pmf over X x Y.  A point-to-point source is the degenerate case
|Y| = 1.  All logarithms are natural; entropies and divergences are in nats.

The Gallager log-sums are memoized: each is evaluated once per table layout
and rho, and the memo is cleared when it holds `_MEMO_SIZE` of them.  The key
holds the table's bytes, shape and strides, because a full numpy reduction
adds in memory order: the same table stored C- and F-ordered (`swapped()`
keeps the transpose F-ordered) can differ in the last bit.

Every empirical entropy is computed here, by one engine, as
`entropy_of_counts` adds its terms: left to right, in ascending count
order.  The counts of a window are a difference of cumulative count rows,
one column per symbol, and a joint type counts the zipped pairs (a, b).
The engine (`_entropies_of`) sorts a batch of window counts by a network of
minima and maxima and looks each term up in a table of the floats
`entropy_of_counts` adds.  Its count step (`_window_counts`) takes an array
of lanes once and returns the entropies of any windows (lane, lo, hi) at
once; where every count vector of a window fits a small table, the rows are
cumulative keys whose digits are the counts, and the engine's values are
read off its table of every count vector (`_keyed_entropies`).  The
universal decoders read each lane's suffix windows.  The weighted suffix
entropy of a pair lane at a cell (`_weighted_entropies`) combines three of
its windows; the two-encoder score pass takes it at the cells where a pair
has rivals, and `weighted_suffix_entropy` at one cell of one pair.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Sequence

import numpy as np

__all__ = [
    "JointDistribution",
    "entropy",
    "conditional_entropy_x_given_y",
    "conditional_entropy_y_given_x",
    "kl_divergence",
    "tilted",
    "xy_tilted",
    "log_sum_tilted",
    "log_sum_xy_tilted",
    "entropy_of_counts",
    "weighted_suffix_entropy",
]

_SUM_TOL = 1e-12
# count vectors whose entropies the engine tabulates once, rather than
# sorting each window's counts (see `_window_counts`): (n + 1) ** columns of
# them, 8 bytes each, so the joint counts of binary pairs up to n = 21
_KEYED = 2 ** 18


def _as_int(value) -> int:
    """value as an int: an integer (numpy's too) or an integral float such as
    1e4; a bool, a string or a float that is not integral (16.5, nan) is
    rejected."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class JointDistribution:
    """Finite joint pmf over an |X| x |Y| alphabet.

    probs is row-major: probs[x][y].  Entries must be nonnegative and sum to
    one within 1e-12; the constructor then renormalizes so that downstream
    optimizers never see drift, and leaves a table that already sums to one
    up to rounding as it is, so `from_json(to_json())` is exact.
    """

    alphabet_x: int
    alphabet_y: int
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if p.shape != (self.alphabet_x, self.alphabet_y):
            raise ValueError(
                f"probs shape {p.shape} does not match "
                f"({self.alphabet_x}, {self.alphabet_y})"
            )
        if self.alphabet_x < 2 or self.alphabet_y < 1:
            raise ValueError("need |X| >= 2 and |Y| >= 1")
        if not np.all(np.isfinite(p)):
            raise ValueError("non-finite probability entry")
        if np.any(p < 0):
            raise ValueError("negative probability entry")
        total = p.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        # dividing by a sum that is 1 up to rounding is not idempotent: it
        # can move the sum to the other side of 1 on every reload, so only
        # a sum off by more than the rounding of the division is divided out
        if abs(total - 1.0) > p.size * np.finfo(float).eps:
            p = p / total
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def from_matrix(cls, probs) -> "JointDistribution":
        p = np.asarray(probs, dtype=float)
        return cls(alphabet_x=p.shape[0], alphabet_y=p.shape[1], probs=p)

    @classmethod
    def from_marginal(cls, px) -> "JointDistribution":
        """Point-to-point source: a marginal pmf wrapped as |Y| = 1."""
        px = np.asarray(px, dtype=float)
        return cls.from_matrix(px.reshape(-1, 1))

    def marginal_x(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def marginal_y(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def swapped(self) -> "JointDistribution":
        """The same source with the roles of x and y exchanged."""
        return JointDistribution.from_matrix(self.probs.T)

    def is_point_to_point(self) -> bool:
        return self.alphabet_y == 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "alphabet_x": self.alphabet_x,
                "alphabet_y": self.alphabet_y,
                "probs": [list(row) for row in self.probs],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "JointDistribution":
        obj = json.loads(text)
        return cls(
            alphabet_x=_as_int(obj["alphabet_x"]),
            alphabet_y=_as_int(obj["alphabet_y"]),
            probs=np.asarray(obj["probs"], dtype=float),
        )


def _xlogx(p: np.ndarray) -> np.ndarray:
    # 0 log 0 = 0 by continuity
    out = np.zeros_like(p)
    mask = p > 0
    out[mask] = p[mask] * np.log(p[mask])
    return out


def entropy(d: JointDistribution) -> float:
    """Shannon entropy of the full joint, in nats."""
    return float(-_xlogx(d.probs).sum())


def _entropy_vec(p: np.ndarray) -> float:
    return float(-_xlogx(np.asarray(p, dtype=float)).sum())


def conditional_entropy_x_given_y(d: JointDistribution) -> float:
    """H(x|y) = H(x,y) - H(y)."""
    return entropy(d) - _entropy_vec(d.marginal_y())


def conditional_entropy_y_given_x(d: JointDistribution) -> float:
    return entropy(d) - _entropy_vec(d.marginal_x())


def kl_divergence(q: JointDistribution, p: JointDistribution) -> float:
    """D(q || p) in nats; +inf when q puts mass where p has none."""
    if q.probs.shape != p.probs.shape:
        raise ValueError("alphabet mismatch")
    qf, pf = q.probs.ravel(), p.probs.ravel()
    mask = qf > 0
    if np.any(pf[mask] == 0):
        return math.inf
    return float(np.sum(qf[mask] * (np.log(qf[mask]) - np.log(pf[mask]))))


def _check_rho(rho: float) -> None:
    if rho <= -1:
        raise ValueError(f"rho must be > -1, got {rho}")


def _log_p(p: np.ndarray) -> np.ndarray:
    """log p with zeros mapped to -inf; dividing it by 1 + rho works in log
    space, so rho near -1 (huge exponents) cannot underflow."""
    with np.errstate(divide="ignore"):
        return np.log(p)


def _logsumexp(a: np.ndarray, axis=None):
    """log sum exp(a) over `axis` (all of `a` when None), the maximum shifted
    out; a maximum that is not finite (an all-zero column) shifts by 0."""
    m = a.max(axis=axis)
    if axis is None:
        m = m if math.isfinite(m) else 0.0
    else:
        m = np.where(np.isfinite(m), m, 0.0)
    return np.log(np.exp(a - m).sum(axis=axis)) + m


_MEMO_SIZE = 1 << 15  # log-sums held before the memo is cleared
_memo: dict = {}  # (layout, bracket) -> (log p, {rho: log-sum})
_memo_size = 0


def _clear_memo() -> None:
    global _memo_size
    _memo.clear()
    _memo_size = 0


def _log_sum(d: JointDistribution, rho: float, column: bool) -> float:
    """log sum_{x,y} p^{1/(1+rho)}, or with `column` the E_{x|y} log-sum,
    evaluated once per table layout and rho (module docstring)."""
    global _memo_size
    _check_rho(rho)
    p = d.probs
    layout = (p.tobytes(), p.shape, p.strides, column)
    entry = _memo.get(layout)
    if entry is not None:
        value = entry[1].get(rho)
        if value is not None:
            return value
    if _memo_size >= _MEMO_SIZE:
        _clear_memo()
        entry = None
    if entry is None:
        entry = _memo[layout] = (_log_p(p), {})
    logp, sums = entry
    a = logp / (1.0 + rho)
    if column:
        a = (1.0 + rho) * _logsumexp(a, axis=0)  # log D(y)^{1+rho}
    value = sums[rho] = float(_logsumexp(a))
    _memo_size += 1
    return value


def log_sum_tilted(d: JointDistribution, rho: float) -> float:
    """log sum_{x,y} p(x,y)^{1/(1+rho)}."""
    return _log_sum(d, rho, False)


def log_sum_xy_tilted(d: JointDistribution, rho: float) -> float:
    """log sum_y [ sum_x p(x,y)^{1/(1+rho)} ]^{1+rho}."""
    return _log_sum(d, rho, True)


def tilted(p: JointDistribution, rho: float) -> JointDistribution:
    """Exponentially tilted joint: p(x,y)^{1/(1+rho)}, renormalized."""
    _check_rho(rho)
    logp = _log_p(p.probs) / (1.0 + rho)
    logz = _logsumexp(logp)
    probs = np.exp(logp - logz)
    probs[p.probs == 0] = 0.0
    probs /= probs.sum()
    return JointDistribution.from_matrix(probs)


def xy_tilted(p: JointDistribution, rho: float) -> JointDistribution:
    """Column-wise tilt with a tilted y-marginal.

    The y-marginal of the result is A(y)/B and the conditional on each
    column is C(x,y)/D(y), where C = p^{1/(1+rho)}, D(y) = sum_x C,
    A(y) = D(y)^{1+rho}, B = sum_y A.
    """
    _check_rho(rho)
    logc = _log_p(p.probs) / (1.0 + rho)
    logd = _logsumexp(logc, axis=0)          # per-column normalizer
    loga = (1.0 + rho) * logd
    logb = _logsumexp(loga)
    with np.errstate(invalid="ignore"):
        logq = (loga - logb) + (logc - logd)
    probs = np.exp(logq)
    probs[p.probs == 0] = 0.0
    # all-zero y columns contribute nothing
    probs[:, np.asarray(p.marginal_y()) == 0] = 0.0
    probs /= probs.sum()
    return JointDistribution.from_matrix(probs)


# ---------------------------------------------------------------------------
# Empirical entropies
# ---------------------------------------------------------------------------


def entropy_of_counts(counts, total: int) -> float:
    """Entropy of a type given raw counts.

    The terms are added left to right in ascending count order, so that
    permuted types produce the bit-identical float, which keeps
    tie-breaking deterministic.  The loop fixes that order: from Python
    3.12, sum() of floats compensates its rounding and can differ.
    """
    h = 0.0
    for c in sorted(c for c in counts if c > 0):
        h += (c / total) * math.log(total / c)
    return float(h)


@functools.lru_cache(maxsize=32)
def _lane_tables(n: int) -> SimpleNamespace:
    """The tables of the lane entropies of horizon n, built on first use and
    shared read-only.  terms: at t * (n + 1) + c, the term (c / t) log(t / c)
    of a count c among t symbols, 0.0 for c = 0; w1 and w2: per cell (l, k),
    row-major, the weights of its two windows (see `_weighted_entropies`)."""
    terms = np.zeros((n + 1) ** 2)
    for t in range(1, n + 1):
        for c in range(1, t + 1):
            terms[t * (n + 1) + c] = (c / t) * math.log(t / c)
    weights = []
    for l in range(1, n + 2):
        for k in range(1, n + 2):
            a, b = min(l, k), max(l, k)
            span = n + 1 - a
            # the diagonal, (n + 1, n + 1) too, is the joint suffix alone
            weights.append((0.0, 1.0) if l == k else ((b - a) / span, (n + 1 - b) / span))
    w1, w2 = np.array(weights).T
    tables = dict(terms=terms, w1=w1, w2=w2)
    for table in tables.values():
        table.flags.writeable = False
    return SimpleNamespace(**tables)


def _entropies_of(counts, total, n: int) -> np.ndarray:
    """The entropy engine: the empirical entropy of each window of a
    length-n lane whose counts, one row per column, are counts[:, ...],
    among total symbols (broadcast).  Each value is the float
    `entropy_of_counts` gives, 0.0 for no symbols.  It sorts counts in
    place."""
    columns = len(counts)
    # ascending counts in every window: an odd-even transposition network
    for r in range(columns):
        for c in range(r % 2, columns - 1, 2):
            low = np.minimum(counts[c], counts[c + 1])
            np.maximum(counts[c], counts[c + 1], out=counts[c + 1])
            counts[c] = low
    # added left to right from 0.0, as entropy_of_counts adds them; a zero
    # count adds an exact 0.0
    terms = _lane_tables(n).terms
    row = np.asarray(total) * (n + 1)
    h = np.zeros(counts.shape[1:])
    index = np.empty(h.shape, np.intp)
    term = np.empty(h.shape)
    for column in counts:
        np.take(terms, np.add(row, column, out=index), out=term)
        h += term
    return h


@functools.lru_cache(maxsize=32)
def _keyed_entropies(n: int, columns: int) -> np.ndarray:
    """[key]: the entropy engine's value for the window counts that are the
    base-(n + 1) digits of key, column c's the c-th, for every key below
    (n + 1) ** columns (those whose digits add up to more than n are never
    read)."""
    side = n + 1
    digits = np.indices((side,) * columns, np.min_scalar_type(n))[::-1]
    digits = digits.reshape(columns, side ** columns)
    table = _entropies_of(digits, np.minimum(digits.sum(axis=0, dtype=np.intp), n), n)
    table.flags.writeable = False
    return table


def _window_counts(lanes):
    """The count step of the entropy engine on lanes, rows of nonnegative
    integer symbols.  Returns entropies_at(lane, lo, hi): the entropy
    engine's values for the windows [lo, hi) of the lanes, at the broadcast
    of the index arrays.  A window's counts are differences of cumulative
    count rows, with one column per distinct symbol, in ascending order;
    past n symbols, a column per rank of a symbol within its own lane, so
    at most n columns.  When the count vectors fit `_KEYED` keys, the rows
    are one cumulative key per lane and position, whose base-(n + 1)
    digits are the counts, and a window's entropy is read off the engine's
    table of every count vector (`_keyed_entropies`)."""
    lanes = np.asarray(lanes)
    count, n = lanes.shape
    side = n + 1
    present = np.bincount(lanes.ravel(), minlength=1) > 0
    rank = (np.cumsum(present) - 1)[lanes]
    if present.sum() > n:
        order = np.argsort(rank, axis=1)
        ordered = np.take_along_axis(rank, order, axis=1)
        new = np.ones(lanes.shape, bool)
        new[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        np.put_along_axis(rank, order, np.cumsum(new, axis=1) - 1, axis=1)
    columns = int(rank.max(initial=-1)) + 1
    if side ** columns <= _KEYED:
        key = np.zeros((count, side), np.int64)
        np.cumsum((side ** np.arange(columns))[rank], axis=1, out=key[:, 1:])
        key = key.ravel()
        table = _keyed_entropies(n, columns)
        return lambda lane, lo, hi: table[key[np.multiply(lane, side) + hi]
                                          - key[np.multiply(lane, side) + lo]]
    rows = np.zeros((columns, count, side), np.min_scalar_type(n))
    np.cumsum(rank == np.arange(columns)[:, None, None], axis=2,
              dtype=rows.dtype, out=rows[:, :, 1:])
    rows = rows.reshape(columns, count * side)
    return lambda lane, lo, hi: _entropies_of(
        rows[:, np.multiply(lane, side) + hi] - rows[:, np.multiply(lane, side) + lo],
        np.subtract(hi, lo), n)


def _weighted_entropies(joint, streams, n: int, lane, other, l, k) -> np.ndarray:
    """The weighted suffix entropies of pair lanes of horizon n at cells
    (l, k), at the broadcast of the index arrays: joint reads the entropies
    of the pairs' joint symbols (`_window_counts`), lane the pair's lane
    there; streams those of their x and y lanes, other the lane there of
    the stream that is not disputed on the first window (the y lane when
    l < k, else the x lane; either on the diagonal).  With a = min(l, k)
    and b = max(l, k) these are the operations of the definition, in its
    order: the joint entropy of [a - 1, b - 1) less other's, times w1, plus
    the joint entropy of [b - 1, n) times w2.  The first window is empty on
    the diagonal and the second past the end, which adds an exact 0.0 times
    its weight."""
    t = _lane_tables(n)
    a, b = np.minimum(l, k) - 1, np.maximum(l, k) - 1
    cell = (np.asarray(l) - 1) * (n + 1) + k - 1
    h = joint(lane, a, b)
    h -= streams(other, a, b)
    h *= t.w1[cell]
    second = joint(lane, b, n)
    second *= t.w2[cell]
    h += second
    return h


def weighted_suffix_entropy(x: Sequence, y: Sequence, l: int, k: int, n: int) -> float:
    """The weighted suffix entropy of the pair (x, y), sequences of n
    nonnegative integer symbols, at the cell (l, k), 1 <= l, k <= n + 1: the
    one-cell case of `_weighted_entropies`.

    l and k are the 1-based positions where a rival pair first diverges in x
    and in y; l = n+1 (resp. k = n+1) means no divergence in that stream.
    The value mixes a conditional entropy over the window where only one
    stream is disputed with a joint entropy over the window where both are.
    """
    if len(x) != n or len(y) != n:
        raise ValueError("sequences must have length n")
    if not (1 <= l <= n + 1 and 1 <= k <= n + 1):
        raise ValueError(f"indices l={l}, k={k} out of [1, {n + 1}]")
    x = np.array(list(x), np.int64).reshape(1, n)
    y = np.array(list(y), np.int64).reshape(1, n)
    joint = x * (int(y.max(initial=0)) + 1) + y
    # one-element index arrays, as the engine's count step takes them: lane 0
    # of the joint lanes, and lane 1 (y) or 0 (x) of the stream lanes
    lane, other, l, k = (np.array([i]) for i in (0, int(l < k), l, k))
    h = _weighted_entropies(_window_counts(joint), _window_counts(np.r_[x, y]), n, lane,
                            other, l, k)
    return float(h[0])
