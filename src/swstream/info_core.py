"""Probability and information primitives for finite joint sources.

Everything downstream (exponent formulas, decoders, simulations) works on a
finite joint pmf over X x Y.  A point-to-point source is the degenerate case
|Y| = 1.  All logarithms are natural; entropies and divergences are in nats.

Every empirical entropy is computed here: the counts of a window are a
difference of cumulative count rows (`_count_rows`), a joint type counts the
zipped pairs (a, b), and `weighted_suffix_entropy` is the one-pair case of
the `suffix_entropies` table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    "suffix_entropies",
    "weighted_suffix_entropy",
]

_SUM_TOL = 1e-12


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
            alphabet_x=int(obj["alphabet_x"]),
            alphabet_y=int(obj["alphabet_y"]),
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


def _log_powered(p: np.ndarray, rho: float) -> np.ndarray:
    """log of p^{1/(1+rho)} with zeros mapped to -inf.

    Worked in log space so that rho near -1 (huge exponents) cannot
    underflow.
    """
    with np.errstate(divide="ignore"):
        return np.log(p) / (1.0 + rho)


def _logsumexp(a: np.ndarray, axis=None):
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    out = np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def log_sum_tilted(d: JointDistribution, rho: float) -> float:
    """log sum_{x,y} p(x,y)^{1/(1+rho)}."""
    _check_rho(rho)
    return float(_logsumexp(_log_powered(d.probs, rho)))


def log_sum_xy_tilted(d: JointDistribution, rho: float) -> float:
    """log sum_y [ sum_x p(x,y)^{1/(1+rho)} ]^{1+rho}."""
    _check_rho(rho)
    log_col = _logsumexp(_log_powered(d.probs, rho), axis=0)  # log D(y)
    return float(_logsumexp((1.0 + rho) * log_col))


def tilted(p: JointDistribution, rho: float) -> JointDistribution:
    """Exponentially tilted joint: p(x,y)^{1/(1+rho)}, renormalized."""
    _check_rho(rho)
    logp = _log_powered(p.probs, rho)
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
    logc = _log_powered(p.probs, rho)
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

    Counts are sorted before summing so that permuted types produce the
    bit-identical float, which keeps tie-breaking deterministic.
    """
    vals = sorted(c for c in counts if c > 0)
    return float(sum((c / total) * math.log(total / c) for c in vals))


def _count_rows(seq):
    """rows[t] counts each distinct symbol of seq over seq[:t], so the counts
    of a window are a difference of rows."""
    index = {v: m for m, v in enumerate(set(seq))}
    row = [0] * len(index)
    rows = [tuple(row)]
    for v in seq:
        row[index[v]] += 1
        rows.append(tuple(row))
    return rows


def _window_entropy(rows, lo: int, hi: int) -> float:
    """Empirical entropy of seq[lo:hi] from the count rows of seq."""
    return entropy_of_counts([b - a for a, b in zip(rows[lo], rows[hi])], hi - lo)


def suffix_entropies(xs, ys, n: int):
    """wse(i, j, l, k): the weighted empirical entropy of the disputed
    suffixes of the pair (xs[i], ys[j]) of length-n sequences, memoized.

    l and k are the 1-based positions where a rival pair first diverges in x
    and in y; l = n+1 (resp. k = n+1) means no divergence in that stream.
    The value mixes a conditional entropy over the window where only one
    stream is disputed with a joint entropy over the window where both are.
    """
    rows_x = [_count_rows(x) for x in xs]
    rows_y = [_count_rows(y) for y in ys]
    rows_xy = [[_count_rows(tuple(zip(x, y))) for y in ys] for x in xs]
    memo = {}

    def wse(i, j, l, k):
        key = (i, j, l, k)
        value = memo.get(key)
        if value is None:
            joint = rows_xy[i][j]
            if l == k:
                value = 0.0 if l == n + 1 else _window_entropy(joint, l - 1, n)
            else:
                # H(disputed | other) over [min, max - 1], joint H after it
                # (the joint type's entropy is symmetric in the streams)
                if l < k:
                    other = rows_y[j]
                else:
                    other = rows_x[i]
                    l, k = k, l
                span = n + 1 - l
                value = ((k - l) / span) * (_window_entropy(joint, l - 1, k - 1)
                                            - _window_entropy(other, l - 1, k - 1))
                if k <= n:
                    value += ((n + 1 - k) / span) * _window_entropy(joint, k - 1, n)
            memo[key] = value
        return value

    return wse


def weighted_suffix_entropy(x: Sequence, y: Sequence, l: int, k: int, n: int) -> float:
    """The weighted suffix entropy of one pair at the cell (l, k): the
    one-pair case of `suffix_entropies`."""
    if len(x) != n or len(y) != n:
        raise ValueError("sequences must have length n")
    if not (1 <= l <= n + 1 and 1 <= k <= n + 1):
        raise ValueError(f"indices l={l}, k={k} out of [1, {n + 1}]")
    return suffix_entropies([x], [y], n)(0, 0, l, k)
