"""Probability and information primitives for finite joint sources.

Everything downstream (exponent formulas, decoders, simulations) works on a
finite joint pmf over X x Y.  A point-to-point source is the degenerate case
|Y| = 1.  All logarithms are natural; entropies and divergences are in nats.

The module is plain Python on `math`, so the exponent commands never load
numpy.  A pmf is a tuple of row tuples; the lane modules (`codec`, `sim`,
`verify`) take `np.array(d.probs)`.  Every sum here runs over the entries
row by row, left to right, one term at a time (`_total`; from Python 3.12
`sum()` of floats compensates its rounding), so equal rows give equal floats
however the table was built: a transpose and its JSON reload agree.

log p is computed once per distribution (`_log_probs`).  In one pass over
a = log p/(1+rho), `_log_sum` returns a Gallager log-sum L = logsumexp(a) and
its tilt's entropy H(p^rho) = L - sum q*a, q = e^(a-L) (per column, weighted
by the tilted y-marginal, for H(bar p^rho_{x|y})), with no memo.

`entropy_of_counts` defines every empirical entropy: its terms added left
to right in ascending count order.  The decoders' lane entropy engine
(`codec._window_counts`) reproduces its floats.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import sys

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
    "EXAMPLE_1",
    "EXAMPLE_2",
]

_SUM_TOL = 1e-12


def _as_int(value) -> int:
    """value as an int: an integer (numpy's too) or an integral float such as
    1e4; a bool, a string or a float that is not integral (16.5, nan) is
    rejected."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _total(values) -> float:
    """values added left to right from 0.0, one at a time."""
    total = 0.0
    for v in values:
        total += v
    return total


_flat = itertools.chain.from_iterable


class _Frozen:
    """An immutable value, compared, hashed and shown by its `_fields` in
    that order, as a frozen dataclass is (`repr` leaves out `_unshown`).
    Written out because `dataclasses` took about 10 ms of each exponent
    command's start-up, with the `inspect` that it loads, and 5-6 ms of
    `simulate`'s, with its generated methods (2-core VM, numpy loaded)."""

    _fields = ()
    _unshown = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields
                 if f not in self._unshown)
        return f"{self.__class__.__qualname__}({', '.join(shown)})"


class JointDistribution(_Frozen):
    """Finite joint pmf over an |X| x |Y| alphabet.

    probs is a tuple of |X| row tuples: probs[x][y].  Entries must be
    nonnegative and sum to one within 1e-12; the constructor then
    renormalizes so that downstream optimizers never see drift, and leaves a
    table that already sums to one up to rounding as it is, so
    `from_json(to_json())` is exact.
    """

    _fields = ("alphabet_x", "alphabet_y", "probs")
    _unshown = ("probs",)

    def __init__(self, alphabet_x: int, alphabet_y: int, probs):
        try:
            p = tuple(tuple(float(v) for v in row) for row in probs)
        except TypeError as e:
            raise ValueError(f"probs is not a table of numbers: {e}") from e
        if len(p) != alphabet_x or any(len(row) != alphabet_y for row in p):
            raise ValueError(f"probs is not a {alphabet_x} x {alphabet_y} table")
        if alphabet_x < 2 or alphabet_y < 1:
            raise ValueError("need |X| >= 2 and |Y| >= 1")
        entries = list(_flat(p))
        if not all(map(math.isfinite, entries)):
            raise ValueError("non-finite probability entry")
        if any(v < 0 for v in entries):
            raise ValueError("negative probability entry")
        total = _total(entries)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        # dividing by a sum that is 1 up to rounding is not idempotent: it
        # can move the sum to the other side of 1 on every reload, so only
        # a sum off by more than the rounding of the division is divided out
        if abs(total - 1.0) > len(entries) * sys.float_info.epsilon:
            p = tuple(tuple(v / total for v in row) for row in p)
        vars(self).update(alphabet_x=alphabet_x, alphabet_y=alphabet_y, probs=p)

    @functools.cached_property
    def _log_probs(self) -> tuple:
        """log p, row by row, with zeros mapped to -inf: dividing it by
        1 + rho works in log space, so rho near -1 (huge exponents) cannot
        underflow."""
        return tuple(tuple(math.log(v) if v > 0 else -math.inf for v in row)
                     for row in self.probs)

    @classmethod
    def from_matrix(cls, probs) -> "JointDistribution":
        rows = tuple(map(tuple, probs))
        return cls(alphabet_x=len(rows), alphabet_y=len(rows[0]) if rows else 0, probs=rows)

    @classmethod
    def from_marginal(cls, px) -> "JointDistribution":
        """Point-to-point source: a marginal pmf wrapped as |Y| = 1."""
        return cls.from_matrix([(v,) for v in px])

    def marginal_x(self) -> tuple:
        return tuple(_total(row) for row in self.probs)

    def marginal_y(self) -> tuple:
        return tuple(_total(column) for column in zip(*self.probs))

    def swapped(self) -> "JointDistribution":
        """The same source with the roles of x and y exchanged."""
        return JointDistribution.from_matrix(zip(*self.probs))

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
            probs=obj["probs"],
        )


def _xlogx(p: float) -> float:
    # 0 log 0 = 0 by continuity
    return p * math.log(p) if p > 0 else 0.0


def _entropy_vec(p) -> float:
    return -_total(map(_xlogx, p))


def entropy(d: JointDistribution) -> float:
    """Shannon entropy of the full joint, in nats."""
    return _entropy_vec(_flat(d.probs))


def conditional_entropy_x_given_y(d: JointDistribution) -> float:
    """H(x|y) = H(x,y) - H(y)."""
    return entropy(d) - _entropy_vec(d.marginal_y())


def conditional_entropy_y_given_x(d: JointDistribution) -> float:
    return entropy(d) - _entropy_vec(d.marginal_x())


def kl_divergence(q: JointDistribution, p: JointDistribution) -> float:
    """D(q || p) in nats; +inf when q puts mass where p has none."""
    if (q.alphabet_x, q.alphabet_y) != (p.alphabet_x, p.alphabet_y):
        raise ValueError("alphabet mismatch")
    terms = []
    for qv, log_q, log_p in zip(_flat(q.probs), _flat(q._log_probs), _flat(p._log_probs)):
        if qv > 0:
            if log_p == -math.inf:
                return math.inf
            terms.append(qv * (log_q - log_p))
    return _total(terms)


def _check_rho(rho) -> float:
    if rho <= -1:
        raise ValueError(f"rho must be > -1, got {rho}")
    return float(rho)


def _tilt(values) -> tuple:
    """(log sum exp(values), entropy of the pmf proportional to exp(values))
    in one pass, the maximum shifted out; a maximum that is not finite (an
    all-zero column) shifts by 0, and a zero sum gives (-inf, 0.0)."""
    m = max(values)
    if not math.isfinite(m):
        m = 0.0
    s = u = 0.0
    for v in values:
        e = math.exp(v - m)
        s += e
        if e > 0.0:
            u += e * (v - m)
    if s <= 0.0:
        return -math.inf, 0.0
    return math.log(s) + m, math.log(s) - u / s


def _powered(d: JointDistribution, rho: float) -> list:
    """log p^{1/(1+rho)}, row by row."""
    return [[v / (1.0 + rho) for v in row] for row in d._log_probs]


def _log_sum(d: JointDistribution, rho: float, column: bool) -> tuple:
    """(log sum_{x,y} p^{1/(1+rho)}, H(p^rho)), or with `column` the E_{x|y}
    log-sum log sum_y D(y)^{1+rho} and H(bar p^rho_{x|y}): the entropies of
    the columns of the tilt, weighted by e^((1+rho) log D(y) - log B)."""
    rho = _check_rho(rho)
    a = _powered(d, rho)
    if not column:
        return _tilt(list(_flat(a)))
    cols = [_tilt(col) for col in zip(*a)]  # (log D(y), H of column y)
    la = [(1.0 + rho) * ld for ld, _ in cols]
    lb = _tilt(la)[0]
    return lb, _total(math.exp(v - lb) * h for v, (_, h) in zip(la, cols))


def log_sum_tilted(d: JointDistribution, rho: float) -> float:
    """log sum_{x,y} p(x,y)^{1/(1+rho)}."""
    return _log_sum(d, rho, False)[0]


def log_sum_xy_tilted(d: JointDistribution, rho: float) -> float:
    """log sum_y [ sum_x p(x,y)^{1/(1+rho)} ]^{1+rho}."""
    return _log_sum(d, rho, True)[0]


def _normalized(d: JointDistribution, rows) -> JointDistribution:
    """A table of d's shape from nonnegative rows, divided by their sum."""
    s = _total(_flat(rows))
    return JointDistribution(d.alphabet_x, d.alphabet_y,
                             tuple(tuple(v / s for v in row) for row in rows))


def tilted(p: JointDistribution, rho: float) -> JointDistribution:
    """Exponentially tilted joint: p(x,y)^{1/(1+rho)}, renormalized."""
    logp = _powered(p, _check_rho(rho))
    logz = _tilt(list(_flat(logp)))[0]
    return _normalized(p, [[math.exp(v - logz) for v in row] for row in logp])


def xy_tilted(p: JointDistribution, rho: float) -> JointDistribution:
    """Column-wise tilt with a tilted y-marginal.

    The y-marginal of the result is A(y)/B and the conditional on each
    column is C(x,y)/D(y), where C = p^{1/(1+rho)}, D(y) = sum_x C,
    A(y) = D(y)^{1+rho}, B = sum_y A.  Zero entries, and so all-zero
    columns, stay zero.
    """
    rho = _check_rho(rho)
    logc = _powered(p, rho)
    logd = [_tilt(col)[0] for col in zip(*logc)]  # per-column normalizer
    loga = [(1.0 + rho) * v for v in logd]
    logb = _tilt(loga)[0]
    return _normalized(p, [
        [math.exp((la - logb) + (lc - ld)) if pv > 0 else 0.0
         for pv, lc, la, ld in zip(prow, crow, loga, logd)]
        for prow, crow in zip(p.probs, logc)
    ])


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


# the paper's worked sources: example 1 is symmetric, example 2 skewed
EXAMPLE_1 = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])
EXAMPLE_2 = JointDistribution.from_matrix([[0.1, 0.05], [0.05, 0.8]])
