"""Brute-force oracles that the test suite checks the production routes against.

Each one computes a quantity straight from its definition: the Gallager
log-sums, the exponents by simplex-grid minimization, by golden-section
search over rho and by the literal nested gamma x rho search, the
two-encoder decoders by scoring every pair of the bin product.  Most are
exponential in alphabet size or quadratic in bin size, so they live with the
tests and never on a production path.  The single-stream ML and universal
decoder oracles, point to point and with side information, and the
exhaustive bin, stay in `swstream.verify`, whose `oracle` suite runs them.
`ideal_bins` replays bins under an ideal hash, the model of the paper's
random-binning argument, with no PRF.
"""

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy import optimize

from swstream.codec import Bins
from swstream.exponents import (
    ExponentResult,
    RatePair,
    _check_unit,
    e_x_gamma,
    e_y_gamma,
    gallager_x_given_y,
    gallager_xy,
    gallager_y_given_x,
)
from swstream.info_core import (
    JointDistribution,
    entropy_of_counts,
)
from swstream.verify import _first_near_max, _log_likelihood


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a: float, b: float, tol: float = 1e-9):
    """Maximize a unimodal f on [a, b]; returns (x*, f(x*)).

    Endpoints are evaluated too, guarding flat or boundary-attained cases.
    """
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    candidates = [(f(xm), xm), (f(a), a), (f(b), b)]
    best = max(candidates, key=lambda t: t[0])
    return best[1], best[0]


def e_ml_pointwise(d: JointDistribution, rates: RatePair, gamma: float, rho: float):
    """The compound bracket at fixed (gamma, rho), for both stream roles."""
    _check_unit("gamma", gamma)
    _check_unit("rho", rho)
    exy = gallager_xy(d, rates, rho)
    ex = gamma * gallager_x_given_y(d, rates.rx, rho) + (1.0 - gamma) * exy
    ey = gamma * gallager_y_given_x(d, rates.ry, rho) + (1.0 - gamma) * exy
    return ex, ey


def e_x_gamma_golden(d: JointDistribution, rates: RatePair, gamma: float):
    """(rho*, value) of sup over rho in [0, 1] of the compound x bracket, by
    golden-section search on its values."""
    return _golden_max(lambda rho: e_ml_pointwise(d, rates, gamma, rho)[0], 0.0, 1.0)


# ---------------------------------------------------------------------------
# The Gallager log-sums from their definitions, with `math`, recomputed on
# every call: log p^{1/(1+rho)} row by row, then a log-sum-exp adding its
# terms left to right.  The production log-sums do the same operations in
# the same order, so they match bit for bit.
# ---------------------------------------------------------------------------


def _log_powered(d: JointDistribution, rho: float) -> list:
    """The rows of log p^{1/(1+rho)}, with zeros mapped to -inf."""
    return [[(math.log(v) if v > 0 else -math.inf) / (1.0 + rho) for v in row]
            for row in d.probs]


def _logsumexp(values) -> float:
    top = max(values)
    top = top if math.isfinite(top) else 0.0
    total = 0.0
    for v in values:
        total += math.exp(v - top)
    return math.log(total) + top if total > 0 else -math.inf


def log_sum_tilted_oracle(d: JointDistribution, rho: float) -> float:
    """log sum_{x,y} p(x,y)^{1/(1+rho)}."""
    return _logsumexp([v for row in _log_powered(d, float(rho)) for v in row])


def log_sum_xy_tilted_oracle(d: JointDistribution, rho: float) -> float:
    """log sum_y [ sum_x p(x,y)^{1/(1+rho)} ]^{1+rho}."""
    rho = float(rho)
    log_col = [_logsumexp(col) for col in zip(*_log_powered(d, rho))]  # log D(y)
    return _logsumexp([(1.0 + rho) * v for v in log_col])


# ---------------------------------------------------------------------------
# Simplex-grid oracles (exponential in alphabet size)
# ---------------------------------------------------------------------------


def _simplex_objective_terms(q_flat: np.ndarray, d: JointDistribution):
    """(D(q||p), H(q_{x|y})) for a flat dummy joint."""
    ax, ay = d.alphabet_x, d.alphabet_y
    q = np.clip(q_flat.reshape(ax, ay), 0.0, None)
    s = q.sum()
    if s <= 0:
        return math.inf, 0.0
    q = q / s
    p = np.array(d.probs)
    mask = q > 0
    if np.any(p[mask] == 0):
        return math.inf, 0.0
    h = float(-np.sum(q[mask] * np.log(q[mask])))
    dv = float(np.sum(q[mask] * (np.log(q[mask]) - np.log(p[mask]))))
    qy = q.sum(axis=0)
    hy = float(-np.sum(qy[qy > 0] * np.log(qy[qy > 0])))
    return dv, h - hy


def _polish(fun, x0: np.ndarray) -> float:
    """One SLSQP refinement of fun over the simplex, started at x0."""
    cons = [{"type": "eq", "fun": lambda q: q.sum() - 1.0}]
    try:
        res = optimize.minimize(
            fun,
            x0,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * x0.size,
            constraints=cons,
            options={"maxiter": 200, "ftol": 1e-12},
        )
    except (ValueError, RuntimeError):
        return math.inf
    if not np.all(np.isfinite(res.x)):
        return math.inf
    val = fun(res.x)
    return val if math.isfinite(val) else math.inf


def _oracle_step(cells: int) -> float:
    if cells <= 4:
        return 0.02
    if cells <= 6:
        return 0.05
    return 1.0 / 16.0


@lru_cache(maxsize=32)
def _compositions(cells: int, parts: int) -> np.ndarray:
    """All ways to split `parts` grid quanta over `cells` bins (stars & bars)."""
    bars = np.array(
        list(itertools.combinations(range(parts + cells - 1), cells - 1)), dtype=np.int64
    )
    padded = np.hstack(
        [
            np.full((bars.shape[0], 1), -1, dtype=np.int64),
            bars,
            np.full((bars.shape[0], 1), parts + cells - 1, dtype=np.int64),
        ]
    )
    out = np.diff(padded, axis=1) - 1
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _grid_entropies(ax: int, ay: int, parts: int):
    """Cached per-shape entropy tables over the joint simplex grid."""
    q = _compositions(ax * ay, parts).astype(np.float64) / parts
    with np.errstate(divide="ignore", invalid="ignore"):
        xlogx = np.where(q > 0, q * np.log(q), 0.0)
    h = -xlogx.sum(axis=1)
    q3 = q.reshape(-1, ax, ay)
    qy = q3.sum(axis=1)
    qx = q3.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        hy = -np.where(qy > 0, qy * np.log(qy), 0.0).sum(axis=1)
        hx = -np.where(qx > 0, qx * np.log(qx), 0.0).sum(axis=1)
    for arr in (q, h, hy, hx):
        arr.flags.writeable = False
    return q, h, hy, hx


def _grid_tables(d: JointDistribution, step: float):
    """(Q, D(q||p), H, H(x|y), H(y|x)) arrays over the grid for source d."""
    parts = round(1.0 / step)
    q, h, hy, hx = _grid_entropies(d.alphabet_x, d.alphabet_y, parts)
    p = np.ravel(d.probs)
    logp = np.log(p, out=np.full_like(p, -1e30), where=p > 0)
    cross = q @ logp
    div = np.where(cross < -1e20, np.inf, -h - cross)
    return q, div, h, h - hy, h - hx


def pp_universal_grid(d: JointDistribution, rx: float, step: float = 0.02) -> float:
    """Brute-force inf_q D(q||p) + |R - H(q)|^+ over the marginal simplex."""
    px = JointDistribution.from_marginal(d.marginal_x())
    _, div, h, _, _ = _grid_tables(px, step)
    return float(np.min(div + np.maximum(rx - h, 0.0)))


def si_universal_grid(d: JointDistribution, rx: float, step: float | None = None) -> float:
    """Brute-force inf over dummy joints of D + |R - H(x|y)|^+.

    For more than 4 cells the grid is too coarse to hit 1e-3 accuracy on its
    own, so the best grid point seeds one local refinement; the refinement
    works on the raw simplex and stays independent of the tilted route.
    """
    cells = d.alphabet_x * d.alphabet_y
    step = _oracle_step(cells) if step is None else step
    tables = _grid_tables(d, step)
    _, div, _, hxy, _ = tables
    vals = div + np.maximum(rx - hxy, 0.0)
    i = int(np.argmin(vals))
    best = float(vals[i])
    if cells > 4 and math.isfinite(best):

        def fun(q_flat):
            dv, h_cond = _simplex_objective_terms(q_flat, d)
            if not math.isfinite(dv):
                return math.inf
            return dv + max(rx - h_cond, 0.0)

        best = min(best, _polish(fun, tables[0][i].copy()))
    return best


def gamma_universal_grid(
    d: JointDistribution, rates: RatePair, gamma: float, step: float | None = None
) -> float:
    """Brute-force compound universal exponent over PAIRS of dummy joints.

    The pair objective couples only through the scalar inside |.|^+, so the
    quadratic pair enumeration reduces to two sweeps over the same grid: take
    the cheapest pair with nonpositive slack, and the cheapest linearized pair
    among those with nonnegative slack.
    """
    cells = d.alphabet_x * d.alphabet_y
    step = _oracle_step(cells) if step is None else step
    _, div, h, hxy, _ = _grid_tables(d, step)
    rg = rates.r_gamma(gamma)
    finite = np.isfinite(div)
    a = rg - gamma * hxy[finite]
    cost_a = gamma * div[finite]
    b = -(1.0 - gamma) * h[finite]
    cost_b = (1.0 - gamma) * div[finite]

    order = np.argsort(b)
    b_sorted = b[order]
    cost_b_sorted = cost_b[order]
    prefix_min = np.minimum.accumulate(cost_b_sorted)
    lin_sorted = cost_b_sorted + b_sorted
    suffix_min = np.minimum.accumulate(lin_sorted[::-1])[::-1]

    best = math.inf
    # slack a+b <= 0: pure divergence cost
    idx = np.searchsorted(b_sorted, -a, side="right") - 1
    ok = idx >= 0
    if np.any(ok):
        best = float(np.min(cost_a[ok] + prefix_min[idx[ok]]))
    # slack a+b >= 0: divergence plus the slack itself
    jdx = np.searchsorted(b_sorted, -a, side="left")
    ok = jdx < b_sorted.size
    if np.any(ok):
        best = min(best, float(np.min(cost_a[ok] + a[ok] + suffix_min[jdx[ok]])))
    return best


def block_lower_grid(d: JointDistribution, rates: RatePair, step: float = 0.01) -> float:
    """Raw-grid version of e_block_lower (no refinement), used as an oracle."""
    _, div, h, hxy, hyx = _grid_tables(d, step)
    margin = np.minimum(
        rates.rx + rates.ry - h, np.minimum(rates.rx - hxy, rates.ry - hyx)
    )
    return float(np.min(div + np.maximum(margin, 0.0)))


# ---------------------------------------------------------------------------
# The gamma-infima computed literally, as nested searches: a 1/64 gamma grid
# with golden refinement, and the full rho maximization of e_x_gamma at every
# gamma (checked against a golden rho search on its own).  This is the
# independent slow route that the minimax form of _sw_terms is tested
# against.  The scaled searches stop at gamma = 1 - 1e-6, so within about
# 1e-6 of the region boundary this route is the inexact one.
# ---------------------------------------------------------------------------

_GAMMA_COARSE = 1.0 / 64.0
_GAMMA_CAP = 1.0 - 1e-6


def _gamma_inf(f, cap: float = 1.0):
    """Minimize f over gamma in [0, cap]: coarse 1/64 grid + golden refinement."""
    grid = [i * _GAMMA_COARSE for i in range(65)]
    grid = [g for g in grid if g <= cap]
    if grid[-1] < cap:
        grid.append(cap)
    vals = [f(g) for g in grid]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    g_star, neg = _golden_max(lambda g: -f(g), lo, hi, tol=1e-7)
    if -neg <= vals[i]:
        return g_star, -neg
    return grid[i], vals[i]


def _nested_sw_terms(d: JointDistribution, rates: RatePair):
    """The four gamma-infima behind the streaming exponents, shared by all of
    e_sw_x / e_sw_y / e_sw_xy."""
    res_x: dict[float, ExponentResult] = {}
    res_y: dict[float, ExponentResult] = {}

    def ex(g):
        r = res_x.get(g)
        if r is None:
            r = res_x[g] = e_x_gamma(d, rates, g)
        return r.value

    def ey(g):
        r = res_y.get(g)
        if r is None:
            r = res_y[g] = e_y_gamma(d, rates, g)
        return r.value

    gx, vx = _gamma_inf(ex)
    gy, vy = _gamma_inf(ey)
    # scaled terms diverge at gamma -> 1 strictly inside the region, so the
    # search stops just short of 1
    gys, vys = _gamma_inf(lambda g: ey(g) / (1.0 - g), cap=_GAMMA_CAP)
    gxs, vxs = _gamma_inf(lambda g: ex(g) / (1.0 - g), cap=_GAMMA_CAP)
    return {
        "inf_ex": (gx, vx, e_x_gamma(d, rates, gx).rho_star),
        "inf_ey": (gy, vy, e_y_gamma(d, rates, gy).rho_star),
        "inf_ey_scaled": (gys, vys, e_y_gamma(d, rates, gys).rho_star),
        "inf_ex_scaled": (gxs, vxs, e_x_gamma(d, rates, gxs).rho_star),
    }


# ---------------------------------------------------------------------------
# The two-encoder decoders built directly from their definitions (the
# single-stream ML and universal oracles, with and without side information,
# live in swstream.verify).
# ---------------------------------------------------------------------------


def _oracle_sw_ml(xs, ys, probs, n, delay):
    """The two-encoder ML decision: the smallest pair (x, y) of the bin
    product xs x ys of largest joint likelihood under probs[a, b], each
    truncated to n - delay."""
    pairs = itertools.product(xs, ys)
    x, y = _first_near_max(pairs, lambda pair: _log_likelihood(*pair, probs), n)
    return x[: n - delay], y[: n - delay]


def _type_entropy(*windows):
    """Entropy of the joint type of equal-length windows, counted by hand;
    one window gives its plain type."""
    counts = {}
    for symbol in zip(*windows, strict=True):
        counts[symbol] = counts.get(symbol, 0) + 1
    return entropy_of_counts(counts.values(), len(windows[0]))


def _oracle_wse(x, y, l, k, n):
    """The weighted suffix entropy of the pair (x, y) at the cell (l, k),
    from the definition: H(x|y) = H(x,y) - H(y) over the window where only
    x is disputed, then the joint entropy over the window where both are
    (the streams swap roles when l > k)."""
    if l > k:
        x, y, l, k = y, x, k, l
    if l == k:
        return 0.0 if l == n + 1 else _type_entropy(x[l - 1 :], y[l - 1 :])
    xs, ys = x[l - 1 : k - 1], y[l - 1 : k - 1]
    span = n + 1 - l
    out = ((k - l) / span) * (_type_entropy(xs, ys) - _type_entropy(ys))
    if k <= n:
        out += ((n + 1 - k) / span) * _type_entropy(x[k - 1 :], y[k - 1 :])
    return out


def _oracle_scores(pair, members_x, members_y, n):
    """Marked-cell scores recomputed straight from the definition."""
    x_bar, y_bar = pair

    def div(a, b):
        for i in range(n):
            if a[i] != b[i]:
                return i + 1
        return n + 1

    i_x = i_y = n + 1
    for x_t in members_x:
        for y_t in members_y:
            l, k = div(x_t, x_bar), div(y_t, y_bar)
            if l == n + 1 and k == n + 1:
                continue
            if _oracle_wse(x_t, y_t, l, k, n) <= _oracle_wse(x_bar, y_bar, l, k, n):
                i_x = min(i_x, l - 1)
                i_y = min(i_y, k - 1)
    return i_x, i_y


def _oracle_winners(members_x, members_y, n, delay):
    """Two-encoder universal winners: every pair scored by _oracle_scores,
    then the maximal score, lexicographically smallest on ties."""
    best_ix, best_iy = {}, {}
    for xb in members_x:
        for yb in members_y:
            ix, iy = _oracle_scores((xb, yb), members_x, members_y, n)
            best_ix[xb] = max(best_ix.get(xb, -1), ix)
            best_iy[yb] = max(best_iy.get(yb, -1), iy)
    want_x = min(c for c, v in best_ix.items() if v == max(best_ix.values()))
    want_y = min(c for c, v in best_iy.items() if v == max(best_iy.values()))
    return want_x[: n - delay], want_y[: n - delay]


# ---------------------------------------------------------------------------
# Bins under an ideal hash: the PRF's oracle.
# ---------------------------------------------------------------------------


def ideal_bins(rng, seqs, schedule, alphabet):
    """The full-horizon bins of the rows of seqs (trials x n symbols) under
    an ideal hash.  At step j every child of a bin member survives with
    probability 2^-b_j, independently, drawn from the numpy Generator rng;
    the trial's true prefix always survives.  Children stay in
    parent-then-symbol order, so each trial's lanes are contiguous and in
    lexicographic order, as `codec.replay_bins` leaves them.  No bin
    overflows."""
    seqs = np.asarray(seqs, np.uint8)
    trials, n = seqs.shape
    trial = np.arange(trials)
    true = np.ones(trials, bool)
    prefixes = np.zeros((trials, 0), np.uint8)
    for j in range(n):
        parent = np.repeat(np.arange(len(trial)), alphabet)
        symbol = np.tile(np.arange(alphabet, dtype=np.uint8), len(trial))
        is_true = true[parent] & (symbol == seqs[trial[parent], j])
        keep = is_true | (rng.random(len(parent)) < 0.5 ** schedule.bits_at(j + 1))
        parent, symbol = parent[keep], symbol[keep]
        prefixes = np.column_stack((prefixes[parent], symbol))
        trial, true = trial[parent], is_true[keep]
    return Bins(trial=trial, prefixes=prefixes, overflow=np.zeros(trials, np.int64))
