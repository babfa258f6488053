"""Error exponents for streaming random binning, in nats per symbol of delay.

The module computes every exponent two ways where the theory predicts
equality: maximum-likelihood forms as 1-D concave suprema over the Gallager
tilt parameter rho, and universal (divergence-minimization) forms through the
tilted-family parametrization of their KKT conditions.  Raw simplex-grid
minimizers live here too, but only as oracles for the test suite -- they are
exponential in alphabet size and are never the production path.

The streaming Slepian-Wolf exponents are gamma-infima of rho-suprema of
gamma*A + (1-gamma)*B, with A = E_{x|y} and B = E_xy.  The bracket is concave
in rho and affine in gamma, so by Sion's minimax theorem each is one 1-D search:

    inf_gamma sup_rho [gamma*A + (1-gamma)*B]           = sup_rho min(A, B)
    inf_gamma sup_rho [gamma*A + (1-gamma)*B]/(1-gamma) = max of B on [0, rho0]

with rho0 the positive root of A, or 1 if A(1) >= 0.  gamma* follows from the
slopes A' = Rx - H(bar p^rho_{x|y}) and B' = Rx + Ry - H(p^rho) at rho*.
Unscaled, it is 1 if A < B there, 0 if B < A, and B'/(B' - A') at a crossing.
Scaled, it is 0 unless B still rises at rho* = rho0; then t = B'/(-A') and
gamma* = t/(1+t).  The y terms swap x and y, so A becomes E_{y|x}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize

from .info_core import (
    JointDistribution,
    conditional_entropy_x_given_y,
    conditional_entropy_y_given_x,
    entropy,
    kl_divergence,
    log_sum_tilted,
    log_sum_xy_tilted,
    tilted,
    xy_tilted,
)

__all__ = [
    "RatePair",
    "ExponentResult",
    "gallager_xy",
    "gallager_x_given_y",
    "gallager_y_given_x",
    "e_ml_pointwise",
    "e_x_gamma",
    "e_y_gamma",
    "e_un_x_gamma",
    "e_un_y_gamma",
    "e_sw_x",
    "e_sw_y",
    "e_sw_xy",
    "e_block_sw_x",
    "e_block_sw_y",
    "e_block_lower",
    "e_block_upper",
    "e_ml_pp",
    "e_un_pp",
    "e_ml_si",
    "e_un_si",
    "pp_universal_grid",
    "si_universal_grid",
    "gamma_universal_grid",
    "block_lower_grid",
    "curve_row",
    "CURVE_HEADER",
]

_RHO_TOL = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class RatePair:
    """Encoding rates in nats per symbol; ry = 0 for point-to-point."""

    rx: float
    ry: float = 0.0

    def __post_init__(self):
        if self.rx < 0 or self.ry < 0:
            raise ValueError("rates must be nonnegative")

    def r_gamma(self, gamma: float) -> float:
        """gamma*Rx + (1-gamma)*(Rx+Ry), the rate seen by the x error event."""
        return self.rx + (1.0 - gamma) * self.ry

    def achievable(self, d: JointDistribution) -> bool:
        if d.is_point_to_point():
            return self.rx > entropy(d)
        return (
            self.rx > conditional_entropy_x_given_y(d)
            and self.ry > conditional_entropy_y_given_x(d)
            and self.rx + self.ry > entropy(d)
        )


@dataclass(frozen=True)
class ExponentResult:
    """An optimized exponent plus the optimizer that attained it."""

    value: float
    rho_star: float
    gamma_star: float | None = None
    branch: str = ""
    in_region: bool = True


def _golden_max(f, a: float, b: float, tol: float = _RHO_TOL):
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


def _check_unit(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


# ---------------------------------------------------------------------------
# Gallager brackets (fixed rho)
# ---------------------------------------------------------------------------


def gallager_xy(d: JointDistribution, rates: RatePair, rho: float) -> float:
    """rho*(Rx+Ry) - (1+rho) * log sum p^{1/(1+rho)}."""
    _check_unit("rho", rho)
    return rho * (rates.rx + rates.ry) - (1.0 + rho) * log_sum_tilted(d, rho)


def gallager_x_given_y(d: JointDistribution, rx: float, rho: float) -> float:
    """rho*Rx - log sum_y [sum_x p^{1/(1+rho)}]^{1+rho}."""
    _check_unit("rho", rho)
    return rho * rx - log_sum_xy_tilted(d, rho)


def gallager_y_given_x(d: JointDistribution, ry: float, rho: float) -> float:
    return gallager_x_given_y(d.swapped(), ry, rho)


def e_ml_pointwise(d: JointDistribution, rates: RatePair, gamma: float, rho: float):
    """The compound bracket at fixed (gamma, rho), for both stream roles."""
    _check_unit("gamma", gamma)
    _check_unit("rho", rho)
    exy = gallager_xy(d, rates, rho)
    ex = gamma * gallager_x_given_y(d, rates.rx, rho) + (1.0 - gamma) * exy
    ey = gamma * gallager_y_given_x(d, rates.ry, rho) + (1.0 - gamma) * exy
    return ex, ey


# ---------------------------------------------------------------------------
# gamma-compound exponents: ML route (rho-supremum)
# ---------------------------------------------------------------------------


def e_x_gamma(d: JointDistribution, rates: RatePair, gamma: float) -> ExponentResult:
    """sup_rho of gamma*E_{x|y} + (1-gamma)*E_xy; concave in rho."""
    _check_unit("gamma", gamma)

    def obj(rho):
        exy = rho * (rates.rx + rates.ry) - (1.0 + rho) * log_sum_tilted(d, rho)
        if gamma == 0.0:
            return exy
        exgy = rho * rates.rx - log_sum_xy_tilted(d, rho)
        return gamma * exgy + (1.0 - gamma) * exy

    rho, val = _golden_max(obj, 0.0, 1.0)
    return ExponentResult(value=max(val, 0.0), rho_star=rho, gamma_star=gamma)


def e_y_gamma(d: JointDistribution, rates: RatePair, gamma: float) -> ExponentResult:
    return e_x_gamma(d.swapped(), RatePair(rates.ry, rates.rx), gamma)


# ---------------------------------------------------------------------------
# gamma-compound exponents: universal route (tilted-family KKT parametrization)
# ---------------------------------------------------------------------------


def _tilted_stats(d: JointDistribution, rho: float):
    """(conditional entropy, divergence) for the x-y tilt and the plain tilt."""
    bar = xy_tilted(d, rho).distribution
    plain = tilted(d, rho).distribution
    return (
        conditional_entropy_x_given_y(bar),
        kl_divergence(bar, d),
        entropy(plain),
        kl_divergence(plain, d),
    )


def e_un_x_gamma(d: JointDistribution, rates: RatePair, gamma: float) -> ExponentResult:
    """Divergence-minimization form of the compound x exponent.

    The minimizing dummy distributions are members of the tilted families, so
    the whole simplex search collapses to a 1-D root-find in rho: find rho
    with gamma*H(bar p^rho_{x|y}) + (1-gamma)*H(p^rho) equal to the compound
    rate, clipping at the endpoints rho = 0 and rho = 1.
    """
    _check_unit("gamma", gamma)
    rg = rates.r_gamma(gamma)

    def mixed_entropy(rho):
        hbar, _, h, _ = _tilted_stats(d, rho)
        return gamma * hbar + (1.0 - gamma) * h

    h0 = gamma * conditional_entropy_x_given_y(d) + (1.0 - gamma) * entropy(d)
    if rg <= h0:
        # on or outside the boundary for this error event
        return ExponentResult(0.0, 0.0, gamma_star=gamma, in_region=(rg >= h0))
    h1 = mixed_entropy(1.0)
    if rg >= h1:
        hbar, dbar, h, dv = _tilted_stats(d, 1.0)
        value = gamma * dbar + (1.0 - gamma) * dv + (rg - h1)
        return ExponentResult(value, 1.0, gamma_star=gamma)
    rho = optimize.brentq(lambda r: mixed_entropy(r) - rg, 0.0, 1.0, xtol=1e-13)
    hbar, dbar, h, dv = _tilted_stats(d, rho)
    return ExponentResult(gamma * dbar + (1.0 - gamma) * dv, rho, gamma_star=gamma)


def e_un_y_gamma(d: JointDistribution, rates: RatePair, gamma: float) -> ExponentResult:
    return e_un_x_gamma(d.swapped(), RatePair(rates.ry, rates.rx), gamma)


# ---------------------------------------------------------------------------
# Streaming Slepian-Wolf exponents (gamma-infima) and block baselines
# ---------------------------------------------------------------------------


def _slopes(d: JointDistribution, rates: RatePair, rho: float):
    """(E_{x|y}'(rho), E_xy'(rho)) in closed form from the tilted families."""
    hbar, _, h, _ = _tilted_stats(d, rho)
    return rates.rx - hbar, rates.rx + rates.ry - h


def _inf_unscaled(d: JointDistribution, rates: RatePair):
    """(gamma*, value, rho*) of sup_rho min(E_{x|y}, E_xy)."""

    def brackets(rho):
        return gallager_x_given_y(d, rates.rx, rho), gallager_xy(d, rates, rho)

    rho, value = _golden_max(lambda r: min(brackets(r)), 0.0, 1.0)
    a, b = brackets(rho)
    da, db = _slopes(d, rates, rho)
    # a crossing within the search tolerance, or one bracket below the other
    if abs(a - b) < 2.0 * _RHO_TOL * abs(db - da):
        return min(max(db / (db - da), 0.0), 1.0), value, rho
    return (1.0 if a < b else 0.0), value, rho


def _inf_scaled(d: JointDistribution, rates: RatePair):
    """(gamma*, value, rho*) of max E_xy on [0, rho0], rho0 the root of E_{x|y}."""
    rho0 = 1.0
    if gallager_x_given_y(d, rates.rx, 1.0) < 0.0:
        # E_{x|y}(rho)/rho falls from E_{x|y}'(0) = Rx - H(x|y) > 0 to its root
        slope0 = rates.rx - conditional_entropy_x_given_y(d)
        rho0 = optimize.brentq(
            lambda r: gallager_x_given_y(d, rates.rx, r) / r if r > 0.0 else slope0,
            0.0, 1.0, xtol=1e-13,
        )
        da, db = _slopes(d, rates, rho0)
        if db > 0.0:  # the constraint binds; its multiplier is gamma*/(1-gamma*)
            t = db / -da
            return t / (1.0 + t), gallager_xy(d, rates, rho0), rho0
    rho, value = _golden_max(lambda r: gallager_xy(d, rates, r), 0.0, rho0)
    return 0.0, value, rho


def _sw_terms(d: JointDistribution, rates: RatePair):
    """The four gamma-infima behind e_sw_x / e_sw_y / e_sw_xy, as
    (gamma*, value, rho*) triples, each one 1-D search (module docstring):

        inf_ex        = sup_rho min(E_{x|y}, E_xy)
        inf_ex_scaled = max of E_xy on [0, rho0], rho0 the root of E_{x|y}

    gamma* is 1 or 0 where E_{x|y} or E_xy alone is the minimum at rho*,
    E_xy'/(E_xy' - E_{x|y}') at their crossing, and t/(1+t) with
    t = E_xy'/(-E_{x|y}') when a scaled maximum sits at rho0.  The y terms
    are the same on the swapped source: E_{x|y} becomes E_{y|x}.
    """
    ds, rs = d.swapped(), RatePair(rates.ry, rates.rx)
    return {
        "inf_ex": _inf_unscaled(d, rates),
        "inf_ey": _inf_unscaled(ds, rs),
        "inf_ey_scaled": _inf_scaled(ds, rs),
        "inf_ex_scaled": _inf_scaled(d, rates),
    }


def _outside(rates: RatePair, d: JointDistribution) -> ExponentResult | None:
    if not rates.achievable(d):
        return ExponentResult(0.0, 0.0, gamma_star=None, branch="outside", in_region=False)
    return None


def _pick_min(a, b, name_a: str, name_b: str) -> ExponentResult:
    (ga, va, ra), (gb, vb, rb) = a, b
    if va <= vb:
        return ExponentResult(max(va, 0.0), ra, gamma_star=ga, branch=name_a)
    return ExponentResult(max(vb, 0.0), rb, gamma_star=gb, branch=name_b)


def _sw_exponents(d: JointDistribution, rates: RatePair):
    """(e_sw_x, e_sw_y, e_sw_xy) from one set of gamma-infima."""
    out = _outside(rates, d)
    if out is not None:
        return out, out, out
    t = _sw_terms(d, rates)
    return (
        _pick_min(t["inf_ex"], t["inf_ey_scaled"], "x", "y_scaled"),
        _pick_min(t["inf_ey"], t["inf_ex_scaled"], "y", "x_scaled"),
        _pick_min(t["inf_ex"], t["inf_ey"], "x", "y"),
    )


def e_sw_x(d: JointDistribution, rates: RatePair) -> ExponentResult:
    """Streaming exponent for stream x: min of the gamma-infimum of E_x and
    the gamma-infimum of E_y/(1-gamma)."""
    return _sw_exponents(d, rates)[0]


def e_sw_y(d: JointDistribution, rates: RatePair) -> ExponentResult:
    return _sw_exponents(d, rates)[1]


def e_sw_xy(d: JointDistribution, rates: RatePair) -> ExponentResult:
    return _sw_exponents(d, rates)[2]


def e_block_sw_x(d: JointDistribution, rates: RatePair) -> ExponentResult:
    """Block-coding baseline: min of the gamma = 0 and gamma = 1 endpoints."""
    out = _outside(rates, d)
    if out is not None:
        return out
    r0 = e_x_gamma(d, rates, 0.0)
    r1 = e_x_gamma(d, rates, 1.0)
    return _pick_min(
        (0.0, r0.value, r0.rho_star), (1.0, r1.value, r1.rho_star), "gamma0", "gamma1"
    )


def e_block_sw_y(d: JointDistribution, rates: RatePair) -> ExponentResult:
    return e_block_sw_x(d.swapped(), RatePair(rates.ry, rates.rx))


# ---------------------------------------------------------------------------
# Point-to-point and side-information exponents
# ---------------------------------------------------------------------------


def e_ml_pp(d: JointDistribution, rx: float) -> ExponentResult:
    """sup_rho [rho*R - (1+rho) log sum p^{1/(1+rho)}] for a |Y| = 1 source."""
    rates = RatePair(rx, 0.0)
    rho, val = _golden_max(lambda r: gallager_xy(d, rates, r), 0.0, 1.0)
    in_region = rx > entropy(d)
    return ExponentResult(max(val, 0.0), rho, in_region=in_region)


def e_un_pp(d: JointDistribution, rx: float) -> ExponentResult:
    """inf_q D(q||p) + |R - H(q)|^+ via the tilted-family parametrization."""
    h0 = entropy(d)
    if rx <= h0:
        return ExponentResult(0.0, 0.0, in_region=False)
    p1 = tilted(d, 1.0).distribution
    h1 = entropy(p1)
    if rx >= h1:
        return ExponentResult(kl_divergence(p1, d) + rx - h1, 1.0)
    rho = optimize.brentq(
        lambda r: entropy(tilted(d, r).distribution) - rx, 0.0, 1.0, xtol=1e-13
    )
    q = tilted(d, rho).distribution
    return ExponentResult(kl_divergence(q, d), rho)


def e_ml_si(d: JointDistribution, rx: float) -> ExponentResult:
    """sup_rho of the side-information bracket E_{x|y}."""
    if d.alphabet_y < 2:
        raise ValueError("side-information exponent needs |Y| >= 2")
    rho, val = _golden_max(lambda r: gallager_x_given_y(d, rx, r), 0.0, 1.0)
    return ExponentResult(max(val, 0.0), rho, in_region=rx > conditional_entropy_x_given_y(d))


def e_un_si(d: JointDistribution, rx: float) -> ExponentResult:
    """inf_q D(q||p) + |R - H(q_{x|y})|^+ via the x-y tilted family."""
    if d.alphabet_y < 2:
        raise ValueError("side-information exponent needs |Y| >= 2")
    h0 = conditional_entropy_x_given_y(d)
    if rx <= h0:
        return ExponentResult(0.0, 0.0, in_region=False)
    q1 = xy_tilted(d, 1.0).distribution
    h1 = conditional_entropy_x_given_y(q1)
    if rx >= h1:
        return ExponentResult(kl_divergence(q1, d) + rx - h1, 1.0)
    rho = optimize.brentq(
        lambda r: conditional_entropy_x_given_y(xy_tilted(d, r).distribution) - rx,
        0.0,
        1.0,
        xtol=1e-13,
    )
    q = xy_tilted(d, rho).distribution
    return ExponentResult(kl_divergence(q, d), rho)


# ---------------------------------------------------------------------------
# Block bounds over dummy joint distributions
# ---------------------------------------------------------------------------


def _simplex_objective_terms(q_flat: np.ndarray, d: JointDistribution):
    """(D(q||p), H(q), H(q_{x|y}), H(q_{y|x})) for a flat dummy joint."""
    ax, ay = d.alphabet_x, d.alphabet_y
    q = np.clip(q_flat.reshape(ax, ay), 0.0, None)
    s = q.sum()
    if s <= 0:
        return math.inf, 0.0, 0.0, 0.0
    q = q / s
    p = d.probs
    mask = q > 0
    if np.any(p[mask] == 0):
        return math.inf, 0.0, 0.0, 0.0
    h = float(-np.sum(q[mask] * np.log(q[mask])))
    dv = float(np.sum(q[mask] * (np.log(q[mask]) - np.log(p[mask]))))
    qy = q.sum(axis=0)
    qx = q.sum(axis=1)
    hy = float(-np.sum(qy[qy > 0] * np.log(qy[qy > 0])))
    hx = float(-np.sum(qx[qx > 0] * np.log(qx[qx > 0])))
    return dv, h, h - hy, h - hx


def _block_objective(q_flat, d, rates: RatePair) -> float:
    dv, h, hxy, hyx = _simplex_objective_terms(q_flat, d)
    if not math.isfinite(dv):
        return math.inf
    margin = min(rates.rx + rates.ry - h, rates.rx - hxy, rates.ry - hyx)
    return dv + max(margin, 0.0)


def _polish(fun, x0: np.ndarray, constraints=()) -> float:
    cons = [{"type": "eq", "fun": lambda q: q.sum() - 1.0}]
    cons.extend(constraints)
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


def e_block_lower(d: JointDistribution, rates: RatePair) -> float:
    """Achievability-side block exponent: simplex minimization of
    D(q||p) + |min(rate margins)|^+ by grid plus local refinement."""
    cells = d.alphabet_x * d.alphabet_y
    step = _oracle_step(cells)
    grid_val, q0 = _grid_min(d, lambda t: _block_margin_vec(t, rates), step)
    fun = lambda q: _block_objective(q, d, rates)
    polished = _polish(fun, q0)
    return min(grid_val, polished)


def e_block_upper(d: JointDistribution, rates: RatePair) -> float:
    """Converse-side block exponent: cheapest dummy joint under which the
    rate pair falls outside its achievable region."""
    cells = d.alphabet_x * d.alphabet_y
    step = _oracle_step(cells)
    terms = []
    # (index into _simplex_objective_terms, threshold) per violated constraint
    for which, threshold in ((2, rates.rx), (3, rates.ry), (1, rates.rx + rates.ry)):

        def div(q_flat, w=which):
            return _simplex_objective_terms(q_flat, d)[0]

        def slack(q_flat, w=which, t=threshold):
            return _simplex_objective_terms(q_flat, d)[w] - t

        grid_val, q0 = _grid_min(
            d, lambda t, w=which, th=threshold: _constrained_div_vec(t, w, th), step
        )
        best = grid_val
        if q0 is not None:
            best = min(best, _polish(div, q0, [{"type": "ineq", "fun": slack}]))
        terms.append(best)
    return min(terms)


# ---------------------------------------------------------------------------
# Simplex-grid oracles (test-only: exponential in alphabet size)
# ---------------------------------------------------------------------------


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
    p = d.probs.ravel()
    logp = np.log(p, out=np.full_like(p, -1e30), where=p > 0)
    cross = q @ logp
    div = np.where(cross < -1e20, np.inf, -h - cross)
    return q, div, h, h - hy, h - hx


def _block_margin_vec(tables, rates: RatePair) -> np.ndarray:
    _, div, h, hxy, hyx = tables
    margin = np.minimum(
        rates.rx + rates.ry - h, np.minimum(rates.rx - hxy, rates.ry - hyx)
    )
    return div + np.maximum(margin, 0.0)


def _constrained_div_vec(tables, which: int, threshold: float) -> np.ndarray:
    _, div, h, hxy, hyx = tables
    stat = (None, h, hxy, hyx)[which]
    return np.where(stat >= threshold, div, np.inf)


def _grid_min(d: JointDistribution, objective_vec, step: float):
    tables = _grid_tables(d, step)
    vals = objective_vec(tables)
    i = int(np.argmin(vals))
    if not math.isfinite(vals[i]):
        return math.inf, None
    return float(vals[i]), tables[0][i].copy()


def pp_universal_grid(d: JointDistribution, rx: float, step: float = 0.02) -> float:
    """Brute-force inf_q D(q||p) + |R - H(q)|^+ over the marginal simplex."""
    px = d.marginal_x() if d.alphabet_y > 1 else d.probs.ravel()
    parts = round(1.0 / step)
    q = _compositions(px.size, parts).astype(np.float64) / parts
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.where(q > 0, q * np.log(q), 0.0).sum(axis=1)
    logp = np.log(px, out=np.full_like(px, -1e30), where=px > 0)
    cross = q @ logp
    div = np.where(cross < -1e20, np.inf, -h - cross)
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
            dv, _, h_cond, _ = _simplex_objective_terms(q_flat, d)
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
    tables = _grid_tables(d, step)
    return float(np.min(_block_margin_vec(tables, rates)))


# ---------------------------------------------------------------------------
# Curve export
# ---------------------------------------------------------------------------

CURVE_HEADER = "rx,ry,gamma_star,rho_star,e_sw_x,e_sw_y,e_sw_xy,e_block_x,e_block_y,e_pp_x"


def curve_row(d: JointDistribution, rates: RatePair) -> dict:
    """One rate-grid point with every exponent column of the CSV interface."""
    row = dict.fromkeys(CURVE_HEADER.split(","))
    row.update(rx=rates.rx, ry=rates.ry)
    if d.is_point_to_point():
        pp = e_ml_pp(d, rates.rx)
        row.update(rho_star=pp.rho_star, e_pp_x=pp.value)
        return row
    swx, swy, swxy = _sw_exponents(d, rates)
    px = JointDistribution.from_marginal(d.marginal_x())
    row.update(
        gamma_star=swx.gamma_star,
        rho_star=swx.rho_star,
        e_sw_x=swx.value,
        e_sw_y=swy.value,
        e_sw_xy=swxy.value,
        e_block_x=e_block_sw_x(d, rates).value,
        e_block_y=e_block_sw_y(d, rates).value,
        e_pp_x=e_ml_pp(px, rates.rx).value,
    )
    return row


def format_curve_row(row: dict, scale: float = 1.0) -> str:
    """CSV line for one curve row; scale divides rate/exponent columns
    (log 2 for bit display), never the optimizers."""
    cells = (
        row[k] if row[k] is None or k in ("gamma_star", "rho_star") else row[k] / scale
        for k in CURVE_HEADER.split(",")
    )
    return ",".join("" if v is None else f"{v:.9g}" for v in cells)
