"""Error exponents for streaming random binning, in nats per symbol of delay.

The module computes every exponent two ways where the theory predicts
equality: maximum-likelihood forms as 1-D concave suprema over the Gallager
tilt parameter rho, and universal (divergence-minimization) forms through the
tilted-family parametrization of their KKT conditions.

The streaming Slepian-Wolf exponents are gamma-infima of rho-suprema of
gamma*A + (1-gamma)*B, with A = E_{x|y} and B = E_xy, each concave in rho
with a closed-form slope, A' = Rx - H(bar p^rho_{x|y}), B' = Rx + Ry - H(p^rho)
(`info_core._log_sum`): a maximizer on [0, 1] is an end or the slope's root
(`_argmax`).  The bracket is also affine in gamma, so by Sion's minimax theorem

    inf_gamma sup_rho [gamma*A + (1-gamma)*B]           = sup_rho min(A, B)
    inf_gamma sup_rho [gamma*A + (1-gamma)*B]/(1-gamma) = max of B on [0, rho0]

with rho0 the positive root of A, or 1 if A(1) >= 0.  With the maxima A* at
rho_A and B* at rho_B, unscaled gamma* is 1 if A* <= B(rho_A), 0 if
B* <= A(rho_B), else B'/(B' - A') at the root of A - B between rho_A and
rho_B: the block exponent min(A*, B*) unless the maxima cross.  Scaled, the
maximum is B* unless B rises at rho0, where t = B'/(-A') and gamma* = t/(1+t).
The y terms swap x and y (A becomes E_{y|x}).  `_sw_exponents` computes each
maximum once per rate point for the streaming and block exponents, uncached.

The single-event exponents are the gamma endpoints of the compound ones at
Ry = 0, on both routes: gamma = 0 gives the point-to-point exponent
sup_rho E_xy = inf_q D(q||p) + |R - H(q)|^+, gamma = 1 the side-information
one sup_rho E_{x|y} = inf_q D(q||p) + |R - H(q_{x|y})|^+.  The block lower
bound inf_q D(q||p) + |min rate margin|^+ is the min of the gamma = 0 and 1
ends of both streams (Csiszar, IEEE Trans. IT 1982).  The block upper bound
is the min over the three constraints of min D(q||p) s.t. H_q(.) >= R.  The
Lagrangian D - rho*H is minimized on a tilted family: p^{1/(1+rho)} for
H(x,y), the x-y tilt for H(x|y) (of the swapped source for H(y|x)).  H rises
with rho >= 0 from H_p to the log of the support size (joint) or of the
largest column support (conditional), so each minimum is 0 for R <= H_p,
+inf from that limit on, and D at the root of H = R in between.
"""

from __future__ import annotations

import math
import sys

from .info_core import (
    JointDistribution,
    _Frozen,
    _log_sum,
    _total,
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
    "curve_row",
    "CURVE_HEADER",
]

_ROOT_TOL = 1e-13
# a tilt at which every tilted family has reached its rho -> inf limit in floats
_RHO_INF = 2.0 ** 64


class RatePair(_Frozen):
    """Encoding rates in nats per symbol; ry = 0 for point-to-point."""

    _fields = ("rx", "ry")

    def __init__(self, rx: float, ry: float = 0.0):
        if not (rx >= 0 and ry >= 0):
            raise ValueError("rates must be nonnegative numbers")
        vars(self).update(rx=rx, ry=ry)

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


class ExponentResult(_Frozen):
    """An optimized exponent plus the optimizer that attained it."""

    _fields = ("value", "rho_star", "gamma_star", "branch", "in_region")

    def __init__(self, value: float, rho_star: float, gamma_star: float | None = None,
                 branch: str = "", in_region: bool = True):
        vars(self).update(value=value, rho_star=rho_star, gamma_star=gamma_star,
                          branch=branch, in_region=in_region)


def _root(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """A root of f in [lo, hi] (0 <= lo < hi, flo = f(lo) and fhi = f(hi)
    of opposite signs), to within _ROOT_TOL + 4*eps*hi.

    Regula falsi with the Illinois step: an end kept twice in a row has its f
    halved, so both ends close in.  A secant point that rounding puts outside
    the open bracket is replaced by the midpoint.
    """
    if fhi == 0.0:
        return hi
    x, fx, side = lo, flo, 0
    while fx != 0.0 and hi - lo > _ROOT_TOL + 4.0 * sys.float_info.epsilon * hi:
        x = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
            fhi *= 0.5 if side == 1 else 1.0
            side = 1
        else:
            hi, fhi = x, fx
            flo *= 0.5 if side == -1 else 1.0
            side = -1
    return x


def _argmax(slope, lo: float, hi: float) -> float:
    """The maximizer on [lo, hi] of a concave function with derivative
    `slope`: an end where the slope points outward, else its root."""
    flo = slope(lo)
    if flo <= 0.0:
        return lo
    fhi = slope(hi)
    if fhi >= 0.0:
        return hi
    return _root(slope, lo, hi, flo, fhi)


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


# ---------------------------------------------------------------------------
# gamma-compound exponents: ML route (rho-supremum)
# ---------------------------------------------------------------------------


def _slope(d: JointDistribution, rates: RatePair, gamma: float, rho: float) -> float:
    """The rho-derivative of gamma*E_{x|y} + (1-gamma)*E_xy (module
    docstring); a bracket of weight 0 is not evaluated."""
    s = 0.0
    if gamma > 0.0:
        s = gamma * (rates.rx - _log_sum(d, rho, True)[1])
    if gamma < 1.0:
        s += (1.0 - gamma) * (rates.rx + rates.ry - _log_sum(d, rho, False)[1])
    return s


def e_x_gamma(d: JointDistribution, rates: RatePair, gamma: float) -> ExponentResult:
    """sup_rho of gamma*E_{x|y} + (1-gamma)*E_xy, at the root of its slope
    or an end of [0, 1]."""
    _check_unit("gamma", gamma)
    rho = _argmax(lambda r: _slope(d, rates, gamma, r), 0.0, 1.0)
    val = 0.0
    if gamma > 0.0:
        val = gamma * gallager_x_given_y(d, rates.rx, rho)
    if gamma < 1.0:
        val += (1.0 - gamma) * gallager_xy(d, rates, rho)
    return ExponentResult(value=max(val, 0.0), rho_star=rho, gamma_star=gamma)


def e_y_gamma(d: JointDistribution, rates: RatePair, gamma: float) -> ExponentResult:
    return e_x_gamma(d.swapped(), RatePair(rates.ry, rates.rx), gamma)


# ---------------------------------------------------------------------------
# gamma-compound exponents: universal route (tilted-family KKT parametrization)
# ---------------------------------------------------------------------------


def _mixed_tilt_stats(d: JointDistribution, rho: float, gamma: float):
    """(gamma*H(bar q_{x|y}) + (1-gamma)*H(q), [(gamma, bar q), (1-gamma, q)])
    for the x-y tilt bar q and the plain tilt q of d at rho.  A tilt of
    weight 0 is not built."""
    h, tilts = 0.0, []
    if gamma > 0.0:
        bar = xy_tilted(d, rho)
        h = gamma * conditional_entropy_x_given_y(bar)
        tilts.append((gamma, bar))
    if gamma < 1.0:
        plain = tilted(d, rho)
        h += (1.0 - gamma) * entropy(plain)
        tilts.append((1.0 - gamma, plain))
    return h, tilts


def e_un_x_gamma(d: JointDistribution, rates: RatePair, gamma: float) -> ExponentResult:
    """Divergence-minimization form of the compound x exponent.

    The minimizing dummy distributions are members of the tilted families, so
    the whole simplex search collapses to a 1-D root-find in rho: find rho
    with gamma*H(bar p^rho_{x|y}) + (1-gamma)*H(p^rho) equal to the compound
    rate, clipping at the endpoints rho = 0 and rho = 1.
    """
    _check_unit("gamma", gamma)
    rg = rates.r_gamma(gamma)
    h0 = gamma * conditional_entropy_x_given_y(d) + (1.0 - gamma) * entropy(d)
    if rg <= h0:
        # on or outside the boundary for this error event
        return ExponentResult(0.0, 0.0, gamma_star=gamma, in_region=(rg >= h0))
    divergence = lambda tilts: _total(w * kl_divergence(q, d) for w, q in tilts)
    h1, tilts1 = _mixed_tilt_stats(d, 1.0, gamma)
    if rg >= h1:
        return ExponentResult(divergence(tilts1) + (rg - h1), 1.0, gamma_star=gamma)
    # the root reads the entropies only; the divergence is taken once, at it
    f = lambda r: _mixed_tilt_stats(d, r, gamma)[0] - rg
    rho = _root(f, 0.0, 1.0, f(0.0), h1 - rg)
    return ExponentResult(divergence(_mixed_tilt_stats(d, rho, gamma)[1]), rho,
                          gamma_star=gamma)


def e_un_y_gamma(d: JointDistribution, rates: RatePair, gamma: float) -> ExponentResult:
    return e_un_x_gamma(d.swapped(), RatePair(rates.ry, rates.rx), gamma)


# ---------------------------------------------------------------------------
# Streaming Slepian-Wolf exponents (gamma-infima) and block baselines
# ---------------------------------------------------------------------------


def _maxima(d: JointDistribution, rates: RatePair):
    """E_{x|y}, E_{y|x} and E_xy maximized on [0, 1]: the gamma = 1 and 0 ends."""
    return e_x_gamma(d, rates, 1.0), e_y_gamma(d, rates, 1.0), e_x_gamma(d, rates, 0.0)


def _inf_unscaled(d: JointDistribution, rates: RatePair, a, b):
    """(gamma*, value, rho*) of sup_rho min(E_{x|y}, E_xy), from the maxima
    a of E_{x|y} and b of E_xy, by the cases of the module docstring."""
    ea = lambda r: gallager_x_given_y(d, rates.rx, r)
    eb = lambda r: gallager_xy(d, rates, r)
    if a.value <= eb(a.rho_star):
        return 1.0, a.value, a.rho_star
    if b.value <= ea(b.rho_star):
        return 0.0, b.value, b.rho_star
    lo, hi = sorted((a.rho_star, b.rho_star))
    f = lambda r: ea(r) - eb(r)
    rho = _root(f, lo, hi, f(lo), f(hi))
    da, db = _slope(d, rates, 1.0, rho), _slope(d, rates, 0.0, rho)
    return min(max(db / (db - da), 0.0), 1.0), min(ea(rho), eb(rho)), rho


def _inf_scaled(d: JointDistribution, rates: RatePair, a, b):
    """(gamma*, value, rho*) of max E_xy on [0, rho0], rho0 the positive root
    of E_{x|y}, from the maxima a of E_{x|y} and b of E_xy."""
    ea = lambda r: gallager_x_given_y(d, rates.rx, r)
    e1 = ea(1.0)
    if e1 < 0.0:
        # E_{x|y} is concave and 0 at 0: its positive root lies above rho_A
        rho0 = _root(ea, a.rho_star, 1.0, ea(a.rho_star), e1)
        db = _slope(d, rates, 0.0, rho0)
        if db > 0.0:  # the constraint binds; its multiplier is gamma*/(1-gamma*)
            t = db / -_slope(d, rates, 1.0, rho0)
            return t / (1.0 + t), gallager_xy(d, rates, rho0), rho0
    return 0.0, b.value, b.rho_star


def _sw_terms(d: JointDistribution, rates: RatePair, maxima=None):
    """The four gamma-infima behind e_sw_*, as (gamma*, value, rho*) triples
    (module docstring), from `_maxima(d, rates)`, computed if not given."""
    ax, ay, b = maxima or _maxima(d, rates)
    ds, rs = d.swapped(), RatePair(rates.ry, rates.rx)
    return {
        "inf_ex": _inf_unscaled(d, rates, ax, b),
        "inf_ey": _inf_unscaled(ds, rs, ay, b),
        "inf_ey_scaled": _inf_scaled(ds, rs, ay, b),
        "inf_ex_scaled": _inf_scaled(d, rates, ax, b),
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


def _block(a, b) -> ExponentResult:
    """One stream's block exponent min(B*, A*) from its bracket maxima."""
    return _pick_min((0.0, b.value, b.rho_star), (1.0, a.value, a.rho_star),
                     "gamma0", "gamma1")


def _sw_exponents(d: JointDistribution, rates: RatePair):
    """(e_sw_x, e_sw_y, e_sw_xy, e_block_sw_x, e_block_sw_y), one set of maxima."""
    out = _outside(rates, d)
    if out is not None:
        return (out,) * 5
    ax, ay, b = maxima = _maxima(d, rates)
    t = _sw_terms(d, rates, maxima)
    return (
        _pick_min(t["inf_ex"], t["inf_ey_scaled"], "x", "y_scaled"),
        _pick_min(t["inf_ey"], t["inf_ex_scaled"], "y", "x_scaled"),
        _pick_min(t["inf_ex"], t["inf_ey"], "x", "y"),
        _block(ax, b),
        _block(ay, b),
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
    return _outside(rates, d) or _block(e_x_gamma(d, rates, 1.0), e_x_gamma(d, rates, 0.0))


def e_block_sw_y(d: JointDistribution, rates: RatePair) -> ExponentResult:
    return _outside(rates, d) or _block(e_y_gamma(d, rates, 1.0), e_x_gamma(d, rates, 0.0))


# ---------------------------------------------------------------------------
# Point-to-point and side-information exponents (the gamma endpoints)
# ---------------------------------------------------------------------------


def _endpoint(res: ExponentResult, in_region: bool) -> ExponentResult:
    return ExponentResult(res.value, res.rho_star, branch=res.branch, in_region=in_region)


def _needs_y(d: JointDistribution) -> JointDistribution:
    if d.alphabet_y < 2:
        raise ValueError("side-information exponent needs |Y| >= 2")
    return d


def e_ml_pp(d: JointDistribution, rx: float) -> ExponentResult:
    """sup_rho [rho*R - (1+rho) log sum p^{1/(1+rho)}]: e_x_gamma at gamma = 0."""
    return _endpoint(e_x_gamma(d, RatePair(rx), 0.0), rx > entropy(d))


def e_un_pp(d: JointDistribution, rx: float) -> ExponentResult:
    """inf_q D(q||p) + |R - H(q)|^+: e_un_x_gamma at gamma = 0."""
    return _endpoint(e_un_x_gamma(d, RatePair(rx), 0.0), rx > entropy(d))


def e_ml_si(d: JointDistribution, rx: float) -> ExponentResult:
    """sup_rho of the side-information bracket E_{x|y}: e_x_gamma at gamma = 1."""
    res = e_x_gamma(_needs_y(d), RatePair(rx), 1.0)
    return _endpoint(res, rx > conditional_entropy_x_given_y(d))


def e_un_si(d: JointDistribution, rx: float) -> ExponentResult:
    """inf_q D(q||p) + |R - H(q_{x|y})|^+: e_un_x_gamma at gamma = 1."""
    res = e_un_x_gamma(_needs_y(d), RatePair(rx), 1.0)
    return _endpoint(res, rx > conditional_entropy_x_given_y(d))


# ---------------------------------------------------------------------------
# Block bounds over dummy joint distributions
# ---------------------------------------------------------------------------


def e_block_lower(d: JointDistribution, rates: RatePair) -> float:
    """Achievability-side block exponent, min_q D(q||p) + |min rate margin|^+.

    |min margin|^+ is the min of the three |margin|^+, so this is the min of
    the three single-event exponents, the gamma = 0 and 1 ends of each stream.
    """
    return min(e_block_sw_x(d, rates).value, e_block_sw_y(d, rates).value)


def _min_div_above(d: JointDistribution, family, stat, rate: float) -> float:
    """min D(q||p) subject to stat(q) >= rate, on the tilted family (rho >= 0)."""
    if rate <= stat(d):
        return 0.0
    if rate >= stat(family(d, _RHO_INF)):
        return math.inf
    gap = lambda r: stat(family(d, r)) - rate
    hi, ghi = 1.0, gap(1.0)
    while ghi < 0.0:
        hi *= 2.0
        ghi = gap(hi)
    rho = _root(gap, 0.0, hi, gap(0.0), ghi)
    return kl_divergence(family(d, rho), d)


def e_block_upper(d: JointDistribution, rates: RatePair) -> float:
    """Converse-side block exponent: cheapest dummy joint under which the
    rate pair falls outside its achievable region (module docstring)."""
    ds = d.swapped()
    return min(
        _min_div_above(d, tilted, entropy, rates.rx + rates.ry),
        _min_div_above(d, xy_tilted, conditional_entropy_x_given_y, rates.rx),
        _min_div_above(ds, xy_tilted, conditional_entropy_x_given_y, rates.ry),
    )


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
    swx, swy, swxy, blx, bly = _sw_exponents(d, rates)
    px = JointDistribution.from_marginal(d.marginal_x())
    row.update(
        gamma_star=swx.gamma_star,
        rho_star=swx.rho_star,
        e_sw_x=swx.value,
        e_sw_y=swy.value,
        e_sw_xy=swxy.value,
        e_block_x=blx.value,
        e_block_y=bly.value,
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
