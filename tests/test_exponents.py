import math
import pickle

import numpy as np
import pytest

from swstream.exponents import (
    ExponentResult,
    RatePair,
    _root,
    _sw_terms,
    curve_row,
    e_block_lower,
    e_block_sw_x,
    e_block_sw_y,
    e_block_upper,
    e_ml_pp,
    e_ml_si,
    e_sw_x,
    e_sw_xy,
    e_sw_y,
    e_un_pp,
    e_un_si,
    e_un_x_gamma,
    e_un_y_gamma,
    e_x_gamma,
    e_y_gamma,
    format_curve_row,
    gallager_x_given_y,
    gallager_xy,
    gallager_y_given_x,
)
from swstream.info_core import (
    JointDistribution,
    conditional_entropy_x_given_y,
    conditional_entropy_y_given_x,
    entropy,
)
from conftest import random_corpus
from oracles import (
    _grid_tables,
    _nested_sw_terms,
    block_lower_grid,
    e_ml_pointwise,
    e_x_gamma_golden,
    gamma_universal_grid,
    pp_universal_grid,
    si_universal_grid,
)

LOG2 = math.log(2.0)


class TestRatePair:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RatePair(-0.1, 0.5)

    @pytest.mark.parametrize("rx, ry", [(math.nan, 0.5), (0.5, math.nan)])
    def test_rejects_nan(self, rx, ry):
        with pytest.raises(ValueError):
            RatePair(rx, ry)

    def test_compound_rate(self):
        r = RatePair(0.6, 0.4)
        assert r.r_gamma(1.0) == pytest.approx(0.6)
        assert r.r_gamma(0.0) == pytest.approx(1.0)
        assert r.r_gamma(0.25) == pytest.approx(0.6 + 0.75 * 0.4)

    def test_achievability(self, example1):
        assert RatePair(0.6, 0.6).achievable(example1)
        assert not RatePair(0.5, 0.5).achievable(example1)  # rx + ry < H(x,y)
        assert not RatePair(0.3, 0.9).achievable(example1)  # rx < H(x|y)

    def test_value_semantics(self):
        # those of a frozen dataclass, for ExponentResult too
        r = RatePair(0.6, 0.4)
        assert r == RatePair(rx=0.6, ry=0.4) and hash(r) == hash(RatePair(0.6, 0.4))
        assert r != RatePair(0.6) and repr(r) == "RatePair(rx=0.6, ry=0.4)"
        with pytest.raises(AttributeError):
            r.rx = 0.7
        assert pickle.loads(pickle.dumps(r)) == r
        res = ExponentResult(0.1, 0.5)
        assert res == ExponentResult(value=0.1, rho_star=0.5, gamma_star=None)
        assert repr(res) == ("ExponentResult(value=0.1, rho_star=0.5, gamma_star=None,"
                             " branch='', in_region=True)")
        with pytest.raises(AttributeError):
            res.value = 0.2


class TestRoot:
    @pytest.mark.parametrize("f, hi, root", [
        (lambda r: r ** 3 - 0.2, 1.0, 0.2 ** (1.0 / 3.0)),
        (lambda r: 0.5 - math.exp(-r), 2.0 ** 40, math.log(2.0)),
        # a root far from 0, where 1e-13 is below the spacing of the floats
        (lambda r: math.log1p(r) - 30.0, 2.0 ** 64, math.expm1(30.0)),
        (lambda r: r - 1.0, 1.0, 1.0),
        (lambda r: r, 1.0, 0.0),
    ])
    def test_finds_a_bracketed_root(self, f, hi, root):
        assert _root(f, 0.0, hi, f(0.0), f(hi)) == pytest.approx(root, rel=1e-14, abs=1e-13)


class TestGallagerBrackets:
    def test_zero_at_rho_zero(self, example1, example2):
        rates = RatePair(0.6, 0.7)
        for d in (example1, example2):
            assert gallager_xy(d, rates, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert gallager_x_given_y(d, 0.6, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert gallager_y_given_x(d, 0.7, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_pair_closed_form(self):
        # four equiprobable cells at total rate 2 ln 2, rho = 1:
        # 2 ln2 - 2 log(4 * (1/4)^{1/2}) = 0
        d = JointDistribution.from_matrix(np.full((2, 2), 0.25))
        assert gallager_xy(d, RatePair(LOG2, LOG2), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_example1_formula_evaluation(self, example1):
        # independent one-line evaluation of the bracket
        want = 1.2 - 2.0 * math.log(2.0 * (math.sqrt(0.45) + math.sqrt(0.05)))
        assert gallager_xy(example1, RatePair(0.6, 0.6), 1.0) == pytest.approx(
            want, abs=1e-12
        )

    def test_example1_conditional_minus_joint_identity(self, example1):
        # marginally uniform source: E_{x|y} - E_xy = rho (log2 - Ry)
        rates = RatePair(0.6, 0.45)
        for rho in np.linspace(0.0, 1.0, 21):
            diff = gallager_x_given_y(example1, rates.rx, rho) - gallager_xy(
                example1, rates, rho
            )
            assert diff == pytest.approx(rho * (LOG2 - rates.ry), abs=1e-10)

    def test_degenerate_y_reduces_to_point_to_point(self):
        d = JointDistribution.from_marginal([0.3, 0.7])
        for rho in (0.2, 0.8, 1.0):
            want = rho * 0.9 - (1.0 + rho) * math.log(
                0.3 ** (1 / (1 + rho)) + 0.7 ** (1 / (1 + rho))
            )
            assert gallager_x_given_y(d, 0.9, rho) == pytest.approx(want, abs=1e-12)

    def test_transpose_symmetry(self, example2):
        for rho in (0.3, 1.0):
            assert gallager_y_given_x(example2, 0.5, rho) == pytest.approx(
                gallager_x_given_y(example2.swapped(), 0.5, rho), abs=1e-14
            )

    def test_rho_out_of_range_rejected(self, example1):
        with pytest.raises(ValueError):
            gallager_xy(example1, RatePair(0.6, 0.6), 1.5)
        with pytest.raises(ValueError):
            gallager_x_given_y(example1, 0.6, -0.2)

    def test_pointwise_weight_collapse(self, example2):
        rates = RatePair(0.5, 0.6)
        ex1, ey1 = e_ml_pointwise(example2, rates, 1.0, 0.7)
        assert ex1 == pytest.approx(gallager_x_given_y(example2, 0.5, 0.7), abs=1e-14)
        assert ey1 == pytest.approx(gallager_y_given_x(example2, 0.6, 0.7), abs=1e-14)
        ex0, ey0 = e_ml_pointwise(example2, rates, 0.0, 0.7)
        assert ex0 == ey0 == pytest.approx(gallager_xy(example2, rates, 0.7), abs=1e-14)
        exz, eyz = e_ml_pointwise(example2, rates, 0.5, 0.0)
        assert exz == pytest.approx(0.0, abs=1e-14)
        assert eyz == pytest.approx(0.0, abs=1e-14)

    def test_pointwise_concave_in_rho(self, example2):
        # second finite difference of the bracket is nonpositive
        rates = RatePair(0.5, 0.6)
        for gamma in (0.0, 0.4, 1.0):
            grid = np.linspace(0.0, 1.0, 41)
            vals = [e_ml_pointwise(example2, rates, gamma, r)[0] for r in grid]
            second = np.diff(vals, 2)
            assert np.all(second <= 1e-8)


class TestGammaCompound:
    def test_boundary_rate_gives_zero(self, example2):
        gamma = 0.5
        h = gamma * conditional_entropy_x_given_y(example2) + (1 - gamma) * entropy(
            example2
        )
        # pick rx = ry with r_gamma == h exactly: rx + (1-gamma) ry = h
        rx = h / (1.0 + (1.0 - gamma))
        res = e_x_gamma(example2, RatePair(rx, rx), gamma)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert res.rho_star == pytest.approx(0.0, abs=1e-3)

    def test_example1_gamma_dominates_gamma0(self, example1):
        rates = RatePair(0.6, 0.55)
        base = e_x_gamma(example1, rates, 0.0).value
        for gamma in np.linspace(0.0, 1.0, 11):
            assert e_x_gamma(example1, rates, gamma).value >= base - 1e-10

    def test_uniform_point_to_point_closed_form(self):
        d = JointDistribution.from_marginal([0.5, 0.5])
        res = e_x_gamma(d, RatePair(1.0, 0.0), 1.0)
        assert res.value == pytest.approx(1.0 - LOG2, abs=1e-9)
        assert res.rho_star == pytest.approx(1.0, abs=1e-6)

    def test_universal_matches_ml(self, example1, example2):
        for d in (example1, example2):
            rates = RatePair(
                conditional_entropy_x_given_y(d) + 0.3,
                conditional_entropy_y_given_x(d) + 0.3,
            )
            for gamma in np.linspace(0.0, 1.0, 11):
                ml = e_x_gamma(d, rates, gamma).value
                un = e_un_x_gamma(d, rates, gamma).value
                assert un == pytest.approx(ml, abs=1e-6)
                mly = e_y_gamma(d, rates, gamma).value
                uny = e_un_y_gamma(d, rates, gamma).value
                assert uny == pytest.approx(mly, abs=1e-6)

    def test_universal_pair_grid_oracle(self, example2):
        # route (a) against the brute-force pair-grid route (b)
        rates = RatePair(0.45, 0.45)
        got = e_un_x_gamma(example2, rates, 0.5).value
        oracle = gamma_universal_grid(example2, rates, 0.5, step=0.02)
        assert got == pytest.approx(oracle, abs=5e-3)

    def test_gamma_domain_checked(self, example2):
        with pytest.raises(ValueError):
            e_x_gamma(example2, RatePair(0.5, 0.5), 1.2)


class TestEquivalenceCorpus:
    """ML and universal routes agree on randomized sources and rates."""

    @pytest.mark.parametrize("idx", range(8))
    def test_pp_and_si(self, idx):
        d = random_corpus(2200 + idx, 1)[0]
        rng = np.random.default_rng(3300 + idx)
        hx = entropy(JointDistribution.from_marginal(d.marginal_x()))
        hxy = conditional_entropy_x_given_y(d)
        for _ in range(4):
            px = JointDistribution.from_marginal(d.marginal_x())
            rp = hx + rng.uniform(0.02, 0.6)
            assert e_un_pp(px, rp).value == pytest.approx(
                e_ml_pp(px, rp).value, abs=1e-5
            )
            rs = hxy + rng.uniform(0.02, 0.6)
            assert e_un_si(d, rs).value == pytest.approx(
                e_ml_si(d, rs).value, abs=1e-5
            )

    @pytest.mark.parametrize("idx", range(4))
    def test_gamma_equivalence_random(self, idx):
        d = random_corpus(4400 + idx, 1)[0]
        rates = RatePair(
            conditional_entropy_x_given_y(d) + 0.25,
            conditional_entropy_y_given_x(d) + 0.25,
        )
        for gamma in np.linspace(0.0, 1.0, 6):
            assert e_un_x_gamma(d, rates, gamma).value == pytest.approx(
                e_x_gamma(d, rates, gamma).value, abs=1e-5
            )


class TestPointToPoint:
    def test_uniform_at_capacity_rate_zero(self):
        d = JointDistribution.from_marginal([0.5, 0.5])
        assert e_ml_pp(d, LOG2).value == pytest.approx(0.0, abs=1e-9)

    def test_uniform_above_capacity(self):
        d = JointDistribution.from_marginal([0.5, 0.5])
        res = e_ml_pp(d, 1.0)
        assert res.value == pytest.approx(0.306853, abs=1e-6)
        assert res.rho_star == pytest.approx(1.0, abs=1e-6)

    def test_bern09_at_one_bit(self):
        # log2 - 2 log(sqrt(0.1) + sqrt(0.9)) = log 2 - log 1.6
        d = JointDistribution.from_marginal([0.9, 0.1])
        res = e_ml_pp(d, LOG2)
        want = LOG2 - math.log(1.6)
        assert res.value == pytest.approx(want, abs=1e-9)
        assert res.rho_star == pytest.approx(1.0, abs=1e-6)
        # sup is at the endpoint because H(p^1) = H(Bern(0.25)) < log 2
        assert entropy(JointDistribution.from_marginal([0.25, 0.75])) < LOG2

    def test_below_entropy_flagged(self):
        d = JointDistribution.from_marginal([0.9, 0.1])
        res = e_ml_pp(d, 0.1)
        assert res.value == pytest.approx(0.0, abs=1e-9)
        assert not res.in_region

    def test_grid_oracle_agreement(self):
        d = JointDistribution.from_marginal([0.8, 0.15, 0.05])
        for rx in (0.8, 1.0):
            assert e_un_pp(d, rx).value == pytest.approx(
                pp_universal_grid(d, rx, step=0.02), abs=5e-3
            )


class TestSideInformation:
    def test_rate_at_conditional_entropy_zero(self, example1):
        h = conditional_entropy_x_given_y(example1)
        assert e_ml_si(example1, h).value == pytest.approx(0.0, abs=1e-9)

    def test_example1_both_routes(self, example1):
        ml = e_ml_si(example1, 0.6)
        un = e_un_si(example1, 0.6)
        assert ml.value == pytest.approx(un.value, abs=1e-6)
        assert ml.value > 0

    def test_independent_side_info_useless(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.4, 0.6])
        d = JointDistribution.from_matrix(np.outer(px, py))
        rx = 0.95
        si = e_ml_si(d, rx).value
        pp = e_ml_pp(JointDistribution.from_marginal(px), rx).value
        assert si == pytest.approx(pp, abs=1e-9)

    def test_grid_oracle_agreement(self, example2):
        rx = conditional_entropy_x_given_y(example2) + 0.3
        assert e_un_si(example2, rx).value == pytest.approx(
            si_universal_grid(example2, rx), abs=5e-3
        )

    def test_rejects_degenerate_y(self):
        d = JointDistribution.from_marginal([0.5, 0.5])
        with pytest.raises(ValueError):
            e_ml_si(d, 1.0)


def _region_margin(d, rates):
    return min(
        rates.rx - conditional_entropy_x_given_y(d),
        rates.ry - conditional_entropy_y_given_x(d),
        rates.rx + rates.ry - entropy(d),
    )


class TestClosedFormMaximizers:
    """Each rho-maximizer is an end of [0, 1] or the root of the bracket's
    closed-form slope."""

    def test_e_x_gamma_matches_golden_search(self, example1, example2):
        sources = [example1, example2, *random_corpus(2101, 4)]
        rates = [RatePair(rx, ry) for rx in (0.3, 0.5, 0.8) for ry in (0.2, 0.6)]
        for d in sources:
            for r in rates:
                for gamma in (0.0, 0.3, 0.7, 1.0):
                    res = e_x_gamma(d, r, gamma)
                    rho, value = e_x_gamma_golden(d, r, gamma)
                    assert abs(res.value - max(value, 0.0)) <= 1e-12, (r, gamma)
                    assert abs(res.rho_star - rho) <= 1e-7, (r, gamma)

    def test_gamma_star_is_one_where_the_si_maximum_lies_under_e_xy(self, example2):
        rates = RatePair(0.35, 0.7)
        side = e_x_gamma(example2, rates, 1.0)
        assert side.value < gallager_xy(example2, rates, side.rho_star)
        gamma, value, rho = _sw_terms(example2, rates)["inf_ex"]
        assert gamma == 1.0
        assert (value, rho) == (side.value, side.rho_star)


class TestMinimaxAgainstNestedSearch:
    def test_sw_terms_match_nested_search(self, example1, example2):
        cases = [
            (d, RatePair(rx, ry))
            for d, grid in (
                (example1, (0.4, 0.55, 0.7, 0.9)),
                (example2, (0.35, 0.45, 0.55, 0.7, 0.9)),
            )
            for rx in grid
            for ry in grid
        ]
        rng = np.random.default_rng(20250607)
        for d in random_corpus(20250608, 5):
            drawn = 0
            while drawn < 3:
                rates = RatePair(
                    conditional_entropy_x_given_y(d) + rng.uniform(0.02, 0.6),
                    conditional_entropy_y_given_x(d) + rng.uniform(0.02, 0.6),
                )
                if _region_margin(d, rates) >= 0.02:
                    cases.append((d, rates))
                    drawn += 1
        cases = [(d, rates) for d, rates in cases if _region_margin(d, rates) >= 0.02]
        assert len(cases) >= 50
        interior = 0
        for d, rates in cases:
            nested = _nested_sw_terms(d, rates)
            for key, (gamma, value, rho) in _sw_terms(d, rates).items():
                want_gamma, want_value, want_rho = nested[key]
                assert value == pytest.approx(want_value, abs=1e-9)
                assert gamma == pytest.approx(want_gamma, abs=1e-6)
                assert rho == pytest.approx(want_rho, abs=1e-6)
                interior += 1e-6 < gamma < 1.0 - 1e-6
        assert interior >= 10


class TestStreamingExponents:
    def test_example1_collapse(self, example1):
        # symmetric source: streaming = block = the gamma=0 endpoint
        for rates in (RatePair(0.6, 0.6), RatePair(0.75, 0.49), RatePair(0.55, 0.67)):
            sw = e_sw_x(example1, rates)
            g0 = e_x_gamma(example1, rates, 0.0)
            bl = e_block_sw_x(example1, rates)
            assert sw.value == pytest.approx(g0.value, abs=1e-6)
            assert bl.value == pytest.approx(g0.value, abs=1e-6)

    def test_example1_boundary_positivity(self, example1):
        h = entropy(example1)  # 1.0182...
        ry = 0.49
        below = e_sw_x(example1, RatePair(h - ry - 0.01, ry))
        above = e_sw_x(example1, RatePair(h - ry + 0.01, ry))
        assert below.value == pytest.approx(0.0, abs=1e-6)
        assert above.value > 1e-6

    def test_outside_region_flagged_not_raised(self, example1):
        res = e_sw_x(example1, RatePair(0.1, 0.1))
        assert res.value == 0.0
        assert not res.in_region
        assert res.branch == "outside"

    def test_endpoint_dominance(self, example2):
        # the streaming infimum over all gamma can only be <= the min over
        # the two endpoints
        for rx in np.linspace(0.45, 0.8, 5):
            rates = RatePair(rx, 0.49)
            if not rates.achievable(example2):
                continue
            assert (
                e_sw_x(example2, rates).value
                <= e_block_sw_x(example2, rates).value + 1e-9
            )
            assert (
                e_sw_y(example2, rates).value
                <= e_block_sw_y(example2, rates).value + 1e-9
            )

    def test_monotone_in_rate(self, example2):
        vals = [
            e_sw_x(example2, RatePair(rx, 0.55)).value
            for rx in np.linspace(0.4, 0.9, 6)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_sw_xy_is_min_of_unscaled_infima(self, example2):
        rates = RatePair(0.55, 0.55)
        xy = e_sw_xy(example2, rates).value
        assert xy <= e_sw_x(example2, rates).value + 1e-9
        assert xy <= e_sw_y(example2, rates).value + 1e-9

    def test_block_endpoint_values_example2(self, example2):
        # independent evaluation of both endpoint suprema via a dense grid
        rates = RatePair(0.5, 0.35)
        grid = np.linspace(0.0, 1.0, 20001)

        def bracket(gamma):
            vals = [
                gamma * gallager_x_given_y(example2, rates.rx, r)
                + (1 - gamma) * gallager_xy(example2, rates, r)
                for r in grid
            ]
            return max(vals)

        want = min(bracket(0.0), bracket(1.0))
        assert e_block_sw_x(example2, rates).value == pytest.approx(want, abs=1e-7)


class TestBlockBounds:
    def test_boundary_rates_zero_lower(self, example1):
        h = entropy(example1)
        rates = RatePair(h / 2, h / 2)  # on the sum-rate boundary
        assert e_block_lower(example1, rates) == pytest.approx(0.0, abs=1e-6)

    def test_near_boundary_bounds_match(self, example1):
        rates = RatePair(0.53, 0.51)  # just above the sum-rate boundary
        lo = e_block_lower(example1, rates)
        hi = e_block_upper(example1, rates)
        assert lo <= hi + 1e-9
        assert hi - lo <= 5e-3

    def test_example1_grid_oracle(self, example1):
        rates = RatePair(0.6, 0.6)
        got = e_block_lower(example1, rates)
        oracle = block_lower_grid(example1, rates, step=0.01)
        assert got <= oracle + 1e-9
        assert got == pytest.approx(oracle, abs=5e-3)

    def test_upper_infeasible_constraint_excluded(self):
        # x-margin constraint H(q_{x|y}) >= rx is infeasible for rx > log|X|,
        # so only the other two terms can decide the upper bound
        d = JointDistribution.from_matrix([[0.4, 0.1], [0.1, 0.4]])
        rates = RatePair(LOG2 + 0.3, 0.2)
        val = e_block_upper(d, rates)
        assert math.isfinite(val)

    def test_lower_is_min_over_error_events(self, example1, example2):
        # universal route, one error event at a time: x given y, y given x,
        # and the pair as one point-to-point source at the sum rate
        cases = [(example2, RatePair(0.30627501742262897, 0.548439177702597))]
        cases += [
            (d, RatePair(rx, ry))
            for d in (example1, example2)
            for rx in (0.3, 0.45, 0.6, 0.9)
            for ry in (0.3, 0.5, 0.8)
        ]
        rng = np.random.default_rng(20261018)
        for d in random_corpus(20261019, 6):
            for _ in range(3):
                cases.append((d, RatePair(
                    conditional_entropy_x_given_y(d) + rng.uniform(-0.05, 0.6),
                    conditional_entropy_y_given_x(d) + rng.uniform(-0.05, 0.6),
                )))
        assert len(cases) >= 40
        for d, rates in cases:
            joint = JointDistribution.from_marginal(np.ravel(d.probs))
            events = min(
                e_un_si(d, rates.rx).value,
                e_un_si(d.swapped(), rates.ry).value,
                e_un_pp(joint, rates.rx + rates.ry).value,
            )
            assert e_block_lower(d, rates) == pytest.approx(events, abs=1e-9)

    def test_upper_grid_oracle(self, example1, example2):
        # every grid point meeting a constraint is feasible, so the exact
        # minimum can only lie below the grid's
        step = 0.005
        rng = np.random.default_rng(20261020)
        for d in [example1, example2] + random_corpus(20261021, 6, max_size=2):
            _, div, h, hxy, hyx = _grid_tables(d, step)
            for _ in range(4):
                rates = RatePair(
                    conditional_entropy_x_given_y(d) + rng.uniform(-0.05, 0.4),
                    conditional_entropy_y_given_x(d) + rng.uniform(-0.05, 0.4),
                )
                grid = min(
                    float(np.min(np.where(stat >= rate, div, np.inf)))
                    for stat, rate in (
                        (h, rates.rx + rates.ry), (hxy, rates.rx), (hyx, rates.ry)
                    )
                )
                got = e_block_upper(d, rates)
                assert got <= grid + 1e-9
                assert got == pytest.approx(grid, abs=5e-3)

    def test_point_to_point_rejected(self):
        d = JointDistribution.from_marginal([0.9, 0.1])
        for bound in (e_block_lower, e_block_upper):
            with pytest.raises(ValueError):
                bound(d, RatePair(0.5, 0.5))


class TestCurveExport:
    def test_joint_row_columns(self, example2):
        row = curve_row(example2, RatePair(0.55, 0.49))
        assert row["e_sw_x"] is not None and row["e_sw_x"] >= 0
        assert row["e_pp_x"] is not None
        line = format_curve_row(row)
        assert len(line.split(",")) == 10

    def test_point_to_point_row_has_empty_sw_columns(self):
        d = JointDistribution.from_marginal([0.9, 0.1])
        row = curve_row(d, RatePair(0.8, 0.0))
        line = format_curve_row(row)
        fields = line.split(",")
        assert fields[4] == "" and fields[8] == ""  # e_sw_x .. e_block_y empty
        assert fields[9] != ""  # e_pp_x populated

    def test_bits_scaling(self, example2):
        row = curve_row(example2, RatePair(0.55, 0.49))
        nats = format_curve_row(row).split(",")
        bits = format_curve_row(row, scale=LOG2).split(",")
        assert float(bits[0]) == pytest.approx(float(nats[0]) / LOG2, rel=1e-9)
        # optimizer columns are never rescaled
        assert bits[3] == nats[3]
