import json
import math

import numpy as np
import pytest

from swstream.codec import (
    BinningSchedule,
    CandidateOverflowError,
    chunk_trials,
    encode_step,
    initial_candidates,
    update_candidates,
)
from swstream.info_core import JointDistribution
from swstream.sim import (
    _run_chunk,
    DelayErrorStats,
    FitResult,
    TrialConfig,
    derive_trial_seed,
    fit_exponent,
    fit_to_json,
    run_trials,
    sample_source,
    stats_to_csv,
    wilson_interval,
)

ONE_BIT = BinningSchedule((1,))
TWO_BITS = BinningSchedule((2,))


def _example1():
    return JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])


def _zeros(delays):
    return dict.fromkeys(delays, 0)


_EXAMPLE2 = JointDistribution.from_matrix([[0.1, 0.05], [0.05, 0.8]])
_TERNARY = JointDistribution.from_matrix([[0.3, 0.05], [0.05, 0.3], [0.1, 0.2]])
_SPARSE = BinningSchedule((1, 0, 0, 0))

# name -> (TrialConfig fields, aborted, errors_x, errors_y, errors_joint)
PINNED = {
    # the benchmark's mc-si-ml config at 2,000 trials
    "si_ml-bench": (
        dict(decoder="si_ml", n=16, delays=(0, 2, 4, 6, 8), trials=2000,
             base_seed=11),
        0, {0: 344, 2: 194, 4: 106, 6: 56, 8: 27}, _zeros((0, 2, 4, 6, 8)),
        {0: 344, 2: 194, 4: 106, 6: 56, 8: 27}),
    # the source, horizon, delays and seed of test_8 at 2,000 trials
    "ml-n24": (
        dict(source=JointDistribution.from_marginal([0.9, 0.1]), n=24,
             delays=tuple(range(4, 13)), trials=2000, base_seed=20250606),
        0, {4: 114, 5: 79, 6: 58, 7: 47, 8: 39, 9: 30, 10: 22, 11: 19, 12: 14},
        _zeros(range(4, 13)),
        {4: 114, 5: 79, 6: 58, 7: 47, 8: 39, 9: 30, 10: 22, 11: 19, 12: 14}),
    "universal": (
        dict(source=_EXAMPLE2, decoder="universal", n=10, delays=tuple(range(7)),
             trials=300, base_seed=5),
        0, {0: 209, 1: 153, 2: 114, 3: 85, 4: 63, 5: 54, 6: 38}, _zeros(range(7)),
        {0: 209, 1: 153, 2: 114, 3: 85, 4: 63, 5: 54, 6: 38}),
    "si_universal-ternary-2bits": (
        dict(source=_TERNARY, decoder="si_universal", schedule_x=TWO_BITS, n=8,
             delays=tuple(range(5)), trials=300, base_seed=6),
        0, {0: 145, 1: 89, 2: 57, 3: 33, 4: 20}, _zeros(range(5)),
        {0: 145, 1: 89, 2: 57, 3: 33, 4: 20}),
    "sw_ml": (
        dict(source=_EXAMPLE2, decoder="sw_ml", schedule_y=ONE_BIT, n=10,
             delays=tuple(range(7)), trials=300, base_seed=7),
        0, {0: 45, 1: 30, 2: 17, 3: 11, 4: 6, 5: 4, 6: 2},
        {0: 44, 1: 29, 2: 21, 3: 13, 4: 7, 5: 5, 6: 4},
        {0: 69, 1: 51, 2: 35, 3: 22, 4: 13, 5: 9, 6: 6}),
    # schedules with 0-bit steps at a cap that aborts some trials but not all
    "ml-aborts": (
        dict(schedule_x=_SPARSE, n=12, delays=(0, 4, 8), trials=200, base_seed=3,
             candidate_cap=500),
        162, {0: 38, 4: 37, 8: 29}, _zeros((0, 4, 8)), {0: 38, 4: 37, 8: 29}),
    "sw_ml-aborts": (
        dict(decoder="sw_ml", schedule_x=_SPARSE, schedule_y=BinningSchedule((1, 0, 0)),
             n=12, delays=(0, 4, 8), trials=80, base_seed=3, candidate_cap=400),
        77, {0: 3, 4: 3, 8: 2}, {0: 3, 4: 3, 8: 3}, {0: 3, 4: 3, 8: 3}),
}


def _cfg(**kw):
    base = dict(
        source=_example1(),
        schedule_x=ONE_BIT,
        schedule_y=None,
        n=8,
        delays=(0, 2, 4),
        trials=50,
        base_seed=7,
        decoder="ml",
    )
    base.update(kw)
    return TrialConfig(**base)


class TestTrialConfig:
    def test_unknown_decoder(self):
        with pytest.raises(ValueError):
            _cfg(decoder="viterbi")

    def test_trials_positive(self):
        with pytest.raises(ValueError):
            _cfg(trials=0)

    def test_delays_sorted_and_bounded(self):
        cfg = _cfg(delays=(4, 0, 2))
        assert cfg.delays == (0, 2, 4)
        with pytest.raises(ValueError):
            _cfg(delays=(9,))
        with pytest.raises(ValueError):
            _cfg(delays=())

    def test_horizon_caps(self):
        with pytest.raises(ValueError):
            _cfg(n=25, delays=(0,))
        with pytest.raises(ValueError):
            _cfg(decoder="sw_universal", schedule_y=ONE_BIT, n=13, delays=(0,))

    @pytest.mark.parametrize("field, value", [
        ("n", 16.5), ("n", math.inf), ("trials", 100.9), ("base_seed", 1.5),
        ("delays", (0, 1.5)), ("delays", (math.nan,)),
        ("n", "8"), ("trials", True),
    ])
    def test_non_integral_numbers_rejected(self, field, value):
        with pytest.raises(ValueError):
            _cfg(**{field: value})

    def test_integral_floats_become_ints(self):
        cfg = _cfg(n=8.0, trials=5e1, base_seed=7.0, delays=(4.0, 0.0))
        assert (cfg.n, cfg.trials, cfg.base_seed, cfg.delays) == (8, 50, 7, (0, 4))
        assert all(type(v) is int for v in (cfg.n, cfg.trials, cfg.base_seed, *cfg.delays))

    def test_two_encoder_needs_schedule_y(self):
        with pytest.raises(ValueError):
            _cfg(decoder="sw_ml")

    def test_side_info_needs_y(self):
        pp = JointDistribution.from_marginal([0.5, 0.5])
        with pytest.raises(ValueError):
            _cfg(source=pp, decoder="si_ml")


class TestSampling:
    def test_reproducible(self):
        d = _example1()
        assert sample_source(d, 20, 5) == sample_source(d, 20, 5)
        assert sample_source(d, 20, 5) != sample_source(d, 20, 6)

    @pytest.mark.parametrize("shape, symbol", [((2, 300), (0, 290)), ((300, 2), (299, 1))],
                             ids=["y290", "x299"])
    def test_alphabet_above_256_rejected(self, shape, symbol):
        # one byte per symbol cannot hold symbol 290 (or 299): it would wrap
        probs = np.zeros(shape)
        probs[symbol] = 1.0
        with pytest.raises(ValueError, match="one byte per symbol"):
            sample_source(JointDistribution.from_matrix(probs), 5, 1)

    def test_trial_seeds_distinct(self):
        seeds = {derive_trial_seed(3, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_trial_seed(3, 0) != derive_trial_seed(4, 0)

    def test_point_mass(self):
        d = JointDistribution.from_matrix([[0.0, 0.0], [0.0, 1.0]])
        x, y = sample_source(d, 50, 1)
        assert x == b"\x01" * 50 and y == b"\x01" * 50

    def test_empirical_frequencies(self):
        x, y = sample_source(_example1(), 100_000, 42)
        both_zero = sum(a == 0 and b == 0 for a, b in zip(x, y)) / 100_000
        assert both_zero == pytest.approx(0.45, abs=0.01)
        assert sum(a == 0 for a in x) / 100_000 == pytest.approx(0.5, abs=0.01)


class TestRunTrials:
    def test_high_rate_rarely_errs(self):
        # 2 bits/symbol on a skewed binary source: the truth almost always
        # dominates the few spurious bin members in likelihood.  (A uniform
        # source would still err via lexicographic tie-breaks.)
        skew = JointDistribution.from_marginal([0.9, 0.1])
        cfg = _cfg(source=skew, schedule_x=TWO_BITS, trials=100)
        stats = run_trials(cfg)
        assert stats.aborted == 0
        assert stats.errors_x[0] <= 5
        assert stats.errors_x[4] == 0

    def test_error_counts_nested_in_delay(self):
        cfg = _cfg(trials=400, delays=tuple(range(0, 9)))
        stats = run_trials(cfg)
        counts = [stats.errors_x[d] for d in cfg.delays]
        assert all(b <= a for a, b in zip(counts, counts[1:]))
        assert stats.errors_x[0] > 0  # 1 bit/symbol on a uniform source

    def test_joint_errors_bound_marginals(self):
        cfg = _cfg(decoder="sw_universal", schedule_y=ONE_BIT, n=6,
                   delays=(0, 2), trials=60,
                   source=JointDistribution.from_matrix(
                       [[0.1, 0.05], [0.05, 0.8]]))
        stats = run_trials(cfg)
        for d in cfg.delays:
            assert stats.errors_joint[d] >= max(stats.errors_x[d], stats.errors_y[d])
            assert stats.errors_joint[d] <= stats.errors_x[d] + stats.errors_y[d]

    def test_single_stream_y_never_errors(self):
        stats = run_trials(_cfg(trials=30))
        assert all(v == 0 for v in stats.errors_y.values())

    def test_thread_count_invariant(self):
        cfg = _cfg(trials=200, decoder="universal")
        a = run_trials(cfg, threads=1)
        b = run_trials(cfg, threads=2)
        assert a == b

    def test_sw_universal_counts_pinned(self):
        # the benchmark's mc-sw-universal config at 150 trials; the counts
        # were recorded from the per-pair O(P^2) score decoder
        cfg = _cfg(schedule_y=ONE_BIT, n=10, delays=tuple(range(7)), trials=150,
                   base_seed=11, decoder="sw_universal")
        stats = run_trials(cfg)
        assert stats.aborted == 0
        assert stats.errors_x == {0: 88, 1: 71, 2: 61, 3: 49, 4: 38, 5: 30, 6: 20}
        assert stats.errors_y == {0: 97, 1: 80, 2: 61, 3: 43, 4: 28, 5: 20, 6: 16}
        assert stats.errors_joint == {
            0: 121, 1: 110, 2: 98, 3: 77, 4: 59, 5: 47, 6: 36,
        }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_counts_pinned(self, name):
        # counts recorded by running each config through the per-trial
        # scalar replay (initial_candidates/encode_step/update_candidates)
        kw, aborted, ex, ey, ej = PINNED[name]
        stats = run_trials(_cfg(**kw))
        assert stats.aborted == aborted
        assert stats.errors_x == ex
        assert stats.errors_y == ey
        assert stats.errors_joint == ej

    @pytest.mark.parametrize("decoder, n", [
        ("si_ml", 16), ("ml", 24), ("sw_ml", 10), ("sw_universal", 8),
    ])
    def test_thread_count_invariant_across_chunks(self, decoder, n):
        source = JointDistribution.from_marginal([0.9, 0.1]) if decoder == "ml" \
            else _example1()
        streams = [(2, ONE_BIT)] * (2 if decoder.startswith("sw") else 1)
        cfg = _cfg(source=source, decoder=decoder, schedule_y=ONE_BIT, n=n,
                   delays=(0, 2, 4), trials=1001, base_seed=5)
        assert cfg.trials % chunk_trials(n, streams) != 0
        assert run_trials(cfg, threads=1) == run_trials(cfg, threads=2)

    @pytest.mark.parametrize("decoder", ["si_ml", "si_universal", "sw_ml", "sw_universal"])
    def test_range_counters_sum_over_any_split(self, decoder):
        # the score pass is quadratic in the bin product: a smaller cap keeps
        # sw_universal to a couple of seconds
        cap = 120 if decoder == "sw_universal" else 200
        cfg = _cfg(decoder=decoder, schedule_y=ONE_BIT, schedule_x=_SPARSE, n=10,
                   trials=90, base_seed=2, candidate_cap=cap)
        whole, whole_aborted = _run_chunk(cfg, 0, cfg.trials)
        assert 0 < whole_aborted.total() < cfg.trials
        assert whole.shape == (3, cfg.n + 2)
        assert (whole.sum(axis=1) == cfg.trials - whole_aborted.total()).all()
        for cuts in ([0, 1, 2, 90], [0, 37, 38, 61, 90], [0, 45, 90]):
            parts = [_run_chunk(cfg, a, b) for a, b in zip(cuts, cuts[1:])]
            assert (sum(h for h, _ in parts) == whole).all()
            aborted = {}
            for _, p in parts:
                for where, count in p.items():
                    aborted[where] = aborted.get(where, 0) + count
            assert aborted == whole_aborted

    def test_aborts_recorded_by_stream_and_step(self):
        # the sparse small-cap config: every trial overflows, at the step
        # where the scalar replay of its x stream raises
        cfg = _cfg(schedule_x=_SPARSE, n=16, delays=(0,), trials=5,
                   candidate_cap=64)
        want = {}
        for t in range(cfg.trials):
            seed = derive_trial_seed(cfg.base_seed, t)
            x, _ = sample_source(cfg.source, cfg.n, seed)
            cands = initial_candidates(seed, "x", _SPARSE, 2)
            for j in range(1, cfg.n + 1):
                try:
                    cands = update_candidates(cands, encode_step(seed, "x", x[:j], _SPARSE),
                                              cap=64)
                except CandidateOverflowError:
                    want[("x", j)] = want.get(("x", j), 0) + 1
                    break
        stats = run_trials(cfg)
        assert stats.aborted == 5
        assert stats.aborted_by_step == want
        assert stats.rate_x_upper(0) == 1.0

    def test_y_stream_aborts_counted_under_y(self):
        kw = PINNED["sw_ml-aborts"][0]
        stats = run_trials(_cfg(**kw))
        assert sum(stats.aborted_by_step.values()) == stats.aborted == 77
        assert {s for s, _ in stats.aborted_by_step} == {"x", "y"}
        for d in stats.delays:
            assert stats.rate_x_upper(d) == (stats.errors_x[d] + 77) / 80

    def test_overflow_counted_as_aborted(self):
        sparse = BinningSchedule((1, 0, 0, 0))
        cfg = _cfg(schedule_x=sparse, n=16, delays=(0,), trials=5,
                   candidate_cap=64)
        stats = run_trials(cfg)
        assert stats.aborted == 5
        assert stats.trials == 0


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        for k, n in [(0, 100), (3, 100), (50, 100), (100, 100)]:
            lo, hi = wilson_interval(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0

    def test_known_value(self):
        # k=10, n=100: classic Wilson bounds
        lo, hi = wilson_interval(10, 100)
        assert lo == pytest.approx(0.0552, abs=2e-3)
        assert hi == pytest.approx(0.1744, abs=2e-3)

    def test_shrinks_with_trials(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(100, 1000)
        assert hi2 - lo2 < hi1 - lo1

    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


def _stats_from_rates(rates, trials, delays=None):
    delays = tuple(range(len(rates))) if delays is None else delays
    errs = {d: round(r * trials) for d, r in zip(delays, rates)}
    zero = dict.fromkeys(delays, 0)
    return DelayErrorStats(delays=delays, trials=trials, errors_x=errs,
                           errors_y=dict(zero), errors_joint=dict(errs))


class TestFit:
    def test_exact_exponential_decay(self):
        trials = 10_000_000
        rates = [0.5 * math.exp(-0.3 * d) for d in range(8)]
        fit = fit_exponent(_stats_from_rates(rates, trials))
        assert fit.ok
        assert fit.slope == pytest.approx(0.3, abs=1e-4)
        assert fit.r2 > 0.9999

    def test_constant_rate_zero_slope(self):
        fit = fit_exponent(_stats_from_rates([0.25] * 6, 1_000_000))
        assert fit.slope == pytest.approx(0.0, abs=1e-9)

    def test_too_few_points_diagnostic(self):
        fit = fit_exponent(_stats_from_rates([0.5, 0.25], 1000))
        assert not fit.ok
        assert math.isnan(fit.slope)
        assert fit.points_used == 2

    def test_zero_error_delays_dropped(self):
        rates = [0.4, 0.2, 0.1, 0.05, 0.0, 0.0]
        fit = fit_exponent(_stats_from_rates(rates, 10_000))
        assert fit.points_used == 4
        assert fit.ok

    def test_noisy_points_downweighted(self):
        # the final near-empty cell gets a huge log-scale sigma; the fitted
        # slope should stay near the clean value
        trials = 1_000_000
        rates = [0.5 * math.exp(-0.3 * d) for d in range(6)] + [3 / trials]
        fit = fit_exponent(_stats_from_rates(rates, trials))
        assert fit.slope == pytest.approx(0.3, abs=0.05)


class TestExport:
    def test_csv_shape(self):
        stats = run_trials(_cfg(trials=40))
        text = stats_to_csv(stats)
        lines = text.strip().split("\n")
        assert lines[0] == "delta,trials,errors_x,errors_y,errors_joint,rate_x_err,lo95,hi95"
        assert len(lines) == 1 + len(stats.delays)
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == 8
            lo, hi = float(fields[6]), float(fields[7])
            assert lo <= float(fields[5]) <= hi

    def test_fit_json_round_trip(self):
        fit = FitResult(slope=0.25, stderr=0.01, r2=0.99, points_used=5)
        obj = json.loads(fit_to_json(fit))
        assert obj == {"slope": 0.25, "stderr": 0.01, "r2": 0.99, "points_used": 5}

    def test_fit_json_nan_becomes_null(self):
        fit = FitResult(math.nan, math.nan, math.nan, 1)
        obj = json.loads(fit_to_json(fit))
        assert obj["slope"] is None and obj["points_used"] == 1


class TestEndToEndDecay:
    def test_error_rate_decays_with_delay(self):
        # 1 bit/symbol on Example-1 side-information decoding: positive rate
        # margin, so errors thin out as the delay grows
        cfg = _cfg(decoder="si_ml", n=12, delays=tuple(range(0, 13, 2)),
                   trials=600, base_seed=100)
        stats = run_trials(cfg)
        assert stats.errors_x[0] > stats.errors_x[8]
        fit = fit_exponent(stats)
        if fit.ok:
            assert fit.slope > 0

    def test_zero_margin_decays_slower_than_positive_margin(self):
        # rate exactly at the source entropy (1 bit/symbol, uniform binary)
        # has exponent zero; the residual finite-horizon decay must sit well
        # below the slope measured with a real rate margin (same rate on a
        # Bern(0.1) source, margin ~ 0.37 nats)
        uni = JointDistribution.from_marginal([0.5, 0.5])
        skew = JointDistribution.from_marginal([0.9, 0.1])
        delays = tuple(range(0, 10))
        fit0 = fit_exponent(run_trials(
            _cfg(source=uni, n=12, delays=delays, trials=400, base_seed=3)))
        fit1 = fit_exponent(run_trials(
            _cfg(source=skew, n=12, delays=delays, trials=400, base_seed=3)))
        assert fit0.ok and fit1.ok
        assert fit0.slope < 0.2 < fit1.slope
        assert fit1.slope - fit0.slope > 2 * (fit0.stderr + fit1.stderr)
