import json
import math

import numpy as np
import pytest

from swstream import codec
from swstream.codec import (
    BinningSchedule,
    CandidateOverflowError,
    encode_step,
    first_errors,
    initial_candidates,
    replay_bins,
    update_candidates,
)
from oracles import ideal_bins
from swstream.info_core import JointDistribution
from swstream.sim import (
    _sample_rows,
    _tally_chunk,
    _trial_seeds,
    DECODERS,
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
        0, {0: 330, 2: 188, 4: 96, 6: 49, 8: 35}, _zeros((0, 2, 4, 6, 8)),
        {0: 330, 2: 188, 4: 96, 6: 49, 8: 35}),
    # the source, horizon, delays and seed of test_8 at 2,000 trials
    "ml-n24": (
        dict(source=JointDistribution.from_marginal([0.9, 0.1]), n=24,
             delays=tuple(range(4, 13)), trials=2000, base_seed=20250606),
        0, {4: 119, 5: 88, 6: 65, 7: 41, 8: 27, 9: 18, 10: 14, 11: 9, 12: 8},
        _zeros(range(4, 13)),
        {4: 119, 5: 88, 6: 65, 7: 41, 8: 27, 9: 18, 10: 14, 11: 9, 12: 8}),
    "universal": (
        dict(source=_EXAMPLE2, decoder="universal", n=10, delays=tuple(range(7)),
             trials=300, base_seed=5),
        0, {0: 233, 1: 189, 2: 142, 3: 106, 4: 74, 5: 61, 6: 42}, _zeros(range(7)),
        {0: 233, 1: 189, 2: 142, 3: 106, 4: 74, 5: 61, 6: 42}),
    "si_universal-ternary-2bits": (
        dict(source=_TERNARY, decoder="si_universal", schedule_x=TWO_BITS, n=8,
             delays=tuple(range(5)), trials=300, base_seed=6),
        0, {0: 139, 1: 94, 2: 58, 3: 40, 4: 25}, _zeros(range(5)),
        {0: 139, 1: 94, 2: 58, 3: 40, 4: 25}),
    "sw_ml": (
        dict(source=_EXAMPLE2, decoder="sw_ml", schedule_y=ONE_BIT, n=10,
             delays=tuple(range(7)), trials=300, base_seed=7),
        0, {0: 51, 1: 34, 2: 23, 3: 19, 4: 8, 5: 5, 6: 3},
        {0: 50, 1: 38, 2: 26, 3: 18, 4: 12, 5: 9, 6: 7},
        {0: 74, 1: 54, 2: 42, 3: 31, 4: 18, 5: 13, 6: 9}),
    # schedules with 0-bit steps at a cap that aborts some trials but not all
    "ml-aborts": (
        dict(schedule_x=_SPARSE, n=12, delays=(0, 4, 8), trials=200, base_seed=3,
             candidate_cap=500),
        168, {0: 32, 4: 32, 8: 27}, _zeros((0, 4, 8)), {0: 32, 4: 32, 8: 27}),
    "sw_ml-aborts": (
        dict(decoder="sw_ml", schedule_x=_SPARSE, schedule_y=BinningSchedule((1, 0, 0)),
             n=12, delays=(0, 4, 8), trials=80, base_seed=3, candidate_cap=450),
        76, {0: 4, 4: 4, 8: 3}, {0: 4, 4: 4, 8: 3}, {0: 4, 4: 4, 8: 3}),
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

    @pytest.mark.parametrize("decoder", ["ml", "universal", "si_ml", "si_universal",
                                         "sw_ml", "sw_universal"])
    def test_streams(self, decoder):
        # the streams each decoder bins: y only for the two-encoder decoders,
        # whatever schedule_y the config holds
        cfg = _cfg(source=_TERNARY, decoder=decoder, schedule_x=TWO_BITS,
                   schedule_y=ONE_BIT)
        want = (("x", 3, TWO_BITS), ("y", 2, ONE_BIT))
        assert cfg.streams == (want if decoder.startswith("sw") else want[:1])

    @pytest.mark.parametrize("decoder", ["sw_ml", "sw_universal"])
    def test_two_encoder_needs_schedule_y(self, decoder):
        with pytest.raises(ValueError, match="schedule_y"):
            _cfg(decoder=decoder)

    @pytest.mark.parametrize("decoder", ["si_ml", "si_universal", "sw_ml", "sw_universal"])
    def test_side_info_needs_y(self, decoder):
        pp = JointDistribution.from_marginal([0.5, 0.5])
        with pytest.raises(ValueError, match=r"needs \|Y\| >= 2"):
            _cfg(source=pp, decoder=decoder, schedule_y=ONE_BIT)

    @pytest.mark.parametrize("decoder, schedule_y", [
        (decoder, schedule_y) for decoder in DECODERS for schedule_y in (None, ONE_BIT)
        if schedule_y or not decoder.startswith("sw")])
    def test_file_round_trip(self, decoder, schedule_y):
        cfg = _cfg(source=_TERNARY, decoder=decoder, schedule_x=_SPARSE,
                   schedule_y=schedule_y, delays=(4, 0, 2), base_seed=-3)
        text = cfg.to_json()
        assert TrialConfig.from_json(text) == cfg
        assert "candidate_cap" not in json.loads(text)


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

    @pytest.mark.parametrize("base_seed", [0, -1, 2 ** 70])
    def test_chunk_seeds_are_the_one_trial_seeds(self, base_seed):
        # a chunk derives its trials' seeds in one uint64 pass; each is the
        # one-trial Python-int seed, wherever the chunk starts
        for start, stop in ((0, 5), (37, 60), (2 ** 40, 2 ** 40 + 3)):
            seeds = _trial_seeds(base_seed, np.arange(start, stop, dtype=np.uint64))
            assert seeds.dtype == np.uint64
            assert seeds.tolist() == [derive_trial_seed(base_seed, t)
                                      for t in range(start, stop)]

    def test_trial_seed_known_answers(self):
        # literal values of mix(k + (t + 1) * phi), k the 8-byte BLAKE2b of
        # b"trial:<base seed>": a change of the seed layout fails here
        assert derive_trial_seed(0, 0) == 0xD61782DF014572AC
        assert derive_trial_seed(11, 5) == 0x8C79E1B9CD281F48
        assert derive_trial_seed(np.int64(11), np.int64(5)) == 0x8C79E1B9CD281F48

    def test_rows_known_answer(self):
        # literal x and y rows of four seeds on a 3 x 5 table with zero
        # cells: a change of how a joint symbol splits into its x and y
        # fails here
        probs = [[0.1, 0.0, 0.05, 0.05, 0.1], [0.02, 0.08, 0.1, 0.0, 0.1],
                 [0.2, 0.05, 0.0, 0.1, 0.05]]
        x, y = _sample_rows(JointDistribution.from_matrix(probs), 8, [0, 1, 7, 2 ** 64 - 1])
        assert x.dtype == y.dtype == np.uint8
        assert x.tolist() == [[2, 2, 2, 2, 1, 2, 2, 0], [2, 2, 2, 1, 1, 2, 1, 1],
                              [1, 0, 1, 1, 1, 2, 0, 0], [2, 1, 1, 0, 1, 0, 1, 2]]
        assert y.tolist() == [[0, 0, 0, 3, 2, 3, 0, 0], [3, 3, 4, 2, 1, 1, 2, 2],
                              [2, 4, 1, 4, 4, 0, 4, 4], [0, 2, 1, 4, 2, 0, 4, 3]]
        assert all(probs[a][b] > 0 for a, b in zip(x.ravel().tolist(), y.ravel().tolist()))

    def test_largest_uniform_skips_trailing_zero_cells(self, monkeypatch):
        # the positive cells sum, left to right, to just under 1, and the
        # last cell is 0: all-ones chain words give every position the
        # largest uniform, 1 - 2^-53, which must still land on a positive cell
        d = JointDistribution.from_marginal([0.06, 0.57, 0.37, 0.0])
        assert np.cumsum(np.array(d.probs).ravel())[2] < 1.0
        monkeypatch.setattr("swstream.sim._chain", lambda state, symbol: np.full(
            np.broadcast(state, symbol).shape, 2 ** 64 - 1, np.uint64))
        x, y = _sample_rows(d, 8, [0, 1, 2])
        assert all(d.probs[a][b] > 0 for a, b in zip(x.ravel().tolist(), y.ravel().tolist()))

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

    @pytest.mark.usefixtures("two_cpus")
    def test_thread_count_invariant(self):
        cfg = _cfg(trials=200, decoder="universal")
        a = run_trials(cfg, threads=1)
        b = run_trials(cfg, threads=2)
        assert a == b

    def test_pool_has_one_worker_per_cpu(self, fake_pool):
        # a fork pool starts all its workers at the first task: 10,000
        # threads on 2 CPUs run 2 workers and at most 8 chunks each, with
        # the counts of a serial run
        cfg = _cfg(trials=200, decoder="universal")
        assert run_trials(cfg, threads=10_000) == run_trials(cfg, threads=1)
        assert len(fake_pool) == 1
        workers, tasks = fake_pool[0]
        assert workers == 2 and tasks <= 16

    def test_sw_universal_counts_pinned(self):
        # the benchmark's mc-sw-universal config at 150 trials; the counts
        # were recorded from the per-pair O(P^2) score decoder
        cfg = _cfg(schedule_y=ONE_BIT, n=10, delays=tuple(range(7)), trials=150,
                   base_seed=11, decoder="sw_universal")
        stats = run_trials(cfg)
        assert stats.aborted == 0
        assert stats.errors_x == {0: 92, 1: 74, 2: 58, 3: 37, 4: 29, 5: 24, 6: 16}
        assert stats.errors_y == {0: 93, 1: 76, 2: 59, 3: 48, 4: 38, 5: 31, 6: 20}
        assert stats.errors_joint == {
            0: 114, 1: 101, 2: 86, 3: 67, 4: 55, 5: 47, 6: 31,
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
        ("si_ml", 16), ("ml", 24), ("universal", 24), ("si_universal", 16),
        ("sw_ml", 10), ("sw_universal", 8),
    ])
    @pytest.mark.usefixtures("two_cpus")
    def test_thread_count_invariant_across_chunks(self, decoder, n):
        source = JointDistribution.from_marginal([0.9, 0.1]) if decoder == "ml" \
            else _example1()
        cfg = _cfg(source=source, decoder=decoder, schedule_y=ONE_BIT, n=n,
                   delays=(0, 2, 4), trials=1001, base_seed=5)
        assert cfg.trials % cfg.chunk_size != 0
        assert run_trials(cfg, threads=1) == run_trials(cfg, threads=2)

    @pytest.mark.parametrize("kw", [
        # the README simulate config at 1,000 trials
        dict(decoder="si_ml", n=16, delays=(0, 2, 4, 6, 8), trials=1000, base_seed=11),
        PINNED["sw_ml-aborts"][0],
        # the source, horizon and seed of test_8 at 300 trials
        dict(source=JointDistribution.from_marginal([0.9, 0.1]), n=24, delays=(4, 8, 12),
             trials=300, base_seed=20250606),
        PINNED["universal"][0],
        PINNED["si_universal-ternary-2bits"][0],
        # the benchmark's mc-sw-universal config at 300 trials
        dict(decoder="sw_universal", schedule_y=ONE_BIT, n=10, delays=tuple(range(7)),
             trials=300, base_seed=11),
    ], ids=["readme", "sw_ml-aborts", "ml", "universal", "si_universal", "sw_universal"])
    def test_results_independent_of_chunk_budget(self, kw, monkeypatch):
        # one trial per chunk, the default chunks and chunks 2 times as large
        cfg = _cfg(**kw)
        sizes, results = [], []
        for lanes in (7, codec._CHUNK_LANES, 2 ** 16):
            monkeypatch.setattr(codec, "_CHUNK_LANES", lanes)
            sizes.append(cfg.chunk_size)
            results.append(run_trials(cfg))
        assert sizes[0] == 1 < sizes[1] < sizes[2]
        assert results[0] == results[1] == results[2]
        assert (results[0].aborted > 0) == (cfg.decoder == "sw_ml")

    @pytest.mark.parametrize("kw", [
        # the benchmark's mc-sw-universal config at 300 trials
        dict(decoder="sw_universal", schedule_y=ONE_BIT, n=10, trials=300, base_seed=11),
        dict(source=_TERNARY, decoder="sw_universal", schedule_x=TWO_BITS,
             schedule_y=ONE_BIT, n=7, trials=150, base_seed=6),
    ], ids=["mc-sw-universal", "ternary"])
    def test_scores_independent_of_pair_budget(self, kw, monkeypatch):
        # each trial's scores alone are its slice of the whole chunk's; the
        # whole chunk's scores at a block budget of 1, 7, the default and
        # 2 ** 16: each depth's cells in blocks of one trial, of one or a few
        # trials, the default blocks and one block; and the winners at a
        # group budget of 1, 7, the default and 2 ** 16: one trial per group,
        # small groups, the default groups and the whole chunk in one group
        cfg = _cfg(**kw)
        seeds = _trial_seeds(cfg.base_seed, np.arange(cfg.trials, dtype=np.uint64))
        x_rows, y_rows = _sample_rows(cfg.source, cfg.n, seeds)
        bins_x = replay_bins(seeds, x_rows, "x", cfg.schedule_x, cfg.source.alphabet_x)
        bins_y = replay_bins(seeds, y_rows, "y", cfg.schedule_y, cfg.source.alphabet_y)
        chunk = bins_x.trial, bins_x.prefixes, bins_y.trial, bins_y.prefixes, cfg.trials
        whole = codec._group_scores(*chunk)
        ends = np.cumsum(np.bincount(bins_x.trial, minlength=cfg.trials)
                         * np.bincount(bins_y.trial, minlength=cfg.trials))
        for t in range(cfg.trials):
            x0, x1 = np.searchsorted(bins_x.trial, (t, t + 1))
            y0, y1 = np.searchsorted(bins_y.trial, (t, t + 1))
            alone = codec._group_scores(bins_x.trial[x0:x1] - t, bins_x.prefixes[x0:x1],
                                        bins_y.trial[y0:y1] - t, bins_y.prefixes[y0:y1], 1)
            part = slice(ends[t] - len(alone[0]), ends[t])
            for want, got, lane in zip(whole, alone, (x0, y0, 0, 0)):
                assert np.array_equal(want[part], got + lane)
        for name, call in (("_BLOCK_PAIRS", codec._group_scores),
                           ("_GROUP_PAIRS", codec._sw_winners)):
            default = getattr(codec, name)
            results = []
            for budget in (1, 7, default, 2 ** 16):
                monkeypatch.setattr(codec, name, budget)
                results.append(call(*chunk))
            monkeypatch.setattr(codec, name, default)
            for result in results[1:]:
                for want, got in zip(results[0], result):
                    assert np.array_equal(want, got)
        # the ternary chunk's 1,846 pairs fit one default group
        pairs = len(whole[0])
        assert pairs == ends[-1]
        assert 7 < pairs < 2 ** 16
        assert (pairs > codec._GROUP_PAIRS) == (cfg.source is not _TERNARY)

    @pytest.mark.parametrize("decoder", [
        "universal", "si_ml", "si_universal", "sw_ml", "sw_universal"])
    def test_range_counters_sum_over_any_split(self, decoder):
        # a smaller cap keeps the sw_universal bin products, and the run,
        # small
        cap = 120 if decoder == "sw_universal" else 200
        cfg = _cfg(decoder=decoder, schedule_y=ONE_BIT, schedule_x=_SPARSE, n=10,
                   trials=90, base_seed=2, candidate_cap=cap)
        whole = _tally_chunk(cfg, 0, cfg.trials)
        hist, aborted, sizes = whole
        streams = len(cfg.streams)
        assert hist.shape == (3, cfg.n + 2)
        assert aborted.shape == (streams, cfg.n) and sizes.shape == (streams, 3)
        assert 0 < aborted.sum() < cfg.trials
        assert (hist.sum(axis=1) == cfg.trials - aborted.sum()).all()
        for cuts in ([0, 1, 2, 90], [0, 37, 38, 61, 90], [0, 45, 90]):
            parts = [_tally_chunk(cfg, a, b) for a, b in zip(cuts, cuts[1:])]
            for i, want in enumerate(whole):
                assert all(p[i].dtype.kind == "i" for p in parts)
                assert np.array_equal(sum(p[i] for p in parts), want)

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
                    want[j] = want.get(j, 0) + 1
                    break
        stats = run_trials(cfg)
        assert stats.aborted == 5
        assert stats.aborted_by_step == {"x": want}
        assert stats.rate_x_upper(0) == 1.0

    def test_y_stream_aborts_counted_under_y(self):
        kw = PINNED["sw_ml-aborts"][0]
        stats = run_trials(_cfg(**kw))
        assert set(stats.aborted_by_step) == {"x", "y"}
        assert sum(sum(by_step.values()) for by_step in stats.aborted_by_step.values()) \
            == stats.aborted == 76
        for d in stats.delays:
            assert stats.rate_x_upper(d) == (stats.errors_x[d] + 76) / 80

    def test_overflow_counted_as_aborted(self):
        sparse = BinningSchedule((1, 0, 0, 0))
        cfg = _cfg(schedule_x=sparse, n=16, delays=(0,), trials=5,
                   candidate_cap=64)
        stats = run_trials(cfg)
        assert stats.aborted == 5
        assert stats.trials == 0


class TestIdealHash:
    """The PRF's error statistics are those of the paper's ideal hash: the
    PRF route (`replay_bins`) and the ideal route (`oracles.ideal_bins`)
    decode the same sampled sources, and at every delay their x-error counts
    agree within 4 pooled two-sample standard errors.  The configs, both
    seeds (123 for the sources, 2024 for the ideal hash) and the bound were
    fixed before any result was seen."""

    @staticmethod
    def _errors(cfg, bins_of):
        seeds = _trial_seeds(cfg.base_seed, np.arange(cfg.trials, dtype=np.uint64))
        rows = dict(zip("xy", _sample_rows(cfg.source, cfg.n, seeds)))
        bins = {stream: bins_of(seeds, rows[stream], stream, schedule, alphabet)
                for stream, alphabet, schedule in cfg.streams}
        fx, _ = first_errors(cfg.decoder, cfg.source, bins["x"], bins.get("y"),
                             rows["x"], rows["y"])
        return np.array([np.count_nonzero(fx <= cfg.n - d) for d in cfg.delays])

    @pytest.mark.parametrize("kw", [
        dict(source=JointDistribution.from_marginal([0.9, 0.1]), n=24,
             delays=(0, 4, 8, 12), trials=10_000),
        dict(source=_EXAMPLE2, decoder="universal", n=12, delays=(0, 2, 4, 6),
             trials=5_000),
        dict(decoder="si_ml", n=16, delays=(0, 2, 4, 6, 8), trials=10_000),
        dict(source=_TERNARY, decoder="si_universal", schedule_x=TWO_BITS, n=8,
             delays=(0, 2, 4), trials=5_000),
        dict(source=_EXAMPLE2, decoder="sw_ml", schedule_y=ONE_BIT, n=10,
             delays=(0, 2, 4, 6), trials=5_000),
        dict(decoder="sw_universal", schedule_y=ONE_BIT, n=10, delays=(0, 2, 4, 6),
             trials=2_000),
    ], ids=["ml", "universal", "si_ml", "si_universal", "sw_ml", "sw_universal"])
    def test_prf_errors_match_the_ideal_hash(self, kw):
        cfg = _cfg(base_seed=123, **kw)
        rng = np.random.default_rng(2024)
        prf = self._errors(cfg, lambda seeds, seqs, stream, schedule, alphabet:
                           replay_bins(seeds, seqs, stream, schedule, alphabet))
        ideal = self._errors(cfg, lambda seeds, seqs, stream, schedule, alphabet:
                             ideal_bins(rng, seqs, schedule, alphabet))
        pooled = (prf + ideal) / (2 * cfg.trials)
        bound = 4 * np.sqrt(2 * cfg.trials * pooled * (1 - pooled))
        assert (np.abs(prf - ideal) <= bound).all(), (prf.tolist(), ideal.tolist())
        assert ideal[0] > 0


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
