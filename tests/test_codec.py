import collections
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swstream import codec, sim
from swstream.codec import (
    _CHUNK_LANES,
    _LANE_BUDGET,
    _weighted_entropies,
    _window_counts,
    DECODERS,
    BinningSchedule,
    CandidateOverflowError,
    CandidateSet,
    candidate_set_for,
    chunk_trials,
    compute_scores,
    encode_step,
    expected_bin_size,
    first_errors,
    initial_candidates,
    ml_decode,
    replay_bins,
    si_decode_ml,
    si_decode_universal,
    sw_ml_decode,
    sw_universal_decode,
    universal_decode,
    update_candidates,
    weighted_suffix_entropy,
)
from swstream.info_core import JointDistribution
from swstream.sim import derive_trial_seed, sample_source
from swstream.verify import _first_near_max, _oracle_ml, _oracle_universal, enumerate_bin
from oracles import (
    _oracle_scores,
    _oracle_sw_ml,
    _oracle_winners,
    _oracle_wse,
)

ONE_BIT = BinningSchedule((1,))
TWO_BITS = BinningSchedule((2,))


class TestBinningSchedule:
    def test_validation(self):
        with pytest.raises(ValueError):
            BinningSchedule(())
        with pytest.raises(ValueError):
            BinningSchedule((1, -1))
        with pytest.raises(ValueError):
            BinningSchedule((0, 0))

    def test_non_integral_bit_count_rejected(self):
        with pytest.raises(ValueError):
            BinningSchedule((1.7, 0.2))
        assert BinningSchedule((2.0, 1)).pattern == (2, 1)

    def test_periodic_pattern(self):
        s = BinningSchedule((2, 1, 1, 1))
        assert [s.bits_at(j) for j in range(1, 9)] == [2, 1, 1, 1, 2, 1, 1, 1]
        assert s.total_bits(6) == 5 + 2 + 1

    def test_total_bits_matches_sum(self):
        s = BinningSchedule((3, 0, 1))
        for n in range(0, 10):
            assert s.total_bits(n) == sum(s.bits_at(j) for j in range(1, n + 1))

    def test_at_most_64_bits_per_step(self):
        # a step's parity bits are the top bits of a 64-bit chain state
        with pytest.raises(ValueError):
            BinningSchedule((1, 65))
        assert BinningSchedule((64, 0)).bits_at(1) == 64


class TestEncodeStep:
    def test_known_answers(self):
        # literal outputs of the hash: a change of its layout fails here
        assert codec._stream_key(0, "x") == 0xEA5B49438730D7B7
        seq = bytes([0, 1, 1, 0, 1, 0, 0, 1])
        assert [encode_step(0, "x", seq[:j], ONE_BIT) for j in range(1, 9)] == \
            [(0,), (0,), (0,), (0,), (0,), (1,), (0,), (0,)]
        ternary = bytes([2, 0, 1, 1])
        assert [encode_step(5, "y", ternary[:j], BinningSchedule((3,)))
                for j in range(1, 5)] == [(1, 0, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)]
        full = encode_step(7, "x", bytes([1, 0]), BinningSchedule((64,)))
        assert int("".join(map(str, full)), 2) == 0x606B13EA8DC81C6C

    def test_stream_key_on_ints_and_lanes(self):
        # the one-trial Python-int key and the lanes' uint64 keys agree, the
        # int taken mod 2^64
        seeds = [0, 5, 2 ** 64 + 5, -1, -3, 2 ** 70, 2 ** 64 - 1]
        for stream_id in ("x", "y"):
            lanes = codec._stream_key(codec._seed_words(seeds), stream_id)
            assert lanes.dtype == np.uint64
            assert lanes.tolist() == [codec._stream_key(s, stream_id) for s in seeds]
            assert lanes.tolist() == [codec._stream_key(s % 2 ** 64, stream_id)
                                      for s in seeds]
        assert codec._stream_key(0, "x") != codec._stream_key(0, "y")
        # the step-wise API takes a numpy int seed as the Python int
        assert encode_step(np.int64(5), "x", b"\x01\x00", TWO_BITS) == \
            encode_step(5, "x", b"\x01\x00", TWO_BITS)

    def test_deterministic(self):
        a = encode_step(7, "x", b"\x01\x00\x01", ONE_BIT)
        b = encode_step(7, "x", b"\x01\x00\x01", ONE_BIT)
        assert a == b
        assert len(a) == 1 and a[0] in (0, 1)

    def test_distinct_keys_decorrelate(self):
        bits_by_key = {
            (seed, sid): tuple(
                encode_step(seed, sid, bytes([v]), ONE_BIT)[0] for v in range(32)
            )
            for seed in (1, 2)
            for sid in ("x", "y")
        }
        vals = list(bits_by_key.values())
        assert len(set(vals)) == len(vals)

    def test_prefix_consistency(self):
        # sequences sharing a prefix share the parities of the shared steps
        s1, s2 = b"\x00\x01\x00", b"\x00\x01\x01"
        for j in (1, 2):
            assert encode_step(3, "x", s1[:j], ONE_BIT) == encode_step(
                3, "x", s2[:j], ONE_BIT
            )
        # ...and generically differ once they diverge (checked over seeds)
        diverged = sum(
            encode_step(s, "x", s1, TWO_BITS) != encode_step(s, "x", s2, TWO_BITS)
            for s in range(200)
        )
        assert diverged > 100

    def test_zero_bit_step_emits_nothing(self):
        s = BinningSchedule((1, 0))
        assert encode_step(5, "x", b"\x00\x01", s) == ()
        assert len(encode_step(5, "x", b"\x00", s)) == 1

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            encode_step(5, "x", b"", ONE_BIT)

    def test_bits_unbiased(self):
        # fraction of 1s over many seeds is 1/2 +- 0.02
        ones = sum(
            encode_step(seed, "x", b"\x00\x01", ONE_BIT)[0] for seed in range(10_000)
        )
        assert abs(ones / 10_000 - 0.5) < 0.02

    @pytest.mark.parametrize("alphabet, nbits", [
        (22, 3),
        (256, 1),
        (64, 4),
        (256, 2),   # 512 bits over one parent's children
    ])
    def test_lane_words_match_stepwise_layout(self, alphabet, nbits):
        # the lane path of replay_bins (uint64 chain states, every child
        # chained at once, a row per symbol, and shifted to its top bits)
        # gives every child the bits encode_step gives it
        rng = np.random.default_rng(alphabet)
        schedule = BinningSchedule((nbits,))
        parents = [bytes(rng.integers(0, alphabet, size=k).tolist()) for k in (0, 1, 3, 5)]
        for seed in (0, 9, 2 ** 70, -3):
            state = np.full(len(parents), codec._stream_key(seed, "y"), np.uint64)
            for j in range(max(map(len, parents))):
                step = np.array([p[j] if j < len(p) else 0 for p in parents], np.uint64)
                chained = codec._chain(state, step)
                state = np.where([j < len(p) for p in parents], chained, state)
            child = codec._chain(state, np.arange(alphabet, dtype=np.uint64)[:, None])
            labels = child >> (64 - nbits)
            for i, parent in enumerate(parents):
                for a in range(alphabet):
                    bits = encode_step(seed, "y", parent + bytes([a]), schedule)
                    assert int(labels[a, i]) == int("".join(map(str, bits)), 2)


class TestLaneFinalizer:
    def test_equals_the_python_int_mixer(self):
        # the unmasked in-place uint64 finalizer against the masked Python-int
        # one, its oracle, on random words and the edges of the 64-bit range
        words = np.random.default_rng(23).integers(0, 2 ** 64, 10_000, np.uint64).tolist()
        words += [0, 2 ** 64 - 1] + [k * codec._GOLDEN % 2 ** 64 for k in range(1, 65)]
        lanes = np.array(words, np.uint64)
        mixed = codec._mix_lanes(lanes)
        assert mixed is lanes
        assert mixed.tolist() == [codec._mix(w) for w in words]

    def test_callers_seed_arrays_are_left_unchanged(self):
        # _seed_words passes a uint64 array through as it is, so an in-place
        # mix of it would change the caller's seeds
        seeds = np.array([0, 1, 2 ** 64 - 1, codec._GOLDEN, 12345], np.uint64)
        before = seeds.copy()
        seqs = np.array([[0, 1, 1, 0]] * len(seeds), np.uint8)
        replay_bins(seeds, seqs, "x", ONE_BIT, 2)
        replay_bins(seeds, seqs, "y", TWO_BITS, 2, live=np.array([1, 0, 1, 1, 0], bool))
        sim._sample_rows(JointDistribution.from_marginal([0.5, 0.5]), 4, seeds)
        sim._trial_seeds(11, seeds)
        assert seeds.dtype == np.uint64 and seeds.tolist() == before.tolist()


class TestCandidateSets:
    def test_initial_state(self):
        c = initial_candidates(1, "x", ONE_BIT, 2)
        assert c.prefixes == (b"",) and c.step == 0

    def test_alphabet_bounds(self):
        with pytest.raises(ValueError):
            initial_candidates(1, "x", ONE_BIT, 1)
        with pytest.raises(ValueError):
            initial_candidates(1, "x", ONE_BIT, 257)

    def test_true_sequence_always_survives(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            seq = bytes(rng.integers(0, 2, size=10).tolist())
            cands = candidate_set_for(trial, "x", seq, ONE_BIT)
            assert seq in cands.prefixes

    def test_zero_bit_step_keeps_all_children(self):
        s = BinningSchedule((0, 1))
        c = initial_candidates(9, "x", s, 2)
        c = update_candidates(c, ())
        assert sorted(c.prefixes) == [b"\x00", b"\x01"]

    def test_wrong_bit_count_rejected(self):
        c = initial_candidates(9, "x", ONE_BIT, 2)
        with pytest.raises(ValueError):
            update_candidates(c, (0, 1))

    def test_expected_one_survivor_per_parent(self):
        # 1 bit/symbol on a binary alphabet: each spurious prefix has two
        # children, each surviving with probability 1/2 -- expected growth
        # factor 1.  The true path always survives and sheds an extra
        # sibling with probability 1/2 per step, so the mean bin size after
        # n steps is 1 + n/2.  Averaged over seeds at n = 8: about 5.
        total = 0
        for seed in range(300):
            c = candidate_set_for(seed, "x", b"\x00" * 8, ONE_BIT)
            total += len(c.prefixes)
        assert 4.0 < total / 300 < 6.0

    def test_rate_excess_shrinks_set(self):
        # 2 bits/symbol on binary symbols: spurious survivors have expected
        # growth factor 1/2, so the bin stays O(1) instead of growing
        # linearly as it does at 1 bit/symbol
        mean_two = np.mean([
            len(candidate_set_for(seed, "x", b"\x01\x00" * 5, TWO_BITS).prefixes)
            for seed in range(100)
        ])
        mean_one = np.mean([
            len(candidate_set_for(seed, "x", b"\x01\x00" * 5, ONE_BIT).prefixes)
            for seed in range(100)
        ])
        assert 1.0 <= mean_two < 2.5
        assert mean_one > 2 * mean_two

    def test_overflow_raises(self):
        # 1 bit every 4 steps at alphabet 2 grows ~2^{3n/4}
        sparse = BinningSchedule((1, 0, 0, 0))
        with pytest.raises(CandidateOverflowError):
            candidate_set_for(0, "x", b"\x00" * 16, sparse, cap=100)

    def test_matches_exhaustive_bin(self):
        for seed in range(10):
            seq = bytes((seed * 7 + i) % 2 for i in range(7))
            fast = sorted(candidate_set_for(seed, "x", seq, ONE_BIT).prefixes)
            slow = sorted(enumerate_bin(seed, "x", ONE_BIT, 2, seq))
            assert fast == slow

    def test_matches_exhaustive_bin_quaternary(self):
        seq = bytes([0, 3, 1, 2, 3])
        fast = sorted(candidate_set_for(4, "x", seq, TWO_BITS, alphabet=4).prefixes)
        slow = sorted(enumerate_bin(4, "x", TWO_BITS, 4, seq))
        assert fast == slow


def _stepwise(seed, stream_id, seq, schedule, alphabet, cap):
    """The scalar replay: the bin's prefixes, or the step at which it
    overflowed."""
    cands = initial_candidates(seed, stream_id, schedule, alphabet)
    for j in range(1, len(seq) + 1):
        bits = encode_step(seed, stream_id, seq[:j], schedule)
        try:
            cands = update_candidates(cands, bits, cap=cap)
        except CandidateOverflowError:
            return j
    return cands.prefixes


def _members(bins, t):
    """Trial t's bin members, in lane order."""
    lo, hi = np.searchsorted(bins.trial, (t, t + 1))
    return tuple(map(bytes, bins.prefixes[lo:hi]))


def _chunk(alphabet, n, trials, seed0=0, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    seqs = rng.integers(0, alphabet, size=(trials, n)).astype(np.uint8)
    seeds = [seed0 + t for t in range(trials)]
    return seeds, seqs


class TestReplayBins:
    @pytest.mark.parametrize("alphabet, pattern, n", [
        (2, (1,), 10),
        (2, (1, 0), 9),            # 0-bit steps keep every child
        (2, (2, 1, 1, 1), 8),
        (3, (2,), 7),
        (3, (0, 3), 6),
        (4, (2, 1), 6),
        (4, (3,), 6),
        (22, (3,), 4),
        (32, (8,), 4),
        (3, (64, 0), 5),           # a whole chain state, then a 0-bit step
    ])
    def test_matches_stepwise_replay_in_order(self, alphabet, pattern, n):
        schedule = BinningSchedule(pattern)
        seeds, seqs = _chunk(alphabet, n, 25, seed0=100 * alphabet)
        bins = replay_bins(seeds, seqs, "x", schedule, alphabet)
        assert not bins.overflow.any()
        for t, seed in enumerate(seeds):
            got = _members(bins, t)
            want = _stepwise(seed, "x", seqs[t].tobytes(), schedule, alphabet,
                             2 ** 20)
            assert got == want  # same members, same order
            cands = candidate_set_for(seed, "x", seqs[t].tobytes(), schedule, alphabet)
            assert cands.prefixes == got
            assert (cands.seed, cands.alphabet, cands.step) == (seed, alphabet, n)

    @pytest.mark.parametrize("alphabet, pattern, n", [
        (2, (1,), 6), (2, (1, 0, 2), 6), (3, (2,), 5), (4, (2, 1), 4),
    ])
    def test_matches_exhaustive_bins(self, alphabet, pattern, n):
        schedule = BinningSchedule(pattern)
        seeds, seqs = _chunk(alphabet, n, 6, seed0=7, rng_seed=alphabet)
        bins = replay_bins(seeds, seqs, "y", schedule, alphabet)
        for t, seed in enumerate(seeds):
            members = enumerate_bin(seed, "y", schedule, alphabet, seqs[t].tobytes())
            assert set(_members(bins, t)) == set(members)

    def test_overflow_aborts_exactly_the_scalar_trials(self):
        sparse = BinningSchedule((1, 0, 0, 0))
        seeds, seqs = _chunk(2, 12, 40, seed0=3)
        # the cap is near the mean final bin size, E|C_12| = 804, so some
        # but not all trials overflow whatever the PRF's draws
        cap = 800
        bins = replay_bins(seeds, seqs, "x", sparse, 2, cap)
        outcomes = [_stepwise(seed, "x", seqs[t].tobytes(), sparse, 2, cap)
                    for t, seed in enumerate(seeds)]
        assert 0 < sum(isinstance(o, int) for o in outcomes) < len(seeds)
        for t, want in enumerate(outcomes):
            if isinstance(want, int):
                assert bins.overflow[t] == want
                assert t not in bins.trial
            else:
                assert bins.overflow[t] == 0
                assert _members(bins, t) == want

    def test_live_mask_replays_only_selected_trials(self):
        seeds, seqs = _chunk(2, 8, 6)
        live = np.array([True, False, True, True, False, True])
        bins = replay_bins(seeds, seqs, "x", ONE_BIT, 2, live=live)
        assert set(bins.trial.tolist()) == {0, 2, 3, 5}
        assert not bins.overflow.any()
        full = replay_bins(seeds, seqs, "x", ONE_BIT, 2)
        for t in (0, 2, 3, 5):
            assert _members(bins, t) == _members(full, t)

    def test_live_mask_with_overflow_matches_stepwise(self):
        # a ternary alphabet with a 0-bit step, a live mask, and a cap near
        # the mean final bin size, E|C_8| = 70: some live trials overflow
        # before the last step, the others' bins stay the scalar ones
        schedule = BinningSchedule((2, 0))
        seeds, seqs = _chunk(3, 8, 12, seed0=41)
        live = np.array([1, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1], bool)
        cap = 50
        bins = replay_bins(seeds, seqs, "x", schedule, 3, cap, live=live)
        steps = []
        for t, seed in enumerate(seeds):
            if not live[t]:
                assert bins.overflow[t] == 0 and t not in bins.trial
                continue
            want = _stepwise(seed, "x", seqs[t].tobytes(), schedule, 3, cap)
            if isinstance(want, int):
                steps.append(want)
                assert bins.overflow[t] == want
                assert t not in bins.trial
            else:
                assert bins.overflow[t] == 0
                assert _members(bins, t) == want
        assert 0 < len(steps) < live.sum() and min(steps) < 8

    def test_wide_alphabet_with_more_lanes_than_symbols(self):
        # 256 symbols and more than 256 lanes after step 1: a child's index,
        # symbol * lanes + parent, takes the symbol before it is stored as
        # a byte, or the index wraps
        schedule = BinningSchedule((1, 8))
        seeds, seqs = _chunk(256, 2, 3, seed0=9)
        assert len(replay_bins(seeds, seqs[:, :1], "x", schedule, 256).trial) > 256
        bins = replay_bins(seeds, seqs, "x", schedule, 256)
        for t, seed in enumerate(seeds):
            assert _members(bins, t) == _stepwise(seed, "x", seqs[t].tobytes(), schedule, 256,
                                                  2 ** 20)

    def test_rejects_symbols_outside_alphabet(self):
        with pytest.raises(ValueError):
            replay_bins([1], np.array([[0, 2]], np.uint8), "x", ONE_BIT, 2)

    def test_chunk_size_from_mean_bin_size(self):
        # 1 bit/step at |A| = 2: E|C_j| = 1 + j/2, so the widest step of a
        # 16-step trial has 2 * 8.5 children in the mean
        assert expected_bin_size(16, 2, ONE_BIT) == pytest.approx(9.0)
        assert chunk_trials(16, [(2, ONE_BIT)]) == _CHUNK_LANES // 17
        assert chunk_trials(24, [(2, ONE_BIT), (2, TWO_BITS)]) == _CHUNK_LANES // 25
        # a bin that outgrows the budget in the mean still runs one trial
        assert chunk_trials(24, [(2, BinningSchedule((1, 0, 0, 0)))]) == 1

    @pytest.mark.parametrize("joint, pattern, n, stream", [
        ([[0.45, 0.05], [0.05, 0.45]], (1,), 16, "x"),   # the README simulate config
        ([[0.5], [0.3], [0.2]], (3, 0, 2), 9, "x"),      # ternary, with a 0-bit step
        ([[0.45, 0.05], [0.05, 0.45]], (1,), 10, "y"),   # mc-sw-universal's y stream
    ], ids=["joint0-pattern0-16", "joint1-pattern1-9", "y-example1-10"])
    def test_mean_bin_size_matches_closed_form(self, joint, pattern, n, stream):
        # bins are prefix-consistent, so the step-j bin is the replay of the
        # length-j prefixes; its mean over 2,000 trials lies within 4
        # standard errors of the closed form at every step
        d = JointDistribution.from_matrix(joint)
        schedule = BinningSchedule(pattern)
        side = "xy".index(stream)
        alphabet = (d.alphabet_x, d.alphabet_y)[side]
        trials = 2000
        seeds = [derive_trial_seed(11, t) for t in range(trials)]
        seqs = np.array([np.frombuffer(sample_source(d, n, s)[side], np.uint8)
                         for s in seeds])
        for j in range(1, n + 1):
            bins = replay_bins(seeds, seqs[:, :j], stream, schedule, alphabet)
            sizes = np.bincount(bins.trial, minlength=trials)
            stderr = sizes.std(ddof=1) / math.sqrt(trials)
            want = expected_bin_size(j, alphabet, schedule)
            assert abs(sizes.mean() - want) <= 4.0 * stderr, (j, sizes.mean(), want)


class TestBatchedMlArgmax:
    def _check(self, d, schedule, n, trials, side_information):
        alphabet = d.alphabet_x
        rng = np.random.default_rng(11)
        pairs = [sample_source(d, n, int(rng.integers(1 << 40))) for _ in range(trials)]
        xs = np.frombuffer(b"".join(x for x, _ in pairs), np.uint8).reshape(-1, n)
        ys = np.frombuffer(b"".join(y for _, y in pairs), np.uint8).reshape(-1, n)
        seeds = list(range(500, 500 + trials))
        bins = replay_bins(seeds, xs, "x", schedule, alphabet)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, _ = first_errors("si_ml" if side_information else "ml", d, bins, None,
                                    xs, ys)
        tied = 0
        for t in range(trials):
            cands = _hand_built("x", _members(bins, t), alphabet)
            if side_information:
                y = pairs[t][1]
                best = _oracle_ml(cands.prefixes, y, d.probs, n, 0)
                assert best == si_decode_ml(cands, y, d, 0)
            else:
                best = _oracle_ml(cands.prefixes, bytes(n), d.marginal_x(), n, 0)
                assert best == ml_decode(cands, d, 0)
            wrong = [i for i in range(n) if best[i] != xs[t, i]]
            assert first[t] == (wrong[0] + 1 if wrong else n + 1)
            tied += len(cands.prefixes) > 1
        return tied

    def test_ties_on_a_uniform_source(self):
        # every bin member is equally likely: the smallest one wins
        uniform = JointDistribution.from_marginal([0.25, 0.25, 0.25, 0.25])
        assert self._check(uniform, TWO_BITS, 8, 60, False) > 30

    def test_uniform_joint_side_information(self):
        uniform = JointDistribution.from_matrix([[0.25, 0.25], [0.25, 0.25]])
        assert self._check(uniform, ONE_BIT, 10, 60, True) > 30

    def test_zero_probability_cells(self):
        # members using a zero-probability symbol score -inf and never win
        d = JointDistribution.from_matrix([[0.5, 0.0], [0.1, 0.2], [0.0, 0.2]])
        self._check(d, TWO_BITS, 8, 80, True)
        self._check(JointDistribution.from_marginal([0.7, 0.3, 0.0]),
                    BinningSchedule((1, 2)), 8, 80, False)

    def test_skewed_binary_and_ternary(self):
        self._check(JointDistribution.from_marginal([0.9, 0.1]), ONE_BIT, 16, 80,
                    False)
        d = JointDistribution.from_matrix([[0.3, 0.05], [0.05, 0.3], [0.1, 0.2]])
        self._check(d, TWO_BITS, 8, 80, True)

    def test_wide_table_in_small_blocks(self, monkeypatch):
        # a 5 x 5 table at a budget of 16 pairs a block: some trial's pairs
        # straddle a block boundary, so its pairs are scored in two blocks and
        # its winner picked over both
        monkeypatch.setattr(codec, "_LANE_BUDGET", 16)
        calls = []
        pairs = codec._pairs
        monkeypatch.setattr(codec, "_pairs", lambda *args:
                            calls.append(pairs(*args)) or calls[-1])
        probs = np.random.default_rng(5).dirichlet(np.ones(25)).reshape(5, 5)
        self._check(JointDistribution.from_matrix(probs), BinningSchedule((3,)), 6, 60, True)
        trial = calls[0][0]  # the chunk's pairs; the per-trial decodes follow
        assert (trial[15:-1:16] == trial[16::16]).any()

    @pytest.mark.parametrize("shape, zero", [((3, 2), (1, 0)), ((5, 4), (1, 0)),
                                             ((17, 16), (1, 8))],
                             ids=["6-symbols", "20-symbols", "272-symbols"])
    def test_score_is_the_left_to_right_sum(self, shape, zero, monkeypatch):
        # each pair's score on each prefix, bit for bit, is the plain-Python
        # sum of log p over its positions, left to right from 0.0: the score
        # at length j is the one at j - 1 plus log p of symbol j.  A zero cell
        # makes some scores -inf, and 17 x 16 has more joint symbols than a
        # byte holds (its lanes read (1, 8) but not (1, 0))
        rng = np.random.default_rng(sum(shape))
        probs = rng.dirichlet(np.ones(shape[0] * shape[1])).reshape(shape)
        probs[zero] = 0.0
        trial_x = np.repeat(np.arange(6), rng.integers(1, 8, 6))
        px = rng.integers(0, shape[0], (len(trial_x), 9)).astype(np.uint8)
        py = rng.integers(0, shape[1], (6, 9)).astype(np.uint8)
        scores = []
        first_max = codec._first_max
        monkeypatch.setattr(codec, "_first_max", lambda trial, score, slack:
                            scores.append(score) or first_max(trial, score, slack))
        logs = [math.log(p) if p > 0 else -math.inf for p in probs.ravel().tolist()]
        for j in range(1, 10):  # one block, one pair per x lane, at each prefix length
            codec._ml_winners(trial_x, px[:, :j], np.arange(6), py[:, :j], 6,
                              logs=np.reshape(logs, shape))
        for lane, t in enumerate(trial_x):
            want, steps = 0.0, []
            for a, b in zip(px[lane].tolist(), py[t].tolist()):
                want += logs[a * shape[1] + b]
                steps.append(want)
            assert b"".join(score[lane].tobytes() for score in scores) == \
                np.array(steps).tobytes()
        assert np.isneginf(scores[-1]).any() and np.isfinite(scores[-1]).any()

    def test_near_tie_chain_across_blocks(self, monkeypatch):
        # one trial's pairs A < B < C score -1, -1 + 0.9s and -1 + 1.8s, with
        # s the slack at n = 1: B ties with C and A does not, though A ties
        # with B.  At a budget of 2 the blocks are A, B | C, and the winner
        # is still the first pair within slack of the trial's maximum, B
        monkeypatch.setattr(codec, "_LANE_BUDGET", 2)
        s = codec._ML_TIE * 2
        logs = np.array([[-1.0], [-1 + 0.9 * s], [-1 + 1.8 * s]])
        px = np.arange(3, dtype=np.uint8)[:, None]
        lane_x, lane_y = codec._ml_winners(np.zeros(3, np.intp), px, np.zeros(1, np.intp),
                                           np.zeros((1, 1), np.uint8), 1, logs)
        assert (lane_x.tolist(), lane_y.tolist()) == ([1], [0])
        assert _first_near_max(range(3), lambda a: logs[a, 0], 1) == 1

    def test_kernel_binds_the_log_table(self):
        # math.log of each cell, -inf at a zero one; of the row sums for ml
        probs = [[0.5, 0.0], [0.1, 0.2], [0.0, 0.2]]
        source = JointDistribution.from_matrix(probs)
        kernel, y_zero = codec._kernel("si_ml", source)
        assert not y_zero
        want = [math.log(p) if p > 0 else -math.inf for row in probs for p in row]
        assert kernel.keywords["logs"].shape == (3, 2)
        assert kernel.keywords["logs"].ravel().tolist() == want
        marginal, y_zero = codec._kernel("ml", source)
        assert y_zero
        assert marginal.keywords["logs"].ravel().tolist() == [
            math.log(a + b) for a, b in probs]
        # a 3 x 8 row's sum, left to right as in marginal_x(), differs in its
        # last bits from numpy's pairwise sum
        wide = JointDistribution.from_matrix(
            np.random.default_rng(2).dirichlet(np.ones(24)).reshape(3, 8))
        marginal, _ = codec._kernel("ml", wide)
        assert marginal.keywords["logs"].ravel().tolist() == [
            math.log(p) for p in wide.marginal_x()]

    def test_overflowed_trials_are_skipped(self):
        sparse = BinningSchedule((1, 0, 0, 0))
        seeds, seqs = _chunk(2, 12, 20, seed0=3)
        # the cap is near the mean final bin size, E|C_12| = 804, so about
        # half of the trials overflow whatever the PRF's draws
        bins = replay_bins(seeds, seqs, "x", sparse, 2, cap=800)
        assert bins.overflow.any() and not bins.overflow.all()
        uniform = JointDistribution.from_marginal([0.5, 0.5])
        first, _ = first_errors("ml", uniform, bins, None, seqs, np.zeros_like(seqs))
        for t in range(len(seeds)):
            if not bins.overflow[t]:
                best = _oracle_ml(_members(bins, t), bytes(12), uniform.marginal_x(), 12, 0)
                wrong = [i for i in range(12) if best[i] != seqs[t, i]]
                assert first[t] == (wrong[0] + 1 if wrong else 13)


class TestBatchedUniversal:
    """The chunk minimum-suffix-entropy kernel against the left-to-right
    oracles, trial by trial."""

    def _check(self, d, schedule, n, trials, side_information, cap=2 ** 20):
        rng = np.random.default_rng(12)
        pairs = [sample_source(d, n, int(rng.integers(1 << 40))) for _ in range(trials)]
        xs = np.frombuffer(b"".join(x for x, _ in pairs), np.uint8).reshape(-1, n)
        ys = np.frombuffer(b"".join(y for _, y in pairs), np.uint8).reshape(-1, n)
        bins = replay_bins(list(range(700, 700 + trials)), xs, "x", schedule,
                           d.alphabet_x, cap)
        first, _ = first_errors("si_universal" if side_information else "universal", d,
                                bins, None, xs, ys)
        for t in range(trials):
            if bins.overflow[t]:
                assert first[t] == n + 1
                continue
            members = _members(bins, t)
            if side_information:
                best = _oracle_universal(members, pairs[t][1], n, 0)
            else:
                best = _oracle_universal(members, bytes(n), n, 0)
            assert first[t] == _first_error(best, xs[t], n)
        return bins

    @pytest.mark.parametrize("budget", [None, 7], ids=["default", "small"])
    @pytest.mark.parametrize("side_information", [False, True], ids=["universal", "si"])
    def test_binary(self, side_information, budget, monkeypatch):
        # a small lane budget takes the entropies of a chunk's lanes, and of
        # a trial's, over several blocks
        if budget:
            monkeypatch.setattr(codec, "_LANE_BUDGET", budget)
        d = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]]) if side_information \
            else JointDistribution.from_marginal([0.9, 0.1])
        bins = self._check(d, ONE_BIT, 12, 80, side_information)
        assert np.bincount(bins.trial).max() > 7

    @pytest.mark.parametrize("side_information", [False, True], ids=["universal", "si"])
    def test_ternary(self, side_information):
        d = JointDistribution.from_matrix([[0.3, 0.05], [0.05, 0.3], [0.1, 0.2]]) \
            if side_information else JointDistribution.from_marginal([0.6, 0.3, 0.1])
        self._check(d, TWO_BITS, 8, 80, side_information)

    def test_overflowed_trials_are_skipped(self):
        d = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])
        bins = self._check(d, BinningSchedule((1, 0, 0, 0)), 12, 20, True, cap=800)
        assert bins.overflow.any() and not bins.overflow.all()

    def test_ties_break_lexicographically_not_by_position(self):
        # unsorted hand-built bin: 1110 has the least entropy at l = 1, then
        # the suffixes 110 and 010 tie, and the smaller, 1010, decides l = 2,
        # though 1110 comes first in list order
        xs = [b"\x01\x01\x01\x00", b"\x01\x00\x01\x00", b"\x00\x01\x01\x00",
              b"\x00\x01\x00\x01"]
        cands = _hand_built("x", xs)
        assert universal_decode(cands, 0) == b"\x01\x00\x01\x00" == _oracle_universal(xs, bytes(4), 4, 0)
        assert universal_decode(cands, 2) == b"\x01\x00"
        for y in (bytes(4), b"\x01" * 4):  # a constant y counts as x alone
            assert si_decode_universal(cands, y, 0) == b"\x01\x00\x01\x00"
            assert si_decode_universal(cands, y, 0) == _oracle_universal(xs, y, 4, 0)


def _hand_built(stream_id, members, alphabet=2):
    return CandidateSet(seed=0, stream_id=stream_id, schedule=ONE_BIT,
                        alphabet=alphabet, prefixes=tuple(members),
                        step=len(members[0]))


class TestSingleStreamDecoders:
    N = 8

    def _bins(self, count, seed0=0):
        rng = np.random.default_rng(77)
        out = []
        for t in range(count):
            seq = bytes(rng.integers(0, 2, size=self.N).tolist())
            cands = candidate_set_for(seed0 + t, "x", seq, ONE_BIT)
            out.append((seq, cands))
        return out

    def test_ml_matches_oracle(self):
        px = [0.9, 0.1]
        model = JointDistribution.from_marginal(px)
        for seq, cands in self._bins(200):
            for delay in (0, 2):
                got = ml_decode(cands, model, delay)
                want = _oracle_ml(list(cands.prefixes), bytes(self.N), px, self.N, delay)
                assert got == want

    def test_universal_matches_oracle(self):
        for seq, cands in self._bins(200, seed0=1000):
            for delay in (0, 3):
                got = universal_decode(cands, delay)
                want = _oracle_universal(list(cands.prefixes), bytes(self.N), self.N, delay)
                assert got == want

    def test_si_ml_matches_oracle(self):
        d = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])
        rng = np.random.default_rng(31)
        for t in range(100):
            x, y = sample_source(d, self.N, int(rng.integers(1 << 30)))
            cands = candidate_set_for(t, "x", x, ONE_BIT)
            got = si_decode_ml(cands, y, d, 0)
            want = _oracle_ml(list(cands.prefixes), y, d.probs, self.N, 0)
            assert got == want

    def test_si_universal_matches_oracle(self):
        d = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])
        rng = np.random.default_rng(13)
        for t in range(100):
            x, y = sample_source(d, self.N, int(rng.integers(1 << 30)))
            cands = candidate_set_for(t, "x", x, ONE_BIT)
            for delay in (0, 2):
                got = si_decode_universal(cands, y, delay)
                want = _oracle_universal(list(cands.prefixes), y, self.N, delay)
                assert got == want

    def test_ternary_bins_match_oracles(self):
        px = [0.6, 0.3, 0.1]
        model = JointDistribution.from_marginal(px)
        rng = np.random.default_rng(5)
        for t in range(60):
            seq = bytes(rng.integers(0, 3, size=self.N).tolist())
            cands = candidate_set_for(t, "x", seq, TWO_BITS, alphabet=3)
            members = list(cands.prefixes)
            for delay in (0, 2):
                assert ml_decode(cands, model, delay) == _oracle_ml(
                    members, bytes(self.N), px, self.N, delay
                )
                assert universal_decode(cands, delay) == _oracle_universal(
                    members, bytes(self.N), self.N, delay
                )

    def test_ml_on_joint_model_uses_x_marginal(self):
        d = JointDistribution.from_matrix([[0.1, 0.05], [0.05, 0.8]])
        for seq, cands in self._bins(100, seed0=3000):
            for delay in (0, 2):
                got = ml_decode(cands, d, delay)
                want = _oracle_ml(list(cands.prefixes), bytes(self.N), d.marginal_x(), self.N,
                                  delay)
                assert got == want

    def test_full_delay_returns_empty(self):
        _, cands = self._bins(1)[0]
        assert ml_decode(cands, JointDistribution.from_marginal([0.5, 0.5]), self.N) == b""
        assert universal_decode(cands, self.N) == b""

    def test_singleton_bin_decodes_itself(self):
        seq = b"\x01\x00\x01"
        cands = CandidateSet(seed=0, stream_id="x", schedule=ONE_BIT,
                             alphabet=2, prefixes=(seq,), step=3)
        assert ml_decode(cands, JointDistribution.from_marginal([0.2, 0.8]), 0) == seq
        assert universal_decode(cands, 0) == seq

    def test_delay_out_of_range(self):
        _, cands = self._bins(1)[0]
        with pytest.raises(ValueError):
            ml_decode(cands, JointDistribution.from_marginal([0.5, 0.5]), self.N + 1)

    def test_delay_nesting(self):
        # the delay-d estimate is the prefix of the delay-0 estimate
        model = JointDistribution.from_marginal([0.8, 0.2])
        for seq, cands in self._bins(50, seed0=2000):
            full = ml_decode(cands, model, 0)
            for d in range(1, self.N + 1):
                assert ml_decode(cands, model, d) == full[: self.N - d]


class TestScoreBoard:
    def test_no_rivals_max_score(self):
        n = 4
        cx = CandidateSet(seed=0, stream_id="x", schedule=ONE_BIT, alphabet=2,
                          prefixes=(b"\x00" * n,), step=n)
        cy = CandidateSet(seed=0, stream_id="y", schedule=ONE_BIT, alphabet=2,
                          prefixes=(b"\x01" * n,), step=n)
        assert compute_scores((b"\x00" * n, b"\x01" * n), cx, cy) == (n + 1, n + 1)

    def test_tying_rival_marks_cell(self):
        # a rival pair that diverges at (1, 1) with identical weighted suffix
        # entropy still marks: scores drop to 0
        n = 2
        cx = CandidateSet(seed=0, stream_id="x", schedule=ONE_BIT, alphabet=2,
                          prefixes=(b"\x00\x00", b"\x01\x01"), step=n)
        cy = CandidateSet(seed=0, stream_id="y", schedule=ONE_BIT, alphabet=2,
                          prefixes=(b"\x00\x00", b"\x01\x01"), step=n)
        assert compute_scores((b"\x00\x00", b"\x00\x00"), cx, cy) == (0, 0)

    @pytest.mark.parametrize("probs, alphabet, schedule", [
        ([[0.1, 0.05], [0.05, 0.8]], 2, ONE_BIT),
        ([[0.3, 0.04, 0.02], [0.04, 0.25, 0.03], [0.02, 0.03, 0.27]], 3, TWO_BITS),
    ], ids=["example2", "ternary"])
    def test_matches_definition_on_random_bins(self, probs, alphabet, schedule):
        d = JointDistribution.from_matrix(probs)
        rng = np.random.default_rng(99)
        n = 6
        for t in range(30):
            x, y = sample_source(d, n, int(rng.integers(1 << 30)))
            cx = candidate_set_for(t, "x", x, schedule, alphabet=alphabet)
            cy = candidate_set_for(t, "y", y, schedule, alphabet=alphabet)
            for x_bar in cx.prefixes:
                for y_bar in cy.prefixes:
                    want = _oracle_scores(
                        (x_bar, y_bar), cx.prefixes, cy.prefixes, n
                    )
                    assert compute_scores((x_bar, y_bar), cx, cy) == want

    def test_pair_outside_the_product_rejected(self):
        n = 2
        cx = CandidateSet(seed=0, stream_id="x", schedule=ONE_BIT, alphabet=2,
                          prefixes=(b"\x00\x00",), step=n)
        cy = CandidateSet(seed=0, stream_id="y", schedule=ONE_BIT, alphabet=2,
                          prefixes=(b"\x00\x00",), step=n)
        with pytest.raises(ValueError):
            compute_scores((b"\x01\x01", b"\x00\x00"), cx, cy)


class TestSuffixEntropies:
    @staticmethod
    @st.composite
    def pair_bins(draw):
        n = draw(st.integers(1, 10))
        alphabets = draw(st.tuples(*[st.sampled_from((2, 3, 17))] * 2))
        bins = [
            draw(st.lists(
                st.lists(st.integers(0, a - 1), min_size=n, max_size=n).map(bytes),
                min_size=1, max_size=3, unique=True,
            ))
            for a in alphabets
        ]
        return n, alphabets, bins

    @given(pair_bins())
    def test_bit_identical_to_weighted_suffix_entropy(self, case):
        # the engine at every cell of every pair of the bin product against
        # the definition, and the one-pair function on a few cells of each
        # pair; the joint symbols a * |Y| + b, as the score pass reads them
        n, (_, ay), (xs, ys) = case
        pairs = list(itertools.product(xs, ys))
        x = np.array([list(x) for x, _ in pairs], np.int64).reshape(len(pairs), n)
        y = np.array([list(y) for _, y in pairs], np.int64).reshape(len(pairs), n)
        lane = np.arange(len(pairs))[:, None]
        l, k = (c.ravel() for c in np.indices((n + 1, n + 1)) + 1)
        table = _weighted_entropies(_window_counts(x * ay + y), _window_counts(np.r_[x, y]), n,
                                    lane, np.where(l < k, len(pairs) + lane, lane),
                                    (l - 1) * (n + 1) + k - 1)
        table = table.reshape(len(pairs), n + 1, n + 1)
        for (x, y), cells in zip(pairs, table):
            for l in range(1, n + 2):
                for k in range(1, n + 2):
                    assert cells[l - 1, k - 1] == _oracle_wse(x, y, l, k, n)
            for l, k in ((1, 1), (1, n + 1), (n + 1, 1), (n // 2 + 1, 1), (1, n // 2 + 1)):
                assert weighted_suffix_entropy(x, y, l, k, n) == _oracle_wse(x, y, l, k, n)

    @pytest.mark.parametrize("keyed", [True, False], ids=["keyed", "sorted"])
    @pytest.mark.parametrize("alphabet", [2, 3], ids=["binary", "ternary"])
    def test_cell_values_match_the_definition(self, alphabet, keyed, monkeypatch):
        # every cell (l, k) of every pair of two random bins, its windows
        # and weights read off the cell tables, against the definition, on
        # the keyed table and on the sorting network (_KEYED = 0)
        if not keyed:
            monkeypatch.setattr(codec, "_KEYED", 0)
        n = 7
        rng = np.random.default_rng(alphabet)
        px, py = (rng.integers(0, alphabet, (4, n)) for _ in range(2))
        x, y = np.repeat(px, len(py), axis=0), np.tile(py, (len(px), 1))
        lane = np.arange(len(x))[:, None]
        l, k = (c.ravel() for c in np.indices((n + 1, n + 1)) + 1)
        joint = _window_counts(x * alphabet + y)
        assert keyed == (joint.__name__ == "keyed")
        cells = _weighted_entropies(joint, _window_counts(np.r_[x, y]), n, lane,
                                    np.where(l < k, len(x) + lane, lane),
                                    (l - 1) * (n + 1) + k - 1)
        for pair, row in enumerate(cells):
            for cell, value in enumerate(row.tolist()):
                want = _oracle_wse(x[pair].tolist(), y[pair].tolist(), l[cell], k[cell], n)
                assert value == want, (pair, l[cell], k[cell])


def _first_error(decoded, truth, n):
    return next((i + 1 for i in range(n) if decoded[i] != truth[i]), n + 1)


class TestScoreKernel:
    """The trial-batched score pass: each trial of a chunk decoded by
    first_errors("sw_universal", ...) against the oracle winners of its bins."""

    EXAMPLE1 = [[0.45, 0.05], [0.05, 0.45]]
    EXAMPLE2 = [[0.1, 0.05], [0.05, 0.8]]
    TERNARY = [[0.3, 0.04, 0.02], [0.04, 0.25, 0.03], [0.02, 0.03, 0.27]]

    @staticmethod
    def _chunk(probs, schedule, n, trials, seed, cap=2 ** 20, live=None):
        d = JointDistribution.from_matrix(probs)
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(1 << 40, size=trials)]
        rows = [sample_source(d, n, s) for s in seeds]
        x_rows = np.array([np.frombuffer(x, np.uint8) for x, _ in rows])
        y_rows = np.array([np.frombuffer(y, np.uint8) for _, y in rows])
        bins_x = replay_bins(seeds, x_rows, "x", schedule, d.alphabet_x, cap)
        if live is None:
            live = np.ones(trials, bool)
        bins_y = replay_bins(seeds, y_rows, "y", schedule, d.alphabet_y, cap,
                             live=live & (bins_x.overflow == 0))
        return bins_x, bins_y, x_rows, y_rows

    @staticmethod
    def _check(bins_x, bins_y, x_rows, y_rows):
        """Returns which trials had lanes in both bins."""
        n = x_rows.shape[1]
        fx, fy = first_errors("sw_universal", None, bins_x, bins_y, x_rows, y_rows)
        decoded = []
        for t, (x, y) in enumerate(zip(x_rows, y_rows)):
            xs, ys = _members(bins_x, t), _members(bins_y, t)
            decoded.append(bool(xs and ys))
            if not decoded[-1]:
                assert fx[t] == fy[t] == n + 1
                continue
            want_x, want_y = _oracle_winners(xs, ys, n, 0)
            assert (fx[t], fy[t]) == (_first_error(want_x, x, n), _first_error(want_y, y, n))
        return decoded

    @pytest.mark.parametrize("budget", [None, 7], ids=["default", "small"])
    @pytest.mark.parametrize("probs, schedule, n, trials", [
        (EXAMPLE1, ONE_BIT, 8, 12),
        (EXAMPLE2, ONE_BIT, 9, 12),
        (TERNARY, TWO_BITS, 6, 10),
    ], ids=["example1", "example2", "ternary"])
    def test_chunk_matches_oracle(self, probs, schedule, n, trials, budget,
                                  monkeypatch):
        # small group and block budgets split the chunk into groups of a few
        # pairs, and a trial whose product exceeds them into a group of its own
        if budget:
            monkeypatch.setattr(codec, "_GROUP_PAIRS", budget)
            monkeypatch.setattr(codec, "_BLOCK_PAIRS", budget)
        chunk = self._chunk(probs, schedule, n, trials, seed=n)
        if budget:
            bins_x, bins_y = chunk[:2]
            sizes = [len(_members(bins_x, t)) * len(_members(bins_y, t)) for t in range(trials)]
            assert max(sizes) > budget
        assert all(self._check(*chunk))

    def test_trials_without_lanes_between_live_ones(self):
        # x bins overflow at a small cap, and y bins are not replayed for
        # the trials the mask drops: both end with n + 1 and leave the
        # decisions of the live trials around them as they are.  The mask
        # also drops the middle one of three trials that decode without it,
        # which puts a trial without lanes between two live ones
        live = np.arange(24) % 5 != 2
        decoded = self._check(*self._chunk(self.EXAMPLE1, ONE_BIT, 7, 24, seed=3, cap=5,
                                           live=live))
        live[1 + "".join("1" if d else "0" for d in decoded).index("111")] = False
        chunk = self._chunk(self.EXAMPLE1, ONE_BIT, 7, 24, seed=3, cap=5, live=live)
        decoded = self._check(*chunk)
        assert chunk[0].overflow.any() and not live.all()
        runs = "".join("1" if d else "0" for d in decoded)
        assert "101" in runs and "0" in runs.strip("0")

    def test_one_trial_case(self):
        # sw_universal_decode on unsorted lists is the kernel on the sorted
        # lists, and compute_scores reads one pair of its score pass
        d = JointDistribution.from_matrix(self.EXAMPLE2)
        x, y = sample_source(d, 7, 41)
        cx = candidate_set_for(5, "x", x, ONE_BIT)
        cy = candidate_set_for(5, "y", y, ONE_BIT)
        shuffled = [_hand_built(s, list(reversed(c.prefixes))) for s, c in (("x", cx), ("y", cy))]
        want = _oracle_winners(cx.prefixes, cy.prefixes, 7, 0)
        assert sw_universal_decode(*shuffled, 0) == want
        for pair in itertools.product(cx.prefixes, cy.prefixes):
            assert compute_scores(pair, *shuffled) == _oracle_scores(
                pair, cx.prefixes, cy.prefixes, 7)


def _live_cells(products, n):
    """The live cells of the bin products: per pair, its x lane's live l
    times its y lane's live k, less the pair's own cell (n + 1, n + 1).  A
    depth j < n + 1 is live when another member shares the first j - 1
    symbols and not the j-th."""
    def live(members, m):
        return 1 + sum(any(o[:j] == m[:j] and o[j] != m[j] for o in members) for j in range(n))
    return sum(live(xs, x) * live(ys, y) - 1 for xs, ys in products for x in xs for y in ys)


class TestScorePass:
    """The score pass on hand-built chunks, pair by pair against the O(P^2)
    oracle, and the kernel's winners against the oracle's."""

    @staticmethod
    def _lanes(products, n):
        """products: each trial's sorted x and y members.  Returns the
        chunk's x and y lanes and trial count, as `_group_scores` takes
        them."""
        lanes = []
        for stream in (0, 1):
            members = [m for product in products for m in product[stream]]
            trial = np.repeat(np.arange(len(products)), [len(p[stream]) for p in products])
            lanes += [trial, np.array([list(m) for m in members], np.uint8).reshape(-1, n)]
        return (*lanes, len(products))

    @classmethod
    def _check(cls, products, n):
        """The whole chunk is one `_group_scores` call; `_sw_winners` splits
        it into groups by `_GROUP_PAIRS`."""
        lanes = cls._lanes(products, n)
        pair_x, pair_y, i_x, i_y = codec._group_scores(*lanes)
        win_x, win_y = codec._sw_winners(*lanes)
        want, wins, start_x, start_y = [], [], 0, 0
        for xs, ys in products:
            for a, x_bar in enumerate(xs):
                for b, y_bar in enumerate(ys):
                    want.append((start_x + a, start_y + b)
                                + _oracle_scores((x_bar, y_bar), xs, ys, n))
            if xs and ys:
                want_x, want_y = _oracle_winners(xs, ys, n, 0)
                wins.append((start_x + xs.index(want_x), start_y + ys.index(want_y)))
            start_x, start_y = start_x + len(xs), start_y + len(ys)
        assert list(zip(pair_x.tolist(), pair_y.tolist(), i_x.tolist(), i_y.tolist())) == want
        assert list(zip(win_x.tolist(), win_y.tolist())) == wins

    @staticmethod
    def _products(rng, alphabets, n, trials, most=5):
        return [tuple(tuple(sorted({bytes(rng.integers(0, a, n).astype(np.uint8).tolist())
                                    for _ in range(rng.integers(0, most + 1))}))
                      for a in alphabets)
                for _ in range(trials)]

    @pytest.mark.parametrize("alphabets", [(2, 2), (3, 3), (3, 2)],
                             ids=["binary", "ternary", "mixed"])
    def test_matches_oracle_on_random_products(self, alphabets):
        # random members, not bins: some trials have no lanes in a stream
        rng = np.random.default_rng(sum(alphabets))
        for n in (2, 3, 4, 6):
            self._check(self._products(rng, alphabets, n, 16, most=6), n)

    @pytest.mark.parametrize("alphabets", [(2, 4), (3, 3), (4, 2), (4, 4)])
    def test_skips_dead_cell_groups(self, alphabets, monkeypatch):
        # bins of up to 8 random members over 2-4 symbols: most pairs are
        # marked at small l and k, so a third or more of the live cells lie
        # in dead cell groups, which the pass skips; every pair's scores
        # must still be the oracle's
        cells = []
        weighted = codec._weighted_entropies
        monkeypatch.setattr(codec, "_weighted_entropies",
                            lambda *args: cells.append(len(args[-1])) or weighted(*args))
        rng = np.random.default_rng(sum(alphabets) + 40)
        scored = live = 0
        for n in (3, 5, 8):
            products = self._products(rng, alphabets, n, 10, most=8)
            self._check(products, n)
            cells.clear()
            codec._group_scores(*self._lanes(products, n))
            scored += sum(cells)
            live += _live_cells(products, n)
        assert 3 * scored <= 2 * live

    def test_benchmark_config_skips_dead_cells(self, monkeypatch):
        # the mc-sw-universal config at its base seed: its bin products have
        # 513,590 live cells, and the pass scores 260,864 of them; one that
        # scores every live cell again fails here
        config = Path(__file__).resolve().parents[1] / ".github/simulate/mc-sw-universal.json"
        cfg = sim.TrialConfig.from_json(config.read_text())
        counts = collections.Counter()
        scores, weighted = codec._group_scores, codec._weighted_entropies

        def group_scores(trial_x, px, trial_y, py, trials):
            live_x, live_y = (codec._nodes(t, p)[1].sum(axis=1) for t, p in
                              ((trial_x, px), (trial_y, py)))
            out = scores(trial_x, px, trial_y, py, trials)
            counts["live"] += int(np.sum(live_x[out[0]] * live_y[out[1]] - 1))
            return out

        def weighted_entropies(*args):
            counts["scored"] += len(args[-1])
            return weighted(*args)
        monkeypatch.setattr(codec, "_group_scores", group_scores)
        monkeypatch.setattr(codec, "_weighted_entropies", weighted_entropies)
        sim.run_trials(cfg)
        assert counts["scored"] <= 0.6 * counts["live"]

    def test_node_with_three_children(self):
        # both roots have three children, so a pair has two sibling x and
        # two sibling y nodes at (1, 1), and the x node 1 has three too
        xs = (b"\x00\x01\x02", b"\x01\x00\x00", b"\x01\x01\x02", b"\x01\x02\x01",
              b"\x02\x02\x02")
        ys = (b"\x00\x00\x01", b"\x01\x01\x00", b"\x02\x00\x02", b"\x02\x01\x01")
        assert {x[0] for x in xs} == {y[0] for y in ys} == {0, 1, 2}
        assert {x[1] for x in xs if x[0] == 1} == {0, 1, 2}
        self._check([(xs, ys)], 3)

    @pytest.mark.parametrize("xs, ys, scores", [
        ((b"\x00\x00\x00\x00",), (b"\x00\x00\x00\x00", b"\x00\x00\x01\x01"), [(4, 2), (4, 2)]),
        ((b"\x00\x00\x00\x00", b"\x00\x01\x00\x00"), (b"\x00\x00\x00\x00",), [(5, 5), (1, 4)]),
    ], ids=["x-one-symbol", "y-one-symbol"])
    def test_bin_of_one_symbol(self, xs, ys, scores):
        # every lane of one bin holds the symbol 0 only, so no node of that
        # bin has two children; at n + 1 a pair's rivals in that stream are
        # under its own lane, whose slot it still reads
        assert [_oracle_scores(pair, xs, ys, 4) for pair in itertools.product(xs, ys)] == scores
        self._check([(xs, ys)], 4)

    def test_slots_follow_children_not_symbol_values(self):
        # bins over the symbols 0 and 255: no node has more than two
        # children, so a cell has 2 x 2 slots, not 256 x 256
        xs = (b"\x00\x00\xff", b"\x00\xff\x00", b"\xff\x00\x00")
        ys = (b"\x00\xff\xff", b"\xff\xff\x00")
        first, _ = codec._nodes(np.zeros(len(xs), np.intp), np.array([list(x) for x in xs]))
        assert len(codec._child_ranks(first)[1]) == 2
        self._check([(xs, ys)], 3)

    def test_trial_over_the_pair_budget(self, monkeypatch):
        # the group and block budgets each at 1, 7, the default and more than
        # the chunk: a trial of more pairs than the group budget is a group
        # of its own, and at a block budget of 1 each trial's cells at one
        # depth are a block of their own
        rng = np.random.default_rng(5)
        products = self._products(rng, (2, 2), 5, 6)
        assert any(len(xs) * len(ys) > 7 and len(ys) > 1 for xs, ys in products)
        defaults = codec._GROUP_PAIRS, codec._BLOCK_PAIRS
        for group, block in itertools.product(*((1, 7, d, 2 ** 16) for d in defaults)):
            monkeypatch.setattr(codec, "_GROUP_PAIRS", group)
            monkeypatch.setattr(codec, "_BLOCK_PAIRS", block)
            self._check(products, 5)


class TestTwoEncoderDecoders:
    N = 6

    def test_universal_matches_definition(self):
        # winners recomputed by exhaustively maximizing the oracle scores
        d = JointDistribution.from_matrix([[0.1, 0.05], [0.05, 0.8]])
        rng = np.random.default_rng(123)
        for t in range(50):
            x, y = sample_source(d, self.N, int(rng.integers(1 << 30)))
            cx = candidate_set_for(t, "x", x, ONE_BIT)
            cy = candidate_set_for(t, "y", y, ONE_BIT)
            got = sw_universal_decode(cx, cy, 0)
            assert got == _oracle_winners(cx.prefixes, cy.prefixes, self.N, 0)

    @pytest.mark.parametrize("n", range(6, 11))
    @pytest.mark.parametrize("probs, alphabet, schedule, count", [
        ([[0.45, 0.05], [0.05, 0.45]], 2, ONE_BIT, 20),
        ([[0.1, 0.05], [0.05, 0.8]], 2, ONE_BIT, 20),
        ([[0.3, 0.04, 0.02], [0.04, 0.25, 0.03], [0.02, 0.03, 0.27]], 3, TWO_BITS, 30),
    ], ids=["example1", "example2", "ternary"])
    def test_universal_matches_oracle_on_random_bins(self, n, probs, alphabet,
                                                     schedule, count):
        d = JointDistribution.from_matrix(probs)
        rng = np.random.default_rng(1000 + n)
        for t in range(count):
            x, y = sample_source(d, n, int(rng.integers(1 << 30)))
            cx = candidate_set_for(t, "x", x, schedule, alphabet=alphabet)
            cy = candidate_set_for(t, "y", y, schedule, alphabet=alphabet)
            want = _oracle_winners(cx.prefixes, cy.prefixes, n, 0)
            for delay in (0, 2):
                assert sw_universal_decode(cx, cy, delay) == (
                    want[0][: n - delay], want[1][: n - delay])

    def test_universal_ties_break_lexicographically_not_by_position(self):
        # unsorted hand-built bins whose top scores tie: the first tied
        # candidate in list order is not the lexicographically smallest
        xs = [b"\x00\x01\x01\x00", b"\x01\x01\x01\x01", b"\x00\x00\x01\x01",
              b"\x01\x00\x00\x00"]
        ys = [b"\x00\x01\x01\x01", b"\x01\x01\x00\x00", b"\x00\x01\x00\x00",
              b"\x00\x00\x00\x00"]
        scores = [_oracle_scores((xb, yb), xs, ys, 4) for xb in xs for yb in ys]
        best_x = [max(s[0] for s in scores[4 * i: 4 * i + 4]) for i in range(4)]
        best_y = [max(scores[4 * i + j][1] for i in range(4)) for j in range(4)]
        assert best_x == [0, 1, 0, 1] and best_y == [1, 0, 0, 1]
        got = sw_universal_decode(_hand_built("x", xs), _hand_built("y", ys), 0)
        assert got == (b"\x01\x00\x00\x00", b"\x00\x00\x00\x00")
        assert got == _oracle_winners(xs, ys, 4, 0)

    def test_ml_ties_break_lexicographically_not_by_position(self):
        # unsorted hand-built bins on a uniform source: every pair ties, and
        # each ML decoder returns the lexicographically smallest
        xs = [b"\x01\x00\x01\x00", b"\x00\x01\x01\x00", b"\x00\x01\x00\x01"]
        ys = [b"\x01\x01\x00\x00", b"\x00\x00\x01\x00", b"\x01\x00\x00\x00"]
        d = JointDistribution.from_matrix([[0.25, 0.25], [0.25, 0.25]])
        cx, cy = _hand_built("x", xs), _hand_built("y", ys)
        assert sw_ml_decode(cx, cy, d, 0) == (min(xs), min(ys))
        assert si_decode_ml(cx, ys[0], d, 0) == min(xs)
        assert ml_decode(cx, JointDistribution.from_marginal([0.5, 0.5]), 0) == min(xs)

    def test_ml_argmax_across_lane_blocks(self):
        # a product of four lane blocks, in shuffled list order: the winner
        # is the first maximizer over all of the product's pairs
        members = [bytes(c) for c in itertools.product(range(2), repeat=7)]
        order = np.random.default_rng(4).permutation(len(members))
        cands = [_hand_built(s, [members[i] for i in order]) for s in ("x", "y")]
        assert len(members) ** 2 == 4 * _LANE_BUDGET
        uniform = JointDistribution.from_matrix([[0.25, 0.25], [0.25, 0.25]])
        assert sw_ml_decode(*cands, uniform, 0) == (members[0], members[0])
        d = JointDistribution.from_matrix([[0.1, 0.05], [0.05, 0.8]])
        assert sw_ml_decode(*cands, d, 0) == _oracle_sw_ml(members, members, np.array(d.probs), 7, 0)

    @pytest.mark.parametrize("probs", [
        [[0.1, 0.05], [0.05, 0.8]],
        [[0.25, 0.25], [0.25, 0.25]],  # every pair ties: the first one wins
    ], ids=["example2", "uniform"])
    def test_chunk_matches_one_trial_decoder_across_lane_blocks(self, probs):
        # a chunk whose bin products fill several lane blocks, with trials
        # that straddle block starts: each trial's decision is the one-trial
        # decoder's, whose products here fit in one block
        d = JointDistribution.from_matrix(probs)
        bins_x, bins_y, x_rows, y_rows = TestScoreKernel._chunk(
            d.probs, ONE_BIT, 10, 400, seed=8)
        fx, fy = first_errors("sw_ml", d, bins_x, bins_y, x_rows, y_rows)
        pairs = np.bincount(bins_x.trial, minlength=400) * np.bincount(bins_y.trial, minlength=400)
        ends = np.cumsum(pairs)
        assert ends[-1] >= 3 * _LANE_BUDGET and pairs.max() < _LANE_BUDGET
        straddle = [t for t in range(400)
                    if (ends[t] - pairs[t]) // _LANE_BUDGET < (ends[t] - 1) // _LANE_BUDGET]
        assert len(straddle) >= 3
        for t in range(400):
            cx, cy = (_hand_built(s, _members(b, t)) for s, b in (("x", bins_x), ("y", bins_y)))
            x_hat, y_hat = sw_ml_decode(cx, cy, d, 0)
            assert (fx[t], fy[t]) == (_first_error(x_hat, x_rows[t], 10),
                                      _first_error(y_hat, y_rows[t], 10))

    def test_ml_matches_product_argmax(self):
        d = JointDistribution.from_matrix([[0.1, 0.05], [0.05, 0.8]])
        rng = np.random.default_rng(321)
        for t in range(50):
            x, y = sample_source(d, self.N, int(rng.integers(1 << 30)))
            cx = candidate_set_for(t, "x", x, ONE_BIT)
            cy = candidate_set_for(t, "y", y, ONE_BIT)
            assert sw_ml_decode(cx, cy, d, 0) == _oracle_sw_ml(
                cx.prefixes, cy.prefixes, np.array(d.probs), self.N, 0)

    def test_ml_independent_source_factorizes(self):
        # independent x, y: the joint argmax is the pair of marginal argmaxes
        px, py = [0.3, 0.7], [0.6, 0.4]
        d = JointDistribution.from_matrix(np.outer(px, py))
        rng = np.random.default_rng(17)
        for t in range(30):
            x, y = sample_source(d, self.N, int(rng.integers(1 << 30)))
            cx = candidate_set_for(t, "x", x, ONE_BIT)
            cy = candidate_set_for(t, "y", y, ONE_BIT)
            jx, jy = sw_ml_decode(cx, cy, d, 0)
            assert jx == ml_decode(cx, JointDistribution.from_marginal(px), 0)
            assert jy == ml_decode(cy, JointDistribution.from_marginal(py), 0)

    def test_bins_at_different_steps_rejected(self):
        d = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])
        x, y = sample_source(d, self.N, 5)
        cx = candidate_set_for(8, "x", x, ONE_BIT)
        cy = candidate_set_for(8, "y", y[:-1], ONE_BIT)
        with pytest.raises(ValueError, match="different steps"):
            sw_ml_decode(cx, cy, d, 0)
        with pytest.raises(ValueError, match="different steps"):
            sw_universal_decode(cx, cy, 0)
        with pytest.raises(ValueError, match="different steps"):
            compute_scores((cx.prefixes[0], cy.prefixes[0]), cx, cy)

    def test_full_delay_empty_estimates(self):
        d = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])
        x, y = sample_source(d, self.N, 5)
        cx = candidate_set_for(8, "x", x, ONE_BIT)
        cy = candidate_set_for(8, "y", y, ONE_BIT)
        assert sw_universal_decode(cx, cy, self.N) == (b"", b"")
        assert sw_ml_decode(cx, cy, d, self.N) == (b"", b"")


class TestDecoderTable:
    """The one chunk entry point, `first_errors`, and its decoder table."""

    def test_the_six_decoders(self):
        assert DECODERS == ("ml", "universal", "si_ml", "si_universal", "sw_ml",
                            "sw_universal")

    def test_unknown_decoder_rejected(self):
        seeds, seqs = _chunk(2, 6, 3)
        bins = replay_bins(seeds, seqs, "x", ONE_BIT, 2)
        with pytest.raises(ValueError, match="unknown decoder"):
            first_errors("viterbi", JointDistribution.from_marginal([0.5, 0.5]), bins,
                         None, seqs, seqs)

    @pytest.mark.parametrize("decoder", ["ml", "universal"])
    def test_point_to_point_decoders_read_y_as_zeros(self, decoder):
        # whatever y rows they are given, the decisions are those against
        # y = 0^n, and y is decoded without error
        d = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])
        n, trials = 12, 60
        seeds, x_rows = _chunk(2, n, trials, seed0=40, rng_seed=1)
        y_rows = np.random.default_rng(2).integers(0, 2, size=(trials, n)).astype(np.uint8)
        assert y_rows.any()
        bins = replay_bins(seeds, x_rows, "x", ONE_BIT, 2)
        fx, fy = first_errors(decoder, d, bins, None, x_rows, y_rows)
        zeros = first_errors(decoder, d, bins, None, x_rows, np.zeros_like(y_rows))
        assert (fx == zeros[0]).all() and (fx <= n).any()
        assert (fy == n + 1).all() and (zeros[1] == n + 1).all()

    def test_ml_symbols_outside_the_table_rejected(self):
        # a ternary bin under a binary model: the ML kernel refuses it
        # instead of scoring the symbol 2 as probability 1
        members = [b"\x00\x00\x00\x00", b"\x02\x02\x02\x02"]
        cands = _hand_built("x", members, alphabet=3)
        binary = JointDistribution.from_marginal([0.9, 0.1])
        example1 = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])
        in_range = _hand_built("y", [b"\x00\x01\x00\x01"])
        with pytest.raises(ValueError, match="outside"):
            ml_decode(cands, binary, 0)
        with pytest.raises(ValueError, match="outside"):
            si_decode_ml(cands, bytes(4), example1, 0)
        with pytest.raises(ValueError, match="outside"):
            si_decode_ml(in_range, b"\x00\x02\x00\x00", example1, 0)
        with pytest.raises(ValueError, match="outside"):
            sw_ml_decode(cands, in_range, example1, 0)
        with pytest.raises(ValueError, match="outside"):
            sw_ml_decode(in_range, cands, example1, 0)
        seeds, seqs = _chunk(3, 6, 4)
        bins = replay_bins(seeds, seqs, "x", TWO_BITS, 3)
        with pytest.raises(ValueError, match="outside"):
            first_errors("ml", binary, bins, None, seqs, seqs)
        # in range, the same bins decode
        assert ml_decode(cands, JointDistribution.from_marginal([0.1, 0.1, 0.8]), 0) \
            == members[1]
