import collections
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swstream import codec
from swstream.codec import (
    _LANE_BUDGET,
    BinningSchedule,
    CandidateOverflowError,
    CandidateSet,
    candidate_set_for,
    chunk_trials,
    compute_scores,
    encode_step,
    enumerate_bin,
    expected_bin_size,
    initial_candidates,
    ml_decode,
    ml_first_errors,
    replay_bins,
    si_decode_ml,
    si_decode_universal,
    sw_ml_decode,
    sw_universal_decode,
    sw_universal_first_errors,
    universal_decode,
    update_candidates,
)
from swstream.info_core import (
    JointDistribution,
    suffix_entropies,
    weighted_suffix_entropy,
)
from swstream.sim import derive_trial_seed, sample_source
from swstream.verify import _oracle_ml, _oracle_universal
from oracles import (
    _oracle_scores,
    _oracle_si_ml,
    _oracle_si_universal,
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
        assert s.average_rate_bits == pytest.approx(1.25)

    def test_total_bits_matches_sum(self):
        s = BinningSchedule((3, 0, 1))
        for n in range(0, 10):
            assert s.total_bits(n) == sum(s.bits_at(j) for j in range(1, n + 1))


class TestEncodeStep:
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
        (22, 3),    # 66 bits: symbol 21's chunk straddles words 0 and 1
        (256, 1),   # the 256-bit edge: all four words, one bit per symbol
        (64, 4),
    ])
    def test_lane_words_match_stepwise_layout(self, alphabet, nbits):
        # the lane path (uint64 chain states, mixed into big-endian words and
        # unpacked) gives every child the chunk encode_step gives it
        rng = np.random.default_rng(alphabet)
        schedule = BinningSchedule((nbits,))
        parents = [bytes(rng.integers(0, alphabet, size=k).tolist()) for k in (0, 1, 3, 5)]
        for seed in (0, 9, 2 ** 70, -3):
            state = np.full(len(parents), codec._stream_key(seed, "y"), np.uint64)
            for j in range(max(map(len, parents))):
                step = np.array([p[j] if j < len(p) else 0 for p in parents], np.uint64)
                chained = codec._chain(state, step)
                state = np.where([j < len(p) for p in parents], chained, state)
            chunks = codec._parity_chunks(state, alphabet, nbits)
            for i, parent in enumerate(parents):
                for a in range(alphabet):
                    want = encode_step(seed, "y", parent + bytes([a]), schedule)
                    assert tuple(chunks[i, a].tolist()) == want

    def test_wide_alphabet_guard(self):
        # 256 symbols x 2 bits would need 512 bits of PRF output
        with pytest.raises(ValueError):
            encode_step(1, "x", bytes([255]), TWO_BITS)
        # 1 bit per symbol at alphabet 256 exactly fits
        assert encode_step(1, "x", bytes([255]), ONE_BIT) in ((0,), (1,))


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
        (22, (3,), 4),             # chunks cross 64-bit word boundaries
        (32, (8,), 4),             # the full 256-bit word
    ])
    def test_matches_stepwise_replay_in_order(self, alphabet, pattern, n):
        schedule = BinningSchedule(pattern)
        seeds, seqs = _chunk(alphabet, n, 25, seed0=100 * alphabet)
        bins = replay_bins(seeds, seqs, "x", schedule, alphabet)
        assert not bins.overflow.any()
        for t, seed in enumerate(seeds):
            got = bins.candidate_set(t)
            want = _stepwise(seed, "x", seqs[t].tobytes(), schedule, alphabet,
                             2 ** 20)
            assert got.prefixes == want  # same members, same order
            assert got.prefixes == candidate_set_for(
                seed, "x", seqs[t].tobytes(), schedule, alphabet).prefixes
            assert got.step == n and got.seed == seed and got.alphabet == alphabet

    @pytest.mark.parametrize("alphabet, pattern, n", [
        (2, (1,), 6), (2, (1, 0, 2), 6), (3, (2,), 5), (4, (2, 1), 4),
    ])
    def test_matches_exhaustive_bins(self, alphabet, pattern, n):
        schedule = BinningSchedule(pattern)
        seeds, seqs = _chunk(alphabet, n, 6, seed0=7, rng_seed=alphabet)
        bins = replay_bins(seeds, seqs, "y", schedule, alphabet)
        for t, seed in enumerate(seeds):
            members = enumerate_bin(seed, "y", schedule, alphabet, seqs[t].tobytes())
            assert set(bins.candidate_set(t).prefixes) == set(members)

    def test_overflow_aborts_exactly_the_scalar_trials(self):
        sparse = BinningSchedule((1, 0, 0, 0))
        seeds, seqs = _chunk(2, 12, 40, seed0=3)
        cap = 300
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
                assert bins.candidate_set(t).prefixes == want

    def test_live_mask_replays_only_selected_trials(self):
        seeds, seqs = _chunk(2, 8, 6)
        live = np.array([True, False, True, True, False, True])
        bins = replay_bins(seeds, seqs, "x", ONE_BIT, 2, live=live)
        assert set(bins.trial.tolist()) == {0, 2, 3, 5}
        assert not bins.overflow.any()
        full = replay_bins(seeds, seqs, "x", ONE_BIT, 2)
        for t in (0, 2, 3, 5):
            assert bins.candidate_set(t) == full.candidate_set(t)

    def test_rejects_symbols_outside_alphabet_and_wide_words(self):
        with pytest.raises(ValueError):
            replay_bins([1], np.array([[0, 2]], np.uint8), "x", ONE_BIT, 2)
        with pytest.raises(ValueError):
            replay_bins([1], np.array([[0, 1]], np.uint8), "x", TWO_BITS, 129)

    def test_chunk_size_from_mean_bin_size(self):
        # 1 bit/step at |A| = 2: E|C_j| = 1 + j/2, so the widest step of a
        # 16-step trial has 2 * 8.5 children in the mean
        assert expected_bin_size(16, 2, ONE_BIT) == pytest.approx(9.0)
        assert chunk_trials(16, [(2, ONE_BIT)]) == _LANE_BUDGET // 17
        assert chunk_trials(24, [(2, ONE_BIT), (2, TWO_BITS)]) == _LANE_BUDGET // 25
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
        if side_information:
            probs, side = d.probs, ys
        else:
            probs, side = d.marginal_x().reshape(-1, 1), np.zeros_like(xs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first = ml_first_errors(bins, xs, probs, side)
        tied = 0
        for t in range(trials):
            cands = bins.candidate_set(t)
            if side_information:
                y = pairs[t][1]
                best = _oracle_si_ml(cands.prefixes, y, d, n, 0)
                assert best == si_decode_ml(cands, y, d, 0)
            else:
                best = _oracle_ml(cands.prefixes, probs.ravel(), n, 0)
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

    def test_overflowed_trials_are_skipped(self):
        sparse = BinningSchedule((1, 0, 0, 0))
        seeds, seqs = _chunk(2, 12, 20, seed0=3)
        # the cap is near the mean final bin size, E|C_12| = 804, so about
        # half of the trials overflow whatever the PRF's draws
        bins = replay_bins(seeds, seqs, "x", sparse, 2, cap=800)
        assert bins.overflow.any() and not bins.overflow.all()
        px = np.array([[0.5], [0.5]])
        first = ml_first_errors(bins, seqs, px, np.zeros_like(seqs))
        for t in range(len(seeds)):
            if not bins.overflow[t]:
                best = _oracle_ml(bins.candidate_set(t).prefixes, px.ravel(), 12, 0)
                wrong = [i for i in range(12) if best[i] != seqs[t, i]]
                assert first[t] == (wrong[0] + 1 if wrong else 13)


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
                want = _oracle_ml(list(cands.prefixes), px, self.N, delay)
                assert got == want

    def test_universal_matches_oracle(self):
        for seq, cands in self._bins(200, seed0=1000):
            for delay in (0, 3):
                got = universal_decode(cands, delay)
                want = _oracle_universal(list(cands.prefixes), self.N, delay)
                assert got == want

    def test_si_ml_matches_oracle(self):
        d = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])
        rng = np.random.default_rng(31)
        for t in range(100):
            x, y = sample_source(d, self.N, int(rng.integers(1 << 30)))
            cands = candidate_set_for(t, "x", x, ONE_BIT)
            got = si_decode_ml(cands, y, d, 0)
            want = _oracle_si_ml(list(cands.prefixes), y, d, self.N, 0)
            assert got == want

    def test_si_universal_matches_oracle(self):
        d = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])
        rng = np.random.default_rng(13)
        for t in range(100):
            x, y = sample_source(d, self.N, int(rng.integers(1 << 30)))
            cands = candidate_set_for(t, "x", x, ONE_BIT)
            for delay in (0, 2):
                got = si_decode_universal(cands, y, delay)
                want = _oracle_si_universal(list(cands.prefixes), y, self.N, delay)
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
                    members, px, self.N, delay
                )
                assert universal_decode(cands, delay) == _oracle_universal(
                    members, self.N, delay
                )

    def test_ml_on_joint_model_uses_x_marginal(self):
        d = JointDistribution.from_matrix([[0.1, 0.05], [0.05, 0.8]])
        for seq, cands in self._bins(100, seed0=3000):
            for delay in (0, 2):
                got = ml_decode(cands, d, delay)
                want = _oracle_ml(list(cands.prefixes), d.marginal_x(), self.N, delay)
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
        # every cell of the lane table of the bin product against the
        # definition, and the one-pair function on a few cells of each pair
        n, _, (xs, ys) = case
        pairs = list(itertools.product(xs, ys))
        table = suffix_entropies([list(x) for x, _ in pairs], [list(y) for _, y in pairs])
        assert table.shape == (len(pairs), n + 1, n + 1)
        for (x, y), cells in zip(pairs, table):
            for l in range(1, n + 2):
                for k in range(1, n + 2):
                    assert cells[l - 1, k - 1] == _oracle_wse(x, y, l, k, n)
            for l, k in ((1, 1), (1, n + 1), (n + 1, 1), (n // 2 + 1, 1), (1, n // 2 + 1)):
                assert weighted_suffix_entropy(x, y, l, k, n) == _oracle_wse(x, y, l, k, n)


def _first_error(decoded, truth, n):
    return next((i + 1 for i in range(n) if decoded[i] != truth[i]), n + 1)


class TestScoreKernel:
    """The trial-batched score pass: each trial of a chunk decoded by
    sw_universal_first_errors against the oracle winners of its bins."""

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
        fx, fy = sw_universal_first_errors(bins_x, bins_y, x_rows, y_rows)
        decoded = []
        for t, (x, y) in enumerate(zip(x_rows, y_rows)):
            xs = bins_x.candidate_set(t).prefixes
            ys = bins_y.candidate_set(t).prefixes
            decoded.append(bool(xs and ys))
            if not decoded[-1]:
                assert fx[t] == fy[t] == n + 1
                continue
            want_x, want_y = _oracle_winners(xs, ys, n, 0)
            assert (fx[t], fy[t]) == (_first_error(want_x, x, n), _first_error(want_y, y, n))
        return decoded

    @pytest.mark.parametrize("budgets", [None, (7, 40)], ids=["default", "small"])
    @pytest.mark.parametrize("probs, schedule, n, trials", [
        (EXAMPLE1, ONE_BIT, 8, 12),
        (EXAMPLE2, ONE_BIT, 9, 12),
        (TERNARY, TWO_BITS, 6, 10),
    ], ids=["example1", "example2", "ternary"])
    def test_chunk_matches_oracle(self, probs, schedule, n, trials, budgets,
                                  monkeypatch):
        # small budgets split the chunk into groups of a few pairs and a
        # trial's rival product over several blocks of pair rows
        if budgets:
            monkeypatch.setattr(codec, "_PAIR_BUDGET", budgets[0])
            monkeypatch.setattr(codec, "_RIVAL_BUDGET", budgets[1])
        chunk = self._chunk(probs, schedule, n, trials, seed=n)
        if budgets:
            bins_x, bins_y = chunk[:2]
            sizes = [len(bins_x.candidate_set(t).prefixes) * len(bins_y.candidate_set(t).prefixes)
                     for t in range(trials)]
            assert max(sizes) ** 2 > 2 * budgets[1]
        assert all(self._check(*chunk))

    def test_trials_without_lanes_between_live_ones(self):
        # x bins overflow at a small cap, and y bins are not replayed for
        # the trials the mask drops: both end with n + 1 and leave the
        # decisions of the live trials around them as they are
        live = np.arange(24) % 5 != 2
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
        # a product of four lane blocks, in shuffled list order: the first
        # maximizer of an early block must survive the later blocks
        members = [bytes(c) for c in itertools.product(range(2), repeat=7)]
        order = np.random.default_rng(4).permutation(len(members))
        cands = [_hand_built(s, [members[i] for i in order]) for s in ("x", "y")]
        assert len(members) ** 2 == 4 * _LANE_BUDGET
        uniform = JointDistribution.from_matrix([[0.25, 0.25], [0.25, 0.25]])
        assert sw_ml_decode(*cands, uniform, 0) == (members[0], members[0])
        d = JointDistribution.from_matrix([[0.1, 0.05], [0.05, 0.8]])

        def ll(pair):
            counts = sorted(collections.Counter(zip(*pair)).items())
            return sum(c * math.log(d.probs[a, b]) for (a, b), c in counts)

        want = min(itertools.product(members, members), key=lambda pr: (-ll(pr), pr))
        assert sw_ml_decode(*cands, d, 0) == want

    def test_ml_matches_product_argmax(self):
        d = JointDistribution.from_matrix([[0.1, 0.05], [0.05, 0.8]])
        rng = np.random.default_rng(321)
        p = d.probs
        for t in range(50):
            x, y = sample_source(d, self.N, int(rng.integers(1 << 30)))
            cx = candidate_set_for(t, "x", x, ONE_BIT)
            cy = candidate_set_for(t, "y", y, ONE_BIT)
            got = sw_ml_decode(cx, cy, d, 0)

            def ll(pair):
                return sum(
                    math.log(p[a, b]) for a, b in zip(pair[0], pair[1])
                )

            want = min(
                itertools.product(cx.prefixes, cy.prefixes),
                key=lambda pr: (-ll(pr), pr),
            )
            assert got == want

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
