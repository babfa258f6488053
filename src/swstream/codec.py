"""Sequential random-binning encoders and decoders.

Parity bits are a keyed hash of (seed, stream id, prefix), which gives the
causal, prefix-consistent binning of a time-varying random tree code without
ever materializing a codebook: sequences that agree on their first l symbols
automatically agree on the parity bits of the first l steps.  The hash is a
keyed splitmix64-style mixer (Steele, Lea & Flood, OOPSLA 2014), `_mix`,
chained over the prefix: the empty prefix's state is an 8-byte BLAKE2b of
b"<seed>:<stream id>", and a prefix extended by symbol a has state
mix(s + (a + 1) * phi).  A parent's 256-bit parity word is the four words
mix(s ^ C_k), big-endian, and covers every possible j-th symbol: symbol a
reads bits [a*nbits, (a+1)*nbits) of it, MSB first, so advancing a
candidate set costs one chain state per surviving parent.  The same `_mix`
runs on Python ints (the step-wise API) and on uint64 arrays (the lanes).

Sequences and prefixes are byte strings (one byte per symbol); byte strings
compare lexicographically, which is the tie-break order used everywhere.

There is one maximum-likelihood rule (a joint-likelihood argmax over a
product of x and y candidate lists) and one universal rule (minimum joint
empirical suffix entropy, decided left to right).  The two-encoder ML decoder
runs the first over Cx x Cy, the side-information decoders run both over
Cx x {y}, and the point-to-point decoders are the |Y| = 1 case: the same
rules against y = 0^n, with the x-marginal as an |X| x 1 table.  Every pair
then reads (a, 0), so the counts, and the floats, are those of x alone.  The
ML rule is one kernel, `_ml_winners`, which reads a pair as one sequence of
joint symbols a * |Y| + b: every pair is a lane, a row of joint symbols
tagged with its trial, and each trial's winner is its first lane of maximal
sum of c * log p over the symbols, in ascending order (a finite sum within
1e-12 * (n + |sum|) of the maximum ties with it).  `ml_first_errors`
runs it over every trial of a chunk; `ml_decode`, `si_decode_ml` and
`sw_ml_decode` are its one-trial case, on the product of the sorted
candidate lists, so the first maximizer is the lexicographically smallest.
The universal rule counts the zipped pairs (a, b), or x alone when there is
no side information (the same counts), and takes every entropy from
`info_core`, whose count rows give the counts of any window.

The two-encoder universal decoder is the score decoder at the end of the
module.  A pair's scores i_x, i_y are one less than the smallest l and k of
the cells (l, k) it marks: those where a rival pair first diverging there has
weighted suffix entropy <= the pair's own (a tie marks; no mark scores
n + 1).  One kernel, the score pass `_sw_scores`, scores every pair of every
trial's bin product in a chunk.  Each (pair, rival) entry is an element of
flat arrays, with l and k read from first-divergence tables of the trial's
x and y lanes, and both entropies from a table of every cell of every pair
(`info_core._suffix_table`, built on the lane entropy tables of
`info_core.window_entropies`).  Fixed budgets on the pairs whose table is
live and on the entries compared at once bound its memory.  Each trial's
winners are its first x (y) lane of maximal best i_x (i_y) over its pairs.
`sw_universal_first_errors` runs the pass over a chunk;
`sw_universal_decode` is its one-trial case, on the sorted candidate lists,
so the first maximizer is the lexicographically smallest; and
`compute_scores` reads one pair of it.  (The O(P^2) definition, scored
rival by rival, is the test oracle in `tests/oracles.py`.)

The Monte Carlo harness replays the bins of a chunk of trials at once
(`replay_bins`).  A chunk's bins are flat lanes, one per bin member: the
trial it belongs to, its prefix as a row of an n-column uint8 array, and
whether it is the true path.  Each trial's lanes are contiguous and in
lexicographic order, because children are kept in parent-then-symbol order,
as `update_candidates` keeps them.  Each lane also carries its prefix's
chain state, as a uint64.  A step mixes every surviving parent's state into
the parity words it needs (ceil(|A| * nbits / 64), at most four) and reads
each symbol's parity chunk off their unpacked bits.  The encoder's parity
bits at step j are the chunk of symbol x_j in the word of x_1^(j-1), which
is the true parent; the true path always survives, so the true lane's word
supplies the received bits and the encoder costs no hash of its own.  A
trial whose bin exceeds the cap at a step is dropped at that step and its step
recorded.  `candidate_set_for` is the one-trial case;
`initial_candidates`/`encode_step`/`update_candidates` and `enumerate_bin`
remain the step-wise API and the engine's test oracles.  A chunk's lanes
are in order, so `ml_first_errors` and `sw_universal_first_errors` decode
them as they are.  The harness
sizes a chunk by the closed-form mean bin size (`expected_bin_size`) against
a fixed lane budget (`chunk_trials`), which bounds its memory.

The decoders are exact but exponential-time by design; they are meant for
desk-scale horizons (n <= 24 single-stream, n <= 12 for the two-encoder
decoders, whose score pass costs time quadratic in the bin product).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .info_core import (
    JointDistribution,
    _as_int,
    _count_rows,
    _suffix_table,
    _window_entropy,
    window_entropies,
)
# imported only for bench/trace_layers.py, which wraps it here; ROADMAP item 3 removes this
from .info_core import weighted_suffix_entropy  # noqa: F401

__all__ = [
    "BinningSchedule",
    "CandidateSet",
    "CandidateOverflowError",
    "encode_step",
    "initial_candidates",
    "update_candidates",
    "candidate_set_for",
    "Bins",
    "replay_bins",
    "expected_bin_size",
    "chunk_trials",
    "ml_first_errors",
    "sw_universal_first_errors",
    "ml_decode",
    "universal_decode",
    "si_decode_ml",
    "si_decode_universal",
    "compute_scores",
    "sw_universal_decode",
    "sw_ml_decode",
    "enumerate_bin",
    "DEFAULT_CANDIDATE_CAP",
]

DEFAULT_CANDIDATE_CAP = 2 ** 20
MAX_HORIZON_SINGLE = 24
MAX_HORIZON_TWO_ENCODER = 12
_PRF_BITS = 256
_M64 = (1 << 64) - 1
# splitmix64's increment, the odd integer nearest 2^64 / golden ratio
_GOLDEN = 0x9E3779B97F4A7C15
# C_k, the first 256 fractional bits of pi: word k of a parent's parity word
# is mix(state ^ C_k)
_WORD_KEYS = (0x243F6A8885A308D3, 0x13198A2E03707344,
              0xA4093822299F31D0, 0x082EFA98EC4E6C89)
# lanes (bin members times symbols) a chunk of trials may hold at one step,
# in the mean.  It bounds a chunk's memory, most of it per-lane prefixes and
# parity chunks: on the README simulate config 2 ** 12 adds about 2 MB of
# peak RSS.  There 2 ** 14 ran about 45 % more trials per second in process,
# for 2 MB more, since each step's numpy calls cost the same per chunk.  A
# one-trial ML decode takes its bin product in blocks of as many pairs.
_LANE_BUDGET = 2 ** 12
# the two-encoder score pass holds the suffix-entropy tables of at most this
# many pairs, and compares at most this many (pair, rival) entries, at once:
# on the mc-sw-universal config they add about 1.5 MB of peak RSS, and
# 4 times the pairs added 6 MB
_PAIR_BUDGET = _LANE_BUDGET // 16
_RIVAL_BUDGET = 2 * _LANE_BUDGET
# ML log-likelihoods within _ML_TIE * (n + |score|) of each other tie: a
# lane's score sums at most |A||Y| rounded terms c log p, each off by about
# 2^-53 (c + |c log p|)
_ML_TIE = 1e-12


class CandidateOverflowError(RuntimeError):
    """Raised when a candidate set outgrows the configured cap.

    Rates below the source entropy make the bin grow exponentially; the
    simulator records the aborted trial instead of looping forever.
    """


@dataclass(frozen=True)
class BinningSchedule:
    """Periodic bits-per-step pattern, e.g. (2, 1, 1, 1) for 5/4 bits/symbol."""

    pattern: tuple

    def __post_init__(self):
        pattern = tuple(_as_int(b) for b in self.pattern)
        if not pattern:
            raise ValueError("empty schedule pattern")
        if any(b < 0 for b in pattern):
            raise ValueError("negative bit count in schedule")
        if sum(pattern) == 0:
            raise ValueError("schedule must emit at least one bit per period")
        object.__setattr__(self, "pattern", pattern)

    @property
    def period(self) -> int:
        return len(self.pattern)

    def bits_at(self, step: int) -> int:
        """Bit count emitted at 1-based step index."""
        if step < 1:
            raise ValueError("steps are 1-based")
        return self.pattern[(step - 1) % self.period]

    def total_bits(self, steps: int) -> int:
        full, rem = divmod(steps, self.period)
        return full * sum(self.pattern) + sum(self.pattern[:rem])

    @property
    def average_rate_bits(self) -> float:
        return sum(self.pattern) / self.period


def _as_bytes(seq) -> bytes:
    return seq if isinstance(seq, bytes) else bytes(seq)


def _mix(z):
    """The splitmix64 finalizer, a bijection of 64-bit words, on a Python int
    (reduced mod 2^64 first) or elementwise on a uint64 array, whose
    arithmetic wraps mod 2^64 already.  Never a numpy scalar: its overflow
    warns."""
    z = z & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _stream_key(seed: int, stream_id: str) -> int:
    """The chain state of the empty prefix: an 8-byte BLAKE2b of the key
    bytes b"<seed>:<stream id>", for any int seed."""
    digest = hashlib.blake2b(b"%d:%s" % (seed, stream_id.encode()), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _chain(state, symbol):
    """The chain state of a prefix extended by symbol: Python ints, or uint64
    arrays (uint64 + int64 would give float64)."""
    return _mix(state + (symbol + 1) * _GOLDEN)


def _prf_word(seed: int, stream_id: str, parent: bytes, bits: int = _PRF_BITS) -> int:
    """The parent's 256-bit parity word, as an int: its four words
    mix(s ^ C_k), most significant first.  Only the words that hold its
    first `bits` bits are mixed; the others read 0."""
    state = _stream_key(seed, stream_id)
    for a in parent:
        state = _chain(state, a)
    keys = _WORD_KEYS[:-(-bits // 64)]
    word = 0
    for c in keys:
        word = (word << 64) | _mix(state ^ c)
    return word << (_PRF_BITS - 64 * len(keys))


def _slice_chunk(word: int, symbol: int, nbits: int) -> int:
    hi = (symbol + 1) * nbits
    if hi > _PRF_BITS:
        raise ValueError("alphabet size times step bit count exceeds PRF width")
    return (word >> (_PRF_BITS - hi)) & ((1 << nbits) - 1)


def encode_step(seed: int, stream_id: str, prefix, schedule: BinningSchedule):
    """Parity bits for one step, as a tuple of 0/1 ints, MSB first.

    Deterministic in (seed, stream_id, prefix); steps the schedule assigns
    zero bits return the empty tuple.
    """
    if not prefix:
        raise ValueError("prefix must be nonempty")
    prefix = _as_bytes(prefix)
    nbits = schedule.bits_at(len(prefix))
    if nbits == 0:
        return ()
    word = _prf_word(seed, stream_id, prefix[:-1], (prefix[-1] + 1) * nbits)
    chunk = _slice_chunk(word, prefix[-1], nbits)
    return tuple((chunk >> (nbits - 1 - i)) & 1 for i in range(nbits))


@dataclass(frozen=True)
class CandidateSet:
    """The bin as a pruned prefix tree: every length-j sequence whose
    self-generated parities match the received stream so far."""

    seed: int
    stream_id: str
    schedule: BinningSchedule
    alphabet: int
    prefixes: tuple = (b"",)
    step: int = 0


def initial_candidates(seed: int, stream_id: str, schedule: BinningSchedule,
                       alphabet: int) -> CandidateSet:
    if not (2 <= alphabet <= 256):
        raise ValueError("alphabet must be in [2, 256]")
    return CandidateSet(seed=seed, stream_id=stream_id, schedule=schedule,
                        alphabet=alphabet)


def update_candidates(cands: CandidateSet, new_bits,
                      cap: int = DEFAULT_CANDIDATE_CAP) -> CandidateSet:
    """Advance the bin one step: extend every prefix by every symbol, keep
    the children whose step parities equal the received bits."""
    new_bits = tuple(new_bits)
    step = cands.step + 1
    nbits = cands.schedule.bits_at(step)
    if len(new_bits) != nbits:
        raise ValueError(
            f"expected {nbits} bits at step {step}, got {len(new_bits)}"
        )
    alphabet = cands.alphabet
    symbols = [bytes([a]) for a in range(alphabet)]
    if nbits == 0:
        survivors = [p + s for p in cands.prefixes for s in symbols]
    else:
        target = 0
        for b in new_bits:
            target = (target << 1) | b
        seed, sid = cands.seed, cands.stream_id
        survivors = []
        for prefix in cands.prefixes:
            word = _prf_word(seed, sid, prefix, alphabet * nbits)
            for a in range(alphabet):
                if _slice_chunk(word, a, nbits) == target:
                    survivors.append(prefix + symbols[a])
    if len(survivors) > cap:
        raise CandidateOverflowError(
            f"candidate set exceeded cap {cap} at step {step} "
            f"({len(survivors)} prefixes)"
        )
    return CandidateSet(seed=cands.seed, stream_id=cands.stream_id,
                        schedule=cands.schedule, alphabet=cands.alphabet,
                        prefixes=tuple(survivors), step=step)


def candidate_set_for(seed: int, stream_id: str, sequence, schedule: BinningSchedule,
                      alphabet: int = 2,
                      cap: int = DEFAULT_CANDIDATE_CAP) -> CandidateSet:
    """Encode a realized sequence and replay the decoder-side bin updates:
    the one-trial case of `replay_bins`."""
    seq = _as_bytes(sequence)
    bins = replay_bins([seed], np.frombuffer(seq, np.uint8).reshape(1, -1),
                       stream_id, schedule, alphabet, cap)
    if bins.overflow[0]:
        raise CandidateOverflowError(
            f"candidate set exceeded cap {cap} at step {bins.overflow[0]}"
        )
    return bins.candidate_set(0)


@dataclass(frozen=True)
class Bins:
    """The full-horizon bins of a chunk of trials, one lane per bin member.

    `trial[i]` is lane i's trial (ascending), `prefixes[i]` its n symbols;
    `overflow[t]` is the step at which trial t's bin exceeded the cap, and 0
    when it did not (an overflowed trial has no lanes)."""

    seeds: tuple
    stream_id: str
    schedule: BinningSchedule
    alphabet: int
    trial: np.ndarray
    prefixes: np.ndarray
    overflow: np.ndarray

    def candidate_set(self, t: int) -> CandidateSet:
        lo, hi = np.searchsorted(self.trial, (t, t + 1))
        return CandidateSet(seed=self.seeds[t], stream_id=self.stream_id,
                            schedule=self.schedule, alphabet=self.alphabet,
                            prefixes=tuple(map(bytes, self.prefixes[lo:hi])),
                            step=self.prefixes.shape[1])


def _parity_chunks(state, alphabet: int, nbits: int):
    """Bits [a*nbits, (a+1)*nbits) of each lane's parity word, MSB first, as
    a (lanes, alphabet, nbits) array: the parity chunk of every child.  Only
    the words those bits reach are mixed."""
    used = alphabet * nbits
    words = _mix(state[:, None] ^ np.array(_WORD_KEYS[:-(-used // 64)], np.uint64))
    octets = words.astype(">u8").view(np.uint8)
    bits = np.unpackbits(octets[:, :-(-used // 8)], axis=1)
    return bits[:, :used].reshape(-1, alphabet, nbits)


def replay_bins(seeds, seqs, stream_id: str, schedule: BinningSchedule,
                alphabet: int, cap: int = DEFAULT_CANDIDATE_CAP,
                live=None) -> Bins:
    """Encode each row of seqs (trials x n symbols) under its trial's seed
    and replay the decoder-side bins of all of them at once (see the module
    docstring).  Only the trials the boolean mask `live` selects are
    replayed; the others end with no lanes and overflow 0."""
    if not (2 <= alphabet <= 256):
        raise ValueError("alphabet must be in [2, 256]")
    seqs = np.asarray(seqs, dtype=np.uint8)
    trials, n = seqs.shape
    if seqs.size and int(seqs.max()) >= alphabet:
        raise ValueError("sequence symbol outside the alphabet")
    if alphabet * max((schedule.bits_at(j) for j in range(1, n + 1)), default=0) \
            > _PRF_BITS:
        raise ValueError("alphabet size times step bit count exceeds PRF width")
    trial = np.arange(trials) if live is None else np.flatnonzero(live)
    state = np.array([_stream_key(seed, stream_id) for seed in seeds], np.uint64)[trial]
    prefixes = np.zeros((len(trial), n), np.uint8)
    true = np.ones(len(trial), bool)
    overflow = np.zeros(trials, np.int64)
    for j in range(1, n + 1):
        nbits = schedule.bits_at(j)
        if nbits == 0:
            keep = np.ones((len(trial), alphabet), bool)
        else:
            chunks = _parity_chunks(state, alphabet, nbits)
            # the received bits: the true child's chunk of the true parent
            target = np.zeros((trials, nbits), np.uint8)
            truth = np.flatnonzero(true)
            target[trial[truth]] = chunks[truth, seqs[trial[truth], j - 1]]
            keep = (chunks == target[trial][:, None, :]).all(axis=2)
        parent, symbol = np.nonzero(keep)
        trial = trial[parent]
        state = _chain(state[parent], symbol.astype(np.uint64))
        prefixes = prefixes[parent]
        prefixes[:, j - 1] = symbol
        true = true[parent] & (symbol == seqs[trial, j - 1])
        over = np.bincount(trial, minlength=trials) > cap
        if over.any():
            overflow[over] = j
            alive = ~over[trial]
            trial, state, prefixes, true = (trial[alive], state[alive],
                                            prefixes[alive], true[alive])
    return Bins(seeds=tuple(seeds), stream_id=stream_id, schedule=schedule,
                alphabet=alphabet, trial=trial, prefixes=prefixes,
                overflow=overflow)


def expected_bin_size(step: int, alphabet: int, schedule: BinningSchedule) -> float:
    """Closed-form mean bin size after `step` steps:
    1 + sum_{l<=j} (|A|-1) |A|^(j-l) 2^-B(l..j), B(l..j) the schedule's bits
    in steps l..j."""
    total = schedule.total_bits(step)
    return 1.0 + sum(
        (alphabet - 1) * alphabet ** (step - l)
        * 2.0 ** -(total - schedule.total_bits(l - 1))
        for l in range(1, step + 1)
    )


def chunk_trials(n: int, streams) -> int:
    """Trials per `replay_bins` chunk: the lane budget over the largest mean
    number of children a trial's bin has at one step, over the
    (alphabet, schedule) pairs of its streams."""
    widest = max(alphabet * expected_bin_size(j, alphabet, schedule)
                 for alphabet, schedule in streams for j in range(n))
    return max(1, int(_LANE_BUDGET // widest))


def enumerate_bin(seed: int, stream_id: str, schedule: BinningSchedule,
                  alphabet: int, reference) -> list:
    """Oracle-side bin: every sequence of len(reference) whose full parity
    stream matches the reference's, found by exhaustive enumeration."""
    reference = _as_bytes(reference)
    n = len(reference)

    def parities(seq):
        return [encode_step(seed, stream_id, seq[:j], schedule) for j in range(1, n + 1)]

    target = parities(reference)
    return [seq for seq in map(bytes, itertools.product(range(alphabet), repeat=n))
            if parities(seq) == target]


# ---------------------------------------------------------------------------
# Decoders.  All tie-breaks are lexicographic for reproducibility.
# ---------------------------------------------------------------------------


def _check_delay(delay: int, n: int) -> None:
    if not (0 <= delay <= n):
        raise ValueError("delay out of range")


def _side_information(y_observed, n: int) -> bytes:
    y_observed = _as_bytes(y_observed)
    if len(y_observed) != n:
        raise ValueError("side-information length must equal the horizon")
    return y_observed


def _first_max(trial, score, slack=0.0):
    """Each trial's first lane whose score is at least the trial's maximal
    score less the lane's slack, in trial order: lane i belongs to trial[i]
    (ascending)."""
    if not len(trial):
        return trial[:0]
    starts = np.flatnonzero(np.r_[True, trial[1:] != trial[:-1]])
    best = np.repeat(np.maximum.reduceat(score, starts),
                     np.diff(np.r_[starts, len(trial)]))
    top = np.flatnonzero(score >= best - slack)
    return top[np.r_[True, trial[top][1:] != trial[top][:-1]]]


def _ml_winners(trial, code, probs):
    """The ML kernel: each trial's first lane of maximal log-likelihood.

    Lane i belongs to trial[i] (ascending) and reads the joint symbols
    code[i] = a * |Y| + b; its log-likelihood is c * log p summed over the
    symbols in ascending order, with an absent symbol adding an exact 0.0
    (never 0 * -inf), so lanes of the same joint type tie bit-exactly.
    Likelihoods that are equal in exact arithmetic can still differ in their
    last bits, as two joint types of an independent source do: a finite
    score within `_ML_TIE` * (n + |score|) of the maximum ties with it.
    Returns the winning lane of each trial that has lanes, in trial order."""
    score = np.zeros(len(trial))
    for s, p in enumerate(probs.ravel().tolist()):
        lp = math.log(p) if p > 0 else -math.inf
        counts = (code == s).sum(axis=1)
        score += np.multiply(counts, lp, out=np.zeros(len(trial)), where=counts > 0)
    slack = np.where(np.isfinite(score), _ML_TIE * (code.shape[1] + np.abs(score)), 0.0)
    return _first_max(trial, score, slack)


def _first_errors(bins: Bins, winners, seqs):
    """The 1-based position of the first symbol of each trial's winning lane
    that differs from the trial's row of seqs, n + 1 when none does and for
    a trial without a winner."""
    trial, prefixes = bins.trial, bins.prefixes
    n = prefixes.shape[1]
    out = np.full(len(bins.overflow), n + 1)
    wrong = prefixes[winners] != np.asarray(seqs)[trial[winners]]
    out[trial[winners]] = np.where(wrong.any(axis=1), wrong.argmax(axis=1) + 1, n + 1)
    return out


def ml_first_errors(bins: Bins, seqs, probs, side):
    """The ML decision of every trial of a chunk against its row of side
    (trials x n observed y; 0^n with the |X| x 1 x-marginal as probs for
    point-to-point ML), as the 1-based position of its first symbol that
    differs from the trial's row of seqs, n + 1 when none does (and for an
    overflowed trial).  A trial's lanes are in order, so its first
    maximizer is its lexicographically smallest."""
    code = (bins.prefixes.astype(np.intp) * probs.shape[1]
            + np.asarray(side)[bins.trial])
    return _first_errors(bins, _ml_winners(bins.trial, code, probs), seqs)


def _lanes(members, n: int):
    """Byte-string sequences of length n as the rows of a uint8 array."""
    return np.frombuffer(b"".join(members), np.uint8).reshape(len(members), n)


def _ml_pair(xs, ys, probs):
    """The one-trial case of the ML kernel: the pair of xs x ys with the
    largest likelihood under the joint table probs[a, b], lexicographically
    smallest among ties.  Lane i of the sorted product is the pair
    (i // |ys|, i % |ys|), so the first maximizer is the smallest."""
    xs, ys = sorted(xs), sorted(ys)
    n = len(xs[0])
    x = _lanes(xs, n).astype(np.intp)
    y = _lanes(ys, n)
    best = np.zeros(0, np.intp)
    # the lanes in blocks of the lane budget, which bounds the memory of a
    # large product; each block starts with the winner so far, which
    # precedes all of its lanes, so the first maximizer stays first
    for lo in range(0, len(xs) * len(ys), _LANE_BUDGET):
        lanes = np.r_[best, lo:min(lo + _LANE_BUDGET, len(xs) * len(ys))]
        code = x[lanes // len(ys)] * probs.shape[1] + y[lanes % len(ys)]
        best = lanes[_ml_winners(np.zeros(len(lanes), np.intp), code, probs)]
    i = int(best[0])
    return xs[i // len(ys)], ys[i % len(ys)]


def ml_decode(cands: CandidateSet, source_model: JointDistribution, delay: int):
    """Most likely bin member under the source model's x-marginal, truncated
    to n - delay.

    The paper-style symbol-by-symbol construction and the global argmax agree
    (each decision conditions on the already-decided prefix), so the global
    form is used directly.
    """
    n = cands.step
    _check_delay(delay, n)
    px = source_model.marginal_x().reshape(-1, 1)
    best, _ = _ml_pair(cands.prefixes, (bytes(n),), px)
    return best[: n - delay]


def _decide_left_to_right(cands: CandidateSet, y, delay: int):
    """At each position l = 1 .. n - delay keep the candidates that agree with
    the earlier decisions and commit to the l-th symbol of the one whose
    suffix has the smallest joint empirical entropy with y_l^n,
    lexicographically smallest on ties.  y = None (no side information)
    counts each candidate's own symbols."""
    n = cands.step
    _check_delay(delay, n)
    rows = {c: _count_rows(c if y is None else tuple(zip(c, y))) for c in cands.prefixes}
    decided = b""
    pool = list(cands.prefixes)
    for l in range(1, n - delay + 1):
        pool = [c for c in pool if c[: l - 1] == decided]
        if len(pool) == 1:
            return pool[0][: n - delay]  # the later decisions are its symbols
        decided = min(pool, key=lambda c: (_window_entropy(rows[c], l - 1, n), c))[:l]
    return decided


def universal_decode(cands: CandidateSet, delay: int):
    """Minimum suffix-entropy decoding, decisions fixed left to right: the
    suffix x_l^n with the smallest empirical entropy decides position l."""
    return _decide_left_to_right(cands, None, delay)


def si_decode_ml(cands: CandidateSet, y_observed, d: JointDistribution, delay: int):
    """Maximum conditional likelihood given the observed side information."""
    n = cands.step
    y_observed = _side_information(y_observed, n)
    _check_delay(delay, n)
    best, _ = _ml_pair(cands.prefixes, (y_observed,), d.probs)
    return best[: n - delay]


def si_decode_universal(cands: CandidateSet, y_observed, delay: int):
    """Minimum empirical joint suffix-entropy decoding against known y.

    Since y is fixed, minimizing the joint suffix entropy orders candidates
    exactly as the conditional suffix entropy would.
    """
    y_observed = _side_information(y_observed, cands.step)
    return _decide_left_to_right(cands, y_observed, delay)


# ---------------------------------------------------------------------------
# Two-encoder score decoder
# ---------------------------------------------------------------------------


def _first_divergence(a, b, n: int) -> int:
    """1-based index of the first disagreement; n+1 when identical."""
    for i in range(n):
        if a[i] != b[i]:
            return i + 1
    return n + 1


def _horizon(cands_x: CandidateSet, cands_y: CandidateSet) -> int:
    """The step n both bins of a two-encoder decode are at."""
    n = cands_x.step
    if cands_y.step != n:
        raise ValueError("candidate sets are at different steps")
    return n


def _ragged(sizes):
    """Segments of the given sizes laid end to end: each element's segment
    and its offset within the segment."""
    seg = np.repeat(np.arange(len(sizes)), sizes)
    return seg, np.arange(len(seg)) - (np.cumsum(sizes) - sizes)[seg]


def _divergence(trial, prefixes, trials: int):
    """The first-divergence tables of each trial's lanes, flat: for lane i,
    the 0-based position where it first differs from each lane of its trial
    in order (n against itself); and the offset of lane i's row."""
    size = np.bincount(trial, minlength=trials)
    i, j = _ragged(size[trial])
    differ = prefixes[i] != prefixes[j + (np.cumsum(size) - size)[trial[i]]]
    # a column that always differs, at position n, ends every row
    div = np.c_[differ, np.ones(len(i), bool)].argmax(axis=1)
    return div, np.cumsum(size[trial]) - size[trial]


def _group_scores(trial_x, px, trial_y, py, trials: int):
    """The score pass over the bin products of a group of trials; see
    `_sw_scores`, which splits a chunk into such groups."""
    n = px.shape[1]
    side = n + 1
    size_x = np.bincount(trial_x, minlength=trials)
    size_y = np.bincount(trial_y, minlength=trials)
    pairs = size_x * size_y
    trial, own = _ragged(pairs)
    a, b = own // size_y[trial], own % size_y[trial]
    pair_x = (np.cumsum(size_x) - size_x)[trial] + a
    pair_y = (np.cumsum(size_y) - size_y)[trial] + b
    div_x, row_x = _divergence(trial_x, px, trials)
    div_y, row_y = _divergence(trial_y, py, trials)
    row_x, row_y = row_x[pair_x], row_y[pair_y]
    code = px[pair_x].astype(np.uint16) << 8 | py[pair_y]
    table = _suffix_table(window_entropies(code), window_entropies(px)[pair_x],
                          window_entropies(py)[pair_y], n)
    # the pair itself, at (n + 1, n + 1), is not its own rival: a NaN there
    # compares false
    table[:, -1] = np.nan
    table = table.ravel()
    rivals = pairs[trial]
    first = (np.cumsum(pairs) - pairs)[trial]
    reach = np.cumsum(rivals)
    i_x = np.empty(len(trial), np.intp)
    i_y = np.empty(len(trial), np.intp)
    r0 = 0
    while r0 < len(trial):
        # whole rows of pairs, as many as the rival budget holds and at
        # least one
        r1 = np.searchsorted(reach, reach[r0] - rivals[r0] + _RIVAL_BUDGET, "right")
        r1 = max(int(r1), r0 + 1)
        row, offset = _ragged(rivals[r0:r1])
        row += r0
        rival = first[row] + offset
        l = div_x[row_x[row] + a[rival]]
        k = div_y[row_y[row] + b[rival]]
        cell = l * side + k
        marks = table[rival * side ** 2 + cell] <= table[row * side ** 2 + cell]
        starts = np.cumsum(rivals[r0:r1]) - rivals[r0:r1]
        i_x[r0:r1] = np.minimum.reduceat(np.where(marks, l, side), starts)
        i_y[r0:r1] = np.minimum.reduceat(np.where(marks, k, side), starts)
        r0 = r1
    return pair_x, pair_y, i_x, i_y


def _sw_scores(trial_x, px, trial_y, py, trials: int):
    """The score pass of the module docstring over every pair of every
    trial's bin product.  Lane i of the x (y) bins belongs to trial_x[i]
    (trial_y[i]), ascending, and reads the symbols px[i] (py[i]).  Returns
    each pair's x and y lanes, each trial's product in a-major order, and
    its scores i_x and i_y; a trial without lanes in both bins has no
    pairs.  The trials go in groups of whole trials, as many as the pair
    budget holds and at least one, which bounds the memory."""
    pairs = np.bincount(trial_x, minlength=trials) * np.bincount(trial_y, minlength=trials)
    ends = np.cumsum(pairs)
    parts = []
    t0 = 0
    while t0 < trials:
        t1 = np.searchsorted(ends, ends[t0] - pairs[t0] + _PAIR_BUDGET, "right")
        t1 = max(int(t1), t0 + 1)
        x0, x1 = np.searchsorted(trial_x, (t0, t1))
        y0, y1 = np.searchsorted(trial_y, (t0, t1))
        pair_x, pair_y, i_x, i_y = _group_scores(
            trial_x[x0:x1] - t0, px[x0:x1], trial_y[y0:y1] - t0, py[y0:y1], t1 - t0)
        parts.append((pair_x + x0, pair_y + y0, i_x, i_y))
        t0 = t1
    return [np.concatenate(c) for c in zip(*parts)]


def _sw_winners(trial_x, px, trial_y, py, trials: int):
    """Each trial's decision: the x (y) lane attaining the maximal i_x (i_y)
    over its pairs, the first in lane order on ties; for the trials with
    lanes in both bins, in trial order."""
    pair_x, pair_y, i_x, i_y = _sw_scores(trial_x, px, trial_y, py, trials)
    winners = []
    for trial, pair, score in ((trial_x, pair_x, i_x), (trial_y, pair_y, i_y)):
        best = np.full(len(trial), -1)
        np.maximum.at(best, pair, score)
        live = np.flatnonzero(best >= 0)
        winners.append(live[_first_max(trial[live], best[live])])
    return winners


def sw_universal_first_errors(bins_x: Bins, bins_y: Bins, x_rows, y_rows):
    """The two-encoder universal decision of every trial of a chunk, as the
    1-based positions of its first x and first y symbols that differ from
    the trial's rows of x_rows and y_rows, n + 1 when none does (and for a
    trial without lanes in both bins).  A trial's lanes are in order, so
    each winner is the lexicographically smallest maximizer."""
    win_x, win_y = _sw_winners(bins_x.trial, bins_x.prefixes, bins_y.trial,
                               bins_y.prefixes, len(bins_x.overflow))
    return _first_errors(bins_x, win_x, x_rows), _first_errors(bins_y, win_y, y_rows)


def compute_scores(pair, cands_x: CandidateSet, cands_y: CandidateSet):
    """The scores (i_x, i_y) of one pair of the bin product against every
    rival pair: the one-pair readout of the score pass."""
    n = _horizon(cands_x, cands_y)
    xs, ys = cands_x.prefixes, cands_y.prefixes
    lane = xs.index(_as_bytes(pair[0])) * len(ys) + ys.index(_as_bytes(pair[1]))
    _, _, i_x, i_y = _sw_scores(np.zeros(len(xs), np.intp), _lanes(xs, n),
                                np.zeros(len(ys), np.intp), _lanes(ys, n), 1)
    return int(i_x[lane]), int(i_y[lane])


def sw_universal_decode(cands_x: CandidateSet, cands_y: CandidateSet, delay: int):
    """Pick the winners: the x (resp. y) candidate attaining the maximal
    i_x (resp. i_y) over all pairs, lexicographically smallest on ties; the
    one-trial case of the score pass, on the sorted candidate lists."""
    n = _horizon(cands_x, cands_y)
    _check_delay(delay, n)
    xs, ys = sorted(cands_x.prefixes), sorted(cands_y.prefixes)
    (wx,), (wy,) = _sw_winners(np.zeros(len(xs), np.intp), _lanes(xs, n),
                               np.zeros(len(ys), np.intp), _lanes(ys, n), 1)
    return xs[wx][: n - delay], ys[wy][: n - delay]


def sw_ml_decode(cands_x: CandidateSet, cands_y: CandidateSet,
                 d: JointDistribution, delay: int):
    """Joint-likelihood argmax over the bin product."""
    n = _horizon(cands_x, cands_y)
    _check_delay(delay, n)
    x_hat, y_hat = _ml_pair(cands_x.prefixes, cands_y.prefixes, d.probs)
    return x_hat[: n - delay], y_hat[: n - delay]
