"""Sequential random-binning encoders and decoders.

Parity bits are a keyed hash of (seed, stream id, prefix), which gives the
causal, prefix-consistent binning of a time-varying random tree code without
ever materializing a codebook: sequences that agree on their first l symbols
automatically agree on the parity bits of the first l steps.  The hash is a
keyed splitmix64-style mixer (Steele, Lea & Flood, OOPSLA 2014), `_mix`,
chained over the prefix: the empty prefix's state is mix(seed ^ K), with
the seed taken mod 2^64 and K the stream's key word, an 8-byte BLAKE2b of
the stream id computed once per stream, and a prefix extended by symbol a
has state mix(s + (a + 1) * phi).  A prefix's b parity bits at its step are
the top b bits of its own state, MSB first, so each prefix has one random
label, as in the paper's sequential random binning, and a step emits at
most 64 bits.  The same `_mix` runs on Python ints (the step-wise API) and
on uint64 arrays (the lanes, which key a whole chunk of trials at once),
these in place by `_mix_lanes`, whose oracle is the Python-int `_mix`.

Sequences and prefixes are byte strings (one byte per symbol); byte strings
compare lexicographically, which is the tie-break order used everywhere.

There is one maximum-likelihood rule (a joint-likelihood argmax over a
product of x and y candidate lists), one universal rule (minimum joint
empirical suffix entropy, decided left to right) and the two-encoder
universal score decoder, and each is one kernel that decodes every trial of
a chunk as numpy lanes: it takes the chunk's x and y lanes and returns each
trial's winning x and y lanes.  Known y is a y bin of one lane per trial.
One table, keyed by `DECODERS`, maps each of the paper's six decoders to its
kernel, the joint table it scores and how it gets y.  The two-encoder
decoders run over Cx x Cy, the side-information decoders over Cx x {y}, and
the point-to-point decoders are the |Y| = 1 case: the same rules against
y = 0^n, with the x-marginal as an |X| x 1 table.  Every pair then reads
(a, 0), so the counts, and the floats, are those of x alone.
`first_errors` runs a decoder over a chunk, and `ml_decode`, `si_decode_ml`,
`sw_ml_decode`, `universal_decode`, `si_decode_universal` and
`sw_universal_decode` are its one-trial case, on the sorted candidate lists,
so the first maximizer is the lexicographically smallest.

The Monte Carlo harness replays the bins of a chunk of trials at once
(`replay_bins`: the encoder hashes each trial's own prefix, and the lanes
keep back-pointers), whose lanes are in order, so `first_errors` decodes
them as they are, gathering lane rows with `np.take(..., axis=0)`.
`candidate_set_for` is the one-trial case of `replay_bins`, and
`initial_candidates`/`encode_step`/`update_candidates` remain the step-wise
API.  The harness sizes a chunk by the closed-form mean bin size
(`expected_bin_size`) against a lane budget of its own (`chunk_trials`),
which bounds its memory; the decoders' blocks have a smaller one.

Every empirical entropy the decoders read comes from one lane entropy
engine, which adds its terms as `info_core.entropy_of_counts` does: left to
right, in ascending count order.  The counts of a window are a difference of
cumulative count rows, one column per symbol, and a joint type counts the
zipped pairs (a, b).  The engine (`_entropies_of`) sorts a batch of window
counts by a network of minima and maxima and looks each term up in a table
of the floats `entropy_of_counts` adds.  Its count step (`_window_counts`)
takes an array of lanes once and returns the entropies of any windows
(lane, lo, hi) at once; where every count vector of a window fits a small
table, the rows are cumulative keys whose digits are the counts, and the
engine's values are read off its table of every count vector
(`_keyed_entropies`).  The weighted suffix entropy of a pair lane at a cell
(`_weighted_entropies`) combines three of its windows, whose bounds and
weights it reads off a table of every cell of the horizon (`_cell_windows`);
`weighted_suffix_entropy` takes it at one cell of one pair.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .info_core import JointDistribution, _as_int

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
    "DECODERS",
    "first_errors",
    "ml_decode",
    "universal_decode",
    "si_decode_ml",
    "si_decode_universal",
    "compute_scores",
    "weighted_suffix_entropy",
    "sw_universal_decode",
    "sw_ml_decode",
    "DEFAULT_CANDIDATE_CAP",
]

DEFAULT_CANDIDATE_CAP = 2 ** 20
_M64 = (1 << 64) - 1
# splitmix64's increment, the odd integer nearest 2^64 / golden ratio
_GOLDEN = 0x9E3779B97F4A7C15
# lanes (bin members times symbols) a chunk of trials may hold at one step,
# in the mean.  It bounds a chunk's memory, most of it per-lane links, child
# states and the ML kernel's pairs, and each step's numpy calls cost the same
# per chunk, so a larger chunk spends less per trial.  2 ** 15 against
# 2 ** 14 (best of 3 `run_trials` in process, and the `simulate` job's
# VmHWM): the README simulate config 41 -> 39.5 ms in 6 chunks, not 11,
# +0.2 MB; `sw_ml` on CI's swu-ex2 config 18.2 -> 16.4 ms, +1.1 MB; `ml` at
# n = 24 160 -> 142 ms, +1.0 MB.  Each VmHWM stays below that of the wider
# lane arrays at 2 ** 14 that the narrow ones replaced.  It stays below
# 2 ** 16, the larger budget of test_results_independent_of_chunk_budget
_CHUNK_LANES = 2 ** 15
# the decoders' blocks: the ML kernel scores a bin product this many pairs at
# a time (fewer when the joint table has more than 16 symbols, so that a
# block holds at most 16 times as many symbol counts), and the universal
# kernel reads the entropies of this many lanes at a time
_LANE_BUDGET = 2 ** 12
# the two-encoder score pass takes whole trials' bin products in groups of
# at most _GROUP_PAIRS pairs (or one trial), over which a group's fixed work
# (prefix trees, child ranks, window counts) spreads, and a group's cells in
# blocks of at most _BLOCK_PAIRS times n + 1 (or one depth), which bound the
# block's cell arrays.  On the mc-sw-universal config (seeds 0 and 1, three
# runs each) the simulate run's peak RSS (VmHWM) read 36.2-36.3 MB at these
# values, against 36.3-36.5 MB for the one 2 ** 9 budget, with wider arrays,
# that they replaced; 35.5-35.6 and 35.7-35.9 MB with groups of 2 ** 9 and
# 2 ** 10, whose fixed work costs more time, 37.9-38.1 MB with groups of
# 2 ** 12, and 37.2-37.3 MB with blocks of 2 ** 10
_GROUP_PAIRS = 2 ** 11
_BLOCK_PAIRS = 2 ** 9
# ML log-likelihoods within _ML_TIE * (n + |score|) of each other tie: a
# lane's score sums at most |A||Y| rounded terms c log p, each off by about
# 2^-53 (c + |c log p|)
_ML_TIE = 1e-12
# count vectors whose entropies the engine tabulates once, rather than
# sorting each window's counts (see `_window_counts`): (n + 1) ** columns of
# them, 8 bytes each, so the joint counts of binary pairs up to n = 21
_KEYED = 2 ** 18


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
        if any(b > 64 for b in pattern):
            raise ValueError("at most 64 bits per step: a step's parity bits are "
                             "the top bits of a 64-bit chain state")
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


def _as_bytes(seq) -> bytes:
    return seq if isinstance(seq, bytes) else bytes(seq)


def _mix(z):
    """The splitmix64 finalizer, a bijection of 64-bit words, on a Python int
    (reduced mod 2^64 first) or on a uint64 array, which `_mix_lanes` mixes
    in place, so it must be a fresh one.  Never a numpy scalar: its overflow
    warns."""
    if isinstance(z, np.ndarray):
        return _mix_lanes(z)
    z = z & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _mix_lanes(z):
    """`_mix` on a uint64 array z, in place and unmasked (it wraps mod 2^64),
    its three shifts in one scratch array."""
    scratch = np.empty_like(z)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= np.right_shift(z, shift, out=scratch)
        z *= factor
    z ^= np.right_shift(z, 31, out=scratch)
    return z


@functools.cache
def _stream_word(stream_id: str) -> int:
    """The stream's key word: an 8-byte BLAKE2b of the stream id."""
    return int.from_bytes(hashlib.blake2b(stream_id.encode(), digest_size=8).digest(), "big")


def _stream_key(seed, stream_id: str):
    """The chain state of the empty prefix, mix(seed ^ the stream's key
    word): on a Python int seed, taken mod 2^64, or elementwise on a uint64
    array of seeds."""
    return _mix(seed ^ _stream_word(stream_id))


def _seed_words(seeds):
    """Seeds as a uint64 array, each taken mod 2^64 (a uint64 array as it
    is)."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds
    return np.array([int(s) & _M64 for s in seeds], np.uint64)


def _chain(state, symbol):
    """The chain state of a prefix extended by symbol: Python ints, or uint64
    arrays at their broadcast (uint64 + int64 would give float64)."""
    return _mix(state + (symbol + 1) * _GOLDEN)


def _prefix_state(seed: int, stream_id: str, prefix: bytes) -> int:
    """The chain state of a prefix, as a Python int (of a numpy int seed
    too)."""
    state = _stream_key(int(seed), stream_id)
    for a in prefix:
        state = _chain(state, a)
    return state


def encode_step(seed: int, stream_id: str, prefix, schedule: BinningSchedule):
    """Parity bits for one step, as a tuple of 0/1 ints, MSB first: the top
    bits of the prefix's chain state.

    Deterministic in (seed, stream_id, prefix); steps the schedule assigns
    zero bits return the empty tuple.
    """
    if not prefix:
        raise ValueError("prefix must be nonempty")
    prefix = _as_bytes(prefix)
    nbits = schedule.bits_at(len(prefix))
    label = _prefix_state(seed, stream_id, prefix) >> (64 - nbits)
    return tuple((label >> (nbits - 1 - i)) & 1 for i in range(nbits))


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
    target = 0
    for b in new_bits:
        target = (target << 1) | b
    # a 0-bit step shifts every label to 0, so every child survives
    survivors = []
    for prefix in cands.prefixes:
        state = _prefix_state(cands.seed, cands.stream_id, prefix)
        for a in range(cands.alphabet):
            if _chain(state, a) >> (64 - nbits) == target:
                survivors.append(prefix + bytes([a]))
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
    return CandidateSet(seed=seed, stream_id=stream_id, schedule=schedule,
                        alphabet=alphabet, prefixes=tuple(map(bytes, bins.prefixes)),
                        step=len(seq))


@dataclass(frozen=True)
class Bins:
    """The full-horizon bins of a chunk of trials, one lane per bin member.

    `trial[i]` is lane i's trial (ascending, in the smallest unsigned dtype
    that holds the trial count), `prefixes[i]` its n symbols;
    `overflow[t]` is the step at which trial t's bin exceeded the cap, and 0
    when it did not (an overflowed trial has no lanes)."""

    trial: np.ndarray
    prefixes: np.ndarray
    overflow: np.ndarray


def replay_bins(seeds, seqs, stream_id: str, schedule: BinningSchedule,
                alphabet: int, cap: int = DEFAULT_CANDIDATE_CAP,
                live=None) -> Bins:
    """Encode each row of seqs (trials x n symbols) under its trial's seed (see
    `_seed_words`) and replay the decoder-side bins of all of them at once, as
    flat lanes, one per bin member, each carrying its prefix's chain state.  At
    each step the encoder chains each trial's true prefix and sends its top
    bits, and every lane's children, chained at once a row per symbol, stay
    where their top bits equal the sent ones, keeping their parent lane and
    symbol.  Children are kept in parent-then-symbol order, so each trial's
    lanes are contiguous and in lexicographic order; the prefixes are built
    once, back from the final lanes.  A trial whose bin exceeds the cap at a
    step leaves the lanes and the encoder there, its step recorded.  Only the
    trials the boolean mask `live` selects are replayed; the others end with
    no lanes and overflow 0."""
    if not (2 <= alphabet <= 256):
        raise ValueError("alphabet must be in [2, 256]")
    seqs = np.asarray(seqs, dtype=np.uint8)
    trials, n = seqs.shape
    if seqs.size and int(seqs.max()) >= alphabet:
        raise ValueError("sequence symbol outside the alphabet")
    trial = (np.arange(trials) if live is None else np.flatnonzero(live)).astype(
        np.min_scalar_type(trials))
    state = _stream_key(_seed_words(seeds), stream_id)[trial]
    symbols = np.arange(alphabet, dtype=np.uint64)[:, None]
    # the encoder: its trials and their true prefixes' states
    sent, encoder = trial, state
    target, overflow, links = np.zeros(trials, np.uint64), np.zeros(trials, np.int64), []
    for j in range(1, n + 1):
        # numpy shifts a uint64 by 64 to 0: a 0-bit step keeps every child
        shift = 64 - schedule.bits_at(j)
        encoder = _chain(encoder, np.take(seqs[:, j - 1], sent).astype(np.uint64))
        target[sent] = encoder >> shift
        # the children a row per symbol, matched in parent-then-symbol order:
        # the flat indices parent * |A| + symbol of match, and the child
        # (parent, symbol) at symbol * lanes + parent of child
        child = _chain(state, symbols)
        match = np.empty((len(trial), alphabet), bool)
        np.equal(child >> shift, np.take(target, trial), out=match.T)
        index = np.flatnonzero(match)
        parent = np.floor_divide(index, alphabet)
        index -= parent * alphabet
        symbol = index.astype(np.uint8)
        index *= len(trial)
        index += parent
        state = np.take(child, index)
        # kept narrow: the parent in the smallest dtype that holds the last
        # step's lanes; the step's wide arrays go before the next step's
        parent = parent.astype(np.min_scalar_type(len(trial)))
        trial = np.take(trial, parent)
        del child, match, index
        # no trial can hold more lanes than the whole chunk
        if len(trial) > cap:
            over = np.bincount(trial, minlength=trials) > cap
            overflow[over] = j
            alive, sending = ~over[trial], ~over[sent]
            trial, state, parent, symbol = (v[alive] for v in (trial, state, parent, symbol))
            sent, encoder = sent[sending], encoder[sending]
        links.append((parent, symbol))
    prefixes = np.empty((len(trial), n), np.uint8)
    lane = np.arange(len(trial))
    for j, (parent, symbol) in reversed(list(enumerate(links))):
        prefixes[:, j] = np.take(symbol, lane)
        lane = np.take(parent, lane)
    return Bins(trial=trial, prefixes=prefixes, overflow=overflow)


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
    """Trials per `replay_bins` chunk: the chunk lane budget over the largest
    mean number of children a trial's bin has at one step, over the
    (alphabet, schedule) pairs of its streams."""
    widest = max(alphabet * expected_bin_size(j, alphabet, schedule)
                 for alphabet, schedule in streams for j in range(n))
    return max(1, int(_CHUNK_LANES // widest))


# ---------------------------------------------------------------------------
# The lane entropy engine
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=32)
def _terms(n: int) -> np.ndarray:
    """The term table of the lane entropies of horizon n, built on first use
    and shared read-only: at t * (n + 1) + c, the term (c / t) log(t / c) of
    a count c among t symbols, 0.0 for c = 0."""
    terms = np.zeros((n + 1) ** 2)
    for t in range(1, n + 1):
        for c in range(1, t + 1):
            terms[t * (n + 1) + c] = (c / t) * math.log(t / c)
    terms.flags.writeable = False
    return terms


def _entropies_of(counts, total, n: int) -> np.ndarray:
    """The entropy engine: the empirical entropy of each window of a
    length-n lane whose counts, one row per column, are counts[:, ...],
    among total symbols (broadcast).  Each value is the float
    `entropy_of_counts` gives, 0.0 for no symbols.  It sorts counts in
    place."""
    columns = len(counts)
    # ascending counts in every window: an odd-even transposition network
    for r in range(columns):
        for c in range(r % 2, columns - 1, 2):
            low = np.minimum(counts[c], counts[c + 1])
            np.maximum(counts[c], counts[c + 1], out=counts[c + 1])
            counts[c] = low
    # added left to right from 0.0, as entropy_of_counts adds them; a zero
    # count adds an exact 0.0
    terms = _terms(n)
    row = np.multiply(total, n + 1, dtype=np.intp)
    h = np.zeros(counts.shape[1:])
    index = np.empty(h.shape, np.intp)
    term = np.empty(h.shape)
    for column in counts:
        np.take(terms, np.add(row, column, out=index), out=term)
        h += term
    return h


@functools.lru_cache(maxsize=32)
def _keyed_entropies(n: int, columns: int) -> np.ndarray:
    """[key]: the entropy engine's value for the window counts that are the
    base-(n + 1) digits of key, column c's the c-th, for every key below
    (n + 1) ** columns (those whose digits add up to more than n are never
    read)."""
    side = n + 1
    digits = np.indices((side,) * columns, np.min_scalar_type(n))[::-1]
    digits = digits.reshape(columns, side ** columns)
    table = _entropies_of(digits, np.minimum(digits.sum(axis=0, dtype=np.intp), n), n)
    table.flags.writeable = False
    return table


def _window_counts(lanes):
    """The count step of the entropy engine on lanes, rows of nonnegative
    integer symbols.  Returns entropies_at(lane, lo, hi): the entropy
    engine's values for the windows [lo, hi) of the lanes, at the broadcast
    of the index arrays; entropies_at(lane, lo, hi, end) returns those and
    the values for the windows [hi, end) that follow them.  A window's
    counts are differences of cumulative count rows, with one column per
    distinct symbol, in ascending order; past n symbols, a column per rank
    of a symbol within its own lane, so at most n columns.  When the count
    vectors fit `_KEYED` keys, the rows are one cumulative key per lane and
    position, whose base-(n + 1) digits are the counts, filled a column at
    a time, and a window's entropy is read off the engine's table of every
    count vector (`_keyed_entropies`)."""
    lanes = np.asarray(lanes)
    count, n = lanes.shape
    side = n + 1
    present = np.bincount(lanes.ravel(), minlength=1) > 0
    if present.sum() > n:
        rank = (np.cumsum(present) - 1)[lanes]
        order = np.argsort(rank, axis=1)
        ordered = np.take_along_axis(rank, order, axis=1)
        new = np.ones(lanes.shape, bool)
        new[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        np.put_along_axis(rank, order, np.cumsum(new, axis=1) - 1, axis=1)
        lanes, present = rank, np.ones(int(rank.max(initial=-1)) + 1, bool)
    columns = int(present.sum())
    if side ** columns <= _KEYED:
        # a symbol adds side ** its column to the key, which stays below
        # _KEYED and so fits int32
        weight = np.zeros(len(present), np.int32)
        weight[present] = side ** np.arange(columns)
        digits = np.take(weight, lanes)
        key = np.zeros((count, side), np.int32)
        for j in range(n):
            np.add(key[:, j], digits[:, j], out=key[:, j + 1])
        key = key.ravel()
        table = _keyed_entropies(n, columns)

        def keyed(lane, lo, hi, end=None):
            row = np.multiply(lane, side)
            top = key[row + hi]
            h = table[np.subtract(top, key[row + lo], dtype=np.intp)]
            return h if end is None else (h, table[np.subtract(key[row + end], top,
                                                               dtype=np.intp)])
        return keyed
    rank = (np.cumsum(present) - 1)[lanes]
    rows = np.zeros((columns, count, side), np.min_scalar_type(n))
    np.cumsum(rank == np.arange(columns)[:, None, None], axis=2,
              dtype=rows.dtype, out=rows[:, :, 1:])
    rows = rows.reshape(columns, count * side)

    def counted(lane, lo, hi, end=None):
        row = np.multiply(lane, side)
        h = _entropies_of(rows[:, row + hi] - rows[:, row + lo], np.subtract(hi, lo), n)
        return h if end is None else (h, counted(lane, hi, end))
    return counted


@functools.lru_cache(maxsize=32)
def _cell_windows(n: int):
    """The windows and weights of the cells of horizon n, built on first use
    and shared read-only: four arrays, at (l - 1) * (n + 1) + k - 1 the
    values at the cell (l, k), 1 <= l, k <= n + 1, of a = min(l, k) - 1 and
    b = max(l, k) - 1, in the smallest unsigned dtype that holds n, and of
    (b - a) / span and (n - b) / span, with span = n - a, taken as 1 at
    (n + 1, n + 1), whose windows are empty."""
    a, b = np.sort(np.indices((n + 1, n + 1)).reshape(2, -1), axis=0)
    span = np.maximum(n - a, 1)
    tables = (a.astype(np.min_scalar_type(n)), b.astype(np.min_scalar_type(n)),
              (b - a) / span, (n - b) / span)
    for table in tables:
        table.flags.writeable = False
    return tables


def _weighted_entropies(joint, streams, n: int, lane, other, cell) -> np.ndarray:
    """The weighted suffix entropies of pair lanes of horizon n at the
    cells (l, k) numbered (l - 1) * (n + 1) + k - 1 by cell, at the
    broadcast of the index arrays: joint reads the entropies of the pairs'
    joint symbols (`_window_counts`), lane the pair's lane there; streams
    those of their x and y lanes, other the lane there of the stream that is
    not disputed on the first window (the y lane when l < k, else the x
    lane; either on the diagonal).  With the cell's a, b and weights
    (`_cell_windows`) these are the operations of the definition, in its
    order: the joint entropy of [a, b) less other's, times (b - a) / (n - a),
    plus the joint entropy of [b, n) times (n - b) / (n - a).  An empty
    window adds an exact 0.0 times its weight."""
    lo, hi, first, second = _cell_windows(n)
    a, b = np.take(lo, cell), np.take(hi, cell)
    h, last = joint(lane, a, b, n)
    h -= streams(other, a, b)
    h *= np.take(first, cell)
    last *= np.take(second, cell)
    h += last
    return h


def weighted_suffix_entropy(x: Sequence, y: Sequence, l: int, k: int, n: int) -> float:
    """The weighted suffix entropy of the pair (x, y), sequences of n
    nonnegative integer symbols, at the cell (l, k), 1 <= l, k <= n + 1: the
    one-cell case of `_weighted_entropies`.

    l and k are the 1-based positions where a rival pair first diverges in x
    and in y; l = n+1 (resp. k = n+1) means no divergence in that stream.
    The value mixes a conditional entropy over the window where only one
    stream is disputed with a joint entropy over the window where both are.
    """
    if len(x) != n or len(y) != n:
        raise ValueError("sequences must have length n")
    if not (1 <= l <= n + 1 and 1 <= k <= n + 1):
        raise ValueError(f"indices l={l}, k={k} out of [1, {n + 1}]")
    x = np.array(list(x), np.int64).reshape(1, n)
    y = np.array(list(y), np.int64).reshape(1, n)
    joint = x * (int(y.max(initial=0)) + 1) + y
    # one-element index arrays, as the engine's count step takes them: lane 0
    # of the joint lanes, and lane 1 (y) or 0 (x) of the stream lanes
    lane, other, cell = (np.array([i]) for i in (0, int(l < k), (l - 1) * (n + 1) + k - 1))
    h = _weighted_entropies(_window_counts(joint), _window_counts(np.r_[x, y]), n, lane,
                            other, cell)
    return float(h[0])


# ---------------------------------------------------------------------------
# Decoder kernels.  All tie-breaks are lexicographic for reproducibility.
# ---------------------------------------------------------------------------


def _first_max(trial, score, slack=0):
    """Each trial's first lane whose score is at least the trial's maximal
    score less the lane's slack, in trial order: lane i belongs to trial[i]
    (ascending)."""
    if not len(trial):
        return trial[:0]
    starts = np.flatnonzero(np.concatenate(([True], trial[1:] != trial[:-1])))
    best = np.repeat(np.maximum.reduceat(score, starts), np.diff(starts, append=len(trial)))
    best -= slack
    top = np.flatnonzero(score >= best)
    lead = np.take(trial, top)
    return top[np.concatenate(([True], lead[1:] != lead[:-1]))]


def _ragged(sizes):
    """Segments of the given sizes laid end to end: each element's segment
    and its offset within the segment."""
    seg = np.repeat(np.arange(len(sizes)), sizes)
    return seg, np.arange(len(seg)) - (np.cumsum(sizes) - sizes)[seg]


def _pairs(trial_x, trial_y, trials: int):
    """Every pair of every trial's bin product: its trial, its x lane and
    its y lane, each trial's pairs in a-major order and the trials in order,
    in the smallest unsigned dtypes that hold the trial count and the bins'
    lane counts.  Lane i of a bin belongs to trial[i] (ascending); a trial
    without lanes in both bins has no pairs."""
    size_y = np.bincount(trial_y, minlength=trials)
    # x lane i heads a run of one pair per y lane of its trial, whose y lanes
    # count on from the trial's first
    run = np.take(size_y, trial_x)
    start = np.take(np.cumsum(size_y) - size_y, trial_x)
    start -= np.cumsum(run) - run
    pair_y = np.repeat(start, run)
    pair_y += np.arange(len(pair_y))
    return (np.repeat(trial_x.astype(np.min_scalar_type(trials)), run),
            np.repeat(np.arange(len(trial_x), dtype=np.min_scalar_type(len(trial_x))), run),
            pair_y.astype(np.min_scalar_type(len(trial_y))))


def _ml_winners(trial_x, px, trial_y, py, trials: int, logs):
    """The ML kernel over every pair of every trial's bin product, under the
    joint log table logs[a, b].  A trial's pair (a, b), a-major, reads the
    joint symbols a * |Y| + b and scores c * log p summed over the symbols
    in ascending order, an absent symbol adding an exact 0.0 (never
    0 * -inf), so pairs of the same joint type tie bit-exactly; a finite
    score within `_ML_TIE` * (n + |score|) of the maximum ties with it too,
    since equal likelihoods can differ in their last bits (two joint types
    of an independent source do).  A lane symbol outside the table is a
    ValueError.  The pairs (`_pairs`, in narrow dtypes) go in blocks of
    `_LANE_BUDGET`, which bound the memory of the symbol counts: a block's
    joint symbols are built in the smallest unsigned dtype that holds them,
    and cast once to intp, offset by pair, for one pair-major bincount, a
    row per pair; the scores add the columns of the symbols present in the
    block.  The winner is picked once, over all of a trial's pairs."""
    if px.max(initial=0) >= logs.shape[0] or py.max(initial=0) >= logs.shape[1]:
        raise ValueError(f"a lane symbol lies outside the {logs.shape[0]} x "
                         f"{logs.shape[1]} likelihood table")
    trial, pair_x, pair_y = _pairs(trial_x, trial_y, trials)
    symbols = logs.size
    flat = logs.ravel()
    narrow = np.min_scalar_type(symbols - 1)
    block = _LANE_BUDGET * 16 // max(16, symbols)
    score = np.zeros(len(trial))
    for lo in range(0, len(trial), block):
        part = score[lo:lo + block]
        code = np.multiply(np.take(px, pair_x[lo:lo + block], axis=0), logs.shape[1],
                           dtype=narrow)
        np.add(code, np.take(py, pair_y[lo:lo + block], axis=0), out=code, dtype=narrow)
        rows = np.arange(0, len(part) * symbols, symbols)[:, None]
        counts = np.bincount(np.add(code, rows, dtype=np.intp).ravel(),
                             minlength=len(part) * symbols).reshape(-1, symbols)
        # in ascending order of the block's symbols: an absent one adds an exact 0.0
        for a in np.flatnonzero(np.einsum("ij->j", counts)).tolist():
            if flat[a] > -math.inf:
                part += counts[:, a] * flat[a]
            else:
                part[counts[:, a] > 0] = -math.inf
    slack = np.where(np.isfinite(score), _ML_TIE * (px.shape[1] + np.abs(score)), 0.0)
    win = _first_max(trial, score, slack)
    return pair_x[win], pair_y[win]


def _universal_winners(trial_x, px, trial_y, py, trials: int):
    """The minimum-suffix-entropy kernel against known y, decided left to
    right: the y bins hold one lane per trial, so lane i's pairs read
    (px[i], py[trial_x[i]]).  At each position l, the first of a trial's live
    lanes (those that agree with its decided prefix) whose joint suffix
    [l - 1, n) has the least empirical entropy, ties exact, decides symbol
    l, and the live lanes that differ there leave."""
    code = px.astype(np.uint16) << 8 | np.take(py, trial_x, axis=0)
    n = code.shape[1]
    # each lane's suffix windows [l, n), taken a block of lanes at a time,
    # which bounds the memory of a large bin
    h = np.empty(code.shape)
    for lo in range(0, len(code), _LANE_BUDGET):
        block = code[lo:lo + _LANE_BUDGET]
        h[lo:lo + len(block)] = _window_counts(block)(np.arange(len(block))[:, None],
                                                      np.arange(n), n)
    live = np.arange(len(trial_x))
    for l in range(n):
        win = live[_first_max(trial_x[live], -h[live, l])]
        lead = win[np.searchsorted(trial_x[win], trial_x[live])]
        live = live[code[live, l] == code[lead, l]]
    return live, trial_x[live]


def _nodes(trial, prefixes):
    """The prefix trees of a group's lanes, each trial's in order.  A lane's
    depth-j node is its trial's lanes that share its first j symbols, the
    lane alone at j = n.  first[lane, j], j = 0, ..., n: the first lane of
    the lane's depth-j node; live[lane, l - 1], l = 1, ..., n + 1: whether
    its depth-l node is smaller than its depth-(l - 1) node, that is
    whether a lane of its trial shares its first l - 1 symbols and not its
    l-th (always, at n + 1, where the rival is the lane itself)."""
    count, n = prefixes.shape
    lane = np.arange(count)
    # the position where each lane first differs from its predecessor, and
    # -1 at a trial's first lane
    differ = np.c_[prefixes[1:] != prefixes[:-1], np.ones(max(count - 1, 0), bool)]
    d = np.r_[-1, np.where(trial[1:] == trial[:-1], differ.argmax(axis=1), -1)][:count]
    # a lane starts a node of prefix length j when it differs from its
    # predecessor before position j
    first = np.maximum.accumulate(np.where(d[:, None] < np.arange(n + 1), lane[:, None], 0),
                                  axis=0)
    # the size of each lane's node at each depth, nodes keyed by depth and
    # first lane
    node = first + count * np.arange(n + 1)
    size = np.bincount(node.ravel(), minlength=node.size)[node]
    return first, np.c_[size[:, 1:] < size[:, :-1], np.ones(count, bool)]


def _child_ranks(first):
    """Per lane and cell depth l = 1, ..., n + 1, lane-major, from `_nodes`'
    first: the lane's distance past the first lane of its parent, its
    depth-(l - 1) node, and in row d of slots rows (r + d) % slots, with r
    the rank of its depth-l node among the parent's children (0 at n + 1,
    where every row reads r) and slots the most children of a node, at
    least two."""
    lane = np.arange(len(first))[:, None]
    n = first.shape[1] - 1
    # the depth-l node starts up to each lane, less those up to its parent's
    # first lane
    starts = np.cumsum(first[:, 1:] == lane, axis=0)
    rank = np.zeros(first.shape, np.intp)
    np.subtract(starts, np.take(starts, first[:, :-1] * n + np.arange(n)), out=rank[:, :-1])
    slots = max(int(rank.max(initial=0)) + 1, 2)
    rows = rank + np.arange(slots)[:, None, None] * (np.arange(n + 1) < n)
    rows -= slots * (rows >= slots)
    return (lane - first).ravel(), rows.reshape(slots, -1)


def _group_scores(trial_x, px, trial_y, py, trials: int):
    """The score pass over every pair of the bin products of a group of
    trials.  A pair's scores i_x, i_y are one less than the smallest l and
    k of the cells (l, k) it marks: those where a rival pair first
    diverging there has weighted suffix entropy <= the pair's own (a tie
    marks; no mark scores n + 1).  The rivals at (l, k) are the pairs under
    the x lane's depth-(l - 1) node and the y lane's depth-(k - 1) node in
    the trial's prefix trees (`_nodes`) with another l-th x and k-th y
    symbol (the pair's own x lane at l = n + 1, y lane at k = n + 1).
    Returns each pair's x and y lanes (`_pairs`) and its scores i_x and
    i_y.  It computes weighted suffix entropies only at the live cells,
    where both lanes have rivals, listing each y lane's live depths once
    for the group.  One `np.minimum.at` takes the least value under each
    pair of children of each parent node pair of a cell, into one slot per
    pair of child ranks, and each pair reads its rival minimum off the slots
    of the other children.  The depths l go in blocks of at most
    `_BLOCK_PAIRS` times n + 1 cells (or one depth); a block frees its index
    arrays before it takes the entropies."""
    n = px.shape[1]
    side = n + 1
    trial, pair_x, pair_y = _pairs(trial_x, trial_y, trials)
    step = np.bincount(trial_y, minlength=trials)[trial]
    first_x, live_x = _nodes(trial_x, px)
    first_y, live_y = _nodes(trial_y, py)
    joint = _window_counts(np.take(px.astype(np.uint16) << 8, pair_x, axis=0)
                           | np.take(py, pair_y, axis=0))
    streams = _window_counts(np.concatenate((px, py)))
    past_x, rank_x = _child_ranks(first_x)
    past_y, rank_y = _child_ranks(first_y)
    slots = len(rank_x) * len(rank_y)
    # the pair of child ranks (a, b) has the slot a * slots_y + b
    rank_x = (rank_x * len(rank_y)).astype(np.int32)
    # the live depths k of the y lanes, lane-major (n + 1 last), and at each
    # k - 1, the lane's stream lane, its distance past the first lane of its
    # depth-(k - 1) node, and its child ranks plus slots times the depth's
    # rank among the lane's: a cell's slots are at the rank-th cell of its
    # parent pair
    cells = live_y.sum(axis=1, dtype=np.int32)
    lane_y, rank_k = _ragged(cells)
    at_y = np.flatnonzero(live_y)
    depth_k = at_y - lane_y * side
    stream_k = lane_y + len(px)
    past_k = np.take(past_y, at_y)
    rank_y = (np.take(rank_y, at_y, axis=1) + rank_k * slots).astype(np.int32)
    first_k = np.cumsum(cells) - cells
    # the cells in order of l, pair and k: count[l - 1, pair] at depth l,
    # one per live depth k of the pair's y lane, but not (n + 1, n + 1),
    # which is the pair itself
    count = np.take(np.ascontiguousarray(live_x.T), pair_x, axis=1) * cells[pair_y]
    count[-1] -= 1
    totals = count.sum(axis=1)
    reach = np.cumsum(totals)
    i_x = np.full(len(trial), side)
    i_y = np.full(len(trial), side)
    l0 = 0
    while l0 < side and len(trial):
        done = reach[l0] - totals[l0]
        l1 = max(int(np.searchsorted(reach, done + _BLOCK_PAIRS * side, "right")), l0 + 1)
        # the block's (l, pair) with cells, the first of which is begin[at],
        # at depth l - 1; the (l, pair) of the first lane of the x lane's
        # parent node with the same y lane, and the x lane's child ranks, its
        # own in row 0
        block = count[l0:l1].ravel()
        begin = np.cumsum(block)
        begin -= block
        at = np.flatnonzero(block)
        depth = at // len(trial)
        pair = at - depth * len(trial)
        depth += l0
        at_x = np.multiply(np.take(pair_x, pair), side, dtype=np.intp)
        at_x += depth
        parent = at - np.take(past_x, at_x) * np.take(step, pair)
        size = np.take(block, at)
        l0 = l1
        # then the cells, each at the live depth entry of its pair's y lane;
        # its slots are at the cell of the pair of the two parent nodes'
        # first lanes, which is live there too, with k of the same rank
        entry = np.repeat(np.take(first_k, np.take(pair_y, pair)) - np.take(begin, at), size)
        entry += np.arange(len(entry))
        own = np.take(begin, np.repeat(parent, size) - np.take(past_k, entry)) * slots
        a = np.repeat(np.take(rank_x, at_x, axis=1), size, axis=1)
        b = np.take(rank_y, entry, axis=1)
        rivals = own + a[1:, None] + b[1:]
        own += a[0]
        own += b[0]
        # k - 1 and the cell's number (l - 1) * (n + 1) + k - 1, and the
        # stream lane that is not disputed on its first window
        k = np.take(depth_k, entry)
        at = np.repeat(depth * side, size) + k
        other = np.where(at < k * (side + 1), np.take(stream_k, entry),
                         np.repeat(np.take(pair_x, pair), size))
        pair = np.repeat(pair, size)
        del entry, a, b
        value = _weighted_entropies(joint, streams, n, pair, other, at)
        least = np.full(len(value) * slots, np.inf)
        np.minimum.at(least, own, value)
        mark = np.flatnonzero(np.take(least, rivals).min(axis=(0, 1)) <= value)
        hit = np.take(pair, mark)
        np.minimum.at(i_x, hit, np.take(at, mark) // side)
        np.minimum.at(i_y, hit, np.take(k, mark))
    return pair_x, pair_y, i_x, i_y


def _sw_winners(trial_x, px, trial_y, py, trials: int):
    """The two-encoder universal kernel: each trial's x (y) lane attaining
    the maximal i_x (i_y) over its pairs, the first in lane order on ties.
    The trials go in groups of whole trials, as many as `_GROUP_PAIRS` pairs
    hold and at least one; each group's pair scores (`_group_scores`) fold
    into its lanes' maxima before the next group is scored.  A lane without
    pairs (its trial has no lanes in the other bin) wins nothing."""
    pairs = np.bincount(trial_x, minlength=trials) * np.bincount(trial_y, minlength=trials)
    ends = np.cumsum(pairs)
    best_x, best_y = np.full(len(trial_x), -1), np.full(len(trial_y), -1)
    t0 = 0
    while t0 < trials:
        t1 = np.searchsorted(ends, ends[t0] - pairs[t0] + _GROUP_PAIRS, "right")
        t1 = max(int(t1), t0 + 1)
        x0, x1 = np.searchsorted(trial_x, (t0, t1))
        y0, y1 = np.searchsorted(trial_y, (t0, t1))
        pair_x, pair_y, i_x, i_y = _group_scores(trial_x[x0:x1] - t0, px[x0:x1],
                                                 trial_y[y0:y1] - t0, py[y0:y1], t1 - t0)
        np.maximum.at(best_x[x0:x1], pair_x, i_x)
        np.maximum.at(best_y[y0:y1], pair_y, i_y)
        t0 = t1
    winners = []
    for trial, best in ((trial_x, best_x), (trial_y, best_y)):
        live = np.flatnonzero(best >= 0)
        winners.append(live[_first_max(trial[live], best[live])])
    return winners


# ---------------------------------------------------------------------------
# The decoder table
# ---------------------------------------------------------------------------


# decoder -> its kernel, the log of the joint table it scores (-inf at a zero
# cell), and how it gets y: read as 0^n ("zero"), known ("known"), or decoded
# from a bin of its own ("binned")
_Decoder = collections.namedtuple("_Decoder", "kernel table y")
_TABLE = {
    "ml": _Decoder(_ml_winners, lambda d: np.array(
        [[math.log(p) if p > 0 else -math.inf] for p in np.sum(d.probs, axis=1).tolist()]),
        "zero"),
    "universal": _Decoder(_universal_winners, None, "zero"),
    "si_ml": _Decoder(_ml_winners, lambda d: np.array(d._log_probs), "known"),
    "si_universal": _Decoder(_universal_winners, None, "known"),
    "sw_ml": _Decoder(_ml_winners, lambda d: np.array(d._log_probs), "binned"),
    "sw_universal": _Decoder(_sw_winners, None, "binned"),
}
DECODERS = tuple(_TABLE)


def _kernel(decoder: str, source: JointDistribution):
    """The decoder's kernel, its log table bound in, and whether y reads as 0^n."""
    if decoder not in _TABLE:
        raise ValueError(f"unknown decoder {decoder!r}")
    kernel, table, y = _TABLE[decoder]
    return (functools.partial(kernel, logs=table(source)) if table else kernel), y == "zero"


def _error_positions(bins: Bins, winners, seqs):
    """The 1-based position of the first symbol of each trial's winning lane
    that differs from the trial's row of seqs, n + 1 when none does and for
    a trial without a winner."""
    trial = bins.trial[winners]
    out = np.full(len(bins.overflow), bins.prefixes.shape[1] + 1)
    wrong = np.take(bins.prefixes, winners, axis=0) != np.take(seqs, trial, axis=0)
    out[trial] = np.where(wrong.any(axis=1), wrong.argmax(axis=1) + 1, out[trial])
    return out


def first_errors(decoder: str, source: JointDistribution, bins_x: Bins, bins_y,
                 x_rows, y_rows):
    """The decision of every trial of a chunk under the named decoder, as
    the 1-based positions of its first x and first y symbols that differ
    from the trial's rows of x_rows and y_rows, n + 1 when none does (and
    for a trial without lanes in both bins).  bins_y None: y is known, a y
    bin of one lane per trial, the trial's row of y_rows, or 0^n for the
    decoders that read it so; either way its y decision is right.  A trial's
    lanes are in order, so its winners are its lexicographically smallest
    maximizers."""
    kernel, y_zero = _kernel(decoder, source)
    trials = len(bins_x.overflow)
    if bins_y is None:
        y_rows = np.zeros(np.shape(x_rows), np.uint8) if y_zero \
            else np.asarray(y_rows, np.uint8)
        bins_y = Bins(np.arange(trials), y_rows, np.zeros(trials, np.int64))
    win_x, win_y = kernel(bins_x.trial, bins_x.prefixes, bins_y.trial, bins_y.prefixes,
                          trials)
    return _error_positions(bins_x, win_x, x_rows), _error_positions(bins_y, win_y, y_rows)


def _lanes(members, n: int):
    """Byte-string sequences of length n as the rows of a uint8 array."""
    if any(len(m) != n for m in members):
        raise ValueError("the x and y candidates are at different steps")
    return np.frombuffer(b"".join(members), np.uint8).reshape(len(members), n)


def _decide(decoder: str, source, xs, ys, delay: int):
    """The one-trial case of `first_errors`: the decision on the x candidates
    xs and the y candidates ys (the one observed y for side information;
    unread by the decoders that read y as 0^n), truncated to n - delay.  It
    runs on the sorted lists, so the first maximizer is the
    lexicographically smallest, and a decision at l depends only on the
    decided prefix, so this is the decision at that delay."""
    kernel, y_zero = _kernel(decoder, source)
    xs = sorted(xs)
    n = len(xs[0])
    ys = [bytes(n)] if y_zero else sorted(map(_as_bytes, ys))
    if not (0 <= delay <= n):
        raise ValueError("delay out of range")
    (wx,), (wy,) = kernel(np.zeros(len(xs), np.intp), _lanes(xs, n),
                          np.zeros(len(ys), np.intp), _lanes(ys, n), 1)
    return xs[wx][: n - delay], ys[wy][: n - delay]


def ml_decode(cands: CandidateSet, source_model: JointDistribution, delay: int):
    """Most likely bin member under the source model's x-marginal, truncated
    to n - delay.

    The paper-style symbol-by-symbol construction and the global argmax agree
    (each decision conditions on the already-decided prefix), so the global
    form is used directly.
    """
    return _decide("ml", source_model, cands.prefixes, (), delay)[0]


def universal_decode(cands: CandidateSet, delay: int):
    """Minimum suffix-entropy decoding, decisions fixed left to right: the
    suffix x_l^n with the smallest empirical entropy decides position l."""
    return _decide("universal", None, cands.prefixes, (), delay)[0]


def si_decode_ml(cands: CandidateSet, y_observed, d: JointDistribution, delay: int):
    """Maximum conditional likelihood given the observed side information."""
    return _decide("si_ml", d, cands.prefixes, (y_observed,), delay)[0]


def si_decode_universal(cands: CandidateSet, y_observed, delay: int):
    """Minimum empirical joint suffix-entropy decoding against known y.
    Since y is fixed, minimizing the joint suffix entropy orders candidates
    exactly as the conditional suffix entropy would."""
    return _decide("si_universal", None, cands.prefixes, (y_observed,), delay)[0]


def sw_ml_decode(cands_x: CandidateSet, cands_y: CandidateSet,
                 d: JointDistribution, delay: int):
    """Joint-likelihood argmax over the bin product."""
    return _decide("sw_ml", d, cands_x.prefixes, cands_y.prefixes, delay)


def sw_universal_decode(cands_x: CandidateSet, cands_y: CandidateSet, delay: int):
    """Pick the winners: the x (resp. y) candidate attaining the maximal
    i_x (resp. i_y) over all pairs, lexicographically smallest on ties."""
    return _decide("sw_universal", None, cands_x.prefixes, cands_y.prefixes, delay)


def compute_scores(pair, cands_x: CandidateSet, cands_y: CandidateSet):
    """The scores (i_x, i_y) of one pair of the bin product against every
    rival pair: the one-pair readout of the score pass."""
    xs, ys = cands_x.prefixes, cands_y.prefixes
    lane = xs.index(_as_bytes(pair[0])) * len(ys) + ys.index(_as_bytes(pair[1]))
    n = cands_x.step
    _, _, i_x, i_y = _group_scores(np.zeros(len(xs), np.intp), _lanes(xs, n),
                                   np.zeros(len(ys), np.intp), _lanes(ys, n), 1)
    return int(i_x[lane]), int(i_y[lane])
