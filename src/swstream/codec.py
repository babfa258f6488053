"""Sequential random-binning encoders and decoders.

Parity bits are a keyed hash of (seed, stream id, prefix), which gives the
causal, prefix-consistent binning of a time-varying random tree code without
ever materializing a codebook: sequences that agree on their first l symbols
automatically agree on the parity bits of the first l steps.  One 256-bit
hash of the length-(j-1) parent covers every possible j-th symbol: symbol a
reads bits [a*nbits, (a+1)*nbits) of the digest, so advancing a candidate
set costs a single hash per surviving parent.

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
sum of c * log p over the symbols, in ascending order.  `ml_first_errors`
runs it over every trial of a chunk; `ml_decode`, `si_decode_ml` and
`sw_ml_decode` are its one-trial case, on the product of the sorted
candidate lists, so the first maximizer is the lexicographically smallest.
The universal rule counts the zipped pairs (a, b), or x alone when there is
no side information (the same counts), and takes every entropy from
`info_core`, whose count rows give the counts of any window.

The two-encoder universal decoder is the score decoder at the end of the
module.  `compute_scores` is the definition for one pair: a cell (l, k) is
marked when a rival pair first diverging there has weighted suffix entropy
<= the pair's own, and i_x, i_y are one less than the smallest marked l, k.
`sw_universal_decode` finds every pair's scores in one pass over the bin
product instead of one `compute_scores` call per pair.  It reads l and k from
first-divergence tables of Cx and Cy built once; it takes each weighted
suffix entropy from one `info_core.suffix_entropies` table per decode, which
computes each value once and gives the floats of `weighted_suffix_entropy`;
and it skips every rival at a cell with l > i_x and k > i_y so far:
i_x and i_y are running minima of l - 1 and k - 1, so marking that cell
cannot lower either score.

The Monte Carlo harness replays the bins of a chunk of trials at once
(`replay_bins`).  A chunk's bins are flat lanes, one per bin member: the
trial it belongs to, its prefix as a row of an n-column uint8 array, and
whether it is the true path.  Each trial's lanes are contiguous and in
lexicographic order, because children are kept in parent-then-symbol order,
as `update_candidates` keeps them.  A step hashes every surviving parent
once, with a copy of its trial's pre-keyed hash, and reads each symbol's
parity chunk off the unpacked digest bits.  The encoder's parity bits at step
j are the chunk of symbol x_j in the digest of x_1^(j-1), which is the true
parent; the true path always survives, so the true lane's digest supplies
the received bits and the encoder costs no hash of its own.  A trial whose
bin exceeds the cap at a step is dropped at that step and its step
recorded.  `candidate_set_for` is the one-trial case;
`initial_candidates`/`encode_step`/`update_candidates` and `enumerate_bin`
remain the step-wise API and the engine's test oracles.  A chunk's lanes
are in order, so `ml_first_errors` decodes them as they are.  The harness
sizes a chunk by the closed-form mean bin size (`expected_bin_size`) against
a fixed lane budget (`chunk_trials`), which bounds its memory.

The decoders are exact but exponential-time by design; they are meant for
desk-scale horizons (n <= 24 single-stream, n <= 12 for the two-encoder score
decoder).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .info_core import (
    JointDistribution,
    _count_rows,
    _window_entropy,
    suffix_entropies,
    weighted_suffix_entropy,
)

__all__ = [
    "BinningSchedule",
    "CandidateSet",
    "ScoreBoard",
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
# lanes (bin members times symbols) a chunk of trials may hold at one step,
# in the mean.  It bounds a chunk's memory, most of it per-lane digests and
# per-trial hashers: on the README simulate config 2 ** 12 adds about 2 MB of
# peak RSS, and 2 ** 15 added 9 MB and ran no faster.  A one-trial ML decode
# takes its bin product in blocks of as many pairs.
_LANE_BUDGET = 2 ** 12


class CandidateOverflowError(RuntimeError):
    """Raised when a candidate set outgrows the configured cap.

    Rates below the source entropy make the bin grow exponentially; the
    simulator records the aborted trial instead of looping forever.
    """


def _as_int(value) -> int:
    """value as an int, rejecting a float that is not integral (16.5, nan);
    an integral float such as 1e4 is accepted."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


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


def _prf_word(seed: int, stream_id: str, parent: bytes) -> int:
    digest = hashlib.blake2b(
        parent, key=b"%d:%s" % (seed, stream_id.encode()), digest_size=32
    ).digest()
    return int.from_bytes(digest, "big")


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
    word = _prf_word(seed, stream_id, prefix[:-1])
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
            word = _prf_word(seed, sid, prefix)
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


def _parity_chunks(keyed, trial, parents, alphabet: int, nbits: int):
    """Bits [a*nbits, (a+1)*nbits) of each lane's digest, MSB first, as a
    (lanes, alphabet, nbits) array: the parity chunk of every child."""
    width = parents.shape[1]
    buf = parents.tobytes()
    digests = []
    append = digests.append
    # one hasher alive at a time: thousands of live copies run slower
    for t, i in zip(trial.tolist(), itertools.count(0, width)):
        h = keyed[t].copy()
        h.update(buf[i:i + width])
        append(h.digest())
    words = np.frombuffer(b"".join(digests), np.uint8)
    used = alphabet * nbits
    bits = np.unpackbits(words.reshape(-1, _PRF_BITS // 8)[:, :-(-used // 8)], axis=1)
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
    sid = stream_id.encode()
    keyed = [hashlib.blake2b(key=b"%d:%s" % (seed, sid), digest_size=32)
             for seed in seeds]
    trial = np.arange(trials) if live is None else np.flatnonzero(live)
    prefixes = np.zeros((len(trial), n), np.uint8)
    true = np.ones(len(trial), bool)
    overflow = np.zeros(trials, np.int64)
    for j in range(1, n + 1):
        nbits = schedule.bits_at(j)
        if nbits == 0:
            keep = np.ones((len(trial), alphabet), bool)
        else:
            chunks = _parity_chunks(keyed, trial, prefixes[:, :j - 1], alphabet, nbits)
            # the received bits: the true child's chunk of the true parent
            target = np.zeros((trials, nbits), np.uint8)
            truth = np.flatnonzero(true)
            target[trial[truth]] = chunks[truth, seqs[trial[truth], j - 1]]
            keep = (chunks == target[trial][:, None, :]).all(axis=2)
        parent, symbol = np.nonzero(keep)
        trial = trial[parent]
        prefixes = prefixes[parent]
        prefixes[:, j - 1] = symbol
        true = true[parent] & (symbol == seqs[trial, j - 1])
        over = np.bincount(trial, minlength=trials) > cap
        if over.any():
            overflow[over] = j
            alive = ~over[trial]
            trial, prefixes, true = trial[alive], prefixes[alive], true[alive]
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


def _ml_winners(trial, code, probs):
    """The ML kernel: each trial's first lane of maximal log-likelihood.

    Lane i belongs to trial[i] (ascending) and reads the joint symbols
    code[i] = a * |Y| + b; its log-likelihood is c * log p summed over the
    symbols in ascending order, with an absent symbol adding an exact 0.0
    (never 0 * -inf), so lanes of the same joint type tie bit-exactly.
    Returns the winning lane of each trial that has lanes, in trial order."""
    if not len(trial):
        return trial[:0]
    score = np.zeros(len(trial))
    for s, p in enumerate(probs.ravel().tolist()):
        lp = math.log(p) if p > 0 else -math.inf
        counts = (code == s).sum(axis=1)
        score += np.multiply(counts, lp, out=np.zeros(len(trial)), where=counts > 0)
    starts = np.flatnonzero(np.r_[True, trial[1:] != trial[:-1]])
    best = np.repeat(np.maximum.reduceat(score, starts),
                     np.diff(np.r_[starts, len(trial)]))
    top = np.flatnonzero(score == best)
    return top[np.r_[True, trial[top][1:] != trial[top][:-1]]]


def ml_first_errors(bins: Bins, seqs, probs, side):
    """The ML decision of every trial of a chunk against its row of side
    (trials x n observed y; 0^n with the |X| x 1 x-marginal as probs for
    point-to-point ML), as the 1-based position of its first symbol that
    differs from the trial's row of seqs, n + 1 when none does (and for an
    overflowed trial).  A trial's lanes are in order, so its first
    maximizer is its lexicographically smallest."""
    trial, prefixes = bins.trial, bins.prefixes
    n = prefixes.shape[1]
    code = prefixes.astype(np.intp) * probs.shape[1] + np.asarray(side)[trial]
    winners = _ml_winners(trial, code, probs)
    out = np.full(len(bins.overflow), n + 1)
    wrong = prefixes[winners] != np.asarray(seqs)[trial[winners]]
    out[trial[winners]] = np.where(wrong.any(axis=1), wrong.argmax(axis=1) + 1, n + 1)
    return out


def _ml_pair(xs, ys, probs):
    """The one-trial case of the ML kernel: the pair of xs x ys with the
    largest likelihood under the joint table probs[a, b], lexicographically
    smallest among ties.  Lane i of the sorted product is the pair
    (i // |ys|, i % |ys|), so the first maximizer is the smallest."""
    xs, ys = sorted(xs), sorted(ys)
    n = len(xs[0])
    x = np.frombuffer(b"".join(xs), np.uint8).reshape(len(xs), n).astype(np.intp)
    y = np.frombuffer(b"".join(ys), np.uint8).reshape(len(ys), n)
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


@dataclass(frozen=True)
class ScoreBoard:
    """Marked (l, k) cells for one candidate pair and the induced score."""

    marks: frozenset
    i_x: int
    i_y: int
    n: int = field(default=0, compare=False)


def _first_divergence(a, b, n: int) -> int:
    """1-based index of the first disagreement; n+1 when identical."""
    for i in range(n):
        if a[i] != b[i]:
            return i + 1
    return n + 1


def compute_scores(pair, cands_x: CandidateSet, cands_y: CandidateSet,
                   n: int) -> ScoreBoard:
    """Score one candidate pair against every rival pair in the bin product.

    A cell (l, k) is marked when some rival diverging first at (l, k) has
    weighted suffix entropy <= the pair's own at that cell (a rival that ties
    still marks -- the pessimistic reading).  The score i_x is the largest
    integer strictly below every marked l-coordinate, likewise i_y.
    """
    x_bar, y_bar = pair
    own = {}

    def own_hs(l, k):
        if (l, k) not in own:
            own[l, k] = weighted_suffix_entropy(x_bar, y_bar, l, k, n)
        return own[l, k]

    marks = set()
    for x_t in cands_x.prefixes:
        l = _first_divergence(x_t, x_bar, n)
        for y_t in cands_y.prefixes:
            k = _first_divergence(y_t, y_bar, n)
            if l == n + 1 and k == n + 1:
                continue  # the pair itself is not its own rival
            if (l, k) in marks:
                continue
            if weighted_suffix_entropy(x_t, y_t, l, k, n) <= own_hs(l, k):
                marks.add((l, k))
    i_x = min((l for l, _ in marks), default=n + 2) - 1
    i_y = min((k for _, k in marks), default=n + 2) - 1
    return ScoreBoard(marks=frozenset(marks), i_x=i_x, i_y=i_y, n=n)


def sw_universal_decode(cands_x: CandidateSet, cands_y: CandidateSet,
                        n: int, delay: int):
    """Pick the winners: the x (resp. y) candidate attaining the maximal
    i_x (resp. i_y) over all pairs, lexicographically smallest on ties.

    The scores are those of compute_scores, found in one pass over the bin
    product (see the module docstring).
    """
    _check_delay(delay, n)
    xs, ys = cands_x.prefixes, cands_y.prefixes
    if any(len(s) != n for s in xs + ys):
        raise ValueError("sequences must have length n")
    div_x = [[_first_divergence(a, b, n) for b in xs] for a in xs]
    div_y = [[_first_divergence(a, b, n) for b in ys] for a in ys]
    # rivals in ascending divergence index, so a row stops at the first
    # cell that can no longer lower a score
    order_x = [sorted(range(len(xs)), key=row.__getitem__) for row in div_x]
    order_y = [sorted(range(len(ys)), key=row.__getitem__) for row in div_y]
    wse = suffix_entropies(xs, ys, n)
    best_ix = [-1] * len(xs)
    best_iy = [-1] * len(ys)
    for a, ls in enumerate(div_x):
        for b, ks in enumerate(div_y):
            i_x = i_y = n + 1
            for i in order_x[a]:
                l = ls[i]
                for j in order_y[b]:
                    k = ks[j]
                    if l > i_x and k > i_y:
                        break
                    if l == k == n + 1:
                        continue  # the pair itself is not its own rival
                    if wse(i, j, l, k) <= wse(a, b, l, k):
                        i_x = min(i_x, l - 1)
                        i_y = min(i_y, k - 1)
            best_ix[a] = max(best_ix[a], i_x)
            best_iy[b] = max(best_iy[b], i_y)
    top_x = max(best_ix)
    top_y = max(best_iy)
    x_hat = min(c for c, v in zip(xs, best_ix) if v == top_x)
    y_hat = min(c for c, v in zip(ys, best_iy) if v == top_y)
    return x_hat[: n - delay], y_hat[: n - delay]


def sw_ml_decode(cands_x: CandidateSet, cands_y: CandidateSet,
                 d: JointDistribution, delay: int):
    """Joint-likelihood argmax over the bin product."""
    n = cands_x.step
    if cands_y.step != n:
        raise ValueError("candidate sets are at different steps")
    _check_delay(delay, n)
    x_hat, y_hat = _ml_pair(cands_x.prefixes, cands_y.prefixes, d.probs)
    return x_hat[: n - delay], y_hat[: n - delay]
