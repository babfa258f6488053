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

The decoders are exact but exponential-time by design; they are meant for
desk-scale horizons (n <= 24 single-stream, n <= 12 for the two-encoder score
decoder).
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field

from .info_core import (
    JointDistribution,
    entropy_of_counts,
    weighted_suffix_entropy,
)

__all__ = [
    "BinningSchedule",
    "ParityStream",
    "CandidateSet",
    "ScoreBoard",
    "CandidateOverflowError",
    "encode_step",
    "initial_candidates",
    "update_candidates",
    "candidate_set_for",
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
        pattern = tuple(int(b) for b in self.pattern)
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
class ParityStream:
    """All parity bits a stream's encoder has emitted up to some step."""

    seed: int
    stream_id: str
    schedule: BinningSchedule
    bits: tuple = ()
    steps: int = 0

    @classmethod
    def from_sequence(cls, seed: int, stream_id: str, sequence, schedule: BinningSchedule):
        seq = _as_bytes(sequence)
        bits = []
        for j in range(1, len(seq) + 1):
            bits.extend(encode_step(seed, stream_id, seq[:j], schedule))
        return cls(seed=seed, stream_id=stream_id, schedule=schedule,
                   bits=tuple(bits), steps=len(seq))

    def bits_for_step(self, step: int):
        lo = self.schedule.total_bits(step - 1)
        hi = self.schedule.total_bits(step)
        return self.bits[lo:hi]


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
    """Encode a realized sequence and replay the decoder-side bin updates."""
    seq = _as_bytes(sequence)
    cands = initial_candidates(seed, stream_id, schedule, alphabet)
    for j in range(1, len(seq) + 1):
        bits = encode_step(seed, stream_id, seq[:j], schedule)
        cands = update_candidates(cands, bits, cap=cap)
    return cands


def enumerate_bin(seed: int, stream_id: str, schedule: BinningSchedule,
                  alphabet: int, reference) -> list:
    """Oracle-side bin: every sequence of len(reference) whose full parity
    stream matches the reference's, found by exhaustive enumeration."""
    reference = _as_bytes(reference)
    n = len(reference)
    target = ParityStream.from_sequence(seed, stream_id, reference, schedule).bits
    members = []
    for combo in itertools.product(range(alphabet), repeat=n):
        seq = bytes(combo)
        if ParityStream.from_sequence(seed, stream_id, seq, schedule).bits == target:
            members.append(seq)
    return members


# ---------------------------------------------------------------------------
# Decoders.  All tie-breaks are lexicographic for reproducibility.
# ---------------------------------------------------------------------------


def _log_probs(p) -> list:
    return [math.log(v) if v > 0 else -math.inf for v in p]


def _log_likelihood(seq: bytes, logp: list) -> float:
    # summed in fixed symbol order so permutation-equivalent sequences tie
    # bit-exactly
    total = 0.0
    for a in range(len(logp)):
        c = seq.count(a)
        if c:
            total += c * logp[a]
    return total


def _argmax_lex(items, key):
    """Item with maximal key; among ties the lexicographically smallest."""
    best = None
    best_key = None
    for item in items:
        k = key(item)
        if best is None or k > best_key or (k == best_key and item < best):
            best, best_key = item, k
    return best


def ml_decode(cands: CandidateSet, source_model: JointDistribution, delay: int):
    """Most likely bin member under the source model, truncated to n - delay.

    The paper-style symbol-by-symbol construction and the global argmax agree
    (each decision conditions on the already-decided prefix), so the global
    form is used directly.
    """
    n = cands.step
    if not (0 <= delay <= n):
        raise ValueError("delay out of range")
    px = source_model.probs.ravel() if source_model.is_point_to_point() \
        else source_model.marginal_x()
    logp = _log_probs(px)
    best = _argmax_lex(cands.prefixes, key=lambda s: _log_likelihood(s, logp))
    return best[: n - delay]


def _suffix_entropy(seq: bytes, start: int) -> float:
    window = seq[start:]
    counts = [window.count(a) for a in set(window)]
    return entropy_of_counts(counts, len(window))


def _decide_left_to_right(prefixes, n: int, delay: int, suffix_h):
    """At each position l = 1 .. n - delay keep the candidates that agree with
    the earlier decisions and commit to the l-th symbol of the one with the
    smallest suffix_h(c, l), lexicographically smallest on ties."""
    decided = b""
    pool = list(prefixes)
    for l in range(1, n - delay + 1):
        pool = [c for c in pool if c[: l - 1] == decided]
        decided = min(pool, key=lambda c: (suffix_h(c, l), c))[:l]
    return decided


def universal_decode(cands: CandidateSet, delay: int):
    """Minimum suffix-entropy decoding, decisions fixed left to right: the
    suffix x_l^n with the smallest empirical entropy decides position l."""
    n = cands.step
    if not (0 <= delay <= n):
        raise ValueError("delay out of range")
    return _decide_left_to_right(
        cands.prefixes, n, delay, lambda c, l: _suffix_entropy(c, l - 1)
    )


def _pair_counts(x_seq, y_seq):
    counts = {}
    for pair in zip(x_seq, y_seq):
        counts[pair] = counts.get(pair, 0) + 1
    return counts


def _pair_log_likelihood(x_seq, y_seq, d: JointDistribution) -> float:
    p = d.probs
    total = 0.0
    counts = _pair_counts(x_seq, y_seq)
    for (a, b) in sorted(counts):  # canonical order: bit-exact ties
        pv = p[a, b]
        if pv <= 0:
            return -math.inf
        total += counts[a, b] * math.log(pv)
    return total


def si_decode_ml(cands: CandidateSet, y_observed, d: JointDistribution, delay: int):
    """Maximum conditional likelihood given the observed side information."""
    n = cands.step
    y_observed = _as_bytes(y_observed)
    if len(y_observed) != n:
        raise ValueError("side-information length must equal the horizon")
    if not (0 <= delay <= n):
        raise ValueError("delay out of range")
    best = _argmax_lex(
        cands.prefixes, key=lambda s: _pair_log_likelihood(s, y_observed, d)
    )
    return best[: n - delay]


def si_decode_universal(cands: CandidateSet, y_observed, delay: int):
    """Minimum empirical joint suffix-entropy decoding against known y.

    Since y is fixed, minimizing the joint suffix entropy orders candidates
    exactly as the conditional suffix entropy would.
    """
    n = cands.step
    y_observed = _as_bytes(y_observed)
    if len(y_observed) != n:
        raise ValueError("side-information length must equal the horizon")
    if not (0 <= delay <= n):
        raise ValueError("delay out of range")

    def suffix_h(c, l):
        counts = _pair_counts(c[l - 1 :], y_observed[l - 1 :])
        return entropy_of_counts(counts.values(), n - l + 1)

    return _decide_left_to_right(cands.prefixes, n, delay, suffix_h)


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
    i_x (resp. i_y) over all pairs, lexicographically smallest on ties."""
    if not (0 <= delay <= n):
        raise ValueError("delay out of range")
    best_ix = {}
    best_iy = {}
    for x_bar in cands_x.prefixes:
        for y_bar in cands_y.prefixes:
            board = compute_scores((x_bar, y_bar), cands_x, cands_y, n)
            if board.i_x > best_ix.get(x_bar, -1):
                best_ix[x_bar] = board.i_x
            if board.i_y > best_iy.get(y_bar, -1):
                best_iy[y_bar] = board.i_y
    top_x = max(best_ix.values())
    top_y = max(best_iy.values())
    x_hat = min(c for c, v in best_ix.items() if v == top_x)
    y_hat = min(c for c, v in best_iy.items() if v == top_y)
    return x_hat[: n - delay], y_hat[: n - delay]


def sw_ml_decode(cands_x: CandidateSet, cands_y: CandidateSet,
                 d: JointDistribution, delay: int):
    """Joint-likelihood argmax over the bin product."""
    n = cands_x.step
    if cands_y.step != n:
        raise ValueError("candidate sets are at different steps")
    if not (0 <= delay <= n):
        raise ValueError("delay out of range")
    best = _argmax_lex(
        itertools.product(cands_x.prefixes, cands_y.prefixes),
        key=lambda pair: _pair_log_likelihood(pair[0], pair[1], d),
    )
    return best[0][: n - delay], best[1][: n - delay]
