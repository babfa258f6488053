"""Self-check suites behind the `verify` CLI subcommand.

Each suite returns a list of (name, passed, detail) triples.  They are
deliberately lighter than the pytest suite -- quick smoke checks of the same
invariants, runnable from an installed toolkit without the test tree.  The
brute-force references that a suite runs live here: the exhaustive bin
(`enumerate_bin`) and the single-stream ML and universal decoders.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math

import numpy as np

from . import codec, exponents, info_core
from .info_core import EXAMPLE_1, EXAMPLE_2, JointDistribution
from .sim import sample_source

__all__ = ["run_suite", "SUITES", "enumerate_bin", "EXAMPLE_1", "EXAMPLE_2"]


def random_joint(rng, ax: int, ay: int, floor: float = 0.04) -> JointDistribution:
    """A full-support random joint; the floor keeps grid oracles honest."""
    p = rng.dirichlet(np.ones(ax * ay)) + floor
    p /= p.sum()
    return JointDistribution.from_matrix(p.reshape(ax, ay))


def _suite_examples():
    checks = []
    vals = [
        ("example1 H(x|y)", info_core.conditional_entropy_x_given_y(EXAMPLE_1), 0.32),
        ("example1 H(x,y)", info_core.entropy(EXAMPLE_1), 1.02),
        ("example2 H(x|y)", info_core.conditional_entropy_x_given_y(EXAMPLE_2), 0.29),
        ("example2 H(x,y)", info_core.entropy(EXAMPLE_2), 0.71),
        ("example2 H(x)", info_core._entropy_vec(EXAMPLE_2.marginal_x()), 0.42),
    ]
    # the two-decimal reference figures are truncations, not roundings, so a
    # value can sit just over half a unit in the last place away
    for name, got, want in vals:
        checks.append((name, abs(got - want) <= 0.006, f"got {got:.4f}, want {want}"))
    return checks


def _suite_equivalence():
    rng = np.random.default_rng(20240817)
    checks = []
    for i in range(6):
        d = random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        rx = info_core.conditional_entropy_x_given_y(d) + rng.uniform(0.05, 0.5)
        ml = exponents.e_ml_si(d, rx).value
        un = exponents.e_un_si(d, rx).value
        checks.append(
            (f"SI equivalence #{i}", abs(ml - un) <= 1e-5, f"|{ml:.8f} - {un:.8f}|")
        )
        px = JointDistribution.from_marginal(d.marginal_x())
        rp = info_core.entropy(px) + rng.uniform(0.05, 0.5)
        mlp = exponents.e_ml_pp(px, rp).value
        unp = exponents.e_un_pp(px, rp).value
        checks.append(
            (f"pp equivalence #{i}", abs(mlp - unp) <= 1e-5, f"|{mlp:.8f} - {unp:.8f}|")
        )
    for name, d in (("example1", EXAMPLE_1), ("example2", EXAMPLE_2)):
        rates = exponents.RatePair(
            info_core.conditional_entropy_x_given_y(d) + 0.25,
            info_core.conditional_entropy_y_given_x(d) + 0.25,
        )
        for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
            ml = exponents.e_x_gamma(d, rates, gamma).value
            un = exponents.e_un_x_gamma(d, rates, gamma).value
            checks.append(
                (
                    f"{name} gamma={gamma} equivalence",
                    abs(ml - un) <= 1e-5,
                    f"|{ml:.8f} - {un:.8f}|",
                )
            )
        # the block lower bound against its three error events, universal route
        joint = JointDistribution.from_marginal(np.ravel(d.probs))
        block = exponents.e_block_lower(d, rates)
        events = min(
            exponents.e_un_si(d, rates.rx).value,
            exponents.e_un_si(d.swapped(), rates.ry).value,
            exponents.e_un_pp(joint, rates.rx + rates.ry).value,
        )
        checks.append(
            (
                f"{name} block lower bound equivalence",
                abs(block - events) <= 1e-5,
                f"|{block:.8f} - {events:.8f}|",
            )
        )
    return checks


def _suite_lemmas():
    rng = np.random.default_rng(7)
    checks = []
    rho_grid = np.concatenate([np.linspace(-0.9, -0.1, 5), np.linspace(0.0, 6.0, 13)])
    for i in range(5):
        d = random_joint(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        h_plain = [info_core.entropy(info_core.tilted(d, r)) for r in rho_grid]
        h_cond = [
            info_core.conditional_entropy_x_given_y(info_core.xy_tilted(d, r))
            for r in rho_grid
        ]
        mono = np.all(np.diff(h_plain) >= -1e-9)
        mono_si = np.all(np.diff(h_cond) >= -1e-9)
        checks.append((f"tilted entropy monotone #{i}", bool(mono), "H(p^rho) vs rho"))
        checks.append((f"xy-tilt cond entropy monotone #{i}", bool(mono_si), "H_bar vs rho"))
        ok8 = ok9 = True
        for r in rho_grid:
            tp = info_core.tilted(d, r)
            lhs = r * info_core.entropy(tp) - (1.0 + r) * info_core.log_sum_tilted(d, r)
            if abs(lhs - info_core.kl_divergence(tp, d)) > 1e-10:
                ok8 = False
            bp = info_core.xy_tilted(d, r)
            lhs9 = (
                r * info_core.conditional_entropy_x_given_y(bp)
                - info_core.log_sum_xy_tilted(d, r)
            )
            if abs(lhs9 - info_core.kl_divergence(bp, d)) > 1e-10:
                ok9 = False
        checks.append((f"divergence identity (plain tilt) #{i}", ok8, "rho grid"))
        checks.append((f"divergence identity (xy tilt) #{i}", ok9, "rho grid"))
    return checks


def enumerate_bin(seed: int, stream_id: str, schedule: codec.BinningSchedule,
                  alphabet: int, reference) -> list:
    """Oracle-side bin: every sequence of len(reference) whose full parity
    stream matches the reference's, found by exhaustive enumeration."""
    reference = bytes(reference)
    n = len(reference)
    # sequences share prefixes: each prefix's step bits are computed once
    step_bits = functools.cache(
        lambda prefix: codec.encode_step(seed, stream_id, prefix, schedule))

    def parities(seq):
        return [step_bits(seq[:j]) for j in range(1, n + 1)]

    target = parities(reference)
    return [seq for seq in map(bytes, itertools.product(range(alphabet), repeat=n))
            if parities(seq) == target]


def _suite_oracle():
    rng = np.random.default_rng(42)
    sched = codec.BinningSchedule((1,))
    px = JointDistribution.from_marginal([0.9, 0.1])
    ok = dict.fromkeys(("ml", "universal", "si_ml", "si_universal"), True)
    for t in range(25):
        seed = int(rng.integers(0, 2 ** 48))
        # point to point on px (y reads 0^n), then side information on example 1
        for d, ml, un in ((px, "ml", "universal"), (EXAMPLE_1, "si_ml", "si_universal")):
            x, y = sample_source(d, 8, seed)
            cands = codec.candidate_set_for(seed, "x", x, sched)
            bin_members = enumerate_bin(seed, "x", sched, 2, x)
            if sorted(cands.prefixes) != sorted(bin_members):
                ok[ml] = ok[un] = False
                continue
            want_ml = _oracle_ml(bin_members, y, d.probs, 8, 0)
            want_un = _oracle_universal(bin_members, y, 8, 0)
            if d is px:
                got_ml, got_un = codec.ml_decode(cands, d, 0), codec.universal_decode(cands, 0)
            else:
                got_ml = codec.si_decode_ml(cands, y, d, 0)
                got_un = codec.si_decode_universal(cands, y, 0)
            ok[ml] &= got_ml == want_ml
            ok[un] &= got_un == want_un
    return [(f"{name} decoder vs enumeration", passed, "n=8, 25 trials")
            for name, passed in ok.items()]


def _log_likelihood(x, y, probs):
    """The log-likelihood of the pair of sequences (x, y) under the table
    probs[a, b], summed over its sorted pair counts, so pairs of the same
    joint type tie bit-exactly."""
    counts = collections.Counter(zip(x, y))
    total = 0.0
    for a, b in sorted(counts):
        if probs[a, b] <= 0:
            return -math.inf
        total += counts[a, b] * math.log(probs[a, b])
    return total


def _oracle_ml(members, y, probs, n, delay):
    """The smallest member of largest joint likelihood with y under the table
    probs[a, b] (a marginal reads as an |X| x 1 table, against y = 0^n),
    truncated to n - delay."""
    probs = np.reshape(probs, (len(probs), -1))
    return _first_near_max(members, lambda s: _log_likelihood(s, y, probs), n)[: n - delay]


def _first_near_max(members, ll, n):
    """The smallest member whose log-likelihood ll ties the largest, as the
    ML kernel ties at horizon n: a finite ll within codec._ML_TIE * (n + |ll|)
    of it."""
    scores = {s: ll(s) for s in members}
    top = max(scores.values())

    def slack(v):
        return codec._ML_TIE * (n + abs(v)) if math.isfinite(v) else 0.0

    return min(s for s, v in scores.items() if v >= top - slack(v))


def _oracle_universal(members, y, n, delay):
    """Minimum joint suffix-entropy decoding against y (0^n for point to
    point), decided left to right, the smallest suffix winning ties."""
    decided = b""
    pool = list(members)
    for l in range(1, n - delay + 1):
        pool = [c for c in pool if c.startswith(decided)]

        def h(c):
            counts = collections.Counter(zip(c[l - 1 :], y[l - 1 :]))
            return info_core.entropy_of_counts(counts.values(), n - l + 1)

        best = min(pool, key=lambda c: (h(c), c))
        decided = best[:l]
    return decided


SUITES = {
    "examples": _suite_examples,
    "equivalence": _suite_equivalence,
    "lemmas": _suite_lemmas,
    "oracle": _suite_oracle,
}


def run_suite(name: str):
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
