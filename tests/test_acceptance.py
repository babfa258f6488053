"""End-to-end acceptance checks, one test per shipped guarantee.

These are deliberately heavier than the unit tests: randomized corpora against
brute-force oracles, full rate-grid sweeps, and one long Monte Carlo run.  The
whole module is expected to take a few minutes single-threaded.
"""

import json
import math
import time

import numpy as np
import pytest

from swstream.cli import main
from swstream.codec import (
    BinningSchedule,
    candidate_set_for,
    enumerate_bin,
    ml_decode,
    si_decode_ml,
    si_decode_universal,
    sw_ml_decode,
    sw_universal_decode,
    universal_decode,
)
from swstream.exponents import (
    RatePair,
    e_block_sw_x,
    e_block_sw_y,
    e_ml_pp,
    e_ml_si,
    e_sw_x,
    e_sw_y,
    e_un_pp,
    e_un_si,
    e_un_x_gamma,
    e_un_y_gamma,
    e_x_gamma,
    e_y_gamma,
)
from swstream.info_core import (
    JointDistribution,
    conditional_entropy_x_given_y,
    conditional_entropy_y_given_x,
    entropy,
)
from swstream.sim import (
    TrialConfig,
    fit_exponent,
    run_trials,
    sample_source,
    wilson_interval,
)
from swstream.verify import _oracle_ml, _oracle_universal, run_suite
from conftest import random_corpus
from oracles import (
    _oracle_scores,
    _oracle_si_ml,
    _oracle_si_universal,
    pp_universal_grid,
    si_universal_grid,
)

ONE_BIT = BinningSchedule((1,))


def test_1_example_entropies(example1, example2):
    started = time.monotonic()
    # the reference figures are rounded to 2 decimals; Example 1's H(x|y)
    # truncates (exact value 0.32508...), so that one check is 6e-3 wide
    assert conditional_entropy_x_given_y(example1) == pytest.approx(
        0.3250829733914483, abs=1e-9
    )
    assert abs(conditional_entropy_x_given_y(example1) - 0.32) <= 0.006
    assert abs(entropy(example1) - 1.02) <= 0.005
    assert abs(conditional_entropy_x_given_y(example2) - 0.29) <= 0.005
    assert abs(entropy(example2) - 0.71) <= 0.005
    hx2 = entropy(example2) - conditional_entropy_x_given_y(example2.swapped())
    assert abs(hx2 - 0.42) <= 0.005
    assert time.monotonic() - started < 1.0


def test_2_ml_equals_universal_pp_and_si():
    started = time.monotonic()
    corpus = random_corpus(20250601, 20)
    rng = np.random.default_rng(20250602)
    for d in corpus:
        px = JointDistribution.from_marginal(d.marginal_x())
        h_pp = entropy(px)
        h_si = conditional_entropy_x_given_y(d)
        for _ in range(10):
            rp = h_pp + rng.uniform(0.02, 0.7)
            rs = h_si + rng.uniform(0.02, 0.7)
            ml_p, un_p = e_ml_pp(px, rp).value, e_un_pp(px, rp).value
            ml_s, un_s = e_ml_si(d, rs).value, e_un_si(d, rs).value
            assert abs(ml_p - un_p) <= 1e-5
            assert abs(ml_s - un_s) <= 1e-5
        # the simplex-grid oracle is the slow independent route; one rate
        # per distribution keeps it honest without blowing the time budget
        rp = h_pp + 0.3
        rs = h_si + 0.3
        assert abs(e_un_pp(px, rp).value - pp_universal_grid(px, rp)) <= 5e-3
        assert abs(e_un_si(d, rs).value - si_universal_grid(d, rs)) <= 5e-3
    assert time.monotonic() - started < 60.0


def test_3_gamma_equivalence(example1, example2):
    started = time.monotonic()
    corpus = [example1, example2] + random_corpus(20250603, 10)
    for d in corpus:
        rates = RatePair(
            conditional_entropy_x_given_y(d) + 0.3,
            conditional_entropy_y_given_x(d) + 0.3,
        )
        for gamma in np.linspace(0.0, 1.0, 11):
            assert abs(
                e_x_gamma(d, rates, gamma).value
                - e_un_x_gamma(d, rates, gamma).value
            ) <= 1e-5
            assert abs(
                e_y_gamma(d, rates, gamma).value
                - e_un_y_gamma(d, rates, gamma).value
            ) <= 1e-5
    assert time.monotonic() - started < 120.0


def test_4_symmetric_source_collapse(example1):
    h = entropy(example1)  # 1.0182 nats
    rx_grid = [round(0.30 + 0.01 * i, 2) for i in range(76)]
    for ry in (0.49, 0.67):
        prev_zero = True
        for rx in rx_grid:
            rates = RatePair(rx, ry)
            sw = e_sw_x(example1, rates).value
            g0 = e_x_gamma(example1, rates, 0.0).value
            blk = e_block_sw_x(example1, rates).value
            if rates.achievable(example1):
                assert abs(sw - g0) <= 1e-6
                assert abs(sw - blk) <= 1e-6
            # positivity exactly past the sum-rate boundary, to grid accuracy
            positive = sw > 1e-9
            if rx + ry > h + 0.01:
                assert positive
            elif rx + ry < h - 0.01:
                assert not positive
            if positive:
                prev_zero = False
            else:
                assert prev_zero  # no positive-then-zero flip along the sweep


def test_5_skewed_source_ordering(example2):
    px = JointDistribution.from_marginal(example2.marginal_x())
    hx = entropy(px)  # 0.4227 nats
    rx_grid = [round(0.30 + 0.01 * i, 2) for i in range(76)]
    individual_beats_joint = False
    for ry in (0.35, 0.49):
        for rx in rx_grid:
            rates = RatePair(rx, ry)
            assert (
                e_sw_x(example2, rates).value
                <= e_block_sw_x(example2, rates).value + 1e-9
            )
            assert (
                e_sw_y(example2, rates).value
                <= e_block_sw_y(example2, rates).value + 1e-9
            )
            pp = e_ml_pp(px, rx).value
            # the single-stream exponent turns positive exactly past H(x)
            assert (pp > 1e-9) == (rx > hx)
            if ry == 0.35 and pp > e_sw_x(example2, rates).value + 1e-9:
                individual_beats_joint = True
    # at the lower ry there are rates where ignoring stream y entirely
    # decodes stream x with a better exponent
    assert individual_beats_joint


def test_6_tilted_family_invariant_suite():
    started = time.monotonic()
    checks = run_suite("lemmas")
    failures = [name for name, ok, _ in checks if not ok]
    assert not failures
    assert time.monotonic() - started < 60.0


class TestCriterion7DecoderOracles:
    def test_single_stream_n10(self):
        skew = [0.9, 0.1]
        model = JointDistribution.from_marginal(skew)
        joint = JointDistribution.from_matrix([[0.45, 0.05], [0.05, 0.45]])
        n = 10
        rng = np.random.default_rng(20250604)
        for trial in range(200):
            x, y = sample_source(joint, n, int(rng.integers(1 << 30)))
            cands = candidate_set_for(trial, "x", x, ONE_BIT)
            members = sorted(enumerate_bin(trial, "x", ONE_BIT, 2, x))
            assert sorted(cands.prefixes) == members
            for delay in (0, 3):
                assert ml_decode(cands, model, delay) == _oracle_ml(
                    members, skew, n, delay
                )
                assert universal_decode(cands, delay) == _oracle_universal(
                    members, n, delay
                )
                assert si_decode_ml(cands, y, joint, delay) == _oracle_si_ml(
                    members, y, joint, n, delay
                )
                assert si_decode_universal(cands, y, delay) == _oracle_si_universal(
                    members, y, n, delay
                )

    def test_two_encoder_n6(self):
        joint = JointDistribution.from_matrix([[0.1, 0.05], [0.05, 0.8]])
        n = 6
        p = joint.probs
        rng = np.random.default_rng(20250605)
        for trial in range(50):
            x, y = sample_source(joint, n, int(rng.integers(1 << 30)))
            cx = candidate_set_for(trial, "x", x, ONE_BIT)
            cy = candidate_set_for(trial, "y", y, ONE_BIT)
            assert sorted(cx.prefixes) == sorted(enumerate_bin(trial, "x", ONE_BIT, 2, x))
            assert sorted(cy.prefixes) == sorted(enumerate_bin(trial, "y", ONE_BIT, 2, y))

            got_u = sw_universal_decode(cx, cy, 0)
            best_ix, best_iy = {}, {}
            for xb in cx.prefixes:
                for yb in cy.prefixes:
                    ix, iy = _oracle_scores((xb, yb), cx.prefixes, cy.prefixes, n)
                    best_ix[xb] = max(best_ix.get(xb, -1), ix)
                    best_iy[yb] = max(best_iy.get(yb, -1), iy)
            want_x = min(c for c, v in best_ix.items() if v == max(best_ix.values()))
            want_y = min(c for c, v in best_iy.items() if v == max(best_iy.values()))
            assert got_u == (want_x, want_y)

            got_m = sw_ml_decode(cx, cy, joint, 0)
            import itertools

            def ll(pair):
                counts = {}
                for ab in zip(pair[0], pair[1]):
                    counts[ab] = counts.get(ab, 0) + 1
                return sum(counts[ab] * math.log(p[ab]) for ab in sorted(counts))

            want_m = min(
                itertools.product(cx.prefixes, cy.prefixes),
                key=lambda pr: (-ll(pr), pr),
            )
            assert got_m == want_m


def test_8_simulation_decay_long_run():
    started = time.monotonic()
    cfg = TrialConfig(
        source=JointDistribution.from_marginal([0.9, 0.1]),
        schedule_x=ONE_BIT,
        schedule_y=None,
        n=24,
        delays=tuple(range(4, 13)),
        trials=200_000,
        base_seed=20250606,
        decoder="ml",
    )
    stats = run_trials(cfg, threads=1)
    assert stats.aborted == 0
    # strictly decreasing with disjoint 95% intervals between successive delays
    for a, b in zip(cfg.delays, cfg.delays[1:]):
        assert stats.errors_x[b] < stats.errors_x[a]
        lo_a, _ = wilson_interval(stats.errors_x[a], stats.trials)
        _, hi_b = wilson_interval(stats.errors_x[b], stats.trials)
        assert hi_b < lo_a
    fit = fit_exponent(stats)
    assert fit.ok
    assert 0.11 <= fit.slope <= 0.34
    assert fit.r2 >= 0.95
    assert time.monotonic() - started < 600.0


# the exact per-delay error probabilities of the binning ensemble under an
# ideal hash (each rival child survives a b-bit step with probability 2^-b,
# independently), computed by a dynamic program over the rival subtrees, as
# quoted: the test_8 source (ml on Bern(0.1), n = 24) and the README simulate
# config (si_ml on example 1, n = 16), each at 1 bit per step
EXACT_ERROR_CURVES = {
    "test_8-source": (dict(source=JointDistribution.from_marginal([0.9, 0.1]), n=24,
                           decoder="ml", base_seed=20250606),
                      {0: "0.1740", 4: "0.0538", 8: "0.0174", 12: "0.00588",
                       16: "0.00193"}),
    "readme-si_ml": (dict(source=JointDistribution.from_matrix([[0.45, 0.05],
                                                                [0.05, 0.45]]),
                          n=16, decoder="si_ml", base_seed=11),
                     {0: "0.17258", 2: "0.09602", 4: "0.05290", 6: "0.02904",
                      8: "0.01584"}),
}


@pytest.mark.parametrize("name", sorted(EXACT_ERROR_CURVES))
def test_prf_error_curve_matches_exact_values(name):
    # an acceptance test of the PRF and the replay: every per-delay error
    # count of 20,000 trials lies within 4 binomial standard errors, plus
    # the quoted value's rounding half-unit, of the exact probability
    kw, exact = EXACT_ERROR_CURVES[name]
    trials = 20_000
    cfg = TrialConfig(schedule_x=ONE_BIT, schedule_y=None, delays=tuple(exact),
                      trials=trials, **kw)
    stats = run_trials(cfg)
    assert stats.aborted == 0
    for delay, quoted in exact.items():
        p = float(quoted)
        half_unit = 0.5 * 10.0 ** -len(quoted.split(".")[1])
        bound = 4.0 * math.sqrt(p * (1 - p) / trials) + half_unit
        assert abs(stats.errors_x[delay] / trials - p) <= bound, (delay, stats.errors_x)


class TestCriterion9Determinism:
    def test_exponents_thread_invariant(self, tmp_path):
        src = tmp_path / "src.json"
        src.write_text(json.dumps({
            "alphabet_x": 2, "alphabet_y": 2,
            "probs": [[0.1, 0.05], [0.05, 0.8]],
        }))
        outputs = []
        for name, threads in (("t1", "1"), ("t2", "2")):
            out = tmp_path / name
            rc = main(["exponents", str(src), "--rx", "0.40:0.60:0.02",
                       "--ry", "0.49", "--out", str(out), "--threads", threads])
            assert rc == 0
            outputs.append((out / "exponents.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_simulate_thread_invariant(self, tmp_path):
        cfg = tmp_path / "trials.json"
        cfg.write_text(json.dumps({
            "source": {"alphabet_x": 2, "alphabet_y": 2,
                       "probs": [[0.45, 0.05], [0.05, 0.45]]},
            "schedule_x": [1],
            "schedule_y": None,
            "n": 10,
            "delays": [0, 2, 4],
            "trials": 200,
            "base_seed": 31,
            "decoder": "si_universal",
        }))
        outputs = []
        for name, threads in (("t1", "1"), ("t2", "2")):
            out = tmp_path / name
            rc = main(["simulate", str(cfg), "--out", str(out),
                       "--threads", threads])
            assert rc == 0
            outputs.append(((out / "stats.csv").read_bytes(),
                            (out / "fit.json").read_bytes()))
        assert outputs[0] == outputs[1]
