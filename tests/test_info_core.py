import collections
import functools
import itertools
import json
import math
import operator
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swstream import codec
from swstream.codec import _window_counts, weighted_suffix_entropy
from swstream.info_core import (
    JointDistribution,
    _log_sum,
    conditional_entropy_x_given_y,
    conditional_entropy_y_given_x,
    entropy,
    entropy_of_counts,
    kl_divergence,
    log_sum_tilted,
    log_sum_xy_tilted,
    tilted,
    xy_tilted,
)
from swstream.verify import random_joint

from conftest import random_corpus
from oracles import log_sum_tilted_oracle, log_sum_xy_tilted_oracle

LOG2 = math.log(2.0)


class TestJointDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            JointDistribution.from_matrix([[0.5, 0.4], [0.05, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution.from_matrix([[1.1, -0.1], [0.0, 0.0]])

    def test_rejects_nan(self):
        # NaN slips past both the sign and the sum check
        with pytest.raises(ValueError):
            JointDistribution.from_matrix([[math.nan, 0.5], [0.25, 0.25]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            JointDistribution(alphabet_x=2, alphabet_y=2, probs=np.ones(3) / 3)

    def test_rejects_singleton_x(self):
        with pytest.raises(ValueError):
            JointDistribution.from_matrix([[1.0]])

    def test_normalization_exact(self):
        # within-tolerance drift is renormalized away
        d = JointDistribution.from_matrix([[0.5, 0.25], [0.25, 1e-13]])
        assert np.array(d.probs).sum() == pytest.approx(1.0, abs=0)

    def test_marginals(self, example2):
        assert example2.marginal_x() == pytest.approx([0.15, 0.85])
        assert example2.marginal_y() == pytest.approx([0.15, 0.85])

    def test_swapped_roundtrip(self, example2):
        back = example2.swapped().swapped()
        assert np.array_equal(back.probs, example2.probs)

    def test_json_roundtrip(self, example1):
        d2 = JointDistribution.from_json(example1.to_json())
        assert np.array_equal(d2.probs, example1.probs)
        obj = json.loads(example1.to_json())
        assert set(obj) == {"alphabet_x", "alphabet_y", "probs"}

    def test_json_roundtrip_exact_when_the_sum_is_off_by_rounding(self):
        # 0.6 + 0.3 + 0.1 is 1 only up to rounding: every reload of a saved
        # pmf must give back the pmf that was saved
        d = JointDistribution.from_marginal([0.6, 0.3, 0.1])
        for _ in range(3):
            back = JointDistribution.from_json(d.to_json())
            assert np.array(back.probs).tobytes() == np.array(d.probs).tobytes()
            d = back

    @pytest.mark.parametrize("alphabet_x, alphabet_y, probs", [
        (2.7, 2, [[0.45, 0.05], [0.05, 0.45]]),
        (2, "2", [[0.45, 0.05], [0.05, 0.45]]),
        (2, True, [[0.5], [0.5]]),
    ], ids=["fraction", "string", "bool"])
    def test_from_json_rejects_non_integral_sizes(self, alphabet_x, alphabet_y, probs):
        # each of these was read as a size by int(): 2.7 and "2" as 2, True as 1
        text = json.dumps({"alphabet_x": alphabet_x, "alphabet_y": alphabet_y,
                           "probs": probs})
        with pytest.raises(ValueError, match="not an integer"):
            JointDistribution.from_json(text)

    def test_from_json_reads_integral_float_sizes(self):
        d = JointDistribution.from_json(
            '{"alphabet_x": 2.0, "alphabet_y": 1, "probs": [[0.5], [0.5]]}')
        assert (d.alphabet_x, d.alphabet_y) == (2, 1)

    def test_exact_sum_keeps_entries_and_copies(self):
        raw = np.array([[0.1, 0.05], [0.05, 0.8]])
        d = JointDistribution.from_matrix(raw)
        assert np.array(d.probs).tobytes() == raw.tobytes()
        raw[0, 0] = 0.5
        assert d.probs[0][0] == 0.1

    def test_probs_immutable(self, example1):
        with pytest.raises(TypeError):
            example1.probs[0][0] = 0.5

    def test_value_semantics(self, example1, example2):
        # those of a frozen dataclass: fields compared and hashed, probs left
        # out of repr, no assignment, and a pickle (the process pool's) that
        # keeps the cached log table
        d = JointDistribution.from_json(example1.to_json())
        assert d == example1 and hash(d) == hash(example1) and d != example2
        assert repr(d) == "JointDistribution(alphabet_x=2, alphabet_y=2)"
        with pytest.raises(AttributeError):
            d.probs = example2.probs
        with pytest.raises(AttributeError):
            del d.alphabet_x
        logs = d._log_probs
        assert d._log_probs is logs
        back = pickle.loads(pickle.dumps(d))
        assert back == d and back._log_probs == logs


class TestEntropies:
    def test_uniform_binary(self):
        d = JointDistribution.from_marginal([0.5, 0.5])
        assert entropy(d) == pytest.approx(0.693147, abs=1e-6)

    def test_point_mass(self):
        d = JointDistribution.from_marginal([1.0, 0.0])
        assert entropy(d) == 0.0

    def test_example_values(self, example1, example2):
        # exact values, frozen from direct closed-form evaluation
        assert conditional_entropy_x_given_y(example1) == pytest.approx(
            0.3250829734, abs=1e-9
        )
        assert entropy(example1) == pytest.approx(1.0182301540, abs=1e-9)
        assert conditional_entropy_x_given_y(example2) == pytest.approx(
            0.2856374899, abs=1e-9
        )
        assert entropy(example2) == pytest.approx(0.7083465777, abs=1e-9)
        # two-decimal figures quoted for these sources (truncated, not
        # rounded, hence the 6e-3 leeway on the first one)
        assert conditional_entropy_x_given_y(example1) == pytest.approx(0.32, abs=6e-3)
        assert entropy(example1) == pytest.approx(1.02, abs=5e-3)
        assert conditional_entropy_x_given_y(example2) == pytest.approx(0.29, abs=5e-3)
        assert entropy(example2) == pytest.approx(0.71, abs=5e-3)

    def test_product_conditional_is_marginal_entropy(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.2, 0.5, 0.3])
        d = JointDistribution.from_matrix(np.outer(px, py))
        hx = -sum(p * math.log(p) for p in px)
        assert conditional_entropy_x_given_y(d) == pytest.approx(hx, abs=1e-12)

    def test_symmetry_of_example1(self, example1):
        assert conditional_entropy_x_given_y(example1) == pytest.approx(
            conditional_entropy_y_given_x(example1), abs=1e-12
        )


class TestKL:
    def test_self_divergence_zero(self, example2):
        assert kl_divergence(example2, example2) == pytest.approx(0.0, abs=1e-15)

    def test_bern_quarter_vs_half(self):
        # 0.25*log(0.25/0.5) + 0.75*log(0.75/0.5) = 0.130812
        q = JointDistribution.from_marginal([0.25, 0.75])
        p = JointDistribution.from_marginal([0.5, 0.5])
        assert kl_divergence(q, p) == pytest.approx(0.130812, abs=1e-6)

    def test_support_mismatch_infinite(self):
        q = JointDistribution.from_marginal([0.5, 0.5])
        p = JointDistribution.from_marginal([1.0, 0.0])
        assert kl_divergence(q, p) == math.inf

    def test_alphabet_mismatch_rejected(self, example1):
        with pytest.raises(ValueError):
            kl_divergence(example1, JointDistribution.from_marginal([0.5, 0.5]))


class TestTilted:
    def test_rho_zero_identity(self, example2):
        t = tilted(example2, 0.0)
        assert np.allclose(t.probs, example2.probs, atol=1e-14)

    def test_bern_01_rho_1(self):
        # sqrt(0.1)/(sqrt(0.1)+sqrt(0.9)) = 0.25 exactly
        p = JointDistribution.from_marginal([0.1, 0.9])
        t = tilted(p, 1.0)
        assert np.ravel(t.probs) == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_large_rho_limit_uniform(self, example2):
        t = tilted(example2, 1e4)
        assert np.allclose(t.probs, 0.25, atol=1e-3)

    def test_rejects_rho_at_minus_one(self, example2):
        with pytest.raises(ValueError):
            tilted(example2, -1.0)

    def test_zero_cells_stay_zero(self):
        d = JointDistribution.from_matrix([[0.6, 0.0], [0.1, 0.3]])
        t = tilted(d, 0.7)
        assert t.probs[0][1] == 0.0

    def test_skewed_source_log_space(self):
        # rho near -1 raises probabilities to huge powers; log-space keeps
        # the normalization finite and concentrated on the modal cell
        d = JointDistribution.from_marginal([1e-9, 1.0 - 1e-9])
        t = tilted(d, -0.999)
        assert np.isfinite(t.probs).all()
        assert np.ravel(t.probs)[1] > 0.999


class TestXYTilted:
    def test_rho_zero_identity(self, example2):
        t = xy_tilted(example2, 0.0)
        assert np.allclose(t.probs, example2.probs, atol=1e-14)

    def test_example1_marginal_stays_uniform(self, example1):
        t = xy_tilted(example1, 1.0)
        assert t.marginal_y() == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_product_source_conditional_is_tilted_marginal(self):
        px = np.array([0.2, 0.8])
        py = np.array([0.6, 0.4])
        d = JointDistribution.from_matrix(np.outer(px, py))
        rho = 0.8
        t = xy_tilted(d, rho)
        cond = np.array(t.probs) / np.array(t.marginal_y())[None, :]
        tx = tilted(JointDistribution.from_marginal(px), rho)
        for col in range(2):
            assert cond[:, col] == pytest.approx(np.ravel(tx.probs), abs=1e-12)

    def test_marginal_matches_construction(self, example2):
        # y-marginal of the result is A(y)/B
        rho = 0.6
        c = np.array(example2.probs) ** (1.0 / (1.0 + rho))
        a = c.sum(axis=0) ** (1.0 + rho)
        t = xy_tilted(example2, rho)
        assert t.marginal_y() == pytest.approx(a / a.sum(), abs=1e-12)


TABLE_3X2 = [[0.3, 0.0], [0.1, 0.25], [0.05, 0.3]]


class TestMemoizedLogSums:
    """The Gallager log-sums against their definitions, bit for bit."""

    @pytest.fixture
    def sources(self, example1, example2):
        table = JointDistribution.from_matrix(TABLE_3X2)
        return {
            "example1": example1,
            "example2": example2,
            "3x2": table,
            "3x2 swapped": table.swapped(),
            "marginal": JointDistribution.from_marginal(example2.marginal_x()),
        }

    @pytest.mark.parametrize("fn, oracle", [
        (log_sum_tilted, log_sum_tilted_oracle),
        (log_sum_xy_tilted, log_sum_xy_tilted_oracle),
    ], ids=["xy", "x_given_y"])
    def test_bit_identical_to_definition(self, sources, fn, oracle):
        rng = np.random.default_rng(15)
        rhos = [0.0, 1.0, 2.0 ** 64, *rng.random(1000)]
        for _ in range(2):  # a second evaluation gives the same floats
            for rho in rhos:
                for name, d in sources.items():
                    assert fn(d, rho).hex() == oracle(d, rho).hex(), (name, rho)

    @pytest.mark.parametrize("fn", [log_sum_tilted, log_sum_xy_tilted],
                             ids=["xy", "x_given_y"])
    def test_a_transpose_and_its_reload_agree(self, fn):
        # the same rows give the same log-sums however the table was built:
        # adding a transpose's terms in another order than its reload's
        # changes the last bit of log_sum_tilted at hundreds of these rho
        swapped = JointDistribution.from_matrix(TABLE_3X2).swapped()
        reloaded = JointDistribution.from_json(swapped.to_json())
        rhos = np.random.default_rng(0).random(5000)
        values = []
        for d in (swapped, reloaded):
            values.append([fn(d, rho).hex() for rho in rhos])
        assert values[0] == values[1]

    def test_rejects_rho_at_or_below_minus_one(self, example2):
        with pytest.raises(ValueError):
            log_sum_xy_tilted(example2, -1.0)
        with pytest.raises(ValueError):
            log_sum_tilted(example2, -1.5)


class TestOnePassEntropies:
    """The tilted entropies that `_log_sum` returns with each log-sum against
    the entropies of the tilted families it stands for."""

    @pytest.fixture(params=range(8))
    def source(self, request):
        # zero entries, and an all-zero column in every other table
        rng = np.random.default_rng(2100 + request.param)
        ax, ay = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p = rng.random((ax, ay)) * (rng.random((ax, ay)) < 0.7)
        p[-1, -1] += 0.1
        if request.param % 2:
            p[:, 0] = 0.0
        return JointDistribution.from_matrix((p / p.sum()).tolist())

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0, 5.0])
    def test_equal_the_entropies_of_the_tilts(self, source, rho):
        value, h = _log_sum(source, rho, False)
        assert value == log_sum_tilted(source, rho)
        assert abs(h - entropy(tilted(source, rho))) <= 1e-12
        value, h = _log_sum(source, rho, True)
        assert value == log_sum_xy_tilted(source, rho)
        assert abs(h - conditional_entropy_x_given_y(xy_tilted(source, rho))) <= 1e-12


RHO_GRID = np.concatenate([np.linspace(-0.9, -0.05, 8), np.linspace(0.0, 10.0, 21)])


class TestTiltedFamilyLemmas:
    """Appendix-style identities for the two tilted families."""

    @pytest.fixture(params=range(20))
    def joint(self, request):
        rng = np.random.default_rng(1000 + request.param)
        ax = int(rng.integers(2, 4))
        ay = int(rng.integers(2, 4))
        return random_joint(rng, ax, ay)

    def test_entropy_monotone_in_rho(self, joint):
        h = [entropy(tilted(joint, r)) for r in RHO_GRID]
        assert np.all(np.diff(h) >= -1e-9)

    def test_conditional_entropy_monotone_in_rho(self, joint):
        h = [
            conditional_entropy_x_given_y(xy_tilted(joint, r))
            for r in RHO_GRID
        ]
        assert np.all(np.diff(h) >= -1e-9)

    def test_divergence_identity_plain(self, joint):
        # rho*H(p^rho) - (1+rho)*log sum p^{1/(1+rho)} = D(p^rho || p)
        for rho in RHO_GRID:
            tp = tilted(joint, rho)
            lhs = rho * entropy(tp) - (1.0 + rho) * log_sum_tilted(joint, rho)
            assert lhs == pytest.approx(kl_divergence(tp, joint), abs=1e-10)

    def test_divergence_identity_xy(self, joint):
        # rho*H(bar p^rho_{x|y}) - log sum_y (sum_x p^{1/(1+rho)})^{1+rho}
        #   = D(bar p^rho || p)
        for rho in RHO_GRID:
            bp = xy_tilted(joint, rho)
            lhs = rho * conditional_entropy_x_given_y(bp) - log_sum_xy_tilted(joint, rho)
            assert lhs == pytest.approx(kl_divergence(bp, joint), abs=1e-10)

    def test_entropy_is_derivative_of_log_sum(self, joint):
        # d/drho [(1+rho) log sum p^{1/(1+rho)}] = H(p^rho)
        eps = 1e-5
        for rho in np.linspace(0.05, 3.0, 8):
            fd = (
                (1.0 + rho + eps) * log_sum_tilted(joint, rho + eps)
                - (1.0 + rho - eps) * log_sum_tilted(joint, rho - eps)
            ) / (2 * eps)
            h = entropy(tilted(joint, rho))
            assert fd == pytest.approx(h, rel=1e-4)

    def test_conditional_entropy_is_derivative_of_log_sum_xy(self, joint):
        eps = 1e-5
        for rho in np.linspace(0.05, 3.0, 8):
            fd = (
                log_sum_xy_tilted(joint, rho + eps) - log_sum_xy_tilted(joint, rho - eps)
            ) / (2 * eps)
            h = conditional_entropy_x_given_y(xy_tilted(joint, rho))
            assert fd == pytest.approx(h, rel=1e-4)

    def test_divergence_slope_is_rho_times_entropy_slope(self, joint):
        eps = 1e-4
        for family, stat in (
            (tilted, entropy),
            (xy_tilted, conditional_entropy_x_given_y),
        ):
            for rho in np.linspace(0.2, 3.0, 6):
                dh = (
                    stat(family(joint, rho + eps))
                    - stat(family(joint, rho - eps))
                ) / (2 * eps)
                dd = (
                    kl_divergence(family(joint, rho + eps), joint)
                    - kl_divergence(family(joint, rho - eps), joint)
                ) / (2 * eps)
                if abs(dh) > 1e-8:
                    assert dd == pytest.approx(rho * dh, rel=1e-3, abs=1e-9)

    def test_divergence_minus_entropy_slope_sign(self, joint):
        # d(D - H)/drho changes sign at rho = 1
        eps = 1e-4
        for family, stat in (
            (tilted, entropy),
            (xy_tilted, conditional_entropy_x_given_y),
        ):
            for rho in list(np.linspace(0.1, 0.95, 5)) + list(np.linspace(1.05, 4.0, 5)):
                def g(r):
                    dist = family(joint, r)
                    return kl_divergence(dist, joint) - stat(dist)

                slope = (g(rho + eps) - g(rho - eps)) / (2 * eps)
                if abs(slope) > 1e-7:
                    assert math.copysign(1, slope) == math.copysign(1, rho - 1.0)


class TestEmpiricalTypes:
    # weighted_suffix_entropy(w, w, 1, 1, len(w)) is the plain type entropy
    # of w, and weighted_suffix_entropy(a, b, 1, 1, n) the joint one
    def test_full_range_counts(self):
        w = (0, 1, 0, 1)
        assert weighted_suffix_entropy(w, w, 1, 1, 4) == entropy_of_counts([2, 2], 4)
        assert weighted_suffix_entropy(w, w, 1, 1, 4) == pytest.approx(LOG2, abs=1e-12)

    def test_point_type_zero_entropy(self):
        w = (0, 0, 0)
        assert weighted_suffix_entropy(w, w, 1, 1, 3) == 0.0

    def test_joint_type(self):
        # pairs (0,1), (1,1), (0,0): three distinct symbols, once each
        assert weighted_suffix_entropy((0, 1, 0), (1, 1, 0), 1, 1, 3) == pytest.approx(
            math.log(3), abs=1e-12
        )

    def test_unequal_windows_rejected(self):
        with pytest.raises(ValueError):
            weighted_suffix_entropy((0, 1, 0), (1, 1), 1, 1, 3)

    def test_works_on_byte_strings(self):
        w = b"\x00\x01\x00"
        assert weighted_suffix_entropy(w, w, 1, 1, 3) == weighted_suffix_entropy(
            (0, 1, 0), (0, 1, 0), 1, 1, 3
        )
        assert weighted_suffix_entropy(
            b"\x00\x01", b"\x01\x01", 1, 1, 2
        ) == weighted_suffix_entropy((0, 1), (1, 1), 1, 1, 2)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    def test_type_entropy_bounds(self, seq):
        w = tuple(seq)
        h = weighted_suffix_entropy(w, w, 1, 1, len(w))
        assert -1e-12 <= h <= math.log(4) + 1e-12

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=20), st.randoms())
    def test_permuted_counts_give_identical_entropy(self, seq, rnd):
        shuffled = list(seq)
        rnd.shuffle(shuffled)
        w, v = tuple(seq), tuple(shuffled)
        assert weighted_suffix_entropy(w, w, 1, 1, len(w)) == weighted_suffix_entropy(
            v, v, 1, 1, len(v)
        )


def test_entropy_of_counts_adds_left_to_right():
    # from Python 3.12, sum() of floats compensates its rounding, which
    # changes the last bit for 784 of these count vectors (2-4 symbols,
    # totals up to 16); the terms are added left to right in ascending order
    vectors = [c for m in (2, 3, 4) for c in itertools.product(range(17), repeat=m)
               if 1 <= sum(c) <= 16]
    assert len(vectors) == 5964
    for counts in vectors:
        total = sum(counts)
        terms = [(c / total) * math.log(total / c) for c in sorted(counts) if c]
        assert entropy_of_counts(counts, total) == functools.reduce(operator.add, terms, 0.0)


def _every_window(lanes):
    """lo, hi: every window [lo, hi), 0 <= lo <= hi <= n, of a length-n lane;
    and [lane, w]: the entropy engine's value for window w of the lane,
    through its count step."""
    count, n = lanes.shape
    lo, hi = np.triu_indices(n + 1)
    return lo, hi, _window_counts(lanes)(np.arange(count)[:, None], lo, hi)


class TestWindowEntropies:
    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.sampled_from((0, 1, 2, 16, 300)), min_size=n, max_size=n),
                 min_size=1, max_size=4))))
    def test_every_window_is_entropy_of_counts(self, case):
        # symbols far apart and above a byte: each window's counts, not the
        # alphabet, set the value
        n, lanes = case
        lows, highs, table = _every_window(np.array(lanes, np.int64).reshape(len(lanes), n))
        assert table.shape == (len(lanes), (n + 1) * (n + 2) // 2)
        for lane, row in zip(lanes, table):
            for lo, hi, h in zip(lows, highs, row):
                counts = collections.Counter(lane[lo:hi]).values()
                assert h == (entropy_of_counts(counts, hi - lo) if hi > lo else 0.0)

    @pytest.mark.parametrize("n, symbols", [(1, 2), (6, 2), (10, 4), (8, 5), (5, 40)])
    def test_tabulated_counts_equal_sorted_counts(self, n, symbols, monkeypatch):
        # the same floats whether a window's entropy is read off the table of
        # every count vector or its counts are sorted, as past `_KEYED`
        assert (n + 1) ** min(n, symbols) <= codec._KEYED
        lanes = np.random.default_rng(n).integers(0, symbols, (50, n))
        table = _every_window(lanes)[2]
        monkeypatch.setattr(codec, "_KEYED", 0)
        assert np.array_equal(_every_window(lanes)[2], table)


def _type_entropy(*windows):
    """Reference empirical entropy: plain counts of the zipped windows."""
    counts = {}
    for symbol in zip(*windows):
        counts[symbol] = counts.get(symbol, 0) + 1
    return entropy_of_counts(counts.values(), len(windows[0]))


class TestWeightedSuffixEntropy:
    def test_diagonal_is_joint_type_entropy(self):
        x = y = (0, 1, 0, 1)
        assert weighted_suffix_entropy(x, y, 1, 1, 4) == pytest.approx(LOG2, abs=1e-12)

    def test_k_at_end_is_pure_conditional(self):
        x = (0, 0, 1, 1)
        y = (0, 1, 0, 1)
        got = weighted_suffix_entropy(x, y, 1, 5, 4)
        want = _type_entropy(x, y) - _type_entropy(y)
        assert got == pytest.approx(want, abs=1e-12)

    def test_hand_worked_mixed_case(self):
        # l=1, k=3, n=4: (2/4) H(x_1^2 | y_1^2) + (2/4) H(x_3^4, y_3^4)
        x = (0, 0, 1, 1)
        y = (0, 1, 0, 1)
        h_cond = _type_entropy(x[:2], y[:2]) - _type_entropy(y[:2])
        h_joint = _type_entropy(x[2:], y[2:])
        want = 0.5 * h_cond + 0.5 * h_joint
        assert weighted_suffix_entropy(x, y, 1, 3, 4) == pytest.approx(want, abs=1e-12)

    def test_swapped_case_mirrors(self):
        x = (0, 1, 1, 0)
        y = (1, 0, 0, 1)
        got = weighted_suffix_entropy(x, y, 3, 1, 4)
        mirrored = weighted_suffix_entropy(y, x, 1, 3, 4)
        assert got == pytest.approx(mirrored, abs=1e-12)

    def test_both_past_end_is_zero(self):
        assert weighted_suffix_entropy((0, 1), (1, 0), 3, 3, 2) == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            weighted_suffix_entropy((0, 1), (1, 0), 0, 1, 2)
        with pytest.raises(ValueError):
            weighted_suffix_entropy((0, 1), (1, 0), 1, 4, 2)

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                st.lists(st.integers(0, 2), min_size=n, max_size=n),
                st.integers(1, n + 1),
                st.integers(1, n + 1),
            )
        )
    )
    def test_value_bounds(self, args):
        xs, ys, l, k = args
        n = len(xs)
        v = weighted_suffix_entropy(tuple(xs), tuple(ys), l, k, n)
        assert -1e-12 <= v <= math.log(6) + 1e-12
