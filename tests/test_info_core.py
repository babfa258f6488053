import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from swstream.info_core import (
    EmpiricalType,
    JointDistribution,
    conditional_entropy_x_given_y,
    conditional_entropy_y_given_x,
    empirical_joint_type,
    empirical_type,
    entropy,
    entropy_of_counts,
    kl_divergence,
    log_sum_tilted,
    log_sum_xy_tilted,
    tilted,
    weighted_suffix_entropy,
    xy_tilted,
)
from swstream.verify import random_joint

from conftest import random_corpus

LOG2 = math.log(2.0)


class TestJointDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            JointDistribution.from_matrix([[0.5, 0.4], [0.05, 0.0]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            JointDistribution.from_matrix([[1.1, -0.1], [0.0, 0.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            JointDistribution(alphabet_x=2, alphabet_y=2, probs=np.ones(3) / 3)

    def test_rejects_singleton_x(self):
        with pytest.raises(ValueError):
            JointDistribution.from_matrix([[1.0]])

    def test_normalization_exact(self):
        # within-tolerance drift is renormalized away
        d = JointDistribution.from_matrix([[0.5, 0.25], [0.25, 1e-13]])
        assert d.probs.sum() == pytest.approx(1.0, abs=0)

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

    def test_probs_immutable(self, example1):
        with pytest.raises(ValueError):
            example1.probs[0, 0] = 0.5


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
        assert t.rho == 0.0
        assert np.allclose(t.distribution.probs, example2.probs, atol=1e-14)

    def test_bern_01_rho_1(self):
        # sqrt(0.1)/(sqrt(0.1)+sqrt(0.9)) = 0.25 exactly
        p = JointDistribution.from_marginal([0.1, 0.9])
        t = tilted(p, 1.0).distribution
        assert t.probs.ravel() == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_large_rho_limit_uniform(self, example2):
        t = tilted(example2, 1e4).distribution
        assert np.allclose(t.probs, 0.25, atol=1e-3)

    def test_rejects_rho_at_minus_one(self, example2):
        with pytest.raises(ValueError):
            tilted(example2, -1.0)

    def test_zero_cells_stay_zero(self):
        d = JointDistribution.from_matrix([[0.6, 0.0], [0.1, 0.3]])
        t = tilted(d, 0.7).distribution
        assert t.probs[0, 1] == 0.0

    def test_skewed_source_log_space(self):
        # rho near -1 raises probabilities to huge powers; log-space keeps
        # the normalization finite and concentrated on the modal cell
        d = JointDistribution.from_marginal([1e-9, 1.0 - 1e-9])
        t = tilted(d, -0.999).distribution
        assert np.isfinite(t.probs).all()
        assert t.probs.ravel()[1] > 0.999


class TestXYTilted:
    def test_rho_zero_identity(self, example2):
        t = xy_tilted(example2, 0.0)
        assert np.allclose(t.distribution.probs, example2.probs, atol=1e-14)

    def test_example1_marginal_stays_uniform(self, example1):
        t = xy_tilted(example1, 1.0).distribution
        assert t.marginal_y() == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_product_source_conditional_is_tilted_marginal(self):
        px = np.array([0.2, 0.8])
        py = np.array([0.6, 0.4])
        d = JointDistribution.from_matrix(np.outer(px, py))
        rho = 0.8
        t = xy_tilted(d, rho).distribution
        cond = t.probs / t.marginal_y()[None, :]
        tx = tilted(JointDistribution.from_marginal(px), rho).distribution
        for col in range(2):
            assert cond[:, col] == pytest.approx(tx.probs.ravel(), abs=1e-12)

    def test_marginal_matches_construction(self, example2):
        # y-marginal of the result is A(y)/B
        rho = 0.6
        c = example2.probs ** (1.0 / (1.0 + rho))
        a = c.sum(axis=0) ** (1.0 + rho)
        t = xy_tilted(example2, rho).distribution
        assert t.marginal_y() == pytest.approx(a / a.sum(), abs=1e-12)


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
        h = [entropy(tilted(joint, r).distribution) for r in RHO_GRID]
        assert np.all(np.diff(h) >= -1e-9)

    def test_conditional_entropy_monotone_in_rho(self, joint):
        h = [
            conditional_entropy_x_given_y(xy_tilted(joint, r).distribution)
            for r in RHO_GRID
        ]
        assert np.all(np.diff(h) >= -1e-9)

    def test_divergence_identity_plain(self, joint):
        # rho*H(p^rho) - (1+rho)*log sum p^{1/(1+rho)} = D(p^rho || p)
        for rho in RHO_GRID:
            tp = tilted(joint, rho).distribution
            lhs = rho * entropy(tp) - (1.0 + rho) * log_sum_tilted(joint, rho)
            assert lhs == pytest.approx(kl_divergence(tp, joint), abs=1e-10)

    def test_divergence_identity_xy(self, joint):
        # rho*H(bar p^rho_{x|y}) - log sum_y (sum_x p^{1/(1+rho)})^{1+rho}
        #   = D(bar p^rho || p)
        for rho in RHO_GRID:
            bp = xy_tilted(joint, rho).distribution
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
            h = entropy(tilted(joint, rho).distribution)
            assert fd == pytest.approx(h, rel=1e-4)

    def test_conditional_entropy_is_derivative_of_log_sum_xy(self, joint):
        eps = 1e-5
        for rho in np.linspace(0.05, 3.0, 8):
            fd = (
                log_sum_xy_tilted(joint, rho + eps) - log_sum_xy_tilted(joint, rho - eps)
            ) / (2 * eps)
            h = conditional_entropy_x_given_y(xy_tilted(joint, rho).distribution)
            assert fd == pytest.approx(h, rel=1e-4)

    def test_divergence_slope_is_rho_times_entropy_slope(self, joint):
        eps = 1e-4
        for family, stat in (
            (tilted, entropy),
            (xy_tilted, conditional_entropy_x_given_y),
        ):
            for rho in np.linspace(0.2, 3.0, 6):
                dh = (
                    stat(family(joint, rho + eps).distribution)
                    - stat(family(joint, rho - eps).distribution)
                ) / (2 * eps)
                dd = (
                    kl_divergence(family(joint, rho + eps).distribution, joint)
                    - kl_divergence(family(joint, rho - eps).distribution, joint)
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
                    dist = family(joint, r).distribution
                    return kl_divergence(dist, joint) - stat(dist)

                slope = (g(rho + eps) - g(rho - eps)) / (2 * eps)
                if abs(slope) > 1e-7:
                    assert math.copysign(1, slope) == math.copysign(1, rho - 1.0)


class TestEmpiricalTypes:
    def test_full_range_counts(self):
        t = empirical_type((0, 1, 0, 1), 1, 4)
        assert t.counts == {0: 2, 1: 2}
        assert t.entropy() == pytest.approx(LOG2, abs=1e-12)

    def test_point_type_zero_entropy(self):
        t = empirical_type((0, 0, 0), 1, 3)
        assert t.entropy() == 0.0

    def test_suffix_window(self):
        assert empirical_type((0, 1, 1), 2, 3).counts == {1: 2}

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            empirical_type((0, 1), 2, 1)
        with pytest.raises(ValueError):
            EmpiricalType({0: 1}, 0)

    def test_joint_type(self):
        t = empirical_joint_type((0, 1, 0), (1, 1, 0), 1, 3)
        assert t.counts == {(0, 1): 1, (1, 1): 1, (0, 0): 1}

    def test_works_on_byte_strings(self):
        t = empirical_type(b"\x00\x01\x00", 1, 3)
        assert t.counts == {0: 2, 1: 1}

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30))
    def test_type_entropy_bounds(self, seq):
        h = empirical_type(tuple(seq), 1, len(seq)).entropy()
        assert -1e-12 <= h <= math.log(4) + 1e-12

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=20))
    def test_permuted_counts_give_identical_entropy(self, seq):
        counts = empirical_type(tuple(seq), 1, len(seq)).counts
        vals = list(counts.values())
        assert entropy_of_counts(vals, len(seq)) == entropy_of_counts(
            list(reversed(vals)), len(seq)
        )


class TestWeightedSuffixEntropy:
    def test_diagonal_is_joint_type_entropy(self):
        x = y = (0, 1, 0, 1)
        assert weighted_suffix_entropy(x, y, 1, 1, 4) == pytest.approx(LOG2, abs=1e-12)

    def test_k_at_end_is_pure_conditional(self):
        x = (0, 0, 1, 1)
        y = (0, 1, 0, 1)
        got = weighted_suffix_entropy(x, y, 1, 5, 4)
        want = (
            empirical_joint_type(x, y, 1, 4).entropy()
            - empirical_type(y, 1, 4).entropy()
        )
        assert got == pytest.approx(want, abs=1e-12)

    def test_hand_worked_mixed_case(self):
        # l=1, k=3, n=4: (2/4) H(x_1^2 | y_1^2) + (2/4) H(x_3^4, y_3^4)
        x = (0, 0, 1, 1)
        y = (0, 1, 0, 1)
        h_cond = (
            empirical_joint_type(x, y, 1, 2).entropy()
            - empirical_type(y, 1, 2).entropy()
        )
        h_joint = empirical_joint_type(x, y, 3, 4).entropy()
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
