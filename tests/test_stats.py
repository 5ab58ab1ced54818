import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmhseg.errors import ContractError
from wmhseg.stats import benjamini_hochberg, wilcoxon_signed_rank

from oracles import wilcoxon_enumerate


class TestWilcoxon:
    def test_all_positive_n8(self):
        # every sign pattern with W+ >= 36 or <= 0: 2/256 two-sided
        d = [1, 2, 3, 4, 5, 6, 7, 8]
        assert wilcoxon_signed_rank(d) == pytest.approx(2 / 256)

    def test_antisymmetric_p_one(self):
        d = [1, -1, 2, -2, 3, -3]
        assert wilcoxon_signed_rank(d) == pytest.approx(1.0)

    def test_zeros_dropped(self):
        d = [1, 2, 3, 4, 5, 6, 7, 8]
        assert wilcoxon_signed_rank(d + [0, 0, 0]) == wilcoxon_signed_rank(d)

    def test_all_zero_nan(self):
        assert np.isnan(wilcoxon_signed_rank([0.0, 0.0]))

    def test_too_few_nonzero(self):
        with pytest.raises(ContractError):
            wilcoxon_signed_rank([1, 2, 3, 0, 0, 0])

    def test_sign_symmetry(self):
        rng = np.random.default_rng(0)
        d = rng.normal(0.3, 1.0, 12)
        assert wilcoxon_signed_rank(d) == pytest.approx(wilcoxon_signed_rank(-d))

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(6, 13))
            d = np.round(rng.normal(0.2, 1.0, n), 1)
            d = d[d != 0]
            if d.size < 6:
                continue
            assert wilcoxon_signed_rank(d) == pytest.approx(wilcoxon_enumerate(d))

    def test_ties_match_enumeration(self):
        d = [0.5, 0.5, -0.5, 1.0, 1.0, 2.0, -1.0, 3.0]
        assert wilcoxon_signed_rank(d) == pytest.approx(wilcoxon_enumerate(d))

    def test_large_n_uses_normal_approximation(self):
        rng = np.random.default_rng(2)
        d = rng.normal(0.5, 1.0, 40)
        p = wilcoxon_signed_rank(d)
        assert 0.0 <= p <= 1.0
        # a strong consistent shift should be clearly significant
        assert p < 0.05

    def test_large_n_null_not_significant(self):
        rng = np.random.default_rng(3)
        d = rng.normal(0.0, 1.0, 60)
        assert wilcoxon_signed_rank(d) > 0.01

    def test_exact_and_approx_agree_near_limit(self):
        # the same data pushed through both paths should give similar p
        rng = np.random.default_rng(4)
        d = rng.normal(0.3, 1.0, 25)
        exact = wilcoxon_signed_rank(d)
        approx = wilcoxon_signed_rank(np.concatenate([d, [1e-9]]))  # n=26
        assert approx == pytest.approx(exact, abs=0.05)

    def test_large_n_closed_form(self):
        # n = 30, all positive: W+ = 465, mean 30*31/4, variance 30*31*61/24
        z = (465 - 232.5) / math.sqrt(2363.75)
        assert math.erfc(z / math.sqrt(2)) == pytest.approx(1.7344e-06, rel=1e-4)
        p = wilcoxon_signed_rank(np.arange(1, 31))
        assert p == pytest.approx(math.erfc(z / math.sqrt(2)), rel=1e-12)

    def test_large_n_ties_closed_form(self):
        # |d| takes the values 1..5 six, nine, nine, three and three times:
        # midranks 3.5, 11, 20, 26 and 29, and W+ = 3 * (3.5 + 2*11 + 3*20 + 29).
        d = [1, -1, 2, 2, -2, 3, 3, 3, -4, 5] * 3
        w_plus = 3 * (3.5 + 2 * 11 + 3 * 20 + 29)
        tie_term = ((6**3 - 6) + 2 * (9**3 - 9) + 2 * (3**3 - 3)) / 48
        z = (w_plus - 30 * 31 / 4) / math.sqrt(30 * 31 * 61 / 24 - tie_term)
        assert wilcoxon_signed_rank(d) == pytest.approx(math.erfc(z / math.sqrt(2)),
                                                        rel=1e-12)

    @given(st.lists(st.integers(-50, 50).filter(lambda v: v != 0),
                    min_size=6, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_oracle(self, d):
        assert wilcoxon_signed_rank(d) == pytest.approx(wilcoxon_enumerate(d))


class TestBenjaminiHochberg:
    def test_hand_example(self):
        p = [0.01, 0.02, 0.03, 0.04, 0.05]
        # adjusted: p_i * 5 / i, then monotone from the top -> all 0.05
        np.testing.assert_allclose(benjamini_hochberg(p), [0.05] * 5)

    def test_textbook_example(self):
        p = [0.005, 0.009, 0.05, 0.5]
        expected = [0.018, 0.018, 1 / 15, 0.5]
        np.testing.assert_allclose(benjamini_hochberg(p), expected)

    def test_single_value_unchanged(self):
        np.testing.assert_allclose(benjamini_hochberg([0.3]), [0.3])

    def test_empty(self):
        assert benjamini_hochberg([]).size == 0

    def test_order_preserved(self):
        p = [0.5, 0.001, 0.2]
        out = benjamini_hochberg(p)
        assert out[1] == min(out)

    def test_capped_at_one(self):
        out = benjamini_hochberg([0.9, 0.95, 1.0])
        assert out.max() <= 1.0

    def test_undefined_p_stays_nan(self):
        # the NaN entry is left out: the other two are adjusted as a family of 2
        np.testing.assert_allclose(benjamini_hochberg([0.01, np.nan, 0.04]),
                                   [0.02, np.nan, 0.04])

    def test_invalid_p_rejected(self):
        with pytest.raises(ContractError):
            benjamini_hochberg([0.5, 1.5])

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_properties(self, p):
        out = benjamini_hochberg(p)
        p_arr = np.asarray(p)
        # adjusted >= raw, bounded by 1, and order of p preserved as order of out
        assert np.all(out >= p_arr - 1e-12)
        assert np.all(out <= 1.0 + 1e-12)
        order = np.argsort(p_arr, kind="stable")
        assert np.all(np.diff(out[order]) >= -1e-12)
