"""Unit and property tests for PCT/PDT trend detection."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.trend import (
    StreamType,
    classify_owds,
    classify_owds_two_sided,
    median_groups,
    pct_metric,
    pdt_metric,
)


class TestMedianGroups:
    def test_default_group_count_is_sqrt_k(self):
        owds = np.arange(100.0)
        assert len(median_groups(owds)) == 10

    def test_trailing_samples_fold_into_last_group(self):
        owds = np.arange(103.0)
        medians = median_groups(owds)
        assert len(medians) == 10
        # last group covers indices 90..102, median = 96
        assert medians[-1] == pytest.approx(96.0)

    def test_explicit_group_count(self):
        assert len(median_groups(np.arange(20.0), n_groups=5)) == 5

    def test_group_count_capped_at_k(self):
        assert len(median_groups(np.arange(3.0), n_groups=10)) == 3

    def test_median_robust_to_outlier(self):
        owds = np.ones(100)
        owds[5] = 1e9  # one wild outlier
        medians = median_groups(owds)
        assert np.all(medians == 1.0)

    @given(
        owds=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0]),
                st.sampled_from([1.0, -1.0, 2.5, float("nan")]),
                st.floats(-1e3, 1e3),
            ),
            min_size=2,
            max_size=130,
        ),
        n_groups=st.one_of(st.none(), st.integers(2, 140)),
    )
    # np.median returns +0.0 where both middle values of a group are -0.0.
    @example(owds=[-0.0] * 6, n_groups=2)
    @example(owds=[-0.0] * 8, n_groups=2)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_per_group_np_median_bit_for_bit(self, owds, n_groups):
        # Ties, signed zeros and NaN groups included: each median must be
        # the very bytes np.median gives for its group.
        k = len(owds)
        g = max(2, math.isqrt(k)) if n_groups is None else min(n_groups, k)
        size = k // g
        bounds = [(i * size, (i + 1) * size if i < g - 1 else k) for i in range(g)]
        expected = np.array([np.median(np.asarray(owds[a:b])) for a, b in bounds])
        assert median_groups(owds, n_groups).tobytes() == expected.tobytes()

    def test_too_few_owds_raises(self):
        with pytest.raises(ValueError):
            median_groups([1.0])


class TestPCT:
    def test_strictly_increasing_gives_one(self):
        assert pct_metric(np.arange(10.0)) == 1.0

    def test_strictly_decreasing_gives_zero(self):
        assert pct_metric(np.arange(10.0)[::-1]) == 0.0

    def test_constant_counts_as_nonincreasing(self):
        assert pct_metric(np.ones(10)) == 0.0

    def test_alternating_gives_half(self):
        medians = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        assert pct_metric(medians) == pytest.approx(0.5)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=50))
    def test_bounded_zero_one(self, medians):
        assert 0.0 <= pct_metric(medians) <= 1.0


class TestPDT:
    def test_strictly_increasing_gives_one(self):
        assert pdt_metric(np.arange(10.0)) == 1.0

    def test_strictly_decreasing_gives_minus_one(self):
        assert pdt_metric(np.arange(10.0)[::-1]) == -1.0

    def test_no_variation_gives_zero(self):
        assert pdt_metric(np.ones(10)) == 0.0

    def test_round_trip_cancels(self):
        # up then back down: start-to-end variation is zero
        medians = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
        assert pdt_metric(medians) == pytest.approx(0.0)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=50))
    def test_bounded_plus_minus_one(self, medians):
        # ±1e-12 slop on both bounds: the numerator telescopes in one
        # subtraction while the denominator is a pairwise sum of |diffs|,
        # so monotone inputs can land one ulp outside [-1, 1].
        assert -1.0 - 1e-12 <= pdt_metric(medians) <= 1.0 + 1e-12


class TestClassifyPaperRule:
    def test_clear_trend_is_type_i(self):
        owds = np.linspace(0.0, 1e-3, 100)
        assert classify_owds(owds).stream_type is StreamType.INCREASING

    def test_flat_is_type_n(self):
        owds = np.zeros(100)
        assert classify_owds(owds).stream_type is StreamType.NONINCREASING

    def test_decreasing_is_type_n(self):
        owds = np.linspace(1e-3, 0.0, 100)
        assert classify_owds(owds).stream_type is StreamType.NONINCREASING

    def test_either_metric_suffices(self):
        # sawtooth with net rise: PDT high, PCT moderate
        owds = np.tile([0.0, 1.0], 50) + np.linspace(0, 10.0, 100)
        c = classify_owds(owds)
        assert c.stream_type is StreamType.INCREASING

    def test_disable_both_metrics_rejected(self):
        with pytest.raises(ValueError):
            classify_owds(np.zeros(100), use_pct=False, use_pdt=False)

    def test_pdt_only_mode(self):
        owds = np.linspace(0.0, 1e-3, 100)
        c = classify_owds(owds, use_pct=False)
        assert c.stream_type is StreamType.INCREASING

    def test_threshold_sensitivity(self):
        owds = np.linspace(0.0, 1e-3, 100)
        # absurdly high thresholds: nothing counts as increasing...
        c = classify_owds(owds, pct_threshold=1.1, pdt_threshold=1.1)
        assert c.stream_type is StreamType.NONINCREASING


class TestClassifyToolRule:
    def test_clear_trend_is_type_i(self):
        owds = np.linspace(0.0, 1e-3, 100)
        assert classify_owds_two_sided(owds).stream_type is StreamType.INCREASING

    def test_flat_is_type_n(self):
        rng = np.random.default_rng(0)
        owds = rng.normal(0.0, 1e-4, size=100)
        # one realization may be ambiguous, but most flat streams are N;
        # check a batch
        types = [
            classify_owds_two_sided(rng.normal(0, 1e-4, 100)).stream_type
            for _ in range(50)
        ]
        n_count = sum(1 for t in types if t is StreamType.NONINCREASING)
        i_count = sum(1 for t in types if t is StreamType.INCREASING)
        assert n_count > 30
        assert i_count <= 3

    def test_contradiction_is_ambiguous(self):
        # engineered: PCT strongly increasing, PDT strongly negative is
        # impossible; instead use mid-zone values via thresholds
        owds = np.linspace(0.0, 1e-3, 100)
        c = classify_owds_two_sided(owds, pct_incr=0.5, pct_nonincr=0.4,
                                    pdt_incr=1.5, pdt_nonincr=0.9)
        # PCT says increasing (1.0 > 0.5), PDT says non-increasing (1.0 < 1.5
        # is not above, and 1.0 > 0.9 means not below either => ambiguous)
        assert c.stream_type in (StreamType.AMBIGUOUS, StreamType.INCREASING)

    def test_inverted_thresholds_rejected(self):
        with pytest.raises(ValueError):
            classify_owds_two_sided(np.zeros(100), pct_incr=0.5, pct_nonincr=0.6)

    def test_offset_invariance(self):
        """A constant clock offset must not change any verdict."""
        rng = np.random.default_rng(1)
        owds = np.linspace(0.0, 5e-4, 100) + rng.normal(0, 5e-5, 100)
        base = classify_owds_two_sided(owds)
        shifted = classify_owds_two_sided(owds + 123.456)
        assert base.stream_type is shifted.stream_type
        assert base.pct == pytest.approx(shifted.pct)
        assert base.pdt == pytest.approx(shifted.pdt)


class TestStatisticalBehaviour:
    """Expectations from the paper: PCT -> 0.5 and PDT -> 0 for
    independent OWDs."""

    def test_pct_near_half_for_iid(self):
        rng = np.random.default_rng(42)
        vals = [
            pct_metric(median_groups(rng.normal(0, 1, 100))) for _ in range(300)
        ]
        assert abs(np.mean(vals) - 0.5) < 0.05

    def test_pdt_near_zero_for_iid(self):
        rng = np.random.default_rng(43)
        vals = [
            pdt_metric(median_groups(rng.normal(0, 1, 100))) for _ in range(300)
        ]
        assert abs(np.mean(vals)) < 0.05

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_streams_always_detected(self, seed):
        """Any strictly increasing OWD sequence is type I under both rules."""
        rng = np.random.default_rng(seed)
        increments = rng.uniform(1e-7, 1e-4, size=100)
        owds = np.cumsum(increments)
        assert classify_owds(owds).stream_type is StreamType.INCREASING
        assert classify_owds_two_sided(owds).stream_type is StreamType.INCREASING
