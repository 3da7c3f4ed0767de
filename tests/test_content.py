import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoma import (
    ParameterError,
    PopularityProfile,
    ScenarioClass,
    request_from_uniform,
    scenario_distribution,
    zipf_profile,
)
from reference import CacheContents, classify_scenario, place_cache, sample_request


def make_rng(seed=1):
    return np.random.Generator(np.random.Philox(seed))


class TestZipfProfile:
    def test_harmonic_case(self):
        profile = zipf_profile(3, 1.0)
        np.testing.assert_allclose(profile.probs, [6 / 11, 3 / 11, 2 / 11], rtol=1e-14)

    def test_uniform_limit_for_large_zeta(self):
        profile = zipf_profile(4, 1e9)
        np.testing.assert_allclose(profile.probs, [0.25] * 4, atol=1e-6)

    def test_concentration_limit_for_small_zeta(self):
        profile = zipf_profile(100, 1e-3)
        assert profile.probs[0] > 0.999

    def test_direct_convention_uses_plain_exponent(self):
        profile = zipf_profile(3, 2.0, convention="direct")
        np.testing.assert_allclose(profile.probs, [36 / 49, 9 / 49, 4 / 49], rtol=1e-14)

    @pytest.mark.parametrize("t,zeta", [(0, 1.0), (3, 0.0), (3, -1.0), (3, math.nan)])
    def test_rejects_bad_parameters(self, t, zeta):
        with pytest.raises(ParameterError):
            zipf_profile(t, zeta)

    @pytest.mark.parametrize(
        "t,zeta", [(2.5, 0.8), (2.0, 0.8), (True, 0.8), ("3", 0.8), (3, True), (3, "0.8")]
    )
    def test_refuses_what_validate_refuses(self, t, zeta):
        # a float or bool catalog must not run as int(t) files, nor a bool zeta as 1.0
        with pytest.raises(ParameterError):
            zipf_profile(t, zeta)

    def test_accepts_numpy_numbers(self):
        assert zipf_profile(np.int64(3), np.float64(1.0)) == zipf_profile(3, 1.0)
        assert zipf_profile(np.uint16(3), 1.0) == zipf_profile(3, 1.0)

    def test_rejects_unknown_convention(self):
        with pytest.raises(ParameterError):
            zipf_profile(3, 1.0, convention="zipfian")

    @pytest.mark.parametrize("zeta", [0.01, 0.5, 0.8, 1.0, 2.0])
    @pytest.mark.parametrize("convention", ["reciprocal", "direct"])
    def test_bits_equal_the_plain_expression(self, zeta, convention):
        # the in-place build must not move a bit of the profile or its CDF:
        # engine class codes compare uniforms with CDF values
        exponent = 1.0 / zeta if convention == "reciprocal" else zeta
        weights = np.arange(1, 50_001, dtype=float) ** (-exponent)
        plain = weights / weights.sum()
        profile = zipf_profile(50_000, zeta, convention)
        assert np.array_equal(profile.probs, plain)
        assert np.array_equal(profile.cdf[:-1], np.cumsum(plain)[:-1])

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(min_value=1, max_value=10_000),
        zeta=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_normalised_and_non_increasing(self, t, zeta):
        profile = zipf_profile(t, zeta)
        assert abs(profile.probs.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(profile.probs) <= 0)


class TestProfileValidation:
    def test_rejects_increasing_entries(self):
        with pytest.raises(ParameterError):
            PopularityProfile([0.2, 0.8])

    def test_rejects_unnormalised(self):
        with pytest.raises(ParameterError):
            PopularityProfile([0.5, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            PopularityProfile([1.2, -0.2])


class TestPlaceCache:
    def test_top_two(self):
        cache = place_cache(zipf_profile(5, 1.0), 2)
        assert cache.files == {1, 2}

    def test_empty(self):
        assert place_cache(zipf_profile(5, 1.0), 0).files == frozenset()

    def test_full(self):
        assert place_cache(zipf_profile(4, 1.0), 4).files == {1, 2, 3, 4}

    def test_rejects_capacity_beyond_catalog(self):
        with pytest.raises(ParameterError):
            place_cache(zipf_profile(3, 1.0), 4)


class TestRequestSampling:
    def test_degenerate_profile_always_returns_first_file(self):
        profile = PopularityProfile([1.0, 0.0, 0.0])
        draws = sample_request(profile, make_rng(), size=1000)
        assert np.all(draws == 1)

    def test_inverse_cdf_bin_edges(self):
        uniform = PopularityProfile([0.25] * 4)
        assert request_from_uniform(uniform, 0.6) == 3
        # boundary values belong to the lower file
        assert request_from_uniform(uniform, 0.5) == 2
        assert request_from_uniform(uniform, 0.0) == 1

    def test_empirical_frequency_matches_profile(self):
        profile = zipf_profile(3, 1.0)
        draws = sample_request(profile, make_rng(11), size=1_000_000)
        assert abs((draws == 1).mean() - 6 / 11) < 0.0015

    def test_sampled_index_monotone_in_concentration(self):
        # smaller zeta concentrates the profile, so shared uniforms map
        # to indices that can only move down
        u = make_rng(3).random(20_000)
        zetas = [0.2, 0.4, 0.8, 1.6, 3.2]
        requests = [request_from_uniform(zipf_profile(40, z), u) for z in zetas]
        for lo, hi in zip(requests, requests[1:]):
            assert np.all(lo <= hi)

    def test_sampled_index_monotone_in_catalog_size(self):
        u = make_rng(4).random(20_000)
        small = request_from_uniform(zipf_profile(10, 0.8), u)
        large = request_from_uniform(zipf_profile(50, 0.8), u)
        assert np.all(small <= large)

    def test_hit_flags_monotone_under_shared_uniforms(self):
        u = make_rng(5).random(20_000)
        # increasing C can only add self-hits
        r = request_from_uniform(zipf_profile(20, 0.8), u)
        for c in range(0, 20):
            assert np.all((r <= c) <= (r <= c + 1))
        # decreasing T can only add self-hits at fixed C
        r_small = request_from_uniform(zipf_profile(10, 0.8), u)
        r_large = request_from_uniform(zipf_profile(50, 0.8), u)
        assert np.all((r_large <= 3) <= (r_small <= 3))


class TestClassifyScenario:
    def test_set_membership_flags(self):
        scenario = classify_scenario(
            (3, 7),
            (
                CacheContents(files=frozenset({1, 2, 3}), capacity=3),
                CacheContents(files=frozenset({1, 2}), capacity=2),
            ),
        )
        assert scenario.self_hit == (True, False)
        assert scenario.cross_cached(0, 1) is False  # vehicle 2 lacks file 3
        assert scenario.cross_cached(1, 0) is False  # vehicle 1 lacks file 7

    def test_coinciding_requests(self):
        empty = CacheContents(files=frozenset(), capacity=0)
        scenario = classify_scenario((5, 5), (empty, empty))
        assert scenario.self_hit == (False, False)

    def test_empty_caches_have_no_hits(self):
        empty = CacheContents(files=frozenset(), capacity=0)
        scenario = classify_scenario((2, 2), (empty, empty))
        assert scenario.self_hit == (False, False)
        assert not scenario.cross_cached(0, 1)
        assert not scenario.cross_cached(1, 0)

    def test_cross_cache_without_self_hit(self):
        scenario = classify_scenario(
            (5, 9),
            (
                CacheContents(files=frozenset({9}), capacity=1),
                CacheContents(files=frozenset({5}), capacity=1),
            ),
        )
        assert scenario.self_hit == (False, False)
        assert scenario.cross_cached(0, 1)  # vehicle 2 holds file 5
        assert scenario.cross_cached(1, 0)  # vehicle 1 holds file 9

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ParameterError):
            classify_scenario((1, 2), (CacheContents(frozenset(), 0),))


class TestScenarioDistribution:
    def test_full_caches_always_self_hit(self):
        profile = zipf_profile(4, 0.7)
        dist = scenario_distribution(profile, (4, 4))
        both = sum(p for cls, p in dist.items() if cls.self_hit_1 and cls.self_hit_2)
        assert both == pytest.approx(1.0, abs=1e-12)

    def test_uniform_two_files_no_cache(self):
        profile = zipf_profile(2, 1e12)
        dist = scenario_distribution(profile, (0, 0))
        assert dist == {ScenarioClass(False, False, False, False): pytest.approx(1.0, abs=1e-12)}

    def test_top_one_hit_mass(self):
        profile = zipf_profile(3, 1.0)
        dist = scenario_distribution(profile, (1, 1))
        hit1 = sum(p for cls, p in dist.items() if cls.self_hit_1)
        assert hit1 == pytest.approx(6 / 11, abs=1e-14)

    @pytest.mark.parametrize("c1,c2", [(0, 0), (2, 2), (2, 5), (7, 3)])
    def test_probabilities_sum_to_one(self, c1, c2):
        profile = zipf_profile(9, 0.8)
        dist = scenario_distribution(profile, (c1, c2))
        assert abs(sum(dist.values()) - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [1, 2, 7])
    @pytest.mark.parametrize("convention", ["reciprocal", "direct"])
    def test_matches_pairwise_enumeration(self, t, convention):
        # every request pair classified by set membership, summed per class
        profile = zipf_profile(t, 0.8, convention)
        for c1, c2 in [(0, 0), (0, t), (2, 5), (5, 2), (t, t)]:
            if max(c1, c2) > t:
                continue
            caches = (place_cache(profile, c1), place_cache(profile, c2))
            expected: dict = {}
            for r1 in range(1, t + 1):
                for r2 in range(1, t + 1):
                    cls = classify_scenario((r1, r2), caches).two_vehicle_class()
                    p = profile.probs[r1 - 1] * profile.probs[r2 - 1]
                    expected[cls] = expected.get(cls, 0.0) + p
            dist = scenario_distribution(profile, (c1, c2))
            assert dist.keys() == expected.keys(), (c1, c2)
            for cls, p in expected.items():
                assert abs(dist[cls] - p) <= 1e-15, (c1, c2, cls)

    def test_matches_empirical_frequencies(self):
        # a million sampled trials, counted per class, within 4 standard
        # errors everywhere; asymmetric capacities exercise the cross
        # flags without self-hits
        n = 1_000_000
        profile = zipf_profile(6, 0.8)
        caches = (place_cache(profile, 2), place_cache(profile, 3))
        dist = scenario_distribution(profile, (2, 3))
        rng = make_rng(17)
        r1 = sample_request(profile, rng, size=n)
        r2 = sample_request(profile, rng, size=n)

        # spot-check the vectorised flag computation against the classifier
        for i in range(0, n, n // 500):
            scenario = classify_scenario((r1[i], r2[i]), caches)
            cls = scenario.two_vehicle_class()
            assert cls.self_hit_1 == (r1[i] <= 2)
            assert cls.self_hit_2 == (r2[i] <= 3)
            assert cls.cross_2_holds_1 == (r1[i] <= 3)
            assert cls.cross_1_holds_2 == (r2[i] <= 2)

        keys = np.stack([r1 <= 2, r2 <= 3, r1 <= 3, r2 <= 2], axis=1)
        packed = keys @ (1 << np.arange(4))
        counts = np.bincount(packed, minlength=16)
        for cls, p in dist.items():
            code = (
                cls.self_hit_1
                + 2 * cls.self_hit_2
                + 4 * cls.cross_2_holds_1
                + 8 * cls.cross_1_holds_2
            )
            freq = counts[code] / n
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) <= 4 * se, (cls, freq, p)
