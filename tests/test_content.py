import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoma import ParameterError, ScenarioTable, zipf_cdf_at
import canoma.content as content
from canoma.content import _HEAD_FILES as HEAD
from canoma.oracle import _class_weights
from reference import (
    CacheContents,
    PopularityProfile,
    classify_scenario,
    place_cache,
    request_from_uniform,
    sample_request,
    zipf_profile,
)


def make_rng(seed=1):
    return np.random.Generator(np.random.Philox(seed))


def masses(cdf):
    """Per-file request probabilities from the CDF at files 1..T."""
    return np.diff(cdf, prepend=0.0)


def library_zeta(zeta, convention):
    """The library's zeta for the reference's ``convention``: the library
    takes the reciprocal one, so a direct exponent s is its zeta = 1/s."""
    return zeta if convention == "reciprocal" else 1.0 / zeta


class TestZipfProfile:
    """The Zipf popularity that ``zipf_cdf_at`` reads, and the checks of its
    catalog and zeta (``content._zipf_exponent``)."""

    def test_harmonic_case(self):
        cdf = zipf_cdf_at(3, 1.0, [1, 2, 3])
        np.testing.assert_allclose(masses(cdf), [6 / 11, 3 / 11, 2 / 11], rtol=1e-14)

    def test_uniform_limit_for_large_zeta(self):
        np.testing.assert_allclose(masses(zipf_cdf_at(4, 1e9, [1, 2, 3, 4])), [0.25] * 4, atol=1e-6)

    def test_concentration_limit_for_small_zeta(self):
        assert zipf_cdf_at(100, 1e-3, [1])[0] > 0.999

    def test_direct_convention_uses_plain_exponent(self):
        # the textbook exponent 2 is zeta = 1/2
        cdf = zipf_cdf_at(3, library_zeta(2.0, "direct"), [1, 2, 3])
        np.testing.assert_allclose(masses(cdf), [36 / 49, 9 / 49, 4 / 49], rtol=1e-14)

    @pytest.mark.parametrize("t,zeta", [(0, 1.0), (3, 0.0), (3, -1.0), (3, math.nan)])
    def test_rejects_bad_parameters(self, t, zeta):
        with pytest.raises(ParameterError):
            zipf_cdf_at(t, zeta, [1])

    @pytest.mark.parametrize(
        "t,zeta", [(2.5, 0.8), (2.0, 0.8), (True, 0.8), ("3", 0.8), (3, True), (3, "0.8")]
    )
    def test_refuses_what_validate_refuses(self, t, zeta):
        # a float or bool catalog must not run as int(t) files, nor a bool zeta as 1.0
        with pytest.raises(ParameterError):
            zipf_cdf_at(t, zeta, [1])

    def test_accepts_numpy_numbers(self):
        want = zipf_cdf_at(3, 1.0, [1, 2, 3])
        assert np.array_equal(zipf_cdf_at(np.int64(3), np.float64(1.0), [1, 2, 3]), want)
        assert np.array_equal(zipf_cdf_at(np.uint16(3), 1.0, [1, 2, 3]), want)

    @pytest.mark.parametrize("zeta", [0.01, 0.5, 0.8, 1.0, 2.0])
    @pytest.mark.parametrize("convention", ["reciprocal", "direct"])
    def test_bits_equal_the_plain_expression(self, zeta, convention):
        # the in-place build must not move a bit of the head's CDF.  Up to
        # T0 files the normaliser is the plain sum; above, the files past
        # T0 are summed by the Euler-Maclaurin tail
        exponent = 1.0 / zeta if convention == "reciprocal" else zeta
        for t in (HEAD, 50_000):
            head = np.arange(1, HEAD + 1, dtype=float) ** (-exponent)
            total = head.sum() if t == HEAD else content._zipf_total(head, exponent, t)
            want = np.cumsum(head / total)
            if t == HEAD:
                want[-1] = 1.0
            cdf = zipf_cdf_at(t, library_zeta(zeta, convention), np.arange(1, HEAD + 1))
            assert np.array_equal(cdf, want)

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(min_value=1, max_value=10_000),
        zeta=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_normalised_and_non_increasing(self, t, zeta):
        # the tests' T-long reference profile
        profile = zipf_profile(t, zeta)
        assert abs(profile.probs.sum() - 1.0) <= 1e-12
        assert np.all(np.diff(profile.probs) <= 0)


def exact_sum(mpmath, exponent, k):
    """The sum of j^-s over files 1..k at the working precision: the
    harmonic number at s = 1, else Hurwitz zeta(s, 1) - zeta(s, k + 1)."""
    s = mpmath.mpf(exponent)
    return mpmath.harmonic(k) if s == 1 else mpmath.zeta(s, 1) - mpmath.zeta(s, k + 1)


def running_sum_tol(k, value):
    """What the running sum over files 1..k may be off by: 2e-15 for the
    normaliser, plus one rounding per addition, the division and the power."""
    return 2e-15 + (k + 1) * 2.0**-52 * value


class TestZipfCdfAt:
    """``zipf_cdf_at`` against 40-digit sums, and bit for bit against the
    T-long profile up to T0 files."""

    @pytest.mark.parametrize(
        "s", [1e-9, 0.1, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.25, 2.5, 10.0, 1000.0]
    )
    @pytest.mark.parametrize("convention", ["reciprocal", "direct"])
    def test_matches_exact_sums(self, s, convention):
        mpmath = pytest.importorskip("mpmath")
        zeta = library_zeta(1.0 / s if convention == "reciprocal" else s, convention)
        for t in (HEAD, HEAD + 1, 10**5, 10**6, 10**9):
            _, exponent = content._zipf_exponent(t, zeta)
            head = np.arange(1, min(t, HEAD) + 1, dtype=float) ** -exponent
            with mpmath.workdps(40):
                total = exact_sum(mpmath, exponent, t)
                assert abs(content._zipf_total(head, exponent, t) - total) <= 2e-15 * total
                files = [1, 2, 10, 500, HEAD - 1, HEAD, HEAD + 1, HEAD + 2, t // 2, t - 1, t]
                files = sorted({k for k in files if 1 <= k <= t})
                for k, value in zip(files, zipf_cdf_at(t, zeta, files)):
                    exact = exact_sum(mpmath, exponent, k) / total
                    # files 1..T0 are the profile's running sum
                    tol = running_sum_tol(k, float(exact)) if k <= HEAD else 2e-15
                    assert abs(value - exact) <= tol, (t, k, float(value - exact))

    @pytest.mark.parametrize("t", [1, 2, 7, 500, HEAD])
    @pytest.mark.parametrize("zeta", [0.01, 0.8, 2.0])
    @pytest.mark.parametrize("convention", ["reciprocal", "direct"])
    def test_bits_equal_the_profile_up_to_the_head(self, t, zeta, convention):
        profile = zipf_profile(t, zeta, convention)
        zeta = library_zeta(zeta, convention)
        assert np.array_equal(zipf_cdf_at(t, zeta, np.arange(1, t + 1)), profile.cdf)
        for capacities in [(0, 0), (min(2, t), min(5, t)), (t, t // 3), (t // 2, t - 1)]:
            table = ScenarioTable.of(t, capacities)
            want = profile.cdf[table.starts - 2]
            assert np.array_equal(table.cdf_at_starts(zeta), want)

    def test_large_catalog_agrees_with_the_profile(self):
        # the T-long profile's own running sum drifts from the exact CDF
        # (by 1.4e-14 at file 5e5 here), so it bounds the agreement
        t = 10**6
        table = ScenarioTable.of(t, (500_000, 500))
        k = table.starts - 1
        assert k.tolist() == [500, 500_000]
        cdf = table.cdf_at_starts(0.8)
        long = zipf_profile(t, 0.8).cdf[k - 1]
        assert np.all(np.abs(cdf - long) <= running_sum_tol(k, long))
        assert np.all(np.diff(cdf) > 0)

    @pytest.mark.parametrize(
        "zeta,convention",
        # at s = 4.05 the head's running sum ends 3.5e-14 above the sum
        # over files 1..T0 + 1 at T = 1e6, so the tail must be floored
        [(1e-300, "reciprocal"), (0.8, "reciprocal"), (1.0, "reciprocal"),
         (1e300, "reciprocal"), (4.05, "direct")],
    )
    def test_ascending_and_within_0_1_at_any_catalog(self, zeta, convention):
        zeta = library_zeta(zeta, convention)
        for t in (HEAD + 1, 10**6, 10**9, 2**53):
            files = sorted({1, 500, HEAD, HEAD + 1, (t + HEAD) // 2, t - 1, t})
            cdf = zipf_cdf_at(t, zeta, files)
            assert np.all(np.isfinite(cdf)) and np.all(np.diff(cdf) >= 0)
            assert 0.0 < cdf[0] and cdf[-1] == 1.0

    @pytest.mark.parametrize("files", [[0], [11], [-1, 3]])
    def test_rejects_files_outside_the_catalog(self, files):
        with pytest.raises(ParameterError):
            zipf_cdf_at(10, 0.8, files)

    @pytest.mark.parametrize("catalog", [0, 2**53 + 1, 10**400, True, 2.0])
    def test_rejects_bad_catalogs(self, catalog):
        with pytest.raises(ParameterError, match="catalog size"):
            zipf_cdf_at(catalog, 0.8, [1])


def unique_built_table(files, capacities):
    """``ScenarioTable.of``'s arrays as ``np.unique`` builds them."""
    c1, c2 = capacities
    starts = np.unique([c1 + 1, c2 + 1])
    starts = starts[(starts >= 2) & (starts <= files)]
    first = np.concatenate(([1], starts))
    regions, attribute_of_cell = np.unique((first <= c1) + 2 * (first <= c2), return_inverse=True)
    return starts, attribute_of_cell, np.column_stack((regions & 1 == 1, regions & 2 == 2))


@pytest.mark.parametrize("files", [1, 2, 3, 7, 2**53])
def test_scenario_table_arrays_equal_the_unique_construction(files):
    caps = sorted(c for c in {0, 1, 2, 3, 6, 7, files - 1, files} if 0 <= c <= files)
    for capacities in itertools.product(caps, repeat=2):
        table = ScenarioTable.of(files, capacities)
        for got, want in zip(
            (table.starts, table.attribute_of_cell, table.held),
            unique_built_table(files, capacities),
        ):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


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


def class_probabilities(t, zeta, capacities, policy="by-gain"):
    """The scenario table of a t-file catalog and the probability of each
    of its class codes, as the oracle weights them."""
    table = ScenarioTable.of(t, capacities)
    return table, _class_weights(table, table.cdf_at_starts(zeta), policy)


def attribute_of(table, files):
    """The table's attribute index of each requested file: the attribute
    of the cell holding it, a cell starting at each change point."""
    return table.attribute_of_cell[np.searchsorted(table.starts, files, "right")]


def vehicle_flags(table):
    """By class code: whether each vehicle's own cache holds its file."""
    pair = np.arange(table.size) // 2
    a1, a2 = np.divmod(pair, len(table.held))
    return table.held[a1, 0], table.held[a2, 1]


class TestScenarioDistribution:
    """The class table's probabilities and flags: what the oracle weights
    and the engine classifies by."""

    def test_full_caches_always_self_hit(self):
        table, weight = class_probabilities(4, 0.7, (4, 4))
        hit1, hit2 = vehicle_flags(table)
        assert weight[hit1 & hit2].sum() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_two_files_no_cache(self):
        table, weight = class_probabilities(2, 1e12, (0, 0))
        assert table.held.tolist() == [[False, False]]
        assert weight.tolist() == [pytest.approx(0.5, abs=1e-12)] * 2

    def test_top_one_hit_mass(self):
        table, weight = class_probabilities(3, 1.0, (1, 1))
        hit1, _ = vehicle_flags(table)
        assert weight[hit1].sum() == pytest.approx(6 / 11, abs=1e-14)

    @pytest.mark.parametrize("c1,c2", [(0, 0), (2, 2), (2, 5), (7, 3)])
    def test_probabilities_sum_to_one(self, c1, c2):
        for policy in ("by-gain", "fixed"):
            _, weight = class_probabilities(9, 0.8, (c1, c2), policy=policy)
            assert abs(weight.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("t", [1, 2, 7])
    @pytest.mark.parametrize("convention", ["reciprocal", "direct"])
    def test_matches_pairwise_enumeration(self, t, convention):
        # every request pair classified by set membership, and its
        # probability summed per class code
        profile = zipf_profile(t, 0.8, convention)
        for (c1, c2), policy in itertools.product(
            [(0, 0), (0, t), (2, 5), (5, 2), (t, t)], ["by-gain", "fixed"]
        ):
            if max(c1, c2) > t:
                continue
            table, weight = class_probabilities(
                t, library_zeta(0.8, convention), (c1, c2), policy
            )
            columns = np.array(table.columns())
            caches = (place_cache(profile, c1), place_cache(profile, c2))
            expected = np.zeros(table.size)
            for r1, r2 in itertools.product(range(1, t + 1), repeat=2):
                scenario = classify_scenario((r1, r2), caches)
                a1, a2 = attribute_of(table, [r1, r2])
                p = profile.probs[r1 - 1] * profile.probs[r2 - 1]
                # s = 1: vehicle 1 is the strong one
                for s, (strong, weak) in ((1, (0, 1)), (0, (1, 0))):
                    code = 2 * (a1 * len(table.held) + a2) + s
                    want = (
                        scenario.self_hit[strong],
                        scenario.self_hit[weak],
                        scenario.cross_cached(weak, strong),  # strong holds weak's file
                        scenario.cross_cached(strong, weak),  # weak holds strong's file
                    )
                    assert tuple(columns[:, code]) == want, (c1, c2, r1, r2, s)
                    expected[code] += p * (0.5 if policy == "by-gain" else s)
            np.testing.assert_allclose(weight, expected, rtol=0, atol=1e-15)

    def test_matches_empirical_frequencies(self):
        # a million sampled trials, counted per attribute pair, within 4
        # standard errors everywhere; asymmetric capacities exercise the
        # cross flags without self-hits
        n = 1_000_000
        profile = zipf_profile(6, 0.8)
        caches = (place_cache(profile, 2), place_cache(profile, 3))
        table, weight = class_probabilities(6, 0.8, (2, 3))
        rng = make_rng(17)
        r1 = sample_request(profile, rng, size=n)
        r2 = sample_request(profile, rng, size=n)
        a1, a2 = attribute_of(table, r1), attribute_of(table, r2)

        # spot-check the table's flags of sampled requests against the classifier
        for i in range(0, n, n // 500):
            scenario = classify_scenario((r1[i], r2[i]), caches)
            assert tuple(table.held[a1[i]]) == (scenario.self_hit[0], scenario.cross[0][1])
            assert tuple(table.held[a2[i]]) == (scenario.cross[1][0], scenario.self_hit[1])

        attributes = len(table.held)
        counts = np.bincount(a1 * attributes + a2, minlength=attributes**2)
        # a pair's probability is the sum over which vehicle is strong
        for pair, p in enumerate(weight.reshape(-1, 2).sum(axis=1)):
            freq = counts[pair] / n
            se = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(freq - p) <= 4 * se, (pair, freq, p)
