from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from canoma import SCHEMES, DecodeThresholds, ParameterError, gain_thresholds
from reference import (
    CacheContents,
    classify_scenario,
    decode_noma,
    decode_oma,
    oma_effective_threshold,
    order_users,
    split_power,
)

UNIT_THETA = DecodeThresholds()


def scenario_with(requests=(4, 5), self_hit=(False, False), cross=(False, False)):
    """Two-vehicle scenario with chosen flags.

    ``cross`` is (vehicle 2 holds 1's file, vehicle 1 holds 2's file);
    requests must be distinct for the flags to be independent.
    """
    r1, r2 = requests
    cache1, cache2 = set(), set()
    if self_hit[0]:
        cache1.add(r1)
    if self_hit[1]:
        cache2.add(r2)
    if cross[0]:
        cache2.add(r1)
    if cross[1]:
        cache1.add(r2)
    return classify_scenario(
        requests,
        (
            CacheContents(frozenset(cache1), len(cache1)),
            CacheContents(frozenset(cache2), len(cache2)),
        ),
    )


class TestOrderUsers:
    def test_descending_gain(self):
        assert order_users([2.0, 0.5]) == (0, 1)
        assert order_users([0.5, 2.0]) == (1, 0)

    def test_tie_breaks_by_index(self):
        assert order_users([1.0, 1.0]) == (0, 1)

    def test_fixed_policy_ignores_gains(self):
        assert order_users([0.5, 2.0], policy="fixed") == (0, 1)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ParameterError):
            order_users([1.0], policy="random")


class TestSplitPower:
    def test_two_vehicle_split(self):
        alloc = split_power(10.0, 0.2, 2)
        assert alloc.powers == (2.0, 8.0)

    def test_boundary_alpha(self):
        assert split_power(10.0, 0.5, 2).powers == (5.0, 5.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.7])
    def test_rejects_alpha_outside_open_interval(self, alpha):
        with pytest.raises(ParameterError):
            split_power(10.0, alpha, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_sum_is_exact(self, n):
        alloc = split_power(7.3, 0.31, n)
        assert sum(alloc.powers) == pytest.approx(7.3, abs=0.0)

    def test_ladder_increases_toward_weak_positions(self):
        alloc = split_power(1.0, 0.2, 5)
        assert all(a < b for a, b in zip(alloc.powers, alloc.powers[1:]))


class TestOmaEffectiveThreshold:
    def test_half_share_doubles_the_rate_requirement(self):
        assert oma_effective_threshold(1.0, 0.5) == pytest.approx(3.0)

    def test_full_share_is_identity(self):
        assert oma_effective_threshold(1.0, 1.0) == pytest.approx(1.0)

    def test_theta_three(self):
        assert oma_effective_threshold(3.0, 0.5) == pytest.approx(15.0)

    @pytest.mark.parametrize("share", [0.0, -0.5, 1.5])
    def test_rejects_bad_share(self, share):
        with pytest.raises(ParameterError):
            oma_effective_threshold(1.0, share)


class TestDecodeThresholds:
    def test_default_applies_to_every_file(self):
        # one slice of two at power 10: (1 + 2)^2 - 1 = 8 needs gain 0.8
        th = DecodeThresholds(default=2.0)
        for requests in ((1, 999), (999, 1)):
            out = decode_oma([0.81, 0.79], 10.0, th, scenario_with(requests=requests))
            assert out.ok == (True, False)

    def test_rejects_non_positive(self):
        with pytest.raises(ParameterError):
            DecodeThresholds(default=0.0)
        with pytest.raises(ParameterError):
            DecodeThresholds(default=-1.0)

    @pytest.mark.parametrize("theta", ["1", True, None, float("nan")])
    def test_rejects_a_threshold_that_is_not_a_real(self, theta):
        with pytest.raises(ParameterError, match="positive real"):
            DecodeThresholds(default=theta)


class TestDecodeNoma:
    def alloc(self, total=10.0, alpha=0.2):
        return split_power(total, alpha, 2)

    def test_both_self_hits_bypass_the_channel(self):
        scenario = scenario_with(self_hit=(True, True))
        for gains in ([0.0, 0.0], [1e-9, 1e-9], [5.0, 0.1]):
            assert decode_noma(gains, self.alloc(), UNIT_THETA, scenario).ok == (True, True)

    def test_no_caching_threshold_arithmetic(self):
        # P=10, alpha=0.2: strong needs max(1/6, 1/2), weak needs 1/6
        scenario = scenario_with()
        out = decode_noma([1.0, 1.0], self.alloc(), UNIT_THETA, scenario)
        assert out.ok == (True, True)
        out = decode_noma([0.4, 0.3], self.alloc(), UNIT_THETA, scenario)
        assert out.ok == (False, True)  # strong fails its own decode at 0.4 < 0.5
        out = decode_noma([0.6, 0.1], self.alloc(), UNIT_THETA, scenario)
        assert out.ok == (True, False)  # weak below 1/6

    def test_equal_power_split_starves_the_weak_vehicle(self):
        scenario = scenario_with()
        alloc = self.alloc(alpha=0.5)
        for weak_gain in (0.01, 1.0, 100.0, 1e9):
            out = decode_noma([weak_gain * 2, weak_gain], alloc, UNIT_THETA, scenario)
            assert out.ok[1] is False

    def test_weak_vehicle_cross_cache_branch(self):
        # weak vehicle holds the strong vehicle's file: threshold drops
        # to theta / P_w = 1/8
        scenario = scenario_with(cross=(False, True))
        ok_with = decode_noma([1.0, 0.2], self.alloc(), UNIT_THETA, scenario).ok
        assert ok_with[1] is True  # 8 * 0.2 = 1.6 >= 1
        ok_low = decode_noma([1.0, 0.1], self.alloc(), UNIT_THETA, scenario).ok
        assert ok_low[1] is False  # 8 * 0.1 = 0.8 < 1
        # conventional reception at the same gain also fails: SINR 0.8/1.2
        conventional = decode_noma(
            [1.0, 0.1], self.alloc(), UNIT_THETA, scenario_with(), cache_aided=True
        ).ok
        assert conventional[1] is False

    def test_strong_vehicle_cross_cache_skips_sic(self):
        # alpha=0.4, P=10: SIC stage needs 0.5 but own decode only 0.25
        alloc = self.alloc(alpha=0.4)
        plain = decode_noma([0.3, 0.2], alloc, UNIT_THETA, scenario_with()).ok
        assert plain[0] is False
        cached = decode_noma([0.3, 0.2], alloc, UNIT_THETA, scenario_with(cross=(True, False))).ok
        # strong vehicle is vehicle 1 (larger gain) and holds 2's file
        assert cached[0] is False  # cross flag names vehicle 2 holding 1's file
        cached = decode_noma([0.3, 0.2], alloc, UNIT_THETA, scenario_with(cross=(False, True))).ok
        assert cached[0] is True

    def test_self_hit_reallocates_power(self):
        # vehicle 1 self-served: vehicle 2 gets the full 10, needs 0.1
        scenario = scenario_with(self_hit=(True, False))
        out = decode_noma([1.0, 0.12], self.alloc(), UNIT_THETA, scenario)
        assert out.ok == (True, True)
        # conventional delivery keeps both messages on the air, so
        # vehicle 2 still faces interference: SINR 8*.12/(2*.12+1) < 1
        out = decode_noma([1.0, 0.12], self.alloc(), UNIT_THETA, scenario, cache_aided=False)
        assert out.ok == (True, False)

    def test_fixed_ordering_assigns_roles_by_index(self):
        scenario = scenario_with()
        # vehicle 1 is "strong" even with the smaller gain
        out = decode_noma(
            [0.3, 2.0], self.alloc(), UNIT_THETA, scenario, ordering=(0, 1)
        )
        assert out.ok == (False, True)

    def test_duplicate_requests_decode_as_independent_messages(self):
        empty = CacheContents(frozenset(), 0)
        same = classify_scenario((5, 5), (empty, empty))
        distinct = classify_scenario((5, 6), (empty, empty))
        for gains in ([1.0, 1.0], [0.4, 0.3], [0.1, 0.05]):
            assert (
                decode_noma(gains, self.alloc(), UNIT_THETA, same).ok
                == decode_noma(gains, self.alloc(), UNIT_THETA, distinct).ok
            )


class TestDecodeOma:
    def test_shared_resource_thresholds(self):
        scenario = scenario_with()
        out = decode_oma([0.5, 0.2], 10.0, UNIT_THETA, scenario)
        assert out.ok == (True, False)  # effective threshold 3 -> gain cut 0.3

    def test_self_hit_frees_the_whole_resource(self):
        scenario = scenario_with(self_hit=(True, False))
        out = decode_oma([0.0, 0.15], 10.0, UNIT_THETA, scenario)
        assert out.ok == (True, True)  # 10 * 0.15 >= 1
        # without cache exploitation the slot is wasted: threshold stays 3
        out = decode_oma([0.0, 0.15], 10.0, UNIT_THETA, scenario, cache_exploit=False)
        assert out.ok == (True, False)

    def test_both_self_hits(self):
        scenario = scenario_with(self_hit=(True, True))
        assert decode_oma([0.0, 0.0], 10.0, UNIT_THETA, scenario).ok == (True, True)

    def test_cross_flags_are_ignored(self):
        plain = scenario_with()
        crossed = scenario_with(cross=(True, True))
        for gains in ([0.5, 0.2], [0.1, 0.9]):
            assert (
                decode_oma(gains, 10.0, UNIT_THETA, plain).ok
                == decode_oma(gains, 10.0, UNIT_THETA, crossed).ok
            )


def closed_form_pair(xs, xw, p_s, p_w, th_s, th_w, cross_s, cross_w):
    """Independent re-derivation of the two-vehicle no-self-hit decode."""
    margin = p_w - th_w * p_s
    if cross_s:
        ok_s = xs >= th_s / p_s
    else:
        ok_s = margin > 0 and xs >= max(th_w / margin, th_s / p_s)
    if cross_w:
        ok_w = xw >= th_w / p_w
    else:
        ok_w = margin > 0 and xw >= th_w / margin
    return ok_s, ok_w


def rule_outcome(scheme, gains, total, alpha, thresholds, scenario, ordering):
    """Per-vehicle outcome of the two-vehicle gain-threshold rule."""
    s, w = ordering
    a, b = gain_thresholds(
        scheme,
        total,
        alpha,
        thresholds.default,
        scenario.self_hit[s],
        scenario.self_hit[w],
        scenario.cross_cached(w, s),
        scenario.cross_cached(s, w),
    )
    ok = [False, False]
    ok[s] = bool(gains[s] >= a)
    ok[w] = bool(gains[w] >= b)
    return tuple(ok)


def scalar_outcome(scheme, gains, total, alpha, thresholds, scenario, ordering):
    """Per-vehicle outcome of the SINR-level scalar decoders."""
    if scheme in ("canoma", "noma"):
        return decode_noma(
            list(gains), split_power(total, alpha, 2), thresholds, scenario,
            ordering=ordering, cache_aided=(scheme == "canoma"),
        ).ok
    return decode_oma(
        list(gains), total, thresholds, scenario, cache_exploit=(scheme == "oma-cache")
    ).ok


ULP = Fraction(2) ** -52


def near_boundary(gain, conditions):
    """True when ``gain`` decides some condition p*x >= theta*(q*x + 1)
    by at most 8 ULPs of the condition's magnitude, computed exactly.

    Inside that band the reduced form x >= theta / (p - theta*q) and the
    SINR form may round to different verdicts, cancellation in
    p - theta*q included."""
    x = Fraction(gain)
    for p, q, theta in conditions:
        lhs = Fraction(p) * x
        rhs = Fraction(theta) * (Fraction(q) * x + 1)
        if abs(lhs - rhs) <= 8 * ULP * (lhs + rhs):
            return True
    return False


class TestClosedFormAgreement:
    """The shared gain-threshold rule against an independent closed form
    and against the SINR-level scalar decoders."""

    def test_batch_decode_matches_closed_form_on_random_inputs(self):
        rng = np.random.Generator(np.random.Philox(99))
        n = 100_000
        x1 = rng.exponential(1.0, n)
        x2 = rng.exponential(1.0, n)
        total = 10.0 ** rng.uniform(-0.5, 2.0, n)
        alpha = rng.uniform(0.05, 0.95, n)
        theta = rng.uniform(0.2, 3.0, n)
        c21 = rng.random(n) < 0.5
        c12 = rng.random(n) < 0.5
        strong_first = x1 >= x2
        xs, xw = np.where(strong_first, x1, x2), np.where(strong_first, x2, x1)
        cross_s = np.where(strong_first, c12, c21)
        cross_w = np.where(strong_first, c21, c12)
        ok_s = np.empty(n, dtype=bool)
        ok_w = np.empty(n, dtype=bool)
        for i in range(n):
            p_s = alpha[i] * total[i]
            p_w = total[i] - p_s
            ok_s[i], ok_w[i] = closed_form_pair(
                xs[i], xw[i], p_s, p_w, theta[i], theta[i], cross_s[i], cross_w[i]
            )

        a, b = gain_thresholds("canoma", total, alpha, theta, False, False, cross_s, cross_w)
        np.testing.assert_array_equal(xs >= a, ok_s)
        np.testing.assert_array_equal(xw >= b, ok_w)
        # scalar arguments broadcast to the same rule
        for i in range(0, n, 997):
            a_i, b_i = gain_thresholds(
                "canoma", total[i], alpha[i], theta[i], False, False, cross_s[i], cross_w[i]
            )
            assert (bool(xs[i] >= a_i), bool(xw[i] >= b_i)) == (ok_s[i], ok_w[i])

    def test_scalar_decode_matches_batch(self):
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(3000):
            x = rng.exponential(1.0, 2)
            total = float(10.0 ** rng.uniform(-0.5, 2.0))
            alpha = float(rng.uniform(0.05, 0.95))
            hits = tuple(rng.random(2) < 0.3)
            cross = tuple(rng.random(2) < 0.5)
            thresholds = DecodeThresholds(float(rng.uniform(0.2, 3.0)))
            scenario = scenario_with(self_hit=hits, cross=cross)
            ordering = order_users(x)
            for scheme in SCHEMES:
                args = (scheme, x, total, alpha, thresholds, scenario, ordering)
                assert rule_outcome(*args) == scalar_outcome(*args), args

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(
        gains=st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)),
        total=st.floats(1e-2, 1e3),
        alpha=st.floats(0.01, 0.99),
        theta=st.floats(1e-3, 1e2),
        hits=st.tuples(st.booleans(), st.booleans()),
        cross=st.tuples(st.booleans(), st.booleans()),
        ordering=st.sampled_from([(0, 1), (1, 0)]),
        scheme=st.sampled_from(SCHEMES),
    )
    def test_rule_matches_scalar_decoder_property(
        self, gains, total, alpha, theta, hits, cross, ordering, scheme
    ):
        """Property: ``gain >= threshold`` from the rule equals the SINR-level
        decoder for random gains, flags, threshold, alpha, total power,
        ordering and scheme.

        The only draws excluded are those whose gain lies within 8 ULPs of
        a decode boundary (see :func:`near_boundary`), where the two
        algebraically equal forms may round differently."""
        p_s = alpha * total
        p_w = total - p_s
        conditions = [(p_w, p_s, theta)]  # SIC stage, plain weak decode
        conditions += [(p, 0.0, theta) for p in (p_s, p_w, total)]  # interference-free
        conditions += [(total, 0.0, oma_effective_threshold(theta, share)) for share in (0.5, 1.0)]
        assume(not any(near_boundary(g, conditions) for g in gains))
        scenario = scenario_with(self_hit=hits, cross=cross)
        args = (scheme, gains, total, alpha, DecodeThresholds(theta), scenario, ordering)
        assert rule_outcome(*args) == scalar_outcome(*args)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ParameterError):
            gain_thresholds("tdma", 10.0, 0.2, 1.0, False, False, False, False)


class TestDecodeInvariants:
    def random_case(self, rng, n):
        gains = rng.exponential(1.0, n).tolist()
        total = float(10.0 ** rng.uniform(-0.5, 2.0))
        alpha = float(rng.uniform(0.05, 0.45))
        requests = rng.integers(1, 8, size=n)
        capacities = rng.integers(0, 8, size=n)
        caches = tuple(
            CacheContents(frozenset(range(1, int(c) + 1)), int(c)) for c in capacities
        )
        scenario = classify_scenario(tuple(int(r) for r in requests), caches)
        return gains, split_power(total, alpha, n), scenario, caches

    def test_zero_cache_reduction(self):
        # empty caches: cache-aided and conventional decode identically
        rng = np.random.Generator(np.random.Philox(21))
        for _ in range(400):
            n = int(rng.integers(2, 5))
            gains = rng.exponential(1.0, n).tolist()
            alloc = split_power(float(rng.uniform(1, 50)), float(rng.uniform(0.05, 0.45)), n)
            empty = tuple(CacheContents(frozenset(), 0) for _ in range(n))
            scenario = classify_scenario(tuple(rng.integers(1, 9, size=n)), empty)
            aided = decode_noma(gains, alloc, UNIT_THETA, scenario, cache_aided=True)
            plain = decode_noma(gains, alloc, UNIT_THETA, scenario, cache_aided=False)
            assert aided.ok == plain.ok

    def test_full_cross_cache_reduction(self):
        # everyone holds everyone else's file (but not their own): each
        # decode is interference-free at its own position power
        rng = np.random.Generator(np.random.Philox(22))
        for _ in range(400):
            n = int(rng.integers(2, 5))
            gains = rng.exponential(1.0, n).tolist()
            alloc = split_power(float(rng.uniform(1, 50)), float(rng.uniform(0.05, 0.45)), n)
            requests = tuple(int(r) for r in rng.integers(1, 20, size=n))
            caches = tuple(
                CacheContents(frozenset(requests[:i] + requests[i + 1 :]), n)
                for i in range(n)
            )
            scenario = classify_scenario(requests, caches)
            if any(scenario.self_hit):  # duplicate request slipped in
                continue
            out = decode_noma(gains, alloc, UNIT_THETA, scenario)
            ordering = order_users(gains)
            for pos, vehicle in enumerate(ordering):
                expected = alloc.powers[pos] * gains[vehicle] >= 1.0
                assert out.ok[vehicle] == expected

    def test_per_vehicle_gain_monotonicity_under_fixed_ordering(self):
        rng = np.random.Generator(np.random.Philox(23))
        for _ in range(300):
            gains, alloc, scenario, _ = self.random_case(rng, 2)
            fixed = (0, 1)
            before = decode_noma(gains, alloc, UNIT_THETA, scenario, ordering=fixed)
            i = int(rng.integers(0, 2))
            bumped = list(gains)
            bumped[i] *= float(1.0 + rng.uniform(0.1, 4.0))
            after = decode_noma(bumped, alloc, UNIT_THETA, scenario, ordering=fixed)
            assert after.ok[i] >= before.ok[i]

    def test_joint_gain_monotonicity_under_by_gain_ordering(self):
        rng = np.random.Generator(np.random.Philox(24))
        for _ in range(300):
            gains, alloc, scenario, _ = self.random_case(rng, 2)
            before = decode_noma(gains, alloc, UNIT_THETA, scenario)
            bumped = list(gains)
            i = int(rng.integers(0, 2))
            bumped[i] *= float(1.0 + rng.uniform(0.1, 4.0))
            after = decode_noma(bumped, alloc, UNIT_THETA, scenario)
            assert all(after.ok) >= all(before.ok)

    def test_adding_a_cached_file_never_hurts(self):
        rng = np.random.Generator(np.random.Philox(25))
        for _ in range(300):
            n = int(rng.integers(2, 4))
            gains, alloc, scenario, caches = self.random_case(rng, n)
            grown = list(caches)
            v = int(rng.integers(0, n))
            new_file = int(rng.integers(1, 10))
            grown[v] = CacheContents(
                frozenset(set(caches[v].files) | {new_file}), caches[v].capacity + 1
            )
            richer = classify_scenario(scenario.requests, tuple(grown))
            before = decode_noma(gains, alloc, UNIT_THETA, scenario)
            after = decode_noma(gains, alloc, UNIT_THETA, richer)
            assert all(a >= b for a, b in zip(after.ok, before.ok))
            before_oma = decode_oma(gains, alloc.total, UNIT_THETA, scenario)
            after_oma = decode_oma(gains, alloc.total, UNIT_THETA, richer)
            assert all(a >= b for a, b in zip(after_oma.ok, before_oma.ok))

    def test_power_scaling_never_hurts(self):
        rng = np.random.Generator(np.random.Philox(26))
        for _ in range(300):
            n = int(rng.integers(2, 4))
            gains, alloc, scenario, _ = self.random_case(rng, n)
            bigger = split_power(alloc.total * float(rng.uniform(1.5, 10.0)), alloc.alpha, n)
            for cache_aided in (True, False):
                before = decode_noma(gains, alloc, UNIT_THETA, scenario, cache_aided=cache_aided)
                after = decode_noma(gains, bigger, UNIT_THETA, scenario, cache_aided=cache_aided)
                assert all(a >= b for a, b in zip(after.ok, before.ok))
            before = decode_oma(gains, alloc.total, UNIT_THETA, scenario)
            after = decode_oma(gains, bigger.total, UNIT_THETA, scenario)
            assert all(a >= b for a, b in zip(after.ok, before.ok))

    def test_self_hit_always_succeeds(self):
        rng = np.random.Generator(np.random.Philox(27))
        for _ in range(200):
            n = int(rng.integers(2, 5))
            gains, alloc, scenario, _ = self.random_case(rng, n)
            for cache_aided in (True, False):
                out = decode_noma(gains, alloc, UNIT_THETA, scenario, cache_aided=cache_aided)
                for i in range(n):
                    if scenario.self_hit[i]:
                        assert out.ok[i]
