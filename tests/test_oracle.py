import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gammaincc, kv, kve

from canoma import (
    DEFAULT_LINK_SPEC,
    DecodeThresholds,
    LinkSpec,
    OracleUnsupportedError,
    ParameterError,
    ScenarioTable,
    conditional_success_prob,
    gain_thresholds,
    product_gain_ccdf,
    sample_link_gain,
    success_prob,
)
from canoma.oracle import (
    INFEASIBLE,
    _bessel_k_ccdf,
    _ccdf_abs_err,
    _log_kve,
    _mellin_tail,
    _product_ccdf,
)

PAPER_LINK = LinkSpec.from_pairs([(1, 1), (2, 2)])
EXP_LINK = LinkSpec.from_pairs([(1, 1)])
UNIT_THETA = DecodeThresholds()


def bessel_closed_form(x: float) -> float:
    """P(G1*G2 > x) for stages (1,1),(2,2): 2x*K2(2*sqrt(x))."""
    return float(2.0 * x * kv(2, 2.0 * math.sqrt(x)))


def unit_argument(link, x, mpmath):
    """(shapes, y) of ``link``'s stages at working precision, y = x / prod
    theta_k from the stages' float scales, exactly: the product's tail at x
    is the tail at y of a product of unit-scale gammas."""
    stages = LinkSpec.from_pairs(link).stages
    y = mpmath.mpf(x)
    for s in stages:
        y /= mpmath.mpf(s.gamma_scale)
    return [mpmath.mpf(s.gamma_shape) for s in stages], y


def meijer_g_ccdf(link, x, mpmath, cdf=False):
    """P(G1 * ... * GN > x), or P(... <= x) if ``cdf``, at the working
    precision, independent of the oracle's kernels: at ``unit_argument``'s
    y the product's CCDF is G^{N,0}_{1,N+1}(y | 1; m_1..m_N, 0) /
    prod Gamma(m_k), and its CDF G^{N,1}_{1,N+1}(y | 1; m_1..m_N, 0) /
    prod Gamma(m_k)."""
    shapes, y = unit_argument(link, x, mpmath)
    if cdf:
        g = mpmath.meijerg([[1], []], [shapes, [0]], y)
    else:
        g = mpmath.meijerg([[], [1]], [shapes + [0], []], y)
    for m in shapes:
        g /= mpmath.gamma(m)
    return g


def mellin_barnes_tail(link, x, mpmath, cdf=False):
    """``meijer_g_ccdf`` from the Meijer-G function's defining contour
    integral, where its series needs more digits than can be carried
    (y^(1/N) above a few hundred, as at shapes of 1e4 and up):
    (1/pi) int_0^inf Re[y^-s prod Gamma(m_k + s) / Gamma(m_k) / s] dt on
    the line s = c + i t through the real saddle, by mpmath's loggamma and
    Gauss-Legendre rule on pieces of half the peak's width, until the
    integrand is 1e-45 below its peak.  A tail whose Chernoff bound is
    below every float is that bound.  Only the formula is shared with
    the float kernel: not its saddle search, its nodes or its arithmetic."""
    shapes, y = unit_argument(link, x, mpmath)
    log_y = mpmath.log(y)

    def slope(c):
        return sum(mpmath.digamma(m + c) for m in shapes) - log_y - 1 / c

    if cdf:  # the root lies in (-min m, 0)
        edge = min(shapes)
        lo = hi = -edge / 2
        while slope(lo) > 0:
            lo = (lo - edge) / 2
        while slope(hi) < 0:
            hi /= 2
    else:
        hi = mpmath.mpf(1)
        while slope(hi) < 0:
            hi *= 2
        lo = hi / 2
        while slope(lo) > 0:
            lo /= 2
    c = mpmath.findroot(slope, (lo, hi), solver="anderson")
    log_norm = sum(mpmath.loggamma(m) for m in shapes)
    # the tail is below y^-c E[Y^c] (Chernoff); below any float, that bound stands for it
    bound = mpmath.exp(-c * log_y + sum(mpmath.loggamma(m + c) for m in shapes) - log_norm)
    if bound < 1e-320:
        return bound
    width = 1 / mpmath.sqrt(sum(mpmath.psi(1, m + c) for m in shapes) + 1 / c**2)

    def integrand(t):
        s = c + 1j * t
        return mpmath.exp(-s * log_y + sum(mpmath.loggamma(m + s) for m in shapes) - log_norm) / s

    peak = abs(integrand(0))
    cuts, step = [mpmath.mpf(0)], width / 2
    while abs(integrand(cuts[-1])) > peak * mpmath.mpf(10) ** -45:
        cuts.append(cuts[-1] + step)
        step *= 1.05
    value = mpmath.quad(lambda t: mpmath.re(integrand(t)), cuts, method="gauss-legendre")
    return (-value if cdf else value) / mpmath.pi


def reference_tail(link, x, mpmath, cdf=False):
    """The smaller-tail reference: Meijer-G by mpmath's series where it
    converges, and by its contour integral past that."""
    shapes, y = unit_argument(link, x, mpmath)
    if y ** (1 / mpmath.mpf(len(shapes))) <= 200:
        return meijer_g_ccdf(link, x, mpmath, cdf)
    return mellin_barnes_tail(link, x, mpmath, cdf)


def series_integral_ccdf(m: float, x: float, mpmath):
    """P(G1*G2 > x) for two Gamma(m, 1/m) stages at a shape where the
    Meijer-G series does not converge (m ~ 1e5 and up): the integral of
    ccdf(x/g) pdf(g) over the mode +- 16 standard deviations by
    Gauss-Legendre, with the incomplete gamma from its series
    P(a, z) = z^a e^-z 1F1(1; a+1; z) / Gamma(a+1).  Neither scipy nor the
    oracle's kernels take part.  Returns (value, pdf mass outside the
    window)."""
    m, x = mpmath.mpf(m), mpmath.mpf(x)

    def lower(z):
        log_head = m * mpmath.log(z) - z - mpmath.loggamma(m + 1)
        return mpmath.exp(log_head) * mpmath.hyp1f1(1, m + 1, z, maxterms=10**6)

    log_norm = -mpmath.loggamma(m) + m * mpmath.log(m)
    mode, sd = (m - 1) / m, mpmath.sqrt(m) / m
    window = [mode + k * sd for k in (-16, -4, 0, 4, 16)]
    value = mpmath.quad(
        lambda g: (1 - lower(x * m / g)) * mpmath.exp((m - 1) * mpmath.log(g) - g * m + log_norm),
        window,
        method="gauss-legendre",
    )
    return value, 1 - (lower(window[-1] * m) - lower(window[0] * m))


def swapped_order_quadrature(x: float) -> float:
    """Same tail probability, integrating over the first stage instead."""
    # stage 1 is Exp(1); stage 2 squared amplitude is Gamma(2, 1)
    f = lambda g: math.exp(-g) * gammaincc(2.0, x / g)
    val, _ = integrate.quad(f, 0.0, math.inf, epsabs=1e-12, epsrel=1e-12, limit=300)
    return val


def gamma_ccdf(shape, scale, x):
    """P(G > x) for G ~ Gamma(shape, scale): a one-stage link's CCDF."""
    return product_gain_ccdf(LinkSpec.from_pairs([(shape, shape * scale)]), x)


class TestGammaCcdf:
    def test_exponential_point(self):
        assert gamma_ccdf(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-10)

    def test_erlang_two_point(self):
        assert gamma_ccdf(2.0, 1.0, 2.0) == pytest.approx(3.0 * math.exp(-2.0), abs=1e-10)

    def test_full_mass_above_zero(self):
        assert gamma_ccdf(3.7, 0.4, 0.0) == 1.0

    @pytest.mark.parametrize("shape,scale,x", [(0, 1, 1), (1, 0, 1), (1, 1, -0.5)])
    def test_rejects_bad_parameters(self, shape, scale, x):
        # m or omega = 0 fails the stage, x < 0 the CCDF
        with pytest.raises(ParameterError):
            gamma_ccdf(shape, scale, x)


class TestProductGainCcdf:
    def test_zero_is_certain(self):
        assert product_gain_ccdf(PAPER_LINK, 0.0) == 1.0

    def test_single_stage_reduces_to_gamma(self):
        assert product_gain_ccdf(EXP_LINK, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-10)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_three_way_agreement_on_paper_link(self, x):
        quad = product_gain_ccdf(PAPER_LINK, x)
        closed = bessel_closed_form(x)
        direct = swapped_order_quadrature(x)
        assert quad == pytest.approx(closed, abs=1e-6)
        assert quad == pytest.approx(direct, abs=1e-6)
        assert closed == pytest.approx(direct, abs=1e-6)

    def test_monte_carlo_agreement_ten_million(self):
        rng = np.random.Generator(np.random.Philox(41))
        draws = sample_link_gain(PAPER_LINK, rng, size=10_000_000)
        for x in (0.1, 0.5, 1.0, 2.0, 5.0):
            p = product_gain_ccdf(PAPER_LINK, x)
            freq = (draws > x).mean()
            se = math.sqrt(p * (1 - p) / draws.size)
            assert abs(freq - p) <= 4 * se

    def test_non_increasing_and_vanishing(self):
        xs = np.linspace(0.0, 60.0, 60)
        vals = [product_gain_ccdf(PAPER_LINK, float(x)) for x in xs]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 1.0
        assert vals[-1] < 1e-5

    @pytest.mark.parametrize("m", [1e8 + 0.5, 1e12 + 0.5])
    def test_quadrature_finds_the_spike_at_any_shape(self, m):
        # log G1 + log G2 is nearly normal with variance 2/m at these shapes
        spec = LinkSpec.from_pairs([(m, 1)] * 2)
        for d in (-3.0, 0.0, 3.0):
            x = math.exp(d * math.sqrt(2.0 / m))
            normal = 0.5 * math.erfc(d / math.sqrt(2.0))
            assert product_gain_ccdf(spec, x) == pytest.approx(normal, abs=1e-4), d

    @pytest.mark.parametrize("x", [400.0, 1000.0])
    def test_deep_tail_matches_closed_form(self, x):
        exact = bessel_closed_form(x)
        assert abs(product_gain_ccdf(DEFAULT_LINK_SPEC, x) - exact) <= 1e-14 * exact

    def test_overflowing_bessel_term_falls_back_to_quadrature(self):
        # K_2(z) overflows at z = 2 sqrt(1e-320); the Mellin-Barnes rule
        # answers, with the rounding of 1 - P(Y <= x) as its error
        value, abs_err = _product_ccdf(DEFAULT_LINK_SPEC, 1e-320)
        assert value == 1.0
        assert 0.0 < abs_err <= 1e-300

    def test_three_stages_take_the_kernel(self):
        mpmath = pytest.importorskip("mpmath")
        link = ((1, 1), (1, 1), (1, 1))
        spec = LinkSpec.from_pairs(link)
        with mpmath.workdps(40):
            for x in (0.01, 1.0, 30.0):
                value, abs_err = _product_ccdf(spec, x)
                exact = meijer_g_ccdf(link, x, mpmath)
                assert abs(value - exact) <= min(abs_err, 1e-12 * exact), x
                assert product_gain_ccdf(spec, x) == value


class TestLogKve:
    """The trapezoidal log(K_v(z) e^z) against 30-digit mpmath, and against
    scipy's ``kve`` over orders to 999.5 and z from 1e-6 to 1e6."""

    ORDERS = np.array([0.0, 0.5, 1.0, 2.5, 10.0, 40.5, 100.0, 333.3, 999.5])
    ZS = np.logspace(-6.0, 6.0, 49)

    def test_within_1e_13_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        orders = np.array([0.0, 0.3, 0.5, 0.7, 1.0, 1.3, 2.0, 2.5, 10.25, 40.0])
        with mpmath.workdps(30):
            for z in np.logspace(-3.0, math.log10(50.0), 25):
                for v, log_value in zip(orders, _log_kve(orders, float(z))):
                    exact = mpmath.besselk(v, z) * mpmath.exp(z)
                    assert abs(mpmath.exp(log_value) / exact - 1) <= 1e-13, (v, z)

    def test_within_1e_12_of_scipy_wherever_it_is_finite(self):
        for z in self.ZS:
            ref = kve(self.ORDERS, z)
            finite = (ref > 0.0) & (ref < math.inf)
            got = np.exp(_log_kve(self.ORDERS, float(z))[finite])
            assert np.all(np.abs(got / ref[finite] - 1.0) <= 1e-12), z

    @pytest.mark.parametrize("m1", [1, 3])
    def test_bessel_sum_is_nan_exactly_where_a_term_leaves_the_float_range(self, m1):
        # orders |shape2 - k| for k < m1; the sum is nan where kve is 0 or inf
        for shape2 in self.ORDERS[1:]:
            for z in self.ZS:
                x = (z / 2.0) ** 2
                ref = kve(np.abs(shape2 - np.arange(m1)), 2.0 * math.sqrt(x))
                outside = not np.all((ref > 0.0) & (ref < math.inf))
                assert math.isnan(_bessel_k_ccdf(m1, 1.0, shape2, 1.0, x)) == outside, (shape2, z)


class TestMpmathReference:
    """The float CCDF against a 40-digit Meijer-G evaluation, and at huge
    shapes against a 30-digit series integral."""

    XS = np.logspace(-3.0, 3.0, 13)

    @pytest.mark.parametrize(
        "link", [((1, 1), (2, 2)), ((2, 1), (2.5, 1)), ((3, 2), (0.7, 1))]
    )
    def test_closed_form_within_1e_12(self, link):
        mpmath = pytest.importorskip("mpmath")
        spec = LinkSpec.from_pairs(link)
        with mpmath.workdps(40):
            for x in self.XS:
                value, abs_err = _product_ccdf(spec, float(x))
                exact = meijer_g_ccdf(link, x, mpmath)
                assert abs_err == 0.0
                assert abs(value - exact) <= 1e-12 * exact, x

    def test_quadrature_within_its_error_estimate(self):
        mpmath = pytest.importorskip("mpmath")
        link = ((1.5, 1), (2.5, 1))
        spec = LinkSpec.from_pairs(link)
        with mpmath.workdps(40):
            for x in self.XS:
                value, abs_err = _product_ccdf(spec, float(x))
                exact = meijer_g_ccdf(link, x, mpmath)
                assert 0.0 < abs_err <= 1e-11 * exact, x
                assert abs(value - exact) <= abs_err, x

    @pytest.mark.parametrize("m", [1e5 + 0.5, 1e6 + 0.5])
    def test_quadrature_at_huge_shape(self, m):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            exact, outside = series_integral_ccdf(m, 1.0, mpmath)
        assert abs(outside) < 1e-20
        value, abs_err = _product_ccdf(LinkSpec.from_pairs([(m, 1)] * 2), 1.0)
        assert 0.0 < abs_err <= 1e-11 * exact
        assert abs(value - exact) <= abs_err


class TestMellinKernel:
    """The Mellin-Barnes kernel against 40-digit mpmath: the smaller tail
    within 1e-12, relative, and the gap within the reported bound."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(math.log(1e-3), math.log(1e6)).map(math.exp),
                st.floats(math.log(1e-300), math.log(1e300)).map(math.exp),
            ),
            min_size=1,
            max_size=3,
        ),
        st.floats(-4.0, 4.0),
    )
    def test_smaller_tail_within_1e_12_and_its_bound(self, link, spreads):
        mpmath = pytest.importorskip("mpmath")
        stages = LinkSpec.from_pairs(link).stages
        shapes = tuple(s.gamma_shape for s in stages)
        scales = tuple(s.gamma_scale for s in stages)
        # x a few spreads of log Y from its mean, within the float range
        with mpmath.workdps(30):
            mean = sum(mpmath.digamma(m) + mpmath.log(t) for m, t in zip(shapes, scales))
            spread = mpmath.sqrt(sum(mpmath.psi(1, m) for m in shapes))
        x = math.exp(min(max(float(mean + spreads * spread), -690.0), 690.0))
        tail, abs_err, upper = _mellin_tail(shapes, scales, x)
        with mpmath.workdps(40):
            exact = reference_tail(link, x, mpmath, cdf=not upper)
        gap = float(abs(tail - exact))
        assert gap <= abs_err, (tail, exact)
        # below the float range only the bound can be checked
        if exact > 1e-300:
            assert gap <= 1e-12 * exact, (tail, exact)

    def test_the_two_references_agree(self):
        # the two references of the property test, where both converge
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for link, x in (([(100, 1)] * 2, 0.95), ([(30, 1), (50, 2), (3, 1)], 2.0)):
                for cdf in (False, True):
                    series = meijer_g_ccdf(link, x, mpmath, cdf)
                    contour = mellin_barnes_tail(link, x, mpmath, cdf)
                    assert abs(contour / series - 1) < 1e-30

    def test_huge_shape_bound_covers_the_series_integral(self):
        # at this shape the bound must cover cancellation of terms of size m log m
        mpmath = pytest.importorskip("mpmath")
        m, x = 1e6 + 0.5, 0.996
        spec = LinkSpec.from_pairs([(m, 1)] * 2)
        with mpmath.workdps(30):
            exact, outside = series_integral_ccdf(m, x, mpmath)
        assert abs(outside) < 1e-20
        value = product_gain_ccdf(spec, x)
        assert abs(value - exact) <= _ccdf_abs_err(spec, x) <= 1e-11

    def test_bessel_range_exit_is_fast_and_within_its_bound(self):
        # the Bessel-K sum leaves the float range at order 1e4, and the kernel answers
        mpmath = pytest.importorskip("mpmath")
        link = ((2, 2), (1e4, 1))
        spec = LinkSpec.from_pairs(link)
        seconds = []
        for _ in range(3):  # unmemoized, the best of three
            start = time.perf_counter()
            value, abs_err = _product_ccdf.__wrapped__(spec, 1.0)
            seconds.append(time.perf_counter() - start)
        assert min(seconds) < 0.01
        with mpmath.workdps(40):
            exact = meijer_g_ccdf(link, 1.0, mpmath)
        assert abs(value - exact) <= abs_err <= 1e-12

    def test_huge_order_leaves_the_bessel_sum_without_its_grid(self):
        # order 1e12 would need a grid of about 1e8 nodes.  The tail is
        # E[exp(-1/G2)] = exp(-1) (1 - var/2) to O(var^2), var = 1e-12
        assert math.isnan(_bessel_k_ccdf(1, 1.0, 1e12, 1e-12, 1.0))
        value, abs_err = _product_ccdf(LinkSpec.from_pairs([(1, 1), (1e12, 1)]), 1.0)
        assert abs(value - math.exp(-1.0) * (1.0 - 0.5e-12)) <= abs_err <= 1e-13

    @pytest.mark.parametrize("pairs,x", [([(1e6, 1e-300)], 1e300), ([(7.5, 1e-300)], 1.7e308)])
    def test_tail_far_below_the_float_range_is_zero(self, pairs, x):
        # the saddle lies past the search's edge, where the Chernoff bound is below every float
        assert _product_ccdf(LinkSpec.from_pairs(pairs), x) == (0.0, 0.0)

    def test_one_stage_matches_the_incomplete_gamma(self):
        for shape, x in ((1.0, 1.0), (2.0, 2.0), (0.5, 3.0), (40.0, 35.0), (1e-3, 1e-30)):
            assert gamma_ccdf(shape, 1.0, x) == pytest.approx(gammaincc(shape, x), rel=1e-13)


def class_thresholds(
    scheme,
    requests,
    strong=0,
    capacities=(0, 0),
    thresholds=UNIT_THETA,
    alpha=0.2,
):
    """``gain_thresholds`` at total power 10 on the columns of a 10-file
    scenario table, at the class code of a request pair with vehicle
    ``strong`` (0 or 1) the strong one: that class's (a, b) by position."""
    table = ScenarioTable.of(10, capacities)
    a1, a2 = table.attribute_of_cell[np.searchsorted(table.starts, requests, "right")]
    code = 2 * (a1 * len(table.held) + a2) + (strong == 0)
    a, b = gain_thresholds(scheme, 10.0, alpha, thresholds.default, *table.columns())
    return a[code], b[code]


class TestReduceToGainEvent:
    """A class's decode event: ``gain_thresholds`` over the scenario
    table's columns, one class code per request pair and strong vehicle."""

    # vehicle 1's file is in both caches, vehicle 2's in neither
    ONE_HIT = {"requests": (1, 5), "capacities": (2, 2)}

    def test_noma_no_caching(self):
        a, b = class_thresholds("noma", (1, 1))
        assert a == pytest.approx(0.5)
        assert b == pytest.approx(1.0 / 6.0)

    def test_equal_split_marks_weak_infeasible(self):
        assert class_thresholds("noma", (1, 1), alpha=0.5) == (INFEASIBLE, INFEASIBLE)

    def test_oma_both_active(self):
        assert class_thresholds("oma", (1, 1)) == (pytest.approx(0.3), pytest.approx(0.3))

    def test_self_hits_yield_zero_thresholds(self):
        for scheme in ("canoma", "noma", "oma-cache", "oma"):
            assert class_thresholds(scheme, (1, 2), capacities=(2, 2)) == (0.0, 0.0)

    def test_canoma_self_hit_reallocates_power(self):
        assert class_thresholds("canoma", **self.ONE_HIT) == (0.0, pytest.approx(0.1))
        # conventional NOMA keeps both messages on the air
        assert class_thresholds("noma", **self.ONE_HIT) == (0.0, pytest.approx(1.0 / 6.0))
        # cache-aided OMA frees the slot, plain OMA wastes it
        assert class_thresholds("oma-cache", **self.ONE_HIT) == (0.0, pytest.approx(0.1))
        assert class_thresholds("oma", **self.ONE_HIT) == (0.0, pytest.approx(0.3))

    def test_canoma_cross_cache_branches(self):
        # strong (vehicle 1) holds weak's file at alpha=0.4: skips the 0.5 SIC cut
        a, b = class_thresholds("canoma", (9, 3), capacities=(4, 2), alpha=0.4)
        assert a == pytest.approx(0.25)
        assert b == pytest.approx(0.5)
        # weak holds strong's file: interference-free own decode at P_w
        a, b = class_thresholds("canoma", (3, 9), capacities=(2, 4))
        assert a == pytest.approx(0.5)
        assert b == pytest.approx(1.0 / 8.0)

    def test_ordering_maps_vehicle_flags_to_positions(self):
        a, b = class_thresholds("canoma", **self.ONE_HIT, strong=1)
        assert (a, b) == (pytest.approx(0.1), 0.0)

    def test_threshold_enters_every_class(self):
        th = DecodeThresholds(default=0.5)
        # the strong vehicle's own decode needs 0.5 / P_s, its SIC stage
        # and the weak decode 0.5 / (P_w - 0.5 P_s)
        for requests in ((2, 5), (5, 2)):
            a, b = class_thresholds("noma", requests, thresholds=th)
            assert (a, b) == (pytest.approx(0.25), pytest.approx(1.0 / 14.0))


class TestConditionalSuccessProb:
    def test_zero_thresholds_are_certain(self):
        assert conditional_success_prob(0.0, 0.0, (PAPER_LINK, PAPER_LINK)) == (1.0, 1.0, 1.0)

    def test_fixed_ordering_factorises(self):
        p1, p2, pj = conditional_success_prob(0.5, 1.0 / 6.0, (EXP_LINK, EXP_LINK), policy="fixed")
        assert p1 == pytest.approx(math.exp(-0.5), abs=1e-10)
        assert p2 == pytest.approx(math.exp(-1.0 / 6.0), abs=1e-10)
        assert pj == pytest.approx(math.exp(-2.0 / 3.0), abs=1e-10)

    def test_order_statistic_identity_at_equal_thresholds(self):
        g = product_gain_ccdf(PAPER_LINK, 0.4)
        _, _, pj = conditional_success_prob(0.4, 0.4, (PAPER_LINK, PAPER_LINK))
        assert pj == pytest.approx(g * g, abs=1e-12)

    def test_infeasible_component_contributes_zero(self):
        p1, p2, pj = conditional_success_prob(INFEASIBLE, 0.2, (EXP_LINK, EXP_LINK))
        assert p1 == 0.0
        assert pj == 0.0
        assert p2 == pytest.approx(math.exp(-0.4), abs=1e-10)

    def test_by_gain_needs_identical_links(self):
        other = LinkSpec.from_pairs([(2, 1)])
        with pytest.raises(OracleUnsupportedError):
            conditional_success_prob(0.1, 0.1, (EXP_LINK, other))

    def test_matches_sorted_pair_frequencies(self):
        # a million i.i.d. pairs, sorted: empirical joint tail within 4
        # standard errors of the order-statistic formula
        rng = np.random.Generator(np.random.Philox(43))
        x1 = sample_link_gain(PAPER_LINK, rng, size=1_000_000)
        x2 = sample_link_gain(PAPER_LINK, rng, size=1_000_000)
        hi = np.maximum(x1, x2)
        lo = np.minimum(x1, x2)
        a, b = 0.9, 0.3
        p1, p2, pj = conditional_success_prob(a, b, (PAPER_LINK, PAPER_LINK))
        for p, freq in (
            (p1, (hi >= a).mean()),
            (p2, (lo >= b).mean()),
            (pj, ((hi >= a) & (lo >= b)).mean()),
        ):
            se = math.sqrt(p * (1 - p) / x1.size)
            assert abs(freq - p) <= 4 * se


class TestSuccessProb:
    def kwargs(self, **over):
        kw = dict(
            catalog_t=10,
            zeta=0.8,
            capacities=(2, 2),
            total=10.0,
            alpha=0.2,
            link_specs=(PAPER_LINK, PAPER_LINK),
        )
        kw.update(over)
        return kw

    def test_full_cache_saturates_every_scheme(self):
        for scheme in ("canoma", "noma", "oma-cache", "oma"):
            for total in (1.0, 10.0, 100.0):
                res = success_prob(scheme, **self.kwargs(capacities=(10, 10), total=total))
                assert res.p1 == res.p2 == res.p_joint == res.p_marg_product == 1.0

    def test_zero_cache_equates_cache_aided_and_conventional(self):
        a = success_prob("canoma", **self.kwargs(capacities=(0, 0)))
        b = success_prob("noma", **self.kwargs(capacities=(0, 0)))
        assert (a.p1, a.p2, a.p_joint) == (b.p1, b.p2, b.p_joint)
        a = success_prob("oma-cache", **self.kwargs(capacities=(0, 0)))
        b = success_prob("oma", **self.kwargs(capacities=(0, 0)))
        assert (a.p1, a.p2, a.p_joint) == (b.p1, b.p2, b.p_joint)

    def test_monotone_in_cache_size(self):
        vals = [
            success_prob("canoma", **self.kwargs(capacities=(c, c))).p_marg_product
            for c in range(0, 11, 2)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_refuses_a_catalog_that_is_not_an_integer(self):
        # int(2.5) would quietly give the T = 2 value
        with pytest.raises(ParameterError):
            success_prob("canoma", **self.kwargs(catalog_t=2.5))

    def test_monotone_in_catalog_size(self):
        vals = [
            success_prob("canoma", **self.kwargs(catalog_t=t)).p_marg_product
            for t in (10, 20, 50, 100)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_zeta(self):
        vals = [
            success_prob("canoma", **self.kwargs(zeta=z)).p_marg_product
            for z in (0.2, 0.4, 0.8, 1.6, 3.2)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_snr(self):
        vals = [
            success_prob("canoma", **self.kwargs(total=t)).p_marg_product
            for t in (1.0, 3.16, 10.0, 31.6, 100.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_threshold(self):
        vals = [
            success_prob(
                "noma", **self.kwargs(thresholds=DecodeThresholds(default=th))
            ).p_joint
            for th in (0.25, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_weak_vehicle_infeasible_at_equal_split(self):
        res = success_prob("noma", **self.kwargs(capacities=(0, 0), alpha=0.5))
        assert res.p2 == 0.0
        assert res.p_joint == 0.0
        assert res.p_marg_product == 0.0

    def test_fixed_policy_supports_heterogeneous_links(self):
        res = success_prob(
            "noma",
            **self.kwargs(link_specs=(EXP_LINK, PAPER_LINK), policy="fixed"),
        )
        assert 0.0 < res.p_joint < 1.0

    def test_by_gain_rejects_heterogeneous_links(self):
        with pytest.raises(OracleUnsupportedError):
            success_prob("noma", **self.kwargs(link_specs=(EXP_LINK, PAPER_LINK)))

    @pytest.mark.parametrize("capacities", [(2.5, 2), (2, -1), (11, 2), (2, 11)])
    def test_rejects_bad_capacities(self, capacities):
        with pytest.raises(ParameterError):
            success_prob("canoma", **self.kwargs(capacities=capacities))

    @pytest.mark.parametrize(
        "over", [{"capacities": (True, True)}, {"capacities": (2, False)}, {"total": True}]
    )
    def test_rejects_bools(self, over):
        # True would run as 1
        with pytest.raises(ParameterError):
            success_prob("canoma", **self.kwargs(**over))

    def test_numpy_integer_capacities(self):
        res = success_prob("canoma", **self.kwargs(capacities=(np.int64(2), np.int32(5))))
        assert res == success_prob("canoma", **self.kwargs(capacities=(2, 5)))

    def test_abs_err_is_zero_on_closed_form_links(self):
        assert success_prob("canoma", **self.kwargs()).abs_err == 0.0

    def test_abs_err_reports_the_quadrature(self):
        link = LinkSpec.from_pairs([(1.5, 1), (2.5, 1)])
        res = success_prob("canoma", **self.kwargs(link_specs=(link, link)))
        assert 0.0 < res.abs_err < 1e-9

