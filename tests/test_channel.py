import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaincc, gammainccinv

from canoma import (
    LinkSpec,
    NakagamiStage,
    ParameterError,
    product_gain_ccdf,
    sample_link_gain,
)
from canoma.channel import _sample_stage
from reference import mean_link_gain

PAPER_LINK = LinkSpec.from_pairs([(1, 1), (2, 2)])


def make_rng(seed=12345):
    return np.random.Generator(np.random.Philox(seed))


def engine_rng(seed):
    """A generator of the engine's kind: SFC64 keyed by a SeedSequence."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


def draw_gamma(shape, scale, rng, size):
    """Gamma(shape, scale) variates of the stage that has them; a size of
    None draws one variate into a 0-d array."""
    stage = NakagamiStage(shape, shape * scale)
    assert stage.gamma_scale == scale
    return _sample_stage(stage, rng, np.empty(() if size is None else size))


@pytest.mark.parametrize("m,omega", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0)])
def test_stage_rejects_bad_parameters(m, omega):
    with pytest.raises(ParameterError):
        NakagamiStage(m, omega)


def test_link_spec_rejects_empty():
    with pytest.raises(ParameterError):
        LinkSpec(stages=())


# omega / m is the gamma scale every draw of the stage is multiplied by
@pytest.mark.parametrize("m,omega", [(1e300, 1e-300), (1e-300, 1e300)])
def test_stage_rejects_a_gamma_scale_outside_the_float_range(m, omega):
    with pytest.raises(ParameterError, match="omega/m must be positive and finite"):
        NakagamiStage(m, omega)
    # so no link that success_prob or the engine is given can hold it
    with pytest.raises(ParameterError, match="omega/m"):
        LinkSpec.from_pairs([(1, 1), (m, omega)])


def test_a_gain_past_the_float_range_is_inf_without_a_warning():
    spec = LinkSpec.from_pairs([(1, 1e300), (2, 1e300)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = sample_link_gain(spec, make_rng(), size=10_000)
    assert np.isinf(draws).any() and not np.isnan(draws).any()


def test_gamma_unit_mean():
    draws = draw_gamma(1.0, 1.0, make_rng(), size=1_000_000)
    assert abs(draws.mean() - 1.0) < 0.005


def test_gamma_mean_shape_scale():
    draws = draw_gamma(2.0, 2.0, make_rng(), size=1_000_000)
    assert abs(draws.mean() - 4.0) < 0.02


def test_gamma_exponential_tail():
    # shape 1 is the exponential distribution: P(X > 1) = exp(-1)
    draws = draw_gamma(1.0, 1.0, make_rng(), size=1_000_000)
    assert abs((draws > 1.0).mean() - math.exp(-1.0)) < 0.0015


def test_single_stage_link_is_exponential():
    spec = LinkSpec.from_pairs([(1, 1)])
    draws = sample_link_gain(spec, make_rng(), size=1_000_000)
    assert abs((draws > 1.0).mean() - math.exp(-1.0)) < 0.0015


def test_paper_link_mean_is_product_of_spreads():
    draws = sample_link_gain(PAPER_LINK, make_rng(), size=1_000_000)
    assert abs(draws.mean() - 2.0) < 0.02


def test_scale_family_is_exact_under_common_variates():
    # power-of-two factor: scaling commutes with rounding, so the
    # common-variate coupling is bit-exact
    spec = LinkSpec.from_pairs([(1.7, 0.9)])
    scaled = LinkSpec.from_pairs([(1.7, 0.9 * 4.0)])
    a = sample_link_gain(spec, make_rng(99), size=1000)
    b = sample_link_gain(scaled, make_rng(99), size=1000)
    np.testing.assert_array_equal(b, a * 4.0)


@pytest.mark.parametrize(
    "pairs,expected",
    [([(1, 1)], 1.0), ([(1, 1), (2, 2)], 2.0), ([(2, 3), (2, 3)], 9.0)],
)
def test_mean_link_gain(pairs, expected):
    assert mean_link_gain(LinkSpec.from_pairs(pairs)) == pytest.approx(expected, abs=1e-15)


def test_sampling_is_deterministic_per_seed():
    a = sample_link_gain(PAPER_LINK, make_rng(2024), size=4096)
    b = sample_link_gain(PAPER_LINK, make_rng(2024), size=4096)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("pairs", [[(1, 1)], [(1, 1), (2, 2)], [(0.6, 2.5), (3.0, 0.8), (1.5, 1.1)]])
@pytest.mark.parametrize("size", [1, 8193, 20_000])
def test_out_path_is_bit_equal_to_the_allocating_path(pairs, size):
    spec = LinkSpec.from_pairs(pairs)
    rng_a, rng_b = make_rng(31), make_rng(31)
    want = sample_link_gain(spec, rng_a, size=size)
    out = np.full(size, np.nan)
    assert sample_link_gain(spec, rng_b, out=out) is out
    assert out.tobytes() == want.tobytes()
    # and the generator is left where one full draw leaves it
    assert rng_a.random() == rng_b.random()


def test_out_path_refuses_a_non_contiguous_array():
    with pytest.raises(ValueError):
        sample_link_gain(PAPER_LINK, make_rng(), out=np.empty((4, 2))[:, 0])


@pytest.mark.parametrize("pairs", [[(1, 1)], [(1, 1), (2, 2)], [(0.6, 2.5), (3.0, 0.8)]])
def test_empirical_mean_within_three_standard_errors(pairs):
    spec = LinkSpec.from_pairs(pairs)
    draws = sample_link_gain(spec, make_rng(5), size=200_000)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - mean_link_gain(spec)) <= 3.0 * se


def test_empirical_cdf_matches_quadrature_ccdf():
    draws = sample_link_gain(PAPER_LINK, make_rng(7), size=1_000_000)
    levels = np.arange(1, 21) / 21.0
    points = np.quantile(draws, levels)
    ks = max(
        abs(level - (1.0 - product_gain_ccdf(PAPER_LINK, x)))
        for level, x in zip(levels, points)
    )
    assert ks < 0.005


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("size", [None, 1, 8193, 20_000])
def test_integer_shape_is_a_sum_of_full_exponential_draws(m, size):
    rng_a, rng_b = engine_rng(17), engine_rng(17)
    got = draw_gamma(float(m), 0.75, rng_a, size=size)
    want = sum(rng_b.standard_exponential(size) for _ in range(m)) * 0.75
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # and the generator is left where m full exponential draws leave it
    assert repr(rng_a.bit_generator.state) == repr(rng_b.bit_generator.state)


@pytest.mark.parametrize("shape", [0.5, 2.5, 4.0, 7.0])
def test_other_shapes_are_standard_gamma_draws(shape):
    rng_a, rng_b = engine_rng(18), engine_rng(18)
    got = draw_gamma(shape, 0.75, rng_a, size=20_000)
    assert got.tobytes() == (rng_b.standard_gamma(shape, 20_000) * 0.75).tobytes()
    assert repr(rng_a.bit_generator.state) == repr(rng_b.bit_generator.state)


@pytest.mark.parametrize("shape", [1.0, 2.0, 3.0, 2.5, 4.0])
def test_exceedance_matches_the_gamma_tail_down_to_1e_5(shape):
    # 1e6 draws of Gamma(m, 1/m), the stage of spread 1; at each tail
    # probability p the count above the exact quantile is binomial(n, p)
    n, scale = 1_000_000, 1.0 / shape
    draws = draw_gamma(shape, scale, engine_rng(int(shape * 10)), size=n)
    for p in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        level = gammainccinv(shape, p) * scale
        assert gammaincc(shape, level / scale) == pytest.approx(p, rel=1e-9)
        z = (np.count_nonzero(draws > level) - n * p) / math.sqrt(n * p * (1.0 - p))
        assert abs(z) <= 4.0, (shape, p, z)
