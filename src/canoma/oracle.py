"""Semi-analytic success probabilities for the two-vehicle system.

The oracle reads the same scenario-class table as the Monte Carlo
engine, :class:`~canoma.content.ScenarioTable`.  Each class's decode
event reduces to a minimum-gain threshold on each ordered vehicle (or
an infeasible marker) by the access layer's one rule,
:func:`~canoma.access.gain_thresholds`, applied once to the whole table.
A class's probability is the product of its two attributes' request
masses, read from the popularity CDF at the table's change points, and
of the share of trials in which its vehicle is the strong one.
Combining those weights with the cascaded-fading CCDF gives the success
probabilities without simulation.  The CCDF is a finite Bessel-K sum
when a stage has an integer shape and adaptive quadrature otherwise;
the quadrature's error estimate is carried into every result.  The
engine counts sampled trials per class instead, so agreement between
the two checks the sampling; the table and the rule are pinned by the
request-pair enumeration and the SINR-level scalar decoders in the
tests.

Under by-gain ordering the two links must be i.i.d.; the joint event
then follows from the order statistics of two draws:
P(max >= a, min >= b) = G(b)^2 - (G(b) - G(a))^2 for a >= b.

Support is deliberately narrow: two vehicles and at most two fading
stages per link.  Per-file thresholds are covered, since each class
carries its threshold level.  Everything else is left to the Monte
Carlo path.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .access import INFEASIBLE, DecodeThresholds, gain_thresholds
from .channel import LinkSpec
from .content import ScenarioTable
from .engine import TrialConfig
from .errors import OracleUnsupportedError, ParameterError

__all__ = [
    "INFEASIBLE",
    "OracleResult",
    "gamma_ccdf",
    "product_gain_ccdf",
    "conditional_success_prob",
    "success_prob",
]

# CCDF values kept per process; one success_prob call needs a few dozen,
# and new thresholds (every new SNR) evict the oldest
_CCDF_MEMO_SIZE = 1024

# an integer shape of at most this many terms takes the Bessel-K sum
_MAX_BESSEL_TERMS = 1000

# relative tolerance of the quadrature, the only CCDF path that has an error
_QUAD_EPSREL = 1e-12

# the Bessel-K integrand is summed until it falls this far (in log) below its peak
_KVE_LOG_DROP = 60.0

# log of the largest finite float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# above this shape the gamma log-density takes its saddle-point form
_SADDLE_SHAPE = 100.0

# by ordering policy, the share of a class's trials in which vehicle 2
# (s = 0) and vehicle 1 (s = 1) is the strong one
_STRONG_SHARES = {"by-gain": (0.5, 0.5), "fixed": (0.0, 1.0)}


@dataclass(frozen=True)
class OracleResult:
    """Total success probabilities: per-position marginals, joint, and
    the product of the marginals (the figure-of-merit of the study).

    ``abs_err`` bounds, to first order, how far quadrature error can move
    each of the four probabilities; it is 0 when every CCDF used has a
    closed form.
    """

    p1: float
    p2: float
    p_joint: float
    p_marg_product: float
    abs_err: float = 0.0

    def value(self, metric: str) -> float:
        if metric == "joint":
            return self.p_joint
        if metric == "marg-product":
            return self.p_marg_product
        raise ParameterError(f"unknown metric {metric!r}")


def gamma_ccdf(shape: float, scale: float, x: float) -> float:
    """P(G > x) for G ~ Gamma(shape, scale), via the regularized upper
    incomplete gamma function."""
    if not (math.isfinite(shape) and shape > 0):
        raise ParameterError(f"gamma shape must be positive, got {shape!r}")
    if not (math.isfinite(scale) and scale > 0):
        raise ParameterError(f"gamma scale must be positive, got {scale!r}")
    if math.isnan(x) or x < 0:
        raise ParameterError(f"x must be >= 0, got {x!r}")
    if math.isinf(x):
        return 0.0
    from scipy.special import gammaincc  # only one-stage links need it

    return float(gammaincc(shape, x / scale))


def _gamma_logpdf(g: float, shape: float, scale: float) -> float:
    """log of the Gamma(shape, scale) density at g > 0.

    The plain form subtracts terms of size shape * log(shape), so at
    shape 1e5-1e6 its relative error near the mode is ~1e-10.  Above
    ``_SADDLE_SHAPE`` the saddle-point form of Loader ("Fast and accurate
    computation of binomial probabilities", 2000) is used, k = shape - 1:
    log pdf = -bd0(k, g/scale) - log(2 pi k)/2 - stirlerr(k) - log(scale).
    """
    if shape <= _SADDLE_SHAPE:
        from scipy.special import gammaln, xlogy  # only the quadrature needs them

        return xlogy(shape - 1.0, g) - g / scale - gammaln(shape) - shape * math.log(scale)
    k = shape - 1.0
    # Stirling's series for log k! - ((k + 1/2) log k - k + log(2 pi)/2)
    stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * k * k)) / (k * k)) / (k * k)) / k
    return -_bd0(k, g / scale) - 0.5 * math.log(2.0 * math.pi * k) - stirlerr - math.log(scale)


def _bd0(k: float, y: float) -> float:
    """k log(k/y) + y - k without cancellation near y = k."""
    if not abs(k - y) < 0.1 * (k + y):
        return k * math.log(k / y) + y - k
    v = (k - y) / (k + y)
    total, term, j = (k - y) * v, 2.0 * k * v, 1
    while True:
        term *= v * v
        step = total + term / (2 * j + 1)
        if step == total:
            return total
        total, j = step, j + 1


def _log_kve(orders, z: float) -> np.ndarray:
    """log(K_v(z) e^z) at every order v >= 0 of ``orders`` for one 0 < z < inf.

    The trapezoidal rule on K_v(z) e^z = int_0^inf exp(-2 z sinh(t/2)^2)
    cosh(v t) dt, whose integrand is even and analytic in a strip, so the
    rule converges geometrically (Trefethen and Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Review 2014).  The
    largest order's integrand peaks near t = asinh(v/z) with width
    sigma = (z^2 + v^2)^(-1/4); the step is min(0.1, sigma/3), and the
    nodes run from 0 to where that integrand is e^-60 below the peak.  A
    smaller order peaks earlier and falls faster, so the same nodes serve
    it.  Summed in log space, so no value overflows.
    """
    v = np.asarray(orders, dtype=float)
    v_max = float(v.max())
    kappa = math.hypot(z, v_max)  # z cosh(peak), the curvature at the peak
    h = min(0.1, kappa**-0.5 / 3.0)
    # past the peak the log integrand falls by at least kappa (cosh d - 1)
    # at distance d, so it has fallen by the drop y at d = acosh(1 + y / kappa)
    y = _KVE_LOG_DROP / kappa
    end = math.asinh(v_max / z) + math.log1p(y + math.sqrt(y * (y + 2.0)))
    t = h * np.arange(math.ceil(end / h) + 1)
    vt = v[:, None] * t
    # log cosh(v t) - 2 z sinh(t/2)^2; sqrt(z) keeps the square in range
    # at z near the float maximum
    terms = vt + np.log1p(np.exp(-2.0 * vt)) - math.log(2.0)
    terms -= 2.0 * (math.sqrt(z) * np.sinh(0.5 * t)) ** 2
    terms[:, 0] -= math.log(2.0)  # the node at 0 takes half weight
    top = terms.max(axis=1)
    return top + np.log(np.exp(terms - top[:, None]).sum(axis=1)) + math.log(h)


def _bessel_k_ccdf(m1: int, scale1: float, shape2: float, scale2: float, x: float) -> float:
    """P(G1 * G2 > x) for G1 ~ Gamma(m1, scale1) with integer m1 and
    G2 ~ Gamma(shape2, scale2):

        sum_{k<m1} 2 (z/2)^(shape2+k) K_{shape2-k}(z) / (k! Gamma(shape2)),

    with z = 2 sqrt(x / (scale1 scale2)).  The terms are summed in log
    space from ``_log_kve``, so a deep tail does not underflow before the
    end; nan when z or a term's K_v(z) e^z leaves the float range.
    """
    z = 2.0 * math.sqrt(x / scale1 / scale2)
    k = np.arange(m1)
    orders = np.abs(shape2 - k)  # K_{-v} = K_v
    # K_v(z) e^z grows with v, so the largest order is the first to leave
    # the float range; testing it alone spares the other orders' nodes then
    if not (0.0 < z < math.inf and _log_kve(orders.max(keepdims=True), z)[0] < _LOG_FLOAT_MAX):
        return math.nan
    log_scaled = _log_kve(orders, z)
    log_factorials = [math.lgamma(i + 1.0) for i in range(m1)]
    log_terms = (shape2 + k) * math.log(z / 2.0) + log_scaled - log_factorials
    top = log_terms.max()
    log_sum = top + math.log(np.exp(log_terms - top).sum())
    return math.exp(log_sum + math.log(2.0) - math.lgamma(shape2) - z)


def _quadrature_ccdf(spec: LinkSpec, x: float) -> tuple[float, float]:
    """(P(G1 * G2 > x), error estimate) as the integral of
    ccdf_1(x/g) * pdf_2(g) over g > 0."""
    from scipy import integrate  # only this path needs it
    from scipy.special import gammaincc

    s1, s2 = spec.stages

    def integrand(g: float) -> float:
        if g <= 0.0:
            return 0.0
        tail = gammaincc(s1.gamma_shape, (x / g) / s1.gamma_scale)
        return float(tail * math.exp(_gamma_logpdf(g, s2.gamma_shape, s2.gamma_scale)))

    # at a large shape the pdf is a spike of width sqrt(shape) * scale
    # about its mode, which quad's transformed ranges can step over; cuts
    # at the mode and ten widths either side pin it at any shape
    mode = max(s2.gamma_shape - 1.0, 0.0) * s2.gamma_scale
    width = 10.0 * math.sqrt(s2.gamma_shape) * s2.gamma_scale
    cuts = sorted({0.0, max(mode - width, 0.0), mode, mode + width, math.inf})
    val = err = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        part, part_err = integrate.quad(
            integrand, lo, hi, epsabs=0.0, epsrel=_QUAD_EPSREL, limit=300
        )
        val += part
        err += part_err
    return min(max(val, 0.0), 1.0), err


@lru_cache(maxsize=_CCDF_MEMO_SIZE)
def _product_ccdf_two_stage(spec: LinkSpec, x: float) -> tuple[float, float]:
    """(P(G1 * G2 > x), absolute error bound) of a two-stage link.

    The product is symmetric, so the integer-shaped stage with the
    fewest terms leads the Bessel-K sum; quadrature covers the rest.
    """
    lead, other = sorted(spec.stages, key=lambda s: (not float(s.m).is_integer(), s.m))
    if float(lead.m).is_integer() and lead.m <= _MAX_BESSEL_TERMS:
        value = _bessel_k_ccdf(
            int(lead.m), lead.gamma_scale, other.gamma_shape, other.gamma_scale, x
        )
        if not math.isnan(value):
            return min(value, 1.0), 0.0
    return _quadrature_ccdf(spec, x)


def product_gain_ccdf(spec: LinkSpec, x: float) -> float:
    """P(link squared gain > x) for one- or two-stage cascades."""
    if math.isnan(x) or x < 0:
        raise ParameterError(f"x must be >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if len(spec.stages) == 1:
        stage = spec.stages[0]
        return gamma_ccdf(stage.gamma_shape, stage.gamma_scale, x)
    if len(spec.stages) == 2:
        return _product_ccdf_two_stage(spec, float(x))[0]
    raise OracleUnsupportedError(
        f"{len(spec.stages)}-stage cascades are outside oracle support; "
        "use the Monte Carlo engine"
    )


def _ccdf_abs_err(spec: LinkSpec, x: float) -> float:
    """The error bound of ``product_gain_ccdf(spec, x)``: a memo hit
    after that call, and 0 wherever no quadrature runs."""
    if len(spec.stages) != 2 or x == 0.0 or math.isinf(x):
        return 0.0
    return _product_ccdf_two_stage(spec, float(x))[1]


def conditional_success_prob(
    a: float,
    b: float,
    specs: tuple[LinkSpec, LinkSpec],
    policy: str = "by-gain",
) -> tuple[float, float, float]:
    """(p_strong, p_weak, p_joint) of "strong gain >= a and weak gain >= b"
    under fading.

    Fixed ordering factorises over the two independent links; by-gain
    ordering requires i.i.d. links and uses the order statistics of two
    draws.  Infeasible components contribute probability 0.
    """
    if policy == "fixed":
        g1 = product_gain_ccdf(specs[0], a)
        g2 = product_gain_ccdf(specs[1], b)
        return (g1, g2, g1 * g2)
    if policy != "by-gain":
        raise ParameterError(f"unknown ordering policy {policy!r}")
    if specs[0] != specs[1]:
        raise OracleUnsupportedError(
            "by-gain ordering requires identically distributed links; "
            "use fixed ordering or the Monte Carlo engine"
        )
    ga = product_gain_ccdf(specs[0], a)
    gb = product_gain_ccdf(specs[0], b)
    p_strong = 2.0 * ga - ga * ga
    p_weak = gb * gb
    if a >= b:
        p_joint = gb * gb - (gb - ga) ** 2
    else:
        p_joint = gb * gb
    return (p_strong, p_weak, p_joint)


def _class_weights(table: ScenarioTable, cdf: np.ndarray, policy: str):
    """The probability of every class code of ``table``, given the
    popularity CDF at its change points (``table.cdf_at_starts``): the
    product of its two attributes' request masses and of its
    strong-vehicle share.

    A cell's mass is the difference of the CDF at its two ends, and an
    attribute's mass is the sum over its cells.
    """
    cells = np.diff(np.concatenate(([0.0], cdf, [1.0])))
    mass = np.bincount(table.attribute_of_cell, weights=cells, minlength=len(table.theta))
    # index (a1, a2, s) of the product is class code 2 * (a1 * A + a2) + s
    return np.multiply.outer(np.outer(mass, mass), _STRONG_SHARES[policy]).ravel()


def success_prob(
    scheme: str,
    *,
    catalog_t: int,
    zeta: float,
    capacities: tuple[int, int],
    total: float,
    alpha: float,
    thresholds: DecodeThresholds | None = None,
    link_specs: tuple[LinkSpec, LinkSpec],
    policy: str = "by-gain",
    zipf_convention: str = "reciprocal",
    self_hit_power: str = "reallocate",
) -> OracleResult:
    """Total success probabilities by exact scenario enumeration.

    The keywords describe one :class:`~canoma.engine.TrialConfig` and are
    checked as its ``validate`` checks them, so a bad value raises the
    engine's ``ParameterError`` naming the same field: ``catalog_t`` sets
    ``files``, ``capacities`` (any two-item sequence) sets ``cache``,
    ``total`` sets ``rho``, ``policy`` sets ``ordering``, and ``scheme``,
    ``zeta``, ``alpha``, ``thresholds`` (None for the default),
    ``link_specs``, ``zipf_convention`` and ``self_hit_power`` set the
    fields of their own names.

    Every class of the scenario table is reduced to gain thresholds and
    weighted by its probability (``_class_weights``).  The marginal
    product multiplies the *total* marginals; with caching the two
    outcomes are correlated, so it differs from the joint probability
    and both are reported.
    """
    config = TrialConfig(
        scheme=scheme,
        files=catalog_t,
        zeta=zeta,
        cache=tuple(capacities),
        rho=total,
        alpha=alpha,
        thresholds=DecodeThresholds() if thresholds is None else thresholds,
        link_specs=link_specs,
        ordering=policy,
        zipf_convention=zipf_convention,
        self_hit_power=self_hit_power,
    )
    config.validate()
    return _success_prob(config, scheme)


def _success_prob(config: TrialConfig, scheme: str) -> OracleResult:
    """``success_prob`` of a validated ``config`` under ``scheme``, read
    from the scenario table the config already holds."""
    table = config.table
    specs, policy = config.link_specs, config.ordering
    a, b = gain_thresholds(
        scheme, config.rho, config.alpha, *table.columns(), config.self_hit_power
    )
    cdf = table.cdf_at_starts(config.zeta, config.zipf_convention)
    weight = _class_weights(table, cdf, policy)
    codes = np.flatnonzero(weight)
    weight = weight[codes]
    events = list(zip(a[codes].tolist(), b[codes].tolist()))
    terms = weight[:, None] * [conditional_success_prob(*e, specs, policy) for e in events]
    # the class weights sum to 1 only within accumulation error;
    # normalising keeps certain events at exactly 1
    p1, p2, p_joint = (math.fsum(column) / math.fsum(weight) for column in terms.T)
    ccdf_err = max(_ccdf_abs_err(spec, x) for e in events for spec, x in zip(specs, e))
    # every probability above is a weighted mean of polynomials in the
    # CCDF values whose gradients have 1-norm <= 2, so p1, p2 and p_joint
    # move by at most 2 * ccdf_err and their product by 4 * ccdf_err
    return OracleResult(
        p1=p1, p2=p2, p_joint=p_joint, p_marg_product=p1 * p2, abs_err=4.0 * ccdf_err
    )
