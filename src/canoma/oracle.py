"""Semi-analytic success probabilities for the two-vehicle system.

The oracle reads the same scenario-class table as the Monte Carlo
engine, :class:`~canoma.content.ScenarioTable`.  Each class's decode
event reduces to a minimum gain c / rho on each ordered vehicle (or an
infeasible marker) by the access layer's one rule, c / x <= rho, which
:func:`~canoma.access.gain_thresholds` applies once to the whole table.
The oracle's gains are real numbers, never the inf of an overflowed
float, so the infeasible marker inf has probability 0 here, as it has
in the engine, which fails it for every gain.
A class's probability is the product of its two attributes' request
masses, read from the popularity CDF at the table's change points, and
of the share of trials in which its vehicle is the strong one.
Combining those weights with the cascaded-fading CCDF gives the success
probabilities without simulation.  The CCDF is a finite Bessel-K sum
when a two-stage link has an integer shape, and otherwise one
Mellin-Barnes contour integral for any number of stages, whose error
bound is carried into every result.  Both need numpy only.  The engine
counts sampled trials per class instead, so agreement between the two
checks the sampling; the table and the rule are pinned by the
request-pair enumeration and the SINR-level scalar decoders in the
tests.

Under by-gain ordering the two links must be i.i.d.; the joint event
then follows from the order statistics of two draws:
P(max >= a, min >= b) = G(b)^2 - (G(b) - G(a))^2 for a >= b.

Support is deliberately narrow: two vehicles and one SINR threshold for
every file.  Everything else is left to the Monte Carlo path.
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
    "product_gain_ccdf",
    "conditional_success_prob",
    "success_prob",
]

# CCDF values kept per process; one success_prob call needs a few dozen,
# and new thresholds (every new SNR) evict the oldest
_CCDF_MEMO_SIZE = 1024

# an integer shape of at most this many terms takes the Bessel-K sum
_MAX_BESSEL_TERMS = 1000

# the Bessel-K integrand is summed until it falls this far (in log) below its peak
_KVE_LOG_DROP = 60.0

# the Bessel-K grid (orders x nodes) holds at most this many values; a
# larger one, at huge orders, leaves the link to the Mellin-Barnes kernel
_MAX_KVE_CELLS = 2**20

# log of the largest finite float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

_EPS = sys.float_info.epsilon

# log of the smallest positive float
_LOG_TINY = math.log(sys.float_info.min * _EPS)

# Stirling's series of log Gamma(z) - ((z - 1/2) log z - z + log(2 pi)/2),
# B_2k / (2k (2k - 1)) z^(1 - 2k) for k = 1..8 (DLMF 5.11.1), and the
# coefficients of its first two derivatives, B_2k / 2k and B_2k; summed at
# Re z >= _STIRLING_FROM, where the next term is below 1e-19
_STIRLING = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400
)
_STIRLING_D1 = tuple(b * (2 * k + 1) for k, b in enumerate(_STIRLING))
_STIRLING_D2 = tuple(b * (2 * k + 1) * (2 * k + 2) for k, b in enumerate(_STIRLING))
_STIRLING_FROM = 16.0

# (1 + w) log(1 + w) - w = w^2 sum_{k>=2} (-w)^(k-2) / (k (k - 1)), to 1e-17 at |w| <= 1/8
_XLOG_SERIES = tuple((-1.0) ** k / (k * (k - 1)) for k in range(2, 20))

# the saddle search's step cap: Newton's method needs a handful, and the
# halving steps of its safeguard cross the float range in about 2000
_NEWTON_STEPS = 2100

# the Mellin-Barnes rule: first step in tau, the drop (in log) below the
# peak term at which nodes stop, the relative agreement of two successive
# sums at which halving stops, and a cap on the nodes of one value
_FIRST_STEP = 0.0625
_MELLIN_LOG_DROP = 50.0
_MELLIN_RTOL = 1e-14
_MAX_MELLIN_NODES = 2**17

# by ordering policy, the share of a class's trials in which vehicle 2
# (s = 0) and vehicle 1 (s = 1) is the strong one
_STRONG_SHARES = {"by-gain": (0.5, 0.5), "fixed": (0.0, 1.0)}


@dataclass(frozen=True)
class OracleResult:
    """Total success probabilities: per-position marginals, joint, and
    the product of the marginals (the figure-of-merit of the study).

    ``abs_err`` bounds, to first order, how far the CCDF error bounds can
    move each of the four probabilities; it is 0 when every CCDF used is
    a Bessel-K sum.
    """

    p1: float
    p2: float
    p_joint: float
    p_marg_product: float
    abs_err: float = 0.0


def _horner(coefs, y):
    """sum_k coefs[k] y^k, for a float or an array ``y``."""
    total = coefs[-1]
    for coef in coefs[-2::-1]:
        total = total * y + coef
    return total


def _shift(m: float, c: float) -> int:
    """The steps of Gamma(z + 1) = z Gamma(z) that take m + s to
    Re >= ``_STIRLING_FROM`` for every Re s >= min(c, 0)."""
    return max(0, math.ceil(_STIRLING_FROM - m - min(c, 0.0)))


def _log_gamma_ratio(m: float, s: np.ndarray, n: int) -> np.ndarray:
    """log Gamma(m + s) - log Gamma(m) - s log m, modulo 2 pi i, at
    complex ``s`` with Re(m + n + s) >= ``_STIRLING_FROM``.

    With M = m + n and w = s / M, Stirling's series gives
    M ((1 + w) log(1 + w) - w) - log(1 + w) / 2 + S(M + s) - S(M).  The
    first term is a power series where |w| <= 1/8, so huge shapes lose
    nothing to cancellation; the n recurrence steps add
    s log(M / m) - sum_{j<n} log(1 + s / (m + j)).
    """
    big = m + n
    w = s / big
    near = np.abs(w) <= 0.125
    xlog = np.empty_like(w)
    xlog[near] = _horner(_XLOG_SERIES, w[near]) * w[near] ** 2
    far = w[~near]
    xlog[~near] = (1.0 + far) * np.log1p(far) - far
    inv = 1.0 / (big + s)
    out = big * xlog - 0.5 * np.log1p(w) + _horner(_STIRLING, inv * inv) * inv
    out -= _horner(_STIRLING, big**-2) / big
    if n:
        out += s * math.log(big / m)
        for j in range(n):
            out -= np.log1p(s / (m + j))
    return out


def _digammas(m: float, c: float) -> tuple[float, float]:
    """(psi(m + c) - log m, psi'(m + c)) at real c > -m: Stirling's series
    differentiated once and twice, after ``_log_gamma_ratio``'s steps."""
    n = _shift(m, c)
    big = m + n
    z = big + c
    y = z**-2
    d1 = math.log1p(c / big) + math.log(big / m) - 0.5 / z - y * _horner(_STIRLING_D1, y)
    d2 = (1.0 + 0.5 / z + y * _horner(_STIRLING_D2, y)) / z
    for j in range(n):
        inv = 1.0 / (m + c + j)
        d1 -= inv
        d2 += inv * inv
    return d1, d2


def _log_ratio(x: float, divisors) -> float:
    """log(x / prod divisors), with the ratio formed exactly in integers
    and rounded once, so a ratio near 1 keeps its digits and none
    overflows."""
    num, den = x.as_integer_ratio()
    for d in divisors:
        d_num, d_den = d.as_integer_ratio()
        num *= d_den
        den *= d_num
    exp = num.bit_length() - den.bit_length()
    if exp > 0:
        den <<= exp
    else:
        num <<= -exp
    return math.log(num / den) + exp * math.log(2.0)


def _saddle(shapes, v: float) -> tuple[float, float, bool]:
    """(c, g'(c), upper): on the side of the smaller tail, the root of
    g(c) = sum_k (psi(m_k + c) - log m_k) - v - 1/c, the slope of the real
    log-integrand phi(c) - log|c| of ``_mellin_tail``.  g increases on
    (0, inf) and on (-min m_k, 0), with one root on each.  phi'(0) is the
    mean of log(Y / prod omega), and phi falls on the right (``upper``),
    where the CCDF is the smaller tail, when v is above it.  Newton's
    method starts from the root of the quadratic model
    var c^2 - (v - mean) c - 1 and keeps a bracket; a step that leaves it
    goes halfway to the end it crossed.  Any c in the strip is a valid
    line; the saddle keeps the rule short and the tail precise.

    phi is convex with phi(0) = 0, so phi(c*) <= 1 - (c*/2) sum_k
    (psi(m_k + c*) - psi(m_k + c*/2)), which is below the log of the
    smallest float once c* > max(5200, 80 sqrt(max m_k)).  The search
    stays inside |c| <= max(1e4, 100 sqrt(max m_k)), where no term of phi
    overflows, and a tail whose saddle lies beyond is still cut off by
    its Chernoff bound at the edge.
    """
    mean = var = 0.0
    for m in shapes:
        d1, d2 = _digammas(m, 0.0)
        mean += d1
        var += d2
    delta = v - mean
    upper = delta >= 0.0
    edge = max(1e4, 100.0 * math.sqrt(max(shapes)))
    lo, hi = (0.0, edge) if upper else (-min(min(shapes), edge), 0.0)
    c = (delta + math.copysign(math.sqrt(delta * delta + 4.0 * var), delta)) / (2.0 * var)
    if not lo < c < hi:
        c = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        g, dg = -v - 1.0 / c, 1.0 / (c * c)
        for m in shapes:
            d1, d2 = _digammas(m, c)
            g += d1
            dg += d2
        step = g / dg
        if abs(step) * math.sqrt(dg) < 1e-6:
            break
        lo, hi = (c, hi) if g < 0.0 else (lo, c)
        new = c - step if lo < c - step < hi else 0.5 * (c + (lo if step > 0.0 else hi))
        if not lo < new < hi:  # no float is left between the bracket's ends
            break
        c = new
    return c, dg, upper


def _mellin_tail(shapes, scales, x: float) -> tuple[float, float, bool]:
    """(p, absolute error bound of p, upper) for 0 < x < inf and Y the
    product of independent Gamma(shapes[k], scales[k]): p is the smaller
    tail, P(Y > x) if ``upper`` and P(Y <= x) otherwise.

    E[Y^s] = prod_k theta_k^s Gamma(m_k + s) / Gamma(m_k), so with
    v = log x - sum_k log(theta_k m_k) (x and the scales enter only here)
    and phi(s) = -s v + sum_k (log Gamma(m_k + s) - log Gamma(m_k) - s log m_k),
    P(Y > x) = (1 / 2 pi i) int exp(phi(s)) ds / s on any line Re s = c > 0,
    and -P(Y <= x) on a line -min m_k < c < 0 (the residue at 0 is 1): the
    Meijer-G CCDF of Karagiannidis, Sagias and Mathiopoulos ("N*Nakagami",
    IEEE Trans. Commun. 2007).

    The line runs through the saddle of the smaller tail (``_saddle``), so
    that tail keeps its relative precision; exp(phi(c)) bounds it
    (Chernoff), and one below the smallest float is 0.  The rule is the
    trapezoidal rule in tau, t = Im s = a sinh(tau), with a the lesser of
    the peak's width and the distance to the nearest pole, so the strip of
    analyticity has a fixed width in tau and the rule converges
    geometrically (Trefethen and Weideman, SIAM Review 2014).  Nodes run
    until the terms fall ``_MELLIN_LOG_DROP`` below the peak, and the step
    is halved until two successive sums agree to ``_MELLIN_RTOL``.  The
    error bound is their difference, the tail past the last node at the
    last nodes' rate of fall, and a first-order bound on rounding in phi,
    4 eps (|s| (|v| + sum_k (2 + log(1 + |s| / m_k))) + N + 1 + steps) at a
    node.
    """
    v = _log_ratio(x, (*scales, *shapes))
    c, curvature, upper = _saddle(shapes, v)
    shifts = [_shift(m, c) for m in shapes]
    width = curvature**-0.5
    a = min(width, c if upper else min(-c, c + min(shapes)))

    def log_terms(tau):
        """log(a cosh(tau) f(c + i a sinh(tau))) at each of ``tau``, and
        the bound on its rounding."""
        s = c + 1j * (a * np.sinh(tau))
        size = np.abs(s)
        phi = -v * s
        slack = abs(v) * size + (len(shapes) + 1 + sum(shifts))
        for m, n in zip(shapes, shifts):
            phi += _log_gamma_ratio(m, s, n)
            slack += size * (2.0 + np.log1p(size / m))
        return phi - np.log(s) + np.log(a * np.cosh(tau)), 4.0 * _EPS * slack

    top = log_terms(np.zeros(1))[0][0].real
    if top + math.log(abs(c) / a) < _LOG_TINY:
        return 0.0, 0.0, upper
    h = _FIRST_STEP
    logs, slack = log_terms(h * np.arange(math.ceil(math.asinh(12.0 * width / a) / h) + 2))
    while logs[-1].real > top - _MELLIN_LOG_DROP and len(logs) < _MAX_MELLIN_NODES:
        more = log_terms(h * np.arange(len(logs), 2 * len(logs)))
        logs, slack = np.concatenate((logs, more[0])), np.concatenate((slack, more[1]))
    # the terms fall faster and faster, so past the last node at least as fast as before it
    tail = math.exp(logs[-1].real - top) / max(logs[-2].real - logs[-1].real, _EPS) * h
    terms = np.exp(logs - top)
    terms[0] *= 0.5
    total = h * terms.real.sum()
    rounding = np.abs(terms) @ slack
    while True:
        mid, mid_slack = log_terms(h * (np.arange(len(terms) - 1) + 0.5))
        mid_terms = np.exp(mid - top)
        refined = 0.5 * (total + h * mid_terms.real.sum())
        diff = abs(refined - total)
        rounding += np.abs(mid_terms) @ mid_slack
        total, h = refined, 0.5 * h
        terms = np.concatenate((terms, mid_terms))
        # halving stops at the tolerance, at the rounding floor, or at the cap
        if diff <= max(_MELLIN_RTOL * abs(total), h * rounding) or len(terms) > _MAX_MELLIN_NODES:
            break
    # pairwise summation adds at most eps log2(nodes) of the absolute sum
    rounding = h * (rounding + _EPS * math.log2(len(terms)) * np.abs(terms).sum())
    scale = math.exp(top) / math.pi
    tail_p = min(max(float(total * scale if upper else -total * scale), 0.0), 1.0)
    return tail_p, float((diff + tail + rounding) * scale), upper


def _mellin_ccdf(shapes, scales, x: float) -> tuple[float, float]:
    """(P(Y > x), absolute error bound) from ``_mellin_tail``, with the
    rounding of 1 - P(Y <= x) added where the CDF is the smaller tail."""
    tail_p, err, upper = _mellin_tail(shapes, scales, x)
    if upper:
        return tail_p, err
    ccdf = 1.0 - tail_p
    return ccdf, err + abs(tail_p + (ccdf - 1.0))


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
    it.  Summed in log space, so no value overflows.  nan at every order
    when the grid would hold more than ``_MAX_KVE_CELLS`` values.
    """
    v = np.asarray(orders, dtype=float)
    v_max = float(v.max())
    kappa = math.hypot(z, v_max)  # z cosh(peak), the curvature at the peak
    h = min(0.1, kappa**-0.5 / 3.0)
    # past the peak the log integrand falls by at least kappa (cosh d - 1)
    # at distance d, so it has fallen by the drop y at d = acosh(1 + y / kappa)
    y = _KVE_LOG_DROP / kappa
    end = math.asinh(v_max / z) + math.log1p(y + math.sqrt(y * (y + 2.0)))
    nodes = math.ceil(end / h) + 1
    if nodes * len(v) > _MAX_KVE_CELLS:
        return np.full(len(v), math.nan)
    t = h * np.arange(nodes)
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
    end; nan when z or a term's K_v(z) e^z leaves the float range, or the
    grid of ``_log_kve`` would be too large.
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


@lru_cache(maxsize=_CCDF_MEMO_SIZE)
def _product_ccdf(spec: LinkSpec, x: float) -> tuple[float, float]:
    """(P(link squared gain > x), absolute error bound) for 0 < x < inf.

    A two-stage link with an integer-shaped stage of at most
    ``_MAX_BESSEL_TERMS`` terms takes the Bessel-K sum, led by the one
    with the fewest terms (the product is symmetric), whose error counts
    as 0; every other link, and a sum that leaves the float range, takes
    the Mellin-Barnes kernel.
    """
    stages = spec.stages
    if len(stages) == 2:
        lead, other = sorted(stages, key=lambda s: (not float(s.m).is_integer(), s.m))
        if float(lead.m).is_integer() and lead.m <= _MAX_BESSEL_TERMS:
            value = _bessel_k_ccdf(
                int(lead.m), lead.gamma_scale, other.gamma_shape, other.gamma_scale, x
            )
            if not math.isnan(value):
                return min(value, 1.0), 0.0
    return _mellin_ccdf(
        tuple(s.gamma_shape for s in stages), tuple(s.gamma_scale for s in stages), x
    )


def product_gain_ccdf(spec: LinkSpec, x: float) -> float:
    """P(link squared gain > x) for a cascade of any length."""
    if math.isnan(x) or x < 0:
        raise ParameterError(f"x must be >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return _product_ccdf(spec, float(x))[0]


def _ccdf_abs_err(spec: LinkSpec, x: float) -> float:
    """The error bound of ``product_gain_ccdf(spec, x)``: a memo hit
    after that call, and 0 where the CCDF is exactly 0 or 1."""
    if x == 0.0 or math.isinf(x):
        return 0.0
    return _product_ccdf(spec, float(x))[1]


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
    mass = np.bincount(table.attribute_of_cell, weights=cells, minlength=len(table.held))
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
) -> OracleResult:
    """Total success probabilities by exact scenario enumeration.

    The keywords describe one :class:`~canoma.engine.TrialConfig` and are
    checked as its ``validate`` checks them, so a bad value raises the
    engine's ``ParameterError`` naming the same field: ``catalog_t`` sets
    ``files``, ``capacities`` (any two-item sequence) sets ``cache``,
    ``total`` sets ``rho``, ``policy`` sets ``ordering``, and ``zeta``,
    ``alpha``, ``thresholds`` (None for the default) and ``link_specs``
    set the fields of their own names.  An unknown ``scheme`` raises the
    same error, naming ``scheme``, from ``gain_thresholds``.

    Every class of the scenario table is reduced to gain thresholds and
    weighted by its probability (``_class_weights``).  The marginal
    product multiplies the *total* marginals; with caching the two
    outcomes are correlated, so it differs from the joint probability
    and both are reported.
    """
    config = TrialConfig(
        files=catalog_t,
        zeta=zeta,
        cache=tuple(capacities),
        rho=total,
        alpha=alpha,
        thresholds=DecodeThresholds() if thresholds is None else thresholds,
        link_specs=link_specs,
        ordering=policy,
    )
    config.validate()
    return _success_prob(config, scheme)


def _success_prob(config: TrialConfig, scheme: str) -> OracleResult:
    """``success_prob`` of a validated ``config`` under ``scheme``, read
    from the scenario table the config already holds."""
    table = config.table
    specs, policy = config.link_specs, config.ordering
    a, b = gain_thresholds(
        scheme, config.rho, config.alpha, config.thresholds.default, *table.columns()
    )
    cdf = table.cdf_at_starts(config.zeta)
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
