"""Two-vehicle decode outcomes for NOMA and OMA delivery schemes.

Power-domain superposition with noise variance fixed at 1: the base
station transmits one message per served request, the two vehicles are
ordered by descending channel gain (or a fixed order for cross-checks),
and the strong-ordered position receives the smaller power share.  A
vehicle succeeds when it obtains its requested file, either from its own
cache or by decoding at SINR >= threshold after successive cancellation.

Scheme semantics (the cache placement phase happens regardless of the
delivery scheme, so a self-cached request counts as a success under
every scheme):

* ``canoma``   cache-aided NOMA: the BS skips self-cached requests and
  reallocates their power to the remaining active vehicle; receivers
  subtract any message whose file they hold before running SIC.
* ``noma``     conventional NOMA: the BS is blind to cache state and
  transmits every request; receivers run plain power-ordered SIC.
* ``oma-cache`` cache-aided OMA: a self-served vehicle gives up its
  resource slice, the rest split the resource evenly at full power.
* ``oma``      conventional OMA: every vehicle keeps a 1/2 slice.

Two-vehicle decoding has one rule, :func:`gain_thresholds`: per scenario
every decode condition reduces to "strong gain >= a and weak gain >= b".
The Monte Carlo engine and the oracle both evaluate it.  The independent
reference it is tested against -- scalar general-N decoders at SINR
level -- lives with the tests, so neither path can import it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from numbers import Real

import numpy as np

from .errors import ParameterError

__all__ = [
    "SCHEMES",
    "DecodeThresholds",
    "INFEASIBLE",
    "gain_thresholds",
]

SCHEMES = ("canoma", "noma", "oma-cache", "oma")

# Marker for a decode stage no gain value can satisfy.
INFEASIBLE = inf


def _is_positive_real(value) -> bool:
    # a bool is a number to Python, but never a threshold or a model value
    return (
        isinstance(value, Real) and not isinstance(value, bool) and isfinite(value) and value > 0
    )


@dataclass(frozen=True)
class DecodeThresholds:
    """The SINR threshold (linear scale) of every file, default 1."""

    default: float = 1.0

    def __post_init__(self) -> None:
        if not _is_positive_real(self.default):
            raise ParameterError(f"threshold must be a positive real, got {self.default!r}")


def gain_thresholds(scheme: str, total, alpha, theta, hit_s, hit_w, cross_s, cross_w):
    """Two-vehicle decode as minimum gains ``(a, b)``: the strong-ordered
    vehicle succeeds iff its gain is >= a, the weak one iff its gain is >= b.

    ``theta`` is the SINR threshold of every file.  The flags are by
    ordered position: ``hit_s``/``hit_w`` are the strong/weak vehicle's
    self-cache flags, ``cross_s`` is True when the strong vehicle holds
    the weak vehicle's file and ``cross_w`` the reverse.  Scalars and
    broadcastable arrays both work; the results are arrays.  A
    self-served vehicle gets 0 and a stage no gain can pass gets
    ``INFEASIBLE``.  Every SINR condition p*X / (q*X + 1) >= theta
    becomes X >= theta / (p - theta*q) when p > theta*q.
    """
    if scheme not in SCHEMES:
        raise ParameterError(f"unknown scheme {scheme!r}")
    # an array, so that a zero SIC margin divides to inf, not ZeroDivisionError
    theta = np.asarray(theta, dtype=float)
    hit_s = np.asarray(hit_s, dtype=bool)
    hit_w = np.asarray(hit_w, dtype=bool)

    # a threshold past the float range (tiny power, zero SIC margin) is
    # infinite, which is exactly the infeasible marker
    with np.errstate(divide="ignore", over="ignore"):
        if scheme in ("oma-cache", "oma"):
            # equal slices at full power; no interference, so cross flags are moot
            served = 2.0 - hit_s - hit_w if scheme == "oma-cache" else 2.0
            need = ((1.0 + theta) ** served - 1.0) / total
            return np.where(hit_s, 0.0, need), np.where(hit_w, 0.0, need)

        p_s = alpha * total
        p_w = total - p_s
        margin = p_w - theta * p_s
        # the weak message against the strong one as noise: the strong
        # vehicle's SIC stage and the weak vehicle's plain decode
        sic = np.where(margin > 0.0, theta / margin, INFEASIBLE)
        own_s = theta / p_s
        if scheme == "noma":
            # the BS is cache-blind: both messages are always on the air
            return np.where(hit_s, 0.0, np.maximum(sic, own_s)), np.where(hit_w, 0.0, sic)

        # a lone active vehicle decodes interference-free at the full budget
        solo = theta / total
        a = np.where(cross_s, own_s, np.maximum(sic, own_s))
        b = np.where(cross_w, theta / p_w, sic)
        a = np.where(hit_s, 0.0, np.where(hit_w, solo, a))
        b = np.where(hit_w, 0.0, np.where(hit_s, solo, b))
        return a, b
