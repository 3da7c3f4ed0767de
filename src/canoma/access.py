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
from numbers import Integral, Real

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
    """Per-file SINR thresholds (linear scale), default 1 for every file.

    Each override names a distinct file index >= 1; files beyond the
    catalog keep their override unused.
    """

    default: float = 1.0
    overrides: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if not _is_positive_real(self.default):
            raise ParameterError(f"threshold must be a positive real, got {self.default!r}")
        try:
            overrides = tuple((file, theta) for file, theta in self.overrides)
        except (TypeError, ValueError) as exc:
            raise ParameterError(
                f"overrides must be (file, threshold) pairs, got {self.overrides!r}"
            ) from exc
        seen = set()
        for file, theta in overrides:
            if not isinstance(file, Integral) or isinstance(file, bool) or file < 1:
                raise ParameterError(f"override file must be an integer >= 1, got {file!r}")
            if file in seen:
                raise ParameterError(f"file {file} has more than one threshold override")
            seen.add(file)
            if not _is_positive_real(theta):
                raise ParameterError(
                    f"threshold for file {file} must be a positive real, got {theta!r}"
                )
        object.__setattr__(self, "overrides", tuple(sorted(overrides)))

    def table(self, t: int) -> np.ndarray:
        """Thresholds for files 1..t as an array (index file-1)."""
        out = np.full(t, self.default)
        for f, theta in self.overrides:
            if 1 <= f <= t:
                out[f - 1] = theta
        return out


def gain_thresholds(
    scheme: str,
    total,
    alpha,
    th_s,
    th_w,
    hit_s,
    hit_w,
    cross_s,
    cross_w,
    self_hit_power: str = "reallocate",
):
    """Two-vehicle decode as minimum gains ``(a, b)``: the strong-ordered
    vehicle succeeds iff its gain is >= a, the weak one iff its gain is >= b.

    Inputs are by ordered position: ``th_s``/``th_w`` are the thresholds
    of the strong/weak vehicle's requested files, ``hit_s``/``hit_w``
    their self-cache flags, ``cross_s`` is True when the strong vehicle
    holds the weak vehicle's file and ``cross_w`` the reverse.  Scalars
    and broadcastable arrays both work; the results are arrays.  A
    self-served vehicle gets 0 and a stage no gain can pass gets
    ``INFEASIBLE``.  Every SINR condition p*X / (q*X + 1) >= theta
    becomes X >= theta / (p - theta*q) when p > theta*q.
    """
    if scheme not in SCHEMES:
        raise ParameterError(f"unknown scheme {scheme!r}")
    if self_hit_power not in ("reallocate", "idle"):
        raise ParameterError(f"unknown self-hit power policy {self_hit_power!r}")
    th_s = np.asarray(th_s, dtype=float)
    th_w = np.asarray(th_w, dtype=float)
    hit_s = np.asarray(hit_s, dtype=bool)
    hit_w = np.asarray(hit_w, dtype=bool)

    # a threshold past the float range (tiny power, zero SIC margin) is
    # infinite, which is exactly the infeasible marker
    with np.errstate(divide="ignore", over="ignore"):
        if scheme in ("oma-cache", "oma"):
            # equal slices at full power; no interference, so cross flags are moot
            served = 2.0 - hit_s - hit_w if scheme == "oma-cache" else 2.0
            a = np.where(hit_s, 0.0, ((1.0 + th_s) ** served - 1.0) / total)
            b = np.where(hit_w, 0.0, ((1.0 + th_w) ** served - 1.0) / total)
            return a, b

        p_s = alpha * total
        p_w = total - p_s
        margin = p_w - th_w * p_s
        # the weak message against the strong one as noise: the strong
        # vehicle's SIC stage and the weak vehicle's plain decode
        sic = np.where(margin > 0.0, th_w / margin, INFEASIBLE)
        own_s = th_s / p_s
        if scheme == "noma":
            # the BS is cache-blind: both messages are always on the air
            return np.where(hit_s, 0.0, np.maximum(sic, own_s)), np.where(hit_w, 0.0, sic)

        # a lone active vehicle decodes interference-free; its power is the
        # full budget or its own position share, per the policy
        solo_s, solo_w = (total, total) if self_hit_power == "reallocate" else (p_s, p_w)
        a = np.where(cross_s, own_s, np.maximum(sic, own_s))
        b = np.where(cross_w, th_w / p_w, sic)
        a = np.where(hit_s, 0.0, np.where(hit_w, th_s / solo_s, a))
        b = np.where(hit_w, 0.0, np.where(hit_s, th_w / solo_w, b))
        return a, b
