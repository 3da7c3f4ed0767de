"""Content popularity and the two-vehicle scenario classes.

Files 1..T at the base station carry a Zipf-derived popularity profile;
every vehicle caches the top-C most popular files during the placement
phase and requests one file per delivery trial.  A trial's scenario
class records, per vehicle, whether its own request is self-cached and
whether the other vehicle holds it; :func:`scenario_distribution` gives
the exact class probabilities.  The per-trial placement and
classification by set membership is the tests' reference.

Requests map from uniforms by inverse CDF on the cumulative probability
table.  This is deliberate: under shared uniforms the requested index is
monotone in the profile's concentration, which turns the trend claims of
the study into deterministic per-trial comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral, Real

import numpy as np

from .errors import ParameterError

__all__ = [
    "PopularityProfile",
    "ScenarioClass",
    "zipf_profile",
    "request_from_uniform",
    "scenario_distribution",
]

_SUM_TOL = 1e-12


class PopularityProfile:
    """File-request probabilities over a catalog of T files.

    Entries are non-negative, non-increasing in file index (file 1 is
    the most popular) and sum to one within 1e-12.
    """

    def __init__(self, probs) -> None:
        probs = np.asarray(probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise ParameterError("profile must be a non-empty 1-d probability vector")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ParameterError("profile entries must be finite and non-negative")
        if abs(probs.sum() - 1.0) > _SUM_TOL:
            raise ParameterError(f"profile entries must sum to 1, got {probs.sum()!r}")
        if np.any(probs[1:] > probs[:-1]):
            raise ParameterError("profile entries must be non-increasing in file index")
        self._probs = probs
        self._probs.setflags(write=False)
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0  # guard searchsorted against cumulative rounding
        self._cdf = cdf
        self._cdf.setflags(write=False)

    @property
    def t(self) -> int:
        return int(self._probs.size)

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def cdf(self) -> np.ndarray:
        return self._cdf

    def __eq__(self, other) -> bool:
        return isinstance(other, PopularityProfile) and np.array_equal(self._probs, other._probs)

    def __repr__(self) -> str:
        return f"PopularityProfile(t={self.t})"


@dataclass(frozen=True)
class ScenarioClass:
    """Distinguishable two-vehicle scenario: the four cache flags.

    Whether the two requests coincide is not a flag: no decode rule
    reads it.
    """

    self_hit_1: bool
    self_hit_2: bool
    cross_2_holds_1: bool
    cross_1_holds_2: bool

    def self_hit(self, vehicle: int) -> bool:
        return self.self_hit_1 if vehicle == 0 else self.self_hit_2

    def cross_cached(self, i: int, j: int) -> bool:
        """True when vehicle ``j`` holds vehicle ``i``'s requested file."""
        if i == j:
            return self.self_hit(i)
        return self.cross_2_holds_1 if (i, j) == (0, 1) else self.cross_1_holds_2


def zipf_profile(catalog: int, zeta: float, convention: str = "reciprocal") -> PopularityProfile:
    """Zipf-derived popularity over files 1..T.

    With the default ``reciprocal`` convention the rank exponent is
    1/zeta, so zeta -> 0 concentrates all mass on file 1 and large zeta
    approaches a uniform profile.  ``direct`` exposes the textbook
    convention (exponent = zeta) for cross-checks against other tools.
    """
    # a bool is a number to Python, but never a catalog size or a zeta
    if isinstance(catalog, bool) or not isinstance(catalog, Integral) or catalog < 1:
        raise ParameterError(f"catalog size must be an integer >= 1, got {catalog!r}")
    if isinstance(zeta, bool) or not (isinstance(zeta, Real) and isfinite(zeta) and zeta > 0):
        raise ParameterError(f"zeta must be positive and finite, got {zeta!r}")
    t = int(catalog)
    if convention == "reciprocal":
        exponent = 1.0 / zeta
    elif convention == "direct":
        exponent = zeta
    else:
        raise ParameterError(f"unknown zipf convention {convention!r}")
    # in place: a catalog of T files holds one T-long temporary, not three
    weights = np.arange(1, t + 1, dtype=float)
    np.power(weights, -exponent, out=weights)
    weights /= weights.sum()
    return PopularityProfile(weights)


def _checked_capacity(profile: PopularityProfile, capacity) -> int:
    if not isinstance(capacity, Integral) or capacity < 0:
        raise ParameterError(f"cache capacity must be a non-negative integer, got {capacity!r}")
    if capacity > profile.t:
        raise ParameterError(
            f"cache capacity {capacity} exceeds catalog size {profile.t}"
        )
    return int(capacity)


def request_from_uniform(profile: PopularityProfile, u):
    """Inverse-CDF map from uniform draws in [0, 1) to file indices.

    File k is returned iff cdf[k-1] < u <= cdf[k]; accepts scalars or
    arrays.  The engine never forms a request; this per-file map is what
    the coupled-monotonicity tests feed the same uniforms through.
    """
    idx = np.searchsorted(profile.cdf, u, side="left") + 1
    idx = np.minimum(idx, profile.t)
    if np.ndim(u) == 0:
        return int(idx)
    return idx.astype(np.int64)


def scenario_distribution(
    profile: PopularityProfile, capacities: tuple[int, int]
) -> dict[ScenarioClass, float]:
    """Exact two-vehicle scenario-class probabilities under i.i.d. requests
    and top-C placement with the two given capacities.

    With ``lo, hi = sorted(capacities)`` the files fall into at most three
    regions: ``[0:lo]`` in both caches, ``[lo:hi]`` in the larger cache
    only, ``[hi:T]`` in neither.  A class fixes the region of each request,
    so its probability is the product of two region masses.  Regions of
    zero mass are left out, so at most 9 classes remain; their
    probabilities sum to 1 within 1e-12.
    """
    capacities = tuple(capacities)
    if len(capacities) != 2:
        raise ParameterError("scenario_distribution enumerates exactly two vehicles")
    c1, c2 = (_checked_capacity(profile, c) for c in capacities)
    lo, hi = sorted((c1, c2))
    probs = profile.probs
    # (in cache 1, in cache 2) of every file in a region, and its mass
    regions = [
        ((True, True), probs[:lo].sum()),
        ((c1 > c2, c2 > c1), probs[lo:hi].sum()),
        ((False, False), probs[hi:].sum()),
    ]
    regions = [(held, float(mass)) for held, mass in regions if mass > 0.0]
    return {
        ScenarioClass(
            self_hit_1=held1[0],
            self_hit_2=held2[1],
            cross_2_holds_1=held1[1],
            cross_1_holds_2=held2[0],
        ): mass1 * mass2
        for held1, mass1 in regions
        for held2, mass2 in regions
    }
