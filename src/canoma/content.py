"""Content popularity and the one two-vehicle scenario-class table.

Files 1..T at the base station carry a Zipf-derived popularity profile;
every vehicle caches the top-C most popular files during the placement
phase and requests one file per delivery trial.  A request's decode
depends on two attributes of its file: which caches hold it (one of at
most three top-C regions) and its SINR threshold.  :class:`ScenarioTable`
groups files by those attributes; a scenario class is one attribute per
vehicle plus which vehicle is the strong one.  The Monte Carlo engine
classifies trials by the table and the oracle weights its classes, so
the cached contents enter both paths through this one table.  The
per-trial placement and classification by set membership is the tests'
reference.

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

from .access import DecodeThresholds
from .errors import ParameterError

__all__ = [
    "PopularityProfile",
    "ScenarioTable",
    "zipf_profile",
    "request_from_uniform",
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


def _by_position(strong_is_1, v1, v2):
    """Swap vehicle-indexed values into (strong, weak) position order, or back."""
    return np.where(strong_is_1, v1, v2), np.where(strong_is_1, v2, v1)


@dataclass(frozen=True, eq=False)
class ScenarioTable:
    """The scenario classes of one catalog size, cache pair and threshold
    table; no popularity profile is needed to build it.

    Under top-C placement a request's attributes -- which caches hold its
    file (its region) and its threshold level -- change only at a few
    files: c1+1, c2+1, and each override file f and f+1.  Those change
    points cut files 1..T into cells whose files all share their first
    file's attributes.  With A distinct attributes, class code
    ``2 * (a1 * A + a2) + s`` holds vehicle 1's attribute a1, vehicle 2's
    a2, and s = 1 when vehicle 1 is the strong one.
    """

    starts: np.ndarray  # change points, in 2..T ascending
    attribute_of_cell: np.ndarray  # attribute index of each cell
    held: np.ndarray  # (in cache 1, in cache 2) by attribute
    theta: np.ndarray  # threshold by attribute

    @classmethod
    def of(
        cls, files: int, capacities: tuple[int, int], thresholds: DecodeThresholds
    ) -> "ScenarioTable":
        c1, c2 = capacities
        theta_of = dict(thresholds.overrides)
        overridden = [f for f in theta_of if 1 <= f <= files]
        starts = np.unique([c1 + 1, c2 + 1, *overridden, *(f + 1 for f in overridden)])
        starts = starts[(starts >= 2) & (starts <= files)]
        first = np.concatenate(([1], starts))
        levels, level = np.unique(
            [theta_of.get(f, thresholds.default) for f in first.tolist()], return_inverse=True
        )
        # under top-C placement (in 1, in 2) takes at most 3 of its 4 values
        region = (first <= c1) + 2 * (first <= c2)
        attributes, attribute_of_cell = np.unique(
            region * len(levels) + level, return_inverse=True
        )
        region, level = np.divmod(attributes, len(levels))
        held = np.column_stack((region & 1 == 1, region & 2 == 2))
        return cls(starts, attribute_of_cell, held, levels[level])

    @property
    def size(self) -> int:
        return 2 * len(self.theta) ** 2

    def cdf_at_starts(self, profile: PopularityProfile) -> np.ndarray:
        """cdf[k - 2] for each change point k, ascending.  A request r(u)
        is >= k iff cdf[k - 2] < u, so a uniform's cell is the number of
        these values below it, and cell masses are their differences."""
        return profile.cdf[self.starts - 2]

    def columns(self):
        """``gain_thresholds``' position-ordered inputs for every class code:
        (th_s, th_w, hit_s, hit_w, cross_s, cross_w)."""
        pair, strong_is_1 = np.divmod(np.arange(self.size), 2)
        a1, a2 = np.divmod(pair, len(self.theta))
        strong_is_1 = strong_is_1 == 1
        return (
            *_by_position(strong_is_1, self.theta[a1], self.theta[a2]),
            *_by_position(strong_is_1, self.held[a1, 0], self.held[a2, 1]),
            # whether each vehicle holds the other's requested file
            *_by_position(strong_is_1, self.held[a2, 0], self.held[a1, 1]),
        )
