"""SINR-level reference decoders for the tests: general-N NOMA and OMA
from one trial's requests and cache contents, and the T-long Zipf
popularity they are drawn from.

The library decodes two vehicles through one rule,
``canoma.access.gain_thresholds``: per scenario class, "strong gain >= a
and weak gain >= b".  The Monte Carlo engine and the oracle both apply
it, so their agreement cannot catch a fault in the rule itself.  The
scalar decoders here work at SINR level instead, from each vehicle's
requested file, its cache contents and the power ladder, and the tests
hold the rule (and through it both paths) to them.  The popularity here
is the plain T-long one: every file weighed, normalised by the sum over
all T files and accumulated, with requests mapped from uniforms through
its CDF; the library's O(T0 + K) CDF reads are checked against it.

To stay independent this module imports only data types and errors from
``canoma``, never the rule, the engine or the oracle; a test checks that.

Scheme semantics (the cache placement phase happens regardless of the
delivery scheme, so a self-cached request counts as a success under
every scheme):

* ``canoma``   cache-aided NOMA: the BS skips self-cached requests and
  reallocates their power to the remaining active vehicles; receivers
  subtract any message whose file they hold before running SIC.
* ``noma``     conventional NOMA: the BS is blind to cache state and
  transmits every request; receivers run plain power-ordered SIC.
* ``oma-cache`` cache-aided OMA: self-served vehicles give up their
  resource slice, the rest split the resource evenly at full power.
* ``oma``      conventional OMA: every vehicle keeps a 1/N slice.

Duplicate requests are served as independent messages at their own
position powers; coinciding requests change nothing in the decode
chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral
from typing import Sequence

import numpy as np

from canoma import (
    DecodeThresholds,
    LinkSpec,
    ParameterError,
)

# Positions (strongest first) -> vehicle indices.
UserOrdering = tuple[int, ...]


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit powers by ordered position, strongest position first."""

    total: float
    alpha: float
    powers: tuple[float, ...]


@dataclass(frozen=True)
class CacheContents:
    """A vehicle's cache: a set of file indices bounded by its capacity."""

    files: frozenset[int]
    capacity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "files", frozenset(self.files))
        if self.capacity < 0:
            raise ParameterError(f"cache capacity must be non-negative, got {self.capacity}")
        if len(self.files) > self.capacity:
            raise ParameterError(
                f"cache holds {len(self.files)} files but capacity is {self.capacity}"
            )

    def __contains__(self, file: int) -> bool:
        return file in self.files


@dataclass(frozen=True)
class CacheScenario:
    """Per-trial classification of requests against cache contents.

    ``cross[i][j]`` is True when vehicle j holds vehicle i's requested
    file (the diagonal equals ``self_hit``).  All flags are pure set
    membership over the inputs of :func:`classify_scenario`.
    """

    requests: tuple[int, ...]
    self_hit: tuple[bool, ...]
    cross: tuple[tuple[bool, ...], ...]

    def cross_cached(self, i: int, j: int) -> bool:
        """True when vehicle ``j`` holds vehicle ``i``'s requested file."""
        return self.cross[i][j]


@dataclass(frozen=True)
class Outcome:
    """Per-vehicle success flags: requested file obtained by decode or cache."""

    ok: tuple[bool, ...]


class PopularityProfile:
    """Request probabilities of files 1..T, most popular first, and their
    running sum, whose last entry is 1."""

    def __init__(self, probs) -> None:
        self.probs = np.asarray(probs, dtype=float)
        self.t = len(self.probs)
        self.cdf = np.cumsum(self.probs)
        self.cdf[-1] = 1.0  # the whole catalog, without the running sum's drift


def zipf_profile(catalog: int, zeta: float, convention: str = "reciprocal") -> PopularityProfile:
    """Zipf popularity over files 1..T: rank exponent 1/zeta under the
    ``reciprocal`` convention, zeta under ``direct``.  The library takes
    the reciprocal one only, so the tests reach ``direct`` at 1/zeta."""
    exponent = 1.0 / zeta if convention == "reciprocal" else zeta
    weights = np.arange(1, catalog + 1, dtype=float) ** -exponent
    return PopularityProfile(weights / weights.sum())


def request_from_uniform(profile: PopularityProfile, u):
    """Inverse-CDF map from uniforms in [0, 1) to file indices: file k
    iff cdf[k-2] < u <= cdf[k-1].  Scalar for a scalar ``u``."""
    idx = np.minimum(np.searchsorted(profile.cdf, u, side="left") + 1, profile.t)
    return int(idx) if np.ndim(u) == 0 else idx.astype(np.int64)


def place_cache(profile: PopularityProfile, capacity: int) -> CacheContents:
    """Deterministic top-C placement: cache files {1, ..., capacity}."""
    if not isinstance(capacity, Integral) or capacity < 0:
        raise ParameterError(f"cache capacity must be a non-negative integer, got {capacity!r}")
    if capacity > profile.t:
        raise ParameterError(f"cache capacity {capacity} exceeds catalog size {profile.t}")
    return CacheContents(files=frozenset(range(1, capacity + 1)), capacity=int(capacity))


def sample_request(profile: PopularityProfile, rng: np.random.Generator, size=None):
    """Sample file indices from the profile by inverse CDF."""
    return request_from_uniform(profile, rng.random(size))


def classify_scenario(requests, caches) -> CacheScenario:
    """Classify one trial's requests against per-vehicle cache contents.

    Every flag is plain set membership.
    """
    requests = tuple(int(r) for r in requests)
    caches = tuple(caches)
    if len(requests) != len(caches):
        raise ParameterError(f"{len(requests)} requests but {len(caches)} caches")
    n = len(requests)
    self_hit = tuple(requests[i] in caches[i] for i in range(n))
    cross = tuple(tuple(requests[i] in caches[j] for j in range(n)) for i in range(n))
    return CacheScenario(requests=requests, self_hit=self_hit, cross=cross)


def mean_link_gain(spec: LinkSpec) -> float:
    """Mean squared gain of the link: the product of the stage omegas."""
    out = 1.0
    for stage in spec.stages:
        out *= stage.omega
    return out


def order_users(gains: Sequence[float], policy: str = "by-gain") -> UserOrdering:
    """Positions by descending gain (ties broken by ascending vehicle
    index), or the identity permutation under the ``fixed`` policy."""
    n = len(gains)
    if n < 1:
        raise ParameterError("ordering needs at least one vehicle")
    if policy == "fixed":
        return tuple(range(n))
    if policy != "by-gain":
        raise ParameterError(f"unknown ordering policy {policy!r}")
    return tuple(sorted(range(n), key=lambda i: (-float(gains[i]), i)))


def split_power(total: float, alpha: float, n: int) -> PowerAllocation:
    """Split total power across n ordered positions.

    Position k (1 = strongest) gets weight alpha^(n-k) * (1-alpha)^(k-1),
    normalised to sum to ``total``; for n = 2 this is exactly
    (alpha * total, (1 - alpha) * total), and for alpha < 0.5 the ladder
    is strictly increasing toward weaker positions.
    """
    if not (isfinite(total) and total > 0):
        raise ParameterError(f"total power must be positive, got {total!r}")
    if not (isfinite(alpha) and 0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    n = int(n)
    if n < 1:
        raise ParameterError(f"vehicle count must be >= 1, got {n}")
    if n == 1:
        powers: tuple[float, ...] = (total,)
    elif n == 2:
        strong = alpha * total
        powers = (strong, total - strong)
    else:
        weights = np.array(
            [alpha ** (n - k) * (1.0 - alpha) ** (k - 1) for k in range(1, n + 1)]
        )
        scaled = total * weights / weights.sum()
        scaled[-1] = total - scaled[:-1].sum()  # make the sum exact
        powers = tuple(float(p) for p in scaled)
    return PowerAllocation(total=total, alpha=alpha, powers=powers)


def oma_effective_threshold(theta: float, share: float) -> float:
    """SINR needed on a fractional orthogonal resource to match the rate
    implied by ``theta`` on the full resource: (1 + theta)^(1/share) - 1."""
    if not (isfinite(theta) and theta > 0):
        raise ParameterError(f"threshold must be positive, got {theta!r}")
    if not (isfinite(share) and 0.0 < share <= 1.0):
        raise ParameterError(f"resource share must lie in (0, 1], got {share!r}")
    return (1.0 + theta) ** (1.0 / share) - 1.0


def _message_powers(total: float, alpha: float, count: int) -> tuple[float, ...]:
    if count == 0:
        return ()
    return split_power(total, alpha, count).powers


def decode_noma(
    gains: Sequence[float],
    alloc: PowerAllocation,
    thresholds: DecodeThresholds,
    scenario: CacheScenario,
    ordering: UserOrdering | None = None,
    cache_aided: bool = True,
) -> Outcome:
    """Decode one NOMA trial for any number of vehicles.

    Cache-aided mode transmits only non-self-cached requests (power
    ladder re-spread over the active positions) and lets each receiver
    subtract messages whose files it caches; conventional mode transmits
    everything and ignores cache state during reception.  In both modes
    a receiver SIC-decodes, in descending power order, every remaining
    message of weaker-positioned vehicles, each cancellation requiring
    SINR >= that message's threshold against the still-superposed rest;
    its own decode then faces whatever is left, stronger-positioned
    messages included.  Every message carries the threshold
    ``thresholds.default``.  Infeasible steps yield failure, never errors.
    """
    gains = [float(x) for x in gains]
    n = len(gains)
    if n < 1:
        raise ParameterError("decode needs at least one vehicle")
    if len(scenario.requests) != n:
        raise ParameterError(f"scenario covers {len(scenario.requests)} vehicles, gains {n}")
    if any(not (isfinite(x) and x >= 0) for x in gains):
        raise ParameterError("channel gains must be finite and non-negative")
    if ordering is None:
        ordering = order_users(gains)
    if sorted(ordering) != list(range(n)):
        raise ParameterError(f"ordering must be a permutation of 0..{n - 1}")

    rank = {v: k for k, v in enumerate(ordering)}
    if cache_aided:
        transmitted = [v for v in ordering if not scenario.self_hit[v]]
        powers = _message_powers(alloc.total, alloc.alpha, len(transmitted))
    else:
        transmitted = list(ordering)
        if len(alloc.powers) != n:
            raise ParameterError(
                f"allocation has {len(alloc.powers)} positions for {n} vehicles"
            )
        powers = alloc.powers
    messages = [(owner, powers[k], thresholds.default) for k, owner in enumerate(transmitted)]

    ok: list[bool] = []
    for i in range(n):
        if scenario.self_hit[i]:
            ok.append(True)
            continue
        x = gains[i]
        present = [
            m
            for m in messages
            if m[0] == i or not (cache_aided and scenario.cross_cached(m[0], i))
        ]
        own = next(m for m in present if m[0] == i)
        # only weaker-positioned messages are SIC targets; anything from a
        # stronger position stays as noise (it carries less power under
        # the alpha < 0.5 convention)
        queue = sorted(
            (m for m in present if rank[m[0]] > rank[i]),
            key=lambda m: (-m[1], rank[m[0]]),
        )
        remaining = sum(m[1] for m in present)
        success = True
        for owner, power, theta in queue:
            if power * x < theta * ((remaining - power) * x + 1.0):
                success = False
                break
            remaining -= power
        if success:
            _, p_own, th_own = own
            success = p_own * x >= th_own * ((remaining - p_own) * x + 1.0)
        ok.append(success)
    return Outcome(tuple(ok))


def decode_oma(
    gains: Sequence[float],
    total: float,
    thresholds: DecodeThresholds,
    scenario: CacheScenario,
    cache_exploit: bool = True,
) -> Outcome:
    """Decode one OMA trial: equal time slices at full power.

    With cache exploitation only the A non-self-served vehicles share
    the resource (share 1/A each); without it every vehicle keeps a 1/N
    slice.  There is no interference, so cross-cache flags are ignored.
    """
    gains = [float(x) for x in gains]
    n = len(gains)
    if n < 1:
        raise ParameterError("decode needs at least one vehicle")
    if len(scenario.requests) != n:
        raise ParameterError(f"scenario covers {len(scenario.requests)} vehicles, gains {n}")
    if not (isfinite(total) and total > 0):
        raise ParameterError(f"total power must be positive, got {total!r}")
    active = n - sum(scenario.self_hit) if cache_exploit else n
    ok: list[bool] = []
    for i in range(n):
        if scenario.self_hit[i]:
            ok.append(True)
            continue
        need = oma_effective_threshold(thresholds.default, 1.0 / active)
        ok.append(total * gains[i] >= need)
    return Outcome(tuple(ok))
