"""Per-trial decode outcomes for NOMA and OMA delivery schemes.

Power-domain superposition with noise variance fixed at 1: the base
station transmits one message per served request, vehicles are ordered
by descending channel gain (or a fixed order for cross-checks), and
stronger-ordered positions receive less power.  A vehicle succeeds when
it obtains its requested file, either from its own cache or by decoding
at SINR >= threshold after the successive-cancellation steps below.

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

Two-vehicle decoding has one rule, :func:`gain_thresholds`: per scenario
every decode condition reduces to "strong gain >= a and weak gain >= b".
The Monte Carlo engine and the oracle both evaluate it.  The scalar
general-N :func:`decode_noma`/:func:`decode_oma` work at SINR level and
are the independent reference the rule is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite
from numbers import Integral
from typing import Sequence

import numpy as np

from .content import CacheScenario
from .errors import ParameterError

__all__ = [
    "SCHEMES",
    "PowerAllocation",
    "DecodeThresholds",
    "UserOrdering",
    "Outcome",
    "order_users",
    "split_power",
    "oma_effective_threshold",
    "decode_noma",
    "decode_oma",
    "INFEASIBLE",
    "gain_thresholds",
]

SCHEMES = ("canoma", "noma", "oma-cache", "oma")

# Marker for a decode stage no gain value can satisfy.
INFEASIBLE = inf

# Positions (strongest first) -> vehicle indices.
UserOrdering = tuple[int, ...]


@dataclass(frozen=True)
class PowerAllocation:
    """Transmit powers by ordered position, strongest position first."""

    total: float
    alpha: float
    powers: tuple[float, ...]


@dataclass(frozen=True)
class DecodeThresholds:
    """Per-file SINR thresholds (linear scale), default 1 for every file.

    Each override names a distinct file index >= 1; files beyond the
    catalog keep their override unused.
    """

    default: float = 1.0
    overrides: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if not (isfinite(self.default) and self.default > 0):
            raise ParameterError(f"threshold must be positive, got {self.default!r}")
        seen = set()
        for file, theta in self.overrides:
            if not isinstance(file, Integral) or isinstance(file, bool) or file < 1:
                raise ParameterError(f"override file must be an integer >= 1, got {file!r}")
            if file in seen:
                raise ParameterError(f"file {file} has more than one threshold override")
            seen.add(file)
            if not (isfinite(theta) and theta > 0):
                raise ParameterError(f"threshold for file {file} must be positive, got {theta!r}")
        object.__setattr__(self, "overrides", tuple(sorted(self.overrides)))

    def theta_for(self, file: int) -> float:
        for f, theta in self.overrides:
            if f == file:
                return theta
        return self.default

    def uniform_value(self) -> float | None:
        """The single shared threshold, or None when files genuinely differ."""
        if all(theta == self.default for _, theta in self.overrides):
            return self.default
        return None

    def table(self, t: int) -> np.ndarray:
        """Thresholds for files 1..t as an array (index file-1)."""
        out = np.full(t, self.default)
        for f, theta in self.overrides:
            if 1 <= f <= t:
                out[f - 1] = theta
        return out


@dataclass(frozen=True)
class Outcome:
    """Per-vehicle success flags: requested file obtained by decode or cache."""

    ok: tuple[bool, ...]


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
    self_hit_power: str = "reallocate",
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
    messages included.  Infeasible steps yield failure, never errors.

    ``self_hit_power`` picks what happens to a self-served vehicle's
    power share in cache-aided mode: ``reallocate`` (default) re-spreads
    the ladder over the active vehicles, ``idle`` leaves each active
    message at its original position power and wastes the rest.
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

    if self_hit_power not in ("reallocate", "idle"):
        raise ParameterError(f"unknown self-hit power policy {self_hit_power!r}")
    rank = {v: k for k, v in enumerate(ordering)}
    if cache_aided:
        transmitted = [v for v in ordering if not scenario.self_hit[v]]
        if self_hit_power == "reallocate":
            powers = _message_powers(alloc.total, alloc.alpha, len(transmitted))
        else:
            if len(alloc.powers) != n:
                raise ParameterError(
                    f"allocation has {len(alloc.powers)} positions for {n} vehicles"
                )
            powers = tuple(alloc.powers[rank[v]] for v in transmitted)
    else:
        transmitted = list(ordering)
        if len(alloc.powers) != n:
            raise ParameterError(
                f"allocation has {len(alloc.powers)} positions for {n} vehicles"
            )
        powers = alloc.powers
    messages = [
        (owner, powers[k], thresholds.theta_for(scenario.requests[owner]))
        for k, owner in enumerate(transmitted)
    ]

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
        theta = thresholds.theta_for(scenario.requests[i])
        ok.append(total * gains[i] >= oma_effective_threshold(theta, 1.0 / active))
    return Outcome(tuple(ok))


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

    :func:`decode_noma` and :func:`decode_oma` are the SINR-level
    reference this reduction is tested against.
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
