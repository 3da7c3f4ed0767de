"""Seeded Monte Carlo engine: trial execution and estimates.

Trials are organised in fixed blocks of 65536; block c draws from an
SFC64 stream keyed by SeedSequence((seed, c)), so any trial's variates
are a deterministic function of (seed, trial index) and results are
bit-identical for any worker count.  Blocks run on a pool of threads,
one per available CPU by default (numpy releases the interpreter lock
in the draws, the elementwise work and the counts); each thread works
in one set of arrays allocated once per run, so no block allocates
anything block-sized.  Within a block the draw order is
fixed -- request uniforms first, then the per-stage gamma variates of
each link -- which makes runs over different grid values consume the
same randomness per trial (common random numbers): sweeping SNR, cache
size, catalog size, or the popularity parameter never changes the
sampled gains, and requests always map through the inverse CDF of the
same two uniforms.  A stage of integer fading shape m <= 3 is drawn
by inversion, as -log of the product of m factors 1 - U from full-length
uniform draws, every other shape by numpy's gamma sampler
(``channel.sample_link_gain``).  The SFC64 streams with exponential sums
in place of ``standard_gamma``, and then those sums by inversion in place
of m ziggurat exponentials, are declared sampler changes: each moved
every Monte Carlo row once, within its sampling error.

A run therefore draws each block once for all the configurations it
covers -- every value of a sweep, every point of an oracle check -- and
decodes each (configuration, scheme) from content's scenario-class table
(cache flags, threshold levels and which vehicle is strong), so a sweep
costs about one point.  A trial's class comes from its two uniforms by a
branchless bisection over a few CDF breakpoints.  Each (configuration,
scheme) decodes its whole class table once per run, so a block gathers
each trial's minimum gains by class code, compares and counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Sequence

import numpy as np

from .access import SCHEMES, DecodeThresholds, _is_positive_real, gain_thresholds
from .channel import LinkSpec, sample_link_gain
from .content import _MAX_FILES, ScenarioTable, _by_position
from .errors import ParameterError

__all__ = [
    "CHUNK",
    "BIT_GENERATOR",
    "METRICS",
    "DEFAULT_LINK_SPEC",
    "TrialConfig",
    "Estimate",
    "db_to_linear",
    "summarize",
    "run_point",
    "run_point_multi",
]

CHUNK = 1 << 16
_U_ROWS = 1 << 13  # request-uniform rows drawn per step of a chunk
BIT_GENERATOR = np.random.SFC64
METRICS = ("marg-product", "joint")
ORDERING_POLICIES = ("by-gain", "fixed")

DEFAULT_LINK_SPEC = LinkSpec.from_pairs([(1.0, 1.0), (2.0, 2.0)])

_Z95 = 1.959963984540054


def db_to_linear(db: float) -> float:
    """10^(db/10); raises ParameterError unless that is a positive finite float."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.inf
    if not (math.isfinite(linear) and linear > 0.0):
        raise ParameterError(f"{db!r} dB is outside the positive finite linear range")
    return linear


def _is_int(value) -> bool:
    # a bool is an integer to Python, but never a count
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrialConfig:
    """Everything one Monte Carlo run depends on.

    ``rho`` is the total transmit SNR in linear scale (noise variance is
    1, so it equals the total transmit power); dB values are converted
    at the CLI boundary.  ``cache`` is one capacity for both vehicles or
    a per-vehicle pair.
    """

    n_trials: int = 1_000_000
    seed: int = 1
    scheme: str = "canoma"
    files: int = 10
    zeta: float = 0.8
    cache: int | tuple[int, int] = 0
    alpha: float = 0.2
    rho: float = 10.0
    thresholds: DecodeThresholds = field(default_factory=DecodeThresholds)
    link_specs: tuple[LinkSpec, LinkSpec] = (DEFAULT_LINK_SPEC, DEFAULT_LINK_SPEC)
    ordering: str = "by-gain"
    metric: str = "marg-product"
    zipf_convention: str = "reciprocal"
    self_hit_power: str = "reallocate"

    @property
    def capacities(self) -> tuple[int, int]:
        if isinstance(self.cache, tuple):
            return self.cache
        return (self.cache, self.cache)

    @property
    def snr_db(self) -> float:
        return 10.0 * math.log10(self.rho)

    @cached_property
    def table(self) -> ScenarioTable:
        """The scenario-class table of this config's catalog, caches and
        thresholds, built on first use and kept with the config; read it
        only after ``validate``, which reads it last."""
        return ScenarioTable.of(self.files, self.capacities, self.thresholds)

    def validate(self) -> None:
        def bad(name: str, requirement: str, got: str | None = None) -> ParameterError:
            got = repr(getattr(self, name)) if got is None else got
            return ParameterError(f"{name} must {requirement}, got {got}", name)

        if not _is_int(self.n_trials) or self.n_trials < 1:
            raise bad("n_trials", "be a positive integer")
        if not _is_int(self.seed) or not (0 <= self.seed < 2**64):
            raise bad("seed", "be a 64-bit unsigned integer")
        if self.scheme not in SCHEMES:
            raise bad("scheme", f"be one of {SCHEMES}")
        if not _is_int(self.files) or not 1 <= self.files <= _MAX_FILES:
            raise bad("files", "be an integer in 1..2**53")
        if not _is_positive_real(self.zeta):
            raise bad("zeta", "be a positive real")
        if len(self.capacities) != 2 or not all(_is_int(c) and c >= 0 for c in self.capacities):
            raise bad("cache", "be a non-negative integer or a pair of them")
        if not all(c <= self.files for c in self.capacities):
            raise bad("cache", f"lie in 0..{self.files}")
        if not (_is_positive_real(self.alpha) and self.alpha < 1.0):
            raise bad("alpha", "be a real in (0, 1)")
        if not _is_positive_real(self.rho):
            raise bad("rho", "be a positive real")
        if self.ordering not in ORDERING_POLICIES:
            raise bad("ordering", f"be one of {ORDERING_POLICIES}")
        if self.metric not in METRICS:
            raise bad("metric", f"be one of {METRICS}")
        specs = self.link_specs
        if not (
            isinstance(specs, Sequence)
            and len(specs) == 2
            and all(isinstance(s, LinkSpec) for s in specs)
        ):
            raise bad("link_specs", "be a pair of LinkSpec")
        if self.zipf_convention not in ("reciprocal", "direct"):
            raise bad("zipf_convention", "be 'reciprocal' or 'direct'")
        if self.self_hit_power not in ("reallocate", "idle"):
            raise bad("self_hit_power", "be 'reallocate' or 'idle'")
        if not isinstance(self.thresholds, DecodeThresholds):
            raise bad("thresholds", "be a DecodeThresholds")
        # every class's (a, b) is decoded once per run into a table that
        # must not outgrow a chunk's class codes
        if self.table.size > CHUNK:
            raise bad(
                "thresholds",
                f"give at most {CHUNK} scenario classes, 2 * A^2 for A distinct "
                "(cache region, threshold level) pairs",
                f"{self.table.size} classes from A = {len(self.table.theta)}",
            )


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate with 95% normal-approximation interval.

    ``p1``/``p2`` are the per-position marginals (strong/weak under
    by-gain ordering, vehicle 1/2 under fixed ordering); ``p_hat`` is
    the selected metric's value and the interval belongs to it.  The
    marginal-product standard error comes from the delta method with the
    empirical covariance of the two marginals.
    """

    metric: str
    p_hat: float
    stderr: float
    ci_low: float
    ci_high: float
    n: int
    p1: float
    p2: float
    p_joint: float
    p_marg_product: float
    stderr_joint: float
    stderr_marg_product: float


def _standard_errors(p1: float, p2: float, p_joint: float, n: int) -> tuple[float, float]:
    """(joint, marginal-product) standard errors of estimates from ``n``
    trials of success probabilities ``p1``, ``p2`` and ``p_joint``: the
    binomial one for the joint, and the delta method with the covariance
    of the two marginals for their product."""
    se_joint = math.sqrt(p_joint * (1.0 - p_joint) / n)
    cov = (p_joint - p1 * p2) / n
    var_mp = (
        p2 * p2 * p1 * (1.0 - p1) / n
        + p1 * p1 * p2 * (1.0 - p2) / n
        + 2.0 * p1 * p2 * cov
    )
    return se_joint, math.sqrt(max(var_mp, 0.0))


def summarize(successes: Sequence[int], n: int, metric: str = "marg-product") -> Estimate:
    """Aggregate (strong, weak, joint) success counts into an Estimate."""
    if metric not in METRICS:
        raise ParameterError(f"metric must be one of {METRICS}, got {metric!r}")
    if not _is_int(n) or n < 1:
        raise ParameterError(f"trial count must be a positive integer, got {n!r}")
    n = int(n)
    s1, s2, s_joint = (int(s) for s in successes)
    for s in (s1, s2, s_joint):
        if not (0 <= s <= n):
            raise ParameterError(f"success count {s} outside 0..{n}")
    p1 = s1 / n
    p2 = s2 / n
    p_joint = s_joint / n
    p_mp = p1 * p2
    se_joint, se_mp = _standard_errors(p1, p2, p_joint, n)
    p_hat, se = (p_joint, se_joint) if metric == "joint" else (p_mp, se_mp)
    return Estimate(
        metric=metric,
        p_hat=p_hat,
        stderr=se,
        ci_low=max(0.0, p_hat - _Z95 * se),
        ci_high=min(1.0, p_hat + _Z95 * se),
        n=n,
        p1=p1,
        p2=p2,
        p_joint=p_joint,
        p_marg_product=p_mp,
        stderr_joint=se_joint,
        stderr_marg_product=se_mp,
    )


def _chunk_generator(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(BIT_GENERATOR(np.random.SeedSequence((seed, chunk))))


def _bisection_table(breakpoints: np.ndarray) -> np.ndarray:
    """``breakpoints`` padded with +inf to the fewest 2^k - 1 entries."""
    size = (1 << len(breakpoints).bit_length()) - 1
    return np.concatenate((breakpoints, np.full(size - len(breakpoints), np.inf)))


def _count_below(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """How many entries of ``table`` lie strictly below each uniform of
    ``u``, i.e. ``np.searchsorted(table, u, "left")``, for a sorted table
    of 2^k - 1 entries.

    A branchless bisection: k steps of one gather and one compare each,
    the first against a scalar.  Random keys defeat the branch predictor
    of ``searchsorted``'s binary search; no step here branches on data.
    """
    step = (len(table) + 1) // 2
    if not step:
        return np.zeros(len(u), dtype=np.intp)
    count = np.multiply(u > table[step - 1], step, dtype=np.intp)
    while step > 1:
        step //= 2
        # table[count + step - 1], without forming the index
        count += (u > table[step - 1 :].take(count)) * step
    return count


@dataclass(frozen=True, eq=False)
class _ScenarioClasses:
    """A ``content.ScenarioTable`` ready to classify trials.

    A uniform's cell is the number of the table's CDF values below it: a
    branchless bisection over a few CDF values (``_count_below``), never a
    search over the T-long CDF, and no request is ever formed.  Trials of
    one class decode alike, and ``TrialConfig.validate`` keeps the table
    within CHUNK classes, so ``gain_thresholds`` runs once per run over
    every class and each trial looks its (a, b) up by code.
    """

    table: ScenarioTable
    breakpoints: np.ndarray  # the table's CDF values, +inf padded
    attribute_of_cell: np.ndarray  # the table's, one byte each

    @classmethod
    def of(cls, config: TrialConfig) -> "_ScenarioClasses":
        table = config.table
        # validate keeps A <= 181 attributes, so an index fits a byte
        return cls(
            table,
            _bisection_table(table.cdf_at_starts(config.zeta, config.zipf_convention)),
            table.attribute_of_cell.astype(np.uint8),
        )

    def pairs(self, u, out) -> None:
        """Write each trial's attribute pair a1 * A + a2 from its two
        request uniforms into ``out``; its class code is twice that plus
        whether vehicle 1 is the strong one.  ``u`` is the leading rows of
        a C-ordered (rows, 2) array, so it flattens without a copy."""
        attribute = self.attribute_of_cell.take(_count_below(self.breakpoints, u.reshape(-1)))
        np.multiply(attribute[0::2], len(self.table.theta), out=out, dtype=out.dtype)
        out += attribute[1::2]


def _chunk_buffers(groups):
    """One thread's working arrays for ``_run_chunk``: request uniforms for
    one slice of rows, the two links' gains and a spare, the strong flags,
    three outcome flags, each scenario group's attribute pairs in its
    narrowest code type, and one shared ``intp`` code row.

    The calling thread allocates them once per run, so no chunk allocates
    anything CHUNK-sized and the memory never lands in a worker thread's
    own malloc arena.  A group's codes are widened into the shared row, of
    ``intp``, the index type of ``np.take``, which would copy any other.
    """
    return (
        np.empty((_U_ROWS, 2)),
        np.empty((3, CHUNK)),
        np.empty(CHUNK, dtype=bool),
        np.empty((3, CHUNK), dtype=bool),
        {
            key: np.empty(CHUNK, dtype=np.min_scalar_type(g.table.size - 1))
            for key, g in groups.items()
        },
        np.empty(CHUNK, dtype=np.intp),
    )


def _run_chunk(task, buffers):
    seed, chunk, length, link_specs, ordering, groups, decoders, schemes, collect = task
    u, gains, strong_is_1, (ok_s, ok_w, ok_both), pairs, code = buffers
    rng = _chunk_generator(seed, chunk)
    # Full-size draws keep every trial's variates independent of n_trials;
    # rows drawn slice by slice are the rows of one (CHUNK, 2) draw.
    for lo in range(0, CHUNK, _U_ROWS):
        rng.random(out=u)
        if lo < length:
            rows = u[: length - lo]
            for key, group in groups.items():
                group.pairs(rows, pairs[key][lo : lo + len(rows)])
    for spec, x in zip(link_specs, gains[:2]):
        sample_link_gain(spec, rng, out=x, work=gains[2])
    x1, x2, spare = gains[:, :length]
    strong_is_1 = strong_is_1[:length]
    ok_s, ok_w, ok_both = ok_s[:length], ok_w[:length], ok_both[:length]
    code = code[:length]
    if ordering == "by-gain":
        np.greater_equal(x1, x2, out=strong_is_1)
        np.minimum(x1, x2, out=spare)
        np.maximum(x1, x2, out=x1)
        xs, xw, limit = x1, spare, x2
    else:
        strong_is_1.fill(True)
        xs, xw, limit = x1, x2, spare

    out = {}
    for key, group in groups.items():
        # widen the group's codes once for all its decoders
        np.multiply(pairs[key][:length], 2, out=code, dtype=np.intp)
        code += strong_is_1
        # the gathers below clip, because mode="raise" buffers their
        # output, so the codes are checked here, once per group and chunk
        if code.max() >= group.table.size:
            raise IndexError(f"class code {code.max()} outside a table of {group.table.size}")
        for i, tables in decoders[key]:
            per_scheme = {}
            for scheme in schemes:
                a, b = tables[scheme]
                np.greater_equal(xs, np.take(a, code, out=limit, mode="clip"), out=ok_s)
                np.greater_equal(xw, np.take(b, code, out=limit, mode="clip"), out=ok_w)
                np.logical_and(ok_s, ok_w, out=ok_both)
                counts = tuple(np.count_nonzero(ok) for ok in (ok_s, ok_w, ok_both))
                outcomes = (
                    np.column_stack(_by_position(strong_is_1, ok_s, ok_w)) if collect else None
                )
                per_scheme[scheme] = (counts, outcomes)
            out[i] = per_scheme
    return out


def _scenario_groups(configs: Sequence[TrialConfig]):
    """One ``_ScenarioClasses`` per (popularity, cache pair, thresholds)
    key, and each config paired with its key."""
    groups, keyed = {}, []
    for config in configs:
        key = (
            config.files, config.zeta, config.zipf_convention, config.capacities, config.thresholds
        )
        if key not in groups:
            groups[key] = _ScenarioClasses.of(config)
        keyed.append((key, config))
    return groups, keyed


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_count(workers: int | None, n_trials: int) -> int:
    """Threads a run of ``n_trials`` uses: ``workers``, or one per available
    CPU when None, capped at the CPU and chunk counts (a thread more only
    waits)."""
    cpus = _available_cpus()
    n_chunks = (n_trials + CHUNK - 1) // CHUNK
    return max(1, min(cpus if workers is None else workers, n_chunks, cpus))


def _draw_fields(config: TrialConfig):
    return config.seed, config.n_trials, config.link_specs, config.ordering


def _simulate(
    configs: Sequence[TrialConfig],
    schemes: Sequence[str],
    workers: int | None = None,
    collect_outcomes: bool = False,
):
    """Draw every trial once and decode it under each config and scheme.

    The configs must share the fields that fix the draws (seed,
    n_trials, link_specs, ordering).  Each SFC64 block is drawn once,
    classified once per popularity, cache pair and threshold table, and
    every (config, scheme) looks its trials up in that group's
    scenario-class table, whose (a, b) it decodes once per run for every
    class.  Each group reads the popularity CDF at its table's few change
    points only, so no array is sized by the catalog or the caches.
    Chunks run on ``_thread_count(workers, n_trials)`` threads, each in
    buffers this thread allocates once.  Returns, per config,
    ``{scheme: (estimate, outcomes)}``, outcomes being an (n, 2)
    vehicle-indexed boolean array when requested and None otherwise.
    """
    # a bare string would run as its letters, and no scheme as no result
    if isinstance(schemes, str) or not schemes:
        raise ParameterError(
            f"schemes must be a non-empty sequence of scheme names, got {schemes!r}", "schemes"
        )
    schemes = tuple(schemes)
    if not configs:
        raise ParameterError("configs must hold at least one TrialConfig", "configs")
    for config in configs:
        config.validate()
        if _draw_fields(config) != _draw_fields(configs[0]):
            raise ParameterError(
                "configs of one run must share seed, n_trials, link_specs and ordering"
            )
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ParameterError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
    groups, keyed_configs = _scenario_groups(configs)
    # a group's (a, b) tables do not depend on the chunk; each group's
    # decoders are (config index, {scheme: (a, b)})
    columns = {key: group.table.columns() for key, group in groups.items()}
    decoders = {key: [] for key in groups}
    for i, (key, config) in enumerate(keyed_configs):
        tables = {
            scheme: gain_thresholds(
                scheme, config.rho, config.alpha, *columns[key], config.self_hit_power
            )
            for scheme in schemes
        }
        decoders[key].append((i, tables))

    seed, n, link_specs, ordering = _draw_fields(configs[0])
    n_chunks = (n + CHUNK - 1) // CHUNK
    threads = _thread_count(workers, n)
    buffers = [_chunk_buffers(groups) for _ in range(threads)]
    shared = (link_specs, ordering, groups, decoders, schemes, collect_outcomes)

    def run_share(i):
        # thread i runs chunks i, i + threads, ... in its own buffers
        return [
            _run_chunk((seed, c, min(CHUNK, n - c * CHUNK), *shared), buffers[i])
            for c in range(i, n_chunks, threads)
        ]

    if threads == 1:
        shares = [run_share(0)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            shares = list(pool.map(run_share, range(threads)))
    chunk_results = [shares[c % threads][c // threads] for c in range(n_chunks)]

    results = []
    for i, config in enumerate(configs):
        out = {}
        for scheme in schemes:
            pieces = [res[i][scheme] for res in chunk_results]
            counts = np.sum([c for c, _ in pieces], axis=0).tolist()
            outcomes = np.concatenate([o for _, o in pieces]) if collect_outcomes else None
            out[scheme] = (summarize(counts, n, config.metric), outcomes)
        results.append(out)
    return results


def run_point(
    config: TrialConfig,
    workers: int | None = None,
    return_outcomes: bool = False,
):
    """Monte Carlo estimate for one configuration.

    Deterministic for a given (seed, config) and invariant to
    ``workers``, the number of threads the chunks run on (one per
    available CPU when None).  With ``return_outcomes`` the per-trial, per-vehicle
    success booleans come back alongside the estimate.
    """
    return run_point_multi(config, (config.scheme,), workers, return_outcomes)[config.scheme]


def run_point_multi(
    config: TrialConfig,
    schemes: Sequence[str],
    workers: int | None = None,
    return_outcomes: bool = False,
):
    """Like :func:`run_point` but decodes the same sampled trials under
    several schemes at once (the schemes share all randomness)."""
    results = _simulate([config], schemes, workers, return_outcomes)[0]
    return {s: r if return_outcomes else r[0] for s, r in results.items()}
