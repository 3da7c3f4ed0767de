"""Seeded Monte Carlo engine: trial execution and estimates.

Trials are organised in fixed blocks of 65536; block c draws from an
SFC64 stream keyed by SeedSequence((seed, c)), so any trial's variates
are a deterministic function of (seed, trial index) and results are
bit-identical for any worker count.  Blocks run on threads, by default
one per available CPU and per two blocks (numpy releases the interpreter
lock in the draws, the elementwise work and the counts): the calling
thread and the workers of one pool, which the process keeps from its
first threaded run on and a forked child starts afresh.  Each thread
works in one set of arrays allocated once per run and freed when it
returns, so no block allocates anything block-sized and no call leaves
block-sized memory behind.  Within a block the draw order is
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
(cache regions and which vehicle is strong), so a sweep costs about one
point.  A trial's class comes from its two uniforms, each compared with
the CDF at the table's change points (at most two).  A position with
gain x decodes iff fl(c / x) <= rho, c being its class's product
(``access.decode_products``), which does not depend on rho.  The
configurations of one scenario group that share alpha and theta share
one product table per scheme, made once per run: a block gathers each
trial's c by class code, divides it by the strong and by the weak gains
once, and compares the ratios with each rho, so an SNR curve costs one
division per trial and scheme plus a comparison per SNR value.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Sequence

import numpy as np

from .access import DecodeThresholds, _is_positive_real, decode_products
from .channel import LinkSpec, sample_link_gain
from .content import _MAX_FILES, ScenarioTable, _by_position
from .errors import ParameterError

__all__ = [
    "CHUNK",
    "BIT_GENERATOR",
    "DEFAULT_LINK_SPEC",
    "TrialConfig",
    "Estimate",
    "db_to_linear",
    "summarize",
    "run_point_multi",
]

CHUNK = 1 << 16
# Request-uniform rows drawn per step of a chunk: as many as the spare
# gains row holds.  Threads trade the interpreter lock at every numpy
# call, so fewer, larger steps keep two threads busier.
_U_ROWS = CHUNK // 2
# A thread's fixed cost -- about 2.3 MB of fresh pages, which every
# threaded call faults in again, and trading the interpreter lock at each
# numpy call -- outweighs its share of fewer chunks than this.  On a
# 2-vCPU VM, perfbench's large-catalog op (4 one-scheme chunks) took
# 10.4 ms serially under the former three-chunk rule and 8.5 ms on two
# threads (medians of 10 alternating 30 s runs); in one process, 2
# one-scheme chunks took 5.2 ms on one thread and 6.1 ms on two.  Whether
# two threads win varies with the VM's load: in some minutes one thread
# won even at 4 chunks.
_CHUNKS_PER_THREAD = 2
BIT_GENERATOR = np.random.SFC64
ORDERING_POLICIES = ("by-gain", "fixed")

DEFAULT_LINK_SPEC = LinkSpec.from_pairs([(1.0, 1.0), (2.0, 2.0)])


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
    """The model and the draws of one Monte Carlo run; the schemes a run
    decodes them under are given beside it.

    ``rho`` is the total transmit SNR in linear scale (noise variance is
    1, so it equals the total transmit power); dB values are converted
    at the CLI boundary.  ``cache`` is one capacity for both vehicles or
    a per-vehicle pair.
    """

    n_trials: int = 1_000_000
    seed: int = 1
    files: int = 10
    zeta: float = 0.8
    cache: int | tuple[int, int] = 0
    alpha: float = 0.2
    rho: float = 10.0
    thresholds: DecodeThresholds = field(default_factory=DecodeThresholds)
    link_specs: tuple[LinkSpec, LinkSpec] = (DEFAULT_LINK_SPEC, DEFAULT_LINK_SPEC)
    ordering: str = "by-gain"

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
        """The scenario-class table of this config's catalog and caches,
        built on first use and kept with the config; read it only after
        ``validate``."""
        return ScenarioTable.of(self.files, self.capacities)

    def validate(self) -> None:
        def bad(name: str, requirement: str) -> ParameterError:
            return ParameterError(f"{name} must {requirement}, got {getattr(self, name)!r}", name)

        if not _is_int(self.n_trials) or self.n_trials < 1:
            raise bad("n_trials", "be a positive integer")
        if not _is_int(self.seed) or not (0 <= self.seed < 2**64):
            raise bad("seed", "be a 64-bit unsigned integer")
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
        specs = self.link_specs
        if not (
            isinstance(specs, Sequence)
            and len(specs) == 2
            and all(isinstance(s, LinkSpec) for s in specs)
        ):
            raise bad("link_specs", "be a pair of LinkSpec")
        if not isinstance(self.thresholds, DecodeThresholds):
            raise bad("thresholds", "be a DecodeThresholds")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate of the joint and marginal-product success
    probabilities with their standard errors.

    ``p1``/``p2`` are the per-position marginals (strong/weak under
    by-gain ordering, vehicle 1/2 under fixed ordering).  The
    marginal-product standard error comes from the delta method with the
    empirical covariance of the two marginals.
    """

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


def summarize(successes: Sequence[int], n: int) -> Estimate:
    """Aggregate (strong, weak, joint) success counts into an Estimate."""
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
    se_joint, se_mp = _standard_errors(p1, p2, p_joint, n)
    return Estimate(n, p1, p2, p_joint, p1 * p2, se_joint, se_mp)


def _chunk_generator(seed: int, chunk: int) -> np.random.Generator:
    return np.random.Generator(BIT_GENERATOR(np.random.SeedSequence((seed, chunk))))


@dataclass(frozen=True, eq=False)
class _ScenarioClasses:
    """A ``content.ScenarioTable`` ready to classify trials.

    A table numbers its cells' attributes in descending order
    (``ScenarioTable.attribute_of_cell``), and a uniform's cell is the
    number of the table's CDF values below it, so its attribute is the
    number of those values at or above it: one comparison per change
    point (at most two), never a search over the T-long CDF, and no
    request is ever formed.  Trials of one class decode alike, so the
    rule runs once per run over the table's at most 18 classes and each
    trial looks its products up by code.
    """

    table: ScenarioTable
    cdf: np.ndarray  # the table's CDF values at its change points

    @classmethod
    def of(cls, config: TrialConfig) -> "_ScenarioClasses":
        return cls(config.table, config.table.cdf_at_starts(config.zeta))

    def pairs(self, u, out, scratch) -> None:
        """Write each trial's attribute pair a1 * A + a2 from its two
        request uniforms into ``out``; its class code is twice that plus
        whether vehicle 1 is the strong one.  ``u`` is the leading rows of
        a C-ordered (rows, 2) array, so it flattens without a copy, and
        ``scratch`` is a byte row at least twice as long as ``u``."""
        u = u.reshape(-1)
        if not len(self.cdf):
            out.fill(0)
            return
        attribute, at_or_above = scratch[: len(u)], scratch[len(u) : 2 * len(u)]
        np.less_equal(u, self.cdf[0], out=attribute.view(np.bool_))
        for value in self.cdf[1:]:
            np.less_equal(u, value, out=at_or_above.view(np.bool_))
            attribute += at_or_above
        np.multiply(attribute[0::2], len(self.table.held), out=out)
        out += attribute[1::2]


def _chunk_buffers(groups, decoders):
    """One thread's working arrays for ``_run_chunk``: the two links' gains
    and a third row, which holds half a chunk's request uniforms at a
    time before any gain is drawn and the ratios c / x after; the strong
    flags; the weak position's outcome flags and the strong position's
    for each SNR value of the largest decoder; each scenario group's
    attribute pairs (at most 9, so a byte each); and one shared ``intp``
    code row, whose bytes hold the uniforms' comparisons until the codes
    are formed.

    The calling thread allocates them once per run, so no chunk allocates
    anything CHUNK-sized and the memory never lands in a worker thread's
    own malloc arena.  A group's codes are widened into the shared row, of
    ``intp``, the index type of ``np.take``, which would copy any other.
    """
    most_points = max(len(points) for per_group in decoders.values() for _, points in per_group)
    return (
        np.empty((3, CHUNK)),
        np.empty(CHUNK, dtype=bool),
        np.empty((1 + most_points, CHUNK), dtype=bool),
        {key: np.empty(CHUNK, dtype=np.uint8) for key in groups},
        np.empty(CHUNK, dtype=np.intp),
    )


def _run_chunk(task, buffers):
    seed, chunk, length, link_specs, ordering, groups, decoders, schemes, collect = task
    gains, strong_is_1, ok, pairs, code = buffers
    u = gains[2, : 2 * _U_ROWS].reshape(_U_ROWS, 2)
    rng = _chunk_generator(seed, chunk)
    # Full-size draws keep every trial's variates independent of n_trials;
    # rows drawn slice by slice are the rows of one (CHUNK, 2) draw.
    for lo in range(0, CHUNK, _U_ROWS):
        rng.random(out=u)
        if lo < length:
            rows = u[: length - lo]
            for key, group in groups.items():
                group.pairs(rows, pairs[key][lo : lo + len(rows)], code.view(np.uint8))
    for spec, x in zip(link_specs, gains[:2]):
        sample_link_gain(spec, rng, out=x, work=gains[2])
    x1, x2, spare = gains[:, :length]
    strong_is_1 = strong_is_1[:length]
    ok_w, *oks = ok[:, :length]
    code = code[:length]
    if ordering == "by-gain":
        np.greater_equal(x1, x2, out=strong_is_1)
        np.minimum(x1, x2, out=spare)
        np.maximum(x1, x2, out=x1)
        xs, xw, ratio = x1, spare, x2
    else:
        strong_is_1.fill(True)
        xs, xw, ratio = x1, x2, spare

    out = {}
    for key, group in groups.items():
        # widen the group's codes once for all its decoders
        np.multiply(pairs[key][:length], 2, out=code, dtype=np.intp)
        code += strong_is_1
        # the gathers below clip, because mode="raise" buffers their
        # output, so the codes are checked here, once per group and chunk
        if code.max() >= group.table.size:
            raise IndexError(f"class code {code.max()} outside a table of {group.table.size}")
        for tables, points in decoders[key]:
            for scheme in schemes:
                c_s, c_w = tables[scheme]
                # c / x once per trial and position for every rho below, the
                # strong position's first; c / 0 = inf and inf / inf = NaN
                # pass no rho, -1 / 0 = -inf passes every one
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    np.divide(np.take(c_s, code, out=ratio, mode="clip"), xs, out=ratio)
                for (_, rho), ok_s in zip(points, oks):
                    np.less_equal(ratio, rho, out=ok_s)
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    np.divide(np.take(c_w, code, out=ratio, mode="clip"), xw, out=ratio)
                for (i, rho), ok_s in zip(points, oks):
                    np.less_equal(ratio, rho, out=ok_w)
                    outcomes = (
                        np.column_stack(_by_position(strong_is_1, ok_s, ok_w)) if collect else None
                    )
                    n_s, n_w = np.count_nonzero(ok_s), np.count_nonzero(ok_w)
                    both = np.count_nonzero(np.logical_and(ok_s, ok_w, out=ok_s))
                    out.setdefault(i, {})[scheme] = ((n_s, n_w, both), outcomes)
    return out


def _scenario_groups(configs: Sequence[TrialConfig]):
    """One ``_ScenarioClasses`` per (catalog, zeta, cache pair) key, and
    each config paired with its key."""
    groups, keyed = {}, []
    for config in configs:
        key = (config.files, config.zeta, config.capacities)
        if key not in groups:
            groups[key] = _ScenarioClasses.of(config)
        keyed.append((key, config))
    return groups, keyed


def _decoders(groups, keyed_configs, schemes):
    """Each scenario group's decoders, none of which depends on the chunk:
    ``({scheme: (c_s, c_w)}, [(config index, rho), ...])``, one per alpha
    and theta among the group's configs, whose every SNR value shares the
    class products of ``decode_products``, which refuses an unknown
    scheme before any chunk is drawn."""
    columns = {key: group.table.columns() for key, group in groups.items()}
    rules = {}
    for i, (key, config) in enumerate(keyed_configs):
        rule = (key, config.alpha, config.thresholds.default)
        rules.setdefault(rule, []).append((i, config.rho))
    decoders = {key: [] for key in groups}
    for (key, alpha, theta), points in rules.items():
        products = {s: decode_products(s, alpha, theta, *columns[key]) for s in schemes}
        decoders[key].append((products, points))
    return decoders


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The worker pool kept for the life of the process, one worker per
# available CPU besides the calling thread's, as many as _thread_count
# ever asks for: a threaded run would otherwise pay for starting its
# threads, and the executor starts a worker only when work waits for one.
# A forked child has none of its parent's threads, so it forgets the pool
# and the lock, which another thread may have held at the fork.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _reset_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _submit_shares(run_share, threads: int):
    """Futures of ``run_share(i)`` for i in 1..threads - 1 on the kept
    pool, which the first threaded run makes."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_available_cpus() - 1)
        return [_pool.submit(run_share, i) for i in range(1, threads)]


def _thread_count(workers: int | None, n_trials: int) -> int:
    """Threads a run of ``n_trials`` uses: ``workers``, or when None one per
    available CPU and per ``_CHUNKS_PER_THREAD`` chunks, capped at the CPU
    and chunk counts (a thread more only waits).  Raises ParameterError
    unless ``workers`` is None or a positive integer."""
    if workers is not None and not (_is_int(workers) and workers >= 1):
        raise ParameterError(
            f"workers must be a positive integer or None, got {workers!r}", "workers"
        )
    cpus = _available_cpus()
    n_chunks = (n_trials + CHUNK - 1) // CHUNK
    if workers is None:
        workers = n_chunks // _CHUNKS_PER_THREAD
    return max(1, min(workers, n_chunks, cpus))


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
    classified once per popularity and cache pair, and every (config,
    scheme) looks its trials up in that group's scenario-class table,
    whose products it decodes once per run for every class
    (``_decoders``); a position decodes iff fl(c / x) <= rho.  Each
    group reads the popularity CDF at its table's few change points
    only, so no array is sized by the catalog or the caches.
    Chunks run on ``_thread_count(workers, n_trials)`` threads -- this one
    and workers of the kept pool -- each in buffers this thread allocates
    once per call.  Returns, per config,
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
    seed, n, link_specs, ordering = _draw_fields(configs[0])
    threads = _thread_count(workers, n)
    groups, keyed_configs = _scenario_groups(configs)
    decoders = _decoders(groups, keyed_configs, schemes)

    n_chunks = (n + CHUNK - 1) // CHUNK
    buffers = [_chunk_buffers(groups, decoders) for _ in range(threads)]
    shared = (link_specs, ordering, groups, decoders, schemes, collect_outcomes)

    def run_share(i):
        # thread i runs chunks i, i + threads, ... in its own buffers
        return [
            _run_chunk((seed, c, min(CHUNK, n - c * CHUNK), *shared), buffers[i])
            for c in range(i, n_chunks, threads)
        ]

    # the calling thread runs share 0 while the kept pool runs the others
    futures = _submit_shares(run_share, threads) if threads > 1 else []
    try:
        shares = [run_share(0)]
    finally:
        wait(futures)
    shares += [f.result() for f in futures]
    chunk_results = [shares[c % threads][c // threads] for c in range(n_chunks)]

    results = []
    for i, config in enumerate(configs):
        out = {}
        for scheme in schemes:
            pieces = [res[i][scheme] for res in chunk_results]
            counts = np.sum([c for c, _ in pieces], axis=0).tolist()
            outcomes = np.concatenate([o for _, o in pieces]) if collect_outcomes else None
            out[scheme] = (summarize(counts, n), outcomes)
        results.append(out)
    return results


def run_point_multi(
    config: TrialConfig,
    schemes: Sequence[str],
    workers: int | None = None,
    return_outcomes: bool = False,
):
    """Monte Carlo estimates for one configuration, ``{scheme: estimate}``,
    decoding the same sampled trials under every scheme (the schemes
    share all randomness).

    Deterministic for a given (seed, config) and invariant to
    ``workers``, the number of threads the chunks run on (when None, one
    per available CPU and per two chunks).  With ``return_outcomes`` each
    estimate comes with the per-trial, per-vehicle success booleans.
    """
    results = _simulate([config], schemes, workers, return_outcomes)[0]
    return {s: r if return_outcomes else r[0] for s, r in results.items()}
