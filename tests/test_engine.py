import dataclasses
import io
import math
import pickle
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoma import (
    DEFAULT_LINK_SPEC,
    DecodeThresholds,
    LinkSpec,
    ParameterError,
    ScenarioTable,
    TrialConfig,
    db_to_linear,
    run_point,
    run_point_multi,
    success_prob,
    summarize,
)
import canoma.cli as cli
import canoma.engine as engine
from canoma.engine import CHUNK
from reference import (
    CacheContents,
    classify_scenario,
    decode_noma,
    decode_oma,
    order_users,
    request_from_uniform,
    split_power,
    zipf_profile,
)


SCHEMES = ("canoma", "noma", "oma-cache", "oma")

# a threshold other than the default, for every file
THETA = {"thresholds": DecodeThresholds(0.5)}


def config(**over):
    base = dict(n_trials=100_000, seed=11, scheme="canoma", files=10, zeta=0.8,
                cache=2, alpha=0.2, rho=10.0)
    base.update(over)
    return TrialConfig(**base)


class TestSummarize:
    def test_binomial_arithmetic(self):
        est = summarize((600_000, 700_000, 500_000), 1_000_000, metric="joint")
        assert est.p_hat == 0.5
        assert est.stderr == pytest.approx(0.0005)
        assert est.p_joint == 0.5
        assert est.p_marg_product == pytest.approx(0.42)

    def test_zero_successes_clip_low(self):
        est = summarize((0, 0, 0), 1000, metric="joint")
        assert est.p_hat == 0.0
        assert est.ci_low == 0.0

    def test_full_successes_clip_high(self):
        est = summarize((1000, 1000, 1000), 1000, metric="joint")
        assert est.p_hat == 1.0
        assert est.ci_high == 1.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ParameterError):
            summarize((0, 0, 0), 0)

    def test_rejects_counts_beyond_n(self):
        with pytest.raises(ParameterError):
            summarize((5, 0, 0), 4)

    def test_marginal_product_standard_error_is_delta_method(self):
        est = summarize((800_000, 600_000, 550_000), 1_000_000)
        p1, p2, pj, n = 0.8, 0.6, 0.55, 1_000_000
        var = (
            p2 ** 2 * p1 * (1 - p1) / n
            + p1 ** 2 * p2 * (1 - p2) / n
            + 2 * p1 * p2 * (pj - p1 * p2) / n
        )
        assert est.stderr_marg_product == pytest.approx(math.sqrt(var), rel=1e-12)


# one bad value per line, with the TrialConfig field it must be blamed on
BAD_FIELDS = [
    ("n_trials", 0),
    ("seed", -1),
    ("scheme", "tdma"),
    ("files", 0),
    ("zeta", 0.0),
    ("cache", 11),
    ("alpha", 1.0),
    ("rho", -3.0),
    ("ordering", "sorted"),
    ("metric", "median"),
    ("ordering", None),
    ("cache", 2.5),
    ("cache", True),
    ("cache", (2, 2.5)),
    ("cache", (True, 1)),
    ("cache", (1, 2, 3)),
    ("files", True),
    ("n_trials", True),
    ("zeta", None),
    ("zeta", True),
    ("zeta", "0.8"),
    ("alpha", "0.2"),
    ("alpha", True),
    ("rho", None),
    ("rho", True),
    ("thresholds", 1.0),
    ("thresholds", None),
    ("link_specs", None),
]

# TrialConfig field -> the success_prob keyword that sets it
ORACLE_KEYWORDS = {
    "scheme": "scheme",
    "files": "catalog_t",
    "zeta": "zeta",
    "cache": "capacities",
    "alpha": "alpha",
    "rho": "total",
    "ordering": "policy",
    "thresholds": "thresholds",
    "link_specs": "link_specs",
}


def oracle_kwargs(**over):
    """``success_prob`` keywords for ``config()``, the scheme among them."""
    kw = dict(scheme="canoma", catalog_t=10, zeta=0.8, capacities=(2, 2), total=10.0,
              alpha=0.2, link_specs=(DEFAULT_LINK_SPEC, DEFAULT_LINK_SPEC))
    kw.update(over)
    return kw


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", BAD_FIELDS)
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(ParameterError) as exc:
            dataclasses.replace(config(), **{field: value}).validate()
        assert exc.value.field == field

    def test_accepts_defaults(self):
        TrialConfig().validate()

    def test_catalog_beyond_memory_validates(self):
        # no array grows with T, so a catalog is bounded only by the
        # exact float range of its file indices, not by physical memory
        config(files=10**12, cache=(500, 10**9)).validate()
        config(files=2**53).validate()
        for files in (2**53 + 1, 10**400):
            with pytest.raises(ParameterError, match=r"1\.\.2\*\*53") as exc:
                config(files=files).validate()
            assert exc.value.field == "files"

    @pytest.mark.parametrize(
        "field,value",
        # success_prob reads thresholds=None as the default table
        [(f, v) for f, v in BAD_FIELDS if f in ORACLE_KEYWORDS and (f, v) != ("thresholds", None)],
    )
    def test_success_prob_refuses_what_validate_refuses(self, field, value):
        # a single capacity is a pair of equal ones to the oracle
        if field == "cache" and not isinstance(value, tuple):
            value = (value, value)
        with pytest.raises(ParameterError) as exc:
            dataclasses.replace(config(), **{field: value}).validate()
        assert exc.value.field == field
        with pytest.raises(ParameterError) as exc:
            success_prob(**oracle_kwargs(**{ORACLE_KEYWORDS[field]: value}))
        assert exc.value.field == field

    def test_success_prob_computes_a_catalog_beyond_memory(self):
        small = success_prob(**oracle_kwargs(catalog_t=10**12, capacities=(500, 500)))
        large = success_prob(**oracle_kwargs(catalog_t=10**12, capacities=(10**9, 10**9)))
        assert 0.0 < small.p_joint < large.p_joint < 1.0
        with pytest.raises(ParameterError) as exc:
            success_prob(**oracle_kwargs(catalog_t=10**400))
        assert exc.value.field == "files"

    def test_each_config_builds_its_table_once(self, monkeypatch):
        built = []
        of = ScenarioTable.of.__func__
        counted = classmethod(lambda cls, *args: built.append(args) or of(cls, *args))
        monkeypatch.setattr(ScenarioTable, "of", counted)
        cfg = config(n_trials=1000, cache=(2, 5))
        cfg.validate()
        cfg.validate()
        run_point_multi(cfg, SCHEMES)
        assert len(built) == 1
        assert cfg.table is cfg.table
        # a new config builds its own table, and the oracle's config one
        assert dataclasses.replace(cfg).table is not cfg.table
        success_prob(**oracle_kwargs())
        assert len(built) == 3

    def test_numpy_integers_are_counts(self):
        config(files=np.int64(10), cache=(np.int64(2), np.int64(2))).validate()
        numpy_ints = config(
            files=np.int64(10), cache=np.int64(2), n_trials=np.int64(100_000), seed=np.uint64(11)
        )
        assert run_point(numpy_ints) == run_point(config())

    def test_db_conversion_round_trip(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert config(rho=db_to_linear(20.0)).snr_db == pytest.approx(20.0)


class TestRunPoint:
    def test_same_seed_is_bit_identical(self):
        a = run_point(config())
        b = run_point(config())
        assert a == b

    def test_different_seed_differs(self):
        assert run_point(config()) != run_point(config(seed=12))

    def test_worker_count_never_changes_results(self):
        cfg = config(n_trials=150_000)
        est1, out1 = run_point(cfg, workers=1, return_outcomes=True)
        est3, out3 = run_point(cfg, workers=3, return_outcomes=True)
        assert est1 == est3
        np.testing.assert_array_equal(out1, out3)

    @pytest.mark.parametrize("cpus,pool_sizes", [(8, [3]), (2, [2]), (1, [])])
    def test_worker_pool_is_capped(self, monkeypatch, cpus, pool_sizes):
        # a serial stand-in for the pool: records its size, starts no thread
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(engine, "_available_cpus", lambda: cpus)
        cfg = config(n_trials=3 * CHUNK)
        for workers in (100_000, None):
            assert run_point(cfg, workers=workers) == run_point(cfg, workers=1)
        assert sizes == 2 * pool_sizes

    @pytest.mark.parametrize("over", [{}, {"ordering": "fixed"}], ids=["by-gain", "fixed"])
    def test_default_threads_give_the_serial_outcomes(self, monkeypatch, over):
        # one thread per chunk, on any machine
        monkeypatch.setattr(engine, "_available_cpus", lambda: 8)
        cfg = config(n_trials=3 * CHUNK + 17, **over)
        serial = run_point_multi(cfg, SCHEMES, workers=1, return_outcomes=True)
        threaded = run_point_multi(cfg, SCHEMES, return_outcomes=True)
        for scheme in SCHEMES:
            assert threaded[scheme][0] == serial[scheme][0]
            np.testing.assert_array_equal(threaded[scheme][1], serial[scheme][1])

    def test_concurrent_callers_get_the_serial_results(self, monkeypatch):
        # five threads per caller, more than this machine may have cores
        monkeypatch.setattr(engine, "_available_cpus", lambda: 8)
        cfgs = [config(n_trials=4 * CHUNK + 3, seed=s) for s in (5, 6)]
        want = [run_point_multi(c, SCHEMES, workers=1) for c in cfgs]
        got = [None, None]

        def call(i):
            got[i] = run_point_multi(cfgs[i], SCHEMES)

        callers = [threading.Thread(target=call, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == want

    def test_chunks_allocate_nothing_chunk_sized(self):
        # the working arrays are allocated once per run, not per chunk
        def peak(n_trials):
            cfg = config(n_trials=n_trials)
            tracemalloc.start()
            try:
                run_point_multi(cfg, SCHEMES, workers=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(CHUNK)  # numpy's own first-call allocations
        one_chunk, full = peak(CHUNK), peak(16 * CHUNK)
        assert full < 3 * 2**20
        assert full - one_chunk < 64 * 1024

    def test_vanishing_threshold_saturates(self):
        cfg = config(thresholds=DecodeThresholds(default=1e-12), cache=0)
        est = run_point(cfg)
        assert est.p_joint > 0.999

    def test_outcome_counts_match_estimate(self):
        est, out = run_point(config(), return_outcomes=True)
        assert out.shape == (100_000, 2)
        assert out.dtype == bool
        assert int(out.all(axis=1).sum()) == round(est.p_joint * est.n)

    @pytest.mark.parametrize("scheme", ["canoma", "noma", "oma-cache", "oma"])
    def test_agrees_with_oracle(self, scheme):
        cfg = config(n_trials=200_000, scheme=scheme, seed=5)
        est = run_point(cfg)
        res = success_prob(
            scheme,
            catalog_t=cfg.files,
            zeta=cfg.zeta,
            capacities=cfg.capacities,
            total=cfg.rho,
            alpha=cfg.alpha,
            link_specs=cfg.link_specs,
        )
        assert abs(est.p_joint - res.p_joint) <= 4 * est.stderr_joint
        assert abs(est.p_marg_product - res.p_marg_product) <= 4 * est.stderr_marg_product

    @pytest.mark.parametrize("ordering", ["by-gain", "fixed"])
    def test_non_default_threshold_agrees_with_oracle(self, ordering):
        # under unequal caches
        thresholds = DecodeThresholds(2.0)
        cfg = config(
            n_trials=1_000_000, seed=29, cache=(2, 4), thresholds=thresholds, ordering=ordering
        )
        estimates = run_point_multi(cfg, SCHEMES)
        for scheme in SCHEMES:
            est = estimates[scheme]
            res = success_prob(
                scheme,
                catalog_t=cfg.files,
                zeta=cfg.zeta,
                capacities=cfg.capacities,
                total=cfg.rho,
                alpha=cfg.alpha,
                thresholds=thresholds,
                link_specs=cfg.link_specs,
                policy=ordering,
            )
            assert abs(est.p_joint - res.p_joint) <= 4 * est.stderr_joint, scheme
            assert (
                abs(est.p_marg_product - res.p_marg_product) <= 4 * est.stderr_marg_product
            ), scheme

    def test_run_point_multi_shares_randomness(self):
        ests = run_point_multi(config(cache=0), ("canoma", "noma"))
        assert ests["canoma"] == ests["noma"]


class TestEngineMatchesScalarPath:
    """The engine's vectorised trials must reproduce the scalar modules.

    Rebuilds chunk 0's draws from the documented derivation
    (SeedSequence((seed, chunk)) -> SFC64; request uniforms first, then
    per-stage gammas, an integer shape m <= 3 as -log of the product of
    1 - U over m full-length uniform draws) and pushes every trial through classify + decode.
    """

    @pytest.mark.parametrize(
        "over",
        [
            {},
            THETA,
            {"cache": (2, 5)},
            {"ordering": "fixed"},
            # files from 1723 on have probability 0 and the CDF rounds to
            # 1.0 from file 1 on, so every breakpoint ties with 1.0
            {"files": 2000, "zeta": 0.01, "cache": (1500, 3)},
            {"cache": 0},
            {"cache": 10},
        ],
        ids=["default", "theta", "unequal-caches", "fixed", "zero-tail", "no-cache",
             "full-cache"],
    )
    def test_all_schemes_elementwise(self, over):
        n = 1500
        cfg = config(**{"n_trials": n, "cache": 3, "seed": 23, **over})
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence((cfg.seed, 0))))
        u = rng.random((CHUNK, 2))
        gains = []
        for spec in cfg.link_specs:
            x = np.ones(CHUNK)
            for stage in spec.stages:
                if stage.m in (1, 2, 3):
                    product = 1.0 - rng.random(CHUNK)
                    for _ in range(int(stage.m) - 1):
                        product = product * (1.0 - rng.random(CHUNK))
                    g = 0.0 - np.log(product)
                else:
                    g = rng.standard_gamma(stage.m, size=CHUNK)
                x *= g * (stage.omega / stage.m)
            gains.append(x[:n])
        profile = zipf_profile(cfg.files, cfg.zeta)
        r1 = request_from_uniform(profile, u[:n, 0])
        r2 = request_from_uniform(profile, u[:n, 1])
        caches = tuple(
            CacheContents(frozenset(range(1, c + 1)), c) for c in cfg.capacities
        )
        alloc = split_power(cfg.rho, cfg.alpha, 2)

        results = {
            scheme: run_point(dataclasses.replace(cfg, scheme=scheme), return_outcomes=True)[1]
            for scheme in SCHEMES
        }
        for t in range(n):
            trial_gains = [float(gains[0][t]), float(gains[1][t])]
            scenario = classify_scenario((int(r1[t]), int(r2[t])), caches)
            ordering = order_users(trial_gains, cfg.ordering)
            want = {
                "canoma": decode_noma(
                    trial_gains, alloc, cfg.thresholds, scenario, ordering, cache_aided=True
                ),
                "noma": decode_noma(
                    trial_gains, alloc, cfg.thresholds, scenario, ordering, cache_aided=False
                ),
                "oma-cache": decode_oma(trial_gains, cfg.rho, cfg.thresholds, scenario, cache_exploit=True),
                "oma": decode_oma(trial_gains, cfg.rho, cfg.thresholds, scenario, cache_exploit=False),
            }
            for scheme, outcome in want.items():
                got = tuple(bool(v) for v in results[scheme][t])
                assert got == outcome.ok, (scheme, t)


class TestClassesFromBreakpoints:
    def test_chunk_task_carries_no_catalog(self, monkeypatch):
        # a T-long profile would be 16 MB at T = 1e6
        sizes = []
        run_chunk = engine._run_chunk

        def measured(task, buffers):
            sizes.append(len(pickle.dumps(task)))
            return run_chunk(task, buffers)

        monkeypatch.setattr(engine, "_run_chunk", measured)
        cfg = config(n_trials=1000, files=1_000_000, cache=(1000, 300))
        run_point_multi(cfg, SCHEMES)
        assert sizes and max(sizes) < 64 * 1024


class TestFixedMemory:
    """Neither the catalog size T nor the cache size C sizes any array on
    the Monte Carlo or the oracle path."""

    @staticmethod
    def traced(call):
        """(tracemalloc peak in bytes, seconds) of one call."""
        tracemalloc.start()
        try:
            start = time.perf_counter()
            call()
            return tracemalloc.get_traced_memory()[1], time.perf_counter() - start
        finally:
            tracemalloc.stop()

    def peaks(self, files, cache):
        cfg = config(n_trials=CHUNK, files=files, cache=cache)
        kwargs = oracle_kwargs(catalog_t=files, capacities=(cache, cache))
        return (
            self.traced(lambda: run_point(cfg, workers=1)),
            self.traced(lambda: success_prob(**kwargs)),
        )

    def test_peak_does_not_grow_with_the_catalog_or_the_cache(self):
        self.peaks(10**4, 500)  # first-call allocations and the CCDF memo
        base = self.peaks(10**4, 500)
        for files, cache in [(10**8, 500), (10**9, 500), (10**9, 10**8)]:
            for (peak, seconds), (base_peak, _) in zip(self.peaks(files, cache), base):
                assert peak - base_peak <= 2**20, (files, cache, peak, base_peak)
                assert seconds < 1.0, (files, cache, seconds)


def _cells(breakpoints, u):
    table = engine._bisection_table(np.asarray(breakpoints, dtype=float))
    return engine._count_below(table, np.asarray(u, dtype=float))


class TestBisection:
    @pytest.mark.parametrize("n", range(71))
    def test_counts_like_searchsorted(self, n):
        rng = np.random.default_rng(n)
        # duplicates, and a tail of entries equal to 1.0 as in the zero-tail case
        pool = np.concatenate((rng.random(max(1, n // 3)), [0.5, 1.0]))
        breakpoints = np.sort(rng.choice(pool, n))
        u = np.concatenate(
            ([0.0, np.nextafter(1.0, 0.0)], breakpoints[breakpoints < 1.0], rng.random(500))
        )
        want = np.searchsorted(breakpoints, u, "left")
        assert np.array_equal(_cells(breakpoints, u), want)

    @settings(max_examples=200, deadline=None)
    @given(
        breakpoints=st.lists(
            st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.0, 0.25, 1.0]),
            max_size=70,
        ),
        extra=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=20),
    )
    def test_property_counts_like_searchsorted(self, breakpoints, extra):
        breakpoints = np.sort(np.asarray(breakpoints, dtype=float))
        u = np.concatenate(
            ([0.0, np.nextafter(1.0, 0.0)], breakpoints[breakpoints < 1.0], extra)
        )
        want = np.searchsorted(breakpoints, u, "left")
        assert np.array_equal(_cells(breakpoints, u), want)


def run_cli(argv):
    """(exit code, data rows) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, [line for line in out.getvalue().splitlines() if not line.startswith("#")][1:]


SNR_SWEEP = ["sweep", "--sweep", "snr_db", "--grid", "0,5,10,15,20", "--schemes", ",".join(SCHEMES)]

# CSV param -> the --sweep name of its axis in the CLI's table
SWEEP_NAMES = {param: name for name, (param, _, _) in cli._AXES.items()}


def sweep(cfg, parameter, grid, schemes=("canoma",)):
    """{(grid value, scheme): Estimate} of one shared pass over ``cfg`` at
    each grid value of the CSV ``parameter``, as the CLI builds them."""
    configs = cli._grid_configs(cfg, SWEEP_NAMES[parameter], grid)
    results = engine._simulate(configs, schemes)
    return {
        (value, scheme): estimate
        for value, per_scheme in zip(grid, results)
        for scheme, (estimate, _) in per_scheme.items()
    }


class TestDecodeTablesOncePerRun:
    def test_sweep_decodes_each_config_and_scheme_once(self, monkeypatch):
        calls = []
        decode = engine.gain_thresholds

        def counted(*args, **kwargs):
            calls.append(args[0])
            return decode(*args, **kwargs)

        monkeypatch.setattr(engine, "gain_thresholds", counted)
        assert run_cli([*SNR_SWEEP, "--trials", str(3 * CHUNK)])[0] == 0
        assert len(calls) == 5 * len(SCHEMES)


class TestSweep:
    @pytest.mark.parametrize(
        "parameter,grid",
        [("snr_db", [20, 0, 7.5]), ("cache_size", [5, 0, 2]), ("zeta", [1.6, 0.4]),
         ("catalog_t", [50, 10])],
    )
    @pytest.mark.parametrize(
        "over",
        [
            THETA,
            {"cache": (2, 5)},
            {"ordering": "fixed"},
            {"link_specs": (LinkSpec.from_pairs([(1.0, 1.0)]), DEFAULT_LINK_SPEC)},
        ],
        ids=["theta", "unequal-caches", "fixed", "heterogeneous-links"],
    )
    def test_rows_equal_per_value_points(self, parameter, grid, over):
        cfg = config(n_trials=2 * CHUNK + 99, **over)
        shared = sweep(cfg, parameter, grid, SCHEMES)
        assert len(shared) == len(grid) * len(SCHEMES)
        configs = cli._grid_configs(cfg, SWEEP_NAMES[parameter], grid)
        for value, point in zip(grid, configs):
            for scheme, est in run_point_multi(point, SCHEMES).items():
                assert shared[(value, scheme)] == est

    @pytest.mark.parametrize(
        "over",
        [{"seed": 12}, {"n_trials": 1000}, {"ordering": "fixed"},
         {"link_specs": (DEFAULT_LINK_SPEC, LinkSpec.from_pairs([(1.0, 1.0)]))}],
    )
    def test_one_run_shares_its_draws(self, over):
        with pytest.raises(ParameterError, match="must share"):
            engine._simulate([config(), config(**over)], SCHEMES)

    @pytest.mark.parametrize("schemes", [(), [], "canoma"])
    def test_no_scheme_or_a_string_is_refused_before_any_draw(self, monkeypatch, schemes):
        monkeypatch.setattr(engine, "_run_chunk", None)  # no chunk may run
        with pytest.raises(ParameterError, match="schemes must be a non-empty sequence") as exc:
            run_point_multi(TrialConfig(n_trials=1 << 22), schemes)
        assert exc.value.field == "schemes"

    def test_no_config_is_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(engine, "_run_chunk", None)  # no chunk may run
        with pytest.raises(ParameterError, match="at least one TrialConfig") as exc:
            engine._simulate([], SCHEMES)
        assert exc.value.field == "configs"

    def test_sweep_draws_each_chunk_once(self, monkeypatch):
        chunks = []
        draw = engine._chunk_generator

        def counted(seed, chunk):
            chunks.append(chunk)
            return draw(seed, chunk)

        monkeypatch.setattr(engine, "_chunk_generator", counted)
        assert run_cli([*SNR_SWEEP, "--trials", str(3 * CHUNK)])[0] == 0
        assert sorted(chunks) == [0, 1, 2]

    def test_rows_sorted_by_value_then_scheme(self):
        # a value given twice, in either spelling, is one row per scheme
        code, rows = run_cli(
            ["sweep", "--sweep", "cache", "--grid", "4,0,2,4.0,0", "--schemes", "noma,canoma",
             "--trials", "20000"]
        )
        assert code == 0
        keys = [(float(r.split(",")[1]), r.split(",")[2]) for r in rows]
        assert keys == sorted(set(keys))
        assert len(keys) == 6

    def test_zero_cache_rows_identical(self):
        shared = sweep(config(n_trials=50_000), "cache_size", [0, 2], ("canoma", "noma"))
        a, b = shared[(0, "canoma")], shared[(0, "noma")]
        assert (a.p_joint, a.p_marg_product, a.p1, a.p2) == (b.p_joint, b.p_marg_product, b.p1, b.p2)

    def test_cache_sweep_is_monotone(self):
        vals = list(sweep(config(n_trials=50_000), "cache_size", list(range(0, 11, 2))).values())
        assert all(a.p_marg_product <= b.p_marg_product for a, b in zip(vals, vals[1:]))

    def test_snr_sweep_is_monotone_for_every_scheme(self):
        grid = [0, 5, 10, 15, 20]
        shared = sweep(config(n_trials=50_000), "snr_db", grid, SCHEMES)
        for scheme in SCHEMES:
            vals = [shared[(value, scheme)].p_marg_product for value in grid]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_catalog_sweep_is_non_increasing(self):
        vals = list(sweep(config(n_trials=50_000), "catalog_t", [10, 20, 50]).values())
        assert all(a.p_marg_product >= b.p_marg_product for a, b in zip(vals, vals[1:]))

    def test_zeta_sweep_is_non_increasing(self):
        vals = list(sweep(config(n_trials=50_000), "zeta", [0.2, 0.8, 3.2]).values())
        assert all(a.p_marg_product >= b.p_marg_product for a, b in zip(vals, vals[1:]))

    def test_empty_grid_rejected(self):
        # separators alone list no value
        assert run_cli(["sweep", "--sweep", "zeta", "--grid", " , "])[0] == 2

    def test_unknown_parameter_rejected(self):
        assert run_cli(["sweep", "--sweep", "bandwidth", "--grid", "1,2"])[0] == 2

    def test_catalog_grid_must_cover_cache(self):
        with pytest.raises(ParameterError, match="1"):
            sweep(config(cache=2), "catalog_t", [1, 10])


class TestMetricsCoincideWithoutCaching:
    def test_joint_equals_marginal_product_under_fixed_ordering(self):
        # C = 0 and fixed ordering: outcomes depend on independent own
        # gains only, so the joint factorises; T large keeps coinciding
        # requests below 1e-3 (they decode identically anyway)
        cfg = config(
            n_trials=200_000, files=10_000, cache=0, ordering="fixed", seed=31
        )
        est = run_point(cfg)
        assert abs(est.p_joint - est.p_marg_product) <= 4 * est.stderr_joint
