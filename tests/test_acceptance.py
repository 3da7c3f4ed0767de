"""Acceptance suite: one test per criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
fixed here; nothing is calibrated at runtime.  The heavy criteria use
a million trials per point and finish in a few minutes total.
"""

import math
import sys
import time

import numpy as np

import canoma.engine as engine
from canoma import (
    LinkSpec,
    TrialConfig,
    db_to_linear,
    product_gain_ccdf,
    run_point_multi,
    sample_link_gain,
    success_prob,
)
from canoma.access import SCHEMES
from canoma.cli import main as cli_main

PAPER_LINK = LinkSpec.from_pairs([(1, 1), (2, 2)])
SNR_GRID_DB = (0.0, 5.0, 10.0, 15.0, 20.0)
N_TRIALS = 1_000_000
SEED = 1


def report(criterion: int, ok: bool, detail: str) -> None:
    # bypass pytest capture so the verdict line always reaches the terminal
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'} - {detail}", file=sys.__stdout__)


def base_config(**over):
    cfg = dict(
        n_trials=N_TRIALS, seed=SEED, files=10, zeta=0.8,
        cache=2, alpha=0.2, rho=10.0,
    )
    cfg.update(over)
    return TrialConfig(**cfg)


def run_scheme(scheme: str, cfg: TrialConfig, **kw):
    """``cfg``'s estimate under ``scheme`` alone, as run_point_multi gives it."""
    return run_point_multi(cfg, (scheme,), **kw)[scheme]


def oracle_for(scheme: str, cfg: TrialConfig, alpha=None):
    return success_prob(
        scheme,
        catalog_t=cfg.files,
        zeta=cfg.zeta,
        capacities=cfg.capacities,
        total=cfg.rho,
        alpha=cfg.alpha if alpha is None else alpha,
        thresholds=cfg.thresholds,
        link_specs=cfg.link_specs,
        policy=cfg.ordering,
    )


def test_criterion_1_sampler_correctness():
    started = time.monotonic()
    rng = np.random.Generator(np.random.Philox(SEED))
    draws = sample_link_gain(PAPER_LINK, rng, size=1_000_000)
    levels = np.arange(1, 21) / 21.0
    points = np.quantile(draws, levels)
    ks = max(
        abs(level - (1.0 - product_gain_ccdf(PAPER_LINK, float(x))))
        for level, x in zip(levels, points)
    )
    from scipy.special import kv

    closed_diff = max(
        abs(product_gain_ccdf(PAPER_LINK, x) - float(2.0 * x * kv(2, 2.0 * math.sqrt(x))))
        for x in (0.1, 0.5, 1.0, 2.0, 5.0)
    )
    elapsed = time.monotonic() - started
    ok = ks < 0.005 and closed_diff <= 1e-6 and elapsed < 60.0
    report(1, ok, f"sampler: KS={ks:.5f} (<0.005), closed-form diff={closed_diff:.2e} "
                  f"(<=1e-6), runtime={elapsed:.1f}s (<60s)")
    assert ks < 0.005
    assert closed_diff <= 1e-6
    assert elapsed < 60.0


def test_criterion_2_dual_method_agreement():
    worst = 0.0
    worst_at = None
    checks = 0
    for snr_db in SNR_GRID_DB:
        for zeta in (0.4, 0.8, 1.6):
            for files, cache in ((10, 0), (10, 2), (10, 5), (50, 2)):
                cfg = base_config(files=files, cache=cache, zeta=zeta, rho=db_to_linear(snr_db))
                estimates = run_point_multi(cfg, SCHEMES)
                for scheme in SCHEMES:
                    est = estimates[scheme]
                    oracle = oracle_for(scheme, cfg)
                    for metric, p_mc, p_or, se in (
                        ("joint", est.p_joint, oracle.p_joint, est.stderr_joint),
                        ("marg-product", est.p_marg_product, oracle.p_marg_product,
                         est.stderr_marg_product),
                    ):
                        delta = abs(p_mc - p_or)
                        checks += 1
                        assert delta <= 4.0 * se, (snr_db, zeta, files, cache, scheme, metric)
                        z = delta / se if se > 0 else (0.0 if delta == 0.0 else math.inf)
                        if z > worst:
                            worst, worst_at = z, (snr_db, zeta, files, cache, scheme, metric)
    report(2, True, f"dual-method agreement: {checks} checks at 1e6 trials, "
                    f"worst |delta|/stderr={worst:.2f} (<=4) at {worst_at}")


def test_criterion_3_zero_cache_equivalence():
    identical = True
    for snr_db in SNR_GRID_DB:
        cfg = base_config(cache=0, rho=db_to_linear(snr_db))
        results = run_point_multi(cfg, ("canoma", "noma"), return_outcomes=True)
        est_a, out_a = results["canoma"]
        est_b, out_b = results["noma"]
        identical = identical and est_a == est_b and bool(np.array_equal(out_a, out_b))
    report(3, identical, "zero-cache: cache-aided and conventional NOMA bit-identical "
                         f"per-trial outcomes and estimates over SNR grid {SNR_GRID_DB}")
    assert identical


def test_criterion_4_cache_and_catalog_trends():
    joint = {}
    for files in (10, 50):
        for cache in range(0, 11):
            cfg = base_config(files=files, cache=cache)
            _, out = run_scheme("canoma", cfg, return_outcomes=True)
            joint[(files, cache)] = out
    cache_flips = sum(
        int((joint[(files, c)] & ~joint[(files, c + 1)]).sum())
        for files in (10, 50)
        for c in range(0, 10)
    )
    catalog_flips = sum(
        int((joint[(50, c)] & ~joint[(10, c)]).sum()) for c in range(0, 11)
    )
    ok = cache_flips == 0 and catalog_flips == 0
    report(4, ok, "cache-size/catalog trends: per-trial outcome flips along C="
                  f"{cache_flips}, along T={catalog_flips} (both must be 0)")
    assert cache_flips == 0
    assert catalog_flips == 0


def test_criterion_5_popularity_and_snr_trends():
    zeta_flips = 0
    prev = None
    for zeta in (0.2, 0.4, 0.8, 1.6, 3.2):
        _, out = run_scheme("canoma", base_config(zeta=zeta), return_outcomes=True)
        if prev is not None:
            zeta_flips += int((out & ~prev).sum())
        prev = out
    snr_flips = 0
    prev_by_scheme = {}
    for snr_db in SNR_GRID_DB:
        cfg = base_config(rho=db_to_linear(snr_db))
        results = run_point_multi(cfg, SCHEMES, return_outcomes=True)
        for scheme in SCHEMES:
            _, out = results[scheme]
            if scheme in prev_by_scheme:
                snr_flips += int((prev_by_scheme[scheme] & ~out).sum())
            prev_by_scheme[scheme] = out
    ok = zeta_flips == 0 and snr_flips == 0
    report(5, ok, "popularity/SNR trends: per-trial outcome flips along zeta="
                  f"{zeta_flips}, along SNR over all schemes={snr_flips} (both must be 0)")
    assert zeta_flips == 0
    assert snr_flips == 0


def test_criterion_6_infeasibility_boundary():
    ok = True
    for snr_db in SNR_GRID_DB:
        cfg = base_config(cache=0, alpha=0.5, rho=db_to_linear(snr_db))
        est = run_scheme("noma", cfg)
        oracle = oracle_for("noma", cfg)
        ok = ok and est.p2 == 0.0 and oracle.p2 == 0.0
    report(6, ok, "infeasibility boundary: alpha=0.5, C=0 -> weak-vehicle marginal "
                  "exactly 0 in MC (every trial) and oracle (infeasible) at every SNR")
    assert ok


def test_criterion_7_saturation():
    ok = True
    for snr_db in SNR_GRID_DB:
        cfg = base_config(files=10, cache=10, rho=db_to_linear(snr_db))
        estimates = run_point_multi(cfg, SCHEMES)
        for scheme in SCHEMES:
            est = estimates[scheme]
            ok = ok and est.p1 == est.p2 == est.p_joint == est.p_marg_product == 1.0
    report(7, ok, "saturation: C=T gives p=1 exactly for every scheme at every SNR")
    assert ok


def test_criterion_8_reproducibility(monkeypatch):
    import io
    from contextlib import redirect_stdout

    args = [
        "sweep", "--sweep", "snr_db", "--grid", "0,10,20", "--schemes",
        "canoma,noma,oma-cache,oma", "--zeta", "0.8", "--files", "10",
        "--cache", "2", "--trials", "200000", "--seed", "7",
    ]

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(args)
        assert code == 0
        return [l for l in buf.getvalue().splitlines() if not l.startswith("#")]

    monkeypatch.setattr(engine, "_available_cpus", lambda: 1)
    rows_a = run()
    rows_b = run()
    # 200000 trials are 4 chunks: one thread each
    monkeypatch.setattr(engine, "_available_cpus", lambda: 8)
    monkeypatch.setattr(engine, "_CHUNKS_PER_THREAD", 1)
    rows_c = run()
    ok = rows_a == rows_b == rows_c
    report(8, ok, "reproducibility: sweep re-run and 4-thread run emit "
                  "byte-identical CSV data rows")
    assert ok
