"""The benchmark's workloads: inputs from a seed, one op, output checks.

Every op calls canoma's public API (``canoma.run_point_multi``,
``canoma.success_prob``, ``canoma.cli.main``) with the library defaults
and no ``workers`` argument, so an op runs on one core of this process.
The module must be imported after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import canoma
import canoma.cli

SCHEMES = ("canoma", "noma", "oma-cache", "oma")
ALPHA = 0.2
SNR_GRID = (0.0, 5.0, 10.0, 15.0, 20.0)
SMALLEST_TRIALS = 1 << 16  # one engine chunk
Z_LIMIT = 4.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Point:
    files: int
    cache: int
    zeta: float
    snr_db: float


# The README configuration: T=10, C=2, zeta=0.8, 10 dB (alpha=0.2, by-gain).
FIGURE = Point(files=10, cache=2, zeta=0.8, snr_db=10.0)


@dataclass(frozen=True)
class MCResult:
    """One Monte Carlo estimate as (strong, weak, joint) success counts."""

    op: int
    point: Point
    scheme: str
    seed: int
    n: int
    counts: tuple[int, int, int]


@dataclass(frozen=True)
class OracleValue:
    point: Point
    scheme: str
    p1: float
    p2: float
    p_joint: float
    p_marg_product: float


def mc_config(point: Point, trials: int, seed: int) -> canoma.TrialConfig:
    return canoma.TrialConfig(
        n_trials=trials,
        seed=seed,
        files=point.files,
        zeta=point.zeta,
        cache=point.cache,
        alpha=ALPHA,
        rho=canoma.db_to_linear(point.snr_db),
    )


def oracle(point: Point, scheme: str):
    return canoma.success_prob(
        scheme,
        catalog_t=point.files,
        zeta=point.zeta,
        capacities=(point.cache, point.cache),
        total=canoma.db_to_linear(point.snr_db),
        alpha=ALPHA,
        link_specs=(canoma.DEFAULT_LINK_SPEC, canoma.DEFAULT_LINK_SPEC),
    )


def _counts(est, n: int) -> tuple[int, int, int]:
    # the estimate holds count / n; n < 2**53, so rounding recovers the count
    return tuple(round(p * n) for p in (est.p1, est.p2, est.p_joint))


def _mc_results(k, point, seed, n, estimates) -> list[MCResult]:
    return [MCResult(k, point, s, seed, n, _counts(est, n)) for s, est in estimates.items()]


def _oracle_value(point, scheme, res) -> OracleValue:
    return OracleValue(point, scheme, res.p1, res.p2, res.p_joint, res.p_marg_product)


def _sweep_argv(grid: str, trials: int, seed: int) -> list[str]:
    return [
        "sweep", "--sweep", "snr_db", "--grid", grid, "--schemes", ",".join(SCHEMES),
        "--files", str(FIGURE.files), "--cache", str(FIGURE.cache),
        "--zeta", str(FIGURE.zeta), "--alpha", str(ALPHA),
        "--trials", str(trials), "--seed", str(seed),
    ]


def _run_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = canoma.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"canoma {argv[0]} exited {code}")
    return buf.getvalue()


class Workload:
    """One closed-loop client: op k runs on ``input(k)`` after op k-1 ends."""

    name = ""
    results_per_op = 0  # (point, scheme) results one op produces
    trials_per_op = 0  # trial x scheme x grid-value decodes one op makes

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def _rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def input(self, k: int):
        raise NotImplementedError

    def op(self, inp):
        """The timed call."""
        raise NotImplementedError

    def results(self, k: int, inp, out) -> tuple[list[MCResult], list[OracleValue]]:
        """Monte Carlo and oracle results of one op (untimed)."""
        raise NotImplementedError

    def op_failures(self, records) -> dict[int, str]:
        """Workload-specific per-op checks: {op index: reason}."""
        return {}


class MCPoint(Workload):
    """One 2^20-trial point, all schemes: the Monte Carlo hot path."""

    name = "mc-point"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.trials = SMALLEST_TRIALS if smoke else 1 << 20
        self.results_per_op = len(SCHEMES)
        self.trials_per_op = self.trials * len(SCHEMES)

    def input(self, k):
        return self.seed + k  # the Monte Carlo seed

    def op(self, inp):
        return canoma.run_point_multi(mc_config(FIGURE, self.trials, inp), SCHEMES)

    def results(self, k, inp, out):
        return _mc_results(k, FIGURE, inp, self.trials, out), []


class SnrSweep(Workload):
    """The 5x4 SNR figure sweep through ``cli.main``; grid values share draws."""

    name = "snr-sweep"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.trials = SMALLEST_TRIALS if smoke else 1 << 20
        self.results_per_op = len(SNR_GRID) * len(SCHEMES)
        self.trials_per_op = self.trials * self.results_per_op

    def input(self, k):
        # ops 2j and 2j+1 share a seed, so every CSV is produced twice
        return self.seed + k // 2

    def op(self, inp):
        grid = ",".join(format(v, "g") for v in SNR_GRID)
        return _run_cli(_sweep_argv(grid, self.trials, inp))

    @staticmethod
    def data_rows(out: str) -> list[str]:
        return [line for line in out.splitlines() if line and not line.startswith("#")]

    def results(self, k, inp, out):
        rows = self.data_rows(out)
        header = rows[0].split(",")
        mc = []
        for line in rows[1:]:
            row = dict(zip(header, line.split(",")))
            n = int(row["trials"])
            # 9 significant digits resolve counts up to 2**20 exactly
            counts = tuple(round(float(row[c]) * n) for c in ("p1", "p2", "p_joint"))
            point = Point(FIGURE.files, FIGURE.cache, FIGURE.zeta, float(row["value"]))
            mc.append(MCResult(k, point, row["scheme"], int(row["seed"]), n, counts))
        if len(mc) != self.results_per_op:
            raise ValueError(f"sweep printed {len(mc)} rows, expected {self.results_per_op}")
        return mc, []

    def op_failures(self, records):
        first: dict[int, tuple[int, list[str]]] = {}
        bad = {}
        for k, inp, out, err in records:
            if err is not None:
                continue
            rows = self.data_rows(out)
            if inp not in first:
                first[inp] = (k, rows)
            elif rows != first[inp][1]:
                bad[k] = bad[first[inp][0]] = f"CSV rows differ between ops with seed {inp}"
        return bad


class LargeCatalog(Workload):
    """T log-uniform in [1e4, 1e6]: the content layer dominates.

    SNR is drawn per op, so the oracle's quadrature runs cold on every
    op, as it does in every CLI process.
    """

    name = "large-catalog"

    results_per_op = 2  # one Monte Carlo and one oracle value of canoma

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.trials = SMALLEST_TRIALS if smoke else 1 << 18
        self.trials_per_op = self.trials
        # smoke mode keeps the catalog tiny; the real range is [1e4, 1e6]
        self.log_t = (3.0, 4.0) if smoke else (4.0, 6.0)
        self.shift = float(self._rng().uniform())

    def input(self, k):
        # log T follows a randomly shifted golden-ratio sequence: every run
        # covers the range evenly, so its median op does not hinge on a few draws
        lo, hi = self.log_t
        frac = (self.shift + k * GOLDEN) % 1.0
        files = int(round(10.0 ** (lo + (hi - lo) * frac)))
        rng = self._rng(k)
        cache = int(rng.integers(1, min(files, 1000) + 1))
        return Point(files, cache, FIGURE.zeta, float(rng.uniform(0.0, 20.0))), self.seed + k

    def op(self, inp):
        point, seed = inp
        est = canoma.run_point_multi(mc_config(point, self.trials, seed), ("canoma",))
        return est, oracle(point, "canoma")

    def results(self, k, inp, out):
        (point, seed), (est, res) = inp, out
        return _mc_results(k, point, seed, self.trials, est), [_oracle_value(point, "canoma", res)]


WORKLOADS = {w.name: w for w in (MCPoint, SnrSweep, LargeCatalog)}


def smallest_call(name: str) -> None:
    """The workload's smallest call: one 65536-trial chunk and/or one T=10 oracle point."""
    if name == "snr-sweep":
        _run_cli(_sweep_argv("10", SMALLEST_TRIALS, 1))
    if name == "mc-point":
        canoma.run_point_multi(mc_config(FIGURE, SMALLEST_TRIALS, 1), SCHEMES)
    if name == "large-catalog":
        canoma.run_point_multi(mc_config(FIGURE, SMALLEST_TRIALS, 1), ("canoma",))
        oracle(FIGURE, "canoma")


def _estimates(counts: tuple[int, int, int], n: int) -> dict[str, tuple[float, float]]:
    """{quantity: (p_hat, stderr)} for every probability the program reports;
    the marginal product's error comes from the delta method."""
    p1, p2, pj = (c / n for c in counts)
    cov = (pj - p1 * p2) / n
    var_mp = (p2 * p2 * p1 * (1 - p1) + p1 * p1 * p2 * (1 - p2)) / n + 2 * p1 * p2 * cov
    return {
        "p1": (p1, math.sqrt(p1 * (1 - p1) / n)),
        "p2": (p2, math.sqrt(p2 * (1 - p2) / n)),
        "joint": (pj, math.sqrt(pj * (1 - pj) / n)),
        "marg-product": (p1 * p2, math.sqrt(max(var_mp, 0.0))),
    }


def _exact(v: OracleValue) -> dict[str, float]:
    return {"p1": v.p1, "p2": v.p2, "joint": v.p_joint, "marg-product": v.p_marg_product}


def check(workload: Workload, records) -> tuple[dict[int, str], list[str]]:
    """Check every op's outputs (untimed).

    ``records`` holds ``(k, input, output, error)`` per op.  Returns
    ``({failed op: reason}, pooled-check report lines)``.

    Monte Carlo is compared with the oracle per scheme and reported
    probability (p1, p2, joint, marginal product) by the pooled
    statistic sum(p_hat - p) / sqrt(sum se^2), which must stay within 4.  Estimates drawn from one seed share random numbers (the
    grid values of a sweep), so they are first summed into one block
    whose standard error is the sum of theirs -- a bound that holds
    under any correlation -- and only independent blocks are pooled in
    quadrature.
    """
    failed = {k: f"raised {err}" for k, _, _, err in records if err is not None}
    mc: list[MCResult] = []
    oracle_values: dict[tuple[Point, str], OracleValue] = {}
    for k, inp, out, err in records:
        if err is not None:
            continue
        try:
            m, o = workload.results(k, inp, out)
        except (ValueError, KeyError) as exc:
            failed[k] = f"unreadable output: {exc}"
            continue
        for r in m:
            if not all(0 <= c <= r.n for c in r.counts):
                failed[k] = f"{r.scheme} count outside 0..{r.n}"
        for v in o:
            if not all(0.0 <= p <= 1.0 for p in _exact(v).values()):
                failed[k] = f"{v.scheme} oracle probability outside [0, 1]"
            oracle_values[(v.point, v.scheme)] = v
        mc += m
    failed.update(workload.op_failures(records))

    # repeated ops with one seed give one estimate, made by all of them
    unique: dict[tuple, MCResult] = {}
    makers: dict[tuple, set[int]] = defaultdict(set)
    for r in mc:
        if r.op not in failed:
            unique[(r.seed, r.point, r.scheme)] = r
            makers[(r.seed, r.point, r.scheme)].add(r.op)
    blocks = defaultdict(lambda: [0.0, 0.0, set()])  # (scheme, metric, seed) -> [sum d, sum se, ops]
    for key_mc, r in unique.items():
        key = (r.point, r.scheme)
        if key not in oracle_values:
            oracle_values[key] = _oracle_value(r.point, r.scheme, oracle(r.point, r.scheme))
        exact = _exact(oracle_values[key])
        for metric, (p_hat, se) in _estimates(r.counts, r.n).items():
            block = blocks[(r.scheme, metric, r.seed)]
            block[0] += p_hat - exact[metric]
            block[1] += se
            block[2] |= makers[key_mc]

    pooled = defaultdict(lambda: [0.0, 0.0, set(), 0])  # (scheme, metric) -> [sum d, sum se^2, ops, blocks]
    for (scheme, metric, _), (d, se, ops) in blocks.items():
        acc = pooled[(scheme, metric)]
        acc[0] += d
        acc[1] += se * se
        acc[2] |= ops
        acc[3] += 1
    lines = []
    for (scheme, metric), (d, var, ops, count) in sorted(pooled.items()):
        if var > 0:
            z = d / math.sqrt(var)
        else:
            z = 0.0 if abs(d) < 1e-12 else math.inf
        ok = abs(z) <= Z_LIMIT
        lines.append(f"{scheme} {metric}: pooled z {z:+.3f} over {count} seeds ({'pass' if ok else 'FAIL'})")
        if not ok:
            for k in ops:
                failed.setdefault(k, f"{scheme} {metric} pooled |z| {abs(z):.2f} > {Z_LIMIT}")
    return failed, lines
