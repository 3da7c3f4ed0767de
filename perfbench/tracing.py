"""Traced run: spans around canoma's public functions, and a layer-by-layer
replay of the engine's chunk pipeline on the engine's own Philox streams.

Spans come from this file only: the tracer swaps a timing wrapper in for
each function listed in ``WRAPPED`` wherever a canoma module refers to
it, for the length of one op.  The engine fuses uniforms, gamma draws,
request mapping, decoding and counting inside one private chunk
function, so those layers are timed by ``Replay``, which rebuilds the
pipeline from the public ``sample_link_gain``, ``request_from_uniform``
and pair decoders and must reproduce the engine's counts exactly.

A function that a later version of canoma no longer has marks its layer
metrics missing instead of failing the run.
"""

from __future__ import annotations

import contextlib
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import canoma
import workloads

MI = 1 << 20  # per-trial layer times are reported per 2^20 trials

# (defining module, attribute, span name)
WRAPPED = (
    ("canoma.cli", "main", "cli.main"),
    ("canoma.engine", "sweep", "engine.sweep"),
    ("canoma.engine", "run_point_multi", "engine.run_point_multi"),
    ("canoma.content", "zipf_profile", "content.profile"),
    ("canoma.content", "scenario_distribution", "content.scenario_dist"),
    ("canoma.oracle", "success_prob", "oracle.success_prob"),
    ("canoma.oracle", "reduce_to_gain_event", "oracle.reduce"),
    ("canoma.oracle", "conditional_success_prob", "oracle.combine"),
    ("canoma.oracle", "product_gain_ccdf", "oracle.ccdf"),
)
SPAN_METRICS = {
    "cli.main": ("cli.self_s",),
    "engine.run_point_multi": ("engine.self_s",),
    "content.profile": ("content.profile_s",),
    "content.scenario_dist": ("content.scenario_dist_s",),
    "oracle.success_prob": ("oracle.self_s",),
    "oracle.reduce": ("oracle.reduce_s",),
    "oracle.combine": ("oracle.combine_s",),
    "oracle.ccdf": ("oracle.ccdf_s", "oracle.ccdf_calls", "oracle.ccdf_cold", "oracle.tail_rel_err"),
}
# replay stages in pipeline order, with the metrics each one yields
STAGE_METRICS = {
    "engine.uniform": ("engine.uniform_s", "engine.chunks"),
    "channel.gain": ("channel.gain_s",),
    "content.request_map": ("content.request_map_s",),
    "access.decode": tuple(f"access.decode_s.{s}" for s in workloads.SCHEMES) + ("access.decode_calls",),
    "engine.aggregate": ("engine.aggregate_s",),
}
# closed form of P(G1*G2 > x) for the default link Gamma(1,1) x Gamma(2,1):
# 2x K_2(2 sqrt(x)); checked up to the deep tail, where quadrature is known to drift
TAIL_X = (1.0, 10.0, 100.0, 400.0, 1000.0)

PER_LAYER_UNITS = {
    "engine.uniform_s": "s/Mi_trials",
    "channel.gain_s": "s/Mi_trials",
    "content.request_map_s": "s/Mi_trials",
    **{f"access.decode_s.{s}": "s/Mi_trials" for s in workloads.SCHEMES},
    "engine.aggregate_s": "s/Mi_trials",
    "access.decode_calls": "count/op",
    "engine.chunks": "count/op",
    "engine.self_s": "s/op",
    "cli.self_s": "s/op",
    "content.profile_s": "s/op",
    "content.scenario_dist_s": "s/op",
    "oracle.ccdf_s": "s/op",
    "oracle.ccdf_calls": "count/op",
    "oracle.ccdf_cold": "count/op",
    "oracle.reduce_s": "s/op",
    "oracle.combine_s": "s/op",
    "oracle.self_s": "s/op",
    "oracle.tail_rel_err": "ratio",
    "setup.numpy_s": "s",
    "setup.scipy_s": "s",
    "setup.canoma_s": "s",
    "trace.overhead_s": "s/op",
}


def _canoma_modules():
    return [m for name, m in list(sys.modules.items()) if name == "canoma" or name.startswith("canoma.")]


class Tracer:
    """Spans in memory as [op, name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self.ccdf_calls = 0
        self._ccdf_seen: set = set()
        self.originals = {}
        self.missing: set[str] = set()
        for module, attr, span in WRAPPED:
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                self.missing.add(span)
            else:
                self.originals[span] = fn

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [self._op, name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            if name == "oracle.ccdf":
                self.ccdf_calls += 1
                self._ccdf_seen.add((args, tuple(kwargs.items())))
            return self.call(name, fn, *args, **kwargs)

        return traced

    @property
    def ccdf_cold(self) -> int:
        return len(self._ccdf_seen)

    @contextlib.contextmanager
    def installed(self, op: int):
        """Swap the wrappers in for one op, then restore the originals."""
        self._op = op
        by_id = {id(fn): (fn, self._wrapper(name, fn)) for name, fn in self.originals.items()}
        patched = []
        for module in _canoma_modules():
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)

    def layer_seconds(self) -> tuple[dict[str, float], dict[str, float]]:
        """({span name: total seconds}, {span name: self seconds})."""
        total: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for op, name, start, end, parent in self.spans:
            total[name] += end - start
            if parent is not None:
                covered[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (op, name, start, end, parent), cov in zip(self.spans, covered):
            own[name] += end - start - cov
        return total, own


class Replay:
    """The engine's chunk pipeline, one layer at a time, on the same streams.

    Stages run in ``STAGE_METRICS`` order; the first stage whose function
    is gone and every later stage are missing, and a replay that stops
    before aggregation returns no counts.
    """

    def __init__(self) -> None:
        access, content, channel = canoma.access, canoma.content, canoma.channel
        self.chunk = getattr(canoma.engine, "CHUNK", None)
        self.fn = {
            "gain": getattr(channel, "sample_link_gain", None),
            "request": getattr(content, "request_from_uniform", None),
            "profile": getattr(content, "zipf_profile", None),
            "table": getattr(access.DecodeThresholds, "table", None),
            "noma": getattr(access, "noma_pair_outcomes", None),
            "oma": getattr(access, "oma_pair_outcomes", None),
        }
        needs = {
            "engine.uniform": (self.chunk,),
            "channel.gain": (self.fn["gain"],),
            "content.request_map": (self.fn["request"], self.fn["profile"], self.fn["table"]),
            "access.decode": (self.fn["noma"], self.fn["oma"]),
            "engine.aggregate": (),
        }
        self.stages: list[str] = []
        for stage, fns in needs.items():
            if any(f is None for f in fns):
                break
            self.stages.append(stage)
        self.missing = set(STAGE_METRICS) - set(self.stages)
        self.seconds: dict[str, float] = defaultdict(float)
        self.trials = 0
        self.scheme_trials: dict[str, int] = defaultdict(int)
        self.chunks = 0
        self.decode_calls = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def _decode(self, scheme, cfg, x1, x2, th1, th2, hit1, hit2, c21, c12):
        if scheme in ("canoma", "noma"):
            ok1, ok2, _ = self.fn["noma"](
                x1, x2, cfg.rho, cfg.alpha, th1, th2, hit1, hit2, c21, c12,
                cache_aided=(scheme == "canoma"),
                ordering=cfg.ordering,
                self_hit_power=cfg.self_hit_power,
            )
            return ok1, ok2
        return self.fn["oma"](
            x1, x2, cfg.rho, th1, th2, hit1, hit2, cache_exploit=(scheme == "oma-cache")
        )

    def run(self, cfg: canoma.TrialConfig, schemes) -> dict[str, tuple[int, int, int]] | None:
        """Replay one ``run_point_multi(cfg, schemes)``; {scheme: counts} or None."""
        if not self.stages:
            return None
        chunk, clock, stages = self.chunk, time.perf_counter, self.stages
        if "content.request_map" in stages:
            profile = self.fn["profile"](cfg.files, cfg.zeta, cfg.zipf_convention)
            th_table = self.fn["table"](cfg.thresholds, cfg.files)
            cap1, cap2 = cfg.capacities
        counts = {s: [0, 0, 0] for s in schemes}
        n = cfg.n_trials
        for c in range((n + chunk - 1) // chunk):
            length = min(chunk, n - c * chunk)
            t0 = clock()
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((cfg.seed, c))))
            u = rng.random((chunk, 2))
            t1 = clock()
            self.seconds["engine.uniform"] += t1 - t0
            self.chunks += 1
            self.trials += length
            if "channel.gain" not in stages:
                continue
            x1, x2 = (self.fn["gain"](spec, rng, chunk)[:length] for spec in cfg.link_specs)
            t2 = clock()
            self.seconds["channel.gain"] += t2 - t1
            if "content.request_map" not in stages:
                continue
            r1 = self.fn["request"](profile, u[:length, 0])
            r2 = self.fn["request"](profile, u[:length, 1])
            flags = (r1 <= cap1, r2 <= cap2, r1 <= cap2, r2 <= cap1)  # hit1, hit2, c21, c12
            th1, th2 = th_table[r1 - 1], th_table[r2 - 1]
            t3 = clock()
            self.seconds["content.request_map"] += t3 - t2
            if "access.decode" not in stages:
                continue
            outcomes = {}
            for scheme in schemes:
                t4 = clock()
                outcomes[scheme] = self._decode(scheme, cfg, x1, x2, th1, th2, *flags)
                self.seconds[f"access.decode.{scheme}"] += clock() - t4
                self.scheme_trials[scheme] += length
                self.decode_calls += 1
            t5 = clock()
            strong_is_1 = x1 >= x2 if cfg.ordering == "by-gain" else np.ones(length, dtype=bool)
            for scheme, (ok1, ok2) in outcomes.items():
                ok_strong = np.where(strong_is_1, ok1, ok2)
                ok_weak = np.where(strong_is_1, ok2, ok1)
                acc = counts[scheme]
                acc[0] += int(ok_strong.sum())
                acc[1] += int(ok_weak.sum())
                acc[2] += int((ok1 & ok2).sum())
            self.seconds["engine.aggregate"] += clock() - t5
        if "engine.aggregate" not in stages:
            return None
        return {s: tuple(v) for s, v in counts.items()}


class ReplayMismatch(Exception):
    pass


class TracedRunner:
    """Runs ops alternately untraced (even k) and traced (odd k).

    A traced op is followed, outside its timing, by the replay of every
    Monte Carlo estimate it produced; the replay's counts must equal the
    engine's.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.tracer = Tracer()
        self.replay = Replay()
        self.untraced: list[float] = []
        self.traced: list[float] = []
        self.replay_checks = 0

    def __call__(self, k: int, inp):
        if k % 2 == 0:
            t0 = time.perf_counter()
            out = self.workload.op(inp)
            self.untraced.append(time.perf_counter() - t0)
            return out, self.untraced[-1]
        with self.tracer.installed(k):
            t0 = time.perf_counter()
            out = self.tracer.call("op", self.workload.op, inp)
            self.traced.append(time.perf_counter() - t0)
        mc, _ = self.workload.results(k, inp, out)
        runs = defaultdict(dict)
        for r in mc:
            runs[(r.point, r.seed, r.n)][r.scheme] = r.counts
        for (point, seed, n), engine_counts in runs.items():
            got = self.replay.run(workloads.mc_config(point, n, seed), tuple(engine_counts))
            if got is not None:
                self.replay_checks += 1
                if got != engine_counts:
                    raise ReplayMismatch(f"replay counts {got} != engine counts {engine_counts}")
        return out, self.traced[-1]

    def metrics(self, setup: dict[str, float]) -> tuple[dict[str, float], set[str]]:
        """(per-layer values, names of metrics whose layer is gone)."""
        ops = max(len(self.traced), 1)
        total, own = self.tracer.layer_seconds()
        rep = self.replay

        def per_mi(seconds: float, trials: int) -> float:
            return seconds / (trials / MI) if trials else 0.0

        engine_self = sum(v for name, v in own.items() if name.startswith("engine."))
        values = {
            "engine.uniform_s": per_mi(rep.seconds["engine.uniform"], rep.trials),
            "channel.gain_s": per_mi(rep.seconds["channel.gain"], rep.trials),
            "content.request_map_s": per_mi(rep.seconds["content.request_map"], rep.trials),
            **{
                f"access.decode_s.{s}": per_mi(rep.seconds[f"access.decode.{s}"], rep.scheme_trials[s])
                for s in workloads.SCHEMES
            },
            "engine.aggregate_s": per_mi(rep.seconds["engine.aggregate"], rep.trials),
            "access.decode_calls": rep.decode_calls / ops,
            "engine.chunks": rep.chunks / ops,
            "engine.self_s": (engine_self - rep.total_seconds) / ops if engine_self else 0.0,
            "cli.self_s": own["cli.main"] / ops,
            "content.profile_s": total["content.profile"] / ops,
            "content.scenario_dist_s": total["content.scenario_dist"] / ops,
            "oracle.ccdf_s": total["oracle.ccdf"] / ops,
            "oracle.ccdf_calls": self.tracer.ccdf_calls / ops,
            "oracle.ccdf_cold": self.tracer.ccdf_cold / ops,
            "oracle.reduce_s": total["oracle.reduce"] / ops,
            "oracle.combine_s": own["oracle.combine"] / ops,
            "oracle.self_s": own["oracle.success_prob"] / ops,
            "oracle.tail_rel_err": tail_rel_err(self.tracer.originals.get("oracle.ccdf")),
            **setup,
            "trace.overhead_s": statistics.median(self.traced) - statistics.median(self.untraced),
        }
        missing = set()
        for span in self.tracer.missing:
            missing.update(SPAN_METRICS.get(span, ()))
        for stage in rep.missing:
            missing.update(STAGE_METRICS[stage])
        for name in missing:
            values[name] = 0.0
        return values, missing


def tail_rel_err(product_gain_ccdf) -> float:
    """Largest relative error of the product-gain CCDF against its closed form."""
    if product_gain_ccdf is None:
        return 0.0
    from scipy.special import kv

    spec = canoma.DEFAULT_LINK_SPEC
    worst = 0.0
    for x in TAIL_X:
        exact = 2.0 * x * kv(2, 2.0 * np.sqrt(x))
        worst = max(worst, abs(product_gain_ccdf(spec, x) - exact) / exact)
    return float(worst)


def import_probe(env: dict[str, str]):
    """A probe running ``python -X importtime -c 'import canoma'``; returns
    (probe, list of {metric: seconds}).  numpy and scipy are the summed self
    time of their modules, canoma the cumulative time of the whole import."""
    samples: list[dict[str, float]] = []

    def probe() -> None:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import canoma"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        us = defaultdict(int)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if not line.startswith("import time:") or len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            name = fields[2].strip()
            root = name.split(".")[0]
            if root in ("numpy", "scipy"):
                us[root] += int(fields[0])
            if name == "canoma":
                us["canoma"] = int(fields[1])
        samples.append({f"setup.{key}_s": us[key] / 1e6 for key in ("numpy", "scipy", "canoma")})

    return probe, samples


def median_import_seconds(samples: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
