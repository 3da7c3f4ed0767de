"""canoma benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload mc-point --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src`` next to this
directory.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1``
the per-layer ones (see README.md), and ``--smoke`` runs each workload
once at tiny sizes.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are a readable report.  The exit code is 0 only when
every op ran and every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mc-point", "snr-sweep", "large-catalog")

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_REPEATS = 7


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_probe(workload: str):
    """A probe timing one fresh interpreter importing canoma and making the
    workload's smallest call; returns (probe, list of wall times)."""
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import workloads; workloads.smallest_call({workload!r})"
    times: list[float] = []

    def probe() -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=120, check=True)
        times.append(time.perf_counter() - t0)

    return probe, times


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, latency) of the highest percentile with at least ten ops
    beyond it: the 11th-largest latency.  Below 20 ops even the median has
    fewer than ten beyond it, and the largest latency is reported."""
    n = len(times)
    if n < 20:
        return 100.0, max(times)
    return 100.0 * (n - 10) / n, sorted(times)[-11]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(canoma, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "chunk": getattr(canoma.engine, "CHUNK", None),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def run_loop(workload, runner, seconds: float, min_ops: int, probe, probes: int):
    """Closed loop: op k+1 starts when op k ends.  ``probe`` runs ``probes``
    times, spread evenly over the measured time and excluded from it, so
    that set-up samples see the same machine as the ops.  Returns per-op
    records ``(k, input, output, error)`` and latencies."""
    records, times = [], []
    start = time.perf_counter()
    paused = 0.0
    taken = k = 0
    while k < min_ops or time.perf_counter() - start - paused < seconds:
        if taken < probes and time.perf_counter() - start - paused >= taken * seconds / probes:
            t0 = time.perf_counter()
            probe()
            paused += time.perf_counter() - t0
            taken += 1
        inp = workload.input(k)
        t0 = time.perf_counter()
        try:
            out, elapsed = runner(k, inp)
            err = None
        except Exception:
            out, elapsed = None, time.perf_counter() - t0
            err = traceback.format_exc(limit=3).strip().splitlines()[-1]
        records.append((k, inp, out, err))
        times.append(elapsed)
        k += 1
    for _ in range(taken, probes):
        probe()
    return records, times


def plain_runner(workload):
    def run(k, inp):
        t0 = time.perf_counter()
        out = workload.op(inp)
        return out, time.perf_counter() - t0

    return run


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="one op per workload at tiny sizes")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "canoma" / "__init__.py").is_file():
        print(f"error: no canoma sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import canoma

    if Path(canoma.__file__).resolve().parent != SRC / "canoma":
        print(f"error: imported canoma from {canoma.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    seconds = 0.0 if args.smoke else args.seconds
    env = environment(canoma, args.seed)

    if args.trace:
        import tracing

        probe, import_samples = tracing.import_probe(child_env())
        runner = tracing.TracedRunner(workload)
        min_ops = 2  # one untraced and one traced op
    else:
        probe, setup_samples = setup_probe(args.workload)
        runner = plain_runner(workload)
        min_ops = 1
    workloads.smallest_call(args.workload)  # warm-up, untimed
    probes = 1 if args.smoke else SETUP_REPEATS
    records, times = run_loop(workload, runner, seconds, min_ops, probe, probes)
    failed, check_lines = workloads.check(workload, records)

    attempted = len(records)
    report = [
        f"perfbench {args.workload} seed={args.seed} seconds={seconds:g} trace={args.trace}"
        + (" smoke" if args.smoke else ""),
        "env " + json.dumps(env, sort_keys=True),
        f"ops {attempted} attempted, {len(failed)} failed, fail_ratio {len(failed) / attempted:g}",
        *(f"check {line}" for line in check_lines),
        *(f"failed op {k}: {why}" for k, why in sorted(failed.items())[:10]),
    ]
    if args.trace:
        values, missing = runner.metrics(tracing.median_import_seconds(import_samples))
        units = tracing.PER_LAYER_UNITS
        report.append(f"replay matched the engine's counts on {runner.replay_checks} runs")
        report.append("missing layers: " + (", ".join(sorted(missing)) or "none"))
    else:
        pct, tail_value = tail(times)
        total = sum(times)
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_s_p50": statistics.median(times),
            "op_s_tail": tail_value,
            "points_per_s": workload.results_per_op * attempted / total,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        report.append(f"op_s_tail is p{pct:.4g} of {attempted} ops")
        if workload.trials_per_op:
            report.append(f"trials_per_s {workload.trials_per_op * attempted / total:.6g} "
                          "(trial x scheme x grid-value decodes per second)")
    report += [f"{name:26s} {values[name]:.6g} {unit}" for name, unit in units.items()]
    print("\n".join("# " + line for line in report))
    correct = not failed
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
