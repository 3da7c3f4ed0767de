"""Command-line front end: run points, sweeps, and oracle checks as CSV.

Output is a ``#``-prefixed manifest block (resolved configuration, tool
version, seed, timestamp, the numpy version, sampler, bit generator and
block size the output bits depend on, and for ``oracle-check`` the largest
error bound of its oracle values) followed by a fixed-column CSV table;
``oracle-check`` ends with a ``# verdict:`` line after the table.
Given the same command line and seed the data rows are byte-identical
across runs and thread counts; only the manifest timestamp varies.

Exit codes: 0 success, 1 internal error, 2 usage or validation error,
3 oracle-check failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys

import numpy as np

from . import __version__
from .access import SCHEMES, DecodeThresholds
from .channel import SAMPLER, LinkSpec
from .engine import (
    BIT_GENERATOR,
    CHUNK,
    TrialConfig,
    _simulate,
    _standard_errors,
    _thread_count,
    db_to_linear,
)
from .errors import OracleUnsupportedError, ParameterError

__all__ = ["main", "entry"]

_HEADER = "param,value,scheme,metric,p_joint,p_marg_product,p1,p2,stderr_joint,trials,seed"
_ORACLE_HEADER = "snr_db,zeta,files,cache,scheme,metric,p_mc,p_oracle,stderr,z,status"

# --metric's choices, a label only: point and sweep rows print it in their
# metric column beside both estimates, and oracle-check checks both
METRICS = ("marg-product", "joint")


def _integral(value) -> int:
    v = int(value)
    if v != value:
        raise ParameterError("must be an integer")
    return v


# --sweep name -> (CSV param, TrialConfig field, grid value -> field value)
_AXES = {
    "snr_db": ("snr_db", "rho", lambda v: db_to_linear(float(v))),
    "cache": ("cache_size", "cache", _integral),
    "zeta": ("zeta", "zeta", float),
    "files": ("catalog_t", "files", _integral),
}

# TrialConfig field -> the flag that sets it
_FIELD_FLAGS = {
    "n_trials": "--trials",
    "seed": "--seed",
    "files": "--files",
    "zeta": "--zeta",
    "cache": "--cache",
    "alpha": "--alpha",
}

# criterion grid for a bare `oracle-check`, by axis as its manifest records it
_DEFAULT_CHECK_AXES = {
    "snr_db": (0.0, 5.0, 10.0, 15.0, 20.0),
    "zeta": (0.4, 0.8, 1.6),
    "files_cache": ((10, 0), (10, 2), (10, 5), (50, 2)),
}


class UsageError(Exception):
    """Bad flag value; the message names the flag."""


def _fmt(x) -> str:
    return format(float(x), ".9g")


def _parse_link_spec(text: str, flag: str) -> LinkSpec:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if len(values) < 2 or len(values) % 2 != 0:
        raise UsageError(f"{flag} expects (m,omega) pairs, got {len(values)} numbers")
    try:
        return LinkSpec.from_pairs(zip(values[0::2], values[1::2]))
    except ParameterError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _parse_schemes(text: str) -> tuple[str, ...]:
    # a repeated name keeps its first place and runs once
    names = tuple(dict.fromkeys(s.strip() for s in text.split(",") if s.strip()))
    if not names:
        raise UsageError("--schemes expects a comma-separated list of schemes")
    for name in names:
        if name not in SCHEMES:
            raise UsageError(f"--schemes: unknown scheme {name!r}; choose from {', '.join(SCHEMES)}")
    return names


def _add_model_flags(sp: argparse.ArgumentParser) -> None:
    # the four model flags default to the TrialConfig defaults, and a bare
    # oracle-check tells them apart from given values
    sp.add_argument("--snr-db", type=float, help="total transmit SNR in dB")
    sp.add_argument("--zeta", type=float, help="popularity parameter")
    sp.add_argument("--files", type=int, help="catalog size T")
    sp.add_argument("--cache", type=int, help="per-vehicle cache capacity C")
    sp.add_argument("--alpha", type=float, default=0.2, help="power fraction of the strong vehicle")
    sp.add_argument("--theta", type=float, default=1.0, help="SINR threshold (all files)")
    sp.add_argument("--trials", type=int, default=1_000_000, help="Monte Carlo trials")
    sp.add_argument("--seed", type=int, default=1, help="base seed")
    sp.add_argument("--ordering", choices=["by-gain", "fixed"], default="by-gain")
    sp.add_argument("--metric", choices=list(METRICS), default="marg-product")
    sp.add_argument(
        "--link-spec",
        default="1,1,2,2",
        help="cascade stages as m1,omega1,m2,omega2,... (both links)",
    )
    sp.add_argument("--link-spec-1", default=None, help="override the first link's stages")
    sp.add_argument("--link-spec-2", default=None, help="override the second link's stages")


def _build_parser() -> argparse.ArgumentParser:
    # every parser refuses a flag's prefix, which could name another
    # command's flag; a subparser does not inherit the setting
    parser = argparse.ArgumentParser(
        prog="canoma",
        description="Cache-aided NOMA downlink: Monte Carlo study with a semi-analytic oracle.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser(
        "point", help="estimate one configuration, emit one CSV row", allow_abbrev=False
    )
    p_point.add_argument("--scheme", choices=list(SCHEMES), default="canoma")
    _add_model_flags(p_point)
    p_point.set_defaults(func=_cmd_point)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter over a grid", allow_abbrev=False)
    p_sweep.add_argument("--schemes", default="canoma", help="comma-separated scheme list")
    p_sweep.add_argument("--sweep", choices=sorted(_AXES), required=True)
    p_sweep.add_argument("--grid", required=True, help="comma-separated grid values")
    _add_model_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser(
        "oracle-check",
        help="compare Monte Carlo against the semi-analytic oracle "
        "(bare invocation runs the full default grid)",
        allow_abbrev=False,
    )
    p_check.add_argument("--schemes", default=None, help="comma-separated scheme list")
    p_check.add_argument("--sweep", choices=sorted(_AXES), default=None)
    p_check.add_argument("--grid", default=None, help="comma-separated grid values")
    _add_model_flags(p_check)
    p_check.set_defaults(func=_cmd_oracle_check)

    p_version = sub.add_parser("version", help="print the tool version", allow_abbrev=False)
    p_version.set_defaults(func=_cmd_version)
    return parser


def _blame(flag: str, build, *args):
    """``build(*args)``, with any ParameterError blamed on ``flag``."""
    try:
        return build(*args)
    except ParameterError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _flag_error(exc: ParameterError) -> Exception:
    """``exc`` blamed on the flag that sets its field, if a flag does."""
    if exc.field not in _FIELD_FLAGS:
        return exc
    return UsageError(f"{_FIELD_FLAGS[exc.field]}: {exc}")


def _grid_configs(config: TrialConfig, sweep: str, grid) -> list[TrialConfig]:
    """``config`` at each value of ``grid`` on the ``sweep`` axis, in grid
    order, each checked.  A failure is blamed on a flag only when
    ``config`` fails the same way without the grid."""
    param, name, convert = _AXES[sweep]
    configs = []
    for value in grid:
        try:
            at_value = dataclasses.replace(config, **{name: convert(value)})
            at_value.validate()
        except (TypeError, ValueError, OverflowError) as exc:
            try:
                config.validate()
            except ParameterError as flag_exc:
                if str(flag_exc) == str(exc):
                    raise _flag_error(flag_exc) from None
            raise ParameterError(f"grid value {value!r} invalid for {param}: {exc}") from None
        configs.append(at_value)
    return configs


def _configs(args, bare: bool = False):
    """The command's configurations, each checked once, and the
    ``_manifest`` keywords that record the grid they span: the flags'
    own configuration; under ``--sweep``, one per grid value in grid
    order; for a ``bare`` oracle-check, the default criterion grid.

    A model flag left unset keeps its ``TrialConfig`` default.  Under a
    sweep the swept field is taken from the grid, so the flags need only
    hold at every grid value.
    """
    sweep = getattr(args, "sweep", None)
    grid = None if sweep is None else _parse_grid(args.grid, sweep)
    base = _parse_link_spec(args.link_spec, "--link-spec")
    link1 = _parse_link_spec(args.link_spec_1, "--link-spec-1") if args.link_spec_1 else base
    link2 = _parse_link_spec(args.link_spec_2, "--link-spec-2") if args.link_spec_2 else base
    model = {"files": args.files, "zeta": args.zeta, "cache": args.cache}
    if args.snr_db is not None:
        model["rho"] = _blame("--snr-db", db_to_linear, args.snr_db)
    config = TrialConfig(
        n_trials=args.trials,
        seed=args.seed,
        alpha=args.alpha,
        thresholds=_blame("--theta", DecodeThresholds, args.theta),
        link_specs=(link1, link2),
        ordering=args.ordering,
        **{name: value for name, value in model.items() if value is not None},
    )
    if grid is not None:
        return _grid_configs(config, sweep, grid), {"grid": grid}
    try:
        config.validate()
    except ParameterError as exc:
        raise _flag_error(exc) from None
    if not bare:
        return [config], {}
    axes = _DEFAULT_CHECK_AXES
    # each grid point replaces fields of the checked flags; _simulate validates it
    configs = [
        dataclasses.replace(config, rho=db_to_linear(snr), zeta=zeta, files=files, cache=cache)
        for snr in axes["snr_db"]
        for zeta in axes["zeta"]
        for files, cache in axes["files_cache"]
    ]
    return configs, {"axes": axes}


def _manifest(
    args, config: TrialConfig, schemes: tuple[str, ...], grid=None, axes=None
) -> list[str]:
    """The ``#`` lines before the table.  Under a sweep the swept field
    gives way to the sweep name and its ``grid`` values; the ``axes`` of
    the bare oracle-check grid replace the fields they span."""
    resolved = {
        "schemes": list(schemes),
        "snr_db": config.snr_db,
        "zeta": config.zeta,
        "files": config.files,
        "cache": list(config.capacities),
        "alpha": config.alpha,
        "theta": config.thresholds.default,
        "trials": config.n_trials,
        "seed": config.seed,
        "ordering": config.ordering,
        "metric": args.metric,
        "link_spec_1": [[s.m, s.omega] for s in config.link_specs[0].stages],
        "link_spec_2": [[s.m, s.omega] for s in config.link_specs[1].stages],
        "workers": _thread_count(config.n_trials),
    }
    if grid is not None:
        del resolved[args.sweep]
        resolved.update(sweep=args.sweep, grid=grid)
    if axes is not None:
        del resolved["files"], resolved["cache"]
        resolved.update(axes)
    depends_on = {
        "bit_generator": BIT_GENERATOR.__name__,
        "chunk": CHUNK,
        "numpy": np.__version__,
        "sampler": SAMPLER,
    }
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    return [
        f"# canoma {__version__}",
        f"# timestamp: {stamp}",
        "# snr convention: total transmit SNR rho = P/sigma^2 with sigma^2 = 1; CLI values in dB",
        f"# config: {json.dumps(resolved, sort_keys=True)}",
        f"# output depends on: {json.dumps(depends_on, sort_keys=True)}",
    ]


def _write(lines) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _write_table(args, param: str, values, configs, schemes: tuple[str, ...], **recorded):
    """Run ``configs``, the configurations at the distinct ``values`` of
    ``param``, in one pass, and write a row per value and scheme, sorted
    by value, then scheme."""
    points = sorted(zip(map(float, values), configs), key=lambda point: point[0])
    results = _simulate([config for _, config in points], schemes)
    lines = _manifest(args, configs[0], schemes, **recorded)
    lines.append(_HEADER)
    for (value, config), estimates in zip(points, results):
        for scheme in sorted(schemes):
            est = estimates[scheme][0]
            lines.append(
                ",".join(
                    [
                        param,
                        _fmt(value),
                        scheme,
                        args.metric,
                        _fmt(est.p_joint),
                        _fmt(est.p_marg_product),
                        _fmt(est.p1),
                        _fmt(est.p2),
                        _fmt(est.stderr_joint),
                        str(config.n_trials),
                        str(config.seed),
                    ]
                )
            )
    _write(lines)


def _cmd_point(args) -> int:
    (config,), _ = _configs(args)
    value = config.snr_db if args.snr_db is None else args.snr_db
    _write_table(args, "snr_db", [value], [config], (args.scheme,))
    return 0


def _parse_grid(text: str, cli_param: str) -> list:
    raw = [v.strip() for v in text.split(",") if v.strip()]
    if not raw:
        raise UsageError("--grid must list at least one value")
    values = []
    for item in raw:
        try:
            values.append(int(item) if item.lstrip("+-").isdigit() else float(item))
        except ValueError:
            raise UsageError(f"--grid value {item!r} is not valid for sweep {cli_param}") from None
    # a repeated value (2 and 2.0 alike) keeps its first place and runs once
    return list(dict.fromkeys(values))


def _cmd_sweep(args) -> int:
    schemes = _parse_schemes(args.schemes)
    configs, recorded = _configs(args)
    _write_table(args, _AXES[args.sweep][0], recorded["grid"], configs, schemes, **recorded)
    return 0


def _cmd_oracle_check(args) -> int:
    from .oracle import _success_prob  # only this command needs the oracle

    schemes = SCHEMES if args.schemes is None else _parse_schemes(args.schemes)
    if args.sweep is not None and args.grid is None:
        raise UsageError("--sweep needs --grid")
    if args.grid is not None and args.sweep is None:
        raise UsageError("--grid needs --sweep")
    given = (args.sweep, args.snr_db, args.zeta, args.files, args.cache, args.schemes)
    configs, recorded = _configs(args, bare=all(v is None for v in given))
    rows = []
    fails = 0
    worst = None  # (z, the row's key fields) of the largest z
    max_abs_err = 0.0
    # one pass over the trials decodes every configuration
    results = _simulate(configs, schemes)
    for config, estimates in zip(configs, results):
        for scheme in schemes:
            est = estimates[scheme][0]
            oracle = _success_prob(config, scheme)
            max_abs_err = max(max_abs_err, oracle.abs_err)
            # a Monte Carlo count of 0 or n has stderr 0; such a row is
            # judged by the stderr the oracle's probabilities give n trials
            null_se = _standard_errors(oracle.p1, oracle.p2, oracle.p_joint, est.n)
            for metric, p_mc, p_or, se, se_if_0 in zip(
                ("joint", "marg-product"),
                (est.p_joint, est.p_marg_product),
                (oracle.p_joint, oracle.p_marg_product),
                (est.stderr_joint, est.stderr_marg_product),
                null_se,
            ):
                delta = abs(p_mc - p_or)
                se = se if se > 0 else se_if_0
                ok = delta <= 4.0 * se
                fails += not ok
                z = 0.0 if delta == 0.0 else (delta / se if se > 0 else float("inf"))
                key = [
                    _fmt(config.snr_db),
                    _fmt(config.zeta),
                    str(config.files),
                    str(config.cache),
                    scheme,
                    metric,
                ]
                if worst is None or z > worst[0]:
                    worst = (z, key)
                rows.append(
                    ",".join(
                        [*key, _fmt(p_mc), _fmt(p_or), _fmt(se), _fmt(z), "pass" if ok else "FAIL"]
                    )
                )
    lines = _manifest(args, configs[0], schemes, **recorded)
    lines.append(f"# oracle max abs_err: {_fmt(max_abs_err)}")
    lines.append(_ORACLE_HEADER)
    lines.extend(rows)
    # a "#" line after the rows leaves the CSV table as it is
    where = " ".join(f"{k}={v}" for k, v in zip(_ORACLE_HEADER.split(","), worst[1]))
    lines.append(
        f"# verdict: {len(rows)} checks, {fails} FAIL, worst z {_fmt(worst[0])} at {where}, "
        f"max abs_err {_fmt(max_abs_err)}"
    )
    _write(lines)
    return 0 if fails == 0 else 3


def _cmd_version(args) -> int:
    print(f"canoma {__version__}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OracleUnsupportedError as exc:
        print(f"error: configuration outside oracle support: {exc}", file=sys.stderr)
        return 2
    except ParameterError as exc:
        print(f"error: {_flag_error(exc)}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
