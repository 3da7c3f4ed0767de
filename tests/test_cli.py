import dataclasses
import io
import json
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import canoma.cli as cli
import canoma.engine as engine
import canoma.oracle as oracle
from canoma import ScenarioTable, TrialConfig, __version__
from canoma.cli import main

BASE = [
    "--snr-db", "10", "--zeta", "0.8", "--files", "10", "--cache", "2",
    "--alpha", "0.2", "--trials", "20000", "--seed", "7",
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def data_rows(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def verdict(text):
    """(checks, FAIL count, worst z, its row's key fields, largest abs_err)
    of the ``# verdict:`` line, which must be the last line."""
    match = re.fullmatch(
        r"# verdict: (\d+) checks, (\d+) FAIL, worst z (\S+) at (.*), max abs_err (\S+)",
        text.splitlines()[-1],
    )
    checks, fails, z, where, abs_err = match.groups()
    return int(checks), int(fails), float(z), where, float(abs_err)


def manifest_entry(text, name):
    """The JSON object of the ``# <name>: {...}`` manifest line."""
    prefix = f"# {name}: "
    (line,) = [line for line in text.splitlines() if line.startswith(prefix)]
    return json.loads(line[len(prefix):])


class TestPoint:
    def test_emits_one_well_formed_row(self):
        code, out, _ = run_cli(["point", "--scheme", "canoma", *BASE])
        assert code == 0
        assert out.endswith("\n")
        rows = data_rows(out)
        header, row = rows
        assert header.startswith("param,value,scheme,metric,")
        fields = row.split(",")
        assert len(fields) == len(header.split(","))
        assert fields[0] == "snr_db" and fields[2] == "canoma"
        p_joint = float(fields[4])
        stderr = float(fields[8])
        assert 0.0 <= p_joint <= 1.0
        assert stderr > 0.0
        assert fields[9] == "20000" and fields[10] == "7"

    def test_zero_cache_schemes_coincide(self):
        args = [a if a != "2" else "0" for a in BASE]  # cache 0 (seed stays 7)
        args = ["--snr-db", "10", "--zeta", "0.8", "--files", "10", "--cache", "0",
                "--alpha", "0.2", "--trials", "20000", "--seed", "7"]
        _, out_a, _ = run_cli(["point", "--scheme", "canoma", *args])
        _, out_b, _ = run_cli(["point", "--scheme", "noma", *args])
        fields_a = data_rows(out_a)[1].split(",")
        fields_b = data_rows(out_b)[1].split(",")
        assert fields_a[4:9] == fields_b[4:9]

    def test_invalid_alpha_names_the_flag(self):
        code, _, err = run_cli(["point", "--alpha", "1.5"])
        assert code == 2
        assert "--alpha" in err

    @pytest.mark.parametrize(
        "flag,value",
        [("--zeta", "0"), ("--files", "0"), ("--theta", "-1"), ("--trials", "0"),
         ("--cache", "99"), ("--seed", "-4"),
         ("--snr-db", "4000"), ("--snr-db", "-4000"), ("--snr-db", "nan"),
         ("--zeta", "inf"), ("--theta", "inf")],
    )
    def test_other_validation_failures(self, flag, value):
        code, _, err = run_cli(["point", flag, value])
        assert code == 2
        assert flag in err

    def test_catalog_beyond_memory_computes(self):
        code, out, err = run_cli(["point", "--files", "100000000", "--trials", "20000"])
        assert code == 0, err
        assert len(data_rows(out)) == 2  # the header and one row
        code, out, err = run_cli(["point", "--files", "1" + "0" * 400])
        assert code == 2
        assert err.startswith("error: --files: files must be an integer in 1..2**53")
        assert out == ""

    def test_bad_link_spec(self):
        code, _, err = run_cli(["point", "--link-spec", "1,1,2"])
        assert code == 2
        assert "--link-spec" in err

    @pytest.mark.parametrize("spec", ["1e300,1e-300,1,1", "1e-300,1e300,1,1"])
    def test_stage_scale_outside_the_float_range_names_the_flag(self, monkeypatch, spec):
        monkeypatch.setattr(engine, "_run_chunk", None)  # no draw may start
        code, out, err = run_cli(["point", "--link-spec", spec, "--trials", "65536"])
        assert code == 2
        assert err.startswith("error: --link-spec: stage scale omega/m must be positive")
        assert out == ""

    def test_gain_past_the_float_range_runs_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["point", "--link-spec", "1,1e300,2,1e300", "--trials", "65536"])
        assert code == 0 and err == ""
        assert len(data_rows(out)) == 2

    def test_unknown_scheme_is_usage_error(self):
        code, _, _ = run_cli(["point", "--scheme", "tdma"])
        assert code == 2

    def test_unknown_metric_is_usage_error(self):
        code, out, err = run_cli(["point", "--metric", "median"])
        assert code == 2 and out == ""
        assert "--metric" in err


class TestSweep:
    def test_cache_sweep_rows_and_monotonicity(self):
        code, out, _ = run_cli(
            ["sweep", "--sweep", "cache", "--grid", "0,2,4,6,8",
             "--schemes", "canoma,noma", *BASE]
        )
        assert code == 0
        rows = data_rows(out)
        assert len(rows) == 1 + 10
        canoma_vals = [float(r.split(",")[5]) for r in rows[1:] if r.split(",")[2] == "canoma"]
        assert canoma_vals == sorted(canoma_vals)

    def test_snr_sweep_both_schemes_monotone(self):
        code, out, _ = run_cli(
            ["sweep", "--sweep", "snr_db", "--grid", "0,5,10,15,20",
             "--schemes", "canoma,oma-cache", *BASE]
        )
        assert code == 0
        rows = data_rows(out)[1:]
        assert len(rows) == 10
        for scheme in ("canoma", "oma-cache"):
            vals = [float(r.split(",")[5]) for r in rows if r.split(",")[2] == scheme]
            assert vals == sorted(vals)

    def test_rows_sorted_by_value_then_scheme(self):
        _, out, _ = run_cli(
            ["sweep", "--sweep", "cache", "--grid", "4,0", "--schemes", "noma,canoma", *BASE]
        )
        keys = [(float(r.split(",")[1]), r.split(",")[2]) for r in data_rows(out)[1:]]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "argv,once",
        [
            (
                ["sweep", "--sweep", "cache", "--grid", "4,0,4,2.0,2",
                 "--schemes", "noma,canoma,noma"],
                ["sweep", "--sweep", "cache", "--grid", "0,2,4", "--schemes", "canoma,noma"],
            ),
            (
                ["oracle-check", "--sweep", "cache", "--grid", "5,0,5", "--schemes", "noma,noma"],
                ["oracle-check", "--sweep", "cache", "--grid", "5,0", "--schemes", "noma"],
            ),
        ],
        ids=["sweep", "oracle-check"],
    )
    def test_repeated_schemes_and_grid_values_run_once(self, argv, once):
        code, out, err = run_cli([*argv, *BASE])
        assert code == 0, err
        assert data_rows(out) == data_rows(run_cli([*once, *BASE])[1])

    def test_empty_grid_is_usage_error(self):
        code, _, err = run_cli(["sweep", "--sweep", "cache", "--grid", "", *BASE])
        assert code == 2
        assert "--grid" in err

    def test_bad_grid_value_is_named(self):
        code, _, err = run_cli(["sweep", "--sweep", "cache", "--grid", "0,x", *BASE])
        assert code == 2
        assert "'x'" in err

    @pytest.mark.parametrize(
        "command,sweep,grid,bad",
        [
            # ids name the command only for oracle-check
            pytest.param(
                command, *case, id="-".join(case if command == "sweep" else (command,) + case)
            )
            for command in ("sweep", "oracle-check")
            # BASE sets --cache 2, which a one-file catalog cannot hold
            for case in (("cache", "0,12", "12"), ("snr_db", "0,4000", "4000"),
                         ("snr_db", "0,-4000", "-4000"), ("zeta", "0.5,0", "0"),
                         ("zeta", "0.5,-0.5", "-0.5"), ("files", "1", "1"))
        ],
    )
    def test_out_of_range_grid_value(self, command, sweep, grid, bad):
        code, _, err = run_cli([command, "--sweep", sweep, "--grid", grid, *BASE])
        assert code == 2
        # the grid value is to blame, not a flag
        assert f"grid value {bad} invalid for" in err
        assert "--" not in err

    @pytest.mark.parametrize("command", ["sweep", "oracle-check"])
    def test_swept_flag_is_taken_from_the_grid(self, command):
        # --cache 15 exceeds --files 10 but fits every swept catalog
        code, out, err = run_cli(
            [command, "--schemes", "canoma", "--sweep", "files", "--grid", "20,50",
             *BASE, "--cache", "15"]
        )
        assert code == 0, err
        assert len(data_rows(out)) == 1 + (2 if command == "sweep" else 4)

    @pytest.mark.parametrize("command", ["sweep", "oracle-check"])
    @pytest.mark.parametrize("flag,value", [("--alpha", "1.5"), ("--cache", "-1")])
    def test_non_swept_flag_is_named(self, command, flag, value):
        code, _, err = run_cli(
            [command, "--sweep", "files", "--grid", "20,50", *BASE, flag, value]
        )
        assert code == 2
        assert err.startswith(f"error: {flag}: ")
        assert "grid value" not in err

    @pytest.mark.parametrize("command", ["sweep", "oracle-check"])
    @pytest.mark.parametrize(
        "sweep,grid,values,flags",
        [("files", "20,50", [20, 50], ["--cache", "15"]), ("snr_db", "0,20", [0, 20], [])],
    )
    def test_manifest_records_the_grid(self, command, sweep, grid, values, flags):
        code, out, err = run_cli(
            [command, "--schemes", "canoma", "--sweep", sweep, "--grid", grid, *BASE, *flags]
        )
        assert code == 0, err
        config = manifest_entry(out, "config")
        # the swept field's flag value is no configuration any row ran
        assert sweep not in config
        assert (config["sweep"], config["grid"]) == (sweep, values)
        if sweep == "files":
            assert config["cache"] == [15, 15]

    def test_manifest_records_what_the_bits_depend_on(self):
        _, out, _ = run_cli(["point", *BASE])
        assert manifest_entry(out, "output depends on") == {
            "bit_generator": "SFC64",
            "chunk": 65536,
            "numpy": np.__version__,
            "sampler": "inverse-erlang -log(prod 1-U) m<=3, else standard_gamma",
        }

    def test_missing_sweep_flag_is_usage_error(self):
        code, _, _ = run_cli(["sweep", "--grid", "1,2", *BASE])
        assert code == 2


class TestReproducibility:
    def test_rerun_is_byte_identical_modulo_timestamp(self):
        args = ["sweep", "--sweep", "cache", "--grid", "0,4", "--schemes",
                "canoma,oma", *BASE]
        _, out_a, _ = run_cli(args)
        _, out_b, _ = run_cli(args)
        assert data_rows(out_a) == data_rows(out_b)

    def test_worker_count_does_not_change_rows(self, monkeypatch):
        args = ["sweep", "--sweep", "snr_db", "--grid", "0,10", "--trials", "140000",
                "--seed", "3", "--cache", "2"]
        monkeypatch.setattr(engine, "_available_cpus", lambda: 1)
        _, out_a, _ = run_cli(args)
        assert manifest_entry(out_a, "config")["workers"] == 1
        # one thread per chunk: three threads
        monkeypatch.setattr(engine, "_available_cpus", lambda: 8)
        monkeypatch.setattr(engine, "_CHUNKS_PER_THREAD", 1)
        _, out_b, _ = run_cli(args)
        assert manifest_entry(out_b, "config")["workers"] == 3
        assert data_rows(out_a) == data_rows(out_b)

    @pytest.mark.parametrize(
        "extra,threads",
        [(["--trials", "400000"], 3), (["--trials", "262144"], 2), (["--trials", "20000"], 1),
         ([], 1)],
    )
    def test_manifest_records_the_thread_count(self, monkeypatch, extra, threads):
        # a thread takes two chunks: 400000 trials are 7 chunks, 262144
        # are 4, 140000 are 3; and a thread never waits without a chunk
        monkeypatch.setattr(engine, "_available_cpus", lambda: 8)
        _, out, _ = run_cli(["point", "--trials", "140000", *extra])
        assert manifest_entry(out, "config")["workers"] == threads

    def test_nine_significant_digits(self):
        _, out, _ = run_cli(["point", *BASE])
        row = data_rows(out)[1].split(",")
        # p_joint carries at most 9 significant digits
        digits = row[4].replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) <= 9


class TestMetricIsALabel:
    """``--metric`` is a label: point and sweep rows print it in their
    metric column beside both estimates, and oracle-check checks both."""

    @pytest.mark.parametrize(
        "argv",
        [["point", "--scheme", "noma"],
         ["sweep", "--sweep", "cache", "--grid", "0,2", "--schemes", "canoma,oma"]],
        ids=["point", "sweep"],
    )
    def test_rows_differ_in_the_metric_column_only(self, argv):
        common = [*argv, "--trials", "20000", "--seed", "7"]
        default = [r.split(",") for r in data_rows(run_cli(common)[1])]
        joint = [r.split(",") for r in data_rows(run_cli([*common, "--metric", "joint"])[1])]
        assert len(joint) == len(default) > 1
        assert joint[0] == default[0]
        for a, b in zip(joint[1:], default[1:]):
            assert (a[3], b[3]) == ("joint", "marg-product")
            assert a[:3] + a[4:] == b[:3] + b[4:]

    def test_oracle_check_rows_are_the_same(self):
        argv = ["oracle-check", "--sweep", "snr_db", "--grid", "0,10", "--trials", "20000"]
        code, default, _ = run_cli(argv)
        assert code == 0
        assert data_rows(run_cli([*argv, "--metric", "joint"])[1]) == data_rows(default)


class TestSweepEqualsPoints:
    """An SNR sweep divides c by each gain once and compares the ratio
    with every rho; a point compares it with its one rho.  Their rows
    agree byte for byte."""

    @pytest.mark.parametrize("cpus", [1, 8], ids=["serial", "default"])
    def test_snr_sweep_rows_equal_point_rows(self, monkeypatch, cpus):
        # 262144 trials are 4 chunks: one thread, or two
        monkeypatch.setattr(engine, "_available_cpus", lambda: cpus)
        common = ["--trials", "262144", "--seed", "5"]
        grid = ["0", "5", "10", "15", "20"]
        code, out, _ = run_cli(["sweep", "--sweep", "snr_db", "--grid", ",".join(grid), *common])
        assert code == 0
        points = []
        for snr in grid:
            code, point, _ = run_cli(["point", "--snr-db", snr, *common])
            assert code == 0
            points += data_rows(point)[1:]
        assert data_rows(out)[1:] == points


class TestOracleCheck:
    def test_overflowed_gains_never_pass_an_infeasible_stage(self):
        # at alpha 0.5 the SIC margin is 0, so no gain decodes, and on this
        # link every gain overflows to inf: inf / inf is NaN, which fails
        code, out, _ = run_cli(
            ["oracle-check", "--alpha", "0.5", "--link-spec", "1,1e300,2,1e300", "--schemes",
             "noma", "--snr-db", "10", "--trials", "65536"]
        )
        assert code == 0
        rows = data_rows(out)[1:]
        assert rows and all(row.endswith(",pass") for row in rows)
        assert all(row.split(",")[6:8] == ["0", "0"] for row in rows)

    def test_small_grid_passes(self):
        code, out, _ = run_cli(
            ["oracle-check", "--schemes", "canoma,oma", "--sweep", "snr_db",
             "--grid", "0,10", "--zeta", "0.8", "--files", "10", "--cache", "2",
             "--trials", "60000", "--seed", "9"]
        )
        assert code == 0
        rows = data_rows(out)
        assert rows[0].startswith("snr_db,zeta,files,cache,scheme,metric,")
        assert len(rows) == 1 + 2 * 2 * 2  # grid x schemes x metrics
        assert all(r.endswith("pass") for r in rows[1:])

    def test_bare_invocation_runs_default_grid(self):
        code, out, _ = run_cli(["oracle-check", "--trials", "20000", "--seed", "3"])
        assert code == 0
        rows = data_rows(out)
        # 5 SNR x 3 zeta x 4 (T, C) x 4 schemes x 2 metrics
        assert len(rows) == 1 + 480
        assert all(r.endswith("pass") for r in rows[1:])

    def test_bare_serial_run_passes_and_peaks_below_6_mib(self, monkeypatch):
        # each scenario group keeps its class codes in uint8 and widens
        # them into one shared intp row; one CHUNK-long intp row for
        # each of the 12 groups would take this run's peak to 9 MiB
        monkeypatch.setattr(engine, "_available_cpus", lambda: 1)
        run_cli(["oracle-check", "--trials", "1000"])  # first-call allocations
        tracemalloc.start()
        try:
            code, out, _ = run_cli(["oracle-check"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        rows = data_rows(out)[1:]
        assert len(rows) == 480 and all(r.endswith(",pass") for r in rows)
        assert peak < 6 * 2**20

    def test_bare_manifest_records_the_grid_axes(self):
        _, out, _ = run_cli(["oracle-check", "--trials", "1000", "--seed", "3"])
        config = manifest_entry(out, "config")
        # 60 points, so no one snr_db, zeta, files or cache describes them
        assert "files" not in config and "cache" not in config
        assert config["snr_db"] == [0.0, 5.0, 10.0, 15.0, 20.0]
        assert config["zeta"] == [0.4, 0.8, 1.6]
        assert config["files_cache"] == [[10, 0], [10, 2], [10, 5], [50, 2]]
        # the default link has integer shapes: every CCDF is closed-form
        assert "# oracle max abs_err: 0\n" in out

    def test_bare_run_builds_one_table_per_config(self, monkeypatch):
        # every TrialConfig is validated before its table is read, so the
        # validated configs bound the tables a run may build
        built, validated = [], []
        of = ScenarioTable.of.__func__
        counted = classmethod(lambda cls, *args: built.append(args) or of(cls, *args))
        monkeypatch.setattr(ScenarioTable, "of", counted)
        validate = TrialConfig.validate
        monkeypatch.setattr(
            TrialConfig, "validate", lambda self: validated.append(self) or validate(self)
        )
        code, _, _ = run_cli(["oracle-check", "--trials", "1000"])
        assert code == 0
        assert 0 < len(built) <= len({id(c) for c in validated})
        # the flags' own config and the 60 grid configs, whose tables the oracle reads
        assert len(built) <= 61

    @pytest.mark.parametrize(
        "flags,n_rows", [(["--snr-db", "300"], 8), (["--theta", "1e-300"], 480)]
    )
    def test_rows_of_zero_monte_carlo_stderr_are_judged_by_the_oracle(self, flags, n_rows):
        # every trial succeeds, so p_mc is 1 and its binomial stderr 0;
        # at 300 dB the oracle is below 1 by rounding
        code, out, _ = run_cli(["oracle-check", *flags, "--trials", "65536"])
        assert code == 0
        rows = [r.split(",") for r in data_rows(out)[1:]]
        assert len(rows) == n_rows and all(r[-1] == "pass" for r in rows)
        certain = [r for r in rows if float(r[6]) == 1.0]
        assert len(certain) >= 8
        # each prints the stderr it was judged by, 0 only where the oracle is 1 too
        assert all(float(r[8]) < 1e-6 and float(r[9]) < 1e-3 for r in certain)
        if "--theta" in flags:
            # at gain thresholds near 1e-301 the CCDF is 1 to about 600 digits
            assert all(float(r[7]) == 1.0 and float(r[9]) == 0.0 for r in certain)
        else:
            assert any(float(r[8]) > 0 for r in certain)

    def test_certain_monte_carlo_row_against_an_uncertain_oracle_fails(self, monkeypatch):
        monkeypatch.setattr(
            oracle, "_success_prob", lambda *a, **k: oracle.OracleResult(0.99, 0.99, 0.99, 0.9801)
        )
        code, out, _ = run_cli(
            ["oracle-check", "--schemes", "canoma", "--snr-db", "300", "--trials", "65536"]
        )
        assert code == 3
        rows = [r.split(",") for r in data_rows(out)[1:]]
        assert [r[6] for r in rows] == ["1", "1"]
        assert all(r[-1] == "FAIL" and float(r[9]) > 4 for r in rows)

    def test_verdict_counts_the_rows(self):
        code, out, _ = run_cli(["oracle-check", "--trials", "65536"])
        assert code == 0
        header, *rows = data_rows(out)
        rows = [r.split(",") for r in rows]
        checks, fails, z, where, abs_err = verdict(out)
        assert (checks, fails) == (len(rows), 0) == (480, 0)
        worst = max(rows, key=lambda r: float(r[9]))
        assert z == float(worst[9])
        assert where == " ".join(f"{k}={v}" for k, v in zip(header.split(",")[:6], worst))
        assert abs_err == 0.0

    def test_huge_scales_give_a_certain_oracle(self):
        # at omega = 1e300 the gain thresholds sit about 600 digits below
        # the gain's scale: the Bessel-K argument underflows, and the
        # kernel's Chernoff bound shows the CDF is below the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["oracle-check", "--link-spec", "1,1e300,2,1e300", "--snr-db", "10",
                 "--schemes", "canoma", "--trials", "65536"]
            )
        assert code == 0 and err == ""
        rows = [r.split(",") for r in data_rows(out)[1:]]
        assert len(rows) == 2 and all(r[7] == "1" for r in rows)
        assert verdict(out)[4] == 0.0

    def test_three_stage_cascade_passes(self):
        code, out, err = run_cli(
            ["oracle-check", "--link-spec", "1,1,2,2,1.5,1", "--snr-db", "10", "--schemes",
             "canoma", "--trials", "65536"]
        )
        assert code == 0, err
        rows = data_rows(out)[1:]
        assert len(rows) == 2 and all(r.endswith(",pass") for r in rows)
        assert 0.0 < verdict(out)[4] < 1e-9

    def test_quadrature_error_is_reported(self):
        _, out, _ = run_cli(
            ["oracle-check", "--schemes", "noma", "--link-spec", "1.5,1,2.5,1", "--trials", "1000"]
        )
        (line,) = [x for x in out.splitlines() if x.startswith("# oracle max abs_err: ")]
        assert 0.0 < float(line.split(": ")[1]) < 1e-9

    def test_corrupted_oracle_alpha_fails(self, monkeypatch):
        # an oracle that reads every config at the wrong alpha must be caught
        success_prob = oracle._success_prob
        monkeypatch.setattr(
            oracle,
            "_success_prob",
            lambda config, scheme: success_prob(dataclasses.replace(config, alpha=0.35), scheme),
        )
        code, out, _ = run_cli(
            ["oracle-check", "--schemes", "canoma", "--trials", "60000", "--seed", "9",
             "--zeta", "0.8", "--files", "10", "--cache", "0"]
        )
        assert code == 3
        rows = data_rows(out)[1:]
        assert any(r.endswith("FAIL") for r in rows)
        checks, fails, z, _, _ = verdict(out)
        assert checks == len(rows) and fails == sum(r.endswith("FAIL") for r in rows) > 0
        assert z > 4

    @pytest.mark.parametrize(
        "argv,flag",
        [(["--grid", "1,2"], "--grid"), (["--sweep", "cache"], "--grid")],
    )
    def test_refused_before_any_trial(self, monkeypatch, argv, flag):
        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran before the input was refused")

        monkeypatch.setattr(cli, "_simulate", no_trials)
        code, _, err = run_cli(["oracle-check", *argv])
        assert code == 2
        assert flag in err

    def test_heterogeneous_links_by_gain_unsupported(self):
        code, _, err = run_cli(
            ["oracle-check", "--schemes", "noma", "--link-spec-1", "1,1",
             "--link-spec-2", "1,1,2,2", "--trials", "1000"]
        )
        assert code == 2
        assert "oracle" in err.lower()

    def test_fixed_ordering_supports_heterogeneous_links(self):
        code, out, _ = run_cli(
            ["oracle-check", "--schemes", "noma", "--link-spec-1", "1,1",
             "--link-spec-2", "1,1,2,2", "--ordering", "fixed",
             "--trials", "60000", "--seed", "2", "--cache", "2"]
        )
        assert code == 0, out


@pytest.mark.parametrize(
    "argv,tables",
    [
        (["point"], 1),
        # five SNR values on one catalog and cache pair share one table
        (["sweep", "--sweep", "snr_db", "--grid", "0,5,10,15,20"], 1),
        (["oracle-check", "--sweep", "cache", "--grid", "0,2,5"], 3),
    ],
    ids=["point", "sweep", "oracle-check-sweep"],
)
def test_one_scenario_table_per_config(monkeypatch, argv, tables):
    # the engine builds one table per catalog and cache pair, from the
    # first config that has them, and the oracle reads the table each of
    # its configs holds
    built = []
    of = ScenarioTable.of.__func__
    counted = classmethod(lambda cls, *args: built.append(args) or of(cls, *args))
    monkeypatch.setattr(ScenarioTable, "of", counted)
    code, _, err = run_cli([*argv, "--trials", "1000"])
    assert code == 0, err
    assert len(built) == tables


# TrialConfig field -> a `point` flag that moves it from its default
FIELD_ARGV = {
    "n_trials": ["--trials", "5000"],
    "seed": ["--seed", "9"],
    "files": ["--files", "20"],
    "zeta": ["--zeta", "1.6"],
    "cache": ["--cache", "3"],
    "alpha": ["--alpha", "0.3"],
    "rho": ["--snr-db", "20"],
    "thresholds": ["--theta", "2"],
    "link_specs": ["--link-spec", "1,1,3,3"],
    "ordering": ["--ordering", "fixed"],
}


def resolved_config(argv):
    """The configuration a `point` command runs."""
    args = cli._build_parser().parse_args(["point", *argv])
    (config,), _ = cli._configs(args)
    return config


def test_every_config_field_has_a_flag():
    # a field no flag reaches is generality no command uses
    assert set(FIELD_ARGV) == {f.name for f in dataclasses.fields(TrialConfig)}


@pytest.mark.parametrize("field", FIELD_ARGV)
def test_each_flag_moves_its_field_only(field):
    base, moved = resolved_config([]), resolved_config(FIELD_ARGV[field])
    for name in FIELD_ARGV:
        assert (getattr(moved, name) != getattr(base, name)) == (name == field), name


class TestUnknownFlags:
    """A flag a command does not have is refused before any trial, and so
    is a prefix of one: prefix matching would run ``--scheme`` as
    oracle-check's and sweep's ``--schemes``."""

    @pytest.mark.parametrize(
        "argv",
        [["oracle-check", "--scheme", "noma"],
         ["sweep", "--sweep", "cache", "--grid", "0", "--scheme", "noma"],
         ["point", "--snr", "10"],
         ["point", "--workers", "2"],
         ["sweep", "--sweep", "cache", "--grid", "0", "--workers", "2"],
         ["oracle-check", "--workers", "2"]],
        ids=["oracle-check-scheme", "sweep-scheme", "point-snr", "point-workers",
             "sweep-workers", "oracle-check-workers"],
    )
    def test_is_usage_error(self, argv):
        code, out, err = run_cli([*argv, "--trials", "1000"])
        assert code == 2
        assert "unrecognized arguments" in err
        assert out == ""


class TestVersion:
    def test_prints_version(self):
        code, out, _ = run_cli(["version"])
        assert code == 0
        assert out.strip() == f"canoma {__version__}"

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "canoma.cli", "version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == f"canoma {__version__}"
