"""No command and no oracle path loads scipy, and the oracle module loads
on first use.  Importing the CLI reads no package metadata."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import canoma
import canoma.oracle

SRC = Path(canoma.__file__).resolve().parent.parent


def loaded_modules(code: str) -> list[str]:
    """The modules a fresh interpreter has loaded after ``code``."""
    code += "\nimport sys\nprint(list(sys.modules))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip())


def loaded_scipy_modules(code: str) -> list[str]:
    """The scipy modules a fresh interpreter has loaded after ``code``."""
    return [m for m in loaded_modules(code) if m.split(".")[0] == "scipy"]


def test_importing_the_cli_reads_no_package_metadata():
    assert "importlib.metadata" not in loaded_modules("import canoma.cli")


def test_point_and_sweep_load_no_scipy():
    code = """
import contextlib, io
from canoma import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["point", "--trials", "1000"]) == 0
    assert cli.main(["sweep", "--sweep", "snr_db", "--grid", "0,10", "--trials", "1000"]) == 0
"""
    assert loaded_scipy_modules(code) == []


def test_closed_form_oracle_loads_no_quadrature():
    code = """
import canoma
canoma.success_prob("canoma", catalog_t=10, zeta=0.8, capacities=(2, 2), total=10.0,
                    alpha=0.2, link_specs=(canoma.DEFAULT_LINK_SPEC,) * 2)
"""
    assert loaded_scipy_modules(code) == []


def test_bare_oracle_check_loads_no_scipy():
    code = """
import contextlib, io
from canoma import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["oracle-check", "--trials", "1000"]) == 0
"""
    assert loaded_scipy_modules(code) == []


def test_point_and_oracle_check_load_no_numpy_ma():
    # np.unique loads numpy.ma, about 15 ms and 1.25 MB in every process
    code = """
import contextlib, io
from canoma import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["point", "--trials", "1000"]) == 0
    assert cli.main(["oracle-check", "--snr-db", "10", "--trials", "65536"]) == 0
"""
    assert [m for m in loaded_modules(code) if m.split(".")[:2] == ["numpy", "ma"]] == []


def test_one_stage_ccdf_loads_no_scipy():
    assert loaded_scipy_modules("import canoma\ncanoma.gamma_ccdf(2.0, 1.0, 1.0)") == []


def test_non_integer_and_three_stage_links_load_no_scipy():
    code = """
import canoma
canoma.product_gain_ccdf(canoma.LinkSpec.from_pairs([(1.5, 1.0), (2.5, 1.0)]), 1.0)
canoma.product_gain_ccdf(canoma.LinkSpec.from_pairs([(1, 1), (2, 2), (1.5, 1)]), 1.0)
"""
    assert loaded_scipy_modules(code) == []


def test_oracle_names_resolve_to_the_oracle():
    for name in canoma._ORACLE_NAMES:
        assert name in canoma.__all__
        assert getattr(canoma, name) is getattr(canoma.oracle, name)
    assert canoma.success_prob is canoma.oracle.success_prob


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        canoma.no_such_name


def test_public_surface():
    # a change to the public names has to change this list
    assert canoma.__all__ == [
        "__version__",
        "CanomaError",
        "ParameterError",
        "OracleUnsupportedError",
        "NakagamiStage",
        "LinkSpec",
        "sample_link_gain",
        "ScenarioTable",
        "zipf_cdf_at",
        "SCHEMES",
        "DecodeThresholds",
        "INFEASIBLE",
        "gain_thresholds",
        "OracleResult",
        "gamma_ccdf",
        "product_gain_ccdf",
        "conditional_success_prob",
        "success_prob",
        "DEFAULT_LINK_SPEC",
        "TrialConfig",
        "Estimate",
        "db_to_linear",
        "summarize",
        "run_point_multi",
    ]
    for name in canoma.__all__:
        getattr(canoma, name)
