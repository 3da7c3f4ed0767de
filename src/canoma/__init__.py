"""Cache-aided NOMA downlink for vehicular links: Monte Carlo simulator
and semi-analytic success-probability oracle.

The oracle's names are imported on first use.  The package needs numpy
only.
"""

from .access import (
    INFEASIBLE,
    SCHEMES,
    DecodeThresholds,
    gain_thresholds,
)
from .channel import (
    LinkSpec,
    NakagamiStage,
    sample_link_gain,
)
from .content import ScenarioTable, zipf_cdf_at
from .engine import (
    DEFAULT_LINK_SPEC,
    Estimate,
    TrialConfig,
    db_to_linear,
    run_point_multi,
    summarize,
)
from .errors import CanomaError, OracleUnsupportedError, ParameterError

_ORACLE_NAMES = (
    "OracleResult",
    "gamma_ccdf",
    "product_gain_ccdf",
    "conditional_success_prob",
    "success_prob",
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CanomaError",
    "ParameterError",
    "OracleUnsupportedError",
    # channel
    "NakagamiStage",
    "LinkSpec",
    "sample_link_gain",
    # content
    "ScenarioTable",
    "zipf_cdf_at",
    # access
    "SCHEMES",
    "DecodeThresholds",
    "INFEASIBLE",
    "gain_thresholds",
    # oracle, imported on first use
    *_ORACLE_NAMES,
    # engine
    "DEFAULT_LINK_SPEC",
    "TrialConfig",
    "Estimate",
    "db_to_linear",
    "summarize",
    "run_point_multi",
]


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
