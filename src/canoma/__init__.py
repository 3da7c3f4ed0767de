"""Cache-aided NOMA downlink for vehicular links: Monte Carlo simulator
and semi-analytic success-probability oracle.

The oracle needs scipy, so its names are imported on first use: the
Monte Carlo path never loads scipy.
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
    sample_gamma,
    sample_link_gain,
)
from .content import (
    PopularityProfile,
    ScenarioTable,
    request_from_uniform,
    zipf_cdf_at,
    zipf_profile,
)
from .engine import (
    METRICS,
    DEFAULT_LINK_SPEC,
    Estimate,
    ResultTable,
    SweepRow,
    TrialConfig,
    db_to_linear,
    run_point,
    run_point_multi,
    summarize,
    sweep,
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
    "sample_gamma",
    "sample_link_gain",
    # content
    "PopularityProfile",
    "ScenarioTable",
    "zipf_profile",
    "zipf_cdf_at",
    "request_from_uniform",
    # access
    "SCHEMES",
    "DecodeThresholds",
    "INFEASIBLE",
    "gain_thresholds",
    # oracle, imported on first use
    *_ORACLE_NAMES,
    # engine
    "METRICS",
    "DEFAULT_LINK_SPEC",
    "TrialConfig",
    "Estimate",
    "SweepRow",
    "ResultTable",
    "db_to_linear",
    "summarize",
    "run_point",
    "run_point_multi",
    "sweep",
]


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
