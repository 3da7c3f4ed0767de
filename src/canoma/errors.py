"""Exception types shared across the package."""


class CanomaError(Exception):
    """Base class for all canoma errors."""


class ParameterError(CanomaError, ValueError):
    """A parameter is outside its documented domain; ``field`` names the
    ``TrialConfig`` field or the argument (``scheme``, ``schemes``,
    ``workers``, ``configs``) to blame, if any."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class OracleUnsupportedError(CanomaError):
    """The configuration is outside the semi-analytic oracle's support.

    Monte Carlo simulation still covers these configurations; only the
    closed-form/quadrature path refuses them.
    """
