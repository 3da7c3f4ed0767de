"""Cascaded Nakagami-m fading links: squared-gain sampling and moments.

A vehicular link is modelled as a chain of independent Nakagami-m
scatterers.  The link amplitude is the product of the per-stage
amplitudes, so the squared channel gain is a product of independent
gamma variates: stage (m, omega) contributes Gamma(shape=m,
scale=omega/m), whose mean is exactly omega; a stage of integer shape
m <= 3 is drawn by inversion, as -log of a product of m uniforms (the
Erlang distribution as a sum of m exponentials).  Only squared gains are
ever materialised; the success metric is SINR-threshold based, so
amplitudes and phases are never needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "NakagamiStage",
    "LinkSpec",
    "SAMPLER",
    "sample_link_gain",
]

@dataclass(frozen=True)
class NakagamiStage:
    """One multiplicative fading stage with shape ``m`` and spread ``omega``.

    The squared amplitude of the stage is Gamma(m, omega/m); its mean is
    omega exactly.
    """

    m: float
    omega: float

    def __post_init__(self) -> None:
        if not (isfinite(self.m) and self.m > 0):
            raise ParameterError(f"stage shape m must be positive and finite, got {self.m!r}")
        if not (isfinite(self.omega) and self.omega > 0):
            raise ParameterError(
                f"stage spread omega must be positive and finite, got {self.omega!r}"
            )
        # the sampler multiplies every draw by this scale and checks nothing
        if not (isfinite(self.gamma_scale) and self.gamma_scale > 0):
            raise ParameterError(
                f"stage scale omega/m must be positive and finite, got {self.gamma_scale!r} "
                f"from m={self.m!r}, omega={self.omega!r}"
            )

    @property
    def gamma_shape(self) -> float:
        return self.m

    @property
    def gamma_scale(self) -> float:
        return self.omega / self.m


@dataclass(frozen=True)
class LinkSpec:
    """An ordered, non-empty chain of fading stages."""

    stages: tuple[NakagamiStage, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ParameterError("a link needs at least one fading stage")

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[float]]) -> "LinkSpec":
        """Build a spec from (m, omega) pairs, e.g. [(1, 1), (2, 2)]."""
        return cls(tuple(NakagamiStage(float(m), float(omega)) for m, omega in pairs))


# integer shapes up to this are drawn by inversion: on SFC64 the log of a
# product of three uniforms costs less than one standard_gamma(3)
_MAX_EXPONENTIAL_TERMS = 3
# how the draws are made, as the CLI manifest records it
SAMPLER = f"inverse-erlang -log(prod 1-U) m<={_MAX_EXPONENTIAL_TERMS}, else standard_gamma"
# variates of each further uniform term drawn per step into ``out``
_BLOCK = 8192


def _exponential_terms(shape: float) -> int:
    """m when a stage of shape m is drawn as a sum of m exponentials, else 0."""
    return int(shape) if shape <= _MAX_EXPONENTIAL_TERMS and shape == int(shape) else 0


def _sample_stage(stage: NakagamiStage, rng: np.random.Generator, out: np.ndarray):
    """Write one squared stage amplitude, Gamma(m, omega/m), into each
    entry of ``out`` (a C-contiguous float64 array) and return ``out``.

    An integer shape m <= 3 is drawn by inversion as the sum of m
    exponentials -log(V_i), taken as one log of their product:
    -log(V_1 ... V_m) with V_i = 1 - U_i in (0, 1] and U_i from m
    full-length ``random`` draws, multiplied left to right.  Every other
    shape is drawn by ``standard_gamma``.  The draw is then multiplied by
    the stage's scale (skipped at a scale of exactly 1.0, since x * 1.0 is
    x), so two stages whose scales differ by a factor c give values
    differing by exactly c from identical generator states.  Each further
    uniform term is drawn and multiplied in blocks, which consumes the
    generator exactly as one full draw does, so nothing of ``out``'s size
    is allocated.  The sign is taken as 0 - log(...), so the product 1
    gives +0.0, never -0.0.
    """
    terms = _exponential_terms(stage.gamma_shape)
    if not terms:
        rng.standard_gamma(stage.gamma_shape, out=out)
    else:
        rng.random(out=out)
        np.subtract(1.0, out, out=out)
        flat = out.reshape(-1)  # a view: the draw above refused a non-contiguous ``out``
        block = np.empty(min(flat.size, _BLOCK)) if terms > 1 else None
        for _ in range(terms - 1):
            for lo in range(0, flat.size, _BLOCK):
                part = rng.random(out=block[: flat.size - lo])
                np.subtract(1.0, part, out=part)
                flat[lo : lo + part.size] *= part
        np.log(out, out=out)
        np.subtract(0.0, out, out=out)
    if stage.gamma_scale != 1.0:
        out *= stage.gamma_scale
    return out


def sample_link_gain(spec: LinkSpec, rng: np.random.Generator, size=None, out=None, work=None):
    """Sample ``size`` squared gains of a cascaded link: the product of one
    gamma variate per stage, drawn in stage order.

    With ``out`` (a C-contiguous float64 array, whose shape is then the
    size) the gains are written there, bit-equal to the allocating call.
    A later stage is drawn in full into ``work``, an array like ``out``,
    and multiplied in; given ``work``, nothing of that size is allocated.
    A gain past the float range is inf, and the overflow is not reported:
    under the decode rule fl(c / x) <= rho it decodes every feasible
    position (c / inf = 0) and no infeasible one (inf / inf is NaN).
    """
    if out is None:
        out = np.empty(size)
    first, *rest = spec.stages
    if rest and work is None:
        work = np.empty_like(out)
    with np.errstate(over="ignore"):
        _sample_stage(first, rng, out)
        for stage in rest:
            out *= _sample_stage(stage, rng, work)
    return out
