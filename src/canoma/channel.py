"""Cascaded Nakagami-m fading links: squared-gain sampling and moments.

A vehicular link is modelled as a chain of independent Nakagami-m
scatterers.  The link amplitude is the product of the per-stage
amplitudes, so the squared channel gain is a product of independent
gamma variates: stage (m, omega) contributes Gamma(shape=m,
scale=omega/m), whose mean is exactly omega.  Only squared gains are
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
    "sample_gamma",
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


# variates of a later stage that ``sample_link_gain`` draws per step into ``out``
_BLOCK = 8192


def sample_gamma(shape: float, scale: float, rng: np.random.Generator, size=None, out=None):
    """Draw gamma variates with the given shape and scale.

    Scalar when ``size`` and ``out`` are None, ndarray otherwise; with
    ``out`` (a C-contiguous float64 array) the variates are written there
    and ``out`` is returned.  The draw is ``standard_gamma(shape) * scale``,
    so two runs from identical generator states with scales differing by
    a factor c produce values differing by exactly c.
    """
    if not (isfinite(shape) and shape > 0):
        raise ParameterError(f"gamma shape must be positive and finite, got {shape!r}")
    if not (isfinite(scale) and scale > 0):
        raise ParameterError(f"gamma scale must be positive and finite, got {scale!r}")
    if out is None:
        return rng.standard_gamma(shape, size=size) * scale
    rng.standard_gamma(shape, out=out)
    out *= scale
    return out


def sample_link_gain(spec: LinkSpec, rng: np.random.Generator, size=None, out=None):
    """Sample the squared gain of a cascaded link: the product of one
    gamma variate per stage, drawn in stage order.

    With ``out`` (a C-contiguous float64 array, whose shape is then the
    size) the gains are written there, bit-equal to the allocating call,
    and nothing of that size is allocated: a later stage is drawn in
    blocks, which consumes the generator exactly as one full draw does.
    """
    if out is None and size is None:
        gain = 1.0
        for stage in spec.stages:
            gain = gain * sample_gamma(stage.gamma_shape, stage.gamma_scale, rng)
        return gain
    if out is None:
        out = np.empty(size)
    first, *rest = spec.stages
    sample_gamma(first.gamma_shape, first.gamma_scale, rng, out=out)
    flat = out.reshape(-1)  # a view: the draw above refused a non-contiguous ``out``
    block = np.empty(min(flat.size, _BLOCK))
    for stage in rest:
        for lo in range(0, flat.size, _BLOCK):
            part = block[: flat.size - lo]
            flat[lo : lo + part.size] *= sample_gamma(
                stage.gamma_shape, stage.gamma_scale, rng, out=part
            )
    return out

