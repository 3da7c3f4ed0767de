"""Content popularity and the one two-vehicle scenario-class table.

Files 1..T at the base station carry a Zipf-derived popularity;
every vehicle caches the top-C most popular files during the placement
phase and requests one file per delivery trial.  Every file has the
same SINR threshold, so a request's decode depends only on which caches
hold its file: one of at most three top-C regions, its attribute.
:class:`ScenarioTable` groups files by region; a scenario class is one
region per vehicle plus which vehicle is the strong one.  The Monte
Carlo engine classifies trials by the table and the oracle weights its
classes, so the cached contents enter both paths through this one
table.  The per-trial placement, the T-long popularity profile, the
inverse-CDF request map and the classification by set membership are
the tests' reference.

Both paths read the popularity CDF only at the table's few change
points (:func:`zipf_cdf_at`).  Files 1..T0 are weighed one by one and
the rest of any catalog is summed by the Euler-Maclaurin formula, so
that CDF costs O(T0 + K) time and memory at any catalog size T: no
array grows with T.

A uniform u requests file k iff the CDF at k - 1 is below u and the CDF
at k is not (inverse CDF).  This is deliberate: under shared uniforms
the requested index is monotone in the popularity's concentration, which
turns the trend claims of the study into deterministic per-trial
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral, Real

import numpy as np

from .errors import ParameterError

__all__ = [
    "ScenarioTable",
    "zipf_cdf_at",
]

# files 1..T0 are weighed one by one; the sum over the files above T0
# takes the Euler-Maclaurin form, whose first omitted term is below
# 1e-20 of the first tail file's weight wherever that weight is nonzero
_HEAD_FILES = 10_000

# the largest catalog whose every file index is exact in float arithmetic
_MAX_FILES = 2**53


def _zipf_exponent(catalog: int, zeta: float) -> tuple[int, float]:
    """(T, rank exponent s = 1/zeta) of a checked Zipf catalog."""
    # a bool is a number to Python, but never a catalog size or a zeta
    if (
        isinstance(catalog, bool)
        or not isinstance(catalog, Integral)
        or not 1 <= catalog <= _MAX_FILES
    ):
        raise ParameterError(f"catalog size must be an integer in 1..2**53, got {catalog!r}")
    if isinstance(zeta, bool) or not (isinstance(zeta, Real) and isfinite(zeta) and zeta > 0):
        raise ParameterError(f"zeta must be positive and finite, got {zeta!r}")
    return int(catalog), 1.0 / zeta


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    """j^-s for files j = 1..n, built in place: one n-long array, not three."""
    weights = np.arange(1, n + 1, dtype=float)
    np.power(weights, -exponent, out=weights)
    return weights


def _tail_sums(exponent: float, ends) -> np.ndarray:
    """The sum of j^-s over j = T0 + 1..b for each b of ``ends`` (each
    above T0) by the Euler-Maclaurin formula: the integral, half of each
    end term, and the B2, B4 and B6 terms.

    With a = T0 + 1 and u = (1 - s) log(b / a), the integral
    a^(1-s) (e^u - 1) / (1 - s) is formed through expm1(u) / u, which
    keeps its precision as s -> 1 and is 1 at s = 1.  Where a^-s
    underflows (s above about 80) every term does, and the tail is 0.
    """
    a = float(_HEAD_FILES + 1)
    fa = a**-exponent
    b = np.asarray(ends, dtype=float)
    if fa == 0.0:
        return np.zeros(b.shape)
    fb = b**-exponent
    log_ratio = np.log1p((b - a) / a)
    u = (1.0 - exponent) * log_ratio
    growth = np.divide(np.expm1(u), u, out=np.ones_like(u), where=u != 0.0)
    integral = a * fa * log_ratio * growth

    def slope_terms(x, fx):
        # -(f'(x)/12 - f'''(x)/720 + f^(5)(x)/30240) for f(x) = x^-s,
        # each derivative being -f(x) times a rising product of s over x^n
        r1 = exponent / x
        r3 = r1 * (exponent + 1.0) / x * (exponent + 2.0) / x
        r5 = r3 * (exponent + 3.0) / x * (exponent + 4.0) / x
        return fx * (r1 / 12.0 - r3 / 720.0 + r5 / 30240.0)

    return integral + 0.5 * (fa + fb) + slope_terms(a, fa) - slope_terms(b, fb)


def _zipf_total(head: np.ndarray, exponent: float, t: int) -> float:
    """The Zipf normaliser, the sum of j^-s over files 1..T, from the
    weights of files 1..min(T, T0): their plain sum, plus the tail above
    T0.  Every CDF read takes its normaliser from here."""
    total = head.sum()
    if t > _HEAD_FILES:
        total += _tail_sums(exponent, [t])[0]
    return total


def zipf_cdf_at(catalog: int, zeta: float, files) -> np.ndarray:
    """P(request <= k) under the Zipf popularity of files 1..T for each
    file index k of ``files`` (integers in 1..T), in O(T0 + K) time and
    memory for K indices: no array grows with T.

    The rank exponent is 1/zeta, so zeta -> 0 concentrates all mass on
    file 1 and large zeta approaches a uniform popularity; a textbook
    exponent s is zeta = 1/s.  Files 1..min(T, T0) are weighed,
    normalised and accumulated one by one, so at T <= T0 every value is
    the plain running sum of the normalised weights.  Above T0 the
    normaliser and the sum over files 1..k are the head's sum plus the
    Euler-Maclaurin tail, each within 2e-15 relative of the exact sum.
    """
    t, exponent = _zipf_exponent(catalog, zeta)
    k = np.asarray(files, dtype=np.int64)
    if np.any((k < 1) | (k > t)):
        raise ParameterError(f"file indices must lie in 1..{t}")
    head = _zipf_weights(min(t, _HEAD_FILES), exponent)
    total = _zipf_total(head, exponent, t)
    head_cdf = np.cumsum(head / total)
    cdf = head_cdf[np.minimum(k, len(head)) - 1]
    past = k > len(head)
    if past.any():
        partial = head.sum() + _tail_sums(exponent, k[past])
        # the head's running sum drifts from the head's sum (by up to
        # about 1e-14 of the normaliser) and may end above the first
        # tail value; flooring there keeps the CDF ascending
        cdf[past] = np.maximum(partial / total, head_cdf[-1])
    cdf[k == t] = 1.0  # the whole catalog, without the running sum's drift
    return cdf


def _by_position(strong_is_1, v1, v2):
    """Swap vehicle-indexed values into (strong, weak) position order, or back."""
    return np.where(strong_is_1, v1, v2), np.where(strong_is_1, v2, v1)


@dataclass(frozen=True, eq=False)
class ScenarioTable:
    """The scenario classes of one catalog size and cache pair; no
    popularity profile is needed to build it, and it holds arrays of at
    most three entries at any catalog size.

    Under top-C placement a request's attribute -- which caches hold its
    file, its region -- changes only at files c1+1 and c2+1.  Those
    change points cut files 1..T into at most three cells, each of one
    region.  With A distinct regions (A <= 3), class code
    ``2 * (a1 * A + a2) + s`` holds vehicle 1's attribute a1, vehicle 2's
    a2, and s = 1 when vehicle 1 is the strong one.
    """

    files: int  # the catalog size T
    starts: np.ndarray  # change points, in 2..T ascending
    attribute_of_cell: np.ndarray  # attribute index of each cell
    held: np.ndarray  # (in cache 1, in cache 2) by attribute

    @classmethod
    def of(cls, files: int, capacities: tuple[int, int]) -> "ScenarioTable":
        c1, c2 = capacities
        starts = np.unique([c1 + 1, c2 + 1])
        starts = starts[(starts >= 2) & (starts <= files)]
        first = np.concatenate(([1], starts))
        # under top-C placement (in 1, in 2) takes at most 3 of its 4 values
        regions, attribute_of_cell = np.unique(
            (first <= c1) + 2 * (first <= c2), return_inverse=True
        )
        held = np.column_stack((regions & 1 == 1, regions & 2 == 2))
        return cls(int(files), starts, attribute_of_cell, held)

    @property
    def size(self) -> int:
        return 2 * len(self.held) ** 2

    def cdf_at_starts(self, zeta: float) -> np.ndarray:
        """The Zipf CDF at file k - 1 for each change point k, ascending,
        through :func:`zipf_cdf_at`.  A request r(u) is >= k iff that
        value is below u, so a uniform's cell is the number of these
        values below it, and cell masses are their differences."""
        return zipf_cdf_at(self.files, zeta, self.starts - 1)

    def columns(self):
        """``gain_thresholds``' position-ordered cache flags for every
        class code: (hit_s, hit_w, cross_s, cross_w)."""
        pair, strong_is_1 = np.divmod(np.arange(self.size), 2)
        a1, a2 = np.divmod(pair, len(self.held))
        strong_is_1 = strong_is_1 == 1
        return (
            *_by_position(strong_is_1, self.held[a1, 0], self.held[a2, 1]),
            # whether each vehicle holds the other's requested file
            *_by_position(strong_is_1, self.held[a2, 0], self.held[a1, 1]),
        )
