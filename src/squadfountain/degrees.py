"""Degree distributions used for storage encoding and for the ripple analytics.

A :class:`DegreeDistribution` is a dense pmf over symbol degrees ``1..k``
with a precomputed cdf, sampled exactly by inverse transform (binary search
on the cdf).  Dense storage keeps sampling exact and reproducible; at desk
scale (k up to ~1e5) the O(k) memory is irrelevant.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class DegreeDistribution:
    """Immutable pmf over degrees ``1..k``; safe to share across workers.

    ``pmf[d]`` is the probability of degree ``d`` (index 0 unused and zero).
    """

    k: int
    pmf: np.ndarray
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if self.k < 1 or pmf.shape != (self.k + 1,):
            raise InvalidParameterError(
                f"pmf must have shape ({self.k + 1},), got {pmf.shape}"
            )
        if pmf[0] != 0.0 or np.any(pmf < 0.0):
            raise InvalidParameterError("pmf entries must be >= 0 with pmf[0] == 0")
        total = float(pmf.sum())
        if not abs(total - 1.0) <= _NORM_TOL:  # NaN fails too
            raise InvalidParameterError(f"pmf sums to {total!r}, not 1")
        cdf = np.cumsum(pmf)
        if not abs(cdf[-1] - 1.0) <= _NORM_TOL:
            raise InvalidParameterError("cdf[k] must equal 1")
        pmf.setflags(write=False)
        cdf.setflags(write=False)
        object.__setattr__(self, "pmf", pmf)
        object.__setattr__(self, "cdf", cdf)

    @classmethod
    def from_weights(cls, weights: np.ndarray) -> "DegreeDistribution":
        """Normalize nonnegative weights indexed by degree (index 0 ignored)."""
        w = np.asarray(weights, dtype=float).copy()
        w[0] = 0.0
        s = w.sum()
        if s <= 0:
            raise InvalidParameterError("weights must have positive total mass")
        return cls(k=len(w) - 1, pmf=w / s)


def ideal_soliton(k: int) -> DegreeDistribution:
    """Ideal Soliton: pmf[1] = 1/k, pmf[d] = 1/(d(d-1)) for d = 2..k.

    The masses telescope to exactly 1.
    """
    if k < 2:
        raise InvalidParameterError(f"ideal_soliton requires k >= 2, got {k}")
    d = np.arange(2, k + 1, dtype=float)
    pmf = np.zeros(k + 1)
    pmf[1] = 1.0 / k
    pmf[2:] = 1.0 / (d * (d - 1.0))
    return DegreeDistribution(k=k, pmf=pmf)


def robust_soliton_params(k: int, c: float, delta_rs: float) -> tuple[float, int]:
    """Return (R, spike degree) for the Robust Soliton construction."""
    R = c * math.log(k / delta_rs) * math.sqrt(k)
    return R, math.ceil(k / R)


def robust_soliton(k: int, c: float = 0.1, delta_rs: float = 0.5) -> DegreeDistribution:
    """Robust Soliton: Ideal Soliton plus the low-degree boost tau, normalized.

    With R = c*ln(k/delta_rs)*sqrt(k): tau(d) = R/(d*k) for d < ceil(k/R),
    tau at the spike degree ceil(k/R) is R*ln(R/delta_rs)/k, zero above.
    """
    if k < 2:
        raise InvalidParameterError(f"robust_soliton requires k >= 2, got {k}")
    if not c > 0:  # NaN too
        raise InvalidParameterError(f"c must be positive, got {c}")
    if not 0.0 < delta_rs < 1.0:
        raise InvalidParameterError(f"delta_rs must lie in (0,1), got {delta_rs}")
    R, spike = robust_soliton_params(k, c, delta_rs)
    if R >= k:
        raise InvalidParameterError(
            f"parameters give R={R:.3g} >= k={k}; no valid spike degree"
        )
    weights = ideal_soliton(k).pmf.copy()
    tau_top = min(spike - 1, k)
    d = np.arange(1, tau_top + 1, dtype=float)
    weights[1 : tau_top + 1] += R / (d * k)
    if spike <= k:
        weights[spike] += R * math.log(R / delta_rs) / k
    return DegreeDistribution.from_weights(weights)


def sample_degrees(
    dist: DegreeDistribution,
    rng: np.random.Generator | Sequence[np.random.Generator],
    size: int,
) -> np.ndarray:
    """Inverse-transform draws of ``size`` degrees in 1..k, one uniform each.

    Given a sequence of streams, each draws ``size`` uniforms in turn, and
    one search maps them all.
    """
    if isinstance(rng, np.random.Generator):
        u = rng.random(size)
    else:
        u = np.concatenate([g.random(size) for g in rng])
    # minimum() guards a draw landing above a cdf top that rounded below 1
    idx = np.searchsorted(dist.cdf, u, side="right").astype(np.int64)
    return np.minimum(idx, dist.k)

