"""Per-source-packet collection costs and cost-minimizing operating points.

Collecting k_s symbols from the supersquad costs c_s(h) hops per symbol,
polling a doped packet from its source relay costs ceil(k/4) hops on
average, and the per-packet total is their mix:

    c_T = (c_s(h) * k_s + ceil(k/4) * k_d) / k,   s(h) = ceil(k_s / h).

Two supersquad hop models are exposed: 'eq_costeq' with
c_s = 1 + (s+1)/4 (the default the cost curves use) and 'sec2' with
c_s = 1 + (s-1)/4; they differ by exactly k_s/(2k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analytics
from .errors import InvalidParameterError

HOP_MODELS = ("eq_costeq", "sec2")


@dataclass(frozen=True)
class CostPoint:
    strategy: str
    k: int
    h: float
    k_s: float
    k_d: float
    c_T: float
    delta: float | None = None

    @property
    def normalized(self) -> float:
        """Cost relative to pure polling's k/4."""
        return self.c_T / (self.k / 4.0)


def supersquad_squads(k_s: float, h: float) -> int:
    """Number of squads the collector drains: ceil(k_s/h); zero when k_s=0."""
    if not 1 <= h < math.inf:
        raise InvalidParameterError(f"h must be finite and >= 1, got {h}")
    if not 0 <= k_s < math.inf:  # NaN too
        raise InvalidParameterError(f"k_s must be finite and nonnegative, got {k_s}")
    return math.ceil(k_s / h)


def _require_k(k: int) -> None:
    if k < 1:
        raise InvalidParameterError(f"k must be at least 1, got {k}")


def collection_cost(
    k: int, k_s: float, k_d: float, h: float, hop_model: str = "eq_costeq"
) -> float:
    _require_k(k)
    if not (k_s >= 0 and k_d >= 0 and h >= 0):  # NaN too
        raise InvalidParameterError("cost inputs must be nonnegative")
    if hop_model not in HOP_MODELS:
        raise InvalidParameterError(f"unknown hop_model {hop_model!r}")
    s = supersquad_squads(k_s, h)
    offset = 1 if hop_model == "eq_costeq" else -1
    c_s = 1.0 + (s + offset) / 4.0
    c_d = math.ceil(k / 4)
    return (c_s * k_s + c_d * k_d) / k


def coupon_requirement(k: int) -> float:
    """Expected storage nodes a coupon collector needs to cover k packets: k*H_k."""
    return k * float(np.sum(1.0 / np.arange(1, k + 1)))


def coupon_requirement_klogk(k: int) -> float:
    """The common k*log(k) approximation of the coupon requirement."""
    return k * math.log(k)


def coupon_residual_uncovered(k: int, k_s: float) -> float:
    """Expected packets still uncovered after k_s uniform single-packet stores."""
    return k * (1.0 - 1.0 / k) ** k_s


def rs_symbol_requirement(k: int, eps_rs: float = 0.5) -> float:
    """Symbols for stall-free decoding under the heavy-tailed-degree bound."""
    if not 0.0 < eps_rs < 1.0:
        raise InvalidParameterError(f"eps_rs must lie in (0,1), got {eps_rs}")
    return k + math.sqrt(k) * math.log(k / eps_rs) ** 2


def strategy_cost(
    strategy: str,
    k: int,
    h: float,
    delta: float = 0.0,
    eps_rs: float = 0.5,
    k_d: float | None = None,
    hop_model: str = "eq_costeq",
) -> CostPoint:
    """(k_s, k_d) operating pair and cost for one collection strategy.

    'is_doping' takes its doping count ``k_d`` from the caller, analytic
    (``analytics.doping_table``) or simulated; the other strategies fix their
    own.
    """
    _require_k(k)
    delta_out = None
    if strategy == "polling":
        k_s, k_d = 0.0, float(k)
    elif strategy == "coupon":
        k_s = coupon_requirement(k)
        k_d = coupon_residual_uncovered(k, k_s)
    elif strategy == "rs_no_doping":
        k_s, k_d = rs_symbol_requirement(k, eps_rs), 0.0
    elif strategy == "is_doping":
        if k_d is None:
            raise InvalidParameterError("is_doping needs its doping count k_d")
        k_s, delta_out = k * (1.0 + delta), delta
    else:
        raise InvalidParameterError(f"unknown strategy {strategy!r}")
    c_T = collection_cost(k, k_s, k_d, h, hop_model)
    return CostPoint(
        strategy=strategy, k=k, h=h, k_s=k_s, k_d=k_d, c_T=c_T, delta=delta_out
    )


def minimize_cost(
    k: int,
    h: float,
    delta_grid: np.ndarray,
    kd_by_delta: dict[float, float] | None = None,
) -> tuple[float, CostPoint]:
    """Cheapest doped operating point over the surplus grid (ties: smallest).

    ``kd_by_delta`` supplies the doping count at every grid point (analytic or
    Monte Carlo) and raises if it misses one; by default
    ``analytics.doping_table`` fills it.
    """
    grid = sorted(float(d) for d in np.asarray(delta_grid, dtype=float))
    if not grid:
        raise InvalidParameterError("delta_grid must be nonempty")
    if kd_by_delta is None:
        kd_by_delta = {d: p.k_d for d, p in analytics.doping_table(k, grid).items()}
    missing = [d for d in grid if d not in kd_by_delta]
    if missing:
        raise InvalidParameterError(f"kd_by_delta has no k_d at delta {missing}")
    best = min(
        (strategy_cost("is_doping", k, h, delta=d, k_d=kd_by_delta[d]) for d in grid),
        key=lambda point: point.c_T,
    )
    return best.delta, best
