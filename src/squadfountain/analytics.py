"""Analytical model of doped belief-propagation decoding.

Between two dopings the ripple is modeled as a random walk: it restarts at
size two, each peeling step consumes one ripple symbol and releases a
Poisson-distributed number of new ones, and the decoder stalls when the
walk hits zero.

The restart at two matches the decoder.  A yield counts the doped symbol
as the first decode of its interval, and the decoder dopes the input of a
uniformly chosen (degree-two output, neighbor) pair.  That size-biased
input sits in the chosen output plus Poisson(lambda) others, so it
releases 1 + Poisson(lambda) symbols: exactly the ripple left after the
first step of a walk started at two.  Hence P(Y=2) = e^{-2 lambda} and
P(Y=3) = 2 lambda e^{-3 lambda}.

This module provides

* the degree evolution of unreleased output symbols under uniform peeling,
* the interdoping-yield distribution, computed three independent ways
  (closed form by the hitting-time theorem, absorbing Markov-chain matrix
  powers, Monte Carlo walks) so each route can validate the others,
* expected-doping predictions (iterative schedule and the delta=0
  renewal shortcut), and
* the expected number of source packets no collected symbol covers.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import poisson

from .degrees import DegreeDistribution
from .errors import DivergedError, InvalidParameterError

_MASS_TOL = 1e-9


def walk_intensity(k: int, delta: float, ell: float) -> float:
    """Ripple-walk release intensity 1 + delta*k/(k-ell); equals 1 iff delta=0."""
    if ell >= k:
        raise InvalidParameterError(f"ell={ell} must be below k={k}")
    return 1.0 + delta * k / (k - ell)


# ---------------------------------------------------------------------------
# Degree evolution of unreleased output symbols
# ---------------------------------------------------------------------------


def degree_evolution_pmf(k: int, ell: int, d: int) -> float:
    """Mass of degree d among output-symbol columns after ell uniform removals.

    Closed form ((k-ell)/k) * rho(d) on 2 <= d <= k-ell, zero outside, where
    rho is the Ideal Soliton; equals the step-by-step column recursion.
    """
    if not 0 <= ell <= k - 3:
        raise InvalidParameterError(f"ell={ell} outside 0..k-3 for k={k}")
    if d < 2:
        raise InvalidParameterError("degree evolution is defined for d >= 2")
    if d > k - ell:
        return 0.0
    return (k - ell) / k * (1.0 / (d * (d - 1.0)))


def unreleased_degree_dist(k: int, ell: int) -> DegreeDistribution:
    """Degree law of still-unreleased output symbols at decode depth ell: the
    Ideal Soliton masses on the shrunken support {2..k-ell}, renormalized."""
    if not 0 <= ell <= k - 3:
        raise InvalidParameterError(f"ell={ell} outside 0..k-3 for k={k}")
    top = k - ell
    raw = np.zeros(top + 1)
    d = np.arange(2, top + 1, dtype=float)
    raw[2:] = 1.0 / (d * (d - 1.0))
    return DegreeDistribution.from_weights(raw)


# ---------------------------------------------------------------------------
# Interdoping-yield distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YieldPmf:
    """P(Y = t) for the stall time Y of the ripple walk, t = 0..t_max.

    ``tail`` is the mass beyond t_max.
    """

    lam: float
    probs: np.ndarray
    tail: float

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs[0] != 0.0 or probs[1] != 0.0:
            raise InvalidParameterError("P(Y=0) and P(Y=1) must be zero")
        if np.any(probs < 0.0):
            raise InvalidParameterError("yield masses must be >= 0")
        total = float(probs.sum()) + self.tail
        if abs(total - 1.0) > _MASS_TOL:
            raise InvalidParameterError(f"mass + tail = {total!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def t_max(self) -> int:
        return len(self.probs) - 1


def interdoping_yield_pmf(lam: float, t_max: int) -> YieldPmf:
    """Stall-time pmf of the ripple walk in closed form.

    The walk starts at two, increments by Poisson(lam)-1 each step, and is
    absorbed at zero.  It drops by at most one per step, so the hitting-time
    theorem (Kemperman; van der Hofstad & Keane, Amer. Math. Monthly 2008)
    gives the law exactly:

        P(Y=t) = (2/t) * Poisson(t*lam) at t-2.

    Each mass is independent of t_max, so a longer pmf extends a shorter one.
    """
    if not 1.0 <= lam < math.inf:
        raise InvalidParameterError(f"lam must be finite and >= 1, got {lam}")
    if t_max < 2:
        raise InvalidParameterError(f"t_max must be >= 2, got {t_max}")
    t = np.arange(1, t_max + 1, dtype=float)
    probs = np.zeros(t_max + 1)
    probs[1:] = 2.0 / t * poisson.pmf(t - 2.0, t * lam)
    total = float(probs.sum())
    if total > 1.0 + _MASS_TOL:
        raise InvalidParameterError(f"yield masses sum to {total!r} > 1")
    tail = max(0.0, 1.0 - total)
    return YieldPmf(lam=lam, probs=probs, tail=tail)


# ---------------------------------------------------------------------------
# Absorbing Markov-chain validator
# ---------------------------------------------------------------------------


def ripple_transition_matrix(lam: float, k: int) -> np.ndarray:
    """Dense transition matrix of the ripple walk on states 1..k.

    State v corresponds to ripple size v-1; state 1 is the absorbing empty
    ripple.  From state v >= 2 the walk moves to v+b with probability
    Poisson(lam) at 1+b, b = -1..k-v (mass beyond state k is truncated,
    irrelevant for the short horizons this validator is used on).
    """
    if lam <= 0:
        raise InvalidParameterError(f"lam must be positive, got {lam}")
    if k < 3:
        raise InvalidParameterError(f"k must be >= 3, got {k}")
    eta = poisson.pmf(np.arange(k + 1), lam)
    P = np.zeros((k, k))
    P[0, 0] = 1.0
    for v in range(2, k + 1):
        row = v - 1
        width = k - v + 2  # states v-1..k
        P[row, row - 1 :] = eta[:width]
    return P


def trapping_probabilities(matrix: np.ndarray, u_max: int) -> np.ndarray:
    """P(absorbed exactly at step u), u = 1..u_max, from initial state 3."""
    if u_max < 1:
        raise InvalidParameterError(f"u_max must be >= 1, got {u_max}")
    state = np.zeros(matrix.shape[0])
    state[2] = 1.0  # ripple of size two
    out = np.empty(u_max)
    prev = 0.0
    for u in range(u_max):
        state = state @ matrix
        cur = float(state[0])
        out[u] = cur - prev
        prev = cur
    return out


def simulate_walk_stopping_times(
    lam: float, n_walks: int, t_cap: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo stall times of the ripple walk, censored at t_cap.

    Start at two, add Poisson(lam)-1 per step, absorb at <= 0.  Walks still
    alive at t_cap are reported as t_cap.
    """
    if t_cap < 1:
        raise InvalidParameterError(f"t_cap must be >= 1, got {t_cap}")
    times = np.full(n_walks, t_cap, dtype=np.int64)
    ripple = np.full(n_walks, 2, dtype=np.int64)
    alive = np.arange(n_walks)
    for t in range(1, t_cap + 1):
        ripple[alive] += rng.poisson(lam, size=len(alive)).astype(np.int64) - 1
        dead = ripple[alive] <= 0
        times[alive[dead]] = t
        alive = alive[~dead]
        if len(alive) == 0:
            break
    return times


# ---------------------------------------------------------------------------
# Expected dopings
# ---------------------------------------------------------------------------


def expected_yield(pmf: YieldPmf, k: int, l_i: float) -> float:
    """Censored mean of Y at horizon k - l_i; tail mass sits at the bound."""
    bound = k - l_i
    if bound <= 0:
        raise InvalidParameterError(f"horizon k-l_i={bound} must be positive")
    top = min(pmf.t_max, int(bound))
    t = np.arange(top + 1)
    head = float(np.dot(t, pmf.probs[: top + 1]))
    covered = float(pmf.probs[: top + 1].sum())
    return head + (1.0 - covered) * bound


@dataclass(frozen=True)
class UncoveredCount:
    """Expected source packets absent from every collected symbol."""

    exact: float  # k * (1 - 1/k)^(k(1+delta) ln k)
    approx: float  # k * exp(-(1+delta) ln k) = k^(-delta)


def uncovered_count(k: int, delta: float) -> UncoveredCount:
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    if delta < 0:
        raise InvalidParameterError(f"delta must be >= 0, got {delta}")
    draws = k * (1.0 + delta) * math.log(k)
    exact = k * (1.0 - 1.0 / k) ** draws
    approx = float(k) ** (-delta)  # k * exp(-(1+delta) ln k), exactly 1 at delta=0
    return UncoveredCount(exact=exact, approx=approx)


@dataclass(frozen=True)
class DopingRound:
    """One iteration of the expected-doping schedule."""

    index: int
    decoded_before: float
    lam: float
    expected_yield: float


@dataclass(frozen=True)
class DopingPrediction:
    """Predicted dopings for collecting k(1+delta) symbols upfront.

    ``stall_dopings`` counts schedule iterations (decoder stalls);
    ``uncovered`` is the expected uncovered-symbol polls added on top;
    ``k_d`` is their sum and ``p_d`` the percentage 100*k_d/k.
    """

    k: int
    delta: float
    stall_dopings: int
    uncovered: float
    k_d: float
    p_d: float
    rounds: tuple[DopingRound, ...] = ()


def expected_dopings(k: int, delta: float) -> DopingPrediction:
    """Iterate the yield schedule until decoded mass reaches k - uncovered.

    Each round i holds the intensity fixed at 1 + delta*k/(k-l_i), takes the
    censored expected yield at horizon k - l_i, and advances l by it.  The
    loop is guarded against non-termination at k iterations.
    """
    if k < 3:
        raise InvalidParameterError(f"k must be >= 3, got {k}")
    if delta < 0:
        raise InvalidParameterError(f"delta must be >= 0, got {delta}")
    u = uncovered_count(k, delta).exact
    decoded = 0.0
    rounds: list[DopingRound] = []
    i = 0
    while decoded + u < k:
        i += 1
        if i > k:
            raise DivergedError(f"doping schedule did not close after {k} rounds")
        remaining = k - decoded
        lam = walk_intensity(k, delta, decoded)
        if remaining < 2.0:
            ey = remaining  # horizon too short for any finite yield mass
        else:
            ey = expected_yield(interdoping_yield_pmf(lam, int(remaining)), k, decoded)
        rounds.append(
            DopingRound(index=i, decoded_before=decoded, lam=lam, expected_yield=ey)
        )
        decoded += ey
    k_d = i + u
    return DopingPrediction(
        k=k,
        delta=delta,
        stall_dopings=i,
        uncovered=u,
        k_d=k_d,
        p_d=100.0 * k_d / k,
        rounds=tuple(rounds),
    )


def wald_dopings(k: int) -> float:
    """Zero-surplus renewal shortcut: k over the censored mean yield."""
    pmf = interdoping_yield_pmf(1.0, k)
    return k / expected_yield(pmf, k, 0.0)
