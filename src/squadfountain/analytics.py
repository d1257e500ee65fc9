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

Y is Borel-Tanner distributed (Haight & Breuer, Biometrika 1960), and its
law at intensity lambda is an exponential tilt of the law at lambda = 1:

    P_lambda(Y=t) = lambda^-2 * (lambda e^{1-lambda})^t * P_1(Y=t).

So one lambda = 1 pmf serves every round of every schedule in a table, and
a round's censored mean yield is two tilt-weighted sums over its prefix.

This module provides

* the degree evolution of unreleased output symbols under uniform peeling,
* the interdoping-yield distribution, computed three independent ways
  (closed form by the hitting-time theorem, Markov-chain matrix powers,
  Monte Carlo walks counted per ripple size) so each validates the others,
* expected-doping predictions (iterative schedule, tabled over a surplus
  grid, and the delta=0 renewal shortcut), and
* the expected number of source packets no collected symbol covers.

Poisson masses and tails are evaluated as scipy.stats does, from
scipy.special, which is imported by the two functions that need it.  So
importing the package, and the Monte Carlo paths that never evaluate a
Poisson mass, load no scipy at all; scipy.special loads when an analytic
routine first asks for a mass or a tail, and scipy.stats never loads.  All
functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .degrees import DegreeDistribution, ideal_soliton
from .errors import DivergedError, InvalidParameterError

_MASS_TOL = 1e-9


def _poisson_pmf(n, mu: float) -> np.ndarray:
    """Poisson(mu) mass at n, evaluated as scipy.stats.poisson.pmf does; zero
    for n < 0."""
    from scipy.special import gammaln, xlogy

    n = np.asarray(n, dtype=float)
    return np.where(n < 0, 0.0, np.exp(xlogy(n, mu) - gammaln(n + 1.0) - mu))


def _size(name: str, value, low: int) -> None:
    if not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidParameterError(f"{name} must be >= {low} and an integer, got {value!r}")


def walk_intensity(k: int, delta: float, ell: float) -> float:
    """Ripple-walk release intensity 1 + delta*k/(k-ell); equals 1 iff delta=0."""
    if ell >= k:
        raise InvalidParameterError(f"ell={ell} must be below k={k}")
    return 1.0 + delta * k / (k - ell)


# ---------------------------------------------------------------------------
# Degree evolution of unreleased output symbols
# ---------------------------------------------------------------------------


def unreleased_degree_dist(k: int, ell: int) -> DegreeDistribution:
    """Degree law of still-unreleased output symbols at decode depth ell: the
    Ideal Soliton masses on the shrunken support {2..k-ell}, renormalized."""
    if not isinstance(ell, (int, np.integer)) or not 0 <= ell <= k - 3:
        raise InvalidParameterError(f"ell={ell} must be an integer in 0..k-3 for k={k}")
    raw = ideal_soliton(k - ell).pmf.copy()
    raw[1] = 0.0
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
        if not abs(total - 1.0) <= _MASS_TOL:  # NaN fails too
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
    _size("t_max", t_max, 2)
    if not lam * t_max < math.inf:
        raise InvalidParameterError(f"lam * t_max must be finite, got {lam} and {t_max}")
    t = np.arange(1, t_max + 1, dtype=float)
    probs = np.zeros(t_max + 1)
    probs[1:] = 2.0 / t * _poisson_pmf(t - 2.0, t * lam)
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
    Poisson(lam) at 1+b, b = -1..k-v; mass beyond state k is truncated.
    The walk drops by at most one per step, so it is absorbed within u steps
    only from states 1..u+1, and the truncation leaves the trapping masses
    up to step k-1 exact.  Below row 0 the matrix is Toeplitz: a reversed
    sliding window over the Poisson masses with k-2 zeros in front.
    """
    if not 0.0 < lam < math.inf:
        raise InvalidParameterError(f"lam must be finite and positive, got {lam}")
    _size("k", k, 3)
    eta = _poisson_pmf(np.arange(k + 1), lam)
    padded = np.concatenate((np.zeros(k - 2), eta))  # P[r, c] = padded[k-1+c-r]
    P = np.lib.stride_tricks.sliding_window_view(padded, k)[::-1].copy()
    P[0] = 0.0
    P[0, 0] = 1.0
    return P


def trapping_probabilities(matrix: np.ndarray, u_max: int) -> np.ndarray:
    """P(absorbed exactly at step u), u = 1..u_max, from initial state 3.

    When the walk drops by at most one state per step, it is absorbed within
    u_max steps only from states 1..u_max+1, so only the leading
    m = min(n, max(3, u_max+1)) states are propagated.  The matrix must be
    square with at least 3 states, and every entry more than one below the
    diagonal in its first u_max columns must be zero; otherwise the cut could
    drop mass and InvalidParameterError is raised.
    """
    _size("u_max", u_max, 1)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or len(matrix) < 3:
        raise InvalidParameterError(
            f"matrix must be square with >= 3 states, got shape {matrix.shape}"
        )
    if np.any(np.tril(matrix[:, :u_max], -2)):
        raise InvalidParameterError(
            "matrix drops by more than one state in its first u_max columns"
        )
    m = max(3, u_max + 1)
    block = matrix[:m, :m]
    state = np.zeros(len(block))
    state[2] = 1.0  # ripple of size two
    out = np.empty(u_max)
    prev = 0.0
    for u in range(u_max):
        state = state @ block
        cur = float(state[0])
        out[u] = cur - prev
        prev = cur
    return out


def simulate_walk_stopping_times(
    lam: float, n_walks: int, t_cap: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo stall times of n_walks ripple walks, censored at t_cap.

    Each walk starts at two, adds Poisson(lam)-1 per step and stalls at zero;
    walks alive at t_cap report t_cap.  The walks are i.i.d., so each step
    splits the count of walks at every ripple size with one multinomial draw
    over the Poisson(lam) pmf, cut where its omitted tail is below 1e-16 (the
    multinomial gives that tail to the last cell).  The counts are dense over
    the sizes from the smallest to the largest alive; an empty size draws
    nothing, so the draws are those of the alive sizes alone.  One bincount
    over a table of destination indices, which grows with the live sizes and
    never with t_cap, lands the moved walks.  Cost does not grow with
    n_walks.  Returns n_walks int64 stall times in ascending order.
    """
    _size("n_walks", n_walks, 0)
    if not 0.0 < lam < math.inf:
        raise InvalidParameterError(f"lam must be finite and positive, got {lam}")
    _size("t_cap", t_cap, 1)
    from scipy.special import pdtrc

    cells = np.arange(int(lam + 40.0 * math.sqrt(lam) + 40.0))
    cells = cells[: int(np.argmax(pdtrc(cells, lam) < 1e-16)) + 1]
    step_law = _poisson_pmf(cells, lam)
    stalls = np.zeros(t_cap + 1, dtype=np.int64)
    low, counts, dest = 2, np.array([n_walks], dtype=np.int64), cells[None, :]
    for t in range(1, t_cap + 1):  # counts[i] walks at ripple size low + i
        if len(dest) < len(counts):
            dest = np.arange(2 * len(counts))[:, None] + cells
        # landed[j] walks at size low - 1 + j; float weights are exact below 2**53 walks
        landed = np.bincount(dest[: len(counts)].ravel(),
                             rng.multinomial(counts, step_law).ravel())
        if low == 1:
            stalls[t], landed[0] = landed[0], 0
        alive = np.flatnonzero(landed)
        if not alive.size:
            break
        low, counts = low - 1 + alive[0], landed[alive[0] : alive[-1] + 1].astype(np.int64)
    stalls[t_cap] += n_walks - stalls.sum()
    return np.repeat(np.arange(t_cap + 1, dtype=np.int64), stalls)


# ---------------------------------------------------------------------------
# Expected dopings
# ---------------------------------------------------------------------------


def _censored_mean(probs: np.ndarray, bound: float) -> float:
    """E[min(Y, bound)] from P(Y=t) for t = 0..len(probs)-1, all t <= bound;
    the mass not in probs sits at the bound."""
    head = float(np.dot(np.arange(len(probs)), probs))
    covered = float(probs.sum())
    return head + (1.0 - covered) * bound


def expected_yield(pmf: YieldPmf, k: int, l_i: float) -> float:
    """Censored mean of Y at horizon k - l_i; tail mass sits at the bound."""
    bound = k - l_i
    if not bound > 0:  # NaN fails too
        raise InvalidParameterError(f"horizon k-l_i={bound} must be positive")
    return _censored_mean(pmf.probs[: min(pmf.t_max, int(bound)) + 1], bound)


@dataclass(frozen=True)
class UncoveredCount:
    """Expected source packets absent from every collected symbol."""

    exact: float  # k * (1 - 1/k)^(k(1+delta) ln k)
    approx: float  # k * exp(-(1+delta) ln k) = k^(-delta)


def uncovered_count(k: int, delta: float) -> UncoveredCount:
    if k < 2:
        raise InvalidParameterError(f"k must be >= 2, got {k}")
    if not 0.0 <= delta < math.inf:
        raise InvalidParameterError(f"delta must be finite and >= 0, got {delta}")
    symbols = k * (1.0 + delta)  # collected upfront
    if symbols >= 2**62:
        raise InvalidParameterError(f"k * (1 + delta) must be below 2**62, got {symbols:g}")
    draws = symbols * math.log(k)
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


def _schedule(k: int, delta: float, t: np.ndarray, base: np.ndarray,
              tp: np.ndarray) -> DopingPrediction:
    """Iterate the yield schedule until decoded mass reaches k - uncovered.

    Each round i holds the intensity fixed at 1 + delta*k/(k-l_i), takes the
    censored expected yield at horizon k - l_i, and advances l by it.  Every
    round's yield law is the lambda = 1 pmf ``base`` over the float support
    ``t`` = 0..k (at least) tilted by lambda^-2 * (lambda e^{1-lambda})^t, so
    a round is two reductions over prefixes of ``base`` and ``tp`` = t * base.
    Each round writes its tilt weights into the schedule's one buffer, in
    place.  The loop is guarded against non-termination at k iterations.
    """
    u = uncovered_count(k, delta).exact  # rejects delta outside [0, inf)
    decoded = 0.0
    rounds: list[DopingRound] = []
    w = np.empty(len(t))
    i = 0
    while decoded + u < k:
        i += 1
        if i > k:
            raise DivergedError(f"doping schedule did not close after {k} rounds")
        remaining = k - decoded
        lam = walk_intensity(k, delta, decoded)
        top = int(remaining) + 1
        if delta:  # at delta = 0 every round has lam = 1
            eps = lam - 1.0
            tilt = np.multiply(t[:top], math.log1p(eps) - eps, out=w[:top])
            np.exp(tilt, out=tilt)
            head = float(tilt @ tp[:top]) / lam**2
            covered = float(tilt @ base[:top]) / lam**2
        else:
            head, covered = float(tp[:top].sum()), float(base[:top].sum())
        ey = head + (1.0 - covered) * remaining  # as _censored_mean
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


def doping_table(k: int, deltas) -> dict[float, DopingPrediction]:
    """The doping schedule at every surplus in ``deltas``, keyed by it; one
    lambda = 1 yield pmf, its float support t and t * pmf feed them all."""
    _size("k", k, 3)  # before the pmf, whose own check would name t_max
    t = np.arange(k + 1, dtype=float)
    base = interdoping_yield_pmf(1.0, k).probs
    tp = t * base
    return {delta: _schedule(k, delta, t, base, tp) for delta in deltas}


def expected_dopings(k: int, delta: float) -> DopingPrediction:
    """The doping schedule at (k, delta)."""
    return doping_table(k, [delta])[delta]


def wald_dopings(k: int) -> float:
    """Zero-surplus renewal shortcut: k over the censored mean yield."""
    pmf = interdoping_yield_pmf(1.0, k)
    return k / expected_yield(pmf, k, 0.0)
