"""Interdoping-yield analytics: closed form, Markov matrix, Monte Carlo.

The stall time of the ripple walk (start at two, Poisson(lam)-1 increments,
absorbed at zero) has the closed form P(Y=t) = (2/t) Pois(t lam; t-2) by the
hitting-time theorem.  An absorbing-chain transition matrix and raw Monte
Carlo walks validate it, and the censored-mean schedule turns it into an
expected-doping prediction.
"""

import math

import numpy as np

from squadfountain.analytics import (
    expected_dopings,
    interdoping_yield_pmf,
    ripple_transition_matrix,
    simulate_walk_stopping_times,
    trapping_probabilities,
    wald_dopings,
)

LAM = 1.05
pmf = interdoping_yield_pmf(LAM, 50)
matrix = ripple_transition_matrix(LAM, 300)
by_matrix = trapping_probabilities(matrix, 12)
times = simulate_walk_stopping_times(LAM, 400_000, 51, np.random.default_rng(3))
emp = np.bincount(times, minlength=52) / len(times)

print(f"stall-time distribution at intensity lam = {LAM}")
print()
print("  t | closed form | matrix     | Monte Carlo | anchor")
print("-" * 62)
closed = {2: math.exp(-2 * LAM), 3: 2 * LAM * math.exp(-3 * LAM),
          4: 4 * LAM**2 * math.exp(-4 * LAM)}
for t in range(2, 9):
    cf = f"{closed[t]:.6f}" if t in closed else "          "
    print(f"{t:3d} | {pmf.probs[t]:.8f}  | {by_matrix[t-1]:.8f} | {emp[t]:.8f}   | {cf}")

print()
print("agreement: closed form vs matrix max gap",
      f"{np.max(np.abs(by_matrix - pmf.probs[1:13])):.2e}")

print()
print("expected dopings for k = 2000 as the upfront surplus grows:")
print(" delta | stalls | uncovered | k_d    | percent of k")
for delta in (0.0, 0.01, 0.02, 0.04, 0.06):
    pred = expected_dopings(2000, delta)
    print(f" {delta:5.2f} | {pred.stall_dopings:6d} | {pred.uncovered:9.3f}"
          f" | {pred.k_d:6.2f} | {pred.p_d:6.3f}%")

print()
print(f"zero-surplus renewal shortcut at k = 1000: k/E[Y] = {wald_dopings(1000):.2f}")
print("the shortcut halves the schedule's count: dividing by one censored mean")
print("overweights the rare near-horizon yields that the schedule resets away")
