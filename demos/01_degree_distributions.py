"""Symbol degree distributions: Ideal Soliton vs Robust Soliton.

The Ideal Soliton puts half its mass on degree two and almost nothing on
degree one; in expectation that keeps exactly one symbol releasing per
peeling step.  The Robust Soliton shifts extra mass onto low degrees plus
a spike, trading coverage for stall resistance.
"""

import numpy as np

from squadfountain.degrees import (
    ideal_soliton,
    robust_soliton,
    robust_soliton_params,
    sample_degrees,
)

K = 1000

is_dist = ideal_soliton(K)
rs_dist = robust_soliton(K, c=0.1, delta_rs=0.5)
R, spike = robust_soliton_params(K, 0.1, 0.5)

print(f"k = {K}")
print(f"Robust Soliton boost parameter R = {R:.3f}, spike at degree {spike}")
print()
print("degree |  Ideal Soliton |  Robust Soliton")
print("-" * 44)
for d in [1, 2, 3, 4, 5, 10, spike - 1, spike, spike + 1, 100]:
    print(f"{d:6d} | {is_dist.pmf[d]:14.6f} | {rs_dist.pmf[d]:15.6f}")

print()
print(f"mass on degree 1:  IS {is_dist.pmf[1]:.4%}   RS {rs_dist.pmf[1]:.4%}")
is_mean, rs_mean = (float(np.arange(K + 1) @ dist.pmf) for dist in (is_dist, rs_dist))
print(f"mean degree:       IS {is_mean:.3f}  RS {rs_mean:.3f}")
print("(the IS mean degree is the harmonic number H_k, the coverage workhorse)")

print()
print("Sampling check: one million inverse-transform draws from the IS cdf")
rng = np.random.default_rng(7)
draws = sample_degrees(is_dist, rng, 1_000_000)
for d in (1, 2, 3, 4):
    emp = np.mean(draws == d)
    print(f"  P(degree={d}): empirical {emp:.5f} vs pmf {is_dist.pmf[d]:.5f}")
