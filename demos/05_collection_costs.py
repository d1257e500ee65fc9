"""Collection cost per source packet, strategy by strategy.

Pure polling pays ceil(k/4) hops per packet.  Coupon storage needs k*H_k
symbols.  Stall-free decoding without doping pays a heavy symbol surplus.
Doped collection pulls k(1+delta) nearby symbols and polls a few dozen
stragglers, which wins except on nearly node-free rings.
"""

import numpy as np

from squadfountain.analytics import doping_table
from squadfountain.costs import minimize_cost, strategy_cost

K = 2000
grid = np.round(np.arange(7) * 0.01, 2).tolist()
kd_table = {d: pred.k_d for d, pred in doping_table(K, grid).items()}
kd0 = kd_table[0.0]

print(f"k = {K}; doped strategy at zero surplus pays k_d ~= {kd0:.1f} polls")
print()
print("normalized cost (polling = 1.0) as squad size h varies:")
print("     h | polling | coupon  | stall-free | doped(0)")
print("-" * 56)
for h in (20, 50, 100, 500, 1100, 2000, 6000):
    row = [
        strategy_cost("polling", K, h).normalized,
        strategy_cost("coupon", K, h).normalized,
        strategy_cost("rs_no_doping", K, h).normalized,
        strategy_cost("is_doping", K, h, delta=0.0, k_d=kd0).normalized,
    ]
    print(f"{h:6d} | {row[0]:7.4f} | {row[1]:7.4f} | {row[2]:10.4f} | {row[3]:8.4f}")

print()
print("the doped strategy loses its lead on sparse rings (h above ~1000),")
print("where polling k_d stragglers at ~k/4 hops each stops being a rounding error")

print()
print("tuning the surplus: optimal delta over a 0..6% grid")
print("     h | delta* | cost at delta* | cost at delta=0")
for h in (10, 15, 30):
    delta_star, best = minimize_cost(K, h, grid, kd_by_delta=kd_table)
    base = strategy_cost("is_doping", K, h, delta=0.0, k_d=kd0)
    print(f"{h:6.0f} | {delta_star:6.2f} | {best.c_T:14.3f} | {base.c_T:15.3f}")
print()
print("denser networks (larger h) justify a bigger surplus: extra nearby")
print("symbols are cheap there and buy fewer expensive polls")
