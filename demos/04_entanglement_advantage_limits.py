#!/usr/bin/env python3
"""How large is the entangled-transmitter advantage, really?

The celebrated factor-4 (6 dB) exponent advantage of the two-mode squeezed
transmitter over coherent light arises only in the order of limits where
the reflectivity vanishes before the signal intensity.  That ordering makes
the detection problem itself degenerate, so the factor 4 is a supremum, not
an achievable value.  With the background occupation held fixed by the
scene (not rescaled with reflectivity), every finite configuration stays
strictly below 4; at kappa = 1e-2 the best grid value is about 2.2.
"""

import numpy as np

import gaussqi as gq
from gaussqi.highprec import exponent_ratio
from gaussqi.sweeps import limit_order_study, reproduce_figure

print("exponent-ratio map at kappa = 1e-2 (41 x 41 grid)...")
rows, summary = reproduce_figure("advantage-map")
print(f"  max xi_tmss / xi_coherent = {summary['max_ratio']:.4f} "
      f"({summary['max_ratio_db']:.2f} dB) at N_S = {summary['argmax_n_s']:.3g}, "
      f"N_B = {summary['argmax_n_b']:.3g}")
print(f"  every grid cell < 4: {summary['all_below_4']}")

print("\nBhattacharyya-exponent ratio along the two limit orderings (N_B = 1e4):")
print("  reflectivity first (N_S = 1e-4):")
for row in limit_order_study("agnostic"):
    if "kappa-first" in row.flags:
        print(f"    kappa = {row.kappa:8.0e}:  ratio = {row.value:.6f}")
print("  intensity first (kappa = 1e-3):")
for row in limit_order_study("agnostic"):
    if "ns-first" in row.flags:
        print(f"    N_S   = {row.n_s:8.0e}:  ratio = {row.value:.6f}")

print("\nrescaled-background model for comparison (continuous, limit exactly 4):")
for kappa in (1e-4, 1e-6):
    r = exponent_ratio(1e-4, 1e4, kappa, model="legacy")
    print(f"    kappa = {kappa:8.0e}:  ratio = {r:.6f}")

print("\nThe reflectivity-first path climbs toward 4 but the climb costs the")
print("problem its meaning: at those reflectivities the shadow term dominates")
print("and both exponents vanish. Intensity-first, the advantage is gone.")
