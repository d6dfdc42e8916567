#!/usr/bin/env python3
"""Build probe states, reflect them off a thermal-background target, and
inspect the received covariances.

The target is a beamsplitter of reflectivity kappa mixing the transmitted
mode with a bare thermal mode of occupation N_B.  Everything downstream
(exponents, fidelities, the oracle) consumes the GaussianState pairs that
this demo constructs.
"""

import numpy as np

import gaussqi as gq
from gaussqi.reference import dilated_present, target_present
from gaussqi.symplectic import symplectic_eigenvalues

np.set_printoptions(precision=6, suppress=True)

KAPPA, N_B, N_S = 0.25, 1.5, 0.9
cfg = gq.TargetConfig(kappa=KAPPA, n_b=N_B)

print(f"target: kappa = {KAPPA}, N_B = {N_B}, model = {cfg.model}\n")

for spec in (gq.vacuum(), gq.coherent(N_S), gq.smsv(N_S), gq.tmss(N_S)):
    probe = gq.probe_state(spec)
    pair = gq.make_pair(spec, cfg)
    print(f"--- {spec.kind} transmitter (N_S = {spec.n_signal}) ---")
    print("probe mean:    ", probe.mean)
    print("received mean: ", pair.rho1.mean)
    print("received cov (target present):")
    print(pair.rho1.cov)
    print("received cov (target absent):")
    print(pair.rho0.cov)
    print()

# make_pair writes the channel in closed form; the beamsplitter dilation
# (tensor a thermal mode, beamsplit, trace it out) agrees to machine precision.
for spec in (gq.smsv(N_S), gq.tmss(N_S)):
    a = target_present(gq.probe_state(spec), cfg)
    b = gq.make_pair(spec, cfg).rho1
    print(f"{spec.kind}: dilation vs make_pair, max |diff| =", np.abs(a.cov - b.cov).max())

# For the entangled probe the full three-mode (transmitter/memory/environment)
# covariance is available before the trace:
full = dilated_present(gq.probe_state(gq.tmss(N_S)), cfg)
print("\nfull 6x6 covariance of the dilation (doubled convention):")
print(2 * full.cov)

nu = symplectic_eigenvalues(gq.make_pair(gq.tmss(N_S), cfg).rho1.cov)
print("\nsymplectic eigenvalues of the received two-mode state:", nu)
