# A tour of the closed-form bounds.
#
# A lone robot searching two rays with doubling pays a factor of 9 in the
# worst case.  Add robots and the ratio falls; add crash faults and it
# climbs back up.  This script walks the closed forms that say by how much.

import math

from raysearch import (
    InfeasibleRegime,
    InstanceParams,
    TrivialRegime,
    fractional_ratio,
    optimal_alpha,
    ratio_lower_bound,
)

print("The classic: one robot, two rays, no faults.")
p = InstanceParams(2, 1, 0)
print(f"  lambda0 = {ratio_lower_bound(p):.6f}  (doubling, base alpha = {optimal_alpha(p)})")
print()

print("More robots help: k robots on two rays, still fault-free.")
for k in range(1, 8):
    p = InstanceParams(2, k, 0)
    try:
        lam = ratio_lower_bound(p)
    except TrivialRegime:
        print(f"  k={k}: trivial — robots outnumber rays, send them straight out")
        continue
    print(f"  k={k}: lambda0 = {lam:.6f}, alpha = {optimal_alpha(p):.6f}")
print()

print("Faults hurt: five robots on two rays, f of them unreliable.")
for f in range(5):
    p = InstanceParams(2, 5, f)
    try:
        lam = ratio_lower_bound(p)
        print(f"  f={f}: lambda0 = {lam:.6f}")
    except TrivialRegime:
        print(f"  f={f}: trivial — 2(f+1) <= k, straight-out pairs achieve ratio 1")
    except InfeasibleRegime:
        print(f"  f={f}: infeasible — every robot may be faulty")
print()

print("Only the pressure rho = q/k matters, q = m(f+1):")
for m, k, f in [(2, 3, 1), (4, 3, 0)]:
    p = InstanceParams(m, k, f)
    print(f"  (m={m}, k={k}, f={f}): q={p.q}, lambda0 = {ratio_lower_bound(p):.12f}")
print()

print("The fractional relaxation interpolates between the integer points.")
for eta in [1.1, 4 / 3, 1.5, 2.0, 3.0, 5.0]:
    print(f"  C({eta:.4f}) = {fractional_ratio(eta):.6f}")
ulps = [
    abs(fractional_ratio(q / k) - lam) / math.ulp(lam)
    for q in range(2, 13)
    for k in range(1, q)
    for lam in [ratio_lower_bound(InstanceParams(q, k, 0))]
]
print("  ... and C(q/k) is lambda0(q, k, 0) up to the rounding of q/k:")
print(f"  {ulps.count(0.0)} of {len(ulps)} shapes with q <= 12 agree bit for bit,"
      f" all within {max(ulps):.0f} ulps.")
