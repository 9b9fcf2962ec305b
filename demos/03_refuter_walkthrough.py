# Refuting a too-good claim, mechanically.
#
# Claim: some strategy searches two rays with three robots, one faulty,
# at ratio 5.0.  The tight bound says 5.233..., so the claim is false —
# and the refuter shows it concretely.  Any lambda-competitive strategy
# must q-fold cover every point in time lambda*x; we verify that cover,
# truncate it to exact multiplicity, and feed it to a potential function
# that grows by a factor delta > 1 per step yet is bounded above.  Either
# the cover already fails (a witness) or the horizon was too short for
# the contradiction (a certificate, with the growth audit attached).

import math

from raysearch import (
    CoverParams,
    InstanceParams,
    growth_factor_delta,
    horizon_estimate,
    make_exponential_strategy,
    optimal_alpha,
    ratio_lower_bound,
    refute,
)

p = InstanceParams(2, 3, 1)
lam0 = ratio_lower_bound(p)
alpha = optimal_alpha(p)
print(f"Instance: m={p.m}, k={p.k}, f={p.f}  ->  q={p.q}, lambda0 = {lam0:.6f}")
print()

claim = 5.0
mu = CoverParams(claim).mu
delta = growth_factor_delta(p.s, p.k, mu)
print(f"Claimed ratio {claim}: per-step growth factor delta = {delta:.6f} > 1,")
est = horizon_estimate(p, claim, C=alpha ** (2 * p.m * p.k))
shown = f"{est:.3e}" if math.isfinite(est) else "a horizon too large to print as a float"
print(f"so no cover survives past N ~ {shown}.")
print()

N = 1e4
strategy = make_exponential_strategy(p, alpha, N)
verdict = refute(strategy, claim, p, N)
print(f"refute(lambda={claim}, N={N:g}) -> {verdict.kind}")
print(f"  witness: coverage {verdict.witness.multiplicity_found} < "
      f"{verdict.witness.multiplicity_required} at x = {verdict.witness.point:.4f}")
print()

generous = lam0 + 0.1
verdict = refute(strategy, generous, p, N)
trace = verdict.trace
print(f"refute(lambda={generous:.4f}, N={N:g}) -> {verdict.kind}")
print(f"  growth steps audited: {len(trace.steps)}")
print(f"  min step ratio:       {trace.min_step_ratio:.8f}")
print(f"  final log-potential:  {trace.steps[-1][4]:.4f}")
print()

print("The same machinery in line mode, where the potential has a hard cap:")
from raysearch import make_geometric_line_strategy

line = make_geometric_line_strategy(p, alpha, N)
verdict = refute(line, generous, p, N, mode="line")
print(f"  verdict: {verdict.kind}")
print(f"  max log-potential {verdict.trace.max_log_potential:.4f} "
      f"vs cap k*s*ln(mu) = {verdict.trace.line_cap_log:.4f}")
