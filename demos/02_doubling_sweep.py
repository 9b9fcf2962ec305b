# Watching the supremum form.
#
# The competitive ratio of a strategy is sup over targets x of tau(x)/x.
# tau is piecewise linear, so the supremum hides just past the turn
# distances.  We sweep the doubling strategy and watch the breakpoint
# ratios creep up toward 9 without ever reaching it.

from raysearch import (
    InstanceParams,
    Target,
    detection_time,
    make_exponential_strategy,
    optimal_alpha,
    sweep_rows,
    worst_ratio,
)

p = InstanceParams(2, 1, 0)
N = 1e4
strategy = make_exponential_strategy(p, optimal_alpha(p), N)

print("Turn rounds of the doubling robot (ray, distance):")
print(" ", list(strategy[0].rounds[:8]), "...")
print()

print("Detection time at a few fixed targets:")
for x in [1.0, 3.0, 10.0, 100.0]:
    rep = detection_time(strategy, p, Target(1, x))
    print(f"  x={x:7.1f}  tau={rep.tau:10.1f}  tau/x = {rep.ratio:.4f}")
print()

print("Breakpoint sweep: ratio just past each turn distance.")
rows = sweep_rows(strategy, p, N)
worst_rows = sorted(
    (r for t, ja, r in rows if ja and r.ratio is not None),
    key=lambda r: r.ratio,
)
for rep in worst_rows[-6:]:
    print(f"  ratio = {rep.ratio:.6f}")
print()

sup, witness = worst_ratio(strategy, p, N)
print(f"Supremum over [1, {N:g}]: {sup:.10f} at x ~ {witness.x:.1f} on ray {witness.ray}")
print(f"Gap below the tight bound 9: {9 - sup:.3e} — halves with every extra cycle.")
