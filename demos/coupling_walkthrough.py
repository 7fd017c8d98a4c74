"""Coupling two walkers until they agree
=========================================

Run one walker from each of two starting points and feed them correlated
randomness: when the mismatch count y is even both copies can use flip
sets that meet the disagreement set in exactly y/2 places, and when y is
odd one copy holds while the other moves.  Both marginals stay honest
lazy k-flip walks, the mismatch count never grows, and once it hits zero
the copies move in lockstep.  Total variation distance is then at most
the probability the copies have not yet met.
"""

import math
from itertools import islice

from cubemix import (
    WalkSpec,
    coupling_tail_curve,
    distance_curve,
    expected_coupling_time,
    marginal_check,
    simulate_coupling,
)

# First, the honesty check: enumerating every flip set and every joint
# move for n = 6, k = 3 confirms the coupled step is a bijection on
# randomness and both marginals equal the lazy flip law exactly.
report = marginal_check(6, 3)
print(f"marginal check n=6 k=3: ok={report.ok} ({report.maps_checked} joint maps checked)")

# The mismatch count is itself a small Markov chain, so the tail
# P(T > l) is an exact rational.  It dominates the exact TV curve.
spec = WalkSpec(9, 3)
tail = coupling_tail_curve(spec, 12)
print()
print("n=9 k=3: exact TV vs coupling tail")
for l, row in islice(enumerate(distance_curve(spec)), 0, 13, 2):
    print(f"  l={l:>2}  tv = {float(row['tv']):.4f}  P(T > l) = {float(tail[l]):.4f}")

# Simulation agrees with the exact tail, trial by synchronized trial.
mc = simulate_coupling(spec, trials=20000, max_steps=12, seed=7)
print()
print("20000 simulated pairs vs the exact tail")
for l in (1, 4, 8, 12):
    print(f"  l={l:>2}  simulated {mc.tail(l):.4f}  exact {float(tail[l]):.4f}")

# The expected meeting time is an exact rational too: the even mismatch
# counts only move down, so it follows from one pass up through them.
print()
for n, k in ((2, 1), (9, 3), (12, 5)):
    et = expected_coupling_time(WalkSpec(n, k))
    print(f"  E[T] for (n={n}, k={k}): {et} = {float(et):.4f}")

# One caution: the coupling needs k <= n/2.  Beyond that, an even
# mismatch count larger than 2(n - k) can never shrink, a second
# absorbing class appears, and the expected meeting time is infinite.
et = expected_coupling_time(WalkSpec(8, 5))
print(f"  E[T] for (n=8, k=5): {et} (is inf: {math.isinf(et)})")
