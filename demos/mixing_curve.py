"""Exact mixing curve of the lazy k-flip walk
=============================================

A walker on the n-dimensional hypercube holds with probability 1/2 and
otherwise flips a uniformly chosen set of k coordinates.  Started from a
corner, its distance to uniform depends on the current state only through
the Hamming weight, so the whole law lives on n + 1 weights and every
number below is an exact rational.
"""

from fractions import Fraction
from itertools import islice

from cubemix import (
    WalkSpec,
    distance_curve,
    half_flip_step_bound,
    spectral_dist,
    tv_to_uniform,
)

# Total variation distance, step by step, for a few flip sizes on n = 12.
# distance_curve steps the walk once per row and reduces each step to its
# distances from uniform, so the curves advance side by side.
n = 12
flip_sizes = (1, 3, 5)
print(f"lazy k-flip walk on the {n}-cube, exact TV to uniform")
print("step " + "  ".join(f"k={k:>2}" for k in flip_sizes))
curves = zip(*(distance_curve(WalkSpec(n, k)) for k in flip_sizes))
for l, rows in zip(range(16), curves):
    print(f"{l:>4} " + "  ".join(f"{float(row['tv']):.3f}" for row in rows))

# An even flip size has a blind spot: it preserves the parity of the
# Hamming weight, so half the cube stays unreachable and TV never drops
# below 1/2.  On n = 12 even the half flip k = 6 stalls there.
tv6 = next(islice(distance_curve(WalkSpec(n, 6)), 30, None))["tv"]
print(f"\nk=6 on the 12-cube after 30 steps: TV = {float(tv6):.3f} (parity is invariant)")

# Odd half flips have no such obstruction.  For k = n/2 with n = 2 mod 4
# a fixed number of steps suffices for any n.  The schedule below comes
# from a closed-form character bound; the exact distances confirm it.
print()
print("half-flip schedule l(n, eps) and the exact distance it achieves")
for nn in (6, 54):
    for eps in (0.5, 0.1, 0.01):
        steps = half_flip_step_bound(nn, eps).steps
        tv = tv_to_uniform(spectral_dist(WalkSpec(nn, nn // 2), steps))
        ok = 4 * tv * tv <= Fraction(eps).limit_denominator(100)
        print(f"  n={nn:>3} eps={eps:<5} l={steps:>3}  4*tv^2 = {float(4 * tv * tv):.2e}  within budget: {ok}")

# The curve's l2 column is the same character sum, a computable envelope
# above the curve: from a point start it is the chi-square distance.
print()
print("exact 4*tv^2 against its l2 envelope, n=12 k=3")
for l, row in islice(enumerate(distance_curve(WalkSpec(12, 3))), 0, 13, 3):
    tv = row["tv"]
    print(f"  l={l:>2}  4*tv^2 = {float(4 * tv * tv):.3e}  envelope = {float(row['l2_sq']):.3e}")
