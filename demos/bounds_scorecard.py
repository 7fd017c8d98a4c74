"""Scoring the closed-form bounds against exact distances
==========================================================

Every bound in the library promises something checkable: an upper bound
names a step count after which the walk is close to uniform, a lower
bound names a floor under the TV curve.  The exact engines let us score
each promise instead of trusting it.
"""

from cubemix import (
    CyclicWalkSpec,
    WalkSpec,
    WeightDistribution,
    chebyshev_lower_bound,
    coupling_upper_bound_steps,
    cyclic_step_bound,
    evolve,
    flip_weight_kernel,
    reported_steps_comparison,
    second_moment_lower_bound,
    support_weight_kernel,
    tv_to_uniform,
)

# Upper bound from the coupling argument, scored on a walk small enough
# to evaluate exactly.  The bound is valid but far from tight.
spec = WalkSpec(12, 3)
steps = coupling_upper_bound_steps(12, 3, 1.0).steps
dist = WeightDistribution.delta(12)
kern = flip_weight_kernel(spec)
dist = evolve(dist, kern, steps)
print(f"coupling upper bound n=12 k=3 c=1: {steps} steps, exact TV there = {float(tv_to_uniform(dist)):.2e}")

# Chebyshev floor from the weight statistic, scored against exact TV.
print()
print("Chebyshev lower bound vs exact TV, n=12 k=1")
dist = WeightDistribution.delta(12)
kern = flip_weight_kernel(WalkSpec(12, 1))
for l in (0, 4, 8, 12, 16):
    if l:
        dist = evolve(dist, kern, 4)
    lower = chebyshev_lower_bound(12, 1, l)
    print(f"  l={l:>2}  floor {lower:.4f} <= tv {float(tv_to_uniform(dist)):.4f}")

# The matching second-moment step count says where the walk is still far
# from mixed; together with the coupling bound it brackets the cutoff.
rep = second_moment_lower_bound(1000, 1, 1.0)
print()
print(f"second-moment lower bound n=1000 k=1 c=1: still unmixed at {rep.steps} steps (bound {rep.bound:.3f})")

# The cyclic walk has its own schedule, scored with the exact cyclic TV:
# the same idiom as the cube, stepping the support-size profile instead of
# the weight profile and reducing it against uniform on (Z/3Z)^8.
kern = support_weight_kernel(CyclicWalkSpec(8, 3, 2))
print()
print("cyclic schedule n=8 m=3 k=2")
for c in (0.0, 1.0, 2.0):
    l = cyclic_step_bound(8, 3, 2, c).steps
    tv = tv_to_uniform(evolve(WeightDistribution.delta(8), kern, l), 3)
    print(f"  c={c}: l={l:>2}  4*tv^2 = {float(4 * tv * tv):.3e}  target e^-c = {2.718281828459045 ** -c:.3e}")

# A published table of example step counts does not match what the
# stated formula produces; the library carries both numbers so the
# discrepancy stays visible.
print()
print("published step counts vs the stated formula (c -> 0)")
for row in reported_steps_comparison():
    print(f"  n={row.n:>3} k={row.k:>3}  published {row.reported:>4}  formula {row.computed:>4}  gap {row.difference}")
