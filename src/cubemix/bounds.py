"""Closed-form step-count bounds and moment formulas for the k-flip walk.

Every step-count evaluator returns a BoundReport (a NamedTuple, as are the
other records here) carrying both the raw real value and its ceiling, the
quantity the bound controls, and the logarithm convention (always natural
here; printed folklore values for these walks sometimes use other bases, so
the convention is explicit data).

Two families:

  * upper bounds: coupling_upper_bound_steps (coalescence argument, total
    variation), half_flip_step_bound and cyclic_step_bound (character-sum
    arguments, controlling 4 TV^2), comparison_step_bound (transfer from the
    coordinate-randomizing walk to the lazy nearest-neighbor walk);
  * lower bounds: chebyshev_lower_bound certifies TV from the exact first
    two moments of the level-one statistic, and second_moment_lower_bound
    packages the standard schedule l = n/2k ln n - c n/k around it.

REPORTED_MIXING_TIME_EXAMPLES reproduces a published table of upper bounds
for comparison; reported_steps_comparison shows it next to what the stated
formula actually evaluates to, since the two disagree and no convention we
tried reconciles them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .spectrum import WalkSpec, cube_eigen_numerators

SQRT2 = math.sqrt(2.0)


class BoundReport(NamedTuple):
    op: str
    variant: str
    params: dict
    raw_steps: float | None
    steps: int | None
    bound: float | None
    bound_metric: str
    log_convention: str = "natural (ln)"
    notes: tuple[str, ...] = ()


class MomentPair(NamedTuple):
    mean: float
    variance: float


REPORTED_MIXING_TIME_EXAMPLES = {
    (54, 27): 19,
    (54, 3): 576,
    (418, 209): 26,
    (418, 7): 2899,
    (550, 275): 27,
    (550, 25): 1112,
}


def _ceil_steps(raw: float, op: str) -> int:
    """ceil(raw), or a ValueError when the raw step count is beyond float range."""
    if not math.isfinite(raw):
        raise ValueError(f"{op}: the step count is beyond float range (raw={raw})")
    return math.ceil(raw)


def coupling_upper_bound_steps(n: int, k: int, c: float, variant: str = "stated") -> BoundReport:
    """Steps after which TV <= 1/c^2, from the coalescence-time analysis.

    The "stated" variant evaluates 8(n/k) ln n + 3n/2k + sqrt2 n/((sqrt2-1)k)
    + 2 + c sqrt((n/k) ln n); the "summary" variant uses the constants the
    expectation bound is actually assembled from, 3n/k and
    2 sqrt2 n/((sqrt2-1)k), which are twice as large in the middle terms.
    """
    if not (1 <= k and 2 * k <= n):
        raise ValueError(f"coupling_upper_bound_steps requires 1 <= k <= n/2, got n={n}, k={k}")
    if c <= 0:
        raise ValueError(f"coupling_upper_bound_steps requires c > 0, got c={c}")
    if variant not in ("stated", "summary"):
        raise ValueError(f"unknown variant {variant!r}, expected 'stated' or 'summary'")
    nk = n / k
    if variant == "stated":
        raw = 8 * nk * math.log(n) + 1.5 * nk + SQRT2 * nk / (SQRT2 - 1) + 2
    else:
        raw = 8 * nk * math.log(n) + 3 * nk + 2 * SQRT2 * nk / (SQRT2 - 1) + 2
    raw += c * math.sqrt(nk * math.log(n))
    steps = _ceil_steps(raw, "coupling_upper_bound_steps")
    notes = []
    reported = REPORTED_MIXING_TIME_EXAMPLES.get((n, k))
    if reported is not None:
        notes.append(
            f"a published example table lists {reported} steps for (n={n}, k={k}); "
            f"the formula gives {steps} and the generating convention of "
            f"the table value is unidentified"
        )
    return BoundReport(
        op="coupling-upper",
        variant=variant,
        params={"n": n, "k": k, "c": c},
        raw_steps=raw,
        steps=steps,
        # c * c underflows to 0.0 for c below about 1.6e-162: the bound is vacuous
        bound=1.0 / (c * c) if c * c else math.inf,
        bound_metric="tv <= bound",
        notes=tuple(notes),
    )


class ReportedStepsRow(NamedTuple):
    n: int
    k: int
    reported: int
    computed: int
    difference: int


def reported_steps_comparison(c: float = 1e-9) -> tuple[ReportedStepsRow, ...]:
    """Published table values next to the stated formula at c -> 0."""
    rows = []
    for (n, k), reported in sorted(REPORTED_MIXING_TIME_EXAMPLES.items()):
        computed = coupling_upper_bound_steps(n, k, c).steps
        rows.append(ReportedStepsRow(n, k, reported, computed, computed - reported))
    return tuple(rows)


def half_flip_step_bound(n: int, eps: float) -> BoundReport:
    """Steps after which 4 TV^2 <= eps for k = n/2, via |eigenvalue| <= 3/4.

    l = (n ln 2 - ln eps) / ln(4/3).  Requires n = 2 mod 4 so that k = n/2
    is odd and the walk is ergodic.
    """
    if n % 4 != 2:
        raise ValueError(f"half_flip_step_bound requires n = 2 mod 4, got n={n}")
    if not (0 < eps < 1):
        raise ValueError(f"half_flip_step_bound requires 0 < eps < 1, got eps={eps}")
    raw = (n * math.log(2) - math.log(eps)) / math.log(4.0 / 3.0)
    return BoundReport(
        op="half-flip",
        variant="stated",
        params={"n": n, "k": n // 2, "eps": eps},
        raw_steps=raw,
        steps=_ceil_steps(raw, "half_flip_step_bound"),
        bound=eps,
        bound_metric="4*tv^2 <= bound",
    )


def weight_statistic_moments(n: int, k: int, l: int) -> MomentPair:
    """Mean and variance of sqrt(n)(1 - 2W_l/n), W_l the weight after l steps.

    The statistic is an eigenfunction with eigenvalue 1 - k/n, so the mean
    is sqrt(n) (1 - k/n)^l exactly; the variance follows from the level-two
    eigenvalue because the squared statistic decomposes over levels 0 and 2.
    Under the uniform distribution the mean is 0 and the variance 1.
    """
    mean_sq, var, den = _moment_numerators(n, k, l)
    return MomentPair(mean=math.sqrt(mean_sq / den), variance=var / den)


def exact_weight_statistic_moments(n: int, k: int, l: int) -> tuple[Fraction, Fraction]:
    """(mean^2, variance) as exact rationals; the mean itself is sqrt of one."""
    mean_sq, var, den = _moment_numerators(n, k, l)
    return Fraction(mean_sq, den), Fraction(var, den)


def _moment_numerators(n: int, k: int, l: int) -> tuple[int, int, int]:
    """(mean^2, variance) as integer numerators over one denominator D: (a, b, D).

    The float callers divide a / D and b / D directly: int / int is
    correctly rounded, so they get float() of the exact moments without the
    gcd that reducing two huge Fractions costs at large l.
    """
    if n < 2 or not (1 <= k <= n) or l < 0:
        raise ValueError(f"moment domain error: n={n}, k={k}, l={l}")
    # levels 1 and 2 of the half-lazy walk: eigenvalues 1 - k/n and 1 - 2k(n-k)/(n(n-1))
    nums, den = cube_eigen_numerators(WalkSpec(n, k))
    den_l = den**l
    den_2l = den_l * den_l
    mean_sq = n * nums[1] ** (2 * l)
    return mean_sq, den_2l + (n - 1) * nums[2] ** l * den_l - mean_sq, den_2l


def weight_eigenfunction(n: int, j: int, x: int) -> Fraction:
    """The first three weight eigenfunctions, unnormalized.

    f0 = 1, f1 = 1 - 2x/n, f2 = 1 - 4x/(n-1) + 4x^2/(n^2-n); they satisfy
    f1^2 = (1/n) f0 + ((n-1)/n) f2 identically in x.
    """
    if j == 0:
        return Fraction(1)
    if j == 1:
        return 1 - Fraction(2 * x, n)
    if j == 2:
        return 1 - Fraction(4 * x, n - 1) + Fraction(4 * x * x, n * n - n)
    raise ValueError(f"weight_eigenfunction supports j in 0..2, got j={j}")


def chebyshev_lower_bound(n: int, k: int, l: int, alpha: float | None = None) -> float:
    """Certified TV lower bound max(0, 1 - 1/a^2 - var/(mean - a)^2).

    Uses the exact moments of the level-one statistic; a defaults to mean/2.
    The uniform measure puts mass >= 1 - 1/a^2 on {|f| <= a} while the walk
    puts mass < var/(mean - a)^2 there, so the gap lower-bounds TV.  Returns
    0.0 (vacuous) when a >= mean or a <= 0, or when a^2 or (mean - a)^2
    underflows to 0.0.
    """
    moments = weight_statistic_moments(n, k, l)
    mean = moments.mean
    if alpha is None:
        alpha = mean / 2
    if alpha <= 0 or alpha >= mean:
        return 0.0
    alpha_sq, gap_sq = alpha * alpha, (mean - alpha) ** 2
    if not (alpha_sq and gap_sq):
        # a square underflowed to 0.0: its reciprocal term is beyond float
        # range, so the bound is vacuous
        return 0.0
    val = 1.0 - 1.0 / alpha_sq - moments.variance / gap_sq
    return max(0.0, val)


def second_moment_lower_bound(n: int, k: int, c: float) -> BoundReport:
    """TV lower bound at l = floor(n/2k ln n - c n/k), 0 < c <= ln(n)/4.

    The report's bound is the Chebyshev value actually computed at that l;
    the implied uniform constant B with TV >= 1 - B e^{-4c} is carried in
    the notes rather than assumed.
    """
    if n < 2 or not (1 <= k <= n):
        raise ValueError(f"second_moment_lower_bound domain error: n={n}, k={k}")
    if not (0 < c <= math.log(n) / 4):
        raise ValueError(f"second_moment_lower_bound requires 0 < c <= ln(n)/4, got c={c}")
    raw = (n / (2 * k)) * math.log(n) - c * n / k
    steps = max(0, math.floor(raw))
    bound = chebyshev_lower_bound(n, k, steps)
    implied_b = (1.0 - bound) * math.exp(4 * c)
    notes = (f"implied uniform constant B = (1 - bound) e^(4c) = {implied_b:.17g}",)
    if raw < 0:
        notes += ("raw step count negative; clamped to 0",)
    return BoundReport(
        op="second-moment-lower",
        variant="stated",
        params={"n": n, "k": k, "c": c},
        raw_steps=raw,
        steps=steps,
        bound=bound,
        bound_metric="tv >= bound",
        notes=notes,
    )


def cyclic_step_bound(n: int, m: int, k: int, c: float) -> BoundReport:
    """Steps after which 4 TV^2 <= e^-c for the k-coordinate-randomizing
    walk on (Z/mZ)^n: l = (n+1)/2k ln(mn) + c(n+1)/2k."""
    if m < 2 or not (1 <= k <= n) or c < 0:
        raise ValueError(f"cyclic_step_bound domain error: n={n}, m={m}, k={k}, c={c}")
    raw = (n + 1) / (2 * k) * math.log(m * n) + c * (n + 1) / (2 * k)
    return BoundReport(
        op="cyclic",
        variant="stated",
        params={"n": n, "m": m, "k": k, "c": c},
        raw_steps=raw,
        steps=_ceil_steps(raw, "cyclic_step_bound"),
        bound=math.exp(-c),
        bound_metric="4*tv^2 <= bound",
    )


def comparison_step_bound(n: int, m: int, c: float, variant: str = "stated") -> BoundReport:
    """Transfer bound for the lazy nearest-neighbor walk on (Z/mZ)^n.

    l = (A/2)((n+1) ln(mn) + c(n+1)) gives 4 TV^2 <= (1 + n^-n) e^-c.  The
    "stated" variant takes the comparison constant A = m^2; the
    "conservative" variant takes max(m^2, 2/m + 2m), which differs exactly
    at m = 2 where 2/m + 2m = 5 > 4.
    """
    if m < 2 or n < 1 or c < 0:
        raise ValueError(f"comparison_step_bound domain error: n={n}, m={m}, c={c}")
    if variant not in ("stated", "conservative"):
        raise ValueError(f"unknown variant {variant!r}, expected 'stated' or 'conservative'")
    a_claimed = float(m * m)
    a_safe = max(a_claimed, 2.0 / m + 2.0 * m)
    a = a_claimed if variant == "stated" else a_safe
    raw = (a / 2.0) * ((n + 1) * math.log(m * n) + c * (n + 1))
    notes = []
    if a_safe > a_claimed:
        notes.append(
            f"the claimed maximum m^2 = {a_claimed:g} is exceeded by "
            f"2/m + 2m = {a_safe:g} at m = {m}"
        )
    return BoundReport(
        op="comparison",
        variant=variant,
        params={"n": n, "m": m, "c": c, "A": a},
        raw_steps=raw,
        steps=_ceil_steps(raw, "comparison_step_bound"),
        bound=(1.0 + float(n) ** (-n)) * math.exp(-c),
        bound_metric="4*tv^2 <= bound",
        notes=tuple(notes),
    )
