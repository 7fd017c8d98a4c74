"""Walk specifications and their exact spectra.

Two walks are covered.  The lazy k-flip walk on {0,1}^n holds with
probability p and otherwise flips a uniform k-subset of coordinates; its
convolution operator has eigenvalue p + (1-p) K_j(k) on the weight-j
character level, with multiplicity C(n,j).  The coordinate-randomizing walk
on (Z/mZ)^n picks a uniform k-subset and adds independent uniform digits;
its eigenvalue on a character of support size w is C(n-w,k)/C(n,k)
(independent of m), with multiplicity C(n,w)(m-1)^w.

kraw_row is the package's one Krawtchouk recurrence: C(n,x) K_j(x) for
j = 0..n.  Its row at x = k gives the cube walk's levels, and by
self-duality (K_j(x) = K_x(j)) its rows x = 0..n are krawtchouk's table.

Every level of either walk is a table of integer numerators over one
denominator with integer multiplicities, and _levels is the one function
that tells the walks apart: the spectra, the l2 bounds and the l2 curve
all read their levels from it.  The multiplicities are numerics'
support-size table C(n,w)(m-1)^w (the cube is m = 2): the exact row
binom_row(n, m), or its logs from numerics._float_profile for the float
sums.  _l2_curve yields the l2 sum for l = start, start + 1, ...:
exactly, by carrying each term's power forward, one multiplication by a
small squared numerator per term and step; or in floats, as one numpy
log-space sum per l over the per-level log arrays (_log_levels).  A per-l
bound is the first value of the curve started at l, so bound and curve
share one body per backend.  From a point start it is the chi-square
curve, so the CLI's tv curves of both walks and both backends read their
l2 column from it.  Exact rational spectra are the default up to
EXACT_BACKEND_MAX_N coordinates (numerics.use_exact); beyond that, per-l
bounds switch to the float sum.  numpy is imported only by the float
sums, krawtchouk only by the eigenvalue certificate.  Specs, tables and
certificates are NamedTuples (immutable, equal by value); the specs check
in __new__.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .numerics import _float_profile, binom_row, sum_exp, use_exact


class WalkSpec(NamedTuple("WalkSpec", [("n", int), ("k", int), ("p", Fraction)])):
    """Lazy k-flip walk on the n-cube: hold w.p. p, else flip a k-set."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, p=Fraction(1, 2)):
        p = Fraction(p)
        if n < 1:
            raise ValueError(f"WalkSpec requires n >= 1, got n={n}")
        if not (1 <= k <= n):
            raise ValueError(f"WalkSpec requires 1 <= k <= n, got k={k}, n={n}")
        if not (0 <= p < 1):
            raise ValueError(f"WalkSpec requires 0 <= p < 1, got p={p}")
        return super().__new__(cls, n, k, p)


class CyclicWalkSpec(NamedTuple("CyclicWalkSpec", [("n", int), ("m", int), ("k", int)])):
    """k-coordinate-randomizing walk on (Z/mZ)^n."""

    __slots__ = ()

    def __new__(cls, n: int, m: int, k: int):
        if n < 1:
            raise ValueError(f"CyclicWalkSpec requires n >= 1, got n={n}")
        if m < 2:
            raise ValueError(f"CyclicWalkSpec requires m >= 2, got m={m}")
        if not (1 <= k <= n):
            raise ValueError(f"CyclicWalkSpec requires 1 <= k <= n, got k={k}")
        return super().__new__(cls, n, m, k)


class SpectrumRow(NamedTuple):
    level: int
    value: Fraction
    multiplicity: int


class SpectrumTable(NamedTuple):
    spec: object
    rows: tuple[SpectrumRow, ...]
    non_ergodic: bool

    def max_nontrivial_magnitude(self) -> Fraction:
        return max(abs(r.value) for r in self.rows if r.level > 0)

    def eigenvalue_multiset(self) -> list[Fraction]:
        out = []
        for r in self.rows:
            out.extend([r.value] * r.multiplicity)
        return out


def kraw_row(n: int, x: int) -> list[int]:
    """[C(n,x) K_j(x) for j = 0..n], by (n-j) kappa_{j+1} = (n-2x) kappa_j - j kappa_{j-1}.

    The divisions are exact, so no rounding or gcd work happens at any n; at
    j = 0 the kappa_{j-1} term has factor 0, whatever kap[-1] holds.
    """
    kap = [math.comb(n, x)]
    for j in range(n):
        kap.append(((n - 2 * x) * kap[j] - j * kap[j - 1]) // (n - j))
    return kap


def cube_eigen_numerators(spec: WalkSpec) -> tuple[list[int], int]:
    """Integer numerators of every cube eigenvalue over one denominator.

    Returns (nums, den) with eigenvalue_j = nums[j] / den for j = 0..n, where
    nums[j] = a C(n,k) + (q-a) kappa_j, p = a/q, den = q C(n,k) and
    kappa = kraw_row(n, k).
    """
    a, q = spec.p.numerator, spec.p.denominator
    C = math.comb(spec.n, spec.k)
    return [a * C + (q - a) * v for v in kraw_row(spec.n, spec.k)], q * C


def _levels(spec) -> tuple[int, list[int], int]:
    """(m, nums, den): level j has eigenvalue nums[j] / den and multiplicity
    binom_row(n, m)[j], the number of characters of support size j.

    The one place that tells the two walks apart (the cube is m = 2); every
    spectrum, l2 bound and l2 curve below reads its levels from here.
    """
    if isinstance(spec, CyclicWalkSpec):
        nums = [math.comb(spec.n - w, spec.k) for w in range(spec.n + 1)]
        return spec.m, nums, nums[0]
    nums, den = cube_eigen_numerators(spec)
    return 2, nums, den


def _eigenvalue(spec, j: int, op: str, var: str) -> Fraction:
    if not (0 <= j <= spec.n):
        raise ValueError(f"{op} domain error: {var}={j}, n={spec.n}")
    _, nums, den = _levels(spec)
    return Fraction(nums[j], den)


def cube_eigenvalue(spec: WalkSpec, j: int) -> Fraction:
    """Eigenvalue p + (1-p) K_j(k) on character level j."""
    return _eigenvalue(spec, j, "cube_eigenvalue", "j")


def zmn_eigenvalue(cspec: CyclicWalkSpec, w: int) -> Fraction:
    """Eigenvalue on characters of support size w; C(n-w,k)/C(n,k), m-free."""
    return _eigenvalue(cspec, w, "zmn_eigenvalue", "w")


def _spectrum(spec) -> SpectrumTable:
    """Every level of either walk, with non_ergodic set when a nonzero level has |eigenvalue| 1."""
    m, nums, den = _levels(spec)
    mults = binom_row(spec.n, m)
    rows = tuple(SpectrumRow(j, Fraction(v, den), c) for j, (c, v) in enumerate(zip(mults, nums)))
    return SpectrumTable(spec, rows, non_ergodic=any(abs(v) == den for v in nums[1:]))


def cube_spectrum(spec: WalkSpec) -> SpectrumTable:
    """All n+1 eigenvalue levels with multiplicities C(n,j).

    The non_ergodic flag is set when any nonzero level has |eigenvalue| 1:
    value 1 occurs for even k (the walk is confined to a parity coset) and
    value -1 for p = 0 with k odd (period two).
    """
    return _spectrum(spec)


def zmn_spectrum(cspec: CyclicWalkSpec) -> SpectrumTable:
    """All n+1 support-size levels; never non_ergodic, as C(n-w,k) < C(n,k) for w >= 1."""
    return _spectrum(cspec)


def l2_upper_bound(spec: WalkSpec, l: int, exact: bool | None = None):
    """sum_{j>=1} C(n,j) (p + (1-p)K_j(k))^{2l}.

    This dominates 4 TV^2 after l steps (and equals the chi-square distance
    to uniform when the walk is started at a point).  Returns a Fraction in
    the exact regime, a float otherwise (inf beyond float range).
    """
    return _l2_sum(spec, l, exact, "l2_upper_bound")


def zmn_l2_upper_bound(cspec: CyclicWalkSpec, l: int, exact: bool | None = None):
    """sum_{w>=1} C(n,w)(m-1)^w (C(n-w,k)/C(n,k))^{2l}."""
    return _l2_sum(cspec, l, exact, "zmn_l2_upper_bound")


def _l2_sum(spec, l: int, exact: bool | None, op: str):
    """_l2_curve(spec, exact, start=l)'s first value; by default exact as use_exact rules."""
    if l < 0:
        raise ValueError(f"{op} requires l >= 0, got l={l}")
    return next(_l2_curve(spec, use_exact(spec.n) if exact is None else exact, l))


def _log_levels(spec):
    """(ln mults_j, ln (nums_j / den)^2) for the levels j >= 1, as float64 arrays.

    abs(v) / den is correctly rounded; below float range the logs of the two
    integers are subtracted instead.  A zero eigenvalue's log is -inf, so its
    term vanishes for l >= 1.
    """
    import numpy as np

    m, nums, den = _levels(spec)
    log_eig_sq = [-math.inf] * (len(nums) - 1)
    for j, v in enumerate(nums[1:]):
        r = abs(v) / den
        if r >= sys.float_info.min:
            log_eig_sq[j] = 2 * math.log(r)
        elif v:
            log_eig_sq[j] = 2 * (math.log(abs(v)) - math.log(den))
    return _float_profile(spec.n, m)[1][1:], np.array(log_eig_sq)


def _l2_curve(spec, exact: bool = True, start: int = 0):
    """Yield the l2 sum sum_{level>=1} mults (nums / den)^{2l} for l = start, start + 1, ...

    Exact: one integer sum over den^{2l}; each term mults_j nums_j^{2l} is
    kept and multiplied by the small nums_j^2 per step, a big-by-small
    product instead of a fresh power.  Float: the terms' logs ln mults_j +
    l ln eigenvalue_j^2 summed by numerics.sum_exp, one array expression per
    l, inf only when the sum itself leaves float range.  At l = 0 every
    term is its multiplicity, so zero eigenvalues count as 0**0 == 1 (in
    floats 0 * -inf would be nan).
    """
    if not exact:
        log_mults, log_eig_sq = _log_levels(spec)
        for l in itertools.count(start):
            yield sum_exp(log_mults + l * log_eig_sq if l else log_mults)
    m, nums, den = _levels(spec)
    terms = [c * v ** (2 * start) for c, v in zip(binom_row(spec.n, m)[1:], nums[1:])]
    squares = [v * v for v in nums[1:]]
    den_sq, den_pow = den * den, den ** (2 * start)
    while True:
        yield Fraction(sum(terms), den_pow)
        terms = [t * v for t, v in zip(terms, squares)]
        den_pow *= den_sq


def l2_lower_bound_odd_levels(spec: WalkSpec, l: int) -> Fraction:
    """Odd-level mass surviving after l steps when k = n/2.

    At k = n/2 every odd character level has eigenvalue exactly p, so the
    l2 distance is at least sum_{j odd} C(n,j) p^{2l} = 2^{n-1} p^{2l}.
    The full sum is returned; a sometimes-quoted variant with exponent
    (n-1)/2 - 2l does not match the displayed sum and is not reproduced.
    """
    if spec.n % 2 != 0 or spec.k * 2 != spec.n:
        raise ValueError(
            f"l2_lower_bound_odd_levels requires k = n/2 with n even, got n={spec.n}, k={spec.k}"
        )
    if spec.k % 2 != 1:
        raise ValueError(f"odd-level bound needs odd k = n/2 (n = 2 mod 4), got k={spec.k}")
    return 2 ** (spec.n - 1) * spec.p ** (2 * l)


class EigenvalueCertificate(NamedTuple):
    """Exact certification that the half-flip spectrum is 3/4-bounded."""

    n: int
    k: int
    max_abs: Fraction
    max_abs_level: int
    bound: Fraction
    bound_holds: bool
    odd_levels_equal_p: bool
    closed_form_matches: bool
    levels_checked: int
    notes: tuple[str, ...] = ()


def verify_eigenvalue_three_quarters(n: int) -> EigenvalueCertificate:
    """Certify max_{j>=1} |1/2 + 1/2 K_j(n/2)| <= 3/4 for n = 2 mod 4.

    Also re-derives every odd level as exactly 1/2 (the Krawtchouk value
    vanishes) and checks the closed form for K_{2i}(n/2) against the
    eigenvalue table, all in exact rationals.
    """
    from .krawtchouk import kraw_half

    if n % 4 != 2:
        raise ValueError(f"verify_eigenvalue_three_quarters requires n = 2 mod 4, got n={n}")
    k = n // 2
    spec = WalkSpec(n, k)
    nums, den = cube_eigen_numerators(spec)
    best = Fraction(0)
    best_level = 0
    odd_ok = True
    closed_ok = True
    for j in range(1, n + 1):
        eig = Fraction(nums[j], den)
        if abs(eig) > best:
            best, best_level = abs(eig), j
        # eigenvalue 1/2 + K/2, so K_j(n/2) = (2 nums[j] - den) / den
        if j % 2 == 1 and 2 * nums[j] != den:
            odd_ok = False
        if kraw_half(n, j) != Fraction(2 * nums[j] - den, den):
            closed_ok = False
    bound = Fraction(3, 4)
    return EigenvalueCertificate(
        n=n,
        k=k,
        max_abs=best,
        max_abs_level=best_level,
        bound=bound,
        bound_holds=best <= bound,
        odd_levels_equal_p=odd_ok,
        closed_form_matches=closed_ok,
        levels_checked=spec.n,
    )
