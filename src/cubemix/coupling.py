"""A mismatch-halving coupling for the lazy k-flip walk, with certificates.

Two copies of the walk are driven so that the number of mismatched
coordinates y = |x1 xor x2| never increases on even-y steps and is repaired
in pairs.  Per step the randomness is one fair bit plus (when moving) one
uniform k-subset, consumed in the documented order below; with y odd the
chains instead step independently (two bits, up to two subsets) until parity
is fixed.

Even y, move bit set, subset S drawn, a = |S intersect mismatches|:

  * a > y/2: both chains flip S (no progress, y unchanged);
  * a <= y/2: x1 flips S; x2 flips the matched members of S plus, for each
    mismatched member, a partner mismatched index chosen by scanning upward
    cyclically.  Each such pair repairs two mismatches: y drops by 2a.

The y-process is Markov (transition law depends on y alone), which yields
an exact absorbing (n+1)-state kernel; P(T > l) from it dominates the TV
distance of the walk, and a Monte Carlo simulation cross-checks it.  The
simulator steps only the mismatch mask x1 xor x2, as an n-bit int: every
move above reads and changes the pair through that mask alone, and T is
the first time it empties.  It draws each k-subset with random.sample's
algorithm inlined, so it consumes the same getrandbits stream as
rng.sample(range(n), k) would.

The verifiers at the bottom certify, in exact arithmetic, the hypergeometric
pick-probability inequalities that drive the coupling time analysis, and
report every counterexample they find rather than hiding it.  The
all-(n, k) sweep steps one running pair of hypergeometric CDFs along y per
(n, k) instead of summing a window of the pmf per cell, so a cell costs at
most two big-integer products, and it checks each claim on a run of y at
once: the run's minimum, and the cells one by one only when that fails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from operator import mul, sub
from typing import TYPE_CHECKING

from .numerics import LN2_LO, binom_row, cmp_ratio_with_ln2, hypergeom_numerators

# the exact kernels are imported where they are used, so the verifiers load
# neither exactdist nor spectrum
if TYPE_CHECKING:
    from .exactdist import WeightKernel
    from .spectrum import WalkSpec

MARGINAL_CHECK_MAX_N = 8
EXACT_SOLVE_MAX_N = 64


@dataclass(frozen=True)
class CoupledState:
    """Positions of both chains as n-bit integers; y is cached on build."""

    n: int
    x1: int
    x2: int
    y: int = field(init=False)

    def __post_init__(self):
        if not (0 <= self.x1 < (1 << self.n)) or not (0 <= self.x2 < (1 << self.n)):
            raise ValueError("coupled state out of range")
        object.__setattr__(self, "y", (self.x1 ^ self.x2).bit_count())

    @property
    def coalesced(self) -> bool:
        return self.y == 0


def _repaired_bits(mismask: int, smask: int) -> int:
    """Mismatches an even-y move repairs: none when 2|S & mismask| > |mismask|.

    Otherwise each mismatched member of S is paired with the next free
    mismatched index above it (cyclically); the result is both members of
    every pair.
    """
    inter = smask & mismask
    if 2 * inter.bit_count() > mismask.bit_count():
        return 0
    free = mismask ^ inter
    repaired = inter
    while inter:
        lsb = inter & -inter
        above = free & -(lsb << 1)
        j = (above & -above) or (free & -free)
        free ^= j
        repaired |= j
        inter ^= lsb
    return repaired


def _even_x2_flipset(mismask: int, smask: int) -> int:
    """Flip mask applied to x2 when x1 flips smask, for even |mismask|."""
    # matched members of S flip in both chains, each repaired pair in one only
    return smask ^ _repaired_bits(mismask, smask)


def _sample_pool(n: int, k: int) -> list[int] | None:
    """list(range(n)) where random.sample draws k of n from a shrinking pool, else None.

    None marks sample's other branch, which redraws repeats against a set;
    the switch point is sample's setsize.
    """
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    return list(range(n)) if n <= setsize else None


def _draw_mask(getrandbits, n: int, k: int, pool: list[int] | None) -> int:
    """Bit mask of rng.sample(range(n), k), drawn from the same getrandbits calls.

    pool is _sample_pool(n, k), built once per caller and copied per draw.
    This is CPython's random.sample with randbelow inlined: with a pool, a
    shrinking pool with randbelow(n - i), otherwise randbelow(n) redrawn on
    repeats, each randbelow(m) rejecting getrandbits(m.bit_length()) >= m.
    """
    mask = 0
    if pool is not None:
        pool = pool[:]
        for m in range(n, n - k, -1):
            nbits = m.bit_length()
            j = getrandbits(nbits)
            while j >= m:
                j = getrandbits(nbits)
            mask |= 1 << pool[j]
            pool[j] = pool[m - 1]
        return mask
    nbits = n.bit_length()
    for _ in range(k):
        j = getrandbits(nbits)
        while j >= n or (grown := mask | 1 << j) == mask:
            j = getrandbits(nbits)
        mask = grown
    return mask


def coupled_step(spec: WalkSpec, state: CoupledState, rng: random.Random) -> CoupledState:
    """One coupled transition.

    Randomness order: even y draws one fair bit (1 = hold) and, when moving,
    one uniform k-subset.  Odd y lets each chain take an independent lazy
    step: chain 1's bit, chain 1's subset if moving, then chain 2's bit and
    subset.  Marginally each chain performs the lazy k-flip walk either way.
    Fair bits are rng.getrandbits(1); each subset is drawn from the same
    getrandbits calls as rng.sample(range(n), k).
    """
    n, k = spec.n, spec.k
    pool = _sample_pool(n, k)
    getrandbits = rng.getrandbits
    x1, x2 = state.x1, state.x2
    if state.y % 2:
        if not getrandbits(1):
            x1 ^= _draw_mask(getrandbits, n, k, pool)
        if not getrandbits(1):
            x2 ^= _draw_mask(getrandbits, n, k, pool)
    elif not getrandbits(1):
        smask = _draw_mask(getrandbits, n, k, pool)
        x1, x2 = x1 ^ smask, x2 ^ _even_x2_flipset(x1 ^ x2, smask)
    return CoupledState(n, x1, x2)


@dataclass(frozen=True)
class MarginalCheckReport:
    n: int
    k: int
    masks_checked: int
    maps_checked: int
    bijective: bool
    marginals_match: bool
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return self.bijective and self.marginals_match


def marginal_check(n: int, k: int) -> MarginalCheckReport:
    """Exhaustively certify the even-y move preserves both marginals.

    For every even-weight mismatch mask the induced map S -> (x2 flip set)
    must be a bijection on k-subsets; then both one-step marginals equal the
    lazy k-flip kernel exactly.  The mismatch mask determines the map, so
    enumerating masks covers every reachable pair.  Exhaustive, n <= 8.
    """
    if n > MARGINAL_CHECK_MAX_N:
        raise ValueError(f"marginal_check is exhaustive and limited to n <= {MARGINAL_CHECK_MAX_N}")
    if not (1 <= k <= n):
        raise ValueError(f"marginal_check domain error: k={k}, n={n}")
    smasks = [sum(1 << i for i in c) for c in combinations(range(n), k)]
    violations = []
    masks = maps = 0
    for m in range(1 << n):
        if m.bit_count() % 2:
            continue
        masks += 1
        seen: dict[int, int] = {}
        for s in smasks:
            t = _even_x2_flipset(m, s)
            maps += 1
            if t in seen:
                violations.append((m, seen[t], s, t))
            else:
                seen[t] = s
        if set(seen) != set(smasks) and len(seen) == len(smasks):
            # bijective onto a different set of masks would silently skew
            # the x2 marginal; record it as a violation too
            violations.append((m, -1, -1, -1))
    ok = not violations
    return MarginalCheckReport(
        n=n,
        k=k,
        masks_checked=masks,
        maps_checked=maps,
        bijective=ok,
        marginals_match=ok,
        violations=tuple(violations[:20]),
    )


def _require_coupling_spec(spec: WalkSpec, op: str) -> None:
    if spec.k % 2 == 0:
        raise ValueError(
            f"{op} requires odd k (even k confines the walk to a parity coset, "
            f"so the chains can never coalesce from odd mismatch counts)"
        )
    if spec.p != Fraction(1, 2):
        raise ValueError(f"{op} is defined for the half-lazy walk (p = 1/2), got p={spec.p}")


def coupling_weight_kernel(spec: WalkSpec) -> WeightKernel:
    """Exact transition kernel of the mismatch count y, absorbing at 0.

    Even y > 0: hold with 1/2, else y -> y - 2a if a <= y/2, no progress
    otherwise.  Odd y: the chains step independently, and the mismatch
    weight takes one lazy flip step per chain, so the row is row y of L^2
    for L = flip_weight_kernel(spec) (over 2C, so L^2 is over 4C^2).
    """
    from .exactdist import WeightKernel, flip_weight_kernel

    _require_coupling_spec(spec, "coupling_weight_kernel")
    n, k = spec.n, spec.k
    C = math.comb(n, k)
    den = 4 * C * C
    lazy = flip_weight_kernel(spec).rows
    rows: list[dict[int, int]] = []
    for y in range(n + 1):
        row: dict[int, int] = {}
        if y == 0:
            row[0] = den
        elif y % 2 == 0:
            row[y] = 2 * C * C
            for a, c in hypergeom_numerators(n, y, k).items():
                t = y - 2 * a if 2 * a <= y else y
                row[t] = row.get(t, 0) + 2 * C * c
        else:
            for y1, c1 in lazy[y].items():
                for t, c2 in lazy[y1].items():
                    row[t] = row.get(t, 0) + c1 * c2
        rows.append(row)
    return WeightKernel(n, rows=rows, den=den)


def coupling_tail_curve(spec: WalkSpec, lmax: int) -> list[Fraction]:
    """[P(T > l) for l = 0..lmax], exact, x2 started uniform (y0 binomial)."""
    from .exactdist import WeightDistribution, evolve

    if lmax < 0:
        raise ValueError(f"coupling_tail_curve requires lmax >= 0, got {lmax}")
    kernel = coupling_weight_kernel(spec)
    dist = WeightDistribution.binomial(spec.n)
    out = [1 - dist.prob(0)]
    for _ in range(lmax):
        dist = evolve(dist, kernel, 1)
        out.append(1 - dist.prob(0))
    return out


def expected_coupling_time(spec: WalkSpec, exact: bool | None = None):
    """E[T] from the absorbing y-kernel, y0 binomial.

    Exact rational solve of (I - Q) E = 1 up to EXACT_SOLVE_MAX_N states,
    float linear algebra beyond.  For k > n/2 some even mismatch counts can
    never make progress (every k-set hits more than y/2 mismatches once
    y > 2(n - k)), the binomial start charges them, and E[T] is infinite;
    math.inf is returned in that case.
    """
    from .exactdist import WeightDistribution

    _require_coupling_spec(spec, "expected_coupling_time")
    n = spec.n
    if exact is None:
        exact = n <= EXACT_SOLVE_MAX_N
    kernel = coupling_weight_kernel(spec)
    reaches_zero = {0}
    grew = True
    while grew:
        grew = False
        for y in range(1, n + 1):
            if y not in reaches_zero and any(t in reaches_zero for t in kernel.rows[y]):
                reaches_zero.add(y)
                grew = True
    if len(reaches_zero) <= n:
        return math.inf
    # den * (I - Q) in integers; each solve divides den out in its own arithmetic
    a = [[kernel.den * (y == t) for t in range(1, n + 1)] for y in range(1, n + 1)]
    for y in range(1, n + 1):
        for t, c in kernel.rows[y].items():
            if t >= 1:
                a[y - 1][t - 1] -= c
    init = WeightDistribution.binomial(n)
    if exact:
        e = _solve_exact([[Fraction(v, kernel.den) for v in row] for row in a], [Fraction(1)] * n)
        return sum(init.prob(y) * e[y - 1] for y in range(1, n + 1))
    import numpy as np

    e = np.linalg.solve(np.array([[v / kernel.den for v in row] for row in a]), np.ones(n))
    return float(init.to_float().vec[1:] @ e)


def _solve_exact(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    n = len(a)
    m = [row[:] + [bi] for row, bi in zip(a, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [vr - f * vc for vr, vc in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


@dataclass(frozen=True)
class CouplingTailReport:
    """Monte Carlo coalescence-time tally.

    survivors[l] counts trials with T > l; trials still apart at max_steps
    are right-censored and counted in survivors throughout, so tail
    estimates at l <= max_steps are unbiased.  mean_time averages
    min(T, max_steps).
    """

    n: int
    k: int
    trials: int
    max_steps: int
    seed: int
    method: str
    survivors: tuple[int, ...]
    censored: int

    def tail(self, l: int) -> float:
        return self.survivors[l] / self.trials

    @property
    def mean_time(self) -> float:
        # sum_{l >= 0} P(T > l), truncated at max_steps
        return sum(self.survivors) / self.trials


def simulate_coupling(spec: WalkSpec, trials: int, max_steps: int, seed: int) -> CouplingTailReport:
    """Monte Carlo of the coupled moves on the mismatch mask m = x1 ^ x2.

    x1 starts at the origin, x2 uniform, so m starts uniform; per-trial
    generators are derived from the seed by SHA-256 of
    "cubemix-couple:<seed>:<trial>", so results are reproducible across
    platforms and independent across trials.  The getrandbits calls are
    coupled_step's, in its order: odd y XORs each moving chain's subset into
    m, even y clears the repaired bits, and y is kept as a running count.
    """
    from hashlib import sha256

    _require_coupling_spec(spec, "simulate_coupling")
    if trials < 1 or max_steps < 0:
        raise ValueError(
            f"simulate_coupling needs trials >= 1, max_steps >= 0, got trials={trials}, max_steps={max_steps}"
        )
    n, k = spec.n, spec.k
    # the even-y draw inlines _draw_mask's set branch; the pool branch calls it
    pool = _sample_pool(n, k)
    nbits = n.bit_length()
    picks = range(k)
    ends = [0] * (max_steps + 2)  # ends[T] += 1; T = max_steps + 1 if censored
    for trial in range(trials):
        digest = sha256(f"cubemix-couple:{seed}:{trial}".encode()).digest()
        getrandbits = random.Random(int.from_bytes(digest, "big")).getrandbits
        m = getrandbits(n)
        y = m.bit_count()
        t = 0
        while m and t < max_steps:
            t += 1
            if y & 1:
                # independent lazy steps: each moving chain's subset lands in m
                if not getrandbits(1):
                    m ^= _draw_mask(getrandbits, n, k, pool)
                if not getrandbits(1):
                    m ^= _draw_mask(getrandbits, n, k, pool)
                y = m.bit_count()
                continue
            if getrandbits(1):
                continue
            if pool is None:
                smask = 0
                for _ in picks:
                    j = getrandbits(nbits)
                    while j >= n or (grown := smask | 1 << j) == smask:
                        j = getrandbits(nbits)
                    smask = grown
            else:
                smask = _draw_mask(getrandbits, n, k, pool)
            # with S & m empty, or 2a > y, both chains flip S and m stays
            if smask & m:
                repaired = _repaired_bits(m, smask)
                m ^= repaired
                y -= repaired.bit_count()
        ends[t if not m else max_steps + 1] += 1
    # survivors[l] counts the trials with T > l
    survivors = tuple(accumulate(ends[: max_steps + 1], sub, initial=trials))[1:]
    return CouplingTailReport(
        n=n,
        k=k,
        trials=trials,
        max_steps=max_steps,
        seed=seed,
        method="monte-carlo",
        survivors=survivors,
        censored=ends[max_steps + 1],
    )


# ---------------------------------------------------------------------------
# pick-probability certificates


@dataclass(frozen=True)
class HalfPickRow:
    part: int
    y: int
    prob: Fraction
    ok: bool


@dataclass(frozen=True)
class HalfPickCertificate:
    """Exact sweep of the two pick-probability claims at k = n/2.

    Convention: P(a = i) = C(y,i) C(n-y, n/2-i) / (2 C(n, n/2)); the total
    mass over i is 1/2 and the remaining 1/2 is the lazy hold.  Part 1
    (y >= n/2) asks P(y - n/2 <= a <= y/2) >= 1/4, part 2 (1 <= y <= n/2)
    asks P(y/4 <= a <= y/2) >= 1/4.
    """

    n: int
    rows: tuple[HalfPickRow, ...]
    min_part1: tuple[Fraction, int] | None
    min_part2: tuple[Fraction, int] | None
    min_part2_even: tuple[Fraction, int] | None
    violations: tuple[HalfPickRow, ...]
    notes: tuple[str, ...]

    @property
    def has_violations(self) -> bool:
        return bool(self.violations)


def _overlap_mass(ry: tuple, rny: tuple, k: int, lo: int, hi: int) -> int:
    """Sum of C(y,i) C(n-y,k-i) over lo <= i <= hi (hi >= -1); ry, rny = binom_row(y), binom_row(n-y).

    Rows are palindromes, so C(n-y,k-i) = rny[n-y-k+i]: one C-level dot
    product of aligned slices, which run out at the support's tops y and k.
    """
    off = len(rny) - 1 - k
    lo = lo if lo > 0 else 0
    lo = lo if lo + off > 0 else -off
    return sum(map(mul, ry[lo : hi + 1], rny[lo + off : hi + off + 1]))


def _mode_bad_range(n: int, k: int, y: int, tnum: int, tden: int) -> tuple[int, int]:
    """[start, stop): the i whose ratio test contradicts threshold t = tnum/tden, tden > 0.

    On the support's steps the pmf rises at i <= r and falls above.  With
    ceil(t) <= r the bad i are strict rises at i >= t (a tie at i = r is no
    rise); otherwise they are falls at i + 1 <= t, which need t >= r + 2.
    """
    lo, hi = (k - n + y if k - n + y > 0 else 0), (y if y < k else k)
    a = y * k - n + y + k - 1
    r = a // (n + 2)
    start = -(-tnum // tden)
    if start <= r:
        stop = r if r * (n + 2) == a else r + 1
    else:
        start, stop = r + 1, tnum // tden
    return (start if start > lo else lo), (stop if stop < hi else hi)


def verify_half_flip_pick_bounds(n: int) -> HalfPickCertificate:
    if n % 4 != 2:
        raise ValueError(f"verify_half_flip_pick_bounds requires n = 2 mod 4, got n={n}")
    h = n // 2
    C = math.comb(n, h)
    quarter = Fraction(1, 4)
    rows = []
    viol = []
    min1 = min2 = min2e = None
    for y in range(n + 1):
        ry, rny = binom_row(y), binom_row(n - y)
        if y >= h:
            p1 = Fraction(_overlap_mass(ry, rny, h, y - h, y // 2), 2 * C)
            row = HalfPickRow(1, y, p1, p1 >= quarter)
            rows.append(row)
            if not row.ok:
                viol.append(row)
            if min1 is None or p1 < min1[0]:
                min1 = (p1, y)
        if 1 <= y <= h:
            p2 = Fraction(_overlap_mass(ry, rny, h, -(-y // 4), y // 2), 2 * C)
            row = HalfPickRow(2, y, p2, p2 >= quarter)
            rows.append(row)
            if not row.ok:
                viol.append(row)
            if min2 is None or p2 < min2[0]:
                min2 = (p2, y)
            if y % 2 == 0 and (min2e is None or p2 < min2e[0]):
                min2e = (p2, y)
    notes = []
    if viol and all(r.y % 2 == 1 for r in viol):
        notes.append(
            "all violations occur at odd y; the coupling applies part 2 on even y only, "
            "where the minimum over this sweep is "
            + (f"{min2e[0]} at y={min2e[1]}" if min2e else "undefined")
        )
    return HalfPickCertificate(
        n=n,
        rows=tuple(rows),
        min_part1=min1,
        min_part2=min2,
        min_part2_even=min2e,
        violations=tuple(viol),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class PickPartReport:
    part: int
    checked: int
    violations: int
    violation_samples: tuple
    min_value: Fraction | None
    min_witness: tuple | None
    value_kind: str
    note: str = ""


@dataclass(frozen=True)
class PickBoundsCertificate:
    n_max: int
    parts: tuple[int, ...]
    reports: tuple[PickPartReport, ...]
    notes: tuple[str, ...]

    @property
    def has_violations(self) -> bool:
        return any(r.violations for r in self.reports)


_SAMPLE_CAP = 40


def _pick_sums(rows: list, n: int, k: int) -> list[int]:
    """[s(0), ..., s(n)], s(y) = sum of C(y,i) C(n-y,k-i) over ceil(yk/2n) <= i <= y//2.

    rows[m] is binom_row(m) for m <= n, and 1 <= k <= n/2.  With
    G(y, j) = sum_{i <= j} C(y,i) C(n-y,k-i), s(y) = G(y, y//2) - G(y, j(y))
    for j(y) = ceil(yk/2n) - 1, and both terms are stepped in y, not summed:
    G(y+1, j) = G(y, j) - C(y,j) C(n-y-1,k-j-1) and
    G(y, j+1) = G(y, j) + C(y,j+1) C(n-y,k-j-1).  With k <= n/2 each limit
    rises by at most 1 per y, and a rise folds both steps into one by
    Pascal's rule: G(y+1, j+1) = G(y, j) + C(y,j+1) C(n-y-1,k-j-1).  So each
    y costs at most two big-integer products, one per limit; a factor off the
    table (j < 0, or k-j-1 outside 0..n-y-1) is 0 and its step is skipped.
    """
    up, low = rows[n][k], 0  # G(0, 0) and G(0, -1)
    j, yk, edge = -1, 0, 0  # edge = 2n(j + 1): j rises once yk passes it
    out = [up]
    for y in range(n):
        ry, rest = rows[y], rows[n - y - 1]
        h = y >> 1
        if h < k:
            # k - h - 1 <= n - y - 1 because k <= n/2
            if y & 1:
                up += ry[h + 1] * rest[k - h - 1]
            else:
                up -= ry[h] * rest[k - h - 1]
        yk += k
        rise = yk > edge
        if k - j <= n - y:
            if rise:
                low += ry[j + 1] * rest[k - j - 1]
            elif j >= 0:
                low -= ry[j] * rest[k - j - 1]
        if rise:
            j += 1
            edge += 2 * n
        out.append(up - low)
    return out


def _pick_blocks(n: int, k: int) -> tuple:
    """(part, base, lo, hi) for parts 2-9 at one (n, k): part covers lo <= y < hi.

    base is the part for y >= k (2: yk >= 2n, 3: yk >= n, 4: 2yk/n > ln 2,
    5: below) and base + 4 is the part for y < k.  q = yk/n grows with y,
    so the bases cut 1..n into four runs and y = k cuts each run in two.
    The ln 2 cut is decided exactly by cmp_ratio_with_ln2, stepping up from
    floor(n LN2_LO / 2k), which lies below it since LN2_LO < ln 2.
    """
    top = n + 1
    y2 = min(-(-2 * n // k), top)
    y3 = min(-(-n // k), top)
    y4 = max(1, n * LN2_LO.numerator // (2 * k * LN2_LO.denominator))
    while y4 < y3 and cmp_ratio_with_ln2(2 * y4 * k, n) < 0:
        y4 += 1
    out = []
    for base, a, b in ((5, 1, y4), (4, y4, y3), (3, y3, y2), (2, y2, top)):
        out.append((base + 4, base, a, min(b, k)))
        out.append((base, base, max(a, k), b))
    return tuple(out)


def _pick_claim_holds(base: int, v: int, C: int) -> bool:
    """Whether one cell's value meets its base part's claim; C = C(n, k).

    v is the sum s (P = s/2C) for bases 2-4 and the slack numerator
    4ns - C yk = 8nC (P - q/8) for base 5.  Each claim holds from some
    value on, so a run of cells holds when its smallest value does.
    """
    if base == 2:
        return 4 * v >= C
    if base == 3:
        return 3 * v >= C
    if base == 4:
        # (2 - sqrt 2)/8 <= s/2C, squared as 2C - 4s <= 0 or (2C - 4s)^2 <= 2C^2
        t = 2 * C - 4 * v
        return t <= 0 or 2 * C * C >= t * t
    return v >= 0


def verify_pick_fraction_bounds(n_max: int, parts=tuple(range(1, 10))) -> PickBoundsCertificate:
    """Exact sweep of the nine pick-fraction claims over n <= n_max, k <= n/2.

    a is the overlap of a uniform k-set with a y-set; P(a = i) carries the
    lazy 1/2 as in HalfPickCertificate.  With q = yk/n the claims are,
    for y >= k: (2) P(q/2 <= a <= min(y/2, k)) >= 1/8 when q >= 2,
    (3) P(1 <= a <= min(y/2, k)) >= 1/6 when 1 <= q < 2, (4) the same with
    bound (2 - sqrt 2)/8 when ln2/2 <= q < 1, (5) bound q/8 when
    q < ln2/2; parts 6-9 repeat 2-5 for y < k with upper limit y/2.
    Part 1 checks the nominal mode threshold (yk - n + y + k)/(n + 1)
    against the exact ratio test P(a = i + 1) >= P(a = i).  Its up - down =
    (yk - n + y + k - 1) - i(n + 2) is linear in i, so per (n, k, y) the
    pmf rises at i <= r = (yk - n + y + k - 1) // (n + 2) and falls above;
    the contradicted i form an integer range below or above r, counted by
    its length, and a tie at i(n + 2) = yk - n + y + k - 1 contradicts none.

    Parts 2-9 share one sum per cell, s(y) = sum of C(y,i) C(n-y,k-i) over
    ceil(yk/2n) <= i <= y//2 (the lower limit is 1 wherever yk < 2n), and
    P = s/2C with C = C(n, k).  _pick_sums gets every y's s at one (n, k)
    from two running hypergeometric CDFs, at most two big-integer products
    per y.  q grows with y, so each part covers one run of y at each (n, k)
    (_pick_blocks), and the run is checked as a block: its length is
    counted, its smallest value (the first y to reach it is the witness)
    is compared with the part's running minimum, and since every claim is
    monotone in the value, its cells are scanned one by one only when that
    smallest value fails the claim.

    Everything is integer arithmetic; bounds involving sqrt 2 are
    decided by squaring.  q is classified by comparing yk with n and 2n
    and 2yk/n with the ln 2 brackets, each part's running minimum is kept
    as an integer pair (numerator, positive denominator) compared by
    cross-multiplying, and Fractions are built only for the output: the
    stored violation samples and the final minima.
    """
    parts = tuple(sorted(set(parts)))
    if any(p < 1 or p > 9 for p in parts):
        raise ValueError(f"parts must lie in 1..9, got {parts}")
    if n_max < 2:
        raise ValueError(f"verify_pick_fraction_bounds requires n_max >= 2, got {n_max}")

    checked = {p: 0 for p in parts}
    nviol = {p: 0 for p in parts}
    samples: dict[int, list] = {p: [] for p in parts}
    # part -> (numerator, denominator, witness) of the smallest value so far
    min_pair: dict[int, tuple | None] = {p: None for p in parts}
    want_sum = any(p != 1 for p in parts)
    want_mode = 1 in parts

    for n in range(2, n_max + 1):
        rows = [binom_row(m) for m in range(n + 1)]
        if want_mode:
            checked[1] += n // 2 * n
        for k in range(1, n // 2 + 1):
            if want_mode:
                for y in range(1, n + 1):
                    start, stop = _mode_bad_range(n, k, y, y * k - n + y + k, n + 1)
                    if start < stop:
                        bad = range(start, stop)
                        nviol[1] += len(bad)
                        samples[1] += [(n, k, y, i) for i in bad[: _SAMPLE_CAP - len(samples[1])]]
            if not want_sum:
                continue
            C = rows[n][k]
            sums = _pick_sums(rows, n, k)
            for part, base, lo, hi in _pick_blocks(n, k):
                if part not in checked or lo >= hi:
                    continue
                checked[part] += hi - lo
                # the value as (num, den): P = s/2C, or the slack P - yk/8n
                if base == 5:
                    vals = [4 * n * s - C * k * y for y, s in zip(range(lo, hi), sums[lo:hi])]
                    den = 8 * n * C
                else:
                    vals, den = sums[lo:hi], 2 * C
                low = min(vals)
                best = min_pair[part]
                if best is None or low * best[1] < best[0] * den:
                    min_pair[part] = (low, den, (n, k, lo + vals.index(low)))
                # every claim is monotone in its value: a block holds if its minimum does
                if _pick_claim_holds(base, low, C):
                    continue
                for y, v in zip(range(lo, hi), vals):
                    if not _pick_claim_holds(base, v, C):
                        nviol[part] += 1
                        if len(samples[part]) < _SAMPLE_CAP:
                            samples[part].append((n, k, y, Fraction(sums[y], 2 * C)))

    reports = []
    odd_only = True
    for p in parts:
        note = ""
        if p == 1:
            note = (
                "nominal mode threshold (y*k - n + y + k)/(n + 1); exact ratio-test "
                "boundary (y*k + y + k - n - 1)/(n + 2); integer arguments are "
                "classified identically whenever the violation count is zero"
            )
        elif nviol[p] and all(w[2] == 1 for w in samples[p]):
            note = "violations occur at y = 1 where the integer range [1, y/2] is empty"
        best = min_pair[p]
        reports.append(
            PickPartReport(
                part=p,
                checked=checked[p],
                violations=nviol[p],
                violation_samples=tuple(samples[p]),
                min_value=Fraction(best[0], best[1]) if best else None,
                min_witness=best[2] if best else None,
                value_kind="slack" if p in (5, 9) else "prob",
                note=note,
            )
        )
        if p != 1 and any(w[2] % 2 == 0 for w in samples[p]):
            odd_only = False
    notes = []
    if any(nviol[p] for p in parts if p != 1) and odd_only:
        notes.append("every violation found lies at odd y, outside the coupling's even-y phase")
    return PickBoundsCertificate(n_max=n_max, parts=parts, reports=tuple(reports), notes=tuple(notes))
