"""Exact distributions of weight-lumped walks, and their distances.

Started at the origin, the k-flip walk's distribution is a function of
Hamming weight only, so the full 2^n-state chain lumps to an (n+1)-state
birth-death-like chain: from weight w, flipping a k-set that hits the
current support in i places moves to w + k - 2i with hypergeometric
probability.  The (Z/mZ)^n walk lumps onto its support size the same way
(support_weight_kernel); the cube is m = 2, where support size is weight.
Both walks share one idiom: a kernel, a point start stepped by evolve(),
and two reductions, tv_to_uniform(dist, m) and l2_to_uniform(dist, m),
against the uniform profile C(n,s)(m-1)^s / m^n; distance_curve runs it
one step per row.  The same lumping carries the coupling analysis and the
cyclic walk's touched-coordinate chain, which gives separation_tail.
Every lumped chain is a pick law: i of the k picks land in the current set
(hypergeometric) and the size moves by an amount linear in i (flip
k - 2i, touched k - i, support b - i); _pick_kernel builds all three, and
the coupling kernel composes the lazy flip kernel's rows.

Every kernel is integer numerators over one denominator, and so is every
exact distance: each reduction sums integers and builds a single
Fraction at the end.  The exact TV needs only the sign of each weight's
excess over the uniform profile, since both laws have mass 1: it reads
the sign from logs (the table's log row, no numpy), settles the few
weights whose logs fall within rounding of a tie by the exact product,
and multiplies two sums by the denominators: a few big products per
reduction instead of two per weight.  evolve() steps along a kernel's
few nonzero diagonals (from w the flip walk reaches only w + k - 2i).
Exact evolution keeps plain int lists over (step_denominator)^l,
avoiding the per-addition gcd work of Fractions, and sums a step's
zero-padded diagonal products in one lazy pass that builds one list per
step; float evolution, for walks beyond EXACT_BACKEND_MAX_N, steps the
same diagonals in float64, so mass is kept to rounding.  A pick-law
kernel's float diagonals come from a float64 table of the pick law
(_pick_law_floats), so a float curve forms no big integer; any other
kernel's are its integers divided out once.  Both backends reduce
against numerics' support-size table C(n,s)(m-1)^s, so this module builds
no table: exact TV reads the row and its logs, exact l2 its cofactors,
float TV and l2 the profile and logs of numerics._float_profile (which
never holds the row), as numpy array expressions with no per-weight loop.
Only the float paths (float distributions, evolution and reductions,
full_transition_matrix) import numpy, so exact work never loads it.

brute_force_dist evolves the full 2^n-state distribution (a FullDistribution
NamedTuple) without any lumping assumption and exists to certify the lumped
chain against direct enumeration.  sum_{|s|=k} f(x xor s) is accumulated
coordinate by coordinate (an exact regrouping of the naive subset sum),
which keeps the n <= 14 regime tractable at fifty steps.  Only the
character-inversion oracle spectral_dist loads krawtchouk's table (by rows).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from .numerics import EXACT_BACKEND_MAX_N, binom_row, hypergeom_numerators, sum_exp, use_exact
from .numerics import _cofactors, _float_profile, _log_multiplicity_row
from .spectrum import CyclicWalkSpec, WalkSpec, _l2_curve, cube_eigen_numerators

if TYPE_CHECKING:
    import numpy as np

# Relative width of the band in which tv_to_uniform's log test defers to the
# exact product: math.log of an int is within about 1e-16 of its magnitude.
_SIGN_TOL = 1e-12


class WeightDistribution:
    """Distribution over Hamming weights 0..n, exact or float backed."""

    __slots__ = ("n", "exact", "nums", "den", "vec")

    def __init__(self, n, *, nums=None, den=None, vec=None):
        self.n = n
        if nums is not None:
            if den is None or den <= 0:
                raise ValueError("exact WeightDistribution needs a positive denominator")
            if len(nums) != n + 1:
                raise ValueError(f"expected {n + 1} entries, got {len(nums)}")
            if sum(nums) != den:
                raise ValueError("exact WeightDistribution does not sum to 1")
            if min(nums) < 0:
                raise ValueError("negative mass in WeightDistribution")
            self.exact = True
            self.nums = list(nums)
            self.den = den
            self.vec = None
        else:
            import numpy as np

            v = np.asarray(vec, dtype=float)
            if v.shape != (n + 1,):
                raise ValueError(f"expected shape ({n + 1},), got {v.shape}")
            # written so that a nan or inf sum fails too; -0.0 passes the sign test
            if not abs(float(v.sum()) - 1.0) <= 1e-9:
                raise ValueError("float WeightDistribution does not sum to 1")
            if v.min() < 0:
                raise ValueError("negative mass in WeightDistribution")
            self.exact = False
            self.nums = None
            self.den = None
            self.vec = v

    @classmethod
    def delta(cls, n: int, w: int = 0) -> "WeightDistribution":
        if not 0 <= w <= n:
            raise ValueError(f"point start {w} outside weights 0..{n}")
        nums = [0] * (n + 1)
        nums[w] = 1
        return cls(n, nums=nums, den=1)

    @classmethod
    def from_floats(cls, vec) -> "WeightDistribution":
        return cls(len(vec) - 1, vec=vec)

    def prob(self, w: int):
        if self.exact:
            return Fraction(self.nums[w], self.den)
        return float(self.vec[w])

    @property
    def probs(self):
        if self.exact:
            return tuple(Fraction(v, self.den) for v in self.nums)
        return self.vec.copy()

    def to_float(self) -> "WeightDistribution":
        if not self.exact:
            return self
        # int / int is correctly rounded at any size; float(den) overflows
        return WeightDistribution(self.n, vec=[v / self.den for v in self.nums])


class WeightKernel:
    """Row-stochastic kernel on weights 0..n, in exact integers.

    rows[w] maps target -> integer numerator, all rows over the single
    denominator den.  A weight chain only moves by a few fixed offsets, so
    evolve() steps along the kernel's diagonals (see diagonals()).  A
    pick-law kernel (_pick_kernel) builds rows and den when they are first
    read, and its float diagonals from the float64 pick-law table, so a
    float curve makes no big integer.
    """

    __slots__ = ("n", "_rows", "_den", "_pick", "_diagonals")

    # Every kernel is exact; the distribution picks the arithmetic.
    exact = True

    def __init__(self, n, *, rows=None, den=None, pick=None):
        self.n = n
        self._rows = self._den = None
        self._pick = pick
        self._diagonals = {}
        if pick is None:
            self._set_rows(rows, den)

    def _set_rows(self, rows, den):
        if den <= 0:
            raise ValueError("WeightKernel needs a positive denominator")
        if len(rows) != self.n + 1:
            raise ValueError(f"WeightKernel on weights 0..{self.n} needs {self.n + 1} rows, got {len(rows)}")
        for w, row in enumerate(rows):
            if sum(row.values()) != den:
                raise ValueError(f"kernel row {w} does not sum to 1")
            if min(row) < 0 or max(row) > self.n:
                raise ValueError(f"kernel row {w} has a target outside 0..{self.n}")
            if any(c < 0 for c in row.values()):
                raise ValueError(f"negative entry in kernel row {w}")
        self._rows, self._den = rows, den

    def _integers(self) -> tuple[list[dict[int, int]], int]:
        if self._rows is None:
            self._set_rows(*_pick_rows(self.n, *self._pick))
        return self._rows, self._den

    @property
    def rows(self) -> list[dict[int, int]]:
        return self._integers()[0]

    @property
    def den(self) -> int:
        return self._integers()[1]

    def diagonals(self, exact: bool) -> list[tuple[int, int, int, list[int] | np.ndarray]]:
        """[(d, lo, hi, c)] with c[w - lo] = rows[w][w + d], one per offset d.

        exact=True gives the integer numerators as a list of ints,
        exact=False the float64 probabilities c / den as a numpy array (a
        pick-law kernel's come from _pick_diagonals instead, within a few
        ulp of c / den).  Cached: curves step one call at a time.
        """
        if exact not in self._diagonals:
            if not exact and self._pick is not None:
                diags = _pick_diagonals(self.n, *self._pick)
            else:
                by_offset: dict[int, dict[int, int]] = {}
                for w, row in enumerate(self.rows):
                    for t, c in row.items():
                        by_offset.setdefault(t - w, {})[w] = c
                diags = []
                for d, col in sorted(by_offset.items()):
                    lo, hi = min(col), max(col) + 1
                    cs = [col.get(w, 0) for w in range(lo, hi)]
                    if not exact:
                        import numpy as np

                        cs = np.array([v / self.den for v in cs])
                    diags.append((d, lo, hi, cs))
            self._diagonals[exact] = diags
        return self._diagonals[exact]


def _pick_kernel(n: int, k: int, drop: int, land, scale: int, hold: int = 0) -> WeightKernel:
    """Lumped chain of a walk that picks k of n coordinates per step.

    From size s, i picks lie in the set (hypergeometric), and each (b, f) in
    land moves s to s + b - drop*i with probability f/scale times the pick
    law's; hold/scale is a self-loop.  The rows are over scale * C(n, k)."""
    return WeightKernel(n, pick=(k, drop, tuple(land), scale, hold))


def _pick_rows(n, k, drop, land, scale, hold):
    """(rows, den) of _pick_kernel's chain in integers over den = scale * C(n, k)."""
    C = math.comb(n, k)
    hold *= C
    rows = []
    for s in range(n + 1):
        picks = hypergeom_numerators(n, s, k)
        top, hs = s - drop * min(picks), list(picks.values())
        row = {s: hold} if hold else {}
        for b, f in land:
            moves = zip(range(top + b, -1, -drop), hs)
            if row:
                for t, h in moves:
                    row[t] = row.get(t, 0) + f * h
            else:
                row = dict(moves) if f == 1 else {t: f * h for t, h in moves}
        rows.append(row)
    return rows, scale * C


def _pick_law_floats(n: int, k: int) -> np.ndarray:
    """g[i, t] = C(s,i) C(n-s,k-i) / C(n,k) at s = t + i, in float64.

    Row i, for t = 0..n-k, is column i of the pick law over its support
    s = i..n-k+i: the diagonal a pick kernel steps along.  Each law (fixed
    s) is 1.0 at its mode (s+1)(k+1)//(n+2) and is multiplied outward by
    the exact term ratio (s-i)(k-i) / ((i+1)(n-s-k+i+1)), rounded once, so
    an entry i has rounded about 2|i - mode| times; math.fsum then
    normalises each law.  No big integer is formed.
    """
    import numpy as np

    span = n - k + 1
    g = np.empty((k + 1, span))
    t = np.arange(span, dtype=float)
    # firsts[i]: the first s whose mode reaches i, so row i holds the mode at
    # t in [a, b) = [firsts[i] - i, firsts[i + 1] - i), values before it
    # climbing from row i - 1 and values after it falling from row i + 1;
    # each mode lies in its law's support, so 0 <= a < span and 0 < b <= span
    firsts = [(i * (n + 2) + k) // (k + 1) - 1 for i in range(k + 2)]
    starts = [(max(firsts[i] - i, 0), firsts[i + 1] - i) for i in range(k + 1)]
    for i, (a, b) in enumerate(starts):
        if a:
            # H[s, i] = H[s, i-1] (s-i+1)(k-i+1) / (i (n-s-k+i)) at s = t + i
            g[i, :a] = g[i - 1, 1 : a + 1] * (((t[:a] + 1) * (k - i + 1)) / ((n - k - t[:a]) * i))
        g[i, a:b] = 1.0
    for i in range(k - 1, -1, -1):
        b = starts[i][1]
        if b < span:
            # H[s, i] = H[s, i+1] (i+1)(n-s-k+i+1) / ((s-i)(k-i)) at s = t + i
            g[i, b:] = g[i + 1, b - 1 : span - 1] * (((n - k - t[b:] + 1) * (i + 1)) / (t[b:] * (k - i)))
    # law s is the anti-diagonal g[i, s - i], at flat index i (span - 1) + s;
    # fsum runs far faster fed outward from the mode than in index order
    flat, step = g.ravel(), span - 1
    totals = np.empty(n + 1)
    for s in range(n + 1):
        lo, mode, hi = (i * step + s for i in (max(0, s - step), (s + 1) * (k + 1) // (n + 2), min(s, k)))
        totals[s] = math.fsum(flat[mode : hi + 1 : step or 1].tolist() + flat[lo:mode : step or 1].tolist()[::-1])
    for i in range(k + 1):
        g[i] /= totals[i : i + span]
    return g


def _pick_diagonals(n, k, drop, land, scale, hold):
    """_pick_kernel's float diagonals, (d, lo, hi, c) as in WeightKernel.diagonals.

    The move (b, f) at i picks in the set steps from s = i..n-k+i by
    d = b - drop*i with probability f/scale times row i of _pick_law_floats;
    moves that share an offset are summed, and hold/scale joins d = 0.
    """
    import numpy as np

    g = _pick_law_floats(n, k)
    span = n - k + 1
    ranges: dict[int, tuple[int, int]] = {0: (0, n + 1)} if hold else {}
    for b, _ in land:
        for i in range(k + 1):
            lo, hi = ranges.get(b - drop * i, (i, i + span))
            ranges[b - drop * i] = (min(lo, i), max(hi, i + span))
    diags = {d: (lo, hi, np.zeros(hi - lo)) for d, (lo, hi) in ranges.items()}
    for b, f in land:
        w = f / scale
        for i in range(k + 1):
            lo, _, c = diags[b - drop * i]
            c[i - lo : i - lo + span] += g[i] * w
    if hold:
        diags[0][2][:] += hold / scale
    return [(d, lo, hi, c) for d, (lo, hi, c) in sorted(diags.items())]


def flip_weight_kernel(spec: WalkSpec) -> WeightKernel:
    """Weight-lumped kernel of the lazy k-flip walk.

    From weight w: hold with probability p, else move to w + k - 2i where i
    is hypergeometric (i of the k flips land on the current support).
    """
    n, k, p = spec.n, spec.k, spec.p
    a, q = p.numerator, p.denominator
    return _pick_kernel(n, k, 2, [(k, q - a)], q, hold=a)


def evolve(dist: WeightDistribution, kernel: WeightKernel, steps: int) -> WeightDistribution:
    """dist . kernel^steps, in the arithmetic of dist.

    An exact distribution steps in integers over den * kernel.den^steps; a
    float one steps with the float64 probabilities of the same kernel.
    """
    if steps < 0:
        raise ValueError(f"evolve requires steps >= 0, got {steps}")
    if dist.n != kernel.n:
        raise ValueError(f"size mismatch: distribution n={dist.n}, kernel n={kernel.n}")
    diags = kernel.diagonals(dist.exact)
    if dist.exact:
        size, vec = dist.n + 1, dist.nums
        for _ in range(steps):
            # each diagonal's products, zero-padded to the whole target range,
            # summed entry by entry in one lazy pass that builds one list
            total = None
            for d, lo, hi, c in diags:
                terms = chain(repeat(0, lo + d), map(mul, vec[lo:hi], c), repeat(0, size - hi - d))
                total = terms if total is None else map(add, total, terms)
            vec = list(total)
        return WeightDistribution(dist.n, nums=vec, den=dist.den * kernel.den**steps)
    import numpy as np

    vec = dist.vec
    for _ in range(steps):
        new = np.zeros_like(vec)
        for d, lo, hi, c in diags:
            new[lo + d : hi + d] += vec[lo:hi] * c
        vec = new
    return WeightDistribution(dist.n, vec=vec)


def tv_to_uniform(dist: WeightDistribution, m: int = 2):
    """TV distance between the lifted support-size law and uniform on (Z/mZ)^n.

    The lift spreads dist(s) evenly over the C(n,s)(m-1)^s points with
    support size s, which is the law of either walk started at the origin
    (the cube is m = 2, where support size is Hamming weight); the TV
    reduces to (1/2) sum_s |dist(s) - C(n,s)(m-1)^s / m^n|.
    """
    n = dist.n
    if dist.exact:
        # Both laws have mass 1, so the TV is the excess of dist over the
        # uniform profile on A = {s : v_s m^n > c_s den}.  Each sign is read
        # from logs, ln v - ln c against ln den - n ln m; every log is within
        # a few ulp of its magnitude, all at most ln den + n ln m (v <= den,
        # c <= m^n), and only a gap inside the band around that is settled
        # by the exact product.
        nums, den, scale = dist.nums, dist.den, m**n
        mult = binom_row(n, m)
        ld, lscale = math.log(den), n * math.log(m)
        band = _SIGN_TOL * (2 * ld + lscale + 1)
        above, below = ld - lscale + band, ld - lscale - band
        sv = sc = 0
        for v, lc, c in zip(nums, _log_multiplicity_row(n, m), mult):
            if v:
                gap = math.log(v) - lc
                if gap > above or (gap >= below and v * scale > c * den):
                    sv += v
                    sc += c
        return Fraction(sv * scale - sc * den, den * scale)
    # a TV is at most 1; float evolution keeps mass only to a few ulp, so a
    # sum above 1 is rounding, and 1.0 is nearer the exact value (min with
    # the sum first lets a nan through)
    return min(0.5 * float(abs(dist.vec - _float_profile(n, m)[0]).sum()), 1.0)


def l2_to_uniform(dist: WeightDistribution, m: int = 2):
    """Chi-square distance between the lifted support-size law and uniform on (Z/mZ)^n.

    With the lift of tv_to_uniform (the cube is m = 2), m^n sum_x (P(x) -
    m^-n)^2 reduces to m^n sum_s dist(s)^2 / (C(n,s)(m-1)^s) - 1.  From a
    point start it is the spectral sum of l2_upper_bound or
    zmn_l2_upper_bound.  The float value is inf only when the sum itself is
    beyond float range.
    """
    n = dist.n
    if dist.exact:
        L, cof = _cofactors(n, m)
        d2 = dist.den * dist.den
        s = sum(v * v * c for v, c in zip(dist.nums, cof))
        return Fraction(s * m**n - L * d2, L * d2)
    import numpy as np

    # ln (P(s)^2 m^n / (C(n,s)(m-1)^s)) over the sizes carrying mass; the
    # table is read first, so m < 2 meets its ValueError, not math.log(m)'s
    log_mults = _float_profile(n, m)[1]
    live = dist.vec != 0
    logs = 2 * np.log(np.abs(dist.vec[live])) + n * math.log(m) - log_mults[live]
    return sum_exp(logs) - 1.0


BRUTE_FORCE_MAX_N = 14


class FullDistribution(NamedTuple):
    """Exact distribution over all 2^n configurations (numerators / den)."""

    n: int
    nums: tuple[int, ...]
    den: int

    def prob(self, x: int) -> Fraction:
        return Fraction(self.nums[x], self.den)

    def weight_marginal(self) -> WeightDistribution:
        marg = [0] * (self.n + 1)
        for x, v in enumerate(self.nums):
            if v:
                marg[x.bit_count()] += v
        return WeightDistribution(self.n, nums=marg, den=self.den)

    def tv_to_uniform(self) -> Fraction:
        scale = 1 << self.n
        s = sum(abs(v * scale - self.den) for v in self.nums)
        return Fraction(s, 2 * self.den * scale)


def brute_force_dist(spec: WalkSpec, l: int) -> FullDistribution:
    """Distribution of the walk after l steps by full-state evolution.

    No weight symmetry is assumed: the step operator is applied to all 2^n
    states.  Guarded to n <= BRUTE_FORCE_MAX_N.
    """
    for _, dist in brute_force_curve(spec, l):
        pass
    return dist


def brute_force_curve(spec: WalkSpec, lmax: int):
    """Yield (l, FullDistribution) for l = 0..lmax, stepping once per l.

    Guarded to n <= BRUTE_FORCE_MAX_N; intended for oracle sweeps over whole
    curves, since each step reuses the previous state.
    """
    n, k, p = spec.n, spec.k, spec.p
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute_force_curve is limited to n <= {BRUTE_FORCE_MAX_N}, got n={n}")
    if lmax < 0:
        raise ValueError(f"brute_force_curve requires lmax >= 0, got {lmax}")
    a, q = p.numerator, p.denominator
    C = math.comb(n, k)
    hold_num = a * C
    move_num = q - a
    nums = [0] * (1 << n)
    nums[0] = 1
    den = 1
    yield 0, FullDistribution(n, tuple(nums), den)
    for l in range(1, lmax + 1):
        flip_sum = _subset_flip_sum(nums, n, k)
        nums = [hold_num * v + move_num * t for v, t in zip(nums, flip_sum)]
        den *= q * C
        yield l, FullDistribution(n, tuple(nums), den)


def _subset_flip_sum(nums: list[int], n: int, k: int) -> list[int]:
    """[sum over |s| = k of nums[x xor s] for each x], exactly.

    Processes coordinates one at a time: after m coordinates, u[j][x] is the
    sum of nums[x xor s] over the C(m,j) subsets s of the first m
    coordinates with |s| = j.  Identical to the naive subset sum, just
    regrouped; the naive version cross-checks this in the tests.  The
    entries are Python ints in numpy object arrays, so the sums stay exact:
    prev[x ^ bit] over all x is prev with the two halves of each 2·bit
    block swapped, the middle axis of a (-1, 2, bit) view reversed.
    """
    import numpy as np

    N = 1 << n
    u = [np.array(nums, dtype=object)] + [np.zeros(N, dtype=object) for _ in range(k)]
    for m in range(n):
        bit = 1 << m
        for j in range(min(k, m + 1), 0, -1):
            u[j] = u[j] + u[j - 1].reshape(-1, 2, bit)[:, ::-1, :].reshape(-1)
    return u[k].tolist()


FULL_MATRIX_MAX_N = 12


def full_transition_matrix(spec: WalkSpec) -> np.ndarray:
    """Dense 2^n x 2^n one-step matrix (floats), for direct diagonalization."""
    import numpy as np

    n, k = spec.n, spec.k
    if n > FULL_MATRIX_MAX_N:
        raise ValueError(f"full_transition_matrix is limited to n <= {FULL_MATRIX_MAX_N}")
    N = 1 << n
    idx = np.arange(N)
    pc = np.zeros(N, dtype=np.int64)
    x = idx.copy()
    while x.any():
        pc += x & 1
        x >>= 1
    weights = pc[np.bitwise_xor.outer(idx, idx)]
    pf = float(spec.p)
    P = (weights == k) * ((1.0 - pf) / math.comb(n, k))
    np.fill_diagonal(P, P.diagonal() + pf)
    return P


def spectral_dist(spec: WalkSpec, l: int) -> WeightDistribution:
    """Exact weight distribution after l steps via character inversion.

    P^l(x) = 2^-n sum_z eigenvalue(|z|)^l (-1)^(z.x); summing characters of
    fixed weight gives integer Krawtchouk coefficients, so the whole
    inversion stays in integer arithmetic.  As C(n,w) kappa[j][w] =
    C(n,j) kappa[w][j], weight w is row w dotted with C(n,j) eig_j^l.
    Exact-only by design: the alternating sum cancels catastrophically in
    floats, and the float regime is served by evolve() on the lumped kernel
    instead.
    """
    from .krawtchouk import kraw_integer_table

    n = spec.n
    if n > EXACT_BACKEND_MAX_N:
        raise ValueError(
            f"spectral_dist is exact-only and limited to n <= {EXACT_BACKEND_MAX_N}, got n={n}"
        )
    if l < 0:
        raise ValueError(f"spectral_dist requires l >= 0, got l={l}")
    eig_nums, eig_den = cube_eigen_numerators(spec)
    levels = [c * e**l for c, e in zip(binom_row(n), eig_nums)]
    nums = [sum(map(mul, row, levels)) for row in kraw_integer_table(n)]
    return WeightDistribution(n, nums=nums, den=eig_den**l * (1 << n))


def touched_weight_kernel(cspec: CyclicWalkSpec) -> WeightKernel:
    """Count of coordinates ever randomized; upper-triangular, absorbing at n.

    From w touched coordinates a step touches j new ones with probability
    C(n-w,j) C(w,k-j) / C(n,k).
    """
    return _pick_kernel(cspec.n, cspec.k, 1, [(cspec.k, 1)], 1)


def support_weight_kernel(cspec: CyclicWalkSpec) -> WeightKernel:
    """Support-size chain of the (Z/mZ)^n walk, the profile its TV reduces.

    From s, i of the k picks lie in the support (hypergeometric) and b ~
    Bin(k, (m-1)/m) of the k fresh digits are nonzero, so s moves to
    s - i + b: C(s,i) C(n-s,k-i) C(k,b) (m-1)^b over C(n,k) m^k.
    """
    n, m, k = cspec.n, cspec.m, cspec.k
    fresh = list(enumerate(binom_row(k, m)))
    return _pick_kernel(n, k, 1, fresh, m**k)


def separation_tail(touched: WeightDistribution) -> Fraction | float:
    """P(some coordinate is still untouched), from the touched profile.

    touched is the law of the touched count after l steps (stepped by
    touched_weight_kernel), exact or float, and the tail is a Fraction or a
    float to match.  The first time every coordinate has been randomized is
    a strong stationary time for the (Z/mZ)^n walk, so this tail dominates
    both separation and TV distance.
    """
    return 1 - touched.prob(touched.n)


def zmn_exact_tv(touched: WeightDistribution, m: int) -> Fraction:
    """Exact TV distance to uniform on m^n, from the exact touched profile.

    touched is as in separation_tail.  Given w touched coordinates the
    support size is Bin(w, (m-1)/m), so the profile thins to the
    support-size law (which support_weight_kernel steps directly), and
    tv_to_uniform reduces that.
    """
    if not touched.exact:
        raise ValueError("zmn_exact_tv is exact-only: it needs the exact touched-count profile")
    n, nums = touched.n, touched.nums
    binom_row(n, m)  # refuses m < 2 before m^n is a zero denominator; cached for tv_to_uniform
    # over den m^n: P(support = s) = sum_w nums_w m^(n-w) C(w,s) (m-1)^s; the
    # sum over w is the z^s coefficient of sum_w nums_w m^(n-w) (1+z)^w, taken
    # by Horner's rule in 1 + z: additions, no binomial rows
    thinned = [nums[n]]
    for w in range(n - 1, -1, -1):
        thinned = list(map(add, [0, *thinned], [*thinned, 0]))
        thinned[0] += nums[w] * m ** (n - w)
    support = [c * (m - 1) ** s for s, c in enumerate(thinned)]
    return tv_to_uniform(WeightDistribution(n, nums=support, den=touched.den * m**n), m)


def distance_curve(spec: WalkSpec | CyclicWalkSpec, exact: bool | None = None):
    """Yield {column: distance} for l = 0, 1, ... steps from the origin, without end.

    Columns tv and l2_sq (the chi-square distance) for a WalkSpec; tv,
    separation_tail and l2_sq_bound for a CyclicWalkSpec.  Fractions when
    exact, floats otherwise; exact=None means use_exact(n).  Each kernel is
    built once and each chain stepped by one evolve per row (the cyclic TV
    reads the support-size chain, separation the touched-count one); l2 is
    spectrum._l2_curve's.  A row is computed only when it is asked for.
    """
    if exact is None:
        exact = use_exact(spec.n)
    l2s = _l2_curve(spec, exact)
    if isinstance(spec, CyclicWalkSpec):
        kernels = (support_weight_kernel(spec), touched_weight_kernel(spec))

        def row(support, touched):
            tv = tv_to_uniform(support, spec.m)
            return {"tv": tv, "separation_tail": separation_tail(touched), "l2_sq_bound": next(l2s)}

    else:
        kernels = (flip_weight_kernel(spec),)

        def row(dist):
            return {"tv": tv_to_uniform(dist), "l2_sq": next(l2s)}

    start = WeightDistribution.delta(spec.n)
    dists = [start if exact else start.to_float()] * len(kernels)
    while True:
        yield row(*dists)
        dists = [evolve(dist, kernel, 1) for dist, kernel in zip(dists, kernels)]
