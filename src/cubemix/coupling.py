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
distance of the walk, and a Monte Carlo simulation cross-checks it.  For
odd k and the binomial start (x2 uniform) the odd states lump: an odd
row's odd -> odd part (C^2 I + M^2)/4C^2, M the unnormalised k-flip move
and C = C(n, k), halves the odd binomial, so step l hands the even states
2^-l C(n, t)/2^n.  Even y only moves down, so the exact tail and E[T] step
the even states alone, E[T] with no solve.  The simulator steps only the
mismatch mask x1 xor x2, as an n-bit int: every move above reads and
changes the pair through that mask alone, and T is the first time it
empties.  A trial runs in two phases: independent lazy steps while y is
odd, then, once the parity flips, a loop of even moves with no parity test
(they lower y by 2a, so y stays even), which ends when the mask empties.
Each k-subset is random.sample's algorithm inlined, so it consumes the same
getrandbits stream as rng.sample(range(n), k) would; the even loop reads
each draw's bit off a table, which also rejects the draws sample rejects.

The verifiers at the bottom certify, in exact arithmetic, the hypergeometric
pick-probability inequalities that drive the coupling time analysis, and
report every counterexample they find, in NamedTuple records.  Both
certificates read their sums off one CDF sweep: a running pair of
hypergeometric CDFs stepped along y per (n, k) instead of a window of the
pmf summed per cell, so a cell costs at most two big-integer products.
The half-flip certificate takes both of its parts from the one sweep at
k = n/2.  The all-(n, k) sweep checks each claim on a run of y at once:
the run's minimum, and the cells one by one only when that fails.  Its
mode-threshold part visits only the y where the threshold and the ratio
test's boundary are far enough apart to disagree, found per (n, k).  The
all-(n, k) sweep builds each binomial row once and holds them all; the
half-flip sweep holds two (Pascal's rule up, its inverse down).
"""

from __future__ import annotations

import math
import os
import random
from collections import defaultdict
from contextlib import suppress
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, combinations, islice
from operator import add, attrgetter, sub
from typing import TYPE_CHECKING, NamedTuple

from .numerics import LN2_LO, binom_row, cmp_ratio_with_ln2, hypergeom_numerators, use_exact
from .numerics import _binom_terms, _float_profile

# the exact kernels are imported where they are used, so the verifiers load
# neither exactdist nor spectrum
if TYPE_CHECKING:
    from .exactdist import WeightKernel
    from .spectrum import WalkSpec

MARGINAL_CHECK_MAX_N = 8
# simulate_coupling lists its subset draws' bits up to here (about 1 MB)
_BIT_TABLE_MAX_N = 4096


class CoupledState(NamedTuple("CoupledState", [("n", int), ("x1", int), ("x2", int), ("y", int)])):
    """Positions of both chains as n-bit integers; y is computed on build."""

    __slots__ = ()

    def __new__(cls, n: int, x1: int, x2: int):
        if not (0 <= x1 < (1 << n)) or not (0 <= x2 < (1 << n)):
            raise ValueError("coupled state out of range")
        return super().__new__(cls, n, x1, x2, (x1 ^ x2).bit_count())

    def __getnewargs__(self):
        # pickle and copy rebuild through __new__, which takes no y
        return self[:3]

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


class _Bits(dict):
    """The simulator's bit table above _BIT_TABLE_MAX_N: 1 << j for j < n, else 0, made per read.

    A list of all n of them would hold n^2/16 bytes (225 MB at n = 60000).
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __missing__(self, j: int) -> int:
        return 1 << j if j < self.n else 0


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


class MarginalCheckReport(NamedTuple):
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


def _even_rows(n: int, k: int) -> list[tuple[int, dict[int, int]]]:
    """[(hold_y, {a: c_a for 1 <= a <= y/2}) for y = 0, 2, .., n] over 2C, C = C(n, k):
    even y moves to y - 2a with c_a = C(y,a) C(n-y,k-a), and holds otherwise."""
    C = math.comb(n, k)
    rows = []
    for y in range(0, n + 1, 2):
        moves = {a: c for a, c in hypergeom_numerators(n, y, k).items() if 1 <= a <= y // 2}
        rows.append((2 * C - sum(moves.values()), moves))
    return rows


def coupling_weight_kernel(spec: WalkSpec) -> WeightKernel:
    """Exact transition kernel of the mismatch count y, absorbing at 0.

    Even y: _even_rows, scaled from 2C to 4C^2.  Odd y: the chains step
    independently, so the row is row y of L^2 for L = flip_weight_kernel(spec)
    (over 2C, so L^2 is over 4C^2).
    """
    from .exactdist import WeightKernel, flip_weight_kernel

    _require_coupling_spec(spec, "coupling_weight_kernel")
    n, k = spec.n, spec.k
    C2 = 2 * math.comb(n, k)
    lazy = flip_weight_kernel(spec).rows
    even = _even_rows(n, k)
    rows: list[dict[int, int]] = []
    for y in range(n + 1):
        if y % 2 == 0:
            hold, moves = even[y // 2]
            row = {y: C2 * hold} | {y - 2 * a: C2 * c for a, c in moves.items()}
        else:
            row = {}
            for y1, c1 in lazy[y].items():
                for t, c2 in lazy[y1].items():
                    row[t] = row.get(t, 0) + c1 * c2
        rows.append(row)
    return WeightKernel(n, rows=rows, den=C2 * C2)


def coupling_tail_curve(spec: WalkSpec, lmax: int) -> list[Fraction] | list[float]:
    """[P(T > l) for l = 0..lmax], x2 started uniform (y0 binomial): _tail_curve's first lmax + 1 values."""
    if lmax < 0:
        raise ValueError(f"coupling_tail_curve requires lmax >= 0, got {lmax}")
    _require_coupling_spec(spec, "coupling_tail_curve")
    return list(islice(_tail_curve(spec), lmax + 1))


def _tail_curve(spec: WalkSpec):
    """Yield P(T > l) for l = 0, 1, ..., stepping once per value asked for.

    Fractions up to EXACT_BACKEND_MAX_N coordinates, from the even states
    over 2^n (2C)^l, C^l C(n, t) flowing in at step l; floats above it, from
    the full kernel, summing the surviving mass vec[1:], not 1 - vec[0], so
    a small tail keeps its relative accuracy, clamped at 1 as float TV is.
    """
    n, k = spec.n, spec.k
    if not use_exact(n):
        from .exactdist import WeightDistribution, evolve

        kernel = coupling_weight_kernel(spec)
        dist = WeightDistribution.from_floats(_float_profile(n, 2)[0])
        while True:
            yield min(float(dist.vec[1:].sum()), 1.0)
            dist = evolve(dist, kernel, 1)
    C, rows, inflow = math.comb(n, k), _even_rows(n, k), binom_row(n)[::2]
    # nums[j] / den is the mass at y = 2j after l steps; nums[0] has met
    nums, den, scale = list(inflow), 1 << n, 1
    while True:
        yield Fraction(den - nums[0], den)
        scale, den = scale * C, den * 2 * C
        new = [hold * v + scale * b for (hold, _), v, b in zip(rows, nums, inflow)]
        for j, ((_, moves), v) in enumerate(zip(rows, nums)):
            for a, c in moves.items():
                new[j - a] += c * v
        nums = new


def expected_coupling_time(spec: WalkSpec, exact: bool | None = None):
    """E[T] from the absorbing y-chain, y0 binomial; exact by default up to EXACT_BACKEND_MAX_N.

    T spends one step in expectation at odd y (their mass halves each step)
    and enters the even states in the binomial shape it starts them in.  The
    even block is triangular, so the time h(y) from even y follows forward
    from h(0) = 0: h(y) = (2C + sum_a c_a h(y - 2a)) / (2C - hold_y) over
    _even_rows, and E[T] = 1 + 2 sum_{even y} C(n, y)/2^n h(y); math.inf if
    some even y > 0 holds for sure (k > n/2, y > 2(n - k)).  Exact h(y) are
    integers over one denominator, the product of the 2C - hold_y.
    """
    _require_coupling_spec(spec, "expected_coupling_time")
    n, k = spec.n, spec.k
    C2 = 2 * math.comb(n, k)
    rows = _even_rows(n, k)
    if any(hold == C2 for hold, _ in rows[1:]):
        return math.inf
    if not (use_exact(n) if exact is None else exact):
        h = [0.0]
        for j, (hold, moves) in enumerate(rows[1:], 1):
            g = C2 - hold
            h.append(C2 / g + sum(c / g * h[j - a] for a, c in moves.items()))
        # int / int (a float times C(n, y) overflows at large n), streamed: no whole row
        evens = islice(_binom_terms(n, 2), 0, None, 2)
        return 1 + 2 * sum(c / (1 << n) * v for c, v in zip(evens, h))
    binoms = binom_row(n)
    # h[j] / den is h(2j); as den grows by each 2C - hold_y, the running sum
    # and the h that later rows still read (the last k - 1) rescale
    h, den, total = [0], 1, 0
    for j, (hold, moves) in enumerate(rows[1:], 1):
        g = C2 - hold
        num = C2 * den + sum(c * h[j - a] for a, c in moves.items())
        den *= g
        for i in range(max(0, j - k + 1), j):
            h[i] *= g
        total = total * g + binoms[2 * j] * num
        h.append(num)
    return Fraction((den << n) + 2 * total, den << n)


class CouplingTailReport(NamedTuple):
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
    platforms and independent across trials, and any split of the trials
    sums to the same tally.  The trials run in contiguous chunks, one per
    worker that _worker_count allows; _split_tally runs all but the first
    in forked workers.
    """
    _require_coupling_spec(spec, "simulate_coupling")
    if trials < 1 or max_steps < 0:
        raise ValueError(
            f"simulate_coupling needs trials >= 1, max_steps >= 0, got trials={trials}, max_steps={max_steps}"
        )
    n, k = spec.n, spec.k
    # ends[T] counts the trials ending at T; T = max_steps + 1 if censored.
    # Allocated before any fork, so a tally too large fails with no worker.
    ends = [0] * (max_steps + 2)
    workers = _worker_count(trials, max_steps)
    # _tally_ends seeds each trial through hashlib: loaded before the fork,
    # the workers inherit OpenSSL's _hashlib instead of each loading it
    # (about 3.5 ms of CPU a process)
    import hashlib  # noqa: F401
    chunks = [range(trials * i // workers, trials * (i + 1) // workers) for i in range(workers)]
    for tally in _split_tally(partial(_tally_ends, n, k, seed, max_steps), chunks):
        for t, count in tally.items():
            ends[t] += count
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


def _tally_ends(n: int, k: int, seed: int, max_steps: int, trials) -> dict[int, int]:
    """{T: trials of the iterable trials ending at T}, T = max_steps + 1 if censored.

    The getrandbits calls are coupled_step's, in its order, in two phases.
    While y is odd, each moving chain's subset (_draw_mask) is XORed into m
    until the parity flips.  From then on y is even: each move clears the
    bits _repaired_bits would, in m itself, and y is kept as a running
    count.  The even loop draws subsets through tables: bit[j] is 1 << j for
    j < n and 0 for the j the set branch rejects, so one index and one OR
    both reject a draw or a repeat and add its bit; the pool branch shrinks
    a copy of the index pool, reads each pick's (size, width) from a list
    and its bit from the table.  Above _BIT_TABLE_MAX_N the bits are made
    per read instead of listed.
    """
    from hashlib import sha256

    pool = _sample_pool(n, k)
    # the even loop's draw tables; bit[j] = 0 for j >= n grows no mask
    nbits = n.bit_length()
    if n <= _BIT_TABLE_MAX_N:
        bit = [1 << j for j in range(n)] + [0] * ((1 << nbits) - n)
    else:
        bit = _Bits(n)
    widths = [(size, size.bit_length()) for size in range(n, n - k, -1)]
    picks = range(k)
    censored = max_steps + 1
    ends = defaultdict(int)
    # one generator, reseeded per trial: the state random.Random(x) would build
    rng = random.Random()
    reseed, getrandbits = rng.seed, rng.getrandbits
    for trial in trials:
        digest = sha256(f"cubemix-couple:{seed}:{trial}".encode()).digest()
        reseed(int.from_bytes(digest, "big"))
        m = getrandbits(n)
        y = m.bit_count()
        t = 0
        if y & 1:
            # independent lazy steps, each moving chain's subset landing in
            # m, until the parity flips (k is odd)
            for t in range(1, censored):
                if not getrandbits(1):
                    m ^= _draw_mask(getrandbits, n, k, pool)
                if not getrandbits(1):
                    m ^= _draw_mask(getrandbits, n, k, pool)
                y = m.bit_count()
                if not y & 1:
                    break
            else:
                ends[censored] += 1
                continue
        if y:
            # even moves lower y by 2a, so it stays even until it reaches 0
            for t in range(t + 1, censored):
                if getrandbits(1):
                    continue
                smask = 0
                if pool is None:
                    for _ in picks:
                        while (grown := smask | bit[getrandbits(nbits)]) == smask:
                            pass
                        smask = grown
                else:
                    left = pool[:]
                    for size, width in widths:
                        j = getrandbits(width)
                        while j >= size:
                            j = getrandbits(width)
                        smask |= bit[left[j]]
                        left[j] = left[size - 1]
                # _repaired_bits on m itself: with S & m empty, or 2a > y,
                # both chains flip S and m stays; else m drops S & m and,
                # for each of its bits, the next free bit above (cyclically)
                inter = smask & m
                if inter and 2 * (a := inter.bit_count()) <= y:
                    m ^= inter
                    while inter:
                        lsb = inter & -inter
                        above = m & -(lsb << 1)
                        m ^= (above & -above) or (m & -m)
                        inter ^= lsb
                    y -= 2 * a
                    if not y:
                        break
            else:
                ends[censored] += 1
                continue
        ends[t] += 1
    return ends


# Forking a worker, reading a short tally down its pipe and reaping it took
# 1.3-1.8 ms of wall time and 1.5-1.9 ms of CPU (parent and child together)
# on a 2-vCPU Linux host with Python 3.11, numpy loaded or not (200 forks).
# A (trial, step) cell of the simulator costs 0.19 us (n = 8, k = 3) to
# 0.66 us (n = 100, k = 5) there, so a chunk of at least this many cells
# runs 9-33 ms, 5-20 times its fork.
_FORK_MIN_WORK = 50_000


def _worker_count(trials: int, max_steps: int) -> int:
    """How many chunks simulate_coupling splits its trials into: one per usable CPU,
    while each chunk keeps at least _FORK_MIN_WORK of the trials * (max_steps + 1)
    cells, and at least one trial.

    One, and no fork, without os.fork or outside Linux (threads are counted
    in /proc/self/task), and in a process with a second thread, such as
    numpy's BLAS pool: a fork copies only the calling thread, and any lock
    another thread holds stays held in the child.
    """
    try:
        if not hasattr(os, "fork") or len(os.listdir("/proc/self/task")) > 1:
            return 1
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1
    return max(1, min(cpus, trials, trials * (max_steps + 1) // _FORK_MIN_WORK))


def _split_tally(tally, chunks: list[range]) -> list[dict[int, int]]:
    """[tally(chunk) for chunk in chunks]: the first chunk in this process, each
    other in a worker forked for it (_run_worker), read back down a pipe.

    Every worker is reaped before this returns or raises: if this process's
    own chunk raises (KeyboardInterrupt too), the workers left are killed
    first.  A worker that does not exit 0 raises ChildProcessError.
    """
    import signal

    parent = os.getpid()
    workers = []  # (pid, pipe's read end, chunk), in chunk order, until reaped
    try:
        for chunk in chunks[1:]:
            rfd, wfd = os.pipe()
            reader = open(rfd, "rb")
            # SIGINT waits until the new worker is listed for the cleanup
            # below.  The worker keeps it blocked: on SIGINT this process
            # raises KeyboardInterrupt and kills it
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                pid = os.fork()
                if not pid:
                    _run_worker(wfd, tally, chunk, parent)
                workers.append((pid, reader, chunk))
            except BaseException:
                reader.close()
                raise
            finally:
                os.close(wfd)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        tallies = [tally(chunks[0])]
        while workers:
            pid, reader, chunk = workers[0]
            text = reader.read()
            status = os.waitpid(pid, 0)[1]
            workers.pop(0)
            reader.close()
            if status:
                code = os.waitstatus_to_exitcode(status)
                ended = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise ChildProcessError(
                    f"simulate_coupling: the worker for trials {chunk.start}..{chunk.stop - 1} failed ({ended})"
                )
            values = map(int, text.split())
            tallies.append(dict(zip(values, values)))
        return tallies
    finally:
        for pid, reader, _ in workers:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
            reader.close()


def _run_worker(wfd: int, tally, chunk: range, parent: int):
    """A forked worker's whole life: tally(chunk) written to wfd as "T count" pairs.

    It leaves through os._exit, so the stdio buffers it inherited are not
    flushed twice: 0 after the full write, 1 on any exception, and 1 at the
    first trial after parent has gone (a killed parent leaves no worker).
    """
    code = 1
    try:
        ends = tally(_while_parent(chunk, parent))
        with open(wfd, "wb") as out:
            out.write(" ".join(f"{t} {count}" for t, count in ends.items()).encode())
        code = 0
    finally:
        os._exit(code)


def _while_parent(trials: range, parent: int):
    """The trials, one at a time, while parent is still this process's parent."""
    for trial in trials:
        if os.getppid() != parent:
            raise ChildProcessError("simulate_coupling: the parent process has gone")
        yield trial


# ---------------------------------------------------------------------------
# pick-probability certificates


class HalfPickRow(NamedTuple):
    part: int
    y: int
    prob: Fraction
    ok: bool


class HalfPickCertificate(NamedTuple):
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


def _mode_bad_ranges(n: int, k: int, tnum0: int):
    """Yield (y, start, stop) for each y = 1..n where [start, stop) is nonempty:
    the i whose ratio test contradicts the threshold t = (tnum0 + y(k+1))/(n+1).

    With X = (y+1)(k+1), P(a = i+1) - P(a = i) has the sign of
    X - (i+1)(n+2), so the pmf rises at i <= r = X // (n+2) - 1 and falls
    above, with a tie (no rise) at i = r when n+2 divides X.  With
    ceil(t) <= r the bad i are strict rises at ceil(t) <= i, otherwise falls
    at r < i <= floor(t) - 1, either cut to the support
    max(0, k-n+y) <= i < min(y, k).  Falls need floor(t) > X // (n+2), so
    t > X/(n+2); rises need ceil(t) <= X // (n+2) - 1, so t <= X/(n+2) - 1.
    Since (n+1)(n+2)(t - X/(n+2)) = y(k+1) - B with
    B = (k+1)(n+1) - tnum0 (n+2), only the y with y(k+1) > B or
    y(k+1) <= B - (n+1)(n+2) are visited.  At the nominal threshold,
    tnum0 = k - n and 1 <= k <= n/2, neither holds for any y <= n, so the
    sweep's part 1 visits no cell.
    """
    n1, n2, k1 = n + 1, n + 2, k + 1
    B = k1 * n1 - tnum0 * n2
    for y in chain(range(1, min((B - n1 * n2) // k1, n) + 1), range(max(B // k1 + 1, 1), n1)):
        fq, fr = divmod(tnum0 + y * k1, n1)
        xq, xr = divmod(y * k1 + k1, n2)
        if fq > xq:
            # falls at xq = r + 1 <= i < floor(t)
            start, stop = xq, fq
        else:
            # rises at ceil(t) <= i <= r, the tie at r excluded
            start, stop = fq + (fr > 0), xq - (xr == 0)
        start, stop = max(start, y - n + k, 0), min(stop, y, k)
        if start < stop:
            yield y, start, stop


def verify_half_flip_pick_bounds(n: int) -> HalfPickCertificate:
    if n % 4 != 2:
        raise ValueError(f"verify_half_flip_pick_bounds requires n = 2 mod 4, got n={n}")
    h = n // 2
    # step y reads rows y and n-y-1 only, so the sweep holds two rows: 0..n-1
    # by Pascal's rule, and n-1..0 by its inverse r'[j] = r[j] - r'[j-1]
    up = accumulate(range(n - 1), lambda r, _: (1, *map(add, r, r[1:]), 1), initial=(1,))
    down = accumulate(
        range(n - 1), lambda r, _: tuple(accumulate(r[1:-1], lambda a, c: c - a, initial=1)), initial=binom_row(n - 1)
    )
    # part 1's window starts at y - h, below which C(n-y, h-i) = 0, so it is
    # the whole CDF ups[y]; part 2's starts at ceil(y/4) = ceil(yh/2n): sums[y]
    ups, sums = _pick_sums(up, down, n, h)
    den = 2 * math.comb(n, h)
    quarter = Fraction(1, 4)
    rows = []
    for y in range(n + 1):
        if y >= h:
            rows.append(HalfPickRow(1, y, p := Fraction(ups[y], den), p >= quarter))
        if 1 <= y <= h:
            rows.append(HalfPickRow(2, y, p := Fraction(sums[y], den), p >= quarter))

    def lowest(part, even=False):
        # (prob, y) of the part's first minimum, over its even y only if asked
        cells = (r for r in rows if r.part == part and not (even and r.y % 2))
        low = min(cells, key=attrgetter("prob"), default=None)
        return None if low is None else (low.prob, low.y)

    min2e = lowest(2, even=True)
    viol = tuple(r for r in rows if not r.ok)
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
        min_part1=lowest(1),
        min_part2=lowest(2),
        min_part2_even=min2e,
        violations=viol,
        notes=tuple(notes),
    )


class PickPartReport(NamedTuple):
    part: int
    checked: int
    violations: int
    violation_samples: tuple
    min_value: Fraction | None
    min_witness: tuple | None
    value_kind: str
    note: str = ""


class PickBoundsCertificate(NamedTuple):
    n_max: int
    parts: tuple[int, ...]
    reports: tuple[PickPartReport, ...]
    notes: tuple[str, ...]

    @property
    def has_violations(self) -> bool:
        return any(r.violations for r in self.reports)


_SAMPLE_CAP = 40


def _pick_sums(ascending, descending, n: int, k: int) -> tuple[list[int], list[int]]:
    """(ups, sums) over y = 0..n: ups[y] = G(y, y//2) and sums[y] = s(y).

    G(y, j) = sum_{i <= j} C(y,i) C(n-y,k-i) is the hypergeometric CDF and
    s(y) the sum over ceil(yk/2n) <= i <= y//2; ascending yields binom_row(m)
    for m = 0..n-1 and descending for m = n-1..0 (step y reads rows y and
    n-y-1 only), and 1 <= k <= n/2.  s(y) = G(y, y//2) - G(y, j(y)) for
    j(y) = ceil(yk/2n) - 1, and both terms are stepped in y, not summed:
    G(y+1, j) = G(y, j) - C(y,j) C(n-y-1,k-j-1) and
    G(y, j+1) = G(y, j) + C(y,j+1) C(n-y,k-j-1).  With k <= n/2 each limit
    rises by at most 1 per y, and a rise folds both steps into one by
    Pascal's rule: G(y+1, j+1) = G(y, j) + C(y,j+1) C(n-y-1,k-j-1).  So each
    y costs at most two big-integer products, one per limit; a factor off the
    table (j < 0, or k-j-1 outside 0..n-y-1) is 0 and its step is skipped.
    """
    up, low = math.comb(n, k), 0  # G(0, 0) and G(0, -1)
    j, yk, edge = -1, 0, 0  # edge = 2n(j + 1): j rises once yk passes it
    ups, sums = [up], [up]
    for y, ry, rest in zip(range(n), ascending, descending):
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
        ups.append(up)
        sums.append(up - low)
    return ups, sums


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
    _mode_bad_ranges yields each (n, k)'s nonempty ranges along y, and
    visits only the y where the threshold and the ratio-test boundary
    (y + 1)(k + 1)/(n + 2) lie far enough apart for a range to be nonempty:
    at the nominal threshold that is no y, so the part-1 cells are settled
    by two integer bounds per (n, k), with no test of their own.

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

    rows = [binom_row(0), binom_row(1)]
    for n in range(2, n_max + 1):
        rows.append(binom_row(n))
        if want_mode:
            checked[1] += n // 2 * n
        for k in range(1, n // 2 + 1):
            if want_mode:
                for y, start, stop in _mode_bad_ranges(n, k, k - n):
                    bad = range(start, stop)
                    nviol[1] += len(bad)
                    samples[1] += [(n, k, y, i) for i in bad[: _SAMPLE_CAP - len(samples[1])]]
            if not want_sum:
                continue
            C = rows[n][k]
            _, sums = _pick_sums(rows, rows[-2::-1], n, k)
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
