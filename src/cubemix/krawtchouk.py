"""Krawtchouk polynomials in the normalization used by flip-walk spectra.

K_j(x) here denotes the degree-j polynomial with K_j(0) = 1:

    K_j(x) = sum_a (-1)^a C(j,a) C(n-j, x-a) / C(n,x)

The integer table kappa[j][w] = sum_a (-1)^a C(w,a) C(n-w, j-a) =
C(n,j) K_j(w), the z^j coefficients of (1-z)^w (1+z)^(n-w), drives the
character inversion.  It is built from spectrum.kraw_row, the package's one
Krawtchouk recurrence, by self-duality K_j(w) = K_w(j): row j is
C(n,j) K_w(j) over w, kraw_row(n, j).  The test suite checks self-duality
and the table against the defining sum (kraw_eval), the generating function
and the three-term recurrence in j; kraw_eval and the closed form kraw_half
stay as references.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _check_point(n: int, j: int, x: int) -> None:
    if n < 0 or not (0 <= j <= n) or not (0 <= x <= n):
        raise ValueError(f"krawtchouk domain error: n={n}, j={j}, x={x}")


def kraw_eval(n: int, j: int, x: int) -> Fraction:
    """K_j(x) by the defining alternating sum, exact, one math.comb per factor."""
    _check_point(n, j, x)
    num = 0
    for a in range(max(0, x - (n - j)), min(j, x) + 1):
        term = math.comb(j, a) * math.comb(n - j, x - a)
        num = num - term if a & 1 else num + term
    return Fraction(num, math.comb(n, x))


def kraw_integer_table(n: int) -> list[list[int]]:
    """kappa[j][w] = C(n,j) K_j(w) for 0 <= j, w <= n: row j is spectrum.kraw_row(n, j)."""
    from .spectrum import kraw_row

    if n < 0:
        raise ValueError(f"kraw_integer_table requires n >= 0, got {n}")
    return [kraw_row(n, j) for j in range(n + 1)]


def kraw_half(n: int, j: int) -> Fraction:
    """K_j(n/2) in closed form: 0 for odd j, (-1)^i C(n/2,i)/C(n,2i) for j=2i."""
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"kraw_half requires even n >= 2, got n={n}")
    if not (0 <= j <= n):
        raise ValueError(f"kraw_half domain error: j={j} for n={n}")
    if j % 2 == 1:
        return Fraction(0)
    i = j // 2
    val = Fraction(math.comb(n // 2, i), math.comb(n, 2 * i))
    return -val if i & 1 else val


def kraw_symmetry_holds(n: int, y: int, i: int) -> bool:
    """Exact check of the reflection identity used to halve pick-probability

    sums at the half point: C(y,i) C(n-y, n/2-i) = C(y, y-i) C(n-y, n/2-y+i).
    Valid on the stated domain; raises outside it.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"kraw_symmetry_holds requires even n, got n={n}")
    h = n // 2
    if not (0 <= y <= n) or not (y - h <= i <= y / 2):
        raise ValueError(f"kraw_symmetry_holds domain error: n={n}, y={y}, i={i}")
    lhs = math.comb(y, i) * math.comb(n - y, h - i) if 0 <= i <= y and 0 <= h - i <= n - y else 0
    jr = y - i
    rhs = (
        math.comb(y, jr) * math.comb(n - y, h - y + i)
        if 0 <= jr <= y and 0 <= h - y + i <= n - y
        else 0
    )
    return lhs == rhs


def verify_symmetry_sweep(n: int) -> dict:
    """Run kraw_symmetry_holds over its whole domain for one n.

    Returns a small certificate dict: every (y, i) with 0 <= y <= n and
    max(0, y - n/2) <= i <= y/2 is checked and failures are listed
    explicitly.  The identity halving the pick-probability sums depends on
    exactly this domain.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError(f"verify_symmetry_sweep requires even n, got n={n}")
    h = n // 2
    checked = 0
    violations = []
    for y in range(n + 1):
        for i in range(max(0, y - h), y // 2 + 1):
            checked += 1
            if not kraw_symmetry_holds(n, y, i):
                violations.append((y, i))
    return {
        "n": n,
        "checked": checked,
        "violations": tuple(violations),
        "ok": not violations,
    }
