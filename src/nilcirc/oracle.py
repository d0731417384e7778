"""Brute-force ground truth: the index search and the structural identities.

The index search computes the powers T, T**2, ... up to the first zero one or
the bound, and inspects each: circring walks them packed, one product per power,
and computes none past the bound. min_nilpotent_index searches one element.
geom_sum_indices searches T(n, m) for a whole block of m by circring's block
walk, which first takes the ceil(log2 n) squarings of T**(2**k), 2**k >= n: a
nonzero one answers "not nilpotent" by ring arithmetic alone, and every index
still comes from the walk. No code is shared with the closed-form side beyond
the ring primitives themselves.
"""

from __future__ import annotations

from typing import Optional

from . import circring
from .circring import CirculantElem
from .numutil import _check_int, _check_prime


def min_nilpotent_index(a: CirculantElem, bound: int) -> Optional[int]:
    """Smallest k in [1, bound] with a**k = 0, by iterated multiplication."""
    _check_int("bound", bound, 1)
    return circring._first_zero_power(a, bound)


def geom_sum_indices(n: int, ms: range, q: Optional[int] = None) -> list[Optional[int]]:
    """[min_nilpotent_index(geom_sum(n, m, q), n) for m in ms]; q None is Z_m, q = m.

    Each distinct T of a ring takes the ceil(log2 n) squarings of T**(2**k),
    2**k >= n, once; only the T with T**(2**k) = 0 are walked, to their first
    zero power or n, and every other cell reads None (see circring._block_walk).

    The bound n is sound over a field Z_p, where a nilpotent n x n matrix has
    index at most n, but not over every Z_m: CirculantElem(1, 4, (2,)) has index
    2 over Z_4. Over Z_(p**e) the index is at most e*n, below n*m.bit_length(),
    and a walk of T(n, m) to that bound finds no index above n at n <= 32,
    m <= 96 (tests); a miss would read None and exit 1, not a wrong answer. n, q
    and the ends of the ascending range ms are checked once.
    """
    _check_int("n", n, 1)
    if not ms:
        return []
    for m in ms[0], ms[-1]:
        _check_int("m", m, 2 if q is None else 1)
    return circring._block_walk(n, ms, q if q is None else _check_int("q", q, 2))


def frobenius_check(a: CirculantElem, b: CirculantElem, k: int) -> bool:
    """x -> x**(p**k) must be a ring homomorphism in characteristic p."""
    _check_prime(a.modulus)
    _check_int("k", k, 0)

    def frob(x: CirculantElem) -> CirculantElem:
        for _ in range(k):  # x**(p**k) in k steps: p**k may leave the integer domain
            x = circring.power(x, a.modulus)
        return x

    fa, fb = frob(a), frob(b)  # each image once: at most four maps per check
    return (frob(circring.add(a, b)) == circring.add(fa, fb)
            and frob(circring.mul(a, b)) == circring.mul(fa, fb))


def geometric_identity_check(n: int, m: int, q: int) -> bool:
    """(I + S + ... + S**(m-1)) * (I - S) must equal I - S**m."""

    def one_minus_shift(k: int) -> CirculantElem:  # I - S**k
        minus = circring.scalar_mul(q - 1, circring.shift_power(n, q, k))
        return circring.add(circring.identity(n, q), minus)

    return circring.mul(circring.geom_sum(n, m, q), one_minus_shift(1)) == one_minus_shift(m)
