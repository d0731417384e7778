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

from . import circring
from .circring import CirculantElem
from .numutil import _check_int, _check_prime


def min_nilpotent_index(a: CirculantElem, bound: int) -> int | None:
    """Smallest k in [1, bound] with a**k = 0, by iterated multiplication."""
    _check_int("bound", bound, 1)
    return circring._first_zero_power(a, bound)


def geom_sum_indices(n: int, ms: range, q: int | None = None) -> list[int | None]:
    """[min_nilpotent_index(geom_sum(n, m, q), n) for m in ms]; q None is Z_m, q = m.

    Each distinct T of a ring takes the ceil(log2 n) squarings of T**(2**k),
    2**k >= n, once; only the T with T**(2**k) = 0 are walked, to their first
    zero power or n, and every other cell reads None (see circring._block_walk).

    The bound n is sound over a field Z_p, where a nilpotent n x n matrix has
    index at most n, but not for every element over Z_m: CirculantElem(1, 4,
    (2,)) has index 2 over Z_4. It is sound for T(n, m) over Z_m, by the index
    that nilpotence.zm_index_bracket proves: 1 at n = 1 and 2 where 1 < n and
    n | m; on the one other nilpotent class, n = q**j and m = q**e with e < j, at
    most e*k, k = ceil(q**j / (q**e - 1)), and e*k <= q**j = n:
    - e = 1: k <= q**j, as q - 1 >= 1.
    - q = 2, e = 2: 2k <= 2(2**j + 2)/3 <= 2**j, as j >= 3.
    - otherwise q**e >= 7e/3: it holds at q = 2, e = 3 and at q >= 3, e = 2,
      and e -> e + 1 multiplies the left side by q, the right by (e + 1)/e < q.
      Write X = q**e; q**j >= q*X >= 2X, so e <= e*q**j/(2X), and
      e*k < e*q**j/(X - 1) + e <= e*q**j*(3X - 1)/(2X(X - 1))
          <= q**j * 3(3X - 1)/(14(X - 1)) <= q**j, as X >= 3.
    n, q and the ends of the ascending range ms are checked once.
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
