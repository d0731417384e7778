"""Brute-force ground truth: the index search and the structural identities.

The index search computes every power T, T**2, ... up to the first zero one or
the bound, and inspects each: circring._walk walks them in packed batches, many
powers per product, and computes none past the bound. min_nilpotent_index
searches one element; geom_sum_indices searches T(n, m) for a whole block of m,
packing each T straight from geom_sum's coefficient rule and walking each
distinct packed T once. No code is shared with the closed-form side beyond the
ring primitives themselves.
"""

from __future__ import annotations

from typing import Optional

from . import circring
from .circring import CirculantElem
from .errors import InvalidPrime
from .numutil import _check_int, is_prime


def min_nilpotent_index(a: CirculantElem, bound: int) -> Optional[int]:
    """Smallest k in [1, bound] with a**k = 0, by iterated multiplication."""
    _check_int("bound", bound, 1)
    return circring._first_zero_power(a, bound)


def geom_sum_indices(n: int, ms: range, q: Optional[int] = None) -> list[Optional[int]]:
    """[min_nilpotent_index(geom_sum(n, m, q), n) for m in ms]; q None is Z_m, q = m.

    The bound n is sound: a nilpotent n x n matrix has index at most n. n, q
    and the ends of the range ms are checked once. Each ring takes its layout
    once (the whole block over Z_q, every m over Z_m), and its distinct packed
    T(n, m) are walked once each: the packed int is the memo key.
    """
    _check_int("n", n, 1)
    if not ms:
        return []
    for m in ms[0], ms[-1]:
        _check_int("m", m, 2 if q is None else 1)
    if q is None:
        return [_ring_indices(n, m, (m,))[0] for m in ms]
    return _ring_indices(n, _check_int("q", q, 2), ms)


def _ring_indices(n: int, q: int, ms) -> list[Optional[int]]:
    """geom_sum_indices over one ring, order n over Z_q: one layout, one walk per distinct T."""
    layout = circring._layout(n, q, circring._LANE_BYTES)
    slot = 8 * layout[0]
    ones = ((1 << slot * n) - 1) // ((1 << slot) - 1)  # a 1 in each of the n slots
    memo, found = {}, []
    for m in ms:
        # T packed: every slot low, the first extra slots high; each is in [0, q).
        extra, high, low = circring._geom_rule(n, m, q)
        t = low * ones + (high - low) * (ones & ((1 << slot * extra) - 1))
        if t not in memo:
            memo[t] = circring._walk(t, n, q, layout, n)
        found.append(memo[t])
    return found


def frobenius_check(a: CirculantElem, b: CirculantElem, k: int) -> bool:
    """x -> x**(p**k) must be a ring homomorphism in characteristic p."""
    if not is_prime(a.modulus):
        raise InvalidPrime(f"modulus {a.modulus} is not prime")
    _check_int("k", k, 0)

    def frob(x: CirculantElem) -> CirculantElem:
        for _ in range(k):  # x**(p**k) in k steps: p**k may leave the integer domain
            x = circring.power(x, a.modulus)
        return x

    additive = frob(circring.add(a, b)) == circring.add(frob(a), frob(b))
    multiplicative = frob(circring.mul(a, b)) == circring.mul(frob(a), frob(b))
    return additive and multiplicative


def geometric_identity_check(n: int, m: int, q: int) -> bool:
    """(I + S + ... + S**(m-1)) * (I - S) must equal I - S**m."""
    t = circring.geom_sum(n, m, q)
    one = circring.identity(n, q)
    minus_s = circring.scalar_mul(q - 1, circring.shift_power(n, q, 1))
    lhs = circring.mul(t, circring.add(one, minus_s))
    minus_sm = circring.scalar_mul(q - 1, circring.shift_power(n, q, m))
    rhs = circring.add(one, minus_sm)
    return lhs == rhs
