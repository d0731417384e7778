"""Integer utilities: primality, valuations, factorization, checked powers.

All arithmetic is exact. The supported input range is [0, 2**64); results that
would leave it raise Overflow rather than ever returning a wrong value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInput, InvalidPrime, Overflow

# Supported integer range. Python ints are unbounded, so this is a contract
# with callers, not a machine limit; checked powers refuse to leave it.
INT_LIMIT = 2**64 - 1

# Witnesses making Miller-Rabin deterministic for every n < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class Valuation:
    """x split as prime**exponent * cofactor with the prime not dividing cofactor."""

    exponent: int
    cofactor: int


@dataclass(frozen=True)
class Factorization:
    """Complete factorization as (prime, exponent) pairs, primes increasing."""

    pairs: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2**64."""
    if n > INT_LIMIT:
        raise Overflow(f"{n} is outside the supported range")
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def p_adic_valuation(x: int, p: int) -> Valuation:
    """Largest e with p**e | x, plus the p-free cofactor x / p**e."""
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    if x < 1:
        raise InvalidInput(f"valuation needs x >= 1, got {x}")
    if x > INT_LIMIT:
        raise Overflow(f"{x} is outside the supported range")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return Valuation(e, x)


def factorize(q: int) -> Factorization:
    """Prime factorization by trial division; inputs are desk-scale."""
    if q < 2:
        raise InvalidInput(f"factorize needs q >= 2, got {q}")
    if q > INT_LIMIT:
        raise Overflow(f"{q} is outside the supported range")
    pairs = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            e = 0
            while q % d == 0:
                q //= d
                e += 1
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if q > 1:
        pairs.append((q, 1))
    return Factorization(tuple(pairs))


def ceil_div(a: int, b: int) -> int:
    """Ceiling of a/b for positive integers."""
    if b < 1:
        raise InvalidInput(f"ceil_div needs b >= 1, got {b}")
    if a < 1:
        raise InvalidInput(f"ceil_div needs a >= 1, got {a}")
    return -(-a // b)


def pow_checked(base: int, exp: int) -> int:
    """base**exp, or Overflow if the exact value leaves the supported range."""
    if base < 0 or exp < 0:
        raise InvalidInput("pow_checked needs non-negative base and exponent")
    if base > INT_LIMIT:
        raise Overflow(f"{base} is outside the supported range")
    if base > 1 and exp * math.log2(base) > 66:
        # log2 screen is conservative either way; the exact check below settles it.
        raise Overflow(f"{base}**{exp} exceeds the supported range")
    result = base**exp
    if result > INT_LIMIT:
        raise Overflow(f"{base}**{exp} exceeds the supported range")
    return result
