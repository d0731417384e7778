"""Integer utilities: domain and budget checks, primality, valuations, factorization, powers.

All arithmetic is exact. The supported input range is [0, 2**64); results that
would leave it raise Overflow rather than ever returning a wrong value.
"""

from __future__ import annotations

import collections
import itertools
import math

from .errors import BudgetExceeded, InvalidInput, InvalidPrime, Overflow

# Supported integer range. Python ints are unbounded, so this is a contract
# with callers, not a machine limit; checked powers refuse to leave it.
INT_LIMIT = 2**64 - 1

# Witnesses making Miller-Rabin deterministic for every n < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# factorize divides by d up to this bound, then hands the cofactor to rho.
_TRIAL_DIVISION_MAX = 2**10
# Steps of the rho walk whose differences share one gcd.
_GCD_BATCH = 128


def _check_int(name: str, value: int, lo: int) -> int:
    """value, if it lies in [lo, INT_LIMIT]; the one range check of the library."""
    if value < lo:
        raise InvalidInput(f"{name} must be >= {lo}, got {value}")
    if value > INT_LIMIT:
        raise Overflow(f"{name}={value} is above the limit 2**64 - 1")
    return value


def _check_prime(p: int) -> int:
    """p, if it is a prime in [2, INT_LIMIT]; the one prime check of the library."""
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    return p


def check_budget(what: str, work: int, budget: int) -> None:
    """Raise BudgetExceeded if work exceeds budget, before any of it is done."""
    if work > budget:
        raise BudgetExceeded(f"{what} work {work} exceeds budget {budget}")


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for all n < 2**64."""
    if n > INT_LIMIT:
        raise Overflow(f"{n} is outside the supported range")
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    s, d = _valuation(n - 1, 2)
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


def p_adic_valuation(x: int, p: int) -> tuple[int, int]:
    """(e, x / p**e) for the largest e with p**e | x, like divmod."""
    _check_prime(p)
    return _valuation(_check_int("x", x, 1), p)


def _valuation(x: int, p: int) -> tuple[int, int]:
    """p_adic_valuation without its checks, for x >= 1 and p >= 2 known valid."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e, x


def factorize(q: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs, primes increasing.

    Trial division by d <= 2**10; the cofactor left after it, if composite,
    is split by Pollard's rho with Brent's cycle search, and each part is
    tested by is_prime. Any q < 2**20 is settled by trial division alone.
    """
    _check_int("q", q, 2)
    pairs = []
    d = 2
    while d * d <= q and d <= _TRIAL_DIVISION_MAX:
        if q % d == 0:
            e, q = _valuation(q, d)
            pairs.append((d, e))
        d += 1 if d == 2 else 2
    if d * d > q:  # q is 1 or a prime
        if q > 1:
            pairs.append((q, 1))
        return tuple(pairs)
    # q has no prime factor below d, so every prime found from here on is larger
    # than those in pairs.
    found = collections.Counter()
    work = [q]
    while work:
        x = work.pop()
        if is_prime(x):
            found[x] += 1
        else:
            f = _rho_factor(x)
            work += (f, x // f)
    return tuple(pairs) + tuple(sorted(found.items()))


def _rho_factor(n: int) -> int:
    """A proper divisor of the odd composite n with no prime factor below 2**10.

    Pollard's rho (BIT 15 (1975) 331-334) with Brent's cycle search and batched
    gcd (BIT 20 (1980) 176-184): the walk y -> y*y + c mod n starts at 2, the
    differences of _GCD_BATCH steps are multiplied into one gcd, and a batch
    whose gcd overshoots to n is walked again one step at a time. A walk that
    still ends at n is retried with the next c = 1, 2, ...
    """
    for c in itertools.count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_GCD_BATCH, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = math.gcd(prod, n)
                k += _GCD_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def pow_checked(base: int, exp: int) -> int:
    """base**exp, or Overflow if the exact value leaves the supported range."""
    _check_int("base", base, 0)
    _check_int("exp", exp, 0)
    if base > 1 and exp >= 64:  # 2**64 is out of range; exp < 64 keeps base**exp to 4032 bits
        raise Overflow(f"{base}**{exp} exceeds the supported range")
    result = base**exp
    if result > INT_LIMIT:
        raise Overflow(f"{base}**{exp} exceeds the supported range")
    return result
