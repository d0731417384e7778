"""Nilpotence decisions for the step-sum circulant T = I + S + ... + S**(m-1).

Over Z_p the decision is exact: write n = p**a * n_star and m = p**b * m_star
with the starred parts coprime to p; T is nilpotent iff b >= 1 and
n_star | m_star, and then its index is ceil(p**a / (p**b - 1)). Over Z_m two
independent routes are provided: Corollary 1's clause from the primes of n,
for a row block at once (_row_verdicts, which also holds Theorem 1's rule for
a block over Z_p) or one cell (decide_zm), and the reduction to decide_zp at
every prime factor of m. The index over Z_m (zm_index_bracket) is exact where
n | m, and bracketed by Theorem 1 on the one other nilpotent class.
"""

from __future__ import annotations

import collections
import enum

from . import circring
from .circring import CirculantElem
from .errors import InvalidInput
from .numutil import _check_int, _valuation, check_budget, factorize, p_adic_valuation, pow_checked

# Work budget of the identity checks, in ring coefficients: the order n of the
# witness's T at a point, and trials * n * p.bit_length() over a random run of
# `nilcirc identities`, whose trials raise elements of order n to the power p
# (about log2(p) multiplies per power). A point run needs p <= n, so p adds at
# most 12 bits there: n = 2**12, p = 2 takes a fraction of a second and the
# point n = m = p = 4093 about 5 s on a 2-CPU machine.
IDENTITIES_BUDGET = 2**12

# Work budget of `nilcirc scan --verify`, in coefficients: the number of m
# values times the sum of n**2 over n <= n_max, the oracle's worst case: a
# nilpotent cell of order n is walked through up to n powers of n coefficients,
# a cell that is not nilpotent takes the ceil(log2 n) squarings of T**(2**k), 2**k >= n.
# 4096 x 4096 counts about 9.4e13; 128 x 128 over Z_2 about 9.1e7, and its whole
# `scan --verify --format csv --jobs 1` took 0.29 s (median of 7, 2 CPUs, Python 3.11).
VERIFY_BUDGET = 2**27


class ZmClause(enum.Enum):
    SAME_PRIME_POWERS = "same_prime_powers"
    MULTI_PRIME_DIVIDES = "multi_prime_divides"
    NOT_NILPOTENT = "not_nilpotent"
    __hash__ = object.__hash__  # members are singletons; Enum's hash of the name is a Python call


class ZpVerdict(collections.namedtuple(
        "ZpVerdict", "n m p a b n_star m_star nilpotent index", defaults=(None,))):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        # The fields are the documented JSON keys, in their documented order.
        return self._asdict()


class ZmVerdict(collections.namedtuple(
        "ZmVerdict", "n m nilpotent clause per_prime", defaults=((),))):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        # _asdict does not recurse, and json would write a named tuple as a list.
        return {**self._asdict(), "clause": self.clause.value,
                "per_prime": [v.to_json_dict() for v in self.per_prime]}


# ---------------------------------------------------------------------------
# Z_p


def index_expansion(a: int, b: int, p: int) -> int:
    """ceil(p**a / (p**b - 1)) as p**r * (1 + p**b + ... + p**(b*(q-1))) + 1, a = b*q + r.

    Only defined for a >= b (one full division step); below that T itself is
    already zero and the expansion is bypassed.
    """
    _check_int("b", b, 1)
    if a < b:
        raise InvalidInput(f"expansion needs a >= b, got a={a}, b={b}")
    qdiv, rdiv = divmod(a, b)
    geo = sum(pow_checked(p, b * i) for i in range(qdiv))
    return pow_checked(p, rdiv) * geo + 1


def zp_index(a: int, n_star: int, b: int, m_star: int, p: int) -> int | None:
    """Theorem 1 on the splits n = p**a * n_star and m = p**b * m_star.

    The index of T over Z_p, or None when T is not nilpotent. The divisibility
    condition "n | m * p**k for some k" holds iff the p-free part of n divides
    the p-free part of m, which is what gets tested. The splits are taken as
    p_adic_valuation made them, which checked p; p**a <= n and p**b <= m, so
    the arithmetic stays in range.
    """
    if b >= 1 and m_star % n_star == 0:
        return -(-p**a // (p**b - 1))
    return None


def decide_zp(n: int, m: int, p: int) -> ZpVerdict:
    """Decide nilpotence of T over Z_p and compute the exact index."""
    _check_int("n", n, 1)
    _check_int("m", m, 1)
    a, n_star = p_adic_valuation(n, p)  # also validates p
    b, m_star = _valuation(m, p)
    index = zp_index(a, n_star, b, m_star, p)
    return ZpVerdict(n, m, p, a, b, n_star, m_star, index is not None, index)


# ---------------------------------------------------------------------------
# Z_m


def prime_divisors(x: int) -> tuple[int, ...]:
    """The primes dividing x, increasing; none for x = 1."""
    return tuple(p for p, _ in factorize(x)) if x != 1 else ()


def _row_verdicts(p, n: int, n_split, block: range) -> dict:
    """{offset: verdict} for row n's nilpotent cells in block, from n's split alone:
    (a, n_star) over Z_p, the primes of n over Z_m (p is None). A verdict is the
    index over Z_p, the clause over Z_m. No cell but these candidates is nilpotent:
    - Over Z_p, with n = p**a * n_star and m = p**b * m_star, zp_index is None
      unless b >= 1 and n_star | m_star, so unless p * n_star | m, because
      gcd(p, n_star) = 1. The candidates are the multiples of p * n_star.
      Every candidate is nilpotent: p | m gives b >= 1, and n_star | m with
      gcd(n_star, p) = 1 gives n_star | m_star. Its index ceil(p**a / (p**b - 1))
      then depends on the row and b alone, and the cells of valuation b or more
      are the multiples of p**b * n_star: b = 1, 2, ... fills those with the
      index at m = p**b * n_star, a later b overwriting an earlier one.
    - Over Z_m, Corollary 1 (m and n powers of one prime, n = 1 the zeroth, or m
      with two primes and n | m) makes a cell not nilpotent unless n | m, or m is
      a power of a prime q and n is 1 or a power of q; each class has one clause:
      - n = 1: every cell, same_prime_powers if m is a prime power (the one case
        that factors m), else multi_prime_divides: n = 1 divides every m, and
        an m that is no prime power has two primes.
      - n = q**j: every multiple of n, multi_prime_divides, then the powers of q
        in block, walked up to its end, same_prime_powers (those below n are
        the only candidates that n does not divide): an m that n divides and
        that is no power of q has a second prime.
      - n with two primes or more: the multiples of n, multi_prime_divides: an
        n with two primes divides no prime power, and each multiple of it has
        two primes.
    """
    if p is not None:
        a, n_star = n_split
        vs, b = {}, 1
        while (step := p**b * n_star) <= block[-1]:
            vs.update(dict.fromkeys(range(-block.start % step, len(block), step),
                                    zp_index(a, n_star, b, n_star, p)))
            b += 1
        return vs
    if not n_split:
        return {i: ZmClause.SAME_PRIME_POWERS if len(prime_divisors(m)) == 1
                else ZmClause.MULTI_PRIME_DIVIDES for i, m in enumerate(block)}
    vs = dict.fromkeys(range(-block.start % n, len(block), n), ZmClause.MULTI_PRIME_DIVIDES)
    if len(n_split) == 1:
        x = q = n_split[0]
        while x <= block[-1]:
            if x >= block.start:
                vs[x - block.start] = ZmClause.SAME_PRIME_POWERS
            x *= q
    return vs


def zm_index_bracket(n: int, m: int, n_primes: tuple[int, ...]) -> tuple[int, int] | None:
    """The index of T(n, m) over Z_m as a bracket (low, high), from n_primes, the
    primes of n: (1, 1) at n = 1 and (2, 2) where 1 < n and n | m, both exact;
    (k, e*k) where n = q**j and m = q**e with e < j, k = ceil(n / (m - 1)) the
    index over Z_q by Theorem 1; None elsewhere, where T is not nilpotent.

    Corollary 1 makes T nilpotent where n and m are powers of one prime q (n = 1
    the zeroth), or m has two primes and n | m: so where n | m, or on that class
    with n not dividing m, which is e < j. Where n | m, T = (m/n)*J, J the
    all-ones circulant, as each residue mod n takes m/n of the exponents 0..m-1;
    J**2 = n*J, so T**2 = (m/n)*m*J = 0 over Z_m, and T = 0 only if n = 1, since
    0 < m/n < m for n > 1. On the class n = q**j, m = q**e, e < j: reducing mod
    q is a ring map onto the ring over Z_q, so the index is at least k; and
    T**k = 0 mod q means T**k = q*U, so T**(e*k) = q**e * U**e = 0.
    """
    _check_int("n", n, 1)
    _check_int("m", m, 2)
    if m % n == 0:
        return (1, 1) if n == 1 else (2, 2)
    if len(n_primes) != 1 or (split := _valuation(m, n_primes[0]))[1] != 1:
        return None
    k = -(-n // (m - 1))
    return k, split[0] * k


def decide_zm(n: int, m: int) -> ZmVerdict:
    """Decide nilpotence of T over Z_m by Corollary 1: _row_verdicts on one cell."""
    _check_int("m", m, 2)
    _check_int("n", n, 1)
    clause = _row_verdicts(None, n, prime_divisors(n), range(m, m + 1)).get(
        0, ZmClause.NOT_NILPOTENT)
    return ZmVerdict(n, m, clause is not ZmClause.NOT_NILPOTENT, clause)


def decide_zm_via_primes(n: int, m: int) -> ZmVerdict:
    """Nilpotent over Z_m iff nilpotent over Z_p for every prime p | m."""
    _check_int("m", m, 2)
    _check_int("n", n, 1)
    verdicts = tuple(decide_zp(n, m, p) for p in prime_divisors(m))
    nilpotent = all(v.nilpotent for v in verdicts)
    if not nilpotent:
        clause = ZmClause.NOT_NILPOTENT
    elif len(verdicts) == 1:
        clause = ZmClause.SAME_PRIME_POWERS
    else:
        clause = ZmClause.MULTI_PRIME_DIVIDES
    return ZmVerdict(n, m, nilpotent, clause, per_prime=verdicts)


# ---------------------------------------------------------------------------
# executable proof steps


def witness_nonvanishing(n: int, m: int, p: int) -> tuple[ZpVerdict, CirculantElem, bool, bool]:
    """Both sides of the index's tightness, from one verdict and one T.

    Below: T**(index-1) is compared with its predicted closed form, the
    indicator of multiples of p**r scaled by m_star**q / n_star (an exact
    integer, nonzero mod p), with a = b*q + r. Above: that indicator times T
    must be zero mod p. Returns (verdict, power, matches, annihilates).
    """
    v = decide_zp(n, m, p)
    if not v.nilpotent:
        raise InvalidInput(f"not applicable: T(n={n}, m={m}) is not nilpotent over Z_{p}")
    if v.a < v.b:
        # The identities need one full division step, a >= b.
        raise InvalidInput(
            f"not applicable: a={v.a} < b={v.b}, T is already zero"
            " and the expansion is bypassed"
        )
    check_budget("identities", n, IDENTITIES_BUDGET)  # before T, which has n coefficients
    qdiv, rdiv = divmod(v.a, v.b)
    t = circring.geom_sum(n, m, p)
    computed = circring.power(t, v.index - 1)
    indicator = circring.multiples_indicator(n, p, pow_checked(p, rdiv))
    scale = pow_checked(v.m_star, qdiv) // v.n_star
    predicted = circring.scalar_mul(scale, indicator)
    annihilates = circring.is_zero(circring.mul(indicator, t))
    return v, computed, computed == predicted, annihilates
