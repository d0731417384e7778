import collections
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcirc.circring import geom_sum
from nilcirc.congruence import validate
from nilcirc.errors import InvalidInput, InvalidPrime, Overflow
from nilcirc.nilpotence import decide_zm
from nilcirc.numutil import (
    INT_LIMIT,
    factorize,
    is_prime,
    p_adic_valuation,
    pow_checked,
)
from nilcirc.oracle import min_nilpotent_index


# ---------------------------------------------------------------------------
# the integer domain, checked by numutil._check_int at every entry point

# One entry point per module: a call with one parameter set to the given value.
_DOMAIN_CASES = {
    "p_adic_valuation": ("x", 1, lambda v: p_adic_valuation(v, 2)),
    "decide_zm": ("m", 2, lambda v: decide_zm(1, v)),
    "validate": ("m_star", 1, lambda v: validate(2, v, 1, 1)),
    "geom_sum": ("n", 1, lambda v: geom_sum(v, 1, 2)),
    "min_nilpotent_index": ("bound", 1, lambda v: min_nilpotent_index(geom_sum(2, 2, 2), v)),
}


@pytest.mark.parametrize("entry", sorted(_DOMAIN_CASES))
def test_domain_contract(entry):
    name, lo, call = _DOMAIN_CASES[entry]
    with pytest.raises(InvalidInput, match=f"^{name} must be >= {lo}, got {lo - 1}$"):
        call(lo - 1)
    # refused at once, before any work sized by the value (geom_sum would hang)
    start = time.perf_counter()
    with pytest.raises(Overflow):
        call(2**64)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# primality


def test_small_primes():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_carmichael_and_strong_pseudoprimes():
    # composites that defeat weaker probabilistic tests
    for n in (561, 1105, 1729, 2465, 3215031751, 3825123056546413051):
        assert not is_prime(n)


def test_large_primes():
    assert is_prime(2**61 - 1)
    assert is_prime(18446744073709551557)  # largest prime below 2**64
    assert not is_prime(2**61 + 1)


def test_is_prime_rejects_out_of_range():
    with pytest.raises(Overflow):
        is_prime(2**64)


@given(st.integers(min_value=4, max_value=10**6))
def test_is_prime_matches_trial_division(n):
    by_trial = all(n % d for d in range(2, int(n**0.5) + 1))
    assert is_prime(n) == by_trial


# ---------------------------------------------------------------------------
# valuations


def test_valuation_examples():
    assert p_adic_valuation(8, 2) == (3, 1)
    assert p_adic_valuation(1, 5) == (0, 1)
    assert p_adic_valuation(12, 2) == (2, 3)


def test_valuation_rejects_bad_input():
    with pytest.raises(InvalidPrime):
        p_adic_valuation(8, 4)
    with pytest.raises(InvalidPrime):
        p_adic_valuation(8, 1)
    with pytest.raises(InvalidInput):
        p_adic_valuation(0, 2)


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from([2, 3, 5, 7]))
def test_valuation_recomposes(x, p):
    e, cofactor = p_adic_valuation(x, p)
    assert p**e * cofactor == x
    assert cofactor % p != 0


# ---------------------------------------------------------------------------
# factorization


def test_factorize_examples():
    assert factorize(6) == ((2, 1), (3, 1))
    assert factorize(8) == ((2, 3),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))


def test_factorize_rejects_small():
    with pytest.raises(InvalidInput):
        factorize(1)
    with pytest.raises(InvalidInput):
        factorize(0)


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_recomposes(q):
    f = factorize(q)
    primes = [p for p, _ in f]
    assert math.prod(p**e for p, e in f) == q
    assert primes == sorted(set(primes))
    for p in primes:
        assert is_prime(p)


# Every case leaves a cofactor above (2**10)**2 after trial division, so it
# reaches the branch that tests each part with is_prime and splits it by rho.
_RHO_CASES = [
    (4294967279 * 4294967291, ((4294967279, 1), (4294967291, 1))),
    (4294967291**2, ((4294967291, 2),)),
    (1031**3, ((1031, 3),)),
    (2**64 - 59, ((2**64 - 59, 1),)),
    (2**64 - 1, ((3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1))),
    (3825123056546413051, ((149491, 1), (747451, 1), (34233211, 1))),  # strong pseudoprime
]


@pytest.mark.parametrize("q, pairs", _RHO_CASES, ids=[str(q) for q, _ in _RHO_CASES])
def test_factorize_large_cofactor(q, pairs):
    start = time.perf_counter()
    assert factorize(q) == pairs
    assert time.perf_counter() - start < 1.0


def _prime_at_most(x: int) -> int:
    while not is_prime(x):
        x -= 1
    return x


@st.composite
def _products_of_large_primes(draw):
    """2 to 6 primes in (2**10, 2**32), repeats allowed, with product below 2**64."""
    k = draw(st.integers(min_value=2, max_value=6))
    primes = []
    for left in range(k, 0, -1):
        # leave room for the primes still to come, each at least 1031
        hi = min(2**32 - 1, INT_LIMIT // math.prod(primes) // 1031 ** (left - 1))
        again = [p for p in primes if p <= hi]
        if again and draw(st.booleans()):
            primes.append(draw(st.sampled_from(again)))
        else:
            primes.append(_prime_at_most(draw(st.integers(min_value=1031, max_value=hi))))
    return primes


@settings(max_examples=50, deadline=None)
@given(_products_of_large_primes())
def test_factorize_products_of_large_primes(primes):
    assert factorize(math.prod(primes)) == tuple(sorted(collections.Counter(primes).items()))


# ---------------------------------------------------------------------------
# pow_checked


def test_pow_checked_examples():
    assert pow_checked(2, 10) == 1024
    assert pow_checked(5, 0) == 1
    with pytest.raises(Overflow):
        pow_checked(2, 200)


def test_pow_checked_edges():
    assert pow_checked(0, 0) == 1
    assert pow_checked(0, 5) == 0
    assert pow_checked(2, 63) == 2**63
    with pytest.raises(Overflow):
        pow_checked(2, 64)
    assert pow_checked(INT_LIMIT, 1) == INT_LIMIT
    with pytest.raises(Overflow):
        pow_checked(INT_LIMIT, 2)
    # an exponent at the limit is answered at once, whatever the base
    assert pow_checked(0, INT_LIMIT) == 0
    assert pow_checked(1, INT_LIMIT) == 1
    with pytest.raises(Overflow):
        pow_checked(2, INT_LIMIT)
    with pytest.raises(InvalidInput):
        pow_checked(-2, 3)
    with pytest.raises(InvalidInput):
        pow_checked(2, -1)


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=8))
def test_pow_checked_matches_builtin_in_range(base, exp):
    if base**exp <= INT_LIMIT:
        assert pow_checked(base, exp) == base**exp
    else:
        with pytest.raises(Overflow):
            pow_checked(base, exp)
