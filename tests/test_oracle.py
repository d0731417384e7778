import random

import pytest

from nilcirc import circring
from nilcirc.errors import InvalidInput
from nilcirc.oracle import (
    frobenius_check,
    geometric_identity_check,
    min_nilpotent_index,
)


def test_min_nilpotent_index_examples():
    assert min_nilpotent_index(circring.geom_sum(8, 2, 2), 8) == 8
    assert min_nilpotent_index(circring.identity(5, 3), 10) is None
    assert min_nilpotent_index(circring.geom_sum(3, 6, 2), 3) == 1


def test_min_nilpotent_index_rejects_bad_bound():
    with pytest.raises(InvalidInput):
        min_nilpotent_index(circring.identity(2, 2), 0)


def test_oracle_self_consistency():
    rng = random.Random(11)
    seen_nilpotent = 0
    for _ in range(200):
        n = rng.randrange(1, 13)
        q = rng.choice((2, 3, 4, 6, 9))
        a = circring.CirculantElem(n, q, tuple(rng.randrange(q) for _ in range(n)))
        k = min_nilpotent_index(a, n)
        if k is not None:
            seen_nilpotent += 1
            assert circring.is_zero(circring.power(a, k))
            assert k == 1 or not circring.is_zero(circring.power(a, k - 1))
    assert seen_nilpotent > 0


def test_frobenius_examples():
    assert frobenius_check(circring.identity(4, 2), circring.shift_power(4, 2, 1), 1)
    a = circring.CirculantElem(6, 5, (1, 4, 0, 2, 2, 3))
    assert frobenius_check(a, circring.zero(6, 5), 3)
    rng = random.Random(3)
    for _ in range(20):
        a = circring.CirculantElem(5, 3, tuple(rng.randrange(3) for _ in range(5)))
        b = circring.CirculantElem(5, 3, tuple(rng.randrange(3) for _ in range(5)))
        assert frobenius_check(a, b, 2)


def test_frobenius_exponent_beyond_int_limit():
    # p**k leaves [1, 2**64 - 1] although p and k lie inside it
    a = circring.CirculantElem(3, 2, (1, 1, 0))
    assert frobenius_check(a, circring.shift_power(3, 2, 1), 64)
    p = 2**61 - 1
    a = circring.CirculantElem(3, p, (1, 2, 3))
    assert frobenius_check(a, circring.CirculantElem(3, p, (4, 5, 6)), 2)


def test_frobenius_rejects_composite_modulus():
    with pytest.raises(InvalidInput):
        frobenius_check(circring.identity(4, 6), circring.identity(4, 6), 1)


def test_frobenius_fails_for_wrong_characteristic():
    # x -> x**k is generally NOT additive when k is not a power of the
    # characteristic; the check must be able to say no
    a = circring.identity(3, 5)
    b = circring.identity(3, 5)
    e = 2  # (a+b)**2 = 4I != a**2 + b**2 = 2I over Z_5
    lhs = circring.power(circring.add(a, b), e)
    rhs = circring.add(circring.power(a, e), circring.power(b, e))
    assert lhs != rhs


def test_geometric_identity_examples():
    assert geometric_identity_check(4, 4, 5)
    assert geometric_identity_check(3, 5, 7)
    assert geometric_identity_check(1, 3, 2)


def test_geometric_identity_sweep():
    for n in range(1, 25):
        for m in range(1, 25):
            for q in (2, 5, 12):
                assert geometric_identity_check(n, m, q)
