import random

import pytest

from nilcirc import circring
from nilcirc.errors import InvalidInput, InvalidPrime
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


def _walked(monkeypatch):
    """Count, per search, the powers the oracle consumes and the products it computes."""
    consumed, products = [], [0]
    real_powers, real_reduce = circring.powers, circring._reduce

    def counted_powers(a):
        consumed.append(0)
        for acc in real_powers(a):
            consumed[-1] += 1
            yield acc

    def counted_reduce(*args):
        products[0] += 1
        return real_reduce(*args)

    monkeypatch.setattr(circring, "powers", counted_powers)
    monkeypatch.setattr(circring, "_reduce", counted_reduce)
    return consumed, products


@pytest.mark.parametrize("elem, bound, index", [
    (circring.geom_sum(8, 2, 2), 8, 8),  # nilpotent: the last power inspected is zero
    (circring.geom_sum(3, 6, 2), 3, 1),  # T itself is zero: no product at all
    (circring.geom_sum(8, 4, 2), 8, 3),
    (circring.geom_sum(6, 6, 3), 6, 2),
    (circring.identity(5, 3), 10, None),  # never zero: bound powers
    (circring.geom_sum(5, 2, 2), 5, None),
])
def test_min_nilpotent_index_step_count(monkeypatch, elem, bound, index):
    consumed, products = _walked(monkeypatch)
    assert min_nilpotent_index(elem, bound) == index
    steps = bound if index is None else index
    assert consumed == [steps]
    assert products == [steps - 1]


def _mul_walk(a, bound):
    """The index search written with mul and is_zero, one multiply per step."""
    acc = a
    for k in range(1, bound + 1):
        if circring.is_zero(acc):
            return k
        acc = circring.mul(acc, a)
    return None


@pytest.mark.parametrize("q", [2, 4, 9, 12, 251, (2**32 - 5) ** 2, 2**64 - 59, 2**64 - 1])
def test_min_nilpotent_index_equals_mul_walk(q):
    # Coefficients that are multiples of d with d**2 = 0 mod q make elements
    # of index 2; plain random coefficients are rarely nilpotent.
    rng = random.Random(q)
    squares = [d for d in (2, 3, 6, 2**32 - 5) if d < q and d * d % q == 0]
    seen = set()
    for _ in range(60):
        n = rng.randrange(1, 17)
        d = rng.choice(squares + [1])
        a = circring.CirculantElem(n, q, tuple(d * rng.randrange(q // d) for _ in range(n)))
        found = min_nilpotent_index(a, 2 * n)
        assert found == _mul_walk(a, 2 * n)
        seen.add(found is None)
    for n, m in [(4, 2), (8, 4), (6, 6), (9, 3)]:
        t = circring.geom_sum(n, m, q)
        assert min_nilpotent_index(t, n) == _mul_walk(t, n)
    if squares:  # both outcomes were compared
        assert seen == {True, False}


def test_frobenius_examples():
    assert frobenius_check(circring.identity(4, 2), circring.shift_power(4, 2, 1), 1)
    a = circring.CirculantElem(6, 5, (1, 4, 0, 2, 2, 3))
    assert frobenius_check(a, circring.CirculantElem(6, 5, (0,) * 6), 3)
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
    with pytest.raises(InvalidPrime):
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
