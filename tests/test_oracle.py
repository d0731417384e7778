import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilcirc import circring
from nilcirc.errors import InvalidInput, InvalidPrime, Overflow
from nilcirc.numutil import INT_LIMIT
from nilcirc.oracle import (
    frobenius_check,
    geom_sum_indices,
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


@pytest.mark.parametrize("elem, bound, index", [
    (circring.geom_sum(8, 2, 2), 8, 8),  # nilpotent: the last power inspected is zero
    (circring.geom_sum(3, 6, 2), 3, 1),  # T itself is zero: no product at all
    (circring.geom_sum(8, 4, 2), 8, 3),
    (circring.geom_sum(6, 6, 3), 6, 2),
    (circring.identity(5, 3), 10, None),  # never zero: bound powers
    (circring.geom_sum(5, 2, 2), 5, None),
    (circring.geom_sum(64, 2, 2), 64, 64),
    (circring.geom_sum(28, 5, 3), 28, None),
    (circring.identity(3, 2), 200, None),  # a long walk: 199 products
    (circring.identity(64, 3), 64, None),
])
def test_min_nilpotent_index_step_count(spy, elem, bound, index):
    # One product and one _reduce per power: every power up to the answer, none
    # past the bound, each the power before times a.
    reduces = spy(circring, "_reduce")
    assert min_nilpotent_index(elem, bound) == index
    assert len(reduces) == (index or bound) - 1
    a = before = circring._pack(elem.coeffs, circring._layout(elem.order, elem.modulus)[0])
    for (prod, *_), out in reduces:
        assert prod == before * a
        before = out


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


@st.composite
def nilpotent_rich(draw):
    """An element and a bound in [1, 3n], n <= 80. The element is T(n, m) over
    Z_(p**e), often times a random element, which keeps a nilpotent T nilpotent
    with an index no larger. By Theorem 1, T is nilpotent over Z_p when p | m
    and the p-free part of n divides that of m, with index ceil(p**a / (p**b - 1))
    for the p-parts p**a of n and p**b of m; so n is often a power of p, and m
    is mostly drawn as p**b * c * (the p-free part of n), b small for long walks."""
    p, e = draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 3))
    top = {2: 6, 3: 3, 5: 2}[p]  # p**top <= 80
    n = draw(st.one_of(st.integers(1, 80), st.integers(1, top).map(p.__pow__)))
    n_star = n
    while n_star % p == 0:
        n_star //= p
    m = draw(st.one_of(
        st.integers(1, 4 * n),
        st.builds(lambda b, c: p**b * c * n_star, st.integers(1, 3), st.integers(1, 4)),
        st.builds(lambda c: p * c * n_star, st.integers(1, 4)),
    ))
    t = circring.geom_sum(n, m, p**e)
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(0, p**e - 1), min_size=n, max_size=n))
        t = circring.mul(t, circring.CirculantElem(n, p**e, tuple(coeffs)))
    return t, draw(st.integers(1, 3 * n))


@given(nilpotent_rich())
@settings(max_examples=80, deadline=None)
def test_min_nilpotent_index_equals_mul_walk_on_nilpotent_rich_elements(start):
    a, bound = start
    assert min_nilpotent_index(a, bound) == _mul_walk(a, bound)


# ---------------------------------------------------------------------------
# geom_sum_indices: one search per block of m


@st.composite
def index_blocks(draw):
    """(n, ms, q): n <= 64, q in {2, 3, 4, 5, 7, 8, 9, 25} or None for Z_m, and a
    block ms that starts low, past q*n (a Z_q block then repeats its elements),
    past 1024, or near 2**64 - 1. The moduli 4, 8, 9 and 25 are no fields: their
    rings hold nilpotent scalars. Over Z_m every cell is its own ring, so its
    blocks are short."""
    n = draw(st.integers(1, 64))
    q = draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 25, None)))
    period = (q or 1) * n
    start = draw(st.one_of(
        st.integers(1 if q else 2, period + 1),
        st.integers(period + 1, 4 * period),
        st.integers(1025, 4096),
        st.integers(INT_LIMIT - 3 * period, INT_LIMIT),
    ))
    length = draw(st.integers(1, 2 * period + 2 if q else 12))
    return n, range(start, min(start + length, INT_LIMIT + 1)), q


@given(index_blocks())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_geom_sum_indices_equal_min_nilpotent_index(spy, block):
    n, ms, q = block
    powers, walks = spy(circring, "_power"), spy(circring, "_walk")
    found = geom_sum_indices(n, ms, q)
    powered = [(t, k) for (t, k, *_), _ in powers]
    walked = [t for (t, *_), _ in walks]
    elems = [circring.geom_sum(n, m, q or m) for m in ms]
    index = {t: min_nilpotent_index(t, n) for t in set(elems)}
    assert found == [index[t] for t in elems]
    # Each distinct T of a ring is raised once, from the packed T, to the least
    # power of two 2**k >= n, and walked only when that power is zero: when the
    # walk to 2**k finds an index (over Z_(p**e) it may lie past n and read None).
    cells = [(circring._pack(t.coeffs, circring._layout(n, t.modulus)[0]), t) for t in elems]
    tried = list(dict(cells).items()) if q else cells
    assert powered == [(t, 2 ** (n - 1).bit_length()) for t, _ in tried]
    assert walked == [t for t, a in tried
                      if min_nilpotent_index(a, 2 ** (n - 1).bit_length()) is not None]


@pytest.mark.parametrize("q", (2, 4, 9, None), ids=("z2", "z4", "z9", "zm"))
@pytest.mark.parametrize("n", (1, 2, 3, 5, 28, 32, 33, 63, 64))
def test_block_walk_costs_ceil_log2_n_squarings_per_element(spy, n, q):
    # Each distinct T takes the k = (n - 1).bit_length() squarings of T**(2**k)
    # and no other product unless that power is zero; then it is walked to the
    # bound n, and every index found is that walk's. Over Z_q, T(n, m) repeats
    # with period q*n in m, so these blocks hold every distinct T of the row.
    ms, k = range(2, 2 + 2 * (q or 3) * n), (n - 1).bit_length()
    elems = [circring.geom_sum(n, m, q or m) for m in ms]
    index = {t: min_nilpotent_index(t, n) for t in set(elems)}
    powers, walks = spy(circring, "_power"), spy(circring, "_walk")
    reduces = spy(circring, "_reduce")
    found = geom_sum_indices(n, ms, q)
    assert found == [index[t] for t in elems]
    assert {e for (_, e, *_), _ in powers} == {2**k} and {b for (*_, b), _ in walks} <= {n}
    assert [t for (t, *_), _ in walks] == [t for (t, *_), p in powers if p == 0]
    assert len(reduces) == k * len(powers) + sum((i or n) - 1 for _, i in walks)
    results = iter([i for _, i in walks])
    settled = [(t, next(results) if p == 0 else None) for (t, *_), p in powers]
    if q:  # a row holds at most q*n distinct T, each powered once
        powered = [t for (t, *_), _ in powers]
        assert len(powered) == len(set(powered)) <= q * n
        settled = dict(settled)
        w = circring._layout(n, q)[0]
        assert found == [settled[circring._pack(t.coeffs, w)] for t in elems]
    else:
        assert found == [i for _, i in settled]


def test_zm_walks_keep_their_own_slot_width(spy):
    # A Z_m block is cut where a cell's own slot width changes; each part takes
    # one layout, from its largest modulus. Every cell's power T**(2**k), the
    # least power of two 2**k >= n, keeps the slot width of _layout(n, m), and
    # exactly the cells whose power is zero are walked, each in its power's layout.
    parts = 0
    for n, ms in ((1, range(2, 1026)), (2, range(2, 1026)), (28, range(2, 1026)),
                  (64, range(2, 300)), (5, range(INT_LIMIT - 40, INT_LIMIT + 1))):
        power_calls, walk_calls = spy(circring, "_power"), spy(circring, "_walk")
        layout_calls = spy(circring, "_layout")
        found = geom_sum_indices(n, ms)
        powers = [(q, layout[0]) for (_, _, q, layout), _ in power_calls]
        layouts = [q for (_, q), _ in layout_calls]
        assert [q for q, _ in powers] == list(ms)
        assert {k for (_, k, *_), _ in power_calls} == {2 ** (n - 1).bit_length()}
        for q, w in powers:
            assert w == circring._layout(n, q)[0], (n, q)
        assert [(t, q, layout) for (t, q, layout, _), _ in walk_calls] == [
            (t, q, layout) for (t, _, q, layout), p in power_calls if p == 0]
        assert [q for (_, q, _, _), _ in walk_calls] == [
            m for m, k in zip(ms, found) if k is not None]
        widths = sorted({w for _, w in powers})
        assert layouts == [max(q for q, v in powers if v == w) for w in widths]
        parts += len(layouts)
    # Width changes at m = 16, 256 (n = 1); 10, 130 (n = 2); 4, 39, 588 (n = 28); 3, 32 (n = 64).
    assert parts == 3 + 3 + 4 + 3 + 1


def test_bound_n_is_not_sound_for_every_element_over_z_m():
    # Over a field a nilpotent n x n matrix has index at most n; over Z_4 the
    # 1 x 1 matrix (2) has index 2.
    two = circring.CirculantElem(1, 4, (2,))
    assert min_nilpotent_index(two, 1) is None
    assert min_nilpotent_index(two, 2) == 2


def test_zm_geom_sum_index_stays_within_n_under_the_sound_bound():
    # Over Z_(p**e) the index is at most e*n, and e < m.bit_length(). Walked to
    # that bound, no T(n, m) with n <= 32, m <= 96 has an index above n, so the
    # oracle's bound n misses no nilpotent cell there.
    nilpotent = 0
    for n in range(1, 33):
        found = geom_sum_indices(n, range(2, 97))
        for m, k in zip(range(2, 97), found):
            sound = min_nilpotent_index(circring.geom_sum(n, m, m), n * m.bit_length())
            assert sound == k and (k is None or k <= n), (n, m)
            nilpotent += k is not None
    assert nilpotent == 392


def test_zm_index_bound_stays_within_n_on_the_prime_power_class():
    # geom_sum_indices's proof of its bound n over Z_m, in exact arithmetic: on
    # the class n = q**j, m = q**e with e < j, the index is at most e*k with
    # k = ceil(q**j / (q**e - 1)), and e*k <= q**j, for every such pair below 2**64.
    pairs = 0
    for q in (2, 3, 5, 7, 2**31 - 1):
        j_max = max(j for j in range(1, 64) if q**j < 2**64)
        for j in range(2, j_max + 1):
            for e in range(1, j):
                k = -(-q**j // (q**e - 1))
                assert e * k <= q**j, (q, j, e)
                pairs += 1
    assert pairs == 3316  # j_max * (j_max - 1) / 2 per q, j_max = 63, 40, 27, 22, 2


def test_geom_sum_indices_checks_its_arguments_once():
    assert geom_sum_indices(3, range(5, 5), 2) == []
    with pytest.raises(InvalidInput, match="^n must be >= 1"):
        geom_sum_indices(0, range(1, 3), 2)
    with pytest.raises(InvalidInput, match="^m must be >= 1"):
        geom_sum_indices(2, range(0, 3), 2)
    with pytest.raises(InvalidInput, match="^m must be >= 2"):
        geom_sum_indices(2, range(1, 3))  # over Z_m, m is the modulus
    with pytest.raises(Overflow):
        geom_sum_indices(2, range(INT_LIMIT - 1, INT_LIMIT + 2), 2)
    with pytest.raises(InvalidInput, match="^q must be >= 2"):
        geom_sum_indices(2, range(1, 3), 1)


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


@pytest.mark.parametrize("k", [1, 2, 3])
def test_frobenius_maps_each_element_once(spy, k):
    # a, b, a + b and a * b each go through x -> x**p k times: 4k powers
    powers = spy(circring, "power")
    a = circring.CirculantElem(5, 3, (1, 2, 0, 1, 1))
    assert frobenius_check(a, circring.shift_power(5, 3, 2), k)
    assert [e for (_, e), _ in powers] == [3] * (4 * k)


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
