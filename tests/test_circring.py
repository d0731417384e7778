import contextlib
import functools
import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilcirc import circring, oracle
from nilcirc.circring import (
    CirculantElem,
    _first_zero_power,
    _layout,
    _reduce,
    _scalars,
    add,
    geom_sum,
    identity,
    is_zero,
    mul,
    multiples_indicator,
    power,
    scalar_mul,
    shift_power,
)
from nilcirc.errors import InputError, InvalidInput, ShapeMismatch
from nilcirc.numutil import INT_LIMIT


def zero(n, q):
    return CirculantElem(n, q, (0,) * n)


@st.composite
def ring_pair(draw, max_order=12, max_modulus=16):
    """Two elements of the same ring."""
    n = draw(st.integers(min_value=1, max_value=max_order))
    q = draw(st.integers(min_value=2, max_value=max_modulus))
    coeffs = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return (
        CirculantElem(n, q, tuple(draw(coeffs))),
        CirculantElem(n, q, tuple(draw(coeffs))),
    )


# ---------------------------------------------------------------------------
# construction and validation


def test_element_validation():
    with pytest.raises(InvalidInput):
        CirculantElem(0, 5, ())
    with pytest.raises(InvalidInput):
        CirculantElem(2, 1, (0, 0))
    with pytest.raises(InvalidInput):
        CirculantElem(2, 5, (0, 0, 0))
    with pytest.raises(InvalidInput):
        CirculantElem(2, 5, (5, 0))
    with pytest.raises(InvalidInput):
        CirculantElem(2, 5, (-1, 0))


def test_geom_sum_counts_residue_classes():
    # independent counting oracle for the closed-form coefficients
    for n in range(1, 8):
        for m in range(1, 20):
            for q in (2, 3, 5, 7):
                expected = [0] * n
                for i in range(m):
                    expected[i % n] += 1
                assert geom_sum(n, m, q).coeffs == tuple(e % q for e in expected)


def test_geom_sum_is_sum_of_shift_powers():
    for n in (1, 2, 5):
        for m in (1, 3, 11):
            acc = zero(n, 7)
            for i in range(m):
                acc = add(acc, shift_power(n, 7, i))
            assert acc == geom_sum(n, m, 7)


def test_geom_sum_rejects_bad_parameters():
    with pytest.raises(InvalidInput):
        geom_sum(0, 3, 5)
    with pytest.raises(InvalidInput):
        geom_sum(3, 0, 5)
    with pytest.raises(InvalidInput):
        geom_sum(3, 3, 1)


@pytest.mark.parametrize("make", (identity, shift_power, geom_sum, multiples_indicator,
                                  oracle.geometric_identity_check))
def test_constructors_answer_or_raise_input_error(make):
    # Every int argument in {-1, 0, 1, 2}: a bad order or modulus is an
    # InputError, never a ZeroDivisionError or an IndexError.
    for args in itertools.product((-1, 0, 1, 2), repeat=make.__code__.co_argcount):
        with contextlib.suppress(InputError):
            make(*args)


def test_shift_power_examples():
    assert shift_power(4, 7, 0).coeffs == (1, 0, 0, 0)
    assert shift_power(4, 7, 6).coeffs == (0, 0, 1, 0)
    assert shift_power(1, 2, 5).coeffs == (1,)


def test_multiples_indicator_examples():
    assert multiples_indicator(8, 2, 4).coeffs == (1, 0, 0, 0, 1, 0, 0, 0)
    assert multiples_indicator(6, 3, 1).coeffs == (1,) * 6
    assert multiples_indicator(4, 5, 4).coeffs == (1, 0, 0, 0)
    with pytest.raises(InvalidInput):
        multiples_indicator(8, 2, 3)


# ---------------------------------------------------------------------------
# arithmetic


def test_mul_examples():
    s1 = shift_power(4, 5, 1)
    s3 = shift_power(4, 5, 3)
    assert mul(s1, s3) == shift_power(4, 5, 0)
    t = geom_sum(4, 2, 2)
    assert mul(t, t).coeffs == (1, 0, 1, 0)
    a = CirculantElem(4, 5, (1, 2, 3, 4))
    assert mul(a, identity(4, 5)) == a


def test_add_scalar_examples():
    assert add(CirculantElem(2, 2, (1, 0)), CirculantElem(2, 2, (1, 1))).coeffs == (0, 1)
    a = CirculantElem(3, 5, (1, 2, 0))
    assert scalar_mul(0, a) == zero(3, 5)
    assert scalar_mul(3, a).coeffs == (3, 1, 0)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        mul(identity(3, 5), identity(4, 5))
    with pytest.raises(ShapeMismatch):
        add(identity(3, 5), identity(3, 7))


def test_power_examples():
    for n in (1, 3, 8):
        assert power(shift_power(n, 5, 1), n) == identity(n, 5)
    t = geom_sum(8, 2, 2)
    assert is_zero(power(t, 8))
    assert not is_zero(power(t, 7))
    with pytest.raises(InvalidInput):
        power(t, -1)


@given(ring_pair(max_order=8, max_modulus=9), st.integers(min_value=0, max_value=64))
@settings(max_examples=60, deadline=None)
def test_power_matches_iterated_multiplication(pair, k):
    a, _ = pair
    expected = identity(a.order, a.modulus)
    for _ in range(k):
        expected = mul(expected, a)
    assert power(a, k) == expected


def test_power_never_multiplies_by_the_identity(spy):
    # k >= 1 costs bit_length - 1 squarings and popcount - 1 products by a,
    # each one _reduce of the packed product
    a = geom_sum(6, 4, 7)
    expected = identity(6, 7)
    for k in range(17):
        reduces = spy(circring, "_reduce")
        assert power(a, k) == expected, k
        assert len(reduces) == (k.bit_length() + bin(k).count("1") - 2 if k else 0), k
        expected = mul(expected, a)


@pytest.mark.parametrize("q", (7, 2**64 - 59))
def test_power_packs_once_and_unpacks_once(spy, q):
    a = CirculantElem(5, q, (1, q - 1, 0, 3, q - 2))
    for k in range(1, 17):
        calls = {name: spy(circring, name) for name in ("_pack", "_unpack", "mul")}
        power(a, k)
        assert {name: len(c) for name, c in calls.items()} == {
            "_pack": 1, "_unpack": 1, "mul": 0}, k


def test_mul_and_power_on_one_ring_compute_its_layout_once(spy):
    # _layout is cached per (n, q): the first product builds it, the rest reuse it
    circring._layout.cache_clear()
    scalars = spy(circring, "_scalars")
    a = geom_sum(12, 5, 7)
    product = a
    for _ in range(10):
        product = mul(product, a)
    assert power(a, 11) == product and power(a, 3) == mul(mul(a, a), a)
    assert len(scalars) == 1


def test_is_zero_examples():
    assert is_zero(geom_sum(3, 6, 2))
    assert not is_zero(identity(4, 3))
    assert is_zero(CirculantElem(4, 9, (0, 0, 0, 0)))


# ---------------------------------------------------------------------------
# row sums


@given(ring_pair())
def test_row_sum_multiplicative(pair):
    # the coefficient sum mod q is the eigenvalue on the all-ones vector
    a, b = pair
    q = a.modulus
    assert sum(mul(a, b).coeffs) % q == sum(a.coeffs) * sum(b.coeffs) % q


# ---------------------------------------------------------------------------
# dense cross-checks


def to_dense(a):
    """The n x n matrix with row i, column j = coeffs[(j - i) mod n]."""
    n = a.order
    return [[a.coeffs[(j - i) % n] for j in range(n)] for i in range(n)]


def test_to_dense_shift():
    assert to_dense(shift_power(3, 5, 1)) == [
        [0, 1, 0],
        [0, 0, 1],
        [1, 0, 0],
    ]


def test_to_dense_identity():
    assert to_dense(identity(3, 7)) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def _dense_matmul(x, y, q):
    """x @ y mod q; x may have any number of rows."""
    n = len(y)
    return [
        [sum(row[k] * y[k][j] for k in range(n)) % q for j in range(n)]
        for row in x
    ]


# One modulus per slot-width tier of mul: the slot holds n*(q-1)**2, from one
# byte (small q and n) to 17 bytes at q = 2**64 - 1.
TIER_MODULI = (16, 2**16 - 15, 2**32 - 5, 2**61 - 1, 2**64 - 59, 2**64 - 1)

tier_modulus = st.one_of(
    st.integers(2, 16),
    st.integers(2, 2**16 - 1),
    st.integers(2, 2**32 - 1),
    st.sampled_from(TIER_MODULI[3:]),
)


@st.composite
def wide_pair(draw):
    """Two elements with n in [1, 48] and a modulus from every slot tier."""
    n = draw(st.integers(min_value=1, max_value=48))
    q = draw(tier_modulus)
    coeffs = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return (
        CirculantElem(n, q, tuple(draw(coeffs))),
        CirculantElem(n, q, tuple(draw(coeffs))),
    )


@given(wide_pair())
@settings(max_examples=150, deadline=None)
def test_mul_matches_dense_product_at_every_slot_width(pair):
    a, b = pair
    q = a.modulus
    assert to_dense(mul(a, b)) == _dense_matmul(to_dense(a), to_dense(b), q)


@pytest.mark.parametrize("q", TIER_MODULI)
def test_mul_all_top_residues_fill_the_slot(q):
    # Every coefficient q - 1 makes each folded slot exactly n*(q-1)**2, the bound.
    n = 48
    top = CirculantElem(n, q, (q - 1,) * n)
    assert mul(top, top).coeffs == (n * (q - 1) ** 2 % q,) * n
    assert to_dense(mul(top, top)) == _dense_matmul(to_dense(top), to_dense(top), q)


@given(st.lists(st.integers(0, 2**64 - 60), min_size=1, max_size=16), st.integers(0, 40))
@settings(max_examples=40, deadline=None)
def test_power_matches_iterated_multiplication_near_int_limit(coeffs, k):
    q = 2**64 - 59
    a = CirculantElem(len(coeffs), q, tuple(coeffs))
    expected = identity(a.order, q)
    for _ in range(k):
        expected = mul(expected, a)
    assert power(a, k) == expected


def unpacked(acc, a):
    """The coefficients of a packed power of a, read slot by slot with shifts."""
    n, q = a.order, a.modulus
    bits = 8 * _layout(n, q)[0]
    return [(acc >> (bits * j)) & ((1 << bits) - 1) for j in range(n)]


def walk(spy, a, bound):
    """_first_zero_power(a, bound) and the powers a**2, a**3, ... that its
    _reduce calls return, one power per call, in the order computed."""
    reduces = spy(circring, "_reduce")
    found = _first_zero_power(a, bound)
    bits = 8 * a.order * _layout(a.order, a.modulus)[0]
    assert all(out >> bits == 0 for _, out in reduces)  # n slots, nothing above
    return found, [unpacked(out, a) for _, out in reduces]


def never_zero(rng, n, q):
    """An element whose coefficients sum to 1 mod q: evaluation at x = 1 is a
    ring map, so a**k sums to 1 too and no power is zero."""
    coeffs = [rng.randrange(q) for _ in range(n)]
    coeffs[0] = (1 - sum(coeffs[1:])) % q
    return CirculantElem(n, q, tuple(coeffs))


# Moduli and orders whose slot widths, from _layout, reach every width w from 1
# to 8 bytes, where a slot takes the low w bytes of its coefficient's 8-byte
# item, and widths above 8 bytes, where it takes all 8.
POWERS_MODULI = (2, 3, 251, 4093, 65537, 1000003, 16777213, 2**31 - 1, 2**61 - 1, 2**64 - 59)
POWERS_ORDERS = (1, 2, 5, 16, 33, 64)


def test_powers_moduli_reach_every_slot_width():
    widths = {_layout(n, q)[0] for q in POWERS_MODULI for n in POWERS_ORDERS}
    assert {1, 2, 3, 4, 5, 6, 7, 8, 16, 17} <= widths


@pytest.mark.parametrize("q", POWERS_MODULI)
def test_powers_yields_every_power(spy, q):
    # At every slot width, the 12 products of a walk to 13 are a**2, ..., a**13.
    rng = random.Random(q)
    for n in POWERS_ORDERS:
        a = never_zero(rng, n, q)
        found, computed = walk(spy, a, 13)
        assert found is None
        assert [tuple(c) for c in computed] == [power(a, k).coeffs for k in range(2, 14)]


@st.composite
def walk_start(draw):
    """One element with n in [1, 64] and a modulus up to 2**64 - 1."""
    n = draw(st.integers(min_value=1, max_value=64))
    q = draw(st.one_of(st.integers(2, 16), st.integers(2, 2**64 - 1)))
    coeffs = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return CirculantElem(n, q, tuple(draw(coeffs)))


@given(walk_start(), st.integers(1, 40))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_powers_match_power(spy, a, bound):
    found, computed = walk(spy, a, bound)
    powers = [list(power(a, k).coeffs) for k in range(2, len(computed) + 2)]
    assert computed == powers
    zeros = [k for k, c in enumerate([a.coeffs] + powers, 1) if not any(c) and k <= bound]
    assert found == (zeros[0] if zeros else None)
    assert len(computed) == (found or bound) - 1


# The reduction's edge: every coefficient q - 1 makes each folded slot of the
# first product exactly n*(q-1)**2; odd n leaves the top even slot unpaired.
@pytest.mark.parametrize("q", (2, 3, 2**32 - 5, 2**64 - 59, 2**64 - 1))
@pytest.mark.parametrize("n", (1, 2, 3, 47, 48))
def test_reduce_at_the_slot_bound_matches_dense(spy, q, n):
    top = CirculantElem(n, q, (q - 1,) * n)
    dense = to_dense(top)
    assert to_dense(mul(top, top)) == _dense_matmul(dense, dense, q)
    found, computed = walk(spy, top, 7)
    row = _dense_matmul([dense[0]], dense, q)
    for acc in computed:
        assert acc == row[0]
        row = _dense_matmul(row, dense, q)
    assert len(computed) == (6 if found is None else found - 1)


@pytest.mark.parametrize("q", POWERS_MODULI + (2**64 - 1,))
def test_reduce_of_two_top_operands_matches_dense_at_every_slot_width(q):
    # Both operands hold q - 1 in every slot: the product is as large as two
    # n-slot ints make it, and _reduce folds its upper n slots in unmasked, each
    # folded slot exactly n*(q-1)**2. These moduli and orders reach every width.
    for n in POWERS_ORDERS:
        layout = _layout(n, q)
        top = CirculantElem(n, q, (q - 1,) * n)
        packed = circring._pack(top.coeffs, layout[0])
        reduced = _reduce(packed * packed, q, layout)
        dense = to_dense(top)
        assert reduced >> 8 * n * layout[0] == 0, (n, q)
        assert unpacked(reduced, top) == _dense_matmul([dense[0]], dense, q)[0], (n, q)


@pytest.mark.parametrize("q", list(range(2, 40)) + [2**32 - 5, 2**64 - 59, 2**64 - 1])
def test_reduce_is_exact_on_the_top_slot_values(q):
    # A reciprocal too short errs first on the largest slot values congruent to
    # q - 1. One call counts down from the bound n*(q-1)**2, the other in steps
    # of q from the largest value at most the bound that is congruent to q - 1.
    for n in range(1, 12):
        layout = _layout(n, q)
        bits, top = 8 * layout[0], n * (q - 1) ** 2
        worst = top - (top + 1) % q
        for slots in ([top - j for j in range(n)], [worst - q * j for j in range(n)]):
            slots = [max(v, 0) for v in slots]
            packed = sum(v << (bits * j) for j, v in enumerate(slots))
            expected = sum(v % q << (bits * j) for j, v in enumerate(slots))
            assert _reduce(packed, q, layout) == expected


# ---------------------------------------------------------------------------
# The Z_m block walk: each part of one slot width shares the layout of its
# largest modulus, and each cell swaps in its own reciprocal.


@functools.cache
def width_changes(n):
    """Every modulus q <= INT_LIMIT whose own slot width exceeds that of q - 1."""
    changes, q = [], 2
    while True:
        w, lo, hi = _scalars(n, q)[0], q, INT_LIMIT + 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if _scalars(n, mid)[0] > w else (mid + 1, hi)
        if lo > INT_LIMIT:
            return changes
        assert _scalars(n, lo - 1)[0] == w < _scalars(n, lo)[0]
        changes.append(q := lo)


@given(st.integers(1, 256), st.integers(2, INT_LIMIT - 1))
@settings(max_examples=300, deadline=None)
def test_slot_width_does_not_decrease_with_the_modulus(n, q):
    # top*r grows with q under each modulus's own shift: the bisection of
    # _block_walk rests on this.
    (w, _, r), (w1, _, r1) = _scalars(n, q), _scalars(n, q + 1)
    assert w <= w1 and n * (q - 1) ** 2 * r < n * q**2 * r1


@st.composite
def zm_blocks(draw):
    """(n, ms): n <= 64 and an ascending block of moduli that crosses a change of
    slot width, starts low, or ends near 2**64 - 1."""
    n = draw(st.integers(1, 64))
    length = draw(st.integers(2, 40))
    start = draw(st.one_of(
        st.sampled_from(width_changes(n)).flatmap(
            lambda c: st.integers(max(2, c - length + 1), max(2, c - 1))),
        st.integers(2, 200),
        st.integers(INT_LIMIT - 60, INT_LIMIT),
    ))
    return n, range(start, min(start + length, INT_LIMIT + 1))


@given(zm_blocks())
@settings(max_examples=60, deadline=None)
def test_zm_block_walk_equals_each_cells_own_walk(block):
    n, ms = block
    assert circring._block_walk(n, ms) == [_first_zero_power(geom_sum(n, m, m), n) for m in ms]


@pytest.mark.parametrize("big", (3, 40, 4093, 2**32 - 5, 2**64 - 1))
def test_reduce_is_exact_at_the_top_under_a_larger_moduluss_layout(big):
    # Over Z_m, _block_walk reduces mod q with the layout of a larger modulus M
    # (slots, shift s, masks) and q's own reciprocal for that s. One call counts
    # down from top_q = n*(q-1)**2, the other in steps of q from the largest
    # value at most top_q congruent to q - 1; q spans smaller slot widths and M's.
    for n in (1, 2, 3, 11, 48):
        layout = _layout(n, big)
        bits, s = 8 * layout[0], layout[1]
        own = max([2] + [c for c in width_changes(n) if c <= big])  # smallest of M's width
        for q in {2, 3, own, big // 2 + 1, big - 1, big}:
            cell = layout[:2] + (-(-(1 << s) // q),) + layout[3:]
            top = n * (q - 1) ** 2
            worst = top - (top + 1) % q
            for slots in ([top - j for j in range(n)], [max(worst - q * j, 0) for j in range(n)]):
                packed = sum(v << bits * j for j, v in enumerate(slots))
                expected = sum(v % q << bits * j for j, v in enumerate(slots))
                assert _reduce(packed, q, cell) == expected, (n, q)
