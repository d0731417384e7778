import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcirc import circring, nilpotence, numutil, oracle
from nilcirc.errors import InvalidInput, InvalidPrime
from nilcirc.nilpotence import (
    ZmClause,
    decide_zm,
    decide_zm_via_primes,
    decide_zp,
    index_expansion,
    prime_divisors,
    witness_nonvanishing,
    zm_index_bracket,
)
from nilcirc.numutil import factorize


# ---------------------------------------------------------------------------
# decide_zp


def test_decide_zp_examples():
    v = decide_zp(8, 2, 2)
    assert (v.nilpotent, v.index, v.a, v.b) == (True, 8, 3, 1)
    v = decide_zp(9, 3, 3)
    assert (v.nilpotent, v.index) == (True, 5)
    v = decide_zp(4, 6, 3)
    assert not v.nilpotent and (v.n_star, v.m_star) == (4, 2)
    v = decide_zp(6, 4, 2)
    assert not v.nilpotent and (v.n_star, v.m_star) == (3, 1)
    for p in (2, 3, 5):
        v = decide_zp(1, p, p)
        assert (v.nilpotent, v.index) == (True, 1)


def test_decide_zp_verdict_fields():
    # the fields are exactly the documented JSON keys, in order
    v = decide_zp(8, 2, 2)
    assert list(v._fields) == list(v.to_json_dict())
    v = decide_zp(4, 6, 3)
    assert v.index is None


def test_verdicts_keep_repr_eq_and_hash():
    # The repr, equality and hash the verdicts had as frozen dataclasses.
    v = decide_zm_via_primes(12, 6)
    two, three = v.per_prime
    assert repr(v) == (
        "ZmVerdict(n=12, m=6, nilpotent=False, clause=<ZmClause.NOT_NILPOTENT: 'not_nilpotent'>,"
        " per_prime=(ZpVerdict(n=12, m=6, p=2, a=2, b=1, n_star=3, m_star=3, nilpotent=True,"
        " index=4), ZpVerdict(n=12, m=6, p=3, a=1, b=1, n_star=4, m_star=2, nilpotent=False,"
        " index=None)))")
    assert v == decide_zm_via_primes(12, 6) != decide_zm(12, 6)
    assert two == decide_zp(12, 6, 2) != three
    # a frozen dataclass hashes the tuple of its fields
    assert hash(v) == hash((12, 6, False, ZmClause.NOT_NILPOTENT, (two, three)))
    assert hash(two) == hash((12, 6, 2, 2, 1, 3, 3, True, 4))


def test_decide_zp_rejects_bad_input():
    with pytest.raises(InvalidPrime):
        decide_zp(8, 2, 4)
    with pytest.raises(InvalidInput):
        decide_zp(0, 2, 2)
    with pytest.raises(InvalidInput):
        decide_zp(2, 0, 2)


def test_decide_zp_valuations_recompose():
    for (n, m, p) in [(48, 36, 2), (45, 15, 3), (50, 35, 5)]:
        v = decide_zp(n, m, p)
        assert p**v.a * v.n_star == n
        assert p**v.b * v.m_star == m
        assert v.n_star % p and v.m_star % p


def test_zp_json_schema():
    assert decide_zp(8, 2, 2).to_json_dict() == {
        "n": 8, "m": 2, "p": 2, "a": 3, "b": 1, "n_star": 1, "m_star": 1,
        "nilpotent": True, "index": 8,
    }
    assert decide_zp(4, 6, 3).to_json_dict()["index"] is None


# ---------------------------------------------------------------------------
# index formula and expansion


def test_index_expansion_examples():
    assert index_expansion(3, 1, 2) == 8
    assert index_expansion(2, 1, 3) == 5
    assert index_expansion(3, 2, 2) == 3


def test_index_expansion_requires_full_division_step():
    with pytest.raises(InvalidInput):
        index_expansion(1, 2, 2)
    with pytest.raises(InvalidInput):
        index_expansion(3, 0, 2)


# ---------------------------------------------------------------------------
# decide_zm, both routes


def test_decide_zm_examples():
    v = decide_zm(8, 4)
    assert v.nilpotent and v.clause is ZmClause.SAME_PRIME_POWERS
    v = decide_zm(6, 6)
    assert v.nilpotent and v.clause is ZmClause.MULTI_PRIME_DIVIDES
    v = decide_zm(4, 6)
    assert not v.nilpotent and v.clause is ZmClause.NOT_NILPOTENT


def test_decide_zm_via_primes_examples():
    v = decide_zm_via_primes(6, 6)
    assert v.nilpotent
    assert [(z.p, z.nilpotent) for z in v.per_prime] == [(2, True), (3, True)]
    v = decide_zm_via_primes(4, 6)
    assert not v.nilpotent
    assert [(z.p, z.nilpotent) for z in v.per_prime] == [(2, True), (3, False)]
    assert decide_zm_via_primes(1, 2).nilpotent


def test_decisions_prove_each_prime_once(spy):
    # decide_zp proves p prime once, and the Z_m route proves again none of the
    # primes that factorize proved: m, then each of its two factors, then 2 and 3.
    calls = spy(numutil, "is_prime")
    decide_zp(12, 8, 2)
    assert len(calls) == 1
    calls = spy(numutil, "is_prime")
    decide_zm_via_primes(6, 1000003 * 999983)
    assert len(calls) == 5


def test_decide_zm_rejects_bad_input():
    for fn in (decide_zm, decide_zm_via_primes):
        with pytest.raises(InvalidInput):
            fn(4, 1)
        with pytest.raises(InvalidInput):
            fn(0, 6)


def test_n_equals_one_counts_as_zeroth_power():
    # T over Z_m is the 1x1 matrix [m] = [0]; the same-prime clause covers it
    for m in (2, 4, 9, 25):
        v = decide_zm(1, m)
        assert v.nilpotent and v.clause is ZmClause.SAME_PRIME_POWERS


def test_zm_clause_invariants():
    for m in range(2, 37):
        m_primes = [p for p, _ in factorize(m)]
        for n in range(1, 37):
            v = decide_zm(n, m)
            if v.clause is ZmClause.SAME_PRIME_POWERS:
                assert len(m_primes) == 1
                assert n == 1 or [p for p, _ in factorize(n)] == m_primes
            elif v.clause is ZmClause.MULTI_PRIME_DIVIDES:
                assert len(m_primes) >= 2 and m % n == 0
            assert v.nilpotent == (v.clause is not ZmClause.NOT_NILPOTENT)


def test_per_prime_verdicts_all_nilpotent_when_zm_is():
    for m in range(2, 25):
        for n in range(1, 25):
            v = decide_zm_via_primes(n, m)
            if v.nilpotent:
                assert all(z.nilpotent for z in v.per_prime)
            assert len(v.per_prime) == len(factorize(m))


def test_zm_json_schema():
    d = decide_zm_via_primes(6, 6).to_json_dict()
    assert d["nilpotent"] is True
    assert d["clause"] == "multi_prime_divides"
    assert [z["p"] for z in d["per_prime"]] == [2, 3]
    assert list(d) == ["n", "m", "nilpotent", "clause", "per_prime"]


@st.composite
def _zm_cells(draw):
    """(n, m) up to 2**64 - 1, for a prime q in {2, 3, 5, 2**31 - 1}: n often a
    power of q, m often a power of q or a multiple of n."""
    q = draw(st.sampled_from([2, 3, 5, 2**31 - 1]))
    top = max(k for k in range(1, 64) if q**k <= numutil.INT_LIMIT)
    n = draw(st.integers(1, numutil.INT_LIMIT) | st.integers(0, top).map(lambda j: q**j))
    m = draw(st.integers(2, numutil.INT_LIMIT) | st.integers(1, top).map(lambda k: q**k)
             | st.integers(1, numutil.INT_LIMIT // n).map(lambda k: max(2, k * n)))
    return n, m


@settings(max_examples=300, deadline=None)
@given(cell=_zm_cells())
def test_decide_zm_equals_per_prime_route_at_64_bits(cell):
    # The clause walks the powers of q up to m, and the index bracket tells n | m
    # from the class of powers of q: both checked against Theorem 1 at each prime
    # of m (parent_bracket), which shares no code with them, across the whole domain.
    n, m = cell
    per_prime = decide_zm_via_primes(n, m)
    assert decide_zm(n, m).clause is per_prime.clause
    bracket = zm_index_bracket(n, m, prime_divisors(n))
    if not per_prime.nilpotent:
        assert bracket is None, cell
    else:
        (low, high), (parent_low, parent_high) = bracket, parent_bracket(n, m, per_prime)
        assert parent_low <= low <= high <= parent_high, (cell, bracket)


# ---------------------------------------------------------------------------
# the row rule: every cell of a row block at once, from the split of n


def _split(p):
    return prime_divisors if p is None else functools.partial(numutil.p_adic_valuation, p=p)


@st.composite
def _row_blocks(draw):
    """(n, block): any row n <= 10**4 and up to 64 values of m below 2**32 + 64,
    often placed at a multiple of n or among the small powers of a prime."""
    n = draw(st.integers(1, 10**4) | st.sampled_from([4, 8, 9, 25, 27, 32, 49, 64, 81, 1024]))
    start = draw(st.integers(2, 2**32) | st.integers(2, 300)
                 | st.integers(1, 2**32 // n).map(lambda j: max(2, j * n - 40)))
    return n, range(start, start + draw(st.integers(1, 64)))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 2**61 - 1, None]), row_block=_row_blocks())
def test_decide_keeps_every_nilpotent_cell(p, row_block):
    # The candidate filter, which sees only the split of n, against every cell
    # decided on its own: over Z_m by Theorem 1 at each prime of m, the route
    # that shares no code with _row_verdicts.
    n, block = row_block
    split = _split(p)
    if p is None:
        dense = {i: v for i, m in enumerate(block)
                 if (v := decide_zm_via_primes(n, m).clause) is not ZmClause.NOT_NILPOTENT}
    else:
        dense = {i: v for i, m in enumerate(block)
                 if (v := nilpotence.zp_index(*split(n), *split(m), p)) is not None}
    assert nilpotence._row_verdicts(p, n, split(n), block) == dense


def test_decide_zm_keeps_powers_of_the_prime_that_n_does_not_divide():
    # Row n = 8: m = 2 and m = 4 are same_prime_powers although 8 does not divide them.
    same = ZmClause.SAME_PRIME_POWERS
    assert nilpotence._row_verdicts(None, 8, (2,), range(2, 18)) == {
        0: same, 2: same, 6: same, 14: same}


@st.composite
def _prime_power_row_blocks(draw):
    """(q, n, block): a row n = q**j and up to 16 values of m that hold a power
    q**k, both below 2**64; j and k are drawn independently, so q**k falls
    below, at or above n."""
    q = draw(st.sampled_from([2, 3, 5, 2**31 - 1]))
    top = max(k for k in range(1, 64) if q**k < 2**64 - 16)
    j, k, size = draw(st.integers(1, top)), draw(st.integers(1, top)), draw(st.integers(1, 16))
    start = max(2, q**k - draw(st.integers(0, size - 1)))
    return q, q**j, range(start, start + size)


@settings(max_examples=100, deadline=None)
@given(row_block=_prime_power_row_blocks())
def test_decide_prime_power_rows_at_large_powers(row_block):
    # A row n = q**j splits its candidates into q's powers and the other
    # multiples of n, one verdict each: checked on every cell by the per-prime
    # route over Z_m, and by Theorem 1 cell by cell over Z_q.
    q, n, block = row_block
    dense = {i: v for i, m in enumerate(block)
             if (v := decide_zm_via_primes(n, m).clause) is not ZmClause.NOT_NILPOTENT}
    assert nilpotence._row_verdicts(None, n, (q,), block) == dense
    split = _split(q)
    dense = {i: v for i, m in enumerate(block)
             if (v := nilpotence.zp_index(*split(n), *split(m), q)) is not None}
    assert nilpotence._row_verdicts(q, n, split(n), block) == dense




# ---------------------------------------------------------------------------
# witness


def test_witness_examples():
    for n, m, p in [(8, 2, 2), (9, 3, 3), (4, 2, 2)]:
        v, elem, matches, _ = witness_nonvanishing(n, m, p)
        assert v == decide_zp(n, m, p)
        assert matches
        assert elem.coeffs == (1,) * n  # these three cases have r=0, scale 1
        assert not circring.is_zero(elem)


def test_witness_with_nonzero_remainder():
    # n=8, m=4, p=2: a=3, b=2, so a = 2*1 + 1 and the step is p**1 = 2
    v, elem, matches, annihilates = witness_nonvanishing(8, 4, 2)
    assert divmod(v.a, v.b) == (1, 1)
    assert matches and annihilates
    assert elem == circring.multiples_indicator(8, 2, 2)


def test_witness_precondition_errors():
    with pytest.raises(InvalidInput):
        witness_nonvanishing(4, 6, 3)  # not nilpotent
    with pytest.raises(InvalidInput):
        witness_nonvanishing(2, 4, 2)  # a=1 < b=2
    with pytest.raises(InvalidInput):
        witness_nonvanishing(1, 2, 2)  # a=0 < b=1


def parent_bracket(n, m, verdict=None):
    """[max k_p, max e*k_p] over every prime p of m = prod p**e, k_p Theorem 1's
    index over Z_p, or None if some k_p is: the bracket as it was before it
    took only the primes of n, kept as the reference that it narrows. Each k_p
    and e is read from verdict, decide_zm_via_primes(n, m) if not given.

    By the CRT the index over Z_m is the largest over the Z_(p**e). Reducing
    mod p is a ring map, so each is at least k_p. T**k_p = 0 mod p means
    T**k_p = p*U, so T**(e*k_p) = p**e * U**e = 0 over Z_(p**e). For
    squarefree m the bracket is one point.
    """
    per_prime = (verdict or decide_zm_via_primes(n, m)).per_prime
    if not all(v.nilpotent for v in per_prime):
        return None
    return max(v.index for v in per_prime), max(v.b * v.index for v in per_prime)


def test_zm_index_bracket_is_none_where_some_prime_is_not_nilpotent():
    # T(4, 6) is nilpotent over Z_2, with index ceil(2**2 / (2 - 1)) = 4, but not
    # over Z_3, where n* = 4 does not divide m* = 2; the primes of n alone see it
    # by Corollary 1, as 4 does not divide 6 and 6 is no power of 2.
    assert zm_index_bracket(4, 6, (2,)) is None
    assert decide_zp(4, 6, 2).index == 4 and not decide_zp(4, 6, 3).nilpotent
    assert zm_index_bracket(6, 6, (2, 3)) == (2, 2)  # squarefree: one point
    assert zm_index_bracket(4, 8, (2,)) == (2, 2)  # 4 | 8: T = 2*J, T**2 = 8*J
    assert parent_bracket(4, 8) == (1, 3)  # 8 = 2**3: [k_2, 3*k_2]
    assert zm_index_bracket(8, 4, (2,)) == (3, 6)  # 4 = 2**2 below 8: (k_2, 2*k_2)
    assert zm_index_bracket(9, 3, (3,)) == (5, 5)  # 3 = 3**1: the index over Z_3
    assert zm_index_bracket(8, 12, (2,)) is None  # 12 is no power of 2
    # 2**3 divides 24 / 3, the coefficient of T(3, 24): T is zero over Z_8.
    assert zm_index_bracket(3, 24, (3,)) == (2, 2) and parent_bracket(3, 24) == (2, 3)
    assert zm_index_bracket(1, 8, ()) == (1, 1)  # T = [8] = 0
    with pytest.raises(InvalidInput, match="^n must be >= 1"):
        zm_index_bracket(0, 6, ())
    with pytest.raises(InvalidInput, match="^m must be >= 2"):
        zm_index_bracket(4, 1, (2,))


def test_zm_index_bracket_only_narrows_up_to_96():
    # Every cell with n, m <= 96: the oracle finds an index exactly where both
    # routes say nilpotent, and the bracket is None elsewhere. The index lies in
    # a bracket no wider than the parent's: at its one point where n | m, at its
    # low end where m is squarefree, and above the low end on some cell.
    # Of the 481 nilpotent cells, 219 have a wide parent bracket; 13 still have a
    # wide one, all with n and m powers of one prime and n not dividing m.
    nilpotent = parent_wide = wide = above = 0
    for n in range(1, 97):
        for m, found in zip(range(2, 97), oracle.geom_sum_indices(n, range(2, 97))):
            bracket = zm_index_bracket(n, m, prime_divisors(n))
            verdicts = decide_zm(n, m).nilpotent, decide_zm_via_primes(n, m).nilpotent
            assert verdicts == ((found is not None),) * 2, (n, m, found)
            if found is None:
                assert bracket is None, (n, m)
                continue
            (low, high), (parent_low, parent_high) = bracket, parent_bracket(n, m)
            assert parent_low <= low <= found <= high <= parent_high, (n, m, found, bracket)
            if m % n == 0:
                assert found == low == high, (n, m, found, bracket)
            if all(e == 1 for _, e in factorize(m)):
                assert found == low, (n, m, found, low)
            nilpotent, parent_wide = nilpotent + 1, parent_wide + (parent_low < parent_high)
            wide, above = wide + (low < high), above + (found > low)
    assert (nilpotent, parent_wide, wide) == (481, 219, 13) and above > 0
