"""The commutative ring of circulant matrices of order n over Z_q.

An element is stored as its length-n coefficient vector: coefficient j is
attached to the j-th power of the cyclic shift, so the element is the
polynomial sum(coeffs[j] * S**j) taken modulo S**n = I. Coefficients are kept
canonical in [0, q).
"""

from __future__ import annotations

import bisect
import collections
import functools
import sys
from array import array

from .errors import InvalidInput, ShapeMismatch
from .numutil import _check_int


class CirculantElem(collections.namedtuple("CirculantElem", "order modulus coeffs")):
    """An immutable named tuple (order, modulus, coeffs), checked however it is built."""

    __slots__ = ()

    def __new__(cls, order: int, modulus: int, coeffs: tuple[int, ...]):
        _check_int("order", order, 1)
        _check_int("modulus", modulus, 2)
        if len(coeffs) != order:
            raise InvalidInput(f"expected {order} coefficients, got {len(coeffs)}")
        # min and max need one item at least: order >= 1 and the length equals it.
        if min(coeffs) < 0 or max(coeffs) >= modulus:
            raise InvalidInput("coefficients must be canonical residues in [0, q)")
        return super().__new__(cls, order, modulus, coeffs)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, would skip __new__'s checks.
        return cls(*iterable)


def _check_match(a: CirculantElem, b: CirculantElem) -> None:
    if a.order != b.order or a.modulus != b.modulus:
        raise ShapeMismatch(
            f"mixed rings: order {a.order} mod {a.modulus} vs order {b.order} mod {b.modulus}"
        )


# ---------------------------------------------------------------------------
# constructors


def identity(n: int, q: int) -> CirculantElem:
    _check_int("q", q, 2)
    return CirculantElem(n, q, (1,) + (0,) * (n - 1))


def shift_power(n: int, q: int, s: int) -> CirculantElem:
    """The s-th power of the cyclic shift: a single 1 at index s mod n."""
    _check_int("n", n, 1)
    _check_int("q", q, 2)
    _check_int("s", s, 0)
    coeffs = [0] * n
    coeffs[s % n] = 1
    return CirculantElem(n, q, tuple(coeffs))


def _geom_rule(n: int, m: int, q: int) -> tuple[int, int, int]:
    """(extra, high, low): the coefficients of I + S + ... + S**(m-1) of order n
    over Z_q are high below index extra and low from it on.

    Coefficient j counts how many i in [0, m) land in residue class j mod n,
    which is floor(m/n) plus one when j < m mod n; both are reduced mod q.
    """
    base, extra = divmod(m, n)
    return extra, (base + 1) % q, base % q


def geom_sum(n: int, m: int, q: int) -> CirculantElem:
    """I + S + ... + S**(m-1) of order n over Z_q, by _geom_rule."""
    _check_int("n", n, 1)
    _check_int("m", m, 1)
    _check_int("q", q, 2)
    extra, high, low = _geom_rule(n, m, q)
    return CirculantElem(n, q, (high,) * extra + (low,) * (n - extra))


def multiples_indicator(n: int, q: int, step: int) -> CirculantElem:
    """Sum of S**c over all indices c in [0, n) divisible by step; needs step | n."""
    _check_int("q", q, 2)
    _check_int("step", step, 1)
    if n % step != 0:
        raise InvalidInput(f"step {step} does not divide order {n}")
    coeffs = tuple(1 if j % step == 0 else 0 for j in range(n))
    return CirculantElem(n, q, coeffs)


# ---------------------------------------------------------------------------
# ring operations


def add(a: CirculantElem, b: CirculantElem) -> CirculantElem:
    _check_match(a, b)
    q = a.modulus
    return CirculantElem(
        a.order, q, tuple((x + y) % q for x, y in zip(a.coeffs, b.coeffs))
    )


def scalar_mul(c: int, a: CirculantElem) -> CirculantElem:
    q = a.modulus
    c %= q
    return CirculantElem(a.order, q, tuple(c * x % q for x in a.coeffs))


# The offset of byte j, from the low end, of an 8-byte array item.
_BYTE = range(8) if sys.byteorder == "little" else range(7, -1, -1)


def _pack(coeffs, w: int) -> int:
    """The coefficients as one int, coefficient j in bytes [j*w, (j+1)*w): the low
    min(w, 8) bytes of each, one strided copy per byte. Exact: a coefficient, like a
    slot that _reduce returns, is below q <= 2**64 - 1, and r > top >= (q - 1)**2 in
    _scalars gives (q - 1)**4 <= top*r < 2**(16*w), so q - 1 < 2**(8*w)."""
    items, slots = array("Q", coeffs).tobytes(), bytearray(len(coeffs) * w)
    for j in range(min(w, 8)):
        slots[j::w] = items[_BYTE[j]::8]
    return int.from_bytes(slots, "little")


def _unpack(value: int, n: int, w: int):
    """The n slots of w bytes of value as 8-byte items, inverse of _pack."""
    slots, items = value.to_bytes(n * w, "little"), bytearray(8 * n)
    for j in range(min(w, 8)):
        items[_BYTE[j]::8] = slots[j::w]
    return array("Q", items)


def _scalars(n: int, q: int) -> tuple[int, int, int]:
    """(w, s, r) of _layout(n, q); w does not decrease with q (see _block_walk)."""
    top = n * (q - 1) ** 2
    s = top.bit_length() + q.bit_length()
    r = -(-(1 << s) // q)
    return ((top * r).bit_length() + 15) // 16, s, r


# Cached: a layout costs more than a small product; repeated mul and power on one ring reuse it.
@functools.lru_cache(maxsize=64)
def _layout(n: int, q: int) -> tuple:
    """Bytes per slot w, and the constants (w, s, r, half, even, low, slot, fold) of
    _reduce: of a product's 2n slots, half masks and fold = 8*n*w shifts out the
    lower n; of two of those, even masks and slot = 8*w shifts out the lower; low a quotient.

    A folded slot v is at most top = n*(q-1)**2 < 2**s / q, so r = ceil(2**s / q)
    gives floor(v*r / 2**s) = floor(v / q) (Granlund and Montgomery, "Division by
    invariant integers using multiplication", PLDI 1994). Two slots hold top*r.
    """
    w, s, r = _scalars(n, q)
    pairs = (n + 1) // 2
    return (w, s, r) + tuple(int.from_bytes(mask, "little") for mask in (
        b"\xff" * (n * w),
        ((1 << 8 * w) - 1).to_bytes(2 * w, "little") * pairs,
        ((1 << (16 * w - s)) - 1).to_bytes(2 * w, "little") * pairs)) + (8 * w, 8 * n * w)


def _reduce(prod: int, q: int, layout: tuple) -> int:
    """prod, a product of two n-slot ints, folded modulo x**n - 1 and reduced mod q:
    even slots, then odd, none carries. prod < 2**(2*fold): its upper n need no mask."""
    _, s, r, half, even, low, slot, fold = layout
    v = (prod & half) + (prod >> fold)
    lo, hi = v & even, (v >> slot) & even
    lo -= q * (((lo * r) >> s) & low)
    hi -= q * (((hi * r) >> s) & low)
    return lo | (hi << slot)


def mul(a: CirculantElem, b: CirculantElem) -> CirculantElem:
    """Cyclic convolution: result[k] = sum of a[i]*b[j] over i+j = k mod n.

    Kronecker substitution: each vector is packed into one int with w bytes per
    coefficient, the two ints are multiplied once (Karatsuba in CPython), and
    _reduce folds the product modulo x**n - 1 and reduces it mod q. Every slot,
    unfolded or folded, is at most n*(q-1)**2, so it is exact at any modulus.
    """
    _check_match(a, b)
    n, q = a.order, a.modulus
    layout = _layout(n, q)
    prod = _pack(a.coeffs, layout[0]) * _pack(b.coeffs, layout[0])
    return CirculantElem(n, q, tuple(_unpack(_reduce(prod, q, layout), n, layout[0])))


def _first_zero_power(a: CirculantElem, bound: int) -> int | None:
    """Smallest k in [1, bound] with a**k = 0, or None: _walk on a packed."""
    layout = _layout(a.order, a.modulus)
    return _walk(_pack(a.coeffs, layout[0]), a.modulus, layout, bound)


def _block_walk(n: int, ms: range, q: int | None = None) -> list[int | None]:
    """[_first_zero_power(geom_sum(n, m, q or m), n) for m in ms], ms ascending.

    A power of zero makes every later power zero, so the walk to the bound n finds
    a zero power only if T**(2**k) = 0, 2**k the least power of two >= n. Each T
    first takes the k = ceil(log2 n) squarings of _power T**(2**k): a nonzero one
    gives None, and only a zero one is walked, T, T**2, ... to its first zero power
    or n. So a T that is not nilpotent costs k products, not the walk's n - 1; every
    index is the walk's, and one in (n, 2**k], as over Z_(p**e), reads None.

    Over Z_q: one layout, one _power per distinct packed T, the memo key. Over Z_m
    (q None) each cell is its own ring: bisection cuts the block where a cell's own
    slot width w changes, each part takes the layout of its largest modulus M, and
    each cell q swaps in r_q = ceil(2**s / q) for M's s. Exact, with top_q =
    n*(q-1)**2: 2**s > top_M*M >= top_q*q, so floor(v*r_q / 2**s) = floor(v/q) for
    v <= top_q; (q-1)**2/q grows by over 1/2 per step and n*2**s/2 > top_q, so
    top_q*r_q < top_M*2**s/M <= top_M*r_M < 2**(16w) for q < M. So M's slots and
    masks serve q; under each q's own s, top*r grows with q: w does not fall.
    """
    found = []
    while ms:  # Z_q: the whole block; Z_m: the cells of ms[0]'s own w
        cut = len(ms) if q else bisect.bisect_right(
            ms, _scalars(n, ms[0])[0], key=lambda m: _scalars(n, m)[0])
        layout = _layout(n, q or ms[cut - 1])
        slot, s, memo = 8 * layout[0], layout[1], {}
        ones = ((1 << slot * n) - 1) // ((1 << slot) - 1)  # a 1 in each of the n slots
        for m in ms[:cut]:
            # T packed: every slot low, the first extra slots high; each is in [0, q or m).
            extra, high, low = _geom_rule(n, m, q or m)
            t = low * ones + (high - low) * (ones & ((1 << slot * extra) - 1))
            if q is None or t not in memo:  # over Z_m every cell is its own ring
                cell = layout if q else layout[:2] + (-(-(1 << s) // m),) + layout[3:]
                zero = not _power(t, 1 << (n - 1).bit_length(), q or m, cell)  # T**(2**k) = 0
                memo[t] = _walk(t, q or m, cell, n) if zero else None
            found.append(memo[t])
        ms = ms[cut:]
    return found


def _walk(a: int, q: int, layout: tuple, bound: int) -> int | None:
    """Smallest k in [1, bound] with a**k = 0, or None, for a packed by a layout
    that serves q (see _block_walk): each power times a, reduced, is the next, and
    no power past bound is computed. A reduced power is 0 exactly when it is zero."""
    acc, k = a, 1
    while acc:
        if k == bound:
            return None
        acc, k = _reduce(acc * a, q, layout), k + 1
    return k


def power(a: CirculantElem, k: int) -> CirculantElem:
    """a**k by left-to-right square-and-multiply on a packed once; k = 0 gives the identity.

    k >= 1 takes k.bit_length() - 1 squarings and popcount(k) - 1 products by a,
    each a multiply and a _reduce as in mul; no product is by the identity.
    """
    _check_int("k", k, 0)
    n, q = a.order, a.modulus
    if k == 0:
        return identity(n, q)
    layout = _layout(n, q)
    result = _power(_pack(a.coeffs, layout[0]), k, q, layout)
    return CirculantElem(n, q, tuple(_unpack(result, n, layout[0])))


def _power(base: int, k: int, q: int, layout: tuple) -> int:
    """base**k, k >= 1, for base packed by a layout that serves q (see _block_walk):
    left-to-right square-and-multiply, a product and a _reduce a step; k = 2**j is j squarings."""
    result = base
    for bit in bin(k)[3:]:
        result = _reduce(result * result, q, layout)
        if bit == "1":
            result = _reduce(result * base, q, layout)
    return result


def is_zero(a: CirculantElem) -> bool:
    return not any(a.coeffs)

