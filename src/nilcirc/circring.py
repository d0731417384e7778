"""The commutative ring of circulant matrices of order n over Z_q.

An element is stored as its length-n coefficient vector: coefficient j is
attached to the j-th power of the cyclic shift, so the element is the
polynomial sum(coeffs[j] * S**j) taken modulo S**n = I. Coefficients are kept
canonical in [0, q).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass

from .errors import InvalidInput, ShapeMismatch
from .numutil import _check_int


@dataclass(frozen=True)
class CirculantElem:
    order: int
    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _check_int("order", self.order, 1)
        _check_int("modulus", self.modulus, 2)
        if len(self.coeffs) != self.order:
            raise InvalidInput(
                f"expected {self.order} coefficients, got {len(self.coeffs)}"
            )
        # min and max need one item at least: order >= 1 and the length equals it.
        if min(self.coeffs) < 0 or max(self.coeffs) >= self.modulus:
            raise InvalidInput("coefficients must be canonical residues in [0, q)")


def _check_match(a: CirculantElem, b: CirculantElem) -> None:
    if a.order != b.order or a.modulus != b.modulus:
        raise ShapeMismatch(
            f"mixed rings: order {a.order} mod {a.modulus} vs order {b.order} mod {b.modulus}"
        )


# ---------------------------------------------------------------------------
# constructors


def identity(n: int, q: int) -> CirculantElem:
    return CirculantElem(n, q, (1 % q,) + (0,) * (n - 1))


def shift_power(n: int, q: int, s: int) -> CirculantElem:
    """The s-th power of the cyclic shift: a single 1 at index s mod n."""
    _check_int("s", s, 0)
    coeffs = [0] * n
    coeffs[s % n] = 1 % q
    return CirculantElem(n, q, tuple(coeffs))


def geom_sum(n: int, m: int, q: int) -> CirculantElem:
    """I + S + ... + S**(m-1) of order n over Z_q.

    Coefficient j counts how many i in [0, m) land in residue class j mod n,
    which is floor(m/n) plus one when j < m mod n.
    """
    _check_int("n", n, 1)
    _check_int("m", m, 1)
    base, extra = divmod(m, n)
    coeffs = tuple((base + (1 if j < extra else 0)) % q for j in range(n))
    return CirculantElem(n, q, coeffs)


def multiples_indicator(n: int, q: int, step: int) -> CirculantElem:
    """Sum of S**c over all indices c in [0, n) divisible by step; needs step | n."""
    _check_int("step", step, 1)
    if n % step != 0:
        raise InvalidInput(f"step {step} does not divide order {n}")
    coeffs = tuple((1 % q) if j % step == 0 else 0 for j in range(n))
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


# Slot widths in bytes that an array typecode of exactly that item size packs at
# C speed; other widths go through int.to_bytes one coefficient at a time.
_TYPECODES = {array(code).itemsize: code for code in "BHIQ"}
_SWAP = sys.byteorder == "big"  # slots are little-endian on every platform


def _pack(coeffs, w: int) -> int:
    """The coefficients as one int, coefficient j in bytes [j*w, (j+1)*w)."""
    code = _TYPECODES.get(w)
    if code is None:
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in coeffs), "little")
    slots = array(code, coeffs)
    if _SWAP:
        slots.byteswap()
    return int.from_bytes(slots.tobytes(), "little")


def _unpack(value: int, n: int, w: int):
    """The n slots of w bytes of value, inverse of _pack."""
    data = value.to_bytes(n * w, "little")
    code = _TYPECODES.get(w)
    if code is None:
        return [int.from_bytes(data[i : i + w], "little") for i in range(0, n * w, w)]
    slots = array(code, data)
    if _SWAP:
        slots.byteswap()
    return slots


def _width(n: int, q: int) -> int:
    """Bytes per slot that hold n*(q-1)**2, the largest folded coefficient."""
    return ((n * (q - 1) ** 2).bit_length() + 7) // 8


def _fold(prod: int, n: int, q: int, w: int) -> list:
    """The product of two packed vectors, folded modulo x**n - 1, each slot mod q."""
    shift = 8 * n * w
    folded = (prod >> shift) + (prod & ((1 << shift) - 1))
    return [v % q for v in _unpack(folded, n, w)]


def mul(a: CirculantElem, b: CirculantElem) -> CirculantElem:
    """Cyclic convolution: result[k] = sum of a[i]*b[j] over i+j = k mod n.

    Kronecker substitution: each vector is packed into one int with w bytes per
    coefficient, the two ints are multiplied once (Karatsuba in CPython), and the
    product is folded modulo x**n - 1. A folded coefficient sums n products of
    residues, at most n*(q-1)**2, so w bytes holding that bound keep every slot
    exact, unfolded or folded, at any modulus.
    """
    _check_match(a, b)
    n, q = a.order, a.modulus
    w = _width(n, q)
    return CirculantElem(n, q, tuple(_fold(_pack(a.coeffs, w) * _pack(b.coeffs, w), n, q, w)))


def powers(a: CirculantElem):
    """The coefficient lists of a, a**2, a**3, ..., without end.

    a is packed once; each next power is one multiply of the packed previous
    power by packed a, folded, and repacked from its reduced slots before it
    is yielded, so changing a yielded list changes no later power. The powers
    are not checked again as elements: a already was, and every slot is
    reduced mod q.
    """
    n, q = a.order, a.modulus
    w = _width(n, q)
    packed = acc = _pack(a.coeffs, w)
    coeffs = list(a.coeffs)
    while True:
        yield coeffs
        coeffs = _fold(acc * packed, n, q, w)
        acc = _pack(coeffs, w)


def power(a: CirculantElem, k: int) -> CirculantElem:
    """a**k by square-and-multiply; k = 0 gives the identity."""
    _check_int("k", k, 0)
    result = identity(a.order, a.modulus)
    base = a
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def is_zero(a: CirculantElem) -> bool:
    return not any(a.coeffs)

