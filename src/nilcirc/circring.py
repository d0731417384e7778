"""The commutative ring of circulant matrices of order n over Z_q.

An element is stored as its length-n coefficient vector: coefficient j is
attached to the j-th power of the cyclic shift, so the element is the
polynomial sum(coeffs[j] * S**j) taken modulo S**n = I. Coefficients are kept
canonical in [0, q).
"""

from __future__ import annotations

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
        if any(c < 0 or c >= self.modulus for c in self.coeffs):
            raise InvalidInput("coefficients must be canonical residues in [0, q)")


def _check_match(a: CirculantElem, b: CirculantElem) -> None:
    if a.order != b.order or a.modulus != b.modulus:
        raise ShapeMismatch(
            f"mixed rings: order {a.order} mod {a.modulus} vs order {b.order} mod {b.modulus}"
        )


# ---------------------------------------------------------------------------
# constructors


def zero(n: int, q: int) -> CirculantElem:
    return CirculantElem(n, q, (0,) * n)


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


def mul(a: CirculantElem, b: CirculantElem) -> CirculantElem:
    """Cyclic convolution: result[k] = sum of a[i]*b[j] over i+j = k mod n.

    Schoolbook O(n^2); accumulation is exact (Python ints), reduced once per
    output coefficient.
    """
    _check_match(a, b)
    n, q = a.order, a.modulus
    bc = b.coeffs
    acc = [0] * n
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        head = n - i
        acc[i:] = [u + ai * v for u, v in zip(acc[i:], bc[:head])]
        if i:
            acc[:i] = [u + ai * v for u, v in zip(acc[:i], bc[head:])]
    return CirculantElem(n, q, tuple(v % q for v in acc))


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
    return all(c == 0 for c in a.coeffs)

