"""Counting solutions of x_0 + d*x_1 + ... + d**(q-1)*x_{q-1} = c (mod n).

Here m = d*m_star, n = d**q * n_star, with d coprime to both starred parts and
n_star dividing m_star; the variables range over [0, m). Three independent
counters are provided: the closed form (m_star**q / n_star), a flat
enumeration, and a recursion that mirrors how the closed form arises (branch
on x_0 mod d, divide through by d, recurse with one variable fewer).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

from .errors import BudgetExceeded, CoprimalityViolated, DivisibilityViolated
from .numutil import _check_int, pow_checked

ENUM_BUDGET = 10**7


@dataclass(frozen=True)
class Lemma1Instance:
    d: int
    m_star: int
    n_star: int
    qvars: int
    c: int

    @property
    def m(self) -> int:
        return self.d * self.m_star

    @property
    def n(self) -> int:
        return self.d**self.qvars * self.n_star

    def to_json_dict(self) -> dict:
        return {**asdict(self), "m": self.m, "n": self.n}


def validate(d: int, m_star: int, n_star: int, qvars: int, c: int = 0) -> Lemma1Instance:
    """Check the hypotheses and return the instance, with c reduced mod n."""
    _check_int("d", d, 2)
    _check_int("m_star", m_star, 1)
    _check_int("n_star", n_star, 1)
    _check_int("qvars", qvars, 1)
    if math.gcd(d, m_star) != 1:
        raise CoprimalityViolated(f"gcd(d={d}, m_star={m_star}) != 1")
    if math.gcd(d, n_star) != 1:
        raise CoprimalityViolated(f"gcd(d={d}, n_star={n_star}) != 1")
    if m_star % n_star != 0:
        raise DivisibilityViolated(f"n_star={n_star} does not divide m_star={m_star}")
    _check_int("m", d * m_star, 2)
    n = _check_int("n", pow_checked(d, qvars) * n_star, 1)
    return Lemma1Instance(d, m_star, n_star, qvars, c % n)


def count_closed_form(inst: Lemma1Instance) -> int:
    """m_star**qvars / n_star; exact since n_star | m_star. Independent of c."""
    total = pow_checked(inst.m_star, inst.qvars)
    return total // inst.n_star


def counts_by_target(inst: Lemma1Instance) -> list[int]:
    """One enumeration pass, histogrammed over every target c in [0, n)."""
    m, n = inst.m, inst.n
    if m**inst.qvars > ENUM_BUDGET:
        raise BudgetExceeded(f"{m}**{inst.qvars} tuples exceed budget {ENUM_BUDGET}")
    weights = [pow(inst.d, i, n) for i in range(inst.qvars)]
    hist = [0] * n
    for xs in itertools.product(range(m), repeat=inst.qvars):
        val = sum(w * x for w, x in zip(weights, xs)) % n
        hist[val] += 1
    return hist


def count_recursive(inst: Lemma1Instance) -> int:
    """Count by the reduction that proves the closed form.

    Any solution has x_0 = c (mod d); there are m/d = m_star choices of x_0 in
    [0, m), and each turns the equation, after subtracting x_0 and dividing by
    d, into the same problem with qvars - 1 variables and modulus n/d. The
    one-variable base case x_0 = c (mod n) has m/n solutions in [0, m).
    """
    d, n, count = inst.d, inst.n, 1
    for _ in range(inst.qvars - 1):
        n //= d  # the new target (c - x_0) / d does not change the count
        count *= inst.m_star
    return count * (inst.m // n)
