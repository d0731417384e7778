"""Counting solutions of x_0 + d*x_1 + ... + d**(q-1)*x_{q-1} = c (mod n).

Here m = d*m_star, n = d**q * n_star, with d coprime to both starred parts and
n_star dividing m_star; the variables range over [0, m). Three independent
counters are provided: the closed form (m_star**q / n_star), a brute-force
histogram over every target (built one variable at a time from the values each
term d**i * x_i takes, using none of the hypotheses), and a recursion that
mirrors how the closed form arises (branch on x_0 mod d, divide through by d,
recurse with one variable fewer).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import CoprimalityViolated, DivisibilityViolated
from .numutil import _check_int, check_budget, pow_checked

ENUM_BUDGET = 10**7


@dataclass(frozen=True)
class Lemma1Instance:
    d: int
    m_star: int
    n_star: int
    qvars: int
    c: int

    def __post_init__(self) -> None:
        """Check the hypotheses, however the instance is built, and reduce c mod n."""
        d, m_star, n_star = self.d, self.m_star, self.n_star
        _check_int("d", d, 2)
        _check_int("m_star", m_star, 1)
        _check_int("n_star", n_star, 1)
        _check_int("qvars", self.qvars, 1)
        if math.gcd(d, m_star) != 1:
            raise CoprimalityViolated(f"gcd(d={d}, m_star={m_star}) != 1")
        if math.gcd(d, n_star) != 1:
            raise CoprimalityViolated(f"gcd(d={d}, n_star={n_star}) != 1")
        if m_star % n_star != 0:
            raise DivisibilityViolated(f"n_star={n_star} does not divide m_star={m_star}")
        _check_int("m", d * m_star, 2)
        n = _check_int("n", pow_checked(d, self.qvars) * n_star, 1)
        object.__setattr__(self, "c", self.c % n)  # frozen

    @property
    def m(self) -> int:
        return self.d * self.m_star

    @property
    def n(self) -> int:
        return self.d**self.qvars * self.n_star

    def to_json_dict(self) -> dict:
        return {**asdict(self), "m": self.m, "n": self.n}


def validate(d: int, m_star: int, n_star: int, qvars: int, c: int = 0) -> Lemma1Instance:
    """The instance, which checks the hypotheses, with c reduced mod n."""
    return Lemma1Instance(d, m_star, n_star, qvars, c)


def count_closed_form(inst: Lemma1Instance) -> int:
    """m_star**qvars / n_star; exact since n_star | m_star. Independent of c."""
    total = pow_checked(inst.m_star, inst.qvars)
    return total // inst.n_star


def counts_by_target(inst: Lemma1Instance) -> list[int]:
    """The number of tuples in [0, m)**qvars hitting each target c in [0, n).

    Built one variable at a time: hist[j] counts the tuples of the variables so
    far whose partial sum is j mod n, and variable i moves each partial sum by
    every step w*y mod n, w = d**i mod n. That step depends only on y mod
    period, period = n / gcd(w, n), so x_i in [0, m) takes min(m, period)
    distinct steps, step y taken by m // period + (y < m % period) values of
    x_i. At most m**i partial sums are nonzero before variable i, so the work is
    qvars passes over two lists of n plus at most m + m**2 + ... + m**qvars
    steps, no more than twice the m**qvars tuples a flat enumeration visits;
    the budget is still on m**qvars.
    """
    m, n = inst.m, inst.n
    check_budget(f"counting {m}**{inst.qvars} tuples", m**inst.qvars, ENUM_BUDGET)
    hist = [1] + [0] * (n - 1)
    for i in range(inst.qvars):
        w = pow(inst.d, i, n)
        period = n // math.gcd(w, n)
        base, extra = divmod(m, period)
        steps = [(w * y % n, base + (y < extra)) for y in range(min(m, period))]
        new = [0] * n
        for j, h in enumerate(hist):
            if h:
                for s, k in steps:
                    new[(j + s) % n] += h * k
        hist = new
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
