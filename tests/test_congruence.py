import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcirc import congruence
from nilcirc.congruence import (
    Lemma1Instance,
    count_closed_form,
    count_recursive,
    counts_by_target,
    validate,
)
from nilcirc.errors import (
    BudgetExceeded,
    CoprimalityViolated,
    DivisibilityViolated,
    InputError,
    InvalidInput,
    Overflow,
)


def flat_counts(inst):
    """The small-instance reference: every tuple of [0, m)**qvars, histogrammed
    by x_0 + d*x_1 + ... + d**(qvars-1)*x_(qvars-1) mod n."""
    weights = [pow(inst.d, i, inst.n) for i in range(inst.qvars)]
    hist = [0] * inst.n
    for xs in itertools.product(range(inst.m), repeat=inst.qvars):
        hist[sum(w * x for w, x in zip(weights, xs)) % inst.n] += 1
    return hist


@st.composite
def small_instances(draw, tuples=4096):
    """A valid instance with m**qvars <= tuples."""
    d = draw(st.integers(2, 12))
    m_star = draw(st.integers(1, tuples // d).filter(lambda x: math.gcd(x, d) == 1))
    n_star = draw(st.sampled_from([k for k in range(1, m_star + 1) if m_star % k == 0]))
    m, qvars = d * m_star, 1
    while m ** (qvars + 1) <= tuples:
        qvars += 1
    return validate(d, m_star, n_star, draw(st.integers(1, qvars)))


def test_validate_accepts_hypotheses():
    inst = validate(2, 3, 1, 2)
    assert (inst.m, inst.n) == (6, 4)
    assert inst.c == 0


def test_validate_rejects_violations():
    with pytest.raises(CoprimalityViolated):
        validate(2, 4, 1, 1)
    with pytest.raises(CoprimalityViolated):
        validate(3, 7, 3, 1)  # d shares a factor with n_star
    with pytest.raises(DivisibilityViolated):
        validate(3, 2, 4, 1)
    with pytest.raises(InvalidInput):
        validate(2, 3, 1, 0)
    with pytest.raises(InvalidInput):
        validate(1, 3, 1, 2)
    with pytest.raises(InvalidInput):
        validate(2, 0, 1, 2)


def test_validate_reduces_c():
    assert validate(2, 3, 1, 2, c=7).c == 3
    assert validate(2, 3, 1, 2, c=-1).c == 3


def test_validate_builds_one_instance_and_checks_it_once(spy):
    # The instance reduces c itself, so validate need not build a second one.
    checks = spy(Lemma1Instance, "__post_init__")
    assert validate(2, 3, 1, 2, c=7).c == 3
    assert len(checks) == 1
    assert Lemma1Instance(2, 3, 1, 2, -1).c == 3


def test_closed_form_examples():
    assert count_closed_form(validate(2, 3, 1, 2)) == 9
    assert count_closed_form(validate(2, 3, 3, 1)) == 1
    assert count_closed_form(validate(3, 4, 2, 2)) == 8


def test_closed_form_overflow():
    inst = validate(3, 2**33, 1, 2)
    with pytest.raises(Overflow):
        count_closed_form(inst)


def test_enumerate_examples():
    assert counts_by_target(validate(2, 3, 1, 2))[0] == 9
    assert counts_by_target(validate(2, 1, 1, 1))[0] == 1
    assert counts_by_target(validate(2, 3, 1, 2))[3] == 9


def test_enumerate_budget(monkeypatch):
    inst = validate(2, 3, 1, 2)
    monkeypatch.setattr(congruence, "ENUM_BUDGET", 35)
    with pytest.raises(BudgetExceeded):
        counts_by_target(inst)  # 6**2 = 36 tuples needed
    monkeypatch.setattr(congruence, "ENUM_BUDGET", 36)
    assert counts_by_target(inst)[0] == 9


@given(small_instances())
@settings(max_examples=150, deadline=None)
def test_histogram_matches_flat_enumeration(inst):
    assert counts_by_target(inst) == flat_counts(inst)


def test_histogram_past_the_enumeration_budget(monkeypatch):
    # 18**12 tuples, about 1.2e15: only the budget keeps the histogram from it
    inst = validate(2, 9, 3, 12)
    monkeypatch.setattr(congruence, "ENUM_BUDGET", inst.m**inst.qvars)
    hist = counts_by_target(inst)
    assert len(hist) == inst.n == 12288
    assert set(hist) == {count_closed_form(inst)} == {9**12 // 3}


def test_recursive_examples():
    assert count_recursive(validate(2, 3, 1, 2, c=1)) == 9
    assert count_recursive(validate(2, 3, 3, 1, c=5)) == 1
    assert count_recursive(validate(3, 4, 2, 2, c=0)) == 8


def test_recursive_base_case_is_m_over_n():
    # one variable: x_0 = c (mod n) on [0, m) has exactly m/n solutions
    for d, m_star, n_star in [(2, 3, 3), (3, 4, 2), (5, 12, 4)]:
        inst = validate(d, m_star, n_star, 1, c=1)
        assert count_recursive(inst) == inst.m // inst.n


def test_total_mass():
    for args in [(2, 3, 1, 2), (3, 4, 2, 2), (2, 5, 5, 3)]:
        inst = validate(*args)
        hist = counts_by_target(inst)
        assert sum(hist) == inst.m**inst.qvars


def test_c_independence_and_triple_agreement_small():
    for args in [(2, 3, 1, 2), (3, 4, 2, 2), (2, 5, 1, 3), (5, 6, 3, 2)]:
        inst = validate(*args)
        closed = count_closed_form(inst)
        hist = counts_by_target(inst)
        assert set(hist) == {closed}
        for c in range(inst.n):
            assert count_recursive(dataclasses.replace(inst, c=c)) == closed


def test_instance_serialization():
    inst = validate(2, 3, 1, 2, c=3)
    assert inst.to_json_dict() == {
        "d": 2, "m_star": 3, "n_star": 1, "qvars": 2, "c": 3, "m": 6, "n": 4,
    }


def test_enumeration_is_ground_truth():
    # spot-check the closed form against a hand-rolled loop, no shared code
    inst = validate(3, 4, 2, 2, c=5)
    direct = sum(
        1
        for x0 in range(12)
        for x1 in range(12)
        if (x0 + 3 * x1) % 18 == 5
    )
    assert direct == 8 == count_closed_form(inst)


def test_instance_checks_its_own_hypotheses():
    # Built directly, without validate: every instance is refused or counted right.
    for fields in itertools.product((-1, 0, 1, 2), repeat=5):
        try:
            inst = Lemma1Instance(*fields)
        except InputError:
            continue
        closed = count_closed_form(inst)
        assert count_recursive(inst) == closed
        assert counts_by_target(inst)[inst.c % inst.n] == closed


def test_instance_derived_fields():
    inst = Lemma1Instance(d=2, m_star=3, n_star=1, qvars=2, c=0)
    assert inst.m == 6
    assert inst.n == 4
