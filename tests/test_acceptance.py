"""Acceptance gate: every criterion at its stated tolerance (exact equality).

Each criterion is one test; the terminal summary prints one PASS/FAIL line per
criterion (see conftest.py). Expected total runtime is well under the stated
budgets on commodity hardware.
"""

import dataclasses
import json
import math
import random
from pathlib import Path

from nilcirc import circring, congruence, nilpotence, oracle
from nilcirc.cli import main

GOLDEN = Path(__file__).parent / "golden"

PRIMES = (2, 3, 5, 7)
GRID_MAX = 48


def test_criterion_1_theorem1_grid():
    """Closed-form verdict and index match brute force on all 9216 cells."""
    cells = 0
    for p in PRIMES:
        for n in range(1, GRID_MAX + 1):
            for m in range(1, GRID_MAX + 1):
                verdict = nilpotence.decide_zp(n, m, p)
                found = oracle.min_nilpotent_index(circring.geom_sum(n, m, p), n)
                assert (found is not None) == verdict.nilpotent, (n, m, p)
                if verdict.nilpotent:
                    assert found == verdict.index, (n, m, p, found, verdict.index)
                cells += 1
    assert cells == 4 * 48 * 48


def test_criterion_2_corollary1_grid():
    """Both decision routes and the Z_m oracle agree; index is at most n."""
    for m in range(2, 37):
        for n in range(1, 37):
            literal = nilpotence.decide_zm(n, m)
            per_prime = nilpotence.decide_zm_via_primes(n, m)
            found = oracle.min_nilpotent_index(circring.geom_sum(n, m, m), n)
            assert literal.nilpotent == per_prime.nilpotent == (found is not None), (n, m)
            if found is not None:
                assert found <= n, (n, m, found)


def test_criterion_3_lemma1_triple_agreement():
    """Closed form = recursion = enumeration for every target c, every instance."""
    instances = 0
    for d in (2, 3, 5):
        for m_star in range(1, 13):
            if math.gcd(d, m_star) != 1:
                continue
            for n_star in range(1, m_star + 1):
                if m_star % n_star or math.gcd(d, n_star) != 1:
                    continue
                for qvars in (1, 2, 3):
                    inst = congruence.validate(d, m_star, n_star, qvars)
                    if inst.m**qvars > congruence.ENUM_BUDGET:
                        continue
                    closed = congruence.count_closed_form(inst)
                    hist = congruence.counts_by_target(inst)
                    assert set(hist) == {closed}, inst  # enumeration, c-independent
                    for c in range(inst.n):
                        rec = congruence.count_recursive(dataclasses.replace(inst, c=c))
                        assert rec == closed, (inst, c)
                    assert sum(hist) == inst.m**qvars
                    instances += 1
    assert instances > 100


def test_criterion_4_identity_suite():
    """Expansion identity everywhere; witness and annihilation on nilpotent cells."""
    for p in PRIMES:
        for b in range(1, 5):
            for a in range(b, 13):
                value = nilpotence.index_expansion(a, b, p)
                assert value == nilpotence.decide_zp(p**a, p**b, p).index, (a, b, p)

    checked = 0
    for p in PRIMES:
        for n in range(1, GRID_MAX + 1):
            for m in range(1, GRID_MAX + 1):
                verdict = nilpotence.decide_zp(n, m, p)
                if not verdict.nilpotent or verdict.a < verdict.b:
                    continue
                v, elem, matches, annihilates = nilpotence.witness_nonvanishing(n, m, p)
                assert v == verdict, (n, m, p)
                assert matches, (n, m, p)
                assert not circring.is_zero(elem), (n, m, p)
                assert annihilates, (n, m, p)
                checked += 1
    assert checked > 100


def test_criterion_5_ring_properties():
    """1000 Frobenius checks, 1000 geometric-series checks, ring axioms."""
    rng = random.Random(20260819)

    def elem(n, q):
        return circring.CirculantElem(n, q, tuple(rng.randrange(q) for _ in range(n)))

    for _ in range(1000):
        n = rng.randrange(1, 17)
        p = rng.choice((2, 3, 5))
        k = rng.choice((1, 2))
        assert oracle.frobenius_check(elem(n, p), elem(n, p), k)

    for _ in range(1000):
        n = rng.randrange(1, 25)
        m = rng.randrange(1, 25)
        q = rng.randrange(2, 13)
        assert oracle.geometric_identity_check(n, m, q)

    for _ in range(300):
        n = rng.randrange(1, 13)
        q = rng.randrange(2, 17)
        a, b, c = elem(n, q), elem(n, q), elem(n, q)
        one, nil = circring.identity(n, q), circring.CirculantElem(n, q, (0,) * n)
        assert circring.mul(a, b) == circring.mul(b, a)
        assert circring.mul(circring.mul(a, b), c) == circring.mul(a, circring.mul(b, c))
        assert circring.mul(a, circring.add(b, c)) == circring.add(
            circring.mul(a, b), circring.mul(a, c)
        )
        assert circring.mul(a, one) == a
        assert circring.add(a, nil) == a
        assert circring.mul(a, nil) == nil


def test_criterion_6_cli_contract(capsys):
    """Golden files for decide and scan; exit codes 0/1/2/3 as documented."""

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # golden: the three decide examples
    code, out, _ = run("decide", "--n", "8", "--m", "2", "--p", "2", "--json")
    assert code == 0 and out == (GOLDEN / "decide_zp.json").read_text()
    code, out, _ = run("decide", "--n", "4", "--m", "6", "--zm")
    assert code == 0 and out == (GOLDEN / "decide_zm.txt").read_text()
    code, out, err = run("decide", "--n", "8", "--m", "2", "--p", "4")
    assert code == 3 and "InvalidPrime" in err

    # golden: one scan CSV
    code, out, _ = run(
        "scan", "--zm", "--n-max", "12", "--m-max", "12",
        "--verify", "--format", "csv", "--jobs", "1",
    )
    assert code == 0 and out == (GOLDEN / "scan_zm_12x12_verify.csv").read_text()

    # the pinned verification run
    code, out, _ = run("scan", "--p", "2", "--n-max", "16", "--m-max", "16", "--verify")
    assert code == 0

    # exit-code conformance: 0 success, 2 usage, 3 invalid input
    assert run("decide", "--n", "4", "--m", "6", "--p", "3")[0] == 0
    assert run("scan", "--p", "3", "--n-max", "0")[0] == 2
    assert run("decide", "--n", "8", "--m", "2")[0] == 2
    assert run("lemma1", "--d", "2", "--m-star", "4", "--n-star", "1", "--q", "1")[0] == 3
    assert run("identities", "--n", "4", "--m", "6", "--p", "3")[0] == 3

    # JSON output parses and matches the documented schema keys
    code, out, _ = run("decide", "--n", "9", "--m", "3", "--p", "3", "--json")
    doc = json.loads(out)
    assert list(doc) == ["n", "m", "p", "a", "b", "n_star", "m_star", "nilpotent", "index"]
    assert doc["index"] == 5
