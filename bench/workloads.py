"""Seeded inputs and independent output checks for the three workloads.

Each workload is an endless stream of *units* (a scan cycle or a query block)
drawn from ``random.Random(seed)``. A unit is a list of ``Op``: one CLI call
with its expected exit code and a check of its output. The checks recompute
the answer here, with arithmetic of this file's own, and share no code with
``nilcirc``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
INT_BITS = 44  # point_queries draws n and m up to 2**44 (see README: factorize tail)

Check = Callable[[str, str], Optional[str]]


@dataclass
class Op:
    argv: list[str]
    cells: int  # work units: grid cells for a scan, 1 for a point query
    expect: int  # expected exit code
    check: Check  # (stdout, stderr) -> problem text, or None when correct
    out: Optional[Path] = None  # file the call writes; removed after the check


# ---------------------------------------------------------------------------
# independent arithmetic

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int, rng: random.Random) -> int:
    """A nontrivial factor of the odd composite n (Pollard-Brent)."""
    while True:
        y, c, g, r, q = rng.randrange(1, n), rng.randrange(1, n), 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1."""
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    todo, rng = [n] if n > 1 else [], random.Random(n)
    while todo:
        x = todo.pop()
        if is_prime(x):
            out[x] = out.get(x, 0) + 1
        else:
            f = _rho(x, rng)
            todo += [f, x // f]
    return out


def trial_division_reach(n: int) -> int:
    """Largest divisor a trial-division factorizer must try on n.

    Trial division stops once d*d exceeds what is left, so it reaches the
    second-largest prime, or the square root of the largest when that prime
    occurs once.
    """
    if n < 2:
        return 0
    f = factor(n)
    primes = sorted(f)
    top = primes[-1]
    second = primes[-2] if len(primes) > 1 else 1
    return max(second, math.isqrt(top)) if f[top] == 1 else top


def split(x: int, p: int) -> tuple[int, int]:
    """(a, x_star) with x = p**a * x_star and p not dividing x_star."""
    a = 0
    while x % p == 0:
        x //= p
        a += 1
    return a, x


def zp_expect(n: int, m: int, p: int) -> tuple[bool, Optional[int]]:
    """Theorem 1: nilpotent iff b >= 1 and n* | m*; index ceil(p^a / (p^b - 1))."""
    a, ns = split(n, p)
    b, ms = split(m, p)
    if b >= 1 and ms % ns == 0:
        return True, -(-(p**a) // (p**b - 1))
    return False, None


def zm_expect(n: int, m: int) -> bool:
    """Corollary 1 by the per-prime route: nilpotent over Z_p for every p | m."""
    return all(zp_expect(n, m, p)[0] for p in factor(m))


def loguniform(rng: random.Random, lo: int, bits: int) -> int:
    return max(lo, int(2 ** rng.uniform(0, bits)))


# ---------------------------------------------------------------------------
# output checks


def _check_exit3(out: str, err: str) -> Optional[str]:
    return None if err.startswith("error: ") else f"no error message: {err!r}"


def _check_zp_fields(n, m, p, a, b, ns, ms, nilpotent, index) -> Optional[str]:
    if n != p**a * ns or m != p**b * ms or ns % p == 0 or ms % p == 0:
        return f"bad p-adic split of n={n} m={m} p={p}"
    if (nilpotent, index) != zp_expect(n, m, p):
        return f"wrong verdict n={n} m={m} p={p}: {nilpotent}, {index}"
    return None


_DECIDE_ZP = re.compile(
    r"T\(n=(\d+), m=(\d+)\) over Z_(\d+): (?:nilpotent, index (\d+)|not nilpotent)"
    r" \(a=(\d+), b=(\d+), n\*=(\d+), m\*=(\d+)\)\n\Z"
)


def _check_decide_zp(n: int, m: int, p: int) -> Check:
    def check(out: str, err: str) -> Optional[str]:
        hit = _DECIDE_ZP.match(out)
        if not hit:
            return f"unparsed decide output: {out!r}"
        n_, m_, p_, index, a, b, ns, ms = (
            int(g) if g is not None else None for g in hit.groups()
        )
        if (n_, m_, p_) != (n, m, p):
            return f"echoed wrong point: {out!r}"
        return _check_zp_fields(n, m, p, a, b, ns, ms, index is not None, index)

    return check


def _check_decide_zm(n: int, m: int) -> Check:
    def check(out: str, err: str) -> Optional[str]:
        v = json.loads(out)
        per_prime = v["per_prime"]
        if (v["n"], v["m"]) != (n, m):
            return f"echoed wrong point: {v['n']}, {v['m']}"
        product = 1
        for w in per_prime:
            if not is_prime(w["p"]) or w["n"] != n or w["m"] != m:
                return f"bad per-prime entry {w}"
            product *= w["p"] ** w["b"]
            problem = _check_zp_fields(
                n, m, w["p"], w["a"], w["b"], w["n_star"], w["m_star"],
                w["nilpotent"], w["index"],
            )
            if problem:
                return problem
        if product != m:
            return f"per_prime does not cover m={m}"
        if v["nilpotent"] != all(w["nilpotent"] for w in per_prime):
            return f"Z_m verdict disagrees with per_prime at n={n} m={m}"
        clause = (
            "not_nilpotent" if not v["nilpotent"]
            else "same_prime_powers" if len(per_prime) == 1
            else "multi_prime_divides"
        )
        return None if v["clause"] == clause else f"clause {v['clause']} != {clause}"

    return check


def _check_lemma1(m_star: int, n_star: int, q: int, targets: int) -> Check:
    closed = m_star**q // n_star

    def check(out: str, err: str) -> Optional[str]:
        v = json.loads(out)
        entries = v if isinstance(v, list) else [v]
        if len(entries) != targets:
            return f"{len(entries)} targets reported, expected {targets}"
        for e in entries:
            counts = [e["closed_form"], e["recursive"], e.get("enumerated", closed)]
            if not e["agree"] or counts != [closed] * 3:
                return f"lemma1 count {counts} != {closed}"
        return None

    return check


def _check_identities(lines: int) -> Check:
    def check(out: str, err: str) -> Optional[str]:
        rows = out.splitlines()
        if len(rows) != lines or any(r.split()[1] != "pass" for r in rows):
            return f"identities did not all pass: {out!r}"
        return None

    return check


_SUMMARY = re.compile(
    r"cells (\d+), nilpotent (\d+)\nagreements (\d+), disagreements (\d+)\n\Z"
)


def _check_verify_scan(cells: int, nilpotent: int) -> Check:
    def check(out: str, err: str) -> Optional[str]:
        hit = _SUMMARY.search(out)
        want = (cells, nilpotent, cells, 0)
        if not hit or tuple(map(int, hit.groups())) != want:
            return f"scan summary {out.splitlines()[1:]!r}, expected {want}"
        return None

    return check


def _check_digest(out_file: Path, key: str, digests: dict) -> Check:
    def check(out: str, err: str) -> Optional[str]:
        got = hashlib.sha256(out_file.read_bytes()).hexdigest()
        return None if got == digests.get(key) else f"{key}: sha256 {got}"

    return check


# ---------------------------------------------------------------------------
# oracle_verify: brute-force replay of the closed forms on small grids

VERIFY_GRIDS = (("2", 28, 28), ("3", 28, 28), ("zm", 28, 28))  # (modulus, n_max, m_max)


def oracle_verify(seed: int, tmp: Path) -> Iterator[list[Op]]:
    """Cycles of three `scan --verify` grids, Z_2, Z_3 and Z_m, in seeded order.

    The grids are fixed: the oracle's cost per cell depends on the grid, and
    a drawn grid would move the per-call times from seed to seed.
    """
    rng = random.Random(seed)
    ops = []
    for mode, n_max, m_max in VERIFY_GRIDS:
        ns, ms = range(1, n_max + 1), range(2 if mode == "zm" else 1, m_max + 1)
        if mode == "zm":
            nil = sum(zm_expect(n, m) for n in ns for m in ms)
            flag = ["--zm"]
        else:
            nil = sum(zp_expect(n, m, int(mode))[0] for n in ns for m in ms)
            flag = ["--p", mode]
        argv = ["scan", *flag, "--n-max", str(n_max), "--m-max", str(m_max),
                "--verify", "--jobs", "1"]
        cells = len(ns) * len(ms)
        ops.append(Op(argv, cells, 0, _check_verify_scan(cells, nil)))
    while True:
        yield rng.sample(ops, len(ops))


# ---------------------------------------------------------------------------
# closed_scan: closed-form-only scans of large grids, rendered to files

CLOSED_ZP_PRIMES = (2, 3, 5, 7)
CLOSED_ZP_SHAPES = ((250, 300), (300, 250), (274, 274))  # 75k cells each
CLOSED_ZM_SHAPE = (400, 400)


def closed_configs() -> list[tuple[str, list[str], int]]:
    """Every (digest key, argv without --out, cells) the workload can draw."""
    configs = []
    for p in CLOSED_ZP_PRIMES:
        for n_max, m_max in CLOSED_ZP_SHAPES:
            configs.append((
                f"zp p={p} n={n_max} m={m_max} csv",
                ["scan", "--p", str(p), "--n-max", str(n_max), "--m-max", str(m_max),
                 "--format", "csv", "--jobs", "1"],
                n_max * m_max,
            ))
    n_max, m_max = CLOSED_ZM_SHAPE
    configs.append((
        f"zm n={n_max} m={m_max} json",
        ["scan", "--zm", "--n-max", str(n_max), "--m-max", str(m_max),
         "--format", "json", "--jobs", "1"],
        n_max * (m_max - 1),
    ))
    return configs


def closed_scan(seed: int, tmp: Path) -> Iterator[list[Op]]:
    """Cycles of a Z_p CSV scan for each prime and the Z_m JSON scan, in seeded order.

    The seed draws each Z_p scan's shape from shapes of equal area. Every
    cycle scans the same primes and the Z_m grid, which holds the most memory,
    so neither the time per cycle nor the peak RSS depends on the draw.
    """
    rng = random.Random(seed)
    digests = json.loads(DIGESTS.read_text())
    configs = closed_configs()
    while True:
        chosen = [rng.choice([c for c in configs[:-1] if c[0].startswith(f"zp p={p} ")])
                  for p in CLOSED_ZP_PRIMES]
        unit = []
        for i, (key, argv, cells) in enumerate(rng.sample(chosen + configs[-1:], len(chosen) + 1)):
            out = tmp / f"closed{i}.{key.split()[-1]}"
            unit.append(Op(argv + ["--out", str(out)], cells, 0,
                           _check_digest(out, key, digests), out))
        yield unit


# ---------------------------------------------------------------------------
# point_queries: a seeded stream of one-shot CLI calls

# `decide --zm --json` factorizes m twice by trial division (and n once when
# m is a prime power), so its cost follows the trial-division reach of its
# inputs. On log-uniform draws that reach is heavy-tailed: 1.5 % of the draws
# carry over 40 % of the cost, which would make a block's time depend on the
# seed. Each block therefore takes its random Z_m queries in a fixed number
# per cost class, and draws each one from the log-uniform distribution
# conditioned on its class. The counts are the class frequencies of 300k
# unconditioned draws (`zm_class_shares`: 0.7704, 0.1336, 0.0519, 0.0289,
# 0.0153) times 72, rounded to whole draws.
ZM_CLASS_EDGES = (0, 2**13, 2**16, 2**18, 2**20)
ZM_CLASS_COUNTS = (55, 10, 4, 2, 1)

# The other kinds, per block.
BLOCK_COUNTS = {
    "decide_zp": 100,
    "lemma1_c": 10,
    "lemma1_all": 4,
    "lemma1_enum": 3,
    "identities": 1,
    "identities_random": 2,
    "invalid_prime": 8,
    "invalid_coprime": 8,
}
# The heaviest queries have a fixed size in every block, so that the block's
# time and the p99 do not depend on the seed: balanced semiprimes of these
# bit lengths, and the two largest identities points, n = 2**8 and n = 3**5.
# The two 44-bit semiprimes and n = 3**5 cost about the same and form the top
# 1.4 % of a block, so the p99 falls inside that group rather than at an edge.
SEMIPRIME_BITS = (40, 42, 44, 44)
IDENTITIES_LARGEST = ((2, 8), (3, 5))


def _zm_cost(n: int, m: int) -> int:
    """Trial-division steps `decide --zm --json` spends, up to a constant."""
    cost = 2 * trial_division_reach(m)
    if n > 1 and len(factor(m)) == 1:
        cost += trial_division_reach(n)
    return cost


def _zm_class(cost: int) -> int:
    return sum(cost >= edge for edge in ZM_CLASS_EDGES) - 1


def _draw_zm_point(rng: random.Random) -> tuple[int, int]:
    """Log-uniform m below 2**44; n log-uniform or, half the time, a divisor of m."""
    m = loguniform(rng, 2, INT_BITS)
    if rng.random() < 0.5:
        return loguniform(rng, 1, INT_BITS), m
    n = 1  # a divisor of m, so the nilpotent clauses appear
    for p, e in factor(m).items():
        n *= p ** rng.randint(0, e)
    return n, m


def _draw_zm(rng: random.Random, klass: int) -> tuple[int, int]:
    while True:
        n, m = _draw_zm_point(rng)
        if _zm_class(_zm_cost(n, m)) == klass:
            return n, m


def zm_class_shares(draws: int, seed: int = 0) -> list[float]:
    """Class frequencies of unconditioned draws; the source of ZM_CLASS_COUNTS."""
    rng = random.Random(seed)
    hits = [0] * len(ZM_CLASS_EDGES)
    for _ in range(draws):
        hits[_zm_class(_zm_cost(*_draw_zm_point(rng)))] += 1
    return [h / draws for h in hits]


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        x = rng.randrange(lo, hi) | 1
        if is_prime(x):
            return x


def _semiprime(rng: random.Random, bits: int) -> int:
    """p*q with both primes in [0.8 s, s), s = 2**(bits/2): exactly `bits` bits long.

    Trial division needs about q/2 steps on it, within 20 % of its maximum.
    """
    s = math.isqrt(2**bits)
    return _random_prime(rng, s * 4 // 5, s) * _random_prime(rng, s * 4 // 5, s)


def _coprime(rng: random.Random, d: int, hi: int) -> int:
    while True:
        x = rng.randint(1, hi)
        if math.gcd(x, d) == 1:
            return x


def _lemma1_argv(d: int, m_star: int, n_star: int, q: int) -> list[str]:
    return ["lemma1", "--d", str(d), "--m-star", str(m_star), "--n-star", str(n_star),
            "--q", str(q), "--json"]


def _lemma1_instance(rng: random.Random, max_n: int, max_m: int) -> tuple[int, int, int, int]:
    """(d, m_star, n_star, q) meeting Lemma 1's hypotheses with n <= max_n, m <= max_m."""
    while True:
        d = rng.randint(2, 12)
        n_star = _coprime(rng, d, 12)
        m_star = n_star * _coprime(rng, d, 12)
        q = rng.randint(1, 8)
        if d**q * n_star <= max_n and d * m_star <= max_m:
            return d, m_star, n_star, q


def _zm_op(n: int, m: int) -> Op:
    argv = ["decide", "--zm", "--json", "--n", str(n), "--m", str(m)]
    return Op(argv, 1, 0, _check_decide_zm(n, m))


def _identities_op(rng: random.Random, p: int, a: int) -> Op:
    """A point n = p**a with m = p**b * m_star, b in [1, a]: nilpotent and a >= b."""
    m = p ** rng.randint(1, a) * _coprime(rng, p, 20)
    argv = ["identities", "--n", str(p**a), "--m", str(m), "--p", str(p),
            "--seed", str(rng.randrange(2**31))]
    return Op(argv, 1, 0, _check_identities(5))


def _query(rng: random.Random, kind: str) -> Op:
    if kind == "decide_zp":
        p = rng.choice((2, 3, 5, 7, 11, 13))
        if rng.random() < 0.5:
            n, m = loguniform(rng, 1, INT_BITS), loguniform(rng, 1, INT_BITS)
        else:  # nilpotent by construction: n = p^a u, m = p^b u v, p dividing neither
            top = int(20 / math.log2(p))
            u = _coprime(rng, p, 2**12)
            n = p ** rng.randint(0, top) * u
            m = p ** rng.randint(1, top) * u * _coprime(rng, p, 2**12)
        argv = ["decide", "--p", str(p), "--n", str(n), "--m", str(m)]
        return Op(argv, 1, 0, _check_decide_zp(n, m, p))
    if kind == "lemma1_c":
        d, m_star, n_star, q = _lemma1_instance(rng, 2**40, 2**12)
        argv = _lemma1_argv(d, m_star, n_star, q) + ["--c", str(rng.randrange(2**40))]
        return Op(argv, 1, 0, _check_lemma1(m_star, n_star, q, 1))
    if kind == "lemma1_all":
        d, m_star, n_star, q = _lemma1_instance(rng, 1024, 2**12)
        return Op(_lemma1_argv(d, m_star, n_star, q), 1, 0,
                  _check_lemma1(m_star, n_star, q, d**q * n_star))
    if kind == "lemma1_enum":
        while True:
            d, m_star, n_star, q = _lemma1_instance(rng, 1024, 64)
            if (d * m_star) ** q <= 20000:
                break
        argv = _lemma1_argv(d, m_star, n_star, q) + ["--enumerate"]
        if rng.random() < 0.5:
            c = rng.randrange(d**q * n_star)
            return Op(argv + ["--c", str(c)], 1, 0, _check_lemma1(m_star, n_star, q, 1))
        return Op(argv, 1, 0, _check_lemma1(m_star, n_star, q, d**q * n_star))
    if kind == "identities":
        p = rng.choice((2, 3))
        return _identities_op(rng, p, rng.randint(1, 4 if p == 2 else 3))
    if kind == "identities_random":
        p = rng.choice((2, 3, 5, 7))
        n = p ** rng.randint(1, int(math.log(256.5, p)))
        argv = ["identities", "--n", str(n), "--p", str(p), "--random-trials",
                str(rng.randint(1, 3)), "--seed", str(rng.randrange(2**31))]
        return Op(argv, 1, 0, _check_identities(2))
    if kind == "invalid_prime":
        p = rng.choice([x for x in range(4, 100) if not is_prime(x)])
        argv = ["decide", "--p", str(p), "--n", str(loguniform(rng, 1, INT_BITS)),
                "--m", str(loguniform(rng, 1, INT_BITS))]
        return Op(argv, 1, 3, _check_exit3)
    if kind == "invalid_coprime":  # d shares a factor with m_star or with n_star
        d = rng.randint(2, 12)
        shared = rng.choice([x for x in range(2, 13) if math.gcd(x, d) > 1])
        if rng.random() < 0.5:
            m_star, n_star = shared * rng.randint(1, 9), 1
        else:
            m_star, n_star = _coprime(rng, d, 12), shared
        return Op(_lemma1_argv(d, m_star, n_star, rng.randint(1, 6)), 1, 3, _check_exit3)
    raise ValueError(kind)


def point_queries(seed: int, tmp: Path) -> Iterator[list[Op]]:
    """Blocks of 214 one-shot calls of fixed composition, shuffled."""
    rng = random.Random(seed)
    while True:
        unit = [_query(rng, kind) for kind, count in BLOCK_COUNTS.items()
                for _ in range(count)]
        unit += [_identities_op(rng, p, a) for p, a in IDENTITIES_LARGEST]
        unit += [_zm_op(loguniform(rng, 1, INT_BITS), _semiprime(rng, bits))
                 for bits in SEMIPRIME_BITS]
        unit += [_zm_op(*_draw_zm(rng, klass))
                 for klass, count in enumerate(ZM_CLASS_COUNTS) for _ in range(count)]
        rng.shuffle(unit)
        yield unit


WORKLOADS = {
    "oracle_verify": oracle_verify,
    "closed_scan": closed_scan,
    "point_queries": point_queries,
}
