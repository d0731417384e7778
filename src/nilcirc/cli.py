"""Command-line front end: decide, scan, lemma1, identities.

Exit codes: 0 success/agreement, 1 mathematical disagreement, 2 usage error,
3 invalid mathematical input (the error kind is named on stderr).
"""

from __future__ import annotations

import argparse
import collections
import functools
import itertools
import json
import os
import random
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

from . import circring, congruence, nilpotence, oracle
from .errors import BudgetExceeded, InputError, InvalidPrime
from .numutil import _check_int, is_prime, p_adic_valuation

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3


# Cells per chunk sent to a verify worker: enough to amortize the round trip,
# few enough that the chunks in flight stay small on any grid.
_MAX_CHUNK = 1024

# Splits of m kept for the rows after the first. A longer m axis is split
# again in every row past this many values, so a scan's memory stays bounded
# however long the axis.
_AXIS_TABLE_MAX = 2**10

# Columns of each scan mode, fixed by the documented CSV headers.
_CSV_COLUMNS = {
    "zp": ("n", "m", "nilpotent", "index", "agree"),
    "zm": ("n", "m", "nilpotent", "clause", "oracle_index", "agree"),
}

# Per format: a cell's text up to m, after n is filled in; the text of each
# column after m; the cell's end; and the text between two cells. A JSON cell
# is laid out as json.dumps(report, indent=2) lays out each item of "cells".
_TEMPLATES = {
    "csv": ("%d,", ",{text}", "\n", ""),
    "json": ('    {\n      "n": %d,\n      "m": ', ',\n      "{key}": {text}', "\n    }", ",\n"),
}


# ---------------------------------------------------------------------------
# scan cells: each n is split once per row, each m once per scan


def _axis(table: list, ms: range, split):
    """(m, split(m)) for each m in ms, from the table as far as it reaches.

    The first row fills the table as it walks, up to _AXIS_TABLE_MAX values,
    so the table never holds more than the cells already walked.
    """
    yield from table
    for m in ms[len(table):]:
        entry = m, split(m)
        if len(table) < _AXIS_TABLE_MAX:
            table.append(entry)
        yield entry


def _zp_cells(p: int, n_max: int, ms: range):
    """(n, m, nilpotent, index) of every cell over Z_p, row by row."""
    split = functools.partial(p_adic_valuation, p=p)  # checks that p is prime
    table = []
    for n in range(1, n_max + 1):
        a, n_star = split(n)
        for m, (b, m_star) in _axis(table, ms, split):
            index = nilpotence.zp_index(a, n_star, b, m_star, p)
            yield n, m, index is not None, index


def _zm_cells(n_max: int, ms: range):
    """(n, m, nilpotent, clause) of every cell over Z_m, row by row."""
    not_nilpotent = nilpotence.ZmClause.NOT_NILPOTENT
    table = []
    for n in range(1, n_max + 1):
        n_primes = nilpotence.prime_divisors(n)
        for m, m_primes in _axis(table, ms, nilpotence.prime_divisors):
            clause = nilpotence.zm_clause(n, m, n_primes, m_primes)
            yield n, m, clause is not not_nilpotent, clause


# The oracle workers are top level so a process pool can pickle them.


def _oracle_cell(p, cell: tuple) -> tuple:
    """The cell followed by the oracle's index and whether it agrees; p is None over Z_m."""
    n, m, nilpotent, verdict = cell
    # Bound n is sound: a nilpotent n x n matrix has index at most n.
    found = oracle.min_nilpotent_index(circring.geom_sum(n, m, p or m), n)
    # Over Z_m the verdict is a clause; over Z_p it is the index, None exactly
    # when T is not nilpotent.
    agree = (found is not None) == nilpotent if p is None else found == verdict
    return (*cell, found, agree)


def _oracle_chunk(p, cells: list) -> list:
    return [_oracle_cell(p, cell) for cell in cells]


def _pooled(pool, p, cells, chunk: int, window: int):
    """The oracle's cells in order, computed in chunks by the pool.

    At most window chunks are in flight, so memory stays bounded by the window
    whatever the grid size.
    """
    pending = collections.deque()
    while batch := list(itertools.islice(cells, chunk)):
        if len(pending) == window:
            yield from pending.popleft().result()
        pending.append(pool.submit(_oracle_chunk, p, batch))
    while pending:
        yield from pending.popleft().result()


def _tally(cells, summary: dict):
    """Pass the cells through, then add them to the summary counters."""
    nilpotent = 0
    for cell in cells:
        nilpotent += cell[2]
        if len(cell) > 4 and not cell[5]:  # a verified cell that disagrees
            summary["disagreements"].append({"n": cell[0], "m": cell[1]})
        yield cell
    summary["nilpotent"] = nilpotent
    if "agreements" in summary:
        summary["agreements"] = summary["cells"] - len(summary["disagreements"])


# ---------------------------------------------------------------------------
# rendering


def _text(value, fmt: str) -> str:
    """A cell value as JSON, or as CSV: lowercase booleans, absent values empty."""
    if isinstance(value, nilpotence.ZmClause):
        value = value.value
    if fmt == "json" or isinstance(value, bool):
        return json.dumps(value)
    return "" if value is None else str(value)


def _cell_texts(cells, fmt: str, columns: tuple):
    """The text of each cell in fmt, with the given columns.

    The text up to m is made once per row. Past m, a cell's text depends only
    on its verdict and the oracle's result, which take few distinct values
    (over Z_p one index per (a, b)), so each is rendered once and reused.
    """
    head, column, end, _ = _TEMPLATES[fmt]
    row = None
    tails = {}
    for cell in cells:
        if cell[0] != row:
            row = cell[0]
            row_head = head % row
        rest = cell[2:]
        tail = tails.get(rest)
        if tail is None:
            # An unverified cell has no oracle fields, so its columns read None.
            fields = dict(zip(("nilpotent", columns[3], "oracle_index", "agree"), rest))
            texts = (column.format(key=key, text=_text(fields.get(key), fmt))
                     for key in columns[2:])
            tail = tails[rest] = "".join(texts) + end
        yield row_head + str(cell[1]) + tail


def _render_scan_human(par: dict, s: dict) -> str:
    mode = par["mode"]
    head = f"scan mode={mode}"
    if mode == "zp":
        head += f" p={par['p']}"
    head += (
        f" n=[{par['n_range'][0]},{par['n_range'][1]}]"
        f" m=[{par['m_range'][0]},{par['m_range'][1]}]"
        f" verify={'yes' if par['verify'] else 'no'}"
    )
    lines = [head, f"cells {s['cells']}, nilpotent {s['nilpotent']}"]
    if par["verify"]:
        lines.append(
            f"agreements {s['agreements']}, disagreements {len(s['disagreements'])}"
        )
        for d in s["disagreements"]:
            lines.append(f"DISAGREE at n={d['n']} m={d['m']}")
    return "\n".join(lines) + "\n"


def _write_json_array(out, items) -> None:
    """Stream a non-empty array of objects with the bytes of json.dumps(list, indent=2).

    The items go 64 at a time to json.dumps, and each batch's text between its
    brackets is written (one call per object is about 15 % slower).
    """
    items = iter(items)
    sep = "[\n"
    while batch := list(itertools.islice(items, 64)):
        out.write(sep + json.dumps(batch, indent=2)[2:-2])
        sep = ",\n"
    out.write("\n]")


# ---------------------------------------------------------------------------
# subcommands


def cmd_decide(args) -> int:
    if args.zm:
        verdict = nilpotence.decide_zm_via_primes(args.n, args.m)
        if args.json:
            print(json.dumps(verdict.to_json_dict(), indent=2))
        elif verdict.nilpotent:
            print(
                f"T(n={args.n}, m={args.m}): nilpotent over Z_{args.m}"
                f" ({verdict.clause.value})"
            )
        else:
            print(f"T(n={args.n}, m={args.m}): not nilpotent over Z_{args.m}")
        return EXIT_OK

    verdict = nilpotence.decide_zp(args.n, args.m, args.p)
    if args.json:
        print(json.dumps(verdict.to_json_dict(), indent=2))
    else:
        derived = (
            f"a={verdict.a}, b={verdict.b},"
            f" n*={verdict.n_star}, m*={verdict.m_star}"
        )
        if verdict.nilpotent:
            print(
                f"T(n={args.n}, m={args.m}) over Z_{args.p}: nilpotent,"
                f" index {verdict.index} ({derived})"
            )
        else:
            print(
                f"T(n={args.n}, m={args.m}) over Z_{args.p}:"
                f" not nilpotent ({derived})"
            )
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.zm and args.m_max < 2:  # the one range rule that argparse types cannot see
        print(f"error: --m-max leaves the m range empty (got {args.m_max})", file=sys.stderr)
        return EXIT_USAGE
    mode = "zm" if args.zm else "zp"
    m_lo = 2 if args.zm else 1
    parameters = {
        "mode": mode,
        "n_range": [1, args.n_max],
        "m_range": [m_lo, args.m_max],
        "verify": args.verify,
    }
    ms = range(m_lo, args.m_max + 1)
    if args.zm:
        p = None
        cells = _zm_cells(args.n_max, ms)
    else:
        p = parameters["p"] = args.p
        cells = _zp_cells(p, args.n_max, ms)
    # The first cell is decided now, before --out is opened: a composite p
    # fails its first split, and an existing file is left untouched.
    cells = itertools.chain([next(cells)], cells)
    m_count = args.m_max - m_lo + 1
    total = args.n_max * m_count
    if args.verify:  # the oracle's coefficients: m_count times the sum of n**2
        n = args.n_max
        nilpotence.check_budget("scan --verify", m_count * n * (n + 1) * (2 * n + 1) // 6,
                                nilpotence.VERIFY_BUDGET)
    summary = {"cells": total, "nilpotent": 0, "disagreements": []}
    if args.verify:
        summary["agreements"] = 0
    # Only the oracle is worth a process pool (a closed-form cell costs less than
    # shipping it to a worker and back), and never more workers than CPUs or cells.
    cpu = os.cpu_count() or 1
    jobs = min(args.jobs or cpu, cpu, total) if args.verify else 1

    try:  # opened last, so a rejected input leaves an existing file untouched
        sink = open(args.out, "w") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot open --out: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Each cell is tallied and written as it is decided; nothing holds the grid.
    with (
        sink as out,
        ProcessPoolExecutor(jobs) if jobs > 1 else nullcontext() as pool,
    ):
        if args.verify and pool is None:
            cells = map(_oracle_cell, itertools.repeat(p), cells)
        elif args.verify:
            chunk = max(1, min(total // (jobs * 4), _MAX_CHUNK))
            cells = _pooled(pool, p, cells, chunk, 2 * jobs)
        cells = _tally(cells, summary)
        if args.format == "human":
            for _ in cells:  # the summary needs every cell
                pass
            out.write(_render_scan_human(parameters, summary))
        else:
            columns = _CSV_COLUMNS[mode]
            if args.format == "csv":
                out.write(",".join(columns) + "\n")
            else:
                columns = columns[:4] + (("oracle_index", "agree") if args.verify else ())
                # The bytes of json.dumps(report, indent=2), framed around the cells.
                out.write(json.dumps({"parameters": parameters}, indent=2)[:-2]
                          + ',\n  "cells": [\n')
            texts = _cell_texts(cells, args.format, columns)
            sep = _TEMPLATES[args.format][3]
            out.write(next(texts))  # a grid has one cell at least
            while batch := list(itertools.islice(texts, 1024)):
                out.write(sep + sep.join(batch))
            if args.format == "json":
                out.write("\n  ],\n" + json.dumps({"summary": summary}, indent=2)[2:] + "\n")
    return EXIT_DISAGREE if summary["disagreements"] else EXIT_OK


def cmd_lemma1(args) -> int:
    inst = congruence.validate(
        args.d, args.m_star, args.n_star, args.q, c=(args.c if args.c is not None else 0)
    )
    closed = congruence.count_closed_form(inst)
    if args.c is not None:
        targets = (inst.c,)
    elif inst.n > congruence.ENUM_BUDGET:
        raise BudgetExceeded(
            f"{inst.n} targets exceed budget {congruence.ENUM_BUDGET}; pass --c"
        )
    else:
        targets = range(inst.n)
    hist = congruence.counts_by_target(inst) if args.enumerate else None
    # The recursion does not read c, so one count serves every target.
    rec = congruence.count_recursive(inst)
    instance = inst.to_json_dict()  # each report replaces only "c", in place

    def agrees(c: int) -> bool:
        return rec == closed and (hist is None or hist[c] == closed)

    def report(c: int) -> dict:
        entry = {
            "instance": {**instance, "c": c},
            "closed_form": closed,
            "recursive": rec,
        }
        if hist is not None:
            entry["enumerated"] = hist[c]
        entry["agree"] = agrees(c)
        return entry

    all_agree = all(map(agrees, targets))
    if args.json and args.c is not None:
        print(json.dumps(report(inst.c), indent=2))
    elif args.json:
        _write_json_array(sys.stdout, map(report, targets))
        print()
    else:
        print(
            f"instance d={inst.d} m*={inst.m_star} n*={inst.n_star} q={inst.qvars}"
            f" (m={inst.m}, n={inst.n}): closed form {closed}"
        )
        for r in map(report, targets):
            parts = [f"c={r['instance']['c']}: recursive {r['recursive']}"]
            if "enumerated" in r:
                parts.append(f"enumerated {r['enumerated']}")
            parts.append("agree" if r["agree"] else "DISAGREE")
            print(", ".join(parts))
        print("all agree" if all_agree else "DISAGREEMENT detected")
    return EXIT_OK if all_agree else EXIT_DISAGREE


def _identities_point(args) -> int:
    # The witness raises InvalidInput where the identities do not apply.
    v, elem, matches, annihilates = nilpotence.witness_nonvanishing(args.n, args.m, args.p)
    expanded = nilpotence.index_expansion(v.a, v.b, args.p)
    results = [("expansion", expanded == v.index)]
    results.append(("witness", matches and not circring.is_zero(elem)))
    results.append(("annihilation", annihilates))
    rng = random.Random(args.seed)
    frob_ok = all(
        oracle.frobenius_check(
            _random_elem(rng, args.n, args.p), _random_elem(rng, args.n, args.p), k
        )
        for k in (1, 2)
        for _ in range(3)
    )
    results.append(("frobenius", frob_ok))
    results.append(("geometric", oracle.geometric_identity_check(args.n, args.m, args.p)))

    for name, ok in results:
        print(f"{name:<13}{'pass' if ok else 'FAIL'}")
    return EXIT_OK if all(ok for _, ok in results) else EXIT_DISAGREE


def _random_elem(rng: random.Random, n: int, q: int) -> circring.CirculantElem:
    return circring.CirculantElem(n, q, tuple(rng.randrange(q) for _ in range(n)))


def _identities_random(args) -> int:
    if not is_prime(args.p):
        raise InvalidPrime(f"{args.p} is not prime")
    # Checked before the first draw, which builds n coefficients.
    _check_int("n", args.n, 1)
    trials = args.random_trials
    nilpotence.check_budget("identities", trials * args.n * args.p.bit_length(),
                            nilpotence.IDENTITIES_BUDGET)
    rng = random.Random(args.seed)
    frob_pass = geo_pass = 0
    for _ in range(trials):
        a = _random_elem(rng, args.n, args.p)
        b = _random_elem(rng, args.n, args.p)
        if oracle.frobenius_check(a, b, rng.choice((1, 2))):
            frob_pass += 1
        if oracle.geometric_identity_check(args.n, rng.randrange(1, 2 * args.n + 1), args.p):
            geo_pass += 1
    print(f"frobenius    {'pass' if frob_pass == trials else 'FAIL'} ({frob_pass}/{trials})")
    print(f"geometric    {'pass' if geo_pass == trials else 'FAIL'} ({geo_pass}/{trials})")
    return EXIT_OK if frob_pass == geo_pass == trials else EXIT_DISAGREE


def cmd_identities(args) -> int:
    if args.random_trials is not None:
        return _identities_random(args)
    return _identities_point(args)


# ---------------------------------------------------------------------------
# parser and entry point


def count(text: str) -> int:
    """argparse type of the range flags: an integer in [1, 2**64 - 1], else exit 2."""
    try:
        return _check_int("value", int(text), 1)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilcirc",
        description=(
            "Decide nilpotence of the circulant step sum I + S + ... + S^(m-1)"
            " over Z_p and Z_m, and verify the closed forms against brute force."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decide", help="decide one (n, m) point")
    p_dec.add_argument("--n", type=int, required=True)
    p_dec.add_argument("--m", type=int, required=True)
    mode = p_dec.add_mutually_exclusive_group(required=True)
    mode.add_argument("--p", type=int, help="prime modulus (Z_p mode)")
    mode.add_argument("--zm", action="store_true", help="use modulus m (Z_m mode)")
    p_dec.add_argument("--json", action="store_true")
    p_dec.set_defaults(func=cmd_decide)

    p_scan = sub.add_parser("scan", help="scan a grid of (n, m) points")
    mode = p_scan.add_mutually_exclusive_group(required=True)
    mode.add_argument("--p", type=int)
    mode.add_argument("--zm", action="store_true")
    p_scan.add_argument("--n-max", type=count, default=32)
    p_scan.add_argument("--m-max", type=count, default=32)
    p_scan.add_argument("--verify", action="store_true", help="attach oracle checks")
    p_scan.add_argument("--format", choices=("human", "json", "csv"), default="human")
    p_scan.add_argument("--jobs", type=count, default=None)
    p_scan.add_argument("--out", default=None, help="write output to a file")
    p_scan.set_defaults(func=cmd_scan)

    p_lem = sub.add_parser("lemma1", help="count congruence solutions")
    p_lem.add_argument("--d", type=int, required=True)
    p_lem.add_argument("--m-star", type=int, required=True)
    p_lem.add_argument("--n-star", type=int, required=True)
    p_lem.add_argument("--q", type=int, required=True, help="number of variables")
    p_lem.add_argument("--c", type=int, default=None, help="target (default: all)")
    p_lem.add_argument("--enumerate", action="store_true", help="run the brute-force count")
    p_lem.add_argument("--json", action="store_true")
    p_lem.set_defaults(func=cmd_lemma1)

    p_id = sub.add_parser("identities", help="run the executable proof identities")
    p_id.add_argument("--n", type=int, required=True)
    p_id.add_argument("--p", type=int, required=True)
    mode = p_id.add_mutually_exclusive_group(required=True)
    mode.add_argument("--m", type=int, default=None)
    mode.add_argument("--random-trials", type=count, default=None)
    p_id.add_argument("--seed", type=int, default=0)
    p_id.set_defaults(func=cmd_identities)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors as exit 2
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a failed write to stdout is reported here, not at exit
        return code
    except InputError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BrokenPipeError:  # a closed pipe is SIGPIPE's to end (see entry)
        raise
    except OSError as exc:  # a full disk or device, a quota, an I/O error
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    if hasattr(signal, "SIGPIPE"):
        # A reader that closes the pipe ends the process quietly, like any filter.
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
