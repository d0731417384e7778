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
from contextlib import nullcontext

from . import circring, congruence, nilpotence, oracle
from .errors import InputError
from .numutil import _check_int, _check_prime, _valuation, check_budget

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3


# Cells per block: a scan decides one row n and at most this many consecutive
# values of m in one step (a verdict per class of candidate cells, and over Z_m
# a split of m per cell in row 1 only), tallies them, and renders them into one
# text that it hands to one write; a pooled verify sends a worker one block per task.
# The first block's texts of m are kept for the later rows; past it, a block's
# texts are built again in every row, so a scan's memory stays bounded however
# long the m axis.
_BLOCK = 2**10

# Bytes that an --out file gathers before a write to the file. A block's text
# runs from a few KB (a CSV row of a few hundred cells) to about 40 KB (a JSON
# row of 400 cells). The default buffer, the file system's block size (often
# 4 KB), holds none of them, so each block would take a write of its own.
_OUT_BUFFER = 2**18

# Report texts that lemma1 joins and writes at once: large enough that a write
# is rare, small enough that a sweep over every target holds about 150 KB of
# text at a time (a JSON report with --enumerate is about 300 bytes).
_LINES = 2**8

# Columns of each scan mode, fixed by the documented CSV headers.
_CSV_COLUMNS = {
    "zp": ("n", "m", "nilpotent", "index", "agree"),
    "zm": ("n", "m", "nilpotent", "clause", "oracle_index", "agree"),
}


# ---------------------------------------------------------------------------
# scan blocks: each row n is split once per scan, and over Z_p Theorem 1 is
# evaluated once per block and valuation of m


def _blocks(p, n_max: int, ms: range):
    """(n, n_split, block, verdicts) for each block of the grid, row by row: one
    row n and at most _BLOCK consecutive values of m. p is a prime checked by the
    caller; n_split and the verdicts are those of nilpotence._row_verdicts.
    """
    split = nilpotence.prime_divisors if p is None else functools.partial(_valuation, p=p)
    for n in range(1, n_max + 1):
        n_split = split(n)
        for lo in range(0, ms.stop - ms.start, _BLOCK):  # len() overflows past 2**63
            block = ms[lo:lo + _BLOCK]
            yield n, n_split, block, nilpotence._row_verdicts(p, n, n_split, block)


def _agree(p, no, n: int, n_split, block: range, vs: dict, found: list) -> dict:
    """(verdict, oracle index, agree) by offset for the cells of row n and block
    whose verdict is not no or whose oracle index found[i] is not None.

    A cell agrees when both sides find it not nilpotent, or both find it
    nilpotent and the oracle's index lies in the closed form's bracket: (v, v)
    over Z_p, v the index reported; over Z_m nilpotence.zm_index_bracket from
    the primes of n (n_split), one point except where n and m are powers of one
    prime and n does not divide m.
    """
    keys = {}
    for i, k in enumerate(found):
        if (v := vs.get(i, no)) is not no or k is not None:
            bracket = v is not no and k is not None and (
                (v, v) if p is not None else nilpotence.zm_index_bracket(n, block[i], n_split))
            keys[i] = v, k, bool(bracket) and bracket[0] <= k <= bracket[1]
    return keys


def _pooled(pool, p, blocks, window: int):
    """(n, n_split, block, verdicts, oracle indices) for each block in order, by one pool
    task per block. At most window blocks are in flight, so memory stays bounded
    by the window whatever the grid size."""
    pending = collections.deque()
    for n, n_split, block, vs in blocks:
        if len(pending) == window:
            *piece, future = pending.popleft()
            yield *piece, future.result()
        pending.append((n, n_split, block, vs, pool.submit(oracle.geom_sum_indices, n, block, p)))
    for *piece, future in pending:
        yield *piece, future.result()


def _process_pool(jobs: int):
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: pooled scans only
    return ProcessPoolExecutor(jobs, initializer=_watch_parent)


def _watch_parent() -> None:
    """Pool initializer: end this worker once the scan that started it is gone.
    A worker blocked on the call queue, whose write end it holds, outlives a scan
    ended by SIGPIPE or SIGTERM. The parent's sentinel is a pipe made before the
    worker starts, so a scan gone by then is seen too; under fork a worker forked
    later holds it as well, so that one ends first."""
    import multiprocessing
    import threading

    def watch():
        multiprocessing.parent_process().join()
        os._exit(1)
    threading.Thread(target=watch, daemon=True).start()


# ---------------------------------------------------------------------------
# rendering


def _tail(key, fmt: str, columns: tuple, no) -> tuple[str, str]:
    """A cell's text before m, with %d for n, and after m, from its key: the
    verdict, or on a verified scan (verdict, oracle index, agree). no is the
    verdict of a cell that is not nilpotent. As JSON, the cell is laid out as
    json.dumps(report, indent=2) lays out each item of "cells"; as CSV, booleans
    are lowercase and absent values empty.
    """
    verdict, found, agree = key if isinstance(key, tuple) else (key, None, None)
    fields = {"n": "@n", "m": "@m", "nilpotent": verdict is not no,
              columns[3]: getattr(verdict, "value", verdict), "oracle_index": found, "agree": agree}
    cell = {name: fields[name] for name in columns}
    if fmt == "json":
        quote, text = json.dumps, "    " + json.dumps(cell, indent=2).replace("\n", "\n    ")
    else:
        quote, text = str, ",".join("" if v is None else json.dumps(v) if isinstance(v, bool)
                                    else str(v) for v in cell.values()) + "\n"
    head, tail = text.split(quote("@m"))
    return head.replace(quote("@n"), "%d"), tail


def _render_scan_human(par: dict, s: dict) -> str:
    (n_lo, n_hi), (m_lo, m_hi) = par["n_range"], par["m_range"]
    p = f" p={par['p']}" if "p" in par else ""
    lines = [f"scan mode={par['mode']}{p} n=[{n_lo},{n_hi}] m=[{m_lo},{m_hi}]"
             f" verify={'yes' if par['verify'] else 'no'}",
             f"cells {s['cells']}, nilpotent {s['nilpotent']}"]
    if par["verify"]:
        lines.append(f"agreements {s['agreements']}, disagreements {len(s['disagreements'])}")
        lines += (f"DISAGREE at n={d['n']} m={d['m']}" for d in s["disagreements"])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_decide(args) -> int:
    if args.zm:
        v = nilpotence.decide_zm_via_primes(args.n, args.m)
        verdict = (f"nilpotent over Z_{args.m} ({v.clause.value})" if v.nilpotent
                   else f"not nilpotent over Z_{args.m}")
        text = f"T(n={args.n}, m={args.m}): {verdict}"
    else:
        v = nilpotence.decide_zp(args.n, args.m, args.p)
        verdict = f"nilpotent, index {v.index}" if v.nilpotent else "not nilpotent"
        text = (f"T(n={args.n}, m={args.m}) over Z_{args.p}: {verdict}"
                f" (a={v.a}, b={v.b}, n*={v.n_star}, m*={v.m_star})")
    print(json.dumps(v.to_json_dict(), indent=2) if args.json else text)
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
    if args.zm:
        p, no = None, nilpotence.ZmClause.NOT_NILPOTENT
    else:
        p = parameters["p"] = _check_prime(args.p)
        no = None
    ms = range(m_lo, args.m_max + 1)
    blocks = _blocks(p, args.n_max, ms)
    m_count = args.m_max - m_lo + 1
    total = args.n_max * m_count
    if args.verify:  # the oracle's coefficients: m_count times the sum of n**2
        n = args.n_max
        check_budget("scan --verify", m_count * n * (n + 1) * (2 * n + 1) // 6,
                     nilpotence.VERIFY_BUDGET)
    summary = {"cells": total, "nilpotent": 0, "disagreements": []}
    # Only the oracle is worth a process pool (a closed-form cell costs less than
    # shipping it to a worker and back), and never more workers than CPUs or blocks.
    cpu = os.cpu_count() or 1
    jobs = min(args.jobs or cpu, cpu, args.n_max * -(-m_count // _BLOCK)) if args.verify else 1

    try:  # opened last, so a rejected input leaves an existing file untouched
        sink = open(args.out, "w", buffering=_OUT_BUFFER) if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        print(f"error: cannot open --out: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # Each block is tallied and written as it is decided; nothing holds the grid.
    with sink as out, _process_pool(jobs) if jobs > 1 else nullcontext() as pool:
        # Each block with its oracle indices, found in the pool if any.
        if pool is None:
            pieces = ((n, n_split, block, vs,
                       oracle.geom_sum_indices(n, block, p) if args.verify else None)
                      for n, n_split, block, vs in blocks)
        else:
            pieces = _pooled(pool, p, blocks, 2 * jobs)
        columns = _CSV_COLUMNS[mode]
        if args.format == "csv":
            out.write(",".join(columns) + "\n")
        elif args.format == "json":
            columns = columns[:4] + (("oracle_index", "agree") if args.verify else ())
            # The bytes of json.dumps(report, indent=2), framed around the cells.
            out.write(json.dumps({"parameters": parameters}, indent=2)[:-2]
                      + ',\n  "cells": [\n')
        # A block's cell texts start as m's with the default key's (the first
        # block's are kept) and take the other keys' texts, each rendered once.
        tails, sep, lead = {}, ",\n" if args.format == "json" else "", ""
        if args.format != "human":  # which renders no cell
            head, tail = _tail((no, None, True) if args.verify else no, args.format, columns, no)
            cell = "%d" + tail
            first = list(map(cell.__mod__, ms[:_BLOCK]))
        for n, n_split, block, vs, found in pieces:
            keys = _agree(p, no, n, n_split, block, vs, found) if args.verify else vs
            summary["nilpotent"] += len(vs)
            if args.verify:
                summary["disagreements"] += [{"n": n, "m": block[i]}
                                             for i, key in keys.items() if not key[2]]
            if args.format == "human":
                continue
            for key in set(keys.values()).difference(tails):
                tails[key] = _tail(key, args.format, columns, no)[1]
            cells = list(map(cell.__mod__, block)) if block.start > m_lo else first.copy()
            for i, key in keys.items():
                cells[i] = f"{block[i]}{tails[key]}"
            row = head % n
            cells[0] = lead + row + cells[0]  # the row's one copy is its join
            out.write((sep + row).join(cells))
            lead = sep
        if args.verify:
            summary["agreements"] = total - len(summary["disagreements"])
        if args.format == "human":
            out.write(_render_scan_human(parameters, summary))
        elif args.format == "json":
            out.write("\n  ],\n" + json.dumps({"summary": summary}, indent=2)[2:] + "\n")
    return EXIT_DISAGREE if summary["disagreements"] else EXIT_OK


def cmd_lemma1(args) -> int:
    inst = congruence.validate(
        args.d, args.m_star, args.n_star, args.q, c=(args.c if args.c is not None else 0)
    )
    closed = congruence.count_closed_form(inst)
    if args.c is not None:
        targets = (inst.c,)
    else:
        check_budget("lemma1 targets (pass --c)", inst.n, congruence.ENUM_BUDGET)
        targets = range(inst.n)
    hist = congruence.counts_by_target(inst) if args.enumerate else None
    # The recursion does not read c, so one count serves every target.
    rec = congruence.count_recursive(inst)

    def agrees(c: int) -> bool:
        return rec == closed and (hist is None or hist[c] == closed)

    all_agree = all(map(agrees, targets))
    # Every target's text is one template filled with c, the enumerated count
    # (with --enumerate) and the agreement word, in that order.
    if args.json:  # the bytes of json.dumps(report, indent=2), or of the list of reports
        report = {"instance": {**inst.to_json_dict(), "c": "@c"},
                  "closed_form": closed, "recursive": rec}
        if hist is not None:
            report["enumerated"] = "@e"
        report["agree"] = "@a"
        item = json.dumps(report, indent=2)
        if args.c is None:
            item = "  " + item.replace("\n", "\n  ")
        template = item.replace('"@c"', "%d").replace('"@e"', "%d").replace('"@a"', "%s")
        words, sep = ("false", "true"), ",\n"
        head, foot = ("", "") if args.c is not None else ("[\n", "\n]")
    else:
        template = (f"c=%d: recursive {rec}" + (", enumerated %d" if hist is not None else "")
                    + ", %s")
        words, sep = ("DISAGREE", "agree"), "\n"
        head = (f"instance d={inst.d} m*={inst.m_star} n*={inst.n_star} q={inst.qvars}"
                f" (m={inst.m}, n={inst.n}): closed form {closed}\n")
        foot = "\nall agree" if all_agree else "\nDISAGREEMENT detected"
    if hist is None:
        texts = (template % (c, words[agrees(c)]) for c in targets)
    else:
        texts = (template % (c, hist[c], words[agrees(c)]) for c in targets)
    sys.stdout.write(head)
    lead = ""
    while batch := list(itertools.islice(texts, _LINES)):
        sys.stdout.write(lead + sep.join(batch))
        lead = sep
    sys.stdout.write(foot + "\n")
    return EXIT_OK if all_agree else EXIT_DISAGREE


def cmd_identities(args) -> int:
    n, p, trials, rng = args.n, args.p, args.random_trials, random.Random(args.seed)
    draw = functools.partial(_random_elem, rng, n, p)  # one element; a check draws a, then b
    if trials is None:
        # The witness raises InvalidInput where the identities do not apply.
        v, elem, matches, annihilates = nilpotence.witness_nonvanishing(n, args.m, p)
        results = [
            ("expansion", nilpotence.index_expansion(v.a, v.b, p) == v.index, ""),
            ("witness", matches and not circring.is_zero(elem), ""),
            ("annihilation", annihilates, ""),
            ("frobenius", all(oracle.frobenius_check(draw(), draw(), k)
                              for k in (1, 2) for _ in range(3)), ""),
            ("geometric", oracle.geometric_identity_check(n, args.m, p), ""),
        ]
    else:
        _check_prime(p)
        # Checked before the first draw, which builds n coefficients.
        _check_int("n", n, 1)
        check_budget("identities", trials * n * p.bit_length(), nilpotence.IDENTITIES_BUDGET)
        frob = geo = 0
        for _ in range(trials):
            frob += oracle.frobenius_check(draw(), draw(), rng.choice((1, 2)))
            geo += oracle.geometric_identity_check(n, rng.randrange(1, 2 * n + 1), p)
        results = [("frobenius", frob == trials, f" ({frob}/{trials})"),
                   ("geometric", geo == trials, f" ({geo}/{trials})")]
    for name, ok, note in results:
        print(f"{name:<13}{'pass' if ok else 'FAIL'}{note}")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_DISAGREE


def _random_elem(rng: random.Random, n: int, q: int) -> circring.CirculantElem:
    """An element with n coefficients uniform on [0, q): each is k random bits,
    k the bits of q - 1, drawn again while it is q or above (exact at any q)."""
    draw = functools.partial(rng.getrandbits, (q - 1).bit_length())
    coeffs = []
    while len(coeffs) < n:
        if (c := draw()) < q:
            coeffs.append(c)
    return circring.CirculantElem(n, q, tuple(coeffs))


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
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main has reported the failed write. What it left in stdout's buffer goes
        # to devnull, so the interpreter's last flush does not fail on it again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
