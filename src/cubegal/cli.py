"""Command-line verifier.

Subcommands:

  order     --cube {3|4|5}                exact group order of a cube model
  gens      --cube {3|4|5}                generator cycles, one "name = cycles" line each
  disc      --poly FILE [--square-class-vs INT]
  frobenius --poly FILE --primes N [--certify {symmetric|wreath-3-8|wreath-2-12}]
  verify    --theorem {rubik|revenge|professor}

Global flags: --report {text|json}, --jobs N, --seed N, --out FILE.
Exit status: 0 when no check failed, 1 on failures, 2 on usage errors.
Inconclusive results are reported but never fail a run.

JSON reports follow {"version": 1, "checks": [...], "summary": {...}}
with all big numbers as decimal strings; `gens --report json` prints
{"version": 1, "degree": N, "generators": [{"name", "cycles"}, ...]} instead.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# the number layer (polyq, sqclass, evidence, theorems) is imported by the
# commands that run it, so `order` and `gens` start without loading it
from .cubes import cube_model
from .report import CheckReport, summarize


class _UsageError(Exception):
    """Bad input named on the command line; reported with exit status 2."""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _load_poly(path: str):
    from .polyq import load_poly
    try:
        f = load_poly(path)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"--poly {path}: {exc}") from None
    if f.degree < 1:
        raise _UsageError(f"--poly {path}: polynomial must have degree at least 1")
    return f


def _write(args, payload: str) -> None:
    """Write the report to --out, or to standard output without it."""
    if not args.out:
        sys.stdout.write(payload)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise _UsageError(f"--out {args.out}: {exc.strerror or exc}") from None


def _emit(args, text_lines: list[str], checks: list[CheckReport]) -> int:
    if args.report == "json":
        doc = {
            "version": 1,
            "checks": [c.as_dict() for c in checks],
            "summary": summarize(checks),
        }
        payload = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    else:
        body = list(text_lines)
        for c in checks:
            body.append(f"[{c.status.upper():>12}] {c.check_id}: {c.actual}"
                        f"  ({c.citation}; {c.ms} ms)")
        if checks:
            counts = summarize(checks)
            body.append("summary: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
        payload = "\n".join(body) + "\n"
    _write(args, payload)
    return 1 if any(c.status == "fail" for c in checks) else 0


def _cmd_order(args) -> int:
    from .structure import R3_ORDER, R4_ORDER, R5_ORDER
    expected = {3: R3_ORDER, 4: R4_ORDER, 5: R5_ORDER}[args.cube]
    model = cube_model(args.cube)
    start = time.perf_counter()
    try:
        actual = str(model.group().order())
    except ArithmeticError as exc:  # the chain refuted the proved upper bound
        actual = f"error: {exc}"
    ms = int((time.perf_counter() - start) * 1000)
    check = CheckReport(
        check_id=f"order.cube{args.cube}",
        status="pass" if actual == str(expected) else "fail",
        expected=str(expected),
        actual=actual,
        citation=f"verified base-and-strong-generating-set order, {args.cube}x"
                 f"{args.cube}x{args.cube} cube, against the exact digits",
        ms=ms,
    )
    return _emit(args, [actual], [check])


def _cmd_gens(args) -> int:
    model = cube_model(args.cube)
    entries = model.source_text.items()
    if args.report == "json":
        doc = {
            "version": 1,
            "degree": model.degree,
            "generators": [{"name": n, "cycles": c} for n, c in entries],
        }
        payload = json.dumps(doc, indent=1) + "\n"
    else:
        payload = "\n".join(f"{n} = {c}" for n, c in entries) + "\n"
    _write(args, payload)
    return 0


def _cmd_disc(args) -> int:
    from .polyq import discriminant, exact_str
    from .sqclass import square_class_equal
    f = _load_poly(args.poly)
    start = time.perf_counter()
    d = discriminant(f)
    ms = int((time.perf_counter() - start) * 1000)
    d_str = exact_str(d)
    checks = [CheckReport(
        check_id="disc.value", status="pass",
        expected="exact discriminant via fraction-free resultant",
        actual=d_str, citation="resultant-based discriminant", ms=ms,
    )]
    if args.square_class_vs is not None:
        if d == 0:
            raise _UsageError(f"--poly {args.poly}: the discriminant is 0, "
                              f"which has no square class")
        try:
            ok = square_class_equal(d, args.square_class_vs)
        except ValueError as exc:  # a zero INT
            raise _UsageError(f"--square-class-vs {args.square_class_vs}: {exc}") from None
        checks.append(CheckReport(
            check_id="disc.square_class", status="pass" if ok else "fail",
            expected=f"same square class as {args.square_class_vs}",
            actual=f"square_class_equal = {ok}",
            citation="square-class comparison in Q*/(Q*)^2", ms=0,
        ))
    return _emit(args, [d_str], checks)


def _cmd_frobenius(args) -> int:
    f = _load_poly(args.poly)
    if args.certify in ("wreath-3-8", "wreath-2-12") and f.degree != 24:
        # both predicted type sets live on 24 points
        raise _UsageError(f"--certify {args.certify} needs a polynomial of degree 24, "
                          f"not {f.degree}")
    try:
        return _frobenius_report(args, f)
    except ValueError as exc:  # a polynomial the evidence layer cannot serve
        raise _UsageError(f"--poly {args.poly}: {exc}") from None


def _frobenius_report(args, f) -> int:
    from .evidence import (DEFAULT_SCAN_BUDGET, certify_symmetric, predict_wreath_types,
                           scan, types_within)
    from .polyq import discriminant
    from .sqclass import is_square
    budget = DEFAULT_SCAN_BUDGET if args.primes is None else args.primes
    checks: list[CheckReport] = []
    lines: list[str] = []
    start = time.perf_counter()
    profile = scan(f, budget, jobs=args.jobs, poly_id=os.path.basename(args.poly))
    ms = int((time.perf_counter() - start) * 1000)
    summary = profile.summary()
    lines.append(json.dumps(summary, indent=1))
    checks.append(CheckReport(
        check_id="frobenius.scan", status="pass",
        expected=f"{budget} good primes",
        actual=f"{profile.primes_scanned} good, {len(profile.bad_primes)} bad, "
               f"{profile.distinct_types()} distinct types",
        citation="distinct-degree factorization cycle types", ms=ms,
    ))
    if args.certify == "symmetric":
        start = time.perf_counter()
        cert = certify_symmetric(f, budget)
        ms = int((time.perf_counter() - start) * 1000)
        if cert is None:
            # a square discriminant ends the search before its first prime
            square = is_square(discriminant(f))
            checks.append(CheckReport(
                check_id="frobenius.certify_symmetric", status="inconclusive",
                expected="transitive + 2-transitive + prime-cycle witnesses "
                         "and nonsquare discriminant",
                actual=("the discriminant is a square, so the group lies in A_n; "
                        "no prime was examined" if square
                        else "no certificate within the prime budget"),
                citation="symmetric-group certification chain", ms=ms))
        else:
            ok = cert.revalidate(f)
            checks.append(CheckReport(
                check_id="frobenius.certify_symmetric",
                status="pass" if ok else "fail",
                expected="certificate revalidates from scratch",
                actual=cert.witnesses(),
                citation="symmetric-group certification chain", ms=ms))
    elif args.certify in ("wreath-3-8", "wreath-2-12"):
        n, m = (3, 8) if args.certify == "wreath-3-8" else (2, 12)
        outside = types_within(profile, predict_wreath_types(n, m))
        checks.append(CheckReport(
            check_id=f"frobenius.types_within_wreath_{n}_{m}",
            status="pass" if not outside else "fail",
            expected="all observed types inside the predicted set",
            actual=f"{len(outside)} types outside",
            citation=f"cycle types of (C{n} wr S{m})^0 on {n * m} points", ms=0))
    return _emit(args, lines, checks)


def _cmd_verify(args) -> int:
    from . import theorems
    opts = theorems.SuiteOptions(jobs=args.jobs)
    if args.primes is not None:
        opts.scan_budget = args.primes
    if args.certify_primes is not None:
        opts.certify_budget = args.certify_primes
    checks = theorems.verify_theorem(args.theorem, opts)
    return _emit(args, [f"suite: {args.theorem}"], checks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubegal",
        description="verification toolkit for the cube groups and the "
                    "number-theoretic backbone of their Galois realizations",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", choices=("text", "json"), default="text")
    common.add_argument("--jobs", type=_positive_int, default=_available_cpus(),
                        help="worker processes for prime scans "
                             "(default: the CPUs available to this process)")
    common.add_argument("--seed", type=int, default=1,
                        help="accepted for compatibility; the group build is "
                             "deterministic and ignores it")
    common.add_argument("--out", help="write the report to a file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", parents=[common], help="exact cube group order")
    p.add_argument("--cube", type=int, choices=(3, 4, 5), required=True)
    p.set_defaults(fn=_cmd_order)

    p = sub.add_parser("gens", parents=[common], help="generator dump")
    p.add_argument("--cube", type=int, choices=(3, 4, 5), required=True)
    p.set_defaults(fn=_cmd_gens)

    p = sub.add_parser("disc", parents=[common], help="exact discriminant")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--square-class-vs", metavar="INT", type=int,
                   help="compare the discriminant's square class against INT")
    p.set_defaults(fn=_cmd_disc)

    p = sub.add_parser("frobenius", parents=[common], help="cycle-type scan")
    p.add_argument("--poly", required=True, help="polynomial JSON file")
    p.add_argument("--primes", type=_positive_int)  # default: evidence.DEFAULT_SCAN_BUDGET
    p.add_argument("--certify", choices=("symmetric", "wreath-3-8", "wreath-2-12"))
    p.set_defaults(fn=_cmd_frobenius)

    p = sub.add_parser("verify", parents=[common], help="run a theorem suite")
    p.add_argument("--theorem", choices=("rubik", "revenge", "professor"),
                   required=True)
    p.add_argument("--primes", type=_positive_int, default=None,
                   help="override the scan prime budget")
    p.add_argument("--certify-primes", type=_positive_int, default=None,
                   help="override the certification prime budget")
    p.set_defaults(fn=_cmd_verify)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        parser.error(str(exc))


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
