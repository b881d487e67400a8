"""Run one cubegal CLI command in this process with its layer boundaries
instrumented from outside.

    python benchmarks/probe.py --spans {0|1} --out FILE -- <cubegal args>

The probe rebinds the public names that a caller module imports (for
example `cubegal.evidence.frobenius_type`), so every call that crosses a
layer boundary goes through a wrapper; no file of the package changes.
With `--spans 0` the wrappers only count calls, which costs next to
nothing; with `--spans 1` they also record a span
(name, start, end, parent) per call.  Spans stay in memory and are
written to FILE, with the counts, when the command ends.  The CLI's own
report goes to standard output unchanged, and the probe exits with the
CLI's exit code.

Pool workers started at `--jobs 2` are forked with the wrappers in
place, but what they record dies with them: only the parent side of a
pool is measured.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Recorder:
    """Counts and (optionally) spans for the wrapped boundaries."""

    def __init__(self, spans_on: bool):
        self.spans_on = spans_on
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.groups: list = []
        self.frobenius_keys: set = set()

    def open(self, name: str) -> int:
        self.counts[name] += 1
        if not self.spans_on:
            return -1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        if idx < 0:
            return
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return wrapper


def install(rec: Recorder) -> None:
    """Rebind the imported names at every layer boundary the workloads cross."""
    from cubegal import cli, cubes, evidence, theorems

    cli.cube_model = rec.wrap("cubes.cube_model", cli.cube_model)

    build = rec.wrap("bsgs.PermutationGroup", cubes.PermutationGroup)

    def permutation_group(*args, **kwargs):
        group = build(*args, **kwargs)
        rec.groups.append(group)
        return group
    cubes.PermutationGroup = permutation_group

    theorems.verify_theorem = rec.wrap("theorems.verify_theorem", theorems.verify_theorem)
    for name in ("scan", "parity_linkage", "triple_parity_linkage", "certify_symmetric"):
        setattr(theorems, name, rec.wrap(f"evidence.{name}", getattr(theorems, name)))
    theorems.discriminant = rec.wrap("polyq.discriminant", theorems.discriminant)
    theorems.square_class_equal = rec.wrap("sqclass.square_class_equal",
                                           theorems.square_class_equal)
    for name in ("r3_predicted_order", "r4_predicted_order", "r5_predicted_order"):
        setattr(theorems, name, rec.wrap("structure.predicted_order", getattr(theorems, name)))
    evidence.discriminant = rec.wrap("polyq.discriminant", evidence.discriminant)

    frobenius = rec.wrap("polymod.frobenius_type", evidence.frobenius_type)

    def frobenius_type(f, p):
        key = (f, p)
        if key in rec.frobenius_keys:
            rec.counts["polymod.repeat_calls"] += 1
        rec.frobenius_keys.add(key)
        t = frobenius(f, p)
        rec.counts["polymod.good" if t is not None else "polymod.bad"] += 1
        return t
    evidence.frobenius_type = frobenius_type

    stream = evidence.primes

    def primes(*args, **kwargs):
        for p in stream(*args, **kwargs):
            rec.counts["evidence.primes_drawn"] += 1
            yield p
    evidence.primes = primes

    class ProcessPoolExecutor(evidence.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._bench_span = rec.open("evidence.pool")
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._bench_span is not None:
                    rec.close(self._bench_span)
                    self._bench_span = None
    evidence.ProcessPoolExecutor = ProcessPoolExecutor


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="file for the spans and counts")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, os.path.join(ROOT, "src"))
    rec = Recorder(bool(args.spans))
    install(rec)
    from cubegal import cli

    idx = rec.open("cli.cli_main")
    try:
        code = cli.cli_main(cli_args)
    finally:
        rec.close(idx)
    sys.stdout.flush()

    counts = dict(rec.counts)
    counts["bsgs.strong_gens"] = sum(len(g.strong_generators) for g in rec.groups)
    counts["bsgs.base_len"] = sum(len(g.base) for g in rec.groups)
    counts["bsgs.transversal_pts"] = sum(sum(g.basic_orbit_sizes) for g in rec.groups)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"spans": rec.spans, "counts": counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
