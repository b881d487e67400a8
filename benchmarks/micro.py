"""Microbenchmarks of single layers, each checked against an oracle that
does not share code with the kernel it times.

    python benchmarks/micro.py --seed N --out FILE

Writes {"metrics": {name: value}, "problems": [text, ...]} to FILE.  A
kernel that is fast but wrong shows up as a problem, never as a number:

* DDF cycle types sum to the degree and their sign equals the Legendre
  symbol of disc f mod p, computed here by Euler's criterion
  (Stickelberger's theorem); with sympy importable they also match
  `Poly.factor_list()` over GF(p) on a sample of primes;
* `powmod(X, p, f)` matches p plain multiplications by X;
* trinomial discriminants match -(23^23 u + 24^24) u^23, and the
  discriminant of rubik_f matches sympy when it is importable;
* `Permutation` products and inverses match a plain loop;
* `contains` accepts words in the generators composed here and rejects a
  permutation that swaps two generator orbits.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPS = 3
DDF_WINDOW = 50


def timed(fn, reps: int = REPS) -> float:
    """Median wall time of fn() over reps calls, in seconds."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\0\0"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return [i for i, f in enumerate(flags) if f]


def bench_perm_bsgs(seed: int, metrics: dict, problems: list) -> None:
    from cubegal.cubes import cube_model
    from cubegal.perm import Permutation

    model = cube_model(5)
    gens = [g.raw for g in model.generators.values()]
    n = len(gens[0])
    rng = random.Random(f"micro:{seed}")

    def word(length: int) -> tuple[int, ...]:
        img = list(range(n))
        for _ in range(length):
            g = rng.choice(gens)
            img = [g[x] for x in img]  # apply g after the word so far
        return tuple(img)

    members = [word(40) for _ in range(20)]
    perms = [Permutation([x + 1 for x in w]) for w in members]

    for a, b in zip(perms, perms[1:]):
        plain = Permutation([a(b(i)) for i in range(1, n + 1)])
        if a * b != plain:
            problems.append("perm: product differs from the plain loop")
            break
    for a in perms:
        plain_inv = [0] * n
        for i in range(1, n + 1):
            plain_inv[a(i) - 1] = i
        if a.inverse() != Permutation(plain_inv):
            problems.append("perm: inverse differs from the plain loop")
            break

    pairs = [(perms[i], perms[(i * 7 + 3) % len(perms)]) for i in range(len(perms))] * 50

    def compose_all():
        for a, b in pairs:
            a * b
    metrics["perm.compose_us"] = timed(compose_all) / len(pairs) * 1e6

    inverse_batch = perms * 50

    def inverse_all():
        for a in inverse_batch:
            a.inverse()
    metrics["perm.inverse_us"] = timed(inverse_all) / len(inverse_batch) * 1e6

    # two points in different generator orbits; swapping them leaves the group
    orbit = {0}
    frontier = [0]
    while frontier:
        frontier = [g[x] for x in frontier for g in gens if g[x] not in orbit]
        orbit.update(frontier)
    outside = next(i for i in range(n) if i not in orbit)
    swap = list(range(1, n + 1))
    swap[0], swap[outside] = swap[outside], swap[0]
    non_member = Permutation(swap)

    group = model.group(seed=rng.randrange(1, 10 ** 6))
    if not all(group.contains(p) for p in perms):
        problems.append("bsgs: contains rejects a product of generators")
    if group.contains(non_member):
        problems.append("bsgs: contains accepts a permutation that mixes orbits")

    def contains_all():
        for p in perms:
            group.contains(p)
        group.contains(non_member)
    metrics["bsgs.contains_us"] = timed(contains_all) / (len(perms) + 1) * 1e6


def bench_polymod(metrics: dict, problems: list, sympy) -> None:
    from cubegal.perm import CycleType
    from cubegal.polymod import PolyFp, ddf_cycle_type, powmod, reduce_mod_p
    from cubegal.polyq import discriminant
    from cubegal.theorems import rubik_f

    f = rubik_f()
    coeffs = [int(c) for c in f.coeffs]
    n = f.degree
    disc = discriminant(f)
    if disc.denominator != 1:
        problems.append("polyq: disc(rubik_f) is not an integer")
        return
    disc_int = disc.numerator

    plist = sieve(20000)
    windows = {
        "p4409": plist[plist.index(4409) - DDF_WINDOW + 1:plist.index(4409) + 1],
        "p20k": plist[-DDF_WINDOW:],
    }
    for label, window in windows.items():
        reduced = [reduce_mod_p(f, p) for p in window]
        types: list = []

        def ddf_all():
            types[:] = [ddf_cycle_type(fp) for fp in reduced]
        metrics[f"polymod.ddf_ms.{label}"] = timed(ddf_all) / len(window) * 1e3

        for p, t in zip(window, types):
            d = disc_int % p
            if d == 0:
                if t is not None:
                    problems.append(f"polymod: p={p} divides disc but DDF found a type")
                continue
            if t is None or sum(t.parts) != n:
                problems.append(f"polymod: p={p} type {t} does not sum to {n}")
                continue
            euler = 1 if pow(d, (p - 1) // 2, p) == 1 else -1
            if t.parity != euler:
                problems.append(f"polymod: p={p} parity {t.parity} != Legendre {euler}")
        if sympy is not None:
            x = sympy.symbols("x")
            for p, t in list(zip(window, types))[::10]:
                if t is None:
                    continue
                _, factors = sympy.Poly(coeffs[::-1], x, modulus=p).factor_list()
                degrees = [fac.degree() for fac, mult in factors for _ in range(mult)]
                if CycleType(tuple(degrees)) != t:
                    problems.append(f"polymod: p={p} type {t} != sympy {sorted(degrees)}")

    p = 4409
    fp = reduce_mod_p(f, p)
    x_poly = PolyFp(p, (0, 1))
    batch = 50
    result: list = []

    def powmod_all():
        for _ in range(batch):
            result[:] = [powmod(x_poly, p, fp)]
    metrics["polymod.powmod_us"] = timed(powmod_all) / batch * 1e6

    modulus = [c % p for c in coeffs]
    inv_lead = pow(modulus[-1], -1, p)
    w = [0] * n
    w[0] = 1
    for _ in range(p):  # w <- X * w mod f, one step at a time
        top = w[-1]
        w = [0] + w[:-1]
        factor = top * inv_lead % p
        w = [(wi - factor * mi) % p for wi, mi in zip(w, modulus)]
    while w and w[-1] == 0:
        w.pop()
    if list(result[0].coeffs) != w:
        problems.append("polymod: powmod(X, p, f) differs from repeated multiplication")


def bench_polyq(metrics: dict, problems: list, sympy) -> None:
    from cubegal.polyq import discriminant
    from cubegal.theorems import professor_h2, revenge_h, rubik_f

    for name, poly in (("rubik_f", rubik_f()), ("professor_h2", professor_h2())):
        metrics[f"polyq.disc_ms.{name}"] = timed(lambda: discriminant(poly), 20) * 1e3

    for name, poly in (("professor_h2", professor_h2()), ("revenge_h", revenge_h())):
        u = -poly.coeffs[0]
        closed = -(Fraction(23) ** 23 * u + Fraction(24) ** 24) * u ** 23
        if discriminant(poly) != closed:
            problems.append(f"polyq: disc({name}) differs from the trinomial closed form")
    if sympy is not None:
        f = rubik_f()
        x = sympy.symbols("x")
        expected = sympy.discriminant(sympy.Poly([int(c) for c in f.coeffs][::-1], x))
        if discriminant(f) != Fraction(int(expected)):
            problems.append("polyq: disc(rubik_f) differs from sympy")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import sympy
    except ImportError:
        sympy = None

    metrics: dict = {}
    problems: list = []
    bench_perm_bsgs(args.seed, metrics, problems)
    bench_polymod(metrics, problems, sympy)
    bench_polyq(metrics, problems, sympy)
    if sympy is None:
        print("micro: sympy not importable, sympy oracles skipped", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "problems": problems}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
