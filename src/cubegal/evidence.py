"""Frobenius-based evidence for Galois-group claims.

A scan reduces a rational polynomial modulo a deterministic stream of
primes and records the cycle type of each good (squarefree) reduction.
The checks built on top:

* containment of every observed type in the predicted type set of a
  restricted wreath product acting imprimitively;
* parity linkage between polynomials whose discriminants share a square
  class (the Frobenius sign is determined by the quadratic subfield).
  A linkage needs only the signs, and by Stickelberger's theorem the
  sign at an odd good prime p is the Legendre symbol (disc f / p), so
  it reads each one from disc f mod p by Euler's criterion
  (`polymod.frobenius_sign`) and factors nothing past p = 2;
* a sound full-symmetric-group certifier.

Every scan, linkage and certificate uses one budget and one stop rule,
written once in `_good_rows`: it examines the first primes good for all
of its polynomials, and stops after `budget` of them or after
_SEARCH_FACTOR (10) x `budget` primes examined, good or bad, whichever
comes first.  Scans and certificates draw types from one stream, which
keeps nothing between calls.  Only a scan may start a worker pool, and
the pool lives for that one call; certificates run in process.

The certifier's soundness chain, each step classical (see Wielandt,
"Finite Permutation Groups", Th. 13.9, or Dixon & Mortimer, "Permutation
Groups", Th. 3.3E; Dedekind's reduction theorem links factor degrees to
Frobenius cycle types at primes with squarefree reduction):

1. an irreducible reduction mod p shows the group contains an n-cycle,
   hence is transitive;
2. a reduction of type {n-1, 1} shows the point stabilizer acts
   transitively on the remaining points, so the group is 2-transitive,
   hence primitive;
3. a type with exactly one part equal to a prime q <= n-3 and q dividing
   no other part powers (by the lcm of the other parts) to a q-cycle;
   a primitive group containing a q-cycle with q <= n-3 contains the
   alternating group (Jordan);
4. a nonsquare discriminant puts the group outside the alternating
   group; with 3 it must be the full symmetric group.

A returned certificate is therefore a proof; "inconclusive" (None) is
the only other outcome.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice, product
from math import prod

from .perm import CycleType
from .polymod import _sign, frobenius_type, is_prime, primes
from .polyq import PolyQ, discriminant
from .sqclass import is_square

DEFAULT_SCAN_BUDGET = 500
DEFAULT_LINKAGE_BUDGET = 300
DEFAULT_TRIPLE_BUDGET = 200
DEFAULT_CERTIFY_BUDGET = 2000
# every stream gives up after examining this multiple of its budget
_SEARCH_FACTOR = 10
# statistical sanity thresholds used by the distribution checks
MIN_DISTINCT_TYPES_S24 = 50
EVEN_FRACTION_WINDOW = (0.45, 0.55)


# primes per batch handed to a worker pool
_POOL_CHUNK = 64
# (poly, p) keys per task that pool.map sends to a worker
_MAP_CHUNK = 8


def __getattr__(name: str):
    # ProcessPoolExecutor is imported at its first use, so a process that
    # starts no pool never loads concurrent.futures.process or
    # multiprocessing; it is then cached in the module like an import
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _type_worker(key):
    return frobenius_type(*key)


def _good_rows(budget: int, rows, bad: list[int] | None = None):
    """The stop rule of every scan, linkage and certificate, written once.

    rows(examined) yields (p, values) for the primes of `examined`, in
    order and drawing each one only when it is needed; a None in values
    marks p bad for some polynomial.  Yield the rows of good primes, skip
    the bad ones (appended to `bad` if given), and end after `budget`
    good primes or once _SEARCH_FACTOR * budget primes are examined,
    whichever comes first.
    """
    examined = islice(primes(), _SEARCH_FACTOR * budget)
    good = 0
    for q, at_q in rows(examined):
        if None in at_q:
            if bad is not None:
                bad.append(q)
            continue
        yield q, at_q
        good += 1
        if good == budget:
            return


def _frobenius_stream(f: PolyQ, budget: int, bad: list[int] | None = None, pool=None):
    """Yield (p, [t]) for consecutive primes p good for f, t being the
    Frobenius cycle type of f at p, under the stop rule of `_good_rows`.

    Without a pool each type is computed here, one prime at a time, so no
    prime is drawn ahead of the consumer.  With one, primes are drawn in
    batches of _POOL_CHUNK, and each batch is one `pool.map`; the batches
    bound the types computed ahead of the consumer (Executor.map would
    compute all _SEARCH_FACTOR * budget up front).
    """
    if pool is None:
        def rows(examined):
            for q in examined:
                yield q, [frobenius_type(f, q)]
    else:
        def rows(examined):
            for batch in iter(lambda: list(islice(examined, _POOL_CHUNK)), []):
                types = pool.map(_type_worker, [(f, q) for q in batch], chunksize=_MAP_CHUNK)
                for q, t in zip(batch, types):
                    yield q, [t]

    yield from _good_rows(budget, rows, bad)


@dataclass
class EvidenceProfile:
    """Observed Frobenius data for one polynomial."""

    poly_id: str
    types_by_prime: dict[int, CycleType]
    bad_primes: list[int]

    @property
    def primes_scanned(self) -> int:
        return len(self.types_by_prime)

    @property
    def observed_types(self) -> Counter:
        return Counter(self.types_by_prime.values())

    @property
    def parity_history(self) -> list[int]:
        return [t.parity for t in self.types_by_prime.values()]

    def distinct_types(self) -> int:
        return len(self.observed_types)

    def even_fraction(self) -> float:
        history = self.parity_history
        if not history:
            return 0.0
        return history.count(1) / len(history)

    def summary(self) -> dict:
        return {
            "poly_id": self.poly_id,
            "good_primes": self.primes_scanned,
            "bad_primes": [str(p) for p in self.bad_primes],
            "distinct_types": self.distinct_types(),
            "even_fraction": round(self.even_fraction(), 4),
            "types": {str(t): c for t, c in sorted(self.observed_types.items(),
                                                   key=lambda kv: (-kv[1], kv[0].parts))},
        }


def scan(f: PolyQ, prime_budget: int = DEFAULT_SCAN_BUDGET, *,
         jobs: int = 1, poly_id: str | None = None) -> EvidenceProfile:
    """Profile f over the first `prime_budget` good primes.

    At jobs > 1 the types come from one worker pool, started here and shut
    down before the scan returns.  A batch has at most
    _POOL_CHUNK / _MAP_CHUNK tasks, so the pool has no more workers than
    that, whatever `jobs` asks.  Raises when fewer than min(5, budget)
    good primes exist within 10x the budget.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if poly_id is None:
        poly_id = f"deg{f.degree}-{abs(hash(f)) % 10**8:08d}"
    bad: list[int] = []
    # the pool class is read through the module, so the lazy name above resolves
    with (nullcontext() if jobs == 1 else sys.modules[__name__].ProcessPoolExecutor(
            max_workers=min(jobs, _POOL_CHUNK // _MAP_CHUNK))) as pool:
        types_by_prime = {p: t for p, (t,) in _frobenius_stream(f, prime_budget, bad, pool)}
    if len(types_by_prime) < min(5, prime_budget):
        raise ValueError(f"only {len(types_by_prime)} good primes within "
                         f"{_SEARCH_FACTOR}x budget")
    return EvidenceProfile(poly_id, types_by_prime, bad)


# -- predicted cycle types of restricted wreath products ---------------------


def _partitions(m: int, cap: int | None = None):
    if m == 0:
        yield ()
        return
    if cap is None or cap > m:
        cap = m
    for first in range(cap, 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def predict_wreath_types(n: int, m: int) -> frozenset[CycleType]:
    """Exact cycle-type set of (C_n wr S_m)^0 acting on n*m points.

    An element projects to a permutation of the m blocks; a block cycle
    of length L whose accumulated twist is t contributes one part n*L
    when t != 0 and n parts L when t == 0.  The zero-sum twist constraint
    limits how many cycles can carry nonzero twist: for n = 2 an even
    count k; for n = 3 any count except exactly one (values 1 and 2 mix
    to reach 0 mod 3 for every k >= 2).
    """
    if n not in (2, 3):
        raise ValueError("only twist moduli 2 and 3 are modeled")
    out: set[CycleType] = set()
    for partition in _partitions(m):
        lengths = sorted(set(partition))
        counts = [partition.count(length) for length in lengths]
        for choice in product(*(range(c + 1) for c in counts)):
            k = sum(choice)
            if n == 2 and k % 2:
                continue
            if n == 3 and k == 1:
                continue
            parts: list[int] = []
            for length, total, twisted in zip(lengths, counts, choice):
                parts.extend([n * length] * twisted)
                parts.extend([length] * (n * (total - twisted)))
            out.add(CycleType(tuple(parts)))
    return frozenset(out)


def types_within(profile: EvidenceProfile, predicted: frozenset[CycleType]) -> list[CycleType]:
    """Observed types outside the predicted set (empty = containment holds)."""
    return sorted((t for t in profile.observed_types if t not in predicted),
                  key=lambda t: t.parts)


# -- full-symmetric-group certification --------------------------------------


@dataclass(frozen=True)
class SymmetricCertificate:
    """Witness primes proving the Galois group is the full symmetric group."""

    degree: int
    transitive_prime: int
    primitive_prime: int
    jordan_prime: int
    jordan_cycle: int

    def witnesses(self) -> str:
        return (f"witnesses p={self.transitive_prime},{self.primitive_prime},"
                f"{self.jordan_prime} (q={self.jordan_cycle})")

    def revalidate(self, f: PolyQ) -> bool:
        """Recompute every witness, and the discriminant, from scratch."""
        n = f.degree
        witnesses = (self.transitive_prime, self.primitive_prime, self.jordan_prime)
        if not all(isinstance(w, int) for w in (*witnesses, self.jordan_cycle)):
            return False
        try:
            if n != self.degree or not all(is_prime(p) for p in witnesses):
                return False
        except ValueError:  # a witness past the deterministic primality test
            return False
        t1 = frobenius_type(f, self.transitive_prime)
        if t1 is None or t1.parts != (n,):
            return False
        t2 = frobenius_type(f, self.primitive_prime)
        if t2 is None or t2.parts != (n - 1, 1):
            return False
        t3 = frobenius_type(f, self.jordan_prime)
        if t3 is None or not _jordan_witness(t3, n, self.jordan_cycle):
            return False
        return not is_square(discriminant(f))


def _jordan_witness(t: CycleType, n: int, q: int | None = None) -> int | None:
    """The least prime q <= n-3 occurring exactly once in t and dividing no
    other part; powering the Frobenius by the lcm of the other parts then
    isolates a q-cycle.  Returns the witness q (or None).  A given q is
    checked, and must meet the same conditions as a searched one."""
    parts = t.parts
    for cand in sorted(set(parts)) if q is None else (q,):
        if (cand <= n - 3 and parts.count(cand) == 1 and is_prime(cand)
                and all(part == cand or part % cand for part in parts)):
            return cand
    return None


def certify_symmetric(f: PolyQ, prime_budget: int = DEFAULT_CERTIFY_BUDGET
                      ) -> SymmetricCertificate | None:
    """Search the budget's good primes for the three witnesses; None
    means inconclusive.

    A square discriminant makes the symmetric group impossible, so the
    search is skipped and None returned immediately.
    """
    n = f.degree
    if n < 8:
        raise ValueError("certifier is tuned for degree >= 8")
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("polynomial is not separable")
    if is_square(disc):
        return None
    transitive = primitive = jordan = None
    jordan_q = None
    for p, (t,) in _frobenius_stream(f, prime_budget):
        if transitive is None and t.parts == (n,):
            transitive = p
        if primitive is None and t.parts == (n - 1, 1):
            primitive = p
        if jordan is None:
            q = _jordan_witness(t, n)
            if q is not None:
                jordan, jordan_q = p, q
        if transitive and primitive and jordan:
            return SymmetricCertificate(degree=n, transitive_prime=transitive,
                                        primitive_prime=primitive, jordan_prime=jordan,
                                        jordan_cycle=jordan_q)
    return None


# -- parity linkage -----------------------------------------------------------


@dataclass
class LinkageReport:
    """Per-prime sign comparison over primes good for every polynomial."""

    primes_checked: int
    violations: list[tuple]

    @property
    def ok(self) -> bool:
        return not self.violations


def _linkage(polys, prime_budget: int) -> LinkageReport:
    """Check sign(polys[0]) == product of the other signs at every prime
    good for all of them, under the stop rule of `_good_rows`;
    violations are (p, *signs).

    Each sign is that of `polymod.frobenius_sign`, the Legendre symbol
    of disc f at odd p, which costs less than handing its key to a
    worker; so a linkage computes no type past p = 2 and runs in process.
    Its primes come from `primes()`, so it reads them through the sign
    helper that tests no primality.
    """
    if any(discriminant(poly) == 0 for poly in polys):
        raise ValueError("inputs must be separable")

    def rows(examined):
        for q in examined:
            yield q, [_sign(f, q) for f in polys]

    checked = list(_good_rows(prime_budget, rows))
    violations = [(p, *signs) for p, signs in checked if signs[0] != prod(signs[1:])]
    return LinkageReport(primes_checked=len(checked), violations=violations)


def parity_linkage(f: PolyQ, g: PolyQ,
                   prime_budget: int = DEFAULT_LINKAGE_BUDGET) -> LinkageReport:
    """Check sign(f) == sign(g) at every prime good for both, the sign
    being that of a Frobenius element.  Discriminants in one square
    class force linkage; a violating prime is a constructive witness of
    distinct classes.  Violations are (p, sign of f, sign of g)."""
    return _linkage([f, g], prime_budget)


def triple_parity_linkage(f: PolyQ, g2: PolyQ, g3: PolyQ,
                          prime_budget: int = DEFAULT_TRIPLE_BUDGET) -> LinkageReport:
    """Check sign(f) == sign(g2) * sign(g3) at every common good prime.
    Violations are (p, sign of f, sign of g2, sign of g3)."""
    return _linkage([f, g2, g3], prime_budget)
