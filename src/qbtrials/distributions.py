"""Waiting-time and longest-run distributions assembled over the kernel layer.

Every waiting-time theorem and every joint longest-run quadrant is a sum over
run arrangements holding x successes and y failures.  Each term is

    theta**(n-f) * q**j * (theta; q)_f * K

for n trials with f failures in all, where the paper's K sums two or four
kernels over the run index s.  The families of one sum end with the same
symbol under the same constraints, and s covers every feasible run count,
so K counts, q-weighted, the arrangements of x successes and y failures
that end with that symbol.
Every term of one side of a sum reads K off one anti-diagonal
x + y = size of the cache's bottom-up arrangement tables, and `_mass`
takes every n of a table at once.  At exact theta and q = a/b it reads
the anti-diagonals of every side of every n with one
`kernels.KernelValueCache.diagonals` call, as the integer numerators over
b**(x*y) of K at a/b.  At float inputs the call's q-free plan holds one
float64 matrix with a row per term, the K it reads
(`kernels.KernelValueCache.float_matrix`), so one product with q**powers
gives every K of the call, in term order; the plan's build reads the
cache's one anti-diagonal store, as `diagonals` does, at the integer
q = 2**w, where K is its polynomial packed.
The store keeps only the anti-diagonals read, of one q at a time, so an
exact read after a plan's build at another q fills its band pairs again.

* `_WAITING_FAMILIES`, keyed (success freq?, failure freq?, later?), holds
  the families summed when the success side stops the wait and those summed
  when the failure side stops it (Theorems 3.1 and 3.2 for run/run, 4.1 and
  4.2 for freq/run, 4.3 and 4.4 for run/freq, 5.1 and 5.3 for freq/freq,
  sooner and later); `kernels.family_arrangement` gives their last symbol
  and constraints.  A run quota of k stops on a tail of k trials after the
  arrangement, which adds k to f for a failure tail and y*k to j for a
  success tail; a frequency quota of k fixes that side's count at k and
  has no tail.
* A joint quadrant bounds the success runs by k1 and the failure runs by
  k2, each from above (<=) or below (>=), and its K is the arrangements
  that end with a success run plus those that end with a failure run; there
  j = 0 and f = y.

The longest-run PMF and CDF are one sum over the failure count y of the
same tables' cells, read through `_mass` like every other probability:
the y + 1 success runs are at most k long and, for the PMF, one of them
is exactly k, which is the band (0, k) minus the band (0, k - 1), so
PMF(k) shares its tables with CDF(k) and CDF(k - 1).  At exact inputs a
long cap (n // (k + 1) <= k) reads no pass of its own: the cache sums its
diagonal from the uncapped cells (`_core_py.capped_cells`), one pass of
which serves every such k at one q; short caps and float plans read the
band pass.  Each function that
reads kernels takes an optional `KernelValueCache` and uses the
module-level one without it.  At rational theta = c/d and q = a/b each
probability hands its terms' j, f and K to one `qcalc.term_sum` call: the
whole sum is one integer over d**n * b**B, and one Fraction is built at
the end.  At float inputs the terms of every n are one numpy product,
theta**(n-f) * q**j * (theta; q)_f * K in that order, over the plan's
indices, memoized in the cache, and each n's terms are summed by
`math.fsum`.

Sum ranges are generous where feasibility is subtle; kernels vanish outside
their domains.  Exact (Fraction) inputs produce exact outputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

# named_kernel and longest_cell_kernel_U/V are not called here; they stay
# bound as the single-kernel names a traced run wraps in this module
from .kernels import (
    KernelValueCache,
    _default_cache,
    family_arrangement,
    longest_cell_kernel_U,
    longest_cell_kernel_V,
    named_kernel,
)
from .model import Mode, ModelParams, QuotaSpec
from .qcalc import Scalar, is_exact, q_binomial, q_pochhammer, term_sum

__all__ = [
    "Pmf",
    "Rel",
    "waiting_time_pmf",
    "waiting_time_table",
    "sooner_freq_freq_closed",
    "longest_run_pmf",
    "longest_run_cdf",
    "joint_longest",
    "q_binomial_pmf",
    "support_min",
]

_SUM_SLACK = 1e-10


class Rel(Enum):
    LE = "le"
    GE = "ge"


@dataclass
class Pmf:
    """Probabilities for n = offset, offset+1, ..., offset+len(probs)-1."""

    offset: int
    probs: list[Scalar]

    def support(self) -> range:
        return range(self.offset, self.offset + len(self.probs))

    def total(self) -> Scalar:
        return sum(self.probs)


# (success freq?, failure freq?, later?) -> (families summed when the success
# side stops the wait, families summed when the failure side stops it); the
# differential scan certifies the configurations in this key order
_WAITING_FAMILIES: dict[tuple[bool, bool, bool], tuple[tuple[str, ...], tuple[str, ...]]] = {
    (False, False, False): (("A", "B"), ("C", "D")),            # Theorem 3.1
    (False, False, True): (("E", "F"), ("G", "H")),             # Theorem 3.2
    (True, False, False): (("Hbar", "Gbar"), ("Gbar", "Hbar")),  # Theorem 4.1
    (True, False, True): (("I", "J"), ("Gbar", "Hbar")),        # Theorem 4.2
    (False, True, False): (("Ebar", "Fbar"), ("Ebar", "Fbar")),  # Theorem 4.3
    (False, True, True): (("Ebar", "Fbar"), ("K", "L")),        # Theorem 4.4
    (True, True, False): (("Ibar", "Jbar"), ("Kbar", "Lbar")),  # Theorem 5.1
    (True, True, True): (("Ibar", "Jbar"), ("Kbar", "Lbar")),   # Theorem 5.3
}

def _zero(th: Scalar, q: Scalar) -> Scalar:
    """The int 0 for exact theta and q (ints or Fractions), 0.0 once either is a float."""
    return 0 if is_exact(th, q) else 0.0


def support_min(quota: QuotaSpec) -> int:
    k1 = quota.success_quota.k
    k2 = quota.failure_quota.k
    if quota.mode is Mode.LATER:
        return k1 + k2
    return min(k1, k2)


def waiting_time_pmf(
    params: ModelParams,
    quota: QuotaSpec,
    n: int,
    cache: KernelValueCache | None = None,
) -> Scalar:
    """P(waiting time = n) for any quota pair in either mode.

    The cache keeps only the anti-diagonals a call reads, at either kind
    of q, so calls per n fill their band pairs again whichever way n
    moves: later run:3/freq:2 at n = 60 down to 5 takes about 0.2 s at
    (37/100, 81/100) and at (0.37, 0.81), as much as when n rises.
    `waiting_time_table` reads every n in one call, with one fill per
    band pair: about 0.05 s at either point."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < support_min(quota):
        return _zero(params.theta, params.q)
    return _mass(params.theta, params.q, (n,), cache or _default_cache,
                 _waiting_sides, quota.key)[0]


@functools.lru_cache(maxsize=4096)
def _waiting_sides(key, n):
    """The terms of one waiting-time theorem, one side per stopping side,
    for the quota whose `QuotaSpec.key` is `key`.

    Side j (0 = success, 1 = failure) stops the wait at trial n.  Under a
    run quota the last k_j trials are the tail run and the other side's
    count ranges; under a frequency quota side j holds exactly k_j trials,
    the last of them on trial n.  A side is (last_x, xcon, ycon, size,
    rows), its kernels summed over s and over its families: each row
    (j, f, x, y) is the term theta**(n-f) q**j (theta; q)_f K(x, y), K the
    arrangements of x successes and y failures (x + y <= size) that end
    with a success run iff last_x, under the constraints.

    The terms do not depend on theta and q, so they are memoized as tuples:
    building them costs about as much as evaluating them at float inputs.
    The bound holds the terms of every n <= 30 of 8 configurations at
    9 quota pairs.
    """
    s_freq, k1, f_freq, k2, later = key
    ks, freqs = (k1, k2), (s_freq, f_freq)
    sides = []
    for j, families in enumerate(_WAITING_FAMILIES[s_freq, f_freq, later]):
        last_x, xcon, ycon = family_arrangement(families[0], *ks)
        o = 1 - j
        tail = 0 if freqs[j] else ks[j]
        hi = n - ks[j]
        if freqs[o] and not later:
            hi = min(hi, ks[o] - 1)  # the other side must not reach its quota
        lo = n - ks[j] if freqs[j] else (ks[o] if later else 0)
        others = range(max(lo, 0), hi + 1)
        if j == 0:
            # y failures and n - tail - y successes, then the success tail,
            # whose successes each follow the y failures
            rows = [(y * tail, y, n - tail - y, y) for y in others]
        else:
            # x successes and n - tail - x failures, then the failure tail
            rows = [(0, n - x, x, n - tail - x) for x in others]
        sides.append((last_x, xcon, ycon, n - tail, tuple(rows)))
    return tuple(sides)


def _mass(th, q, ns, cache, sides, *args):
    """The probabilities of the n in `ns`, in their order: each the sum of
    the terms of `sides(*args, n)`, sides as `_waiting_sides` gives them.

    Every entry of a side lies on the anti-diagonal x + y = size of its
    tables.  At exact theta and q = a/b every side of every n reads its K,
    for every y, in one `KernelValueCache.diagonals` call: integer
    numerators over b**(x*y); each n is then one `qcalc.term_sum` over its
    sides' rows, each side's diagonal looked up once.  Otherwise
    the terms of every n are taken at once, by the q-free plan of
    `_float_plan`, memoized in the cache under (name of `sides`, ns,
    *args): the K of every term is one product of the plan's matrix with
    the powers of q, the terms are one numpy product, theta**(n-f) *
    q**j * (theta; q)_f * K in that order, and each n's total is one
    `math.fsum` of its slice, so it is correctly rounded.
    """
    if is_exact(th, q):
        per_n = [sides(*args, n) for n in ns]
        # a side with no rows builds no table
        ks = cache.diagonals(q, dict.fromkeys(side[:4] for n_sides in per_n
                                              for side in n_sides if side[4]))
        return [term_sum(th, q, n, ((j, f, diagonal[y], x * y)
                                    for diagonal, rows in ((ks[side[:4]], side[4])
                                                           for side in n_sides if side[4])
                                    for j, f, x, y in rows))
                for n, n_sides in zip(ns, per_n)]
    (nf, j, f), cuts, low, matrix, top = cache.float_plan(
        (sides.__name__, ns, *args), lambda: _float_plan(ns, cache, sides, args))
    ths, qs, prefixes = _float_powers(float(th), float(q), top)
    ks = matrix @ qs[low:low + matrix.shape[1]]
    terms = (ths[nf] * qs[j] * prefixes[f] * ks).tolist()
    return [math.fsum(terms[a:b]) for a, b in zip(cuts, cuts[1:])]


# ((theta, q), (theta**i, q**i, (theta; q)_i for i < top)): one pair, replaced
# by a single assignment, so a reader sees powers of the point it keys
_powers_memo: tuple = (None, ((),) * 3)
# the exponents 0, 1, 2, ... as float64, at least doubled when they grow
_exponents = np.arange(0.0)


def _float_powers(th, q, top):
    """(theta**i, q**i, (theta; q)_i) for i = 0..m - 1, m >= max(top, 1),
    as float64 arrays: held for the last point asked for, as a longest-run
    table asks at one point once per k, and at least doubled when they
    grow.  The powers are taken over a held row of exponents, and the
    prefixes are the running product of 1 - theta*q**i, built in place.
    Two powers over the row cost less than one `np.power` of the point as
    a column, which pays for converting it to an array."""
    global _powers_memo, _exponents
    point, powers = _powers_memo
    if point != (th, q) or len(powers[1]) < top:
        if point == (th, q):
            top = max(top, 2 * len(powers[1]))
        top = max(top, 1)
        if len(_exponents) < top:
            _exponents = np.arange(float(max(top, 2 * len(_exponents))))
        exps = _exponents[:top]
        qs = q ** exps
        prefixes = np.empty(top)
        prefixes[0] = 1.0
        tail = prefixes[1:]
        np.multiply(qs[:-1], -th, out=tail)
        np.add(tail, 1.0, out=tail)
        np.multiply.accumulate(prefixes, out=prefixes)
        powers = th ** exps, qs, prefixes
        _powers_memo = (th, q), powers
    return powers


def _float_plan(ns, cache, sides, args):
    """The q-free plan of `_mass` at float inputs: ((n - f, j, f), cuts,
    low, matrix, top).

    Each term whose K is not zero is one column of three intp arrays, its
    n - f, j and f, and one row of the float64 matrix, the coefficients of
    q**(low + e) in its K (`KernelValueCache.float_matrix`), so one product
    matrix @ q**(low + e) gives the terms' K in their order.  The terms are
    ordered by n, those of ns[i] at cuts[i]:cuts[i + 1].  Every power of q
    and of theta that the terms and the matrix ask for is below top.

    `_mass` memoizes it in the cache (`KernelValueCache.float_plan`).
    Building a plan costs several evaluations of it.  Its matrix holds the
    rows the plan reads and no other: 16 rows over 7 powers for sooner
    run:3/freq:3 to n_max = 30, 192 rows over 292 powers for later
    freq:3/freq:2 to n_max = 100.
    """
    terms = []
    for i, n in enumerate(ns):
        for last_x, xcon, ycon, size, rows in sides(*args, n):
            terms += [(i, n - f, j, f, (last_x, xcon, ycon, size, y)) for j, f, _, y in rows]
    terms.sort(key=lambda term: term[:4])
    live, low, matrix = cache.float_matrix([term[4] for term in terms])
    i, *columns = np.array([terms[t][:4] for t in live], np.intp).reshape(-1, 4).T
    top = max([low + matrix.shape[1]] + [column.max() + 1 for column in columns if len(column)])
    cuts = tuple(np.searchsorted(i, np.arange(len(ns) + 1)).tolist())
    return tuple(np.ascontiguousarray(c) for c in columns), cuts, low, matrix, int(top)


def sooner_freq_freq_closed(params: ModelParams, k1: int, k2: int, n: int) -> Scalar:
    """Sooner frequency/frequency mass as a difference of survival sums."""
    if k1 < 1 or k2 < 1:
        raise ValueError("quota sizes must be >= 1")
    zero = _zero(params.theta, params.q)
    if n < min(k1, k2):
        # below the support both sums are 1, and 1 - 1 can round below 0
        return zero
    a = zero
    for x in range(max(0, n - k2), k1):
        a = a + q_binomial_pmf(params, n - 1, x)
    b = zero
    for x in range(max(0, n + 1 - k2), k1):
        b = b + q_binomial_pmf(params, n, x)
    return a - b


def q_binomial_pmf(params: ModelParams, n: int, r: int) -> Scalar:
    """P(exactly r successes in n trials)."""
    th, q = params.theta, params.q
    if r < 0 or r > n:
        return _zero(th, q)
    return q_binomial(n, r, q) * th ** r * q_pochhammer(th, q, n - r)


def longest_run_pmf(
    params: ModelParams,
    n: int,
    k: int,
    cache: KernelValueCache | None = None,
) -> Scalar:
    """P(longest success run in n trials = k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    th, q = params.theta, params.q
    if k < 0 or k > n:
        return _zero(th, q)
    return _longest_mass(th, q, n, k, k, cache or _default_cache)


def longest_run_cdf(
    params: ModelParams,
    n: int,
    k: int,
    cache: KernelValueCache | None = None,
) -> Scalar:
    """P(longest success run in n trials <= k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    th, q = params.theta, params.q
    if k < 0:
        return _zero(th, q)
    if k >= n:
        return _zero(th, q) + 1
    return _longest_mass(th, q, n, k, 0, cache or _default_cache)


def _longest_mass(th, q, n, k, need, cache):
    """Mass of the length-n sequences whose success runs are all <= k and,
    unless need is 0, one of them >= need: the cells, y + 1 success runs
    of 0..k around y failure runs of length 1."""
    return _mass(th, q, (n,), cache, _longest_sides, k, need)[0]


def _longest_sides(k, need, n):
    """`_longest_mass`'s one side, as `_waiting_sides` gives sides."""
    rows = [(0, y, n - y, y) for y in range(n - need + 1)]
    return [(True, (0, k, need), (1, 1, 0), n, rows)]


def joint_longest(
    params: ModelParams,
    n: int,
    k1: int,
    rel1: Rel,
    k2: int,
    rel2: Rel,
    cache: KernelValueCache | None = None,
) -> Scalar:
    """P(longest success run rel1 k1 AND longest failure run rel2 k2)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    for rel, k in ((rel1, k1), (rel2, k2)):
        if rel is Rel.GE and k < 1:
            raise ValueError("a >= relation needs k >= 1")
        if rel is Rel.LE and k < 0:
            raise ValueError("a <= relation needs k >= 0")
    return _mass(params.theta, params.q, (n,), cache or _default_cache,
                 _joint_sides, k1, rel1 is Rel.LE, k2, rel2 is Rel.LE)[0]


def _joint_sides(k1, le1, k2, le2, n):
    """`joint_longest`'s two sides, as `_waiting_sides` gives sides; le1
    and le2 are whether each relation is <=."""
    # every run of the symbol <= k, or some run >= k
    xcon = (1, k1, 0) if le1 else (1, None, k1)
    ycon = (1, k2, 0) if le2 else (1, None, k2)
    ys = range(0 if le2 else k2, n - (0 if le1 else k1) + 1)
    rows = [(0, y, n - y, y) for y in ys]
    # its K ends with either symbol, one side each; with no failure the
    # empty arrangement, counted among those that end with a success run,
    # ends with one
    return [(True, xcon, ycon, n, rows), (False, xcon, ycon, n, [row for row in rows if row[1]])]


def waiting_time_table(
    params: ModelParams,
    quota: QuotaSpec,
    n_max: int,
    cache: KernelValueCache | None = None,
) -> Pmf:
    """PMF table from the support minimum up to n_max inclusive."""
    probs = _waiting_probs(params, quota, n_max, cache)
    # an exact table may not exceed 1 at all, a float one by rounding only;
    # exact probabilities add as one integer over the lcm of their
    # denominators, with no Fraction per partial sum
    if is_exact(params.theta, params.q):
        common = math.lcm(*(p.denominator for p in probs))
        total = sum(p.numerator * (common // p.denominator) for p in probs)
        if total > common:
            raise ValueError(f"partial sums exceed 1: {Fraction(total, common)}")
    elif (running := sum(probs)) > 1 + _SUM_SLACK:
        raise ValueError(f"partial sums exceed 1: {running}")
    return Pmf(offset=support_min(quota), probs=probs)


def _waiting_probs(
    params: ModelParams,
    quota: QuotaSpec,
    n_max: int,
    cache: KernelValueCache | None = None,
) -> list[Scalar]:
    """P(waiting time = n) for n from the support minimum up to n_max,
    all from one `_mass` call.  `waiting_time_table` checks their partial
    sums; `oracle.differential_scan` reads them unchecked, as it checks
    each one against enumeration."""
    offset = support_min(quota)
    if n_max < offset:
        raise ValueError(f"n_max={n_max} is below the support minimum {offset}")
    # n_max first, the order the float plans are keyed and built in
    probs = _mass(params.theta, params.q, range(n_max, offset - 1, -1), cache or _default_cache,
                  _waiting_sides, quota.key)
    probs.reverse()
    return probs
