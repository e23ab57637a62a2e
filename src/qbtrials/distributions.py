"""Waiting-time and longest-run distributions assembled over the kernel layer.

Every waiting-time theorem and every joint longest-run quadrant is a sum over
run arrangements holding x successes and y failures.  Each term is

    theta**a * q**b * (theta; q)_c * sum over s of (two or four kernels)

where s counts the runs of the symbol that ends the arrangement.  The
theorems differ only in which kernel families they sum, in the ranges of x
and y and in the stopping tail, so two tables drive one loop each:

* `_WAITING_FAMILIES`, keyed (success freq?, failure freq?, later?), holds
  the families summed when the success side stops the wait and those summed
  when the failure side stops it (Theorems 3.1 and 3.2 for run/run, 4.1 and
  4.2 for freq/run, 4.3 and 4.4 for run/freq, 5.1 and 5.3 for freq/freq,
  sooner and later).  A run quota of k stops on a tail of k trials after the
  arrangement, which adds k to a (success tail) or to c (failure tail) and
  y*k to b for a success tail; a frequency quota of k fixes that side's
  count at k and has no tail.
* `_JOINT`, keyed by the two relations, holds the four families with their
  s shifts and the shifts of k1 and k2 for each joint quadrant; there a = x,
  b = 0 and c = y.

Sum ranges are generous where feasibility is subtle; kernels vanish outside
their domains.  Exact (Fraction) inputs produce exact outputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .kernels import (
    KernelValueCache,
    longest_cell_kernel_U,
    longest_cell_kernel_V,
    named_kernel,
)
from .model import FreqQuota, Mode, ModelParams, QuotaSpec
from .qcalc import Scalar, q_binomial, q_pochhammer, q_pochhammer_prefixes

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

logger = logging.getLogger(__name__)

_NEG_CLAMP = 1e-12
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

# (rel1, rel2) -> ((family, s shift) x 4, k1 shift, k2 shift); a <= k quota
# bounds run lengths by k, which the families' "< k" constraints express at k+1
_JOINT: dict[tuple[Rel, Rel], tuple[tuple[tuple[str, int], ...], int, int]] = {
    (Rel.LE, Rel.LE): ((("D", 0), ("A", 0), ("C", 1), ("B", 0)), 1, 1),
    (Rel.LE, Rel.GE): ((("M", 0), ("E", 0), ("N", 1), ("F", 0)), 1, 0),
    (Rel.GE, Rel.LE): ((("H", 0), ("O", 0), ("G", 1), ("P", 0)), 0, 1),
    (Rel.GE, Rel.GE): ((("Q", 0), ("R", 0), ("S", 1), ("T", 0)), 0, 0),
}


def _rel_holds(value: int, rel: Rel, k: int) -> bool:
    return value <= k if rel is Rel.LE else value >= k


def _zero(th: Scalar, q: Scalar) -> Scalar:
    """The int 0 for exact theta and q, 0.0 once either is a float."""
    exact = isinstance(th, (int, Fraction)) and isinstance(q, (int, Fraction))
    return 0 if exact else 0.0


def _failure_sum(th: Scalar, q: Scalar, n: int, ys, inner) -> Scalar:
    """Sum over y in ys of theta**(n-y) * (theta; q)_y * inner(y), zero
    inners skipped: the mass of an event whose length-n sequences with y
    failures have q-weighted count inner(y)."""
    ffp = q_pochhammer_prefixes(th, q, n)
    p = _zero(th, q)
    for y in ys:
        v = inner(y)
        if v:
            p = p + th ** (n - y) * ffp[y] * v
    return p


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
    """P(waiting time = n) for any quota pair in either mode."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < support_min(quota):
        return _zero(params.theta, params.q)
    sq, fq = quota.success_quota, quota.failure_quota
    return _waiting_mass(params.theta, params.q, (sq.k, fq.k),
                         (isinstance(sq, FreqQuota), isinstance(fq, FreqQuota)),
                         quota.mode is Mode.LATER, n, _kernel_fn(params.q, cache))


def _kernel_fn(q: Scalar, cache: KernelValueCache | None):
    # named_kernel is looked up at call time, so a wrapper installed on
    # this module's binding sees every kernel call
    return lambda fam, m, r, s, k1, k2: named_kernel(fam, m, r, s, k1, k2, q, cache)


def _waiting_mass(th, q, ks, freqs, later, n, K):
    """Sum of the stopping-side terms of one waiting-time theorem.

    Side j (0 = success, 1 = failure) stops the wait at trial n.  Under a
    run quota the last k_j trials are the tail run and the other side's
    count ranges; under a frequency quota side j holds exactly k_j trials,
    the last of them on trial n.  K(family, x, y, s, k1, k2) is the kernel.
    """
    ffp = q_pochhammer_prefixes(th, q, n)
    p = _zero(th, q)
    for j, families in enumerate(_WAITING_FAMILIES[freqs[0], freqs[1], later]):
        o = 1 - j
        tail = 0 if freqs[j] else ks[j]
        t1, t0 = (tail, 0) if j == 0 else (0, tail)
        hi = n - ks[j]
        if freqs[o] and not later:
            hi = min(hi, ks[o] - 1)  # the other side must not reach its quota
        lo = n - ks[j] if freqs[j] else (ks[o] if later else 0)
        for other in range(max(lo, 0), hi + 1):
            own = n - tail - other
            x, y = (own, other) if j == 0 else (other, own)
            # the arrangement ends with the stopping symbol under a frequency
            # quota and with the other symbol before a tail run
            ends = own if freqs[j] else other
            inner = 1 if x == y == 0 else 0
            for s in range(1, ends + 1):
                for fam in families:
                    inner = inner + K(fam, x, y, s, ks[0], ks[1])
            if inner:
                p = p + th ** (x + t1) * q ** (y * t1) * ffp[y + t0] * inner
    return p


def sooner_freq_freq_closed(params: ModelParams, k1: int, k2: int, n: int) -> Scalar:
    """Sooner frequency/frequency mass as a difference of survival sums."""
    if k1 < 1 or k2 < 1:
        raise ValueError("quota sizes must be >= 1")
    zero = _zero(params.theta, params.q)
    if n < 1:
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


def longest_run_pmf(params: ModelParams, n: int, k: int) -> Scalar:
    """P(longest success run in n trials = k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    th, q = params.theta, params.q
    if k < 0 or k > n:
        return _zero(th, q)
    if k == 0:
        # all failures; adding the zero makes (theta; q)_0 a float in float mode
        return _zero(th, q) + q_pochhammer(th, q, n)

    def inner(y):
        v = 0
        for i in range(1, y + 2):
            v = v + longest_cell_kernel_U(y + 1, n - y, i, k, q)
        return v

    return _failure_sum(th, q, n, range(n - k + 1), inner)


def longest_run_cdf(params: ModelParams, n: int, k: int) -> Scalar:
    """P(longest success run in n trials <= k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    th, q = params.theta, params.q
    if k < 0:
        return _zero(th, q)
    if k >= n:
        return _zero(th, q) + 1
    return _failure_sum(th, q, n, range(n + 1),
                        lambda y: longest_cell_kernel_V(y + 1, n - y, k, q))


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
    return _joint_mass(params.theta, params.q, n, k1, rel1, k2, rel2,
                       _kernel_fn(params.q, cache))


def _joint_mass(th, q, n, k1, rel1, k2, rel2, K):
    """Sum of the terms of one joint quadrant; K is the kernel, as in `_waiting_mass`."""
    families, dk1, dk2 = _JOINT[rel1, rel2]

    def inner(y):
        v = 0
        for s in range(1, y + 1):
            for fam, ds in families:
                v = v + K(fam, n - y, y, s + ds, k1 + dk1, k2 + dk2)
        return v

    ys = range(k2 if rel2 is Rel.GE else 1, n - (k1 if rel1 is Rel.GE else 0) + 1)
    p = _failure_sum(th, q, n, ys, inner)
    if rel2 is Rel.LE and _rel_holds(n, rel1, k1):
        p = p + th ** n  # the all-success sequence
    return p


def waiting_time_table(
    params: ModelParams,
    quota: QuotaSpec,
    n_max: int,
    cache: KernelValueCache | None = None,
) -> Pmf:
    """PMF table from the support minimum up to n_max inclusive."""
    offset = support_min(quota)
    if n_max < offset:
        raise ValueError(f"n_max={n_max} is below the support minimum {offset}")
    probs = []
    running: Scalar = 0
    for n in range(offset, n_max + 1):
        p = waiting_time_pmf(params, quota, n, cache)
        if isinstance(p, float) and p < 0:
            if p < -_NEG_CLAMP:
                raise ValueError(f"negative probability {p} at n={n}")
            logger.warning("clamping tiny negative probability %g at n=%d", p, n)
            p = 0.0
        running = running + p
        probs.append(p)
    if running > 1 + _SUM_SLACK:
        raise ValueError(f"partial sums exceed 1: {running}")
    return Pmf(offset=offset, probs=probs)
