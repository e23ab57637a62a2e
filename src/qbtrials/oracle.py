"""Ground truth by exhaustive enumeration, plus the differential-test harness.

The enumeration walks every sequence and counts those in an event by
(failure count, success weight), which fixes a sequence's probability
exactly; with Fraction parameters every oracle value is an exact rational,
so "match" in a report means equality, not closeness.  A longest-run or
joint predicate is a mask over the walk of all 2**n sequences.  The
waiting events of a quota, sooner and later, are one pass over the
2**n_max indices (`core.waiting_stop_counts`) that reads each index's stop
trial under each rule off its bits, an index below 2**t being a length-t
prefix padded with failures, and counts each rule's stopped prefixes with
one bincount; the rows of both modes, for every t up to the longest
counted so far, are held under the first four fields of the quota's
`QuotaSpec.key`, the fields that pass reads, and the fifth picks the
mode.  Every event gives one row of counts per failure count f: the
sequences of one f share the prefactor theta**(n-f) (theta; q)_f, so
they are added as one term whose kernel is their counts as a polynomial
in q.  The rows are summed by `qcalc.term_sum`, the sum the formula layer
uses: one integer over d**n * b**B at theta = c/d and q = a/b, and one
Fraction at the end.  A float theta or q is read as its exact binary
value, so a float probability is the exact one at those values, rounded
once.  The shared sum is tested against plain Fraction arithmetic on its
own, each event's rows against a per-sequence grouping of
`model.stopping_time` and `model.longest_runs`, and the sums against
`model.sequence_probability` summed over sequences.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from . import _core_py as core
from ._core_py import EnumerationBudgetError
from .distributions import (
    _WAITING_FAMILIES, Pmf, Rel, _check_quadrant, _waiting_probs, _zero, support_min,
)
from .model import FreqQuota, Mode, ModelParams, QuotaSpec, RunQuota, quota_label
from .qcalc import DEFAULT_TOLERANCE, Scalar, horner_numerator, is_exact, term_sum

__all__ = [
    "DEFAULT_BUDGET",
    "WaitingEquals",
    "LongestEquals",
    "LongestAtMost",
    "JointLongest",
    "DiscrepancyReport",
    "ScanGrid",
    "default_grid",
    "differential_scan",
    "monte_carlo_estimate",
    "oracle_event_prob",
    "oracle_waiting_pmf",
    "reports_to_json",
]

DEFAULT_BUDGET = 20


@dataclass(frozen=True)
class WaitingEquals:
    quota: QuotaSpec
    n: int


@dataclass(frozen=True)
class LongestEquals:
    k: int

    def holds(self, l1, l0):
        return l1 == self.k


@dataclass(frozen=True)
class LongestAtMost:
    k: int

    def holds(self, l1, l0):
        return l1 <= self.k


def _rel_holds(value, rel: Rel, k: int):
    return value <= k if rel is Rel.LE else value >= k


@dataclass(frozen=True)
class JointLongest:
    k1: int
    rel1: Rel
    k2: int
    rel2: Rel

    def __post_init__(self) -> None:
        _check_quadrant(self.k1, self.rel1, self.k2, self.rel2)

    def holds(self, l1, l0):
        return _rel_holds(l1, self.rel1, self.k1) & _rel_holds(l0, self.rel2, self.k2)


EventPredicate = WaitingEquals | LongestEquals | LongestAtMost | JointLongest


# held waiting rows, both rules, by the first four fields of the quota
# key; the least recently used quota goes first
_HELD_EVENTS = 256
_held = {}
_held_lock = threading.Lock()


def _waiting_rows(key, n):
    """The rows of the waiting event of a quota, keyed by its
    `QuotaSpec.key`, for t = 1..n at least, one `core.count_rows` tuple per
    t: the sequences whose wait ends at trial t.  One
    `core.waiting_stop_counts` pass gives the rows of both rules, so the
    longest (sooner rows, later rows) pair counted so far is held per
    quota, `key[:4]`, and a longer n counts once to n; the fifth field
    (later?) picks the rule.  The rows are parameter-free, so one pass
    serves the whole theta/q grid of a scan and both modes.  Threads share
    the held rows under one lock, the pass included, so a quota is counted
    once however many threads ask for it."""
    quota, later = key[:4], key[4]
    with _held_lock:
        pair = _held.pop(quota, ((), ()))
        if len(pair[0]) < n:
            pair = core.waiting_stop_counts(n, *quota)
        _held[quota] = pair
        if len(_held) > _HELD_EVENTS:
            del _held[next(iter(_held))]
        return pair[later]


@lru_cache(maxsize=4096)
def _counts(n, event):
    """`core.count_rows` of the length-n sequences in a longest-run or joint
    predicate: one row (f, e_min, degree, coefficients over e) per failure
    count f, of those whose longest runs (l1, l0) it holds for, on the one
    walk per n that `_walk` holds."""
    seqs = _walk(n)
    return core.count_rows(seqs, event.holds(seqs.l1, seqs.l0))


@lru_cache(maxsize=1)
def _walk(n):
    """The unconditioned walk of all 2**n sequences, held for the last n, so
    the longest-run and joint predicates of a scan over k at one n share
    one walk; never mutated."""
    return core.enumerate_walk(n)


def oracle_event_prob(params: ModelParams, n: int, pred: EventPredicate) -> Scalar:
    """Sum of sequence probabilities over all length-n sequences in the event;
    {T = t} depends on trials 1..t only, so it sums the sequences of its
    first t trials: its quota's held rows when they reach t, otherwise one
    pass over the 2**t indices of those trials.

    A sequence with f failures and success weight e (the failures before
    each success, summed) has probability theta^(n-f) q^e (theta; q)_f, so
    the classes of one f add as one term, their counts a polynomial in q,
    at q = a/b its Horner numerator over b**degree.  A theta or q that is
    not an int or a Fraction (a float, a numpy float, a Decimal) is read
    as `float(x)`, as the formula layer reads it, and summed at that
    float's exact binary value (`Fraction(float(x))`); the sum is rounded
    once, so a float result is the exact value there, rounded."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(pred, WaitingEquals):
        if pred.n < 1 or pred.n > n:
            # a stop happens at a trial index in 1..n or not at all
            return _zero(params.theta, params.q)
        n = pred.n
    if n > DEFAULT_BUDGET:
        raise EnumerationBudgetError(
            f"n={n} exceeds enumeration budget {DEFAULT_BUDGET}")
    if isinstance(pred, WaitingEquals):
        rows = _waiting_rows(pred.quota.key, n)[n - 1]
    else:
        rows = _counts(n, pred)

    th, q = params.theta, params.q
    exact = is_exact(th, q)
    if not exact:
        th, q = (x if isinstance(x, (int, Fraction)) else Fraction(float(x)) for x in (th, q))
    a, b = q.numerator, q.denominator
    total = term_sum(th, q, n, ((e_min, f, horner_numerator(coeffs, a, b), degree)
                                for f, e_min, degree, coeffs in rows))
    return total if exact else float(total)


def oracle_waiting_pmf(params: ModelParams, quota: QuotaSpec, n_max: int) -> Pmf:
    """Exact PMF of the waiting time, truncated at n_max: one pass of its
    quota over the 2**n_max indices, whose rows the other mode's table
    reads too, then one `oracle_event_prob` per n on the held rows."""
    if n_max > DEFAULT_BUDGET:
        # refused before any table is enumerated
        raise EnumerationBudgetError(
            f"n={n_max} exceeds enumeration budget {DEFAULT_BUDGET}")
    offset = support_min(quota)
    if n_max < offset:
        raise ValueError(f"n_max={n_max} is below the support minimum {offset}")
    _waiting_rows(quota.key, n_max)
    probs = [
        oracle_event_prob(params, n, WaitingEquals(quota, n))
        for n in range(offset, n_max + 1)
    ]
    return Pmf(offset=offset, probs=probs)


@dataclass(frozen=True)
class DiscrepancyReport:
    configuration: str
    n: int
    formula_value: Scalar
    oracle_value: Scalar
    abs_difference: Scalar
    verdict: str  # "match" | "mismatch"

    def to_dict(self) -> dict:
        return {
            "configuration": self.configuration,
            "n": self.n,
            "formula_value": _scalar_str(self.formula_value),
            "oracle_value": _scalar_str(self.oracle_value),
            "abs_difference": _scalar_str(self.abs_difference),
            "verdict": self.verdict,
        }


def _scalar_str(v: Scalar) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(v)


def reports_to_json(reports: Iterable[DiscrepancyReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


@dataclass(frozen=True)
class ScanGrid:
    """Cartesian grid of parameters and quota sizes to certify; each point
    is checked in all eight quota configurations."""

    thetas: tuple[Scalar, ...]
    qs: tuple[Scalar, ...]
    k_pairs: tuple[tuple[int, int], ...]
    n_max: int


def default_grid() -> ScanGrid:
    return ScanGrid(
        thetas=(Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)),
        qs=(Fraction(1, 2), Fraction(9, 10), Fraction(1)),
        k_pairs=((2, 2), (2, 3), (3, 2)),
        n_max=14,
    )


def _quota_label(quota: QuotaSpec) -> str:
    return (f"{quota.mode.value} {quota_label(quota.success_quota)}"
            f"/{quota_label(quota.failure_quota)}")


def differential_scan(
    grid: ScanGrid,
    formula: Callable[[ModelParams, QuotaSpec, int], list[Scalar]] = _waiting_probs,
) -> list[DiscrepancyReport]:
    """One report per grid point comparing the formula layer to enumeration,
    over the eight configurations of the theorem table in its order.

    `formula(params, quota, n_max)` gives the probabilities of n from the
    support minimum up to n_max, one table per configuration and point;
    the default is `waiting_time_table`'s, without its partial-sum check,
    since every value is checked against enumeration.  With exact
    parameters the verdict is mismatch iff the difference is nonzero; in
    float mode iff it exceeds DEFAULT_TOLERANCE.
    """
    reports = []
    for s_freq, f_freq, later in _WAITING_FAMILIES:
        for k1, k2 in grid.k_pairs:
            quota = QuotaSpec(
                success_quota=FreqQuota(k1) if s_freq else RunQuota(k1),
                failure_quota=FreqQuota(k2) if f_freq else RunQuota(k2),
                mode=Mode.LATER if later else Mode.SOONER,
            )
            lo = support_min(quota)
            if lo > grid.n_max:
                continue
            for theta in grid.thetas:
                for q in grid.qs:
                    params = ModelParams(theta=theta, q=q)
                    exact = params.exact
                    label = f"{_quota_label(quota)} theta={theta} q={q}"
                    got = oracle_waiting_pmf(params, quota, grid.n_max)
                    for n, fv in enumerate(formula(params, quota, grid.n_max), lo):
                        ov = got.probs[n - got.offset]
                        # two equal Fractions differ by Fraction(0): no
                        # subtraction, no gcd
                        same = fv == ov and isinstance(fv, Fraction) and isinstance(ov, Fraction)
                        diff = Fraction(0) if same else abs(fv - ov)
                        bad = (diff != 0) if exact else (diff > DEFAULT_TOLERANCE)
                        reports.append(
                            DiscrepancyReport(
                                configuration=label,
                                n=n,
                                formula_value=fv,
                                oracle_value=ov,
                                abs_difference=diff,
                                verdict="mismatch" if bad else "match",
                            )
                        )
    return reports


def monte_carlo_estimate(
    params: ModelParams,
    n: int,
    pred: EventPredicate,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """(estimate, standard error) of the event probability by simulation.

    The simulator walks all replicas through their trials together with
    numpy's default generator (PCG64), one uniform per trial per replica;
    fixed seeds give identical output on any platform.  A waiting event's
    walk tracks the first four fields of its quota's `QuotaSpec.key`, and
    the fifth (later?) picks the stopping rule.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    key = pred.quota.key if isinstance(pred, WaitingEquals) else None
    seqs = core.simulate(np.random.default_rng(seed), float(params.theta), float(params.q),
                         n, samples, None if key is None else key[:4])
    if key is not None:
        stop = seqs.stop(key[4])
        ok = (stop == pred.n) & (stop > 0)  # 0: the wait has not ended
    else:
        ok = pred.holds(seqs.l1, seqs.l0)

    phat = float(np.count_nonzero(ok)) / samples
    stderr = float(np.sqrt(phat * (1.0 - phat) / samples))
    return phat, stderr
