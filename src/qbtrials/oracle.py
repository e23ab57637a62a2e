"""Ground truth by exhaustive enumeration, plus the differential-test harness.

The enumeration groups all 2**n sequences by (failure count, success weight),
which fixes a sequence's probability exactly; with Fraction parameters every
oracle value is an exact rational, so "match" in a report means equality,
not closeness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from . import _core_py as core
from ._core_py import EnumerationBudgetError
from .distributions import (
    _WAITING_FAMILIES, Pmf, Rel, _rel_holds, _zero, support_min, waiting_time_pmf,
)
from .model import FreqQuota, Mode, ModelParams, QuotaSpec, RunQuota, quota_label
from .qcalc import DEFAULT_TOLERANCE, Scalar, q_pochhammer_prefixes

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


@dataclass(frozen=True)
class JointLongest:
    k1: int
    rel1: Rel
    k2: int
    rel2: Rel

    def holds(self, l1, l0):
        return _rel_holds(l1, self.rel1, self.k1) & _rel_holds(l0, self.rel2, self.k2)


EventPredicate = WaitingEquals | LongestEquals | LongestAtMost | JointLongest


def _core_quota(quota: QuotaSpec) -> tuple[bool, int, bool, int]:
    """The walker's (s_freq, k1, f_freq, k2) for a quota."""
    return (isinstance(quota.success_quota, FreqQuota), quota.success_quota.k,
            isinstance(quota.failure_quota, FreqQuota), quota.failure_quota.k)


# the count tables are parameter-free, so one table serves the whole
# theta/q grid of a scan; callers must not mutate what it returns
@lru_cache(maxsize=4096)
def _counts(n, waiting=None):
    """Grouped counts of the length-n sequences: {(failures, weight): count}
    of those whose wait ends at the target, for waiting = (target, s_freq,
    k1, f_freq, k2, later); with none, {(l1, l0, failures, weight): count}."""
    if waiting is None:
        return core.longest_joint_counts(n)
    return core.waiting_stop_counts(n, *waiting)


def oracle_event_prob(params: ModelParams, n: int, pred: EventPredicate) -> Scalar:
    """Sum of sequence probabilities over all length-n sequences in the event."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > DEFAULT_BUDGET:
        raise EnumerationBudgetError(
            f"n={n} exceeds enumeration budget {DEFAULT_BUDGET}")

    if isinstance(pred, WaitingEquals):
        if pred.n < 1 or pred.n > n:
            # a stop happens at a trial index in 1..n or not at all
            return _zero(params.theta, params.q)
        quota = pred.quota
        items = _counts(n, (pred.n, *_core_quota(quota), quota.mode is Mode.LATER)).items()
    else:
        merged: dict[tuple[int, int], int] = {}
        for (l1, l0, f, e), c in _counts(n).items():
            if pred.holds(l1, l0):
                key = (f, e)
                merged[key] = merged.get(key, 0) + c
        items = merged.items()

    # a sequence with f failures and success weight e (the failures before
    # each success, summed) has probability theta^(n-f) q^e (theta; q)_f
    th, q = params.theta, params.q
    ffp = q_pochhammer_prefixes(th, q, n)
    total = _zero(th, q)
    for (f, e), c in items:
        total = total + c * (th ** (n - f) * q ** e * ffp[f])
    return total


def oracle_waiting_pmf(params: ModelParams, quota: QuotaSpec, n_max: int) -> Pmf:
    """Exact PMF of the waiting time, truncated at n_max."""
    offset = support_min(quota)
    if n_max < offset:
        raise ValueError(f"n_max={n_max} is below the support minimum {offset}")
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
    formula: Callable[[ModelParams, QuotaSpec, int], Scalar] = waiting_time_pmf,
) -> list[DiscrepancyReport]:
    """One report per grid point comparing the formula layer to enumeration,
    over the eight configurations of the theorem table in its order.

    With exact parameters the verdict is mismatch iff the difference is
    nonzero; in float mode iff it exceeds DEFAULT_TOLERANCE.
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
                    for n in range(lo, grid.n_max + 1):
                        fv = formula(params, quota, n)
                        ov = got.probs[n - got.offset]
                        diff = abs(fv - ov)
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
    fixed seeds give identical output on any platform.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    waiting = isinstance(pred, WaitingEquals)
    seqs = core.simulate(np.random.default_rng(seed), float(params.theta), float(params.q),
                         n, samples, _core_quota(pred.quota) if waiting else None)
    if waiting:
        stop = seqs.stop(pred.quota.mode is Mode.LATER)
        ok = (stop == pred.n) & (stop > 0)  # 0: the wait has not ended
    else:
        ok = pred.holds(seqs.l1, seqs.l0)

    phat = float(np.count_nonzero(ok)) / samples
    stderr = float(np.sqrt(phat * (1.0 - phat) / samples))
    return phat, stderr
