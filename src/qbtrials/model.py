"""The trial model: per-trial probabilities, quotas, and sequence statistics.

A trial succeeds with probability theta * q**f where f is the number of
failures so far, so success gets geometrically rarer as failures accumulate.
Sequences are plain lists of 0/1 ints (1 = success).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .qcalc import Scalar

__all__ = [
    "BinarySequence",
    "ModelParams",
    "RunQuota",
    "FreqQuota",
    "Mode",
    "QuotaSpec",
    "success_prob_after",
    "sequence_probability",
    "stopping_time",
    "longest_runs",
]

BinarySequence = Sequence[int]


@dataclass(frozen=True)
class ModelParams:
    """Success level theta in [0, 1] and decay rate q in (0, 1]."""

    theta: Scalar
    q: Scalar

    def __post_init__(self) -> None:
        if not 0 <= self.theta <= 1:
            raise ValueError(f"theta must be in [0, 1], got {self.theta}")
        if not 0 < self.q <= 1:
            raise ValueError(f"q must be in (0, 1], got {self.q}")

    @property
    def exact(self) -> bool:
        return isinstance(self.theta, (int, Fraction)) and isinstance(self.q, (int, Fraction))


@dataclass(frozen=True)
class RunQuota:
    """Met at the k-th consecutive occurrence of the symbol."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("run quota k must be >= 1")


@dataclass(frozen=True)
class FreqQuota:
    """Met at the k-th occurrence of the symbol overall."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("frequency quota k must be >= 1")


Quota = RunQuota | FreqQuota


def quota_label(quota: Quota) -> str:
    """The CLI spelling of a quota: "run:K" or "freq:K"."""
    return f"{'freq' if isinstance(quota, FreqQuota) else 'run'}:{quota.k}"


class Mode(Enum):
    SOONER = "sooner"
    LATER = "later"


@dataclass(frozen=True)
class QuotaSpec:
    """A quota on successes, a quota on failures, and which hit ends the wait."""

    success_quota: Quota
    failure_quota: Quota
    mode: Mode


def success_prob_after(params: ModelParams, prior_failures: int) -> Scalar:
    """P(next trial succeeds | prior_failures failures so far)."""
    if prior_failures < 0:
        raise ValueError("prior_failures must be >= 0")
    return params.theta * params.q ** prior_failures


def sequence_probability(params: ModelParams, seq: BinarySequence) -> Scalar:
    """Probability the model emits exactly `seq`; 1 for the empty sequence."""
    prob: Scalar = 1
    failures = 0
    for bit in seq:
        p = success_prob_after(params, failures)
        if bit:
            prob = prob * p
        else:
            prob = prob * (1 - p)
            failures += 1
    return prob


def _hit_time(seq: BinarySequence, symbol: int, quota: Quota) -> int | None:
    """First 1-based index at which the quota on `symbol` is met."""
    run = 0
    count = 0
    for i, bit in enumerate(seq):
        if bit == symbol:
            run += 1
            count += 1
            if isinstance(quota, RunQuota):
                if run == quota.k:
                    return i + 1
            elif count == quota.k:
                return i + 1
        else:
            run = 0
    return None


def stopping_time(seq: BinarySequence, quota: QuotaSpec) -> int | None:
    """Trial index at which the wait ends, or None if it never does in `seq`.

    Sooner mode ends at the earlier of the two quota hit times, later mode
    at the point both have been hit.
    """
    hit1 = _hit_time(seq, 1, quota.success_quota)
    hit0 = _hit_time(seq, 0, quota.failure_quota)
    if quota.mode is Mode.SOONER:
        if hit1 is None:
            return hit0
        if hit0 is None:
            return hit1
        return min(hit1, hit0)
    if hit1 is None or hit0 is None:
        return None
    return max(hit1, hit0)


def longest_runs(seq: BinarySequence) -> tuple[int, int]:
    """(longest run of 1s, longest run of 0s); (0, 0) for the empty sequence."""
    best = [0, 0]
    run = 0
    prev = None
    for bit in seq:
        run = run + 1 if bit == prev else 1
        prev = bit
        if run > best[bit]:
            best[bit] = run
    return best[1], best[0]

