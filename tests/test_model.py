"""Model semantics: per-trial probabilities, quota hits, runs."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbtrials import (
    FreqQuota,
    Mode,
    ModelParams,
    QuotaSpec,
    RunQuota,
    longest_runs,
    sequence_probability,
    stopping_time,
    success_prob_after,
)

HALF = ModelParams(Fraction(1, 2), Fraction(1, 2))
RUN22_SOONER = QuotaSpec(RunQuota(2), RunQuota(2), Mode.SOONER)
RUN22_LATER = QuotaSpec(RunQuota(2), RunQuota(2), Mode.LATER)

bits = st.lists(st.integers(min_value=0, max_value=1), max_size=40)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        ModelParams(0.5, 0)
    with pytest.raises(ValueError):
        ModelParams(0.5, 1.5)
    with pytest.raises(ValueError):
        RunQuota(0)
    with pytest.raises(ValueError):
        FreqQuota(-1)


def test_success_prob_after_examples():
    assert success_prob_after(HALF, 0) == Fraction(1, 2)
    assert success_prob_after(HALF, 2) == Fraction(1, 8)
    assert success_prob_after(ModelParams(Fraction(3, 10), 1), 7) == Fraction(3, 10)


def test_sequence_probability_examples():
    assert sequence_probability(HALF, [0, 1]) == Fraction(1, 8)
    assert sequence_probability(HALF, [1, 1]) == Fraction(1, 4)
    assert sequence_probability(HALF, []) == 1


@pytest.mark.parametrize("theta,q", [(Fraction(1, 3), Fraction(2, 5)),
                                     (Fraction(4, 5), Fraction(1))])
@pytest.mark.parametrize("n", [1, 4, 8])
def test_all_sequences_sum_to_one(theta, q, n):
    params = ModelParams(theta, q)
    total = sum(
        sequence_probability(params, seq)
        for seq in itertools.product((0, 1), repeat=n)
    )
    assert total == 1


def test_all_sequences_sum_to_one_n16():
    params = ModelParams(Fraction(1, 2), Fraction(1, 2))
    total = sum(
        sequence_probability(params, seq)
        for seq in itertools.product((0, 1), repeat=16)
    )
    assert total == 1


def test_stopping_time_examples():
    assert stopping_time([1, 1], RUN22_SOONER) == 2
    assert stopping_time([0, 1, 1], RUN22_SOONER) == 3
    assert stopping_time([1, 0, 1], RUN22_LATER) is None


def test_stopping_time_freq_semantics():
    quota = QuotaSpec(FreqQuota(2), FreqQuota(3), Mode.SOONER)
    assert stopping_time([1, 0, 1], quota) == 3  # 2nd success at trial 3
    assert stopping_time([0, 0, 0], quota) == 3  # 3rd failure at trial 3
    later = QuotaSpec(FreqQuota(2), FreqQuota(3), Mode.LATER)
    assert stopping_time([1, 0, 1, 0, 0], later) == 5
    assert stopping_time([1, 0, 1, 0], later) is None


@given(bits)
def test_sooner_below_later(seq):
    sooner = stopping_time(seq, RUN22_SOONER)
    later = stopping_time(seq, RUN22_LATER)
    if later is not None:
        assert sooner is not None and sooner <= later


@given(bits)
def test_sooner_is_min_later_is_max_of_hits(seq):
    def hit(symbol, k):
        run = 0
        for i, b in enumerate(seq):
            run = run + 1 if b == symbol else 0
            if run == k:
                return i + 1
        return None

    h1, h0 = hit(1, 2), hit(0, 2)
    sooner = stopping_time(seq, RUN22_SOONER)
    later = stopping_time(seq, RUN22_LATER)
    existing = [h for h in (h1, h0) if h is not None]
    assert sooner == (min(existing) if existing else None)
    assert later == (max((h1, h0)) if h1 is not None and h0 is not None else None)


def test_longest_runs_examples():
    assert longest_runs([0, 0, 1, 1, 1, 1, 0, 1, 1, 0]) == (4, 2)
    assert longest_runs([1, 1, 1]) == (3, 0)
    assert longest_runs([]) == (0, 0)


@given(bits)
def test_longest_runs_match_rescan(seq):
    l1, l0 = longest_runs(seq)

    def brute(symbol):
        best = 0
        for length in range(1, len(seq) + 1):
            for start in range(len(seq) - length + 1):
                if all(b == symbol for b in seq[start:start + length]):
                    best = max(best, length)
        return best

    assert l1 == brute(1)
    assert l0 == brute(0)
    assert l1 <= len(seq) and l0 <= len(seq)
