"""Boundary coverage: unit quotas, degenerate parameters, float regime."""

import itertools
from fractions import Fraction

import pytest

from qbtrials import (
    FreqQuota,
    JointLongest,
    LongestEquals,
    Mode,
    ModelParams,
    QuotaSpec,
    Rel,
    RunQuota,
    WaitingEquals,
    joint_longest,
    longest_run_cdf,
    longest_run_pmf,
    oracle_event_prob,
    oracle_waiting_pmf,
    support_min,
    waiting_time_pmf,
)

EDGE_KS = ((1, 1), (1, 3), (3, 1), (4, 4))
EDGE_THETAS = (Fraction(0), Fraction(1), Fraction(1, 100), Fraction(99, 100))


@pytest.mark.parametrize("s_freq,f_freq",
                         [(False, False), (True, False), (False, True), (True, True)])
@pytest.mark.parametrize("mode", [Mode.SOONER, Mode.LATER])
def test_unit_and_large_quotas_match_oracle(s_freq, f_freq, mode):
    for k1, k2 in EDGE_KS:
        quota = QuotaSpec(
            FreqQuota(k1) if s_freq else RunQuota(k1),
            FreqQuota(k2) if f_freq else RunQuota(k2),
            mode,
        )
        for theta in (Fraction(0), Fraction(1), Fraction(2, 3)):
            params = ModelParams(theta, Fraction(1, 2))
            table = oracle_waiting_pmf(params, quota, 10)
            for n in range(support_min(quota), 11):
                assert waiting_time_pmf(params, quota, n) == \
                    table.probs[n - table.offset], (quota, theta, n)


def test_degenerate_theta_point_masses():
    sure = ModelParams(Fraction(1), Fraction(1, 2))
    never = ModelParams(Fraction(0), Fraction(1, 2))
    rr = QuotaSpec(RunQuota(3), RunQuota(2), Mode.SOONER)
    assert waiting_time_pmf(sure, rr, 3) == 1
    assert waiting_time_pmf(sure, rr, 4) == 0
    assert waiting_time_pmf(never, rr, 2) == 1
    later = QuotaSpec(RunQuota(3), RunQuota(2), Mode.LATER)
    # one symbol never appears, so the later time never arrives
    assert all(waiting_time_pmf(sure, later, n) == 0 for n in range(5, 12))
    assert all(waiting_time_pmf(never, later, n) == 0 for n in range(5, 12))


def test_longest_and_joint_at_degenerate_theta():
    for theta in EDGE_THETAS:
        params = ModelParams(theta, Fraction(1, 2))
        n = 9
        total = sum(longest_run_pmf(params, n, k) for k in range(n + 1))
        assert total == 1
        for k in (0, 1, n):
            assert longest_run_pmf(params, n, k) == \
                oracle_event_prob(params, n, LongestEquals(k))


def test_joint_with_lopsided_quotas():
    params = ModelParams(Fraction(2, 3), Fraction(3, 5))
    for n in (11, 13):
        for k1, k2 in ((1, 4), (4, 1), (2, 5)):
            for r1, r2 in itertools.product((Rel.LE, Rel.GE), repeat=2):
                assert joint_longest(params, n, k1, r1, k2, r2) == \
                    oracle_event_prob(params, n, JointLongest(k1, r1, k2, r2))


def test_float_regime_tracks_exact():
    pf = ModelParams(0.37, 0.81)
    pe = ModelParams(Fraction(37, 100), Fraction(81, 100))

    def close(got, exact):
        assert isinstance(got, float), got
        assert abs(got - float(exact)) <= 1e-12 * abs(float(exact))

    for s_freq, f_freq, mode in itertools.product(
            (False, True), (False, True), (Mode.SOONER, Mode.LATER)):
        quota = QuotaSpec(
            FreqQuota(2) if s_freq else RunQuota(2),
            FreqQuota(3) if f_freq else RunQuota(3),
            mode,
        )
        # n below the support minimum and a stop after the last trial are zeros
        for n in range(0, 13):
            close(waiting_time_pmf(pf, quota, n), waiting_time_pmf(pe, quota, n))
        close(oracle_event_prob(pf, 4, WaitingEquals(quota, 5)), 0)
    for n in range(0, 13):
        # k > n and k < 0 are zeros; k >= n is the CDF's one
        for k in range(-1, n + 2):
            close(longest_run_pmf(pf, n, k), longest_run_pmf(pe, n, k))
            close(longest_run_cdf(pf, n, k), longest_run_cdf(pe, n, k))
    for r1, r2 in itertools.product((Rel.LE, Rel.GE), repeat=2):
        for n in range(1, 13):
            close(joint_longest(pf, n, 2, r1, 3, r2), joint_longest(pe, n, 2, r1, 3, r2))
            # (n=3, 2 GE, 3 GE) is empty: every term of its sum vanishes
            close(oracle_event_prob(pf, n, JointLongest(2, r1, 3, r2)),
                  oracle_event_prob(pe, n, JointLongest(2, r1, 3, r2)))
