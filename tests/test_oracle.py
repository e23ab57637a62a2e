"""Enumeration oracle: exactness, totals, harness sanity, Monte Carlo."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from qbtrials import (
    EnumerationBudgetError,
    FreqQuota,
    JointLongest,
    LongestAtMost,
    LongestEquals,
    Mode,
    ModelParams,
    QuotaSpec,
    Rel,
    RunQuota,
    ScanGrid,
    WaitingEquals,
    default_grid,
    differential_scan,
    longest_run_cdf,
    monte_carlo_estimate,
    oracle_event_prob,
    oracle_waiting_pmf,
    sequence_probability,
    stopping_time,
    waiting_time_pmf,
)
from qbtrials import _core_py as core
from qbtrials.model import longest_runs
from qbtrials.distributions import _WAITING_FAMILIES
from qbtrials.oracle import DEFAULT_BUDGET, reports_to_json

HALF = ModelParams(Fraction(1, 2), Fraction(1, 2))
IID = ModelParams(Fraction(1, 2), Fraction(1))
RR_SOONER = QuotaSpec(RunQuota(2), RunQuota(2), Mode.SOONER)


def test_oracle_examples():
    assert oracle_event_prob(IID, 3, WaitingEquals(RR_SOONER, 3)) == Fraction(1, 4)
    assert oracle_event_prob(HALF, 2, LongestEquals(0)) == Fraction(3, 8)
    assert oracle_event_prob(HALF, 2, LongestAtMost(2)) == 1
    table = oracle_waiting_pmf(IID, RR_SOONER, 3)
    assert table.offset == 2
    assert table.probs == [Fraction(1, 2), Fraction(1, 4)]


ALL_KINDS = list(itertools.product((False, True), repeat=2))


def _quota(s_freq, f_freq, k1, k2, mode):
    return QuotaSpec(FreqQuota(k1) if s_freq else RunQuota(k1),
                     FreqQuota(k2) if f_freq else RunQuota(k2), mode)


def _failures_and_weight(seq):
    failures = weight = 0
    for bit in seq:
        if bit:
            weight += failures
        else:
            failures += 1
    return failures, weight


def _grouped(n, statistic):
    """{(statistic(seq), failures, weight): count} over all length-n
    sequences, keys in first-seen order; bit i of a mask is trial i+1."""
    counts = {}
    for mask in range(1 << n):
        seq = [(mask >> i) & 1 for i in range(n)]
        key = (statistic(seq),) + _failures_and_weight(seq)
        counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("s_freq,f_freq", ALL_KINDS)
@pytest.mark.parametrize("mode", [Mode.SOONER, Mode.LATER])
def test_oracle_matches_naive_summation(s_freq, f_freq, mode):
    # the grouped enumeration must agree with a literal sum of
    # sequence_probability over sequences satisfying the predicate
    params = ModelParams(Fraction(2, 7), Fraction(3, 5))
    n = 7
    quota = _quota(s_freq, f_freq, 3, 2, mode)
    for t in range(0, n + 1):
        want = sum(
            sequence_probability(params, seq)
            for seq in itertools.product((0, 1), repeat=n)
            if stopping_time(seq, quota) == t
        )
        got = oracle_event_prob(params, n, WaitingEquals(quota, t))
        assert got == want
    # and its count tables must match model.stopping_time sequence by
    # sequence, keys in the same order
    for n in range(0, 9):
        for k1, k2 in ((1, 1), (2, 3), (3, 2)):
            quota = _quota(s_freq, f_freq, k1, k2, mode)
            table = _grouped(n, lambda seq: stopping_time(seq, quota) or 0)
            for target in range(0, n + 2):
                want = [((f, e), c) for (stop, f, e), c in table.items() if stop == target]
                got = core.waiting_stop_counts(
                    n, target, s_freq, k1, f_freq, k2, mode is Mode.LATER)
                assert list(got.items()) == want, (n, k1, k2, target)


def test_longest_counts_match_naive_summation():
    for n in range(0, 9):
        want = {(l1, l0, f, e): c
                for ((l1, l0), f, e), c in _grouped(n, longest_runs).items()}
        got = core.longest_joint_counts(n)
        assert list(got.items()) == list(want.items()), n
        assert all(type(x) is int for key, c in got.items() for x in key + (c,))
    params = ModelParams(Fraction(2, 7), Fraction(3, 5))
    n = 7
    for k1, r1 in ((2, Rel.LE), (2, Rel.GE)):
        want = sum(
            sequence_probability(params, seq)
            for seq in itertools.product((0, 1), repeat=n)
            if (longest_runs(seq)[0] <= k1 if r1 is Rel.LE else longest_runs(seq)[0] >= k1)
            and longest_runs(seq)[1] >= 1
        )
        got = oracle_event_prob(params, n, JointLongest(k1, r1, 1, Rel.GE))
        assert got == want


def test_oracle_rational_denominators():
    params = ModelParams(Fraction(1, 3), Fraction(2, 5))
    n_max = 8
    table = oracle_waiting_pmf(params, RR_SOONER, n_max)
    # every per-trial probability has denominator den(theta) * den(q)**f,
    # so the product over a full sequence bounds every entry's denominator
    trial_dens = 1
    for t in range(n_max):
        trial_dens *= 3 * 5 ** t
    for p in table.probs:
        assert isinstance(p, Fraction)
        assert p >= 0
        assert trial_dens % p.denominator == 0
    assert sum(table.probs) <= 1


def test_grouped_counts_total_probability_one():
    from qbtrials.qcalc import q_pochhammer

    for theta, q in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(1), Fraction(1, 2))):
        params = ModelParams(theta, q)
        for n in (0, 1, 5, 9):
            counts = core.longest_joint_counts(n)
            assert sum(counts.values()) == 2 ** n
            total = sum(
                c * theta ** (n - f) * q ** e * q_pochhammer(theta, q, f)
                for (_, _, f, e), c in counts.items()
            )
            assert total == 1
            assert oracle_event_prob(params, n, LongestAtMost(n)) == 1


def test_oracle_budget():
    with pytest.raises(EnumerationBudgetError):
        oracle_event_prob(HALF, 25, LongestAtMost(3))
    with pytest.raises(EnumerationBudgetError):
        oracle_event_prob(HALF, DEFAULT_BUDGET + 1, LongestAtMost(3))


def test_later_partial_sums_below_one():
    later = QuotaSpec(RunQuota(2), RunQuota(2), Mode.LATER)
    table = oracle_waiting_pmf(HALF, later, 14)
    assert sum(table.probs) <= 1


def test_differential_scan_empty_grid():
    grid = ScanGrid(thetas=(), qs=(), k_pairs=((2, 2),), n_max=8)
    assert differential_scan(grid) == []


def test_differential_scan_small_grid_matches():
    grid = ScanGrid(
        thetas=(Fraction(1, 2),),
        qs=(Fraction(1, 2), Fraction(1)),
        k_pairs=((2, 2),),
        n_max=8,
    )
    reports = differential_scan(grid)
    assert reports
    assert all(r.verdict == "match" for r in reports)
    # deterministic ordering
    again = differential_scan(grid)
    assert [(r.configuration, r.n) for r in reports] == \
        [(r.configuration, r.n) for r in again]


def test_differential_scan_flags_corrupted_formula():
    grid = ScanGrid(
        thetas=(Fraction(1, 2),),
        qs=(Fraction(1, 2),),
        k_pairs=((2, 2),),
        n_max=6,
    )

    def corrupted(params, quota, n):
        value = waiting_time_pmf(params, quota, n)
        if n == 4:
            return value + Fraction(1, 1000)
        return value

    reports = differential_scan(grid, formula=corrupted)
    assert any(r.verdict == "mismatch" for r in reports)
    assert all(r.verdict == "mismatch" for r in reports if r.n == 4)


def test_report_json_schema():
    grid = ScanGrid(
        thetas=(Fraction(1, 2),),
        qs=(Fraction(1),),
        k_pairs=((2, 2),),
        n_max=5,
    )
    reports = differential_scan(grid)
    payload = json.loads(reports_to_json(reports))
    assert isinstance(payload, list) and payload
    for item in payload:
        assert set(item) == {
            "configuration", "n", "formula_value", "oracle_value",
            "abs_difference", "verdict",
        }
        assert item["verdict"] in ("match", "mismatch")


def test_default_grid_shape():
    grid = default_grid()
    assert grid.n_max == 14
    assert len(grid.thetas) == 3 and len(grid.qs) == 3
    assert len(grid.k_pairs) == 3
    # the scan runs the theorem table's eight configurations, in its order
    small = dataclasses.replace(grid, thetas=grid.thetas[:1], qs=grid.qs[:1], n_max=6)
    seen = []
    for r in differential_scan(small):
        mode, kinds = r.configuration.split(" ")[:2]
        label = (mode, *(kind.split(":")[0] for kind in kinds.split("/")))
        if label not in seen:
            seen.append(label)
    kind = {False: "run", True: "freq"}
    assert seen == [("later" if later else "sooner", kind[s_freq], kind[f_freq])
                    for s_freq, f_freq, later in _WAITING_FAMILIES]
    assert len(seen) == 8


def test_monte_carlo_matches_exact_smoke():
    samples = 100_000
    est, se = monte_carlo_estimate(HALF, 4, WaitingEquals(RR_SOONER, 4), samples, seed=11)
    exact = float(waiting_time_pmf(HALF, RR_SOONER, 4))
    assert abs(est - exact) <= 4 * max(se, math.sqrt(exact * (1 - exact) / samples))
    est2, se2 = monte_carlo_estimate(HALF, 10, LongestAtMost(2), samples, seed=12)
    exact2 = float(longest_run_cdf(HALF, 10, 2))
    assert abs(est2 - exact2) <= 4 * max(se2, math.sqrt(exact2 * (1 - exact2) / samples))


def test_monte_carlo_deterministic():
    a = monte_carlo_estimate(HALF, 6, LongestAtMost(2), 5000, seed=3)
    b = monte_carlo_estimate(HALF, 6, LongestAtMost(2), 5000, seed=3)
    assert a == b
    # fixed-seed values pin the draws and the float64 success thresholds
    assert a == (0.8556, 0.004970888049433421)
    assert monte_carlo_estimate(HALF, 4, WaitingEquals(RR_SOONER, 4), 2000, seed=4) == \
        (0.0955, 0.006571900410079264)
    # thresholds not exact in binary: a float16 product moves these
    assert monte_carlo_estimate(ModelParams(0.37, 0.81), 6, LongestAtMost(2), 5000, seed=3) == \
        (0.907, 0.004107334902342393)
    # a wait that has not ended by trial n never counts as ending at trial 0
    later = QuotaSpec(RunQuota(3), RunQuota(3), Mode.LATER)
    assert oracle_event_prob(HALF, 5, WaitingEquals(later, 0)) == 0
    assert monte_carlo_estimate(HALF, 5, WaitingEquals(later, 0), 100, seed=4) == (0.0, 0.0)


class _Replay:
    """Stands in for a numpy generator: at trial i, replica j draws 0.0 (a
    success at theta = 1/2) when bit i of j is set, else 0.75 (a failure)."""

    def __init__(self, n):
        self.masks = np.arange(1 << n)
        self.trial = 0

    def random(self, size):
        assert size == self.masks.size
        bits = (self.masks >> self.trial) & 1
        self.trial += 1
        return np.where(bits == 1, 0.0, 0.75)


@pytest.mark.parametrize("s_freq,f_freq", ALL_KINDS)
@pytest.mark.parametrize("mode", [Mode.SOONER, Mode.LATER])
def test_simulator_replays_sequences(s_freq, f_freq, mode):
    # fed every length-n sequence, the simulator's walk must give each one
    # the stopping time and longest runs of the per-sequence reference
    for n in range(0, 9):
        seqs = [[(mask >> i) & 1 for i in range(n)] for mask in range(1 << n)]
        for k1, k2 in ((1, 1), (2, 3), (3, 2)):
            quota = _quota(s_freq, f_freq, k1, k2, mode)
            walk = core.simulate(_Replay(n), 0.5, 0.5, n, 1 << n, (s_freq, k1, f_freq, k2))
            stop = walk.stop(mode is Mode.LATER).tolist()
            assert stop == [stopping_time(seq, quota) or 0 for seq in seqs], (n, k1, k2)
        walk = core.simulate(_Replay(n), 0.5, 0.5, n, 1 << n)
        assert list(zip(walk.l1.tolist(), walk.l0.tolist())) == \
            [longest_runs(seq) for seq in seqs], n
