"""Acceptance gate: each test runs one acceptance criterion end to end and
prints a PASS/FAIL line (visible with `pytest -s`).  All comparisons in the
rational regime are exact equality; Monte Carlo uses a four-standard-error
band.  Run order follows the criterion numbering."""

import itertools
import math
import time
from fractions import Fraction

import pytest

from qbtrials import (
    FreqQuota,
    KernelValueCache,
    LongestAtMost,
    LongestEquals,
    Mode,
    ModelParams,
    QuotaSpec,
    Rel,
    RunQuota,
    WaitingEquals,
    count_C,
    count_M,
    count_R,
    count_S,
    default_grid,
    differential_scan,
    joint_longest,
    kernel_eval,
    longest_cell_kernel_U,
    longest_cell_kernel_V,
    longest_run_cdf,
    longest_run_pmf,
    monte_carlo_estimate,
    named_kernel,
    oracle_event_prob,
    sooner_freq_freq_closed,
    support_min,
    waiting_time_pmf,
)
from qbtrials.cli import main as cli_main
from qbtrials.kernels import _FAMILIES, FAMILY_NAMES, family_spec
from qbtrials.oracle import JointLongest

QS = (Fraction(3, 10), Fraction(7, 10), Fraction(1))
THETAS = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
QGRID = (Fraction(1, 2), Fraction(9, 10), Fraction(1))
KPAIRS = ((2, 2), (2, 3), (3, 2))

FULL_GRID = [
    (m, r, s, k1, k2)
    for m in range(0, 9)
    for r in range(0, 9)
    for s in range(1, 5)
    for k1 in (2, 3, 4)
    for k2 in (2, 3, 4)
]


def _report(number, name, started):
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.time() - started:.1f}s]",
          flush=True)


def test_criterion_1_kernel_certification():
    # the brute-force polynomial of each spec, built once, equals the
    # recurrence's coefficient for coefficient, and its value at each q
    # equals `kernel_eval`'s
    from qbtrials import _core_py as core
    from qbtrials.qcalc import poly_value

    started = time.time()
    cache = KernelValueCache()
    for fam in FAMILY_NAMES:
        for m, r, s, k1, k2 in FULL_GRID:
            spec = family_spec(fam, m, r, s, k1, k2)
            direct = core.kernel_direct_poly(*spec.core_args())
            assert cache.poly(spec) == direct, (fam, m, r, s, k1, k2)
            for q in QS:
                assert kernel_eval(spec, q, cache) == poly_value(direct, q), (
                    fam, m, r, s, k1, k2, q)
    _report(1, "kernel recurrences equal direct enumeration", started)


def _counting_product(fam, m, r, s, k1, k2):
    _, xkind, ykind = _FAMILIES[fam]
    spec = family_spec(fam, m, r, s, k1, k2)

    def side(kind, parts, total, k):
        if kind.startswith("b"):
            return count_S(parts, k, total)
        if kind == "p":
            return count_M(parts, total)
        return count_R(parts, k, total)

    return side(xkind, spec.x_runs, m, k1) * side(ykind, spec.y_runs, r, k2)


def test_criterion_2_classical_limits():
    started = time.time()
    cache = KernelValueCache()
    one = Fraction(1)
    for fam in FAMILY_NAMES:
        for m, r, s, k1, k2 in FULL_GRID:
            spec = family_spec(fam, m, r, s, k1, k2)
            assert kernel_eval(spec, one, cache) == \
                _counting_product(fam, m, r, s, k1, k2), (fam, m, r, s, k1, k2)
    for r in range(1, 6):
        for s in range(0, 11):
            for k in range(1, 4):
                assert longest_cell_kernel_V(r, s, k, one) == count_C(s, r, k)
                for t in range(0, r + 1):
                    want = math.comb(r, t) * count_C(s - t * k, r - t, k - 1)
                    assert longest_cell_kernel_U(r, s, t, k, one) == want
    _report(2, "q=1 reduces to classical counting products", started)


def test_criterion_3_distributions_match_oracle():
    started = time.time()
    reports = differential_scan(default_grid())
    mismatches = [r for r in reports if r.verdict == "mismatch"]
    assert not mismatches, mismatches[:5]
    assert cli_main(["verify", "--grid", "default"]) == 0
    _report(3, "all 8 waiting-time configurations equal the oracle", started)


def test_criterion_4_finite_support_normalization():
    started = time.time()
    for k1, k2 in KPAIRS:
        quota = QuotaSpec(FreqQuota(k1), FreqQuota(k2), Mode.SOONER)
        for theta in THETAS:
            for q in QGRID:
                params = ModelParams(theta, q)
                total = Fraction(0)
                for n in range(min(k1, k2), k1 + k2):
                    assembled = waiting_time_pmf(params, quota, n)
                    closed = sooner_freq_freq_closed(params, k1, k2, n)
                    assert closed == assembled, (k1, k2, theta, q, n)
                    total += assembled
                assert total == 1, (k1, k2, theta, q)
    _report(4, "sooner freq/freq: exact normalization and closed form", started)


def test_criterion_5_longest_run_consistency():
    started = time.time()
    for theta in THETAS:
        for q in QGRID:
            params = ModelParams(theta, q)
            for n in range(0, 15):
                assert longest_run_cdf(params, n, n) == 1
                for k in range(0, n + 1):
                    pmf = longest_run_pmf(params, n, k)
                    assert pmf == (longest_run_cdf(params, n, k)
                                   - longest_run_cdf(params, n, k - 1))
                    assert pmf == oracle_event_prob(params, n, LongestEquals(k))
                    assert longest_run_cdf(params, n, k) == \
                        oracle_event_prob(params, n, LongestAtMost(k))
    _report(5, "longest-run pmf/cdf consistent and oracle-exact", started)


def test_criterion_6_joint_quadrants():
    started = time.time()
    for theta in THETAS:
        for q in QGRID:
            params = ModelParams(theta, q)
            for n in range(0, 13):
                for k1, k2 in itertools.product((1, 2, 3), repeat=2):
                    values = {}
                    for r1, r2 in itertools.product((Rel.LE, Rel.GE), repeat=2):
                        got = joint_longest(params, n, k1, r1, k2, r2)
                        want = oracle_event_prob(
                            params, n, JointLongest(k1, r1, k2, r2))
                        assert got == want, (theta, q, n, k1, r1, k2, r2)
                        values[(r1, r2)] = got
                    relaxed = joint_longest(params, n, k1, Rel.LE, n, Rel.LE)
                    lhs = (joint_longest(params, n, k1, Rel.LE, k2 - 1, Rel.LE)
                           + values[(Rel.LE, Rel.GE)])
                    assert lhs == relaxed
                    lhs2 = (joint_longest(params, n, k1, Rel.GE, k2 - 1, Rel.LE)
                            + values[(Rel.GE, Rel.GE)])
                    assert lhs2 == 1 - longest_run_cdf(params, n, k1 - 1)
    _report(6, "joint quadrants: decompositions and oracle-exact", started)


def test_criterion_7_monte_carlo_sanity():
    started = time.time()
    params = ModelParams(Fraction(1, 2), Fraction(1, 2))
    samples = 1_000_000
    quota = QuotaSpec(RunQuota(2), RunQuota(2), Mode.SOONER)
    est, se = monte_carlo_estimate(
        params, 4, WaitingEquals(quota, 4), samples, seed=20240817)
    exact = float(waiting_time_pmf(params, quota, 4))
    band = 4 * max(se, math.sqrt(exact * (1 - exact) / samples))
    assert abs(est - exact) <= band, (est, exact, band)
    est2, se2 = monte_carlo_estimate(
        params, 10, LongestAtMost(2), samples, seed=20240818)
    exact2 = float(longest_run_cdf(params, 10, 2))
    band2 = 4 * max(se2, math.sqrt(exact2 * (1 - exact2) / samples))
    assert abs(est2 - exact2) <= band2, (est2, exact2, band2)
    _report(7, "Monte Carlo within four standard errors", started)


def test_criterion_8_cli_determinism(capsys):
    started = time.time()
    args = ["pmf", "--mode", "sooner", "--success", "run:2", "--failure",
            "run:2", "--theta", "1/2", "--q", "1", "--n-max", "3", "--exact",
            "--format", "csv"]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    second = capsys.readouterr().out
    assert first == second == "n,probability\n2,1/2\n3,1/4\n"
    with capsys.disabled():
        _report(8, "CLI output byte-deterministic", started)
