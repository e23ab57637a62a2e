"""Enumeration oracle: exactness, totals, harness sanity, Monte Carlo."""

import dataclasses
import itertools
import json
import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
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
    support_min,
    waiting_time_pmf,
    waiting_time_table,
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
    with pytest.raises(ValueError, match="below the support minimum 4"):
        oracle_waiting_pmf(IID, _quota(False, False, 2, 2, Mode.LATER), 3)
    with pytest.raises(ValueError, match="n must be >= 0"):
        oracle_event_prob(HALF, -1, LongestAtMost(1))


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
    sequences; bit i of a mask is trial i+1."""
    counts = {}
    for mask in range(1 << n):
        seq = [(mask >> i) & 1 for i in range(n)]
        key = (statistic(seq),) + _failures_and_weight(seq)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _naive_rows(classes):
    """{(failures, weight): count} as the oracle's rows: (f, e_min, degree,
    coefficients over the weights e_min .. e_min + degree), ascending f."""
    rows = []
    for f in sorted({f for f, _ in classes}):
        counts = {e: c for (g, e), c in classes.items() if g == f}
        lo, hi = min(counts), max(counts)
        rows.append((f, lo, hi - lo, tuple(counts.get(e, 0) for e in range(lo, hi + 1))))
    return tuple(rows)


def _all_ints(rows):
    return all(type(x) is int for f, e, d, coeffs in rows for x in (f, e, d, *coeffs))


def _predicates(n):
    """Longest-run events at every k up to n + 1, and joint events."""
    preds = [cls(k) for k in range(n + 2) for cls in (LongestEquals, LongestAtMost)]
    return preds + [JointLongest(k1, r1, k2, r2)
                    for k1, k2 in itertools.product((1, 3), repeat=2)
                    for r1, r2 in itertools.product(Rel, repeat=2)]


@pytest.mark.parametrize("s_freq,f_freq", ALL_KINDS)
@pytest.mark.parametrize("mode", [Mode.SOONER, Mode.LATER])
def test_oracle_matches_naive_summation(s_freq, f_freq, mode):
    # the oracle must agree with a literal sum of sequence_probability over
    # the sequences whose wait ends at t, for every t in 0..n, at quotas of
    # 1 and at k1 = 8, above n, too
    params = ModelParams(Fraction(2, 7), Fraction(3, 5))
    n = 7
    for k1, k2 in ((3, 2), (1, 1), (2, 4), (8, 1)):
        quota = _quota(s_freq, f_freq, k1, k2, mode)
        for t in range(0, n + 1):
            want = sum(
                sequence_probability(params, seq)
                for seq in itertools.product((0, 1), repeat=n)
                if stopping_time(seq, quota) == t
            )
            got = oracle_event_prob(params, n, WaitingEquals(quota, t))
            assert got == want, (k1, k2, t)
    # and its rows must match model.stopping_time sequence by sequence:
    # the walk's masked at every target (0: the wait has not ended by
    # trial n), and one waiting_stop_counts call's rows of both rules,
    # whose last row is the length-n grouping of its rule and whose
    # earlier rows are the previous n's
    later = mode is Mode.LATER
    for k1, k2 in ((1, 1), (2, 3), (3, 2)):
        quota = _quota(s_freq, f_freq, k1, k2, mode)
        held = ((), ())
        for n in range(0, 9):
            table = _grouped(n, lambda seq: stopping_time(seq, quota) or 0)
            walk = core.enumerate_walk(n, (s_freq, k1, f_freq, k2))
            for target in range(0, n + 2):
                want = _naive_rows({(f, e): c for (stop, f, e), c in table.items()
                                    if stop == target})
                got = core.count_rows(walk, walk.stop(later) == target)
                assert got == want and _all_ints(got), (n, k1, k2, target)
            if n:
                pair = core.waiting_stop_counts(n, s_freq, k1, f_freq, k2)
                assert [len(rows) for rows in pair] == [n, n], (n, k1, k2)
                for rule in Mode:
                    rule_quota = _quota(s_freq, f_freq, k1, k2, rule)
                    stops = _grouped(n, lambda seq: stopping_time(seq, rule_quota) or 0)
                    want = _naive_rows({(f, e): c for (stop, f, e), c in stops.items()
                                        if stop == n})
                    got = pair[rule is Mode.LATER]
                    assert got[-1] == want and _all_ints(got[-1]), (n, k1, k2, rule)
                    assert got[:-1] == held[rule is Mode.LATER], (n, k1, k2, rule)
                held = pair


def test_longest_counts_match_naive_summation():
    # each longest-run and joint event's rows match model.longest_runs
    # sequence by sequence
    from qbtrials import oracle

    for n in range(0, 9):
        table = _grouped(n, longest_runs)
        for pred in _predicates(n):
            classes = Counter()
            for ((l1, l0), f, e), c in table.items():
                if pred.holds(l1, l0):
                    classes[f, e] += c
            want = _naive_rows(classes)
            got = oracle._counts(n, pred)
            assert got == want and _all_ints(got), (n, pred)
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
    from qbtrials import oracle
    from qbtrials.qcalc import q_pochhammer

    for theta, q in ((Fraction(1, 3), Fraction(2, 5)), (Fraction(1), Fraction(1, 2))):
        params = ModelParams(theta, q)
        for n in (0, 1, 5, 9):
            rows = oracle._counts(n, LongestAtMost(n))  # every sequence
            assert sum(sum(coeffs) for *_, coeffs in rows) == 2 ** n
            total = sum(
                c * theta ** (n - f) * q ** (e_min + i) * q_pochhammer(theta, q, f)
                for f, e_min, _, coeffs in rows for i, c in enumerate(coeffs)
            )
            assert total == 1
            assert oracle_event_prob(params, n, LongestAtMost(n)) == 1


def _classes(walk, keep):
    """{(failures, weight): count} of the walked sequences where keep holds."""
    return Counter(zip(walk.failures[keep].tolist(), walk.weight[keep].tolist()))


def _oracle_events(n_max):
    """(n, event, its raw classes {(failures, weight): count}, grouped
    from the walk sequence by sequence) for every waiting configuration
    at three quota pairs and for longest-run and joint events, n <= n_max."""
    for n in range(n_max + 1):
        for (s_freq, f_freq, later), (k1, k2) in itertools.product(
                _WAITING_FAMILIES, ((1, 1), (2, 3), (3, 2))):
            if n:
                quota = _quota(s_freq, f_freq, k1, k2, Mode.LATER if later else Mode.SOONER)
                walk = core.enumerate_walk(n, (s_freq, k1, f_freq, k2))
                yield n, WaitingEquals(quota, n), _classes(walk, walk.stop(later) == n)
        walk = core.enumerate_walk(n)
        for pred in _predicates(n):
            yield n, pred, _classes(walk, pred.holds(walk.l1, walk.l0))


def test_oracle_sums_per_failure_count():
    # the oracle adds one term per failure count; it equals the sum over
    # the raw (failures, weight) classes in plain Fraction arithmetic,
    # value and type, and at a float point the exact value at the floats'
    # binary values, rounded once (there at n = 4, 8, 12: the exact sums
    # at its 50-bit denominators take most of the time)
    from qbtrials.qcalc import q_pochhammer

    exact_points = ((Fraction(3, 7), Fraction(5, 11)), (Fraction(1), Fraction(1, 2)),
                    (Fraction(2, 5), 1), (0, 1), (1, 1))
    fth, fq = 0.37, 0.81
    events = list(_oracle_events(12))
    for th, q in exact_points + ((Fraction(fth), Fraction(fq)),):
        params = ModelParams(th, q)
        exact = (th, q) in exact_points
        prefactors = {}
        for n, pred, classes in events:
            if not exact and n % 4:
                continue
            want = 0
            for (f, e), c in classes.items():
                if (n, f, e) not in prefactors:
                    prefactors[n, f, e] = th ** (n - f) * q ** e * q_pochhammer(th, q, f)
                want = want + c * prefactors[n, f, e]
            if exact:
                got = oracle_event_prob(params, n, pred)
                assert got == want and type(got) is type(want), (th, q, n, pred)
            else:
                got = oracle_event_prob(ModelParams(fth, fq), n, pred)
                assert type(got) is float and got == float(want), (n, pred)


def test_float_oracle_is_the_exact_oracle_rounded_once():
    # at a float theta or q the oracle sums at the inputs' exact binary
    # values and rounds once: every event probability and waiting table
    # equals float() of the exact oracle at Fraction(theta), Fraction(q),
    # at the theta edges, at q = 1, at mixed int, Fraction and float
    # inputs, and at a q whose powers underflow in floats.  A numpy
    # float32 or a Decimal is read as float(x), as the formula reads it:
    # its exact point is written out
    from decimal import Decimal

    points = [(th, q, Fraction(th), Fraction(q)) for th, q in (
        (0.37, 0.81), (0.0, 0.81), (1.0, 0.81), (0.37, 1.0), (0.5, 1), (1, 0.5),
        (Fraction(1, 3), 0.9), (0.7, Fraction(2, 3)), (0.37, 1e-300))]
    points += [(Fraction(1, 2), np.float32(0.5), Fraction(1, 2), Fraction(1, 2)),
               (np.float32(0.37), Decimal("0.81"), Fraction(3103785, 8388608), Fraction(0.81))]
    for th, q, *exact_point in points:
        params = ModelParams(th, q)
        exact = ModelParams(*exact_point)
        for (s_freq, f_freq, later), (k1, k2) in itertools.product(
                _WAITING_FAMILIES, ((2, 3), (3, 2))):
            quota = _quota(s_freq, f_freq, k1, k2, Mode.LATER if later else Mode.SOONER)
            got, want = oracle_waiting_pmf(params, quota, 12), oracle_waiting_pmf(exact, quota, 12)
            assert got.offset == want.offset and all(type(v) is float for v in got.probs)
            assert got.probs == [float(v) for v in want.probs], (th, q, quota)
        for n in range(13):
            for pred in _predicates(n):
                got = oracle_event_prob(params, n, pred)
                assert type(got) is float, (th, q, n, pred)
                assert got == float(oracle_event_prob(exact, n, pred)), (th, q, n, pred)
    # the formula reads a float32 q alike
    params = ModelParams(Fraction(1, 2), np.float32(0.5))
    quota = _quota(False, True, 2, 3, Mode.SOONER)
    assert oracle_event_prob(params, 5, WaitingEquals(quota, 5)) == \
        waiting_time_pmf(params, quota, 5) == 0.076171875


def test_oracle_budget(monkeypatch):
    with pytest.raises(EnumerationBudgetError):
        oracle_event_prob(HALF, 25, LongestAtMost(3))
    with pytest.raises(EnumerationBudgetError):
        oracle_event_prob(HALF, DEFAULT_BUDGET + 1, LongestAtMost(3))
    # the budget bounds the trials enumerated, not n: {T = 10} walks the
    # 2**10 sequences of its first 10 trials at any n >= 10
    quota = QuotaSpec(RunQuota(2), RunQuota(3), Mode.SOONER)
    want = Fraction(11909699235, 8796093022208)
    for n in (10, DEFAULT_BUDGET, DEFAULT_BUDGET + 1, 40):
        assert oracle_event_prob(HALF, n, WaitingEquals(quota, 10)) == want, n
    with pytest.raises(EnumerationBudgetError):
        oracle_event_prob(HALF, 25, WaitingEquals(quota, DEFAULT_BUDGET + 1))
    # a table above the budget is refused before anything is walked
    def no_walk(*args):
        raise AssertionError("enumerated before the budget was checked")

    monkeypatch.setattr(core, "enumerate_walk", no_walk)
    monkeypatch.setattr(core, "waiting_stop_counts", no_walk)
    with pytest.raises(EnumerationBudgetError):
        oracle_waiting_pmf(HALF, quota, DEFAULT_BUDGET + 1)


def test_oracle_longest_events_at_budget():
    # at n = DEFAULT_BUDGET the longest-run and joint events walk all 2**20
    # sequences, whose grouping keys pass 2**11, and equal the formulas
    from qbtrials import joint_longest, longest_run_pmf

    params = ModelParams(Fraction(3, 7), Fraction(5, 11))
    n = DEFAULT_BUDGET
    assert oracle_event_prob(params, n, LongestAtMost(4)) == longest_run_cdf(params, n, 4)
    assert oracle_event_prob(params, n, LongestEquals(3)) == longest_run_pmf(params, n, 3)
    assert oracle_event_prob(params, n, JointLongest(3, Rel.LE, 2, Rel.GE)) == \
        joint_longest(params, n, 3, Rel.LE, 2, Rel.GE)


def test_longest_predicates_share_one_walk_per_n(monkeypatch):
    # a scan over k at one n walks the 2**n sequences once: LongestEquals(k)
    # for k = 0..n and a JointLongest at n = 12 share the held walk, and
    # each equals its formula
    from qbtrials import joint_longest, longest_run_pmf, oracle

    real = core.enumerate_walk
    calls = []
    monkeypatch.setattr(core, "enumerate_walk", lambda *args: calls.append(args) or real(*args))
    oracle._counts.cache_clear()
    oracle._walk.cache_clear()
    params, n = ModelParams(Fraction(3, 7), Fraction(5, 11)), 12
    for k in range(n + 1):
        assert oracle_event_prob(params, n, LongestEquals(k)) == longest_run_pmf(params, n, k)
    assert oracle_event_prob(params, n, JointLongest(3, Rel.LE, 2, Rel.GE)) == \
        joint_longest(params, n, 3, Rel.LE, 2, Rel.GE)
    assert calls == [(n,)]
    oracle._counts.cache_clear()
    oracle._walk.cache_clear()


def test_oracle_table_budget_refused_before_enumerating(monkeypatch, tmp_path):
    # n_max above the budget is refused before any count table is built,
    # from the library and from both CLI paths that reach it
    from qbtrials import cli, oracle

    def no_counts(*args):
        raise AssertionError("enumerated before the budget was checked")

    monkeypatch.setattr(oracle, "_counts", no_counts)
    monkeypatch.setattr(core, "waiting_stop_counts", no_counts)
    n_max = DEFAULT_BUDGET + 1
    with pytest.raises(EnumerationBudgetError):
        oracle_waiting_pmf(HALF, RR_SOONER, n_max)
    with pytest.raises(SystemExit) as exc:
        cli.main(["oracle", "--mode", "sooner", "--success", "run:2", "--failure",
                  "run:2", "--theta", "1/2", "--q", "1/2", "--n-max", str(n_max), "--exact"])
    assert exc.value.code == 2
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(
        {"thetas": ["1/2"], "qs": ["1/2"], "k_pairs": [[2, 2]], "n_max": n_max}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--grid", str(grid)])
    assert exc.value.code == 2


def test_waiting_event_reads_only_its_trials(monkeypatch):
    # {T = t} depends on trials 1..t only: at n = 12 a lone event, with no
    # rows held, walks its first t trials, and its mass equals that of the
    # 2**12 sequences whose wait ends at t, in plain Fraction arithmetic
    from qbtrials import oracle, q_pochhammer

    real = core.waiting_stop_counts
    calls = []
    monkeypatch.setattr(core, "waiting_stop_counts",
                        lambda n, *rest: calls.append(n) or real(n, *rest))
    th, q = Fraction(3, 7), Fraction(5, 11)
    params = ModelParams(th, q)
    for s_freq, f_freq, later in _WAITING_FAMILIES:
        walk = core.enumerate_walk(12, (s_freq, 2, f_freq, 3))
        quota = QuotaSpec(FreqQuota(2) if s_freq else RunQuota(2),
                          FreqQuota(3) if f_freq else RunQuota(3),
                          Mode.LATER if later else Mode.SOONER)
        for t in range(1, 13):
            calls.clear()
            oracle._held.clear()
            got = oracle_event_prob(params, 12, WaitingEquals(quota, t))
            assert calls == [t]
            # the int 0 when no sequence stops at t
            want = sum(c * th ** (12 - f) * q ** e * q_pochhammer(th, q, f)
                       for (f, e), c in _classes(walk, walk.stop(later) == t).items())
            assert got == want and type(got) is type(want), (s_freq, f_freq, later, t)
    oracle._held.clear()


@pytest.mark.parametrize("s_freq,f_freq,later", _WAITING_FAMILIES)
def test_pruned_walk_equals_unpruned_walk(s_freq, f_freq, later):
    # one pass over the 2**14 indices, which counts at t only the indices
    # below 2**t, gives for every t and both rules the rows of the full,
    # unpruned t-trial walk masked at stop == t; at k = (15, 15) no wait
    # ends, so every row is empty
    for k1, k2 in ((1, 1), (2, 3), (3, 2), (4, 4), (15, 15)):
        pair = core.waiting_stop_counts(14, s_freq, k1, f_freq, k2)
        assert [len(rows) for rows in pair] == [14, 14]
        for t in range(1, 15):
            walk = core.enumerate_walk(t, (s_freq, k1, f_freq, k2))
            for rule in (later, not later):
                want = core.count_rows(walk, walk.stop(rule) == t)
                got = pair[rule][t - 1]
                assert got == want and _all_ints(got), (k1, k2, t, rule)
        if (k1, k2) == (15, 15):
            assert pair == (((),) * 14,) * 2


@pytest.mark.parametrize("s_freq,f_freq", ALL_KINDS)
def test_index_pass_across_blocks(s_freq, f_freq):
    # at n_max = 20 the pass spans 64 blocks of 2**14 indices, whose top
    # bits add successes and weight to the low bits' and bound the prefix
    # lengths: the rows at t = 14, 15, 16 and 20, where blocks begin to
    # count, equal the full t-trial walk masked at stop == t, for both
    # rules, at k = 21 above n_max too
    for k1, k2 in ((2, 3), (4, 4), (21, 1)):
        quota = (s_freq, k1, f_freq, k2)
        pair = core.waiting_stop_counts(20, *quota)
        for t in (14, 15, 16, 20):
            walk = core.enumerate_walk(t, quota)
            for later in (False, True):
                want = core.count_rows(walk, walk.stop(later) == t)
                assert pair[later][t - 1] == want, (quota, t, later)


def test_paired_walk_equals_per_mode_walks():
    # one walk of a quota gives the rows of both rules: for every t, each
    # rule's rows equal the full t-trial walk masked at that rule's
    # stop == t, grouped here by (failures, weight) sequence by sequence;
    # every quota kind, k1, k2 in 1..5, t up to 16, and a shorter walk's
    # rows are the first of a longer one's
    n_max = 16
    for s_freq, f_freq in ALL_KINDS:
        for k1, k2 in itertools.product(range(1, 6), repeat=2):
            quota = (s_freq, k1, f_freq, k2)
            pair = core.waiting_stop_counts(n_max, *quota)
            for n in (1, 5, 11):
                assert core.waiting_stop_counts(n, *quota) == tuple(rows[:n] for rows in pair)
            for t in range(1, n_max + 1):
                walk = core.enumerate_walk(t, quota)
                for later in (False, True):
                    want = _naive_rows(_classes(walk, walk.stop(later) == t))
                    assert pair[later][t - 1] == want, (quota, t, later)


def test_enumerate_walk_index_order():
    # bit t - 1 of a sequence's index is trial t, a set bit a success: at
    # index i the walk holds what model computes from the bits of i, and
    # the stop of a quota walk is model.stopping_time's.  Its arrays take
    # the narrowest unsigned dtype that holds their bound
    assert [core._uint(bound) for bound in (255, 256, 2**16 - 1, 2**16, 2**32)] == \
        [np.uint8, np.uint16, np.uint16, np.uint32, np.uint64]
    for n in range(11):
        walk = core.enumerate_walk(n)
        assert walk.weight.size == 1 << n
        for i in range(1 << n):
            seq = [(i >> t) & 1 for t in range(n)]
            assert (walk.failures[i], walk.weight[i]) == _failures_and_weight(seq), (n, i)
            assert (walk.l1[i], walk.l0[i]) == longest_runs(seq), (n, i)
    n = 10
    for s_freq, f_freq, later in _WAITING_FAMILIES:
        quota = _quota(s_freq, f_freq, 2, 3, Mode.LATER if later else Mode.SOONER)
        stop = core.enumerate_walk(n, (s_freq, 2, f_freq, 3)).stop(later).tolist()
        assert stop == [stopping_time([(i >> t) & 1 for t in range(n)], quota) or 0
                        for i in range(1 << n)], (s_freq, f_freq, later)


def test_waiting_event_walks_once(monkeypatch):
    # the rows of both rules of a quota are held for every t up to the
    # longest walked: one table walks once, and later tables, points, lone
    # events within it and the other mode's tables walk no more
    from qbtrials import oracle

    real = core.waiting_stop_counts
    calls = []
    monkeypatch.setattr(core, "waiting_stop_counts",
                        lambda *args: calls.append(args) or real(*args))
    oracle._held.clear()
    quota = QuotaSpec(RunQuota(2), FreqQuota(3), Mode.LATER)
    first = oracle_waiting_pmf(HALF, quota, 14)
    assert calls == [(14, False, 2, True, 3)]
    params = ModelParams(Fraction(3, 7), Fraction(5, 11))
    table = oracle_waiting_pmf(params, quota, 14)
    for t in range(1, 15):
        got = oracle_event_prob(params, 14, WaitingEquals(quota, t))
        assert got == (table.probs[t - table.offset] if t >= table.offset else 0), t
    assert oracle_waiting_pmf(HALF, quota, 9).probs == first.probs[:9 - first.offset + 1]
    assert len(calls) == 1
    # a longer table walks once more, to its own n_max
    oracle_waiting_pmf(HALF, quota, 16)
    assert calls[1:] == [(16, False, 2, True, 3)]
    # a sooner table after a later table of the same quota walks nothing
    sooner = QuotaSpec(RunQuota(2), FreqQuota(3), Mode.SOONER)
    assert oracle_waiting_pmf(params, sooner, 16) == waiting_time_table(params, sooner, 16)
    assert len(calls) == 2
    # the default scan walks each of its 4 x 3 quota pairs once, for both
    # modes
    calls.clear()
    oracle._held.clear()
    reports = differential_scan(
        default_grid(), formula=lambda params, quota, n_max: [0] * (n_max - support_min(quota) + 1))
    assert len(reports) == 2520 and len(calls) == 12 and len(set(calls)) == 12
    # a table above the budget is refused before any walk
    calls.clear()
    with pytest.raises(EnumerationBudgetError):
        oracle_waiting_pmf(HALF, quota, DEFAULT_BUDGET + 1)
    assert calls == []
    # threads asking for one event at once share one walk, however long
    # it takes
    calls.clear()
    oracle._held.clear()
    monkeypatch.setattr(core, "waiting_stop_counts",
                        lambda *args: calls.append(args) or time.sleep(0.05) or real(*args))
    with ThreadPoolExecutor(4) as pool:
        tables = list(pool.map(lambda _: oracle_waiting_pmf(HALF, quota, 16), range(4)))
    assert len(calls) == 1 and all(t == tables[0] for t in tables)
    # the least recently used quota goes once more are held than allowed;
    # the held rows are keyed by the first four fields of the quota key
    calls.clear()
    monkeypatch.setattr(oracle, "_HELD_EVENTS", 2)
    oracle._held.clear()
    for k in (2, 3, 2, 4):
        oracle_waiting_pmf(HALF, QuotaSpec(RunQuota(k), RunQuota(k), Mode.SOONER), 8)
    assert list(oracle._held) == [(False, 2, False, 2), (False, 4, False, 4)]
    assert len(calls) == 3
    oracle._held.clear()


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


def test_differential_scan_builds_value_tables_once_per_point(monkeypatch):
    # each point's formula rows are one table, which fills each band pair
    # it reads once, not once per n: at most twice per band pair.  q
    # changes at every point, so each point starts from an empty value
    # memo.  Reports stay ascending
    from qbtrials import oracle

    grid = ScanGrid(thetas=(Fraction(1, 3), Fraction(3, 4)),
                    qs=(Fraction(1, 2), Fraction(7, 9)), k_pairs=((2, 3), (3, 2)), n_max=12)
    points = []
    real_fill, real_oracle = core.band_diagonals, oracle.oracle_waiting_pmf
    monkeypatch.setattr(core, "band_diagonals",
                        lambda *args: points[-1].append(args[:2]) or real_fill(*args))
    monkeypatch.setattr(oracle, "oracle_waiting_pmf",
                        lambda *args: points.append([]) or real_oracle(*args))
    reports = differential_scan(grid)
    assert len(points) == 8 * 2 * 2 * 2
    # the first point may find the default cache's tables at its q
    assert all(points[1:]) and all(built.count(band) <= 2 for built in points for band in built)
    assert all(r.verdict == "match" for r in reports)
    by_label = {}
    for r in reports:
        by_label.setdefault(r.configuration, []).append(r.n)
    assert all(ns == list(range(ns[0], grid.n_max + 1)) for ns in by_label.values())


def test_differential_scan_flags_corrupted_formula():
    grid = ScanGrid(
        thetas=(Fraction(1, 2),),
        qs=(Fraction(1, 2),),
        k_pairs=((2, 2),),
        n_max=6,
    )

    def corrupted(params, quota, n_max):
        table = waiting_time_table(params, quota, n_max)
        table.probs[4 - table.offset] += Fraction(1, 1000)
        return table.probs

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
