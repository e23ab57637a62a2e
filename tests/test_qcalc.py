"""q-calculus primitives and counting functions, checked against enumeration."""

import itertools
import math
from fractions import Fraction

import pytest

from qbtrials import (
    count_C,
    count_M,
    count_R,
    count_S,
    q_binomial,
    q_factorial,
    q_number,
    q_pochhammer,
)

TOL = 1e-10


def brute_compositions(total, parts, lo, hi):
    """Independent enumeration of bounded compositions."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for head in range(lo, min(hi, total - lo * (parts - 1)) + 1):
        for tail in brute_compositions(total - head, parts - 1, lo, hi):
            out.append((head,) + tail)
    return out


def test_q_number_examples():
    assert q_number(0, 0.5) == 0
    assert q_number(3, 1) == 3
    assert q_number(2, 0.5) == pytest.approx(1.5, abs=TOL)
    with pytest.raises(ValueError, match="nonnegative"):
        q_number(-1, 0.5)


def test_q_factorial_examples():
    assert q_factorial(0, 0.3) == 1
    assert q_factorial(3, 1) == 6
    assert q_factorial(2, 0.5) == pytest.approx(1.5, abs=TOL)
    with pytest.raises(ValueError, match="nonnegative"):
        q_factorial(-1, 0.5)


def test_q_binomial_examples():
    assert q_binomial(2, 1, 0.5) == pytest.approx(1.5, abs=TOL)
    assert q_binomial(4, 2, 1) == 6
    assert q_binomial(3, 0, 0.7) == 1
    assert q_binomial(3, -1, 0.7) == 0
    assert q_binomial(3, 4, 0.7) == 0


def test_q_pochhammer_examples():
    assert q_pochhammer(0.5, 0.5, 0) == 1
    assert q_pochhammer(0.5, 1, 2) == pytest.approx(0.25, abs=TOL)
    assert q_pochhammer(0.5, 0.5, 2) == pytest.approx(0.375, abs=TOL)
    with pytest.raises(ValueError, match="nonnegative"):
        q_pochhammer(0.5, 0.5, -1)


def test_float_inputs_give_floats():
    # empty products and out-of-range zeros follow the input regime too
    for got, want in ((q_binomial(3, 5, 0.5), 0.0), (q_binomial(3, -1, 0.7), 0.0),
                      (q_binomial(3, 0, 0.5), 1.0), (q_binomial(3, 3, 0.5), 1.0),
                      (q_factorial(0, 0.5), 1.0), (q_pochhammer(0.5, 0.5, 0), 1.0),
                      (q_pochhammer(0.5, Fraction(1, 2), 0), 1.0), (q_number(0, 0.5), 0.0)):
        assert type(got) is float and got == want
    # at int q every q-number and Gaussian binomial is an integer
    for got, want in ((q_binomial(3, 5, Fraction(1, 2)), 0), (q_factorial(0, Fraction(1, 2)), 1),
                      (q_pochhammer(Fraction(1, 2), Fraction(1, 2), 0), 1),
                      (q_number(2, 0), 1), (q_binomial(3, 1, 0), 1),
                      (q_binomial(4, 2, 2), 35), (q_factorial(3, 2), 21)):
        assert type(got) is int and got == want
    for q, n in itertools.product((0, 2, 3, -2), range(9)):
        for got, want in [(q_number(n, q), q_number(n, Fraction(q))),
                          (q_factorial(n, q), q_factorial(n, Fraction(q)))] + [
                (q_binomial(n, m, q), q_binomial(n, m, Fraction(q))) for m in range(n + 1)]:
            assert type(got) is int and got == want, (q, n)


def test_q_binomial_classical_limit_exact():
    for n in range(21):
        for m in range(n + 1):
            assert q_binomial(n, m, Fraction(1)) == math.comb(n, m)


def test_q_pascal_recurrence():
    q = 0.37
    for n in range(1, 16):
        for m in range(n + 1):
            lhs = q_binomial(n, m, q)
            rhs = q_binomial(n - 1, m - 1, q) + q ** m * q_binomial(n - 1, m, q)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_q_newton_binomial_identity():
    for n in range(11):
        for z in (-0.5, 1.0, 2.0):
            q = 0.6
            lhs = 1.0
            for i in range(1, n + 1):
                lhs *= 1 + z * q ** (i - 1)
            rhs = sum(
                q ** (k * (k - 1) // 2) * q_binomial(n, k, q) * z ** k
                for k in range(n + 1)
            )
            assert lhs == pytest.approx(rhs, abs=TOL)


def test_count_examples():
    assert count_S(1, 3, 2) == 1
    assert count_S(2, 3, 4) == 1
    assert count_S(3, 2, 3) == 1
    assert count_R(2, 2, 4) == 3
    assert count_R(1, 2, 1) == 0
    assert count_R(1, 2, 5) == 1
    assert count_M(2, 4) == 3
    assert count_M(1, 7) == 1
    assert count_M(5, 3) == 0
    assert count_C(4, 2, 3) == 3
    assert count_C(0, 5, 2) == 1
    assert count_C(7, 2, 3) == 0


def test_counts_against_enumeration():
    for a in range(0, 7):
        for c in range(0, 16):
            assert count_M(a, c) == len(brute_compositions(c, a, 1, c))
            for b in range(1, 6):
                assert count_S(a, b, c) == len(brute_compositions(c, a, 1, b - 1))
                if a >= 1:
                    expect = sum(
                        1
                        for comp in brute_compositions(c, a, 1, c)
                        if max(comp) >= b
                    )
                    assert count_R(a, b, c) == expect
                assert count_C(c, a, b) == len(brute_compositions(c, a, 0, b))


def test_partition_identity():
    for a in range(0, 9):
        for b in range(1, 7):
            for c in range(0, 21):
                assert count_R(a, b, c) + count_S(a, b, c) == count_M(a, c)


def test_infeasible_inputs_return_zero():
    assert count_S(2, 3, 100) == 0
    assert count_S(0, 3, 1) == 0
    assert count_S(0, 3, 0) == 1
    assert count_M(0, 0) == 1
    assert count_M(0, 3) == 0
    assert count_R(0, 2, 0) == 0
    assert count_C(-1, 2, 3) == 0
    assert count_C(0, 0, 0) == 1


def test_counts_outside_the_positive_domain_against_enumeration():
    """count_R and count_C on every input of a small box that reaches past
    their positive domain (negative or zero counts, parts and bounds),
    against plain enumeration: no composition of 0 into positive parts
    has a part >= b, and no part lies in 0..c when c < 0."""

    def tuples(parts, lo, hi):
        # every tuple of `parts` values in lo..hi; none for parts < 0
        return itertools.product(range(lo, hi + 1), repeat=parts) if parts >= 0 else ()

    for a in range(-2, 6):
        for b in range(-3, 7):
            for c in range(-3, 10):
                want = sum(1 for comp in tuples(a, 1, c)
                           if sum(comp) == c and any(part >= b for part in comp))
                assert count_R(a, b, c) == want, (a, b, c)
    for a in range(-2, 8):
        for b in range(-2, 5):
            for c in range(-3, 4):
                want = sum(1 for comp in tuples(b, 0, c) if sum(comp) == a)
                assert count_C(a, b, c) == want, (a, b, c)


def _fraction_horner(coeffs, q):
    out = 0
    for c in reversed(coeffs):
        out = out * q + c
    return out


def test_term_sum_matches_fraction_arithmetic():
    """`term_sum` against plain Fraction arithmetic (value and type), and the
    oracle at the same point in floats against plain Fraction arithmetic
    at the floats' exact binary values, rounded once.
    A term is a class of length-n sequences with f failures, so its theta
    exponent is n - f.  An exact term's kernel is a Horner numerator over
    b**e, e at least the degree, as the value tables give it (e = m*r)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from qbtrials import LongestAtMost, ModelParams, oracle_event_prob
    from qbtrials.model import longest_runs, sequence_probability
    from qbtrials.qcalc import horner_numerator, term_sum

    def ratio(zero_ok):
        return st.integers(1, 60).flatmap(
            lambda den: st.builds(Fraction, st.integers(0 if zero_ok else 1, den),
                                  st.just(den)))

    # theta in [0, 1] and q in (0, 1], the edges 0 and 1 drawn often; ints too
    thetas = st.one_of(st.sampled_from([Fraction(0), Fraction(1), 0, 1]), ratio(True))
    qs = st.one_of(st.sampled_from([Fraction(1), 1]), ratio(False))
    coeffs = st.one_of(
        st.lists(st.just(0), min_size=1, max_size=4),
        st.lists(st.one_of(st.integers(0, 9), st.integers(2**64, 2**80)),
                 min_size=1, max_size=6))

    @settings(max_examples=400, deadline=None)
    @given(thetas, qs, st.integers(0, 12), st.data())
    def check(th, q, n, data):
        terms = data.draw(st.lists(st.tuples(
            st.integers(0, 3 * n + 3), st.integers(0, n), coeffs, st.integers(0, 4)),
            max_size=8))
        want = 0
        for j, f, cs, extra in terms:
            if any(cs):
                want = want + th ** (n - f) * q ** j * q_pochhammer(th, q, f) \
                    * _fraction_horner(cs, q)
        got = term_sum(th, q, n, (
            (j, f, horner_numerator(cs, q.numerator, q.denominator) * q.denominator ** extra,
             len(cs) - 1 + extra)
            for j, f, cs, extra in terms))
        assert got == want
        assert type(got) is type(want), (type(got), type(want))

        # float regime: the oracle sums a float theta and q at their exact
        # binary values and rounds once, so a longest-run probability at
        # the floats is float() of the sum over its sequences in plain
        # Fraction arithmetic at Fraction(float(theta)), Fraction(float(q))
        fth, fq = float(th), float(q)
        m = n % 7
        pred = LongestAtMost(data.draw(st.integers(0, m)))
        at_binary = ModelParams(Fraction(fth), Fraction(fq))
        want = sum((sequence_probability(at_binary, seq)
                    for seq in itertools.product((0, 1), repeat=m)
                    if pred.holds(*longest_runs(seq))), Fraction(0))
        got = oracle_event_prob(ModelParams(fth, fq), m, pred)
        assert type(got) is float and got == float(want), (fth, fq, m, pred, got)

    check()


def test_term_sum_numerators_held_per_point():
    """The Pochhammer numerators are held for one point and extended as n
    grows: sums at interleaved points and sizes, the edges theta in {0, 1}
    and q = 1 and int inputs among them, equal plain Fraction arithmetic in
    value and type."""
    from qbtrials import qcalc
    from qbtrials.qcalc import horner_numerator, term_sum

    th1, q1 = Fraction(3, 7), Fraction(5, 11)
    th2, q2 = Fraction(2, 9), Fraction(7, 13)
    groups = [
        [(th1, q1, 5), (th2, q2, 20), (th1, q1, 30)],
        [(th1, q1, 12), (0, 1, 9), (1, 1, 9), (Fraction(0), q2, 9), (1, q1, 9)],
        [(th2, 1, 14), (th2, Fraction(1), 14), (3, 2, 7), (th1, q1, 31), (th2, q2, 3)],
    ]
    for points in groups:
        # one sum per point, in the group's order, so a sum often follows
        # one at another point, or at the same point and another n, and
        # replaces or extends the numerators held
        for th, q, n in points:
            # one term per failure count, with kernels of a few degrees
            terms = [(f % 4, f, [1 + f, 0, 3 * f + 2][: 1 + f % 3]) for f in range(n + 1)]
            got = term_sum(th, q, n, [
                (j, f, horner_numerator(cs, q.numerator, q.denominator), len(cs) - 1)
                for j, f, cs in terms])
            want = 0
            for j, f, cs in terms:
                want = want + th ** (n - f) * q ** j * q_pochhammer(th, q, f) \
                    * _fraction_horner(cs, q)
            assert got == want and type(got) is type(want), ((th, q, n), got, want)
    # one point's numerators are held: the last asked for
    th, q, n = groups[-1][-1]
    key, nums = qcalc._numerator_memo
    assert key == (th.numerator, th.denominator, q.numerator, q.denominator)
    assert len(nums) > n


def test_float_prefixes_held_apart_from_exact_numerators():
    """Exact and float sums alternate at theta = q = 1, given as ints,
    floats, Fractions and mixed, whose points compare equal and, read at
    their exact binary values, share one point of held Pochhammer
    numerators: every total, of `term_sum` at exact points, of the oracle
    at every point, and of a longest-run probability, has the type and
    value of plain arithmetic."""
    from qbtrials import LongestEquals, ModelParams, longest_run_pmf, oracle_event_prob, qcalc
    from qbtrials.qcalc import term_sum

    points = [(1, 1), (1.0, 1.0), (Fraction(1), Fraction(1)), (1, 1.0), (1.0, 1), (1, 1)]
    for n in (3, 6, 4, 6, 3):
        for th, q in points:
            if not qcalc.is_exact(th, q):
                want_type = float
            else:
                want_type = Fraction if Fraction in (type(th), type(q)) else int
                # theta**n * q * (theta; q)_0 * 3, and (1; 1)_2 = 0 times 5
                got = term_sum(th, q, n, [(1, 0, 3, 0), (0, 2, 5, 0)])
                assert got == 3 and type(got) is want_type, (th, q, n, got)
            # theta = 1: every trial succeeds, so the longest run is n
            for k, want in ((n, 1), (n - 1, 0)):
                got = oracle_event_prob(ModelParams(th, q), n, LongestEquals(k))
                assert got == want and type(got) is want_type, (th, q, n, k, got)
                got = longest_run_pmf(ModelParams(th, q), n, k)
                assert got == want and type(got) is want_type, (th, q, n, k, got)


def test_waiting_tables_at_points_computed_concurrently():
    """Tables at eight exact points and their float twins computed by
    sixteen threads at once, each replacing the numerators or the float
    powers of the others and sharing the float plans, equal the serial
    ones."""
    import sys
    import threading

    from qbtrials import FreqQuota, Mode, ModelParams, QuotaSpec, RunQuota, waiting_time_table

    quotas = (QuotaSpec(RunQuota(2), FreqQuota(3), Mode.SOONER),
              QuotaSpec(RunQuota(3), RunQuota(2), Mode.LATER))
    points = [ModelParams(Fraction(i + 1, 11), Fraction(5 + i, 13 + 2 * i)) for i in range(8)]
    points += [ModelParams(float(p.theta), float(p.q)) for p in points]
    def tables(p):
        return [[(type(v), v) for v in waiting_time_table(p, quota, 18).probs]
                for quota in quotas]

    results = [None] * len(points)

    def work(i):
        results[i] = [tables(points[i]) for _ in range(10)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(points))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    serial = [tables(p) for p in points]
    assert results == [[want] * 10 for want in serial]
