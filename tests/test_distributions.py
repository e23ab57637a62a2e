"""Distribution assemblies: frozen examples, oracle agreement, identities."""

import itertools
import sys
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
    joint_longest,
    longest_run_cdf,
    longest_run_pmf,
    oracle_event_prob,
    oracle_waiting_pmf,
    q_binomial_pmf,
    sooner_freq_freq_closed,
    support_min,
    waiting_time_pmf,
    waiting_time_table,
)
from qbtrials.oracle import JointLongest
from qbtrials.qcalc import horner_numerator, term_sum

HALF = ModelParams(Fraction(1, 2), Fraction(1, 2))
IID = ModelParams(Fraction(1, 2), Fraction(1))

ALL_KINDS = [(False, False), (True, False), (False, True), (True, True)]


def make_quota(s_freq, f_freq, k1, k2, mode):
    return QuotaSpec(
        FreqQuota(k1) if s_freq else RunQuota(k1),
        FreqQuota(k2) if f_freq else RunQuota(k2),
        mode,
    )


def test_waiting_time_examples():
    rr = make_quota(False, False, 2, 2, Mode.SOONER)
    assert waiting_time_pmf(HALF, rr, 2) == Fraction(5, 8)
    assert waiting_time_pmf(IID, rr, 3) == Fraction(1, 4)
    later = make_quota(False, False, 2, 2, Mode.LATER)
    assert waiting_time_pmf(HALF, later, 3) == 0
    assert waiting_time_pmf(ModelParams(0.3, 0.9), later, 3) == 0


def test_waiting_time_below_support_is_zero():
    rr = make_quota(False, False, 3, 2, Mode.SOONER)
    assert waiting_time_pmf(HALF, rr, 0) == 0
    assert waiting_time_pmf(HALF, rr, 1) == 0
    with pytest.raises(ValueError):
        waiting_time_pmf(HALF, rr, -1)


@pytest.mark.parametrize("s_freq,f_freq", ALL_KINDS)
@pytest.mark.parametrize("mode", [Mode.SOONER, Mode.LATER])
def test_waiting_time_matches_oracle_trimmed(s_freq, f_freq, mode):
    for k1, k2 in ((2, 2), (3, 2)):
        quota = make_quota(s_freq, f_freq, k1, k2, mode)
        for theta, q in ((Fraction(1, 2), Fraction(1, 2)),
                         (Fraction(4, 5), Fraction(9, 10))):
            params = ModelParams(theta, q)
            table = oracle_waiting_pmf(params, quota, 10)
            for n in range(support_min(quota), 11):
                assert waiting_time_pmf(params, quota, n) == \
                    table.probs[n - table.offset], (quota, theta, q, n)


def test_sooner_freq_freq_closed_examples():
    assert sooner_freq_freq_closed(ModelParams(Fraction(1, 2), Fraction(1)), 1, 1, 1) == 1
    assert sooner_freq_freq_closed(HALF, 2, 1, 1) == Fraction(1, 2)
    assert sooner_freq_freq_closed(HALF, 2, 3, 5) == 0
    assert sooner_freq_freq_closed(ModelParams(0.3, 0.7), 3, 4, 7) == 0
    # below the support min(k1, k2): the zero of waiting_time_pmf, never
    # the float rounding of 1 - 1
    for th, q, k1, k2, n in ((0.5875806061435594, 0.9177353005823004, 5, 4, 2),
                             (0.5, 1 - 1e-13, 3, 3, 2), (Fraction(1, 3), Fraction(1, 2), 3, 3, 0),
                             (0.37, 0.81, 4, 6, 3)):
        params = ModelParams(th, q)
        got = sooner_freq_freq_closed(params, k1, k2, n)
        want = waiting_time_pmf(params, make_quota(True, True, k1, k2, Mode.SOONER), n)
        assert got == want == 0 and type(got) is type(want), (th, q, k1, k2, n)


def test_sooner_freq_freq_closed_matches_assembly():
    for k1, k2 in ((2, 2), (2, 3), (3, 2), (1, 4)):
        quota = make_quota(True, True, k1, k2, Mode.SOONER)
        for theta, q in ((Fraction(1, 5), Fraction(1, 2)),
                         (Fraction(1, 2), Fraction(9, 10)),
                         (Fraction(4, 5), Fraction(1))):
            params = ModelParams(theta, q)
            total = 0
            for n in range(min(k1, k2), k1 + k2):
                closed = sooner_freq_freq_closed(params, k1, k2, n)
                assembled = waiting_time_pmf(params, quota, n)
                assert closed == assembled
                total += assembled
            assert total == 1  # finite support normalization


def test_longest_run_examples():
    assert longest_run_pmf(HALF, 2, 0) == Fraction(3, 8)
    assert longest_run_pmf(HALF, 2, 2) == Fraction(1, 4)
    assert longest_run_pmf(HALF, 2, 1) == Fraction(3, 8)
    assert longest_run_pmf(HALF, 2, 3) == 0
    assert longest_run_pmf(HALF, 2, -1) == 0
    assert longest_run_cdf(HALF, 3, 3) == 1
    assert longest_run_cdf(HALF, 2, 0) == Fraction(3, 8)
    assert longest_run_cdf(HALF, 2, 1) == Fraction(3, 4)


def test_longest_run_pmf_is_cdf_difference():
    for theta, q in ((Fraction(1, 5), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))):
        params = ModelParams(theta, q)
        for n in range(0, 11):
            for k in range(0, n + 1):
                left = longest_run_pmf(params, n, k)
                right = longest_run_cdf(params, n, k) - longest_run_cdf(params, n, k - 1)
                assert left == right


def test_longest_run_pmf_is_cdf_difference_at_n_100():
    # far beyond enumeration, exactly: the band tables at n = 100 hold
    # coefficients wider than 64 bits
    params = ModelParams(Fraction(37, 100), Fraction(81, 100))
    cache = KernelValueCache()
    pmf = longest_run_pmf(params, 100, 5, cache)
    assert isinstance(pmf, Fraction) and 0 < pmf < 1
    assert longest_run_cdf(params, 100, 5, cache) - longest_run_cdf(params, 100, 4, cache) == pmf


def test_longest_run_fills_the_callers_cache():
    # a caller's cache fills and the module-level one gains nothing: exact
    # inputs fill the store at q, float ones the float plans with their
    # matrices, whose builds read the store at q = 2**w in its place; the
    # calls without a cache, which use the module-level one, agree
    from qbtrials import _core_py as core
    from qbtrials.kernels import _default_cache

    def state(cache):
        q, values = cache._values
        return q, len(values), {name: len(v) for name, v in vars(cache).items()
                                if isinstance(v, dict)}

    params = ModelParams(Fraction(3, 7), Fraction(5, 11))
    floats = ModelParams(3 / 7, 5 / 11)
    before = state(_default_cache)
    cache = KernelValueCache()
    values = [(longest_run_pmf(params, 13, k, cache), longest_run_cdf(params, 13, k, cache=cache))
              for k in range(14)]
    assert state(_default_cache) == before
    assert cache._values[0] == (5, 11) and cache._values[1]
    assert not cache._plan_memo
    float_values = [(longest_run_pmf(floats, 13, k, cache), longest_run_cdf(floats, 13, k, cache))
                    for k in range(14)]
    assert state(_default_cache) == before
    assert cache._plan_memo and cache._values[1]
    assert cache._values[0] == (1 << core.packed_width(13), 1)
    assert values == [(longest_run_pmf(params, 13, k), longest_run_cdf(params, 13, k))
                      for k in range(14)]
    assert float_values == [(longest_run_pmf(floats, 13, k), longest_run_cdf(floats, 13, k))
                            for k in range(14)]


def test_longest_run_matches_oracle_trimmed():
    params = ModelParams(Fraction(2, 5), Fraction(3, 4))
    for n in range(0, 11):
        for k in range(0, n + 1):
            assert longest_run_pmf(params, n, k) == \
                oracle_event_prob(params, n, LongestEquals(k))
            assert longest_run_cdf(params, n, k) == \
                oracle_event_prob(params, n, LongestAtMost(k))


def test_joint_longest_examples():
    assert joint_longest(HALF, 2, 1, Rel.LE, 1, Rel.LE) == Fraction(3, 8)
    assert joint_longest(HALF, 2, 1, Rel.GE, 1, Rel.GE) == Fraction(3, 8)
    assert joint_longest(HALF, 3, 2, Rel.GE, 2, Rel.GE) == 0
    with pytest.raises(ValueError):
        joint_longest(HALF, 3, 0, Rel.GE, 1, Rel.LE)


def test_joint_longest_matches_oracle_trimmed():
    params = ModelParams(Fraction(1, 2), Fraction(1, 2))
    for n in range(0, 9):
        for k1, k2 in itertools.product((1, 2, 3), repeat=2):
            for r1, r2 in itertools.product((Rel.LE, Rel.GE), repeat=2):
                got = joint_longest(params, n, k1, r1, k2, r2)
                want = oracle_event_prob(params, n, JointLongest(k1, r1, k2, r2))
                assert got == want, (n, k1, r1, k2, r2)


def test_quadrant_decompositions():
    params = ModelParams(Fraction(1, 3), Fraction(4, 5))
    for n in range(1, 11):
        for k1, k2 in itertools.product((1, 2, 3), repeat=2):
            lhs = (joint_longest(params, n, k1, Rel.LE, k2 - 1, Rel.LE)
                   + joint_longest(params, n, k1, Rel.LE, k2, Rel.GE))
            rhs = joint_longest(params, n, k1, Rel.LE, n, Rel.LE)
            assert lhs == rhs
            lhs2 = (joint_longest(params, n, k1, Rel.GE, k2 - 1, Rel.LE)
                    + joint_longest(params, n, k1, Rel.GE, k2, Rel.GE))
            rhs2 = 1 - longest_run_cdf(params, n, k1 - 1)
            assert lhs2 == rhs2


def test_q_binomial_pmf_examples():
    assert q_binomial_pmf(HALF, 2, 2) == Fraction(1, 4)
    assert q_binomial_pmf(HALF, 2, 1) == Fraction(3, 8)
    got = q_binomial_pmf(ModelParams(Fraction(3, 10), Fraction(1)), 4, 2)
    assert got == Fraction(2646, 10000)
    assert q_binomial_pmf(HALF, 2, 3) == 0
    assert q_binomial_pmf(HALF, 2, -1) == 0


def test_q_binomial_pmf_sums_to_one():
    for theta, q in ((Fraction(1, 5), Fraction(1, 2)), (Fraction(1, 2), Fraction(9, 10))):
        params = ModelParams(theta, q)
        for n in range(0, 12):
            assert sum(q_binomial_pmf(params, n, r) for r in range(n + 1)) == 1


def test_waiting_time_table_examples():
    point = waiting_time_table(
        ModelParams(Fraction(1, 2), Fraction(1)),
        make_quota(True, True, 1, 1, Mode.SOONER), 5)
    assert point.offset == 1
    assert point.probs == [1, 0, 0, 0, 0]
    rr = waiting_time_table(IID, make_quota(False, False, 2, 2, Mode.SOONER), 3)
    assert rr.offset == 2
    assert rr.probs == [Fraction(1, 2), Fraction(1, 4)]
    ff = waiting_time_table(HALF, make_quota(True, True, 2, 2, Mode.SOONER), 3)
    assert ff.total() == 1
    with pytest.raises(ValueError):
        waiting_time_table(HALF, make_quota(False, False, 2, 2, Mode.LATER), 3)


def test_waiting_time_table_fills_each_band_pair_once(monkeypatch):
    # a table reads every n in one call, so each band pair is filled in
    # one pass, to the largest size any n reads, at either kind of q, and
    # the store holds exactly the sizes the table's sides read and no
    # other, at the exact q or, at float inputs, at q = 2**w, w the packed
    # width of the largest.  Its rows equal the one-n calls
    from qbtrials import _core_py as core
    from qbtrials.distributions import _waiting_sides
    from qbtrials.kernels import _band_pairs

    fills = []
    real = core.band_diagonals
    monkeypatch.setattr(core, "band_diagonals",
                        lambda *args: fills.append(args[:3]) or real(*args))
    for params in (HALF, ModelParams(0.5, 0.5)):
        for (s_freq, f_freq), mode in itertools.product(ALL_KINDS, Mode):
            quota = make_quota(s_freq, f_freq, 3, 2, mode)
            cache = KernelValueCache()
            table = waiting_time_table(params, quota, 30, cache)
            pairs = [args[:2] for args in fills]
            assert pairs and len(pairs) == len(set(pairs))
            read = {(*pair, size) for n in table.support()
                    for _, xcon, ycon, size, rows in _waiting_sides(quota.key, n) if rows
                    for pair, _ in _band_pairs(xcon, ycon)}
            assert set(fills) == {
                (x, y, max(size for *pair, size in read if pair == [x, y])) for x, y in pairs}
            if isinstance(params.q, Fraction):
                at = params.q.numerator, params.q.denominator
            else:
                at = 1 << core.packed_width(max(size for *_, size in read)), 1
            assert cache._values[0] == at and set(cache._values[1]) == read
            assert {key[:2] for key in read} == set(pairs)
            fills.clear()
            assert table.probs == [waiting_time_pmf(params, quota, n, KernelValueCache())
                                   for n in table.support()]
            fills.clear()


@pytest.mark.parametrize("s_freq,f_freq", ALL_KINDS)
def test_later_mode_partial_sums_bounded(s_freq, f_freq):
    quota = make_quota(s_freq, f_freq, 2, 2, Mode.LATER)
    params = HALF
    running = Fraction(0)
    previous = Fraction(0)
    for n in range(support_min(quota), 61):
        running += waiting_time_pmf(params, quota, n)
        assert previous <= running <= 1
        previous = running


def test_exact_table_partial_sums_may_not_exceed_one(monkeypatch):
    # an exact table has no rounding to forgive: 1 + 10**-12 is refused,
    # while a float table keeps its slack for rounding
    from qbtrials import distributions as d

    quota = make_quota(True, True, 2, 2, Mode.SOONER)
    real = d._mass

    def overshoot(th, q, ns, *args):
        # the row of n = 2 raised by 10**-12
        up = Fraction(1, 10**12) if isinstance(th, Fraction) else 1e-12
        return [p + up if n == 2 else p for n, p in zip(ns, real(th, q, ns, *args))]

    assert waiting_time_table(HALF, quota, 3).total() == 1
    monkeypatch.setattr(d, "_mass", overshoot)
    with pytest.raises(ValueError, match="partial sums exceed 1"):
        waiting_time_table(HALF, quota, 3)
    floats = waiting_time_table(ModelParams(0.5, 0.5), quota, 3)
    assert floats.total() == pytest.approx(1 + 1e-12, rel=1e-15)
    # tables of given rows, n = 3 first as `_mass` gives them: rows of
    # unlike denominators that sum to exactly 1 pass, and the same rows
    # raised by 10**-40 are refused with their sum in the message
    tiny = Fraction(1, 10**40)
    for rows, ok in (([Fraction(2, 3), Fraction(1, 3)], True), ([1, 0], True),
                     ([Fraction(5, 7), Fraction(2, 7) + tiny], False),
                     ([Fraction(4, 9) + tiny, Fraction(5, 9)], False)):
        monkeypatch.setattr(d, "_mass", lambda *args, rows=rows: list(rows))
        if ok:
            assert waiting_time_table(HALF, quota, 3).probs == rows[::-1]
        else:
            with pytest.raises(ValueError, match=f"partial sums exceed 1: {1 + tiny}$"):
                waiting_time_table(HALF, quota, 3)


def test_later_mode_is_defective_for_small_q():
    # with decaying success probability the success-run quota may never be met
    quota = make_quota(False, False, 2, 2, Mode.LATER)
    total = sum(
        waiting_time_pmf(HALF, quota, n) for n in range(support_min(quota), 61)
    )
    assert total < Fraction(95, 100)


def test_classical_reduction_at_q_one_run_run():
    # at q = 1 the assembly collapses to IID run statistics; spot-check
    # run/run sooner against the direct binomial-weighted counting form
    theta = Fraction(1, 2)
    params = ModelParams(theta, Fraction(1))
    from qbtrials.qcalc import count_S

    def classical_sooner_mass(n, k1, k2):
        p = Fraction(0)
        if n == k1:
            p += theta ** k1
        elif n > k1:
            for i in range(1, n - k1 + 1):
                m = n - k1 - i
                inner = sum(
                    count_S(s - 1, k1, m) * count_S(s, k2, i)
                    + count_S(s, k1, m) * count_S(s, k2, i)
                    for s in range(1, i + 1)
                )
                p += theta ** (n - i) * (1 - theta) ** i * inner
        if n == k2:
            p += (1 - theta) ** k2
        elif n > k2:
            for i in range(0, n - k2 + 1):
                m = n - k2 - i
                inner = sum(
                    count_S(s, k1, m) * count_S(s - 1, k2, i)
                    + count_S(s, k1, m) * count_S(s, k2, i)
                    for s in range(1, max(m, 1) + 1)
                )
                p += theta ** m * (1 - theta) ** (i + k2) * inner
        return p

    quota = make_quota(False, False, 2, 3, Mode.SOONER)
    for n in range(2, 13):
        assert waiting_time_pmf(params, quota, n) == classical_sooner_mass(n, 2, 3)


def test_classical_reduction_at_q_one_all_configs():
    # substitute each term's classical count, the counting products summed
    # over the run counts, into the same assembly and compare against the
    # evaluator at q = 1, all 8 configs; a count is its term's kernel, as
    # the value tables give it at q = 1 (b = 1)
    from qbtrials import distributions as d
    from qbtrials.qcalc import count_M, count_R, count_S

    def side(con, parts, total):
        _, hi, need = con
        if hi is not None:
            return count_S(parts, hi + 1, total)
        if need:
            return count_R(parts, need, total)
        return count_M(parts, total)

    def counting_term(last_x, m, r, xcon, ycon):
        # (success runs, failure runs) of the arrangements that start with
        # either symbol and end with the last one; (0, 0), no runs, once
        total = 0
        for runs in range(m + r + 1):
            for nx, ny in ((runs + 1, runs) if last_x else (runs, runs + 1), (runs, runs)):
                total += side(xcon, nx, m) * side(ycon, ny, r)
        return total

    one = Fraction(1)
    for theta in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
        params = ModelParams(theta, one)
        for k1, k2 in ((2, 2), (2, 3), (3, 2)):
            for (s_freq, f_freq), mode in itertools.product(
                    ALL_KINDS, (Mode.SOONER, Mode.LATER)):
                quota = make_quota(s_freq, f_freq, k1, k2, mode)
                for n in range(support_min(quota), 15):
                    classical = term_sum(theta, one, n, (
                        (j, f, counting_term(last_x, x, y, xcon, ycon), 0)
                        for last_x, xcon, ycon, _, rows in d._waiting_sides(quota.key, n)
                        for j, f, x, y in rows))
                    assert classical == waiting_time_pmf(params, quota, n), (
                        s_freq, f_freq, mode, k1, k2, theta, n)


@pytest.mark.parametrize("k1,k2,n", [(3, 2, 30), (4, 3, 40), (2, 5, 40)])
@pytest.mark.parametrize("theta,q", [(Fraction(37, 100), Fraction(81, 100)),
                                     (Fraction(4, 7), Fraction(5, 13))])
def test_encodings_agree_beyond_enumeration(theta, q, k1, k2, n):
    # all eight waiting theorems and the joint quadrants against other
    # encodings of the same events, exactly, at n past the oracle's reach:
    # a sooner wait has not ended by n iff neither side met its quota, a
    # later one has ended iff both did.  C and D sum the polynomial tables,
    # the distributions read the value tables
    params = ModelParams(theta, q)
    cache = KernelValueCache()
    cells = [cache.arrangement_poly(True, n - y, y, (0, k1 - 1, 0), (1, 1, 0))
             for y in range(n + 1)]

    def S(s_freq, f_freq, mode):
        return waiting_time_table(params, make_quota(s_freq, f_freq, k1, k2, mode), n,
                                  cache).total()

    def J(a, rel1, b, rel2):
        return joint_longest(params, n, a, rel1, b, rel2, cache)

    def B(x):
        return q_binomial_pmf(params, n, x)

    def total(f, polys):
        # the length-n classes with f failures whose K sums `polys`
        return term_sum(theta, q, n, [
            (0, f, horner_numerator(poly, q.numerator, q.denominator), len(poly) - 1)
            for poly in polys])

    def C(y):
        # longest success run <= k1 - 1, y failures
        return total(y, [cells[y]])

    def D(x):
        # longest failure run <= k2 - 1, x successes
        y, ycon = n - x, (1, k2 - 1, 0)
        polys = [cache.arrangement_poly(True, x, y, (1, None, 0), ycon)]
        if y:
            polys.append(cache.arrangement_poly(False, x, y, (1, None, 0), ycon))
        return total(y, polys)

    sooner, later = Mode.SOONER, Mode.LATER
    assert 1 - S(False, False, sooner) == J(k1 - 1, Rel.LE, k2 - 1, Rel.LE)
    assert S(False, False, later) == J(k1, Rel.GE, k2, Rel.GE)
    assert S(True, True, sooner) == 1
    assert S(True, True, later) == sum(B(x) for x in range(k1, n - k2 + 1))
    assert 1 - S(False, True, sooner) == sum(C(y) for y in range(k2))
    assert S(False, True, later) == sum(B(n - y) - C(y) for y in range(k2, n + 1))
    assert 1 - S(True, False, sooner) == sum(D(x) for x in range(k1))
    assert S(True, False, later) == sum(B(x) - D(x) for x in range(k1, n + 1))
    assert (J(k1, Rel.LE, k2, Rel.LE) + J(k1, Rel.LE, k2 + 1, Rel.GE)
            == longest_run_cdf(params, n, k1))


def test_float_error_against_exact_beyond_enumeration():
    # float values come from the packed polynomial tables evaluated at q,
    # exact ones from the value tables at q: two evaluations of one fill,
    # compared at two points and n up to 100 (rows of every n to 60, the
    # joint quadrants and longest-run PMFs at n = 20, 40, 60, and the
    # longest-run PMF and CDF at n = 100, k = 5 and 8); exact zeros stay
    # 0.0.  One cache, so the float tables are built once
    cache = KernelValueCache()
    pairs = []
    for theta, q in ((Fraction(37, 100), Fraction(81, 100)), (Fraction(4, 7), Fraction(5, 13))):
        exact, floats = ModelParams(theta, q), ModelParams(float(theta), float(q))
        for (s_freq, f_freq), mode in itertools.product(ALL_KINDS, Mode):
            quota = make_quota(s_freq, f_freq, 3, 2, mode)
            pairs += zip(waiting_time_table(floats, quota, 60, cache).probs,
                         waiting_time_table(exact, quota, 60, cache).probs)
        for n in (20, 40, 60):
            for k1, rel1, k2, rel2 in ((3, Rel.LE, 2, Rel.LE), (3, Rel.LE, 3, Rel.GE),
                                       (4, Rel.GE, 2, Rel.LE), (4, Rel.GE, 3, Rel.GE)):
                pairs.append((joint_longest(floats, n, k1, rel1, k2, rel2, cache),
                              joint_longest(exact, n, k1, rel1, k2, rel2, cache)))
            pairs += [(longest_run_pmf(floats, n, k, cache), longest_run_pmf(exact, n, k, cache))
                      for k in range(n + 1)]
        for k, f in itertools.product((5, 8), (longest_run_pmf, longest_run_cdf)):
            pairs.append((f(floats, 100, k, cache), f(exact, 100, k, cache)))
    zeros = [f for f, e in pairs if e == 0]
    assert zeros and all(f == 0.0 for f in zeros)  # sooner freq/freq ends by n = 4
    for f, e in pairs:
        assert isinstance(f, float) and isinstance(e, (int, Fraction))
        if e:
            assert abs(Fraction(f) - e) <= Fraction(1, 10**12) * e, (f, e)


def test_float_error_beyond_n_60():
    # the waiting-time rows at n = 100, the later run:3/run:2 table to
    # n_max = 80 and the joint quadrants at n = 80, where the packed tables
    # are two 64-bit limbs wide (w >= 72), against the exact values at two
    # points: within 1e-12 relative wherever the exact value is at least
    # the least normal float, and float(exact) itself below it.  That is
    # 0.0 at the 3 exact zeros (a sooner wait with a frequency quota ends
    # within a few trials) and at (4/7, 5/13) for sooner run:3/run:2 at
    # n = 100, about 1e-409
    quadrants = ((3, Rel.LE, 2, Rel.LE), (3, Rel.LE, 3, Rel.GE),
                 (4, Rel.GE, 2, Rel.LE), (4, Rel.GE, 3, Rel.GE))
    for theta, q, tiny in ((Fraction(37, 100), Fraction(81, 100), 0),
                           (Fraction(4, 7), Fraction(5, 13), 1)):
        cache = KernelValueCache()
        exact, floats = ModelParams(theta, q), ModelParams(float(theta), float(q))
        pairs = []
        for (s_freq, f_freq), mode in itertools.product(ALL_KINDS, Mode):
            quota = make_quota(s_freq, f_freq, 3, 2, mode)
            pairs.append((waiting_time_pmf(floats, quota, 100, cache),
                          waiting_time_pmf(exact, quota, 100, cache)))
        later = make_quota(False, False, 3, 2, Mode.LATER)
        pairs += zip(waiting_time_table(floats, later, 80, cache).probs,
                     waiting_time_table(exact, later, 80, cache).probs)
        for k1, rel1, k2, rel2 in quadrants:
            pairs.append((joint_longest(floats, 80, k1, rel1, k2, rel2, cache),
                          joint_longest(exact, 80, k1, rel1, k2, rel2, cache)))
        assert len(pairs) == 88
        assert sum(e == 0 for _, e in pairs) == 3
        assert sum(0 < e < sys.float_info.min for _, e in pairs) == tiny
        for f, e in pairs:
            assert isinstance(f, float) and isinstance(e, (int, Fraction))
            if e >= sys.float_info.min:
                assert abs(Fraction(f) - e) <= Fraction(1, 10**12) * e, (theta, q, f, e)
            else:
                assert f == float(e), (theta, q, f, e)


@pytest.mark.parametrize("k1,k2", [(2, 3), (3, 3), (4, 2)])
def test_float_table_is_one_batch_of_its_rows(k1, k2, monkeypatch):
    # a float table sums every n at once, one float matrix row per term:
    # its rows equal the one-n calls within 1e-15 relative and the exact
    # table within 1e-12 (0.0 where float(exact) is 0.0).  On a fresh
    # cache one table leaves one plan, whose matrix has one nonzero row
    # per term, and a second table at a new float point builds nothing:
    # every memo keeps its size and the plans their keys, and no side is
    # asked for, so the table's plan was memoized
    from qbtrials import distributions as d

    theta, q = Fraction(37, 100), Fraction(81, 100)
    exact, floats, other = ModelParams(theta, q), ModelParams(0.37, 0.81), ModelParams(0.6, 0.45)
    real_sides, asked = d._waiting_sides, []
    monkeypatch.setattr(d, "_waiting_sides", lambda key, n: asked.append(n) or real_sides(key, n))

    def sizes(cache):
        return ({name: len(memo) for name, memo in vars(cache).items() if isinstance(memo, dict)},
                list(cache._plan_memo), real_sides.cache_info().currsize)

    for (s_freq, f_freq), mode in itertools.product(ALL_KINDS, Mode):
        quota = make_quota(s_freq, f_freq, k1, k2, mode)
        want = waiting_time_table(exact, quota, 60, KernelValueCache()).probs
        for n_max in (30, 60):
            cache = KernelValueCache()
            table = waiting_time_table(floats, quota, n_max, cache)
            [((nf, j, f), cuts, low, matrix, top)] = cache._plan_memo.values()
            assert len(matrix) == len(nf) == len(j) == len(f) == cuts[-1]
            assert matrix.any(axis=1).all() and len(cuts) == len(table.probs) + 1
            before = sizes(cache)
            asked.clear()
            waiting_time_table(other, quota, n_max, cache)
            assert sizes(cache) == before and not asked, (quota, n_max)
            single = KernelValueCache()
            for n, got in zip(table.support(), table.probs):
                one = waiting_time_pmf(floats, quota, n, single)
                assert abs(got - one) <= 1e-15 * abs(one), (quota, n_max, n, got, one)
                e = want[n - table.offset]
                if float(e) == 0.0:
                    assert got == 0.0, (quota, n_max, n, got)
                else:
                    assert abs(Fraction(got) - e) <= Fraction(1, 10**12) * e, (quota, n_max, n)


@pytest.mark.parametrize("theta", [Fraction(0), Fraction(1), Fraction(37, 100)])
@pytest.mark.parametrize("q", [Fraction(1), Fraction(1, 1000), Fraction(81, 100),
                               Fraction(1, 10**6), Fraction(1, 10**30)])
def test_float_at_edge_points_tracks_exact(theta, q):
    # theta at 0 and 1 (where theta**0 and a zero (theta; q)_f enter the
    # float product), q at 1 and near 0, down to 1e-30, where q**i
    # underflows inside a row's power range: the waiting tables of all eight
    # configurations at k = (3, 2) to n_max = 30, the longest-run PMF and
    # CDF at n = 20 and the four joint quadrants at n = 16 are within
    # 1e-12 relative of float(exact), and 0.0 exactly where it is 0.0
    exact, floats = ModelParams(theta, q), ModelParams(float(theta), float(q))
    cache = KernelValueCache()
    pairs = []
    for (s_freq, f_freq), mode in itertools.product(ALL_KINDS, Mode):
        quota = make_quota(s_freq, f_freq, 3, 2, mode)
        pairs += zip(waiting_time_table(floats, quota, 30, cache).probs,
                     waiting_time_table(exact, quota, 30, cache).probs)
    for k, f in itertools.product(range(21), (longest_run_pmf, longest_run_cdf)):
        pairs.append((f(floats, 20, k, cache), f(exact, 20, k, cache)))
    for k1, rel1, k2, rel2 in ((3, Rel.LE, 2, Rel.LE), (3, Rel.LE, 3, Rel.GE),
                               (4, Rel.GE, 2, Rel.LE), (4, Rel.GE, 3, Rel.GE)):
        pairs.append((joint_longest(floats, 16, k1, rel1, k2, rel2, cache),
                      joint_longest(exact, 16, k1, rel1, k2, rel2, cache)))
    assert len(pairs) == 4 * 29 + 4 * 26 + 42 + 4  # sooner tables start at n = 2, later at 5
    for f, e in pairs:
        assert isinstance(f, float) and isinstance(e, (int, Fraction))
        if float(e) == 0.0:
            assert f == 0.0, (f, e)
        else:
            assert abs(Fraction(f) - e) <= Fraction(1, 10**12) * e, (f, e)


def test_float_powers_are_the_plain_formula_bit_for_bit():
    # theta**i, q**i and (theta; q)_i, taken over the held exponent row and
    # built in place, are bit for bit the plain formula's arrays: a fresh
    # arange of exponents, two powers, and the cumulative product of 1
    # followed by 1 - theta*q**i; also where the memo grows at one point
    # (at least doubling) and at the edges theta in {0, 1}, q = 1 and q
    # near 0, where q**i underflows
    import random

    import numpy as np

    from qbtrials import distributions as d

    def plain(th, q, top):
        exps = np.arange(top, dtype=np.float64)
        qs = q ** exps
        return th ** exps, qs, np.cumprod(np.concatenate(([1.0], 1 - th * qs[:-1])))

    rng = random.Random(29)
    points = [(rng.random(), rng.random()) for _ in range(200)]
    points += [(0.0, 0.81), (1.0, 0.81), (0.37, 1.0), (0.37, 1e-30), (1.0, 1e-300)]
    for th, q in points:
        for top in (1, 2, 37, 131, 700):
            got = d._float_powers(th, q, top)
            m = len(got[0])
            assert m >= top and all(len(a) == m for a in got)
            assert all(a.dtype == np.float64 and a.tobytes() == b.tobytes()
                       for a, b in zip(got, plain(th, q, m))), (th, q, top)
