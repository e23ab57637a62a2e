"""Kernel layer: direct enumeration vs recurrence, classical limits, cells."""

import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from qbtrials import (
    ArrangementShape,
    Bounded,
    EnumerationBudgetError,
    KernelSpec,
    KernelValueCache,
    Positive,
    SomeAtLeast,
    count_C,
    count_M,
    count_R,
    count_S,
    kernel_direct,
    kernel_eval,
    longest_cell_kernel_U,
    longest_cell_kernel_V,
    named_kernel,
)
from qbtrials.kernels import _FAMILIES, FAMILY_NAMES, family_spec

QS = (Fraction(3, 10), Fraction(7, 10), Fraction(1))

# a trimmed grid for the routine suite; the acceptance module runs the full one
SMALL_GRID = list(itertools.product(range(0, 7), range(0, 7), range(1, 4)))


def test_kernel_direct_examples():
    spec = KernelSpec(ArrangementShape.FF, 1, 0, 1, Bounded(1), Bounded(2))
    assert kernel_direct(spec, Fraction(1, 2)) == 1
    q = Fraction(2, 5)
    spec = KernelSpec(ArrangementShape.FS, 1, 1, 1, Bounded(2), Bounded(2))
    assert kernel_direct(spec, q) == q  # single term q**(y1*x1)
    spec = KernelSpec(ArrangementShape.SF, 1, 1, 1, Bounded(1), Bounded(2))
    assert kernel_direct(spec, 0.7) == 1


def test_kernel_eval_examples():
    q = Fraction(1, 3)
    assert named_kernel("A", 2, 2, 2, 3, 3, 1) == count_S(1, 3, 2) * count_S(2, 3, 2)
    assert named_kernel("Ebar", 0, 3, 1, 2, 5, q) == 1
    assert named_kernel("K", 1, 3, 2, 2, 2, q) == 0  # max part 1 < 2


def test_named_kernel_examples():
    assert named_kernel("A", 0, 1, 1, 2, 3, 0.9) == 1
    assert named_kernel("Ibar", 3, 2, 2, 2, 2, 1) == count_M(2, 3) * count_M(1, 2) == 2
    assert named_kernel("Q", 1, 1, 1, 2, 2, Fraction(1, 2)) == 0


def test_unknown_family_raises():
    with pytest.raises(ValueError):
        named_kernel("Z", 1, 1, 1, 2, 2, 1)


def test_eval_equals_direct_small_grid():
    cache = KernelValueCache()
    for fam in FAMILY_NAMES:
        for m, r, s in SMALL_GRID:
            spec = family_spec(fam, m, r, s, 2, 3)
            for q in QS:
                assert kernel_eval(spec, q, cache) == kernel_direct(spec, q), (
                    fam, m, r, s, q)


def _counting_product(fam, m, r, s, k1, k2):
    """Classical count from the per-side constraint and run counts."""
    shape, xkind, ykind = _FAMILIES[fam]
    spec = family_spec(fam, m, r, s, k1, k2)

    def side(kind, parts, total, k):
        if kind.startswith("b"):
            return count_S(parts, k, total)
        if kind == "p":
            return count_M(parts, total)
        return count_R(parts, k, total)

    x = side(xkind, spec.x_runs, m, k1)
    y = side(ykind, spec.y_runs, r, k2)
    return x * y


def test_classical_limit_factorizes_small_grid():
    for fam in FAMILY_NAMES:
        for m, r, s in SMALL_GRID:
            got = named_kernel(fam, m, r, s, 2, 3, Fraction(1))
            assert got == _counting_product(fam, m, r, s, 2, 3), (fam, m, r, s)


def test_bounded_plus_atleast_partitions_positive():
    # restricting the failure parts below k2 (family A) plus requiring one
    # of them to reach k2 (family E) recovers the unconstrained family Ebar
    cache = KernelValueCache()
    for m, r, s in SMALL_GRID:
        for k1, k2 in ((2, 2), (3, 4), (4, 3)):
            for q in QS:
                whole = named_kernel("Ebar", m, r, s, k1, k2, q, cache)
                below = named_kernel("A", m, r, s, k1, k2, q, cache)
                above = named_kernel("E", m, r, s, k1, k2, q, cache)
                assert whole == below + above


def test_cell_kernel_examples():
    q = Fraction(1, 2)
    assert longest_cell_kernel_U(1, 2, 1, 2, 0.5) == 1
    assert longest_cell_kernel_U(2, 2, 1, 2, 1) == 2
    assert longest_cell_kernel_U(2, 2, 1, 2, q) == 1 + q ** 2
    assert longest_cell_kernel_V(1, 2, 3, 0.4) == 1
    assert longest_cell_kernel_V(2, 1, 2, q) == 1 + q
    assert longest_cell_kernel_V(3, 4, 2, 1) == count_C(4, 3, 2) == 6


def test_cell_kernels_reach_past_the_recursion_limit():
    # one item in one of r = 1500 cells, more cells than the default
    # recursion limit allows frames: cell j adds q**(j - 1), so both
    # kernels are [r]_q
    from qbtrials import q_number

    q = Fraction(1, 2)
    assert longest_cell_kernel_V(1500, 1, 2, q) == q_number(1500, q)
    assert longest_cell_kernel_U(1500, 1, 1, 1, q) == q_number(1500, q)


def test_cell_kernels_match_enumeration():
    def brute_u(r, s, t, k, q):
        total = Fraction(0)
        for comp in itertools.product(range(k + 1), repeat=r):
            if sum(comp) == s and sum(1 for x in comp if x == k) == t:
                w = sum(j * x for j, x in enumerate(comp))
                total += q ** w
        return total

    q = Fraction(2, 3)
    for r in range(1, 5):
        for s in range(0, 9):
            for k in range(1, 4):
                v_expect = Fraction(0)
                for t in range(0, r + 1):
                    u = brute_u(r, s, t, k, q)
                    assert longest_cell_kernel_U(r, s, t, k, q) == u
                    v_expect += u
                assert longest_cell_kernel_V(r, s, k, q) == v_expect


def test_v_is_u_summed_over_hits():
    for r in range(1, 6):
        for s in range(0, 11):
            for k in range(1, 4):
                for q in QS:
                    total = sum(
                        longest_cell_kernel_U(r, s, t, k, q) for t in range(r + 1)
                    )
                    assert longest_cell_kernel_V(r, s, k, q) == total
    with pytest.raises(ValueError):
        longest_cell_kernel_U(2, 1, None, 1, QS[0])  # V counts any number of full cells


def test_kernel_values_are_monotone_in_q():
    # nonnegative integer coefficients imply value(0) <= value(1)
    for fam in ("A", "E", "Q", "Jbar", "T"):
        for m, r, s in SMALL_GRID:
            at0 = named_kernel(fam, m, r, s, 3, 3, Fraction(0))
            at1 = named_kernel(fam, m, r, s, 3, 3, Fraction(1))
            assert 0 <= at0 <= at1


def test_direct_budget_error(monkeypatch):
    from qbtrials import _core_py as core

    monkeypatch.setattr(core, "_DIRECT_BUDGET", 10)
    spec = KernelSpec(ArrangementShape.FS, 12, 24, 24, Positive(), Positive())
    with pytest.raises(EnumerationBudgetError):
        kernel_direct(spec, Fraction(1, 2))


def test_shared_cache_is_thread_safe():
    import sys

    cache = KernelValueCache()
    specs = [family_spec(fam, 5, 5, 2, 3, 3) for fam in FAMILY_NAMES]
    expected = {id(s): kernel_direct(s, Fraction(7, 10)) for s in specs}
    # the threads share the default cache's cell memos and evaluate every
    # cell polynomial at the same q at once
    cell_q = Fraction(5, 11)
    cells = [(r, s, k) for r in range(1, 6) for s in range(0, 9) for k in range(1, 4)]
    results = []

    def worker():
        local = []
        for s in specs:
            local.append((id(s), kernel_eval(s, Fraction(7, 10), cache)))
        sums = [(longest_cell_kernel_V(r, s, k, cell_q),
                 sum(longest_cell_kernel_U(r, s, t, k, cell_q) for t in range(r + 1)))
                for r, s, k in cells]
        results.append((local, sums))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(threads)
    for local, sums in results:
        for key, val in local:
            assert val == expected[key]
        assert all(v == u for v, u in sums)
        assert sums == results[0][1]


def test_eval_equals_direct_on_arbitrary_specs():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from qbtrials.kernels import BoundedWithZero

    constraints = st.one_of(
        st.builds(Bounded, st.integers(1, 5)),
        st.builds(BoundedWithZero, st.integers(0, 5)),
        st.just(Positive()),
        st.builds(SomeAtLeast, st.integers(1, 5)),
    )
    specs = st.builds(
        KernelSpec,
        shape=st.sampled_from(list(ArrangementShape)),
        y_runs=st.integers(-1, 4),  # -1: no arrangement, 0 from both engines
        x_total=st.integers(0, 8),
        y_total=st.integers(0, 8),
        x_constraint=constraints,
        y_constraint=constraints,
    )

    cache = KernelValueCache()
    q = Fraction(2, 5)

    @settings(max_examples=300, deadline=None)
    @given(specs)
    def check(spec):
        assert kernel_eval(spec, q, cache) == kernel_direct(spec, q)

    check()


def test_caches_keep_float_and_fraction_regimes_apart():
    # Fraction(1, 2) == 0.5 and they hash alike; each query is evaluated
    # in its own regime, a float for float q and exact for Fraction q
    cache = KernelValueCache()
    spec = family_spec("A", 2, 3, 2, 3, 3)
    as_float = kernel_eval(spec, 0.5, cache)
    as_exact = kernel_eval(spec, Fraction(1, 2), cache)
    assert isinstance(as_float, float)
    assert isinstance(as_exact, Fraction)
    assert longest_cell_kernel_U(3, 4, 1, 2, 0.5) == pytest.approx(
        float(longest_cell_kernel_U(3, 4, 1, 2, Fraction(1, 2))))
    assert isinstance(longest_cell_kernel_U(3, 4, 1, 2, Fraction(1, 2)), Fraction)
    assert isinstance(longest_cell_kernel_V(3, 4, 2, Fraction(1, 2)), Fraction)


def test_cache_does_not_grow_with_q():
    # the polynomial memos, term memos included, hold q-independent
    # polynomials, so a new q adds no entry; the anti-diagonal store holds
    # the tables of the last q read only, the same ones at every exact q
    from qbtrials import (
        Mode,
        ModelParams,
        QuotaSpec,
        Rel,
        RunQuota,
        joint_longest,
        longest_run_pmf,
        waiting_time_table,
    )
    from qbtrials.kernels import _default_cache as cache

    spec = family_spec("E", 5, 6, 2, 2, 3)
    quota = QuotaSpec(RunQuota(2), RunQuota(3), Mode.LATER)

    def sizes():
        return {name: len(v) for name, v in vars(cache).items() if isinstance(v, dict)}

    for i in range(200):
        q = Fraction(i + 1, 211) if i % 2 else (i + 1) / 211
        params = ModelParams(Fraction(1, 3) if i % 2 else 1 / 3, q)
        assert kernel_eval(spec, q, cache) == kernel_direct(spec, q)
        longest_cell_kernel_U(4, 5, 1, 2, q)
        longest_cell_kernel_V(4, 5, 2, q)
        waiting_time_table(params, quota, 9)
        joint_longest(params, 7, 2, Rel.LE, 2, Rel.GE)
        longest_run_pmf(params, 7, 2)
        if i == 0:
            first = sizes()
        if i % 2:
            value_q, memo = cache._values
            assert value_q == (i + 1, 211)
            values = {key: len(table[1]) for key, table in memo.items()}
            if i == 1:
                first_values = values
            assert values == first_values
    assert sizes() == first
    assert set(first) == {"_plan_memo", "_peel_memo"}
    assert all(first.values()) and first_values


def test_memo_entries_are_not_gc_tracked():
    # keys and values are plain tuples of ints, None, strings and ranges
    # (the anti-diagonals tuples of packed ints or of numerators) and
    # numpy arrays (the float plans' term
    # indices and matrices), which the garbage collector does not track
    # once collected, so a large memo does not slow every full collection;
    # the store is checked after packed reads and again after an exact
    # one; the single-cell kernels fill the default cache's peel memo
    import gc

    from qbtrials import Mode, ModelParams, QuotaSpec, Rel, RunQuota, FreqQuota
    from qbtrials import _core_py as core
    from qbtrials import joint_longest, longest_run_pmf, waiting_time_table
    from qbtrials.kernels import _default_cache

    def untracked(*memos):
        gc.collect()
        gc.collect()
        return all(memos) and not any(gc.is_tracked(key) or gc.is_tracked(value)
                                      for memo in memos for key, value in memo.items())

    cache = KernelValueCache()
    for fam in FAMILY_NAMES:
        kernel_eval(family_spec(fam, 6, 5, 3, 2, 3), Fraction(1, 3), cache)
    for last_x in (True, False):
        cache.arrangement_poly(last_x, 6, 5, (1, 2, 0), (1, None, 3))
    for y in range(8):
        cache.arrangement_poly(True, 9 - y, y, (0, 2, 2), (1, 1, 0))  # longest-run cells
    floats = ModelParams(1 / 3, 1 / 3)
    waiting_time_table(floats, QuotaSpec(RunQuota(3), FreqQuota(3), Mode.LATER), 14, cache)
    for n in (5, 9):
        longest_run_pmf(floats, n, 2, cache)
    joint_longest(floats, 9, 2, Rel.LE, 3, Rel.GE, cache)
    # the joint plan read the store last, packed at the width of size 9
    assert cache._values[0] == (1 << core.packed_width(9), 1)
    assert untracked(cache._values[1])
    cache.diagonals(Fraction(1, 3), [(True, (1, 2, 0), (1, None, 3), 11),
                                     (False, (1, 2, 0), (1, None, 3), 11),
                                     (True, (0, 2, 2), (1, 1, 0), 9)])
    assert cache._values[0] == (1, 3)
    for t in range(4):
        longest_cell_kernel_U(5, 6, t, 2, Fraction(1, 3))
    longest_cell_kernel_V(5, 6, 2, Fraction(1, 3))
    cells = _default_cache._peel_memo
    # U cells (r, s, t, k) beside V's arrangement-peel states, which carry a run count
    assert {len(key) for key in cells} == {4, 6}
    # the float path's plans, ((n - f, j, f) intp arrays, cuts, first
    # power, float64 matrix, top) per (name of the sides, ns, *args), the
    # joint relations as bools; apart from the fixed-s kernels' peel states
    assert sorted(key[0] for key in cache._plan_memo) == \
        ["_joint_sides", "_longest_sides", "_longest_sides", "_waiting_sides"]
    assert all(isinstance(column, np.ndarray) for plan in cache._plan_memo.values()
               for column in (*plan[0], plan[3]))
    assert {key[-1] is None for key in cache._peel_memo} == {False}
    assert untracked(cache._plan_memo, cache._peel_memo, cells, cache._values[1])


def _horner_fraction(coeffs, q):
    """Plain Fraction Horner, with q = 1 summed as an int, as the evaluator
    did before integer Horner."""
    if q == 1:
        return sum(coeffs)
    out = 0
    for c in reversed(coeffs):
        out = out * q + c
    return out


def test_integer_horner_matches_fraction_horner():
    from qbtrials.qcalc import poly_value

    big = 2**64 + 12345
    polys = ([0], [7], [0, 0, 1], [3, 1, 4, 1, 5], [big, 0, 3 * big, 1, big * big],
             [1] * 40, [2**70 - i for i in range(25)])
    qs = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(101, 103),
          Fraction(1, 2**40 + 1), Fraction(7, 10**20 + 3))
    for coeffs, q in itertools.product(polys, qs):
        for seq in (coeffs, tuple(coeffs)):
            got = poly_value(seq, q)
            want = _horner_fraction(coeffs, q)
            assert got == want, (coeffs, q)
            assert type(got) is type(want), (coeffs, q, type(got), type(want))


def _constraints(lo, top):
    """Part constraints (lo, hi, need) with hi None or up to top, need up to top."""
    from hypothesis import strategies as st

    return st.tuples(st.just(lo), st.one_of(st.none(), st.integers(max(lo, 1), top)),
                     st.integers(0, top))


def _in_domain(xcon, ycon):
    """Whether every band pair of two constraints is in the domain of
    `core.band_diagonals`: failure runs from length 1, success runs from
    length 0 or 1 and, beside empty success runs, failure runs capped at
    0 or 1."""
    from qbtrials.kernels import _bands

    return all(ylo == 1 and xlo in (0, 1) and (xlo or yhi in (0, 1))
               for (xlo, _), _ in _bands(xcon) for (ylo, yhi), _ in _bands(ycon))


def test_arrangement_poly_equals_direct_over_run_counts():
    # the run-count-free recurrence against brute force summed over every
    # run count, the empty arrangement (0 runs) once; with x parts from 0
    # (the longest-run cells) a leading empty success run is the empty
    # prefix, so only arrangements that start with one count
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from qbtrials import _core_py as core

    def reference(last_x, m, r, xcon, ycon):
        total = [0] * (m * r + 1)
        # up to max(m, r) + 1 runs of each symbol
        for runs in range(2 * max(m, r) + 4):
            if xcon[0] == 0 and last_x != runs % 2:
                continue  # starts with a failure run
            for i, c in enumerate(core.kernel_direct_poly(last_x, runs, m, r, xcon, ycon)):
                total[i] += c
        while len(total) > 1 and total[-1] == 0:
            total.pop()
        return total

    @settings(max_examples=400, deadline=None)
    @given(st.booleans(), st.integers(0, 7), st.integers(0, 7),
           st.one_of(_constraints(0, 5), _constraints(1, 5)),
           st.one_of(st.just((1, 1, 0)), _constraints(1, 5)))
    def check(last_x, m, r, xcon, ycon):
        got = core.arrangement_poly(last_x, m, r, xcon, ycon, {})
        assert list(got) == reference(last_x, m, r, xcon, ycon)

    check()


def test_band_tables_equal_top_down_peel():
    # the bottom-up band tables, combined over each side's need and
    # unpacked, against the top-down peel, coefficient for coefficient;
    # one cache for every example, so the tables also grow between them.
    # A draw outside the tables' domain (empty success runs beside failure
    # runs of several lengths) is refused
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from qbtrials import _core_py as core

    cache = KernelValueCache()

    @settings(max_examples=500, deadline=None)
    @given(st.booleans(), st.integers(0, 10), st.integers(0, 10),
           st.one_of(_constraints(0, 6), _constraints(1, 6)),
           st.one_of(st.just((1, 1, 0)), _constraints(1, 6)))
    def check(last_x, m, r, xcon, ycon):
        if not _in_domain(xcon, ycon):
            with pytest.raises(ValueError):
                cache.arrangement_poly(last_x, m, r, xcon, ycon)
            return
        want = core.arrangement_poly(last_x, m, r, xcon, ycon, {})
        got = cache.arrangement_poly(last_x, m, r, xcon, ycon)
        assert type(got) is tuple and list(got) == list(want)

    check()


def test_band_table_equals_top_down_peel_at_q():
    # the one bottom-up fill against the top-down peel of its band pair
    # (need 0 on both sides), entry by entry: index r of anti-diagonal d
    # of a side is the entry (m, r), m = d - r; at q = a/b an entry over
    # b**(m*r) is the peel's polynomial at q, and at q = 2**w (b = 1) the
    # peel's polynomial packed.  q = 1, 2 and 4 step by shifts, q = 0 and
    # -2 (b = 1, not a positive power of two) and the random a/b by
    # multiplies.  One cache's exact anti-diagonals (each side's need
    # combined) against the peel, with the q changing between examples;
    # the bands are those of the constraints of
    # `test_band_tables_equal_top_down_peel`, and every draw outside the
    # fill's domain is refused, the fill and the cache alike
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from qbtrials import _core_py as core
    from qbtrials.kernels import _bands
    from qbtrials.qcalc import poly_value

    qs = st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(2), Fraction(4),
                                    Fraction(-2)]),
                   st.builds(Fraction, st.integers(-40, 40), st.integers(1, 40)))
    cache = KernelValueCache()
    peel = {}

    def agree(xband, yband, n, q):
        w = core.packed_width(n)
        a, b = q.numerator, q.denominator
        if not _in_domain(xband + (0,), yband + (0,)):
            for args in ((a, b), (1 << w, 1)):
                with pytest.raises(ValueError):
                    list(core.band_diagonals(xband, yband, n, *args))
            return
        passes = list(core.band_diagonals(xband, yband, n, a, b)), \
            list(core.band_diagonals(xband, yband, n, 1 << w, 1))
        for diagonals in passes:
            assert [d for d, _, _ in diagonals] == list(range(n + 1))
            assert all(len(s_d) == len(f_d) == d + 1 and type(s_d) is type(f_d) is tuple
                       for d, s_d, f_d in diagonals)
        xcon, ycon = xband + (0,), yband + (0,)
        for (d, *values), (_, *packed) in zip(*passes):
            for r in range(d + 1):
                m = d - r
                for last_x, side in ((True, 0), (False, 1)):
                    want = core.arrangement_poly(last_x, m, r, xcon, ycon, peel)
                    where = (xband, yband, last_x, m, r, q)
                    assert core.unpack(packed[side][r], w) == want, where
                    assert Fraction(values[side][r], b ** (m * r)) == poly_value(want, q), where

    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), st.integers(0, 10), st.integers(0, 10),
           st.one_of(_constraints(0, 6), _constraints(1, 6)),
           st.one_of(st.just((1, 1, 0)), _constraints(1, 6)), qs)
    def check(last_x, m, r, xcon, ycon, q):
        for xband, _ in _bands(xcon):
            for yband, _ in _bands(ycon):
                agree(xband, yband, m + r, q)
        entry = (last_x, xcon, ycon, m + r)
        if not _in_domain(xcon, ycon):
            with pytest.raises(ValueError):
                cache.diagonals(q, [entry])
            return
        ks = cache.diagonals(q, [entry])[entry]
        assert len(ks) == m + r + 1
        assert Fraction(ks[r], q.denominator ** (m * r)) == \
            poly_value(core.arrangement_poly(last_x, m, r, xcon, ycon, peel), q)

    check()
    # empty success runs beside failure runs of several lengths, whose
    # counts would outgrow n + 1 bits at m + r = 44, are refused
    for q in (Fraction(81, 100), Fraction(2), Fraction(-2)):
        for args in ((q.numerator, q.denominator), (1 << core.packed_width(44), 1)):
            with pytest.raises(ValueError):
                list(core.band_diagonals((0, None), (1, None), 44, *args))


def _with_uncapped(keys):
    """The store keys that reading the anti-diagonals `keys` leaves at an
    exact q <= 1: each key and, for a long cap k of the longest-run cells
    ((0, k), (1, 1), n), n // (k + 1) <= k, the diagonals n - s*(k + 1) of
    the uncapped cells that `core.capped_cells` reads for its S side."""
    return set(keys) | {((0, None), (1, 1), d) for (lo, k), yband, n in keys
                        if not lo and k is not None and yband == (1, 1) and n // (k + 1) <= k
                        for d in range(n, -1, -k - 1)}


def test_band_tables_extend_every_smaller_table():
    # an exact memo grown by reads of size 3 and then n holds those two
    # sizes of each band pair, and then reads every smaller anti-diagonal,
    # all at once, as a fresh cache does, holding each band pair's sizes
    # 0..n: an entry with a need on both sides (four band pairs) and a
    # longest-run cell, whose caps 4 and 3 are long at every size here,
    # so the store also holds the uncapped diagonals their sums read
    from qbtrials.kernels import _band_pairs

    n = 12
    keys = ((True, (1, 3, 2), (1, None, 3)), (False, (1, 3, 2), (1, None, 3)),
            (True, (0, 4, 4), (1, 1, 0)))
    for q in (Fraction(81, 100), Fraction(-3, 7), -3):
        cache = KernelValueCache()
        for key in keys:
            cache.diagonals(q, [(*key, 3)])
            cache.diagonals(q, [(*key, n)])  # adds size n beside 3
        read = {(*pair, size) for key in keys for pair, _ in _band_pairs(*key[1:])
                for size in (3, n)}
        assert set(cache._values[1]) == _with_uncapped(read)
        assert {((0, None), (1, 1), d) for d in (12, 7, 2, 8, 4, 0, 3)} < set(cache._values[1])
        entries = [(*key, size) for key in keys for size in range(n + 1)]
        got = cache.diagonals(q, entries)
        for entry in entries:
            assert got[entry] == KernelValueCache().diagonals(q, [entry])[entry], (entry, q)
        read = {(*pair, size) for key in keys for pair, _ in _band_pairs(*key[1:])
                for size in range(n + 1)}
        assert set(cache._values[1]) == _with_uncapped(read)


def test_empty_read_leaves_the_store_alone():
    # a read of no entries at another q keeps the store's q and keys, so
    # the next read at the store's q refills nothing; a zero-probability
    # joint quadrant reads no entry
    from qbtrials import ModelParams, Rel, joint_longest, longest_run_cdf

    cache = KernelValueCache()
    longest_run_cdf(ModelParams(Fraction(1, 3), Fraction(1, 2)), 20, 3, cache)
    q, keys = cache._values[0], set(cache._values[1])
    assert q == (1, 2) and keys
    assert cache.diagonals(Fraction(2, 3), []) == {}
    assert joint_longest(ModelParams(Fraction(1, 3), Fraction(2, 3)), 3, 5, Rel.GE, 1, Rel.LE,
                         cache) == 0
    assert cache._values[0] == q and set(cache._values[1]) == keys


def test_value_memo_is_swapped_under_the_lock():
    # four threads (more than a 2-vCPU host has cores) share one cache and
    # alternate between two exact q, half of them starting at each; each
    # gets the single-thread values, because a call at another q swaps in
    # the value memo of that q under the lock
    import sys

    from qbtrials import (
        FreqQuota,
        Mode,
        ModelParams,
        QuotaSpec,
        Rel,
        RunQuota,
        joint_longest,
        longest_run_pmf,
        waiting_time_table,
    )

    points = (ModelParams(Fraction(2, 5), Fraction(3, 7)),
              ModelParams(Fraction(4, 9), Fraction(5, 6)))
    quota = QuotaSpec(RunQuota(3), FreqQuota(2), Mode.LATER)

    def values(params, cache):
        return (waiting_time_table(params, quota, 16, cache).probs,
                joint_longest(params, 12, 2, Rel.LE, 3, Rel.GE, cache),
                [longest_run_pmf(params, 14, k, cache) for k in range(15)])

    # the threads also read the anti-diagonals of one small entry
    # directly, two of sizes 0..4 per read in turn, so that q changes
    # between most calls; threads 0 and 1 make a packed read after each,
    # in turn a float matrix of a fixed read list (at q = 2**8) and one
    # exact coefficient tuple (at q = 2**16), so the store also changes
    # kind between most calls
    qs = [p.q for p in points]
    key = (True, (1, 2, 0), (1, None, 2))
    reads = [(*key, 4, 1), (*key, 6, 2), (True, (0, 2, 0), (1, 1, 0), 7, 3)]
    cell = (True, 5, 6, (0, 3, 3), (1, 1, 0))
    want = [values(params, KernelValueCache()) for params in points]
    want_tables = [[KernelValueCache().diagonals(q, [(*key, size)])[(*key, size)]
                    for size in range(5)] for q in qs]
    live, low, matrix = KernelValueCache().float_matrix(reads)
    want_packed = ((live, low, matrix.tolist()), KernelValueCache().arrangement_poly(*cell))
    cache = KernelValueCache()
    results = ([], [], [], [])
    tables = ([], [], [], [])
    packed = ([], [], [], [])

    def worker(t):
        for i in range(10):
            j = (i + t) % 2
            results[t].append((j, values(points[j], cache)))
        for i in range(5000):
            j = (i + t) % 2
            sizes = (i % 5, (i + 2) % 5)
            got = cache.diagonals(qs[j], [(*key, size) for size in sizes])
            tables[t].extend((j, size, got[(*key, size)]) for size in sizes)
            if t < 2 and i % 2:
                live, low, matrix = cache.float_matrix(reads)
                packed[t].append((0, (live, low, matrix.tolist())))
            elif t < 2:
                packed[t].append((1, cache.arrangement_poly(*cell)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(r) == 10 for r in results) and all(len(r) == 10000 for r in tables)
    for j, got in sum(results, []):
        assert got == want[j]
    for j, size, got in sum(tables, []):
        # the shared cache may hold other sizes of the same entries
        assert got == want_tables[j][size]
    assert [len(p) for p in packed] == [5000, 5000, 0, 0]
    for kind, got in sum(packed, []):
        assert got == want_packed[kind]


def test_one_store_serves_exact_and_packed_reads_in_turn(monkeypatch):
    # one cache reads exact q = 81/100, then float inputs (plan misses,
    # which read the store at q = 2**w), then 81/100 again: every value
    # equals a fresh cache's, the store names the q of the last read, and
    # the exact re-read refills what the first exact read filled, pass for
    # pass and sum for sum, since the float reads replaced the store: the
    # one cost of a single store.  That is one pass per band pair, two for
    # the waiting table and one per short longest-run cap (0, k) x (1, 1),
    # k < 4, and passes of the uncapped cells, whose diagonals the long
    # caps 4..20 (20 // (k + 1) <= k) are summed from, one sum each; the
    # float reads sum none
    from qbtrials import (
        FreqQuota,
        Mode,
        ModelParams,
        QuotaSpec,
        RunQuota,
        longest_run_pmf,
        waiting_time_table,
    )
    from qbtrials import _core_py as core

    fills, sums = [], []
    real, real_sum = core.band_diagonals, core.capped_cells
    monkeypatch.setattr(core, "band_diagonals",
                        lambda *args: fills.append(args) or real(*args))
    monkeypatch.setattr(core, "capped_cells",
                        lambda *args: sums.append(args[:2]) or real_sum(*args))
    exact, floats = ModelParams(Fraction(37, 100), Fraction(81, 100)), ModelParams(0.37, 0.81)
    quota = QuotaSpec(RunQuota(3), FreqQuota(2), Mode.LATER)

    def values(params, cache):
        return (waiting_time_table(params, quota, 24, cache).probs,
                [longest_run_pmf(params, 20, k, cache) for k in range(21)])

    want = [values(params, KernelValueCache()) for params in (exact, floats)]
    cache = KernelValueCache()
    passes, summed = [], []
    # the float reads end with the longest-run plans, at the width of 20
    for j, at in ((0, (81, 100)), (1, (1 << core.packed_width(20), 1)), (0, (81, 100))):
        fills.clear()
        sums.clear()
        assert values((exact, floats)[j], cache) == want[j]
        assert cache._values[0] == at
        passes.append(list(fills))
        summed.append(list(sums))
    assert {a[3:] for a in passes[1]} == {(1 << core.packed_width(n), 1) for n in (20, 24)}
    assert not summed[1]
    short = [args for args in passes[0] if args[0] != (0, None)]
    assert len(short) == 2 + 4 and {args[0] for args in short[2:]} == {(0, k) for k in range(4)}
    assert all(args[2] <= 20 for args in passes[0] if args[0] == (0, None))
    assert len(passes[2]) == len(passes[0]) and passes[2] == passes[0]
    assert sorted(summed[2]) == sorted(summed[0]) == [(k, 20) for k in range(4, 21)]


def test_band_tables_hold_the_sizes_read(monkeypatch):
    # the store holds the anti-diagonals reads asked for at its one q, and
    # no other.  An exact coefficient read stores its own size at q = 2**w,
    # w its own width, for each band pair of its entry, beside the sizes
    # held at that width, and a read at another width replaces the store;
    # a float read stores every size it reads at the width of its largest;
    # a read at an exact q stores every size it asks for.  One pass per
    # band pair fills the sizes missing, a read of sizes held at its q
    # fills nothing, and every entry equals a fresh cache's, before and
    # after the store grows or is replaced
    from qbtrials import _core_py as core
    from qbtrials.kernels import _band_pairs

    fills = []
    real = core.band_diagonals
    monkeypatch.setattr(core, "band_diagonals",
                        lambda *args: fills.append(args[:3]) or real(*args))
    cache = KernelValueCache()
    xcon, ycon = (1, None, 3), (1, 4, 2)
    pairs = [pair for pair, _ in _band_pairs(xcon, ycon)]
    # sizes 4, 6, 6 at w = 8, then 20, 20 at 24, 33 at 40 and 12 at 16
    steps = ((2, 2), (1, 5), (3, 3), (14, 6), (11, 9), (11, 22), (5, 7))
    last_w, held = None, set()
    for m, r in steps:
        w = core.packed_width(m + r)
        held = (held if w == last_w else set()) | {m + r}
        for last_x in (True, False):
            got = cache.arrangement_poly(last_x, m, r, xcon, ycon)
            assert got == KernelValueCache().arrangement_poly(last_x, m, r, xcon, ycon)
        assert cache._values[0] == (1 << w, 1)
        assert set(cache._values[1]) == {(*pair, size) for pair in pairs for size in held}
        last_w = w
    for last_x, m, r in itertools.product((True, False), range(8), range(8)):
        assert cache.arrangement_poly(last_x, m, r, xcon, ycon) == \
            KernelValueCache().arrangement_poly(last_x, m, r, xcon, ycon)
    # the store was left at the width of size 14; sizes 4, 6 and 7 at
    # w = 8 fill one pass per band pair for each size missing, and a
    # re-read of them fills nothing
    fills.clear()
    small = ((2, 2), (1, 5), (3, 3), (0, 7))
    for m, r in small:
        cache.arrangement_poly(True, m, r, xcon, ycon)
    assert fills == [(*pair, size) for size in (4, 6, 7) for pair in pairs]
    fills.clear()
    for m, r in small:
        for last_x in (True, False):
            cache.arrangement_poly(last_x, m, r, xcon, ycon)
    assert not fills
    assert set(cache._values[1]) == {(*pair, size) for pair in pairs for size in (4, 6, 7)}
    # a float read of two entries that share the band pair (1, 3) x (1, 4),
    # at sizes 4, 9 and 60, reads every size at the width of 60, and fills
    # each band pair in one pass to its largest size
    cache = KernelValueCache()
    w = core.packed_width(60)
    small, large = (True, (1, 3, 0), (1, 4, 0)), (True, (1, 5, 4), (1, 4, 0))
    reads = [(*small, 4, 2), (*large, 60, 30), (*large, 9, 3), (*large, 60, 31)]
    live, low, matrix = cache.float_matrix(reads)
    assert sorted(fills) == [((1, 3), (1, 4), 60), ((1, 5), (1, 4), 60)]
    assert cache._values[0] == (1 << w, 1)
    assert set(cache._values[1]) == {((1, 3), (1, 4), 4), ((1, 5), (1, 4), 60),
                                     ((1, 5), (1, 4), 9), ((1, 3), (1, 4), 60),
                                     ((1, 3), (1, 4), 9)}
    assert live == [0, 1, 2, 3]
    for (last_x, xcon, ycon, size, y), row in zip(reads, matrix):
        want = KernelValueCache().arrangement_poly(last_x, size - y, y, xcon, ycon)
        assert row[:len(want) - low].tolist() == [float(c) for c in want[low:]] \
            and not row[len(want) - low:].any()
    fills.clear()
    assert [m.tolist() for m in cache.float_matrix(reads)[2:]] == [matrix.tolist()]
    assert not fills
    # at an exact q a read stores the sizes it asks for, keyed (x band,
    # y band, size): one pass per band pair to the largest size missing,
    # for a smaller size too, none where every size is held, and every
    # read equals a fresh cache's
    q, xcon, ycon = Fraction(81, 100), (1, None, 3), (1, 4, 2)
    cache = KernelValueCache()
    held = set()
    for sizes, fill in (((14,), 14), ((3,), 3), ((14, 3), None), ((20, 3, 9), 20),
                        ((0, 9), 0)):
        fills.clear()
        entries = [(last_x, xcon, ycon, size) for last_x in (True, False) for size in sizes]
        got = cache.diagonals(q, entries)
        assert fills == ([(*pair, fill) for pair in pairs] if fill is not None else [])
        assert got == {entry: KernelValueCache().diagonals(q, [entry])[entry]
                       for entry in entries}
        held.update(sizes)
        assert set(cache._values[1]) == {(*pair, d) for pair in pairs for d in held}


def test_band_tables_refuse_empty_success_runs_beside_failure_bands():
    # with empty success runs and failure runs of more than one length, a
    # failure run, an empty success run and a failure run count apart from
    # the merged run, so coefficients outgrow n + 1 bits (51 bits at
    # m + r = 44, against 48); failure runs of length 0 leave the fill
    # nothing to read, and the fill adds a last run of length 1, so runs
    # from length 2 are outside it on either side.  Nothing in the library
    # asks for any of them, and the cache refuses them at packed and at
    # exact q, storing nothing, not even the diagonals of a read's other
    # band pairs filled before the refused one.  The longest-run cells
    # (failure runs of length 1) pack at n + 1 bits and equal the top-down
    # peel at m + r = 44
    from qbtrials import _core_py as core

    cache = KernelValueCache()
    for xcon, ycon in (((0, None, 0), (1, None, 0)), ((0, 9, 0), (1, 6, 2)),
                       ((0, None, 5), (1, None, 3)), ((1, None, 0), (0, 3, 0)),
                       ((0, 5, 0), (0, 0, 0)), ((2, None, 0), (1, None, 0)),
                       ((2, 5, 0), (1, 1, 0)), ((1, None, 0), (2, 4, 0)),
                       ((0, 5, 0), (2, 2, 0))):
        for last_x in (True, False):
            with pytest.raises(ValueError):
                cache.arrangement_poly(last_x, 13, 31, xcon, ycon)
            with pytest.raises(ValueError):
                cache.diagonals(Fraction(81, 100), [(last_x, xcon, ycon, 44)])
            with pytest.raises(ValueError):
                cache.float_plan(("refused", (44,)), lambda: cache.float_matrix(
                    [(last_x, xcon, ycon, 44, y) for y in range(45)]))
            # a cell first, whose band pair fills, then the refused entry
            with pytest.raises(ValueError):
                cache.float_matrix([(True, (0, 5, 0), (1, 1, 0), 44, 3),
                                    (last_x, xcon, ycon, 44, 3)])
    assert not cache._plan_memo and not cache._values[1]
    assert max(core.arrangement_poly(True, 13, 31, (0, None, 0), (1, None, 0), {})) \
        >= 2 ** core.packed_width(44)
    peel = {}
    for y in range(45):
        cell = cache.arrangement_poly(True, 44 - y, y, (0, 5, 0), (1, 1, 0))  # longest-run cells
        assert cell == core.arrangement_poly(True, 44 - y, y, (0, 5, 0), (1, 1, 0), peel)
        assert max(cell) < 2 ** 45
    assert cache._values[0] == (1 << core.packed_width(44), 1)
    assert list(cache._values[1]) == [((0, 5), (1, 1), 44)]


def _library_band_pairs():
    """Every kind of band pair the library reads: the waiting families'
    bounded, positive and some-at-least bands, the longest-run cells and
    the joint quadrants' bands."""
    from qbtrials.kernels import _band_pairs, family_arrangement

    cons = {family_arrangement(family, k1, k2)[1:]
            for family in FAMILY_NAMES for k1, k2 in ((2, 3), (3, 2), (4, 4))}
    cons |= {((0, k, need), (1, 1, 0)) for k in range(6) for need in (0, k)}
    cons |= {(xcon, ycon) for k1, k2 in ((2, 3), (3, 1))
             for xcon in ((1, k1, 0), (1, None, k1)) for ycon in ((1, k2, 0), (1, None, k2))}
    return sorted({pair for xcon, ycon in cons for pair, _ in _band_pairs(xcon, ycon)},
                  key=repr)


@pytest.mark.parametrize("q", [None, Fraction(81, 100)])
def test_band_diagonals_equal_the_whole_table(q):
    # the pass that holds only the diagonals its recurrence still reads,
    # and no older one, gives the anti-diagonals of the whole table, sizes
    # 0..40, at q = 2**w (None) and at 81/100, for every kind of band pair
    # the library asks for: every pass to a smaller size gives the same
    # diagonals; one cache's memo at that kind of q, filled by passes to
    # several sizes in three orders, holds the same diagonals; and entries
    # near both ends of diagonal 40 equal the top-down peel
    from qbtrials import _core_py as core
    from qbtrials.qcalc import poly_value

    n, w = 40, core.packed_width(40)
    a, b = (1 << w, 1) if q is None else (q.numerator, q.denominator)
    peel = {}
    pairs = _library_band_pairs()
    assert len(pairs) >= 20 and ((0, 5), (1, 1)) in pairs and ((1, None), (1, 2)) in pairs
    def held(diagonals, side):
        # the diagonals something beside this list holds: the pass; 3 is
        # the tuple's reference, the loop's and getrefcount's argument's
        return [d for d, *sides in diagonals[1:] if sys.getrefcount(sides[side]) > 3]

    for xband, yband in pairs:
        # the pass holds S's diagonals yhi + 1 back (1 when yhi is None)
        # and F's max(xlo, xhi + 1) back (xlo when xhi is None): what the
        # other side's recurrence reads
        (xlo, xhi), (_, yhi) = xband, yband
        s_back = 1 if yhi is None else yhi + 1
        f_back = xlo if xhi is None else max(xlo, xhi + 1)
        diagonals = []
        for d, s_d, f_d in core.band_diagonals(xband, yband, n, a, b):
            diagonals.append((d, s_d, f_d))
            assert held(diagonals, 0) == list(range(max(1, d - s_back), d + 1))
            assert held(diagonals, 1) == list(range(max(1, d - f_back), d + 1))
        assert [d for d, _, _ in diagonals] == list(range(n + 1))
        for size in (0, 1, 7, 23, 39):
            assert list(core.band_diagonals(xband, yband, size, a, b)) == \
                diagonals[:size + 1], (xband, yband, size)
        cache = KernelValueCache()
        for sizes in ((7, 3), range(0, n + 1, 5), range(n + 1)):
            entries = [(last_x, xband + (0,), yband + (0,), size)
                       for last_x in (True, False) for size in sizes]
            got = cache.diagonals(1 << w if q is None else q, entries)
            for entry in entries:
                assert got[entry] == diagonals[entry[3]][1 if entry[0] else 2]
        s, f = diagonals[n][1:]
        for r in (0, 1, 2, n - 2, n - 1, n):
            for last_x, side in ((True, s), (False, f)):
                want = core.arrangement_poly(last_x, n - r, r, xband + (0,), yband + (0,), peel)
                if q is None:
                    assert core.unpack(side[r], w) == want, (xband, yband, last_x, r)
                else:
                    assert Fraction(side[r], b ** ((n - r) * r)) == poly_value(want, q)


@pytest.mark.parametrize("q", [Fraction(81, 100), Fraction(13, 19), Fraction(1), None])
def test_capped_cells_equal_the_band_pass(q):
    # the q-binomial sum of a capped cell over the uncapped cells equals
    # the pass of the cells band pair (0, k) x (1, 1), S and F, for every
    # cap k = 0..n at every size n <= 30: at 81/100, 13/19 and q = 1, and
    # at q = 2**w (None), where the cache never takes it, called directly.
    # At an exact q a fresh cache's reads of both sides, in that order,
    # equal the pass too, long caps (n // (k + 1) <= k) summed and short
    # ones passed, and hold both sides of each once F is read
    from qbtrials import _core_py as core

    top, w = 30, core.packed_width(30)
    a, b = (1 << w, 1) if q is None else (q.numerator, q.denominator)
    uncapped = {d: s for d, s, _ in core.band_diagonals((0, None), (1, 1), top, a, b)}
    for k in range(top + 1):
        cache = KernelValueCache()
        for n, s, f in core.band_diagonals((0, k), (1, 1), top, a, b):
            if k > n:
                continue
            assert core.capped_cells(k, n, a, b, uncapped) == s, (k, n)
            if n:
                assert core.cell_failures(core.capped_cells(k, n - 1, a, b, uncapped), b) == f
            if q is not None:
                entries = [(last_x, (0, k, 0), (1, 1, 0), n) for last_x in (True, False)]
                for entry, want in zip(entries, (s, f)):
                    assert cache.diagonals(q, [entry])[entry] == want, (k, n, entry[0])
                assert cache._values[1][(0, k), (1, 1), n] == (s, f)


def test_float_longest_run_reads_only_diagonal_n(monkeypatch):
    # the float longest-run PMF of every k at n = 40, on a fresh cache,
    # fills each cell band pair (0, k) x (1, 1) once, as PMF(k) reads the
    # band (0, k - 1) PMF(k - 1) filled, and holds only diagonal 40 of
    # each, at one width; its traced peak stays far below the whole
    # tables' (29.3 MB with them, 7.5 MB without)
    import tracemalloc

    from qbtrials import ModelParams, longest_run_pmf
    from qbtrials import _core_py as core

    fills = []
    real = core.band_diagonals
    monkeypatch.setattr(core, "band_diagonals",
                        lambda *args: fills.append(args[:2]) or real(*args))
    params, cache = ModelParams(0.37, 0.81), KernelValueCache()
    longest_run_pmf(params, 5, 2, KernelValueCache())
    fills.clear()
    tracemalloc.start()
    try:
        pmf = [longest_run_pmf(params, 40, k, cache) for k in range(41)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(math.fsum(pmf) - 1) <= 1e-12
    assert sorted(fills) == [((0, k), (1, 1)) for k in range(41)]
    assert cache._values[0] == (1 << core.packed_width(40), 1)
    assert set(cache._values[1]) == {((0, k), (1, 1), 40) for k in range(41)}
    assert peak < 12 * 2**20, peak


def test_exact_longest_run_reads_only_diagonal_n(monkeypatch):
    # the exact longest-run PMF and CDF of every k at n = 40, on a fresh
    # cache, fill each cell band pair (0, k) x (1, 1) once and hold only
    # diagonal 40 of each, as at a float q, beside the uncapped diagonals
    # that the long caps' sums read: a short cap (40 // (k + 1) > k, so
    # k <= 5) by one pass, a long one by one `core.capped_cells` sum, and
    # every other pass is of the uncapped cells, to at most 40.  The PMF
    # sums to 1 and its running sums are the CDF.  Its traced peak stays
    # far below that of a memo that keeps every diagonal of a pass
    # (10.6 MB with it, 1.2 MB without)
    import tracemalloc

    from qbtrials import ModelParams, longest_run_cdf, longest_run_pmf
    from qbtrials import _core_py as core

    fills, sums = [], []
    real, real_sum = core.band_diagonals, core.capped_cells
    monkeypatch.setattr(core, "band_diagonals",
                        lambda *args: fills.append(args[:3]) or real(*args))
    monkeypatch.setattr(core, "capped_cells",
                        lambda *args: sums.append(args[:2]) or real_sum(*args))
    params, cache = ModelParams(Fraction(37, 100), Fraction(81, 100)), KernelValueCache()
    tracemalloc.start()
    try:
        pmf, cdf = zip(*[(longest_run_pmf(params, 40, k, cache),
                          longest_run_cdf(params, 40, k, cache)) for k in range(41)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(pmf) == 1 and list(itertools.accumulate(pmf)) == list(cdf)
    capped = [args for args in fills if args[0] != (0, None)]
    assert sorted(capped, key=repr) == sorted((((0, k), (1, 1), 40) for k in range(6)), key=repr)
    uncapped = [args for args in fills if args[0] == (0, None)]
    assert len(uncapped) + len(capped) == len(fills)
    assert uncapped and all(args[1] == (1, 1) and args[2] <= 40 for args in uncapped)
    assert sorted(sums) == [(k, 40) for k in range(6, 41)]
    assert cache._values[0] == (81, 100) and not cache._plan_memo
    assert set(cache._values[1]) == _with_uncapped({((0, k), (1, 1), 40) for k in range(41)})
    assert peak < 3 * 2**20, peak


@pytest.mark.parametrize("n", [40, 55, 70])
def test_float_matrices_equal_the_exact_coefficients(n):
    # a float probability whose terms read the whole anti-diagonal
    # m + r = n of one key, term (j, f) = (0, r) on entry (n - r, r): its
    # plan has one row per term whose entry is not zero and no other, in
    # term order, and each row is that entry of the exact accessor,
    # coefficient by coefficient: exactly (as float(c)) while a
    # coefficient is one 64-bit limb (n = 40, 55), within one ulp at
    # n = 70 (w = 72 bits, two limbs).  The matrix is trimmed to the
    # rows' powers.  Waiting keys of every family at k = (3, 2),
    # longest-run cells, and joint keys
    from qbtrials import _core_py as core
    from qbtrials import distributions as d
    from qbtrials.kernels import family_arrangement

    def whole_diagonal(key, n):
        return [(*key, n, [(0, r, n - r, r) for r in range(n + 1)])]

    keys = {family_arrangement(fam, 3, 2) for fam in FAMILY_NAMES}
    keys |= {(True, (0, 5, need), (1, 1, 0)) for need in (0, 5)}
    keys |= {(last_x, xcon, ycon) for last_x in (True, False)
             for xcon in ((1, 3, 0), (1, None, 4)) for ycon in ((1, 2, 0), (1, None, 3))}
    exact = core.packed_width(n) <= 64
    assert exact == (n < 64)
    cache = KernelValueCache()
    for key in sorted(keys, key=repr):
        d._mass(0.5, 0.81, (n,), cache, whole_diagonal, key)
        (nf, j, f), cuts, low, matrix, top = cache._plan_memo["whole_diagonal", (n,), key]
        polys = [cache.arrangement_poly(key[0], n - r, r, *key[1:]) for r in range(n + 1)]
        # by n - f, so r descends
        assert f.tolist() == [r for r in range(n, -1, -1) if any(polys[r])], key
        assert not j.any() and (nf == n - f).all() and cuts == (0, len(f))
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        assert len(matrix) == len(f) and matrix.any(axis=1).all()
        assert matrix[:, 0].any() and matrix[:, -1].any()
        assert top >= max(low + matrix.shape[1], n + 1)
        for row, r in zip(matrix, f.tolist()):
            poly = polys[r]
            got = np.zeros(max(len(poly), low + matrix.shape[1]))
            got[low:low + matrix.shape[1]] = row
            want = np.zeros(len(got))
            want[:len(poly)] = [float(c) for c in poly]
            if exact:
                assert np.array_equal(got, want), (key, r)
            else:
                assert (abs(got - want) <= np.spacing(want)).all(), (key, r)


@pytest.mark.parametrize("size", [0, 1, 9, 40])
def test_diagonal_equals_arrangement_poly(size):
    # every entry of an anti-diagonal read against the top-down peel's
    # polynomial at q: at exact q (a Fraction and the int 1) the integer
    # numerator over b**((size - y)*y) equals it exactly, at float q it is
    # within 1e-12 relative of the polynomial at the float's exact value,
    # and 0.0 where that is 0.  Waiting keys of every family at k = (3, 2),
    # longest-run cells (need 0 and k), and joint keys
    from qbtrials import _core_py as core
    from qbtrials.kernels import family_arrangement
    from qbtrials.qcalc import poly_value

    keys = {family_arrangement(fam, 3, 2) for fam in FAMILY_NAMES}
    keys |= {(True, (0, 5, need), (1, 1, 0)) for need in (0, 5)}
    keys |= {(last_x, xcon, ycon) for last_x in (True, False)
             for xcon in ((1, 3, 0), (1, None, 4)) for ycon in ((1, 2, 0), (1, None, 3))}
    cache = KernelValueCache()
    peel = {}
    zeros = 0
    for last_x, xcon, ycon in sorted(keys, key=repr):
        polys = [core.arrangement_poly(last_x, size - y, y, xcon, ycon, peel)
                 for y in range(size + 1)]
        for q in (Fraction(81, 100), 1):
            entry = (last_x, xcon, ycon, size)
            ks = cache.diagonals(q, [entry])[entry]
            assert len(ks) == size + 1 and all(type(k) is int for k in ks)
            for y, (k, poly) in enumerate(zip(ks, polys)):
                assert Fraction(k, q.denominator ** ((size - y) * y)) == poly_value(poly, q), \
                    (last_x, xcon, ycon, q, y)
        live, low, matrix = cache.float_matrix([(last_x, xcon, ycon, size, y)
                                                for y in range(size + 1)])
        ks = [0.0] * (size + 1)
        for y, k in zip(live, matrix @ 0.81 ** np.arange(low, low + matrix.shape[1])):
            ks[y] = float(k)
        assert len(ks) == size + 1 and all(type(k) is float for k in ks)
        for y, (k, poly) in enumerate(zip(ks, polys)):
            want = poly_value(poly, Fraction(0.81))
            if want:
                assert abs(Fraction(k) - want) <= Fraction(1, 10**12) * want, (last_x, xcon, ycon, y)
            else:
                zeros += 1
                assert k == 0.0, (last_x, xcon, ycon, y)
    assert zeros  # some entries lie outside every key's arrangements


def test_unpack_matrix_limbs_and_overflow():
    # fabricated packed rows: coefficients of one to seventeen 64-bit
    # limbs are within one ulp of float(c), exact below 2**53; a
    # coefficient of 2**1024 or more raises OverflowError, as float(c)
    # does, and zero powers below and above every row's are trimmed
    import random

    from qbtrials import _core_py as core

    rng = random.Random(5)
    for w in (8, 64, 72, 136, 1032):
        rows = [[rng.randrange(1, 1 << rng.randrange(1, w + 1)) for _ in range(6)]
                for _ in range(3)]
        for cs, zeros in zip(rows, ((0, 1, 5), (0, 1, 2, 5), (0, 1, 4, 5))):
            for e in zeros:
                cs[e] = 0
        packed = [sum(c << w * i for i, c in enumerate(cs)) for cs in rows]
        low, matrix = core.unpack_matrix(packed, w)
        assert low == 2 and matrix.shape == (3, 3)
        for r, cs in enumerate(rows):
            for e, c in enumerate(cs):
                if low <= e < low + 3:
                    got = matrix[r, e - low]
                    assert abs(got - float(c)) <= math.ulp(float(c)), (w, r, e)
                    if c < 2 ** 53:
                        assert got == c
                else:
                    assert not c
    assert core.unpack_matrix([], 64)[1].shape == (0, 0)
    top = 2 ** 1024 - 2 ** 971  # the largest float
    low, matrix = core.unpack_matrix([top << 1032], 1032)
    assert low == 1 and matrix.tolist() == [[float(top)]]
    for c in (2 ** 1024, 2 ** 1031 + 5):
        with pytest.raises(OverflowError):
            float(c)
        with pytest.raises(OverflowError):
            core.unpack_matrix([3, c << 1032], 1032)


# (rel1, rel2) -> the paper's four families of a joint quadrant with their s
# shifts, and the shifts of k1 and k2: a <= k quota bounds run lengths by k,
# which the families' "< k" constraints express at k + 1
_JOINT_FAMILIES = {
    ("le", "le"): ((("D", 0), ("A", 0), ("C", 1), ("B", 0)), 1, 1),
    ("le", "ge"): ((("M", 0), ("E", 0), ("N", 1), ("F", 0)), 1, 0),
    ("ge", "le"): ((("H", 0), ("O", 0), ("G", 1), ("P", 0)), 0, 1),
    ("ge", "ge"): ((("Q", 0), ("R", 0), ("S", 1), ("T", 0)), 0, 0),
}


def test_term_equals_sum_of_named_kernels():
    # each waiting side's arrangement polynomial is its named kernels summed
    # over s = 1..(count of the last symbol), plus the empty arrangement;
    # each joint quadrant is its four named kernels summed over s and the
    # failure count, plus the all-success sequence; exact at Fraction
    # inputs, 1e-12 relative at float ones
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from qbtrials import ModelParams, Rel, joint_longest, q_pochhammer
    from qbtrials.distributions import _WAITING_FAMILIES
    from qbtrials.kernels import family_arrangement
    from qbtrials.qcalc import poly_value

    cache = KernelValueCache()
    reference = KernelValueCache()
    sides = sorted({families for pair in _WAITING_FAMILIES.values() for families in pair})
    fractions = st.fractions(min_value=0, max_value=1, max_denominator=60)

    def agree(got, want, q):
        if isinstance(q, float):
            assert isinstance(got, float)
            assert got == pytest.approx(float(want), rel=1e-12, abs=0)
        else:
            assert got == want and isinstance(got, (int, Fraction))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sides), st.integers(0, 9), st.integers(0, 9),
           st.integers(1, 5), st.integers(1, 5), fractions)
    def check_side(families, m, r, k1, k2, q):
        last_x, xcon, ycon = family_arrangement(families[0], k1, k2)
        assert all(family_arrangement(fam, k1, k2) == (last_x, xcon, ycon)
                   for fam in families)
        poly = cache.arrangement_poly(last_x, m, r, xcon, ycon)
        empty = int(m == r == 0 and not xcon[2] and not ycon[2])
        for qq in (q, float(q)):
            want = empty + sum(named_kernel(fam, m, r, s, k1, k2, qq, reference)
                               for s in range(1, (m if last_x else r) + 1)
                               for fam in families)
            agree(poly_value(poly, qq), want, qq)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(_JOINT_FAMILIES)), st.integers(0, 9),
           st.integers(1, 5), st.integers(1, 5), st.booleans(), fractions,
           st.fractions(min_value=Fraction(1, 60), max_value=1, max_denominator=60))
    def check_joint(rels, n, k1, k2, zero_k, th, q):
        rel1, rel2 = (Rel(rel) for rel in rels)
        # a <= relation also takes k = 0
        k1, k2 = (0 if zero_k and rel is Rel.LE else k for rel, k in ((rel1, k1), (rel2, k2)))
        pairs, dk1, dk2 = _JOINT_FAMILIES[rels]
        for tt, qq in ((th, q), (float(th), float(q))):
            want = tt ** n if rel2 is Rel.LE and (n <= k1 if rel1 is Rel.LE else n >= k1) else 0
            for y in range(1, n + 1):
                kernels = sum(named_kernel(fam, n - y, y, s + ds, k1 + dk1, k2 + dk2, qq,
                                           reference)
                              for s in range(1, y + 1) for fam, ds in pairs)
                want = want + tt ** (n - y) * q_pochhammer(tt, qq, y) * kernels
            got = joint_longest(ModelParams(tt, qq), n, k1, rel1, k2, rel2, cache)
            agree(got, want, qq)

    check_side()
    check_joint()


def _u_sum(r, s, k, memo):
    """Coefficients of the U cells summed over t = 1..r full cells."""
    from itertools import zip_longest

    from qbtrials import _core_py as core

    cells = (core.cell_poly_u(r, s, t, k, memo) for t in range(1, r + 1))
    return [sum(cs) for cs in zip_longest(*cells, fillvalue=0)] or [0]


def test_cell_polys_equal_u_and_v_cells():
    # the PMF's cells (need = k) are the U cells summed over t >= 1 full
    # cells and the CDF's (need = 0) the V cells, coefficient for
    # coefficient and in value, exact and float
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from qbtrials import _core_py as core
    from qbtrials.qcalc import poly_value

    cache = KernelValueCache()
    u_memo, v_memo = {}, {}

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 14), st.integers(0, 6), st.booleans(),
           st.fractions(min_value=0, max_value=1, max_denominator=60))
    def check(n, k, full, q):
        need = k if full else 0
        cells = [cache.arrangement_poly(True, n - y, y, (0, k, need), (1, 1, 0))
                 for y in range(n - need + 1)]
        for y in range(n + 1):
            r, s = y + 1, n - y
            want = _u_sum(r, s, k, u_memo) if full else core.cell_poly_v(r, s, k, v_memo)
            if y >= len(cells):
                # too few items left for a full cell
                assert full and want == [0], (n, k, y)
                continue
            assert list(cells[y]) == list(want), (n, k, full, y)
            for qq in (q, float(q)):
                if full:
                    ref = sum(longest_cell_kernel_U(r, s, t, k, qq) for t in range(1, r + 1))
                else:
                    ref = longest_cell_kernel_V(r, s, k, qq)
                value = poly_value(cells[y], qq)
                if isinstance(qq, Fraction):
                    assert value == ref and isinstance(value, (int, Fraction))
                else:
                    assert isinstance(value, float)
                    assert value == pytest.approx(ref, rel=1e-12, abs=0)

    check()


def test_peels_are_not_bounded_by_the_recursion_limit(monkeypatch):
    # 400 cells around 399 single failures, 3 items in cells of size 1 with
    # one full: 799 runs peeled; then 1500 cells (2999 runs), as the
    # arrangement peel and as a fixed-s kernel, whose value is
    # q**(0+1+2) times the 3-subsets of 1500 cells.  The V cell kernel is
    # that kernel's peel state, here in a default cache released after the
    # test
    from qbtrials import BoundedWithZero
    from qbtrials import _core_py as core
    from qbtrials import kernels
    from qbtrials.qcalc import poly_value, q_binomial

    got = core.arrangement_poly(True, 3, 399, (0, 1, 1), (1, 1, 0), {})
    assert list(got) == _u_sum(400, 3, 1, {})
    q = Fraction(1, 2)
    want = q ** 3 * q_binomial(1500, 3, q)
    got = core.arrangement_poly(True, 3, 1499, (0, 1, 1), (1, 1, 0), {})
    assert poly_value(got, q) == want
    cache = KernelValueCache()
    monkeypatch.setattr(kernels, "_default_cache", cache)
    spec = KernelSpec(ArrangementShape.SS, 1499, 3, 1499, BoundedWithZero(1), Bounded(1))
    assert kernel_eval(spec, q, cache) == want == longest_cell_kernel_V(1500, 3, 1, q)


def test_spec_run_counts_follow_shape():
    assert family_spec("A", 1, 2, 2, 2, 2).x_runs == 1
    assert family_spec("A", 1, 2, 2, 2, 2).y_runs == 2
    assert family_spec("C", 2, 1, 2, 2, 2).x_runs == 2
    assert family_spec("C", 2, 1, 2, 2, 2).y_runs == 1
    assert family_spec("B", 2, 2, 2, 2, 2).x_runs == 2
    assert family_spec("D", 2, 2, 2, 2, 2).y_runs == 2
