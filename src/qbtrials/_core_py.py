"""The core: composition-kernel polynomials and the trial walker.

Every kernel value is a polynomial in q with nonnegative integer
coefficients, so the heavy lifting here is exact integer arithmetic.  The
library's arrangement counts come from `band_diagonals`, a bottom-up fill
with no recursion, per pair of bands (every run of a symbol in lo..hi), at
one rational q = a/b: each entry is an integer numerator over a power of
b.  It fills by anti-diagonal m + r, each from the few before it, and
holds no older one, so a caller keeps only the diagonals it reads, as
the kernel cache's one store does at any q, exact or 2**w.  At q = 2**w
(b = 1) an entry is its polynomial packed into one int, coefficient i at
bits w*i, and `unpack` turns it into a coefficient tuple (index = power
of q), `unpack_matrix` a list of them into one float64 matrix for the
float path;
at the q of an exact probability it is the value that probability reads,
with no unpacking and no Horner.  `capped_cells` gives the longest-run
cells of a long cap at an exact q without a pass of their own, as an
alternating sum over the uncapped cells (the q-binomial theorem); the
kernel cache takes it only where that sum is short.  Two top-down peels
remain, each one `_fill` with no recursion: `arrangement_poly`, the
paper's fixed-run-count kernel (`kernel_eval_poly` and the V cells,
`cell_poly_v`) and the reference the tables are tested against, and
`cell_poly_u`, the U cells;
`kernel_direct_poly` is brute force.  One walker steps many sequences
through their trials together, one numpy vector step per trial: random
draws of the model for Monte Carlo, and for enumeration every prefix,
doubled into its two continuations at each trial, so bit t - 1 of an
index is trial t.  `count_rows` counts the sequences of one event, a
boolean mask over the walk, by failure count and success weight, which fix
a sequence's probability completely; it gives one row of counts per failure
count, found for every row at once by `_table_rows`, and callers turn the
rows into exact probabilities.  `waiting_stop_counts` gives those rows for
the waiting events of a quota, every t up to n_max under both rules,
without walking the quota: a length-t prefix is an index below 2**t
padded with failures, so one pass over the 2**n_max indices, in blocks,
reads each one's stop trial off its bits.
"""

from __future__ import annotations

import functools
import operator
from itertools import repeat

import numpy as np

class EnumerationBudgetError(Exception):
    """Raised when a direct-enumeration instance is too large."""


def _compositions(total, parts, lo, hi):
    """Yield all compositions of `total` into `parts` parts, each in lo..hi."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    hi = min(hi, total - lo * (parts - 1))
    for first in range(lo, hi + 1):
        for rest in _compositions(total - first, parts - 1, lo, hi):
            yield (first,) + rest


def _materialize(total, parts, con, cap):
    """All compositions of `total` into `parts` parts meeting `con`."""
    lo, hi, need = con
    out = []
    for comp in _compositions(total, parts, lo, total if hi is None else hi):
        if max(comp, default=0) < need:
            continue
        out.append(comp)
        if len(out) > cap:
            raise EnumerationBudgetError(
                f"more than {cap} compositions on one side of the sum")
    return out


_ZERO, _ONE = (0,), (1,)

# most compositions on one side, and composition pairs, that
# `kernel_direct_poly` enumerates
_DIRECT_BUDGET = 2_000_000


def kernel_direct_poly(last_x, runs, m, r, xcon, ycon):
    """Coefficients of the kernel polynomial, by brute-force enumeration.

    The arrangement alternates `runs` runs, the last a success run iff
    `last_x`, so the first is a success run iff last_x == runs % 2; it holds
    nx = (runs + last_x) // 2 success runs x_1..x_nx and ny = runs - nx
    failure runs y_1..y_ny; no arrangement has runs < 0.  Each term
    contributes q**(sum_j w_j x_j) where w_j is the total failure mass
    before x_j in the arrangement.  Each side's constraint is a triple
    (lo, hi, need): every part in lo..hi (no cap when hi is None) and,
    unless need is 0, some part >= need.  Raises EnumerationBudgetError
    beyond `_DIRECT_BUDGET` compositions or pairs.
    """
    if m < 0 or r < 0 or runs < 0:
        return _ZERO
    if runs == 0:
        # no parts at all: met unless a side needs a part >= need
        ok = m == 0 and r == 0 and not xcon[2] and not ycon[2]
        return _ONE if ok else _ZERO
    first_success = last_x == runs % 2
    nx = (runs + last_x) // 2
    ny = runs - nx

    xcomps = _materialize(m, nx, xcon, _DIRECT_BUDGET)
    if not xcomps:
        return _ZERO
    ycomps = _materialize(r, ny, ycon, _DIRECT_BUDGET)
    if not ycomps:
        return _ZERO
    if len(xcomps) * len(ycomps) > _DIRECT_BUDGET:
        raise EnumerationBudgetError(
            f"{len(xcomps)}x{len(ycomps)} composition pairs exceed budget {_DIRECT_BUDGET}")

    coeffs = [0] * (m * r + 1)
    for ys in ycomps:
        # prefix[j] = failure mass in runs y_1..y_j
        prefix = [0] * (ny + 1)
        for j, y in enumerate(ys):
            prefix[j + 1] = prefix[j] + y
        # x_j is preceded by j failure runs when the arrangement starts with
        # a failure run, and by j-1 of them when it starts with a success run
        off = 0 if first_success else 1
        for xs in xcomps:
            w = 0
            for j, x in enumerate(xs):
                w += prefix[j + off] * x
            coeffs[w] += 1
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _shift_add(dst, src, shift):
    if len(dst) < shift:
        dst.extend([0] * (shift - len(dst)))
    end = min(len(dst), shift + len(src))
    dst[shift:end] = map(operator.add, dst[shift:end], src)
    dst.extend(src[end - shift:])  # the part of src past dst's end


def packed_width(n):
    """Bits per coefficient of a packed polynomial in a table of size n, a
    multiple of 8.  In the domain of `band_diagonals` an arrangement of
    m + r <= n symbols is its binary string, so a count is below 2**n and
    n + 1 bits hold it."""
    return n // 8 * 8 + 8


def _steps(c, n, *exps):
    """(scale, steps): per exponent e, the steps by c**(e*i), i = 0..n,
    applied as scale(x, step).  At a power of two c > 0 a step is a shift
    by log2(c)*e*i bits, otherwise a multiply by c**(e*i):
    `x * (1 << k)` costs many times `x << k` in CPython.  The steps are
    None where each is 1 (c = 1 or e = 0) or e is None."""
    if c > 0 and not c & (c - 1):
        unit = [(c.bit_length() - 1) * i for i in range(n + 1)]
        scale, power = operator.lshift, operator.mul
    else:
        unit = [c ** i for i in range(n + 1)]
        scale, power = operator.mul, pow
    return scale, [None if not e or c == 1 else unit if e == 1 else [power(u, e) for u in unit]
                   for e in exps]


def _scaled(diag, scale, steps):
    """The entries of `diag` times `steps` in turn, as `_steps` gives them."""
    return diag if steps is None else map(scale, diag, steps)


def _next(prev, enter, leave, scale, steps):
    """(prev + enter - leave) times steps[0], as a tuple, leave (or None)
    scaled by steps[1] and enter (or None) as it is: one diagonal of one
    side, each term indexed alike and prev one entry short."""
    out = [*prev, 0]
    if enter is not None:
        out[:len(enter)] = map(operator.add, out, enter)
    if leave is not None:
        out[:len(leave)] = map(operator.sub, out, _scaled(leave, scale, steps[1]))
    # tuples from lists, of exact size: one built from an iterator keeps
    # the slack of its last resize
    return tuple(out if steps[0] is None else list(map(scale, out, steps[0])))


def band_diagonals(xband, yband, n, a, b):
    """Anti-diagonals of the arrangement table of one pair of bands at
    q = a/b, bottom-up: yields (d, S_d, F_d) for d = 0..n, holding only
    the earlier diagonals the recurrence still reads.

    A band (lo, hi) bounds every run of its symbol to lo..hi (no cap when
    hi is None).  S and F hold the q-weighted count of the arrangements of
    m successes and r failures that end with a success run (S) or a
    failure run (F), and the empty arrangement at (0, 0) in both: the
    top-down `arrangement_poly` with need 0 on both sides, at q.  S_d and
    F_d are tuples of ints, so a caller stores them as they come and the
    garbage collector stops tracking them, entry r the arrangement
    (d - r, r); the entry is the integer numerator of its value over
    b**(m*r), since each of its polynomials has degree <= m*r; at b = 1
    (int q, q = 1) it is the value itself, and q = 0 goes through
    0**0 == 1.  Failure runs need lo = 1 and success runs lo 0 or 1, the
    bands the library's constraints give; beside empty success runs
    (x lo 0) failure runs need hi 1, as in the longest-run cells, or 0,
    the empty band; other bands raise `ValueError` at the first diagonal
    (beside empty success runs, failures split around them in more than
    one way, and no library caller asks for them).  At a = 1 << w, b = 1,
    w >= `packed_width(n)`, an entry is its polynomial packed, coefficient
    i at bits w*i: a polynomial with coefficients below 2**w is its value
    at q = 2**w.

    Each diagonal comes from earlier ones, at O(1) int operations per
    entry and no state carried along it; in numerators, a term outside
    the table being 0,

        F(m, r) = (F(m, r-1) + S(m, r-1) - S(m, r-yhi-1) b**(m*yhi)) b**m,
        S(m, r) = (S(m-1, r) + F(m-1, r) - F(m-xhi-1, r) a**(r*xhi)) a**r:

    the last run one symbol longer, plus a last run of length 1, minus
    one that has just grown too long.  So F reads S at most yhi + 1
    diagonals back (1 when yhi is None) and S reads F at most
    max(xlo, xhi + 1) back, and the pass holds no diagonal older than
    that: a caller that keeps the sizes it asks for holds O(n) entries
    per size beside an O(n * window) pass, not the O(n**2) table.  At
    xlo = 0 the entering term is F(m, r) itself, filled first and added
    after the step; at yhi = 1 (the longest-run cells) F is one term,
    S(m, r-1) b**m.  Diagonal 0, the empty arrangement, is 1 in both,
    but 0 as the predecessor of its own side (F(0, 0) in F(0, 1),
    S(0, 0) in S(1, 0)) unless xlo = 0, where in S it also ends with an
    empty success run.  F's terms share m and S's share r, so F is
    filled by m and reversed.  The fill is linear and exact on ints, so
    a signed sum of packed diagonals unpacks to the signed sum of their
    coefficients when each of those fits in w bits.

    The kernel cache reads every band pair through this pass at q = 2**w,
    and at an exact q every one but a long cap k of the cells, (0, k) x
    (1, 1) at n // (k + 1) <= k, which `capped_cells` sums from this
    pass's uncapped cells (0, None) x (1, 1): the leaving term's
    a**(r*k) products and the cells' F window bind only the packed reads
    and the short caps.
    """
    xlo, xhi = xband
    ylo, yhi = yband
    if ylo != 1 or xlo not in (0, 1) or not xlo and yhi not in (0, 1):
        raise ValueError(f"bands {xband} x {yband}: failure runs need lo 1, success runs "
                         "lo 0 or 1 and, beside empty success runs, failure runs hi 0 or 1")
    # how far back each side's diagonals are read
    s_back = 1 if yhi is None else yhi + 1
    f_back = xlo if xhi is None else max(xlo, xhi + 1)
    s_scale, s_steps = _steps(a, n, 1, xhi)
    f_scale, f_steps = _steps(b, n, 1, yhi)
    s_diags, f_diags = [(1,)], [(1,)]  # the empty arrangement
    yield 0, s_diags[0], f_diags[0]
    s, f = (0,) if xlo else (1,), (0,)  # diagonal 0 as its own side's predecessor
    for d in range(1, n + 1):
        if yhi == 1:
            f = (*_scaled(s_diags[d - 1][::-1], f_scale, f_steps[1]), 0)
        else:
            f = _next(f, s_diags[d - 1][::-1],
                      s_diags[d - yhi - 1][::-1] if yhi is not None and d > yhi else None,
                      f_scale, f_steps)
        f_diags.append(f[::-1])
        s = _next(s, f_diags[d - 1] if xlo else None,
                  f_diags[d - xhi - 1] if xhi is not None and d > xhi else None, s_scale, s_steps)
        if not xlo:
            s = tuple(list(map(operator.add, s, f_diags[d])))
        s_diags.append(s)
        yield d, s, f_diags[d]
        # no later diagonal reads these
        if d >= s_back:
            s_diags[d - s_back] = None
        if d >= f_back:
            f_diags[d - f_back] = None


def capped_cells(k, n, a, b, uncapped):
    """S_n, anti-diagonal n of the S side of the longest-run cells capped
    at k, the band pair ((0, k), (1, 1)), at q = a/b, as `band_diagonals`
    yields it, from the uncapped cells ((0, None), (1, 1)): uncapped[d] is
    their S diagonal of size d, entry y the Gaussian binomial [d, y] at
    a/b over b**((d - y)*y), read at the sizes d = n - s*(k + 1), s >= 0.

    The cells of S(m, y) are y + 1 success runs of 0..k around y single
    failures, run j weighing j per item.  By inclusion-exclusion over the
    s runs of k + 1 or more (the q-binomial theorem), with c = k + 1,

        S(m, y) = sum_s (-1)**s q**(c*s*(s-1)/2) [y+1, s]_(q**c) [n-s*c, y]_q,

    s from 0 to min(y + 1, (n - y) // c): taking c items from each of
    runs j_1 < ... < j_s leaves uncapped cells and removes weight
    c*(j_1 + ... + j_s), whose sum over the s-subsets is the first two
    factors.  In numerators over b**(m*y), term s is (a*b)**(c*s*(s-1)/2)
    times G[y+1][s], the numerator of [y+1, s] at q**c over
    b**(c*s*(y+1-s)), times the uncapped entry.  G comes from the
    q-Pascal rule, G[N][s] = G[N-1][s-1] b**(c*(N-s)) + a**(c*s) G[N-1][s],
    one row per y and only as far as the sum reads it; from y = n - c + 1
    on the sum is the uncapped entry alone.  `cell_failures` gives the F
    side from S_(n-1).

    The identity is exact at any a/b, with up to n // c + 1 terms per
    entry against a pass of n diagonals, so it pays for long caps (the
    kernel cache takes it where n // c <= k, at exact q <= 1) and not at
    q = 2**w, where each product is a polynomial product.
    """
    c = k + 1
    cols = [uncapped[d] for d in range(n, -1, -c)]
    signed = [(-1) ** s * (a * b) ** (c * s * (s - 1) // 2) for s in range(len(cols))]
    a_steps = [a ** (c * s) for s in range(len(cols))]
    b_steps = [b ** (c * i) for i in range(n - c + 2)]
    g = [1]  # row y + 1 of G, y = -1
    out = []
    for y in range(n - c + 1):
        top = min(y + 1, (n - y) // c)
        g = [1, *(g[s - 1] * b_steps[y + 1 - s] + (a_steps[s] * g[s] if s < len(g) else 0)
                  for s in range(1, top + 1))]
        out.append(sum([signed[s] * g[s] * cols[s][y] for s in range(1, top + 1)], cols[0][y]))
    return (*out, *cols[0][len(out):])


def cell_failures(s_prev, b):
    """F_n of the longest-run cells, n >= 1, from their S_(n-1) at q = a/b:
    F(m, y) = S(m, y - 1) b**m, and 0 at y = 0, as `band_diagonals` fills
    it for failure runs of length 1."""
    n = len(s_prev)
    scale, (steps,) = _steps(b, n, 1)
    return (0, *_scaled(s_prev, scale, None if steps is None else steps[n - 1::-1]))


def unpack(p, w):
    """Coefficient tuple, trimmed, of a packed polynomial of width w bits
    (a multiple of 8): one `to_bytes` and a slice per coefficient."""
    if not p:
        return _ZERO
    step = w // 8
    size = -(-p.bit_length() // w) * step
    raw = p.to_bytes(size, "little")
    cuts = map(slice, range(0, size, step), range(step, size + step, step))
    return tuple(map(int.from_bytes, map(raw.__getitem__, cuts), repeat("little")))


def unpack_matrix(rows, w):
    """(low, M): the nonzero packed polynomials `rows` (width w bits, a
    multiple of 8, nonnegative coefficients) as one float64 matrix over
    the range of their nonzero powers, so M[i, e] is the coefficient of
    q**(low + e) in rows[i].  No rows give (0, a 0 x 0 matrix).
    `KernelValueCache.float_matrix` unpacks with it, once, the nonzero
    entries a float plan reads, one row per term.

    One numpy unpack per block of rows, so the buffers beside M stay near
    16 MB: each row's bytes, little-endian, go into one buffer, each
    coefficient padded to whole 64-bit limbs, and the limbs are scaled to
    float64 from the top one down.  While w <= 64 (tables of size
    n <= 63) a coefficient is one limb and its float is float(c) exactly;
    beyond, within one ulp of it.  Raises `OverflowError` where a
    coefficient overflows a float, as float(c) does.
    """
    if not rows:
        return 0, np.zeros((0, 0))
    # the lowest and highest nonzero coefficient of any row
    low = min(((p & -p).bit_length() - 1) // w for p in rows)
    cols = (max(p.bit_length() for p in rows) - 1) // w + 1 - low
    step = w // 8
    limbs = -(-step // 8)
    out = np.empty((len(rows), cols))
    block = max(1, (1 << 24) // (cols * limbs * 8))  # rows per 16 MB of limbs
    for a in range(0, len(rows), block):
        part = rows[a:a + block]
        raw = b"".join([(p >> low * w).to_bytes(cols * step, "little") for p in part])
        digits = np.zeros((len(part), cols, limbs * 8), np.uint8)
        digits[:, :, :step] = np.frombuffer(raw, np.uint8).reshape(len(part), cols, step)
        words = digits.view("<u8")
        with np.errstate(over="ignore"):
            part = words[:, :, -1].astype(np.float64)
            for i in range(limbs - 2, -1, -1):
                part = np.ldexp(part, 64) + words[:, :, i]
        out[a:a + block] = part
    if not np.isfinite(out).all():
        raise OverflowError("a kernel coefficient is too large for a float")
    return low, out


def _fill(memo, top, parts):
    """Memo entry of state `top`, after filling every state below it that
    the memo lacks, children first and without recursion.

    `parts(key)` gives a state's own coefficients and its (shift, child
    key) pairs: the state is its own plus q**shift times each child.  A
    state waits on a stack above its missing children.  Values are
    coefficient tuples, never mutated.  Children are trimmed and
    nonnegative and zero ones are skipped, so sums need no trim; a state
    with no own coefficients and one unshifted child stores the child's
    tuple itself.
    """
    out = memo.get(top)
    if out is not None:
        return out
    stack = [(top, None)]  # (key, its parts once asked for)
    while stack:
        key, got = stack.pop()
        if got is None:
            if key in memo:  # pushed by two parents
                continue
            got = parts(key)
            missing = [(child, None) for _, child in got[1] if child not in memo]
            if missing:
                stack += [(key, got), *missing]
                continue
        own, kids = got
        if own == _ZERO and len(kids) == 1 and not kids[0][0]:
            memo[key] = memo[kids[0][1]]
            continue
        acc = list(own)
        for shift, child in kids:
            poly = memo[child]
            if poly != _ZERO:
                _shift_add(acc, poly, shift)
        memo[key] = tuple(acc)
    return memo[top]


def kernel_eval_poly(last_x, runs, m, r, xcon, ycon, memo):
    """Kernel polynomial of one arrangement shape, the last run's symbol
    (a success iff `last_x`) and the run count: `arrangement_poly` with
    `runs` fixed (memoized); no arrangement has runs < 0."""
    return _ZERO if runs < 0 else arrangement_poly(last_x, m, r, xcon, ycon, memo, runs)


def _arrangement_parts(key):
    """`_fill` parts of one `arrangement_poly` state: the peels of its last run."""
    last_x, m, r, xcon, ycon, runs = key
    if runs == 0 or runs is None and m == r == 0:
        # no parts at all: met unless a side needs a part >= need
        return (_ZERO if m or r or xcon[2] or ycon[2] else _ONE), ()
    left = None if runs is None else runs - 1
    lo, hi, need = con = xcon if last_x else ycon
    relaxed, total = (lo, hi, 0), m if last_x else r
    kids = []
    for a in range(lo, (total if hi is None else min(hi, total)) + 1):
        c = relaxed if need and a >= need else con
        kids.append((r * a, (False, m - a, r, c, ycon, left)) if last_x
                    else (0, (True, m, r - a, xcon, c, left)))
    return _ZERO, kids


def arrangement_poly(last_x, m, r, xcon, ycon, memo, runs=None):
    """Sum of the kernels of every run count: the q-weighted count of the
    arrangements of m successes and r failures that end with a success run
    iff `last_x`, plus the empty arrangement (memoized).  Failure runs
    have length >= 1.  Given `runs`, only the arrangements of that many
    runs count, and the empty one only at runs = 0.

    Peeling the last run leaves a prefix that ends with the other symbol or
    is empty.  Peeling a success run of length a multiplies by q**(r*a):
    every failure run still in the prefix precedes it.  A constraint (lo,
    hi, need) that requires some part >= need relaxes to (lo, hi, 0) once
    such a part has been peeled, so the relaxed entries are shared by every
    need.  With x parts from 0 (lo = 0, the longest-run cells) a leading
    empty success run and the empty prefix are one arrangement, so the
    count is that of the arrangements that start with a success run.

    One `_fill` over the states (last_x, m, r, xcon, ycon, runs): no run
    count is bounded by the recursion limit.  Keys and values hold only ints
    and None, which the garbage collector stops tracking, so a large memo
    does not slow every full collection.
    """
    return _fill(memo, (last_x, m, r, xcon, ycon, runs), _arrangement_parts)


def _cell_fits(r, s, t, k):
    """Whether some filling of r >= 1 cells of 0..k holds s items, t of them full."""
    return r >= 1 and 0 <= t <= r and 0 <= s - t * k <= (r - t) * (k - 1)


def _cell_parts(key):
    """`_fill` parts of a `cell_poly_u` state: its last cell's values (one cell, one filling)."""
    r, s, t, k = key
    kids = [(a * (r - 1), (r - 1, s - a, t if a < k else t - 1, k)) for a in range(min(k, s) + 1)]
    return (_ONE if r == 1 else _ZERO), [kid for kid in kids if _cell_fits(*kid[1])]


def cell_poly_u(r, s, t, k, memo):
    """Polynomial of the bounded-cell kernel with t full cells (memoized).

    Cells x_1..x_r take values 0..k with sum s and exactly t cells equal
    to k; cell j carries weight (j-1)*x_j.  Peeling the last cell of a
    value a multiplies by q**(a*(r-1)).  One `_fill` over the states
    (r, s, t, k) that some filling fits, so none is 0; keys and values are
    untracked by the garbage collector, as in `arrangement_poly`.
    """
    return _fill(memo, (r, s, t, k), _cell_parts) if _cell_fits(r, s, t, k) else _ZERO


def cell_poly_v(r, s, k, memo):
    """Polynomial of the bounded-cell kernel with any number of full cells:
    r cells as success runs of 0..k around r - 1 single failures, 2r - 1
    runs by `kernel_eval_poly` (whose keys are longer than `cell_poly_u`'s)."""
    return kernel_eval_poly(True, 2 * r - 1, s, r - 1, (0, k, 0), (1, 1, 0), memo)


def _uint(bound):
    """Smallest unsigned numpy integer dtype that holds 0..bound."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return np.uint64


class _Lockstep:
    """Trial sequences walked through their trials together, one numpy
    vector per statistic.

    `step(success)` applies the next trial, given its outcome per sequence
    (True = success).  Per sequence the arrays hold the failure count, the
    success weight (the sum over successes of the number of failures
    preceding each one), the current success and failure runs and either,
    for a quota (s_freq, k1, f_freq, k2), the trial at which each side met
    it (0 while it has not) or, without one, the longest runs (l1, l0).
    `grow()` doubles every sequence into its two continuations and steps
    once, so enumeration starts from the empty sequence.
    """

    def __init__(self, size, n, quota=None):
        self.max_weight = n * n // 4  # n/2 failures, then n/2 successes
        self.trials = 0
        self.quota = quota
        self._fields = ("weight", "failures", "run1", "run0",
                        *(("l1", "l0") if quota is None else ("hit1", "hit0")))
        self.weight = np.zeros(size, _uint(self.max_weight))
        for name in self._fields[1:]:
            setattr(self, name, np.zeros(size, _uint(n)))

    def _apply(self, fn):
        for name in self._fields:
            setattr(self, name, fn(getattr(self, name)))

    def grow(self):
        """Double every sequence and apply the next trial: the copies that
        fail come first, then those that succeed, so in a walk that keeps
        every sequence bit t - 1 of an index is trial t."""
        size = self.weight.size
        self._apply(lambda a: np.concatenate((a, a)))
        self.step(np.array((False, True)).repeat(size))

    def step(self, success):
        failure = ~success
        np.add(self.weight, self.failures, out=self.weight, where=success)
        self.failures += failure
        self.run1 += 1
        self.run1 *= success
        self.run0 += 1
        self.run0 *= failure
        self.trials += 1
        if self.quota is None:
            np.maximum(self.l1, self.run1, out=self.l1)
            np.maximum(self.l0, self.run0, out=self.l0)
        else:
            s_freq, k1, f_freq, k2 = self.quota
            # the success count is the trial count minus the failure count
            met1 = self.failures == self.trials - k1 if s_freq else self.run1 == k1
            met0 = self.failures == k2 if f_freq else self.run0 == k2
            self.hit1[(self.hit1 == 0) & success & met1] = self.trials
            self.hit0[(self.hit0 == 0) & failure & met0] = self.trials

    def stop(self, later):
        """Trial at which the wait ends (sooner or later rule), 0 if it has not."""
        both = (self.hit1 > 0) & (self.hit0 > 0)
        if later:
            return np.where(both, np.maximum(self.hit1, self.hit0), 0)
        return np.where(both, np.minimum(self.hit1, self.hit0), self.hit1 | self.hit0)


def enumerate_walk(n, quota=None):
    """All 2**n sequences of length n, walked: n grows from the empty
    sequence.  Bit i of a sequence's index is trial i+1, a set bit a
    success."""
    seqs = _Lockstep(1, n, quota)
    for _ in range(n):
        seqs.grow()
    return seqs


def simulate(rng, theta, q, n, samples, quota=None):
    """`samples` random length-n sequences of the model, walked.

    Each trial draws one `rng.random(samples)` and succeeds where the draw
    is below theta * q**failures, computed in float64.
    """
    seqs = _Lockstep(samples, n, quota)
    for _ in range(n):
        u = rng.random(samples)
        seqs.step(u < theta * np.power(q, seqs.failures.astype(np.float64)))
    return seqs


def _table_rows(table):
    """The rows of a (group, f, w) count table, one row tuple per group:
    (f, e_min, degree, coefficients) per f with a nonzero count, in
    ascending f, whose coefficients are the counts of weights e_min ..
    e_min + degree.  One `!= 0` / `any` / `argmax` pass finds every row's
    first and last nonzero weight."""
    nonzero = table != 0
    present = nonzero.any(axis=-1)
    first = nonzero.argmax(axis=-1)[present]
    last = table.shape[-1] - 1 - nonzero[..., ::-1].argmax(axis=-1)[present]
    groups = [[] for _ in range(table.shape[0])]
    for g, f, lo, hi, counts in zip(*(a.tolist() for a in np.nonzero(present)),
                                    first.tolist(), last.tolist(), table[present].tolist()):
        groups[g].append((f, lo, hi - lo, tuple(counts[lo:hi + 1])))
    return [tuple(rows) for rows in groups]


def count_rows(seqs, keep):
    """The walked sequences where `keep` holds, counted per failure count f:
    one row (f, e_min, degree, coefficients) per f that occurs, in ascending
    f, whose coefficients count the sequences of success weights e_min ..
    e_min + degree, a polynomial in q with the weight as exponent.  One
    `np.bincount` of the class f * width + weight, f cast to intp first,
    since in the walk's narrow unsigned dtypes the class would wrap."""
    width = seqs.max_weight + 1
    key = seqs.failures[keep].astype(np.intp) * width + seqs.weight[keep]
    table = np.bincount(key, minlength=(seqs.trials + 1) * width)
    return _table_rows(table.reshape(1, -1, width))[0]


_BLOCK = 14  # trials of the low bits of one block of indices


@functools.lru_cache(maxsize=1)
def _low_block():
    """(successes, weight) of every index below 2**_BLOCK as int32 arrays,
    from one walk: held, never mutated.  The first 2**L entries are those
    of the L-trial indices, since trailing failures add no weight."""
    walk = enumerate_walk(_BLOCK)
    return _BLOCK - walk.failures.astype(np.int32), walk.weight.astype(np.int32)


def _hit_powers(x, freq, k, n):
    """2**t for the trial t at which a side meets its quota, per bit string
    x of n trials (bit t - 1 is trial t, a set bit this side's symbol), and
    2**(n + 1) where it does not: t is the trial of the k-th set bit (freq)
    or of the last of the first k set bits in a row."""
    if k > n:
        return np.full(x.shape, 2 << n, x.dtype)
    m = x
    for j in range(1, k):
        # not `m &= ...`, which at j = 1 would write into x
        m = m & (m - 1) if freq else m & (x >> j)
    # a guard bit above every other stands for no hit
    m = m | 1 << (n if freq else n - k + 1)
    return (m & -m) << (1 if freq else k)


def waiting_stop_counts(n_max, s_freq, k1, f_freq, k2):
    """`count_rows` of the sequences whose quota wait ends at trial t, one
    row tuple per t = 1..n_max, for the sooner and the later rule: the pair
    (sooner rows, later rows), from one pass over the 2**n_max indices.

    In `enumerate_walk`'s order (bit t - 1 is trial t) a length-t prefix
    is an index i < 2**t padded with failures, and {T = t} depends on
    trials 1..t only, so the prefixes that stop at t are the indices with
    T(i) = t and i < 2**t.  Each side's hit is read off the index bits as
    a power of two (`_hit_powers`), so the sooner stop is their minimum,
    the later their maximum, and a prefix is one where i < 2**T.  The
    padding adds failures but no weight, so a prefix's class is
    (T - successes, weight).  The indices go in blocks of 2**_BLOCK, one
    `np.bincount` per rule and block into a (t, f, w) count table per
    rule, and one `_table_rows` pass per rule at the end gives the rows.
    A block's low bits take their successes and weight from `_low_block`;
    its top bits c, trials _BLOCK + 1..n_max, add scalars (c's own weight
    plus each of its successes times the low bits' failures) and bound
    its prefixes' lengths from below.  Memory stays flat in n_max; time
    is exponential in it.
    """
    n = n_max
    low = min(n, _BLOCK)
    successes, weight = (a[:1 << low] for a in _low_block())
    index = np.arange(1 << low, dtype=_uint(2 << n))  # holds 2**(n + 1), no hit
    width = n * n // 4 + 1
    size = (n + 1) * width  # one t
    tables = [np.zeros(n * size, np.intp) for _ in range(2)]
    for c in range(1 << (n - low)):
        top = [j for j in range(n - low) if c >> j & 1]
        s_top, w_top = len(top), sum(top) - len(top) * (len(top) - 1) // 2
        shortest = low + c.bit_length() if c else 1  # shortest prefix in the block
        i = index | c << low
        hit1 = _hit_powers(i, s_freq, k1, n)
        hit0 = _hit_powers(i ^ ((1 << n) - 1), f_freq, k2, n)
        for table, p in zip(tables, (np.minimum(hit1, hit0), np.maximum(hit1, hit0))):
            stopped = i < (p & ((2 << n) - 1))  # no stop by n: 2**(n + 1) masks to 0
            t = np.frexp(p[stopped].astype(np.float32))[1] - 1  # 2**t is exact in float32
            s = successes[stopped]
            w = weight[stopped] + s_top * (low - s) + w_top
            key = ((t - shortest) * (n + 1) + t - s - s_top) * width + w
            table[(shortest - 1) * size:] += np.bincount(key, minlength=(n + 1 - shortest) * size)
    return tuple(tuple(_table_rows(table.reshape(n, n + 1, width))) for table in tables)
