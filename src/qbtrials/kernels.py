"""Constrained-composition kernels over run arrangements of binary sequences.

A kernel sums q**w over pairs of integer compositions (success-run lengths
x_1..x_nx, failure-run lengths y_1..y_ny) laid out alternately; the weight w
of each success run is the total failure mass preceding it.  One generic
evaluator covers every named family: the families differ only in arrangement
shape and in the per-part constraints.

Values are polynomials in q with nonnegative integer coefficients.  The
kernel API (`kernel_eval`, `named_kernel`, the cell kernels) memoizes
those q-independent coefficient tuples and evaluates one at q per call
with `qcalc.poly_value`, exactly at rational q (by integer Horner and one
Fraction at the end).

Each theorem of the distribution layer sums kernels over the run index s
and over the families that end with the same symbol under the same
constraints.  For each run arrangement (x successes, y failures) that sum
covers every run count, so it is one count free of the run count.
`core.band_diagonals` fills those counts bottom-up at one q = a/b, one
anti-diagonal x + y = d at a time, per pair of bands (each side's
lo..hi); a constraint that needs some part >= need is its band minus the
band capped at need - 1, so one entry is a signed sum of up to four band
pairs' counts, each in the domain `core.band_diagonals` states.  Every
term of one side of a sum reads one anti-diagonal x + y = size of those
sums.  `KernelValueCache.diagonals` reads them at one q at a time, of
two kinds:

* at the exact q = a/b of a probability, integer numerators over
  b**(x*y);
* at the integer q = 2**w, where an entry is its polynomial packed with
  coefficient i at bits w*i.  `KernelValueCache.float_matrix` unpacks
  the nonzero entries a float probability or table reads, all at one
  width, one row per term in its order, into one q-free float64 matrix
  over the power range of those rows, held with the call's plan
  (`KernelValueCache.float_plan`), so one product with q**powers gives
  every K of the call at a float q; `KernelValueCache.arrangement_poly`
  reads one entry exactly, as a coefficient tuple, for the tests.

The store is one flat memo, (x band, y band, size) -> (S diagonal,
F diagonal), of the q last read, and holds only the anti-diagonals read,
each band pair's at the sizes asked for; a read at another q replaces
it, and a read of no entry leaves it.  It knows only q: the packed format is known only to its two
readers and to `core.packed_width`, `unpack` and `unpack_matrix`.  A
call asks for every entry it reads at once: one `_fill` fills them, a
pass per band pair to the largest size missing, and one `_entry` reads
an entry: a dict lookup per band pair and, where a side needs some part
>= need, one signed sum.  Which fill a read takes:

* the pass, at q = 2**w, for every band pair, since there each product
  of a sum would be a polynomial product;
* at an exact q <= 1, the pass for every band pair but a long cap k of
  the longest-run cells, (0, k) x (1, 1) at size n with n // (k + 1) <= k:
  that one is `core.capped_cells`, an alternating sum of at most k + 1
  terms over the uncapped cells (0, None) x (1, 1), whose one pass the
  store keeps at the sizes the sums read, beside the caps'.  Its F side
  is filled only once a read asks for it, and () until then.

`family_arrangement` gives a family's last symbol and constraints.  The
top-down peels, in a memo of their own, stay as the fixed-s API and the
references the tables are tested against: `named_kernel` is
`core.arrangement_poly` with the run count fixed, the single-cell V kernel
that peel over one cell arrangement, and U a peel of the last cell.  The
tables hold the longest-run cells too: y + 1 success runs around y single
failures (cell j weighs j - 1 per item), x constraint (0, k, 0) for the V
kernel and (0, k, k) for the U kernels summed over t >= 1 full cells.
"""

from __future__ import annotations

import functools
import operator
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from . import _core_py as core
from ._core_py import EnumerationBudgetError
from .qcalc import Scalar, poly_value

__all__ = [
    "ArrangementShape",
    "Bounded",
    "BoundedWithZero",
    "EnumerationBudgetError",
    "KernelSpec",
    "KernelValueCache",
    "Positive",
    "SomeAtLeast",
    "kernel_direct",
    "kernel_eval",
    "named_kernel",
    "longest_cell_kernel_U",
    "longest_cell_kernel_V",
    "FAMILY_NAMES",
]


class ArrangementShape(Enum):
    """First and last run symbol of the arrangement (F = failure, S = success)."""

    FF = "FF"
    FS = "FS"
    SF = "SF"
    SS = "SS"

    def x_runs(self, y_runs: int) -> int:
        """Success-run count implied by the failure-run count."""
        if self is ArrangementShape.FF:
            return y_runs - 1
        if self is ArrangementShape.SS:
            return y_runs + 1
        return y_runs


class PartConstraint(NamedTuple):
    """Every part in lo..hi (no upper cap when hi is None) and, unless need
    is 0, some part >= need."""

    lo: int
    hi: int | None
    need: int


def Bounded(hi: int) -> PartConstraint:
    """Each part in 1..hi."""
    return PartConstraint(1, hi, 0)


def BoundedWithZero(hi: int) -> PartConstraint:
    """Each part in 0..hi."""
    return PartConstraint(0, hi, 0)


def Positive() -> PartConstraint:
    """Each part >= 1."""
    return PartConstraint(1, None, 0)


def SomeAtLeast(k: int) -> PartConstraint:
    """Each part >= 1 and at least one part >= k; k <= 1 still asks for a part."""
    return PartConstraint(1, None, max(k, 1))


@dataclass(frozen=True)
class KernelSpec:
    """One constrained composition sum.

    `y_runs` is the number of failure runs; the success-run count follows
    from the shape (FF has one more failure run, SS one more success run,
    FS/SF equal counts).
    """

    shape: ArrangementShape
    y_runs: int
    x_total: int
    y_total: int
    x_constraint: PartConstraint
    y_constraint: PartConstraint

    @property
    def x_runs(self) -> int:
        return self.shape.x_runs(self.y_runs)

    def core_args(self) -> tuple:
        """(last_x, runs, m, r, xcon, ycon), the leading arguments of
        `core.kernel_eval_poly` and `core.kernel_direct_poly`: the shape as
        the last run's symbol (a success iff last_x) and the run count, -1
        when either side's is negative, then the totals and the constraints
        as plain tuples, which keep memo keys untracked by the garbage
        collector."""
        x_runs, y_runs = self.x_runs, self.y_runs
        return (self.shape.value[1] == "S", x_runs + y_runs if min(x_runs, y_runs) >= 0 else -1,
                self.x_total, self.y_total, tuple(self.x_constraint), tuple(self.y_constraint))


def _bands(con: tuple) -> tuple:
    """(band, sign) pairs whose signed sum is the constraint (lo, hi, need):
    every part in lo..hi, minus, when need is set, every part in
    lo..min(hi, need - 1)."""
    lo, hi, need = con
    if not need:
        return (((lo, hi), 1),)
    return (((lo, hi), 1), ((lo, need - 1 if hi is None else min(hi, need - 1)), -1))


class KernelValueCache:
    """Memo of kernel, arrangement and cell polynomials, of the float
    path's plans and their matrices, and of the anti-diagonals at one q;
    safe to share across threads.

    Kernel values are polynomials in q with nonnegative integer
    coefficients, so the polynomial memos hold only the q-independent
    coefficients and stay the same size however many q are asked for.
    The kernel API evaluates its polynomial at q afresh on every call:
    exactly at int or Fraction q, in floating point at float q;
    `float_matrix` hands its caller the coefficients to evaluate.  There
    are two of them:

    * `_plan_memo`: the float path's plans, keyed (name of the sides
      function, ns, *args) as `distributions._mass` asks for them: each
      term's indices and one float64 matrix of the nonzero K the plan
      reads, a row per term, unpacked by `float_matrix` (`float_plan`);
    * `_peel_memo`: the states of the top-down peels `core.arrangement_poly`
      (keys of six, the run count last) and `core.cell_poly_u` (of four):
      the fixed-s kernels and, in the default cache, the U and V cells.

    `_values` is (q, value memo), the cache's one anti-diagonal store,
    keyed q = (a, b): the anti-diagonals at a/b that reads asked for,
    keyed (x band, y band, size) -> (S diagonal, F diagonal) (`_fill`,
    `diagonals`), and the uncapped cells' diagonals that a long cap's
    sum read, F () for a long cap whose F side no read has asked for.
    An exact probability reads it at its own q, a float plan
    (`float_matrix`) and `arrangement_poly` at the integer q = 2**w of
    the width they unpack.  A call at another q replaces the pair
    under the lock, so its memory is that of one q's diagonals however
    many q are asked for.

    Keys and values hold only ints, None, strings, ranges, tuples of them
    and numpy arrays, so the garbage collector does not track them.  One
    lock guards every write.
    """

    def __init__(self) -> None:
        self._plan_memo: dict = {}
        self._peel_memo: dict = {}
        self._values: tuple = (None, {})
        self._lock = threading.Lock()

    def poly(self, spec: KernelSpec) -> tuple:
        with self._lock:
            return core.kernel_eval_poly(*spec.core_args(), self._peel_memo)

    def value(self, spec: KernelSpec, q: Scalar) -> Scalar:
        return poly_value(self.poly(spec), q)

    def arrangement_poly(self, last_x: bool, m: int, r: int, xcon: tuple, ycon: tuple) -> tuple:
        """The arrangements of m successes and r failures ending with a
        success run iff `last_x`, and the empty one, as `core.arrangement_poly`
        gives them; constraints are plain (lo, hi, need) tuples whose band
        pairs are in the domain of `core.band_diagonals` (`ValueError`
        otherwise).  The exact accessor: entry r of anti-diagonal m + r at
        q = 2**w, w = `core.packed_width(m + r)`, which is the polynomial
        packed (`diagonals`), unpacked; not memoized itself.  Each call
        reads at its own width, so a call at another width than the last
        read replaces the store."""
        if m < 0 or r < 0:
            return core._ZERO
        entry, w = (last_x, xcon, ycon, m + r), core.packed_width(m + r)
        return core.unpack(self.diagonals(1 << w, (entry,))[entry][r], w)

    def diagonals(self, q: Scalar, entries) -> dict:
        """{entry: ks} for each (last_x, xcon, ycon, size) of `entries`, at
        an int or Fraction q = a/b: ks[y] is the integer numerator over
        b**((size - y)*y) of `arrangement_poly(last_x, size - y, y, xcon,
        ycon)` at a/b, the arrangements of size - y successes and y
        failures that end with a success run iff `last_x`, and the empty
        one, for y = 0..size.  At q = 2**w, w >= `core.packed_width(size)`,
        ks[y] is that polynomial packed, coefficient i at bits w*i, which
        is how `float_matrix` and `arrangement_poly` read it.

        The cache's one anti-diagonal store, `_values`, holds one q at a
        time: a call at another q, exact or 2**w, swaps in an empty memo
        under the lock; a call with no entries reads nothing and leaves it
        as it is.  A call asks for every entry it reads at once, so
        one pass per band pair to the largest size missing fills them
        (`_fill`; a long cap of the cells at an exact q <= 1 is one sum
        over the uncapped cells instead), and the memo keeps only the
        sizes read.  Float q reads `float_matrix` instead.
        """
        if not entries:
            return {}
        a, b = q.numerator, q.denominator
        with self._lock:
            if self._values[0] != (a, b):
                self._values = (a, b), {}
            memo = self._values[1]
            _fill(memo, entries, a, b)
            return {entry: _entry(memo, entry) for entry in entries}

    def float_matrix(self, reads) -> tuple:
        """(live, low, matrix) for the entries `reads`, each (last_x, xcon,
        ycon, size, y): the arrangements of size - y successes and y
        failures that end with a success run iff `last_x`.  live lists, in
        order, the t whose entry reads[t] is not zero, and matrix[i, e] is
        the coefficient of q**(low + e) in entry reads[live[i]], as a
        q-free float64 over the power range of those rows alone.  So
        matrix @ q**(low + e) gives every nonzero K read, in order, at a
        float q.

        The entries are read as packed polynomials, `diagonals` at
        q = 2**w, all at one width, w = `core.packed_width` of the largest
        size read, and one `core.unpack_matrix` unpacks them.  Not
        memoized itself: `float_plan` holds each plan's matrix.
        `OverflowError` where a coefficient overflows a float.
        """
        w = core.packed_width(max((read[3] for read in reads), default=0))
        diagonals = self.diagonals(1 << w, dict.fromkeys(read[:4] for read in reads))
        rows = [diagonals[read[:4]][read[4]] for read in reads]
        live = [t for t, p in enumerate(rows) if p]
        low, matrix = core.unpack_matrix([rows[t] for t in live], w)
        return live, low, matrix

    def float_plan(self, key, build) -> tuple:
        """`build()`, a float probability's q-free plan and its matrix
        (`distributions._float_plan`), memoized under `key`.  Built outside
        the lock, since it reads `float_matrix`; of two threads that build
        one plan, the first to store it wins."""
        plan = self._plan_memo.get(key)
        if plan is None:
            plan = build()
            with self._lock:
                plan = self._plan_memo.setdefault(key, plan)
        return plan


@functools.cache  # a few constraint pairs, each read once per anti-diagonal
def _band_pairs(xcon: tuple, ycon: tuple) -> tuple:
    """((x band, y band), sign) pairs whose signed sum is the arrangement
    count under the constraints (lo, hi, need), by inclusion-exclusion over
    each side's need (`_bands`), the first sign 1."""
    return tuple(((xb, yb), sx * sy) for xb, sx in _bands(xcon) for yb, sy in _bands(ycon))


_UNCAPPED = ((0, None), (1, 1))  # the longest-run cells with no cap


def _fill(memo: dict, entries, a: int, b: int) -> None:
    """Store in `memo` the anti-diagonals at q = a/b that the (last_x,
    xcon, ycon, size) of `entries` read, keyed (x band, y band, size) ->
    (S diagonal, F diagonal), the tuples the pass yields; the caller holds
    the lock.  The memo knows only q: at q = 2**w (b = 1) a diagonal is
    its polynomials packed.

    Per band pair (`_band_pairs`), one `core.band_diagonals` pass to the
    largest size missing, which keeps only the sizes read.  The one
    exception is a long cap k of the longest-run cells, (0, k) x (1, 1),
    at size n // (k + 1) <= k and an exact q <= 1: `core.capped_cells`
    sums its S side from the uncapped cells, whose pass keeps the sizes
    the sum reads beside the others, and its F side, from S at n - 1, only
    where an entry reads it (F is () until then).  Short caps and every
    read at q = 2**w, where its products are polynomial products, take
    the pass.  The memo gains nothing until every pass is done, so a
    refused band leaves no entry.
    """
    wanted: dict = {}  # band pair -> the sizes read
    for _, xcon, ycon, size in entries:
        for pair, _ in _band_pairs(xcon, ycon):
            wanted.setdefault(pair, set()).add(size)
    capped = {}  # (k, size) -> whether a read takes the F side, of the long caps to fill
    if a <= b:
        failures = None  # (band pair, size) of the F sides read, found once a cap needs it
        for (xband, yband), sizes in wanted.items():
            k = xband[1]
            if xband[0] or k is None or yband != (1, 1):
                continue
            for n in [n for n in sizes if n // (k + 1) <= k]:
                sizes.remove(n)
                if failures is None:
                    failures = {(pair, size) for last_x, xcon, ycon, size in entries
                                if not last_x for pair, _ in _band_pairs(xcon, ycon)}
                f_read = ((xband, yband), n) in failures
                held = memo.get((xband, yband, n))
                if held is None or f_read and not held[1]:
                    capped[k, n] = f_read
        if capped:
            # the sizes n - s*(k + 1) of S and, where F is read, n - 1 - s*(k + 1)
            wanted.setdefault(_UNCAPPED, set()).update(
                d for (k, n), f_read in capped.items()
                for top in ((n, n - 1) if f_read else (n,)) for d in range(top, -1, -k - 1))
    filled = {}
    for (xband, yband), sizes in wanted.items():
        missing = {size for size in sizes if (xband, yband, size) not in memo}
        if missing:
            for d, s, f in core.band_diagonals(xband, yband, max(missing), a, b):
                if d in missing:
                    filled[xband, yband, d] = s, f
    if capped:
        uncapped = {d: (filled.get((*_UNCAPPED, d)) or memo[(*_UNCAPPED, d)])[0]
                    for d in wanted[_UNCAPPED]}
        for (k, n), f_read in capped.items():
            s = f = core.capped_cells(k, n, a, b, uncapped)  # at n = 0 both are (1,)
            if n:
                f = () if not f_read else core.cell_failures(
                    core.capped_cells(k, n - 1, a, b, uncapped), b)
            filled[(0, k), (1, 1), n] = s, f
    memo.update(filled)


def _entry(memo: dict, entry: tuple) -> tuple:
    """The anti-diagonal of one (last_x, xcon, ycon, size): the signed sum,
    entry by entry, of its band pairs' diagonals in `memo` (`_fill`), each
    its S side (`last_x`) or F side; `KeyError` where one is missing."""
    last_x, xcon, ycon, size = entry
    side = 0 if last_x else 1
    (pair, _), *rest = _band_pairs(xcon, ycon)
    total = memo[(*pair, size)][side]
    if not rest:
        return total
    for pair, sign in rest:
        total = map(operator.add if sign > 0 else operator.sub, total,
                    memo[(*pair, size)][side])
    return tuple(total)


_default_cache = KernelValueCache()


def kernel_direct(spec: KernelSpec, q: Scalar) -> Scalar:
    """Kernel value by exhaustive enumeration of the defining sum.

    Intended for small instances; raises EnumerationBudgetError when the
    compositions on one side, or the composition pairs, exceed the core's
    `_DIRECT_BUDGET`.  Serves as the oracle for `kernel_eval`.
    """
    return poly_value(core.kernel_direct_poly(*spec.core_args()), q)


def kernel_eval(spec: KernelSpec, q: Scalar, cache: KernelValueCache | None = None) -> Scalar:
    """Kernel value by the peel-the-last-run recurrence, memoized."""
    return (cache or _default_cache).value(spec, q)


# family -> (shape, x-constraint kind, y-constraint kind); constraint kinds:
# "b1" = Bounded(k1 - 1), "b2" = Bounded(k2 - 1), "p" = Positive,
# "g1" = SomeAtLeast(k1), "g2" = SomeAtLeast(k2).
_FF, _FS, _SF, _SS = (
    ArrangementShape.FF,
    ArrangementShape.FS,
    ArrangementShape.SF,
    ArrangementShape.SS,
)

_FAMILIES: dict[str, tuple[ArrangementShape, str, str]] = {
    "A": (_FF, "b1", "b2"),
    "B": (_SF, "b1", "b2"),
    "C": (_SS, "b1", "b2"),
    "D": (_FS, "b1", "b2"),
    "Ebar": (_FF, "b1", "p"),
    "E": (_FF, "b1", "g2"),
    "Fbar": (_SF, "b1", "p"),
    "F": (_SF, "b1", "g2"),
    "Gbar": (_SS, "p", "b2"),
    "G": (_SS, "g1", "b2"),
    "Hbar": (_FS, "p", "b2"),
    "H": (_FS, "g1", "b2"),
    "Ibar": (_SS, "p", "p"),
    "I": (_SS, "p", "g2"),
    "Jbar": (_FS, "p", "p"),
    "J": (_FS, "p", "g2"),
    "Kbar": (_FF, "p", "p"),
    "K": (_FF, "g1", "p"),
    "Lbar": (_SF, "p", "p"),
    "L": (_SF, "g1", "p"),
    "Mbar": (_FS, "b1", "p"),
    "M": (_FS, "b1", "g2"),
    "Nbar": (_SS, "b1", "p"),
    "N": (_SS, "b1", "g2"),
    "Obar": (_FF, "p", "b2"),
    "O": (_FF, "g1", "b2"),
    "Pbar": (_SF, "p", "b2"),
    "P": (_SF, "g1", "b2"),
    "Qbar": (_FS, "g1", "p"),
    "Q": (_FS, "g1", "g2"),
    "Rbar": (_FF, "p", "g2"),
    "R": (_FF, "g1", "g2"),
    "Sbar": (_SS, "g1", "p"),
    "S": (_SS, "g1", "g2"),
    "Tbar": (_SF, "p", "g2"),
    "T": (_SF, "g1", "g2"),
}

FAMILY_NAMES = tuple(_FAMILIES)


def _make_constraint(kind: str, k1: int, k2: int) -> PartConstraint:
    if kind == "b1":
        return Bounded(k1 - 1)
    if kind == "b2":
        return Bounded(k2 - 1)
    if kind == "p":
        return Positive()
    if kind == "g1":
        return SomeAtLeast(k1)
    if kind == "g2":
        return SomeAtLeast(k2)
    raise ValueError(kind)


@functools.cache  # immutable results; the waiting sums ask once per side and n
def family_arrangement(family: str, k1: int, k2: int) -> tuple[bool, tuple, tuple]:
    """(last_x, xcon, ycon) of a family, as `KernelSpec.core_args` gives
    them: what its kernels share for every s."""
    last_x, _, _, _, xcon, ycon = family_spec(family, 0, 0, 1, k1, k2).core_args()
    return last_x, xcon, ycon


def family_spec(family: str, m: int, r: int, s: int, k1: int, k2: int) -> KernelSpec:
    """KernelSpec for a named family at its own s-index convention.

    Every family indexes s so that FF shapes have s failure runs and s-1
    success runs, SS shapes s success runs and s-1 failure runs, and
    FS/SF shapes s of each.
    """
    try:
        shape, xkind, ykind = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown kernel family {family!r}") from None
    y_runs = s - 1 if shape is _SS else s
    return KernelSpec(
        shape=shape,
        y_runs=y_runs,
        x_total=m,
        y_total=r,
        x_constraint=_make_constraint(xkind, k1, k2),
        y_constraint=_make_constraint(ykind, k1, k2),
    )


def named_kernel(
    family: str,
    m: int,
    r: int,
    s: int,
    k1: int,
    k2: int,
    q: Scalar,
    cache: KernelValueCache | None = None,
) -> Scalar:
    """Value of one of the 36 named composition-kernel families."""
    return kernel_eval(family_spec(family, m, r, s, k1, k2), q, cache)


def longest_cell_kernel_U(r: int, s: int, t: int, k: int, q: Scalar) -> Scalar:
    """Weighted count of ways to fill r cells with s items, cells capped at k,
    exactly t cells full; cell j carries weight (j-1) per item."""
    if t is None:
        raise ValueError("t must be a full-cell count; longest_cell_kernel_V counts any")
    return poly_value(_cell_poly(core.cell_poly_u, r, s, t, k), q)


def longest_cell_kernel_V(r: int, s: int, k: int, q: Scalar) -> Scalar:
    """Same as the U kernel but without the full-cell count constraint."""
    return poly_value(_cell_poly(core.cell_poly_v, r, s, k), q)


def _cell_poly(cell_poly, r: int, *args) -> tuple:
    """`cell_poly(r, *args, memo)` in the default cache's peel memo."""
    if r < 1:
        raise ValueError("r must be >= 1")
    with _default_cache._lock:
        return cell_poly(r, *args, _default_cache._peel_memo)
