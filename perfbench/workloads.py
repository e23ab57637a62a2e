"""Seeded requests, warm-up and correctness checks for the three workloads.

Each workload is a fixed list of requests made from the seed.  The seed
picks the rational points (theta, q); the mix of request kinds, sizes and
quota configurations is the same for every seed, so the share of requests
that meet a cold cache does not depend on it either.  Denominators follow a
fixed schedule of primes, so the size of the exact arithmetic does not
depend on the seed; only the numerators do.

Every request has `run()`, the timed call into the library, and
`check(result)`, run outside the timed region.  `check` raises CheckError
on a wrong result and returns the relative errors of its float sample
(empty when the request is not in the sample).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import qbtrials as qb
from qbtrials import cli

CONFIGS = tuple(
    (s_freq, f_freq, mode)
    for s_freq in (False, True)
    for f_freq in (False, True)
    for mode in (qb.Mode.SOONER, qb.Mode.LATER)
)
K_PAIRS = tuple((k1, k2) for k1 in (2, 3, 4) for k2 in (2, 3, 4))

ORACLE_N = 14  # exact waiting-time rows are compared with enumeration up to here
LONGEST_NS = (24, 32, 40)
# prime denominators for exact points; the cycle lengths are coprime, so
# every pairing recurs and no pairing runs out of fresh points
EXACT_THETA_DENS = (7, 11, 13)
EXACT_Q_DENS = (11, 13, 17, 19)
JOINT_ORACLE_N = 16
VERIFY_N_MAX = 14
FLOAT_RTOL = 1e-9
FLOAT_SUM_SLACK = 1e-12

# request blocks per second of --seconds.  At --seconds 20 the seed commit
# times 15-25 s of requests per run on the reference machine (pure-Python
# backend, 2 vCPUs).  Every commit runs the same count, so a faster commit
# finishes sooner rather than doing more work.
TABLES_BLOCKS_PER_S = 0.4  # a block is 10 or 11 requests
SWEEP_BLOCKS_PER_S = 1.0  # a block is 9 requests
VERIFY_ROUNDS_PER_S = 0.25  # a round is 9 requests


class CheckError(Exception):
    """A request returned a wrong result."""


def make_quota(config, k1: int, k2: int) -> qb.QuotaSpec:
    s_freq, f_freq, mode = config
    return qb.QuotaSpec(
        success_quota=qb.FreqQuota(k1) if s_freq else qb.RunQuota(k1),
        failure_quota=qb.FreqQuota(k2) if f_freq else qb.RunQuota(k2),
        mode=mode,
    )


def quota_label(quota: qb.QuotaSpec) -> str:
    def one(qta):
        return f"{'freq' if isinstance(qta, qb.FreqQuota) else 'run'}:{qta.k}"

    return f"{quota.mode.value} {one(quota.success_quota)}/{one(quota.failure_quota)}"


def as_float(params: qb.ModelParams) -> qb.ModelParams:
    return qb.ModelParams(float(params.theta), float(params.q))


class Points:
    """Fresh rational (theta, q) pairs; denominators follow a fixed schedule.

    With `fresh_q` the q value is also new among all such draws, which is
    what the module-level cell value memo is keyed by.
    """

    def __init__(self, rng: random.Random, theta_dens, q_dens) -> None:
        self._rng = rng
        self._theta_dens = theta_dens
        self._q_dens = q_dens
        self._used: set = set()
        self._draws = 0

    def draw(self, fresh_q: bool = False) -> qb.ModelParams:
        td = self._theta_dens[self._draws % len(self._theta_dens)]
        qd = self._q_dens[self._draws % len(self._q_dens)]
        self._draws += 1
        for _ in range(1000):
            theta = Fraction(self._rng.randrange(1, td), td)
            q = Fraction(self._rng.randrange(qd // 2, qd), qd)
            if (theta, q) in self._used or (fresh_q and ("q", q) in self._used):
                continue
            self._used.add((theta, q))
            if fresh_q:
                self._used.add(("q", q))
            return qb.ModelParams(theta, q)
        raise RuntimeError("ran out of fresh rational points")


def _check_rows(probs, exact: bool) -> None:
    """Every row is a probability and the partial sums stay <= 1."""
    running = 0
    for p in probs:
        if exact and not isinstance(p, (int, Fraction)):
            raise CheckError(f"inexact value {p!r} in an exact table")
        if p < 0:
            raise CheckError(f"negative probability {p}")
        running = running + p
    if running > (1 if exact else 1 + FLOAT_SUM_SLACK):
        raise CheckError(f"partial sums exceed 1: {float(running)}")


def _rel_errors(floats, exacts) -> list[float]:
    if len(floats) != len(exacts):
        raise CheckError(f"float table has {len(floats)} rows, exact has {len(exacts)}")
    errs = []
    for f, e in zip(floats, exacts):
        if e == 0:
            if f != 0:
                raise CheckError(f"float value {f!r} where the exact value is 0")
            errs.append(0.0)
            continue
        err = float(abs(Fraction(f) - e) / e)
        if not err <= FLOAT_RTOL:
            raise CheckError(f"float value {f!r} off the exact value by {err:.3g} relative")
        errs.append(err)
    return errs


def _perturb(p):
    return p * (1 + Fraction(1, 10**6)) if isinstance(p, (int, Fraction)) else p * (1 + 1e-6)


def _perturb_first(probs: list) -> list:
    """Copy of `probs` with its first nonzero probability off by 1e-6 relative."""
    out = list(probs)
    i = next(i for i, p in enumerate(out) if p)
    out[i] = _perturb(out[i])
    return out


class WaitingTable:
    """Waiting-time PMF table from the support minimum to n_max.

    Exact requests get a fresh KernelValueCache, as a one-shot caller
    would; float requests use the shared default cache, as a sweep would.
    An exact reference for float requests comes from `reference_cache`.
    """

    kind = "waiting"

    def __init__(self, params, quota, n_max, float_sample, reference_cache=None):
        self.params = params
        self.quota = quota
        self.n_max = n_max
        self.float_sample = float_sample
        self.exact = reference_cache is None
        self._reference_cache = reference_cache
        self._run_params = params if self.exact else as_float(params)

    def run(self):
        cache = qb.KernelValueCache() if self.exact else None
        return qb.waiting_time_table(self._run_params, self.quota, self.n_max, cache).probs

    def check(self, probs) -> list[float]:
        lo = qb.support_min(self.quota)
        if len(probs) != self.n_max - lo + 1:
            raise CheckError(f"{len(probs)} rows for support {lo}..{self.n_max}")
        _check_rows(probs, self.exact)
        if self.exact and lo <= ORACLE_N:
            hi = min(ORACLE_N, self.n_max)
            ref = qb.oracle_waiting_pmf(self.params, self.quota, hi).probs
            if probs[: len(ref)] != ref:
                raise CheckError(f"{quota_label(self.quota)}: rows differ from enumeration")
        if not self.float_sample:
            return []
        if self.exact:
            floats = qb.waiting_time_table(
                as_float(self.params), self.quota, self.n_max, qb.KernelValueCache()).probs
            return _rel_errors(floats, probs)
        exact = qb.waiting_time_table(
            self.params, self.quota, self.n_max, self._reference_cache).probs
        return _rel_errors(probs, exact)

    corrupt = staticmethod(_perturb_first)


class JointQuadrants:
    """All four quadrants of (longest success run, longest failure run)
    split at (k1, k2), with one fresh KernelValueCache."""

    kind = "joint"

    def __init__(self, params, n, k1, k2, float_sample):
        self.params = params
        self.n = n
        le, ge = qb.Rel.LE, qb.Rel.GE
        self.quadrants = ((k1, le, k2, le), (k1, le, k2 + 1, ge),
                          (k1 + 1, ge, k2, le), (k1 + 1, ge, k2 + 1, ge))
        self.float_sample = float_sample

    def _eval(self, params):
        cache = qb.KernelValueCache()
        return [qb.joint_longest(params, self.n, a, r1, b, r2, cache)
                for a, r1, b, r2 in self.quadrants]

    def run(self):
        return self._eval(self.params)

    def check(self, probs) -> list[float]:
        _check_rows(probs, exact=True)
        if sum(probs) != 1:
            raise CheckError(f"quadrants at n={self.n} sum to {sum(probs)}")
        if self.n <= JOINT_ORACLE_N:
            ref = [qb.oracle_event_prob(self.params, self.n, qb.JointLongest(*quad))
                   for quad in self.quadrants]
            if probs != ref:
                raise CheckError(f"quadrants at n={self.n} differ from enumeration")
        if not self.float_sample:
            return []
        return _rel_errors(self._eval(as_float(self.params)), probs)

    corrupt = staticmethod(_perturb_first)


class LongestTables:
    """Longest-success-run PMF and CDF tables for k = 0..n.  They share the
    module-level cell memo, which the library API cannot reset."""

    kind = "longest"

    def __init__(self, params, n, float_sample):
        self.params = params
        self.n = n
        self.float_sample = float_sample

    def _eval(self, params):
        n = self.n
        pmf = [qb.longest_run_pmf(params, n, k) for k in range(n + 1)]
        cdf = [qb.longest_run_cdf(params, n, k) for k in range(n + 1)]
        return pmf, cdf

    def run(self):
        return self._eval(self.params)

    def check(self, result) -> list[float]:
        pmf, cdf = result
        _check_rows(pmf, exact=True)
        if sum(pmf) != 1:
            raise CheckError(f"longest-run pmf at n={self.n} sums to {sum(pmf)}")
        running = 0
        for k, (p, c) in enumerate(zip(pmf, cdf)):
            running += p
            if c != running:
                raise CheckError(f"longest-run cdf at n={self.n}, k={k} disagrees with the pmf")
        if not self.float_sample:
            return []
        fpmf, fcdf = self._eval(as_float(self.params))
        return _rel_errors(fpmf, pmf) + _rel_errors(fcdf, cdf)

    @staticmethod
    def corrupt(result):
        pmf, cdf = result
        return _perturb_first(pmf), cdf


class LongestPmfFloat:
    """Longest-success-run PMF table in float through the shared cell memo."""

    kind = "longest"

    def __init__(self, params, n, float_sample):
        self.params = params
        self.n = n
        self.float_sample = float_sample
        self._run_params = as_float(params)

    def run(self):
        return [qb.longest_run_pmf(self._run_params, self.n, k) for k in range(self.n + 1)]

    def check(self, pmf) -> list[float]:
        _check_rows(pmf, exact=False)
        if abs(sum(pmf) - 1) > FLOAT_SUM_SLACK:
            raise CheckError(f"longest-run pmf at n={self.n} sums to {sum(pmf)!r}")
        if not self.float_sample:
            return []
        exact = [qb.longest_run_pmf(self.params, self.n, k) for k in range(self.n + 1)]
        return _rel_errors(pmf, exact)

    corrupt = staticmethod(_perturb_first)


class VerifyGrid:
    """`qbtrials verify --grid FILE` in-process for one theta, one q, one
    k-pair and all 8 configurations at n_max=14."""

    kind = "verify"

    def __init__(self, params, k1, k2, path: Path, float_configs):
        self.params = params
        self.k_pair = (k1, k2)
        self.path = path
        self.float_configs = float_configs
        self.float_sample = bool(float_configs)
        self.expected_points = sum(
            VERIFY_N_MAX - qb.support_min(make_quota(c, k1, k2)) + 1 for c in CONFIGS)

    def write_grid(self) -> None:
        th, q = self.params.theta, self.params.q
        grid = {"thetas": [f"{th.numerator}/{th.denominator}"],
                "qs": [f"{q.numerator}/{q.denominator}"],
                "k_pairs": [list(self.k_pair)], "n_max": VERIFY_N_MAX}
        self.path.write_text(json.dumps(grid), encoding="utf-8")

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--grid", str(self.path)])
        return code, buf.getvalue()

    def check(self, result) -> list[float]:
        code, text = result
        want = f"checked {self.expected_points} grid points: 0 mismatches"
        if code != 0 or text.strip() != want:
            raise CheckError(f"verify exited {code} with {text.strip()!r}, expected {want!r}")
        errs = []
        for config in self.float_configs:
            quota = make_quota(config, *self.k_pair)
            exact = qb.oracle_waiting_pmf(self.params, quota, VERIFY_N_MAX).probs
            floats = qb.waiting_time_table(
                as_float(self.params), quota, VERIFY_N_MAX, qb.KernelValueCache()).probs
            errs += _rel_errors(floats, exact)
        return errs

    def corrupt(self, result):
        """What verify reports when one formula probability is off."""
        _, text = result
        return 1, text.replace(" 0 mismatches", " 1 mismatches")


class Workload:
    def __init__(self, requests, warm_up=()):
        self.requests = requests
        self._warm_up = warm_up

    def warm_up(self) -> None:
        for req in self._warm_up:
            req.run()


def _count(seconds: float, per_second: float) -> int:
    return max(2, round(seconds * per_second))


def tables_exact(seed: int, seconds: float, workdir: Path) -> Workload:
    """Blocks of one-shot exact tables: the 8 waiting-time configurations
    and 2 joint-quadrant requests, and every 3rd block 1 longest-run PMF/CDF
    request.  Longest-run requests are few but long, so that p90 falls
    among the many waiting and joint requests."""
    rng = random.Random(seed)
    points = Points(rng, EXACT_THETA_DENS, EXACT_Q_DENS)
    requests = []
    waits = joints = 0
    for block in range(_count(seconds, TABLES_BLOCKS_PER_S)):
        for config in CONFIGS:
            k1, k2 = K_PAIRS[waits % len(K_PAIRS)]
            n_max = 20 + (3 * waits) % 11
            requests.append(WaitingTable(points.draw(), make_quota(config, k1, k2),
                                         n_max, float_sample=waits % 4 == 0))
            waits += 1
        for _ in range(2):
            k1, k2 = K_PAIRS[(4 * joints) % len(K_PAIRS)]
            n = 12 + (5 * joints) % 9
            requests.append(JointQuadrants(points.draw(), n, k1, k2,
                                           float_sample=joints % 4 == 0))
            joints += 1
        if block % 3 == 0:
            # ascending n, so each longest-run request extends the cell memo
            n = LONGEST_NS[(block // 3) % len(LONGEST_NS)]
            requests.append(LongestTables(points.draw(fresh_q=True), n, float_sample=True))
    return Workload(requests)


SWEEP_K_PAIR = (3, 3)
SWEEP_N_MAX = 30
SWEEP_LONGEST_N = 40


def sweep_float(seed: int, seconds: float, workdir: Path) -> Workload:
    """Blocks of 9 float tables, each at a new (theta, q): the 8 waiting-time
    configurations at one fixed k-pair and one longest-run PMF.  Set-up
    evaluates each once, which builds every polynomial they need."""
    rng = random.Random(seed)
    points = Points(rng, theta_dens=(97,), q_dens=(101, 103, 107, 109, 113))
    reference = qb.KernelValueCache()
    quotas = [make_quota(c, *SWEEP_K_PAIR) for c in CONFIGS]

    def block(sampled):
        reqs = [WaitingTable(points.draw(), quota, SWEEP_N_MAX, sampled, reference)
                for quota in quotas]
        reqs.append(LongestPmfFloat(points.draw(), SWEEP_LONGEST_N, sampled))
        return reqs

    warm = block(False)
    blocks = _count(seconds, SWEEP_BLOCKS_PER_S)
    sampled = rng.randrange(blocks)
    requests = [req for b in range(blocks) for req in block(b == sampled)]
    return Workload(requests, warm_up=warm)


def verify_grid(seed: int, seconds: float, workdir: Path) -> Workload:
    """Rounds of 9 verify requests, one per k-pair in a seeded order, so the
    first round meets a cold enumeration cache and later rounds a warm one."""
    rng = random.Random(seed)
    points = Points(rng, EXACT_THETA_DENS, EXACT_Q_DENS)
    requests = []
    for rnd in range(_count(seconds, VERIFY_ROUNDS_PER_S)):
        order = list(K_PAIRS)
        rng.shuffle(order)
        for k1, k2 in order:
            i = len(requests)
            float_configs = rng.sample(CONFIGS, 2) if i % 3 == 0 else []
            req = VerifyGrid(points.draw(), k1, k2, workdir / f"grid-{i}.json", float_configs)
            req.write_grid()
            requests.append(req)
    return Workload(requests)


WORKLOADS = {
    "tables_exact": tables_exact,
    "sweep_float": sweep_float,
    "verify_grid": verify_grid,
}
