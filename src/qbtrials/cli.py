"""Command-line front end: PMF tables, longest-run tables, oracle runs,
differential verification, and Monte Carlo estimates.

Probabilities given as fractions ("1/2", "9/10", "1") are computed exactly
and printed as fractions; decimal inputs switch the whole run to floating
point.  Exit codes: 0 success, 1 verification mismatch, 2 argument error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction

from .distributions import (
    Rel,
    joint_longest,
    longest_run_cdf,
    longest_run_pmf,
    support_min,
    waiting_time_table,
)
from .kernels import EnumerationBudgetError
from .model import FreqQuota, Mode, ModelParams, QuotaSpec, RunQuota, quota_label
from .oracle import (
    LongestAtMost,
    ScanGrid,
    WaitingEquals,
    default_grid,
    differential_scan,
    monte_carlo_estimate,
    oracle_waiting_pmf,
    reports_to_json,
)

_FRACTION_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_prob(text: str):
    """Fraction for 'p/q' or integer literals, float for decimals."""
    if _FRACTION_RE.match(text):
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(f"zero denominator: {text!r}") from None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _parse_quota(text: str):
    kind, _, num = text.partition(":")
    if kind not in ("run", "freq") or not num.isdigit() or int(num) < 1:
        raise argparse.ArgumentTypeError(
            f"quota must look like run:K or freq:K with K >= 1, got {text!r}")
    k = int(num)
    return RunQuota(k) if kind == "run" else FreqQuota(k)


def _parse_rel(text: str) -> Rel:
    if text not in ("le", "ge"):
        raise argparse.ArgumentTypeError(f"relation must be le or ge, got {text!r}")
    return Rel(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbtrials",
        description="Exact waiting-time and longest-run distributions for "
                    "binary trials whose success probability decays "
                    "geometrically with the failure count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--theta", type=_parse_prob, required=True,
                       help="success level; decimal or fraction p/q")
        p.add_argument("--q", type=_parse_prob, required=True,
                       help="decay rate; decimal or fraction p/q")

    def add_output(p):
        p.add_argument("--exact", action="store_true",
                       help="require fraction inputs and print exact fractions")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--precision", type=int, default=17,
                       help="significant digits for float output")

    # the formula table and the enumeration table take the same arguments
    for name, text in (("pmf", "waiting-time PMF table"),
                       ("oracle", "enumeration oracle PMF table")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--mode", choices=("sooner", "later"), required=True)
        p.add_argument("--success", type=_parse_quota, required=True,
                       metavar="run:K|freq:K")
        p.add_argument("--failure", type=_parse_quota, required=True,
                       metavar="run:K|freq:K")
        add_params(p)
        p.add_argument("--n-max", type=int, required=True)
        add_output(p)

    p_long = sub.add_parser("longest", help="longest-run table")
    p_long.add_argument("--n", type=int, required=True)
    add_params(p_long)
    statistic = p_long.add_mutually_exclusive_group()
    statistic.add_argument("--cdf", action="store_true",
                           help="cumulative probabilities instead of the PMF")
    statistic.add_argument("--joint", nargs=4, metavar=("K1", "le|ge", "K2", "le|ge"),
                           help="joint probability for the success and failure runs")
    add_output(p_long)

    p_verify = sub.add_parser("verify", help="differential scan against the oracle")
    p_verify.add_argument("--grid", default="default",
                          help="'default' or a JSON grid file")
    p_verify.add_argument("--report", metavar="FILE",
                          help="write the full JSON report here (opened before the scan)")

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate with standard error")
    p_mc.add_argument("--samples", type=int, required=True)
    p_mc.add_argument("--seed", type=int, required=True)
    add_params(p_mc)
    p_mc.add_argument("--n", type=int, required=True,
                      help="sequence length / waiting-time target")
    p_mc.add_argument("--mode", choices=("sooner", "later"))
    p_mc.add_argument("--success", type=_parse_quota, metavar="run:K|freq:K")
    p_mc.add_argument("--failure", type=_parse_quota, metavar="run:K|freq:K")
    p_mc.add_argument("--atmost", type=int, metavar="K",
                      help="estimate P(longest success run <= K) instead")

    return parser


def _require_exact(parser, args) -> bool:
    """Whether to run in the exact regime, validating --exact if given."""
    exact_inputs = isinstance(args.theta, Fraction) and isinstance(args.q, Fraction)
    if args.exact and not exact_inputs:
        parser.error("--exact requires --theta and --q as fractions")
    return exact_inputs


def _params(parser, args) -> ModelParams:
    try:
        return ModelParams(args.theta, args.q)
    except ValueError as exc:
        parser.error(str(exc))


def _digits(n: int) -> str:
    """Decimal digits of an int of any size: Decimal converts without the
    interpreter's limit on int-to-string digits, and prints an integral
    value as its plain digits, as str does."""
    return str(Decimal(n))


def _fmt_value(v, exact: bool, precision: int) -> str:
    if exact:
        f = Fraction(v)
        num = _digits(f.numerator)
        return f"{num}/{_digits(f.denominator)}" if f.denominator != 1 else num
    return format(float(v), f".{precision}g")


def _emit_table(rows, args, exact, meta) -> None:
    if args.format == "json":
        payload = dict(meta)
        payload["support"] = [
            {"n": n, "p": _fmt_value(p, exact, args.precision) if exact else float(f"{float(p):.{args.precision}g}")}
            for n, p in rows
        ]
        print(json.dumps(payload, indent=2))
    else:
        print("n,probability")
        for n, p in rows:
            print(f"{n},{_fmt_value(p, exact, args.precision)}")


def _meta(args, quota=None) -> dict:
    meta = {"params": {"theta": str(args.theta), "q": str(args.q)}}
    if quota is not None:
        meta["quota"] = {
            "mode": quota.mode.value,
            "success": quota_label(quota.success_quota),
            "failure": quota_label(quota.failure_quota),
        }
    return meta


def _cmd_table(parser, args) -> int:
    """`pmf` from the formula layer, `oracle` from 2^n enumeration."""
    exact = _require_exact(parser, args)
    quota = QuotaSpec(args.success, args.failure, Mode(args.mode))
    params = _params(parser, args)
    if args.n_max < support_min(quota):
        parser.error(f"--n-max below the support minimum {support_min(quota)}")
    table_fn = waiting_time_table if args.command == "pmf" else oracle_waiting_pmf
    try:
        table = table_fn(params, quota, args.n_max)
    except EnumerationBudgetError as exc:
        parser.error(str(exc))
    rows = list(zip(table.support(), table.probs))
    _emit_table(rows, args, exact, _meta(args, quota))
    return 0


def _cmd_longest(parser, args) -> int:
    exact = _require_exact(parser, args)
    params = _params(parser, args)
    if args.n < 0:
        parser.error("--n must be >= 0")
    if args.joint is not None:
        k1s, rel1s, k2s, rel2s = args.joint
        try:
            k1, k2 = int(k1s), int(k2s)
            rel1, rel2 = _parse_rel(rel1s), _parse_rel(rel2s)
            value = joint_longest(params, args.n, k1, rel1, k2, rel2)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(str(exc))
        rows = [(args.n, value)]
        meta = _meta(args)
        meta["statistic"] = f"joint longest: success {rel1.value} {k1}, failure {rel2.value} {k2}"
    else:
        fn = longest_run_cdf if args.cdf else longest_run_pmf
        rows = [(k, fn(params, args.n, k)) for k in range(args.n + 1)]
        meta = _meta(args)
        meta["statistic"] = "longest-run cdf" if args.cdf else "longest-run pmf"
    _emit_table(rows, args, exact, meta)
    return 0


def _json_int(value) -> int:
    """A JSON integer as is; a float, string or boolean is refused, not cast."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _json_fraction(value) -> Fraction:
    """A JSON fraction string or integer as a Fraction; a float or boolean is
    refused, not read as its binary fraction or as 0/1."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"expected a fraction string or an integer, got {value!r}")
    return Fraction(value)


def _load_grid(parser, spec: str) -> ScanGrid:
    if spec == "default":
        return default_grid()
    try:
        with open(spec, encoding="utf-8") as fh:
            raw = json.load(fh)
        grid = ScanGrid(
            thetas=tuple(_json_fraction(t) for t in raw["thetas"]),
            qs=tuple(_json_fraction(t) for t in raw["qs"]),
            k_pairs=tuple((_json_int(a), _json_int(b)) for a, b in raw["k_pairs"]),
            n_max=_json_int(raw["n_max"]),
        )
        # the model types validate their fields; any bad value raises here
        for theta in grid.thetas:
            for q in grid.qs:
                ModelParams(theta, q)
        for pair in grid.k_pairs:
            for k in pair:
                RunQuota(k)
        return grid
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        parser.error(f"cannot load grid {spec!r}: {exc}")


def _cmd_verify(parser, args) -> int:
    grid = _load_grid(parser, args.grid)
    # opened before the scan, so a path that cannot be written is refused
    # up front instead of after the scan's work, but not truncated until
    # the scan has succeeded, so a refused scan leaves an old report as it
    # was
    try:
        report = open(args.report, "a", encoding="utf-8") if args.report else None
    except OSError as exc:
        parser.error(f"cannot write report {args.report!r}: {exc}")
    with report or contextlib.nullcontext():
        try:
            reports = differential_scan(grid)
        except EnumerationBudgetError as exc:
            parser.error(str(exc))
        if not reports:
            parser.error(f"grid {args.grid!r} has no points to check")
        if report:
            report.truncate(0)
            report.write(reports_to_json(reports))
    mismatches = [r for r in reports if r.verdict == "mismatch"]
    print(f"checked {len(reports)} grid points: {len(mismatches)} mismatches")
    for r in mismatches:
        print(
            f"MISMATCH {r.configuration} n={r.n}: "
            f"formula={r.formula_value} oracle={r.oracle_value}",
            file=sys.stderr,
        )
    return 1 if mismatches else 0


def _cmd_mc(parser, args) -> int:
    params = _params(parser, args)
    if args.atmost is not None:
        if args.mode or args.success or args.failure:
            parser.error("--atmost does not take --mode/--success/--failure")
        pred = LongestAtMost(args.atmost)
    else:
        if not (args.mode and args.success and args.failure):
            parser.error("mc needs either --atmost or --mode/--success/--failure")
        quota = QuotaSpec(args.success, args.failure, Mode(args.mode))
        pred = WaitingEquals(quota, args.n)
    try:
        estimate, stderr = monte_carlo_estimate(params, args.n, pred, args.samples, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    print("estimate,stderr")
    print(f"{estimate:.17g},{stderr:.17g}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call: parsing leaves no
    state in it, so every later call of the process reuses it."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command line (sys.argv[1:] without argv) and return its exit
    code; an argument error exits 2 through the parser.  Every call of a
    process parses with the one parser `_parser` built, so in-process
    callers do not rebuild the argument tree per call."""
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "precision", 1) < 1:
        parser.error("--precision must be >= 1")
    handlers = {
        "pmf": _cmd_table,
        "longest": _cmd_longest,
        "oracle": _cmd_table,
        "verify": _cmd_verify,
        "mc": _cmd_mc,
    }
    return handlers[args.command](parser, args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
