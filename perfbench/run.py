"""Closed-loop benchmark of qbtrials: one client, one process, one thread.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables_exact --seed 1 --seconds 20 --trace 0

Each run is a fixed, seeded list of requests for one workload, sent one
after another in this fresh process.  Every result is checked outside the
timed region.  The run prints each metric as `name: value unit`, then, as
its last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  With `--trace 0` the metrics are the end-to-end ones; with
`--trace 1` the library's public functions are wrapped and the metrics are
per-layer self times and counts.  A JSON record of the run goes to
`.perfbench-out/`.

`--seconds` fixes the number of requests in proportion, so every commit
does the same work; at `--seconds 20` the seed commit times 15-25 s of
requests per run on the reference machine.  Timings are scaled by a speed
probe to remove most of the slowdown other tenants of a shared host
cause; see `probe()`.  The library
runs from `src/` with whatever backend `qbtrials.backend_name()` reports.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import PER_LAYER, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3  # this process plus two set-up-only child processes
CHILD_TIMEOUT_S = 170
DIGITS_CAP = 17.0  # float64 carries under 17 significant digits
# median probe time on the reference machine (Intel Xeon, 2 vCPUs,
# Python 3.11.7) when it was quiet; scaled times are seconds at that speed
PROBE_REFERENCE_S = 0.0017
# a request is scaled by the median of the probes taken within this many
# seconds of it; set-up by the median of SETUP_PROBES probes taken just
# before it and as many just after it
PROBE_WINDOW_S = 3.0
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "float_digits_min": "digits",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables_exact", "sweep_float", "verify_grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child that only sets up, for the setup_s samples
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    # internal: an untraced child run skips its own set-up samples
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _child(args, *extra) -> str:
    """Run this script again in a child process and return its last line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"child {cmd[2:]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _probe_work() -> int:
    memo = {}
    acc = Fraction(0)
    x = Fraction(7, 13)
    for i in range(120):
        acc = acc * x + i
        memo[(i, i & 7)] = [i, acc.denominator & 0xFF]
    return len(memo)


def probe() -> float:
    """Seconds the speed probe takes now.

    The probe is a fixed pure-Python workload that does not touch qbtrials:
    Fraction Horner steps with growing integers, and dict and tuple churn.
    Other tenants of a shared host slow this process by 20-50% for seconds
    to minutes at a time.  Scaling a wall time by PROBE_REFERENCE_S over
    the probe's time at that moment removes most of that slowdown.
    """
    t0 = time.perf_counter()
    for _ in range(5):
        _probe_work()
    return time.perf_counter() - t0


def setup_probes() -> tuple[list[float], float]:
    """SETUP_PROBES probe times, and the wall time they took together."""
    t0 = time.perf_counter()
    times = [probe() for _ in range(SETUP_PROBES)]
    return times, time.perf_counter() - t0


def timed_loop(requests, tracer=None):
    """Send each request after the previous one completes; a request that
    raises is recorded and the loop goes on.

    The probe runs before each request and after the last one, outside the
    timed region.  A request's `latency` is its wall time scaled by the
    median probe time within PROBE_WINDOW_S of it; `wall_s` is the wall
    time as measured.
    """
    outcomes = []
    probes = [(time.perf_counter(), probe())]
    for i, req in enumerate(requests):
        if tracer:
            tracer.begin_request(i)
        t0 = time.perf_counter()
        try:
            result, error = req.run(), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed request
            result, error = None, exc
        t1 = time.perf_counter()
        if tracer:
            tracer.end_request()
        probes.append((time.perf_counter(), probe()))
        outcomes.append({"request": req, "result": result, "error": error,
                         "wall_s": t1 - t0, "span": (t0, t1)})
    for i, o in enumerate(outcomes):
        t0, t1 = o.pop("span")
        near = [p for at, p in probes if t0 - PROBE_WINDOW_S <= at <= t1 + PROBE_WINDOW_S]
        o["latency"] = o["wall_s"] * PROBE_REFERENCE_S / statistics.median(near)
    return outcomes


def check_all(outcomes):
    """Check every result; returns (failed count, relative errors of the float sample)."""
    failed = 0
    rel_errors = []
    for i, o in enumerate(outcomes):
        if o["error"] is None:
            try:
                rel_errors += o["request"].check(o["result"])
            except Exception as exc:  # noqa: BLE001 - a wrong result or a raising check
                o["error"] = exc
        if o["error"] is not None:
            failed += 1
            print(f"request {i} ({o['request'].kind}) failed: {o['error']!r}", file=sys.stderr)
    return failed, rel_errors


class _Raises:
    kind = "self-test"
    float_sample = False

    def run(self):
        raise RuntimeError("self-test request raises on purpose")

    def check(self, result):
        return []


def checker_self_test(outcomes) -> bool:
    """A corrupted probability and a raising request must each count as failed."""
    passed = [o for o in outcomes if o["error"] is None and o["request"].float_sample]
    if not passed:
        return False
    o = min(passed, key=lambda o: o["latency"])
    req = o["request"]
    corrupted = [{"request": req, "result": req.corrupt(o["result"]), "error": None}]
    raising = timed_loop([_Raises()])
    print("checker self-test (two failures expected):", file=sys.stderr)
    return check_all(corrupted)[0] == 1 and check_all(raising)[0] == 1


def latency_stats(outcomes, failed, key):
    lat = [o[key] for o in outcomes]
    return {
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8],
        "throughput_rps": (len(outcomes) - failed) / sum(lat),
    }


def end_to_end(outcomes, failed, rel_errors, setup_samples, peak_rss_mb):
    max_err = max(rel_errors, default=0.0)
    return {
        **latency_stats(outcomes, failed, "latency"),
        "setup_s": statistics.median(s for s, _ in setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "float_digits_min": min(DIGITS_CAP, -math.log10(max_err)) if max_err else DIGITS_CAP,
    }


def per_layer(tracer, outcomes, untraced_s):
    layers, per_request, extra = tracer.reduce()
    metrics = {}
    for name, unit, needs, value in PER_LAYER:
        if all(layer in tracer.installed_layers for layer in needs):
            metrics[name] = (value(layers), unit)
    if untraced_s:
        traced_s = sum(o["latency"] for o in outcomes)
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.cold_request_share"] = (extra["cold_requests"] / len(outcomes), "ratio")
    detail = {
        "layers": layers,
        "spans": extra["spans"],
        "missing_patch_targets": tracer.missing,
        "requests": [
            {"id": i, "kind": o["request"].kind, "wall_s": o["wall_s"],
             "self_s": per_request.get(i, {})}
            for i, o in enumerate(outcomes)
        ],
    }
    return metrics, detail


def _untraced_timed_s(args):
    """Total scaled request time of the same run without tracing, in a child."""
    try:
        line = json.loads(_child(args, "--trace", "0", "--setup-samples", "1"))
        done = line["attempted"] - line["failed"]
        return done / line["metrics"]["throughput_rps"]["value"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"trace: untraced reference run failed, no overhead ratio: {exc}", file=sys.stderr)
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qbtrials" / "__init__.py").is_file():
        print(f"no qbtrials source at {SRC}", file=sys.stderr)
        return 2
    untraced_s = _untraced_timed_s(args) if args.trace and not args.setup_only else None
    probes_before, probing_s = setup_probes()

    sys.path.insert(0, str(SRC))
    import numpy
    import qbtrials

    if Path(qbtrials.__file__).resolve().parent != SRC / "qbtrials":
        print(f"imported qbtrials from {qbtrials.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT_DIR) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds, Path(tmp))
        workload.warm_up()
        setup_wall_s = time.perf_counter() - _T0 - probing_s
        probes_after, _ = setup_probes()
        around = statistics.median(probes_before + probes_after)
        setup = (setup_wall_s * PROBE_REFERENCE_S / around, setup_wall_s)
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        outcomes = timed_loop(workload.requests, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
        failed, rel_errors = check_all(outcomes)
        if not checker_self_test(outcomes):
            print("checker self-test failed: a corrupted or raising request was not "
                  "counted as failed", file=sys.stderr)
            return 3

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "requests": len(outcomes),
        "backend": qbtrials.backend_name(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)), "commit": _commit(),
    }
    if args.trace:
        metrics, detail = per_layer(tracer, outcomes, untraced_s)
    else:
        setup_samples = [setup]
        for _ in range(args.setup_samples - 1):
            setup_samples.append(tuple(json.loads(_child(args, "--setup-only"))["setup"]))
        values = end_to_end(outcomes, failed, rel_errors, setup_samples, peak_rss_mb)
        metrics = {name: (v, END_TO_END_UNITS[name]) for name, v in values.items()}
        wall = latency_stats(outcomes, failed, "wall_s")
        wall["setup_s"] = statistics.median(w for _, w in setup_samples)
        detail = {"setup_samples_scaled_and_wall_s": setup_samples, "wall_clock": wall,
                  "requests": [{"kind": o["request"].kind, "latency_s": o["latency"],
                                "wall_s": o["wall_s"]} for o in outcomes],
                  "float_sample_values": len(rel_errors),
                  "error_rate": failed / len(outcomes)}

    record = {"meta": meta, "correct": failed == 0, "attempted": len(outcomes),
              "failed": failed, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "detail": detail}
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=repr), encoding="utf-8")

    print("meta: " + json.dumps(meta))
    print(f"error_rate: {failed / len(outcomes)} ratio ({failed} of {len(outcomes)} failed)")
    if not args.trace:
        beyond = len(outcomes) - math.ceil(0.9 * len(outcomes))
        print(f"latencies over {len(outcomes)} requests, {beyond} beyond p90; "
              f"float sample of {len(rel_errors)} values")
        print("wall clock, not scaled: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    for name, (v, unit) in metrics.items():
        print(f"{name}: {v} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
