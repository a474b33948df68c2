"""robinscatter benchmark: seeded closed-loop workloads with oracle checks.

One client in one process calls the library back to back (a closed loop,
no threads).  Run from the repository root:

    python3 bench/run.py --workload scan_dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --report              # every workload, as a table
    python3 bench/run.py --steadiness 5        # interleaved repeats, quartiles

The last line of a workload run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Outputs are
checked by ``oracle.py`` right after it runs, outside the timed region,
and then dropped; an operation fails when it raises, returns a non-finite
value, or disagrees with an oracle.

Times are reported at a nominal machine speed.  On a shared 2-vCPU KVM
guest (Xeon, Python 3.11) the same code runs up to 1.5x slower for seconds
to minutes at a time while other tenants are busy.  A short reference
kernel, timed between operations, every SAMPLE_INTERVAL_S during them (on
SIGALRM, its own time taken out of the operation's) and around and inside
each set-up probe, gives the current speed; each latency is scaled by
REF_NOMINAL_S / (median reference time over the operation).  The program
under test cannot change the kernel, so only the program's own speed moves
the scaled figures.  On that guest, when quiet, the kernel takes about
0.11 ms, so scaled times read about 10% below wall time.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve()
ROOT = workloads.ROOT
BENCHMARK_WORKLOADS = ("scan_dense", "channel_sweep", "poles_sweep")
SETUP_REPEATS = {"scan_dense": 3}
SETUP_REPEATS_DEFAULT = 15
COLD_SCAN_REPEATS = 3
REF_NOMINAL_S = 1e-4
REF_REPEATS = 3
SAMPLE_INTERVAL_S = 0.05
BLOCK_S = 0.5
# A traced run keeps every span in memory (one 1e5-point scan makes about a
# million), so it traces rounds for this share of --seconds, at least one.
TRACE_SHARE = 0.25
SUBPROCESS_TIMEOUT = 170
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def reference_kernel():
    """Interpreter-bound float work shaped like the library's series loops."""
    total = 0.0
    for j in range(40):
        x = 0.01 + 0.02 * j
        term = partial = x
        for m in range(1, 20):
            term *= -0.5 * x * x / (m * (2 * m + 3))
            partial += term
        total += partial
    return total


def reference_seconds():
    """Fastest of REF_REPEATS runs of the reference kernel."""
    best = float("inf")
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedSampler:
    """Times the reference kernel every SAMPLE_INTERVAL_S while installed."""

    def __init__(self):
        self.samples = []
        self.stolen = 0.0  # seconds spent in the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_seconds())
        self.stolen += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def timed_subprocess(args, env=None):
    """Wall time and standard output of a subprocess."""
    t0 = time.perf_counter()
    out = subprocess.run(args, check=True, cwd=ROOT, env=env, timeout=SUBPROCESS_TIMEOUT,
                         stdout=subprocess.PIPE, text=True).stdout
    return time.perf_counter() - t0, out


def cold_start(name):
    """Median scaled set-up time of fresh interpreters that each import
    robinscatter and run the workload's fixed probe operation.

    Each probe's wall time, less the probe's sampler time, is scaled by the
    median of the reference times taken around it and inside it.
    """
    args = [sys.executable, str(BENCH), "--probe", "--workload", name]
    times = []
    for _ in range(SETUP_REPEATS.get(name, SETUP_REPEATS_DEFAULT)):
        ref0 = reference_seconds()
        wall, out = timed_subprocess(args)
        child = json.loads(out)
        ref = statistics.median([ref0, reference_seconds(), *child["refs"]])
        times.append((wall - child["stolen"]) * REF_NOMINAL_S / ref)
    return statistics.median(times)


def cold_scan_seconds(tmpdir):
    """Median wall time of ``robinscatter scan --preset fig1a`` as a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    args = [sys.executable, "-c",
            "import sys; sys.argv[0] = 'robinscatter'; from robinscatter.cli import run; run()",
            "scan", "--preset", "fig1a", "--out", str(Path(tmpdir) / "cold.csv")]
    return statistics.median(timed_subprocess(args, env)[0] for _ in range(COLD_SCAN_REPEATS))


class Run:
    """What a measured run keeps of each operation: its wall and scaled
    latency, round number and whether it passed, in flat arrays, plus the
    messages of failed operations.  Outputs are dropped once checked, so
    the worker's peak RSS is that of the program and the oracle."""

    def __init__(self):
        self.wall = array("d")
        self.scaled = array("d")
        self.rounds = array("i")
        self.passed = array("b")
        self.failures = []  # (channel, messages)
        self.ops = []  # kept only for a traced run's replay


def measure(wl, seconds, verify, tracer=None, sampler=None):
    """Run rounds of operations back to back until ``seconds`` of operation
    time have passed, finishing the current round.

    ``verify(op, out)`` checks each output (or the exception raised) right
    after its operation, outside the timed region.  With a ``sampler``
    installed, its handler time is taken out of the latencies and its
    samples join the scaling.
    """
    run = Run()
    clock = time.perf_counter
    elapsed = 0.0
    for round_no, batch in enumerate(wl.batches()):
        for op in batch:
            if tracer is not None:
                tracer.op_id = len(run.wall)
                run.ops.append(op)
            ref_before = reference_seconds()
            if sampler is not None:
                n0, stolen0 = len(sampler.samples), sampler.stolen
            t0 = clock()
            try:
                out = wl.run(op)
            except Exception as exc:  # counted as a failed operation
                out = exc
            dt = clock() - t0
            during = []
            if sampler is not None:
                dt -= sampler.stolen - stolen0
                during = sampler.samples[n0:]
            ref = statistics.median([ref_before, *during, reference_seconds()])
            elapsed += dt
            run.wall.append(dt)
            run.scaled.append(dt * REF_NOMINAL_S / ref)
            run.rounds.append(round_no)
            errs = verify(op, out)
            del out
            run.passed.append(not errs)
            if errs:
                run.failures.append((op.channel, errs))
        if elapsed >= seconds:
            break
    return run


def replay(wl, ops):
    """Scaled untraced time of the same operations, for the tracing overhead."""
    clock = time.perf_counter
    total = 0.0
    ref_before = reference_seconds()
    for op in ops:
        t0 = clock()
        wl.run(op)
        dt = clock() - t0
        ref_after = reference_seconds()
        total += dt * REF_NOMINAL_S / statistics.median([ref_before, ref_after])
        ref_before = ref_after
    return total


def verifier(name, wl):
    """``verify(op, out)`` for measure(): the oracle's failure messages."""
    import oracle

    checker = oracle.CHECKS[name]

    def verify(op, out):
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"]
        return checker(op, wl.record(op, out))
    return verify


def block_throughput(rounds, latencies, passed):
    """Median over blocks of passed operations per second of operation time.

    A block is whole rounds and at least BLOCK_S of operation time (a short
    tail joins the last block).  Every round runs the workload's whole mix
    once, so blocks are alike: a block of many short rounds evens out their
    mix of fast and slow operations, and the median ignores a block hit by a
    burst the reference kernel missed.
    """
    blocks = []  # [operation time, passed operations]
    last = None
    for r, t, ok in zip(rounds, latencies, passed):
        if not blocks or (r != last and blocks[-1][0] >= BLOCK_S):
            blocks.append([0.0, 0])
        last = r
        blocks[-1][0] += t
        blocks[-1][1] += ok
    if len(blocks) > 1 and blocks[-1][0] < BLOCK_S:
        t, ok = blocks.pop()
        blocks[-1][0] += t
        blocks[-1][1] += ok
    return statistics.median(ok / t for t, ok in blocks)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name, seed, seconds, trace):
    wl_class = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmpdir:
        wl = wl_class(seed, tmpdir)
        verify = verifier(name, wl)
        if trace:
            from spans import Tracer

            tracer = Tracer()
            with tracer:
                run = measure(wl, seconds * TRACE_SHARE, verify, tracer)
            metrics = tracer.metrics(len(run.wall), sum(run.wall))
            metrics["cli.cold_scan_s"] = {"value": cold_scan_seconds(tmpdir), "unit": "s"}
            metrics["trace.overhead_ratio"] = {
                "value": sum(run.scaled) / replay(wl, run.ops), "unit": "1"}
            tracer.save(ROOT / ".bench-trace" / f"{name}.npz")
        else:
            with SpeedSampler() as sampler:
                run = measure(wl, seconds, verify, sampler=sampler)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_s = cold_start(name)
    attempted, failed = len(run.wall), len(run.failures)
    print(f"{name}: seed {seed}, {attempted} operations, {failed} failed the oracle checks")
    for channel, errs in run.failures:
        print(f"  FAIL {channel}: {'; '.join(errs[:2])}")
    if not trace:
        lat_ms = sorted(1e3 * t for t in run.scaled)
        metrics = {
            "ops_per_s": block_throughput(run.rounds, run.scaled, run.passed),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_p90_ms": percentile(lat_ms, 90),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def probe(name):
    """Run the workload's fixed probe operation in this fresh interpreter;
    print the reference times taken in it and the sampler's own time."""
    t0 = time.perf_counter()
    first = reference_seconds()
    stolen = time.perf_counter() - t0
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmpdir:
        wl = workloads.WORKLOADS[name](0, tmpdir)
        with SpeedSampler() as sampler:
            wl.run(wl.probe_op())
    t0 = time.perf_counter()
    last = reference_seconds()
    stolen += sampler.stolen + time.perf_counter() - t0
    print(json.dumps({"refs": [first, *sampler.samples, last], "stolen": stolen}))


def run_json(name, seed, seconds, trace):
    """One workload run in its own interpreter: (log lines, result)."""
    args = [sys.executable, str(BENCH), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, check=True, cwd=ROOT, capture_output=True, text=True,
                         timeout=SUBPROCESS_TIMEOUT).stdout.splitlines()
    return out[:-1], json.loads(out[-1])


def report(seed, seconds, trace):
    """Every workload, probes included, as a table with units."""
    for name in workloads.WORKLOADS:
        log, res = run_json(name, seed, seconds, trace)
        print(f"== {name}: {' '.join(workloads.WORKLOADS[name].__doc__.split())}")
        print(f"   oracle: {log[0].split(': ', 1)[1]}")
        for line in log[1:4]:
            print(f"   {line.strip()}")
        rows = dict(res["metrics"])
        rows["fail_ratio"] = {"value": res["failed"] / res["attempted"], "unit": "1"}
        if not trace:
            per_op = workloads.WORKLOADS[name].points_per_op
            ops = rows["ops_per_s"]["value"]
            if per_op:
                rows["points_per_s"] = {"value": ops * per_op, "unit": "points/s"}
            else:
                rows["solves_per_s"] = {"value": ops, "unit": "solves/s"}
        for key, m in rows.items():
            print(f"   {key:28s} {m['value']:14.6g} {m['unit']}")


def steadiness(names, repeats, seed, seconds, trace):
    """Repeat the workloads, interleaved, and print quartiles per metric."""
    values = {}
    for r in range(repeats):
        for name in names:
            t0 = time.perf_counter()
            _, res = run_json(name, seed + r, seconds, trace)
            print(name, seed + r, f"wall={time.perf_counter() - t0:.1f}s", " ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)
            for key, m in res["metrics"].items():
                values.setdefault((name, key), []).append(m["value"])
    print(f"{'workload':14s} {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    summary = {}
    for (name, key), v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:14s} {key:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")
        summary.setdefault(name, {})[key] = {"median": med, "q1": q1, "q3": q3, "runs": v}
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="operation time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true",
                      help="run every workload and print a table of metrics")
    mode.add_argument("--steadiness", type=int, metavar="REPEATS",
                      help="repeat the benchmark workloads (or --workload), interleaved, with seeds "
                           "seed..seed+REPEATS-1 and print median and quartiles")
    mode.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.report:
        report(args.seed, args.seconds, args.trace)
    elif args.steadiness:
        names = [args.workload] if args.workload else BENCHMARK_WORKLOADS
        steadiness(names, args.steadiness, args.seed, args.seconds, args.trace)
    elif args.workload is None:
        parser.error("--workload is required")
    elif args.probe:
        probe(args.workload)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))


if __name__ == "__main__":
    main()
