#!/usr/bin/env python3
"""Benchmark of weaktrace: one closed-loop client, one workload per process.

Run from the root of a checkout:

    python3 bench/run.py --workload oneshot --seed 1 --seconds 50 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs a fixed number of requests untraced and then traced, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run record (interpreter, numpy, git revision, CPU count,
seed and output digests), which is also written to ``.bench_out/``.

The package is imported from the checkout's ``src/``, never from an
installed copy, and BLAS/OpenMP are pinned to one thread before numpy
loads.  ``--workload all`` runs every workload, each in a fresh process,
and prints one table.
"""

import os
import time

PROCESS_START = time.perf_counter()
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARIABLES:
    os.environ[_var] = "1"

import argparse  # noqa: E402 - the thread pins must precede every import
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Set-up runs this many times per run, once before the timed loop and the
#: rest spread evenly over it, and its median is reported.
SETUP_REPEATS = 11
#: Fresh CLI subprocesses timed in a traced run, after one untimed run that
#: warms the file cache; ``cli.cold_start_ms`` is their median.
COLD_RUNS = 11
#: Samples the latency tail must keep beyond the reported percentile.
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_rps": "1/s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail(latencies_ns: list[int]) -> tuple[float, float]:
    """(percentile, latency ms): p99, or the highest percentile with 10 samples beyond it."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    beyond = max(TAIL_SAMPLES, n // 100)
    if n <= beyond:
        raise ValueError(f"{n} samples cannot give a tail with {TAIL_SAMPLES} beyond it")
    return 100.0 * (n - beyond) / n, ordered[n - 1 - beyond] / 1e6


class Loop:
    """Closed-loop client: the next request is sent when the previous one returns."""

    def __init__(self, plan, tracer=None):
        self.plan, self.tracer = plan, tracer
        self.latencies: list[int] = []
        self.busy_ns = 0
        self.failed = self.wrong = 0
        self.reasons: list[str] = []
        self.digest = hashlib.sha256()
        # Digest of the first trace_requests answers: it does not depend on
        # how many requests fit in the run, so any two runs of one seed, traced
        # or not, can be compared byte for byte.
        self.prefix_digest = None

    def one(self, i: int) -> None:
        plan = self.plan
        req = plan.request(i)
        if self.tracer is not None:
            self.tracer.request = i
        start = time.perf_counter_ns()
        try:
            out = plan.call(req)
        except Exception as exc:  # an unexpected raise is a failed request
            out = exc
        elapsed = time.perf_counter_ns() - start
        self.latencies.append(elapsed)
        self.busy_ns += elapsed
        try:
            reason = plan.check(req, out)
        except Exception as exc:  # an answer the checker cannot even read is wrong
            reason = f"unreadable answer: {exc!r}"
        if reason is not None:
            self.failed += 1
            self.wrong += req.well_formed
            if len(self.reasons) < 5:
                self.reasons.append(f"request {i} ({req.kind}): {reason}")
        self.digest.update(plan.render(out))
        if len(self.latencies) == plan.trace_requests:
            self.prefix_digest = self.digest.hexdigest()

    def run_for(self, seconds: float) -> list[float]:
        """Whole rounds until the requests' summed time reaches ``seconds``.

        Returns the summed request time of each round, in seconds.
        """
        budget, rounds = seconds * 1e9, []
        while self.busy_ns < budget:
            before = self.busy_ns
            for _ in range(self.plan.round_size):
                self.one(len(self.latencies))
            rounds.append((self.busy_ns - before) / 1e9)
        return rounds

    def run_count(self, count: int) -> None:
        for i in range(count):
            self.one(i)

    @property
    def busy_s(self) -> float:
        return self.busy_ns / 1e9


def cold_starts(plan) -> tuple[list[float], int]:
    """Wall times (ms) of COLD_RUNS fresh ``python -m weaktrace.cli`` runs, and how many were wrong.

    One more run before them warms the file cache and is not timed.
    """
    argv, req = plan.cold_start(OUT)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, wrong = [], 0
    for _ in range(COLD_RUNS + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "weaktrace.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=120)
        times.append((time.perf_counter() - start) * 1e3)
        wrong += plan.check_cli(req, done.returncode, done.stdout) is not None
    return times[1:], wrong


def set_up(factory, seed: int):
    """A workload's plan, and the seconds it took to build."""
    start = time.perf_counter()
    plan = factory(seed)
    return plan, time.perf_counter() - start


def git_revision() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run(args) -> dict:
    import_start = time.perf_counter()
    import numpy
    numpy_done = time.perf_counter()
    import weaktrace.cli  # noqa: F401 - timed: the CLI's import cost
    cli_done = time.perf_counter()
    import weaktrace
    if Path(weaktrace.__file__).resolve().parent != SRC / "weaktrace":
        raise RuntimeError(f"weaktrace imported from {weaktrace.__file__}, not from {SRC}")
    imports = {"numpy": (numpy_done - import_start) * 1e3, "cli": (cli_done - import_start) * 1e3}

    import spans
    import workloads

    factory = workloads.WORKLOADS[args.workload]
    plan, setup_first = set_up(factory, args.seed)
    setups = [setup_first]

    warm = Loop(plan)
    for i in range(1, plan.warmup + 1):
        warm.one(-i)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(),
              "numpy": numpy.__version__, "git": git_revision(), "nproc": os.cpu_count()}

    if args.trace:
        untraced = Loop(plan)
        untraced.run_count(plan.trace_requests)
        tracer = spans.Tracer()
        traced = Loop(plan, tracer)
        tracer.install()
        try:
            traced.run_count(plan.trace_requests)
            spans.probe(tracer)
        finally:
            tracer.restore()
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        cold_ms, cold_wrong = cold_starts(plan)
        nonfinite = workloads.nonfinite_accepted()
        same = untraced.prefix_digest == traced.prefix_digest
        record.update(requests=plan.trace_requests, prefix_sha256=untraced.prefix_digest,
                      traced_prefix_sha256=traced.prefix_digest, spans=len(tracer.spans),
                      cold_start_runs_ms=cold_ms, nonfinite_accepted=nonfinite,
                      failures=traced.reasons)
        metrics = spans.per_layer(tracer, plan.trace_requests, imports,
                                  untraced.busy_s / traced.busy_s,
                                  statistics.median(cold_ms), nonfinite)
        result = {"correct": same and traced.wrong == 0 and cold_wrong == 0,
                  "attempted": plan.trace_requests, "failed": traced.failed, "metrics": metrics}
    else:
        loop = Loop(plan)
        rounds = []
        # The set-up is repeated between stretches of the loop, so that its
        # median samples the same span of machine time as the requests do.
        # The one-time import is a single sample per process: it goes in the
        # record (and the traced cli.import_ms), not into setup_s.
        for k in range(1, SETUP_REPEATS):
            rounds += loop.run_for(args.seconds * k / (SETUP_REPEATS - 1))
            setups.append(set_up(factory, args.seed)[1])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        n = len(loop.latencies)
        percentile, tail_ms = tail(loop.latencies)
        values = {
            "setup_s": statistics.median(setups),
            "throughput_rps": plan.round_size / statistics.median(rounds),
            "latency_p50_ms": statistics.median(loop.latencies) / 1e6,
            "latency_p99_ms": tail_ms,
            "peak_rss_mb": peak_rss_mb,
        }
        record.update(requests=n, round_s=rounds, tail_percentile=percentile,
                      import_s=cli_done - PROCESS_START, setup_repeats_s=setups,
                      fail_ratio=loop.failed / n, nonfinite_accepted=workloads.nonfinite_accepted(),
                      prefix_sha256=loop.prefix_digest, outputs_sha256=loop.digest.hexdigest(),
                      failures=loop.reasons)
        result = {"correct": loop.wrong == 0, "attempted": n, "failed": loop.failed,
                  "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}}
    (OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    return result


def run_all(args) -> int:
    """Every workload in its own fresh process; one table of metrics."""
    status = 0
    for name in ("oneshot", "repeat-queries", "pointers"):
        done = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:42s} {entry['value']:>16.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oneshot", "repeat-queries", "pointers", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weaktrace" / "__init__.py").is_file():
        print(f"error: no weaktrace sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
