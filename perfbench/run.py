"""Benchmark of tuplix's parse -> elaborate -> normalize -> report pipeline.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python -m pytest perfbench/test_bench.py    # the benchmark's self-tests

Run from anywhere; the package is loaded from ``src/`` of the checkout this
file sits in. One client in one process and one thread sends requests in a
closed loop: ``tuplix.cli.main(argv)`` with stdout and stderr captured, or
``tuplix.laws.run_law``. Each request's output is checked against a
reference computed without tuplix (workloads.py). The timed loop repeats
the workload's round of requests whole until ``--seconds`` have passed.
Every time is reported at a reference speed of the machine (speed.py).

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is the median,
over several fresh interpreters, of the time from starting one to the end
of its set-up: importing tuplix and generating the workload's inputs.
``--trace 1`` is a separate run: it runs rounds untraced for half of
``--seconds``, then the same requests again with the layer functions
wrapped (tracer.py); it reports per-layer metrics per request and the
tracing overhead, and writes every span to ``perfbench/out/``.

``--workload all`` runs each workload in a fresh interpreter, one at a
time, and prints one row per workload. Otherwise the last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from speed import REFERENCE_KERNEL_S, Speed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("msc-cli", "msc-sweep", "scale", "laws")
SETUP_SAMPLES = 9

UNITS = {
    "setup_s": "s",
    "ops_per_s": "units/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "fail_ratio": "1",
    "peak_rss_mib": "MiB",
}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {
        "calls": "count",
        "self_ms": "ms",
        "total_ms": "ms",
        "kib_per_s": "KiB/s",
        "out_bytes": "bytes",
    }.get(suffix, "count" if suffix.endswith(("nodes", "tests")) else "1")


def environment() -> str:
    return (
        f"{platform.python_implementation()} {platform.python_version()}, nproc {os.cpu_count()}, "
        "one process, one thread, closed loop"
    )


class Client:
    """Sends requests one at a time and keeps per-request samples."""

    def __init__(self, tracer=None):
        import workloads
        from tuplix import cli, laws

        self.workloads, self.cli, self.laws = workloads, cli, laws
        self.law_table = {law.name: law for law in laws.all_laws()}
        self.tracer = tracer
        self.speed = Speed()
        self.sent = []  # requests in the order they ran
        self.starts: list[float] = []
        self.latencies: list[float] = []  # seconds as measured; inf for a failed request
        self.units = 0
        self.out_bytes = 0
        self.failures: list[str] = []

    def execute(self, request):
        """One request against the package; exceptions become failed outcomes."""
        Outcome = self.workloads.Outcome
        if request.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(request.argv)
            except Exception as exc:  # a traceback out of the CLI is a failed request
                return Outcome(stdout=out.getvalue(), stderr=err.getvalue(), error=exc)
            return Outcome(code, out.getvalue(), err.getvalue())
        name, trials, seed = request.law
        try:
            return Outcome(result=self.laws.run_law(self.law_table[name], trials, seed))
        except Exception as exc:
            return Outcome(error=exc)

    def send(self, request) -> None:
        self.speed.sample()
        if self.tracer is not None:
            self.tracer.request = len(self.sent)
        start = time.perf_counter()
        outcome = self.execute(request)
        elapsed = time.perf_counter() - start
        problem = self.workloads.check(request, outcome)
        self.sent.append(request)
        self.starts.append(start)
        self.units += request.units
        self.out_bytes += len(outcome.stdout.encode())
        if problem is None:
            self.latencies.append(elapsed)
        else:
            self.latencies.append(float("inf"))  # a failure misses any latency limit
            self.failures.append(f"request {len(self.sent) - 1} ({request.kind}): {problem}")

    def run_rounds(self, round_, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            for request in round_:
                self.send(request)
            if time.perf_counter() >= deadline:
                break
        self.speed.sample()

    def scaled_latencies(self) -> list[float]:
        """Request times at the reference speed (speed.py)."""
        return [t * self.speed.factor_at(s) for s, t in zip(self.starts, self.latencies)]

    def ops_per_s(self) -> float:
        return self.units / sum(self.scaled_latencies())


def quantile_ms(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1000


def measure_setup(workload: str, seed: int) -> float:
    """Median time, at the reference speed, from starting a fresh interpreter
    to the end of its set-up: importing tuplix and generating the inputs."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
        child = json.loads(done.stdout)
        # The child times the kernel itself: it may run on the other processor.
        samples.append((child["ready"] - start) * REFERENCE_KERNEL_S / child["kernel_s"])
    return statistics.median(samples)


def run_probe(inputs) -> tuple[int, list[str]]:
    """Untimed inputs past today's recursion limit: count RecursionErrors, check the rest."""
    client = Client()
    recursion_errors, wrong = 0, []
    for request in inputs.probe:
        outcome = client.execute(request)
        if isinstance(outcome.error, RecursionError):
            recursion_errors += 1
        elif (problem := client.workloads.check(request, outcome)) is not None:
            wrong.append(f"probe {request.argv[1]}: {problem}")
    return recursion_errors, wrong


def timed_run(inputs, args) -> tuple[dict[str, float], list[Client]]:
    """The end-to-end metrics, with tracing off."""
    setup_s = measure_setup(args.workload, args.seed)
    client = Client()
    client.run_rounds(inputs.round, args.seconds)
    latencies = client.scaled_latencies()
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": client.ops_per_s(),
        "latency_p50_ms": quantile_ms(latencies, 50),
        "latency_p90_ms": quantile_ms(latencies, 90),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"requests {len(client.sent)}, work units {client.units}, failed {len(client.failures)}, "
          f"fail_ratio {len(client.failures) / len(client.sent)} 1")
    return metrics, [client]


def traced_run(inputs, args) -> tuple[dict[str, float], list[Client]]:
    """The per-layer metrics: rounds for half the time untraced, then the same requests traced."""
    # Untraced first: the spans kept in memory would slow later code through
    # the garbage collector.
    untraced = Client()
    untraced.run_rounds(inputs.round, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Client(tracer)
        for request in untraced.sent:
            traced.send(request)
        traced.speed.sample()
    finally:
        tracer.uninstall()
    requests = len(traced.sent)
    scale = statistics.median(traced.speed.factor_at(start) for start in traced.starts)
    metrics = tracer.layer_metrics(requests, scale)
    metrics["cli.render.out_bytes"] = traced.out_bytes / requests
    metrics["trace.overhead_ratio"] = untraced.ops_per_s() / traced.ops_per_s()
    spans = OUT / f"spans-{args.workload}.csv.gz"
    tracer.write_spans(spans)
    print(f"traced {requests} requests, {tracer.span_count()} spans written to {spans.relative_to(ROOT)}")
    return metrics, [untraced, traced]


def run_workload(args) -> int:
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        workdir = Path(tmp)
        inputs = workloads.generate(args.workload, args.seed, workdir)
        workloads.write_files(inputs, workdir)
        if args.setup_only:
            ready = time.clock_gettime(time.CLOCK_MONOTONIC)  # the same clock in every process
            speed = Speed()
            speed.sample()
            print(json.dumps({"ready": ready, "kernel_s": speed.kernel_s[0]}))
            return 0
        print(f"workload {args.workload}  seed {args.seed}  {environment()}")
        warm = Client()
        warm.run_rounds(inputs.round, 0)  # caches and lazy imports, untimed
        metrics, clients = (traced_run if args.trace else timed_run)(inputs, args)
        recursion_errors, probe_wrong = run_probe(inputs)

    if inputs.probe:
        print(f"probe: {recursion_errors} of {len(inputs.probe)} inputs past the recursion limit "
              "end in RecursionError")
    if args.trace:
        metrics["probe.recursion_error_ratio"] = recursion_errors / len(inputs.probe) if inputs.probe else 0.0
        units = {name: layer_unit(name) for name in metrics}
    else:
        units = UNITS
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {units[name]}")
    failures = [line for client in (warm, *clients) for line in client.failures] + probe_wrong
    for line in failures:
        print(f"FAILED {line}")
    result = {
        "correct": not failures,
        "attempted": len(clients[-1].sent),
        "failed": len(clients[-1].failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in its own interpreter, one at a time; one row per workload."""
    columns = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "fail_ratio", "peak_rss_mib")
    print(f"{environment()}, seed {args.seed}, {args.seconds} s per workload")
    print(f"{'workload':<10} {'requests':>8} " + " ".join(f"{f'{c} [{UNITS[c]}]':>22}" for c in columns))
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        try:
            result = json.loads(done.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            print(f"{workload:<10} no result (exit {done.returncode})")
            status = 1
            continue
        values = {name: m["value"] for name, m in result["metrics"].items()}
        values["fail_ratio"] = result["failed"] / result["attempted"]
        print(f"{workload:<10} {result['attempted']:>8} " + " ".join(f"{values[c]:>22.6g}" for c in columns))
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/tuplix/__init__.py", "tests/case_study.py") if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"error: the checkout lacks {', '.join(missing)}; nothing to benchmark\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
