"""Benchmark command for randzest.

Run from the repository root:

    python3 bench/run.py --workload study-a1 --seed 26 --seconds 30 --trace 0

Workloads are described in ``workloads.py``; metric names, units and bounds
in ``BENCHMARK.json``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates each chunk with a traced repeat of
the same chunk and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A violated output
check is listed on standard error and makes the exit code 1.

Per-run records (environment, result, spans of the traced chunks) are
written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
LATENCY_SAMPLE = 65536  # op latencies kept for the percentiles
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: 26")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; skips the stored-reference checks")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time import plus set-up once and print it")
    return parser.parse_args(argv)


def environment(inherited_threads) -> dict:
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / leaf).read_text().strip() for leaf in ("level", "type", "size")
            )
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "randzest").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "RANDZEST_THREADS": inherited_threads,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_seconds(args, probes: int) -> float:
    """Median of fresh-interpreter set-ups: import randzest plus set-up calls."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    times = []
    for _ in range(probes):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Totals:
    """Sums over the chunks of a run, without keeping the chunks.

    Op latencies go into a uniform sample of fixed size (reservoir sampling,
    exact while the run has fewer ops than the sample holds), so the memory
    the harness holds, and with it ``peak_rss_mb``, does not grow with the
    number of ops the program gets through.
    """

    def __init__(self, seed: int):
        import numpy as np

        self.ops = self.attempted = self.failed = self.chunks = 0
        self.elapsed = 0.0
        self.sample = np.full(LATENCY_SAMPLE, np.nan)  # every page written up front
        self.rng = np.random.default_rng([seed, 3])

    def add(self, chunk) -> None:
        import numpy as np

        self.chunks += 1
        self.attempted += chunk.attempted
        self.failed += chunk.failed
        self.elapsed += chunk.elapsed
        latencies = np.asarray(chunk.latencies, dtype=float)
        fill = min(len(latencies), max(LATENCY_SAMPLE - self.ops, 0))
        self.sample[self.ops:self.ops + fill] = latencies[:fill]
        rest = latencies[fill:]
        if len(rest):
            seen = self.ops + fill + np.arange(len(rest))
            slots = self.rng.integers(0, seen + 1)
            keep = slots < LATENCY_SAMPLE
            for slot, latency in zip(slots[keep].tolist(), rest[keep].tolist()):
                self.sample[slot] = latency
        self.ops += len(latencies)

    def percentile_ms(self, q: float) -> float:
        import numpy as np

        return float(np.percentile(self.sample[:min(self.ops, LATENCY_SAMPLE)], q)) * 1e3


def measure(workload, seconds: float, problems: list, totals: Totals) -> None:
    """Untraced chunks until the time is up; the first chunk always completes."""
    deadline = time.perf_counter() + seconds
    while True:
        index = totals.chunks
        chunk = workload.run_chunk(index, deadline if index else None)
        problems += workload.check(chunk, index)
        totals.add(chunk)
        if time.perf_counter() >= deadline:
            return


def measure_traced(workload, seconds: float, problems: list, totals: Totals, tracer) -> tuple:
    """Pairs of chunk 0 run plainly and traced, in alternating order."""
    from tracer import summarize

    summaries = []
    plain_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        pair = {}
        for traced in ((False, True) if len(summaries) % 2 == 0 else (True, False)):
            if traced:
                mark = len(tracer.spans)
                with tracer:
                    pair[traced] = workload.run_chunk(0, None)
                summaries.append(summarize(tracer.spans[mark:]))
            else:
                pair[traced] = workload.run_chunk(0, None)
        for chunk in pair.values():
            problems += workload.check(chunk, 0)
            totals.add(chunk)
        if pair[True].result != pair[False].result:
            problems.append("a traced chunk gave other results than the same chunk untraced")
        plain_s += pair[False].elapsed
        traced_s += pair[True].elapsed
        if time.perf_counter() >= deadline:
            return summaries, 1.0 - plain_s / traced_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "randzest" / "__init__.py").is_file():
        print(f"error: no randzest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The study runner's default worker count is what gets measured.
    inherited_threads = os.environ.pop("RANDZEST_THREADS", None)

    if args.setup_probe:
        start = time.perf_counter()
        import randzest  # noqa: F401

        imported = time.perf_counter()
        import workloads

        seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
        workload = workloads.WORKLOADS[args.workload](seed, args.smoke, OUT / "work")
        before = time.perf_counter()
        workload.setup()
        print(repr(imported - start + time.perf_counter() - before))
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, OUT / "work")
    workload.prepare()
    workload.setup()

    problems: list = []
    values: dict = {}
    spans = None
    totals = Totals(args.seed)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        summaries, overhead = measure_traced(workload, args.seconds, problems, totals, tracer)
        spans = tracer.spans
        for name in {key for summary in summaries for key in summary}:
            values[name] = float(statistics.median(s.get(name, 0.0) for s in summaries))
        values["trace_overhead_frac"] = overhead
        declared = spec["per_layer"]
    else:
        setup_s = setup_seconds(args, 1 if args.smoke else SETUP_PROBES)
        measure(workload, args.seconds, problems, totals)
        values.update(
            ops_per_s=totals.ops / totals.elapsed,
            op_p50_ms=totals.percentile_ms(50),
            op_p90_ms=totals.percentile_ms(90),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            setup_s=setup_s,
        )
        declared = spec["end_to_end"]

    attempted, failed = totals.attempted, totals.failed
    values["failed_frac"] = failed / attempted
    missing = [metric["name"] for metric in declared if metric["name"] not in values]
    if missing:
        print(f"error: no value for declared metrics {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    env = environment(inherited_threads)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": env, "chunks": totals.chunks, "problems": problems, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["id", "parent", "name", "start", "end", "extra"],
                        "spans": spans}, separators=(",", ":")),
            encoding="utf-8",
        )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
