"""Benchmark of the spqs Maslov evaluators.

    python3 perfbench/run.py --workload limit-batch --seed 0 --seconds 30 --trace 0

runs one workload in this process: set-up (timed several times), then rounds
of operations in a closed loop for about --seconds seconds.  It prints a table
of the workload's metrics with unit and sample count, the provenance, and as
its last line a JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from spans recorded around the public functions of each
spqs module, plus the tracing overhead.  Without --workload it runs every
workload, each in a fresh process, one after another.

The program is imported from src/ of the checkout this file lives in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
NAMES = ("limit-batch", "eval-cli", "verify-suite")
SETUP_REPEATS = 3
# The inputs are at most 8 x 8: a second BLAS thread only adds contention.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better); the order is the order of BENCHMARK.json's end_to_end
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "seed": seed,
    }


def run_for(seconds: float, round_fn) -> tuple[int, float]:
    """Whole rounds until another one would end past `seconds` (at least
    one); returns the number of rounds and their mean wall seconds."""
    t0 = time.perf_counter()
    rounds = 0
    while True:
        round_fn()
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > seconds:
            return rounds, elapsed / rounds


def timed_rounds(k: int, round_fn) -> float:
    """Mean wall seconds of k rounds."""
    t0 = time.perf_counter()
    for _ in range(k):
        round_fn()
    return (time.perf_counter() - t0) / k


def print_rows(title: str, rows) -> None:
    print(f"== {title}")
    print(f"{'metric':<50} {'value':>14}  {'unit':<11} {'n':>6}")
    for name, value, unit, count in rows:
        print(f"{name:<50} {value:>14.6g}  {unit:<11} {count:>6}")


def run_workload(args) -> int:
    import_s = import_program()
    import_end = time.perf_counter()
    # these load numpy and spqs, so only after import_program set them up
    import layers
    import orderstats
    import spans
    import speed
    import workloads

    timeline = speed.Timeline()
    timeline.record()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload]()
        log = workloads.Log(timeline)
        setup_times = []
        with timeline.sampling():
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                wl.setup(args.seed, workdir)
                setup_times.append(timeline.adjusted(t0, time.perf_counter()))
            if not args.trace:
                run_for(args.seconds, lambda: wl.run_round(log))
        timeline.record()
        setup_s = import_s * timeline.factor(import_end, import_end)
        setup_s += orderstats.median(setup_times)

        if args.trace:
            # spans would count the probes, so the traced run takes none
            k, untraced = run_for(args.seconds / 2, lambda: wl.run_round(log))
            tracer = spans.Tracer()
            log.tracer = tracer
            undo = layers.install(tracer)
            try:
                traced = timed_rounds(k, lambda: wl.run_round(log))
            finally:
                layers.uninstall(undo)
            values = layers.layer_metrics(tracer.spans)
            values["trace.overhead_s"] = traced - untraced
            values["trace.overhead_share"] = (traced - untraced) / untraced
            units = layers.METRICS
            metrics = {n: (values[n], len(tracer.spans)) for n in units}
            trace_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
            tracer.dump(trace_path)
            print(f"rounds: {k} untraced at {untraced:.3f} s, then {k} traced at {traced:.3f} s")
            print(f"spans: {len(tracer.spans)}, written to {os.path.relpath(trace_path, ROOT)}")
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END
            metrics = {
                "setup_s": (setup_s, SETUP_REPEATS),
                "peak_rss_mb": (rss_mb, 1),
                **log.end_to_end(),
            }
        kind = "per-layer (n = spans)" if args.trace else "end-to-end, speed-adjusted"
        print_rows(
            f"{args.workload} seed {args.seed}: {kind}",
            [(n, metrics[n][0], units[n][0], metrics[n][1]) for n in units],
        )
        if not args.trace:
            print_rows(f"{args.workload}: workload metrics (net wall time)", wl.rows(log))
        for line in getattr(wl, "report_lines", lambda: [])():
            print(line)
        for note in log.notes:
            print(f"failure: {note}")
        print("provenance: " + json.dumps(provenance(args.seed), sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": units[n][0]} for n in units},
    }
    print(json.dumps(result))
    return 0


def import_program() -> float:
    """Import spqs from this checkout's src/; returns the seconds it took."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import spqs
    import spqs.cli

    seconds = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(spqs.__file__))) != SRC:
        raise ImportError(f"spqs was imported from {spqs.__file__}, not from {SRC}")
    return seconds


def run_all(args) -> int:
    """Every workload in a fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update(
            {f"{name}/{k}": v for k, v in res["metrics"].items()}
        )
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spqs", "__init__.py")):
        print(f"error: the program's source {SRC}/spqs is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
