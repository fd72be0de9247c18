#!/usr/bin/env python3
"""linevidence benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``.  One process drives the package closed loop, one op at a time,
with BLAS threads pinned to the usable cores.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it spends half the time untraced
and half traced and prints the per-layer metrics (spans are written to
``.bench_out/``).  Every op is checked against independent references after
the timed region; the last line of output is one JSON object, and the exit
code is 1 when any check failed.  ``--smoke`` measures set-up once instead
of three times, for a quick end-to-end test of the harness.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150

# name -> unit; the only metrics a --trace 0 run reports in its JSON line
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "max_rel_err": "ratio",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> int:
    """Fix the BLAS pool size before numpy loads; returns the count set."""
    threads = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> None:
    """Import linevidence from this checkout's src/, never from elsewhere."""
    if not (SRC / "linevidence" / "__init__.py").is_file():
        die(f"no package source at {SRC / 'linevidence'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import linevidence

    if Path(linevidence.__file__).resolve().parent != SRC / "linevidence":
        die(f"imported linevidence from {linevidence.__file__}, not {SRC}")


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    last = metric.rsplit(".", 1)[-1]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_mb", "MB"), ("_ratio", "ratio")):
        if last.endswith(suffix):
            return unit
    if last in ("s", "self_s"):
        return "s"
    return "count"


def environment_record(blas_threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            names = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(names, "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "cpu": cpu,
    }


def measure_setup(args, probes: int, cal) -> tuple[list[float], list[float]]:
    """Seconds from process start to the first timed op, in fresh processes.

    Each probe is told when it was spawned (CLOCK_MONOTONIC is shared by all
    processes) and reports how long its set-up took from that instant.
    Returns wall seconds and seconds at the calibration's reference speed.
    """
    wall, scaled = [], []
    before = cal.sample()
    for _ in range(probes):
        spawned = time.monotonic()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", repr(spawned)]
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        if proc.returncode != 0:
            die(f"set-up probe failed (exit {proc.returncode}): {proc.stderr.strip()}")
        after = cal.sample()
        wall.append(float(proc.stdout.split()[-1]))  # the probe's last word
        scaled.append(wall[-1] * cal.factor(before, after))
        before = after
    return wall, scaled


def timed_loop(workload, seconds: float, first_op: int, kept: list, cal, tracer=None):
    """Run ops back to back for ``seconds``, sampling host speed between them.

    Returns wall latencies, latencies at the reference host speed and
    failure messages.
    """
    wall, scaled, failures = [], [], []
    i = first_op
    before = cal.sample()
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            out = workload.op(i)
        except Exception as exc:  # any escape from the package is a failed op
            out = None
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op_id = -1
        after = cal.sample()
        wall.append(t1 - t0)
        scaled.append(wall[-1] * cal.factor(before, after))
        before = after
        kept.append((i, None if out is None else workload.keep(i, out)))
        i += 1
        if t1 >= deadline:
            break
    return wall, scaled, failures


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, 10


def check_all(workload, kept):
    """Check every op after the timed region; returns problems, errors, log S tallies."""
    problems, errors = [], []
    admitted = inaccurate = 0
    failed_ops = set()
    for i, out in kept:
        if out is None:
            failed_ops.add(i)
            continue
        c = workload.check(i, out)
        if c.problems:
            failed_ops.add(i)
            problems.extend(f"op {i}: {p}" for p in c.problems)
        errors.extend(c.errors)
        admitted += c.admitted
        inaccurate += c.inaccurate
    return failed_ops, problems, errors, admitted, inaccurate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="measure set-up once")
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    blas_threads = pin_blas_threads()
    import_package()
    import workloads
    from calibration import Calibration
    from tracing import Tracer, layer_metrics

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
    except workloads.SetupMismatch as exc:
        die(str(exc))
    if args.setup_probe is not None:
        print(repr(time.monotonic() - args.setup_probe), flush=True)
        return 0

    record = {"workload": args.workload, "seed": args.seed, "inputs_sha256": workload.digest()}
    record.update(environment_record(blas_threads))
    print("# " + json.dumps(record), flush=True)

    cal = Calibration(workload.kernel)
    kept: list = []
    if tracer is None:
        setup_wall, setup = measure_setup(args, 1 if args.smoke else SETUP_PROBES, cal)
        wall, latencies, failures = timed_loop(workload, args.seconds, 0, kept, cal)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer.uninstall()
        _, plain, failures = timed_loop(workload, args.seconds / 2, 0, kept, cal)
        tracer.install()
        wall, latencies, more = timed_loop(
            workload, args.seconds / 2, len(plain), kept, cal, tracer
        )
        tracer.uninstall()
        failures += more
    speed = sum(wall) / sum(latencies)
    print(f"# host speed: {speed:.3f} x reference ({workload.kernel} kernel)")

    failed_ops, problems, errors, admitted, inaccurate = check_all(workload, kept)
    attempted = len(kept)
    failed = len(failed_ops)

    if tracer is None:
        tail_value, tail_pct, beyond = tail(latencies)
        metrics = {
            "setup_s": statistics.median(setup),
            "throughput_ops_s": len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_value,
            "max_rel_err": max([workload.accuracy, *errors]),
            "peak_rss_mb": peak_rss_mb,
        }
        wall_tail, _, _ = tail(wall)
        notes = {
            "setup_s": f"median of {len(setup)} fresh processes; wall "
            f"{statistics.median(setup_wall):.4g} s",
            "throughput_ops_s": f"wall {len(wall) / sum(wall):.4g} 1/s",
            "latency_p50_s": f"{attempted} ops; wall {statistics.median(wall):.4g} s",
            "latency_tail_s": f"p{tail_pct:.1f} of {attempted} ops, {beyond} beyond; "
            f"wall {wall_tail:.4g} s",
            "max_rel_err": f"floored at the reference accuracy {workload.accuracy:g}",
        }
        print(f"failed_ratio = {failed / attempted:.6g}   ({failed} of {attempted} ops failed)")
    else:
        metrics = layer_metrics(tracer)
        metrics["improper_prior.log_area_under_likelihood.inaccurate_ratio"] = (
            inaccurate / admitted if admitted else 0.0
        )
        traced_rate = len(latencies) / sum(latencies)
        metrics["trace.overhead_ratio"] = traced_rate / (len(plain) / sum(plain))
        notes = {
            "improper_prior.log_area_under_likelihood.inaccurate_ratio": (
                f"{inaccurate} of {admitted} admitted log S values miss the QR reference "
                "by more than max(1e-9, 64 eps cond(Phi))"
            ),
            "trace.overhead_ratio": f"traced {len(latencies)} ops / untraced {len(plain)} ops",
        }
        path = TRACE_DIR / f"trace-{args.workload}-{args.seed}.npz"
        tracer.save(path)
        print(f"# {len(tracer.start)} spans written to {path.relative_to(ROOT)}")

    for name, value in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit_of(name)}{note}")
    for line in failures + problems:
        print(f"FAILED {line}")
    correct = not failures and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
