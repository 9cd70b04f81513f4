"""Benchmark command for tsgp.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Runs one workload (or ``all`` of them, in one process) on inputs made from
``--seed``, measures for ``--seconds`` seconds and checks the outputs. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are
its per-layer metrics, from a traced run that also measures its own
overhead. Every result, with the environment it ran in, is also written to
``perfbench/out/``. Exit code 2 means the inputs could not be set up.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import env  # noqa: E402  (pins BLAS threads before NumPy loads)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Budget, Checks, SetupError, WORKLOADS  # noqa: E402

IMPORT_S = time.perf_counter() - _T_START
SETUP_REPS = 3
OUT_DIR = env.BENCH_DIR / "out"
SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text())
# Units of the workload figures printed beside the end-to-end metrics.
EXTRA_UNITS = {"error_rate": "ratio", "op_samples": "count", "items": "count",
               "peak_rss_mb": "MB"}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = env.ROOT / ".git"
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


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        return None


def environment(seed: int, digests: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": env.THREADS,
        "thread_env": {v: os.environ.get(v) for v in env.THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "input_digests": digests,
    }


def percentile_ms(samples, q) -> float:
    return float(np.percentile(samples, q)) * 1e3


def run_untraced(w, seed: int, seconds: float):
    """End-to-end metrics: set-up repeated SETUP_REPS times, the timed phase,
    then the workload's checks on fixed inputs."""
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        inputs = w.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    checks = Checks()
    budget = Budget(seconds=seconds)
    out = w.run(inputs, seed, budget, checks)
    w.verify(checks, out)
    metrics = {
        "setup_s": IMPORT_S + statistics.median(setup_times),
        "wall_s": budget.elapsed,
        "items_per_s": out.items / budget.elapsed,
        "op_ms_p50": percentile_ms(out.op_s, 50),
        "op_ms_p75": percentile_ms(out.op_s, 75),
    }
    extras = dict(out.extras, error_rate=checks.failed / checks.attempted,
                  op_samples=len(out.op_s), items=out.items,
                  peak_rss_mb=peak_rss_mb())
    return metrics, extras, checks, out


def run_traced(w, seed: int, seconds: float):
    """Per-layer metrics from a traced run of n units.

    The same n units also run untraced before and after it; the overhead
    ratio is the traced time over the mean untraced time, which cancels
    warm-up and drift within the process.
    """
    n = max(1, int(seconds / 3 / w.UNIT_S))
    inputs = w.setup(seed)
    checks = Checks()
    untraced = []
    tracer = tracing.Tracer()
    for phase in ("untraced", "traced", "untraced"):
        budget = Budget(units=n)
        if phase == "untraced":
            w.run(inputs, seed, budget, checks)
            untraced.append(budget.elapsed)
            continue
        with tracer.installed():
            if w.TRACE_SETUP:
                tracer.run_id = f"{w.name}-setup"
                inputs = w.setup(seed)
            tracer.run_id = f"{w.name}-{seed}"
            out = w.run(inputs, seed, budget, checks)
        traced_s = budget.elapsed
    w.verify(checks, out)
    plain_s = statistics.mean(untraced)
    extra = dict(out.layer, overhead_ratio=traced_s / plain_s)
    metrics = tracing.per_layer_metrics(tracer, extra)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"{w.name}-seed{seed}.spans.csv.gz")
    info = {"units": n, "untraced_s": untraced, "traced_s": traced_s,
            "spans": len(tracer.spans),
            "self_times": {k: {"calls": c, "inclusive_s": t, "self_s": s}
                           for k, (c, t, s) in sorted(tracer.self_times().items())}}
    return metrics, checks, out, info


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    if trace:
        values, checks, out, info = run_traced(w, seed, seconds)
        section, extras = SPEC["per_layer"], {}
    else:
        values, extras, checks, out = run_untraced(w, seed, seconds)
        section, info = SPEC["end_to_end"], {}
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in section}
    extra_units = dict(EXTRA_UNITS, **w.extras)
    record = {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "correct": checks.correct, "attempted": checks.attempted,
        "failed": checks.failed, "checks": checks.kinds,
        "metrics": metrics,
        "workload_metrics": {k: {"value": v,
                                 "unit": extra_units.get(k, "count")}
                             for k, v in extras.items()},
        "trace_info": info,
        "units": out.units, "op_s": out.op_s,
        "environment": environment(seed, out.digests),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n")
    return record


def print_record(record: dict):
    print(f"# {record['workload']} (trace {record['trace']}): "
          f"{record['failed']} of {record['attempted']} checks failed "
          f"{json.dumps(record['checks'])}")
    for section in ("metrics", "workload_metrics"):
        for name, m in record[section].items():
            print(f"{record['workload']:>9}  {name:<40} {m['value']:>14.6g} "
                  f"{m['unit']}")
    env_ = record["environment"]
    print(f"# env nproc={env_['nproc']} threads={env_['blas_threads']} "
          f"python={env_['python']} numpy={env_['numpy']} "
          f"blas={env_['blas']} commit={env_['git_commit']} "
          f"seed={env_['seed']} inputs={json.dumps(env_['input_digests'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for r in records:
        print_record(r)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
